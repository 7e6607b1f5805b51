//! End-to-end tests of the `qssc` CLI binary: builds the checked-in
//! FlowC samples, checks every emitted artifact, and diffs the generated
//! C and the JSON reports against the golden files CI also compares
//! against.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_file(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

fn qssc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qssc"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qssc-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn build_emits_c_json_dot_and_the_golden_report() {
    let out = temp_dir("build");
    let report_path = out.join("report.json");
    let status = qssc()
        .args([
            "build",
            repo_file("samples/pipeline.flowc").to_str().unwrap(),
            "--emit",
            "c,json,dot",
            "--out",
            out.to_str().unwrap(),
            "--events",
            "source.trigger=6,7,8,9",
            "--report",
            report_path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());

    // All three artifact kinds exist and look like themselves.
    let c = std::fs::read_to_string(out.join("collatz.task_source_trigger.c")).unwrap();
    assert!(c.contains("void task_source_trigger_run(void)"));
    assert!(c.contains("goto "));
    let c_golden =
        std::fs::read_to_string(repo_file("samples/pipeline.task_source_trigger.golden.c"))
            .unwrap();
    assert_eq!(c, c_golden, "generated C drifted from the golden file");
    // The DOT artifacts match their checked-in goldens byte for byte
    // (CI re-checks both with `diff`), like the JSON report below.
    let net_dot = std::fs::read_to_string(out.join("collatz.net.dot")).unwrap();
    let net_golden = std::fs::read_to_string(repo_file("samples/pipeline.net.golden.dot")).unwrap();
    assert_eq!(net_dot, net_golden, "net dot drifted from the golden file");
    let schedule_dot =
        std::fs::read_to_string(out.join("collatz.source_trigger.schedule.dot")).unwrap();
    let schedule_golden = std::fs::read_to_string(repo_file(
        "samples/pipeline.source_trigger.schedule.golden.dot",
    ))
    .unwrap();
    assert_eq!(
        schedule_dot, schedule_golden,
        "schedule dot drifted from the golden file"
    );
    let pipeline_json = std::fs::read_to_string(out.join("collatz.pipeline.json")).unwrap();
    let task = qss::TaskArtifact::from_json(&pipeline_json).unwrap();
    assert_eq!(task.spec.name(), "collatz");
    let sim_json = std::fs::read_to_string(out.join("collatz.sim.json")).unwrap();
    let sim = qss::SimArtifact::from_json(&sim_json).unwrap();
    assert!(sim.outputs_match);

    // The report matches the golden file byte for byte (CI re-checks
    // this with `diff` so the CLI path cannot rot).
    let report = std::fs::read_to_string(&report_path).unwrap();
    let golden = std::fs::read_to_string(repo_file("samples/pipeline.report.golden.json")).unwrap();
    assert_eq!(report, golden, "report drifted from the golden file");

    let _ = std::fs::remove_dir_all(&out);
}

/// The two-input sample (two copies of the PFC controller/producer/
/// filter/consumer loop, one uncontrollable input each) generates one
/// task per input, in source order. Both tasks and the report are pinned
/// byte for byte.
#[test]
fn build_of_the_multi_input_sample_matches_the_golden_c_and_report() {
    let out = temp_dir("multi");
    let report_path = out.join("report.json");
    let status = qssc()
        .args([
            "build",
            repo_file("samples/multi_input.flowc").to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--events",
            "ctl0.init=1,2,3",
            "--events",
            "ctl1.init=4,5",
            "--report",
            report_path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());
    for input in ["ctl0_init", "ctl1_init"] {
        let c = std::fs::read_to_string(out.join(format!("multi.task_{input}.c"))).unwrap();
        let golden = repo_file(&format!("samples/multi_input.task_{input}.golden.c"));
        assert_eq!(
            c,
            std::fs::read_to_string(golden).unwrap(),
            "generated C for `{input}` drifted from the golden file"
        );
    }
    let report = std::fs::read_to_string(&report_path).unwrap();
    let golden =
        std::fs::read_to_string(repo_file("samples/multi_input.report.golden.json")).unwrap();
    assert_eq!(report, golden, "report drifted from the golden file");
    let _ = std::fs::remove_dir_all(&out);
}

/// The mixed data-control sample (if/else split, unequal-rate `SELECT`
/// merge, multi-rate divider tail) generates a switch-bearing task:
/// several code segments, threads and state variables. Its C and report
/// are pinned byte for byte.
#[test]
fn build_of_the_mixed_sample_matches_the_golden_c_and_report() {
    // The sample is the shared test template at b1, r2, d2, SELECT rates
    // (2, 1) and salt 7.
    let source = std::fs::read_to_string(repo_file("samples/mixed.flowc")).unwrap();
    assert_eq!(
        source,
        qss_bench::testgen::mixed_source("mixed", 1, &[(2, 1)], 2, 2, 7)
    );

    let out = temp_dir("mixed");
    let report_path = out.join("report.json");
    let status = qssc()
        .args([
            "build",
            repo_file("samples/mixed.flowc").to_str().unwrap(),
            "--emit",
            "c,json",
            "--out",
            out.to_str().unwrap(),
            "--events",
            "split.trigger=1,4,5,7,2,3",
            "--report",
            report_path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());

    let c = std::fs::read_to_string(out.join("mixed.task_split_trigger.c")).unwrap();
    let c_golden =
        std::fs::read_to_string(repo_file("samples/mixed.task_split_trigger.golden.c")).unwrap();
    assert_eq!(c, c_golden, "generated C drifted from the golden file");
    let report = std::fs::read_to_string(&report_path).unwrap();
    let golden = std::fs::read_to_string(repo_file("samples/mixed.report.golden.json")).unwrap();
    assert_eq!(report, golden, "report drifted from the golden file");

    let task_json = std::fs::read_to_string(out.join("mixed.pipeline.json")).unwrap();
    let task = qss::TaskArtifact::from_json(&task_json).unwrap();
    let stats = task.tasks[0].stats;
    assert_eq!(
        (
            stats.num_segments,
            stats.num_threads,
            stats.num_state_variables
        ),
        (3, 15, 2)
    );
    let sim_json = std::fs::read_to_string(out.join("mixed.sim.json")).unwrap();
    assert!(
        qss::SimArtifact::from_json(&sim_json)
            .unwrap()
            .outputs_match
    );
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn check_prints_a_summary_and_rejects_malformed_input() {
    let output = qssc()
        .args([
            "check",
            repo_file("samples/pipeline.flowc").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("collatz"));
    assert!(stdout.contains("3 process(es)"));

    // A malformed file fails with a parse-stage error on stderr.
    let dir = temp_dir("check");
    let bad = dir.join("bad.flowc");
    std::fs::write(&bad, "PROCESS broken (In DPORT a { }").unwrap();
    let output = qssc()
        .args(["check", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("parse stage"), "stderr was: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_matches_the_golden_report_and_deny_warnings_gates() {
    // Clean sample: valid JSON on stdout, no diagnostics on stderr,
    // exit 0 even under `--deny warnings`.
    let output = qssc()
        .args([
            "analyze",
            repo_file("samples/pipeline.flowc").to_str().unwrap(),
            "--deny",
            "warnings",
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let report = qss::AnalysisReport::from_json(&stdout).unwrap();
    assert!(report.diagnostics.is_empty(), "clean sample has findings");
    assert!(output.stderr.is_empty());
    // Its report — P-invariants, sur-invariant place bounds and all —
    // matches the golden file byte for byte.
    let golden =
        std::fs::read_to_string(repo_file("samples/pipeline.analysis.golden.json")).unwrap();
    assert_eq!(
        stdout, golden,
        "pipeline analysis drifted from the golden file"
    );

    // Deadlocked cycle: the JSON report matches the golden file byte
    // for byte, diagnostics go to stderr, and warnings alone still
    // exit 0.
    let output = qssc()
        .args([
            "analyze",
            repo_file("samples/deadcycle.flowc").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let golden =
        std::fs::read_to_string(repo_file("samples/deadcycle.analysis.golden.json")).unwrap();
    assert_eq!(stdout, golden, "analysis drifted from the golden file");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("warning[QSS-W001]"), "stderr: {stderr}");
    assert!(stderr.contains("warning[QSS-W003]"), "stderr: {stderr}");

    // `--deny warnings` turns those warnings into exit 1.
    let output = qssc()
        .args([
            "analyze",
            repo_file("samples/deadcycle.flowc").to_str().unwrap(),
            "--deny",
            "warnings",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("--deny warnings"), "stderr: {stderr}");

    // Unknown deny classes are usage errors.
    let output = qssc()
        .args([
            "analyze",
            repo_file("samples/deadcycle.flowc").to_str().unwrap(),
            "--deny",
            "everything",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn check_emits_diagnostics_and_deny_warnings_fails_dead_nets() {
    // `check` on a net with dead transitions prints the warnings but
    // still exits 0 — the summary path stays usable in scripts.
    let output = qssc()
        .args([
            "check",
            repo_file("samples/deadcycle.flowc").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("deadcycle"), "stdout: {stdout}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("warning[QSS-W001]"), "stderr: {stderr}");

    // Under `--deny warnings` the same net is exit 1.
    let output = qssc()
        .args([
            "check",
            repo_file("samples/deadcycle.flowc").to_str().unwrap(),
            "--deny",
            "warnings",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));

    // The clean sample passes `--deny warnings`.
    let output = qssc()
        .args([
            "check",
            repo_file("samples/pipeline.flowc").to_str().unwrap(),
            "--deny",
            "warnings",
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
}

#[test]
fn build_reads_flowc_from_stdin_when_the_path_is_dash() {
    use std::io::Write as _;
    let out = temp_dir("stdin");
    let report_path = out.join("report.json");
    let source = std::fs::read(repo_file("samples/pipeline.flowc")).unwrap();
    let mut child = qssc()
        .args([
            "build",
            "-",
            "--emit",
            "c",
            "--out",
            out.to_str().unwrap(),
            "--events",
            "source.trigger=6,7,8,9",
            "--report",
            report_path.to_str().unwrap(),
        ])
        .stdin(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&source).unwrap();
    let status = child.wait().unwrap();
    assert!(status.success());
    // Identical artifacts to the file-path run: the same C task and the
    // same golden report, so `-` is true pipe parity.
    let c = std::fs::read_to_string(out.join("collatz.task_source_trigger.c")).unwrap();
    assert!(c.contains("void task_source_trigger_run(void)"));
    let report = std::fs::read_to_string(&report_path).unwrap();
    let golden = std::fs::read_to_string(repo_file("samples/pipeline.report.golden.json")).unwrap();
    assert_eq!(report, golden, "stdin build drifted from the golden report");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn remote_build_against_a_warm_server_matches_the_goldens() {
    let server = qss_server::Server::bind(qss_server::ServerConfig::default())
        .expect("bind in-process qssd")
        .spawn();
    let addr = server.addr().to_string();

    let out = temp_dir("remote");
    let report_path = out.join("report.json");
    let run = |tag: &str| {
        let report = out.join(format!("report-{tag}.json"));
        let status = qssc()
            .args([
                "remote",
                &addr,
                "build",
                repo_file("samples/pipeline.flowc").to_str().unwrap(),
                "--emit",
                "c,dot",
                "--out",
                out.to_str().unwrap(),
                "--events",
                "source.trigger=6,7,8,9",
                "--report",
                report.to_str().unwrap(),
            ])
            .status()
            .unwrap();
        assert!(status.success());
        report
    };
    let first = run("cold");
    let second = run("warm"); // second run hits the server's context cache

    // The remote artifacts match the same goldens the local build is
    // diffed against — the wire adds nothing and loses nothing.
    let golden = std::fs::read_to_string(repo_file("samples/pipeline.report.golden.json")).unwrap();
    assert_eq!(std::fs::read_to_string(&first).unwrap(), golden);
    assert_eq!(std::fs::read_to_string(&second).unwrap(), golden);
    let net_dot = std::fs::read_to_string(out.join("collatz.net.dot")).unwrap();
    let net_golden = std::fs::read_to_string(repo_file("samples/pipeline.net.golden.dot")).unwrap();
    assert_eq!(net_dot, net_golden);
    let c = std::fs::read_to_string(out.join("collatz.task_source_trigger.c")).unwrap();
    assert!(c.contains("void task_source_trigger_run(void)"));
    let c_golden =
        std::fs::read_to_string(repo_file("samples/pipeline.task_source_trigger.golden.c"))
            .unwrap();
    assert_eq!(c, c_golden, "remote C drifted from the golden file");

    // `remote check` prints the summary plus the net fingerprint.
    let output = qssc()
        .args([
            "remote",
            &addr,
            "check",
            repo_file("samples/pipeline.flowc").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("collatz"), "stdout: {stdout}");
    assert!(stdout.contains("fingerprint"), "stdout: {stdout}");

    // `remote analyze` (cold, then warm from the server's report
    // cache) is byte-identical to the golden file local `analyze` is
    // diffed against.
    let analysis_golden =
        std::fs::read_to_string(repo_file("samples/deadcycle.analysis.golden.json")).unwrap();
    for _pass in 0..2 {
        let output = qssc()
            .args([
                "remote",
                &addr,
                "analyze",
                repo_file("samples/deadcycle.flowc").to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert_eq!(stdout, analysis_golden, "remote analyze drifted");
    }

    // `remote stats` reports the cache hit of the warm run.
    let output = qssc().args(["remote", &addr, "stats"]).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stats: qss::remote::ServerStats = serde_json::from_str(&stdout).unwrap();
    assert!(stats.cache.hits > 0, "stats: {stdout}");

    // `remote shutdown` drains the in-process server; join proves it.
    let status = qssc().args(["remote", &addr, "shutdown"]).status().unwrap();
    assert!(status.success());
    server.join().unwrap();

    // Against a dead server, remote commands fail with exit code 1.
    let output = qssc().args(["remote", &addr, "stats"]).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
    let _ = report_path; // naming parity with the local build test
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn usage_errors_exit_with_code_two() {
    let output = qssc().args(["frobnicate"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let output = qssc()
        .args(["build", "nope.flowc", "--emit", "pdf"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    // Remote usage problems are also exit code 2.
    let output = qssc().args(["remote"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let output = qssc()
        .args(["remote", "127.0.0.1:1", "frobnicate"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    // Missing files are an I/O failure (exit 1), not a usage error.
    let output = qssc()
        .args(["build", "does-not-exist.flowc"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("io stage"), "stderr was: {stderr}");
}
