//! `qssc` — the quasi-static scheduling compiler, on the command line.
//!
//! Runs the whole `qss` pipeline on a whole-system FlowC file (any number
//! of `PROCESS` definitions plus an optional `SYSTEM` manifest block, see
//! [`qss::parse_system`]) and emits the stage artifacts:
//!
//! ```text
//! qssc build system.flowc --emit c,json,dot --out out/ \
//!      --events source.trigger=6,7,8,9 --report out/report.json
//! qssc check system.flowc
//! ```
//!
//! * `--emit c` writes one `<system>.<task>.c` file per generated task,
//! * `--emit json` writes `<system>.pipeline.json` (the serialized
//!   [`TaskArtifact`]) and, when events were given,
//!   `<system>.sim.json`,
//! * `--emit dot` writes `<system>.net.dot` plus one
//!   `<system>.<port>.schedule.dot` per schedule,
//! * `--report PATH` writes the deterministic run summary
//!   ([`PipelineReport`](qss::PipelineReport)); `-` prints it to stdout.

use qss::remote::{Client, ClientError};
use qss::{
    AnalysisReport, CostProfile, EnvEvent, Pipeline, PipelineConfig, QssError, ScheduleOptions,
    SimArtifact, TaskArtifact,
};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
qssc — quasi-static scheduling compiler (Cortadella et al., DAC 2000)

USAGE:
    qssc build <FILE> [OPTIONS]    run the pipeline and emit artifacts
    qssc check <FILE> [--deny warnings]
                                   parse, link and analyze; print a summary
    qssc analyze <FILE> [--deny warnings]
                                   structural static analysis: JSON report on
                                   stdout, compiler-style diagnostics on stderr
    qssc remote <ADDR> <COMMAND>   run against a running qssd service
    qssc --help                    show this help

`check` and `analyze` exit 1 when the analyzer reports an error
(QSS-Exxx), or any diagnostic at all under `--deny warnings`. The
diagnostic codes are documented in the README (\"Static analysis\").

`<FILE>` may be `-` to read FlowC source from stdin (pipe parity with
the service path).

BUILD OPTIONS:
    --emit KINDS          comma-separated artifacts: c, json, dot (default: c)
    --out DIR             output directory (default: .)
    --report PATH         write the JSON run summary to PATH (`-` = stdout)
    --events P.PORT=V,..  simulate a workload: one flag per input port,
                          values are delivered in flag order (repeatable)
    --profile NAME        cost profile: pfc, pfc-O, pfc-O2 (default: pfc)
    --buffer N            multi-task baseline buffer capacity (default: 4)
    --place-bound N       prune with uniform place bounds instead of the
                          irrelevant-marking criterion
    --no-heuristics       disable the search-ordering heuristics
    --search-profile      print the search work profile (nodes expanded,
                          backtracks, pruning cuts, per-phase times) to
                          stderr after the build, and include it in the
                          serialized artifacts (local builds only)

REMOTE COMMANDS (driving a warm `qssd`, see PROTOCOL.md):
    remote <ADDR> build <FILE> [BUILD OPTIONS]
                          run the pipeline on the server (reusing its
                          per-net context cache), emit artifacts locally
    remote <ADDR> check <FILE>     parse and link on the server
    remote <ADDR> analyze <FILE> [--deny warnings]
                          structural analysis on the server (cached by net
                          fingerprint); output byte-identical to `qssc analyze`
    remote <ADDR> stats            print the server's counters
    remote <ADDR> metrics          print the server's full observability
                          snapshot: every counter plus p50/p95/p99 request
                          latency per request kind (see PROTOCOL.md)
    remote <ADDR> shutdown         drain the server and stop it
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Exit::Usage(message)) => {
            eprintln!("qssc: {message}");
            eprintln!("run `qssc --help` for usage");
            ExitCode::from(2)
        }
        Err(Exit::Pipeline(e)) => {
            eprintln!("qssc: {e}");
            ExitCode::FAILURE
        }
        Err(Exit::Remote(e)) => {
            eprintln!("qssc: remote {e}");
            ExitCode::FAILURE
        }
        Err(Exit::Analysis(message)) => {
            eprintln!("qssc: {message}");
            ExitCode::FAILURE
        }
    }
}

enum Exit {
    /// A command-line problem (exit code 2).
    Usage(String),
    /// A pipeline or I/O failure (exit code 1).
    Pipeline(QssError),
    /// A failure reported by (or while talking to) a qssd server
    /// (exit code 1).
    Remote(ClientError),
    /// The structural analyzer rejected the net — errors present, or
    /// warnings present under `--deny warnings` (exit code 1; the
    /// diagnostics themselves were already printed to stderr).
    Analysis(String),
}

impl From<QssError> for Exit {
    fn from(e: QssError) -> Self {
        Exit::Pipeline(e)
    }
}

impl From<ClientError> for Exit {
    fn from(e: ClientError) -> Self {
        Exit::Remote(e)
    }
}

fn run(args: &[String]) -> Result<(), Exit> {
    match args.first().map(String::as_str) {
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(())
        }
        Some("build") => build(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("remote") => remote(&args[1..]),
        Some(other) => Err(Exit::Usage(format!("unknown command `{other}`"))),
        None => Err(Exit::Usage("missing command".into())),
    }
}

/// Options collected from the `build` argument list.
struct BuildArgs {
    input: PathBuf,
    emit_c: bool,
    emit_json: bool,
    emit_dot: bool,
    out_dir: PathBuf,
    report: Option<String>,
    events: Vec<(String, String, Vec<i64>)>,
    config: PipelineConfig,
    search_profile: bool,
}

fn parse_build_args(args: &[String]) -> Result<BuildArgs, Exit> {
    let mut input: Option<PathBuf> = None;
    let mut emit = "c".to_string();
    let mut out_dir = PathBuf::from(".");
    let mut report = None;
    let mut events = Vec::new();
    let mut config = PipelineConfig::default();
    let mut i = 0;
    let next_value = |args: &[String], i: &mut usize, flag: &str| {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| Exit::Usage(format!("`{flag}` needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--emit" => emit = next_value(args, &mut i, "--emit")?,
            "--out" => out_dir = PathBuf::from(next_value(args, &mut i, "--out")?),
            "--report" => report = Some(next_value(args, &mut i, "--report")?),
            "--events" => {
                let spec = next_value(args, &mut i, "--events")?;
                events.push(parse_events_spec(&spec)?);
            }
            "--profile" => {
                let name = next_value(args, &mut i, "--profile")?;
                config.profile = CostProfile::from_name(&name)?;
            }
            "--buffer" => {
                let value = next_value(args, &mut i, "--buffer")?;
                config.multitask_buffer_size = value
                    .parse()
                    .map_err(|_| Exit::Usage(format!("invalid `--buffer` value `{value}`")))?;
            }
            "--place-bound" => {
                let value = next_value(args, &mut i, "--place-bound")?;
                let bound: u32 = value
                    .parse()
                    .map_err(|_| Exit::Usage(format!("invalid `--place-bound` value `{value}`")))?;
                config.schedule = ScheduleOptions {
                    termination: qss::core::TerminationKind::PlaceBounds { default: bound },
                    ..config.schedule
                };
            }
            "--no-heuristics" => config.schedule = config.schedule.without_heuristics(),
            "--search-profile" => config.emit_search_profile = true,
            // A bare `-` is the stdin pseudo-path, not a flag.
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(Exit::Usage(format!("unknown option `{flag}`")))
            }
            path if input.is_none() => input = Some(PathBuf::from(path)),
            extra => return Err(Exit::Usage(format!("unexpected argument `{extra}`"))),
        }
        i += 1;
    }
    let input = input.ok_or_else(|| Exit::Usage("missing input file".into()))?;
    let search_profile = config.emit_search_profile;
    let mut build = BuildArgs {
        input,
        emit_c: false,
        emit_json: false,
        emit_dot: false,
        out_dir,
        report,
        events,
        config,
        search_profile,
    };
    for kind in emit.split(',').filter(|k| !k.is_empty()) {
        match kind.trim() {
            "c" => build.emit_c = true,
            "json" => build.emit_json = true,
            "dot" => build.emit_dot = true,
            other => return Err(Exit::Usage(format!("unknown `--emit` kind `{other}`"))),
        }
    }
    Ok(build)
}

/// Parses `process.port=v1,v2,...` into per-port event values.
fn parse_events_spec(spec: &str) -> Result<(String, String, Vec<i64>), Exit> {
    let bad = || {
        Exit::Usage(format!(
            "invalid `--events` spec `{spec}` (expected `process.port=v1,v2,...`)"
        ))
    };
    let (port_ref, values) = spec.split_once('=').ok_or_else(bad)?;
    let (process, port) = port_ref.split_once('.').ok_or_else(bad)?;
    if process.is_empty() || port.is_empty() {
        return Err(bad());
    }
    let values = values
        .split(',')
        .map(|v| v.trim().parse::<i64>().map_err(|_| bad()))
        .collect::<Result<Vec<i64>, Exit>>()?;
    if values.is_empty() {
        return Err(bad());
    }
    Ok((process.to_string(), port.to_string(), values))
}

/// Reads FlowC source from `path`, or from stdin when `path` is `-` —
/// service/pipe parity: `cat sys.flowc | qssc build - --emit c`.
fn read_source(path: &Path) -> Result<String, QssError> {
    if path == Path::new("-") {
        let mut source = String::new();
        return std::io::stdin()
            .read_to_string(&mut source)
            .map(|_| source)
            .map_err(|e| QssError::Io {
                path: "<stdin>".to_string(),
                message: e.to_string(),
            });
    }
    std::fs::read_to_string(path).map_err(|e| QssError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

fn write_file(path: &Path, contents: &str) -> Result<(), QssError> {
    std::fs::write(path, contents).map_err(|e| QssError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Expands the parsed `--events` flags into the simulation workload.
fn collect_events(args: &BuildArgs) -> Vec<EnvEvent> {
    args.events
        .iter()
        .flat_map(|(process, port, values)| {
            values
                .iter()
                .map(|v| EnvEvent::new(process.clone(), port.clone(), *v))
        })
        .collect()
}

fn build(args: &[String]) -> Result<(), Exit> {
    let args = parse_build_args(args)?;
    let source = read_source(&args.input)?;

    let pipeline = Pipeline::from_source(&source)?.with_config(args.config.clone());
    let scheduled = pipeline.link()?.schedule()?;
    let profile = args
        .search_profile
        .then(|| scheduled.search_profile().cloned())
        .flatten();
    let task = scheduled.generate()?;
    let events = collect_events(&args);
    let sim = if events.is_empty() {
        None
    } else {
        Some(task.simulate(&events)?)
    };
    emit_outputs(&args, &task, sim.as_ref())?;
    if let Some(profile) = profile {
        eprint!("{}", render_search_profile(&profile));
    }
    Ok(())
}

/// Renders the aggregated [`qss::SearchProfile`] as an aligned label/value
/// table (the `qssc build --search-profile` output, on stderr so stdout
/// stays reserved for reports and artifacts).
fn render_search_profile(profile: &qss::SearchProfile) -> String {
    let rows = profile.rows();
    let label_width = rows.iter().map(|(label, _)| label.len()).max().unwrap_or(0);
    let value_width = rows
        .iter()
        .map(|(_, value)| value.to_string().len())
        .max()
        .unwrap_or(0);
    let mut out = String::from("qssc: search profile\n");
    for (label, value) in rows {
        out.push_str(&format!("  {label:<label_width$}  {value:>value_width$}\n"));
    }
    out
}

/// Writes every requested artifact of a finished pipeline run. The
/// [`TaskArtifact`] carries the linked system and the schedules, so both
/// the local `build` and `remote build` paths (which receives the
/// artifact over the wire) emit through this one function and can never
/// drift apart.
fn emit_outputs(
    args: &BuildArgs,
    task: &TaskArtifact,
    sim: Option<&SimArtifact>,
) -> Result<(), Exit> {
    let system_name = task.spec.name().to_string();
    if args.emit_c || args.emit_json || args.emit_dot {
        std::fs::create_dir_all(&args.out_dir).map_err(|e| QssError::Io {
            path: args.out_dir.display().to_string(),
            message: e.to_string(),
        })?;
    }
    let out = |file_name: String| args.out_dir.join(file_name);
    if args.emit_c {
        for generated in &task.tasks {
            let path = out(format!("{system_name}.{}.c", generated.name));
            write_file(&path, &generated.code)?;
            eprintln!("qssc: wrote {}", path.display());
        }
    }
    if args.emit_json {
        let path = out(format!("{system_name}.pipeline.json"));
        write_file(&path, &task.to_json_pretty())?;
        eprintln!("qssc: wrote {}", path.display());
        if let Some(sim) = sim {
            let path = out(format!("{system_name}.sim.json"));
            write_file(&path, &sim.to_json_pretty())?;
            eprintln!("qssc: wrote {}", path.display());
        }
    }
    if args.emit_dot {
        let path = out(format!("{system_name}.net.dot"));
        write_file(&path, &qss::net_to_dot(&task.system.net))?;
        eprintln!("qssc: wrote {}", path.display());
        for schedule in &task.schedules.schedules {
            let port = task.source_port(schedule).replace('.', "_");
            let path = out(format!("{system_name}.{port}.schedule.dot"));
            write_file(&path, &schedule.to_dot(&task.system.net))?;
            eprintln!("qssc: wrote {}", path.display());
        }
    }

    let report = task.report(sim).to_json_pretty();
    match args.report.as_deref() {
        Some("-") => print!("{report}"),
        Some(path) => {
            let path = Path::new(path);
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).map_err(|e| QssError::Io {
                    path: parent.display().to_string(),
                    message: e.to_string(),
                })?;
            }
            write_file(path, &report)?;
            eprintln!("qssc: wrote {}", path.display());
        }
        None => {}
    }
    Ok(())
}

/// `qssc remote <ADDR> <COMMAND> ...` — the same pipeline, served by a
/// warm `qssd` whose per-net analyses are cached across requests.
fn remote(args: &[String]) -> Result<(), Exit> {
    let Some((addr, rest)) = args.split_first() else {
        return Err(Exit::Usage("`remote` needs a server address".into()));
    };
    match rest.first().map(String::as_str) {
        Some("build") => remote_build(addr, &rest[1..]),
        Some("check") => remote_check(addr, &rest[1..]),
        Some("analyze") => remote_analyze(addr, &rest[1..]),
        Some("stats") => remote_stats(addr),
        Some("metrics") => remote_metrics(addr),
        Some("shutdown") => remote_shutdown(addr),
        Some(other) => Err(Exit::Usage(format!("unknown remote command `{other}`"))),
        None => Err(Exit::Usage("missing remote command".into())),
    }
}

fn connect(addr: &str) -> Result<Client, Exit> {
    Client::connect(addr)
        .map_err(|e| Exit::Remote(ClientError::Io(format!("cannot connect to {addr}: {e}"))))
}

/// Runs `build` on the server: the artifacts come back over the wire
/// byte-identical to a local run, and are emitted through the same
/// [`emit_outputs`] as `qssc build`.
fn remote_build(addr: &str, args: &[String]) -> Result<(), Exit> {
    let args = parse_build_args(args)?;
    if args.search_profile {
        // The wire TaskArtifact does not carry a profile; the server's
        // aggregate search work is visible via `remote ADDR metrics`.
        return Err(Exit::Usage(
            "`--search-profile` is only available on local builds \
             (use `qssc remote ADDR metrics` for server-side search counters)"
                .into(),
        ));
    }
    let source = read_source(&args.input)?;
    let mut client = connect(addr)?;

    let events = collect_events(&args);
    // One request either way: with events, `simulate` embeds the
    // TaskArtifact (`include_task`) so the server runs the pipeline
    // once instead of once for `generate` and again for `simulate`.
    // The reply Values are decoded in place — no clones, no
    // JSON-string round-trips of the largest payloads in the program.
    let decode_error = |what: &str, e: serde::Error| {
        Exit::Remote(ClientError::Protocol(format!("malformed {what}: {e}")))
    };
    let (fingerprint, cached, task_value, sim) = if events.is_empty() {
        let reply = client.generate(&source, Some(&args.config))?;
        (reply.fingerprint, reply.cached, reply.artifact, None)
    } else {
        let reply = client.simulate_with_task(&source, Some(&args.config), &events)?;
        let task_value = reply
            .task
            .expect("simulate_with_task guarantees the task payload");
        let sim: SimArtifact =
            serde_json::from_value(reply.artifact).map_err(|e| decode_error("SimArtifact", e))?;
        (reply.fingerprint, reply.cached, task_value, Some(sim))
    };
    let task: TaskArtifact =
        serde_json::from_value(task_value).map_err(|e| decode_error("TaskArtifact", e))?;
    eprintln!(
        "qssc: remote build of net {fingerprint} ({})",
        if cached {
            "warm context cache"
        } else {
            "cold context cache"
        }
    );
    emit_outputs(&args, &task, sim.as_ref())
}

fn remote_check(addr: &str, args: &[String]) -> Result<(), Exit> {
    let [path] = args else {
        return Err(Exit::Usage(
            "`remote ADDR check` takes exactly one input file".into(),
        ));
    };
    let source = read_source(Path::new(path))?;
    let summary = connect(addr)?.check(&source)?;
    println!(
        "{}: {} process(es), {} channel(s), net of {} places / {} transitions, \
         {} uncontrollable input(s), {} choice place(s), fingerprint {}",
        summary.system,
        summary.processes,
        summary.channels,
        summary.places,
        summary.transitions,
        summary.uncontrollable_inputs,
        summary.choice_places,
        summary.fingerprint,
    );
    Ok(())
}

/// `qssc remote ADDR analyze` — the analyzer runs on the server (cached
/// by net fingerprint), but stdout/stderr and the exit status are
/// byte-identical to a local `qssc analyze`.
fn remote_analyze(addr: &str, args: &[String]) -> Result<(), Exit> {
    let (path, deny_warnings) = parse_analysis_args(args, "remote ADDR analyze")?;
    let source = read_source(&path)?;
    let reply = connect(addr)?.analyze(&source)?;
    let report: AnalysisReport = serde_json::from_value(reply.artifact).map_err(|e| {
        Exit::Remote(ClientError::Protocol(format!(
            "malformed AnalysisReport: {e}"
        )))
    })?;
    print!("{}", report.to_json_pretty());
    eprint!("{}", report.render_human());
    finish_analysis(&report, deny_warnings)
}

fn remote_stats(addr: &str) -> Result<(), Exit> {
    let stats = connect(addr)?.stats()?;
    let text = serde_json::to_string_pretty(&stats).expect("stats serialization is infallible");
    println!("{text}");
    Ok(())
}

fn remote_metrics(addr: &str) -> Result<(), Exit> {
    let metrics = connect(addr)?.metrics()?;
    let text = serde_json::to_string_pretty(&metrics).expect("metrics serialization is infallible");
    println!("{text}");
    Ok(())
}

fn remote_shutdown(addr: &str) -> Result<(), Exit> {
    connect(addr)?.shutdown()?;
    eprintln!("qssc: server at {addr} is draining and will exit");
    Ok(())
}

/// Parses `<FILE> [--deny warnings]` — the shared argument shape of
/// `check` and `analyze`.
fn parse_analysis_args(args: &[String], command: &str) -> Result<(PathBuf, bool), Exit> {
    let mut input: Option<PathBuf> = None;
    let mut deny_warnings = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("warnings") => deny_warnings = true,
                    Some(other) => {
                        return Err(Exit::Usage(format!(
                            "unknown `--deny` lint class `{other}` (only `warnings` is supported)"
                        )))
                    }
                    None => return Err(Exit::Usage("`--deny` needs a value".into())),
                }
            }
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(Exit::Usage(format!("unknown option `{flag}`")))
            }
            path if input.is_none() => input = Some(PathBuf::from(path)),
            extra => return Err(Exit::Usage(format!("unexpected argument `{extra}`"))),
        }
        i += 1;
    }
    let input = input.ok_or_else(|| Exit::Usage(format!("`{command}` needs an input file")))?;
    Ok((input, deny_warnings))
}

/// Turns an [`AnalysisReport`] into the command's exit status: clean
/// (under the deny policy) is success, anything else is exit 1.
fn finish_analysis(report: &AnalysisReport, deny_warnings: bool) -> Result<(), Exit> {
    if report.passes(deny_warnings) {
        return Ok(());
    }
    let denied = deny_warnings && !report.has_errors();
    Err(Exit::Analysis(format!(
        "analysis of `{}` failed{}: {} error(s), {} warning(s)",
        report.system,
        if denied {
            " under `--deny warnings`"
        } else {
            ""
        },
        report.error_count(),
        report.warning_count(),
    )))
}

fn check(args: &[String]) -> Result<(), Exit> {
    let (path, deny_warnings) = parse_analysis_args(args, "check")?;
    let source = read_source(&path)?;
    let linked = Pipeline::from_source(&source)?.link()?;
    let analysis = linked.analysis();
    println!(
        "{}: {} process(es), {} channel(s), net of {} places / {} transitions, \
         {} uncontrollable input(s), {} choice place(s)",
        linked.spec.name(),
        linked.system.process_names.len(),
        linked.system.channels.len(),
        analysis.num_places,
        analysis.num_transitions,
        analysis.num_uncontrollable_sources,
        analysis.num_choice_places,
    );
    let report = linked.analyze();
    eprint!("{}", report.render_human());
    finish_analysis(&report, deny_warnings)
}

fn analyze(args: &[String]) -> Result<(), Exit> {
    let (path, deny_warnings) = parse_analysis_args(args, "analyze")?;
    let source = read_source(&path)?;
    let report = Pipeline::from_source(&source)?.link()?.analyze();
    print!("{}", report.to_json_pretty());
    eprint!("{}", report.render_human());
    finish_analysis(&report, deny_warnings)
}
