//! `perfbench`: the end-to-end benchmark of the qss flow.
//!
//! ```text
//! perfbench --workload compile_mixed|serve_warm|serve_cold --seed N
//!           --seconds S --trace 0|1 --qssd PATH
//!           [--warm-limit-ms MS] [--cold-limit-ms MS]
//! ```
//!
//! Prints progress lines, then, as the last line of stdout, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. Exits non-zero when an output check failed.
//! `perfbench/run.py` builds this binary and `qssd` and forwards its
//! arguments here; see `perfbench/README.md`.

mod compile;
mod gen;
mod layers;
mod serve;
mod stats;
mod trace;

use stats::{Metric, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where traced runs write their Chrome trace, relative to the checkout.
const TRACE_DIR: &str = ".perfbench_out";

/// Every end-to-end metric, in output order (`--trace 0`).
const END_TO_END: [&str; 9] = [
    "setup_s",
    "latency_ms_p50",
    "latency_ms_p99",
    "builds_per_s",
    "max_rate_rps",
    "success_share",
    "peak_rss_mb",
    "task_cycles",
    "task_code_bytes",
];

/// Every per-layer metric, in output order (`--trace 1`). A workload
/// that never reaches a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 34] = [
    ("flowc.parse_ms", "ms"),
    ("flowc.link_ms", "ms"),
    ("petri.fingerprint_ms", "ms"),
    ("petri.structural_ms", "ms"),
    ("core.context_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.seal_ms", "ms"),
    ("core.nodes_expanded", "count"),
    ("core.exhaustive_retries", "count"),
    ("core.schedule_yield", "ratio"),
    ("codegen.generate_ms", "ms"),
    ("codegen.segments", "count"),
    ("serde.artifact_json_ms", "ms"),
    ("serde.artifact_kb", "KB"),
    ("remote.decode_ms", "ms"),
    ("sim.single_ms", "ms"),
    ("sim.multi_ms", "ms"),
    ("server.service_ms_p50.schedule", "ms"),
    ("server.service_ms_p99.schedule", "ms"),
    ("server.service_ms_p50.check", "ms"),
    ("server.service_ms_p99.check", "ms"),
    ("server.service_ms_p50.analyze", "ms"),
    ("server.service_ms_p99.analyze", "ms"),
    ("server.service_ms_p50.generate", "ms"),
    ("server.service_ms_p99.generate", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.context_cache_hit_ratio", "ratio"),
    ("server.coalesced", "count"),
    ("server.busy_rejections", "count"),
    ("server.timeouts", "count"),
    ("server.loop_wakeups_per_req", "ratio"),
    ("client.lag_ms_p99", "ms"),
    ("client.requests", "count"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    qssd: Option<PathBuf>,
    warm_limit_ms: Option<f64>,
    cold_limit_ms: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        qssd: None,
        warm_limit_ms: None,
        cold_limit_ms: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("`{flag}` needs a value"))?
            .clone();
        let number = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("invalid `{flag}` value `{v}`"))
        };
        match flag {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed `{value}`"))?
            }
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => args.trace = value == "1",
            "--qssd" => args.qssd = Some(PathBuf::from(value)),
            "--warm-limit-ms" => args.warm_limit_ms = Some(number(&value)?),
            "--cold-limit-ms" => args.cold_limit_ms = Some(number(&value)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
    let trace_out =
        Path::new(TRACE_DIR).join(format!("trace_{}_{}.json", args.workload, args.seed));
    let (mix, limit_ms, flag) = match args.workload.as_str() {
        "compile_mixed" => return compile::run(args.seed, args.seconds, args.trace, &trace_out),
        "serve_warm" => (serve::Mix::Warm, args.warm_limit_ms, "--warm-limit-ms"),
        "serve_cold" => (serve::Mix::Cold, args.cold_limit_ms, "--cold-limit-ms"),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected compile_mixed, serve_warm or serve_cold)"
            ))
        }
    };
    let qssd = args
        .qssd
        .as_deref()
        .ok_or("serve workloads need `--qssd PATH`")?;
    let limit_ms = limit_ms.ok_or_else(|| format!("`{}` needs `{flag} MS`", args.workload))?;
    serve::run(
        mix,
        qssd,
        args.seed,
        args.seconds,
        limit_ms,
        args.trace,
        &trace_out,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Report exactly the metric set the mode promises, in a fixed order.
    let mut ordered = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            ordered.push(Metric::new(name, value, unit));
        }
    } else {
        for name in END_TO_END {
            match outcome.metrics.iter().find(|m| m.name == name) {
                Some(metric) => ordered.push(metric.clone()),
                None => {
                    eprintln!("perfbench: workload did not measure `{name}`");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    outcome.metrics = ordered;
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
