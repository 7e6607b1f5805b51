//! `compile_mixed`: local, closed-loop, single-threaded builds of seeded
//! mixed data-control systems — the `qssc build --emit c,json --events`
//! chain through the public API.

use crate::gen::{mixed_shape, mixed_system, MixedSystem, Rng};
use crate::layers::{self, Work};
use crate::stats::{median, peak_rss_mb, quantile, window_quantile, Metric, Outcome, SETUPS};
use crate::trace::{chrome_trace, render_table, Tracer};
use qss::{
    run_multitask, run_singletask, MultiTaskConfig, Pipeline, PipelineConfig, SearchContext,
    SingleTaskConfig, TaskArtifact,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Source firings per schedule cycle (`branches × tail rate × divider
/// rate`) of each pool slot, with the branch count pinned where given.
/// Schedule size grows as `2^k`: `k = 12` is about 50 000 search nodes,
/// and `k = 14` exhausts the default 200 000-node budget. The pool stops
/// at `k = 10`: a `k = 12` build writes megabytes of code and JSON, and
/// its time moved by a fifth from minute to minute with the load of other
/// tenants of a shared host, while the smaller builds' times did not.
/// Only `b1 r5 d2` makes `k = 10`, so its four slots differ in their
/// `SELECT` rates and constants.
const POOL_TIERS: [(u32, Option<u32>); 10] = [
    (6, None),
    (6, None),
    (8, Some(1)),
    (8, Some(2)),
    (9, None),
    (9, None),
    (10, None),
    (10, None),
    (10, None),
    (10, None),
];

/// Trigger events each system is simulated on.
const EVENTS_PER_SYSTEM: usize = 64;

/// A pool system ready to build: its source, events and configuration.
struct PoolSystem {
    system: MixedSystem,
    config: PipelineConfig,
}

/// Every `(branches, tail rate, divider rate)` with `b × r × d = k`.
fn decompositions(k: u32, branches: Option<u32>) -> Vec<(u32, u32, u32)> {
    let mut out = Vec::new();
    for b in 1..=3 {
        for r in 2..=6 {
            for d in 2..=3 {
                if b * r * d == k && branches.is_none_or(|want| want == b) {
                    out.push((b, r, d));
                }
            }
        }
    }
    out
}

/// Draws the pool: one system per tier, redrawing (deterministically)
/// any system whose schedule search does not finish within the default
/// `max_nodes`.
fn build_pool(seed: u64) -> Result<Vec<PoolSystem>, String> {
    let mut rng = Rng::new(seed);
    let mut pool = Vec::new();
    for (index, &(k, branches)) in POOL_TIERS.iter().enumerate() {
        let mut slot_rng = rng.fork();
        let choices = decompositions(k, branches);
        let mut accepted = None;
        for _attempt in 0..8 {
            let (b, r, d) = slot_rng.pick(&choices);
            let shape = mixed_shape(&mut slot_rng, b, r, d);
            let system = mixed_system(&mut slot_rng, index, &shape, EVENTS_PER_SYSTEM);
            let mut config = PipelineConfig::default();
            // With the default buffer of 4, rate-8 reads would stall the
            // RTOS baseline and make its outputs differ silently.
            config.multitask_buffer_size = config.multitask_buffer_size.max(shape.max_rate());
            let schedules = Pipeline::from_source(&system.source)
                .and_then(|p| p.with_config(config.clone()).link())
                .and_then(|linked| linked.schedule());
            if schedules.is_ok() {
                accepted = Some(PoolSystem { system, config });
                break;
            }
        }
        pool.push(accepted.ok_or_else(|| format!("no schedulable system drawn for tier k={k}"))?);
    }
    Ok(pool)
}

/// What one build produced, for checking and the quality metrics.
struct Built {
    task: TaskArtifact,
    json_len: usize,
    outputs_match: bool,
    single_cycles: u64,
}

/// One untraced build: the whole chain through the staged API.
fn build(entry: &PoolSystem) -> Result<Built, String> {
    let task = Pipeline::from_source(&entry.system.source)
        .and_then(|p| p.with_config(entry.config.clone()).link())
        .and_then(|linked| linked.schedule())
        .and_then(|schedule| schedule.generate())
        .map_err(|e| e.to_string())?;
    let json = task.to_json();
    let sim = task
        .simulate(&entry.system.events)
        .map_err(|e| e.to_string())?;
    Ok(Built {
        json_len: black_box(json.len()),
        outputs_match: sim.outputs_match,
        single_cycles: sim.single.cycles,
        task,
    })
}

/// One traced build: the same chain, cut at each crate's public entry
/// point so every layer gets its own span. Returns the artifact JSON, so
/// the caller can check it against the untraced chain byte for byte, and
/// whether the single task's outputs equal the multi-task executor's.
fn build_traced(
    entry: &PoolSystem,
    tracer: &mut Tracer,
    request: u64,
    work: &mut Work,
) -> Result<(String, bool), String> {
    let linked = layers::link(&entry.system.source, entry.config.clone(), tracer, request)?;
    let context = tracer.time("core.context", request, || {
        Arc::new(SearchContext::new(&linked.system.net))
    });
    let schedule = layers::schedule(linked, context, tracer, request, work)?;
    let task = layers::generate(schedule, tracer, request, work)?;
    let json = tracer.time("serde.artifact_json", request, || task.to_json());
    work.artifact_bytes += json.len() as u64;
    let config = &task.config;
    let mut single_config = SingleTaskConfig::new(config.profile.cycle_model());
    single_config.max_steps = config.max_sim_steps;
    let mut multi_config =
        MultiTaskConfig::new(config.multitask_buffer_size, config.profile.cycle_model());
    multi_config.max_steps = config.max_sim_steps;
    multi_config.inline_communication = config.task.inline_communication;
    let events = &entry.system.events;
    let single = tracer
        .time("sim.single", request, || {
            run_singletask(
                &task.system,
                &task.schedules.schedules,
                events,
                &single_config,
            )
        })
        .map_err(|e| e.to_string())?;
    let multi = tracer
        .time("sim.multi", request, || {
            run_multitask(&task.system, events, &multi_config)
        })
        .map_err(|e| e.to_string())?;
    Ok((json, single.outputs == multi.outputs))
}

/// Runs `compile_mixed` for `seconds` and returns its outcome.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: &std::path::Path,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        pool = build_pool(seed)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    for (i, entry) in pool.iter().enumerate() {
        println!(
            "system {i}: {} k={} ({} bytes of FlowC, {} events)",
            entry.system.shape.describe(),
            entry.system.shape.branches
                * entry.system.shape.tail_rate
                * entry.system.shape.divider_rate,
            entry.system.source.len(),
            entry.system.events.len()
        );
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Build latencies per round over the pool.
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut cycles = vec![None; pool.len()];
    let mut code_bytes = vec![None; pool.len()];
    let mut reference_json: Vec<Option<String>> = vec![None; pool.len()];
    let mut tracer = Tracer::new(Instant::now());
    let mut work = Work::default();
    let mut overhead = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let measure_start = Instant::now();
    'rounds: loop {
        rounds.push(Vec::with_capacity(pool.len()));
        for (i, entry) in pool.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'rounds;
            }
            attempted += 1;
            let start = Instant::now();
            let built = build(entry);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            let built = match built {
                Ok(built) if built.outputs_match => built,
                Ok(_) => {
                    println!("MISMATCH: system {i} single-task outputs differ from the multi-task executor's");
                    failed += 1;
                    continue;
                }
                Err(e) => {
                    println!("FAILED: system {i}: {e}");
                    failed += 1;
                    continue;
                }
            };
            rounds.last_mut().expect("a round is open").push(elapsed_ms);
            if cycles[i].is_none() {
                cycles[i] = Some(built.single_cycles);
                let report = built.task.report(None);
                code_bytes[i] = Some(report.tasks.iter().map(|t| t.code_bytes).sum::<u64>());
                if traced {
                    reference_json[i] = Some(built.task.to_json());
                }
            }
            black_box(built.json_len);
            if traced {
                attempted += 1;
                let start = Instant::now();
                let root = tracer.begin("build", attempted);
                let traced_build = build_traced(entry, &mut tracer, attempted, &mut work);
                tracer.end(root);
                work.units += 1;
                match traced_build {
                    Ok((json, true)) if reference_json[i].as_deref() == Some(json.as_str()) => {
                        overhead.push(start.elapsed().as_secs_f64() * 1e3 / elapsed_ms);
                    }
                    Ok(_) => {
                        println!(
                            "MISMATCH: traced build of system {i} differs from the staged chain"
                        );
                        failed += 1;
                    }
                    Err(e) => {
                        println!("FAILED: traced build of system {i}: {e}");
                        failed += 1;
                    }
                }
            }
        }
    }
    let measured_s = measure_start.elapsed().as_secs_f64();
    let builds = rounds.iter().map(Vec::len).sum::<usize>();
    // Only complete rounds weigh every system equally. Each round is one
    // window: its quantiles and its build rate, medians over the rounds.
    rounds.retain(|round| round.len() == pool.len());
    let complete = rounds.len();
    let round_rates: Vec<f64> = rounds
        .iter()
        .map(|round| round.len() as f64 * 1e3 / round.iter().sum::<f64>())
        .collect();
    let builds_per_s = median(&round_rates);
    let correct = failed == 0 && cycles.iter().all(Option::is_some);
    if !cycles.iter().all(Option::is_some) {
        println!("FAILED: the run ended before every pool system was built once");
    }

    let mut metrics = Vec::new();
    if traced {
        let spans = tracer.into_spans();
        println!(
            "{}",
            render_table("compile_mixed: per-layer self time", &spans)
        );
        std::fs::write(trace_out, chrome_trace(&spans)).map_err(|e| e.to_string())?;
        metrics = layers::metrics(&spans, &work);
        overhead.sort_by(f64::total_cmp);
        metrics.push(Metric::new(
            "trace.overhead_pct",
            (quantile(&overhead, 0.5) - 1.0) * 100.0,
            "%",
        ));
    } else {
        println!(
            "builds: {builds} in {measured_s:.2} s; {complete} complete rounds of {} builds",
            pool.len()
        );
        metrics.push(Metric::new("setup_s", median(&setups), "s"));
        metrics.push(Metric::new(
            "latency_ms_p50",
            window_quantile(&rounds, 0.5),
            "ms",
        ));
        metrics.push(Metric::new(
            "latency_ms_p99",
            window_quantile(&rounds, 0.99),
            "ms",
        ));
        metrics.push(Metric::new("builds_per_s", builds_per_s, "1/s"));
        // One closed-loop compiler thread is saturated by construction:
        // its build rate is the highest arrival rate it can sustain.
        metrics.push(Metric::new("max_rate_rps", builds_per_s, "1/s"));
        metrics.push(Metric::new(
            "success_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        metrics.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb(None).unwrap_or(0.0),
            "MB",
        ));
        metrics.push(Metric::new(
            "task_cycles",
            cycles.iter().flatten().sum::<u64>() as f64,
            "cycles",
        ));
        metrics.push(Metric::new(
            "task_code_bytes",
            code_bytes.iter().flatten().sum::<u64>() as f64,
            "bytes",
        ));
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}
