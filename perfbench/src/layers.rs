//! The traced pipeline: the stages cut at each crate's public entry
//! point, one span per layer call, and the per-layer metrics derived from
//! those spans. Both workloads trace through these functions, so a layer
//! is timed the same way wherever it runs.

use crate::stats::Metric;
use crate::trace::{self_times, Span, Tracer};
use qss::core::{channel_bounds, is_independent_set, SearchProfile};
use qss::{
    LinkedArtifact, Pipeline, PipelineConfig, ScheduleArtifact, SearchContext, SystemSchedules,
    TaskArtifact,
};
use std::sync::Arc;

/// Work counted next to the spans: builds or requests traced, and what
/// the layers did for them.
#[derive(Default)]
pub struct Work {
    pub units: u64,
    pub profile: SearchProfile,
    pub schedule_nodes: u64,
    pub segments: u64,
    pub artifact_bytes: u64,
}

/// Stage 1: `flowc.parse`, then `flowc.link`.
pub fn link(
    source: &str,
    config: PipelineConfig,
    tracer: &mut Tracer,
    request: u64,
) -> Result<LinkedArtifact, String> {
    let pipeline = tracer
        .time("flowc.parse", request, || Pipeline::from_source(source))
        .map_err(|e| e.to_string())?;
    tracer
        .time("flowc.link", request, || {
            pipeline.with_config(config).link()
        })
        .map_err(|e| e.to_string())
}

/// Stage 2 on a given context: one `core.search` per uncontrollable
/// source, then `core.seal` (independence check and channel bounds) —
/// what `LinkedArtifact::schedule_with_context` does in one call.
pub fn schedule(
    linked: LinkedArtifact,
    context: Arc<SearchContext>,
    tracer: &mut Tracer,
    request: u64,
    work: &mut Work,
) -> Result<ScheduleArtifact, String> {
    let net = &linked.system.net;
    let budget = linked.config.budget.to_budget();
    let mut profile = SearchProfile::default();
    let mut schedules = Vec::new();
    let mut stats = Vec::new();
    for source in linked.system.uncontrollable_sources() {
        let (schedule, stat) = tracer
            .time("core.search", request, || {
                context.find_schedule_profiled(
                    net,
                    source,
                    &linked.config.schedule,
                    &budget,
                    &mut profile,
                )
            })
            .map_err(|e| e.to_string())?;
        schedules.push(schedule);
        stats.push(stat);
    }
    let channel_bounds = tracer
        .time("core.seal", request, || {
            is_independent_set(&schedules, net).map(|()| channel_bounds(&schedules, net))
        })
        .map_err(|(a, b)| format!("the schedules of {a} and {b} interfere"))?;
    work.profile.absorb(&profile);
    work.schedule_nodes += schedules.iter().map(|s| s.num_nodes() as u64).sum::<u64>();
    Ok(linked.attach_schedules(
        SystemSchedules {
            schedules,
            channel_bounds,
            stats,
        },
        context,
    ))
}

/// Stage 3: `codegen.generate`.
pub fn generate(
    schedule: ScheduleArtifact,
    tracer: &mut Tracer,
    request: u64,
    work: &mut Work,
) -> Result<TaskArtifact, String> {
    let task = tracer
        .time("codegen.generate", request, || schedule.generate())
        .map_err(|e| e.to_string())?;
    work.segments += task
        .tasks
        .iter()
        .map(|t| t.stats.num_segments as u64)
        .sum::<u64>();
    Ok(task)
}

/// Per-layer metric name and the spans whose self time it sums.
const SPAN_METRICS: [(&str, &[&str]); 12] = [
    ("flowc.parse_ms", &["flowc.parse"]),
    ("flowc.link_ms", &["flowc.link"]),
    ("petri.fingerprint_ms", &["petri.fingerprint"]),
    ("petri.structural_ms", &["petri.structural"]),
    ("core.context_ms", &["core.context"]),
    ("core.search_ms", &["core.search"]),
    ("core.seal_ms", &["core.seal"]),
    ("codegen.generate_ms", &["codegen.generate"]),
    (
        "serde.artifact_json_ms",
        &["serde.artifact_json", "serde.response_line"],
    ),
    ("remote.decode_ms", &["remote.decode"]),
    ("sim.single_ms", &["sim.single"]),
    ("sim.multi_ms", &["sim.multi"]),
];

/// The per-layer metrics of `spans`: mean self time per build or
/// request, and the work counts per build or request.
pub fn metrics(spans: &[Span], work: &Work) -> Vec<Metric> {
    let totals = self_times(spans);
    let units = work.units.max(1) as f64;
    let mut metrics: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|(metric, names)| {
            let ns: u64 = names
                .iter()
                .filter_map(|n| totals.get(n))
                .map(|(_, ns)| ns)
                .sum();
            Metric::new(*metric, ns as f64 / 1e6 / units, "ms")
        })
        .collect();
    let per = |count: u64| count as f64 / units;
    metrics.push(Metric::new(
        "core.nodes_expanded",
        per(work.profile.nodes_expanded),
        "count",
    ));
    metrics.push(Metric::new(
        "core.exhaustive_retries",
        per(work.profile.exhaustive_retries),
        "count",
    ));
    metrics.push(Metric::new(
        "core.schedule_yield",
        work.schedule_nodes as f64 / work.profile.nodes_expanded.max(1) as f64,
        "ratio",
    ));
    metrics.push(Metric::new("codegen.segments", per(work.segments), "count"));
    metrics.push(Metric::new(
        "serde.artifact_kb",
        per(work.artifact_bytes) / 1024.0,
        "KB",
    ));
    metrics
}
