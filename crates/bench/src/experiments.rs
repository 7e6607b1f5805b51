//! The experiment implementations behind the figure/table binaries.

use qss_codegen::{generate_task, CodeCostModel, GeneratedTask, TaskOptions};
use qss_core::{
    schedule_system, Schedule, ScheduleError, ScheduleOptions, SearchBudget, SearchContext,
    SearchProfile, SearchStats, SystemSchedules, TerminationKind,
};
use qss_flowc::LinkedSystem;
use qss_petri::{NetBuilder, PetriNet, TransitionId, TransitionKind};
use qss_sim::{
    pfc_events, pfc_spec, pfc_system, run_multitask, run_singletask, size_report, CycleCostModel,
    MultiTaskConfig, PfcParams, SingleTaskConfig, SizeReport,
};
use std::fmt::Write as _;

/// Everything needed to run the PFC experiments: the linked system, its
/// schedules and the generated single task.
pub struct PfcSetup {
    /// Workload parameters.
    pub params: PfcParams,
    /// The linked PFC system.
    pub system: LinkedSystem,
    /// One schedule per uncontrollable input (there is exactly one, `init`).
    pub schedules: SystemSchedules,
    /// The generated single task.
    pub task: GeneratedTask,
}

/// One unbudgeted search for `source` on a fresh context.
fn find_schedule_with_stats(
    net: &PetriNet,
    source: TransitionId,
    options: &ScheduleOptions,
) -> Result<(Schedule, SearchStats), ScheduleError> {
    SearchContext::new(net).find_schedule_profiled(
        net,
        source,
        options,
        &SearchBudget::unlimited(),
        &mut SearchProfile::default(),
    )
}

/// Builds the PFC system, its schedule and the generated task.
///
/// # Panics
/// Panics if the embedded PFC specification fails to schedule, which would
/// indicate a regression in the scheduler.
pub fn pfc_setup(params: PfcParams) -> PfcSetup {
    let system = pfc_system(&params).expect("PFC links");
    let context = SearchContext::new(&system.net);
    let (schedules, _) = schedule_system(
        &system,
        &context,
        &ScheduleOptions::default(),
        &SearchBudget::unlimited(),
    )
    .expect("PFC is schedulable");
    let task = generate_task(
        &system,
        &schedules.schedules[0],
        &schedules.channel_bounds,
        &TaskOptions::default(),
    )
    .expect("PFC task generation");
    PfcSetup {
        params,
        system,
        schedules,
        task,
    }
}

/// One row of Figure 20: the multi-task implementation at a given buffer
/// size, in cycles, for the three compiler profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure20Row {
    /// Channel buffer size.
    pub buffer_size: u32,
    /// Multi-task cycles per profile (`pfc`, `pfc-O`, `pfc-O2`).
    pub multitask_cycles: [u64; 3],
}

/// The data behind Figure 20.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure20Data {
    /// Number of frames transmitted.
    pub frames: usize,
    /// One row per buffer size.
    pub rows: Vec<Figure20Row>,
    /// Single generated task cycles per profile (buffer size is fixed to
    /// the unit bounds computed by the scheduler).
    pub singletask_cycles: [u64; 3],
}

/// Reproduces Figure 20: execution time of the four-task implementation as
/// a function of the channel buffer size, against the single generated
/// task, for the three compiler profiles.
pub fn figure20(setup: &PfcSetup, frames: usize, buffer_sizes: &[u32]) -> Figure20Data {
    let events = pfc_events(frames);
    let profiles = CycleCostModel::profiles();
    let singletask_cycles = profiles.map(|profile| {
        run_singletask(
            &setup.system,
            &setup.schedules.schedules,
            &events,
            &SingleTaskConfig::new(profile),
        )
        .expect("single-task run")
        .cycles
    });
    let rows = buffer_sizes
        .iter()
        .map(|&buffer_size| Figure20Row {
            buffer_size,
            multitask_cycles: profiles.map(|profile| {
                run_multitask(
                    &setup.system,
                    &events,
                    &MultiTaskConfig::new(buffer_size, profile),
                )
                .expect("multi-task run")
                .cycles
            }),
        })
        .collect();
    Figure20Data {
        frames,
        rows,
        singletask_cycles,
    }
}

/// Renders Figure 20 as a text table.
pub fn render_figure20(data: &Figure20Data) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 20 — execution cycles vs. channel buffer size ({} frames)",
        data.frames
    );
    let _ = writeln!(
        out,
        "{:>8} | {:>12} {:>12} {:>12}",
        "buffer", "pfc", "pfc-O", "pfc-O2"
    );
    let _ = writeln!(out, "{}", "-".repeat(52));
    for row in &data.rows {
        let _ = writeln!(
            out,
            "{:>8} | {:>12} {:>12} {:>12}",
            row.buffer_size,
            row.multitask_cycles[0],
            row.multitask_cycles[1],
            row.multitask_cycles[2]
        );
    }
    let _ = writeln!(
        out,
        "{:>8} | {:>12} {:>12} {:>12}   <- single generated task (unit buffers)",
        "1 task", data.singletask_cycles[0], data.singletask_cycles[1], data.singletask_cycles[2]
    );
    let best = data
        .rows
        .iter()
        .map(|r| r.multitask_cycles[0])
        .min()
        .unwrap_or(0);
    let worst = data
        .rows
        .iter()
        .map(|r| r.multitask_cycles[0])
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "speed-up of the single task (pfc profile): {:.1}x (best 4-task config) to {:.1}x (worst)",
        best as f64 / data.singletask_cycles[0].max(1) as f64,
        worst as f64 / data.singletask_cycles[0].max(1) as f64
    );
    out
}

/// One row of Table 1: cycle counts for a given number of frames.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Number of frames transmitted.
    pub frames: usize,
    /// `(single-task kcycles, four-task kcycles, ratio)` per profile.
    pub per_profile: [(u64, u64, f64); 3],
}

/// Reproduces Table 1: thousands of cycles for the single task and the
/// four-process implementation (buffers of size 100) over varying frame
/// counts.
pub fn table1(setup: &PfcSetup, frame_counts: &[usize]) -> Vec<Table1Row> {
    let profiles = CycleCostModel::profiles();
    frame_counts
        .iter()
        .map(|&frames| {
            let events = pfc_events(frames);
            let per_profile = profiles.map(|profile| {
                let single = run_singletask(
                    &setup.system,
                    &setup.schedules.schedules,
                    &events,
                    &SingleTaskConfig::new(profile),
                )
                .expect("single-task run");
                let multi =
                    run_multitask(&setup.system, &events, &MultiTaskConfig::new(100, profile))
                        .expect("multi-task run");
                let ratio = multi.cycles as f64 / single.cycles.max(1) as f64;
                (single.kcycles(), multi.kcycles(), ratio)
            });
            Table1Row {
                frames,
                per_profile,
            }
        })
        .collect()
}

/// Renders Table 1 as a text table.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — kilocycles, single task vs. 4 processes (buffers of 100)"
    );
    let _ = writeln!(
        out,
        "{:>7} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6}",
        "frames",
        "1task",
        "4procs",
        "ratio",
        "1task",
        "4procs",
        "ratio",
        "1task",
        "4procs",
        "ratio"
    );
    let _ = writeln!(
        out,
        "{:>7} | {:^24} | {:^24} | {:^24}",
        "", "pfc", "pfc-O", "pfc-O2"
    );
    let _ = writeln!(out, "{}", "-".repeat(88));
    for row in rows {
        let _ = write!(out, "{:>7} |", row.frames);
        for (single, multi, ratio) in row.per_profile {
            let _ = write!(out, " {single:>8} {multi:>8} {ratio:>6.1} |");
        }
        let _ = writeln!(out);
    }
    out
}

/// The data behind Table 2: code sizes under the three profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Data {
    /// One size report per profile.
    pub reports: Vec<SizeReport>,
}

/// Reproduces Table 2: estimated object-code size of the generated task
/// against the four processes compiled as separate tasks with inlined
/// communication primitives.
pub fn table2(setup: &PfcSetup) -> Table2Data {
    let spec = pfc_spec(&setup.params);
    let reports = CodeCostModel::profiles()
        .iter()
        .map(|model| size_report(&setup.system, spec.processes(), &setup.task, model, true))
        .collect();
    Table2Data { reports }
}

/// Renders Table 2 as a text table.
pub fn render_table2(data: &Table2Data) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — estimated code size in bytes (inlined communication primitives)"
    );
    let _ = writeln!(
        out,
        "{:>8} | {:>7} | {:>7} {:>7} {:>7} {:>7} {:>8} | {:>6}",
        "profile", "1 task", "contr", "prod", "filt", "cons", "total", "ratio"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for report in &data.reports {
        let by_name = |name: &str| {
            report
                .per_process
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .unwrap_or(0)
        };
        let _ = writeln!(
            out,
            "{:>8} | {:>7} | {:>7} {:>7} {:>7} {:>7} {:>8} | {:>6.1}",
            report.profile,
            report.task,
            by_name("controller"),
            by_name("producer"),
            by_name("filter"),
            by_name("consumer"),
            report.processes_total,
            report.ratio
        );
    }
    out
}

/// One row of the Figure 7 comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure7Row {
    /// Divider parameter `k`.
    pub k: u32,
    /// Outcome with a fixed a-priori place bound of 2 (a constant that does
    /// not grow with `k`): `Some(nodes explored)` if a schedule was found.
    pub fixed_bound: Option<usize>,
    /// The smallest uniform place bound for which the bounded search finds
    /// a schedule — it has to grow with `k`, showing that no constant bound
    /// works for the whole family.
    pub minimal_working_bound: Option<u32>,
    /// Nodes explored by the irrelevant-marking criterion (no user bound).
    pub irrelevance: Option<usize>,
}

/// Reproduces the Figure 7 experiment: the divider net is schedulable with
/// the irrelevance criterion but defeats a-priori place bounds chosen from
/// the maximal place degree.
pub fn figure7(ks: &[u32]) -> Vec<Figure7Row> {
    ks.iter()
        .map(|&k| {
            let (net, source) = divider_net(k);
            let with_bound = |bound: u32| {
                let opts = ScheduleOptions {
                    termination: TerminationKind::PlaceBounds { default: bound },
                    ..Default::default()
                };
                find_schedule_with_stats(&net, source, &opts)
                    .ok()
                    .map(|(_, st)| st.nodes_created)
            };
            let fixed_bound = with_bound(2);
            let minimal_working_bound = (1..=2 * k).find(|&b| with_bound(b).is_some());
            let irrelevance = find_schedule_with_stats(&net, source, &ScheduleOptions::default())
                .ok()
                .map(|(_, st)| st.nodes_created);
            Figure7Row {
                k,
                fixed_bound,
                minimal_working_bound,
                irrelevance,
            }
        })
        .collect()
}

/// The divider chain used by the Figure 7 comparison: transition `b`
/// divides the firings of `a` by `k` and `c` divides them by `k` again, so
/// `p1` must accumulate up to `k` tokens and `p2` up to `k` tokens while
/// the chained division forces `a` to fire `k²` times per cycle — more
/// than any constant bound proportional to the place degrees.
pub fn divider_net(k: u32) -> (PetriNet, TransitionId) {
    let mut b = NetBuilder::new("divider");
    let p1 = b.place("p1", 0);
    let p2 = b.place("p2", 0);
    let a = b.transition("a", TransitionKind::UncontrollableSource);
    let tb = b.transition("b", TransitionKind::Internal);
    let tc = b.transition("c", TransitionKind::Internal);
    b.arc_t2p(a, p1, 1);
    b.arc_p2t(p1, tb, k);
    b.arc_t2p(tb, p2, 1);
    b.arc_p2t(p2, tc, k);
    let net = b.build().expect("divider net builds");
    let a = net.transition_by_name("a").expect("source exists");
    (net, a)
}

/// Renders the Figure 7 comparison.
pub fn render_figure7(rows: &[Figure7Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7 — a-priori place bounds vs. the irrelevance criterion on the divider family"
    );
    let _ = writeln!(
        out,
        "{:>4} | {:>20} | {:>18} | {:>20}",
        "k", "fixed bound 2", "min working bound", "irrelevance (nodes)"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for row in rows {
        let fmt = |o: &Option<usize>| match o {
            Some(n) => format!("schedule, {n} nodes"),
            None => "NO SCHEDULE".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>4} | {:>20} | {:>18} | {:>20}",
            row.k,
            fmt(&row.fixed_bound),
            row.minimal_working_bound
                .map(|b| b.to_string())
                .unwrap_or_else(|| "none".to_string()),
            fmt(&row.irrelevance)
        );
    }
    out
}

/// One row of the heuristic ablation: search effort with and without the
/// T-invariant / ordering heuristics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationRow {
    /// Name of the net.
    pub name: String,
    /// `(tree nodes, schedule nodes)` with all heuristics enabled.
    pub with_heuristics: (usize, usize),
    /// `(tree nodes, schedule nodes)` with heuristics disabled.
    pub without_heuristics: (usize, usize),
}

/// Ablation of the search heuristics (Sec. 5.5) on the PFC net and the
/// divider nets.
pub fn ablation() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let mut add = |name: &str, net: &PetriNet, source: TransitionId| {
        let with = find_schedule_with_stats(net, source, &ScheduleOptions::default())
            .map(|(s, st)| (st.nodes_created, s.num_nodes()))
            .unwrap_or((usize::MAX, 0));
        let without_opts = ScheduleOptions {
            // Keep the heuristic-free search bounded: reporting "failed"
            // after a modest budget is the interesting data point.
            max_nodes: 50_000,
            ..ScheduleOptions::default().without_heuristics()
        };
        let without = find_schedule_with_stats(net, source, &without_opts)
            .map(|(s, st)| (st.nodes_created, s.num_nodes()))
            .unwrap_or((usize::MAX, 0));
        rows.push(AblationRow {
            name: name.to_string(),
            with_heuristics: with,
            without_heuristics: without,
        });
    };
    for k in [3u32, 5, 8] {
        let (net, source) = divider_net(k);
        add(&format!("divider k={k}"), &net, source);
    }
    let system = pfc_system(&PfcParams::tiny()).expect("PFC links");
    let source = system.uncontrollable_sources()[0];
    add("pfc (tiny frames)", &system.net, source);
    rows
}

/// Renders the ablation table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — search-tree nodes with / without the Sec. 5.5 heuristics"
    );
    let _ = writeln!(
        out,
        "{:>18} | {:>20} | {:>20}",
        "net", "with (tree/sched)", "without (tree/sched)"
    );
    let _ = writeln!(out, "{}", "-".repeat(66));
    for row in rows {
        let fmt = |(tree, sched): (usize, usize)| {
            if tree == usize::MAX {
                "failed".to_string()
            } else {
                format!("{tree} / {sched}")
            }
        };
        let _ = writeln!(
            out,
            "{:>18} | {:>20} | {:>20}",
            row.name,
            fmt(row.with_heuristics),
            fmt(row.without_heuristics)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure20_shows_single_task_advantage() {
        let setup = pfc_setup(PfcParams::tiny());
        let data = figure20(&setup, 2, &[1, 4, 16]);
        assert_eq!(data.rows.len(), 3);
        // Larger buffers never slow the 4-task system down.
        assert!(data.rows[0].multitask_cycles[0] >= data.rows[2].multitask_cycles[0]);
        // The single task beats every 4-task configuration in every profile.
        for row in &data.rows {
            for profile in 0..3 {
                assert!(row.multitask_cycles[profile] > data.singletask_cycles[profile]);
            }
        }
        let text = render_figure20(&data);
        assert!(text.contains("Figure 20"));
        assert!(text.contains("speed-up"));
    }

    #[test]
    fn table1_ratios_grow_with_optimisation() {
        let setup = pfc_setup(PfcParams::tiny());
        let rows = table1(&setup, &[2, 4]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let (_, _, ratio_pfc) = row.per_profile[0];
            let (_, _, ratio_o2) = row.per_profile[2];
            assert!(ratio_pfc > 1.0);
            // Optimisation shrinks computation but not OS overhead, so the
            // single-task advantage grows (3.9 -> 5.2 in the paper).
            assert!(ratio_o2 > ratio_pfc);
        }
        assert!(render_table1(&rows).contains("Table 1"));
    }

    #[test]
    fn table2_single_task_is_much_smaller() {
        let setup = pfc_setup(PfcParams::tiny());
        let data = table2(&setup);
        assert_eq!(data.reports.len(), 3);
        for report in &data.reports {
            assert_eq!(report.per_process.len(), 4);
            assert!(report.ratio > 3.0, "ratio {} too small", report.ratio);
        }
        assert!(render_table2(&data).contains("Table 2"));
    }

    #[test]
    fn figure7_place_bounds_fail_where_irrelevance_succeeds() {
        let rows = figure7(&[3, 5]);
        for row in &rows {
            assert!(
                row.irrelevance.is_some(),
                "irrelevance must schedule k={}",
                row.k
            );
            // A constant bound that does not grow with k fails...
            assert!(
                row.fixed_bound.is_none(),
                "the constant bound should fail for k={}",
                row.k
            );
            // ... and the smallest working bound grows with k.
            assert_eq!(row.minimal_working_bound, Some(row.k));
        }
        assert!(render_figure7(&rows).contains("Figure 7"));
    }

    #[test]
    fn ablation_runs_on_all_nets() {
        let rows = ablation();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.with_heuristics.0 < usize::MAX);
        }
        assert!(render_ablation(&rows).contains("Ablation"));
    }
}
