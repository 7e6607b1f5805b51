//! Differential tests: the incremental path-state EP engine
//! (`qss_core::SearchContext::find_schedule_profiled`) must be
//! observationally identical to the retained recompute-from-scratch
//! oracle (`qss_core::reference`) — same schedules (node for node,
//! marking for marking), same search statistics, same channel bounds,
//! same errors — across fixed paper fixtures, the divider family, the PFC
//! case study, the over-degree FlowC chain and randomly generated nets
//! (the dense default profile, the `wide` many-places/sparse-tokens
//! profile that stresses the flat marking slab, and the `hub`
//! hundreds-of-places profile with multi-member ECSs). Both engines sweep enabledness with the same
//! scalar walk (`EcsInfo::enabled_ecs_into`).
//!
//! Two fixtures outside the oracle's domain pin that the search rejects
//! nets it cannot schedule with a typed error instead of panicking.

use proptest::prelude::*;
use qss_bench::experiments::divider_net;
use qss_bench::testgen::{
    build_random, hub_net_strategy, over_degree_chain_source, random_net_strategy,
    wide_net_strategy,
};
use qss_core::{
    channel_bounds, reference, schedule_system, Result, Schedule, ScheduleError, ScheduleOptions,
    SearchBudget, SearchContext, SearchProfile, SearchStats, TerminationKind,
};
use qss_petri::{
    structural_report, NetBuilder, PetriNet, StructuralLimits, TransitionId, TransitionKind,
};
use qss_sim::{pfc_system, PfcParams};

/// Number of random nets the generative suite runs, overridable with the
/// `QSS_DIFFERENTIAL_NETS` environment variable (CI bumps it in the
/// release-mode job; the default keeps debug runs quick but meaningful).
fn differential_cases() -> u32 {
    std::env::var("QSS_DIFFERENTIAL_NETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The incremental engine: one unbudgeted search on a fresh context.
fn search(
    net: &PetriNet,
    source: TransitionId,
    options: &ScheduleOptions,
) -> Result<(Schedule, SearchStats)> {
    let budget = SearchBudget::unlimited();
    let mut profile = SearchProfile::default();
    SearchContext::new(net).find_schedule_profiled(net, source, options, &budget, &mut profile)
}

/// Runs both engines under `options` and asserts identical outcomes.
fn assert_engines_agree(net: &PetriNet, source: TransitionId, options: &ScheduleOptions) {
    let incremental = search(net, source, options);
    let oracle = reference::find_schedule_with_stats(net, source, options);
    match (&incremental, &oracle) {
        (Ok((s_inc, st_inc)), Ok((s_ref, st_ref))) => {
            assert_eq!(s_inc, s_ref, "schedules differ on {}", net.name());
            assert_eq!(st_inc, st_ref, "search stats differ on {}", net.name());
            s_inc.validate(net).expect("incremental schedule validates");
        }
        _ => assert_eq!(
            incremental,
            oracle,
            "engine outcomes differ on {}",
            net.name()
        ),
    }
}

/// Every option profile the workspace exercises.
fn option_profiles() -> Vec<ScheduleOptions> {
    vec![
        ScheduleOptions::default(),
        ScheduleOptions::default().without_heuristics(),
        ScheduleOptions::with_place_bounds(3),
        ScheduleOptions {
            greedy_entering_point: false,
            ..ScheduleOptions::default()
        },
        ScheduleOptions {
            single_source: false,
            ..ScheduleOptions::default()
        },
    ]
}

fn assert_engines_agree_all_profiles(net: &PetriNet, source: TransitionId) {
    for options in option_profiles() {
        assert_engines_agree(net, source, &options);
    }
}

/// The Figure 8(a) net of the paper.
fn figure8() -> PetriNet {
    let mut bl = NetBuilder::new("fig8");
    let p1 = bl.place("p1", 0);
    let p2 = bl.place("p2", 0);
    let p3 = bl.place("p3", 0);
    let a = bl.transition("a", TransitionKind::UncontrollableSource);
    let b = bl.transition("b", TransitionKind::Internal);
    let c = bl.transition("c", TransitionKind::Internal);
    let d = bl.transition("d", TransitionKind::Internal);
    let e = bl.transition("e", TransitionKind::Internal);
    bl.arc_t2p(a, p1, 1);
    bl.arc_p2t(p1, b, 1);
    bl.arc_p2t(p1, c, 1);
    bl.arc_t2p(b, p2, 1);
    bl.arc_p2t(p2, d, 1);
    bl.arc_t2p(c, p3, 1);
    bl.arc_p2t(p3, e, 2);
    bl.arc_t2p(e, p1, 1);
    bl.build().unwrap()
}

#[test]
fn engines_agree_on_figure8() {
    let net = figure8();
    let a = net.transition_by_name("a").unwrap();
    assert_engines_agree_all_profiles(&net, a);
}

#[test]
fn engines_agree_on_divider_family() {
    for k in 1..=12 {
        let (net, source) = divider_net(k);
        assert_engines_agree_all_profiles(&net, source);
        // The Sec. 4.4 comparison: place bounds tighter and looser than k.
        for bound in [k.saturating_sub(1).max(1), k, 2 * k] {
            let opts = ScheduleOptions {
                termination: TerminationKind::PlaceBounds { default: bound },
                ..Default::default()
            };
            assert_engines_agree(&net, source, &opts);
        }
    }
}

#[test]
fn engines_agree_on_pfc_system_and_channel_bounds() {
    let system = pfc_system(&PfcParams::tiny()).expect("PFC links");
    let options = ScheduleOptions::default();
    let mut reference_schedules = Vec::new();
    for source in system.uncontrollable_sources() {
        assert_engines_agree(&system.net, source, &options);
        let (s, _) = reference::find_schedule_with_stats(&system.net, source, &options).unwrap();
        reference_schedules.push(s);
    }
    // Channel bounds derived through the production path must equal the
    // bounds computed from the oracle's schedules.
    let context = SearchContext::new(&system.net);
    let budget = SearchBudget::unlimited();
    let (schedules, _) =
        schedule_system(&system, &context, &options, &budget).expect("PFC schedules");
    assert_eq!(
        schedules.channel_bounds,
        channel_bounds(&reference_schedules, &system.net)
    );
}

#[test]
fn engines_agree_on_unschedulable_nets() {
    // Figure 4(b): two uncontrollable sources feeding one synchroniser.
    let mut bl = NetBuilder::new("fig4b");
    let p1 = bl.place("p1", 0);
    let p2 = bl.place("p2", 0);
    let a = bl.transition("a", TransitionKind::UncontrollableSource);
    let b = bl.transition("b", TransitionKind::UncontrollableSource);
    let c = bl.transition("c", TransitionKind::Internal);
    bl.arc_t2p(a, p1, 1);
    bl.arc_t2p(b, p2, 1);
    bl.arc_p2t(p1, c, 1);
    bl.arc_p2t(p2, c, 1);
    let net = bl.build().unwrap();
    let a = net.transition_by_name("a").unwrap();
    assert_engines_agree_all_profiles(&net, a);
}

/// The over-degree chain: with the heuristics off the search fires the
/// input early and lifts the first channel past its degree along deep
/// paths while the program-counter places toggle, so the irrelevance
/// check scans the path instead of answering from its counter. With them
/// on the path stays within the degrees. The node cap keeps the oracle's
/// per-node path walk short in debug builds.
#[test]
fn engines_agree_on_over_degree_chains() {
    for k in [4, 5, 50] {
        let system = qss::Pipeline::from_source(&over_degree_chain_source(k))
            .and_then(|pipeline| pipeline.link())
            .expect("the chain links")
            .system;
        let source = system.uncontrollable_sources()[0];
        for base in [
            ScheduleOptions::default(),
            ScheduleOptions::default().without_heuristics(),
        ] {
            let options = ScheduleOptions {
                max_nodes: 3_000,
                ..base
            };
            assert_engines_agree(&system.net, source, &options);
        }
        // Without the heuristics the irrelevance criterion does cut.
        let mut profile = SearchProfile::default();
        let _ = SearchContext::new(&system.net).find_schedule_profiled(
            &system.net,
            source,
            &ScheduleOptions {
                max_nodes: 3_000,
                ..ScheduleOptions::default().without_heuristics()
            },
            &SearchBudget::unlimited(),
            &mut profile,
        );
        assert!(profile.irrelevance_cuts > 0, "k = {k}: no cuts");
    }
}

#[test]
fn engines_agree_under_tiny_node_budgets() {
    let net = figure8();
    let a = net.transition_by_name("a").unwrap();
    for max_nodes in 2..20 {
        let opts = ScheduleOptions {
            max_nodes,
            ..Default::default()
        };
        assert_engines_agree(&net, a, &opts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(differential_cases()))]

    /// Schedulable or not, both engines reach byte-identical outcomes on
    /// random nets under every option profile. A small node budget keeps
    /// degenerate explosions bounded while still exercising the
    /// budget-exhaustion path differentially. Counterexamples shrink
    /// through the generator's domain-aware strategy (see
    /// `qss_bench::testgen`).
    #[test]
    fn engines_agree_on_random_nets(desc in random_net_strategy()) {
        let (net, source) = build_random(&desc);
        for base in option_profiles() {
            let opts = ScheduleOptions { max_nodes: 3_000, ..base };
            assert_engines_agree(&net, source, &opts);
        }
    }

    /// The `wide` testgen profile: many places, sparse tokens — long
    /// fixed-width slab rows with few marked cells, which is exactly the
    /// layout the flat marking arena has to get right (stride arithmetic,
    /// reserve-then-commit rollbacks, incremental hashes over wide rows).
    #[test]
    fn engines_agree_on_wide_nets(desc in wide_net_strategy()) {
        let (net, source) = build_random(&desc);
        for base in option_profiles() {
            let opts = ScheduleOptions { max_nodes: 3_000, ..base };
            assert_engines_agree(&net, source, &opts);
        }
    }

    /// The `hub` testgen profile: hundreds of places, high-fan-in hubs,
    /// duplicated presets nesting choices into multi-member ECSs. The
    /// oracle pays O(depth × places) per node on rows this wide, so the
    /// node budget is tighter than the other generative suites.
    #[test]
    fn engines_agree_on_hub_nets(desc in hub_net_strategy()) {
        let (net, source) = build_random(&desc);
        for base in option_profiles() {
            let opts = ScheduleOptions { max_nodes: 800, ..base };
            assert_engines_agree(&net, source, &opts);
        }
    }
}

/// A source whose preset place can never be marked (the structural
/// analyzer proves it dead): the search rejects it with a typed error
/// before firing it at the root, instead of underflowing a token count.
#[test]
fn structural_gate_fast_rejects_dead_sources() {
    let mut bl = NetBuilder::new("deadsource");
    let gate = bl.place("gate", 0);
    let out = bl.place("out", 0);
    let a = bl.transition("a", TransitionKind::UncontrollableSource);
    let b = bl.transition("b", TransitionKind::Internal);
    bl.arc_p2t(gate, a, 1);
    bl.arc_t2p(a, out, 1);
    bl.arc_p2t(out, b, 1);
    bl.arc_t2p(b, gate, 1);
    let net = bl.build().unwrap();
    let a = net.transition_by_name("a").unwrap();

    let report = structural_report(&net, &StructuralLimits::default());
    assert!(report.is_dead(a), "fixture source should be provably dead");

    for options in option_profiles() {
        assert_eq!(
            search(&net, a, &options).unwrap_err(),
            ScheduleError::SourceNotEnabled(a)
        );
    }
}

/// A token pump (`p → t → 2·p`) behind an uncontrollable source: the
/// structural analyzer proves `p` unbounded, and the plain search
/// rejects the net with a typed error (it has no T-invariant, so no
/// cyclic schedule) instead of panicking or burning its node budget.
#[test]
fn structural_gate_fast_rejects_unbounded_nets() {
    let mut bl = NetBuilder::new("pump");
    let p = bl.place("p", 0);
    let s = bl.transition("s", TransitionKind::UncontrollableSource);
    let t = bl.transition("t", TransitionKind::Internal);
    bl.arc_t2p(s, p, 1);
    bl.arc_p2t(p, t, 1);
    bl.arc_t2p(t, p, 2);
    let net = bl.build().unwrap();
    let s = net.transition_by_name("s").unwrap();

    let report = structural_report(&net, &StructuralLimits::default());
    assert_eq!(report.unbounded_places(), vec![p]);

    for options in option_profiles() {
        assert_eq!(
            search(&net, s, &options).unwrap_err(),
            ScheduleError::NoTInvariants
        );
    }
}
