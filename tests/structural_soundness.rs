//! Property-based soundness of the structural static analyzer: on small
//! random nets (the same `testgen` families the differential suite
//! uses), every claim the [`qss_petri::structural`] pre-pass makes is
//! checked against exhaustive (bounded) reachability and the incidence
//! matrix:
//!
//! * a proven place bound is never exceeded by any reachable marking,
//! * every reported P-invariant satisfies `yᵀ·C = 0` exactly,
//! * no transition that actually fires somewhere in the reachability
//!   graph is ever reported dead,
//! * a place reported never-marked never carries a token.
//!
//! The same families, plus a 48-process net of perfbench's wide
//! template, also pin the sparse analyses to their dense oracles: equal
//! T- and P-invariant bases (same invariants, same order) and an equal
//! structural report.
//!
//! The case count follows `QSS_DIFFERENTIAL_NETS` (default 256), the
//! same knob the differential suite uses, so CI can pin both together.

use proptest::prelude::*;
use qss_bench::testgen::{
    ballast_source, build_random, hub_net_strategy, random_net_strategy, wide_net_strategy,
};
use qss_petri::{
    incidence_matrix, p_invariant_basis, p_invariant_basis_dense, structural_report,
    structural_report_dense, t_invariant_basis, t_invariant_basis_dense, PetriNet, PlaceId,
    ReachabilityGraph, ReachabilityLimits, StructuralLimits, TransitionId,
};
use std::collections::HashSet;

fn soundness_cases() -> u32 {
    std::env::var("QSS_DIFFERENTIAL_NETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Checks every analyzer claim about `net` against ground truth.
fn assert_report_is_sound(net: &PetriNet) {
    let report = structural_report(net, &StructuralLimits::default());

    // P-invariants are exact left annullers of the incidence matrix.
    let c = incidence_matrix(net);
    for inv in &report.p_invariants {
        assert!(
            inv.is_valid_for(net),
            "reported P-invariant {:?} is not a semiflow of {}",
            inv.as_slice(),
            net.name()
        );
        for t in net.transition_ids() {
            let dot: i64 = net
                .place_ids()
                .map(|p| inv.weight(p) as i64 * c.entry(p, t))
                .sum();
            assert_eq!(dot, 0, "yᵀ·C ≠ 0 at column {t} on {}", net.name());
        }
    }

    // Reachability ground truth. The exploration is bounded, which only
    // *under*-approximates peaks and fired transitions — both checks
    // below stay sound under truncation.
    let graph = ReachabilityGraph::explore(net, &ReachabilityLimits::default())
        .expect("exploration succeeds");
    let peaks = graph.place_peaks();

    for p in net.place_ids() {
        if let Some(bound) = report.bound(p) {
            assert!(
                peaks[p.index()] <= bound,
                "place {p} of {} reached {} tokens, above its proven bound {bound}",
                net.name(),
                peaks[p.index()],
            );
        }
    }

    let fired: HashSet<TransitionId> = graph.edges().map(|(_, t, _)| t).collect();
    for &t in &report.dead_transitions {
        assert!(
            !fired.contains(&t),
            "transition {t} of {} fires in the reachability graph but was reported dead",
            net.name()
        );
    }

    let marked: HashSet<PlaceId> = net.place_ids().filter(|p| peaks[p.index()] > 0).collect();
    for &p in &report.never_marked_places {
        assert!(
            !marked.contains(&p),
            "place {p} of {} carries a token somewhere but was reported never-marked",
            net.name()
        );
    }
}

/// Hub nets run one oracle case in 32: with 96–256 places, mostly
/// isolated ones that are each a P-invariant, the dense oracles' pairwise
/// minimal-support filter costs about 0.25 s per net in release and
/// seconds in debug.
fn hub_oracle_cases() -> u32 {
    (soundness_cases() / 32).max(1)
}

/// Checks the sparse T-basis, P-basis and structural report of `net`
/// against the dense oracles.
fn assert_matches_dense_oracles(net: &PetriNet) {
    let limits = StructuralLimits::default();
    assert_eq!(
        t_invariant_basis(net, limits.row_cap),
        t_invariant_basis_dense(net, limits.row_cap),
        "T-invariant bases differ on {}",
        net.name()
    );
    assert_eq!(
        p_invariant_basis(net, limits.row_cap),
        p_invariant_basis_dense(net, limits.row_cap),
        "P-invariant bases differ on {}",
        net.name()
    );
    assert_eq!(
        structural_report(net, &limits),
        structural_report_dense(net, &limits),
        "structural reports differ on {}",
        net.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(soundness_cases()))]

    #[test]
    fn analyzer_claims_hold_on_random_nets(desc in random_net_strategy()) {
        let (net, _source) = build_random(&desc);
        assert_report_is_sound(&net);
    }

    #[test]
    fn analyzer_claims_hold_on_wide_nets(desc in wide_net_strategy()) {
        let (net, _source) = build_random(&desc);
        assert_report_is_sound(&net);
    }

    #[test]
    fn sparse_analyses_match_dense_oracles_on_random_nets(desc in random_net_strategy()) {
        let (net, _source) = build_random(&desc);
        assert_matches_dense_oracles(&net);
    }

    #[test]
    fn sparse_analyses_match_dense_oracles_on_wide_nets(desc in wide_net_strategy()) {
        let (net, _source) = build_random(&desc);
        assert_matches_dense_oracles(&net);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(hub_oracle_cases()))]

    #[test]
    fn sparse_analyses_match_dense_oracles_on_hub_nets(desc in hub_net_strategy()) {
        let (net, _source) = build_random(&desc);
        assert_matches_dense_oracles(&net);
    }
}

#[test]
fn sparse_analyses_match_dense_oracles_on_a_48_process_ballast_net() {
    let source = ballast_source("ballast48", 46, 7);
    let linked = qss::Pipeline::from_source(&source)
        .and_then(|pipeline| pipeline.link())
        .expect("ballast system links");
    let net = &linked.system.net;
    assert_eq!(net.num_places(), 143);
    assert_matches_dense_oracles(net);
}

#[test]
fn analyzer_claims_hold_on_the_pfc_case_study() {
    let system = qss_sim::pfc_system(&qss_sim::PfcParams::tiny()).expect("PFC system links");
    assert_report_is_sound(&system.net);
}
