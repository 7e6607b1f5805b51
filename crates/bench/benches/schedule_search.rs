//! Criterion benchmark of the compile-time scheduler itself: the EP/EP_ECS
//! search on the PFC net and on the Figure 7 divider family, including the
//! heuristic ablation (Sec. 5.5), the termination-criterion ablation
//! (Sec. 4.4) and the incremental-engine-vs-reference-oracle comparison
//! that `BENCH_schedule.json` tracks over time.
//!
//! The incremental cases run through the production path (a
//! [`SearchContext`] built once, searches repeated on it); the
//! `*_reference` cases run `qss_core::reference`, which re-derives every
//! per-node and per-net analysis from scratch exactly as the original
//! engine did.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qss_bench::experiments::divider_net;
use qss_core::{
    reference, Result, Schedule, ScheduleOptions, SearchBudget, SearchContext, SearchProfile,
    SearchStats, TerminationKind,
};
use qss_petri::{PetriNet, TransitionId};
use qss_sim::{pfc_system, PfcParams};

/// One unbudgeted search for `source` on `context`.
fn search(
    context: &SearchContext,
    net: &PetriNet,
    source: TransitionId,
    options: &ScheduleOptions,
) -> Result<(Schedule, SearchStats)> {
    let budget = SearchBudget::unlimited();
    context.find_schedule_profiled(net, source, options, &budget, &mut SearchProfile::default())
}

fn bench_schedule_search(c: &mut Criterion) {
    let system = pfc_system(&PfcParams::tiny()).expect("PFC links");
    let source = system.uncontrollable_sources()[0];
    let pfc_context = SearchContext::new(&system.net);

    let mut group = c.benchmark_group("schedule_search");
    group.sample_size(20);
    group.bench_function("pfc_with_heuristics", |b| {
        b.iter(|| {
            search(
                &pfc_context,
                &system.net,
                source,
                &ScheduleOptions::default(),
            )
            .unwrap()
        })
    });
    group.bench_function("pfc_with_heuristics_reference", |b| {
        b.iter(|| {
            reference::find_schedule(&system.net, source, &ScheduleOptions::default()).unwrap()
        })
    });
    group.bench_function("pfc_without_heuristics", |b| {
        // The exhaustive, heuristic-free search may legitimately fail to
        // find a schedule within its node budget; measure the attempt.
        let opts = ScheduleOptions {
            max_nodes: 50_000,
            ..ScheduleOptions::default().without_heuristics()
        };
        b.iter(|| search(&pfc_context, &system.net, source, &opts).ok())
    });
    for k in [4u32, 8, 12] {
        let (net, src) = divider_net(k);
        let context = SearchContext::new(&net);
        group.bench_with_input(BenchmarkId::new("divider_irrelevance", k), &k, |b, _| {
            b.iter(|| search(&context, &net, src, &ScheduleOptions::default()).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("divider_irrelevance_reference", k),
            &k,
            |b, _| {
                b.iter(|| reference::find_schedule(&net, src, &ScheduleOptions::default()).unwrap())
            },
        );
        group.bench_with_input(BenchmarkId::new("divider_place_bounds", k), &k, |b, _| {
            let opts = ScheduleOptions {
                termination: TerminationKind::PlaceBounds { default: 2 * k },
                ..Default::default()
            };
            b.iter(|| search(&context, &net, src, &opts).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedule_search);
criterion_main!(benches);
