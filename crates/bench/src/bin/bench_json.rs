//! Emits `BENCH_schedule.json`: best-of-K and median wall-time per
//! schedule-search benchmark case for the incremental path-state engine
//! *and* the recompute-from-scratch reference oracle, plus the speedup.
//! This file seeds the perf trajectory every future performance PR is
//! measured against.
//!
//! Every case is measured with explicit warmup runs followed by K timed
//! samples, and **both** the best and the median sample are reported: on
//! a noisy shared container the best-of-K is the trustworthy
//! regression signal (it approaches the true cost of the code, while the
//! median also absorbs scheduler noise), so compare `best_ms` across PRs
//! and use `median_ms` as the sanity check.
//!
//! The incremental side is measured through the production path — a
//! [`SearchContext`] built once per net with the EP search repeated on it,
//! which is how `schedule_system` and a long-running scheduling service
//! use the engine. The reference side re-derives everything per call, as
//! the original engine did. The `server/schedule_warm_vs_cold` case
//! closes the loop end-to-end: a real `qssd` over loopback TCP with its
//! context cache enabled (warm) against one with the cache disabled
//! (cold, the reference column).
//!
//! Run with `cargo run -p qss_bench --release --bin bench_json`.
//! Set `QSS_BENCH_FAST=1` for a quick smoke run with fewer samples.

use proptest::{Strategy, TestRng};
use qss_bench::experiments::divider_net;
use qss_bench::testgen::{ballast_source, build_random, hub_net_strategy};
use qss_core::{
    reference, Schedule, ScheduleOptions, SearchBudget, SearchContext, SearchProfile,
    TerminationKind,
};
use qss_obs::{Observer, SpanId};
use qss_petri::{
    p_invariant_basis, p_invariant_basis_dense, structural_report, structural_report_dense,
    t_invariant_basis, t_invariant_basis_dense, EcsInfo, FxHashMap, Marking, MarkingStore,
    PetriNet, StructuralLimits, TransitionId,
};
use qss_sim::{pfc_system, PfcParams};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured case: the incremental engine against the oracle.
struct CaseResult {
    name: String,
    best_ms: f64,
    median_ms: f64,
    reference_best_ms: f64,
    reference_median_ms: f64,
}

/// One search for `source` on `context` under `budget`: the production
/// call every `schedule_search/*` case times.
fn search(
    context: &SearchContext,
    net: &PetriNet,
    source: TransitionId,
    options: &ScheduleOptions,
    budget: &SearchBudget,
) -> Schedule {
    let mut profile = SearchProfile::default();
    context
        .find_schedule_profiled(net, source, options, budget, &mut profile)
        .expect("benchmark nets are schedulable")
        .0
}

/// `(best, median)` wall-clock milliseconds of `f` over `samples` timed
/// runs, after `warmup` untimed runs.
fn best_and_median_ms(warmup: usize, samples: usize, mut f: impl FnMut()) -> (f64, f64) {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[0], times[times.len() / 2])
}

/// The shape `qss_petri::MarkingStore` had before the flat slab: one
/// owned `Vec<u32>` per distinct marking behind the same hash-chained,
/// `FxHashMap`-indexed dedup structure (the same hasher the real store
/// uses, so the case measures only what flattening removed — the
/// per-distinct-marking heap allocation and the pointer chase on every
/// dedup comparison).
#[derive(Default)]
struct VecOfMarkingsInterner {
    markings: Vec<Marking>,
    index: FxHashMap<u64, u32>,
    same_hash: Vec<u32>,
}

impl VecOfMarkingsInterner {
    fn intern(&mut self, m: &Marking) -> u32 {
        let hash = m.path_hash();
        let mut cursor = self.index.get(&hash).copied().unwrap_or(u32::MAX);
        while cursor != u32::MAX {
            if &self.markings[cursor as usize] == m {
                return cursor;
            }
            cursor = self.same_hash[cursor as usize];
        }
        let id = self.markings.len() as u32;
        let prev = self.index.insert(hash, id).unwrap_or(u32::MAX);
        self.same_hash.push(prev);
        self.markings.push(m.clone());
        id
    }
}

/// Drives one deterministic intern-churn round: a scratch marking of
/// `WIDTH` places mutated in place and interned after every mutation
/// (the access pattern of the EP search's path tracker).
const CHURN_WIDTH: usize = 32;
const CHURN_INTERNS: usize = 8192;

fn churn_step(scratch: &mut [u32], i: usize) {
    // Monotone values make every mutated row previously unseen, so each
    // step takes the new-marking path — one heap allocation per step in
    // the Vec-of-Markings shape, a slab append in the flat store. The
    // driver re-interns every eighth row to exercise dedup hits too.
    scratch[i % CHURN_WIDTH] = i as u32;
}

fn main() {
    let (warmup, samples) = if std::env::var_os("QSS_BENCH_FAST").is_some() {
        (1, 5)
    } else {
        (3, 25)
    };
    let mut cases: Vec<CaseResult> = Vec::new();
    let mut push_case = |name: String, mut f: Box<dyn FnMut()>, mut reference: Box<dyn FnMut()>| {
        let (best_ms, median_ms) = best_and_median_ms(warmup, samples, &mut f);
        let (reference_best_ms, reference_median_ms) =
            best_and_median_ms(warmup, samples, &mut reference);
        cases.push(CaseResult {
            name,
            best_ms,
            median_ms,
            reference_best_ms,
            reference_median_ms,
        });
    };

    for k in [4u32, 8, 12] {
        let (net, source) = divider_net(k);
        let context = SearchContext::new(&net);
        let options = ScheduleOptions::default();
        let (rnet, roptions) = (net.clone(), options.clone());
        push_case(
            format!("schedule_search/divider_irrelevance/{k}"),
            Box::new(move || {
                black_box(search(
                    &context,
                    &net,
                    source,
                    &options,
                    &SearchBudget::unlimited(),
                ));
            }),
            Box::new(move || {
                black_box(reference::find_schedule(&rnet, source, &roptions).unwrap());
            }),
        );
    }

    {
        let k = 12u32;
        let (net, source) = divider_net(k);
        let context = SearchContext::new(&net);
        let options = ScheduleOptions {
            termination: TerminationKind::PlaceBounds { default: 2 * k },
            ..Default::default()
        };
        let (rnet, roptions) = (net.clone(), options.clone());
        push_case(
            format!("schedule_search/divider_place_bounds/{k}"),
            Box::new(move || {
                black_box(search(
                    &context,
                    &net,
                    source,
                    &options,
                    &SearchBudget::unlimited(),
                ));
            }),
            Box::new(move || {
                black_box(reference::find_schedule(&rnet, source, &roptions).unwrap());
            }),
        );
    }

    {
        let system = pfc_system(&PfcParams::tiny()).expect("PFC links");
        let source = system.uncontrollable_sources()[0];
        let context = SearchContext::new(&system.net);
        let options = ScheduleOptions::default();
        let (rsystem, roptions) = (system.clone(), options.clone());
        let (bsystem, csystem) = (system.clone(), system.clone());
        let (dsystem, esystem) = (system.clone(), system.clone());
        let (fsystem, gsystem) = (system.clone(), system.clone());
        push_case(
            "schedule_search/pfc_with_heuristics".to_string(),
            Box::new(move || {
                black_box(search(
                    &context,
                    &system.net,
                    source,
                    &options,
                    &SearchBudget::unlimited(),
                ));
            }),
            Box::new(move || {
                black_box(reference::find_schedule(&rsystem.net, source, &roptions).unwrap());
            }),
        );

        // The cold-start analysis cost: the sparse-row Farkas elimination
        // against the retained dense oracle (same row cap as the
        // production `EcsSorter`). This is what a scheduling service pays
        // the first time it sees a net, before `SearchContext` reuse
        // amortises it away.
        push_case(
            "analysis/t_invariant_basis_pfc".to_string(),
            Box::new(move || {
                black_box(t_invariant_basis(&bsystem.net, 50_000));
            }),
            Box::new(move || {
                black_box(t_invariant_basis_dense(&csystem.net, 50_000));
            }),
        );

        // The Farkas dual: the P-invariant basis over the same net with
        // the same row cap, sparse elimination against the dense oracle.
        // This is the other half of the analyzer's cold-start cost.
        push_case(
            "analysis/p_invariant_basis_pfc".to_string(),
            Box::new(move || {
                black_box(p_invariant_basis(&dsystem.net, 50_000));
            }),
            Box::new(move || {
                black_box(p_invariant_basis_dense(&esystem.net, 50_000));
            }),
        );

        // The full structural pre-pass `qssc analyze` and the `analyze`
        // server kind run per net: P-invariants, sur-invariant place
        // bounds, siphon/trap enumeration and the place/transition facts,
        // sparse against the dense-elimination oracle.
        let limits = StructuralLimits::default();
        let rlimits = limits.clone();
        push_case(
            "analysis/structural_report".to_string(),
            Box::new(move || {
                black_box(structural_report(&fsystem.net, &limits));
            }),
            Box::new(move || {
                black_box(structural_report_dense(&gsystem.net, &rlimits));
            }),
        );
    }

    {
        // The same analyses at a realistic width: a 48-process net of
        // perfbench's wide template (143 places, 142 transitions), where a
        // dense elimination's cubic terms show. The context row times the
        // production `SearchContext::new` (ECS partition plus T-invariant
        // basis) against the dense T-basis alone; the report row times the
        // structural pre-pass against its dense-elimination oracle.
        let source = ballast_source("ballast48", 46, 7);
        let net = qss::Pipeline::from_source(&source)
            .and_then(|pipeline| pipeline.link())
            .expect("ballast system links")
            .system
            .net;
        let (cnet, dnet, snet) = (net.clone(), net.clone(), net.clone());
        push_case(
            "analysis/context_ballast_48".to_string(),
            Box::new(move || {
                black_box(SearchContext::new(&net));
            }),
            Box::new(move || {
                black_box(t_invariant_basis_dense(&cnet, 50_000));
            }),
        );
        let limits = StructuralLimits::default();
        let rlimits = limits.clone();
        push_case(
            "analysis/structural_report_ballast_48".to_string(),
            Box::new(move || {
                black_box(structural_report(&dnet, &limits));
            }),
            Box::new(move || {
                black_box(structural_report_dense(&snet, &rlimits));
            }),
        );
    }

    {
        // The budget-overhead cases: the same searches with a fully armed
        // budget (deadline + cancellation flag, both unreachable) against
        // the plain unbudgeted call on the same context. The delta is the
        // whole cost of cooperative cancellation on the search hot path —
        // one step-counter increment per node expansion plus an amortised
        // clock/flag consultation every `CHECK_INTERVAL` steps — which the
        // budget layer promises is negligible.
        let far_deadline = Instant::now() + Duration::from_secs(3600);
        let armed = SearchBudget::unlimited()
            .with_deadline(far_deadline)
            .with_cancel(Arc::new(AtomicBool::new(false)));

        let (net, source) = divider_net(12);
        let context = SearchContext::new(&net);
        let options = ScheduleOptions::default();
        let (pnet, pcontext, poptions) = (net.clone(), SearchContext::new(&net), options.clone());
        let budget = armed.clone();
        push_case(
            "schedule_search/budget_overhead/divider_irrelevance_12".to_string(),
            Box::new(move || {
                black_box(search(&context, &net, source, &options, &budget));
            }),
            Box::new(move || {
                black_box(search(
                    &pcontext,
                    &pnet,
                    source,
                    &poptions,
                    &SearchBudget::unlimited(),
                ));
            }),
        );

        let system = pfc_system(&PfcParams::tiny()).expect("PFC links");
        let source = system.uncontrollable_sources()[0];
        let context = SearchContext::new(&system.net);
        let options = ScheduleOptions::default();
        let (psystem, poptions) = (system.clone(), options.clone());
        let pcontext = SearchContext::new(&psystem.net);
        push_case(
            "schedule_search/budget_overhead/pfc_with_heuristics".to_string(),
            Box::new(move || {
                black_box(search(&context, &system.net, source, &options, &armed));
            }),
            Box::new(move || {
                black_box(search(
                    &pcontext,
                    &psystem.net,
                    source,
                    &poptions,
                    &SearchBudget::unlimited(),
                ));
            }),
        );
    }

    {
        // The service case: one `schedule` request against a live `qssd`
        // over loopback TCP, warm vs cold. The "warm" server holds its
        // `SearchContext` cache (requests after the first reuse the
        // per-net analyses); the "reference" server runs with the cache
        // disabled (`cache_capacity: 0`), so every request re-derives the
        // ECS partition and T-invariant basis — the per-request cost the
        // ContextCache exists to amortise. Protocol and search work are
        // identical on both sides; the delta is context reuse alone. The
        // system is a two-stage hot path driven by the one uncontrollable
        // input plus 48 controllable-input ballast processes: a big net
        // with a small per-request reaction, the traffic shape where a
        // context cache pays.
        let source = ballast_source("warmcold", 48, 0);
        let spawn = |cache_capacity: usize| {
            qss_server::Server::bind(qss_server::ServerConfig {
                workers: 2,
                queue_capacity: 16,
                cache_capacity,
                ..qss_server::ServerConfig::default()
            })
            .expect("bind loopback server")
            .spawn()
        };
        let warm = spawn(16);
        let cold = spawn(0);
        let mut warm_client = qss_server::Client::connect(warm.addr()).expect("connect warm");
        let mut cold_client = qss_server::Client::connect(cold.addr()).expect("connect cold");
        let (warm_source, cold_source) = (source.clone(), source);
        push_case(
            "server/schedule_warm_vs_cold".to_string(),
            Box::new(move || {
                black_box(
                    warm_client
                        .schedule(&warm_source, None)
                        .expect("warm schedule"),
                );
            }),
            Box::new(move || {
                black_box(
                    cold_client
                        .schedule(&cold_source, None)
                        .expect("cold schedule"),
                );
            }),
        );
        warm.shutdown_and_join().expect("warm server drains");
        cold.shutdown_and_join().expect("cold server drains");
    }

    {
        // The flat-slab interning microbench: a mutating scratch marking
        // interned after every mutation, against the pre-refactor
        // one-Vec-per-marking interner shape. This is the allocation the
        // flat arena removed from the search hot path.
        push_case(
            "store/intern_churn".to_string(),
            Box::new(move || {
                let mut store = MarkingStore::with_stride(CHURN_WIDTH);
                let mut scratch = vec![0u32; CHURN_WIDTH];
                for i in 0..CHURN_INTERNS {
                    churn_step(&mut scratch, i);
                    black_box(store.intern(&scratch));
                    if i % 8 == 0 {
                        black_box(store.intern(&scratch));
                    }
                }
                black_box(store.len());
            }),
            Box::new(move || {
                let mut store = VecOfMarkingsInterner::default();
                let mut scratch = Marking::from_counts(vec![0u32; CHURN_WIDTH]);
                for i in 0..CHURN_INTERNS {
                    churn_step(scratch.as_mut_slice(), i);
                    black_box(store.intern(&scratch));
                    if i % 8 == 0 {
                        black_box(store.intern(&scratch));
                    }
                }
                black_box(store.markings.len());
            }),
        );
    }

    {
        // The observability tax, priced per request on three
        // representative workloads: the divider search, the PFC search
        // and the scalar ECS enabledness sweep over hub-net rows. Each iteration wraps the
        // workload in exactly the bookkeeping `qssd` pays per request —
        // one clock read, one span begin/end pair and one histogram
        // record — against the bare workload as the reference column.
        // The `off` cases hold the disabled [`Observer`] (the promise is
        // `speedup_vs_reference` ~1.00: no-op observability is free);
        // the `on` cases arm the registry and a journal, pricing full
        // recording.
        let divider_work = || -> Box<dyn FnMut()> {
            let (net, source) = divider_net(8);
            let context = SearchContext::new(&net);
            let options = ScheduleOptions::default();
            Box::new(move || {
                black_box(search(
                    &context,
                    &net,
                    source,
                    &options,
                    &SearchBudget::unlimited(),
                ));
            })
        };
        let pfc_work = || -> Box<dyn FnMut()> {
            let system = pfc_system(&PfcParams::tiny()).expect("PFC links");
            let source = system.uncontrollable_sources()[0];
            let context = SearchContext::new(&system.net);
            let options = ScheduleOptions::default();
            Box::new(move || {
                black_box(search(
                    &context,
                    &system.net,
                    source,
                    &options,
                    &SearchBudget::unlimited(),
                ));
            })
        };
        let hub_work = || -> Box<dyn FnMut()> {
            let mut rng = TestRng::new("bench-obs-hub");
            let desc = hub_net_strategy().generate(&mut rng);
            let (net, _source) = build_random(&desc);
            let ecs = EcsInfo::compute(&net);
            let stride = net.num_places();
            let rows: Vec<u32> = (0..256 * stride)
                .map(|_| (rng.next_u64() % 4) as u32)
                .collect();
            let mut enabled_ecs = Vec::new();
            Box::new(move || {
                let mut enabled = 0usize;
                for row in rows.chunks_exact(stride) {
                    ecs.enabled_ecs_into(&net, row, &mut enabled_ecs);
                    enabled += enabled_ecs.len();
                }
                black_box(enabled);
            })
        };
        let instrument = |observer: Observer, mut work: Box<dyn FnMut()>| -> Box<dyn FnMut()> {
            Box::new(move || {
                let started = observer.now_micros();
                let span = observer.span_begin("request kind=schedule", SpanId::NONE, "bench");
                work();
                observer.span_end(span, "request kind=schedule", "bench");
                let elapsed = observer.now_micros().saturating_sub(started);
                observer.histogram("latency_us.schedule").record(elapsed);
            })
        };
        type WorkFactory<'a> = &'a dyn Fn() -> Box<dyn FnMut()>;
        let workloads: [(&str, WorkFactory); 3] = [
            ("divider_irrelevance_8", &divider_work),
            ("pfc_with_heuristics", &pfc_work),
            ("hub_enabled_sweep", &hub_work),
        ];
        for (workload, factory) in workloads {
            for mode in ["off", "on"] {
                let observer = match mode {
                    "off" => Observer::disabled(),
                    _ => Observer::armed(4096),
                };
                push_case(
                    format!("obs/overhead_{mode}/{workload}"),
                    instrument(observer, factory()),
                    factory(),
                );
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"suite\": \"schedule_search\",\n");
    let _ = writeln!(json, "  \"warmup_per_case\": {warmup},");
    let _ = writeln!(json, "  \"samples_per_case\": {samples},");
    json.push_str("  \"command\": \"cargo run -p qss_bench --release --bin bench_json\",\n");
    json.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let speedup = case.reference_best_ms / case.best_ms;
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"best_ms\": {:.4}, \"median_ms\": {:.4}, \"reference_best_ms\": {:.4}, \"reference_median_ms\": {:.4}, \"speedup_vs_reference\": {:.2}}}",
            case.name,
            case.best_ms,
            case.median_ms,
            case.reference_best_ms,
            case.reference_median_ms,
            speedup
        );
        json.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_schedule.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_schedule.json");
    print!("{json}");
    eprintln!("wrote {path}");
}
