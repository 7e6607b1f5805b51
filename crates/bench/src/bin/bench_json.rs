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
//! (cold, the reference column). The deep-path cases
//! (`divider_chain_depth/*`, `over_degree_no_heuristics/*`) have no
//! reference column (`null`): the oracle takes seconds per search there.
//! The top-level `divider_chain_depth` record gives their best time per
//! schedule node and its growth from the shallow to the deep chain.
//! The `serde/artifact_json/*` cases serialize the task artifact of two
//! `compile_mixed`-shaped systems, one about four times the other:
//! streamed through `write_json` against the `to_value` tree rendered
//! through the same writer (the reference column). The top-level
//! `artifact_json` record gives both paths' best nanoseconds per output
//! byte and the streamed path's growth from the small to the large one.
//!
//! Run with `cargo run -p qss_bench --release --bin bench_json`.
//! Set `QSS_BENCH_FAST=1` for a quick smoke run with fewer samples.

use proptest::{Strategy, TestRng};
use qss_bench::experiments::divider_net;
use qss_bench::testgen::{
    ballast_source, build_random, divider_chain_source, hub_net_strategy, mixed_source,
    over_degree_chain_source,
};
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

/// One measured case: the incremental engine against the oracle, if the
/// case has one.
struct CaseResult {
    name: String,
    best_ms: f64,
    median_ms: f64,
    /// Best and median of the reference column.
    reference: Option<(f64, f64)>,
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

/// Rates of the 1-stage divider chain in the path-depth cases.
const CHAIN_RATES: [u32; 2] = [2_000, 8_000];

/// Node cap of the over-degree stress case.
const OVER_DEGREE_NODES: usize = 20_000;

/// Tail rates of the artifact-JSON pair: mixed systems with one branch,
/// select rates (2, 1) and divider rate 2 (`b1 r4 d2` and `b1 r5 d2`).
const JSON_TAIL_RATES: [u32; 2] = [4, 5];

/// The linked system of a FlowC `source`.
fn linked_system(source: &str) -> qss_flowc::LinkedSystem {
    qss::Pipeline::from_source(source)
        .and_then(|pipeline| pipeline.link())
        .expect("benchmark source links")
        .system
}

fn main() {
    let (warmup, samples) = if std::env::var_os("QSS_BENCH_FAST").is_some() {
        (1, 5)
    } else {
        (3, 25)
    };
    let mut cases: Vec<CaseResult> = Vec::new();
    let mut push_case =
        |name: String, mut f: Box<dyn FnMut()>, reference: Option<Box<dyn FnMut()>>| {
            let (best_ms, median_ms) = best_and_median_ms(warmup, samples, &mut f);
            let reference = reference.map(|mut r| best_and_median_ms(warmup, samples, &mut r));
            cases.push(CaseResult {
                name,
                best_ms,
                median_ms,
                reference,
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
            Some(Box::new(move || {
                black_box(reference::find_schedule(&rnet, source, &roptions).unwrap());
            })),
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
            Some(Box::new(move || {
                black_box(reference::find_schedule(&rnet, source, &roptions).unwrap());
            })),
        );
    }

    // Path depth: the 1-stage divider chain at two rates. Its schedule is
    // one cycle `2 × rate + 1` nodes deep, so if a node's cost grew with
    // the path, the per-node time would grow between the two cases.
    let mut chain_nodes = Vec::new();
    for rate in CHAIN_RATES {
        let system = linked_system(&divider_chain_source(1, rate));
        let source = system.uncontrollable_sources()[0];
        let net = system.net;
        let context = SearchContext::new(&net);
        let options = ScheduleOptions::default();
        let nodes =
            search(&context, &net, source, &options, &SearchBudget::unlimited()).num_nodes();
        chain_nodes.push(nodes);
        // No reference column: the oracle re-walks the path at every
        // node, about 13 s per search at rate 8 000.
        push_case(
            format!("schedule_search/divider_chain_depth/{rate}"),
            Box::new(move || {
                black_box(search(
                    &context,
                    &net,
                    source,
                    &options,
                    &SearchBudget::unlimited(),
                ));
            }),
            None,
        );
    }

    {
        // The irrelevance scan's stress case: with the heuristics off the
        // search fires `go` early and keeps the over-degree chain's first
        // channel above its degree along deep paths, so the prune check
        // scans the path at most nodes. The node cap ends the search. No
        // reference column: the oracle takes about 6 s per search here.
        let system = linked_system(&over_degree_chain_source(500));
        let source = system.uncontrollable_sources()[0];
        let net = system.net;
        let context = SearchContext::new(&net);
        let options = ScheduleOptions {
            max_nodes: OVER_DEGREE_NODES,
            ..ScheduleOptions::default().without_heuristics()
        };
        push_case(
            format!("schedule_search/over_degree_no_heuristics/{OVER_DEGREE_NODES}"),
            Box::new(move || {
                let mut profile = SearchProfile::default();
                let budget = SearchBudget::unlimited();
                black_box(context.find_schedule_profiled(
                    &net,
                    source,
                    &options,
                    &budget,
                    &mut profile,
                ))
                .expect_err("the node cap ends the search");
            }),
            None,
        );
    }

    // Artifact JSON: output bytes grow with schedule nodes × places, so if
    // the time per byte grew between the two systems, some step of the
    // writer would be super-linear.
    let mut json_bytes = Vec::new();
    for tail in JSON_TAIL_RATES {
        let source = mixed_source("mixed", 1, &[(2, 1)], tail, 2, 7);
        let task = qss::Pipeline::from_source(&source)
            .and_then(|pipeline| pipeline.link())
            .and_then(|linked| linked.schedule())
            .and_then(|schedule| schedule.generate())
            .expect("the mixed system builds");
        json_bytes.push(task.to_json().len());
        let tree_task = task.clone();
        push_case(
            format!("serde/artifact_json/b1_r{tail}_d2"),
            Box::new(move || {
                black_box(task.to_json());
            }),
            Some(Box::new(move || {
                let tree = serde_json::to_value(&tree_task).expect("infallible");
                black_box(serde_json::to_string(&tree).expect("infallible"));
            })),
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
            Some(Box::new(move || {
                black_box(reference::find_schedule(&rsystem.net, source, &roptions).unwrap());
            })),
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
            Some(Box::new(move || {
                black_box(t_invariant_basis_dense(&csystem.net, 50_000));
            })),
        );

        // The Farkas dual: the P-invariant basis over the same net with
        // the same row cap, sparse elimination against the dense oracle.
        // This is the other half of the analyzer's cold-start cost.
        push_case(
            "analysis/p_invariant_basis_pfc".to_string(),
            Box::new(move || {
                black_box(p_invariant_basis(&dsystem.net, 50_000));
            }),
            Some(Box::new(move || {
                black_box(p_invariant_basis_dense(&esystem.net, 50_000));
            })),
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
            Some(Box::new(move || {
                black_box(structural_report_dense(&gsystem.net, &rlimits));
            })),
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
            Some(Box::new(move || {
                black_box(t_invariant_basis_dense(&cnet, 50_000));
            })),
        );
        let limits = StructuralLimits::default();
        let rlimits = limits.clone();
        push_case(
            "analysis/structural_report_ballast_48".to_string(),
            Box::new(move || {
                black_box(structural_report(&dnet, &limits));
            }),
            Some(Box::new(move || {
                black_box(structural_report_dense(&snet, &rlimits));
            })),
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
            Some(Box::new(move || {
                black_box(search(
                    &pcontext,
                    &pnet,
                    source,
                    &poptions,
                    &SearchBudget::unlimited(),
                ));
            })),
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
            Some(Box::new(move || {
                black_box(search(
                    &pcontext,
                    &psystem.net,
                    source,
                    &poptions,
                    &SearchBudget::unlimited(),
                ));
            })),
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
            Some(Box::new(move || {
                black_box(
                    cold_client
                        .schedule(&cold_source, None)
                        .expect("cold schedule"),
                );
            })),
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
            Some(Box::new(move || {
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
            })),
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
                    Some(factory()),
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
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"best_ms\": {:.4}, \"median_ms\": {:.4}, ",
            case.name, case.best_ms, case.median_ms
        );
        let _ = match case.reference {
            Some((best, median)) => write!(
                json,
                "\"reference_best_ms\": {best:.4}, \"reference_median_ms\": {median:.4}, \"speedup_vs_reference\": {:.2}}}",
                best / case.best_ms
            ),
            None => write!(
                json,
                "\"reference_best_ms\": null, \"reference_median_ms\": null, \"speedup_vs_reference\": null}}"
            ),
        };
        json.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Per-node time of the deep-chain cases, and its growth from the
    // shallow to the deep one (flat when a node's cost is independent of
    // the path depth).
    let per_node_us: Vec<f64> = CHAIN_RATES
        .iter()
        .zip(&chain_nodes)
        .map(|(rate, &nodes)| {
            let name = format!("schedule_search/divider_chain_depth/{rate}");
            let case = cases
                .iter()
                .find(|case| case.name == name)
                .expect("chain case");
            case.best_ms * 1e3 / nodes as f64
        })
        .collect();
    let _ = writeln!(
        json,
        "  \"divider_chain_depth\": {{\"rates\": [{}, {}], \"schedule_nodes\": [{}, {}], \"best_us_per_node\": [{:.4}, {:.4}], \"per_node_growth\": {:.2}}},",
        CHAIN_RATES[0],
        CHAIN_RATES[1],
        chain_nodes[0],
        chain_nodes[1],
        per_node_us[0],
        per_node_us[1],
        per_node_us[1] / per_node_us[0]
    );
    // Best nanoseconds per output byte of the artifact-JSON pair, streamed
    // and through the tree, and the streamed path's growth.
    let mut streamed_ns = Vec::new();
    let mut tree_ns = Vec::new();
    for (tail, &bytes) in JSON_TAIL_RATES.iter().zip(&json_bytes) {
        let name = format!("serde/artifact_json/b1_r{tail}_d2");
        let case = cases
            .iter()
            .find(|case| case.name == name)
            .expect("artifact JSON case");
        let (tree_best, _) = case.reference.expect("tree column");
        streamed_ns.push(case.best_ms * 1e6 / bytes as f64);
        tree_ns.push(tree_best * 1e6 / bytes as f64);
    }
    let _ = writeln!(
        json,
        "  \"artifact_json\": {{\"shapes\": [\"b1 r{} d2\", \"b1 r{} d2\"], \"bytes\": [{}, {}], \"streamed_ns_per_byte\": [{:.3}, {:.3}], \"tree_ns_per_byte\": [{:.3}, {:.3}], \"per_byte_growth\": {:.2}}}",
        JSON_TAIL_RATES[0],
        JSON_TAIL_RATES[1],
        json_bytes[0],
        json_bytes[1],
        streamed_ns[0],
        streamed_ns[1],
        tree_ns[0],
        tree_ns[1],
        streamed_ns[1] / streamed_ns[0]
    );
    json.push_str("}\n");

    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_schedule.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_schedule.json");
    print!("{json}");
    eprintln!("wrote {path}");
}
