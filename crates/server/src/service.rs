//! Request execution: every wire request mapped onto the [`qss`]
//! pipeline, with the context cache and in-flight coalescing threaded
//! through the `schedule`-bearing paths.
//!
//! The engine is **completion-based**: [`Engine::handle`] takes a reply
//! callback instead of returning a value, because a coalesced follower
//! finishes on a different thread than it starts on. A leader runs its
//! EP search inline on the worker that admitted it, holding one of the
//! search slots (a semaphore sized to `--workers`); coalesced followers
//! park a continuation on the leader's flight and hold no thread while
//! they wait. The pool runs twice as many workers as there are slots, so
//! searches never occupy more than half of it; the leader's response
//! assembly after its search (generate, simulate) holds no slot.
//!
//! Replies are serialized here, on the workers, not on the event loop:
//! a worker streams the `result` object (fingerprint, `cached`, the
//! artifact, and for `simulate` with `include_task` the task) straight
//! into one JSON string, and the reply callback posts that text back to
//! the connection core, whose event loop only splices it into the
//! response line. A large artifact therefore never stalls the loop, and
//! no `Value` tree of it is ever built.

use crate::cache::{ContextCache, ReportCache};
use crate::coalesce::{InFlightTable, SearchKey, SearchOutcome, SharedSearch, Ticket};
use qss::remote::{fingerprint_hex, CheckSummary, ErrorKind, Request, RequestKind, WireError};
use qss::{LinkedArtifact, Pipeline, QssError, SearchContext, SystemSchedules, TaskArtifact};
use qss_obs::{Counter, Observer, SpanId};
use serde::Serialize;
use serde_json::JsonWriter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How a finished response travels back to the connection core: the
/// `result` as compact JSON text, or the error. Called exactly once, from
/// the worker that admitted the request or (for coalesced followers)
/// from the leader's worker.
pub(crate) type Reply = Box<dyn FnOnce(Result<String, WireError>) + Send>;

/// The protocol-visible counters (cache counters live in the caches).
///
/// Every field is a [`qss_obs::Counter`] — a shareable cell the armed
/// [`Observer`] registry *adopts* (see [`Counters::adopt_into`]), so the
/// `stats` payload and the `metrics` registry read the very same cells:
/// one source of truth, two views.
#[derive(Default)]
pub(crate) struct Counters {
    pub requests: Counter,
    pub responses: Counter,
    pub errors: Counter,
    pub busy_rejections: Counter,
    pub coalesced: Counter,
    pub timeouts: Counter,
    pub cancelled: Counter,
    /// Schedule searches actually run; coalesced followers share
    /// their leader's search, so this lags `requests` under duplicate
    /// load — the service's whole point.
    pub searches: Counter,
    /// Event-loop wake-ups via the self-pipe.
    pub wakeups: Counter,
    /// Reads that left a partial request line in the buffer.
    pub partial_reads: Counter,
    /// Flushes that left unwritten response bytes behind (socket full).
    pub partial_writes: Counter,
    /// Responses held back for v1 in-order delivery.
    pub held_responses: Counter,
}

impl Counters {
    /// Registers every counter cell with the observer's registry.
    pub fn adopt_into(&self, observer: &Observer) {
        observer.adopt_counter("requests", &self.requests);
        observer.adopt_counter("responses", &self.responses);
        observer.adopt_counter("errors", &self.errors);
        observer.adopt_counter("busy_rejections", &self.busy_rejections);
        observer.adopt_counter("coalesced", &self.coalesced);
        observer.adopt_counter("timeouts", &self.timeouts);
        observer.adopt_counter("cancelled", &self.cancelled);
        observer.adopt_counter("searches", &self.searches);
        observer.adopt_counter("loop.wakeups", &self.wakeups);
        observer.adopt_counter("loop.partial_reads", &self.partial_reads);
        observer.adopt_counter("loop.partial_writes", &self.partial_writes);
        observer.adopt_counter("loop.held_responses", &self.held_responses);
    }
}

/// A counting semaphore bounding concurrently running schedule searches
/// to the `--workers` count. Searches run on pool workers, and the pool
/// has twice that many threads, so searches never take every worker:
/// admission stays responsive while every slot is searching.
struct SearchSlots {
    capacity: usize,
    available: AtomicUsize,
}

impl SearchSlots {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(SearchSlots {
            capacity,
            available: AtomicUsize::new(capacity),
        })
    }

    /// Takes a slot if one is free; never blocks. The permit returns the
    /// slot when dropped.
    fn try_acquire(self: &Arc<Self>) -> Option<SlotPermit> {
        let mut current = self.available.load(Ordering::Relaxed);
        loop {
            if current == 0 {
                return None;
            }
            match self.available.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(SlotPermit(Arc::clone(self))),
                Err(observed) => current = observed,
            }
        }
    }
}

struct SlotPermit(Arc<SearchSlots>);

impl Drop for SlotPermit {
    fn drop(&mut self) {
        self.0.available.fetch_add(1, Ordering::Release);
    }
}

/// The compute side of the server: everything workers need to execute a
/// pipeline request. Shared behind an [`Arc`] across the worker threads.
pub(crate) struct Engine {
    pub cache: ContextCache,
    pub reports: ReportCache,
    pub inflight: Arc<InFlightTable>,
    pub counters: Counters,
    /// The one observability handle: counters, latency histograms and
    /// the span journal all hang off it. A disabled observer turns every
    /// recording site into a single-branch no-op.
    pub observer: Observer,
    slots: Arc<SearchSlots>,
}

impl Engine {
    /// An engine allowing `search_slots` concurrent schedule searches.
    pub fn new(cache_capacity: usize, search_slots: usize, observer: Observer) -> Self {
        let engine = Engine {
            cache: ContextCache::new(cache_capacity),
            reports: ReportCache::new(cache_capacity),
            inflight: Arc::new(InFlightTable::new()),
            counters: Counters::default(),
            observer,
            slots: SearchSlots::new(search_slots.max(1)),
        };
        // Adopt every counter cell into the registry: `stats` (which
        // reads the structs) and `metrics` (which reads the registry)
        // are two views of the same cells.
        engine.counters.adopt_into(&engine.observer);
        engine.cache.adopt_into(&engine.observer);
        engine.reports.adopt_into(&engine.observer);
        engine
    }

    /// Executes one pipeline request (`check` / `analyze` / `link` /
    /// `schedule` / `generate` / `simulate`), bounded by the request's
    /// deadline when the server runs with `--request-timeout`, and
    /// delivers the result through `reply` — on this thread, except for
    /// coalesced followers, which the leader's worker answers. Control
    /// requests (`stats`, `shutdown`) never reach the engine — the
    /// connection layer answers them without queueing.
    pub fn handle(&self, request: Request, deadline: Option<Instant>, span: SpanId, reply: Reply) {
        let source = match request.source.as_deref() {
            Some(source) => source,
            None => {
                return reply(Err(WireError::protocol(format!(
                    "request kind `{}` needs `source`",
                    request.kind
                ))))
            }
        };
        let config = request.config.clone().unwrap_or_default();
        let admit = self.observer.span_begin("admit", span, "worker");
        let linked = Pipeline::from_source(source)
            .map_err(WireError::from)
            .and_then(|p| p.with_config(config).link().map_err(WireError::from));
        self.observer.span_end(admit, "admit", "worker");
        let linked = match linked {
            Ok(linked) => linked,
            Err(error) => return reply(Err(error)),
        };
        let fingerprint = linked.fingerprint();
        match request.kind {
            RequestKind::Check => {
                let analysis = linked.analysis();
                let summary = CheckSummary {
                    fingerprint: fingerprint_hex(fingerprint),
                    system: linked.spec.name().to_string(),
                    processes: linked.system.process_names.len() as u64,
                    channels: linked.system.channels.len() as u64,
                    places: analysis.num_places as u64,
                    transitions: analysis.num_transitions as u64,
                    uncontrollable_inputs: analysis.num_uncontrollable_sources as u64,
                    choice_places: analysis.num_choice_places as u64,
                };
                reply(Ok(
                    serde_json::to_string(&summary).expect("summary serialization is infallible")
                ));
            }
            RequestKind::Analyze => {
                let digest = linked.ordered_digest();
                let (report, cached) = match self.reports.get(fingerprint, digest) {
                    Some(report) => (report, true),
                    None => {
                        let report = serde_json::to_string(&linked.analyze())
                            .expect("report serialization is infallible");
                        self.reports.insert(fingerprint, digest, report.clone());
                        (report, false)
                    }
                };
                reply(Ok(result_json(fingerprint, Some(cached), |w| {
                    w.raw(&report)
                })));
            }
            RequestKind::Link => {
                reply(Ok(artifact_result(fingerprint, None, &linked, None)));
            }
            RequestKind::Schedule | RequestKind::Generate | RequestKind::Simulate => {
                self.scheduled(linked, request, deadline, span, reply);
            }
            RequestKind::Stats | RequestKind::Metrics | RequestKind::Shutdown => {
                reply(Err(WireError::new(
                    ErrorKind::Internal,
                    "control requests must not reach the worker pool",
                )))
            }
        }
    }

    /// Stage 2 with the service optimizations: the per-net
    /// [`SearchContext`] comes from the fingerprint-keyed cache,
    /// concurrent searches for the same `(fingerprint, digest, config)`
    /// are coalesced into one, and the leader searches on the calling
    /// worker while it holds a search slot.
    fn scheduled(
        &self,
        linked: LinkedArtifact,
        request: Request,
        deadline: Option<Instant>,
        span: SpanId,
        reply: Reply,
    ) {
        let fingerprint = linked.fingerprint();
        let digest = linked.ordered_digest();
        let config_json =
            serde_json::to_string(&linked.config).expect("config serialization is infallible");
        let key: SearchKey = (fingerprint, digest, config_json);
        match self.inflight.join(key) {
            Ticket::Wait(flight) => {
                // A leader is already searching: park the continuation on
                // its flight. No thread, no worker slot, no search slot —
                // the whole wait lives in this closure.
                self.counters.coalesced.inc();
                let observer = self.observer.clone();
                let wait = observer.span_begin("coalesced_wait", span, "worker");
                flight.subscribe(Box::new(move |outcome| {
                    observer.span_end(wait, "coalesced_wait", "worker");
                    reply(finish(linked, &request, outcome.clone()));
                }));
            }
            Ticket::Lead(guard) => {
                let Some(permit) = self.slots.try_acquire() else {
                    // Every search slot is taken by a *different* search
                    // (duplicates would have coalesced above): shed load
                    // with the same typed `busy` the full queue uses.
                    self.counters.busy_rejections.inc();
                    let busy = WireError::new(
                        ErrorKind::Busy,
                        format!(
                            "all {} schedule-search slots are busy; retry later",
                            self.slots.capacity
                        ),
                    );
                    guard.complete(Err(busy.clone()));
                    return reply(Err(busy));
                };
                self.counters.searches.inc();
                // A panic from here on unwinds through the guard, whose
                // drop answers the followers, and the permit; the
                // worker's own handler answers the leader.
                let search_span = self.observer.span_begin("search", span, "worker");
                let (context, cache_hit) = self.cache.get_or_build(fingerprint, digest, || {
                    SearchContext::new(&linked.system.net)
                });
                let outcome =
                    run_search(&linked, &context, deadline).map(|schedules| SharedSearch {
                        schedules: Arc::new(schedules),
                        context,
                        cache_hit,
                    });
                if matches!(&outcome, Err(e) if e.kind == ErrorKind::Timeout) {
                    // The search itself was cancelled mid-flight (as
                    // opposed to a response merely classified `timeout`).
                    self.counters.cancelled.inc();
                }
                self.observer.span_end(search_span, "search", "worker");
                guard.complete(outcome.clone());
                // The slot frees the moment the search is decided:
                // assembling the response (the generate/simulate stages)
                // must not make the next schedule see `busy`.
                drop(permit);
                reply(finish(linked, &request, outcome));
            }
        }
    }
}

/// Assembles a schedule-bearing response from the shared search outcome:
/// attach the schedules to this request's own linked artifact, then run
/// the remaining stages the request kind asks for. Runs on the leader's
/// worker — for the leader itself and for every parked follower.
fn finish(
    linked: LinkedArtifact,
    request: &Request,
    outcome: SearchOutcome,
) -> Result<String, WireError> {
    let shared = outcome?;
    let fingerprint = linked.fingerprint();
    let cache_hit = shared.cache_hit;
    let artifact =
        linked.attach_schedules((*shared.schedules).clone(), Arc::clone(&shared.context));
    match request.kind {
        RequestKind::Schedule => Ok(artifact_result(
            fingerprint,
            Some(cache_hit),
            &artifact,
            None,
        )),
        RequestKind::Generate => {
            let task = artifact.generate().map_err(WireError::from)?;
            Ok(artifact_result(fingerprint, Some(cache_hit), &task, None))
        }
        RequestKind::Simulate => {
            let task = artifact.generate().map_err(WireError::from)?;
            let sim = task.simulate(&request.events).map_err(WireError::from)?;
            // Embed the stage-3 artifact on request, so `build --events`
            // callers need one request, not a second full pipeline run
            // for `generate`.
            let task = request.include_task.then_some(&task);
            Ok(artifact_result(fingerprint, Some(cache_hit), &sim, task))
        }
        _ => Err(WireError::new(
            ErrorKind::Internal,
            "finish invoked on a non-schedule request kind",
        )),
    }
}

/// Runs the schedule search exactly as `LinkedArtifact::schedule` would,
/// but keeps the raw [`SystemSchedules`] so coalesced followers can
/// attach them to their own artifacts. The request deadline tightens the
/// configuration's own budget; a blown budget surfaces as a `timeout`
/// wire error via `QssError::BudgetExhausted`.
fn run_search(
    linked: &LinkedArtifact,
    context: &SearchContext,
    deadline: Option<Instant>,
) -> Result<SystemSchedules, WireError> {
    let budget = linked.config.budget.to_budget().and_deadline(deadline);
    qss::schedule_system(&linked.system, context, &linked.config.schedule, &budget)
        .map(|(schedules, _)| schedules)
        .map_err(|e| WireError::from(QssError::from(e)))
}

/// `{"fingerprint": ..., ["cached": ...,] "artifact": ...[, "task": ...]}`
/// as compact JSON text, streamed from the typed artifacts.
fn artifact_result<T: Serialize>(
    fingerprint: u64,
    cached: Option<bool>,
    artifact: &T,
    task: Option<&TaskArtifact>,
) -> String {
    result_json(fingerprint, cached, |w| {
        artifact.write_json(w);
        if let Some(task) = task {
            w.field("task", task);
        }
    })
}

/// The `result` object around an artifact: `write_artifact` writes the
/// `artifact` value and any members after it.
fn result_json(
    fingerprint: u64,
    cached: Option<bool>,
    write_artifact: impl FnOnce(&mut JsonWriter),
) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field("fingerprint", &fingerprint_hex(fingerprint));
    if let Some(cached) = cached {
        w.field("cached", &cached);
    }
    w.key("artifact");
    write_artifact(&mut w);
    w.end_object();
    w.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_slots_are_a_counting_semaphore() {
        let slots = SearchSlots::new(2);
        let a = slots.try_acquire().expect("slot 1");
        let b = slots.try_acquire().expect("slot 2");
        assert!(slots.try_acquire().is_none(), "capacity 2 means 2 permits");
        drop(a);
        let c = slots.try_acquire().expect("released slot is reusable");
        drop(b);
        drop(c);
        assert_eq!(slots.available.load(Ordering::Relaxed), 2);
    }
}
