//! In-flight coalescing of schedule searches.
//!
//! When several concurrent requests ask to schedule the same net under
//! the same configuration, running the EP search once is enough: the
//! first request becomes the *leader* and runs the search, every
//! concurrent duplicate becomes a *follower* that subscribes to the
//! leader's [`Flight`] and receives the shared result. The table key is
//! `(fingerprint, ordered digest, canonical config JSON)` — exactly the
//! inputs the search result depends on (the FlowC source text itself does
//! *not* enter the key: requests whose sources link to the same net share
//! the search and attach the shared [`SystemSchedules`] to their own
//! artifacts).
//!
//! Completion is **callback-style**, not blocking: a follower leaves a
//! continuation via [`Flight::subscribe`] and holds no thread while it
//! waits — which is what lets the server park coalesced followers on the
//! event loop instead of burning worker-pool slots on them. When the
//! leader publishes, every parked continuation runs on the publishing
//! thread (each contained by `catch_unwind`, so one panicking follower
//! cannot strand its siblings).
//!
//! The leader holds a [`LeaderGuard`]; if it fails to publish a result —
//! including by panicking — the guard's `Drop` publishes an internal
//! error, so followers can never be stranded on a dead flight.

use crate::util::lock;
use qss::remote::{ErrorKind, WireError};
use qss::{SearchContext, SystemSchedules};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// The key a search is coalesced under.
pub(crate) type SearchKey = (u64, u64, String);

/// The shared result of one coalesced search: the schedules plus the
/// context they were computed with (so followers can assemble full
/// `ScheduleArtifact`s) and whether the leader's context came from the
/// cache.
#[derive(Clone, Debug)]
pub(crate) struct SharedSearch {
    pub schedules: Arc<SystemSchedules>,
    pub context: Arc<SearchContext>,
    pub cache_hit: bool,
}

pub(crate) type SearchOutcome = Result<SharedSearch, WireError>;

/// A follower's parked continuation.
type Waiter = Box<dyn FnOnce(&SearchOutcome) + Send>;

struct FlightState {
    outcome: Option<SearchOutcome>,
    waiters: Vec<Waiter>,
}

/// One running search and its rendezvous point.
pub(crate) struct Flight {
    state: Mutex<FlightState>,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState {
                outcome: None,
                waiters: Vec::new(),
            }),
        }
    }

    /// Leaves a continuation to run when the leader publishes. If the
    /// outcome is already in, the continuation runs immediately on the
    /// calling thread; otherwise it runs later on the publishing thread.
    /// Either way it runs exactly once.
    pub fn subscribe(&self, waiter: Waiter) {
        let ready = {
            let mut state = lock(&self.state);
            match &state.outcome {
                Some(outcome) => Some(outcome.clone()),
                None => {
                    state.waiters.push(waiter);
                    return;
                }
            }
        };
        if let Some(outcome) = ready {
            run_waiter(waiter, &outcome);
        }
    }

    fn publish(&self, outcome: SearchOutcome) {
        let waiters = {
            let mut state = lock(&self.state);
            if state.outcome.is_none() {
                state.outcome = Some(outcome.clone());
            }
            std::mem::take(&mut state.waiters)
        };
        for waiter in waiters {
            run_waiter(waiter, &outcome);
        }
    }
}

/// Runs one continuation, containing its panics: a follower that blows
/// up while assembling its artifact must not take the publishing thread
/// (and every later sibling) down with it.
fn run_waiter(waiter: Waiter, outcome: &SearchOutcome) {
    let _ = catch_unwind(AssertUnwindSafe(|| waiter(outcome)));
}

/// What [`InFlightTable::join`] hands back: run the search, or subscribe
/// to whoever is already running it.
pub(crate) enum Ticket {
    /// This request runs the search and must complete the guard.
    Lead(LeaderGuard),
    /// A leader is already searching; subscribe to its flight.
    Wait(Arc<Flight>),
}

/// The table of currently running searches. `join` takes an `Arc`ed
/// table so the leader's guard holds its own handle and can retire the
/// flight wherever it is dropped.
#[derive(Default)]
pub(crate) struct InFlightTable {
    flights: Mutex<HashMap<SearchKey, Arc<Flight>>>,
}

impl InFlightTable {
    pub fn new() -> Self {
        InFlightTable::default()
    }

    /// Joins the search for `key`: the first caller leads, concurrent
    /// duplicates wait.
    pub fn join(self: &Arc<Self>, key: SearchKey) -> Ticket {
        let mut flights = lock(&self.flights);
        if let Some(flight) = flights.get(&key) {
            return Ticket::Wait(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        flights.insert(key.clone(), Arc::clone(&flight));
        Ticket::Lead(LeaderGuard {
            table: Arc::clone(self),
            key,
            flight,
            completed: false,
        })
    }

    /// Removes a finished flight so later requests start fresh searches
    /// (they will hit the context cache instead).
    fn retire(&self, key: &SearchKey) {
        lock(&self.flights).remove(key);
    }
}

/// The leader's obligation to publish. Dropping the guard without calling
/// [`LeaderGuard::complete`] — e.g. because the search panicked —
/// publishes an internal error to the followers.
pub(crate) struct LeaderGuard {
    table: Arc<InFlightTable>,
    key: SearchKey,
    flight: Arc<Flight>,
    completed: bool,
}

impl LeaderGuard {
    /// Publishes the outcome to every follower (their continuations run
    /// on this thread) and retires the flight.
    pub fn complete(mut self, outcome: SearchOutcome) {
        self.completed = true;
        self.table.retire(&self.key);
        self.flight.publish(outcome);
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        if !self.completed {
            self.table.retire(&self.key);
            self.flight.publish(Err(WireError::new(
                ErrorKind::Internal,
                "the leading search of this coalesced request failed abruptly",
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qss::petri::{NetBuilder, TransitionKind};
    use std::sync::mpsc;

    fn shared_search() -> SharedSearch {
        let mut b = NetBuilder::new("t");
        let p = b.place("p", 0);
        let src = b.transition("in", TransitionKind::UncontrollableSource);
        let t = b.transition("t", TransitionKind::Internal);
        b.arc_t2p(src, p, 1);
        b.arc_p2t(p, t, 1);
        let net = b.build().unwrap();
        let context = Arc::new(SearchContext::new(&net));
        let source = net.transition_by_name("in").unwrap();
        let (schedule, _) = context
            .find_schedule_profiled(
                &net,
                source,
                &qss::ScheduleOptions::default(),
                &qss::SearchBudget::unlimited(),
                &mut qss::SearchProfile::default(),
            )
            .unwrap();
        SharedSearch {
            schedules: Arc::new(SystemSchedules {
                schedules: vec![schedule],
                channel_bounds: Default::default(),
                stats: vec![],
            }),
            context,
            cache_hit: false,
        }
    }

    fn key(n: u64) -> SearchKey {
        (n, n, "config".to_string())
    }

    /// Subscribes a channel-backed waiter and returns its receiver.
    fn subscribe_channel(flight: &Flight) -> mpsc::Receiver<SearchOutcome> {
        let (tx, rx) = mpsc::channel();
        flight.subscribe(Box::new(move |outcome| {
            let _ = tx.send(outcome.clone());
        }));
        rx
    }

    #[test]
    fn parked_followers_receive_the_leaders_result_without_threads() {
        let table = Arc::new(InFlightTable::new());
        let Ticket::Lead(guard) = table.join(key(1)) else {
            panic!("first join must lead");
        };
        // Concurrent duplicates park continuations — no waiting threads.
        let receivers: Vec<_> = (0..4)
            .map(|_| {
                let Ticket::Wait(flight) = table.join(key(1)) else {
                    panic!("duplicate join must wait");
                };
                subscribe_channel(&flight)
            })
            .collect();
        for rx in &receivers {
            assert!(
                rx.try_recv().is_err(),
                "no continuation may run before the leader publishes"
            );
        }
        let shared = shared_search();
        guard.complete(Ok(shared.clone()));
        for rx in receivers {
            let outcome = rx
                .try_recv()
                .expect("publish ran the continuation")
                .unwrap();
            assert!(Arc::ptr_eq(&outcome.schedules, &shared.schedules));
            assert!(Arc::ptr_eq(&outcome.context, &shared.context));
        }
        // The flight retired: the next join leads a fresh search.
        assert!(matches!(table.join(key(1)), Ticket::Lead(_)));
    }

    #[test]
    fn late_subscribers_run_immediately_on_a_completed_flight() {
        let table = Arc::new(InFlightTable::new());
        let Ticket::Lead(guard) = table.join(key(3)) else {
            panic!("first join must lead");
        };
        let Ticket::Wait(flight) = table.join(key(3)) else {
            panic!("duplicate join must wait");
        };
        guard.complete(Ok(shared_search()));
        // The flight already published: the continuation runs inline.
        let rx = subscribe_channel(&flight);
        assert!(rx.try_recv().expect("inline run").is_ok());
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let table = Arc::new(InFlightTable::new());
        let _lead_a = table.join(key(1));
        assert!(matches!(table.join(key(2)), Ticket::Lead(_)));
        assert!(matches!(
            table.join((1, 1, "other-config".into())),
            Ticket::Lead(_)
        ));
    }

    #[test]
    fn dropped_leader_strands_no_followers() {
        let table = Arc::new(InFlightTable::new());
        let guard = match table.join(key(7)) {
            Ticket::Lead(guard) => guard,
            Ticket::Wait(_) => panic!("first join must lead"),
        };
        let Ticket::Wait(flight) = table.join(key(7)) else {
            panic!("duplicate join must wait");
        };
        let rx = subscribe_channel(&flight);
        drop(guard); // leader "panicked"
        let outcome = rx.try_recv().expect("drop published");
        assert_eq!(outcome.unwrap_err().kind, ErrorKind::Internal);
        assert!(matches!(table.join(key(7)), Ticket::Lead(_)));
    }

    #[test]
    fn a_panicking_follower_does_not_strand_its_siblings() {
        let table = Arc::new(InFlightTable::new());
        let Ticket::Lead(guard) = table.join(key(9)) else {
            panic!("first join must lead");
        };
        let Ticket::Wait(flight) = table.join(key(9)) else {
            panic!("duplicate join must wait");
        };
        flight.subscribe(Box::new(|_| panic!("hostile continuation")));
        let rx = subscribe_channel(&flight);
        guard.complete(Ok(shared_search()));
        assert!(
            rx.try_recv().expect("sibling still ran").is_ok(),
            "the panicking waiter must not stop the publish loop"
        );
    }
}
