//! Cooperative budgets for the EP/EP_ECS schedule search.
//!
//! The search of [`crate::ep`] is a depth-first traversal that can run
//! for an unbounded time on a pathological net (the node cap
//! [`crate::ScheduleOptions::max_nodes`] bounds *memory*, not wall
//! clock). A [`SearchBudget`] bounds the search cooperatively: the inner
//! loop charges one step per tree-node expansion and gives up — with a
//! typed [`crate::ScheduleError::BudgetExhausted`] — when the step
//! allowance runs out, the wall-clock deadline passes, or a shared
//! cancellation flag is raised.
//!
//! Checking a monotonic clock (or even a foreign atomic) on every node
//! would be measurable on searches whose per-node work is a handful of
//! slab writes, so the expensive checks are amortized: a local step
//! counter is maintained always, and the clock/flag are consulted only
//! every [`CHECK_INTERVAL`] steps. An exhausted budget is therefore
//! detected within `CHECK_INTERVAL` expansions of the configured limit —
//! microseconds of slack, never unbounded overrun.
//!
//! [`BudgetConfig`] is the serializable face of the same idea: what a
//! `PipelineConfig` (and hence a `qssd` request) carries over the wire.
//! An empty config means *unlimited*, and an unlimited budget adds no
//! work to the search loop beyond one branch on an `Option` that is
//! `None` — budgets off is byte-identical to the pre-budget engine.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many expansion steps pass between consultations of the wall
/// clock and the cancellation flag.
pub const CHECK_INTERVAL: u32 = 256;

/// The serializable budget configuration: what a pipeline configuration
/// (and a wire request) carries. Both fields absent means unlimited.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetConfig {
    /// Cap on expansion steps per source search (`None` = unlimited).
    pub max_steps: Option<u64>,
    /// Wall-clock allowance in milliseconds for the whole scheduling
    /// request, counted from the moment the search starts (`None` =
    /// unlimited).
    pub deadline_ms: Option<u64>,
}

impl BudgetConfig {
    /// Whether the configuration imposes no limit at all.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.deadline_ms.is_none()
    }

    /// Arms the configuration into a runtime [`SearchBudget`], resolving
    /// the relative `deadline_ms` against the current instant.
    pub fn to_budget(&self) -> SearchBudget {
        SearchBudget {
            max_steps: self.max_steps,
            deadline: self
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            cancel: None,
        }
    }
}

/// A runtime budget for one scheduling request.
///
/// The deadline is an absolute instant, so one budget shared by the
/// per-source searches of a system bounds their *combined* wall clock;
/// `max_steps` is charged per source search (each source gets a fresh
/// [`BudgetChecker`]).
#[derive(Debug, Clone, Default)]
pub struct SearchBudget {
    /// Cap on expansion steps per source search.
    pub max_steps: Option<u64>,
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Shared cancellation flag: any holder raising it makes every
    /// search carrying this budget stop at its next check.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl SearchBudget {
    /// A budget that never stops a search.
    pub fn unlimited() -> Self {
        SearchBudget::default()
    }

    /// Whether no limit is armed (such a budget costs the search
    /// nothing).
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.deadline.is_none() && self.cancel.is_none()
    }

    /// Replaces the step cap.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Replaces the deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a shared cancellation flag.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Tightens the deadline to `min(current, other)` — how a service
    /// combines a request-level deadline with a config-level one.
    pub fn and_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = match (self.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// The per-search charging state, or `None` when the budget is
    /// unlimited (so the search loop pays nothing for it).
    pub fn checker(&self) -> Option<BudgetChecker> {
        if self.is_unlimited() {
            return None;
        }
        Some(BudgetChecker {
            budget: self.clone(),
            steps: 0,
            until_check: CHECK_INTERVAL,
        })
    }
}

/// Why a budgeted search stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetStop {
    /// The step cap ran out.
    Steps,
    /// The wall-clock deadline passed.
    Deadline,
    /// The shared cancellation flag was raised.
    Cancelled,
}

impl std::fmt::Display for BudgetStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetStop::Steps => "step budget exhausted",
            BudgetStop::Deadline => "deadline exceeded",
            BudgetStop::Cancelled => "cancelled",
        })
    }
}

/// Per-search charging state of a [`SearchBudget`]: a step counter plus
/// the countdown to the next amortized clock/flag check.
///
/// One checker spans everything a single source search runs — including
/// the automatic greedy→exhaustive retry — so a retry cannot reset the
/// budget.
#[derive(Debug, Clone)]
pub struct BudgetChecker {
    budget: SearchBudget,
    steps: u64,
    until_check: u32,
}

impl BudgetChecker {
    /// Charges one expansion step; returns the stop reason once the
    /// budget is out. Deadline and cancellation are only consulted every
    /// [`CHECK_INTERVAL`] steps.
    #[inline]
    pub fn step(&mut self) -> Option<BudgetStop> {
        self.steps += 1;
        if let Some(max) = self.budget.max_steps {
            if self.steps > max {
                return Some(BudgetStop::Steps);
            }
        }
        if self.budget.deadline.is_none() && self.budget.cancel.is_none() {
            return None;
        }
        self.until_check -= 1;
        if self.until_check != 0 {
            return None;
        }
        self.until_check = CHECK_INTERVAL;
        self.check_now()
    }

    /// Consults the deadline and the cancellation flag immediately.
    pub fn check_now(&self) -> Option<BudgetStop> {
        if let Some(cancel) = &self.budget.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Some(BudgetStop::Cancelled);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Some(BudgetStop::Deadline);
            }
        }
        None
    }

    /// Steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_is_unlimited_and_costs_nothing() {
        let config = BudgetConfig::default();
        assert!(config.is_unlimited());
        assert!(config.to_budget().is_unlimited());
        assert!(config.to_budget().checker().is_none());
    }

    #[test]
    fn step_cap_trips_exactly_after_max_steps() {
        let budget = SearchBudget::unlimited().with_max_steps(10);
        let mut checker = budget.checker().expect("armed budget has a checker");
        for _ in 0..10 {
            assert_eq!(checker.step(), None);
        }
        assert_eq!(checker.step(), Some(BudgetStop::Steps));
        assert_eq!(checker.steps(), 11);
    }

    #[test]
    fn expired_deadline_is_detected_within_the_check_interval() {
        let budget = SearchBudget::unlimited().with_deadline(Instant::now());
        let mut checker = budget.checker().unwrap();
        let mut stopped = None;
        for taken in 1..=u64::from(CHECK_INTERVAL) {
            if let Some(stop) = checker.step() {
                stopped = Some((stop, taken));
                break;
            }
        }
        let (stop, taken) = stopped.expect("deadline must trip within one interval");
        assert_eq!(stop, BudgetStop::Deadline);
        assert_eq!(taken, u64::from(CHECK_INTERVAL));
    }

    #[test]
    fn cancellation_flag_stops_the_checker() {
        let flag = Arc::new(AtomicBool::new(false));
        let budget = SearchBudget::unlimited().with_cancel(Arc::clone(&flag));
        let mut checker = budget.checker().unwrap();
        for _ in 0..u64::from(CHECK_INTERVAL) * 3 {
            assert_eq!(checker.step(), None);
        }
        flag.store(true, Ordering::Relaxed);
        let stop = (0..u64::from(CHECK_INTERVAL))
            .find_map(|_| checker.step())
            .expect("flag must trip within one interval");
        assert_eq!(stop, BudgetStop::Cancelled);
    }

    #[test]
    fn and_deadline_keeps_the_earlier_instant() {
        let soon = Instant::now();
        let later = soon + Duration::from_secs(60);
        let budget = SearchBudget::unlimited()
            .with_deadline(later)
            .and_deadline(Some(soon));
        assert_eq!(budget.deadline, Some(soon));
        let budget = SearchBudget::unlimited().and_deadline(Some(soon));
        assert_eq!(budget.deadline, Some(soon));
        let budget = SearchBudget::unlimited()
            .with_deadline(soon)
            .and_deadline(None);
        assert_eq!(budget.deadline, Some(soon));
    }

    #[test]
    fn config_round_trips_through_serde() {
        let config = BudgetConfig {
            max_steps: Some(1000),
            deadline_ms: Some(50),
        };
        let back = BudgetConfig::from_value(&config.to_value()).unwrap();
        assert_eq!(back, config);
    }
}
