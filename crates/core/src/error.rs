//! Error types for the scheduler.

use crate::budget::BudgetStop;
use qss_petri::TransitionId;
use std::fmt;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ScheduleError>;

/// Errors produced while searching for or validating schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The given transition is not an uncontrollable source transition.
    NotUncontrollableSource(TransitionId),
    /// No schedule exists within the search space defined by the
    /// termination condition.
    NoSchedule {
        /// The source transition a schedule was requested for.
        source: TransitionId,
        /// Number of tree nodes explored before giving up.
        explored_nodes: usize,
    },
    /// The search exceeded its safety node budget before completing.
    SearchBudgetExhausted {
        /// The source transition a schedule was requested for.
        source: TransitionId,
        /// The node budget that was exhausted.
        max_nodes: usize,
    },
    /// A caller-imposed cooperative budget (step cap, wall-clock
    /// deadline or cancellation flag — see [`crate::SearchBudget`])
    /// stopped the search before it completed.
    BudgetExhausted {
        /// The source transition a schedule was requested for.
        source: TransitionId,
        /// What ran out.
        stop: BudgetStop,
        /// Expansion steps charged before stopping.
        steps: u64,
    },
    /// The net has no base of T-invariants, hence no cyclic schedule
    /// exists (Sec. 5.5.2).
    NoTInvariants,
    /// The requested source transition cannot fire at the initial
    /// marking (its preset is not marked), so no schedule rooted there
    /// exists.
    SourceNotEnabled(TransitionId),
    /// A computed set of schedules is not independent, so it cannot be
    /// executed with statically known buffer bounds.
    NotIndependent {
        /// The two source transitions whose schedules interfere.
        first: TransitionId,
        /// The second source transition.
        second: TransitionId,
    },
    /// A schedule graph violates one of the five defining properties.
    InvalidSchedule(String),
    /// A run of a schedule set could not be completed.
    RunFailed(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotUncontrollableSource(t) => {
                write!(f, "transition {t} is not an uncontrollable source")
            }
            ScheduleError::NoSchedule {
                source,
                explored_nodes,
            } => write!(
                f,
                "no schedule found for source {source} within the search space ({explored_nodes} nodes explored)"
            ),
            ScheduleError::SearchBudgetExhausted { source, max_nodes } => write!(
                f,
                "schedule search for {source} exhausted its budget of {max_nodes} nodes"
            ),
            ScheduleError::BudgetExhausted {
                source,
                stop,
                steps,
            } => write!(
                f,
                "schedule search for {source} stopped after {steps} steps: {stop}"
            ),
            ScheduleError::NoTInvariants => {
                write!(f, "the net has no T-invariants, so no cyclic schedule exists")
            }
            ScheduleError::SourceNotEnabled(t) => write!(
                f,
                "source transition {t} is not enabled at the initial marking, \
                 so no schedule for it exists"
            ),
            ScheduleError::NotIndependent { first, second } => write!(
                f,
                "the schedules for {first} and {second} are not mutually independent"
            ),
            ScheduleError::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            ScheduleError::RunFailed(msg) => write!(f, "run failed: {msg}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let errors: Vec<ScheduleError> = vec![
            ScheduleError::NotUncontrollableSource(TransitionId::new(1)),
            ScheduleError::NoSchedule {
                source: TransitionId::new(0),
                explored_nodes: 17,
            },
            ScheduleError::SearchBudgetExhausted {
                source: TransitionId::new(0),
                max_nodes: 100,
            },
            ScheduleError::BudgetExhausted {
                source: TransitionId::new(0),
                stop: BudgetStop::Deadline,
                steps: 4096,
            },
            ScheduleError::NoTInvariants,
            ScheduleError::SourceNotEnabled(TransitionId::new(3)),
            ScheduleError::NotIndependent {
                first: TransitionId::new(0),
                second: TransitionId::new(1),
            },
            ScheduleError::InvalidSchedule("missing root".into()),
            ScheduleError::RunFailed("stuck".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
