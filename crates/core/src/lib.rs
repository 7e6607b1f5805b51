//! Quasi-static scheduler: the primary contribution of Cortadella et al.
//! (DAC 2000), *Task Generation and Compile-Time Scheduling for Mixed
//! Data-Control Embedded Software*.
//!
//! Given a Petri net produced by the FlowC front end ([`qss_flowc::link()`]),
//! the scheduler computes one *single-source schedule* (SSS) per
//! uncontrollable environment input. A schedule is a cyclic graph whose
//! nodes carry markings and whose edges carry transitions; it proves that
//! the reaction to every environment event can be executed with a finite,
//! statically known amount of buffering, resolving only data-dependent
//! choices at run time.
//!
//! The main entry points are:
//!
//! * [`SearchContext::find_schedule_profiled`] — compute the schedule of
//!   one uncontrollable source transition with the EP/EP_ECS search of
//!   Sec. 5,
//! * [`schedule_system`] — compute schedules for every uncontrollable
//!   source of a linked system, one after another, and check their
//!   independence,
//! * [`independence`] — independence and channel-bound analysis (Sec. 4.3),
//! * [`termination`] — the place-bound and irrelevant-marking pruning
//!   criteria (Sec. 4.4).
//!
//! # Example
//!
//! ```
//! use qss_petri::{NetBuilder, TransitionKind};
//! use qss_core::{ScheduleOptions, SearchBudget, SearchContext, SearchProfile};
//!
//! // in -> p -> consume (a trivial reactive pipeline)
//! let mut b = NetBuilder::new("tiny");
//! let p = b.place("p", 0);
//! let src = b.transition("in", TransitionKind::UncontrollableSource);
//! let t = b.transition("consume", TransitionKind::Internal);
//! b.arc_t2p(src, p, 1);
//! b.arc_p2t(p, t, 1);
//! let net = b.build().unwrap();
//!
//! let (schedule, _stats) = SearchContext::new(&net).find_schedule_profiled(
//!     &net,
//!     src,
//!     &ScheduleOptions::default(),
//!     &SearchBudget::unlimited(),
//!     &mut SearchProfile::default(),
//! )?;
//! assert!(schedule.is_single_source(&net));
//! # Ok::<(), qss_core::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod ep;
pub mod error;
pub mod heuristics;
pub mod independence;
pub mod reference;
pub mod run;
pub mod schedule;
pub mod termination;

pub use budget::{BudgetChecker, BudgetConfig, BudgetStop, SearchBudget, CHECK_INTERVAL};
pub use ep::{
    schedule_system, ScheduleOptions, SearchContext, SearchProfile, SearchStats, SystemSchedules,
};
pub use error::{Result, ScheduleError};
pub use independence::{are_independent, channel_bounds, is_independent_set};
pub use run::{execute_run, RunTrace};
pub use schedule::{NodeId, Schedule, ScheduleNode};
pub use termination::{PathTracker, Termination, TerminationKind};
