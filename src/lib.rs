//! `qss` — quasi-static scheduling of mixed data-control embedded
//! software (Cortadella et al., DAC 2000), as one typed pipeline.
//!
//! The paper's flow — FlowC processes → linked Petri net → quasi-static
//! schedules → one sequential task → execution comparison — is exposed as
//! a staged API in which every stage returns a serializable artifact:
//!
//! ```
//! use qss::{EnvEvent, Pipeline, QssError};
//!
//! let events: Vec<EnvEvent> = (1..=3).map(|i| EnvEvent::new("echo", "a", i)).collect();
//! let task = Pipeline::from_source(r#"
//!     PROCESS echo (In DPORT a, Out DPORT b) {
//!         int x;
//!         while (1) { READ_DATA(a, x, 1); WRITE_DATA(b, x * 2, 1); }
//!     }
//! "#)?
//! .link()?       // LinkedArtifact: the system Petri net
//! .schedule()?   // ScheduleArtifact: schedules + channel bounds + SearchContext
//! .generate()?;  // TaskArtifact: the sequential C task(s)
//! let sim = task.simulate(&events)?; // SimArtifact: both executions compared
//! assert!(sim.outputs_match);
//! println!("{}", task.report(Some(&sim)).to_json_pretty());
//! # Ok::<(), QssError>(())
//! ```
//!
//! The same flow is available from the command line through the `qssc`
//! binary (`qssc build system.flowc --emit c,json,dot --report -`), and
//! as a long-running service through `qssd` (crate `qss_server`), whose
//! newline-delimited JSON wire protocol and client live in [`remote`].
//!
//! The sub-crates remain reachable as modules for power users:
//!
//! * [`petri`] — Petri-net kernel (markings, ECS, reachability, invariants),
//! * [`flowc`] — FlowC front end (parsing, compilation to nets, linking),
//! * [`core`] — the EP/EP_ECS quasi-static scheduler,
//! * [`codegen`] — sequential task generation (C emission),
//! * [`sim`] — execution substrate and the PFC case study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qss_codegen as codegen;
pub use qss_core as core;
pub use qss_flowc as flowc;
pub use qss_petri as petri;
pub use qss_sim as sim;

pub mod diagnostics;
mod error;
mod pipeline;
pub mod remote;

pub use diagnostics::{AnalysisReport, Diagnostic, Severity, Subject};
pub use error::{QssError, Stage};
pub use pipeline::{
    CostProfile, LinkedArtifact, Pipeline, PipelineConfig, PipelineReport, ScheduleArtifact,
    ScheduleSummary, SimArtifact, SimSummary, TaskArtifact, TaskSummary,
};

// The working vocabulary of the flow, flattened so that one `use qss::…`
// import covers a full pipeline run and the common escape hatches.
pub use qss_codegen::{generate_task, GeneratedTask, TaskOptions, TaskStats};
pub use qss_core::{
    schedule_system, BudgetConfig, BudgetStop, Schedule, ScheduleError, ScheduleOptions,
    SearchBudget, SearchContext, SearchProfile, SystemSchedules,
};
pub use qss_flowc::{
    link, parse_process, parse_system, FlowCError, LinkedSystem, PortClass, SystemSpec,
};
pub use qss_sim::{
    run_multitask, run_singletask, CycleCostModel, EnvEvent, MultiTaskConfig, SimError, SimReport,
    SingleTaskConfig,
};

/// Renders a Petri net as Graphviz DOT (re-exported from
/// [`qss_petri::dot::to_dot`] so debugging output needs no sub-crate
/// imports; schedules render through [`Schedule::to_dot`]).
pub use qss_petri::dot::to_dot as net_to_dot;
