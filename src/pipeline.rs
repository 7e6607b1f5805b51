//! The staged, typed pipeline API of the `qss` facade.
//!
//! The paper's contribution is a *flow* — FlowC processes → linked Petri
//! net → quasi-static schedules → one sequential task → execution
//! comparison — and this module is that flow as a typed state machine:
//!
//! ```text
//! Pipeline ──link()──▶ LinkedArtifact ──schedule()──▶ ScheduleArtifact
//!     ──generate()──▶ TaskArtifact ──simulate(events)──▶ SimArtifact
//! ```
//!
//! Every stage returns an owned artifact struct that
//!
//! * carries everything later stages need (no re-wiring by the caller),
//! * serializes to JSON ([`to_json`](LinkedArtifact::to_json) /
//!   [`to_json_pretty`](LinkedArtifact::to_json_pretty)) so runs can be
//!   archived, diffed and resumed by services,
//! * renders its domain-specific views (Graphviz DOT for nets and
//!   schedules, C for generated tasks).
//!
//! One [`PipelineConfig`] value parameterizes every stage; the
//! [`ScheduleArtifact`] keeps the per-net [`SearchContext`] so follow-up
//! scheduling requests against the same net skip the structural analyses.

use crate::diagnostics::AnalysisReport;
use crate::error::QssError;
use qss_codegen::{generate_task, CodeCostModel, GeneratedTask};
use qss_core::{schedule_system, BudgetConfig, SearchContext, SearchProfile, SystemSchedules};
use qss_flowc::{parse_system, LinkedSystem, SystemSpec};
use qss_petri::{NetAnalysis, StructuralLimits};
use qss_sim::{
    run_multitask, run_singletask, CycleCostModel, EnvEvent, MultiTaskConfig, SimReport,
    SingleTaskConfig,
};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::sync::Arc;

pub use qss_codegen::TaskOptions;
pub use qss_core::ScheduleOptions;

/// Cost-model profile: the compiler-optimisation level of the paper's
/// measurements (`pfc`, `pfc-O`, `pfc-O2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CostProfile {
    /// Unoptimised compilation (`pfc`).
    Unoptimized,
    /// `-O` compilation (`pfc-O`).
    Optimized,
    /// `-O2` compilation (`pfc-O2`).
    Optimized2,
}

impl CostProfile {
    /// The cycle cost model of this profile.
    pub fn cycle_model(self) -> CycleCostModel {
        match self {
            CostProfile::Unoptimized => CycleCostModel::unoptimized(),
            CostProfile::Optimized => CycleCostModel::optimized(),
            CostProfile::Optimized2 => CycleCostModel::optimized2(),
        }
    }

    /// The code-size cost model of this profile.
    pub fn code_model(self) -> CodeCostModel {
        match self {
            CostProfile::Unoptimized => CodeCostModel::unoptimized(),
            CostProfile::Optimized => CodeCostModel::optimized(),
            CostProfile::Optimized2 => CodeCostModel::optimized2(),
        }
    }

    /// The paper's name for the profile.
    pub fn name(self) -> &'static str {
        self.cycle_model().name
    }

    /// Parses a profile name (`pfc`, `pfc-O`, `pfc-O2`).
    ///
    /// # Errors
    /// Returns [`QssError::Config`] for unknown names.
    pub fn from_name(name: &str) -> Result<Self, QssError> {
        match name {
            "pfc" => Ok(CostProfile::Unoptimized),
            "pfc-O" => Ok(CostProfile::Optimized),
            "pfc-O2" => Ok(CostProfile::Optimized2),
            other => Err(QssError::Config(format!(
                "unknown cost profile `{other}` (expected `pfc`, `pfc-O` or `pfc-O2`)"
            ))),
        }
    }
}

/// Configuration of a whole pipeline run: one value subsumes the
/// scheduler's [`ScheduleOptions`], the code generator's [`TaskOptions`],
/// the executors' configs, the cost-model profile and the cooperative
/// schedule-search [`BudgetConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Schedule-search options.
    pub schedule: ScheduleOptions,
    /// Task-generation options.
    pub task: TaskOptions,
    /// Cost-model profile for simulation and code-size estimation.
    pub profile: CostProfile,
    /// Channel buffer capacity of the multi-task baseline executor
    /// (the x axis of the paper's Figure 20).
    pub multitask_buffer_size: u32,
    /// Safety bound on executor steps (both executors).
    pub max_sim_steps: u64,
    /// Cooperative budget for the schedule search (step cap and/or
    /// wall-clock deadline; empty = unlimited, today's behavior).
    pub budget: BudgetConfig,
    /// Serialize the scheduler's [`SearchProfile`] into the
    /// [`ScheduleArtifact`] JSON (as a `search_profile` key). Off by
    /// default so default artifacts stay byte-identical; profiling
    /// counters are collected either way — only the wire format is
    /// opt-in.
    pub emit_search_profile: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            schedule: ScheduleOptions::default(),
            task: TaskOptions::default(),
            profile: CostProfile::Unoptimized,
            multitask_buffer_size: 4,
            max_sim_steps: 200_000_000,
            budget: BudgetConfig::default(),
            emit_search_profile: false,
        }
    }
}

/// Hand-written with a fixed key order, so serializing a parsed config
/// is *canonicalizing*: `{}`, a partial config and a fully spelled-out
/// default all round-trip to the same bytes. A scheduling service that
/// keys in-flight coalescing on the serialized config relies on this —
/// two requests for the same net under configs that differ only in
/// spelling must share one search.
impl Serialize for PipelineConfig {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("schedule".into(), self.schedule.to_value()),
            ("task".into(), self.task.to_value()),
            ("profile".into(), self.profile.to_value()),
            (
                "multitask_buffer_size".into(),
                self.multitask_buffer_size.to_value(),
            ),
            ("max_sim_steps".into(), self.max_sim_steps.to_value()),
            ("budget".into(), self.budget.to_value()),
        ];
        // Skip-if-default: configs written before this field existed and
        // configs that never touch it serialize byte-identically, which
        // both the archived-artifact suites and `qssd`'s coalescing key
        // rely on.
        if self.emit_search_profile {
            fields.push((
                "emit_search_profile".into(),
                self.emit_search_profile.to_value(),
            ));
        }
        Value::Object(fields)
    }

    /// The same keys, order and skip rule as [`PipelineConfig::to_value`].
    fn write_json(&self, w: &mut serde::JsonWriter) {
        w.begin_object();
        w.field("schedule", &self.schedule);
        w.field("task", &self.task);
        w.field("profile", &self.profile);
        w.field("multitask_buffer_size", &self.multitask_buffer_size);
        w.field("max_sim_steps", &self.max_sim_steps);
        w.field("budget", &self.budget);
        if self.emit_search_profile {
            w.field("emit_search_profile", &self.emit_search_profile);
        }
        w.end_object();
    }
}

/// Hand-written and *lenient*: every missing top-level field takes its
/// default, so `{}`, configurations serialized before a field existed
/// (archived artifacts, older clients of a `qssd` service) and a fully
/// spelled-out default all parse to the same value. Unknown keys are
/// ignored, so a config carrying a field that has since been removed
/// parses (and serializes) like one without it. A field that is present
/// but malformed still errors — leniency covers absence, not invalid
/// input.
impl<'de> Deserialize<'de> for PipelineConfig {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        if value.as_object().is_none() {
            return Err(serde::Error::custom(format!(
                "expected an object for `PipelineConfig`, found {}",
                value.kind()
            )));
        }
        let defaults = PipelineConfig::default();
        fn opt<T: serde::DeserializeOwned>(
            value: &Value,
            name: &str,
            default: T,
        ) -> Result<T, serde::Error> {
            match value.get(name) {
                Some(_) => serde::derive::field(value, "PipelineConfig", name),
                None => Ok(default),
            }
        }
        Ok(PipelineConfig {
            schedule: opt(value, "schedule", defaults.schedule)?,
            task: opt(value, "task", defaults.task)?,
            profile: opt(value, "profile", defaults.profile)?,
            multitask_buffer_size: opt(
                value,
                "multitask_buffer_size",
                defaults.multitask_buffer_size,
            )?,
            max_sim_steps: opt(value, "max_sim_steps", defaults.max_sim_steps)?,
            budget: opt(value, "budget", defaults.budget)?,
            emit_search_profile: opt(value, "emit_search_profile", defaults.emit_search_profile)?,
        })
    }
}

impl PipelineConfig {
    /// Replaces the cost profile.
    pub fn with_profile(mut self, profile: CostProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Replaces the schedule-search options.
    pub fn with_schedule_options(mut self, schedule: ScheduleOptions) -> Self {
        self.schedule = schedule;
        self
    }

    fn single_task_config(&self) -> SingleTaskConfig {
        let mut config = SingleTaskConfig::new(self.profile.cycle_model());
        config.max_steps = self.max_sim_steps;
        config
    }

    fn multi_task_config(&self) -> MultiTaskConfig {
        let mut config =
            MultiTaskConfig::new(self.multitask_buffer_size, self.profile.cycle_model());
        config.max_steps = self.max_sim_steps;
        config.inline_communication = self.task.inline_communication;
        config
    }
}

/// Entry point of the flow: a system specification plus a configuration,
/// not yet linked.
///
/// ```
/// use qss::{Pipeline, QssError};
///
/// let sim = Pipeline::from_source(r#"
///     PROCESS echo (In DPORT a, Out DPORT b) {
///         int x;
///         while (1) { READ_DATA(a, x, 1); WRITE_DATA(b, x * 2, 1); }
///     }
/// "#)?
/// .link()?
/// .schedule()?
/// .generate()?
/// .simulate(&[qss::EnvEvent::new("echo", "a", 21)])?;
/// assert_eq!(sim.single.output("echo", "b"), &[42]);
/// # Ok::<(), QssError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pipeline {
    spec: SystemSpec,
    config: PipelineConfig,
}

impl Pipeline {
    /// Starts a pipeline from an already-built specification.
    pub fn new(spec: SystemSpec) -> Self {
        Pipeline {
            spec,
            config: PipelineConfig::default(),
        }
    }

    /// Starts a pipeline by parsing whole-system FlowC source text
    /// (see [`qss_flowc::parse_system`] for the accepted format).
    ///
    /// # Errors
    /// Returns a parse- or link-stage [`QssError`] for malformed source.
    pub fn from_source(source: &str) -> Result<Self, QssError> {
        Ok(Pipeline::new(parse_system(source)?))
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut PipelineConfig {
        &mut self.config
    }

    /// The system specification.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Stage 1: validates the specification and links the per-process
    /// nets into the system Petri net.
    ///
    /// # Errors
    /// Returns a link-stage [`QssError`] for inconsistent networks.
    pub fn link(self) -> Result<LinkedArtifact, QssError> {
        let system = qss_flowc::link(&self.spec)?;
        Ok(LinkedArtifact {
            spec: self.spec,
            system,
            config: self.config,
        })
    }
}

/// Stage-1 artifact: the linked system Petri net plus its metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkedArtifact {
    /// The specification the system was linked from.
    pub spec: SystemSpec,
    /// The linked system (net, channels, environment ports, code).
    pub system: LinkedSystem,
    /// The run configuration, carried through every stage.
    pub config: PipelineConfig,
}

impl LinkedArtifact {
    /// Structural analysis of the linked net (degrees, choice structure).
    pub fn analysis(&self) -> NetAnalysis {
        NetAnalysis::of(&self.system.net)
    }

    /// The stable, order-independent content fingerprint of the linked
    /// net (see [`qss_petri::net_fingerprint`]): the cache key a
    /// scheduling service uses to share one [`SearchContext`] across all
    /// requests that carry the same net. Pair it with
    /// [`LinkedArtifact::ordered_digest`] before actually reusing
    /// id-indexed derived state.
    pub fn fingerprint(&self) -> u64 {
        qss_petri::net_fingerprint(&self.system.net)
    }

    /// The order-*sensitive* companion digest of
    /// [`LinkedArtifact::fingerprint`] (see
    /// [`qss_petri::net_ordered_digest`]): equal fingerprint + equal
    /// digest means the net's id assignment matches too, so cached
    /// id-indexed analyses ([`SearchContext`]) are safe to reuse.
    pub fn ordered_digest(&self) -> u64 {
        qss_petri::net_ordered_digest(&self.system.net)
    }

    /// The linked net as Graphviz DOT.
    pub fn net_dot(&self) -> String {
        qss_petri::dot::to_dot(&self.system.net)
    }

    /// Runs the structural static analyzer over the linked net and
    /// renders its findings as compiler-style diagnostics (see
    /// [`crate::diagnostics`] for the code table). The report is
    /// deterministic for a given net and does not consume the artifact —
    /// it is a side analysis, not a stage transition.
    pub fn analyze(&self) -> AnalysisReport {
        let net = &self.system.net;
        let limits = StructuralLimits::default();
        let structural = qss_petri::structural_report(net, &limits);
        let has_t = !qss_petri::t_invariant_basis(net, limits.row_cap).is_empty();
        AnalysisReport::build(net, structural, has_t)
    }

    /// Compact JSON rendering of the artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialization is infallible")
    }

    /// Pretty-printed JSON rendering of the artifact.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serialization is infallible")
    }

    /// Rebuilds an artifact from its JSON rendering.
    ///
    /// # Errors
    /// Returns [`QssError::Config`] if the text is not a valid artifact.
    pub fn from_json(text: &str) -> Result<Self, QssError> {
        serde_json::from_str(text)
            .map_err(|e| QssError::Config(format!("invalid LinkedArtifact JSON: {e}")))
    }

    /// Stage 2: computes one quasi-static schedule per uncontrollable
    /// input and the static channel bounds under the configuration's
    /// search budget, precomputing a reusable [`SearchContext`].
    ///
    /// # Errors
    /// Returns a schedule-stage [`QssError`] if some input has no
    /// single-source schedule, or [`QssError::BudgetExhausted`] when the
    /// search budget runs out.
    pub fn schedule(self) -> Result<ScheduleArtifact, QssError> {
        let context = Arc::new(SearchContext::new(&self.system.net));
        let (schedules, profile) = schedule_system(
            &self.system,
            &context,
            &self.config.schedule,
            &self.config.budget.to_budget(),
        )?;
        Ok(self
            .attach_schedules(schedules, context)
            .with_search_profile(profile))
    }

    /// Builds the stage-2 artifact from schedules computed elsewhere —
    /// how `qssd` attaches the result of a *coalesced* search (one search
    /// shared by every concurrent request for the same net and config) to
    /// each request's own artifact.
    ///
    /// The caller is responsible for consistency: `schedules` must be the
    /// result of scheduling `self.system` under `self.config.schedule`,
    /// and `context` must stem from a net equal to `self.system.net`
    /// id-for-id. Artifacts assembled from mismatched parts serialize
    /// fine but are semantically meaningless.
    pub fn attach_schedules(
        self,
        schedules: SystemSchedules,
        context: Arc<SearchContext>,
    ) -> ScheduleArtifact {
        ScheduleArtifact {
            spec: self.spec,
            system: self.system,
            config: self.config,
            schedules,
            context,
            profile: None,
        }
    }
}

/// The environment port (`process.port`) a schedule serves, shared by
/// [`ScheduleArtifact::source_port`] and the report/CLI file names so
/// they can never drift apart.
fn source_port_name(system: &LinkedSystem, schedule: &qss_core::Schedule) -> String {
    system
        .env_inputs
        .iter()
        .find(|e| e.source == schedule.source())
        .map(|e| format!("{}.{}", e.process, e.port))
        .unwrap_or_else(|| system.net.transition(schedule.source()).name.clone())
}

/// Stage-2 artifact: the schedules of every uncontrollable input, the
/// static channel bounds, and the reusable per-net [`SearchContext`].
#[derive(Debug, Clone)]
pub struct ScheduleArtifact {
    /// The specification the system was linked from.
    pub spec: SystemSpec,
    /// The linked system.
    pub system: LinkedSystem,
    /// The run configuration.
    pub config: PipelineConfig,
    /// One schedule per uncontrollable input, with bounds and stats.
    pub schedules: SystemSchedules,
    /// The per-net analyses, reusable for further scheduling requests
    /// against the same net (rebuilt on deserialization). Behind an
    /// [`Arc`] so a service can share one context between its cache and
    /// any number of artifacts without cloning the analyses.
    context: Arc<SearchContext>,
    /// Aggregated work profile of the search that produced `schedules`
    /// (`None` for artifacts assembled from externally computed schedules
    /// or deserialized without one).
    profile: Option<SearchProfile>,
}

impl ScheduleArtifact {
    /// The reusable per-net search context.
    pub fn context(&self) -> &SearchContext {
        &self.context
    }

    /// The aggregated search profile, when the artifact's schedules were
    /// computed (not attached) and the profile survived serialization.
    pub fn search_profile(&self) -> Option<&SearchProfile> {
        self.profile.as_ref()
    }

    /// Attaches (or clears) the search profile — the complement of
    /// [`LinkedArtifact::attach_schedules`] for services that ran the
    /// search themselves and kept its profile.
    pub fn with_search_profile(mut self, profile: SearchProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// The search context as a shareable handle (what a scheduling
    /// service stores in its fingerprint-keyed cache).
    pub fn shared_context(&self) -> Arc<SearchContext> {
        Arc::clone(&self.context)
    }

    /// The environment port name (`process.port`) a schedule serves.
    pub fn source_port(&self, schedule: &qss_core::Schedule) -> String {
        source_port_name(&self.system, schedule)
    }

    /// The schedule at `index` as Graphviz DOT.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn schedule_dot(&self, index: usize) -> String {
        self.schedules.schedules[index].to_dot(&self.system.net)
    }

    /// Compact JSON rendering of the artifact (without the context, which
    /// is derived data).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialization is infallible")
    }

    /// Pretty-printed JSON rendering of the artifact.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serialization is infallible")
    }

    /// Rebuilds an artifact from its JSON rendering, recomputing the
    /// [`SearchContext`] from the embedded net.
    ///
    /// # Errors
    /// Returns [`QssError::Config`] if the text is not a valid artifact.
    pub fn from_json(text: &str) -> Result<Self, QssError> {
        serde_json::from_str(text)
            .map_err(|e| QssError::Config(format!("invalid ScheduleArtifact JSON: {e}")))
    }

    /// Stage 3: decomposes every schedule into code segments and emits
    /// one sequential C task per uncontrollable input.
    ///
    /// # Errors
    /// Returns a generate-stage [`QssError`] if a schedule and the system
    /// are inconsistent.
    pub fn generate(self) -> Result<TaskArtifact, QssError> {
        let tasks = self
            .schedules
            .schedules
            .iter()
            .map(|schedule| {
                generate_task(
                    &self.system,
                    schedule,
                    &self.schedules.channel_bounds,
                    &self.config.task,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TaskArtifact {
            spec: self.spec,
            system: self.system,
            config: self.config,
            schedules: self.schedules,
            tasks,
        })
    }
}

/// The serialized form of a [`ScheduleArtifact`] skips the derived
/// [`SearchContext`]; deserialization recomputes it from the net.
impl Serialize for ScheduleArtifact {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("spec".into(), self.spec.to_value()),
            ("system".into(), self.system.to_value()),
            ("config".into(), self.config.to_value()),
            ("schedules".into(), self.schedules.to_value()),
        ];
        // The profile key is doubly gated: the search must have produced
        // one *and* the config must ask for it on the wire. Artifacts
        // under a default config stay byte-identical to pre-profiling
        // builds.
        if self.config.emit_search_profile {
            if let Some(profile) = &self.profile {
                fields.push(("search_profile".into(), profile.to_value()));
            }
        }
        Value::Object(fields)
    }

    /// The same keys, order and skip rule as [`ScheduleArtifact::to_value`].
    fn write_json(&self, w: &mut serde::JsonWriter) {
        w.begin_object();
        w.field("spec", &self.spec);
        w.field("system", &self.system);
        w.field("config", &self.config);
        w.field("schedules", &self.schedules);
        if self.config.emit_search_profile {
            if let Some(profile) = &self.profile {
                w.field("search_profile", profile);
            }
        }
        w.end_object();
    }
}

impl<'de> Deserialize<'de> for ScheduleArtifact {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let system: LinkedSystem = serde::derive::field(value, "ScheduleArtifact", "system")?;
        let context = Arc::new(SearchContext::new(&system.net));
        let profile = match value.get("search_profile") {
            Some(_) => Some(serde::derive::field(
                value,
                "ScheduleArtifact",
                "search_profile",
            )?),
            None => None,
        };
        Ok(ScheduleArtifact {
            spec: serde::derive::field(value, "ScheduleArtifact", "spec")?,
            config: serde::derive::field(value, "ScheduleArtifact", "config")?,
            schedules: serde::derive::field(value, "ScheduleArtifact", "schedules")?,
            system,
            context,
            profile,
        })
    }
}

/// Stage-3 artifact: the generated sequential tasks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskArtifact {
    /// The specification the system was linked from.
    pub spec: SystemSpec,
    /// The linked system.
    pub system: LinkedSystem,
    /// The run configuration.
    pub config: PipelineConfig,
    /// The schedules the tasks were generated from.
    pub schedules: SystemSchedules,
    /// One generated task per uncontrollable input, in schedule order.
    pub tasks: Vec<GeneratedTask>,
}

impl TaskArtifact {
    /// The environment port name (`process.port`) a schedule serves —
    /// the same naming the report and the CLI's artifact files use.
    pub fn source_port(&self, schedule: &qss_core::Schedule) -> String {
        source_port_name(&self.system, schedule)
    }

    /// The emitted C source of every task, concatenated.
    pub fn c_code(&self) -> String {
        let mut out = String::new();
        for task in &self.tasks {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&task.code);
        }
        out
    }

    /// Compact JSON rendering of the artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialization is infallible")
    }

    /// Pretty-printed JSON rendering of the artifact.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serialization is infallible")
    }

    /// Rebuilds an artifact from its JSON rendering.
    ///
    /// # Errors
    /// Returns [`QssError::Config`] if the text is not a valid artifact.
    pub fn from_json(text: &str) -> Result<Self, QssError> {
        serde_json::from_str(text)
            .map_err(|e| QssError::Config(format!("invalid TaskArtifact JSON: {e}")))
    }

    /// Stage 4: executes the workload on both implementations — the
    /// generated single task(s) driven by the schedules, and the
    /// one-task-per-process RTOS baseline — and compares them.
    ///
    /// Borrows `self` so one task artifact can serve many workloads.
    ///
    /// # Errors
    /// Returns a simulate-stage [`QssError`] on deadlock, unknown event
    /// ports or step-budget exhaustion.
    pub fn simulate(&self, events: &[EnvEvent]) -> Result<SimArtifact, QssError> {
        let single = run_singletask(
            &self.system,
            &self.schedules.schedules,
            events,
            &self.config.single_task_config(),
        )?;
        let multi = run_multitask(&self.system, events, &self.config.multi_task_config())?;
        let outputs_match = single.outputs == multi.outputs;
        let speedup = if single.cycles > 0 {
            multi.cycles as f64 / single.cycles as f64
        } else {
            0.0
        };
        Ok(SimArtifact {
            config: self.config.clone(),
            events: events.to_vec(),
            single,
            multi,
            speedup,
            outputs_match,
        })
    }

    /// The machine-readable run summary (the CLI's `--report`).
    pub fn report(&self, simulation: Option<&SimArtifact>) -> PipelineReport {
        let code_model = self.config.profile.code_model();
        let schedules = self
            .schedules
            .schedules
            .iter()
            .zip(&self.schedules.stats)
            .map(|(schedule, stats)| ScheduleSummary {
                source: source_port_name(&self.system, schedule),
                nodes: schedule.num_nodes(),
                edges: schedule.num_edges(),
                await_nodes: schedule.await_nodes(&self.system.net).len(),
                nodes_explored: stats.nodes_created,
            })
            .collect();
        let channel_bounds = self
            .system
            .channels
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    self.schedules
                        .channel_bounds
                        .get(&c.place)
                        .copied()
                        .unwrap_or(0),
                )
            })
            .collect();
        let tasks = self
            .tasks
            .iter()
            .map(|task| TaskSummary {
                name: task.name.clone(),
                segments: task.stats.num_segments,
                threads: task.stats.num_threads,
                state_variables: task.stats.num_state_variables,
                code_bytes: qss_codegen::estimate_code_size(&task.stats, &code_model),
            })
            .collect();
        PipelineReport {
            system: self.spec.name().to_string(),
            profile: self.config.profile.name().to_string(),
            processes: self.system.process_names.clone(),
            places: self.system.net.num_places(),
            transitions: self.system.net.num_transitions(),
            schedules,
            channel_bounds,
            tasks,
            simulation: simulation.map(SimArtifact::summary),
        }
    }
}

/// Stage-4 artifact: both execution reports and their comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimArtifact {
    /// The run configuration.
    pub config: PipelineConfig,
    /// The workload that was executed.
    pub events: Vec<EnvEvent>,
    /// Report of the generated single task(s).
    pub single: SimReport,
    /// Report of the one-task-per-process RTOS baseline.
    pub multi: SimReport,
    /// `multi.cycles / single.cycles` (the paper's headline ratio).
    pub speedup: f64,
    /// Whether both implementations wrote identical output sequences
    /// (the role VCC simulation played in the paper).
    pub outputs_match: bool,
}

impl SimArtifact {
    /// Compact JSON rendering of the artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialization is infallible")
    }

    /// Pretty-printed JSON rendering of the artifact.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serialization is infallible")
    }

    /// Rebuilds an artifact from its JSON rendering.
    ///
    /// # Errors
    /// Returns [`QssError::Config`] if the text is not a valid artifact.
    pub fn from_json(text: &str) -> Result<Self, QssError> {
        serde_json::from_str(text)
            .map_err(|e| QssError::Config(format!("invalid SimArtifact JSON: {e}")))
    }

    /// The condensed comparison used inside [`PipelineReport`].
    pub fn summary(&self) -> SimSummary {
        SimSummary {
            events: self.events.len(),
            single_cycles: self.single.cycles,
            multi_cycles: self.multi.cycles,
            speedup: (self.speedup * 1000.0).round() / 1000.0,
            context_switches: self.multi.context_switches,
            outputs_match: self.outputs_match,
        }
    }
}

/// Per-schedule entry of a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleSummary {
    /// The environment port (`process.port`) the schedule serves.
    pub source: String,
    /// Nodes in the schedule graph.
    pub nodes: usize,
    /// Edges in the schedule graph.
    pub edges: usize,
    /// Await nodes (environment synchronization points).
    pub await_nodes: usize,
    /// Search-tree nodes explored to find the schedule.
    pub nodes_explored: usize,
}

/// Per-task entry of a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSummary {
    /// Task name (derived from the environment port it serves).
    pub name: String,
    /// Code segments (labels) in the task.
    pub segments: usize,
    /// Threads (reactions between await nodes).
    pub threads: usize,
    /// State variables of the task.
    pub state_variables: usize,
    /// Estimated object-code size under the configured profile.
    pub code_bytes: u64,
}

/// Condensed execution comparison inside a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Number of environment events executed.
    pub events: usize,
    /// Cycles of the generated single task(s).
    pub single_cycles: u64,
    /// Cycles of the multi-task baseline.
    pub multi_cycles: u64,
    /// `multi / single`, rounded to three decimals.
    pub speedup: f64,
    /// Context switches of the baseline (the single task needs none).
    pub context_switches: u64,
    /// Whether both implementations produced identical outputs.
    pub outputs_match: bool,
}

/// Machine-readable summary of a pipeline run: what `qssc --report`
/// emits, deterministic and diffable against golden files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// System name.
    pub system: String,
    /// Cost profile name (`pfc`, `pfc-O`, `pfc-O2`).
    pub profile: String,
    /// Process names, in specification order.
    pub processes: Vec<String>,
    /// Places of the linked net.
    pub places: usize,
    /// Transitions of the linked net.
    pub transitions: usize,
    /// One summary per schedule, in environment-input order.
    pub schedules: Vec<ScheduleSummary>,
    /// Static buffer bound of every channel, in specification order.
    pub channel_bounds: Vec<(String, u32)>,
    /// One summary per generated task.
    pub tasks: Vec<TaskSummary>,
    /// The execution comparison, when a workload was simulated.
    pub simulation: Option<SimSummary>,
}

impl PipelineReport {
    /// Pretty-printed JSON rendering (with a trailing newline, so the
    /// file diffs cleanly).
    pub fn to_json_pretty(&self) -> String {
        let mut text =
            serde_json::to_string_pretty(self).expect("report serialization is infallible");
        text.push('\n');
        text
    }

    /// Parses a report back from JSON text.
    ///
    /// # Errors
    /// Returns [`QssError::Config`] if the text is not a valid report.
    pub fn from_json(text: &str) -> Result<Self, QssError> {
        serde_json::from_str(text)
            .map_err(|e| QssError::Config(format!("invalid PipelineReport JSON: {e}")))
    }
}
