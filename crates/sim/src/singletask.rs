//! The single-task executor: running the system through its quasi-static
//! schedules.
//!
//! Each reaction to an environment event traverses the corresponding
//! schedule from its current await node to the next await node, executing
//! the code attached to the traversed transitions. Data-dependent choices
//! are resolved by evaluating the guards against the live process
//! variables — the only run-time decisions left by the scheduler. There
//! are no context switches and intra-task channels are plain buffer
//! copies, which is where the 4–10× advantage over the multi-task baseline
//! comes from.

use crate::channels::ChannelState;
use crate::cost::CycleCostModel;
use crate::env::{ChannelIo, ExecCounters, ProcessEnv};
use crate::error::{Result, SimError};
use crate::report::{EnvEvent, SimReport};
use qss_core::{NodeId, Schedule};
use qss_flowc::LinkedSystem;
use qss_petri::TransitionId;
use std::collections::BTreeMap;

/// Configuration of the single-task executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleTaskConfig {
    /// Cycle cost model (compiler-optimisation profile).
    pub cost: CycleCostModel,
    /// Safety bound on the number of traversed schedule edges.
    pub max_steps: u64,
}

impl SingleTaskConfig {
    /// A configuration with the given cost profile.
    pub fn new(cost: CycleCostModel) -> Self {
        SingleTaskConfig {
            cost,
            max_steps: 200_000_000,
        }
    }
}

/// Runs the system as generated tasks driven by `schedules`.
///
/// # Errors
/// Returns [`SimError`] if an event has no schedule, a data-dependent
/// choice cannot be resolved, or the step budget is exhausted.
pub fn run_singletask(
    system: &LinkedSystem,
    schedules: &[Schedule],
    events: &[EnvEvent],
    config: &SingleTaskConfig,
) -> Result<SimReport> {
    let mut sim = SingleSim::new(system, schedules, config);
    sim.run(events)?;
    Ok(sim.report)
}

struct IoCtx<'a> {
    system: &'a LinkedSystem,
    channels: &'a mut ChannelState,
    report: &'a mut SimReport,
    /// Items moved through environment ports (charged at RTOS cost, since
    /// they still cross the task boundary).
    env_items: u64,
    env_ops: u64,
}

impl<'a> ChannelIo for IoCtx<'a> {
    fn read_port(&mut self, process: &str, port: &str, n: u32) -> Result<Vec<i64>> {
        let place = self
            .system
            .port_place(process, port)
            .ok_or_else(|| SimError::UnknownPort(format!("{process}.{port}")))?;
        if self.system.env_input(process, port).is_some() {
            self.env_ops += 1;
            self.env_items += n as u64;
        }
        self.channels.pop(place, n as usize).ok_or_else(|| {
            SimError::Schedule(format!(
                "schedule read {n} items from `{process}.{port}` but the buffer is empty"
            ))
        })
    }

    fn write_port(&mut self, process: &str, port: &str, values: &[i64]) -> Result<()> {
        let place = self
            .system
            .port_place(process, port)
            .ok_or_else(|| SimError::UnknownPort(format!("{process}.{port}")))?;
        if self.system.env_output(process, port).is_some() {
            self.env_ops += 1;
            self.env_items += values.len() as u64;
            for v in values {
                self.report.record_output(process, port, *v);
            }
        } else {
            self.channels.push(place, values);
        }
        Ok(())
    }
}

struct SingleSim<'a> {
    system: &'a LinkedSystem,
    schedules: &'a [Schedule],
    config: &'a SingleTaskConfig,
    envs: BTreeMap<String, ProcessEnv>,
    channels: ChannelState,
    positions: Vec<NodeId>,
    report: SimReport,
    steps: u64,
}

impl<'a> SingleSim<'a> {
    fn new(
        system: &'a LinkedSystem,
        schedules: &'a [Schedule],
        config: &'a SingleTaskConfig,
    ) -> Self {
        let envs = system
            .process_names
            .iter()
            .map(|name| {
                let decls = system.declarations.get(name).cloned().unwrap_or_default();
                (name.clone(), ProcessEnv::new(name.clone(), &decls))
            })
            .collect();
        SingleSim {
            system,
            schedules,
            config,
            envs,
            channels: ChannelState::for_system(system, None),
            positions: schedules.iter().map(|s| s.root()).collect(),
            report: SimReport::default(),
            steps: 0,
        }
    }

    fn run(&mut self, events: &[EnvEvent]) -> Result<()> {
        self.run_init_code()?;
        for event in events {
            self.react(event)?;
        }
        Ok(())
    }

    fn run_init_code(&mut self) -> Result<()> {
        for process in &self.system.process_names.clone() {
            let Some(init) = self.system.init_code.get(process).cloned() else {
                continue;
            };
            if init.is_empty() {
                continue;
            }
            let mut counters = ExecCounters::default();
            self.exec_in_process(process, &init, &mut counters)?;
            self.charge(&counters, 0, 0);
        }
        Ok(())
    }

    fn exec_in_process(
        &mut self,
        process: &str,
        stmts: &[qss_flowc::Stmt],
        counters: &mut ExecCounters,
    ) -> Result<(u64, u64)> {
        let mut env = self
            .envs
            .remove(process)
            .ok_or_else(|| SimError::Schedule(format!("unknown process `{process}`")))?;
        let mut io = IoCtx {
            system: self.system,
            channels: &mut self.channels,
            report: &mut self.report,
            env_items: 0,
            env_ops: 0,
        };
        let result = env.exec_stmts(stmts, &mut io, counters);
        let env_stats = (io.env_ops, io.env_items);
        self.envs.insert(process.to_string(), env);
        result?;
        Ok(env_stats)
    }

    fn charge(&mut self, counters: &ExecCounters, env_ops: u64, env_items: u64) {
        let cost = &self.config.cost;
        let intra_items = counters.port_items.saturating_sub(env_items);
        let cycles = counters.statements * cost.cycles_per_statement
            + counters.conditions * cost.cycles_per_condition
            + intra_items * cost.cycles_per_inline_item
            + env_ops * cost.cycles_per_rtos_call
            + env_items * cost.cycles_per_rtos_item;
        self.report.cycles += cycles;
        self.report.channel_ops += counters.port_ops;
    }

    /// Reacts to one environment event by traversing the schedule of the
    /// corresponding uncontrollable source.
    fn react(&mut self, event: &EnvEvent) -> Result<()> {
        let input = self
            .system
            .env_input(&event.process, &event.port)
            .ok_or_else(|| SimError::UnknownPort(format!("{}.{}", event.process, event.port)))?
            .clone();
        let index = self
            .schedules
            .iter()
            .position(|s| s.source() == input.source)
            .ok_or_else(|| {
                SimError::Schedule(format!(
                    "no schedule serves the uncontrollable input `{}.{}`",
                    event.process, event.port
                ))
            })?;
        // Latch the input values and charge the ISR entry.
        let mut values = event.values.clone();
        values.resize(input.rate as usize, 0);
        self.channels.push(input.place, &values);
        self.report.cycles += self.config.cost.cycles_per_event;
        self.report.events_processed += 1;

        let schedule = &self.schedules[index];
        let mut node = self.positions[index];
        // First edge: the source transition itself (no code attached).
        let (first, target) = schedule
            .edges(node)
            .iter()
            .find(|(t, _)| *t == schedule.source())
            .copied()
            .ok_or_else(|| {
                SimError::Schedule("schedule is not resting at one of its await nodes".into())
            })?;
        debug_assert_eq!(first, schedule.source());
        node = target;
        self.report.transitions_fired += 1;

        // Traverse until the next await node.
        while !schedule.is_await_node(&self.system.net, node) {
            self.steps += 1;
            if self.steps > self.config.max_steps {
                return Err(SimError::StepBudgetExhausted(self.config.max_steps));
            }
            let edges = schedule.edges(node);
            let (transition, next) = if edges.len() == 1 {
                edges[0]
            } else {
                self.resolve_choice(edges)?
            };
            self.execute_transition(transition)?;
            node = next;
        }
        self.positions[index] = node;
        Ok(())
    }

    /// Resolves a data-dependent choice by evaluating the guards of the
    /// candidate transitions against the live process variables.
    fn resolve_choice(&self, edges: &[(TransitionId, NodeId)]) -> Result<(TransitionId, NodeId)> {
        for (t, target) in edges {
            let Some(code) = self.system.transition_code.get(t) else {
                continue;
            };
            let Some((expr, branch)) = &code.guard else {
                continue;
            };
            let env = self
                .envs
                .get(&code.process)
                .ok_or_else(|| SimError::Schedule(format!("unknown process `{}`", code.process)))?;
            if env.eval_guard(expr)? == *branch {
                return Ok((*t, *target));
            }
        }
        Err(SimError::Schedule(
            "no guard of a data-dependent choice evaluated to true".into(),
        ))
    }

    fn execute_transition(&mut self, t: TransitionId) -> Result<()> {
        self.report.transitions_fired += 1;
        let Some(code) = self.system.transition_code.get(&t).cloned() else {
            // Environment source/sink transitions carry no code.
            return Ok(());
        };
        let mut counters = ExecCounters::default();
        if code.guard.is_some() {
            counters.conditions += 1;
        }
        let (env_ops, env_items) =
            self.exec_in_process(&code.process, &code.stmts, &mut counters)?;
        self.charge(&counters, env_ops, env_items);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multitask::{run_multitask, MultiTaskConfig};
    use crate::pfc::{pfc_events, pfc_expected_outputs, pfc_system, PfcParams};
    use qss_core::{
        schedule_system, ScheduleOptions, SearchBudget, SearchContext, SystemSchedules,
    };
    use qss_flowc::{parse_process, SystemSpec};

    /// The schedules of `system` under the default options.
    fn schedule_default(system: &LinkedSystem) -> SystemSchedules {
        let context = SearchContext::new(&system.net);
        let budget = SearchBudget::unlimited();
        schedule_system(system, &context, &ScheduleOptions::default(), &budget)
            .unwrap()
            .0
    }

    fn pipeline_system() -> LinkedSystem {
        let producer = parse_process(
            "PROCESS producer (In DPORT trigger, Out DPORT data) {
                 int t;
                 while (1) {
                     READ_DATA(trigger, t, 1);
                     WRITE_DATA(data, t * 2, 1);
                 }
             }",
        )
        .unwrap();
        let consumer = parse_process(
            "PROCESS consumer (In DPORT data, Out DPORT sum) {
                 int x, s;
                 while (1) {
                     READ_DATA(data, x, 1);
                     s = s + x;
                     WRITE_DATA(sum, s, 1);
                 }
             }",
        )
        .unwrap();
        let spec = SystemSpec::new("pipeline")
            .with_process(producer)
            .with_process(consumer)
            .with_channel("producer.data", "consumer.data", None)
            .unwrap();
        qss_flowc::link(&spec).unwrap()
    }

    #[test]
    fn pipeline_single_task_matches_multitask() {
        let system = pipeline_system();
        let schedules = schedule_default(&system);
        let events: Vec<EnvEvent> = (1..=5)
            .map(|i| EnvEvent::new("producer", "trigger", i))
            .collect();
        let single = run_singletask(
            &system,
            &schedules.schedules,
            &events,
            &SingleTaskConfig::new(CycleCostModel::unoptimized()),
        )
        .unwrap();
        let multi = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(4, CycleCostModel::unoptimized()),
        )
        .unwrap();
        assert_eq!(single.outputs, multi.outputs);
        assert_eq!(single.context_switches, 0);
        assert!(single.cycles < multi.cycles);
    }

    #[test]
    fn pfc_single_task_is_functionally_correct_and_faster() {
        let params = PfcParams::tiny();
        let system = pfc_system(&params).unwrap();
        let schedules = schedule_default(&system);
        let events = pfc_events(4);
        let single = run_singletask(
            &system,
            &schedules.schedules,
            &events,
            &SingleTaskConfig::new(CycleCostModel::unoptimized()),
        )
        .unwrap();
        assert_eq!(
            single.output("consumer", "out"),
            pfc_expected_outputs(&params, 4).as_slice()
        );
        let multi = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(8, CycleCostModel::unoptimized()),
        )
        .unwrap();
        assert_eq!(single.outputs, multi.outputs);
        // The headline claim: the generated task is several times faster.
        assert!(multi.cycles > 2 * single.cycles);
    }

    #[test]
    fn event_without_schedule_is_rejected() {
        let system = pipeline_system();
        let events = vec![EnvEvent::new("producer", "trigger", 1)];
        let err = run_singletask(
            &system,
            &[],
            &events,
            &SingleTaskConfig::new(CycleCostModel::unoptimized()),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Schedule(_)));
    }
}
