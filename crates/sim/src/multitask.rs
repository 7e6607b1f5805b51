//! The multi-task baseline: one RTOS task per FlowC process.
//!
//! This is the implementation the paper compares against: every process of
//! the specification becomes a separate task, channels are bounded FIFO
//! buffers managed by the RTOS, and a round-robin scheduler runs each task
//! until it blocks on a read (not enough data) or a write (not enough
//! space). Context switches and RTOS communication primitives are charged
//! according to the cost model, which is what makes this implementation
//! 4–10× slower than the generated single task (Figure 20 / Table 1).

use crate::channels::ChannelState;
use crate::cost::CycleCostModel;
use crate::env::{ChannelIo, ExecCounters, ProcessEnv};
use crate::error::{Result, SimError};
use crate::report::{EnvEvent, SimReport};
use qss_flowc::LinkedSystem;
use qss_petri::{Marking, PlaceId, TransitionId, TransitionKind};
use std::collections::BTreeMap;

/// Configuration of the multi-task executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiTaskConfig {
    /// Capacity of every inter-process channel buffer (the x axis of
    /// Figure 20).
    pub buffer_size: u32,
    /// Cycle cost model (compiler-optimisation profile).
    pub cost: CycleCostModel,
    /// Model the communication primitives as inlined code (the paper's
    /// faster variant) instead of RTOS function calls.
    pub inline_communication: bool,
    /// Safety bound on the number of fired transitions.
    pub max_steps: u64,
}

impl MultiTaskConfig {
    /// A configuration with the given buffer size and cost profile.
    pub fn new(buffer_size: u32, cost: CycleCostModel) -> Self {
        MultiTaskConfig {
            buffer_size,
            cost,
            inline_communication: true,
            max_steps: 200_000_000,
        }
    }
}

/// Runs the system as one task per process under a round-robin RTOS.
///
/// # Errors
/// Returns [`SimError`] on deadlock, unknown event ports, or when the
/// step budget is exhausted. A channel whose buffer is smaller than one
/// of its transfers (a read or write rate above the capacity) could
/// never complete that transfer, so it is a [`SimError::Deadlock`]
/// before the run starts.
pub fn run_multitask(
    system: &LinkedSystem,
    events: &[EnvEvent],
    config: &MultiTaskConfig,
) -> Result<SimReport> {
    let mut sim = MultiSim::new(system, config);
    check_capacities(system, &sim.channels)?;
    sim.run(events)?;
    Ok(sim.report)
}

/// Fails if some bounded channel is touched by an arc heavier than its
/// capacity: such a write never fits and such a read never finds enough
/// data.
fn check_capacities(system: &LinkedSystem, channels: &ChannelState) -> Result<()> {
    let net = &system.net;
    let mut rates = vec![0u32; net.num_places()];
    for t in net.transition_ids() {
        for &(p, w) in net.preset(t).iter().chain(net.postset(t)) {
            rates[p.index()] = rates[p.index()].max(w);
        }
    }
    for channel in &system.channels {
        let rate = rates[channel.place.index()];
        match channels.capacity(channel.place) {
            Some(capacity) if rate as usize > capacity => {
                return Err(SimError::Deadlock(format!(
                    "channel `{}` moves {rate} items per transfer but its buffer holds {capacity}",
                    channel.name
                )))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Data movement context handed to the statement interpreter.
struct IoCtx<'a> {
    system: &'a LinkedSystem,
    channels: &'a mut ChannelState,
    report: &'a mut SimReport,
}

impl<'a> ChannelIo for IoCtx<'a> {
    fn read_port(&mut self, process: &str, port: &str, n: u32) -> Result<Vec<i64>> {
        let place = self
            .system
            .port_place(process, port)
            .ok_or_else(|| SimError::UnknownPort(format!("{process}.{port}")))?;
        self.channels.pop(place, n as usize).ok_or_else(|| {
            SimError::Deadlock(format!(
                "read of {n} items from `{process}.{port}` with insufficient data"
            ))
        })
    }

    fn write_port(&mut self, process: &str, port: &str, values: &[i64]) -> Result<()> {
        let place = self
            .system
            .port_place(process, port)
            .ok_or_else(|| SimError::UnknownPort(format!("{process}.{port}")))?;
        if self.system.env_output(process, port).is_some() {
            for v in values {
                self.report.record_output(process, port, *v);
            }
        } else {
            self.channels.push(place, values);
        }
        Ok(())
    }
}

struct MultiSim<'a> {
    system: &'a LinkedSystem,
    config: &'a MultiTaskConfig,
    marking: Marking,
    envs: BTreeMap<String, ProcessEnv>,
    channels: ChannelState,
    report: SimReport,
    steps: u64,
}

impl<'a> MultiSim<'a> {
    fn new(system: &'a LinkedSystem, config: &'a MultiTaskConfig) -> Self {
        let envs = system
            .process_names
            .iter()
            .map(|name| {
                let decls = system.declarations.get(name).cloned().unwrap_or_default();
                (name.clone(), ProcessEnv::new(name.clone(), &decls))
            })
            .collect();
        MultiSim {
            system,
            config,
            marking: system.net.initial_marking(),
            envs,
            channels: ChannelState::for_system(system, Some(config.buffer_size)),
            report: SimReport::default(),
            steps: 0,
        }
    }

    fn run(&mut self, events: &[EnvEvent]) -> Result<()> {
        // Run the per-process initialisation code once, as the start-up
        // phase outside the cyclic schedules.
        self.run_init_code()?;
        let order = self.system.process_names.clone();
        let mut current = 0usize;
        let mut next_event = 0usize;
        loop {
            self.steps += 1;
            if self.steps > self.config.max_steps {
                return Err(SimError::StepBudgetExhausted(self.config.max_steps));
            }
            if let Some(t) = self.pick_runnable(&order[current]) {
                self.fire(t)?;
                self.drain_sinks();
                continue;
            }
            // The current task is blocked: look for another runnable task.
            let mut switched = false;
            for offset in 1..order.len() {
                let candidate = (current + offset) % order.len();
                if self.pick_runnable(&order[candidate]).is_some() {
                    self.report.context_switches += 1;
                    self.report.dispatches += 1;
                    self.report.cycles += self.config.cost.cycles_per_context_switch
                        + self.config.cost.cycles_per_dispatch;
                    current = candidate;
                    switched = true;
                    break;
                }
            }
            if switched {
                continue;
            }
            // Nothing can run anywhere: deliver the next environment event.
            if next_event < events.len() {
                self.inject(&events[next_event])?;
                next_event += 1;
                continue;
            }
            break;
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
            let mut env = self
                .envs
                .remove(process)
                .expect("every process has an environment");
            let mut io = IoCtx {
                system: self.system,
                channels: &mut self.channels,
                report: &mut self.report,
            };
            let result = env.exec_stmts(&init, &mut io, &mut counters);
            self.envs.insert(process.clone(), env);
            result?;
            self.charge(&counters, false);
        }
        Ok(())
    }

    /// The next transition of `process` that can fire, if any: it must be
    /// enabled in the net, its guard must hold, and its writes must fit
    /// into the channel buffers. SELECT arms are prioritised as declared.
    fn pick_runnable(&self, process: &str) -> Option<TransitionId> {
        let mut candidates: Vec<(u32, TransitionId)> = Vec::new();
        for (&t, code) in &self.system.transition_code {
            if code.process != process {
                continue;
            }
            if !self.system.net.is_enabled(t, &self.marking) {
                continue;
            }
            if let Some((expr, branch)) = &code.guard {
                let env = &self.envs[process];
                match env.eval_guard(expr) {
                    Ok(value) if value == *branch => {}
                    _ => continue,
                }
            }
            if !self.writes_fit(t) {
                continue;
            }
            let priority = code.select.as_ref().map(|(_, _, p)| *p).unwrap_or(0);
            candidates.push((priority, t));
        }
        candidates.sort();
        candidates.first().map(|(_, t)| *t)
    }

    /// Checks the blocking-write rule: the net data increase on every
    /// bounded channel place must fit in the remaining buffer space.
    fn writes_fit(&self, t: TransitionId) -> bool {
        let net = &self.system.net;
        let mut delta: BTreeMap<PlaceId, i64> = BTreeMap::new();
        for (p, w) in net.postset(t) {
            *delta.entry(*p).or_insert(0) += *w as i64;
        }
        for (p, w) in net.preset(t) {
            *delta.entry(*p).or_insert(0) -= *w as i64;
        }
        delta.iter().all(|(p, d)| {
            if *d <= 0 || self.system.channel_by_place(*p).is_none() {
                true
            } else {
                self.channels.can_accept(*p, *d as usize)
            }
        })
    }

    fn fire(&mut self, t: TransitionId) -> Result<()> {
        self.marking = self
            .system
            .net
            .fire(t, &self.marking)
            .map_err(|e| SimError::Schedule(e.to_string()))?;
        self.report.transitions_fired += 1;
        let Some(code) = self.system.transition_code.get(&t).cloned() else {
            return Ok(());
        };
        let mut counters = ExecCounters::default();
        if code.guard.is_some() {
            counters.conditions += 1;
        }
        let mut env = self
            .envs
            .remove(&code.process)
            .expect("every process has an environment");
        let mut io = IoCtx {
            system: self.system,
            channels: &mut self.channels,
            report: &mut self.report,
        };
        let result = env.exec_stmts(&code.stmts, &mut io, &mut counters);
        self.envs.insert(code.process.clone(), env);
        result?;
        self.charge(&counters, true);
        Ok(())
    }

    /// Charges the cost of one executed fragment.
    fn charge(&mut self, counters: &ExecCounters, rtos_comm: bool) {
        let cost = &self.config.cost;
        let mut cycles = counters.statements * cost.cycles_per_statement
            + counters.conditions * cost.cycles_per_condition;
        if rtos_comm {
            let mut comm = counters.port_ops * cost.cycles_per_rtos_call
                + counters.port_items * cost.cycles_per_rtos_item;
            if self.config.inline_communication {
                // Inlining the primitives removes the call overhead
                // (roughly the 30% improvement reported in Sec. 8.2).
                comm = comm * 7 / 10;
            }
            cycles += comm;
        } else {
            cycles += counters.port_items * cost.cycles_per_inline_item;
        }
        self.report.cycles += cycles;
        self.report.channel_ops += counters.port_ops;
    }

    /// Fires every enabled environment sink transition (the environment is
    /// always ready to accept outputs) and discards the drained tokens.
    fn drain_sinks(&mut self) {
        loop {
            let mut fired = false;
            for output in &self.system.env_outputs {
                let t = output.sink;
                if self.system.net.transition(t).kind == TransitionKind::Sink
                    && self.system.net.is_enabled(t, &self.marking)
                {
                    self.marking = self.system.net.fire_unchecked(t, &self.marking);
                    self.channels.drain(output.place);
                    fired = true;
                }
            }
            if !fired {
                break;
            }
        }
    }

    fn inject(&mut self, event: &EnvEvent) -> Result<()> {
        let input = self
            .system
            .env_input(&event.process, &event.port)
            .ok_or_else(|| SimError::UnknownPort(format!("{}.{}", event.process, event.port)))?
            .clone();
        if !self.system.net.is_enabled(input.source, &self.marking) {
            return Err(SimError::Deadlock(format!(
                "environment source for `{}.{}` is not enabled",
                event.process, event.port
            )));
        }
        self.marking = self.system.net.fire_unchecked(input.source, &self.marking);
        let mut values = event.values.clone();
        values.resize(input.rate as usize, 0);
        self.channels.push(input.place, &values);
        self.report.cycles += self.config.cost.cycles_per_event;
        self.report.events_processed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfc::{pfc_events, pfc_expected_outputs, pfc_system, PfcParams};
    use qss_flowc::{parse_process, SystemSpec};

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
    fn pipeline_functional_output() {
        let system = pipeline_system();
        let events: Vec<EnvEvent> = (1..=4)
            .map(|i| EnvEvent::new("producer", "trigger", i))
            .collect();
        let config = MultiTaskConfig::new(4, CycleCostModel::unoptimized());
        let report = run_multitask(&system, &events, &config).unwrap();
        // Running sums of 2, 4, 6, 8.
        assert_eq!(report.output("consumer", "sum"), &[2, 6, 12, 20]);
        assert_eq!(report.events_processed, 4);
        assert!(report.cycles > 0);
        assert!(report.context_switches >= 4);
    }

    #[test]
    fn pfc_multitask_matches_reference_outputs() {
        let params = PfcParams::tiny();
        let system = pfc_system(&params).unwrap();
        let events = pfc_events(4);
        let config = MultiTaskConfig::new(8, CycleCostModel::unoptimized());
        let report = run_multitask(&system, &events, &config).unwrap();
        assert_eq!(
            report.output("consumer", "out"),
            pfc_expected_outputs(&params, 4).as_slice()
        );
        assert!(report.context_switches > 0);
    }

    #[test]
    fn smaller_buffers_cause_more_context_switches() {
        let params = PfcParams::tiny();
        let system = pfc_system(&params).unwrap();
        let events = pfc_events(3);
        let small = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(1, CycleCostModel::unoptimized()),
        )
        .unwrap();
        let large = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(16, CycleCostModel::unoptimized()),
        )
        .unwrap();
        assert_eq!(
            small.output("consumer", "out"),
            large.output("consumer", "out")
        );
        assert!(small.context_switches > large.context_switches);
        assert!(small.cycles > large.cycles);
    }

    #[test]
    fn optimization_profiles_reduce_cycles() {
        let params = PfcParams::tiny();
        let system = pfc_system(&params).unwrap();
        let events = pfc_events(2);
        let o0 = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(8, CycleCostModel::unoptimized()),
        )
        .unwrap();
        let o2 = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(8, CycleCostModel::optimized2()),
        )
        .unwrap();
        assert!(o0.cycles > o2.cycles);
        assert_eq!(o0.output("consumer", "out"), o2.output("consumer", "out"));
    }

    #[test]
    fn unknown_event_port_is_rejected() {
        let system = pipeline_system();
        let events = vec![EnvEvent::new("producer", "missing", 1)];
        let config = MultiTaskConfig::new(4, CycleCostModel::unoptimized());
        assert!(matches!(
            run_multitask(&system, &events, &config),
            Err(SimError::UnknownPort(_))
        ));
    }
}
