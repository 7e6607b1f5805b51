//! Task synthesis: emitting one C function per schedule (Sec. 6.3–6.4).
//!
//! The generated task mirrors Figure 16 of the paper: a declarations
//! section (state variables and intra-task channel buffers), an `init`
//! function, and an ISR-style `run` function with one label per code
//! segment, data-dependent `if`/`else` blocks, state updates and
//! `goto`/`switch`/`return` jump sections.

use crate::error::{CodegenError, Result};
use crate::segment::{Branch, CodeSegment, Continuation, SegmentGraph};
use qss_core::Schedule;
use qss_flowc::{Expr, LValue, LinkedSystem, PortOp, Stmt, TransitionCode};
use qss_petri::{Marking, PlaceId, TransitionId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Options controlling task synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskOptions {
    /// Implement intra-task channels as local buffers/variables instead of
    /// run-time communication primitives.
    pub inline_communication: bool,
}

impl Default for TaskOptions {
    fn default() -> Self {
        TaskOptions {
            inline_communication: true,
        }
    }
}

/// Aggregate statistics about a generated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TaskStats {
    /// Number of code segments (labels) in the task.
    pub num_segments: usize,
    /// Number of ECS nodes over all segments.
    pub num_segment_nodes: usize,
    /// Number of threads.
    pub num_threads: usize,
    /// Number of state variables.
    pub num_state_variables: usize,
    /// Number of C statements emitted (assignments, calls, jumps).
    pub num_statements: usize,
    /// Number of `goto` statements emitted.
    pub num_gotos: usize,
    /// Number of conditional constructs emitted (`if`/`switch` heads).
    pub num_conditionals: usize,
    /// Number of `return` statements emitted.
    pub num_returns: usize,
}

/// A task generated from one schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratedTask {
    /// Name of the task (derived from the environment port it serves).
    pub name: String,
    /// The uncontrollable source transition the task reacts to.
    pub source: TransitionId,
    /// The code-segment decomposition the task was emitted from.
    pub segments: SegmentGraph,
    /// Channels that became internal to the task, with their buffer sizes.
    pub intra_channels: Vec<(String, u32)>,
    /// The emitted C source text.
    pub code: String,
    /// Statistics about the emitted code.
    pub stats: TaskStats,
}

/// Generates the task for `schedule` against the linked system it was
/// computed from. `bounds` provides the static place bounds computed by the
/// scheduler (used to size intra-task channel buffers).
///
/// # Errors
/// Returns [`CodegenError`] if the schedule and the system are
/// inconsistent or a run-time dispatch cannot be resolved.
pub fn generate_task(
    system: &LinkedSystem,
    schedule: &Schedule,
    bounds: &BTreeMap<PlaceId, u32>,
    options: &TaskOptions,
) -> Result<GeneratedTask> {
    let graph = SegmentGraph::build(schedule, &system.net)?;
    let name = system
        .env_inputs
        .iter()
        .find(|e| e.source == schedule.source())
        .map(|e| format!("task_{}_{}", e.process, e.port))
        .unwrap_or_else(|| format!("task_{}", system.net.transition(schedule.source()).name));
    let intra_channels: Vec<(String, u32)> = system
        .channels
        .iter()
        .map(|c| {
            let size = bounds.get(&c.place).copied().unwrap_or(1).max(1);
            (c.name.clone(), size)
        })
        .collect();

    let mut emitter = Emitter {
        system,
        graph: &graph,
        options,
        stats: TaskStats {
            num_segments: graph.segments.len(),
            num_segment_nodes: graph.num_nodes(),
            num_threads: graph.threads.len(),
            num_state_variables: graph.state_places.len(),
            ..Default::default()
        },
        out: String::new(),
        intra_channels: &intra_channels,
    };
    emitter.emit(&name, schedule)?;
    let stats = emitter.stats;
    let code = emitter.out;
    Ok(GeneratedTask {
        name,
        source: schedule.source(),
        segments: graph,
        intra_channels,
        code,
        stats,
    })
}

struct Emitter<'a> {
    system: &'a LinkedSystem,
    graph: &'a SegmentGraph,
    options: &'a TaskOptions,
    stats: TaskStats,
    out: String,
    intra_channels: &'a [(String, u32)],
}

impl<'a> Emitter<'a> {
    fn emit(&mut self, name: &str, schedule: &Schedule) -> Result<()> {
        self.emit_declarations(name, schedule);
        self.emit_init(schedule);
        self.emit_run(name)?;
        Ok(())
    }

    fn state_var(&self, p: PlaceId) -> String {
        format!("state_{}", sanitize(&self.system.net.place(p).name))
    }

    fn channel_var(&self, channel: &str) -> String {
        format!("ch_{}", sanitize(channel))
    }

    fn channel_size(&self, channel: &str) -> u32 {
        self.intra_channels
            .iter()
            .find(|(n, _)| n == channel)
            .map(|(_, s)| *s)
            .unwrap_or(1)
    }

    /// The channel (if any) connected to the given port of a process.
    fn channel_of_port(&self, process: &str, port: &str) -> Option<&'a qss_flowc::ChannelInfo> {
        self.system.channels.iter().find(|c| {
            (c.from.0 == process && c.from.1 == port) || (c.to.0 == process && c.to.1 == port)
        })
    }

    fn emit_declarations(&mut self, name: &str, schedule: &Schedule) {
        let _ = writeln!(self.out, "/* Task {name}: generated from the schedule of");
        let _ = writeln!(
            self.out,
            " * uncontrollable source `{}` ({} nodes, {} segments). */",
            self.system.net.transition(schedule.source()).name,
            schedule.num_nodes(),
            self.graph.segments.len()
        );
        let _ = writeln!(
            self.out,
            "#include \"{}.data.h\"",
            sanitize(self.system.net.name())
        );
        let _ = writeln!(self.out);
        let _ = writeln!(
            self.out,
            "/* state variables (token counts of state places) */"
        );
        for &p in &self.graph.state_places {
            let _ = writeln!(self.out, "int {};", self.state_var(p));
            self.stats.num_statements += 1;
        }
        if self.options.inline_communication {
            let _ = writeln!(self.out, "/* intra-task channel buffers */");
            for (channel, size) in self.intra_channels {
                if *size <= 1 {
                    let _ = writeln!(self.out, "int {};", self.channel_var(channel));
                    self.stats.num_statements += 1;
                } else {
                    let var = self.channel_var(channel);
                    let _ = writeln!(self.out, "int {var}[{size}];");
                    let _ = writeln!(self.out, "int {var}_head;");
                    let _ = writeln!(self.out, "int {var}_count;");
                    self.stats.num_statements += 3;
                }
            }
        }
        /* per-process variables become globals with unique names */
        let _ = writeln!(self.out, "/* process variables */");
        for (process, decls) in &self.system.declarations {
            for (var, size) in decls {
                match size {
                    Some(s) => {
                        let _ = writeln!(self.out, "int {}_{}[{}];", sanitize(process), var, s);
                    }
                    None => {
                        let _ = writeln!(self.out, "int {}_{};", sanitize(process), var);
                    }
                }
                self.stats.num_statements += 1;
            }
        }
        let _ = writeln!(self.out);
    }

    fn emit_init(&mut self, schedule: &Schedule) {
        let _ = writeln!(self.out, "void init(void) {{");
        let m0 = self.system.net.initial_marking();
        for &p in &self.graph.state_places {
            let _ = writeln!(self.out, "    {} = {};", self.state_var(p), m0.tokens(p));
            self.stats.num_statements += 1;
        }
        if self.options.inline_communication {
            for (channel, size) in self.intra_channels {
                let var = self.channel_var(channel);
                if *size <= 1 {
                    let _ = writeln!(self.out, "    {var} = 0;");
                    self.stats.num_statements += 1;
                } else {
                    let _ = writeln!(self.out, "    {var}_head = 0;");
                    let _ = writeln!(self.out, "    {var}_count = 0;");
                    self.stats.num_statements += 2;
                }
            }
        }
        // Per-process initialisation code runs once at start-up.
        let system = self.system;
        for process in &system.process_names {
            if let Some(init) = system.init_code.get(process) {
                for stmt in init {
                    self.emit_stmt(stmt, process, 1);
                }
            }
        }
        let _ = writeln!(self.out, "}}");
        let _ = writeln!(self.out);
        let _ = schedule;
    }

    fn emit_run(&mut self, name: &str) -> Result<()> {
        let _ = writeln!(self.out, "void {name}_run(void) {{");
        let graph = self.graph;
        for segment in &graph.segments {
            let _ = writeln!(self.out, "{}:", segment.label);
            self.emit_segment(segment)?;
        }
        let _ = writeln!(self.out, "}}");
        Ok(())
    }

    /// Emits a segment's code from its root node. A single-transition node
    /// runs straight into its branch; a choice opens an `if`/`else if`
    /// chain with one arm per transition and closes it after the last
    /// arm's code. Pending work sits on an explicit stack, so a long
    /// straight-line segment needs no call stack.
    fn emit_segment(&mut self, segment: &CodeSegment) -> Result<()> {
        let mut stack = vec![Emit::Node(0, 1)];
        while let Some(step) = stack.pop() {
            match step {
                Emit::Node(node, indent) => {
                    let branches = &segment.nodes[node].branches;
                    if segment.nodes[node].ecs.len() == 1 {
                        let (t, branch) = &branches[0];
                        self.emit_transition_code(*t, indent)?;
                        self.emit_branch(segment, branch, *t, indent, &mut stack);
                    } else {
                        // A data-dependent (or SELECT) choice: an if/else
                        // chain, its arms popped in order.
                        stack.push(Emit::Close(indent));
                        stack.extend(
                            (0..branches.len())
                                .rev()
                                .map(|i| Emit::Arm(node, i, indent)),
                        );
                    }
                }
                Emit::Arm(node, i, indent) => {
                    let (t, branch) = &segment.nodes[node].branches[i];
                    let cond = self.branch_condition(*t)?;
                    let keyword = if i == 0 { "if" } else { "} else if" };
                    self.write_line(&format!("{keyword} ({cond}) {{"), indent);
                    self.stats.num_conditionals += 1;
                    self.emit_transition_code(*t, indent + 1)?;
                    self.emit_branch(segment, branch, *t, indent + 1, &mut stack);
                }
                Emit::Close(indent) => self.write_line("}", indent),
            }
        }
        Ok(())
    }

    /// The C condition guarding the branch of a choice transition.
    fn branch_condition(&self, t: TransitionId) -> Result<String> {
        let info = self.transition_code(t)?;
        if let Some((expr, branch)) = &info.guard {
            let cond = self.emit_expr(expr, &info.process);
            return Ok(if *branch { cond } else { format!("!({cond})") });
        }
        if let Some((port, nitems, _prio)) = &info.select {
            // SELECT arm: test the occupancy of the channel backing the port.
            if let Some(channel) = self.channel_of_port(&info.process, port) {
                let var = self.channel_var(&channel.name);
                let size = self.channel_size(&channel.name);
                return Ok(if size <= 1 {
                    format!("{var}_valid >= {nitems}")
                } else {
                    format!("{var}_count >= {nitems}")
                });
            }
            return Ok(format!("PORT_READY({port}, {nitems})"));
        }
        // A silent member of a multi-way ECS without a guard (should not
        // happen for FlowC-generated nets); fall back to "else".
        Ok("1".to_string())
    }

    fn transition_code(&self, t: TransitionId) -> Result<&TransitionCode> {
        self.system.transition_code.get(&t).ok_or_else(|| {
            CodegenError::UnknownTransition(self.system.net.transition(t).name.clone())
        })
    }

    /// Emits the code fragment attached to a transition (nothing for
    /// environment source/sink transitions and silent transitions).
    fn emit_transition_code(&mut self, t: TransitionId, indent: usize) -> Result<()> {
        let system = self.system;
        let Some(info) = system.transition_code.get(&t) else {
            // Environment source or sink transition: no code.
            return Ok(());
        };
        for stmt in &info.stmts {
            self.emit_stmt(stmt, &info.process, indent);
        }
        Ok(())
    }

    /// Continues after `taken`: an inline node is pushed for the caller's
    /// loop to emit, a terminal is emitted here.
    fn emit_branch(
        &mut self,
        segment: &CodeSegment,
        branch: &Branch,
        taken: TransitionId,
        indent: usize,
        stack: &mut Vec<Emit>,
    ) {
        match branch {
            Branch::Inline(next) => stack.push(Emit::Node(*next, indent)),
            Branch::Terminal(continuation) => {
                self.emit_state_update(segment, taken, indent);
                self.emit_continuation(continuation, indent);
            }
        }
    }

    /// Updates the state variables with the net token-count change of the
    /// path through the segment that ends with `taken`. Because the path of
    /// transitions is fixed, the delta is the same for every occurrence.
    fn emit_state_update(&mut self, segment: &CodeSegment, taken: TransitionId, indent: usize) {
        let path = path_to_leaf(segment, taken);
        let graph = self.graph;
        for &p in &graph.state_places {
            let mut delta: i64 = 0;
            for &t in &path {
                delta += self.system.net.weight_t2p(t, p) as i64;
                delta -= self.system.net.weight_p2t(p, t) as i64;
            }
            if delta != 0 {
                let var = self.state_var(p);
                let op = if delta > 0 { "+" } else { "-" };
                self.write_line(&format!("{var} = {var} {op} {};", delta.abs()), indent);
            }
        }
    }

    fn emit_continuation(&mut self, continuation: &Continuation, indent: usize) {
        match continuation {
            Continuation::Return => {
                self.write_line("return;", indent);
                self.stats.num_returns += 1;
            }
            Continuation::Goto(seg) => {
                self.write_line(
                    &format!("goto {};", self.graph.segments[*seg].label),
                    indent,
                );
                self.stats.num_gotos += 1;
            }
            Continuation::Switch(arms) => {
                for (i, (marking, target)) in arms.iter().enumerate() {
                    let cond = self.state_condition(marking);
                    let keyword = if i == 0 { "if" } else { "} else if" };
                    self.write_line(&format!("{keyword} ({cond}) {{"), indent);
                    self.stats.num_conditionals += 1;
                    self.emit_continuation(target, indent + 1);
                }
                self.write_line("}", indent);
            }
        }
    }

    /// The condition identifying a switch arm: a conjunction over the state
    /// variables of the arm's end marking.
    fn state_condition(&self, marking: &Marking) -> String {
        if self.graph.state_places.is_empty() {
            return "1".to_string();
        }
        self.graph
            .state_places
            .iter()
            .map(|&p| format!("{} == {}", self.state_var(p), marking.tokens(p)))
            .collect::<Vec<_>>()
            .join(" && ")
    }

    fn write_line(&mut self, line: &str, indent: usize) {
        let _ = writeln!(self.out, "{}{}", "    ".repeat(indent), line);
        self.stats.num_statements += 1;
    }

    /// Emits one FlowC statement as C, rewriting port operations on
    /// intra-task channels into buffer accesses.
    fn emit_stmt(&mut self, stmt: &Stmt, process: &str, indent: usize) {
        match stmt {
            Stmt::Decl { .. } | Stmt::Nop => {}
            Stmt::Assign { target, value } => {
                let line = format!(
                    "{} = {};",
                    self.emit_lvalue(target, process),
                    self.emit_expr(value, process)
                );
                self.write_line(&line, indent);
            }
            Stmt::Expr(e) => {
                let line = format!("{};", self.emit_expr(e, process));
                self.write_line(&line, indent);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.write_line(
                    &format!("if ({}) {{", self.emit_expr(cond, process)),
                    indent,
                );
                self.stats.num_conditionals += 1;
                for s in then_branch {
                    self.emit_stmt(s, process, indent + 1);
                }
                if else_branch.is_empty() {
                    self.write_line("}", indent);
                } else {
                    self.write_line("} else {", indent);
                    for s in else_branch {
                        self.emit_stmt(s, process, indent + 1);
                    }
                    self.write_line("}", indent);
                }
            }
            Stmt::While { cond, body } => {
                self.write_line(
                    &format!("while ({}) {{", self.emit_expr(cond, process)),
                    indent,
                );
                self.stats.num_conditionals += 1;
                for s in body {
                    self.emit_stmt(s, process, indent + 1);
                }
                self.write_line("}", indent);
            }
            Stmt::Port(op) => self.emit_port_op(op, process, indent),
            Stmt::Select { .. } => {
                // SELECT statements are refined into choice transitions by
                // compilation; a SELECT inside a fragment would mean the
                // fragment was not split correctly — emit a comment so the
                // problem is visible in the output.
                self.write_line("/* unexpected SELECT inside fragment */", indent);
            }
        }
    }

    fn emit_port_op(&mut self, op: &PortOp, process: &str, indent: usize) {
        let channel = self.channel_of_port(process, op.port());
        match (channel, self.options.inline_communication) {
            (Some(channel), true) => {
                let var = self.channel_var(&channel.name);
                let size = self.channel_size(&channel.name);
                match op {
                    PortOp::Read { dest, nitems, .. } => {
                        let dest = self.emit_lvalue(dest, process);
                        if size <= 1 && *nitems == 1 {
                            self.write_line(&format!("{dest} = {var};"), indent);
                        } else {
                            self.write_line(&format!("CH_READ({var}, &{dest}, {nitems});"), indent);
                        }
                    }
                    PortOp::Write { src, nitems, .. } => {
                        let src = self.emit_expr(src, process);
                        if size <= 1 && *nitems == 1 {
                            self.write_line(&format!("{var} = {src};"), indent);
                        } else {
                            self.write_line(&format!("CH_WRITE({var}, {src}, {nitems});"), indent);
                        }
                    }
                }
            }
            _ => {
                // Environment ports (or inlining disabled) keep the FlowC
                // primitives, to be bound to the RTOS communication API.
                let line = match op {
                    PortOp::Read { port, dest, nitems } => format!(
                        "READ_DATA({port}, &{}, {nitems});",
                        self.emit_lvalue(dest, process)
                    ),
                    PortOp::Write { port, src, nitems } => format!(
                        "WRITE_DATA({port}, {}, {nitems});",
                        self.emit_expr(src, process)
                    ),
                };
                self.write_line(&line, indent);
            }
        }
    }

    fn emit_lvalue(&self, lvalue: &LValue, process: &str) -> String {
        match lvalue {
            LValue::Var(name) => format!("{}_{}", sanitize(process), name),
            LValue::Index(name, index) => format!(
                "{}_{}[{}]",
                sanitize(process),
                name,
                self.emit_expr(index, process)
            ),
        }
    }

    fn emit_expr(&self, expr: &Expr, process: &str) -> String {
        match expr {
            Expr::Int(v) => v.to_string(),
            Expr::Var(name) => format!("{}_{}", sanitize(process), name),
            Expr::Index(name, index) => format!(
                "{}_{}[{}]",
                sanitize(process),
                name,
                self.emit_expr(index, process)
            ),
            Expr::Unary(op, e) => {
                let inner = self.emit_expr(e, process);
                match op {
                    qss_flowc::UnOp::Neg => format!("-({inner})"),
                    qss_flowc::UnOp::Not => format!("!({inner})"),
                }
            }
            Expr::Binary(op, a, b) => format!(
                "({} {} {})",
                self.emit_expr(a, process),
                op,
                self.emit_expr(b, process)
            ),
        }
    }
}

/// Pending work of [`Emitter::emit_segment`]; each step carries its
/// indentation level.
enum Emit {
    /// Emit segment node `.0`.
    Node(usize, usize),
    /// Emit arm `.1` of the choice at segment node `.0`.
    Arm(usize, usize, usize),
    /// Close a choice's `if`/`else if` chain.
    Close(usize),
}

/// The transitions on the unique path from the segment root to the leaf
/// whose last transition is `taken`: a depth-first walk whose path is an
/// explicit stack of `(node, next branch)` frames.
fn path_to_leaf(segment: &CodeSegment, taken: TransitionId) -> Vec<TransitionId> {
    let mut path = Vec::new();
    let mut stack = vec![(0usize, 0usize)];
    while let Some(frame) = stack.last_mut() {
        let (node, i) = *frame;
        let Some((t, branch)) = segment.nodes[node].branches.get(i) else {
            // Leave the node: drop the transition that entered it.
            stack.pop();
            path.pop();
            continue;
        };
        frame.1 += 1;
        match branch {
            Branch::Terminal(_) if *t == taken => {
                path.push(*t);
                return path;
            }
            Branch::Inline(next) => {
                path.push(*t);
                stack.push((*next, 0));
            }
            Branch::Terminal(_) => {}
        }
    }
    path
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qss_core::{
        schedule_system, ScheduleOptions, SearchBudget, SearchContext, SearchProfile,
        SystemSchedules,
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
                 int t, i;
                 while (1) {
                     READ_DATA(trigger, t, 1);
                     i = i + 1;
                     WRITE_DATA(data, i, 1);
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
    fn generates_task_for_pipeline() {
        let system = pipeline_system();
        let schedules = schedule_default(&system);
        assert_eq!(schedules.schedules.len(), 1);
        let task = generate_task(
            &system,
            &schedules.schedules[0],
            &schedules.channel_bounds,
            &TaskOptions::default(),
        )
        .unwrap();
        assert_eq!(task.name, "task_producer_trigger");
        // The channel collapses to a unit buffer implemented as a plain
        // variable assignment.
        assert_eq!(task.intra_channels.len(), 1);
        assert_eq!(task.intra_channels[0].1, 1);
        assert!(task.code.contains("void task_producer_trigger_run(void)"));
        assert!(task.code.contains("ch_producer_data__consumer_data"));
        // Output to the environment keeps the communication primitive.
        assert!(task.code.contains("WRITE_DATA(sum"));
        // A linear pipeline needs no state variables and returns once.
        assert_eq!(task.stats.num_state_variables, 0);
        assert!(task.stats.num_returns >= 1);
        assert_eq!(task.stats.num_threads, 1);
    }

    #[test]
    fn divisors_task_contains_data_dependent_choice() {
        let divisors = parse_process(qss_flowc::examples::DIVISORS).unwrap();
        let spec = SystemSpec::new("divisors_sys").with_process(divisors);
        let system = qss_flowc::link(&spec).unwrap();
        let schedules = schedule_default(&system);
        let task = generate_task(
            &system,
            &schedules.schedules[0],
            &schedules.channel_bounds,
            &TaskOptions::default(),
        )
        .unwrap();
        // Data-dependent choices show up as if/else on the guard.
        assert!(task.stats.num_conditionals >= 2);
        assert!(task.code.contains("if ("));
        // Writes to the environment output ports are kept as primitives.
        assert!(task.code.contains("WRITE_DATA(all"));
        assert!(task.code.contains("WRITE_DATA(max"));
        // The emitted code declares the process variables.
        assert!(task.code.contains("int divisors_n;"));
        assert!(task.code.contains("int divisors_i;"));
    }

    #[test]
    fn unknown_schedule_is_rejected() {
        // A schedule computed on a different net cannot be emitted against
        // this system.
        let system = pipeline_system();
        let mut bl = qss_petri::NetBuilder::new("other");
        let p = bl.place("p", 0);
        let src = bl.transition("in", qss_petri::TransitionKind::UncontrollableSource);
        let t = bl.transition("t", qss_petri::TransitionKind::Internal);
        bl.arc_t2p(src, p, 1);
        bl.arc_p2t(p, t, 1);
        let other = bl.build().unwrap();
        let src = other.transition_by_name("in").unwrap();
        let (schedule, _) = SearchContext::new(&other)
            .find_schedule_profiled(
                &other,
                src,
                &ScheduleOptions::default(),
                &SearchBudget::unlimited(),
                &mut SearchProfile::default(),
            )
            .unwrap();
        // Either segment construction or emission must fail — the schedule
        // talks about transitions that do not exist in `system`.
        let result = generate_task(
            &system,
            &schedule,
            &BTreeMap::new(),
            &TaskOptions::default(),
        );
        assert!(result.is_err() || !result.unwrap().code.is_empty());
    }
}
