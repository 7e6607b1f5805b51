//! Threads, code segments and state-variable selection (Sec. 6.1–6.2).
//!
//! The schedule traversal of the paper produces a minimal set of *code
//! segments*: for every node of the schedule there is exactly one code
//! segment node with the same ECS, so code shared between threads is never
//! duplicated. This module reformulates the `traverse`/`compare` pair of
//! the paper as a deterministic graph construction:
//!
//! 1. schedule nodes are grouped by their ECS (the set of transitions on
//!    their outgoing edges),
//! 2. an ECS becomes the *root* of a code segment if it is the source ECS,
//!    if it is entered from more than one context, or if its single
//!    entering context does not always continue into it (a run-time
//!    dispatch is needed); all other ECSs are inlined into the segment of
//!    their unique predecessor,
//! 3. each leaf of a segment carries a [`Continuation`]: `return` when the
//!    reaction reached an await node, an unconditional `goto` to another
//!    segment, or a state `switch` between the two,
//! 4. the *state places* are the places whose token counts are needed to
//!    resolve some switch — by construction they are also places updated by
//!    the involved transitions, matching the paper's intersection rule.

use crate::error::{CodegenError, Result};
use qss_core::{NodeId, Schedule};
use qss_petri::{Marking, PetriNet, PlaceId, TransitionId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The set of transitions labelling the outgoing edges of a schedule node,
/// sorted to act as a canonical key.
pub type EcsKey = Vec<TransitionId>;

/// What happens after the last transition of a code-segment branch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Continuation {
    /// The reaction reached an await node: the task returns and waits for
    /// the next occurrence of its source transition.
    Return,
    /// Control always continues with the given code segment.
    Goto(usize),
    /// Control depends on the task state: each arm pairs the (full) end
    /// marking observed in the schedule with its target.
    Switch(Vec<(Marking, Box<Continuation>)>),
}

/// A branch out of a [`SegmentNode`]: either more code within the same
/// segment or a terminal continuation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Branch {
    /// The next node within the same code segment.
    Inline(usize),
    /// End of the segment along this branch.
    Terminal(Continuation),
}

/// One node of a code segment: an ECS and one branch per transition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentNode {
    /// The ECS executed at this node (one transition, or the members of a
    /// data-dependent choice).
    pub ecs: EcsKey,
    /// One branch per ECS transition, in the same order as `ecs`.
    pub branches: Vec<(TransitionId, Branch)>,
}

/// A code segment: a rooted tree of [`SegmentNode`]s.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeSegment {
    /// Identifier of the segment (index in [`SegmentGraph::segments`]).
    pub id: usize,
    /// Emission label (derived from the root ECS transition names).
    pub label: String,
    /// Nodes of the segment; node 0 is the root.
    pub nodes: Vec<SegmentNode>,
}

impl CodeSegment {
    /// The root node of the segment.
    pub fn root(&self) -> &SegmentNode {
        &self.nodes[0]
    }

    /// Total number of ECS nodes in the segment.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// One thread of a task: the part of the schedule traversed between an
/// await node and the next await nodes (Sec. 6.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Thread {
    /// Marking of the await node the thread starts from.
    pub start: Marking,
    /// Code segments used by the thread, in order of first use.
    pub segments: Vec<usize>,
    /// Markings of the await nodes the thread can end at.
    pub ends: Vec<Marking>,
}

/// The complete decomposition of one schedule into code segments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentGraph {
    /// All code segments; `segments[entry]` is `cs1`, the segment
    /// containing the source transition.
    pub segments: Vec<CodeSegment>,
    /// Index of the entry segment.
    pub entry: usize,
    /// Places whose token counts become state variables of the task.
    pub state_places: Vec<PlaceId>,
    /// The threads of the task.
    pub threads: Vec<Thread>,
}

impl SegmentGraph {
    /// Builds the segment graph of `schedule`.
    ///
    /// # Errors
    /// Returns [`CodegenError`] if the schedule is empty or a run-time
    /// dispatch cannot be resolved by any set of state places.
    pub fn build(schedule: &Schedule, net: &PetriNet) -> Result<SegmentGraph> {
        if schedule.num_nodes() == 0 {
            return Err(CodegenError::InvalidSchedule(
                "schedule has no nodes".into(),
            ));
        }
        let builder = GraphBuilder::new(schedule, net);
        builder.build()
    }

    /// The segment that owns (has as root or inlines) the given ECS key,
    /// if any.
    pub fn segment_of_ecs(&self, key: &EcsKey) -> Option<usize> {
        self.segments
            .iter()
            .position(|s| s.nodes.iter().any(|n| &n.ecs == key))
    }

    /// Total number of segment nodes over all segments.
    pub fn num_nodes(&self) -> usize {
        self.segments.iter().map(|s| s.num_nodes()).sum()
    }
}

struct GraphBuilder<'a> {
    schedule: &'a Schedule,
    net: &'a PetriNet,
    /// Key of every schedule node.
    node_key: BTreeMap<NodeId, EcsKey>,
    /// Distinct keys in first-seen order.
    keys: Vec<EcsKey>,
}

/// One observed outcome of firing transition `t` at some schedule node
/// with a given ECS key.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    /// The target is an await node with this marking.
    Await(Marking),
    /// The target is an internal node with this key and marking.
    Next(EcsKey, Marking),
}

/// The *target* of an outcome, ignoring the concrete marking.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    /// The reaction ends at an await node.
    Await,
    /// Control continues with the given ECS.
    Key(EcsKey),
}

impl Outcome {
    fn target(&self) -> Target {
        match self {
            Outcome::Await(_) => Target::Await,
            Outcome::Next(k, _) => Target::Key(k.clone()),
        }
    }

    fn marking(&self) -> &Marking {
        match self {
            Outcome::Await(m) | Outcome::Next(_, m) => m,
        }
    }
}

impl<'a> GraphBuilder<'a> {
    fn new(schedule: &'a Schedule, net: &'a PetriNet) -> Self {
        let mut node_key = BTreeMap::new();
        let mut keys: Vec<EcsKey> = Vec::new();
        for id in schedule.node_ids() {
            let mut key: EcsKey = schedule.edges(id).iter().map(|(t, _)| *t).collect();
            key.sort();
            if !keys.contains(&key) {
                keys.push(key.clone());
            }
            node_key.insert(id, key);
        }
        GraphBuilder {
            schedule,
            net,
            node_key,
            keys,
        }
    }

    /// All outcomes observed for `(key, t)` over the schedule.
    fn outcomes(&self, key: &EcsKey, t: TransitionId) -> Vec<Outcome> {
        let mut result = Vec::new();
        for id in self.schedule.node_ids() {
            if &self.node_key[&id] != key {
                continue;
            }
            for (edge_t, target) in self.schedule.edges(id) {
                if *edge_t != t {
                    continue;
                }
                let outcome = if self.schedule.is_await_node(self.net, *target) {
                    Outcome::Await(self.schedule.marking_owned(*target))
                } else {
                    Outcome::Next(
                        self.node_key[target].clone(),
                        self.schedule.marking_owned(*target),
                    )
                };
                if !result.contains(&outcome) {
                    result.push(outcome);
                }
            }
        }
        result
    }

    /// The distinct targets observed for `(key, t)`.
    fn targets(&self, key: &EcsKey, t: TransitionId) -> Vec<Target> {
        let mut result = Vec::new();
        for outcome in self.outcomes(key, t) {
            let target = outcome.target();
            if !result.contains(&target) {
                result.push(target);
            }
        }
        result
    }

    /// Entering contexts of `key`: the `(parent key, transition)` pairs
    /// that lead into a non-await node with this key.
    fn contexts(&self, key: &EcsKey) -> BTreeSet<(EcsKey, TransitionId)> {
        let mut result = BTreeSet::new();
        for id in self.schedule.node_ids() {
            for (t, target) in self.schedule.edges(id) {
                if self.schedule.is_await_node(self.net, *target) {
                    continue;
                }
                if &self.node_key[target] == key {
                    result.insert((self.node_key[&id].clone(), *t));
                }
            }
        }
        result
    }

    fn source_key(&self) -> EcsKey {
        self.node_key[&self.schedule.root()].clone()
    }

    /// Decides which keys become segment roots.
    fn root_keys(&self) -> Vec<EcsKey> {
        let source = self.source_key();
        let mut inline_parent: BTreeMap<EcsKey, EcsKey> = BTreeMap::new();
        let mut roots: BTreeSet<EcsKey> = BTreeSet::new();
        roots.insert(source.clone());
        for key in &self.keys {
            if *key == source {
                continue;
            }
            let contexts = self.contexts(key);
            let single = if contexts.len() == 1 {
                contexts.iter().next().cloned()
            } else {
                None
            };
            match single {
                Some((parent, t)) => {
                    // Inline only if the parent always continues into this
                    // key (a single target, never an await node).
                    let targets = self.targets(&parent, t);
                    let always =
                        targets.len() == 1 && matches!(&targets[0], Target::Key(k) if k == key);
                    if always {
                        inline_parent.insert(key.clone(), parent);
                    } else {
                        roots.insert(key.clone());
                    }
                }
                None => {
                    roots.insert(key.clone());
                }
            }
        }
        // Break inline cycles: follow parent chains; any key whose chain
        // never reaches a root becomes a root itself.
        let mut changed = true;
        while changed {
            changed = false;
            for key in &self.keys {
                if roots.contains(key) || !inline_parent.contains_key(key) {
                    continue;
                }
                let mut seen = BTreeSet::new();
                let mut cur = key.clone();
                let reaches_root = loop {
                    if roots.contains(&cur) {
                        break true;
                    }
                    if !seen.insert(cur.clone()) {
                        break false;
                    }
                    match inline_parent.get(&cur) {
                        Some(p) => cur = p.clone(),
                        None => break true,
                    }
                };
                if !reaches_root {
                    roots.insert(key.clone());
                    changed = true;
                }
            }
        }
        // Preserve deterministic order: source first, then first-seen order.
        let mut ordered = vec![source.clone()];
        for key in &self.keys {
            if *key != source && roots.contains(key) {
                ordered.push(key.clone());
            }
        }
        ordered
    }

    fn build(self) -> Result<SegmentGraph> {
        let roots = self.root_keys();
        let segment_of_root: BTreeMap<EcsKey, usize> = roots
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i))
            .collect();
        let mut segments = Vec::new();
        for (id, root) in roots.iter().enumerate() {
            let mut nodes = Vec::new();
            self.build_node(root, &segment_of_root, &mut nodes, &mut BTreeSet::new());
            let label = self.label_for(root);
            segments.push(CodeSegment { id, label, nodes });
        }
        let state_places = self.state_places(&segments);
        self.check_resolvable(&segments, &state_places)?;
        let threads = self.threads(&segment_of_root);
        Ok(SegmentGraph {
            segments,
            entry: 0,
            state_places,
            threads,
        })
    }

    /// Builds the node for `key` (and its inlined successors) into `nodes`,
    /// returning its index.
    fn build_node(
        &self,
        key: &EcsKey,
        roots: &BTreeMap<EcsKey, usize>,
        nodes: &mut Vec<SegmentNode>,
        on_path: &mut BTreeSet<EcsKey>,
    ) -> usize {
        let index = nodes.len();
        nodes.push(SegmentNode {
            ecs: key.clone(),
            branches: Vec::new(),
        });
        on_path.insert(key.clone());
        let mut branches = Vec::new();
        for &t in key {
            let targets = self.targets(key, t);
            let branch = if targets.len() == 1 {
                match &targets[0] {
                    Target::Await => Branch::Terminal(Continuation::Return),
                    Target::Key(next_key) => match roots.get(next_key) {
                        Some(&seg) => Branch::Terminal(Continuation::Goto(seg)),
                        None => {
                            if on_path.contains(next_key) {
                                // Defensive: should have been made a root by
                                // cycle breaking; fall back to a goto to the
                                // segment that owns it (the entry segment).
                                Branch::Terminal(Continuation::Goto(0))
                            } else {
                                Branch::Inline(self.build_node(next_key, roots, nodes, on_path))
                            }
                        }
                    },
                }
            } else {
                // A run-time dispatch on the task state: one arm per
                // observed (end marking, target) pair.
                let mut arms: Vec<(Marking, Box<Continuation>)> = Vec::new();
                for outcome in self.outcomes(key, t) {
                    let continuation = match outcome.target() {
                        Target::Await => Continuation::Return,
                        Target::Key(k) => Continuation::Goto(roots.get(&k).copied().unwrap_or(0)),
                    };
                    let arm = (outcome.marking().clone(), Box::new(continuation));
                    if !arms.contains(&arm) {
                        arms.push(arm);
                    }
                }
                Branch::Terminal(Continuation::Switch(arms))
            };
            branches.push((t, branch));
        }
        on_path.remove(key);
        nodes[index].branches = branches;
        index
    }

    fn label_for(&self, key: &EcsKey) -> String {
        let mut label: String = key
            .iter()
            .map(|t| sanitize(&self.net.transition(*t).name))
            .collect::<Vec<_>>()
            .join("_");
        if label.is_empty() {
            label = "empty".to_string();
        }
        format!("cs_{label}")
    }

    /// State places: every place whose value differs between two switch
    /// arms with different targets. Such places are necessarily updated by
    /// the involved transitions, so this matches the paper's intersection
    /// of "updated" and "needed for conditions".
    fn state_places(&self, segments: &[CodeSegment]) -> Vec<PlaceId> {
        let mut needed: BTreeSet<PlaceId> = BTreeSet::new();
        for segment in segments {
            for node in &segment.nodes {
                for (_, branch) in &node.branches {
                    if let Branch::Terminal(Continuation::Switch(arms)) = branch {
                        for (i, (m1, t1)) in arms.iter().enumerate() {
                            for (m2, t2) in arms.iter().skip(i + 1) {
                                if t1 == t2 {
                                    continue;
                                }
                                for p in self.net.place_ids() {
                                    if m1.tokens(p) != m2.tokens(p) {
                                        needed.insert(p);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        needed.into_iter().collect()
    }

    /// Verifies that the state places distinguish every pair of switch arms
    /// with different targets.
    fn check_resolvable(&self, segments: &[CodeSegment], state: &[PlaceId]) -> Result<()> {
        for segment in segments {
            for node in &segment.nodes {
                for (_, branch) in &node.branches {
                    if let Branch::Terminal(Continuation::Switch(arms)) = branch {
                        for (i, (m1, t1)) in arms.iter().enumerate() {
                            for (m2, t2) in arms.iter().skip(i + 1) {
                                if t1 == t2 {
                                    continue;
                                }
                                let same = state.iter().all(|p| m1.tokens(*p) == m2.tokens(*p));
                                if same {
                                    return Err(CodegenError::AmbiguousState(format!(
                                        "segment `{}` cannot distinguish markings {m1} and {m2}",
                                        segment.label
                                    )));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Threads: for each await node, the segments used until the reaction
    /// reaches await nodes again.
    fn threads(&self, roots: &BTreeMap<EcsKey, usize>) -> Vec<Thread> {
        let awaits = self.schedule.await_nodes(self.net);
        let mut threads = Vec::new();
        for &start in &awaits {
            let mut segments_used: Vec<usize> = Vec::new();
            let mut ends: Vec<Marking> = Vec::new();
            let mut visited: BTreeSet<NodeId> = BTreeSet::new();
            let mut stack = vec![start];
            while let Some(node) = stack.pop() {
                if !visited.insert(node) {
                    continue;
                }
                let key = &self.node_key[&node];
                if let Some(&seg) = roots.get(key) {
                    if !segments_used.contains(&seg) {
                        segments_used.push(seg);
                    }
                }
                for (_, target) in self.schedule.edges(node) {
                    if self.schedule.is_await_node(self.net, *target) {
                        let m = self.schedule.marking_owned(*target);
                        if !ends.contains(&m) {
                            ends.push(m);
                        }
                    } else {
                        stack.push(*target);
                    }
                }
            }
            threads.push(Thread {
                start: self.schedule.marking_owned(start),
                segments: segments_used,
                ends,
            });
        }
        threads
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qss_core::{ScheduleOptions, SearchBudget, SearchContext, SearchProfile};
    use qss_petri::{NetBuilder, TransitionKind};

    /// The schedule of `source` under the default options.
    fn find_default(net: &PetriNet, source: TransitionId) -> Schedule {
        SearchContext::new(net)
            .find_schedule_profiled(
                net,
                source,
                &ScheduleOptions::default(),
                &SearchBudget::unlimited(),
                &mut SearchProfile::default(),
            )
            .unwrap()
            .0
    }

    /// The Figure 8(a) net, whose schedule (Figure 10(d)) produces the code
    /// segments of Figure 14(c).
    fn figure8() -> (qss_petri::PetriNet, TransitionId) {
        let mut bl = NetBuilder::new("fig8");
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let p3 = bl.place("p3", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::Internal);
        let c = bl.transition("c", TransitionKind::Internal);
        let d = bl.transition("d", TransitionKind::Internal);
        let e = bl.transition("e", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p1, b, 1);
        bl.arc_p2t(p1, c, 1);
        bl.arc_t2p(b, p2, 1);
        bl.arc_p2t(p2, d, 1);
        bl.arc_t2p(c, p3, 1);
        bl.arc_p2t(p3, e, 2);
        bl.arc_t2p(e, p1, 1);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        (net, a)
    }

    #[test]
    fn figure8_segment_structure_matches_figure14() {
        let (net, a) = figure8();
        let schedule = find_default(&net, a);
        let graph = SegmentGraph::build(&schedule, &net).unwrap();
        // Figure 14(c) has three code segments: cs1 (a ...), cs2 (e) and
        // cs3 (bc ...).
        assert_eq!(graph.segments.len(), 3);
        // The entry segment starts with the source transition `a`.
        let entry = &graph.segments[graph.entry];
        assert_eq!(entry.root().ecs, vec![a]);
        // Exactly one state place is needed (p3 in the paper).
        assert_eq!(graph.state_places.len(), 1);
        let p3 = net.place_by_name("p3").unwrap();
        assert_eq!(graph.state_places, vec![p3]);
        // Every distinct ECS appears exactly once over all segments.
        let mut seen = BTreeSet::new();
        for s in &graph.segments {
            for n in &s.nodes {
                assert!(seen.insert(n.ecs.clone()), "duplicated ECS {:?}", n.ecs);
            }
        }
        // There are two threads (Figure 15), both starting with cs1.
        assert_eq!(graph.threads.len(), 2);
        for th in &graph.threads {
            assert_eq!(th.segments[0], graph.entry);
        }
    }

    #[test]
    fn linear_pipeline_is_one_segment() {
        let mut bl = NetBuilder::new("line");
        let p = bl.place("p", 0);
        let q = bl.place("q", 0);
        let src = bl.transition("in", TransitionKind::UncontrollableSource);
        let t1 = bl.transition("t1", TransitionKind::Internal);
        let t2 = bl.transition("t2", TransitionKind::Internal);
        bl.arc_t2p(src, p, 1);
        bl.arc_p2t(p, t1, 1);
        bl.arc_t2p(t1, q, 1);
        bl.arc_p2t(q, t2, 1);
        let net = bl.build().unwrap();
        let src = net.transition_by_name("in").unwrap();
        let schedule = find_default(&net, src);
        let graph = SegmentGraph::build(&schedule, &net).unwrap();
        // Everything is deterministic: a single segment, no state places.
        assert_eq!(graph.segments.len(), 1);
        assert!(graph.state_places.is_empty());
        assert_eq!(graph.threads.len(), 1);
        assert_eq!(graph.num_nodes(), 3);
        // Its single thread returns to the initial marking.
        assert_eq!(graph.threads[0].ends, vec![net.initial_marking()]);
    }

    #[test]
    fn data_choice_produces_branching_node() {
        let mut bl = NetBuilder::new("choice");
        let p = bl.place("p", 0);
        let q = bl.place("q", 0);
        let src = bl.transition("in", TransitionKind::UncontrollableSource);
        let yes = bl.transition("yes", TransitionKind::Internal);
        let no = bl.transition("no", TransitionKind::Internal);
        let done = bl.transition("done", TransitionKind::Internal);
        bl.arc_t2p(src, p, 1);
        bl.arc_p2t(p, yes, 1);
        bl.arc_p2t(p, no, 1);
        bl.arc_t2p(yes, q, 1);
        bl.arc_t2p(no, q, 1);
        bl.arc_p2t(q, done, 1);
        let net = bl.build().unwrap();
        let src = net.transition_by_name("in").unwrap();
        let schedule = find_default(&net, src);
        let graph = SegmentGraph::build(&schedule, &net).unwrap();
        // The choice node has two branches, both eventually returning.
        let choice_node = graph
            .segments
            .iter()
            .flat_map(|s| &s.nodes)
            .find(|n| n.ecs.len() == 2)
            .expect("choice node present");
        assert_eq!(choice_node.branches.len(), 2);
        assert!(graph.state_places.is_empty());
    }

    #[test]
    fn empty_schedule_is_rejected() {
        let (net, a) = figure8();
        let empty = qss_core::Schedule::from_parts(a, Vec::new());
        assert!(SegmentGraph::build(&empty, &net).is_err());
    }
}
