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
//!
//! The construction indexes the schedule in one pass. Every node's ECS
//! key is interned to a dense `u32` once, in first-seen node order, and a
//! single walk over the edges records, per `(key, transition)`, the
//! distinct outcomes of firing it and, per key, its entering contexts.
//! Outcomes, switch arms and thread ends are deduplicated on the
//! schedule's [`MarkingId`]s (equal ids mean equal markings); an owned
//! [`Marking`] is resolved only when it enters the output. Roots, segment
//! nodes and threads index dense vectors by key or node id. The cost is
//! linear in the schedule's edges plus the threads' traversals, instead
//! of keys × nodes × distinct outcomes. State places and the ambiguity
//! check take one pass per switch arm and place, not one per pair of arms.

use crate::error::{CodegenError, Result};
use qss_core::Schedule;
use qss_petri::{FxHashMap, FxHashSet, Marking, MarkingId, PetriNet, PlaceId, TransitionId};
use serde::{Deserialize, Serialize};

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

    /// Total number of segment nodes over all segments.
    pub fn num_nodes(&self) -> usize {
        self.segments.iter().map(|s| s.num_nodes()).sum()
    }
}

/// Outcome target meaning "the reaction ends at an await node"; every
/// other target is an interned ECS key.
const AWAIT: u32 = u32::MAX;

/// The entering contexts `(parent key, transition)` of one ECS key. Only
/// "exactly one distinct context, and which one" is ever asked, so a
/// second distinct context collapses the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Contexts {
    None,
    One(u32, TransitionId),
    Many,
}

/// The indexes of one schedule, built in one pass over its edges. ECS
/// keys are interned to dense `u32`s in first-seen node order, and every
/// `(key, transition)` pair owns one *slot*: slot `slot_base[k] + i`
/// belongs to `(k, keys[k][i])`.
struct GraphBuilder<'a> {
    schedule: &'a Schedule,
    net: &'a PetriNet,
    /// Distinct keys in first-seen node order.
    keys: Vec<EcsKey>,
    /// Interned key of every schedule node.
    node_key: Vec<u32>,
    /// Whether each schedule node is an await node.
    is_await: Vec<bool>,
    /// First slot of each key.
    slot_base: Vec<usize>,
    /// Per slot, the distinct `(target, end marking)` outcomes of firing
    /// the transition at a node with the key, in first-seen (node, edge)
    /// order. The target is [`AWAIT`] or the key of the target node.
    outcomes: Vec<Vec<(u32, MarkingId)>>,
    /// Entering contexts of every key: edges into a non-await node with it.
    contexts: Vec<Contexts>,
}

impl<'a> GraphBuilder<'a> {
    fn new(schedule: &'a Schedule, net: &'a PetriNet) -> Self {
        let num_nodes = schedule.num_nodes();
        let mut interned: FxHashMap<EcsKey, u32> = FxHashMap::default();
        let mut keys: Vec<EcsKey> = Vec::new();
        let mut node_key = Vec::with_capacity(num_nodes);
        let mut scratch: EcsKey = Vec::new();
        for id in schedule.node_ids() {
            scratch.clear();
            scratch.extend(schedule.edges(id).iter().map(|(t, _)| *t));
            scratch.sort();
            let key = match interned.get(scratch.as_slice()) {
                Some(&k) => k,
                None => {
                    let k = keys.len() as u32;
                    interned.insert(scratch.clone(), k);
                    keys.push(scratch.clone());
                    k
                }
            };
            node_key.push(key);
        }
        let is_await = schedule
            .node_ids()
            .map(|id| schedule.is_await_node(net, id))
            .collect();
        let mut slot_base = Vec::with_capacity(keys.len());
        let mut num_slots = 0;
        for key in &keys {
            slot_base.push(num_slots);
            num_slots += key.len();
        }
        let mut builder = GraphBuilder {
            schedule,
            net,
            contexts: vec![Contexts::None; keys.len()],
            keys,
            node_key,
            is_await,
            slot_base,
            outcomes: vec![Vec::new(); num_slots],
        };
        builder.index_edges();
        builder
    }

    /// The one pass over the edges: fills `outcomes` and `contexts`.
    fn index_edges(&mut self) {
        let mut seen: FxHashSet<(usize, u32, MarkingId)> = FxHashSet::default();
        for id in self.schedule.node_ids() {
            let key = self.node_key[id.index()];
            for &(t, target) in self.schedule.edges(id) {
                let slot = self.slot(key, t);
                let next = if self.is_await[target.index()] {
                    AWAIT
                } else {
                    self.node_key[target.index()]
                };
                let marking = self.schedule.marking_id(target);
                if seen.insert((slot, next, marking)) {
                    self.outcomes[slot].push((next, marking));
                }
                if next != AWAIT {
                    let entry = &mut self.contexts[next as usize];
                    *entry = match *entry {
                        Contexts::None => Contexts::One(key, t),
                        Contexts::One(k, u) if (k, u) == (key, t) => *entry,
                        _ => Contexts::Many,
                    };
                }
            }
        }
    }

    /// The slot of `(key, t)`; `t` must be a member of the key.
    fn slot(&self, key: u32, t: TransitionId) -> usize {
        let k = key as usize;
        let offset = self.keys[k]
            .iter()
            .position(|&member| member == t)
            .expect("edge transition belongs to its node's key");
        self.slot_base[k] + offset
    }

    /// The target every outcome of `slot` shares, if they share one.
    fn single_target(&self, slot: usize) -> Option<u32> {
        let (&(first, _), rest) = self.outcomes[slot].split_first()?;
        rest.iter().all(|&(next, _)| next == first).then_some(first)
    }

    fn resolve(&self, marking: MarkingId) -> Marking {
        Marking::from_counts(self.schedule.store().resolve(marking).iter().copied())
    }

    /// Decides which keys become segment roots: the source key first,
    /// then the other roots in first-seen order.
    fn root_keys(&self) -> Vec<u32> {
        let n = self.keys.len();
        let source = self.node_key[self.schedule.root().index()] as usize;
        let mut is_root = vec![false; n];
        let mut inline_parent: Vec<Option<usize>> = vec![None; n];
        is_root[source] = true;
        for key in 0..n {
            if key == source {
                continue;
            }
            match self.contexts[key] {
                Contexts::One(parent, t) => {
                    // Inline only if the parent always continues into this
                    // key (a single target, never an await node).
                    if self.single_target(self.slot(parent, t)) == Some(key as u32) {
                        inline_parent[key] = Some(parent as usize);
                    } else {
                        is_root[key] = true;
                    }
                }
                Contexts::None | Contexts::Many => is_root[key] = true,
            }
        }
        // Break inline cycles: follow parent chains; any key whose chain
        // never reaches a root becomes a root itself.
        let mut seen = vec![0usize; n];
        let mut stamp = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for key in 0..n {
                if is_root[key] || inline_parent[key].is_none() {
                    continue;
                }
                stamp += 1;
                let mut cur = key;
                let reaches_root = loop {
                    if is_root[cur] {
                        break true;
                    }
                    if seen[cur] == stamp {
                        break false;
                    }
                    seen[cur] = stamp;
                    match inline_parent[cur] {
                        Some(p) => cur = p,
                        None => break true,
                    }
                };
                if !reaches_root {
                    is_root[key] = true;
                    changed = true;
                }
            }
        }
        let mut ordered = vec![source as u32];
        ordered.extend((0..n as u32).filter(|&k| k as usize != source && is_root[k as usize]));
        ordered
    }

    fn build(self) -> Result<SegmentGraph> {
        let roots = self.root_keys();
        let mut segment_of_key: Vec<Option<usize>> = vec![None; self.keys.len()];
        for (i, &k) in roots.iter().enumerate() {
            segment_of_key[k as usize] = Some(i);
        }
        let mut on_path = vec![false; self.keys.len()];
        let segments: Vec<CodeSegment> = roots
            .iter()
            .enumerate()
            .map(|(id, &root)| CodeSegment {
                id,
                label: self.label_for(&self.keys[root as usize]),
                nodes: self.build_segment(root, &segment_of_key, &mut on_path),
            })
            .collect();
        let state_places = self.state_places(&segments)?;
        let threads = self.threads(&segment_of_key, segments.len());
        Ok(SegmentGraph {
            segments,
            entry: 0,
            state_places,
            threads,
        })
    }

    /// Builds the segment rooted at `root`: that node and its inlined
    /// successors, numbered in depth-first preorder. The walk keeps its
    /// path in an explicit stack of `(key, node index, next ECS member)`
    /// frames, so a long straight-line segment needs no call stack.
    fn build_segment(
        &self,
        root: u32,
        segment_of_key: &[Option<usize>],
        on_path: &mut [bool],
    ) -> Vec<SegmentNode> {
        let mut nodes = Vec::new();
        let mut stack = Vec::new();
        self.open_node(root, &mut nodes, &mut stack, on_path);
        while let Some(frame) = stack.last_mut() {
            let (key, index, member) = *frame;
            let ecs = &self.keys[key as usize];
            let Some(&t) = ecs.get(member) else {
                on_path[key as usize] = false;
                stack.pop();
                continue;
            };
            frame.2 += 1;
            let slot = self.slot(key, t);
            let branch = match self.single_target(slot) {
                Some(AWAIT) => Branch::Terminal(Continuation::Return),
                Some(next) => match segment_of_key[next as usize] {
                    Some(seg) => Branch::Terminal(Continuation::Goto(seg)),
                    // Defensive: should have been made a root by cycle
                    // breaking; fall back to a goto to the segment that
                    // owns it (the entry segment).
                    None if on_path[next as usize] => Branch::Terminal(Continuation::Goto(0)),
                    None => Branch::Inline(self.open_node(next, &mut nodes, &mut stack, on_path)),
                },
                None => {
                    // A run-time dispatch on the task state: one arm per
                    // observed (end marking, continuation) pair.
                    let mut seen: FxHashSet<(MarkingId, Option<usize>)> = FxHashSet::default();
                    let mut arms: Vec<(Marking, Box<Continuation>)> = Vec::new();
                    for &(next, marking) in &self.outcomes[slot] {
                        let goto = (next != AWAIT).then(|| {
                            segment_of_key[next as usize].expect(
                                "every switch target is a segment root: `root_keys` \
                                 never inlines a key entered through a switch",
                            )
                        });
                        if seen.insert((marking, goto)) {
                            let continuation =
                                goto.map_or(Continuation::Return, Continuation::Goto);
                            arms.push((self.resolve(marking), Box::new(continuation)));
                        }
                    }
                    Branch::Terminal(Continuation::Switch(arms))
                }
            };
            nodes[index].branches.push((t, branch));
        }
        nodes
    }

    /// Appends the node for `key` with no branches yet, puts it on the
    /// path and pushes its frame; returns its index.
    fn open_node(
        &self,
        key: u32,
        nodes: &mut Vec<SegmentNode>,
        stack: &mut Vec<(u32, usize, usize)>,
        on_path: &mut [bool],
    ) -> usize {
        let ecs = &self.keys[key as usize];
        let index = nodes.len();
        nodes.push(SegmentNode {
            ecs: ecs.clone(),
            branches: Vec::with_capacity(ecs.len()),
        });
        on_path[key as usize] = true;
        stack.push((key, index, 0));
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
    /// of "updated" and "needed for conditions". Every switch has two
    /// distinct targets (it exists only where a transition's outcomes
    /// diverge, and every target is a segment root of its own), so a place
    /// qualifies exactly when it takes two distinct values among a
    /// switch's arms (if two arms with different values share a target, a
    /// third arm with another target differs from one of them). Then every
    /// switch is checked: arms grouped by their state-place projection
    /// must share the target of the group's first arm, else the
    /// lexicographically first ambiguous pair is reported.
    fn state_places(&self, segments: &[CodeSegment]) -> Result<Vec<PlaceId>> {
        let mut switches = Vec::new();
        for segment in segments {
            for (_, branch) in segment.nodes.iter().flat_map(|n| &n.branches) {
                if let Branch::Terminal(Continuation::Switch(arms)) = branch {
                    switches.push((segment.label.as_str(), arms.as_slice()));
                }
            }
        }
        let mut needed = vec![false; self.net.num_places()];
        for (_, arms) in &switches {
            let Some(((first, _), _)) = arms.split_first() else {
                continue;
            };
            for p in self.net.place_ids() {
                needed[p.index()] |= arms.iter().any(|(m, _)| m.tokens(p) != first.tokens(p));
            }
        }
        let state: Vec<PlaceId> = self.net.place_ids().filter(|p| needed[p.index()]).collect();
        for (label, arms) in &switches {
            let mut first_of: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
            let mut ambiguous: Option<(usize, usize)> = None;
            for (j, (m, target)) in arms.iter().enumerate() {
                let i = *first_of
                    .entry(state.iter().map(|p| m.tokens(*p)).collect())
                    .or_insert(j);
                if arms[i].1 != *target && ambiguous.is_none_or(|best| (i, j) < best) {
                    ambiguous = Some((i, j));
                }
            }
            if let Some((i, j)) = ambiguous {
                return Err(CodegenError::AmbiguousState(format!(
                    "segment `{label}` cannot distinguish markings {} and {}",
                    arms[i].0, arms[j].0
                )));
            }
        }
        Ok(state)
    }

    /// Threads: for each await node, the segments used until the reaction
    /// reaches await nodes again.
    fn threads(&self, segment_of_key: &[Option<usize>], num_segments: usize) -> Vec<Thread> {
        // Stamped visited marks: thread `i` stamps with `i + 1`.
        let mut visited = vec![0usize; self.schedule.num_nodes()];
        let mut segment_seen = vec![0usize; num_segments];
        let mut end_seen = vec![0usize; self.schedule.store().len()];
        let mut threads = Vec::new();
        let mut stack = Vec::new();
        for start in self.schedule.node_ids() {
            if !self.is_await[start.index()] {
                continue;
            }
            let stamp = threads.len() + 1;
            let mut segments_used: Vec<usize> = Vec::new();
            let mut ends: Vec<Marking> = Vec::new();
            stack.push(start);
            while let Some(node) = stack.pop() {
                if visited[node.index()] == stamp {
                    continue;
                }
                visited[node.index()] = stamp;
                if let Some(seg) = segment_of_key[self.node_key[node.index()] as usize] {
                    if segment_seen[seg] != stamp {
                        segment_seen[seg] = stamp;
                        segments_used.push(seg);
                    }
                }
                for &(_, target) in self.schedule.edges(node) {
                    if self.is_await[target.index()] {
                        let m = self.schedule.marking_id(target);
                        if end_seen[m.index()] != stamp {
                            end_seen[m.index()] = stamp;
                            ends.push(self.resolve(m));
                        }
                    } else {
                        stack.push(target);
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
    use std::collections::BTreeSet;

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
