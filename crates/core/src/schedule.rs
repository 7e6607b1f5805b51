//! Schedule graphs (Sec. 4.1 of the paper).
//!
//! A schedule for an uncontrollable source transition `a` is a directed
//! graph whose nodes carry markings and whose edges carry transitions,
//! with five properties:
//!
//! 1. the distinguished node `r` carries the initial marking and has
//!    out-degree 1,
//! 2. the edge out of `r` is associated with `a`,
//! 3. the transitions on the edges out of any node form an ECS enabled at
//!    the node's marking,
//! 4. firing the edge's transition at the source node's marking yields the
//!    target node's marking,
//! 5. every node lies on a cycle through `r`.

use crate::error::{Result, ScheduleError};
use qss_petri::{
    format_marking, EcsInfo, Marking, MarkingId, MarkingStore, PetriNet, PlaceId, TransitionId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Identifier of a node within a [`Schedule`]. The distinguished node `r`
/// is always node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of a schedule: a marking and its outgoing edges.
///
/// This is the *exchange* representation — the type [`Schedule::from_parts`]
/// consumes and the serialized form round-trips through. Inside a
/// [`Schedule`] markings are hash-consed into one [`MarkingStore`] and
/// nodes carry [`MarkingId`] handles instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleNode {
    /// Marking associated with the node.
    pub marking: Marking,
    /// Outgoing edges as `(transition, target node)` pairs.
    pub edges: Vec<(TransitionId, NodeId)>,
}

/// One stored node of a schedule: an interned marking handle plus edges.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    marking: MarkingId,
    edges: Vec<(TransitionId, NodeId)>,
}

/// A schedule for one uncontrollable source transition.
///
/// Node markings are interned: every distinct marking is stored once in
/// the schedule's [`MarkingStore`] and nodes reference it by
/// [`MarkingId`]. Equality, hashing and the serialized wire format are
/// unaffected — two schedules compare equal iff they have the same source
/// and the same per-node resolved markings and edges, and serialization
/// resolves the handles back to full markings (byte-identical to the
/// pre-interning format).
#[derive(Debug, Clone)]
pub struct Schedule {
    source: TransitionId,
    store: MarkingStore,
    slots: Vec<Slot>,
}

impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        self.source == other.source
            && self.slots.len() == other.slots.len()
            && self.slots.iter().zip(&other.slots).all(|(a, b)| {
                a.edges == b.edges
                    && self.store.resolve(a.marking) == other.store.resolve(b.marking)
            })
    }
}

impl Eq for Schedule {}

impl Serialize for Schedule {
    /// Serializes exactly like the former derived impl on
    /// `{source, nodes: Vec<ScheduleNode>}`, so artifacts written before
    /// interning parse unchanged (and vice versa).
    fn to_value(&self) -> serde::Value {
        let nodes: Vec<serde::Value> = self
            .node_ids()
            .map(|id| {
                ScheduleNode {
                    marking: self.marking_owned(id),
                    edges: self.edges(id).to_vec(),
                }
                .to_value()
            })
            .collect();
        serde::Value::Object(vec![
            ("source".to_owned(), self.source.to_value()),
            ("nodes".to_owned(), serde::Value::Array(nodes)),
        ])
    }

    /// Streams each node's row straight from the marking store, with no
    /// owned marking or edge list per node.
    fn write_json(&self, w: &mut serde::JsonWriter) {
        w.begin_object();
        w.field("source", &self.source);
        w.key("nodes");
        w.begin_array();
        for slot in &self.slots {
            w.begin_object();
            w.key("marking");
            w.begin_object();
            w.field("counts", self.store.resolve(slot.marking));
            w.end_object();
            w.field("edges", &slot.edges);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

impl<'de> Deserialize<'de> for Schedule {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let source: TransitionId = serde::derive::field(value, "Schedule", "source")?;
        let nodes: Vec<ScheduleNode> = serde::derive::field(value, "Schedule", "nodes")?;
        // Wire input is untrusted: ragged marking widths must surface as
        // a deserialization error, not as the marking store's fixed-
        // stride panic inside `from_parts`.
        if let Some(first) = nodes.first() {
            let width = first.marking.len();
            if nodes.iter().any(|n| n.marking.len() != width) {
                return Err(serde::Error::custom(
                    "Schedule nodes carry markings of different widths",
                ));
            }
        }
        Ok(Schedule::from_parts(source, nodes))
    }
}

impl Schedule {
    /// Assembles a schedule from its parts without validating the five
    /// properties (use [`Schedule::validate`] for that). Node 0 must be the
    /// distinguished node. Equal markings of different nodes are interned
    /// onto one slab slot.
    pub fn from_parts(source: TransitionId, nodes: Vec<ScheduleNode>) -> Schedule {
        let mut store = MarkingStore::new();
        let slots = nodes
            .into_iter()
            .map(|n| Slot {
                marking: store.intern(n.marking.as_slice()),
                edges: n.edges,
            })
            .collect();
        Schedule {
            source,
            store,
            slots,
        }
    }

    /// Assembles a schedule whose markings are already interned in
    /// `store`. Used by the search engines, which intern while
    /// reconstructing the retained tree instead of cloning markings into
    /// an intermediate [`ScheduleNode`] list. Every marking in `store`
    /// must be referenced by some node (queries such as
    /// [`Schedule::place_peak`] scan the store as the set of distinct
    /// node markings).
    pub fn from_interned(
        source: TransitionId,
        store: MarkingStore,
        nodes: Vec<(MarkingId, Vec<(TransitionId, NodeId)>)>,
    ) -> Schedule {
        let slots = nodes
            .into_iter()
            .map(|(marking, edges)| Slot { marking, edges })
            .collect();
        Schedule {
            source,
            store,
            slots,
        }
    }

    /// The uncontrollable source transition this schedule serves.
    pub fn source(&self) -> TransitionId {
        self.source
    }

    /// The distinguished node `r`.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.slots.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.slots.iter().map(|n| n.edges.len()).sum()
    }

    /// Iterator over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots.len()).map(|i| NodeId(i as u32))
    }

    /// The marking of node `id` as a raw counts row (one count per place,
    /// in place-id order), resolved against the schedule's store without
    /// cloning.
    pub fn marking(&self, id: NodeId) -> &[u32] {
        self.store.resolve(self.slots[id.index()].marking)
    }

    /// The marking of node `id` as an owned [`Marking`], for callers that
    /// need to store or display it (code generation); prefer
    /// [`Schedule::marking`] on query paths.
    pub fn marking_owned(&self, id: NodeId) -> Marking {
        Marking::from_counts(self.marking(id).iter().copied())
    }

    /// The interned marking handle of node `id`. Two nodes of this
    /// schedule carry equal markings iff their handles are equal.
    pub fn marking_id(&self, id: NodeId) -> MarkingId {
        self.slots[id.index()].marking
    }

    /// The hash-consed marking arena backing this schedule.
    pub fn store(&self) -> &MarkingStore {
        &self.store
    }

    /// Outgoing edges of node `id`.
    pub fn edges(&self, id: NodeId) -> &[(TransitionId, NodeId)] {
        &self.slots[id.index()].edges
    }

    /// All transitions involved in (associated with some edge of) the
    /// schedule.
    pub fn involved_transitions(&self) -> BTreeSet<TransitionId> {
        self.slots
            .iter()
            .flat_map(|n| n.edges.iter().map(|(t, _)| *t))
            .collect()
    }

    /// All places involved in the schedule: predecessors of involved
    /// transitions (Sec. 4.1).
    pub fn involved_places(&self, net: &PetriNet) -> BTreeSet<PlaceId> {
        self.involved_transitions()
            .iter()
            .flat_map(|t| net.preset(*t).iter().map(|(p, _)| *p))
            .collect()
    }

    /// Returns `true` if node `id` is an *await node*: its outgoing edges
    /// are associated with an uncontrollable source transition.
    pub fn is_await_node(&self, net: &PetriNet, id: NodeId) -> bool {
        let edges = self.edges(id);
        !edges.is_empty()
            && edges.iter().all(|(t, _)| {
                net.transition(*t).kind == qss_petri::TransitionKind::UncontrollableSource
            })
    }

    /// The await nodes of the schedule, in node order. The distinguished
    /// node is always an await node.
    pub fn await_nodes(&self, net: &PetriNet) -> Vec<NodeId> {
        self.node_ids()
            .filter(|id| self.is_await_node(net, *id))
            .collect()
    }

    /// Returns `true` if the schedule is single-source: every await node
    /// waits for this schedule's own source transition.
    pub fn is_single_source(&self, net: &PetriNet) -> bool {
        self.node_ids().all(|id| {
            self.edges(id).iter().all(|(t, _)| {
                net.transition(*t).kind != qss_petri::TransitionKind::UncontrollableSource
                    || *t == self.source
            })
        })
    }

    /// The maximum number of tokens held by place `p` over all nodes of the
    /// schedule. For places involved in the schedule this is the static
    /// buffer bound guaranteed by Proposition 4.2. Interning makes this a
    /// scan over *distinct* markings rather than all nodes.
    pub fn place_peak(&self, p: PlaceId) -> u32 {
        self.store
            .markings()
            .map(|m| m[p.index()])
            .max()
            .unwrap_or(0)
    }

    /// Checks the five defining properties of a schedule against `net`.
    ///
    /// # Errors
    /// Returns [`ScheduleError::InvalidSchedule`] describing the first
    /// violated property.
    pub fn validate(&self, net: &PetriNet) -> Result<()> {
        if self.slots.is_empty() {
            return Err(ScheduleError::InvalidSchedule(
                "schedule has no nodes".into(),
            ));
        }
        // Property 1: r carries the initial marking and has out-degree 1.
        let root = &self.slots[0];
        if self.store.resolve(root.marking) != net.initial_marking().as_slice() {
            return Err(ScheduleError::InvalidSchedule(
                "the distinguished node does not carry the initial marking".into(),
            ));
        }
        if root.edges.len() != 1 {
            return Err(ScheduleError::InvalidSchedule(format!(
                "the distinguished node must have out-degree 1, found {}",
                root.edges.len()
            )));
        }
        // Property 2: the edge out of r is the source transition.
        if root.edges[0].0 != self.source {
            return Err(ScheduleError::InvalidSchedule(
                "the edge out of the distinguished node is not the source transition".into(),
            ));
        }
        let ecs = EcsInfo::compute(net);
        let mut next: Vec<u32> = Vec::with_capacity(net.num_places());
        for (i, node) in self.slots.iter().enumerate() {
            let marking = self.store.resolve(node.marking);
            if node.edges.is_empty() {
                return Err(ScheduleError::InvalidSchedule(format!(
                    "node {i} has no outgoing edges"
                )));
            }
            // Property 3: the outgoing transitions form an ECS enabled at
            // the node's marking (all members present, all enabled).
            let out: BTreeSet<TransitionId> = node.edges.iter().map(|(t, _)| *t).collect();
            let ecs_id = ecs.ecs_of(node.edges[0].0);
            let members: BTreeSet<TransitionId> = ecs.members(ecs_id).iter().copied().collect();
            if out != members {
                return Err(ScheduleError::InvalidSchedule(format!(
                    "the edges out of node {i} do not form a complete ECS"
                )));
            }
            for (t, target) in &node.edges {
                if !net.is_enabled_at(*t, marking) {
                    return Err(ScheduleError::InvalidSchedule(format!(
                        "transition {t} on an edge out of node {i} is not enabled at the node's marking"
                    )));
                }
                // Property 4: firing consistency. Interning makes the
                // comparison an id check once the successor is looked up.
                next.clear();
                next.extend_from_slice(marking);
                net.fire_into_slice(*t, &mut next);
                if self.store.lookup(&next) != Some(self.slots[target.index()].marking) {
                    return Err(ScheduleError::InvalidSchedule(format!(
                        "edge {t} out of node {i} does not lead to the marking of its target node"
                    )));
                }
            }
        }
        // Property 5: every node is on a cycle through r — equivalently,
        // every node is reachable from r and r is reachable from every node.
        let n = self.slots.len();
        let forward = self.reachable_from(0);
        if forward.len() != n {
            return Err(ScheduleError::InvalidSchedule(
                "some node is not reachable from the distinguished node".into(),
            ));
        }
        // Reverse reachability to r.
        let mut rev_adj = vec![Vec::new(); n];
        for (i, node) in self.slots.iter().enumerate() {
            for (_, target) in &node.edges {
                rev_adj[target.index()].push(i);
            }
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &u in &rev_adj[v] {
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        if seen.iter().any(|s| !s) {
            return Err(ScheduleError::InvalidSchedule(
                "some node cannot reach the distinguished node".into(),
            ));
        }
        Ok(())
    }

    fn reachable_from(&self, start: usize) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(v) = stack.pop() {
            for (_, target) in &self.slots[v].edges {
                if seen.insert(target.index()) {
                    stack.push(target.index());
                }
            }
        }
        seen
    }

    /// Renders the schedule to Graphviz DOT format for inspection.
    pub fn to_dot(&self, net: &PetriNet) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph schedule {{");
        for id in self.node_ids() {
            let shape = if self.is_await_node(net, id) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(
                out,
                "  n{} [shape={shape}, label=\"{}\"];",
                id.0,
                format_marking(self.marking(id))
            );
        }
        for id in self.node_ids() {
            for (t, target) in self.edges(id) {
                let _ = writeln!(
                    out,
                    "  n{} -> n{} [label=\"{}\"];",
                    id.0,
                    target.0,
                    net.transition(*t).name
                );
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qss_petri::{NetBuilder, TransitionKind};

    /// src -> p -> consume, a two-node cyclic schedule.
    fn tiny() -> (PetriNet, TransitionId, TransitionId) {
        let mut b = NetBuilder::new("tiny");
        let p = b.place("p", 0);
        let src = b.transition("in", TransitionKind::UncontrollableSource);
        let t = b.transition("consume", TransitionKind::Internal);
        b.arc_t2p(src, p, 1);
        b.arc_p2t(p, t, 1);
        let net = b.build().unwrap();
        let src = net.transition_by_name("in").unwrap();
        let t = net.transition_by_name("consume").unwrap();
        (net, src, t)
    }

    fn tiny_schedule(net: &PetriNet, src: TransitionId, t: TransitionId) -> Schedule {
        let m0 = net.initial_marking();
        let m1 = net.fire(src, &m0).unwrap();
        Schedule::from_parts(
            src,
            vec![
                ScheduleNode {
                    marking: m0,
                    edges: vec![(src, NodeId(1))],
                },
                ScheduleNode {
                    marking: m1,
                    edges: vec![(t, NodeId(0))],
                },
            ],
        )
    }

    #[test]
    fn valid_schedule_passes_validation() {
        let (net, src, t) = tiny();
        let s = tiny_schedule(&net, src, t);
        s.validate(&net).unwrap();
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.num_edges(), 2);
        assert!(s.is_single_source(&net));
        assert_eq!(s.await_nodes(&net), vec![NodeId(0)]);
        assert_eq!(s.involved_transitions().len(), 2);
        let p = net.place_by_name("p").unwrap();
        assert!(s.involved_places(&net).contains(&p));
        assert_eq!(s.place_peak(p), 1);
    }

    #[test]
    fn wrong_root_marking_is_rejected() {
        let (net, src, t) = tiny();
        let good = tiny_schedule(&net, src, t);
        // Rebuild with a corrupted root marking.
        let mut nodes: Vec<ScheduleNode> = good
            .node_ids()
            .map(|id| ScheduleNode {
                marking: good.marking_owned(id),
                edges: good.edges(id).to_vec(),
            })
            .collect();
        nodes[0].marking = Marking::from_counts([5]);
        let s = Schedule::from_parts(src, nodes);
        assert!(matches!(
            s.validate(&net),
            Err(ScheduleError::InvalidSchedule(_))
        ));
    }

    #[test]
    fn equal_markings_share_one_interned_slot() {
        let (net, src, t) = tiny();
        let m0 = net.initial_marking();
        let m1 = net.fire(src, &m0).unwrap();
        // A two-cycle schedule revisiting the same two markings: four
        // nodes, two distinct markings, two slab slots.
        let s = Schedule::from_parts(
            src,
            vec![
                ScheduleNode {
                    marking: m0.clone(),
                    edges: vec![(src, NodeId(1))],
                },
                ScheduleNode {
                    marking: m1.clone(),
                    edges: vec![(t, NodeId(2))],
                },
                ScheduleNode {
                    marking: m0.clone(),
                    edges: vec![(src, NodeId(3))],
                },
                ScheduleNode {
                    marking: m1,
                    edges: vec![(t, NodeId(0))],
                },
            ],
        );
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.store().len(), 2);
        assert_eq!(s.marking_id(NodeId(0)), s.marking_id(NodeId(2)));
        assert_eq!(s.marking_id(NodeId(1)), s.marking_id(NodeId(3)));
        assert_ne!(s.marking_id(NodeId(0)), s.marking_id(NodeId(1)));
        assert_eq!(s.marking(NodeId(2)), m0.as_slice());
    }

    #[test]
    fn incomplete_ecs_is_rejected() {
        // A choice place with two transitions in one ECS: listing only one
        // edge violates property 3.
        let mut b = NetBuilder::new("choice");
        let p = b.place("p", 0);
        let q = b.place("q", 0);
        let src = b.transition("in", TransitionKind::UncontrollableSource);
        let t1 = b.transition("yes", TransitionKind::Internal);
        let t2 = b.transition("no", TransitionKind::Internal);
        let back = b.transition("back", TransitionKind::Internal);
        b.arc_t2p(src, p, 1);
        b.arc_p2t(p, t1, 1);
        b.arc_p2t(p, t2, 1);
        b.arc_t2p(t1, q, 1);
        b.arc_t2p(t2, q, 1);
        b.arc_p2t(q, back, 1);
        let net = b.build().unwrap();
        let src = net.transition_by_name("in").unwrap();
        let t1 = net.transition_by_name("yes").unwrap();
        let back = net.transition_by_name("back").unwrap();
        let m0 = net.initial_marking();
        let m1 = net.fire(src, &m0).unwrap();
        let m2 = net.fire(t1, &m1).unwrap();
        let s = Schedule::from_parts(
            src,
            vec![
                ScheduleNode {
                    marking: m0,
                    edges: vec![(src, NodeId(1))],
                },
                ScheduleNode {
                    marking: m1,
                    edges: vec![(t1, NodeId(2))], // missing t2!
                },
                ScheduleNode {
                    marking: m2,
                    edges: vec![(back, NodeId(0))],
                },
            ],
        );
        let err = s.validate(&net).unwrap_err();
        assert!(err.to_string().contains("complete ECS"));
    }

    #[test]
    fn broken_cycle_is_rejected() {
        let (net, src, t) = tiny();
        let m0 = net.initial_marking();
        let m1 = net.fire(src, &m0).unwrap();
        // Nodes 1 and 2 cycle among themselves and never return to the
        // root, violating property 5 (all other properties hold).
        let s = Schedule::from_parts(
            src,
            vec![
                ScheduleNode {
                    marking: m0.clone(),
                    edges: vec![(src, NodeId(1))],
                },
                ScheduleNode {
                    marking: m1,
                    edges: vec![(t, NodeId(2))],
                },
                ScheduleNode {
                    marking: m0,
                    edges: vec![(src, NodeId(1))],
                },
            ],
        );
        let err = s.validate(&net).unwrap_err();
        assert!(err.to_string().contains("cannot reach"));
    }

    #[test]
    fn dot_output_mentions_transitions() {
        let (net, src, t) = tiny();
        let s = tiny_schedule(&net, src, t);
        let dot = s.to_dot(&net);
        assert!(dot.contains("consume"));
        assert!(dot.contains("doublecircle"));
    }
}
