//! Termination conditions for pruning the schedule search (Sec. 4.4).
//!
//! Two conditions from the paper are provided:
//!
//! * **place bounds** — a marking is pruned as soon as any place exceeds a
//!   pre-defined bound (the approach of Strehl et al. that the paper
//!   compares against), and
//! * **irrelevant markings** — a marking is pruned if it covers an
//!   ancestor marking on the current search path and every place where it
//!   strictly exceeds the ancestor has already reached its *degree*
//!   (saturation). This criterion adapts to the net structure and needs no
//!   a-priori bounds.
//!
//! Declared channel bounds in the net (user-specified `Place::bound`) are
//! always respected in addition to the selected criterion.

use qss_petri::{
    place_count_hash, place_degree, Marking, MarkingId, MarkingStore, PetriNet, PlaceId,
    TransitionId,
};
use serde::{Deserialize, Serialize};

/// Which pruning criterion to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerminationKind {
    /// The irrelevant-marking criterion based on place degrees
    /// (Definition 4.5).
    Irrelevance,
    /// Prune any marking in which some place holds more than `default`
    /// tokens (unless the place declares its own bound, which then
    /// applies).
    PlaceBounds {
        /// Uniform bound applied to places without a declared bound.
        default: u32,
    },
}

/// A termination condition bound to a specific net.
#[derive(Debug, Clone)]
pub struct Termination {
    kind: TerminationKind,
    degrees: Vec<u32>,
    declared_bounds: Vec<Option<u32>>,
}

impl Termination {
    /// Builds a termination condition of the given kind for `net`.
    pub fn new(net: &PetriNet, kind: TerminationKind) -> Self {
        let degrees = net.place_ids().map(|p| place_degree(net, p)).collect();
        let declared_bounds = net.place_ids().map(|p| net.place(p).bound).collect();
        Termination {
            kind,
            degrees,
            declared_bounds,
        }
    }

    /// Convenience constructor for the irrelevance criterion.
    pub fn irrelevance(net: &PetriNet) -> Self {
        Termination::new(net, TerminationKind::Irrelevance)
    }

    /// Convenience constructor for uniform place bounds.
    pub fn place_bounds(net: &PetriNet, default: u32) -> Self {
        Termination::new(net, TerminationKind::PlaceBounds { default })
    }

    /// The criterion kind.
    pub fn kind(&self) -> TerminationKind {
        self.kind
    }

    /// The degree of place `p` used by the irrelevance criterion.
    pub fn degree(&self, p: PlaceId) -> u32 {
        self.degrees[p.index()]
    }

    /// Returns `true` if the search should *not* explore beyond a node
    /// carrying `marking`, given the markings of its proper ancestors on
    /// the current search path (root first).
    pub fn should_prune(&self, marking: &Marking, ancestors: &[&Marking]) -> bool {
        // Declared bounds always apply (blocking-write semantics).
        for (i, bound) in self.declared_bounds.iter().enumerate() {
            if let Some(b) = bound {
                if marking.tokens(PlaceId::new(i)) > *b {
                    return true;
                }
            }
        }
        match self.kind {
            TerminationKind::PlaceBounds { default } => {
                marking.as_slice().iter().enumerate().any(|(i, &tokens)| {
                    let bound = self.declared_bounds[i].unwrap_or(default);
                    tokens > bound
                })
            }
            TerminationKind::Irrelevance => self.is_irrelevant(marking, ancestors),
        }
    }

    /// Definition 4.5: `marking` is irrelevant with respect to the path if
    /// some ancestor marking `M` exists such that (a) `marking` is
    /// reachable from `M` (guaranteed because `M` is an ancestor on the
    /// search path), (b) no place has fewer tokens in `marking` than in
    /// `M`, and (c) every place that gained tokens was already *saturated*
    /// in `M`, i.e. held at least its degree there.
    ///
    /// Condition (c) follows the paper's Figure 7 discussion ("the marking
    /// is not irrelevant because in all the preceding markings … the place
    /// is not saturated"): accumulating further tokens is only pointless if
    /// the place had already reached its degree before the growth, which is
    /// exactly what allows the search to saturate a place up to its degree
    /// when a successor needs several tokens (Figure 4(a)).
    pub fn is_irrelevant(&self, marking: &Marking, ancestors: &[&Marking]) -> bool {
        ancestors.iter().any(|m| {
            marking.covers(m)
                && marking != *m
                && marking
                    .strictly_greater_places(m)
                    .iter()
                    .all(|p| m.tokens(*p) >= self.degrees[p.index()])
        })
    }
}

/// Incremental per-path search state: the scratch marking, cumulative
/// transition firing counts, an interned index over on-path ancestors,
/// and two over-limit counters. The EP search drives it with strictly
/// LIFO `fire`/`push_entry` … `pop_entry`/`unfire` calls. A firing costs
/// `O(changed places)`, and so do the per-node questions "which ancestor
/// carries an equal marking?" and "how often has each transition fired
/// on this path?". "Should this marking be pruned?" costs `O(1)` too,
/// except while some place is above its degree (see below).
///
/// # The over-degree gate
///
/// Definition 4.5 prunes a marking `C` iff some proper on-path ancestor
/// `M ≠ C` satisfies: `C` covers `M` and every place where `C` strictly
/// exceeds `M` was already saturated in `M` (held at least its degree).
/// Per place that is a *box* condition:
///
/// ```text
/// M(p) ∈ [min(C(p), degree(p)), C(p)]
/// ```
///
/// On a place with `C(p) ≤ degree(p)` the box is the single point
/// `C(p)`. So while no place of `C` is above its degree, only ancestors
/// equal to `C` lie in every box, and those are excluded: `C` is not
/// irrelevant. The tracker counts the places above their degree
/// (`over_deg`) as it counts the places above their bound (`bound_over`),
/// in `O(1)` per changed place, and answers from that counter alone while
/// it is zero. FlowC systems searched with the default heuristics almost
/// never leave that state. When it is not zero,
/// [`PathTracker::should_prune`] scans the path entries, newest first. An
/// entry must lie in the box on every over-degree place and equal `C` on
/// every other place before the full box test runs on its marking row.
/// The first test reads a per-entry column of each over-degree place; the
/// second compares the entry's additive marking hash minus those places'
/// terms with `C`'s. That costs `O(depth × over-degree places)` per query
/// plus `O(places)` per query and per candidate, and a column is built
/// in `O(depth)` the first time its place is over its degree.
///
/// # Interned ancestors
///
/// Every pushed path entry's marking is hash-consed into a
/// [`MarkingStore`] (typically the per-net store cached by the search
/// context, so the initial marking is shared). The equal-ancestor index
/// maps a `MarkingId` — not a raw hash — to the number of path entries
/// carrying that marking and the first of them, which makes the
/// equal-marking-ancestor query a store probe plus one array index:
/// interning has already established exact equality, so no per-place
/// verification remains and hash collisions cannot surface here.
#[derive(Debug, Clone)]
pub struct PathTracker {
    kind: TerminationKind,
    degrees: Vec<u32>,
    /// Effective bound per place: the declared bound if any, else the
    /// uniform default in `PlaceBounds` mode, else `u32::MAX` (no bound).
    eff_bounds: Vec<u32>,
    /// The scratch marking `C` of the node currently being explored.
    marking: Marking,
    /// Incremental [`Marking::path_hash`] of `C`.
    hash: u64,
    /// Cumulative firing count per transition along the current path.
    fired: Vec<u64>,
    /// Per path entry: the search-tree node it corresponds to.
    node_at: Vec<usize>,
    /// Number of places with `C(p) > eff_bounds[p]`.
    bound_over: usize,
    /// Number of places with `C(p) > degrees[p]`.
    over_deg: usize,
    /// Per place that has been above its degree at a prune query: its
    /// count and [`place_count_hash`] at every path entry, kept in step
    /// with the path from then on. The scan reads these columns instead of
    /// one marking row per entry.
    columns: Vec<(PlaceId, Vec<(u32, u64)>)>,
    /// Per place: the index of its column, if it has one.
    column_of: Vec<Option<usize>>,
    /// Hash-consed markings of every path entry ever pushed.
    store: MarkingStore,
    /// Per path entry: the interned id of its marking.
    entry_ids: Vec<MarkingId>,
    /// Per interned marking (dense by [`MarkingId`] index): how many path
    /// entries currently carry it. Ids are dense, so the ancestor query
    /// is an array index instead of a hash probe.
    entry_count_by_id: Vec<u32>,
    /// Per interned marking: the minimal (closest to the root) path entry
    /// carrying it. Pushes and pops are strictly LIFO, so the value set
    /// when the count left zero stays correct until it returns to zero.
    first_entry_by_id: Vec<u32>,
    /// Memoized store lookup of the current marking (guarded by its
    /// hash): [`PathTracker::first_equal_ancestor`] resolves the id,
    /// [`PathTracker::push_entry`] reuses it, any marking change clears
    /// it.
    cached_lookup: Option<(u64, Option<MarkingId>)>,
}

impl PathTracker {
    /// Builds a tracker for `net` with the root entry (the initial
    /// marking, tree node 0) already on the path, interning markings into
    /// a fresh store.
    pub fn new(net: &PetriNet, kind: TerminationKind) -> Self {
        PathTracker::with_store(net, kind, MarkingStore::new())
    }

    /// Like [`PathTracker::new`] but interning into `store` (usually the
    /// per-net store cloned from a search context, which already holds the
    /// initial marking).
    pub fn with_store(net: &PetriNet, kind: TerminationKind, store: MarkingStore) -> Self {
        let degrees: Vec<u32> = net.place_ids().map(|p| place_degree(net, p)).collect();
        let eff_bounds: Vec<u32> = net
            .place_ids()
            .map(|p| match (net.place(p).bound, kind) {
                (Some(b), _) => b,
                (None, TerminationKind::PlaceBounds { default }) => default,
                (None, TerminationKind::Irrelevance) => u32::MAX,
            })
            .collect();
        let marking = net.initial_marking();
        let hash = marking.path_hash();
        let count_over = |limits: &[u32]| {
            marking
                .as_slice()
                .iter()
                .zip(limits)
                .filter(|(count, limit)| count > limit)
                .count()
        };
        let bound_over = count_over(&eff_bounds);
        let over_deg = count_over(&degrees);
        let degrees_len = degrees.len();
        let mut store = store;
        let root_id = store.intern_hashed(hash, marking.as_slice());
        let mut entry_count_by_id = vec![0u32; store.len()];
        let first_entry_by_id = vec![0u32; store.len()];
        entry_count_by_id[root_id.index()] = 1;
        PathTracker {
            kind,
            degrees,
            eff_bounds,
            marking,
            hash,
            fired: vec![0; net.num_transitions()],
            node_at: vec![0],
            bound_over,
            over_deg,
            columns: Vec::new(),
            column_of: vec![None; degrees_len],
            store,
            entry_ids: vec![root_id],
            entry_count_by_id,
            first_entry_by_id,
            cached_lookup: None,
        }
    }

    /// The marking of the node currently being explored.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// Firing counts of every transition along the current path,
    /// including the transition entering the current node.
    pub fn fired(&self) -> &[u64] {
        &self.fired
    }

    /// The tree node behind path entry `depth`.
    pub fn node_at(&self, depth: usize) -> usize {
        self.node_at[depth]
    }

    /// Number of entries on the path (= proper ancestors of the node
    /// whose marking is currently in the tracker, before `push_entry`).
    pub fn len(&self) -> usize {
        self.node_at.len()
    }

    /// `true` if the path holds no entries (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.node_at.is_empty()
    }

    /// Applies `t` to the scratch marking and updates every incremental
    /// structure. Call when the search descends along `t`.
    pub fn fire(&mut self, net: &PetriNet, t: TransitionId) {
        self.fired[t.index()] += 1;
        for &(p, delta) in net.changed_places(t) {
            self.place_changed(p, delta);
        }
    }

    /// Reverts a previous [`PathTracker::fire`] of `t`. Calls must be
    /// strictly LIFO with respect to `fire`.
    pub fn unfire(&mut self, net: &PetriNet, t: TransitionId) {
        self.fired[t.index()] -= 1;
        for &(p, delta) in net.changed_places(t) {
            self.place_changed(p, -delta);
        }
    }

    fn place_changed(&mut self, p: PlaceId, delta: i64) {
        self.cached_lookup = None;
        let old = self.marking.tokens(p);
        self.marking.apply_delta(p, delta);
        let new = self.marking.tokens(p);
        self.hash = self
            .hash
            .wrapping_sub(place_count_hash(p, old))
            .wrapping_add(place_count_hash(p, new));
        update_over(&mut self.bound_over, self.eff_bounds[p.index()], old, new);
        update_over(&mut self.over_deg, self.degrees[p.index()], old, new);
    }

    /// Pushes the node whose marking is currently in the tracker as a new
    /// path entry for tree node `node`.
    pub fn push_entry(&mut self, node: usize) {
        let depth = self.node_at.len() as u32;
        self.node_at.push(node);
        // Reuse the id `first_equal_ancestor` just resolved for this
        // marking (the search always queries before pushing); intern
        // otherwise.
        let id = match self.cached_lookup.take() {
            Some((hash, Some(id))) if hash == self.hash => id,
            _ => self.store.intern_hashed(self.hash, self.marking.as_slice()),
        };
        self.entry_ids.push(id);
        for (p, column) in &mut self.columns {
            let count = self.marking.tokens(*p);
            column.push((count, place_count_hash(*p, count)));
        }
        if self.entry_count_by_id.len() < self.store.len() {
            self.entry_count_by_id.resize(self.store.len(), 0);
            self.first_entry_by_id.resize(self.store.len(), 0);
        }
        let count = &mut self.entry_count_by_id[id.index()];
        if *count == 0 {
            self.first_entry_by_id[id.index()] = depth;
        }
        *count += 1;
    }

    /// Pops the top path entry. Calls must be strictly LIFO with respect
    /// to [`PathTracker::push_entry`]. The entry's marking stays interned
    /// in the store (interning is append-only); only the on-path ancestor
    /// index forgets it.
    pub fn pop_entry(&mut self) {
        self.node_at.pop().expect("pop_entry on an empty path");
        let id = self.entry_ids.pop().expect("entry id stack underflow");
        self.entry_count_by_id[id.index()] -= 1;
        for (_, column) in &mut self.columns {
            column.pop();
        }
    }

    /// The minimal (closest to the root) proper on-path ancestor whose
    /// marking equals the current marking, if any. One store probe
    /// (reusing the incrementally maintained hash) plus an array index:
    /// interning already established exact equality, so no per-entry
    /// verification remains. The resolved id is memoized for the
    /// [`PathTracker::push_entry`] that typically follows.
    pub fn first_equal_ancestor(&mut self) -> Option<usize> {
        let id = match self.cached_lookup {
            Some((hash, id)) if hash == self.hash => id,
            _ => {
                let id = self.store.lookup_hashed(self.hash, self.marking.as_slice());
                self.cached_lookup = Some((self.hash, id));
                id
            }
        }?;
        let on_path = self
            .entry_count_by_id
            .get(id.index())
            .is_some_and(|&n| n > 0);
        on_path.then(|| self.first_entry_by_id[id.index()] as usize)
    }

    /// Whether the node whose marking is currently in the tracker should
    /// be pruned. Matches [`Termination::should_prune`] over the same path
    /// exactly.
    pub fn should_prune(&mut self) -> bool {
        if self.bound_over > 0 {
            return true;
        }
        match self.kind {
            // Every effective bound is already folded into `bound_over`.
            TerminationKind::PlaceBounds { .. } => false,
            // With no place above its degree every box is a single point,
            // so only equal markings could qualify, and they are excluded.
            TerminationKind::Irrelevance => self.over_deg > 0 && self.has_saturated_ancestor(),
        }
    }

    /// Whether some on-path entry `M ≠ C` lies in `C`'s box on every
    /// place: the column and hash tests of the gate (see the type docs),
    /// then the full box test on the marking row, which also rules out
    /// hash collisions.
    fn has_saturated_ancestor(&mut self) -> bool {
        let over: Vec<PlaceId> = (0..self.degrees.len())
            .map(PlaceId::new)
            .filter(|&p| self.marking.tokens(p) > self.degrees[p.index()])
            .collect();
        let cols: Vec<usize> = over.iter().map(|&p| self.column(p)).collect();
        let current = self.marking.as_slice();
        let target = over.iter().fold(self.hash, |h, &p| {
            h.wrapping_sub(place_count_hash(p, current[p.index()]))
        });
        // Per over-degree place: its column and its box `[degree, C(p)]`.
        let boxes: Vec<_> = over
            .iter()
            .zip(cols)
            .map(|(&p, col)| {
                let column = self.columns[col].1.as_slice();
                (column, self.degrees[p.index()], current[p.index()])
            })
            .collect();
        // Newest first: when a witness exists it is usually a recent
        // ancestor, and the scan stops there.
        self.entry_ids.iter().enumerate().rev().any(|(entry, &id)| {
            let mut hash = self.store.hash_of(id);
            for &(column, lo, hi) in &boxes {
                let (count, term) = column[entry];
                if count < lo || count > hi {
                    return false;
                }
                hash = hash.wrapping_sub(term);
            }
            let m = self.store.resolve(id);
            hash == target
                && m != current
                && m.iter()
                    .zip(current)
                    .zip(&self.degrees)
                    .all(|((&m, &c), &deg)| c.min(deg) <= m && m <= c)
        })
    }

    /// The index of `p`'s column, filled from the path's marking rows the
    /// first time `p` is asked for.
    fn column(&mut self, p: PlaceId) -> usize {
        if let Some(col) = self.column_of[p.index()] {
            return col;
        }
        let counts = self
            .entry_ids
            .iter()
            .map(|&id| {
                let count = self.store.resolve(id)[p.index()];
                (count, place_count_hash(p, count))
            })
            .collect();
        self.columns.push((p, counts));
        self.column_of[p.index()] = Some(self.columns.len() - 1);
        self.columns.len() - 1
    }
}

/// Keeps `count` (the number of places above their limit) up to date
/// when one place with limit `limit` goes from `old` to `new` tokens.
fn update_over(count: &mut usize, limit: u32, old: u32, new: u32) {
    match (old > limit, new > limit) {
        (false, true) => *count += 1,
        (true, false) => *count -= 1,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qss_petri::{NetBuilder, TransitionKind};

    fn net_with_weights() -> PetriNet {
        let mut b = NetBuilder::new("w");
        let p = b.place("p", 0);
        let q = b.place("q", 0);
        let a = b.transition("a", TransitionKind::UncontrollableSource);
        let c = b.transition("c", TransitionKind::Internal);
        b.arc_t2p(a, p, 2);
        b.arc_p2t(p, c, 3);
        b.arc_t2p(c, q, 1);
        b.build().unwrap()
    }

    #[test]
    fn place_bound_pruning() {
        let net = net_with_weights();
        let term = Termination::place_bounds(&net, 3);
        let ok = Marking::from_counts([3, 0]);
        let too_many = Marking::from_counts([4, 0]);
        assert!(!term.should_prune(&ok, &[]));
        assert!(term.should_prune(&too_many, &[]));
        assert_eq!(term.kind(), TerminationKind::PlaceBounds { default: 3 });
    }

    #[test]
    fn declared_bounds_override_default_and_apply_to_irrelevance() {
        let mut b = NetBuilder::new("bounded");
        let p = b.place("p", 0);
        b.set_place_bound(p, Some(1));
        let t = b.transition("t", TransitionKind::UncontrollableSource);
        b.arc_t2p(t, p, 1);
        let net = b.build().unwrap();
        let term = Termination::irrelevance(&net);
        assert!(term.should_prune(&Marking::from_counts([2]), &[]));
        assert!(!term.should_prune(&Marking::from_counts([1]), &[]));
        let term = Termination::place_bounds(&net, 100);
        assert!(term.should_prune(&Marking::from_counts([2]), &[]));
    }

    #[test]
    fn irrelevance_requires_covering_and_saturation() {
        let net = net_with_weights();
        // degree(p) = 2 + 3 - 1 = 4, degree(q) = 1 + 0 ... = max(1+1-1,0)=1
        let term = Termination::irrelevance(&net);
        assert_eq!(term.degree(PlaceId::new(0)), 4);
        // Growth from an unsaturated ancestor (p = 2 < degree 4) is useful.
        let ancestor = Marking::from_counts([2, 0]);
        let m5 = Marking::from_counts([5, 0]);
        assert!(!term.is_irrelevant(&m5, &[&ancestor]));
        // Growth from a saturated ancestor (p = 4 >= degree 4) is pruned.
        let saturated = Marking::from_counts([4, 0]);
        assert!(term.is_irrelevant(&m5, &[&saturated]));
        // Equal markings are not "irrelevant" (that case is handled by the
        // entering-point check in the search).
        assert!(!term.is_irrelevant(&saturated, &[&saturated]));
        // Not covering (q decreased) is never irrelevant.
        let anc2 = Marking::from_counts([4, 1]);
        assert!(!term.is_irrelevant(&m5, &[&anc2]));
    }

    /// Drives a [`PathTracker`] and the recompute-from-scratch
    /// [`Termination`] down the same firing path, asserting that the
    /// incremental prune/equal answers match the oracle at every step.
    /// Returns how many path positions were pruned.
    fn assert_tracker_matches_oracle(
        net: &PetriNet,
        kind: TerminationKind,
        path: &[qss_petri::TransitionId],
    ) -> usize {
        let term = Termination::new(net, kind);
        let mut tracker = PathTracker::new(net, kind);
        let mut markings = vec![net.initial_marking()];
        let mut pruned = 0;
        for &t in path {
            tracker.fire(net, t);
            let current = net.fire_unchecked(t, markings.last().unwrap());
            let ancestors: Vec<&Marking> = markings.iter().collect();
            let oracle_equal = markings.iter().position(|m| *m == current);
            assert_eq!(
                tracker.first_equal_ancestor(),
                oracle_equal,
                "minimal equal ancestor"
            );
            let prune = term.should_prune(&current, &ancestors);
            assert_eq!(
                tracker.should_prune(),
                prune,
                "prune decision at path position {}",
                markings.len()
            );
            pruned += usize::from(prune);
            tracker.push_entry(markings.len());
            markings.push(current);
        }
        // Unwind completely; the tracker must return to its initial state.
        for &t in path.iter().rev() {
            tracker.pop_entry();
            tracker.unfire(net, t);
        }
        assert_eq!(tracker.marking(), &net.initial_marking());
        assert_eq!(tracker.len(), 1);
        assert!(tracker.fired().iter().all(|&f| f == 0));
        pruned
    }

    #[test]
    fn tracker_matches_oracle_on_divider_path() {
        // a -(1)-> p1 -(3)-> b -> p2 -> c: saturate p1, drain, repeat.
        let mut bl = NetBuilder::new("div");
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::Internal);
        let c = bl.transition("c", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p1, b, 3);
        bl.arc_t2p(b, p2, 1);
        bl.arc_p2t(p2, c, 1);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        let b = net.transition_by_name("b").unwrap();
        let c = net.transition_by_name("c").unwrap();
        let path = [a, a, a, b, c, a, a, a, b, c, a];
        assert_tracker_matches_oracle(&net, TerminationKind::Irrelevance, &path);
        assert_tracker_matches_oracle(&net, TerminationKind::PlaceBounds { default: 4 }, &path);
    }

    #[test]
    fn tracker_prunes_saturated_growth_like_oracle() {
        let net = net_with_weights();
        let a = net.transition_by_name("a").unwrap();
        // degree(p) = 4; firing `a` (produces 2) three times reaches 6,
        // covering the saturated 4-token ancestor: both must prune there.
        assert_tracker_matches_oracle(&net, TerminationKind::Irrelevance, &[a, a, a, a]);
    }

    #[test]
    fn tracker_matches_oracle_on_deep_over_degree_path() {
        // a -(3)-> p -(2)-> b: degree(p) = 3 + 2 - 1 = 4, so one firing of
        // `a` from 3 or more lifts p past its degree. f -(3)-> q lifts q
        // (degree 2) past its degree with the first firing. d and e
        // toggle a program-counter place at every other step meanwhile.
        let mut bl = NetBuilder::new("over_degree");
        let [p, q, pc0, pc1] =
            ["p", "q", "pc0", "pc1"].map(|name| bl.place(name, u32::from(name == "pc0")));
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let [b, f, d, e] = ["b", "f", "d", "e"].map(|n| bl.transition(n, TransitionKind::Internal));
        for (t, place, weight) in [(a, p, 3), (f, q, 3), (d, pc1, 1), (e, pc0, 1)] {
            bl.arc_t2p(t, place, weight);
        }
        for (place, t, weight) in [(p, b, 2), (pc0, d, 1), (pc1, e, 1)] {
            bl.arc_p2t(place, t, weight);
        }
        let net = bl.build().unwrap();
        let term = Termination::irrelevance(&net);
        assert_eq!((term.degree(p), term.degree(q)), (4, 2));
        let toggles = |n: usize| [d, e].repeat(n);
        // p: 3, 1, 4 (its degree), 7 (over: irrelevant against p = 4), 5,
        // 8, 6, 4, 2. While p holds 8, q goes 3, 6: the marking with q = 6
        // is irrelevant against the one with q = 3 and the same p.
        let path: Vec<TransitionId> = [
            vec![a, b, a],
            toggles(10),
            vec![a],
            toggles(10),
            vec![b],
            toggles(1),
            vec![a, f],
            toggles(2),
            vec![f],
            toggles(1),
            vec![b, b],
            toggles(1),
            vec![b],
            toggles(1),
        ]
        .concat();
        let pruned = assert_tracker_matches_oracle(&net, TerminationKind::Irrelevance, &path);
        assert_eq!(pruned, 28);
        let pruned =
            assert_tracker_matches_oracle(&net, TerminationKind::PlaceBounds { default: 5 }, &path);
        // p = 7 or 8, or q = 6.
        assert_eq!(pruned, 37);
    }

    #[test]
    fn tracker_respects_declared_bounds() {
        let mut b = NetBuilder::new("bounded");
        let p = b.place("p", 0);
        b.set_place_bound(p, Some(1));
        let t = b.transition("t", TransitionKind::UncontrollableSource);
        b.arc_t2p(t, p, 1);
        let net = b.build().unwrap();
        let t = net.transition_by_name("t").unwrap();
        assert_tracker_matches_oracle(&net, TerminationKind::Irrelevance, &[t, t]);
        let mut tracker = PathTracker::new(&net, TerminationKind::Irrelevance);
        tracker.fire(&net, t);
        tracker.push_entry(1);
        tracker.fire(&net, t);
        assert!(
            tracker.should_prune(),
            "2 tokens exceed the declared bound 1"
        );
    }

    #[test]
    fn irrelevance_checks_every_ancestor() {
        let net = net_with_weights();
        let term = Termination::irrelevance(&net);
        let a1 = Marking::from_counts([0, 0]);
        let a2 = Marking::from_counts([5, 1]);
        let m = Marking::from_counts([6, 1]);
        // Not irrelevant w.r.t. a1 (p was far below its degree there), but
        // irrelevant w.r.t. a2 (p was already saturated at 5 >= 4).
        assert!(!term.is_irrelevant(&m, &[&a1]));
        assert!(term.is_irrelevant(&m, &[&a1, &a2]));
        assert!(term.should_prune(&m, &[&a1, &a2]));
        assert!(!term.should_prune(&m, &[&a1]));
    }
}
