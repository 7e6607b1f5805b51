//! Hash-consed marking storage on a flat fixed-width slab.
//!
//! A [`MarkingStore`] is an append-only arena that *interns* markings:
//! every distinct token vector is stored exactly once and identified by a
//! compact [`MarkingId`] handle. Equality of interned markings is equality
//! of the handles — an integer comparison — and hashing a handle hashes
//! four bytes instead of a whole token vector. The reachability explorer,
//! the EP schedule search and schedule graphs all store `MarkingId`s and
//! resolve them against one store, so a marking visited a thousand times
//! costs one slab slot.
//!
//! # Flat-slab layout
//!
//! All rows live in **one** backing `Vec<u32>` with a fixed *stride* (the
//! place count of the net, fixed by the first interned marking): row `i`
//! occupies `slab[i·stride .. (i+1)·stride]`. There is no per-marking
//! `Vec`, so interning allocates nothing beyond amortized slab growth, the
//! rows are contiguous in id order (cache-friendly scans, trivially
//! snapshot-able by cloning one vector), and [`MarkingStore::resolve`]
//! hands out `&[u32]` row slices.
//!
//! Successor derivation ([`MarkingStore::fire`] / [`MarkingStore::unfire`])
//! uses a *reserve-then-commit* protocol: the source row is copied to the
//! slab tail, the transition's net delta and the incremental hash update
//! are applied **in the tail**, and the candidate is then either rolled
//! back (`truncate`, when an equal row already exists) or committed by
//! linking it into the dedup index — zero temporary allocation either way.
//!
//! # Handle discipline
//!
//! Ids are dense (`0..len()`) in interning order. A handle is only
//! meaningful together with the store that produced it; the caller is
//! responsible for not mixing handles across stores (the same discipline
//! [`Marking`](crate::Marking) demands for nets). Debug builds assert that resolved ids
//! are in range, which catches handles minted by a foreign store with a
//! different stride or fewer rows; equal-stride foreign handles are
//! indistinguishable by construction.
//!
//! Markings are deduplicated through the same incremental
//! [`Marking::path_hash`](crate::Marking::path_hash) the schedule search maintains, so callers that
//! already track the hash of a mutating scratch marking can look it up
//! without rehashing ([`MarkingStore::lookup_hashed`]). Hash collisions
//! are handled by exact comparison against the slab: two different
//! markings can never receive the same id.

use crate::fx::FxHashMap;
use crate::ids::TransitionId;
use crate::marking::{marking_hash, place_count_hash};
use crate::net::PetriNet;
use serde::{Deserialize, Serialize};

/// Compact handle of a marking interned in a [`MarkingStore`].
///
/// Ids are dense (`0..store.len()`) in interning order. A handle is only
/// meaningful together with the store that produced it (see the module
/// docs on handle discipline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MarkingId(pub u32);

impl MarkingId {
    /// Raw slab index of the marking.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interning arena for markings, backed by one flat `u32` slab.
///
/// ```
/// use qss_petri::MarkingStore;
/// let mut store = MarkingStore::new();
/// let a = store.intern(&[1, 0]);
/// let b = store.intern(&[1, 0]);
/// let c = store.intern(&[0, 1]);
/// assert_eq!(a, b); // equal markings share one id (and one slab row)
/// assert_ne!(a, c);
/// assert_eq!(store.resolve(a), &[1, 0]);
/// assert_eq!(store.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MarkingStore {
    /// Row width (the net's place count), fixed by the first intern;
    /// `STRIDE_UNSET` until then.
    stride: usize,
    /// Number of committed rows.
    num: usize,
    /// The slab: row `i` occupies `slab[i * stride..(i + 1) * stride]`.
    slab: Vec<u32>,
    /// Per committed row: its [`marking_hash`], kept so successor
    /// derivation updates the hash incrementally per changed place.
    hashes: Vec<u64>,
    /// `marking_hash` → most recently interned id with that hash. Further
    /// ids sharing the hash are chained through `same_hash`, so an intern
    /// costs one map operation and no per-bucket allocation.
    index: FxHashMap<u64, MarkingId>,
    /// Per id: the previously interned id with the same hash (intrusive
    /// collision chain; `u32::MAX` terminates).
    same_hash: Vec<u32>,
}

/// Terminator of the `same_hash` collision chains.
const NO_ID: u32 = u32::MAX;
/// Sentinel stride of a store that has not interned anything yet.
const STRIDE_UNSET: usize = usize::MAX;

impl Default for MarkingStore {
    fn default() -> Self {
        MarkingStore::new()
    }
}

impl MarkingStore {
    /// Creates an empty store; the stride is fixed by the first intern.
    pub fn new() -> Self {
        MarkingStore {
            stride: STRIDE_UNSET,
            num: 0,
            slab: Vec::new(),
            hashes: Vec::new(),
            index: FxHashMap::default(),
            same_hash: Vec::new(),
        }
    }

    /// Creates an empty store whose rows are `stride` counts wide.
    pub fn with_stride(stride: usize) -> Self {
        let mut store = MarkingStore::new();
        store.stride = stride;
        store
    }

    /// The fixed row width, or `None` while nothing has been interned in
    /// a [`MarkingStore::new`] store.
    pub fn stride(&self) -> Option<usize> {
        (self.stride != STRIDE_UNSET).then_some(self.stride)
    }

    /// Number of distinct markings interned.
    pub fn len(&self) -> usize {
        self.num
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.num == 0
    }

    /// Fixes the stride on first use and rejects mismatching widths
    /// afterwards (interning a marking of another net into this store).
    fn fix_stride(&mut self, width: usize) {
        if self.stride == STRIDE_UNSET {
            self.stride = width;
        }
        assert_eq!(
            width, self.stride,
            "marking width does not match the store's fixed stride"
        );
    }

    /// Row `i` of the slab.
    fn row(&self, i: usize) -> &[u32] {
        &self.slab[i * self.stride..(i + 1) * self.stride]
    }

    /// Interns the counts slice `m` (one count per place, in id order),
    /// returning the id of the unique row equal to it. The counts are
    /// copied into the slab only when the marking was not present yet —
    /// no temporary allocation in either case.
    #[must_use]
    pub fn intern(&mut self, m: &[u32]) -> MarkingId {
        self.intern_hashed(marking_hash(m), m)
    }

    /// Like [`MarkingStore::intern`] for callers that already know
    /// `marking_hash(m)` (e.g. the search's incrementally maintained
    /// hash).
    ///
    /// The hash is trusted; passing a wrong hash breaks the dedup
    /// invariant, so debug builds verify it.
    #[must_use]
    pub fn intern_hashed(&mut self, hash: u64, m: &[u32]) -> MarkingId {
        debug_assert_eq!(hash, marking_hash(m), "caller-supplied hash is stale");
        self.fix_stride(m.len());
        if let Some(id) = self.lookup_hashed(hash, m) {
            return id;
        }
        self.slab.extend_from_slice(m);
        self.commit(hash)
    }

    /// Links the row already written at the slab tail into the dedup
    /// index, making it id `num`.
    fn commit(&mut self, hash: u64) -> MarkingId {
        debug_assert_eq!(self.slab.len(), (self.num + 1) * self.stride);
        let id = MarkingId(self.num as u32);
        let prev = self.index.insert(hash, id).map(|p| p.0).unwrap_or(NO_ID);
        self.same_hash.push(prev);
        self.hashes.push(hash);
        self.num += 1;
        id
    }

    /// The id of the row equal to `m`, if `m` was ever interned. Never
    /// inserts.
    #[must_use]
    pub fn lookup(&self, m: &[u32]) -> Option<MarkingId> {
        self.lookup_hashed(marking_hash(m), m)
    }

    /// Like [`MarkingStore::lookup`] with a caller-supplied
    /// [`marking_hash`].
    #[must_use]
    pub fn lookup_hashed(&self, hash: u64, m: &[u32]) -> Option<MarkingId> {
        debug_assert_eq!(hash, marking_hash(m), "caller-supplied hash is stale");
        if m.len() != self.stride {
            // Covers the unset-stride case: nothing interned yet.
            return None;
        }
        let mut cursor = self.index.get(&hash).map(|id| id.0).unwrap_or(NO_ID);
        while cursor != NO_ID {
            if self.row(cursor as usize) == m {
                return Some(MarkingId(cursor));
            }
            cursor = self.same_hash[cursor as usize];
        }
        None
    }

    /// The counts of the marking behind `id`, as a row slice of the slab.
    ///
    /// # Panics
    /// Panics if `id` is out of range; debug builds assert it belongs to
    /// this store (ids from a store with a different stride or length are
    /// rejected — see the module docs on handle discipline).
    pub fn resolve(&self, id: MarkingId) -> &[u32] {
        debug_assert!(
            id.index() < self.num,
            "MarkingId({}) does not belong to this store of {} markings \
             (stride {:?}); handles must not cross stores",
            id.0,
            self.num,
            self.stride()
        );
        self.row(id.index())
    }

    /// The [`marking_hash`] of the marking behind `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn hash_of(&self, id: MarkingId) -> u64 {
        self.hashes[id.index()]
    }

    /// Iterator over the interned markings (slab rows), in id order.
    pub fn markings(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.num).map(|i| self.row(i))
    }

    /// Iterator over `(id, counts)` pairs, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (MarkingId, &[u32])> {
        (0..self.num).map(|i| (MarkingId(i as u32), self.row(i)))
    }

    /// Fires `t` on the marking behind `from` and interns the successor,
    /// applying the net-delta list (see [`PetriNet::fire_into`], whose
    /// self-loop caveat applies: `t` must be enabled at `from`). The
    /// candidate row is built directly in the slab tail and rolled back
    /// if an equal row exists — no temporary allocation.
    ///
    /// # Panics
    /// Panics if a delta underflows a token count.
    #[must_use]
    pub fn fire(&mut self, net: &PetriNet, t: TransitionId, from: MarkingId) -> MarkingId {
        let (id, _) = self
            .derive(net, t, from, usize::MAX, false)
            .expect("an unbounded derive always lands");
        id
    }

    /// Reverts a firing of `t`: interns the predecessor marking obtained
    /// by un-applying `t`'s net delta to the marking behind `from`.
    ///
    /// # Panics
    /// Panics if a delta underflows a token count.
    #[must_use]
    pub fn unfire(&mut self, net: &PetriNet, t: TransitionId, from: MarkingId) -> MarkingId {
        let (id, _) = self
            .derive(net, t, from, usize::MAX, true)
            .expect("an unbounded derive always lands");
        id
    }

    /// Like [`MarkingStore::fire`], but refuses to grow the store beyond
    /// `cap` distinct markings: returns `None` when the successor would be
    /// a new row past the cap, and `(id, newly_interned)` otherwise. The
    /// bounded reachability explorer uses this to enforce its marking
    /// limit without materializing successors it will discard.
    #[must_use]
    pub fn fire_bounded(
        &mut self,
        net: &PetriNet,
        t: TransitionId,
        from: MarkingId,
        cap: usize,
    ) -> Option<(MarkingId, bool)> {
        self.derive(net, t, from, cap, false)
    }

    /// The reserve-then-commit successor derivation behind
    /// [`MarkingStore::fire`] / [`MarkingStore::unfire`] /
    /// [`MarkingStore::fire_bounded`].
    fn derive(
        &mut self,
        net: &PetriNet,
        t: TransitionId,
        from: MarkingId,
        cap: usize,
        revert: bool,
    ) -> Option<(MarkingId, bool)> {
        debug_assert!(
            from.index() < self.num,
            "MarkingId({}) does not belong to this store of {} markings",
            from.0,
            self.num
        );
        // Reserve: copy the source row to the slab tail and apply the net
        // delta (and the incremental hash update) in place there.
        let start = self.num * self.stride;
        let src = from.index() * self.stride;
        self.slab.extend_from_within(src..src + self.stride);
        let mut hash = self.hashes[from.index()];
        for &(p, delta) in net.changed_places(t) {
            let delta = if revert { -delta } else { delta };
            let cell = &mut self.slab[start + p.index()];
            let old = *cell;
            let next = old as i64 + delta;
            assert!(next >= 0, "token count underflow");
            assert!(next <= u32::MAX as i64, "token count overflow");
            *cell = next as u32;
            hash = hash
                .wrapping_sub(place_count_hash(p, old))
                .wrapping_add(place_count_hash(p, next as u32));
        }
        // Commit or roll back. The dedup probe runs `lookup_hashed` with
        // the tail itself as the candidate (committed rows never reach
        // the tail, so the candidate cannot match itself); in debug
        // builds this also cross-checks the incremental hash update
        // against a full rehash of the tail.
        if let Some(id) = self.lookup_hashed(hash, &self.slab[start..]) {
            self.slab.truncate(start);
            return Some((id, false));
        }
        if self.num >= cap {
            self.slab.truncate(start);
            return None;
        }
        Some((self.commit(hash), true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::Marking;
    use crate::net::{NetBuilder, TransitionKind};

    #[test]
    fn intern_dedups_and_resolves() {
        let mut store = MarkingStore::new();
        let a = store.intern(&[2, 0, 1]);
        let b = store.intern(&[2, 0, 1]);
        let c = store.intern(&[2, 1, 0]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stride(), Some(3));
        assert_eq!(store.resolve(a), &[2, 0, 1]);
        assert_eq!(store.resolve(c), &[2, 1, 0]);
    }

    #[test]
    fn ids_are_dense_in_interning_order() {
        let mut store = MarkingStore::new();
        for i in 0..5u32 {
            let id = store.intern(&[i]);
            assert_eq!(id.index(), i as usize);
        }
        let pairs: Vec<_> = store.iter().map(|(id, m)| (id.0, m[0])).collect();
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn lookup_never_inserts() {
        let mut store = MarkingStore::new();
        let m = [1u32, 2];
        assert_eq!(store.lookup(&m), None);
        assert!(store.is_empty());
        let id = store.intern(&m);
        assert_eq!(store.lookup(&m), Some(id));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn interning_from_a_marking_slice_round_trips() {
        let mut store = MarkingStore::new();
        let m = Marking::from_counts([3, 0, 7]);
        let id = store.intern_hashed(m.path_hash(), m.as_slice());
        assert_eq!(store.resolve(id), m.as_slice());
        assert_eq!(store.lookup_hashed(m.path_hash(), m.as_slice()), Some(id));
    }

    #[test]
    fn fire_and_unfire_round_trip_through_the_store() {
        let mut b = NetBuilder::new("t");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let t = b.transition("t", TransitionKind::Internal);
        b.arc_p2t(p, t, 1);
        b.arc_t2p(t, q, 1);
        let net = b.build().unwrap();
        let t = net.transition_by_name("t").unwrap();
        let mut store = MarkingStore::new();
        let m0 = store.intern(net.initial_marking().as_slice());
        let m1 = store.fire(&net, t, m0);
        assert_eq!(store.resolve(m1), &[0, 1]);
        // Un-firing reproduces the *same id* as the initial marking.
        assert_eq!(store.unfire(&net, t, m1), m0);
        // Re-firing dedups onto the existing successor (and the rollback
        // left the slab exactly two rows long).
        assert_eq!(store.fire(&net, t, m0), m1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn fire_bounded_respects_the_cap_without_committing() {
        let mut b = NetBuilder::new("grow");
        let p = b.place("p", 0);
        let src = b.transition("src", TransitionKind::UncontrollableSource);
        b.arc_t2p(src, p, 1);
        let net = b.build().unwrap();
        let src = net.transition_by_name("src").unwrap();
        let mut store = MarkingStore::new();
        let m0 = store.intern(net.initial_marking().as_slice());
        let (m1, new) = store.fire_bounded(&net, src, m0, 2).unwrap();
        assert!(new);
        // The cap blocks a third distinct marking...
        assert_eq!(store.fire_bounded(&net, src, m1, 2), None);
        assert_eq!(store.len(), 2);
        // ...but deduplication onto existing rows still works at the cap.
        assert_eq!(store.fire_bounded(&net, src, m0, 2), Some((m1, false)));
    }

    #[test]
    fn markings_with_colliding_buckets_stay_distinct() {
        // Exercise the bucket scan: intern many markings; every distinct
        // one must resolve back exactly.
        let mut store = MarkingStore::new();
        let ids: Vec<MarkingId> = (0..64u32).map(|i| store.intern(&[i % 8, i / 8])).collect();
        for (i, id) in ids.iter().enumerate() {
            let i = i as u32;
            assert_eq!(store.resolve(*id), &[i % 8, i / 8]);
        }
        assert_eq!(store.len(), 64);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn interning_a_mismatching_width_panics() {
        let mut store = MarkingStore::with_stride(3);
        let _ = store.intern(&[1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not cross stores")]
    fn resolving_a_foreign_id_is_rejected_in_debug_builds() {
        let mut wide = MarkingStore::new();
        let _ = wide.intern(&[0, 0, 0, 0]);
        let foreign = MarkingId(3); // a plausible id of some other store
        let narrow = {
            let mut s = MarkingStore::new();
            let _ = s.intern(&[1]);
            s
        };
        let _ = narrow.resolve(foreign);
    }

    #[test]
    fn zero_width_markings_all_share_one_row() {
        let mut store = MarkingStore::new();
        let a = store.intern(&[]);
        let b = store.intern(&[]);
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(store.resolve(a), &[] as &[u32]);
    }
}
