//! Incidence matrices and non-negative T- and P-invariant bases.
//!
//! A T-invariant is a non-negative integer vector `x` with `C·x = 0`, where
//! `C` is the incidence matrix. Firing any sequence containing each
//! transition `t_j` exactly `x_j` times from a marking `M` (if fireable)
//! leads back to `M`. The scheduler uses a non-negative basis of
//! T-invariants both as a quick non-schedulability test (no basis ⇒ no
//! schedule) and to sort ECSs during the search (Sec. 5.5.2 of the paper).
//!
//! A P-invariant (place semiflow) is the dual: a non-negative vector `y`
//! with `yᵀ·C = 0`, so the weighted token count `y·M` is conserved by
//! every firing. Covering P-invariants prove structural place bounds
//! (`M[p] ≤ (y·M0)/y[p]`), which the structural analyzer
//! ([`crate::structural`]) turns into diagnostics.
//!
//! Both bases are computed with the classical Farkas / Fourier–Motzkin
//! elimination — on `[Cᵀ | I]` for T-invariants and on `[C | I]` for
//! P-invariants — producing the minimal-support semiflows of the net.
//!
//! Every step works on sparse rows and touches only what changes: a pivot
//! visits the rows that are non-zero in its column, the sign counts that
//! pick the next pivot are kept up to date as rows come and go, and one
//! fingerprint index deduplicates rows across all rounds. Candidates are
//! validated over the arcs of their support and filtered to minimal
//! supports through an index on each support's smallest column. On nets
//! made of many small processes the whole analysis therefore grows with
//! the net instead of with its cube. The arithmetic is checked: a
//! combination that would overflow `i64` ends the elimination as
//! incomplete, exactly like hitting the row cap.

use crate::fx::{FxHashMap, FxHashSet};
use crate::ids::{PlaceId, TransitionId};
use crate::net::PetriNet;
use serde::{Deserialize, Serialize};

/// Dense incidence matrix `C` with `C[p][t] = F(t, p) − F(p, t)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncidenceMatrix {
    rows: Vec<Vec<i64>>,
    num_places: usize,
    num_transitions: usize,
}

impl IncidenceMatrix {
    /// Number of places (rows).
    pub fn num_places(&self) -> usize {
        self.num_places
    }

    /// Number of transitions (columns).
    pub fn num_transitions(&self) -> usize {
        self.num_transitions
    }

    /// Entry `C[p][t]`.
    pub fn entry(&self, p: PlaceId, t: TransitionId) -> i64 {
        self.rows[p.index()][t.index()]
    }

    /// Row of the matrix for place `p`.
    pub fn row(&self, p: PlaceId) -> &[i64] {
        &self.rows[p.index()]
    }

    /// Computes `C·x` for a transition-indexed vector `x`.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the number of transitions.
    pub fn apply(&self, x: &[i64]) -> Vec<i64> {
        assert_eq!(x.len(), self.num_transitions);
        self.rows
            .iter()
            .map(|row| row.iter().zip(x).map(|(c, v)| c * v).sum())
            .collect()
    }
}

/// Builds the incidence matrix of `net`.
pub fn incidence_matrix(net: &PetriNet) -> IncidenceMatrix {
    let np = net.num_places();
    let nt = net.num_transitions();
    let mut rows = vec![vec![0i64; nt]; np];
    for t in net.transition_ids() {
        for (p, w) in net.preset(t) {
            rows[p.index()][t.index()] -= *w as i64;
        }
        for (p, w) in net.postset(t) {
            rows[p.index()][t.index()] += *w as i64;
        }
    }
    IncidenceMatrix {
        rows,
        num_places: np,
        num_transitions: nt,
    }
}

/// A non-negative T-invariant: firing counts per transition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TInvariant {
    counts: Vec<u64>,
}

impl TInvariant {
    /// Creates an invariant from explicit firing counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        TInvariant { counts }
    }

    /// Number of firings of transition `t` in this invariant.
    pub fn count(&self, t: TransitionId) -> u64 {
        self.counts[t.index()]
    }

    /// Raw counts, indexed by transition.
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }

    /// Transitions with a non-zero firing count (the *support*).
    pub fn support(&self) -> Vec<TransitionId> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| TransitionId::new(i))
            .collect()
    }

    /// Returns `true` if transition `t` appears in the invariant.
    pub fn contains(&self, t: TransitionId) -> bool {
        self.counts[t.index()] > 0
    }

    /// Returns `true` if the invariant is identically zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Component-wise sum of two invariants.
    ///
    /// # Panics
    /// Panics if the invariants have different lengths.
    pub fn sum(&self, other: &TInvariant) -> TInvariant {
        assert_eq!(self.counts.len(), other.counts.len());
        TInvariant {
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Verifies `C·x = 0` against a net, over the columns of the support.
    ///
    /// # Panics
    /// Panics if the invariant's length differs from the number of
    /// transitions.
    pub fn is_valid_for(&self, net: &PetriNet) -> bool {
        assert_eq!(self.counts.len(), net.num_transitions());
        t_residual_vanishes(
            net,
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(t, &c)| (TransitionId::new(t), c)),
        )
    }
}

/// A non-negative P-invariant (place semiflow): weights per place with
/// `yᵀ·C = 0`.
///
/// For every reachable marking `M`, the weighted token count
/// `Σ_p y[p]·M[p]` equals the one of the initial marking, so every place
/// in the invariant's support is structurally bounded by
/// `(y·M0) / y[p]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PInvariant {
    weights: Vec<u64>,
}

impl PInvariant {
    /// Creates an invariant from explicit place weights.
    pub fn from_weights(weights: Vec<u64>) -> Self {
        PInvariant { weights }
    }

    /// Weight of place `p` in this invariant.
    pub fn weight(&self, p: PlaceId) -> u64 {
        self.weights[p.index()]
    }

    /// Raw weights, indexed by place.
    pub fn as_slice(&self) -> &[u64] {
        &self.weights
    }

    /// Places with a non-zero weight (the *support*).
    pub fn support(&self) -> Vec<PlaceId> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0)
            .map(|(i, _)| PlaceId::new(i))
            .collect()
    }

    /// Returns `true` if place `p` appears in the invariant.
    pub fn contains(&self, p: PlaceId) -> bool {
        self.weights[p.index()] > 0
    }

    /// Returns `true` if the invariant is identically zero.
    pub fn is_zero(&self) -> bool {
        self.weights.iter().all(|&w| w == 0)
    }

    /// The conserved quantity `Σ_p y[p]·m[p]` for a marking given as raw
    /// token counts.
    ///
    /// # Panics
    /// Panics if `marking.len()` differs from the number of places.
    pub fn weighted_tokens(&self, marking: &[u32]) -> u64 {
        assert_eq!(marking.len(), self.weights.len());
        self.weights
            .iter()
            .zip(marking)
            .map(|(&w, &m)| w * m as u64)
            .sum()
    }

    /// Verifies `yᵀ·C = 0` against a net, over the transitions adjacent
    /// to the support (every other column sums to zero trivially).
    ///
    /// # Panics
    /// Panics if the invariant has fewer weights than the net has places.
    pub fn is_valid_for(&self, net: &PetriNet) -> bool {
        let support = (0..net.num_places())
            .map(PlaceId::new)
            .filter(|p| self.weights[p.index()] > 0);
        support_columns(net, support).all(|t| weighted_change(net, &self.weights, t) == 0)
    }
}

/// `true` when `C·x = 0` for the firing counts `x` given as its non-zero
/// `(transition, count)` pairs: only the places those columns touch can
/// carry a residual. The sums run in `i128`: a `u64` count times a net arc
/// change (below `2^33` in magnitude) stays below `2^97`, so a sum of
/// fewer than `2^30` terms cannot overflow and the check is exact.
fn t_residual_vanishes(net: &PetriNet, support: impl Iterator<Item = (TransitionId, u64)>) -> bool {
    let mut residual: Vec<(PlaceId, i128)> = Vec::new();
    for (t, count) in support {
        residual.extend(
            net.changed_places(t)
                .iter()
                .map(|&(p, delta)| (p, delta as i128 * count as i128)),
        );
    }
    residual.sort_unstable_by_key(|&(p, _)| p);
    residual
        .chunk_by(|a, b| a.0 == b.0)
        .all(|run| run.iter().map(|&(_, v)| v).sum::<i128>() == 0)
}

/// `Σ_p y[p]·C[p][t]`: the token change of transition `t`, weighted by
/// `weights` (indexed by place). Exact in `i128`, as in
/// [`t_residual_vanishes`].
fn weighted_change(net: &PetriNet, weights: &[u64], t: TransitionId) -> i128 {
    net.changed_places(t)
        .iter()
        .map(|&(p, delta)| weights[p.index()] as i128 * delta as i128)
        .sum()
}

/// The transitions adjacent to `support` (consuming from or producing
/// into one of its places), possibly repeated — the only columns on which
/// a place vector with that support can have a non-zero weighted change.
fn support_columns<'a>(
    net: &'a PetriNet,
    support: impl Iterator<Item = PlaceId> + 'a,
) -> impl Iterator<Item = TransitionId> + 'a {
    support.flat_map(move |p| {
        net.place_successors(p)
            .iter()
            .chain(net.place_predecessors(p))
            .copied()
    })
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn normalize(row: &mut [i64]) {
    let g = row
        .iter()
        .map(|v| v.unsigned_abs())
        .filter(|&v| v != 0)
        .fold(0u64, gcd);
    if g > 1 {
        for v in row.iter_mut() {
            *v /= g as i64;
        }
    }
}

/// One working row of the Farkas elimination, stored sparsely as sorted
/// `(column, value)` pairs with zero values elided. Columns `0..np` carry
/// the residual `C·x` restricted to the row's combination, columns
/// `np..np+nt` the accumulated firing counts.
///
/// FlowC-derived nets have incidence columns with 2–4 non-zeros, so a
/// sparse row is an order of magnitude smaller than its dense `np + nt`
/// counterpart — and every elimination step (lookup, combine, dedup)
/// scales with the non-zero count instead of the net size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SparseRow {
    entries: Vec<(u32, i64)>,
}

impl SparseRow {
    /// The value in column `col` (0 if elided).
    fn get(&self, col: u32) -> i64 {
        match self.entries.binary_search_by_key(&col, |&(c, _)| c) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// `fa·self + fb·other`, merged in one pass over both sorted entry
    /// lists; resulting zeros are elided. `None` if a value overflows.
    fn checked_combine(&self, fa: i64, other: &SparseRow, fb: i64) -> Option<SparseRow> {
        let mut entries = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() || j < other.entries.len() {
            let (col, v) = match (self.entries.get(i), other.entries.get(j)) {
                (Some(&(ca, va)), Some(&(cb, vb))) => {
                    if ca < cb {
                        i += 1;
                        (ca, fa.checked_mul(va)?)
                    } else if cb < ca {
                        j += 1;
                        (cb, fb.checked_mul(vb)?)
                    } else {
                        i += 1;
                        j += 1;
                        (ca, fa.checked_mul(va)?.checked_add(fb.checked_mul(vb)?)?)
                    }
                }
                (Some(&(ca, va)), None) => {
                    i += 1;
                    (ca, fa.checked_mul(va)?)
                }
                (None, Some(&(cb, vb))) => {
                    j += 1;
                    (cb, fb.checked_mul(vb)?)
                }
                (None, None) => unreachable!(),
            };
            if v != 0 {
                entries.push((col, v));
            }
        }
        Some(SparseRow { entries })
    }

    /// Divides every value by the gcd of their absolute values. `None`
    /// when that gcd is `2^63`, which `i64` cannot hold.
    fn checked_normalize(&mut self) -> Option<()> {
        let g = self
            .entries
            .iter()
            .map(|&(_, v)| v.unsigned_abs())
            .fold(0u64, gcd);
        if g > 1 {
            let g = i64::try_from(g).ok()?;
            for (_, v) in self.entries.iter_mut() {
                *v /= g;
            }
        }
        Some(())
    }

    /// An order-dependent 64-bit fingerprint of the entries. Used to
    /// bucket rows for deduplication; candidates sharing a fingerprint
    /// are compared exactly, so a collision can only cost time.
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(c, v) in &self.entries {
            h ^= (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            h ^= v as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// `true` when the row is a non-negative semiflow candidate: every
    /// column below `first_unknown` (the residual) vanished, and the row
    /// is non-empty with only positive values.
    fn is_semiflow(&self, first_unknown: usize) -> bool {
        self.entries
            .first()
            .is_some_and(|&(c, _)| c as usize >= first_unknown)
            && self.entries.iter().all(|&(_, v)| v > 0)
    }
}

/// The rows surviving one Farkas elimination run, plus whether the run
/// eliminated every column or bailed at the row cap.
pub(crate) struct Elimination {
    pub(crate) rows: Vec<SparseRow>,
    /// `false` when the run hit `row_cap`, or a combination overflowed
    /// `i64`, and returned the partial row set of the round in progress.
    /// The surviving finished rows still yield valid invariants, but the
    /// set is no longer exhaustive — callers proving *negative* facts (no
    /// invariant covers place `p`) must treat an incomplete run as
    /// "unknown".
    pub(crate) complete: bool,
}

/// End of a fingerprint chain in [`Eliminator`].
const NO_ROW: u32 = u32::MAX;

/// The working state of one elimination run. Rows live in one arena in
/// creation order: a round keeps its surviving rows in place and appends
/// its new combinations, so the live rows in arena order are exactly the
/// row list the round-by-round formulation rebuilds. Dead rows free their
/// entries and leave the indexes; compaction removes their slots without
/// reordering the live rows.
struct Eliminator {
    ncols: usize,
    rows: Vec<SparseRow>,
    live: Vec<bool>,
    live_count: usize,
    /// For each column still to eliminate, the rows created with a
    /// non-zero there, in creation order (dead ones are skipped lazily).
    by_column: Vec<Vec<u32>>,
    /// Per column, the live rows with a positive / negative value there.
    pos: Vec<usize>,
    neg: Vec<usize>,
    fingerprints: Vec<u64>,
    /// Live rows chained by fingerprint: the newest row per fingerprint,
    /// and per row the next-older one with the same fingerprint.
    by_fingerprint: FxHashMap<u64, u32>,
    same_fingerprint: Vec<u32>,
}

impl Eliminator {
    fn contains(&self, row: &SparseRow, fingerprint: u64) -> bool {
        let mut cursor = self
            .by_fingerprint
            .get(&fingerprint)
            .copied()
            .unwrap_or(NO_ROW);
        while cursor != NO_ROW {
            if self.rows[cursor as usize] == *row {
                return true;
            }
            cursor = self.same_fingerprint[cursor as usize];
        }
        false
    }

    fn push(&mut self, row: SparseRow, fingerprint: u64) {
        let id = self.rows.len() as u32;
        for &(c, v) in &row.entries {
            let c = c as usize;
            if c >= self.ncols {
                break;
            }
            if v > 0 {
                self.pos[c] += 1;
            } else {
                self.neg[c] += 1;
            }
            self.by_column[c].push(id);
        }
        let older = self.by_fingerprint.insert(fingerprint, id);
        self.same_fingerprint.push(older.unwrap_or(NO_ROW));
        self.fingerprints.push(fingerprint);
        self.rows.push(row);
        self.live.push(true);
        self.live_count += 1;
    }

    fn kill(&mut self, id: u32) {
        let i = id as usize;
        let row = std::mem::take(&mut self.rows[i]);
        for &(c, v) in &row.entries {
            let c = c as usize;
            if c >= self.ncols {
                break;
            }
            if v > 0 {
                self.pos[c] -= 1;
            } else {
                self.neg[c] -= 1;
            }
        }
        let fingerprint = self.fingerprints[i];
        let older = self.same_fingerprint[i];
        let head = self
            .by_fingerprint
            .get_mut(&fingerprint)
            .expect("a live row is chained under its fingerprint");
        if *head == id {
            if older == NO_ROW {
                self.by_fingerprint.remove(&fingerprint);
            } else {
                *head = older;
            }
        } else {
            let mut cursor = *head as usize;
            while self.same_fingerprint[cursor] != id {
                cursor = self.same_fingerprint[cursor] as usize;
            }
            self.same_fingerprint[cursor] = older;
        }
        self.live[i] = false;
        self.live_count -= 1;
    }

    /// The combination of a positive and a negative row that cancels
    /// the pivot column, normalized; `None` on `i64` overflow.
    fn combination(&self, rp: u32, a: i64, rn: u32, nb: i64) -> Option<SparseRow> {
        let b = nb.checked_neg()?;
        let l = (a / gcd(a as u64, b as u64) as i64).checked_mul(b)?;
        let mut combined =
            self.rows[rp as usize].checked_combine(l / a, &self.rows[rn as usize], l / b)?;
        combined.checked_normalize()?;
        Some(combined)
    }

    /// Drops the dead slots and renumbers the live rows in order, once
    /// the dead outnumber the live: memory stays proportional to the live
    /// rows, and each compaction is paid for by the kills before it.
    fn compact_if_sparse(&mut self) {
        if self.rows.len() - self.live_count <= self.live_count {
            return;
        }
        let mut renumbered = vec![NO_ROW; self.rows.len()];
        let mut next = 0u32;
        for (slot, &live) in renumbered.iter_mut().zip(&self.live) {
            if live {
                *slot = next;
                next += 1;
            }
        }
        let renumber = |id: u32| {
            if id == NO_ROW {
                NO_ROW
            } else {
                renumbered[id as usize]
            }
        };
        let rows = std::mem::take(&mut self.rows);
        let mut fingerprints = Vec::with_capacity(self.live_count);
        let mut same_fingerprint = Vec::with_capacity(self.live_count);
        for (i, row) in rows.into_iter().enumerate() {
            if renumbered[i] != NO_ROW {
                self.rows.push(row);
                fingerprints.push(self.fingerprints[i]);
                same_fingerprint.push(renumber(self.same_fingerprint[i]));
            }
        }
        self.fingerprints = fingerprints;
        self.same_fingerprint = same_fingerprint;
        for head in self.by_fingerprint.values_mut() {
            *head = renumber(*head);
        }
        for ids in &mut self.by_column {
            ids.retain_mut(|id| {
                *id = renumber(*id);
                *id != NO_ROW
            });
        }
        self.live = vec![true; self.live_count];
    }

    fn finish(self, complete: bool) -> Elimination {
        let rows = self
            .rows
            .into_iter()
            .zip(self.live)
            .filter_map(|(row, live)| live.then_some(row))
            .collect();
        Elimination { rows, complete }
    }
}

/// Eliminates columns `0..ncols` from `rows`, one column at a time, always
/// picking the column that produces the fewest new combinations (a
/// standard heuristic that keeps the intermediate row count small; the
/// first remaining column wins ties). Each round keeps the rows that are
/// zero in the pivot column, in order, then appends the distinct
/// (positive × negative) combinations in pair order. The number of
/// intermediate rows is capped at `row_cap`.
///
/// A round costs the rows non-zero in its pivot column and the
/// combinations they produce, not a pass over every row: sign counts are
/// updated as rows are created and dropped, and rows are deduplicated
/// through one fingerprint index kept across rounds.
pub(crate) fn eliminate(rows: Vec<SparseRow>, ncols: usize, row_cap: usize) -> Elimination {
    let mut state = Eliminator {
        ncols,
        rows: Vec::with_capacity(rows.len()),
        live: Vec::with_capacity(rows.len()),
        live_count: 0,
        by_column: vec![Vec::new(); ncols],
        pos: vec![0; ncols],
        neg: vec![0; ncols],
        fingerprints: Vec::with_capacity(rows.len()),
        by_fingerprint: FxHashMap::default(),
        same_fingerprint: Vec::with_capacity(rows.len()),
    };
    // Input rows are all live and all counted, duplicates included; the
    // first round keeps one copy of each duplicate that is zero in its
    // pivot column, like any other surviving row.
    let mut duplicates: Vec<u32> = Vec::new();
    for row in rows {
        let fingerprint = row.fingerprint();
        if state.contains(&row, fingerprint) {
            duplicates.push(state.rows.len() as u32);
        }
        state.push(row, fingerprint);
    }

    let mut remaining: Vec<usize> = (0..ncols).collect();
    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, state.pos[p] * state.neg[p] + state.pos[p] + state.neg[p]))
            .min_by_key(|(_, cost)| *cost)
            .expect("remaining is non-empty");
        let p = remaining.swap_remove(best_idx);

        for id in duplicates.drain(..) {
            if state.rows[id as usize].get(p as u32) == 0 {
                state.kill(id);
            }
        }
        let mut positives: Vec<(u32, i64)> = Vec::new();
        let mut negatives: Vec<(u32, i64)> = Vec::new();
        for id in std::mem::take(&mut state.by_column[p]) {
            if !state.live[id as usize] {
                continue;
            }
            match state.rows[id as usize].get(p as u32) {
                v if v > 0 => positives.push((id, v)),
                v => negatives.push((id, v)),
            }
        }

        // Rows of the next round so far: the survivors, then every new
        // combination. Hitting the cap (or an overflow) bails out
        // conservatively: the finished rows of the partial set are still
        // valid invariants.
        let mut next_len = state.live_count - positives.len() - negatives.len();
        let mut bail = false;
        'pairs: for &(rp, a) in &positives {
            for &(rn, nb) in &negatives {
                let Some(combined) = state.combination(rp, a, rn, nb) else {
                    bail = true;
                    break 'pairs;
                };
                let fingerprint = combined.fingerprint();
                if !state.contains(&combined, fingerprint) {
                    state.push(combined, fingerprint);
                    next_len += 1;
                }
                if next_len > row_cap {
                    bail = true;
                    break 'pairs;
                }
            }
        }
        for &(id, _) in positives.iter().chain(&negatives) {
            state.kill(id);
        }
        if bail {
            return state.finish(false);
        }
        state.compact_if_sparse();
    }
    state.finish(true)
}

/// Computes a non-negative basis of T-invariants (minimal-support
/// semiflows) of `net` using Farkas elimination over sparse rows.
///
/// The result may be empty, which the scheduler interprets as "no cyclic
/// schedule can exist". The number of intermediate rows is capped at
/// `row_cap` to guard against the (exponential) worst case; nets produced
/// from FlowC specifications stay far below the cap.
///
/// The elimination pivots, combination order and dedup-by-content are
/// identical to the retained dense implementation
/// ([`t_invariant_basis_dense`]), so both produce the same basis in the
/// same order; the property suite asserts this on random nets.
pub fn t_invariant_basis(net: &PetriNet, row_cap: usize) -> Vec<TInvariant> {
    let np = net.num_places();
    let nt = net.num_transitions();

    // One sparse row per transition: the incidence column plus a unit
    // firing-count entry.
    let mut rows: Vec<SparseRow> = Vec::with_capacity(nt);
    for t in net.transition_ids() {
        let mut delta: std::collections::BTreeMap<u32, i64> = std::collections::BTreeMap::new();
        for (p, w) in net.preset(t) {
            *delta.entry(p.index() as u32).or_insert(0) -= *w as i64;
        }
        for (p, w) in net.postset(t) {
            *delta.entry(p.index() as u32).or_insert(0) += *w as i64;
        }
        let mut entries: Vec<(u32, i64)> = delta.into_iter().filter(|&(_, v)| v != 0).collect();
        entries.push(((np + t.index()) as u32, 1));
        rows.push(SparseRow { entries });
    }

    let elim = eliminate(rows, np, row_cap);
    collect_invariants(&elim.rows, np, nt, net)
}

/// Computes a non-negative basis of P-invariants (minimal-support place
/// semiflows) of `net` — the Farkas dual of [`t_invariant_basis`], run on
/// the transposed incidence matrix `[C | I]` with the same sparse rows,
/// pivot heuristic and `row_cap` bail-out discipline.
///
/// Every returned invariant satisfies `yᵀ·C = 0` (verified before it is
/// admitted); the result may be empty, e.g. for nets whose sources pump
/// tokens into every conservative component.
pub fn p_invariant_basis(net: &PetriNet, row_cap: usize) -> Vec<PInvariant> {
    p_invariant_elimination(net, row_cap).0
}

/// [`p_invariant_basis`] plus the completeness of the underlying
/// elimination: `true` means the returned basis contains *every*
/// minimal-support semiflow, so "no invariant covers `p`" is a proof.
pub fn p_invariant_elimination(net: &PetriNet, row_cap: usize) -> (Vec<PInvariant>, bool) {
    let np = net.num_places();
    let nt = net.num_transitions();

    // One sparse row per place: the incidence row plus a unit weight
    // entry. Transition columns come first so the elimination removes
    // exactly them.
    let mut deltas: Vec<std::collections::BTreeMap<u32, i64>> = vec![Default::default(); np];
    for t in net.transition_ids() {
        for (p, w) in net.preset(t) {
            *deltas[p.index()].entry(t.index() as u32).or_insert(0) -= *w as i64;
        }
        for (p, w) in net.postset(t) {
            *deltas[p.index()].entry(t.index() as u32).or_insert(0) += *w as i64;
        }
    }
    let mut rows: Vec<SparseRow> = Vec::with_capacity(np);
    for (p, delta) in deltas.into_iter().enumerate() {
        let mut entries: Vec<(u32, i64)> = delta.into_iter().filter(|&(_, v)| v != 0).collect();
        entries.push(((nt + p) as u32, 1));
        rows.push(SparseRow { entries });
    }

    let elim = eliminate(rows, nt, row_cap);
    (collect_p_invariants(&elim.rows, np, nt, net), elim.complete)
}

fn collect_p_invariants(
    rows: &[SparseRow],
    np: usize,
    nt: usize,
    net: &PetriNet,
) -> Vec<PInvariant> {
    let mut seen: FxHashSet<&[(u32, i64)]> = FxHashSet::default();
    let mut found: Vec<&[(u32, i64)]> = Vec::new();
    let mut scratch = vec![0u64; np];
    for row in rows {
        // Only rows whose residual transition part vanished are invariants.
        if !row.is_semiflow(nt) {
            continue;
        }
        let valid =
            weighted_changes_hold(net, &row.entries, nt, &mut scratch, |_, change| change == 0);
        if valid && seen.insert(&row.entries) {
            found.push(&row.entries);
        }
    }
    minimal_supports(&found)
        .map(|entries| PInvariant::from_weights(densify(entries, nt, np)))
        .collect()
}

/// The dense vector of length `len` whose non-zeros are the positive
/// `entries`, their columns shifted down by `offset`.
fn densify(entries: &[(u32, i64)], offset: usize, len: usize) -> Vec<u64> {
    let mut dense = vec![0u64; len];
    for &(c, v) in entries {
        dense[c as usize - offset] = v as u64;
    }
    dense
}

/// Whether `holds(t, Σ_p y[p]·C[p][t])` is true for every transition `t`
/// adjacent to the support of the place vector `y` given by `entries`
/// (its place weights sit at columns `first_place..`). `scratch` holds
/// `y` by place during the call and is all zeros before and after it, so
/// one check costs the support's arcs, not the net.
fn weighted_changes_hold(
    net: &PetriNet,
    entries: &[(u32, i64)],
    first_place: usize,
    scratch: &mut [u64],
    holds: impl Fn(TransitionId, i128) -> bool,
) -> bool {
    let support = || {
        entries
            .iter()
            .map(move |&(c, v)| (PlaceId::new(c as usize - first_place), v as u64))
    };
    for (p, w) in support() {
        scratch[p.index()] = w;
    }
    let held = support_columns(net, support().map(|(p, _)| p))
        .all(|t| holds(t, weighted_change(net, scratch, t)));
    for (p, _) in support() {
        scratch[p.index()] = 0;
    }
    held
}

/// The minimal-support members of `candidates` (each a row's sorted
/// entries; its columns are the support), in order: a candidate is
/// dropped when another one's support is a strict subset of its own.
/// Candidates are indexed by their smallest column, so only those whose
/// smallest column lies in a candidate's support are compared with it.
fn minimal_supports<'a>(
    candidates: &'a [&'a [(u32, i64)]],
) -> impl Iterator<Item = &'a [(u32, i64)]> + 'a {
    let mut by_first: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    for (i, entries) in candidates.iter().enumerate() {
        by_first.entry(entries[0].0).or_default().push(i);
    }
    let is_subset = |small: &[(u32, i64)], big: &[(u32, i64)]| {
        let mut big = big.iter();
        small.iter().all(|&(c, _)| big.any(|&(d, _)| d == c))
    };
    candidates.iter().copied().filter(move |&support| {
        !support.iter().any(|(c, _)| {
            by_first.get(c).is_some_and(|others| {
                others.iter().any(|&j| {
                    let other = candidates[j];
                    other.len() < support.len() && is_subset(other, support)
                })
            })
        })
    })
}

/// Keeps only minimal-support P-invariants to obtain a clean basis; the
/// dense counterpart of [`minimal_supports`], used by the oracle.
fn minimal_support_p(result: Vec<PInvariant>) -> Vec<PInvariant> {
    let mut minimal: Vec<PInvariant> = Vec::new();
    for (i, inv) in result.iter().enumerate() {
        let sup: Vec<bool> = inv.as_slice().iter().map(|&w| w > 0).collect();
        let dominated = result.iter().enumerate().any(|(j, other)| {
            if i == j {
                return false;
            }
            let osup: Vec<bool> = other.as_slice().iter().map(|&w| w > 0).collect();
            osup.iter().zip(&sup).all(|(o, s)| !o || *s)
                && osup.iter().zip(&sup).any(|(o, s)| !o && *s)
        });
        if !dominated {
            minimal.push(inv.clone());
        }
    }
    minimal
}

/// Computes generators of the cone `{ y ≥ 0 : yᵀ·C' ≤ 0 }`, where `C'` is
/// the incidence matrix restricted to the transition `columns` — the
/// *sur-invariants* of the restricted net. A place covered by a generator
/// can never gain tokens through those transitions beyond `(y·M0)/y[p]`;
/// when the returned flag is `true` the generator set is exhaustive, so a
/// place covered by *no* generator is provably structurally unbounded
/// under the restricted transitions (Memmi–Roucairol).
///
/// Implemented as a semiflow computation with one slack unknown per
/// column: `yᵀC' + s = 0, (y, s) ≥ 0`. Each generator is returned
/// sparsely, as its `(place, weight)` pairs in place order.
pub(crate) fn surinvariant_cover(
    net: &PetriNet,
    columns: &[TransitionId],
    row_cap: usize,
) -> (Vec<Vec<(PlaceId, u64)>>, bool) {
    let np = net.num_places();
    let nc = columns.len();
    let mut deltas: Vec<std::collections::BTreeMap<u32, i64>> = vec![Default::default(); np];
    for (j, &t) in columns.iter().enumerate() {
        for (p, w) in net.preset(t) {
            *deltas[p.index()].entry(j as u32).or_insert(0) -= *w as i64;
        }
        for (p, w) in net.postset(t) {
            *deltas[p.index()].entry(j as u32).or_insert(0) += *w as i64;
        }
    }
    // Rows for the place unknowns y_p …
    let mut rows: Vec<SparseRow> = Vec::with_capacity(np + nc);
    for (p, delta) in deltas.into_iter().enumerate() {
        let mut entries: Vec<(u32, i64)> = delta.into_iter().filter(|&(_, v)| v != 0).collect();
        entries.push(((nc + p) as u32, 1));
        rows.push(SparseRow { entries });
    }
    // … and for the slack unknowns s_j (one per eliminated column).
    for j in 0..nc {
        rows.push(SparseRow {
            entries: vec![(j as u32, 1), ((nc + np + j) as u32, 1)],
        });
    }

    let elim = eliminate(rows, nc, row_cap);
    let mut in_columns = vec![false; net.num_transitions()];
    for &t in columns {
        in_columns[t.index()] = true;
    }
    let mut scratch = vec![0u64; np];
    let mut seen: FxHashSet<&[(u32, i64)]> = FxHashSet::default();
    let mut result: Vec<Vec<(PlaceId, u64)>> = Vec::new();
    for row in &elim.rows {
        if !row.is_semiflow(nc) {
            continue;
        }
        // The place part is the prefix of entries below the slack columns.
        let places = row
            .entries
            .partition_point(|&(c, _)| (c as usize) < nc + np);
        let place_entries = &row.entries[..places];
        if place_entries.is_empty() {
            continue;
        }
        // Soundness check mirroring `is_valid_for`: yᵀ·C' ≤ 0 per column.
        let sound = weighted_changes_hold(net, place_entries, nc, &mut scratch, |t, change| {
            !in_columns[t.index()] || change <= 0
        });
        if sound && seen.insert(place_entries) {
            result.push(
                place_entries
                    .iter()
                    .map(|&(c, v)| (PlaceId::new(c as usize - nc), v as u64))
                    .collect(),
            );
        }
    }
    (result, elim.complete)
}

fn collect_invariants(rows: &[SparseRow], np: usize, nt: usize, net: &PetriNet) -> Vec<TInvariant> {
    let mut seen: FxHashSet<&[(u32, i64)]> = FxHashSet::default();
    let mut found: Vec<&[(u32, i64)]> = Vec::new();
    for row in rows {
        // Only rows whose residual place part vanished are invariants.
        if !row.is_semiflow(np) {
            continue;
        }
        let support = row
            .entries
            .iter()
            .map(|&(c, v)| (TransitionId::new(c as usize - np), v as u64));
        if t_residual_vanishes(net, support) && seen.insert(&row.entries) {
            found.push(&row.entries);
        }
    }
    minimal_supports(&found)
        .map(|entries| TInvariant::from_counts(densify(entries, np, nt)))
        .collect()
}

/// Keeps only minimal-support invariants to obtain a clean basis; the
/// dense counterpart of [`minimal_supports`], used by the oracle.
fn minimal_support(result: Vec<TInvariant>) -> Vec<TInvariant> {
    let mut minimal: Vec<TInvariant> = Vec::new();
    for (i, inv) in result.iter().enumerate() {
        let sup: Vec<bool> = inv.as_slice().iter().map(|&c| c > 0).collect();
        let dominated = result.iter().enumerate().any(|(j, other)| {
            if i == j {
                return false;
            }
            let osup: Vec<bool> = other.as_slice().iter().map(|&c| c > 0).collect();
            // `other` has strictly smaller support contained in `inv`'s.
            osup.iter().zip(&sup).all(|(o, s)| !o || *s)
                && osup.iter().zip(&sup).any(|(o, s)| !o && *s)
        });
        if !dominated {
            minimal.push(inv.clone());
        }
    }
    minimal
}

/// The original dense-row Farkas elimination, retained verbatim as the
/// differential-testing oracle for [`t_invariant_basis`] (and as the
/// baseline the benchmark suite measures the sparse rework against). Do
/// not use it in production paths.
pub fn t_invariant_basis_dense(net: &PetriNet, row_cap: usize) -> Vec<TInvariant> {
    let np = net.num_places();
    let nt = net.num_transitions();
    let c = incidence_matrix(net);

    // Each working row is [a | b]: a has one entry per place (the residual
    // C·x restricted to that combination), b has one entry per transition
    // (the firing counts accumulated so far).
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(nt);
    for t in 0..nt {
        let mut row = vec![0i64; np + nt];
        for (p, slot) in row.iter_mut().enumerate().take(np) {
            *slot = c.rows[p][t];
        }
        row[np + t] = 1;
        rows.push(row);
    }

    let mut remaining: Vec<usize> = (0..np).collect();
    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let pos = rows.iter().filter(|r| r[p] > 0).count();
                let neg = rows.iter().filter(|r| r[p] < 0).count();
                (i, pos * neg + pos + neg)
            })
            .min_by_key(|(_, cost)| *cost)
            .expect("remaining is non-empty");
        let p = remaining.swap_remove(best_idx);

        let mut seen: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
        let mut next: Vec<Vec<i64>> = Vec::new();
        let (zeros, nonzeros): (Vec<_>, Vec<_>) = rows.into_iter().partition(|r| r[p] == 0);
        for row in zeros {
            if seen.insert(row.clone()) {
                next.push(row);
            }
        }
        let positives: Vec<&Vec<i64>> = nonzeros.iter().filter(|r| r[p] > 0).collect();
        let negatives: Vec<&Vec<i64>> = nonzeros.iter().filter(|r| r[p] < 0).collect();
        for rp in &positives {
            for rn in &negatives {
                let a = rp[p];
                let b = -rn[p];
                let l = (a / gcd(a as u64, b as u64) as i64) * b;
                let fa = l / a;
                let fb = l / b;
                let mut combined: Vec<i64> = rp
                    .iter()
                    .zip(rn.iter())
                    .map(|(x, y)| fa * x + fb * y)
                    .collect();
                normalize(&mut combined);
                if seen.insert(combined.clone()) {
                    next.push(combined);
                }
                if next.len() > row_cap {
                    return collect_invariants_dense(&next, np, nt, net);
                }
            }
        }
        rows = next;
    }
    collect_invariants_dense(&rows, np, nt, net)
}

fn collect_invariants_dense(
    rows: &[Vec<i64>],
    np: usize,
    nt: usize,
    net: &PetriNet,
) -> Vec<TInvariant> {
    let mut result: Vec<TInvariant> = Vec::new();
    for row in rows {
        if row[..np].iter().any(|&v| v != 0) {
            continue;
        }
        if row[np..].iter().all(|&v| v == 0) {
            continue;
        }
        if row[np..].iter().any(|&v| v < 0) {
            continue;
        }
        let inv = TInvariant::from_counts(row[np..].iter().map(|&v| v as u64).collect());
        debug_assert_eq!(inv.as_slice().len(), nt);
        if inv.is_valid_for(net) && !result.contains(&inv) {
            result.push(inv);
        }
    }
    minimal_support(result)
}

/// Dense-row Farkas elimination for the P-invariant basis, the
/// differential-testing oracle for [`p_invariant_basis`] (and the baseline
/// the benchmark suite measures the sparse dual against). Do not use it in
/// production paths.
pub fn p_invariant_basis_dense(net: &PetriNet, row_cap: usize) -> Vec<PInvariant> {
    p_invariant_elimination_dense(net, row_cap).0
}

/// [`p_invariant_basis_dense`] plus the completeness of the elimination,
/// the oracle for [`p_invariant_elimination`]: `false` when the run hit
/// `row_cap`.
pub fn p_invariant_elimination_dense(net: &PetriNet, row_cap: usize) -> (Vec<PInvariant>, bool) {
    let np = net.num_places();
    let nt = net.num_transitions();
    let c = incidence_matrix(net);

    // Each working row is [a | b]: a has one entry per transition (the
    // residual yᵀ·C restricted to that combination), b one entry per place
    // (the weights accumulated so far).
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(np);
    for p in 0..np {
        let mut row = vec![0i64; nt + np];
        row[..nt].copy_from_slice(&c.rows[p]);
        row[nt + p] = 1;
        rows.push(row);
    }

    let mut remaining: Vec<usize> = (0..nt).collect();
    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let pos = rows.iter().filter(|r| r[t] > 0).count();
                let neg = rows.iter().filter(|r| r[t] < 0).count();
                (i, pos * neg + pos + neg)
            })
            .min_by_key(|(_, cost)| *cost)
            .expect("remaining is non-empty");
        let t = remaining.swap_remove(best_idx);

        let mut seen: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
        let mut next: Vec<Vec<i64>> = Vec::new();
        let (zeros, nonzeros): (Vec<_>, Vec<_>) = rows.into_iter().partition(|r| r[t] == 0);
        for row in zeros {
            if seen.insert(row.clone()) {
                next.push(row);
            }
        }
        let positives: Vec<&Vec<i64>> = nonzeros.iter().filter(|r| r[t] > 0).collect();
        let negatives: Vec<&Vec<i64>> = nonzeros.iter().filter(|r| r[t] < 0).collect();
        for rp in &positives {
            for rn in &negatives {
                let a = rp[t];
                let b = -rn[t];
                let l = (a / gcd(a as u64, b as u64) as i64) * b;
                let fa = l / a;
                let fb = l / b;
                let mut combined: Vec<i64> = rp
                    .iter()
                    .zip(rn.iter())
                    .map(|(x, y)| fa * x + fb * y)
                    .collect();
                normalize(&mut combined);
                if seen.insert(combined.clone()) {
                    next.push(combined);
                }
                if next.len() > row_cap {
                    return (collect_p_invariants_dense(&next, np, nt, net), false);
                }
            }
        }
        rows = next;
    }
    (collect_p_invariants_dense(&rows, np, nt, net), true)
}

fn collect_p_invariants_dense(
    rows: &[Vec<i64>],
    np: usize,
    nt: usize,
    net: &PetriNet,
) -> Vec<PInvariant> {
    let mut result: Vec<PInvariant> = Vec::new();
    for row in rows {
        if row[..nt].iter().any(|&v| v != 0) {
            continue;
        }
        if row[nt..].iter().all(|&v| v == 0) {
            continue;
        }
        if row[nt..].iter().any(|&v| v < 0) {
            continue;
        }
        let inv = PInvariant::from_weights(row[nt..].iter().map(|&v| v as u64).collect());
        debug_assert_eq!(inv.as_slice().len(), np);
        if inv.is_valid_for(net) && !result.contains(&inv) {
            result.push(inv);
        }
    }
    minimal_support_p(result)
}

/// The round-by-round elimination [`eliminate`] replaced, kept verbatim
/// (with its unchecked arithmetic) as the oracle its unit test compares
/// rows, row order and completeness against.
#[cfg(test)]
mod eliminate_oracle {
    use super::{gcd, Elimination, SparseRow};

    impl SparseRow {
        /// `fa·self + fb·other`, merged in one pass over both sorted entry
        /// lists; resulting zeros are elided.
        fn combine(&self, fa: i64, other: &SparseRow, fb: i64) -> SparseRow {
            let mut entries = Vec::with_capacity(self.entries.len() + other.entries.len());
            let (mut i, mut j) = (0, 0);
            while i < self.entries.len() || j < other.entries.len() {
                let (col, v) = match (self.entries.get(i), other.entries.get(j)) {
                    (Some(&(ca, va)), Some(&(cb, vb))) => {
                        if ca < cb {
                            i += 1;
                            (ca, fa * va)
                        } else if cb < ca {
                            j += 1;
                            (cb, fb * vb)
                        } else {
                            i += 1;
                            j += 1;
                            (ca, fa * va + fb * vb)
                        }
                    }
                    (Some(&(ca, va)), None) => {
                        i += 1;
                        (ca, fa * va)
                    }
                    (None, Some(&(cb, vb))) => {
                        j += 1;
                        (cb, fb * vb)
                    }
                    (None, None) => unreachable!(),
                };
                if v != 0 {
                    entries.push((col, v));
                }
            }
            SparseRow { entries }
        }

        /// Divides every value by the gcd of their absolute values.
        fn normalize(&mut self) {
            let g = self
                .entries
                .iter()
                .map(|&(_, v)| v.unsigned_abs())
                .fold(0u64, gcd);
            if g > 1 {
                for (_, v) in self.entries.iter_mut() {
                    *v /= g as i64;
                }
            }
        }
    }

    /// Deduplicating accumulator of the next elimination round: rows bucketed
    /// by fingerprint, exact-compared on fingerprint hits. Replaces the
    /// former `HashSet<Vec<i64>>` of full dense rows, which hashed and stored
    /// every row twice (once in the set, once in the row list).
    #[derive(Default)]
    struct RowSet {
        rows: Vec<SparseRow>,
        by_fingerprint: crate::fx::FxHashMap<u64, Vec<u32>>,
    }

    impl RowSet {
        /// Appends `row` unless an equal row is already present.
        fn insert(&mut self, row: SparseRow) {
            let bucket = self.by_fingerprint.entry(row.fingerprint()).or_default();
            if bucket.iter().any(|&i| self.rows[i as usize] == row) {
                return;
            }
            bucket.push(self.rows.len() as u32);
            self.rows.push(row);
        }

        fn len(&self) -> usize {
            self.rows.len()
        }
    }

    /// Eliminates columns `0..ncols` from `rows`, one column at a time, always
    /// picking the column that produces the fewest new combinations (a
    /// standard heuristic that keeps the intermediate row count small). The
    /// per-column sign counts are gathered in one pass over the rows'
    /// non-zeros instead of one full row scan per candidate column. The
    /// number of intermediate rows is capped at `row_cap`.
    pub(super) fn eliminate(mut rows: Vec<SparseRow>, ncols: usize, row_cap: usize) -> Elimination {
        let mut remaining: Vec<usize> = (0..ncols).collect();
        let mut pos = vec![0usize; ncols];
        let mut neg = vec![0usize; ncols];
        while !remaining.is_empty() {
            pos.iter_mut().for_each(|c| *c = 0);
            neg.iter_mut().for_each(|c| *c = 0);
            for row in &rows {
                for &(c, v) in &row.entries {
                    let c = c as usize;
                    if c >= ncols {
                        break;
                    }
                    if v > 0 {
                        pos[c] += 1;
                    } else {
                        neg[c] += 1;
                    }
                }
            }
            let (best_idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &p)| (i, pos[p] * neg[p] + pos[p] + neg[p]))
                .min_by_key(|(_, cost)| *cost)
                .expect("remaining is non-empty");
            let p = remaining.swap_remove(best_idx) as u32;

            let mut next = RowSet::default();
            let (zeros, nonzeros): (Vec<_>, Vec<_>) = rows.into_iter().partition(|r| r.get(p) == 0);
            for row in zeros {
                next.insert(row);
            }
            // Capture the pivot value once per row: the pair loop below visits
            // every (positive, negative) combination and must not re-run the
            // binary search per pair.
            let positives: Vec<(&SparseRow, i64)> = nonzeros
                .iter()
                .filter_map(|r| match r.get(p) {
                    v if v > 0 => Some((r, v)),
                    _ => None,
                })
                .collect();
            let negatives: Vec<(&SparseRow, i64)> = nonzeros
                .iter()
                .filter_map(|r| match r.get(p) {
                    v if v < 0 => Some((r, v)),
                    _ => None,
                })
                .collect();
            for &(rp, a) in &positives {
                for &(rn, nb) in &negatives {
                    let b = -nb;
                    let l = (a / gcd(a as u64, b as u64) as i64) * b;
                    let mut combined = rp.combine(l / a, rn, l / b);
                    combined.normalize();
                    next.insert(combined);
                    if next.len() > row_cap {
                        // Bail out conservatively: the finished rows of the
                        // partial set are still valid invariants.
                        return Elimination {
                            rows: next.rows,
                            complete: false,
                        };
                    }
                }
            }
            rows = next.rows;
        }
        Elimination {
            rows,
            complete: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetBuilder, TransitionKind};

    fn producer_consumer() -> PetriNet {
        // src -> buf -> cons, cons -> done (a simple pipeline with a cycle
        // through the process place to make a T-invariant possible).
        let mut b = NetBuilder::new("pc");
        let buf = b.place("buf", 0);
        let idle = b.place("idle", 1);
        let src = b.transition("produce", TransitionKind::UncontrollableSource);
        let cons = b.transition("consume", TransitionKind::Internal);
        b.arc_t2p(src, buf, 1);
        b.arc_p2t(buf, cons, 1);
        b.arc_p2t(idle, cons, 1);
        b.arc_t2p(cons, idle, 1);
        b.build().unwrap()
    }

    #[test]
    fn incidence_matrix_entries() {
        let net = producer_consumer();
        let c = incidence_matrix(&net);
        let buf = net.place_by_name("buf").unwrap();
        let src = net.transition_by_name("produce").unwrap();
        let cons = net.transition_by_name("consume").unwrap();
        assert_eq!(c.entry(buf, src), 1);
        assert_eq!(c.entry(buf, cons), -1);
        assert_eq!(c.num_places(), 2);
        assert_eq!(c.num_transitions(), 2);
    }

    #[test]
    fn invariant_basis_of_pipeline() {
        let net = producer_consumer();
        let basis = t_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 1);
        let inv = &basis[0];
        assert!(inv.is_valid_for(&net));
        let src = net.transition_by_name("produce").unwrap();
        let cons = net.transition_by_name("consume").unwrap();
        assert_eq!(inv.count(src), 1);
        assert_eq!(inv.count(cons), 1);
        assert_eq!(inv.support(), vec![src, cons]);
    }

    #[test]
    fn weighted_invariant_counts() {
        // a produces 2 tokens, b consumes 3: the minimal invariant fires a
        // three times and b twice.
        let mut bld = NetBuilder::new("weights");
        let p = bld.place("p", 0);
        let a = bld.transition("a", TransitionKind::UncontrollableSource);
        let b = bld.transition("b", TransitionKind::Internal);
        bld.arc_t2p(a, p, 2);
        bld.arc_p2t(p, b, 3);
        let net = bld.build().unwrap();
        let basis = t_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 1);
        let a = net.transition_by_name("a").unwrap();
        let b = net.transition_by_name("b").unwrap();
        assert_eq!(basis[0].count(a), 3);
        assert_eq!(basis[0].count(b), 2);
    }

    #[test]
    fn no_invariant_for_pure_accumulator() {
        // A net that only produces tokens has no (non-trivial) T-invariant.
        let mut b = NetBuilder::new("acc");
        let p = b.place("p", 0);
        let src = b.transition("src", TransitionKind::UncontrollableSource);
        b.arc_t2p(src, p, 1);
        let net = b.build().unwrap();
        let basis = t_invariant_basis(&net, 10_000);
        assert!(basis.is_empty());
    }

    #[test]
    fn invariant_helpers() {
        let inv = TInvariant::from_counts(vec![0, 2, 1]);
        assert!(!inv.is_zero());
        assert!(inv.contains(TransitionId::new(1)));
        assert!(!inv.contains(TransitionId::new(0)));
        let sum = inv.sum(&TInvariant::from_counts(vec![1, 0, 0]));
        assert_eq!(sum.as_slice(), &[1, 2, 1]);
        assert!(TInvariant::from_counts(vec![0, 0]).is_zero());
    }

    fn choice_net() -> PetriNet {
        let mut bld = NetBuilder::new("choice");
        let idle = bld.place("idle", 1);
        let mid = bld.place("mid", 0);
        let start = bld.transition("start", TransitionKind::Internal);
        let left = bld.transition("left", TransitionKind::Internal);
        let right = bld.transition("right", TransitionKind::Internal);
        bld.arc_p2t(idle, start, 1);
        bld.arc_t2p(start, mid, 1);
        bld.arc_p2t(mid, left, 1);
        bld.arc_p2t(mid, right, 1);
        bld.arc_t2p(left, idle, 1);
        bld.arc_t2p(right, idle, 1);
        bld.build().unwrap()
    }

    #[test]
    fn p_invariant_basis_of_pipeline() {
        // The source pumps `buf`, so only the conservative `idle` place is
        // covered by a semiflow.
        let net = producer_consumer();
        let basis = p_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 1);
        let inv = &basis[0];
        assert!(inv.is_valid_for(&net));
        let idle = net.place_by_name("idle").unwrap();
        let buf = net.place_by_name("buf").unwrap();
        assert_eq!(inv.weight(idle), 1);
        assert!(!inv.contains(buf));
        assert_eq!(inv.support(), vec![idle]);
        assert_eq!(inv.weighted_tokens(net.initial_marking().as_slice()), 1);
    }

    #[test]
    fn p_invariant_of_choice_net_covers_both_places() {
        // idle + mid is conserved: one token circulates through the choice.
        let net = choice_net();
        let (basis, complete) = p_invariant_elimination(&net, 10_000);
        assert!(complete);
        assert_eq!(basis.len(), 1);
        let idle = net.place_by_name("idle").unwrap();
        let mid = net.place_by_name("mid").unwrap();
        assert_eq!(basis[0].weight(idle), 1);
        assert_eq!(basis[0].weight(mid), 1);
        assert!(basis[0].is_valid_for(&net));
    }

    #[test]
    fn weighted_p_invariant_weights() {
        // t moves tokens 2-from-a, 3-into-b: conservation needs 3·a + 2·b.
        let mut bld = NetBuilder::new("pweights");
        let a = bld.place("a", 6);
        let b = bld.place("b", 0);
        let t = bld.transition("t", TransitionKind::Internal);
        bld.arc_p2t(a, t, 2);
        bld.arc_t2p(t, b, 3);
        let net = bld.build().unwrap();
        let basis = p_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 1);
        let a = net.place_by_name("a").unwrap();
        let b = net.place_by_name("b").unwrap();
        assert_eq!(basis[0].weight(a), 3);
        assert_eq!(basis[0].weight(b), 2);
        assert_eq!(
            basis[0].weighted_tokens(net.initial_marking().as_slice()),
            18
        );
    }

    #[test]
    fn p_invariant_dense_oracle_agrees_on_fixtures() {
        for net in [producer_consumer(), choice_net()] {
            assert_eq!(
                p_invariant_basis(&net, 10_000),
                p_invariant_basis_dense(&net, 10_000),
                "sparse and dense P-bases differ on {}",
                net.name()
            );
        }
    }

    #[test]
    fn p_invariant_helpers() {
        let inv = PInvariant::from_weights(vec![0, 2, 1]);
        assert!(!inv.is_zero());
        assert!(inv.contains(PlaceId::new(1)));
        assert!(!inv.contains(PlaceId::new(0)));
        assert_eq!(inv.as_slice(), &[0, 2, 1]);
        assert_eq!(inv.weighted_tokens(&[5, 1, 3]), 5);
        assert!(PInvariant::from_weights(vec![0, 0]).is_zero());
    }

    #[test]
    fn surinvariant_cover_of_choice_net_is_total() {
        // No sources: every place is covered by a sur-invariant, which is
        // exactly the structural-boundedness certificate.
        let net = choice_net();
        let (cover, complete) =
            surinvariant_cover(&net, &net.transition_ids().collect::<Vec<_>>(), 10_000);
        assert!(complete);
        for p in net.place_ids() {
            assert!(
                cover.iter().any(|y| y.iter().any(|&(q, _)| q == p)),
                "place {p} uncovered"
            );
        }
    }

    #[test]
    fn surinvariant_cover_misses_accumulator_place() {
        // An internal transition strictly grows `p`: no y ≥ 0 with
        // yᵀC ≤ 0 can cover it, and the complete elimination proves it.
        let mut bld = NetBuilder::new("pump");
        let p = bld.place("p", 1);
        let t = bld.transition("t", TransitionKind::Internal);
        bld.arc_p2t(p, t, 1);
        bld.arc_t2p(t, p, 2);
        let net = bld.build().unwrap();
        let (cover, complete) =
            surinvariant_cover(&net, &net.transition_ids().collect::<Vec<_>>(), 10_000);
        assert!(complete);
        let p = net.place_by_name("p").unwrap();
        assert!(cover.iter().all(|y| y.iter().all(|&(q, _)| q != p)));
    }

    #[test]
    fn choice_net_has_two_invariants() {
        // A choice place with two branches that both return to the idle
        // place yields two minimal invariants (one per branch).
        let mut bld = NetBuilder::new("choice");
        let idle = bld.place("idle", 1);
        let mid = bld.place("mid", 0);
        let start = bld.transition("start", TransitionKind::Internal);
        let left = bld.transition("left", TransitionKind::Internal);
        let right = bld.transition("right", TransitionKind::Internal);
        bld.arc_p2t(idle, start, 1);
        bld.arc_t2p(start, mid, 1);
        bld.arc_p2t(mid, left, 1);
        bld.arc_p2t(mid, right, 1);
        bld.arc_t2p(left, idle, 1);
        bld.arc_t2p(right, idle, 1);
        let net = bld.build().unwrap();
        let basis = t_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 2);
        for inv in &basis {
            assert!(inv.is_valid_for(&net));
        }
    }

    /// A splitmix64 stream: seeded, dependency-free randomness for the
    /// elimination oracle test.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// `rows` random sparse rows over `width` columns with small values,
    /// with an occasional exact duplicate of an earlier row.
    fn random_rows(rng: &mut SplitMix, rows: usize, width: usize) -> Vec<SparseRow> {
        let mut out: Vec<SparseRow> = Vec::with_capacity(rows);
        for _ in 0..rows {
            if !out.is_empty() && rng.below(8) == 0 {
                let copy = out[rng.below(out.len() as u64) as usize].clone();
                out.push(copy);
                continue;
            }
            let mut entries = Vec::new();
            for c in 0..width as u32 {
                if rng.below(5) < 2 {
                    entries.push((c, [-3, -2, -1, 1, 2, 3][rng.below(6) as usize]));
                }
            }
            out.push(SparseRow { entries });
        }
        out
    }

    #[test]
    fn eliminate_matches_the_round_by_round_oracle() {
        let cases = if cfg!(miri) { 6 } else { 600 };
        let mut rng = SplitMix(0x5eed_fa2c_a5e5);
        let caps = [4, 8, 16, 32, 64, usize::MAX];
        for case in 0..cases {
            let row_cap = caps[case % caps.len()];
            // Uncapped runs stay small: Fourier–Motzkin can square the
            // row count per eliminated column.
            let (max_rows, max_cols) = if row_cap == usize::MAX {
                (6, 4)
            } else {
                (16, 7)
            };
            let ncols = rng.below(max_cols + 1) as usize;
            let width = ncols + rng.below(4) as usize;
            let count = rng.below(max_rows + 1) as usize;
            let rows = random_rows(&mut rng, count, width);
            let expected = eliminate_oracle::eliminate(rows.clone(), ncols, row_cap);
            let actual = eliminate(rows.clone(), ncols, row_cap);
            assert_eq!(
                (&actual.rows, actual.complete),
                (&expected.rows, expected.complete),
                "case {case}: ncols {ncols}, row cap {row_cap}, rows {rows:?}"
            );
        }
    }

    #[test]
    fn survivors_above_the_cap_bail_at_the_first_combination() {
        // Five rows are zero in the pivot column, above the cap of 4, and
        // the only combination duplicates the first of them: the round
        // still bails, at that combination.
        let mut rows: Vec<SparseRow> = (1..=5)
            .map(|c| SparseRow {
                entries: vec![(c, 1)],
            })
            .collect();
        rows.push(SparseRow {
            entries: vec![(0, 1), (1, 1)],
        });
        rows.push(SparseRow {
            entries: vec![(0, -1)],
        });
        let expected = eliminate_oracle::eliminate(rows.clone(), 1, 4);
        let actual = eliminate(rows, 1, 4);
        assert!(!expected.complete);
        assert_eq!(expected.rows.len(), 5);
        assert_eq!(
            (&actual.rows, actual.complete),
            (&expected.rows, expected.complete)
        );
    }

    #[test]
    fn overflowing_combination_ends_the_elimination_incomplete() {
        // Cancelling column 0 scales the positive row by 2, and 2·2^62
        // does not fit an i64.
        let rows = vec![
            SparseRow {
                entries: vec![(0, 3), (1, 1 << 62)],
            },
            SparseRow {
                entries: vec![(0, -2), (2, 1)],
            },
        ];
        let elim = eliminate(rows, 1, usize::MAX);
        assert!(!elim.complete);
        assert!(elim.rows.is_empty());
    }

    #[test]
    fn sparse_validity_checks_agree_with_the_incidence_matrix() {
        let net = choice_net();
        let c = incidence_matrix(&net);
        for counts in [vec![1, 1, 0], vec![1, 0, 1], vec![2, 1, 1], vec![1, 1, 1]] {
            let x: Vec<i64> = counts.iter().map(|&v| v as i64).collect();
            let dense = c.apply(&x).iter().all(|&v| v == 0);
            assert_eq!(TInvariant::from_counts(counts).is_valid_for(&net), dense);
        }
        for weights in [vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]] {
            let dense = net.transition_ids().all(|t| {
                net.place_ids()
                    .map(|p| weights[p.index()] as i64 * c.entry(p, t))
                    .sum::<i64>()
                    == 0
            });
            assert_eq!(PInvariant::from_weights(weights).is_valid_for(&net), dense);
        }
    }

    #[test]
    fn minimal_supports_drop_strict_supersets_only() {
        let rows: [&[(u32, i64)]; 5] = [
            &[(0, 1), (1, 1), (2, 1)],
            &[(1, 2), (2, 1)],
            &[(1, 1), (2, 3)],
            &[(0, 1), (3, 1)],
            &[(3, 4)],
        ];
        let kept: Vec<&[(u32, i64)]> = minimal_supports(&rows).collect();
        // {0,1,2} ⊋ {1,2} and {0,3} ⊋ {3}; the two equal supports {1,2}
        // both stay.
        assert_eq!(kept, vec![rows[1], rows[2], rows[4]]);
    }
}
