//! Structural static analysis: place bounds, siphons/traps, dead
//! transitions and choice classification.
//!
//! Everything in this module is *structural* — proved from the incidence
//! matrix and the initial marking alone, without enumerating reachable
//! markings — so it runs as a pre-pass before any schedule search:
//!
//! * **Place bounds.** A place covered by a sur-invariant (`y ≥ 0`,
//!   `yᵀ·C ≤ 0`, `y[p] > 0`) can never hold more than `(y·M0)/y[p]`
//!   tokens, under *any* firing sequence. The analyzer computes the
//!   generator cover once over all transitions (sound bounds against full
//!   reachability) and once over the internal transitions only (sources
//!   excluded): a place missed by a *complete* internal cover is provably
//!   unbounded even without the environment pumping it — the
//!   `QSS-E002` condition.
//! * **Dead transitions.** A conservative forward fixed point over
//!   "potentially markable places / potentially fireable transitions":
//!   a transition outside the fixed point can never fire, from any
//!   reachable marking. The over-approximation ignores arc weights, so a
//!   transition *inside* the fixed point may still be dead — the analyzer
//!   only ever claims death it can prove.
//! * **Siphons and traps.** Bounded exhaustive enumeration of minimal
//!   siphons (`•S ⊆ S•`: once empty, empty forever) and traps
//!   (`S• ⊆ •S`: once marked, marked forever) with a typed
//!   [`EnumerationStatus::GaveUp`] result when the net exceeds the
//!   enumeration limits. An initially unmarked siphon permanently
//!   disables every transition consuming from it.
//! * **Classification.** Structural sources/sinks and equal-conflict
//!   (extended free-choice) violations: places whose successor
//!   transitions have differing presets, i.e. choices the scheduler
//!   cannot resolve uniformly.

use crate::ids::{PlaceId, TransitionId};
use crate::invariant::{
    p_invariant_elimination, p_invariant_elimination_dense, surinvariant_cover, PInvariant,
};
use crate::net::{PetriNet, TransitionKind};
use serde::{Deserialize, Serialize};

/// Resource limits for the structural analyzer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructuralLimits {
    /// Cap on intermediate Farkas rows, shared with
    /// [`crate::t_invariant_basis`]'s discipline: hitting it degrades the
    /// affected analyses to "incomplete" instead of aborting.
    pub row_cap: usize,
    /// Siphons/traps are enumerated exhaustively only for nets with at
    /// most this many places; larger nets report
    /// [`EnumerationStatus::GaveUp`] without attempting the `2^places`
    /// sweep.
    pub max_siphon_places: usize,
    /// Cap on reported minimal siphons/traps; exceeding it truncates the
    /// list and reports [`EnumerationStatus::GaveUp`].
    pub max_components: usize,
}

impl Default for StructuralLimits {
    fn default() -> Self {
        StructuralLimits {
            row_cap: 50_000,
            max_siphon_places: 14,
            max_components: 64,
        }
    }
}

/// Whether a bounded enumeration ran to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnumerationStatus {
    /// Every candidate was examined; the component list is exhaustive.
    Complete,
    /// A resource limit stopped the enumeration after examining
    /// `examined` candidates. The reported components are valid but the
    /// list is not exhaustive, so their *absence* proves nothing.
    GaveUp {
        /// Number of candidate place sets examined before giving up.
        examined: u64,
    },
}

impl EnumerationStatus {
    /// `true` if the enumeration examined every candidate.
    pub fn is_complete(&self) -> bool {
        matches!(self, EnumerationStatus::Complete)
    }
}

/// One minimal siphon or trap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaceSet {
    /// The places of the component, in place-id order.
    pub places: Vec<PlaceId>,
    /// `true` if some place of the component carries an initial token.
    pub initially_marked: bool,
}

/// The minimal siphons or traps of a net, found by bounded enumeration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentEnumeration {
    /// The minimal components found, ordered by place-id sets.
    pub components: Vec<PlaceSet>,
    /// Whether the enumeration was exhaustive.
    pub status: EnumerationStatus,
}

/// Structural facts about one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaceFacts {
    /// Proven bound on the place's token count under *any* firing
    /// sequence (from a covering sur-invariant over all transitions);
    /// `None` when no cover proves one — which does not imply the place
    /// is unbounded.
    pub bound: Option<u32>,
    /// `true` when the place is *provably* structurally unbounded under
    /// the internal (non-source) transitions alone: the complete
    /// sur-invariant cover of the source-stripped net misses it. Only
    /// ever set when that elimination ran to completion.
    pub internally_unbounded: bool,
}

/// The result of the structural pre-pass over one net.
///
/// All vectors are ordered by id, so serializing a report is
/// deterministic for a given net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructuralReport {
    /// Minimal-support P-invariant basis (`yᵀ·C = 0`).
    pub p_invariants: Vec<PInvariant>,
    /// `true` when the P-invariant elimination examined every row — the
    /// basis is exhaustive.
    pub p_invariants_complete: bool,
    /// Per-place facts, indexed by place.
    pub places: Vec<PlaceFacts>,
    /// `true` when the full-net sur-invariant cover (the source of
    /// [`PlaceFacts::bound`]) ran to completion.
    pub bounds_complete: bool,
    /// `true` when the internal (source-stripped) cover ran to
    /// completion; only then can `internally_unbounded` be set.
    pub internal_complete: bool,
    /// The maximum proven bound over all places, present only when
    /// *every* place has a proven bound: the whole net is then
    /// structurally bounded, and no reachable marking holds more than
    /// this many tokens in any one place.
    pub max_marking_bound: Option<u32>,
    /// Transitions that provably can never fire, in id order.
    pub dead_transitions: Vec<TransitionId>,
    /// Places that provably can never carry a token, in id order.
    pub never_marked_places: Vec<PlaceId>,
    /// Transitions with an empty preset (structural sources), in id order.
    pub source_transitions: Vec<TransitionId>,
    /// Transitions with an empty postset (structural sinks), in id order.
    pub sink_transitions: Vec<TransitionId>,
    /// Places whose successor transitions have differing presets —
    /// equal-conflict (extended free-choice) violations, in id order.
    pub free_choice_violations: Vec<PlaceId>,
    /// Minimal siphons (bounded enumeration).
    pub siphons: ComponentEnumeration,
    /// Minimal traps (bounded enumeration).
    pub traps: ComponentEnumeration,
}

impl StructuralReport {
    /// Proven bound of place `p`, if any.
    pub fn bound(&self, p: PlaceId) -> Option<u32> {
        self.places[p.index()].bound
    }

    /// `true` if transition `t` provably can never fire.
    pub fn is_dead(&self, t: TransitionId) -> bool {
        self.dead_transitions.contains(&t)
    }

    /// Places proven structurally unbounded under internal transitions
    /// alone, in id order.
    pub fn unbounded_places(&self) -> Vec<PlaceId> {
        self.places
            .iter()
            .enumerate()
            .filter(|(_, f)| f.internally_unbounded)
            .map(|(i, _)| PlaceId::new(i))
            .collect()
    }

    /// `true` when the net has no equal-conflict violations.
    pub fn is_free_choice(&self) -> bool {
        self.free_choice_violations.is_empty()
    }

    /// The minimal siphons that carry no initial token — each one
    /// permanently disables every transition consuming from it.
    pub fn unmarked_siphons(&self) -> Vec<&PlaceSet> {
        self.siphons
            .components
            .iter()
            .filter(|s| !s.initially_marked)
            .collect()
    }
}

/// Runs the structural pre-pass on `net` under `limits`.
pub fn structural_report(net: &PetriNet, limits: &StructuralLimits) -> StructuralReport {
    let (p_invariants, p_invariants_complete) = p_invariant_elimination(net, limits.row_cap);
    build_report(net, limits, p_invariants, p_invariants_complete)
}

/// [`structural_report`] with the P-invariant basis (and its completeness)
/// computed by the dense oracle ([`p_invariant_elimination_dense`])
/// instead of the sparse dual. Retained for differential testing and
/// benchmarking; do not use it in production paths.
pub fn structural_report_dense(net: &PetriNet, limits: &StructuralLimits) -> StructuralReport {
    let (p_invariants, p_invariants_complete) = p_invariant_elimination_dense(net, limits.row_cap);
    build_report(net, limits, p_invariants, p_invariants_complete)
}

fn build_report(
    net: &PetriNet,
    limits: &StructuralLimits,
    p_invariants: Vec<PInvariant>,
    p_invariants_complete: bool,
) -> StructuralReport {
    let np = net.num_places();
    let initial = net.initial_marking();
    let m0 = initial.as_slice();

    // Sur-invariant covers: all transitions (sound bounds against any
    // firing) and internal transitions only (provable unboundedness with
    // the environment factored out).
    let all: Vec<TransitionId> = net.transition_ids().collect();
    let internal: Vec<TransitionId> = net
        .transition_ids()
        .filter(|&t| {
            matches!(
                net.transition(t).kind,
                TransitionKind::Internal | TransitionKind::Sink
            )
        })
        .collect();
    let (full_cover, bounds_complete) = surinvariant_cover(net, &all, limits.row_cap);
    let (internal_cover, internal_complete) = surinvariant_cover(net, &internal, limits.row_cap);

    // A generator `y` bounds each place of its support by `(y·M0)/y[p]`;
    // a place's bound is the least over the generators covering it.
    let mut bounds: Vec<Option<u32>> = vec![None; np];
    for y in &full_cover {
        let conserved: u128 = y
            .iter()
            .map(|&(p, w)| w as u128 * m0[p.index()] as u128)
            .sum();
        for &(p, w) in y {
            let bound = u32::try_from(conserved / w as u128).unwrap_or(u32::MAX);
            let slot = &mut bounds[p.index()];
            *slot = Some(slot.map_or(bound, |b| b.min(bound)));
        }
    }
    let mut internally_covered = vec![false; np];
    for y in &internal_cover {
        for &(p, _) in y {
            internally_covered[p.index()] = true;
        }
    }
    let places: Vec<PlaceFacts> = bounds
        .into_iter()
        .zip(internally_covered)
        .map(|(bound, covered)| PlaceFacts {
            bound,
            internally_unbounded: internal_complete && !covered,
        })
        .collect();
    let max_marking_bound = places
        .iter()
        .map(|f| f.bound)
        .collect::<Option<Vec<u32>>>()
        .map(|bounds| bounds.into_iter().max().unwrap_or(0));

    let (dead_transitions, never_marked_places) = dead_fixpoint(net);

    let source_transitions: Vec<TransitionId> = net
        .transition_ids()
        .filter(|&t| net.preset(t).is_empty())
        .collect();
    let sink_transitions: Vec<TransitionId> = net
        .transition_ids()
        .filter(|&t| net.postset(t).is_empty())
        .collect();

    let sorted_preset = |t: TransitionId| {
        let mut arcs: Vec<(PlaceId, u32)> = net.preset(t).to_vec();
        arcs.sort_unstable();
        arcs
    };
    let free_choice_violations: Vec<PlaceId> = net
        .place_ids()
        .filter(|&p| {
            let succs = net.place_successors(p);
            succs
                .windows(2)
                .any(|w| sorted_preset(w[0]) != sorted_preset(w[1]))
        })
        .collect();

    let siphons = enumerate_components(net, limits, ComponentKind::Siphon);
    let traps = enumerate_components(net, limits, ComponentKind::Trap);

    StructuralReport {
        p_invariants,
        p_invariants_complete,
        places,
        bounds_complete,
        internal_complete,
        max_marking_bound,
        dead_transitions,
        never_marked_places,
        source_transitions,
        sink_transitions,
        free_choice_violations,
        siphons,
        traps,
    }
}

/// The conservative "potentially fireable" forward fixed point: returns
/// the provably dead transitions and the provably never-marked places.
fn dead_fixpoint(net: &PetriNet) -> (Vec<TransitionId>, Vec<PlaceId>) {
    let mut markable: Vec<bool> = net
        .initial_marking()
        .as_slice()
        .iter()
        .map(|&m| m > 0)
        .collect();
    let mut fireable = vec![false; net.num_transitions()];
    let mut changed = true;
    while changed {
        changed = false;
        for t in net.transition_ids() {
            if fireable[t.index()] {
                continue;
            }
            if net.preset(t).iter().all(|&(p, _)| markable[p.index()]) {
                fireable[t.index()] = true;
                changed = true;
                for &(p, _) in net.postset(t) {
                    markable[p.index()] = true;
                }
            }
        }
    }
    let dead = net
        .transition_ids()
        .filter(|&t| !fireable[t.index()])
        .collect();
    let never_marked = net.place_ids().filter(|&p| !markable[p.index()]).collect();
    (dead, never_marked)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ComponentKind {
    Siphon,
    Trap,
}

/// Exhaustively enumerates the minimal siphons or traps of `net`, bounded
/// by `limits`: nets with more than `max_siphon_places` places, or with
/// more than `max_components` minimal components, report
/// [`EnumerationStatus::GaveUp`].
fn enumerate_components(
    net: &PetriNet,
    limits: &StructuralLimits,
    kind: ComponentKind,
) -> ComponentEnumeration {
    let np = net.num_places();
    if np > limits.max_siphon_places {
        return ComponentEnumeration {
            components: Vec::new(),
            status: EnumerationStatus::GaveUp { examined: 0 },
        };
    }

    // Precompute per-transition preset/postset place masks.
    let mut pre = vec![0u32; net.num_transitions()];
    let mut post = vec![0u32; net.num_transitions()];
    for t in net.transition_ids() {
        for &(p, _) in net.preset(t) {
            pre[t.index()] |= 1 << p.index();
        }
        for &(p, _) in net.postset(t) {
            post[t.index()] |= 1 << p.index();
        }
    }
    let m0 = net.initial_marking();
    let marked_mask: u32 = m0
        .as_slice()
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m > 0)
        .fold(0, |acc, (i, _)| acc | 1 << i);

    // A set S is a siphon when every transition producing into S also
    // consumes from S, and a trap when every transition consuming from S
    // also produces into S. Masks are visited in ascending popcount
    // order, so a candidate is minimal exactly when no kept component is
    // a subset of it.
    let is_component = |mask: u32| -> bool {
        (0..net.num_transitions()).all(|t| match kind {
            ComponentKind::Siphon => post[t] & mask == 0 || pre[t] & mask != 0,
            ComponentKind::Trap => pre[t] & mask == 0 || post[t] & mask != 0,
        })
    };

    let mut masks: Vec<u32> = (1u32..1 << np).collect();
    masks.sort_by_key(|m| m.count_ones());
    let mut kept: Vec<u32> = Vec::new();
    let mut examined: u64 = 0;
    let mut gave_up = false;
    for mask in masks {
        examined += 1;
        if kept.iter().any(|&k| k | mask == mask) {
            continue; // a smaller component is contained: not minimal
        }
        if !is_component(mask) {
            continue;
        }
        if kept.len() == limits.max_components {
            gave_up = true;
            break;
        }
        kept.push(mask);
    }

    let components = kept
        .iter()
        .map(|&mask| PlaceSet {
            places: (0..np)
                .filter(|&p| mask & (1 << p) != 0)
                .map(PlaceId::new)
                .collect(),
            initially_marked: mask & marked_mask != 0,
        })
        .collect();
    ComponentEnumeration {
        components,
        status: if gave_up {
            EnumerationStatus::GaveUp { examined }
        } else {
            EnumerationStatus::Complete
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use crate::reach::{ReachabilityGraph, ReachabilityLimits};

    /// src -> buf -> cons cycle through an idle place.
    fn producer_consumer() -> PetriNet {
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
    fn report_on_producer_consumer() {
        let net = producer_consumer();
        let report = structural_report(&net, &StructuralLimits::default());
        let buf = net.place_by_name("buf").unwrap();
        let idle = net.place_by_name("idle").unwrap();
        // `idle` is conserved; `buf` is pumped by the source, so it has no
        // full-net bound but is internally bounded.
        assert_eq!(report.bound(idle), Some(1));
        assert_eq!(report.bound(buf), None);
        assert!(report.bounds_complete);
        assert!(report.internal_complete);
        assert!(!report.places[buf.index()].internally_unbounded);
        assert_eq!(report.max_marking_bound, None);
        assert!(report.dead_transitions.is_empty());
        assert!(report.never_marked_places.is_empty());
        assert_eq!(report.source_transitions.len(), 1);
        assert!(report.is_free_choice());
        assert!(report.siphons.status.is_complete());
        // {idle} is both a minimal siphon and a minimal trap, and marked.
        assert!(report
            .siphons
            .components
            .iter()
            .any(|s| s.places == vec![idle] && s.initially_marked));
        assert!(report.unmarked_siphons().is_empty());
    }

    #[test]
    fn dead_transition_and_unmarked_siphon_detected() {
        // Two processes waiting on each other's channel, no tokens, no
        // sources: everything is dead and {a, b} is an unmarked siphon.
        let mut bld = NetBuilder::new("deadlock");
        let a = bld.place("a", 0);
        let b = bld.place("b", 0);
        let t1 = bld.transition("t1", TransitionKind::Internal);
        let t2 = bld.transition("t2", TransitionKind::Internal);
        bld.arc_p2t(a, t1, 1);
        bld.arc_t2p(t1, b, 1);
        bld.arc_p2t(b, t2, 1);
        bld.arc_t2p(t2, a, 1);
        let net = bld.build().unwrap();
        let report = structural_report(&net, &StructuralLimits::default());
        assert_eq!(report.dead_transitions.len(), 2);
        assert_eq!(report.never_marked_places.len(), 2);
        let unmarked = report.unmarked_siphons();
        // {a, b} is the (only) minimal siphon, and it carries no token.
        assert_eq!(unmarked.len(), 1);
        assert_eq!(unmarked[0].places.len(), 2);
    }

    #[test]
    fn internal_pump_is_provably_unbounded() {
        // An internal transition that nets +1 token on `p` per firing.
        let mut bld = NetBuilder::new("pump");
        let p = bld.place("p", 1);
        let t = bld.transition("t", TransitionKind::Internal);
        bld.arc_p2t(p, t, 1);
        bld.arc_t2p(t, p, 2);
        let net = bld.build().unwrap();
        let report = structural_report(&net, &StructuralLimits::default());
        let p = net.place_by_name("p").unwrap();
        assert!(report.internal_complete);
        assert!(report.places[p.index()].internally_unbounded);
        assert_eq!(report.unbounded_places(), vec![p]);
        assert_eq!(report.bound(p), None);
    }

    #[test]
    fn fully_bounded_net_records_max_marking_bound() {
        // A conservative choice cycle: both places covered, max bound 1.
        let mut bld = NetBuilder::new("cycle");
        let idle = bld.place("idle", 1);
        let mid = bld.place("mid", 0);
        let go = bld.transition("go", TransitionKind::Internal);
        let back = bld.transition("back", TransitionKind::Internal);
        bld.arc_p2t(idle, go, 1);
        bld.arc_t2p(go, mid, 1);
        bld.arc_p2t(mid, back, 1);
        bld.arc_t2p(back, idle, 1);
        let net = bld.build().unwrap();
        let report = structural_report(&net, &StructuralLimits::default());
        assert_eq!(report.max_marking_bound, Some(1));
        for p in net.place_ids() {
            assert_eq!(report.bound(p), Some(1));
        }
        // Sanity: the proven bounds hold on the exhaustive reachability
        // graph.
        let graph = ReachabilityGraph::explore(&net, &ReachabilityLimits::default()).unwrap();
        for (p, peak) in graph.place_peaks().iter().enumerate() {
            assert!(*peak <= report.bound(PlaceId::new(p)).unwrap());
        }
    }

    #[test]
    fn free_choice_violation_flagged() {
        // `shared` feeds t1 and t2, but t2 also needs `extra`: the
        // conflict is not equal-preset.
        let mut bld = NetBuilder::new("nfc");
        let shared = bld.place("shared", 1);
        let extra = bld.place("extra", 1);
        let t1 = bld.transition("t1", TransitionKind::Internal);
        let t2 = bld.transition("t2", TransitionKind::Internal);
        bld.arc_p2t(shared, t1, 1);
        bld.arc_p2t(shared, t2, 1);
        bld.arc_p2t(extra, t2, 1);
        let net = bld.build().unwrap();
        let report = structural_report(&net, &StructuralLimits::default());
        let shared = net.place_by_name("shared").unwrap();
        assert_eq!(report.free_choice_violations, vec![shared]);
        assert!(!report.is_free_choice());
    }

    #[test]
    fn wide_net_gives_up_on_siphons_with_typed_status() {
        let mut bld = NetBuilder::new("wide");
        for i in 0..20 {
            bld.place(format!("p{i}"), 0);
        }
        let net = bld.build().unwrap();
        let report = structural_report(&net, &StructuralLimits::default());
        assert_eq!(
            report.siphons.status,
            EnumerationStatus::GaveUp { examined: 0 }
        );
        assert!(report.siphons.components.is_empty());
    }

    #[test]
    fn coprime_weight_chain_is_not_proven_unbounded() {
        // src → p0 –997→ t0 → p1 –991→ t1 → … → p7 –947→ t7: cancelling
        // the chain multiplies its eight coprime weights, which overflows
        // i64. The all-ones vector covers every place of the internal
        // net, so the overflow may only leave the cover incomplete; it
        // must neither panic nor wrap into an unboundedness proof.
        let primes = [997, 991, 983, 977, 971, 967, 953, 947];
        let mut bld = NetBuilder::new("coprime");
        let places: Vec<PlaceId> = (0..primes.len())
            .map(|i| bld.place(format!("p{i}"), 0))
            .collect();
        let src = bld.transition("src", TransitionKind::UncontrollableSource);
        bld.arc_t2p(src, places[0], 1);
        for (i, &w) in primes.iter().enumerate() {
            let t = bld.transition(format!("t{i}"), TransitionKind::Internal);
            bld.arc_p2t(places[i], t, w);
            if let Some(&next) = places.get(i + 1) {
                bld.arc_t2p(t, next, 1);
            }
        }
        let net = bld.build().unwrap();
        let report = structural_report(&net, &StructuralLimits::default());
        assert!(report.unbounded_places().is_empty());
    }

    #[test]
    fn dense_report_oracle_agrees() {
        let net = producer_consumer();
        let limits = StructuralLimits::default();
        assert_eq!(
            structural_report(&net, &limits),
            structural_report_dense(&net, &limits)
        );
    }

    #[test]
    fn dense_report_oracle_agrees_when_the_elimination_bails() {
        // Six places with one token-moving transition per ordered pair:
        // the first pivot already needs five rows, so both eliminations
        // bail at a cap of four and must report the basis incomplete.
        let mut bld = NetBuilder::new("k6");
        let places: Vec<PlaceId> = (0..6).map(|i| bld.place(format!("p{i}"), 1)).collect();
        for (i, &from) in places.iter().enumerate() {
            for (j, &to) in places.iter().enumerate() {
                if i != j {
                    let t = bld.transition(format!("t{i}_{j}"), TransitionKind::Internal);
                    bld.arc_p2t(from, t, 1);
                    bld.arc_t2p(t, to, 1);
                }
            }
        }
        let net = bld.build().unwrap();
        let limits = StructuralLimits {
            row_cap: 4,
            ..StructuralLimits::default()
        };
        let sparse = structural_report(&net, &limits);
        assert!(!sparse.p_invariants_complete);
        assert_eq!(sparse, structural_report_dense(&net, &limits));
    }
}
