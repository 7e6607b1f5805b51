//! Independence of schedule sets and static channel bounds (Sec. 4.3).
//!
//! Two single-source schedules are *mutually independent* if every place
//! involved in one of them holds a constant number of tokens over all
//! await nodes of the other. An independent set of SS schedules is
//! executable (Proposition 4.2) and yields tight static bounds on the
//! token count of every place — for channel places this is the buffer
//! size the implementation has to provide.

use crate::schedule::{NodeId, Schedule};
use qss_petri::{PetriNet, PlaceId, TransitionId};
use std::collections::{BTreeMap, BTreeSet};

/// Returns `true` if `a` and `b` are mutually independent with respect to
/// `net` (Definition 4.3).
pub fn are_independent(a: &Schedule, b: &Schedule, net: &PetriNet) -> bool {
    let (a_places, a_awaits) = (a.involved_places(net), a.await_nodes(net));
    let (b_places, b_awaits) = (b.involved_places(net), b.await_nodes(net));
    places_constant_at_awaits(&a_places, b, &b_awaits)
        && places_constant_at_awaits(&b_places, a, &a_awaits)
}

/// Checks that every place of `places` holds the same token count at every
/// await node of `other`.
fn places_constant_at_awaits(
    places: &BTreeSet<PlaceId>,
    other: &Schedule,
    awaits: &[NodeId],
) -> bool {
    places.iter().all(|p| {
        // `Schedule::marking` hands out store rows: no per-probe cloning.
        let mut counts = awaits.iter().map(|v| other.marking(*v)[p.index()]);
        match counts.next() {
            None => true,
            Some(first) => counts.all(|c| c == first),
        }
    })
}

/// Checks pairwise independence of a set of schedules. The involved-place
/// sets and await-node lists are derived once per schedule, not once per
/// pair.
///
/// # Errors
/// Returns the source transitions of the first interfering pair.
pub fn is_independent_set(
    schedules: &[Schedule],
    net: &PetriNet,
) -> std::result::Result<(), (TransitionId, TransitionId)> {
    let places: Vec<BTreeSet<PlaceId>> = schedules.iter().map(|s| s.involved_places(net)).collect();
    let awaits: Vec<Vec<NodeId>> = schedules.iter().map(|s| s.await_nodes(net)).collect();
    for (i, a) in schedules.iter().enumerate() {
        for (j, b) in schedules.iter().enumerate().skip(i + 1) {
            if !places_constant_at_awaits(&places[i], b, &awaits[j])
                || !places_constant_at_awaits(&places[j], a, &awaits[i])
            {
                return Err((a.source(), b.source()));
            }
        }
    }
    Ok(())
}

/// The static token bound of every place involved in at least one
/// schedule: the maximum token count over all nodes of the schedules the
/// place is involved in (Sec. 4.3). For channel places this is the buffer
/// size needed by the generated tasks.
pub fn channel_bounds(schedules: &[Schedule], net: &PetriNet) -> BTreeMap<PlaceId, u32> {
    let mut bounds = BTreeMap::new();
    for s in schedules {
        for p in s.involved_places(net) {
            let peak = s.place_peak(p);
            let entry = bounds.entry(p).or_insert(0);
            *entry = (*entry).max(peak);
        }
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ep::tests::find;
    use crate::ep::ScheduleOptions;
    use qss_petri::{NetBuilder, TransitionKind};

    /// Figure 5: two independent reactive chains sharing the idle place p0.
    fn figure5() -> PetriNet {
        let mut bl = NetBuilder::new("fig5");
        let p0 = bl.place("p0", 1);
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let p3 = bl.place("p3", 0);
        let p4 = bl.place("p4", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::Internal);
        let c = bl.transition("c", TransitionKind::Internal);
        let d = bl.transition("d", TransitionKind::UncontrollableSource);
        let e = bl.transition("e", TransitionKind::Internal);
        let f = bl.transition("f", TransitionKind::Internal);
        // a -> p1 ; p0 + p1 -> b -> p2 ; p2 -> c -> p0
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p0, b, 1);
        bl.arc_p2t(p1, b, 1);
        bl.arc_t2p(b, p2, 1);
        bl.arc_p2t(p2, c, 1);
        bl.arc_t2p(c, p0, 1);
        // d -> p3 ; p0 + p3 -> e -> p4 ; p4 -> f -> p0
        bl.arc_t2p(d, p3, 1);
        bl.arc_p2t(p0, e, 1);
        bl.arc_p2t(p3, e, 1);
        bl.arc_t2p(e, p4, 1);
        bl.arc_p2t(p4, f, 1);
        bl.arc_t2p(f, p0, 1);
        bl.build().unwrap()
    }

    /// Figure 6: the same structure but with weight-2 arcs on c and f, so
    /// each schedule holds tokens on the shared place p0 across its
    /// intermediate await node.
    fn figure6() -> PetriNet {
        let mut bl = NetBuilder::new("fig6");
        let p0 = bl.place("p0", 2);
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let p3 = bl.place("p3", 0);
        let p4 = bl.place("p4", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::Internal);
        let c = bl.transition("c", TransitionKind::Internal);
        let d = bl.transition("d", TransitionKind::UncontrollableSource);
        let e = bl.transition("e", TransitionKind::Internal);
        let f = bl.transition("f", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p0, b, 1);
        bl.arc_p2t(p1, b, 1);
        bl.arc_t2p(b, p2, 1);
        // c consumes 2 tokens of p2 and refills p0 with 2.
        bl.arc_p2t(p2, c, 2);
        bl.arc_t2p(c, p0, 2);
        bl.arc_t2p(d, p3, 1);
        bl.arc_p2t(p0, e, 1);
        bl.arc_p2t(p3, e, 1);
        bl.arc_t2p(e, p4, 1);
        bl.arc_p2t(p4, f, 2);
        bl.arc_t2p(f, p0, 2);
        bl.build().unwrap()
    }

    #[test]
    fn figure5_schedules_are_independent() {
        let net = figure5();
        let a = net.transition_by_name("a").unwrap();
        let d = net.transition_by_name("d").unwrap();
        let sa = find(&net, a, &ScheduleOptions::default()).unwrap();
        let sd = find(&net, d, &ScheduleOptions::default()).unwrap();
        sa.validate(&net).unwrap();
        sd.validate(&net).unwrap();
        assert!(are_independent(&sa, &sd, &net));
        assert!(is_independent_set(&[sa, sd], &net).is_ok());
    }

    #[test]
    fn figure6_schedules_interfere() {
        let net = figure6();
        let a = net.transition_by_name("a").unwrap();
        let d = net.transition_by_name("d").unwrap();
        let sa = find(&net, a, &ScheduleOptions::default()).unwrap();
        let sd = find(&net, d, &ScheduleOptions::default()).unwrap();
        sa.validate(&net).unwrap();
        sd.validate(&net).unwrap();
        // Each schedule has an intermediate await node at which the shared
        // place p0 does not hold its initial token count, so the pair is
        // not independent.
        assert!(!are_independent(&sa, &sd, &net));
        let err = is_independent_set(&[sa, sd], &net).unwrap_err();
        assert_eq!(err, (a, d));
    }

    #[test]
    fn channel_bounds_report_peaks() {
        let net = figure5();
        let a = net.transition_by_name("a").unwrap();
        let d = net.transition_by_name("d").unwrap();
        let sa = find(&net, a, &ScheduleOptions::default()).unwrap();
        let sd = find(&net, d, &ScheduleOptions::default()).unwrap();
        let bounds = channel_bounds(&[sa, sd], &net);
        let p1 = net.place_by_name("p1").unwrap();
        let p0 = net.place_by_name("p0").unwrap();
        assert_eq!(bounds[&p1], 1);
        assert_eq!(bounds[&p0], 1);
    }

    #[test]
    fn independence_is_trivial_for_disjoint_schedules() {
        // Two completely disjoint reactive chains.
        let mut bl = NetBuilder::new("disjoint");
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::Internal);
        let c = bl.transition("c", TransitionKind::UncontrollableSource);
        let d = bl.transition("d", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p1, b, 1);
        bl.arc_t2p(c, p2, 1);
        bl.arc_p2t(p2, d, 1);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        let c = net.transition_by_name("c").unwrap();
        let sa = find(&net, a, &ScheduleOptions::default()).unwrap();
        let sc = find(&net, c, &ScheduleOptions::default()).unwrap();
        assert!(are_independent(&sa, &sc, &net));
    }
}
