//! Runs of a set of schedules against an environment input sequence
//! (Definition 4.1) and the executability check of Definition 4.2.
//!
//! A run traverses, for each symbol of the input sequence, the schedule of
//! the corresponding uncontrollable source transition from its current
//! await node to the next await node, resolving data-dependent choices
//! with a caller-provided policy. [`execute_run`] additionally fires every
//! traversed transition in the original net, verifying that the sequence
//! defined by the run is fireable from the initial marking — the
//! executability property guaranteed for independent schedule sets by
//! Proposition 4.2.

use crate::error::{Result, ScheduleError};
use crate::schedule::{NodeId, Schedule};
use qss_petri::{Marking, PetriNet, TransitionId};

/// The outcome of a successfully executed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTrace {
    /// Every transition fired, in order.
    pub fired: Vec<TransitionId>,
    /// The marking of the net after the run.
    pub final_marking: Marking,
    /// The await node each schedule rests at after the run, in the order
    /// the schedules were passed in.
    pub resting_nodes: Vec<NodeId>,
}

/// Safety bound on the number of steps in a single reaction (per input
/// symbol), to guard against malformed schedules.
const MAX_STEPS_PER_REACTION: usize = 100_000;

/// Executes the run of `schedules` with respect to `sequence`, resolving
/// data-dependent choices with `choose` (which receives the schedule, the
/// current node and its outgoing edges and returns the index of the edge
/// to take).
///
/// # Errors
/// Returns [`ScheduleError::RunFailed`] if the sequence contains a source
/// transition no schedule serves, if a traversed transition is not
/// fireable in the net (schedule interference), or if a reaction does not
/// terminate within the step bound.
pub fn execute_run(
    net: &PetriNet,
    schedules: &[Schedule],
    sequence: &[TransitionId],
    mut choose: impl FnMut(&Schedule, NodeId, &[(TransitionId, NodeId)]) -> usize,
) -> Result<RunTrace> {
    let mut positions: Vec<NodeId> = schedules.iter().map(|s| s.root()).collect();
    let mut marking = net.initial_marking();
    let mut fired = Vec::new();

    for &symbol in sequence {
        let index = schedules
            .iter()
            .position(|s| s.source() == symbol)
            .ok_or_else(|| {
                ScheduleError::RunFailed(format!(
                    "no schedule serves uncontrollable source {symbol}"
                ))
            })?;
        let schedule = &schedules[index];
        let mut node = positions[index];
        // Property 2: the first edge of the traversal is the source itself.
        let edges = schedule.edges(node);
        let (first, mut target) = edges
            .iter()
            .find(|(t, _)| *t == symbol)
            .copied()
            .ok_or_else(|| {
                ScheduleError::RunFailed(format!(
                    "schedule for {symbol} is not at an await node for it"
                ))
            })?;
        marking = net.fire(first, &marking).map_err(|_| {
            ScheduleError::RunFailed(format!(
                "transition {first} of the run is not fireable (interference)"
            ))
        })?;
        fired.push(first);
        node = target;
        let mut steps = 0usize;
        while !schedule.is_await_node(net, node) {
            steps += 1;
            if steps > MAX_STEPS_PER_REACTION {
                return Err(ScheduleError::RunFailed(
                    "reaction did not reach an await node".into(),
                ));
            }
            let edges = schedule.edges(node);
            let pick = if edges.len() == 1 {
                0
            } else {
                let i = choose(schedule, node, edges);
                if i >= edges.len() {
                    return Err(ScheduleError::RunFailed(
                        "choice resolver returned an invalid edge index".into(),
                    ));
                }
                i
            };
            let (t, next) = edges[pick];
            marking = net.fire(t, &marking).map_err(|_| {
                ScheduleError::RunFailed(format!(
                    "transition {t} of the run is not fireable (interference)"
                ))
            })?;
            fired.push(t);
            target = next;
            node = target;
        }
        positions[index] = node;
    }
    Ok(RunTrace {
        fired,
        final_marking: marking,
        resting_nodes: positions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ep::tests::find;
    use crate::ep::ScheduleOptions;
    use qss_petri::{NetBuilder, PetriNet, TransitionKind};

    fn two_source_net() -> PetriNet {
        // Two independent chains sharing nothing.
        let mut bl = NetBuilder::new("two");
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
        bl.build().unwrap()
    }

    #[test]
    fn run_of_independent_schedules_is_executable() {
        let net = two_source_net();
        let a = net.transition_by_name("a").unwrap();
        let c = net.transition_by_name("c").unwrap();
        let sa = find(&net, a, &ScheduleOptions::default()).unwrap();
        let sc = find(&net, c, &ScheduleOptions::default()).unwrap();
        let trace = execute_run(&net, &[sa, sc], &[a, c, a, a, c], |_, _, _| 0).unwrap();
        // Every reaction fires the source and its consumer.
        assert_eq!(trace.fired.len(), 10);
        assert_eq!(trace.final_marking, net.initial_marking());
    }

    #[test]
    fn unknown_symbol_is_rejected() {
        let net = two_source_net();
        let a = net.transition_by_name("a").unwrap();
        let c = net.transition_by_name("c").unwrap();
        let sa = find(&net, a, &ScheduleOptions::default()).unwrap();
        let err = execute_run(&net, &[sa], &[c], |_, _, _| 0).unwrap_err();
        assert!(matches!(err, ScheduleError::RunFailed(_)));
    }

    #[test]
    fn data_choices_are_resolved_by_the_policy() {
        // a -> p, p -> yes|no (same ECS), both -> q -> back.
        let mut bl = NetBuilder::new("choice");
        let p = bl.place("p", 0);
        let q = bl.place("q", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let yes = bl.transition("yes", TransitionKind::Internal);
        let no = bl.transition("no", TransitionKind::Internal);
        let back = bl.transition("back", TransitionKind::Internal);
        bl.arc_t2p(a, p, 1);
        bl.arc_p2t(p, yes, 1);
        bl.arc_p2t(p, no, 1);
        bl.arc_t2p(yes, q, 1);
        bl.arc_t2p(no, q, 1);
        bl.arc_p2t(q, back, 1);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        let yes = net.transition_by_name("yes").unwrap();
        let no = net.transition_by_name("no").unwrap();
        let s = find(&net, a, &ScheduleOptions::default()).unwrap();
        // Always pick the edge carrying `no` when there is a choice.
        let trace = execute_run(&net, std::slice::from_ref(&s), &[a, a], |_, _, edges| {
            edges.iter().position(|(t, _)| *t == no).unwrap_or(0)
        })
        .unwrap();
        assert!(trace.fired.contains(&no));
        assert!(!trace.fired.contains(&yes));
    }

    #[test]
    fn interfering_schedules_fail_at_run_time() {
        // Craft a schedule that claims to fire a transition which is not
        // enabled in the real net (simulating interference).
        let net = two_source_net();
        let a = net.transition_by_name("a").unwrap();
        let b = net.transition_by_name("b").unwrap();
        let m0 = net.initial_marking();
        let m1 = net.fire(a, &m0).unwrap();
        let bogus = crate::schedule::Schedule::from_parts(
            a,
            vec![
                crate::schedule::ScheduleNode {
                    marking: m0,
                    edges: vec![(a, NodeId(1))],
                },
                crate::schedule::ScheduleNode {
                    marking: m1.clone(),
                    edges: vec![(b, NodeId(2))],
                },
                crate::schedule::ScheduleNode {
                    // Claims b can fire twice in a row.
                    marking: m1,
                    edges: vec![(b, NodeId(0))],
                },
            ],
        );
        let err = execute_run(&net, &[bogus], &[a], |_, _, _| 0).unwrap_err();
        assert!(matches!(err, ScheduleError::RunFailed(_)));
    }
}
