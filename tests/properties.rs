//! Property-based tests of the core invariants of the reproduction,
//! spanning the Petri-net kernel, the scheduler and the execution
//! substrate.

use proptest::prelude::*;
use qss_core::{schedule_system, ScheduleOptions, SearchBudget, SearchContext, SearchProfile};
use qss_flowc::{link, parse_process, SystemSpec};
use qss_petri::{
    place_degree, t_invariant_basis, EcsInfo, Marking, NetBuilder, PetriNet, PlaceId, TransitionId,
    TransitionKind,
};
use qss_sim::{
    run_multitask, run_singletask, CycleCostModel, EnvEvent, MultiTaskConfig, SingleTaskConfig,
};

/// A randomly parameterised reactive chain:
/// `source -(w0)-> p0 -(...)-> t0 -> p1 -> t1 ... -> pn`.
/// Produce/consume weights are chosen so a schedule always exists.
fn chain_net(weights: Vec<u32>) -> (PetriNet, TransitionId) {
    let mut b = NetBuilder::new("chain");
    let src = b.transition("src", TransitionKind::UncontrollableSource);
    let mut prev = b.place("p0", 0);
    b.arc_t2p(src, prev, 1);
    for (i, w) in weights.iter().enumerate() {
        let t = b.transition(format!("t{i}"), TransitionKind::Internal);
        // Consume `w` tokens of the previous place, produce one onwards.
        b.arc_p2t(prev, t, *w);
        let next = b.place(format!("p{}", i + 1), 0);
        b.arc_t2p(t, next, 1);
        prev = next;
    }
    // Final consumer drains the last place so the chain is cyclic.
    let sink = b.transition("drain", TransitionKind::Internal);
    b.arc_p2t(prev, sink, 1);
    let net = b.build().unwrap();
    let src = net.transition_by_name("src").unwrap();
    (net, src)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Firing a transition conserves tokens according to the arc weights.
    #[test]
    fn firing_respects_arc_weights(weights in prop::collection::vec(1u32..4, 1..4)) {
        let (net, src) = chain_net(weights);
        let mut m = net.initial_marking();
        for _ in 0..16 {
            let enabled = net.enabled_transitions(&m);
            prop_assert!(!enabled.is_empty());
            let t = enabled[0];
            let next = net.fire(t, &m).unwrap();
            for p in net.place_ids() {
                let expected = m.tokens(p) + net.weight_t2p(t, p) - net.weight_p2t(p, t);
                prop_assert_eq!(next.tokens(p), expected);
            }
            m = next;
        }
        prop_assert!(net.is_enabled(src, &m));
    }

    /// Every invariant returned by the Farkas computation satisfies C·x = 0
    /// and schedules found on weighted chains respect all five properties.
    #[test]
    fn chains_are_schedulable_and_invariants_valid(weights in prop::collection::vec(1u32..4, 1..4)) {
        let (net, src) = chain_net(weights);
        for inv in t_invariant_basis(&net, 10_000) {
            prop_assert!(inv.is_valid_for(&net));
        }
        let (schedule, _) = SearchContext::new(&net)
            .find_schedule_profiled(
                &net,
                src,
                &ScheduleOptions::default(),
                &SearchBudget::unlimited(),
                &mut SearchProfile::default(),
            )
            .unwrap();
        prop_assert!(schedule.validate(&net).is_ok());
        prop_assert!(schedule.is_single_source(&net));
        // The static bound of every place never exceeds its degree plus the
        // largest single production (the irrelevance criterion's guarantee).
        for p in net.place_ids() {
            let max_in = net
                .place_predecessors(p)
                .iter()
                .map(|&t| net.weight_t2p(t, p))
                .max()
                .unwrap_or(0);
            prop_assert!(schedule.place_peak(p) <= place_degree(&net, p) + max_in);
        }
    }

    /// The ECS partition is a true partition: membership is symmetric,
    /// transitive and every non-source transition belongs to exactly one
    /// ECS whose members share identical presets.
    #[test]
    fn ecs_is_a_partition(weights in prop::collection::vec(1u32..4, 1..5)) {
        let (net, _) = chain_net(weights);
        let ecs = EcsInfo::compute(&net);
        let mut seen = std::collections::BTreeSet::new();
        for e in ecs.ecs_ids() {
            for &t in ecs.members(e) {
                prop_assert!(seen.insert(t), "transition in two ECSs");
                prop_assert_eq!(ecs.ecs_of(t), e);
            }
        }
        prop_assert_eq!(seen.len(), net.num_transitions());
    }

    /// Marking covering is a partial order compatible with token addition.
    #[test]
    fn covering_is_monotone(counts in prop::collection::vec(0u32..5, 1..6), extra in 0u32..5, index in 0usize..6) {
        let m = Marking::from_counts(counts.clone());
        prop_assert!(m.covers(&m));
        let mut bigger = m.clone();
        let p = PlaceId::new(index % counts.len());
        bigger.add_tokens(p, extra);
        prop_assert!(bigger.covers(&m));
        prop_assert!(extra == 0 || !m.covers(&bigger));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Functional equivalence of the two executors on a parametric
    /// scale-and-accumulate pipeline, for arbitrary input streams: the
    /// values delivered to the environment are identical and the generated
    /// task never context-switches.
    #[test]
    fn executors_agree_on_scaling_pipeline(
        inputs in prop::collection::vec(-20i64..20, 1..6),
        scale in 1i64..5,
        buffer in 1u32..5,
    ) {
        let producer = parse_process(&format!(
            "PROCESS producer (In DPORT trigger, Out DPORT data) {{
                 int t;
                 while (1) {{
                     READ_DATA(trigger, t, 1);
                     WRITE_DATA(data, t * {scale}, 1);
                 }}
             }}"
        )).unwrap();
        let consumer = parse_process(
            "PROCESS consumer (In DPORT data, Out DPORT total) {
                 int x, s;
                 while (1) {
                     READ_DATA(data, x, 1);
                     s = s + x;
                     WRITE_DATA(total, s, 1);
                 }
             }",
        ).unwrap();
        let spec = SystemSpec::new("prop_pipeline")
            .with_process(producer)
            .with_process(consumer)
            .with_channel("producer.data", "consumer.data", None)
            .unwrap();
        let system = link(&spec).unwrap();
        let context = SearchContext::new(&system.net);
        let budget = SearchBudget::unlimited();
        let (schedules, _) =
            schedule_system(&system, &context, &ScheduleOptions::default(), &budget)
                .unwrap();
        let events: Vec<EnvEvent> = inputs
            .iter()
            .map(|&v| EnvEvent::new("producer", "trigger", v))
            .collect();
        let single = run_singletask(
            &system,
            &schedules.schedules,
            &events,
            &SingleTaskConfig::new(CycleCostModel::optimized()),
        )
        .unwrap();
        let multi = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(buffer, CycleCostModel::optimized()),
        )
        .unwrap();
        prop_assert_eq!(&single.outputs, &multi.outputs);
        prop_assert_eq!(single.context_switches, 0);
        // Reference semantics: running sums of scaled inputs.
        let mut sum = 0i64;
        let expected: Vec<i64> = inputs.iter().map(|&v| { sum += v * scale; sum }).collect();
        prop_assert_eq!(single.output("consumer", "total"), expected.as_slice());
    }
}
