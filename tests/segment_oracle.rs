//! Oracle test for the code-segment builder: `SegmentGraph::build` must
//! return exactly what the original rescanning construction returned —
//! the whole `Result`, `AmbiguousState` messages included — on random
//! schedules, the paper fixtures, the checked-in sample and the mixed
//! data-control template.
//!
//! The oracle (`GraphBuilder` below) is the original quadratic builder,
//! kept verbatim and driven only through the public `Schedule` and
//! `SegmentGraph` API, so it ships with the tests and not the product.
//! It rescans every schedule node per `(ECS key, transition)` pair and
//! deduplicates owned markings with `Vec::contains`; the product builds
//! the same indexes in one pass over the edges.

use proptest::prelude::*;
use qss::Pipeline;
use qss_bench::experiments::divider_net;
use qss_bench::testgen::{
    build_random, hub_net_strategy, mixed_source, random_net_strategy, wide_net_strategy,
};
use qss_codegen::segment::{Branch, Thread};
use qss_codegen::{CodeSegment, CodegenError, Continuation, SegmentGraph, SegmentNode};
use qss_core::{
    NodeId, Schedule, ScheduleNode, ScheduleOptions, SearchBudget, SearchContext, SearchProfile,
};
use qss_petri::{Marking, NetBuilder, PetriNet, PlaceId, TransitionId, TransitionKind};
use qss_sim::{pfc_system, PfcParams};
use std::collections::{BTreeMap, BTreeSet};

type Result<T> = std::result::Result<T, CodegenError>;
type EcsKey = Vec<TransitionId>;

/// Number of random nets per profile, overridable with the
/// `QSS_DIFFERENTIAL_NETS` environment variable like the differential
/// suite.
fn oracle_cases() -> u32 {
    std::env::var("QSS_DIFFERENTIAL_NETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The original builder's entry point (`SegmentGraph::build` before the
/// indexed rewrite).
fn oracle(schedule: &Schedule, net: &PetriNet) -> Result<SegmentGraph> {
    if schedule.num_nodes() == 0 {
        return Err(CodegenError::InvalidSchedule(
            "schedule has no nodes".into(),
        ));
    }
    let builder = GraphBuilder::new(schedule, net);
    builder.build()
}

fn assert_matches_oracle(schedule: &Schedule, net: &PetriNet) {
    assert_eq!(
        SegmentGraph::build(schedule, net),
        oracle(schedule, net),
        "segment graphs differ on {} ({} nodes)",
        net.name(),
        schedule.num_nodes()
    );
}

/// Searches `source` under `options` and checks the schedule, if any.
fn check_search(net: &PetriNet, source: TransitionId, options: &ScheduleOptions) {
    let found = SearchContext::new(net).find_schedule_profiled(
        net,
        source,
        options,
        &SearchBudget::unlimited(),
        &mut SearchProfile::default(),
    );
    if let Ok((schedule, _)) = found {
        assert_matches_oracle(&schedule, net);
    }
}

/// Option profiles that shape schedules differently: heuristics on and
/// off, and multi-source schedules whose await nodes wait on several
/// inputs.
fn option_profiles(max_nodes: usize) -> Vec<ScheduleOptions> {
    [
        ScheduleOptions::default(),
        ScheduleOptions::default().without_heuristics(),
        ScheduleOptions {
            single_source: false,
            ..ScheduleOptions::default()
        },
    ]
    .into_iter()
    .map(|base| ScheduleOptions { max_nodes, ..base })
    .collect()
}

/// Checks every schedule a whole FlowC system yields.
fn check_flowc(source: &str) -> usize {
    let scheduled = Pipeline::from_source(source)
        .and_then(|p| p.link())
        .and_then(|linked| linked.schedule())
        .expect("the system schedules");
    for schedule in &scheduled.schedules.schedules {
        assert_matches_oracle(schedule, &scheduled.system.net);
    }
    scheduled
        .schedules
        .schedules
        .iter()
        .map(Schedule::num_nodes)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn builder_matches_oracle_on_random_nets(desc in random_net_strategy()) {
        let (net, source) = build_random(&desc);
        for opts in option_profiles(3_000) {
            check_search(&net, source, &opts);
        }
    }

    #[test]
    fn builder_matches_oracle_on_wide_nets(desc in wide_net_strategy()) {
        let (net, source) = build_random(&desc);
        for opts in option_profiles(3_000) {
            check_search(&net, source, &opts);
        }
    }

    #[test]
    fn builder_matches_oracle_on_hub_nets(desc in hub_net_strategy()) {
        let (net, source) = build_random(&desc);
        for opts in option_profiles(800) {
            check_search(&net, source, &opts);
        }
    }
}

/// The Figure 8(a) net of the paper.
fn figure8() -> PetriNet {
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
    bl.build().unwrap()
}

#[test]
fn builder_matches_oracle_on_paper_fixtures() {
    let fig8 = figure8();
    let a = fig8.transition_by_name("a").unwrap();
    for opts in option_profiles(200_000) {
        check_search(&fig8, a, &opts);
    }
    for k in 1..=12 {
        let (net, source) = divider_net(k);
        for opts in option_profiles(200_000) {
            check_search(&net, source, &opts);
        }
    }
    let pfc = pfc_system(&PfcParams::tiny()).expect("PFC links");
    for source in pfc.uncontrollable_sources() {
        check_search(&pfc.net, source, &ScheduleOptions::default());
    }
    let sample = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("samples/pipeline.flowc"),
    )
    .unwrap();
    check_flowc(&sample);
}

/// Mixed data-control systems (if/else split, unequal-rate `SELECT`
/// merge, multi-rate divider tail) over every shape with at most ten
/// source firings per cycle (`k = b × r × d ≤ 10`): the schedules grow as
/// `2^k` and carry the switch-bearing segments the paper's Sec. 6 is
/// about.
#[test]
fn builder_matches_oracle_on_mixed_systems() {
    const RATES: [(u32, u32); 6] = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)];
    let mut shapes = 0;
    let mut largest = 0;
    for b in 1..=3u32 {
        for r in 1..=6u32 {
            for d in 1..=3u32 {
                if b * r * d > 10 {
                    continue;
                }
                let salt = u64::from(b * 100 + r * 10 + d);
                let rates: Vec<(u32, u32)> = (0..b)
                    .map(|i| RATES[(salt as usize + i as usize) % RATES.len()])
                    .collect();
                let source = mixed_source("mixed", b, &rates, r, d, salt);
                largest = largest.max(check_flowc(&source));
                shapes += 1;
            }
        }
    }
    assert_eq!(shapes, 27);
    assert!(largest > 1_000, "the k = 10 shapes grow large schedules");
}

/// The net of the ambiguity fixtures: `a` (the source) marks `p`, `t`
/// moves the token to `q`, and `u` consumes it.
fn ambiguity_net() -> (PetriNet, [TransitionId; 3]) {
    let mut bl = NetBuilder::new("ambiguous");
    let p = bl.place("p", 0);
    let q = bl.place("q", 0);
    let a = bl.transition("a", TransitionKind::UncontrollableSource);
    let t = bl.transition("t", TransitionKind::Internal);
    let u = bl.transition("u", TransitionKind::Internal);
    bl.arc_t2p(a, p, 1);
    bl.arc_p2t(p, t, 1);
    bl.arc_t2p(t, q, 1);
    bl.arc_p2t(q, u, 1);
    let net = bl.build().unwrap();
    let [a, t, u] = ["a", "t", "u"].map(|name| net.transition_by_name(name).unwrap());
    (net, [a, t, u])
}

/// A schedule node over the `[p, q]` marking of [`ambiguity_net`].
fn ambiguity_node(counts: [u32; 2], edges: Vec<(TransitionId, u32)>) -> ScheduleNode {
    ScheduleNode {
        marking: Marking::from_counts(counts),
        edges: edges.into_iter().map(|(t, n)| (t, NodeId(n))).collect(),
    }
}

/// Builds `schedule` on [`ambiguity_net`], checks it against the oracle
/// and returns the `AmbiguousState` message.
fn ambiguous_state_message(net: &PetriNet, schedule: &Schedule) -> String {
    let built = SegmentGraph::build(schedule, net);
    assert_eq!(built, oracle(schedule, net));
    match built {
        Err(CodegenError::AmbiguousState(message)) => message,
        other => panic!("expected AmbiguousState, got {other:?}"),
    }
}

/// Two nodes with the same ECS fire `t` into the same marking, but one
/// target is an await node and the other continues into another ECS: no
/// state place can tell the switch arms apart, so the build fails with
/// the oracle's exact `AmbiguousState` message.
#[test]
fn indistinguishable_switch_arms_are_ambiguous() {
    let (net, [a, t, u]) = ambiguity_net();
    let node = ambiguity_node;
    let schedule = Schedule::from_parts(
        a,
        vec![
            node([0, 0], vec![(a, 1)]),
            node([1, 0], vec![(t, 2)]),
            // Node 2 is an await node with marking [0, 1] ...
            node([0, 1], vec![(a, 3)]),
            node([1, 1], vec![(t, 4)]),
            // ... and node 4 carries the same marking but continues.
            node([0, 1], vec![(u, 0)]),
        ],
    );
    assert_eq!(
        ambiguous_state_message(&net, &schedule),
        "segment `cs_a` cannot distinguish markings p1 and p1"
    );
}

/// The `t` switch has two ambiguous groups: `[0, 1]` and `[0, 2]` each
/// end at an await node and also continue into `u`. The error names the
/// first ambiguous pair in arm order, the `[0, 1]` group, as the oracle's
/// pairwise scan does.
#[test]
fn the_first_of_two_ambiguous_groups_is_reported() {
    let (net, [a, t, u]) = ambiguity_net();
    let node = ambiguity_node;
    let schedule = Schedule::from_parts(
        a,
        vec![
            node([0, 0], vec![(a, 1)]),
            node([1, 0], vec![(t, 2)]),
            node([0, 1], vec![(a, 3)]),
            node([1, 1], vec![(t, 4)]),
            node([0, 1], vec![(u, 5)]),
            node([2, 0], vec![(t, 6)]),
            node([0, 2], vec![(a, 7)]),
            node([1, 2], vec![(t, 8)]),
            node([0, 2], vec![(u, 0)]),
        ],
    );
    assert_eq!(
        ambiguous_state_message(&net, &schedule),
        "segment `cs_t` cannot distinguish markings p1 and p1"
    );
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
