//! Shared random-net generator for the generative differential suites.
//!
//! The differential tests pit the incremental interned engine against the
//! `qss_core::reference` oracle on randomly generated nets. The generator
//! lives here (rather than inside one test file) so every suite — the
//! root differential tests and ad-hoc bench experiments — draws from the same distribution, and so the strategy
//! can implement *domain-aware shrinking*: a failing net is minimized by
//! dropping arcs, emptying initial markings and flattening weights, which
//! turns a five-transition counterexample into the two-arc core that
//! actually disagrees.

use proptest::{Strategy, TestRng};
use qss_petri::{NetBuilder, PetriNet, TransitionId, TransitionKind};

/// A random net description: one uncontrollable source feeding place 0,
/// plus `arcs` internal transitions each consuming from one place and
/// producing into another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomNet {
    /// Initial tokens per place (also fixes the place count).
    pub initial: Vec<u32>,
    /// Weight of the arc from the source into place 0.
    pub source_weight: u32,
    /// Internal transitions as `(from-place, to-place, consume, produce)`.
    pub arcs: Vec<(usize, usize, u32, u32)>,
}

/// The shape of net a [`RandomNetStrategy`] generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetProfile {
    /// 2–4 places, 1–5 internal transitions, initial tokens in 0–1: the
    /// small, densely connected nets the differential suite has always
    /// run on.
    #[default]
    Dense,
    /// 12–32 places with mostly empty initial markings and transitions
    /// scattered over the whole place range: wide, sparsely marked rows
    /// that stress the fixed-width marking slab (long strides, few marked
    /// cells, many distinct rows per search).
    Wide,
    /// Hundreds of places (96–256) with a few high-fan-in *hub* places
    /// that a large share of the arcs route through, plus deliberate
    /// preset duplication so choices nest into multi-member ECSs. Rows
    /// this wide make the reference oracle's per-node chain walks costly
    /// and exercise the ECS sweep on multi-member sets.
    Hub,
}

/// Strategy generating [`RandomNet`]s of a given [`NetProfile`].
///
/// Implemented directly (not via `prop_flat_map`) so that
/// [`Strategy::shrink`] can propose structurally smaller *nets* instead
/// of being blocked by the opaque mapping.
#[derive(Debug, Clone, Default)]
pub struct RandomNetStrategy {
    profile: NetProfile,
}

impl Strategy for RandomNetStrategy {
    type Value = RandomNet;

    fn generate(&self, rng: &mut TestRng) -> RandomNet {
        let (num_places, num_transitions) = match self.profile {
            NetProfile::Dense => (
                Strategy::generate(&(2usize..5), rng),
                Strategy::generate(&(1usize..6), rng),
            ),
            NetProfile::Wide => (
                Strategy::generate(&(12usize..33), rng),
                Strategy::generate(&(3usize..9), rng),
            ),
            NetProfile::Hub => (
                Strategy::generate(&(96usize..257), rng),
                Strategy::generate(&(16usize..42), rng),
            ),
        };
        let initial: Vec<u32> = (0..num_places)
            .map(|_| match self.profile {
                NetProfile::Dense => Strategy::generate(&(0u32..2), rng),
                // Sparse tokens: roughly one place in five is marked.
                NetProfile::Wide => {
                    if Strategy::generate(&(0u32..5), rng) == 0 {
                        1
                    } else {
                        0
                    }
                }
                // Very sparse: roughly one place in eight is marked.
                NetProfile::Hub => {
                    if Strategy::generate(&(0u32..8), rng) == 0 {
                        1
                    } else {
                        0
                    }
                }
            })
            .collect();
        let arcs: Vec<(usize, usize, u32, u32)> = match self.profile {
            NetProfile::Dense | NetProfile::Wide => (0..num_transitions)
                .map(|_| {
                    (
                        Strategy::generate(&(0..num_places), rng),
                        Strategy::generate(&(0..num_places), rng),
                        Strategy::generate(&(1u32..3), rng),
                        Strategy::generate(&(1u32..3), rng),
                    )
                })
                .collect(),
            NetProfile::Hub => {
                // A few high-fan-in hub places attract ~40% of the arc
                // endpoints, and a third of the transitions duplicate the
                // previous preset exactly — identical presets land in one
                // ECS, so the duplicates nest data-dependent choices.
                let hubs: Vec<usize> = (0..Strategy::generate(&(2usize..7), rng))
                    .map(|_| Strategy::generate(&(0..num_places), rng))
                    .collect();
                let pick_place = |rng: &mut TestRng| -> usize {
                    if Strategy::generate(&(0u32..5), rng) < 2 {
                        hubs[Strategy::generate(&(0..hubs.len()), rng)]
                    } else {
                        Strategy::generate(&(0..num_places), rng)
                    }
                };
                let mut arcs: Vec<(usize, usize, u32, u32)> = Vec::with_capacity(num_transitions);
                for _ in 0..num_transitions {
                    let (from, consume) = match arcs.last() {
                        Some(&(prev_from, _, prev_consume, _))
                            if Strategy::generate(&(0u32..3), rng) == 0 =>
                        {
                            (prev_from, prev_consume)
                        }
                        _ => (pick_place(rng), Strategy::generate(&(1u32..3), rng)),
                    };
                    let to = pick_place(rng);
                    let produce = Strategy::generate(&(1u32..3), rng);
                    arcs.push((from, to, consume, produce));
                }
                arcs
            }
        };
        let source_weight = Strategy::generate(&(1u32..3), rng);
        RandomNet {
            initial,
            source_weight,
            arcs,
        }
    }

    /// Domain-aware shrinking: drop whole transitions first (the biggest
    /// structural simplification), then empty initially marked places,
    /// then flatten arc and source weights to 1.
    fn shrink(&self, value: &RandomNet) -> Vec<RandomNet> {
        let mut out = Vec::new();
        for i in 0..value.arcs.len() {
            let mut next = value.clone();
            next.arcs.remove(i);
            out.push(next);
        }
        for (i, &tokens) in value.initial.iter().enumerate() {
            if tokens > 0 {
                let mut next = value.clone();
                next.initial[i] = 0;
                out.push(next);
            }
        }
        for (i, &(_, _, consume, produce)) in value.arcs.iter().enumerate() {
            if consume > 1 {
                let mut next = value.clone();
                next.arcs[i].2 = 1;
                out.push(next);
            }
            if produce > 1 {
                let mut next = value.clone();
                next.arcs[i].3 = 1;
                out.push(next);
            }
        }
        if value.source_weight > 1 {
            let mut next = value.clone();
            next.source_weight = 1;
            out.push(next);
        }
        out
    }
}

/// The dense-profile strategy the differential suites have always used.
pub fn random_net_strategy() -> RandomNetStrategy {
    RandomNetStrategy {
        profile: NetProfile::Dense,
    }
}

/// The wide-profile strategy (many places, sparse tokens) that stresses
/// the fixed-width marking slab.
pub fn wide_net_strategy() -> RandomNetStrategy {
    RandomNetStrategy {
        profile: NetProfile::Wide,
    }
}

/// The hub-profile strategy (hundreds of places, high-fan-in hubs, nested
/// choices into multi-member ECSs).
pub fn hub_net_strategy() -> RandomNetStrategy {
    RandomNetStrategy {
        profile: NetProfile::Hub,
    }
}

/// Builds the Petri net described by `desc` and returns it together with
/// its uncontrollable source transition.
pub fn build_random(desc: &RandomNet) -> (PetriNet, TransitionId) {
    let mut b = NetBuilder::new("random");
    let places: Vec<_> = desc
        .initial
        .iter()
        .enumerate()
        .map(|(i, &tokens)| b.place(format!("p{i}"), tokens))
        .collect();
    let src = b.transition("src", TransitionKind::UncontrollableSource);
    b.arc_t2p(src, places[0], desc.source_weight);
    for (i, (from, to, consume, produce)) in desc.arcs.iter().enumerate() {
        let t = b.transition(format!("t{i}"), TransitionKind::Internal);
        b.arc_p2t(places[*from], t, *consume);
        b.arc_t2p(t, places[*to], *produce);
    }
    let net = b.build().expect("random net builds");
    let src = net.transition_by_name("src").unwrap();
    (net, src)
}

/// FlowC source of a wide system: one uncontrollable two-stage hot path
/// (`hot` → `relay`) plus `ballast` controllable-input echo processes —
/// the template of perfbench's `serve_*` systems. Each ballast process is
/// a small cycle with its own invariants, so the net (and every analysis
/// over it) grows with `ballast` while the hot path's schedule stays
/// small. `salt` changes body constants only, never the net.
pub fn ballast_source(name: &str, ballast: usize, salt: u64) -> String {
    use std::fmt::Write as _;
    let mut src = format!(
        "SYSTEM {name} {{\n    CHANNEL hot.snd -> relay.rcv;\n    INPUT hot.rcv UNCONTROLLABLE;\n"
    );
    for i in 0..ballast {
        let _ = writeln!(src, "    INPUT b{i}.rcv CONTROLLABLE;");
    }
    src.push_str("}\n");
    for (process, body) in [
        ("hot", format!("x + {}", salt % 97 + 1)),
        ("relay", "x * 2".to_string()),
    ] {
        let _ = writeln!(
            src,
            "PROCESS {process} (In DPORT rcv, Out DPORT snd) {{\n    int x;\n    while (1) {{ READ_DATA(rcv, x, 1); WRITE_DATA(snd, {body}, 1); }}\n}}"
        );
    }
    for i in 0..ballast {
        let _ = writeln!(
            src,
            "PROCESS b{i} (In DPORT rcv, Out DPORT snd) {{\n    int x;\n    while (1) {{ READ_DATA(rcv, x, 1); WRITE_DATA(snd, x + {}, 1); }}\n}}",
            (salt.wrapping_add(i as u64 * 7919)) % 1000
        );
    }
    src
}

/// FlowC source of a divider chain: process `s0` forwards the
/// environment input `go`, and each of the `depth` stages after it reads
/// `k` items per firing from the stage before. Scheduling the input takes
/// `k^depth` source firings, so the schedule's deepest path grows the
/// same way: a search that outruns any sane deadline at `(8, 8)`, and a
/// deep-path stress case at `(4, 8)` (8 778 schedule nodes) or
/// `(1, 10_000)` (one cycle 20 002 nodes long).
pub fn divider_chain_source(depth: usize, k: u32) -> String {
    let mut out = String::from("SYSTEM chain {\n");
    for i in 0..depth {
        out.push_str(&format!("    CHANNEL s{i}.out -> s{}.inp;\n", i + 1));
    }
    out.push_str("}\n");
    out.push_str(
        "PROCESS s0 (In DPORT go, Out DPORT out) {\n\
         \x20   int x;\n\
         \x20   while (1) { READ_DATA(go, x, 1); WRITE_DATA(out, x, 1); }\n\
         }\n",
    );
    for i in 1..=depth {
        out.push_str(&format!(
            "PROCESS s{i} (In DPORT inp, Out DPORT out) {{\n\
             \x20   int x;\n\
             \x20   while (1) {{ READ_DATA(inp, x, {k}); WRITE_DATA(out, x, 1); }}\n\
             }}\n"
        ));
    }
    out
}

/// FlowC source of a three-stage chain whose first channel can be lifted
/// past its degree: `s0` writes 3 items per input `go`, `s1` reads 2 and
/// writes 1, and `s2` reads `k` at a time. The first channel has degree
/// `3 + 2 − 1 = 4`, and firing `go` while it holds 2 or more lifts it
/// above that, so a search that does not fire the source last spends long
/// stretches with a place above its degree while the program-counter
/// places toggle. The schedule's cycle is `k` or `3k` firings of `s1`
/// long (`k` when 3 divides it), so `k` sets the path depth.
pub fn over_degree_chain_source(k: u32) -> String {
    format!(
        "SYSTEM over_degree {{\n\
         \x20   CHANNEL s0.out -> s1.inp;\n\
         \x20   CHANNEL s1.out -> s2.inp;\n\
         }}\n\
         PROCESS s0 (In DPORT go, Out DPORT out) {{\n\
         \x20   int x;\n\
         \x20   while (1) {{ READ_DATA(go, x, 1); WRITE_DATA(out, x, 3); }}\n\
         }}\n\
         PROCESS s1 (In DPORT inp, Out DPORT out) {{\n\
         \x20   int x;\n\
         \x20   while (1) {{ READ_DATA(inp, x, 2); WRITE_DATA(out, x, 1); }}\n\
         }}\n\
         PROCESS s2 (In DPORT inp, Out DPORT out) {{\n\
         \x20   int x;\n\
         \x20   while (1) {{ READ_DATA(inp, x, {k}); WRITE_DATA(out, x, 1); }}\n\
         }}\n"
    )
}

/// FlowC source of one process that reads the environment input `go`
/// once and then writes it to the output `o` `writes` times in a row.
/// Every write ends a code fragment, so one code segment of the task is a
/// straight line of `writes + 1` inlined nodes: the deep-path stress case
/// for code generation.
pub fn write_chain_source(writes: usize) -> String {
    let mut out = String::from(
        "PROCESS p (In DPORT go, Out DPORT o) {\n    int x;\n    while (1) {\n        READ_DATA(go, x, 1);\n",
    );
    for _ in 0..writes {
        out.push_str("        WRITE_DATA(o, x, 1);\n");
    }
    out.push_str("    }\n}\n");
    out
}

/// FlowC source of a mixed data-control system — the template of
/// perfbench's `compile_mixed` systems: a `split` process with one
/// data-dependent `if/else` per branch onto two channels, one `SELECT`
/// merge per branch reading its two arms at the unequal rates
/// `select_rates[b]`, and a multi-rate tail that reads `tail_rate` items
/// from every merge and feeds a divider reading `divider_rate` at a time.
/// The schedule grows as `2^k` with `k = branches × tail_rate ×
/// divider_rate`. `salt` picks the body constants only, never the net.
///
/// # Panics
/// If `select_rates` does not hold exactly one pair per branch.
pub fn mixed_source(
    name: &str,
    branches: u32,
    select_rates: &[(u32, u32)],
    tail_rate: u32,
    divider_rate: u32,
    salt: u64,
) -> String {
    use std::fmt::Write as _;
    assert_eq!(
        select_rates.len(),
        branches as usize,
        "one rate pair per branch"
    );
    // splitmix64 over the salt: uniform constants in `lo..=hi`.
    let mut state = salt;
    let mut constant = |lo: u64, hi: u64| -> u64 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        lo + (z ^ (z >> 31)) % (hi - lo + 1)
    };
    let mut src = format!("SYSTEM {name} {{\n");
    for b in 0..branches {
        let _ = writeln!(src, "    CHANNEL split.a{b} -> merge{b}.a;");
        let _ = writeln!(src, "    CHANNEL split.b{b} -> merge{b}.b;");
        let _ = writeln!(src, "    CHANNEL merge{b}.o -> tail.i{b};");
    }
    src.push_str("    CHANNEL tail.o -> divider.i;\n");
    src.push_str("    INPUT split.trigger UNCONTROLLABLE;\n}\n");

    let mut ports = String::from("In DPORT trigger");
    for b in 0..branches {
        let _ = write!(ports, ", Out DPORT a{b}, Out DPORT b{b}");
    }
    let _ = writeln!(
        src,
        "PROCESS split ({ports}) {{\n    int x;\n    while (1) {{\n        READ_DATA(trigger, x, 1);"
    );
    for (b, &(ra, rb)) in select_rates.iter().enumerate() {
        let modulus = constant(2, 5);
        let residue = constant(0, modulus - 1);
        let (c1, c2) = (constant(1, 9), constant(2, 5));
        let _ = writeln!(
            src,
            "        if (x % {modulus} == {residue})\n            WRITE_DATA(a{b}, x + {c1}, {ra});\n        else\n            WRITE_DATA(b{b}, x * {c2}, {rb});"
        );
    }
    src.push_str("    }\n}\n");

    for (b, &(ra, rb)) in select_rates.iter().enumerate() {
        let (c1, c2) = (constant(1, 7), constant(1, 7));
        let _ = writeln!(
            src,
            "PROCESS merge{b} (In DPORT a, In DPORT b, Out DPORT o) {{\n    int v;\n    while (1) {{\n        switch (SELECT(a, {ra}, b, {rb})) {{\n            case 0: READ_DATA(a, v, {ra}); WRITE_DATA(o, v + {c1}, 1); break;\n            case 1: READ_DATA(b, v, {rb}); WRITE_DATA(o, v - {c2}, 1); break;\n        }}\n    }}\n}}"
        );
    }

    let mut ports = String::new();
    for b in 0..branches {
        let _ = write!(ports, "In DPORT i{b}, ");
    }
    ports.push_str("Out DPORT o");
    let _ = writeln!(
        src,
        "PROCESS tail ({ports}) {{\n    int v, s;\n    while (1) {{"
    );
    for b in 0..branches {
        let _ = writeln!(
            src,
            "        READ_DATA(i{b}, v, {tail_rate});\n        s = s + v;"
        );
    }
    src.push_str("        WRITE_DATA(o, s, 1);\n    }\n}\n");
    let scale = constant(2, 9);
    let _ = writeln!(
        src,
        "PROCESS divider (In DPORT i, Out DPORT out) {{\n    int v;\n    while (1) {{\n        READ_DATA(i, v, {divider_rate});\n        WRITE_DATA(out, v % {scale}, 1);\n    }}\n}}"
    );
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_source_links_and_keeps_the_net_under_salt() {
        let shape = |salt| {
            let src = mixed_source("m", 2, &[(1, 2), (3, 1)], 2, 2, salt);
            let linked = qss::Pipeline::from_source(&src)
                .and_then(|p| p.link())
                .expect("the template links");
            let net = &linked.system.net;
            assert_eq!(net.uncontrollable_sources().len(), 1);
            (net.num_places(), net.num_transitions())
        };
        // The salt moves body constants, not the net's shape.
        assert_eq!(shape(1), shape(2));
        assert_ne!(
            mixed_source("m", 1, &[(2, 1)], 2, 2, 1),
            mixed_source("m", 1, &[(2, 1)], 2, 2, 2)
        );
        assert_eq!(mixed_source("m", 1, &[(2, 1)], 2, 2, 7).lines().count(), 41);
    }

    #[test]
    fn generated_nets_build_and_shrink_within_the_domain() {
        for strategy in [
            random_net_strategy(),
            wide_net_strategy(),
            hub_net_strategy(),
        ] {
            let mut rng = TestRng::new("testgen-domain");
            for _ in 0..64 {
                let desc = strategy.generate(&mut rng);
                let (net, src) = build_random(&desc);
                assert_eq!(net.num_places(), desc.initial.len());
                assert_eq!(net.num_transitions(), desc.arcs.len() + 1);
                assert!(net.uncontrollable_sources().contains(&src));
                for cand in strategy.shrink(&desc) {
                    // Every shrink candidate stays buildable and is simpler
                    // in at least one dimension.
                    let (cnet, _) = build_random(&cand);
                    assert!(cnet.num_transitions() <= net.num_transitions());
                    assert_ne!(cand, desc);
                }
            }
        }
    }

    #[test]
    fn wide_profile_is_wide_and_sparse() {
        let strategy = wide_net_strategy();
        let mut rng = TestRng::new("testgen-wide");
        let (mut total_places, mut total_marked) = (0usize, 0usize);
        for _ in 0..32 {
            let desc = strategy.generate(&mut rng);
            assert!(desc.initial.len() >= 12, "wide nets have many places");
            total_places += desc.initial.len();
            total_marked += desc.initial.iter().filter(|&&c| c > 0).count();
        }
        // Sparse: on average well under a third of the places start marked.
        assert!(total_marked * 3 < total_places);
    }

    #[test]
    fn hub_profile_has_hubs_and_nested_choices() {
        use qss_petri::EcsInfo;
        let strategy = hub_net_strategy();
        let mut rng = TestRng::new("testgen-hub");
        let mut nets_with_multi_ecs = 0usize;
        let mut nets_with_hub = 0usize;
        let samples = 32;
        for _ in 0..samples {
            let desc = strategy.generate(&mut rng);
            assert!(desc.initial.len() >= 96, "hub nets have hundreds of places");
            let (net, _) = build_random(&desc);
            let ecs = EcsInfo::compute(&net);
            // Preset duplication creates multi-member ECSs (nested choices).
            if ecs.ecs_ids().any(|e| ecs.members(e).len() > 1) {
                nets_with_multi_ecs += 1;
            }
            // Hub places concentrate fan-in/fan-out well above uniform.
            let mut fan = vec![0usize; desc.initial.len()];
            for &(from, to, _, _) in &desc.arcs {
                fan[from] += 1;
                fan[to] += 1;
            }
            if fan.iter().any(|&f| f >= 5) {
                nets_with_hub += 1;
            }
        }
        assert!(nets_with_multi_ecs * 2 > samples, "most nets nest choices");
        assert!(nets_with_hub * 2 > samples, "most nets grow a hub");
    }

    #[test]
    fn shrinking_reaches_a_fixpoint() {
        // Repeatedly taking the first candidate terminates (no cycles).
        let strategy = random_net_strategy();
        let mut rng = TestRng::new("testgen-fixpoint");
        let mut desc = strategy.generate(&mut rng);
        for _ in 0..1000 {
            match strategy.shrink(&desc).into_iter().next() {
                Some(next) => desc = next,
                None => return,
            }
        }
        panic!("shrinking did not terminate");
    }
}
