//! Seeded input generators: mixed data-control FlowC systems for
//! `compile_mixed`, and the request pools of `serve_warm` / `serve_cold`.
//!
//! Every generator is a pure function of its seed, so one `--seed` always
//! yields the same inputs.

use qss::EnvEvent;
use std::fmt::Write as _;

/// splitmix64: small, fast, and good enough to draw shapes and constants.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_BE7C_4A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.next_u64() as usize % items.len()]
    }

    /// A child generator, so adding draws to one consumer does not shift
    /// the draws of the next.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Stratified draws: every item of the deck once per round, in a seeded
/// order. Runs of different seeds then see the same mix of inputs, only
/// in another order — the seed moves the sequence, not the workload.
pub struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>) -> Deck<T> {
        let next = items.len();
        Deck { items, next }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                let j = rng.range(0, i as u64) as usize;
                self.items.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// The shape of one mixed data-control system: an `if/else` split per
/// branch onto two channels, a `SELECT` merge per branch reading the two
/// channels at unequal rates, and a multi-rate divider tail joining every
/// branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedShape {
    /// Number of if/else branches (one split + one merge each).
    pub branches: u32,
    /// Per branch, the `SELECT` read rates of the two arms (unequal).
    pub select_rates: Vec<(u32, u32)>,
    /// Items the tail reads from each merge per firing.
    pub tail_rate: u32,
    /// Items the second divider stage reads from the first per firing.
    pub divider_rate: u32,
}

impl MixedShape {
    /// The largest number of items any port moves in one firing; the
    /// multi-task baseline needs channel buffers at least this deep.
    pub fn max_rate(&self) -> u32 {
        self.select_rates
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .chain([self.tail_rate, self.divider_rate])
            .max()
            .unwrap_or(1)
    }

    /// `b2 r4 s(1,2)(2,1) d2`-style one-line summary.
    pub fn describe(&self) -> String {
        let mut out = format!("b{} r{}", self.branches, self.tail_rate);
        out.push_str(" s");
        for (a, b) in &self.select_rates {
            let _ = write!(out, "({a},{b})");
        }
        let _ = write!(out, " d{}", self.divider_rate);
        out
    }
}

/// One generated system: FlowC source plus the event stream it is
/// simulated on.
#[derive(Debug, Clone)]
pub struct MixedSystem {
    pub shape: MixedShape,
    pub source: String,
    pub events: Vec<EnvEvent>,
}

/// The shape of a mixed system with the given branch count and rates;
/// the unequal `SELECT` rates of every branch come from `rng`.
pub fn mixed_shape(rng: &mut Rng, branches: u32, tail_rate: u32, divider_rate: u32) -> MixedShape {
    let select_rates = (0..branches)
        .map(|_| rng.pick(&[(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]))
        .collect();
    MixedShape {
        branches,
        select_rates,
        tail_rate,
        divider_rate,
    }
}

/// Renders `shape` as a whole-system FlowC file with seeded body
/// constants, plus a seeded event stream of `events` trigger values.
pub fn mixed_system(rng: &mut Rng, index: usize, shape: &MixedShape, events: usize) -> MixedSystem {
    let name = format!("mixed{index}");
    let mut src = String::new();
    let _ = writeln!(src, "SYSTEM {name} {{");
    for b in 0..shape.branches {
        let _ = writeln!(src, "    CHANNEL split.a{b} -> merge{b}.a;");
        let _ = writeln!(src, "    CHANNEL split.b{b} -> merge{b}.b;");
        let _ = writeln!(src, "    CHANNEL merge{b}.o -> tail.i{b};");
    }
    src.push_str("    CHANNEL tail.o -> divider.i;\n");
    src.push_str("    INPUT split.trigger UNCONTROLLABLE;\n}\n");

    // The split: one data-dependent if/else per branch.
    let mut ports = String::from("In DPORT trigger");
    for b in 0..shape.branches {
        let _ = write!(ports, ", Out DPORT a{b}, Out DPORT b{b}");
    }
    let _ = writeln!(
        src,
        "PROCESS split ({ports}) {{\n    int x;\n    while (1) {{\n        READ_DATA(trigger, x, 1);"
    );
    for (b, &(ra, rb)) in shape.select_rates.iter().enumerate() {
        let modulus = rng.range(2, 5);
        let residue = rng.range(0, modulus - 1);
        let (c1, c2) = (rng.range(1, 9), rng.range(2, 5));
        let _ = writeln!(
            src,
            "        if (x % {modulus} == {residue})\n            WRITE_DATA(a{b}, x + {c1}, {ra});\n        else\n            WRITE_DATA(b{b}, x * {c2}, {rb});"
        );
    }
    src.push_str("    }\n}\n");

    // One SELECT merge per branch, reading its two arms at unequal rates.
    for (b, &(ra, rb)) in shape.select_rates.iter().enumerate() {
        let (c1, c2) = (rng.range(1, 7), rng.range(1, 7));
        let _ = writeln!(
            src,
            "PROCESS merge{b} (In DPORT a, In DPORT b, Out DPORT o) {{\n    int v;\n    while (1) {{\n        switch (SELECT(a, {ra}, b, {rb})) {{\n            case 0: READ_DATA(a, v, {ra}); WRITE_DATA(o, v + {c1}, 1); break;\n            case 1: READ_DATA(b, v, {rb}); WRITE_DATA(o, v - {c2}, 1); break;\n        }}\n    }}\n}}"
        );
    }

    // The multi-rate tail: `tail_rate` items from every merge per firing,
    // then a divider stage reading `divider_rate` tail outputs at a time.
    let mut ports = String::new();
    for b in 0..shape.branches {
        let _ = write!(ports, "In DPORT i{b}, ");
    }
    ports.push_str("Out DPORT o");
    let _ = writeln!(
        src,
        "PROCESS tail ({ports}) {{\n    int v, s;\n    while (1) {{"
    );
    for b in 0..shape.branches {
        let _ = writeln!(
            src,
            "        READ_DATA(i{b}, v, {});\n        s = s + v;",
            shape.tail_rate
        );
    }
    src.push_str("        WRITE_DATA(o, s, 1);\n    }\n}\n");
    let scale = rng.range(2, 9);
    let _ = writeln!(
        src,
        "PROCESS divider (In DPORT i, Out DPORT out) {{\n    int v;\n    while (1) {{\n        READ_DATA(i, v, {});\n        WRITE_DATA(out, v % {scale}, 1);\n    }}\n}}",
        shape.divider_rate
    );

    let events = (0..events)
        .map(|_| EnvEvent::new("split", "trigger", rng.range(0, 999) as i64))
        .collect();
    MixedSystem {
        shape: shape.clone(),
        source: src,
        events,
    }
}

/// The `serve_warm`/`serve_cold` wide system: one uncontrollable two-stage
/// hot path plus `ballast` controllable-input processes. The ballast
/// inflates the net (and so the context build and structural pass) while
/// the schedule, which only follows the uncontrollable input, stays small.
/// `salt` changes body constants, so equal process counts still give
/// distinct fingerprints.
pub fn ballast_source(name: &str, ballast: usize, salt: u64) -> String {
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

/// `copies` independent copies of the PFC video application of Sec. 8.2
/// (controller, producer, filter, consumer; one uncontrollable `init` per
/// copy) in one system, so one request carries `copies` schedules.
pub fn multi_pfc_source(name: &str, copies: usize, pixels: u32) -> String {
    let mut src = format!("SYSTEM {name} {{\n");
    for c in 0..copies {
        for (from, to, port) in [
            ("ctl", "prod", "req"),
            ("ctl", "filt", "coeff"),
            ("prod", "filt", "pix"),
            ("prod", "filt", "pdone"),
            ("filt", "cons", "fpix"),
            ("filt", "cons", "fdone"),
            ("cons", "ctl", "ack"),
        ] {
            let _ = writeln!(src, "    CHANNEL {from}{c}.{port} -> {to}{c}.{port};");
        }
        let _ = writeln!(src, "    INPUT ctl{c}.init UNCONTROLLABLE;");
    }
    src.push_str("}\n");
    for c in 0..copies {
        let _ = writeln!(
            src,
            "PROCESS ctl{c} (In DPORT init, Out DPORT req, Out DPORT coeff, In DPORT ack) {{
    int v, s;
    while (1) {{
        READ_DATA(init, &v, 1);
        if (v % 2 == 0)
            WRITE_DATA(coeff, v + 2, 1);
        WRITE_DATA(req, v, 1);
        READ_DATA(ack, s, 1);
    }}
}}
PROCESS prod{c} (In DPORT req, Out DPORT pix, Out DPORT pdone) {{
    int r, i;
    while (1) {{
        READ_DATA(req, &r, 1);
        i = 0;
        while (i < {pixels}) {{
            WRITE_DATA(pix, r + i, 1);
            i++;
        }}
        WRITE_DATA(pdone, 0, 1);
    }}
}}
PROCESS filt{c} (In DPORT pix, In DPORT pdone, In DPORT coeff, Out DPORT fpix, Out DPORT fdone) {{
    int p, c, d;
    c = 1;
    while (1) {{
        switch (SELECT(coeff, 1, pix, 1, pdone, 1)) {{
            case 0: READ_DATA(coeff, c, 1); break;
            case 1: READ_DATA(pix, p, 1); WRITE_DATA(fpix, p * c, 1); break;
            case 2: READ_DATA(pdone, d, 1); WRITE_DATA(fdone, 0, 1); break;
        }}
    }}
}}
PROCESS cons{c} (In DPORT fpix, In DPORT fdone, Out DPORT out, Out DPORT ack) {{
    int q, s, d;
    while (1) {{
        switch (SELECT(fpix, 1, fdone, 1)) {{
            case 0: READ_DATA(fpix, q, 1); s = s + q; break;
            case 1: READ_DATA(fdone, d, 1); WRITE_DATA(out, s, 1); WRITE_DATA(ack, s, 1); s = 0; break;
        }}
    }}
}}"
        );
    }
    src
}
