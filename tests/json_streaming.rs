//! Streamed JSON equals the tree path, byte for byte.
//!
//! `serde_json::to_string`/`to_string_pretty` stream typed values through
//! `Serialize::write_json`; `serde_json::to_value` builds a `Value` tree.
//! For every value checked here the streamed text must equal the tree
//! rendered through the writer *and* the tree rendered by the original
//! recursive `Value` writer, kept verbatim below as an oracle so it ships
//! with the tests and not the product. The text must parse back to the
//! tree. Covered: every stage artifact of random `mixed_source` shapes,
//! the net and search results of random testgen nets that schedule,
//! every `samples/*.flowc`, and random `Value`s with the number and string
//! corner cases.

use proptest::prelude::*;
use proptest::TestRng;
use qss::{EnvEvent, LinkedArtifact, Pipeline, PipelineConfig, ScheduleArtifact, TaskArtifact};
use qss_bench::testgen::{build_random, mixed_source, random_net_strategy, wide_net_strategy};
use qss_core::{ScheduleOptions, SearchBudget, SearchContext, SearchProfile};
use qss_petri::PetriNet;
use qss_petri::TransitionId;
use serde::Serialize;
use serde_json::{Number, Value};

// ------------------------------------------------------------- the oracle

/// The `Value` writer `serde_json` used before streaming, verbatim.
fn reference_write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => reference_write_number(out, n),
        Value::String(s) => reference_write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_newline_indent(out, indent, depth + 1);
                reference_write_value(out, item, indent, depth + 1);
            }
            reference_newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_newline_indent(out, indent, depth + 1);
                reference_write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                reference_write_value(out, item, indent, depth + 1);
            }
            reference_newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn reference_newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn reference_write_number(out: &mut String, n: &Number) {
    match *n {
        Number::UInt(v) => out.push_str(&v.to_string()),
        Number::Int(v) => out.push_str(&v.to_string()),
        Number::Float(v) => {
            if v.is_finite() {
                let text = v.to_string();
                out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
    }
}

fn reference_write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn reference(value: &Value, indent: Option<usize>) -> String {
    let mut out = String::new();
    reference_write_value(&mut out, value, indent, 0);
    out
}

// ------------------------------------------------------------- the check

/// The tree with every non-finite float replaced by `null`: what JSON
/// text of it parses back to.
fn parsed_form(value: &Value) -> Value {
    match value {
        Value::Number(Number::Float(v)) if !v.is_finite() => Value::Null,
        Value::Array(items) => Value::Array(items.iter().map(parsed_form).collect()),
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), parsed_form(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Streams `x` compact and pretty, and checks both texts against the
/// tree path and the oracle, then parses them back. Returns the compact
/// text.
fn assert_streams_like_the_tree<T: Serialize + ?Sized>(x: &T, what: &str) -> String {
    let tree = serde_json::to_value(x).unwrap();
    let compact = serde_json::to_string(x).unwrap();
    let pretty = serde_json::to_string_pretty(x).unwrap();
    assert!(
        compact == serde_json::to_string(&tree).unwrap() && compact == reference(&tree, None),
        "compact bytes of {what} differ from the tree path"
    );
    assert!(
        pretty == serde_json::to_string_pretty(&tree).unwrap()
            && pretty == reference(&tree, Some(2)),
        "pretty bytes of {what} differ from the tree path"
    );
    let parsed = parsed_form(&tree);
    assert!(
        serde_json::from_str::<Value>(&compact).unwrap() == parsed
            && serde_json::from_str::<Value>(&pretty).unwrap() == parsed,
        "the JSON of {what} does not parse back to its tree"
    );
    compact
}

/// Every stage of one source: linked, analyzed, scheduled, generated
/// and (given events) simulated, with the typed artifacts re-serialized
/// from their own JSON. Returns whether the source scheduled.
fn check_stages(source: &str, config: PipelineConfig, events: Option<&[EnvEvent]>) -> bool {
    let linked = Pipeline::from_source(source)
        .unwrap()
        .with_config(config)
        .link()
        .unwrap();
    let text = assert_streams_like_the_tree(&linked, "a LinkedArtifact");
    assert_eq!(LinkedArtifact::from_json(&text).unwrap().to_json(), text);
    assert_streams_like_the_tree(&linked.analyze(), "an AnalysisReport");
    let Ok(schedule) = linked.schedule() else {
        return false;
    };
    let text = assert_streams_like_the_tree(&schedule, "a ScheduleArtifact");
    assert_eq!(ScheduleArtifact::from_json(&text).unwrap().to_json(), text);
    let task = schedule.generate().unwrap();
    let text = assert_streams_like_the_tree(&task, "a TaskArtifact");
    assert_eq!(TaskArtifact::from_json(&text).unwrap().to_json(), text);
    let sim = events.map(|events| task.simulate(events).unwrap());
    if let Some(sim) = &sim {
        assert_streams_like_the_tree(sim, "a SimArtifact");
    }
    assert_streams_like_the_tree(&task.report(sim.as_ref()), "a PipelineReport");
    true
}

// ------------------------------------------------------------ artifacts

/// Random `mixed_source` shapes, small enough (`k <= 8`) for a debug
/// build, under the default config and one that emits the search profile.
#[test]
fn stage_artifacts_of_random_mixed_shapes_stream_like_the_tree() {
    let mut rng = TestRng::new("stage_artifacts_of_random_mixed_shapes");
    for case in 0..12 {
        let pick = |rng: &mut TestRng, lo: u32, hi: u32| {
            lo + (rng.next_u64() % u64::from(hi - lo + 1)) as u32
        };
        let branches = pick(&mut rng, 1, 2);
        let rates: Vec<(u32, u32)> = (0..branches)
            .map(|_| (pick(&mut rng, 1, 3), pick(&mut rng, 1, 3)))
            .collect();
        let tail = pick(&mut rng, 1, 4 / branches);
        let divider = pick(&mut rng, 1, 2);
        let source = mixed_source("mixed", branches, &rates, tail, divider, rng.next_u64());
        let events: Vec<EnvEvent> = (0..6)
            .map(|_| EnvEvent::new("split", "trigger", (rng.next_u64() % 9) as i64 - 4))
            .collect();
        let config = PipelineConfig {
            emit_search_profile: case % 2 == 1,
            ..PipelineConfig::default()
        };
        assert!(check_stages(&source, config, Some(&events)), "{source}");
    }
}

#[test]
fn stage_artifacts_of_every_sample_stream_like_the_tree() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("samples");
    let (mut samples, mut scheduled) = (0, 0);
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "flowc") {
            let source = std::fs::read_to_string(&path).unwrap();
            samples += 1;
            scheduled += usize::from(check_stages(&source, PipelineConfig::default(), None));
        }
    }
    assert!(
        samples >= 6 && scheduled == samples,
        "{scheduled} of {samples} samples scheduled"
    );
}

/// The net and everything one search produces.
fn check_random_net(net: &PetriNet, source: TransitionId) {
    assert_streams_like_the_tree(net, "a random net");
    let mut profile = SearchProfile::default();
    let found = SearchContext::new(net).find_schedule_profiled(
        net,
        source,
        &ScheduleOptions::default(),
        &SearchBudget::unlimited(),
        &mut profile,
    );
    if let Ok((schedule, stats)) = found {
        assert_streams_like_the_tree(&schedule, "a schedule");
        assert_streams_like_the_tree(&stats, "search stats");
        assert_streams_like_the_tree(&profile, "a search profile");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_nets_and_their_schedules_stream_like_the_tree(desc in random_net_strategy()) {
        let (net, source) = build_random(&desc);
        check_random_net(&net, source);
    }

    #[test]
    fn wide_nets_and_their_schedules_stream_like_the_tree(desc in wide_net_strategy()) {
        let (net, source) = build_random(&desc);
        check_random_net(&net, source);
    }

    #[test]
    fn random_values_stream_like_the_tree(value in ValueStrategy { depth: 4 }) {
        assert_streams_like_the_tree(&value, "a random value");
    }
}

// ---------------------------------------------------------------- values

/// Random `Value` trees: the number and string corner cases at every
/// leaf, empty and nested containers, duplicate and escaped keys.
struct ValueStrategy {
    depth: u32,
}

const FLOATS: [f64; 10] = [
    0.0,
    -0.0,
    1.5,
    -2.0,
    1e300,
    -1e-300,
    f64::MIN_POSITIVE,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const STRINGS: [&str; 8] = [
    "",
    "plain",
    "quote \" backslash \\ slash /",
    "\n\r\t\u{8}\u{c}",
    "\u{0}\u{1}\u{1f}\u{7f}",
    "π é 😀",
    "mixed \u{1b}[0m ünïcödé",
    "\"\\\"",
];

fn random_string(rng: &mut TestRng) -> String {
    let mut out = String::new();
    for _ in 0..rng.next_u64() % 3 {
        out.push_str(STRINGS[(rng.next_u64() % STRINGS.len() as u64) as usize]);
    }
    out
}

fn random_value(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.next_u64() % kinds {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64().is_multiple_of(2)),
        2 => Value::Number(match rng.next_u64() % 5 {
            0 => Number::UInt(u64::MAX),
            1 => Number::UInt(rng.next_u64() >> (rng.next_u64() % 64)),
            2 => Number::from(i64::MIN),
            3 => Number::from(-((rng.next_u64() >> 1) as i64)),
            _ => Number::Float(FLOATS[(rng.next_u64() % FLOATS.len() as u64) as usize]),
        }),
        3 => Value::Number(Number::Float(f64::from_bits(rng.next_u64()))),
        4 | 5 => Value::String(random_string(rng)),
        6 => Value::Array(
            (0..rng.next_u64() % 4)
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.next_u64() % 4)
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for ValueStrategy {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        random_value(rng, self.depth)
    }
}

#[test]
fn corner_case_values_stream_like_the_tree() {
    let mut leaves: Vec<Value> = FLOATS
        .iter()
        .map(|&v| Value::Number(Number::Float(v)))
        .collect();
    leaves.extend([
        Value::Number(Number::UInt(u64::MAX)),
        Value::Number(Number::from(i64::MIN)),
        Value::Array(vec![]),
        Value::Object(vec![]),
    ]);
    leaves.extend(STRINGS.iter().map(|s| Value::String(s.to_string())));
    let nested = Value::Object(vec![
        ("empty array".into(), Value::Array(vec![])),
        ("empty object".into(), Value::Object(vec![])),
        (
            "nested empties".into(),
            Value::Array(vec![Value::Array(vec![]), Value::Object(vec![])]),
        ),
        ("leaves".into(), Value::Array(leaves.clone())),
    ]);
    for value in leaves.iter().chain([&nested]) {
        assert_streams_like_the_tree(value, "a corner-case value");
    }
    assert_eq!(
        serde_json::to_string_pretty(&nested)
            .unwrap()
            .lines()
            .nth(1),
        Some("  \"empty array\": [],")
    );
}
