//! Serde JSON round-trip tests for the pipeline's serializable types:
//! schedules, generated tasks, simulation reports, and the stage
//! artifacts of the `qss` facade (through the offline serde shims).

use qss::{
    CostProfile, EnvEvent, LinkedArtifact, Pipeline, PipelineConfig, QssError, ScheduleArtifact,
    ScheduleOptions, SearchBudget, SearchProfile, SimArtifact, SimReport, TaskArtifact,
};
use qss_core::{Schedule, ScheduleNode, SystemSchedules};
use serde::{Deserialize, Serialize};

const SOURCE: &str = include_str!("../samples/pipeline.flowc");

fn task_artifact() -> TaskArtifact {
    Pipeline::from_source(SOURCE)
        .unwrap()
        .link()
        .unwrap()
        .schedule()
        .unwrap()
        .generate()
        .unwrap()
}

fn events() -> Vec<EnvEvent> {
    [6i64, 7, 8, 9]
        .into_iter()
        .map(|v| EnvEvent::new("source", "trigger", v))
        .collect()
}

#[test]
fn schedule_round_trips() {
    let task = task_artifact();
    let schedule = &task.schedules.schedules[0];
    let json = serde_json::to_string(schedule).unwrap();
    let back: Schedule = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, schedule);
    // And the whole system-schedules bundle (schedules + bounds + stats).
    let json = serde_json::to_string(&task.schedules).unwrap();
    let back: SystemSchedules = serde_json::from_str(&json).unwrap();
    assert_eq!(back, task.schedules);
}

/// The naively derived serialization of a schedule's exchange
/// representation — exactly what `Schedule` serialized as before markings
/// were interned onto the flat slab. The manual `Serialize` impl promises
/// to keep this wire format.
#[derive(Serialize, Deserialize)]
struct WireSchedule {
    source: qss_petri::TransitionId,
    nodes: Vec<ScheduleNode>,
}

#[test]
fn schedule_wire_format_is_byte_identical_to_the_pre_slab_exchange_form() {
    let task = task_artifact();
    for schedule in &task.schedules.schedules {
        let mirror = WireSchedule {
            source: schedule.source(),
            nodes: schedule
                .node_ids()
                .map(|id| ScheduleNode {
                    marking: schedule.marking_owned(id),
                    edges: schedule.edges(id).to_vec(),
                })
                .collect(),
        };
        // Byte-identical in both renderings: the flat-slab refactor (and
        // interning before it) never touched the JSON wire format.
        assert_eq!(
            serde_json::to_string(schedule).unwrap(),
            serde_json::to_string(&mirror).unwrap()
        );
        assert_eq!(
            serde_json::to_string_pretty(schedule).unwrap(),
            serde_json::to_string_pretty(&mirror).unwrap()
        );
        // And the derived mirror parses back into an equal Schedule.
        let back: Schedule =
            serde_json::from_str(&serde_json::to_string(&mirror).unwrap()).unwrap();
        assert_eq!(&back, schedule);
    }
}

#[test]
fn generated_task_round_trips() {
    let task = task_artifact();
    let json = serde_json::to_string(&task.tasks[0]).unwrap();
    let back: qss::GeneratedTask = serde_json::from_str(&json).unwrap();
    assert_eq!(back, task.tasks[0]);
    assert!(json.contains("\"code\""));
}

#[test]
fn sim_report_round_trips() {
    let task = task_artifact();
    let sim = task.simulate(&events()).unwrap();
    let json = serde_json::to_string(&sim.single).unwrap();
    let back: SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, sim.single);
    // Output maps keep their `process.port` keys as JSON object keys.
    assert!(json.contains("\"sink.result\""));
}

#[test]
fn pipeline_config_round_trips() {
    let config = PipelineConfig {
        profile: CostProfile::Optimized2,
        multitask_buffer_size: 17,
        schedule: ScheduleOptions::with_place_bounds(9),
        ..PipelineConfig::default()
    };
    let json = serde_json::to_string(&config).unwrap();
    let back: PipelineConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, config);
}

#[test]
fn pipeline_config_parsing_is_lenient_and_canonicalizing() {
    // `{}` is a valid config: every missing field takes its default.
    let empty: PipelineConfig = serde_json::from_str("{}").unwrap();
    assert_eq!(empty, PipelineConfig::default());
    // A partial config defaults only what it omits.
    let partial: PipelineConfig = serde_json::from_str("{\"multitask_buffer_size\": 17}").unwrap();
    assert_eq!(partial.multitask_buffer_size, 17);
    assert_eq!(
        partial.max_sim_steps,
        PipelineConfig::default().max_sim_steps
    );
    // Canonicalization: `{}` and the fully spelled-out default serialize
    // to identical bytes — the property the server's coalescing key
    // relies on.
    let spelled_out = serde_json::to_string(&PipelineConfig::default()).unwrap();
    let reparsed: PipelineConfig = serde_json::from_str(&spelled_out).unwrap();
    assert_eq!(
        serde_json::to_string(&empty).unwrap(),
        serde_json::to_string(&reparsed).unwrap()
    );
    // Unknown keys are ignored: configs carrying the removed thread
    // fan-out switch or code-sharing flag parse to the default and
    // serialize to its bytes, so such requests still coalesce with new
    // ones.
    let removed_keys: PipelineConfig = serde_json::from_str(
        "{\"parallel_schedule\": true, \"task\": \
         {\"share_code_segments\": false, \"inline_communication\": true}}",
    )
    .unwrap();
    assert_eq!(removed_keys, PipelineConfig::default());
    assert_eq!(serde_json::to_string(&removed_keys).unwrap(), spelled_out);
    // Leniency covers absence, not invalid input.
    assert!(serde_json::from_str::<PipelineConfig>("{\"profile\": 9}").is_err());
    assert!(serde_json::from_str::<PipelineConfig>("5").is_err());
}

#[test]
fn linked_artifact_round_trips() {
    let linked = Pipeline::from_source(SOURCE).unwrap().link().unwrap();
    let back = LinkedArtifact::from_json(&linked.to_json()).unwrap();
    // The artifact types embed the full net, which has no PartialEq;
    // compare the canonical JSON renderings instead.
    assert_eq!(back.to_json(), linked.to_json());
    assert_eq!(back.spec, linked.spec);
    assert_eq!(back.system.net.num_places(), linked.system.net.num_places());
    // The rebuilt net still links/schedules: run the next stage on it.
    let scheduled = back.schedule().unwrap();
    assert_eq!(scheduled.schedules.schedules.len(), 1);
}

#[test]
fn schedule_artifact_round_trips_and_rebuilds_its_context() {
    let scheduled = Pipeline::from_source(SOURCE)
        .unwrap()
        .link()
        .unwrap()
        .schedule()
        .unwrap();
    let back = ScheduleArtifact::from_json(&scheduled.to_json_pretty()).unwrap();
    assert_eq!(back.to_json(), scheduled.to_json());
    assert_eq!(back.schedules, scheduled.schedules);
    // The SearchContext is derived data: it is not serialized, but the
    // deserialized artifact has a working one (same ECS partition).
    let source = back.system.uncontrollable_sources()[0];
    let (schedule, _) = back
        .context()
        .find_schedule_profiled(
            &back.system.net,
            source,
            &ScheduleOptions::default(),
            &SearchBudget::unlimited(),
            &mut SearchProfile::default(),
        )
        .unwrap();
    assert_eq!(schedule, scheduled.schedules.schedules[0]);
    // And the rebuilt artifact continues through the remaining stages.
    let task = back.generate().unwrap();
    assert!(task.simulate(&events()).unwrap().outputs_match);
}

#[test]
fn task_and_sim_artifacts_round_trip() {
    let task = task_artifact();
    let back = TaskArtifact::from_json(&task.to_json()).unwrap();
    assert_eq!(back.to_json(), task.to_json());
    assert_eq!(back.tasks, task.tasks);
    let sim = task.simulate(&events()).unwrap();
    let back = SimArtifact::from_json(&sim.to_json_pretty()).unwrap();
    assert_eq!(back.to_json(), sim.to_json());
    assert_eq!(back.single, sim.single);
    assert_eq!(back.events, sim.events);
    assert!(back.outputs_match);
}

/// `qssc build --emit json` output for a one-process echo system, archived
/// while the config still carried the thread fan-out switch (set) and the
/// code-sharing flag.
const ARCHIVED_TASK: &str = include_str!("fixtures/echo_system.archived.pipeline.json");

#[test]
fn archived_task_artifact_with_removed_config_keys_still_parses() {
    let task = TaskArtifact::from_json(ARCHIVED_TASK).unwrap();
    assert_eq!(task.config, PipelineConfig::default());
    assert_eq!(task.tasks.len(), 1);
    // Re-serializing drops exactly the two removed keys' lines.
    let expected: String = ARCHIVED_TASK
        .lines()
        .filter(|line| {
            !line.contains("\"parallel_schedule\"") && !line.contains("\"share_code_segments\"")
        })
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(task.to_json_pretty(), expected.trim_end());
    // And the artifact continues through simulation.
    let events = [3i64, 4].map(|v| EnvEvent::new("echo", "a", v));
    assert!(task.simulate(&events).unwrap().outputs_match);
}

#[test]
fn ragged_marking_widths_are_a_deserialization_error_not_a_panic() {
    // Corrupted wire input where two nodes disagree on the place count:
    // the fixed-stride marking store can never hold this, so it must be
    // rejected before interning (previously it deserialized and failed
    // validate(); aborting the process is never acceptable for JSON).
    let ragged = r#"{
        "source": 0,
        "nodes": [
            {"marking": {"counts": [0, 0]}, "edges": [[0, 1]]},
            {"marking": {"counts": [1, 0, 0]}, "edges": [[1, 0]]}
        ]
    }"#;
    let result: Result<Schedule, _> = serde_json::from_str(ragged);
    assert!(result.is_err());
}

#[test]
fn malformed_artifact_json_is_rejected() {
    assert!(matches!(
        TaskArtifact::from_json("{\"nope\": 1}"),
        Err(QssError::Config(_))
    ));
    assert!(matches!(
        ScheduleArtifact::from_json("not json at all"),
        Err(QssError::Config(_))
    ));
    assert!(LinkedArtifact::from_json("[1, 2, 3]").is_err());
}

#[test]
fn json_values_cover_the_corner_cases() {
    // Escapes, unicode, negative numbers, floats, nesting.
    let value = serde_json::Value::Object(vec![
        (
            "tab\"quote\\".into(),
            serde_json::Value::String("π 😀 \n".into()),
        ),
        (
            "numbers".into(),
            serde_json::Value::Array(vec![
                serde_json::to_value(&-42i64).unwrap(),
                serde_json::to_value(&u64::MAX).unwrap(),
                serde_json::to_value(&1.25f64).unwrap(),
            ]),
        ),
    ]);
    let compact = serde_json::to_string(&value).unwrap();
    let pretty = serde_json::to_string_pretty(&value).unwrap();
    assert_eq!(
        serde_json::from_str::<serde_json::Value>(&compact).unwrap(),
        value
    );
    assert_eq!(
        serde_json::from_str::<serde_json::Value>(&pretty).unwrap(),
        value
    );
    // u64::MAX survives (no float detour).
    let n: u64 = serde_json::from_str(&serde_json::to_string(&u64::MAX).unwrap()).unwrap();
    assert_eq!(n, u64::MAX);
}

/// The artifact bytes of `samples/pipeline.flowc`, pinned before the
/// streaming writer replaced the `Value` tree: compact schedule and task
/// artifacts, and the pretty task artifact `qssc build --emit json`
/// writes (CI diffs the CLI's file against the same golden).
#[test]
fn pipeline_artifact_bytes_match_the_pinned_fixtures() {
    let schedule = Pipeline::from_source(SOURCE)
        .unwrap()
        .link()
        .unwrap()
        .schedule()
        .unwrap();
    assert_eq!(
        schedule.to_json(),
        include_str!("fixtures/pipeline.schedule_artifact.json")
    );
    let task = schedule.generate().unwrap();
    assert_eq!(
        task.to_json(),
        include_str!("fixtures/pipeline.task_artifact.json")
    );
    assert_eq!(
        task.to_json_pretty(),
        include_str!("../samples/pipeline.pipeline.golden.json")
    );
}
