//! End-to-end integration tests spanning every crate of the workspace,
//! written against the staged `Pipeline` API of the `qss` facade:
//! FlowC parsing → linking → quasi-static scheduling → code generation →
//! execution on both the multi-task baseline and the generated task.

use qss::{
    schedule_system, CostProfile, EnvEvent, LinkedSystem, Pipeline, PipelineConfig, PortClass,
    QssError, Schedule, ScheduleError, ScheduleOptions, SearchBudget, SearchContext, SearchProfile,
    SystemSpec, TaskArtifact,
};
use qss_codegen::SegmentGraph;
use qss_core::execute_run;
use qss_petri::TransitionId;
use qss_sim::{pfc_events, pfc_expected_outputs, pfc_spec, size_report, PfcParams};

/// A three-stage pipeline with a data-dependent branch in the middle
/// stage, as a whole-system FlowC source file (the same system that is
/// checked in as `samples/pipeline.flowc` for the CLI).
const COLLATZ_PIPELINE: &str = include_str!("../samples/pipeline.flowc");

fn collatz_task() -> Result<TaskArtifact, QssError> {
    Pipeline::from_source(COLLATZ_PIPELINE)?
        .link()?
        .schedule()?
        .generate()
}

#[test]
fn full_flow_on_branching_pipeline() {
    let task = collatz_task().unwrap();
    let system = &task.system;
    // Schedule and validate against the five defining properties.
    assert_eq!(task.schedules.schedules.len(), 1);
    let schedule = &task.schedules.schedules[0];
    schedule.validate(&system.net).unwrap();
    assert!(schedule.is_single_source(&system.net));
    // The data-dependent branch appears as a two-edge node.
    assert!(schedule.node_ids().any(|id| schedule.edges(id).len() == 2));
    // All channel buffers are unit size.
    for channel in &system.channels {
        assert_eq!(task.schedules.bound(channel.place), 1, "{}", channel.name);
    }
    // Code generation succeeded and emitted both guard branches.
    let graph = SegmentGraph::build(schedule, &system.net).unwrap();
    assert!(!graph.segments.is_empty());
    assert!(task.c_code().contains("if ("));
    assert!(task.c_code().contains("WRITE_DATA(result"));

    // Execute the Collatz-style branch on both implementations.
    let events: Vec<EnvEvent> = [6i64, 7, 8, 9]
        .into_iter()
        .map(|v| EnvEvent::new("source", "trigger", v))
        .collect();
    let sim = task.simulate(&events).unwrap();
    assert_eq!(sim.single.output("sink", "result"), &[3, 22, 4, 28]);
    assert!(sim.outputs_match);
    assert!(sim.multi.cycles > sim.single.cycles);
    assert!(sim.speedup > 1.0);

    // The abstract run machinery of the core crate agrees with the net.
    let source = system.uncontrollable_sources()[0];
    let trace = execute_run(
        &system.net,
        &task.schedules.schedules,
        &[source, source],
        |_, _, _| 0,
    )
    .unwrap();
    assert!(!trace.fired.is_empty());
}

#[test]
fn pipeline_report_summarizes_the_run() {
    let task = collatz_task().unwrap();
    let events: Vec<EnvEvent> = [6i64, 7, 8, 9]
        .into_iter()
        .map(|v| EnvEvent::new("source", "trigger", v))
        .collect();
    let sim = task.simulate(&events).unwrap();
    let report = task.report(Some(&sim));
    assert_eq!(report.system, "collatz");
    assert_eq!(report.processes, vec!["source", "stage", "sink"]);
    assert_eq!(report.schedules.len(), 1);
    assert_eq!(report.schedules[0].source, "source.trigger");
    assert_eq!(report.channel_bounds.len(), 2);
    assert!(report.channel_bounds.iter().all(|(_, b)| *b == 1));
    let summary = report.simulation.as_ref().unwrap();
    assert!(summary.outputs_match);
    assert!(summary.speedup > 1.0);
    // The report round-trips through its JSON rendering.
    let back = qss::PipelineReport::from_json(&report.to_json_pretty()).unwrap();
    assert_eq!(back, report);
}

#[test]
fn pfc_end_to_end_matches_reference_and_paper_shape() {
    let params = PfcParams::tiny();
    let config = PipelineConfig {
        profile: CostProfile::Optimized,
        multitask_buffer_size: 100,
        ..PipelineConfig::default()
    };
    let task = Pipeline::new(pfc_spec(&params))
        .with_config(config)
        .link()
        .unwrap()
        .schedule()
        .unwrap()
        .generate()
        .unwrap();
    let system = &task.system;
    let schedule = &task.schedules.schedules[0];
    schedule.validate(&system.net).unwrap();
    // The paper: a single task with all channels of unit size.
    for channel in &system.channels {
        assert_eq!(task.schedules.bound(channel.place), 1, "{}", channel.name);
    }
    assert!(task.tasks[0].stats.num_segments >= 2);

    let events = pfc_events(6);
    let sim = task.simulate(&events).unwrap();
    // Functional equivalence (the role of VCC simulation in the paper).
    assert_eq!(
        sim.single.output("consumer", "out"),
        pfc_expected_outputs(&params, 6).as_slice()
    );
    assert!(sim.outputs_match);
    // Performance shape: single task wins by a clear factor, and the
    // advantage grows when buffers shrink.
    assert!(sim.speedup > 2.0);
    let mut small = task.clone();
    small.config.multitask_buffer_size = 1;
    let sim_small = small.simulate(&events).unwrap();
    assert!(sim_small.multi.cycles > sim.multi.cycles);

    // Code size shape of Table 2: the single task is several times smaller.
    let spec = pfc_spec(&params);
    let report = size_report(
        system,
        spec.processes(),
        &task.tasks[0],
        &CostProfile::Optimized.code_model(),
        true,
    );
    assert!(report.ratio > 3.0);
}

/// A multi-task buffer smaller than a port rate can never complete that
/// transfer: the run fails with a typed deadlock naming the channel, its
/// rate and its capacity, instead of stopping early with outputs that
/// silently disagree.
#[test]
fn multitask_buffer_below_a_port_rate_is_a_typed_deadlock() {
    const BATCHER: &str = "SYSTEM batcher {\n    CHANNEL feed.out -> sum.inp;\n}\n\
        PROCESS feed (In DPORT go, Out DPORT out) {\n    int x;\n    \
        while (1) { READ_DATA(go, x, 1); WRITE_DATA(out, x, 1); }\n}\n\
        PROCESS sum (In DPORT inp, Out DPORT total) {\n    int v[8];\n    \
        while (1) { READ_DATA(inp, v, 8); WRITE_DATA(total, v[0] + v[7], 1); }\n}\n";
    let mut task = Pipeline::from_source(BATCHER)
        .and_then(|p| p.link())
        .and_then(|l| l.schedule())
        .and_then(|s| s.generate())
        .unwrap();
    let events: Vec<EnvEvent> = (1..=16).map(|v| EnvEvent::new("feed", "go", v)).collect();
    task.config.multitask_buffer_size = 4;
    match task.simulate(&events) {
        Err(QssError::Sim(qss_sim::SimError::Deadlock(message))) => {
            assert!(message.contains("`feed_out__sum_inp`"), "{message}");
            assert!(message.contains('8') && message.contains('4'), "{message}");
        }
        other => panic!("expected a deadlock error, got {other:?}"),
    }
    task.config.multitask_buffer_size = 8;
    let sim = task.simulate(&events).unwrap();
    assert!(sim.outputs_match);
    assert_eq!(sim.single.output("sum", "total"), &[9, 25]);
}

#[test]
fn divisors_task_computes_divisors_end_to_end() {
    let spec = SystemSpec::new("divisors_system")
        .with_process(qss::parse_process(qss_flowc::examples::DIVISORS).unwrap());
    let task = Pipeline::new(spec)
        .link()
        .unwrap()
        .schedule()
        .unwrap()
        .generate()
        .unwrap();
    task.schedules.schedules[0]
        .validate(&task.system.net)
        .unwrap();
    let events: Vec<EnvEvent> = [12i64, 30]
        .into_iter()
        .map(|n| EnvEvent::new("divisors", "in", n))
        .collect();
    let sim = task.simulate(&events).unwrap();
    assert_eq!(sim.single.output("divisors", "max"), &[6, 15]);
    assert_eq!(
        sim.single.output("divisors", "all"),
        &[6, 4, 3, 2, 1, 15, 10, 6, 5, 3, 2, 1]
    );
    // The multi-task implementation (a single process here) agrees.
    assert!(sim.outputs_match);
}

#[test]
fn controllable_inputs_are_excluded_from_task_generation() {
    // A system where one input is controllable: only the uncontrollable
    // port gets a task/schedule. The whole-system parser declares the
    // class in the SYSTEM manifest.
    let scheduled = Pipeline::from_source(
        "SYSTEM mixed_inputs {
             INPUT worker.param CONTROLLABLE;
         }
         PROCESS worker (In DPORT job, In DPORT param, Out DPORT done) {
             int j, p;
             while (1) {
                 READ_DATA(job, j, 1);
                 READ_DATA(param, p, 1);
                 WRITE_DATA(done, j + p, 1);
             }
         }",
    )
    .unwrap()
    .link()
    .unwrap()
    .schedule()
    .unwrap();
    let system = &scheduled.system;
    assert_eq!(system.uncontrollable_sources().len(), 1);
    assert_eq!(scheduled.schedules.schedules.len(), 1);
    let schedule = &scheduled.schedules.schedules[0];
    schedule.validate(&system.net).unwrap();
    assert_eq!(scheduled.source_port(schedule), "worker.job");
    // The controllable source is involved in the schedule (the system
    // requests the parameter itself), which is allowed for SS schedules.
    let controllable = system
        .env_inputs
        .iter()
        .find(|e| e.class == PortClass::Controllable)
        .unwrap()
        .source;
    assert!(schedule.involved_transitions().contains(&controllable));
}

/// Two independent producer/consumer pairs: two uncontrollable inputs.
fn two_pair_system() -> qss_flowc::LinkedSystem {
    qss::link(
        &qss::parse_system(
            "SYSTEM two_pairs {
                 CHANNEL left.out -> left_sink.data;
                 CHANNEL right.out -> right_sink.data;
             }
             PROCESS left (In DPORT go, Out DPORT out) {
                 int x;
                 while (1) { READ_DATA(go, x, 1); WRITE_DATA(out, x + 1, 1); }
             }
             PROCESS left_sink (In DPORT data, Out DPORT res) {
                 int y;
                 while (1) { READ_DATA(data, y, 1); WRITE_DATA(res, y, 1); }
             }
             PROCESS right (In DPORT go, Out DPORT out) {
                 int x;
                 while (1) { READ_DATA(go, x, 1); WRITE_DATA(out, 2 * x, 1); }
             }
             PROCESS right_sink (In DPORT data, Out DPORT res) {
                 int y;
                 while (1) { READ_DATA(data, y, 1); WRITE_DATA(res, y, 1); }
             }",
        )
        .unwrap(),
    )
    .unwrap()
}

/// A lone search of `source` on `context` under an unlimited budget.
fn search_one(
    system: &LinkedSystem,
    context: &SearchContext,
    source: TransitionId,
) -> Result<Schedule, ScheduleError> {
    let mut profile = SearchProfile::default();
    context
        .find_schedule_profiled(
            &system.net,
            source,
            &ScheduleOptions::default(),
            &SearchBudget::unlimited(),
            &mut profile,
        )
        .map(|(schedule, _)| schedule)
}

#[test]
fn two_input_systems_are_scheduled_in_source_order() {
    let system = two_pair_system();
    let sources = system.uncontrollable_sources();
    assert_eq!(sources.len(), 2);
    let context = SearchContext::new(&system.net);
    let (scheduled, profile) = schedule_system(
        &system,
        &context,
        &ScheduleOptions::default(),
        &SearchBudget::unlimited(),
    )
    .unwrap();
    // One search per input, and the profile counts both.
    assert_eq!(profile.searches, 2);
    assert!(profile.nodes_expanded > 0);
    assert_eq!(scheduled.stats.len(), 2);
    let order: Vec<_> = scheduled.schedules.iter().map(|s| s.source()).collect();
    assert_eq!(order, sources);
    // Each schedule is the one a lone search of its input finds.
    for (schedule, &source) in scheduled.schedules.iter().zip(&sources) {
        assert_eq!(&search_one(&system, &context, source).unwrap(), schedule);
    }
}

#[test]
fn two_input_systems_report_the_earliest_failure() {
    // Two uncontrollable sources feeding one synchronising transition:
    // no single-source schedule exists for either (Figure 4(b)), and the
    // system search reports the error of the first source.
    let spec = qss::parse_system(
        "SYSTEM sync {
             CHANNEL a.out -> join.ina;
             CHANNEL b.out -> join.inb;
         }
         PROCESS a (In DPORT go, Out DPORT out) {
             int x;
             while (1) { READ_DATA(go, x, 1); WRITE_DATA(out, x, 1); }
         }
         PROCESS b (In DPORT go, Out DPORT out) {
             int x;
             while (1) { READ_DATA(go, x, 1); WRITE_DATA(out, x, 1); }
         }
         PROCESS join (In DPORT ina, In DPORT inb, Out DPORT res) {
             int p, q;
             while (1) {
                 READ_DATA(ina, p, 1);
                 READ_DATA(inb, q, 1);
                 WRITE_DATA(res, p + q, 1);
             }
         }",
    )
    .unwrap();
    let system = qss::link(&spec).unwrap();
    let sources = system.uncontrollable_sources();
    assert_eq!(sources.len(), 2);
    let context = SearchContext::new(&system.net);
    let first = search_one(&system, &context, sources[0]).unwrap_err();
    let second = search_one(&system, &context, sources[1]).unwrap_err();
    assert_ne!(first, second);
    let error = schedule_system(
        &system,
        &context,
        &ScheduleOptions::default(),
        &SearchBudget::unlimited(),
    )
    .unwrap_err();
    assert_eq!(error, first);
}
