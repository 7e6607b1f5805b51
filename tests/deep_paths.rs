//! Deep schedule paths on small stacks.
//!
//! A divider chain's schedule is one long path per `k^depth` source
//! firings, so the search, the schedule build and every later stage see
//! a path thousands of nodes deep. A long straight line of writes makes
//! one code segment thousands of nodes long instead. No stage may need
//! call stack in proportion to either. This file is its own test binary
//! because a stack overflow aborts the whole process rather than failing
//! one test.

use qss::{EnvEvent, Pipeline, PipelineConfig};
use qss_bench::testgen::{divider_chain_source, write_chain_source};

/// Runs `f` on a fresh thread with a `stack_bytes` stack.
fn on_stack<T: Send + 'static>(stack_bytes: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(stack_bytes)
        .spawn(f)
        .expect("spawn the test thread")
        .join()
        .expect("the test thread finished")
}

/// The 4-stage rate-8 chain (an 8 778-node schedule) through every stage
/// of the pipeline on a 1 MiB stack.
#[test]
fn four_stage_rate8_chain_runs_the_whole_flow_on_a_1_mib_stack() {
    on_stack(1 << 20, || {
        let config = PipelineConfig {
            // The multi-task baseline needs room for one rate-8 transfer.
            multitask_buffer_size: 8,
            ..PipelineConfig::default()
        };
        let source = divider_chain_source(4, 8);
        // CI builds the same chain with the real `qssc` on a 1 MiB stack.
        assert_eq!(source, include_str!("../samples/divider_chain.flowc"));
        let task = Pipeline::from_source(&source)
            .expect("the chain parses")
            .with_config(config)
            .link()
            .expect("the chain links")
            .schedule()
            .expect("the chain schedules")
            .generate()
            .expect("the chain generates");
        let schedule = &task.schedules.schedules[0];
        assert_eq!(schedule.num_nodes(), 8_778);
        schedule
            .validate(&task.system.net)
            .expect("the schedule validates");
        // Two passes through the chain's last divider.
        let events: Vec<EnvEvent> = (1..=2 * 8i64.pow(4))
            .map(|v| EnvEvent::new("s0", "go", v))
            .collect();
        let sim = task.simulate(&events).expect("both executors run");
        assert!(sim.outputs_match);
        assert!(task.to_json().len() > 1 << 20);
        assert!(sim.to_json().contains("\"outputs_match\":true"));
    });
}

/// The 5-stage rate-8 chain (a 70 218-node schedule) through code
/// generation on a 1 MiB stack. CI builds the same sample with the real
/// `qssc` under a 10 s timeout, which holds only while no per-node cost
/// of the search or of code generation grows with the path depth.
#[test]
fn five_stage_rate8_chain_generates_on_a_1_mib_stack() {
    on_stack(1 << 20, || {
        let source = divider_chain_source(5, 8);
        assert_eq!(source, include_str!("../samples/divider_chain5.flowc"));
        let task = Pipeline::from_source(&source)
            .expect("the chain parses")
            .link()
            .expect("the chain links")
            .schedule()
            .expect("the chain schedules")
            .generate()
            .expect("the chain generates");
        assert_eq!(task.schedules.schedules[0].num_nodes(), 70_218);
        assert_eq!(task.tasks[0].segments.state_places.len(), 5);
    });
}

/// A one-stage chain whose schedule path is about 20 000 nodes deep,
/// built at default options on a default-sized test thread.
#[test]
fn one_stage_chain_twenty_thousand_deep_builds_at_default_options() {
    let schedule = Pipeline::from_source(&divider_chain_source(1, 10_000))
        .expect("the chain parses")
        .link()
        .expect("the chain links")
        .schedule()
        .expect("the chain schedules");
    let schedule_nodes = schedule.schedules.schedules[0].num_nodes();
    assert!(schedule_nodes >= 20_000, "{schedule_nodes} nodes");
    schedule.schedules.schedules[0]
        .validate(&schedule.system.net)
        .expect("the schedule validates");
}

/// A 1 000-write straight line: one code segment of the task is a chain
/// of 1 001 inlined nodes, built, emitted, simulated and serialized on a
/// 1 MiB stack.
#[test]
fn straight_line_write_chain_runs_the_whole_flow_on_a_1_mib_stack() {
    on_stack(1 << 20, || {
        let task = Pipeline::from_source(&write_chain_source(1_000))
            .expect("the chain parses")
            .link()
            .expect("the chain links")
            .schedule()
            .expect("the chain schedules")
            .generate()
            .expect("the chain generates");
        task.schedules.schedules[0]
            .validate(&task.system.net)
            .expect("the schedule validates");
        let longest = task.tasks[0]
            .segments
            .segments
            .iter()
            .map(|segment| segment.num_nodes())
            .max();
        assert_eq!(longest, Some(1_001));
        let events: Vec<EnvEvent> = (1..=3).map(|v| EnvEvent::new("p", "go", v)).collect();
        let sim = task.simulate(&events).expect("both executors run");
        assert!(sim.outputs_match);
        assert!(task.to_json().contains("\"code\":"));
        assert!(sim.to_json().contains("\"outputs_match\":true"));
    });
}

/// The same kind of straight line, 2 000 writes long, through a
/// one-worker in-process daemon. A `simulate` request runs the generate
/// stage and both executors on the worker that admitted it, whose stack
/// has the default size. The daemon must answer with the local bytes and
/// go on serving. A `generate` reply carries every schedule node's dense
/// marking, so it grows with the square of the line (25 MB at 2 000
/// writes); the worker streams it without a `Value` tree, and at 500
/// writes (1.6 MB) its artifact must equal the local bytes too.
#[test]
fn daemon_worker_simulates_a_straight_line_write_chain() {
    let source = write_chain_source(2_000);
    let events = [EnvEvent::new("p", "go", 1), EnvEvent::new("p", "go", 2)];
    let server = qss_server::Server::bind(qss_server::ServerConfig {
        workers: 1,
        ..qss_server::ServerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn();
    let mut client = qss_server::Client::connect(server.addr()).expect("connect");
    let remote = client
        .simulate(&source, None, &events)
        .expect("simulate the write chain");
    let local = Pipeline::from_source(&source)
        .expect("the chain parses")
        .link()
        .expect("the chain links")
        .schedule()
        .expect("the chain schedules")
        .generate()
        .expect("the chain generates")
        .simulate(&events)
        .expect("both executors run")
        .to_json();
    assert_eq!(remote.artifact_json(), local);
    assert!(local.contains("\"outputs_match\":true"));
    let source = write_chain_source(500);
    let remote = client
        .generate(&source, None)
        .expect("generate the write chain");
    let local = Pipeline::from_source(&source)
        .expect("the chain parses")
        .link()
        .expect("the chain links")
        .schedule()
        .expect("the chain schedules")
        .generate()
        .expect("the chain generates")
        .to_json();
    assert_eq!(remote.artifact_json(), local);
    let summary = client
        .check(&divider_chain_source(1, 2))
        .expect("the daemon still serves");
    assert_eq!(summary.system, "chain");
    server.shutdown_and_join().expect("clean shutdown");
}
