//! End-to-end determinism of the service: spawn the real `qssd` binary
//! on an ephemeral port, storm it with concurrent clients over several
//! distinct nets (some duplicated, to exercise the context cache and the
//! in-flight coalescing), and require every returned artifact to be
//! **byte-identical** to the corresponding local [`qss::Pipeline`] run.
//! Ends with a graceful `shutdown`, so the harness leaks no listeners.

use qss::remote::Client;
use qss::{EnvEvent, Pipeline};
use qss_bench::testgen::divider_chain_source as pathological_source;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

/// A spawned `qssd` process plus its discovered address.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qssd"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn qssd");
        let stdout = child.stdout.take().expect("qssd stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the discovery line");
        // "qssd: listening on 127.0.0.1:PORT"
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("discovery line carries the address")
            .to_string();
        Daemon { child, addr }
    }

    /// Requires the daemon to exit cleanly within a few seconds.
    fn assert_clean_exit(mut self) {
        for _ in 0..400 {
            if let Some(status) = self.child.try_wait().expect("poll qssd") {
                assert!(status.success(), "qssd exited with {status}");
                return;
            }
            thread::sleep(Duration::from_millis(25));
        }
        let _ = self.child.kill();
        panic!("qssd did not exit within 10s of the shutdown request");
    }
}

/// K structurally distinct single-process nets (the multiplier lands in
/// transition code, so each variant has its own fingerprint).
fn net_source(multiplier: u32) -> String {
    format!(
        "PROCESS echo (In DPORT a, Out DPORT b) {{\n\
         \x20   int x;\n\
         \x20   while (1) {{ READ_DATA(a, x, 1); WRITE_DATA(b, x * {multiplier}, 1); }}\n\
         }}\n"
    )
}

/// The local (in-process, default-config) ground truth for one source.
struct Expected {
    schedule_json: String,
    task_json: String,
    sim_json: String,
}

fn expected_for(source: &str, events: &[EnvEvent]) -> Expected {
    let scheduled = Pipeline::from_source(source)
        .expect("source parses")
        .link()
        .expect("source links")
        .schedule()
        .expect("source schedules");
    let schedule_json = scheduled.to_json();
    let task = scheduled.generate().expect("source generates");
    let task_json = task.to_json();
    let sim_json = task.simulate(events).expect("source simulates").to_json();
    Expected {
        schedule_json,
        task_json,
        sim_json,
    }
}

#[test]
fn concurrent_clients_get_byte_identical_artifacts_and_a_warm_cache() {
    const DISTINCT_NETS: u32 = 3;
    const CLIENTS: usize = 8;

    let daemon = Daemon::spawn(&["--workers", "4", "--queue", "64", "--cache", "16"]);
    let addr = daemon.addr.clone();

    let events: Vec<EnvEvent> = (1..=3).map(|v| EnvEvent::new("echo", "a", v)).collect();
    let sources: Vec<String> = (0..DISTINCT_NETS).map(|i| net_source(2 + i)).collect();
    let expected: Vec<Expected> = sources.iter().map(|s| expected_for(s, &events)).collect();

    // The storm: every client walks all nets, duplicating the work of
    // its siblings — exactly the traffic shape the cache and the
    // coalescer exist for. Each thread compares bytes on the spot.
    let mut workers = Vec::new();
    for client_index in 0..CLIENTS {
        let addr = addr.clone();
        let sources = sources.clone();
        let events = events.clone();
        let expected_schedules: Vec<String> =
            expected.iter().map(|e| e.schedule_json.clone()).collect();
        let expected_tasks: Vec<String> = expected.iter().map(|e| e.task_json.clone()).collect();
        let expected_sims: Vec<String> = expected.iter().map(|e| e.sim_json.clone()).collect();
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(&*addr).expect("connect");
            let mut fingerprints: HashMap<usize, String> = HashMap::new();
            for step in 0..sources.len() {
                let net = (client_index + step) % sources.len();
                let source = &sources[net];
                let reply = loop {
                    match client.schedule(source, None) {
                        Ok(reply) => break reply,
                        // Backpressure is a legal answer under load.
                        Err(qss::remote::ClientError::Server(e))
                            if e.kind == qss::remote::ErrorKind::Busy =>
                        {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(other) => panic!("schedule failed: {other}"),
                    }
                };
                assert_eq!(
                    reply.artifact_json(),
                    expected_schedules[net],
                    "schedule artifact for net {net} drifted from the local pipeline"
                );
                fingerprints.insert(net, reply.fingerprint.clone());

                let reply = client.generate(source, None).expect("generate");
                assert_eq!(reply.artifact_json(), expected_tasks[net]);
                assert_eq!(reply.fingerprint, fingerprints[&net]);

                let reply = client.simulate(source, None, &events).expect("simulate");
                assert_eq!(reply.artifact_json(), expected_sims[net]);
            }
            fingerprints
        }));
    }
    let mut all_fingerprints: Vec<HashMap<usize, String>> = Vec::new();
    for worker in workers {
        all_fingerprints.push(worker.join().expect("client thread"));
    }
    // Same net => same fingerprint across every client; distinct nets
    // => distinct fingerprints.
    let reference = &all_fingerprints[0];
    assert_eq!(reference.len(), DISTINCT_NETS as usize);
    for fingerprints in &all_fingerprints {
        assert_eq!(fingerprints, reference);
    }
    let mut unique: Vec<&String> = reference.values().collect();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), DISTINCT_NETS as usize);

    // Warm pass: nothing is in flight anymore, so every net must now be
    // answered straight from the context cache.
    let mut client = Client::connect(&*addr).expect("connect");
    for source in &sources {
        let reply = client.schedule(source, None).expect("warm schedule");
        assert!(
            reply.cached,
            "post-storm request must hit the context cache"
        );
    }
    let stats = client.stats().expect("stats");
    assert!(
        stats.cache.hits > 0,
        "duplicated nets must produce cache hits: {stats:?}"
    );
    assert!(
        stats.cache.misses >= u64::from(DISTINCT_NETS),
        "each distinct net misses at least once: {stats:?}"
    );
    assert_eq!(stats.cache.collisions, 0);
    assert!(stats.requests >= (CLIENTS * 3 * DISTINCT_NETS as usize) as u64);

    client.shutdown().expect("shutdown");
    daemon.assert_clean_exit();
}

#[test]
fn scheduling_requests_coalesce_onto_one_in_flight_search() {
    // One worker guarantees queued duplicates arrive while the first
    // search is still running whenever they queue together; with the
    // heavier divider-style net below the leader search is slow enough
    // for followers from other connections to attach. Coalescing is
    // opportunistic, so the hard assertion is correctness; the counter
    // check tolerates zero only if the runs never overlapped — which the
    // barrier-free storm plus queue ordering makes effectively
    // impossible with 12 duplicates of one key.
    let daemon = Daemon::spawn(&["--workers", "2", "--queue", "64", "--cache", "4"]);
    let addr = daemon.addr.clone();
    let source = net_source(7);
    let expected = expected_for(&source, &[]);

    let mut workers = Vec::new();
    for _ in 0..12 {
        let addr = addr.clone();
        let source = source.clone();
        let expected = expected.schedule_json.clone();
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(&*addr).expect("connect");
            let reply = client.schedule(&source, None).expect("schedule");
            assert_eq!(reply.artifact_json(), expected);
        }));
    }
    for worker in workers {
        worker.join().expect("client thread");
    }
    let mut client = Client::connect(&*addr).expect("connect");
    let stats = client.stats().expect("stats");
    // Every non-leading duplicate either overlapped the leader (it
    // joined the in-flight search: `coalesced`) or arrived later (the
    // leader had already published the context: a cache hit) — the two
    // counters must cover all eleven.
    assert!(
        stats.coalesced + stats.cache.hits >= 11,
        "12 duplicates must share the context or the search: {stats:?}"
    );
    client.shutdown().expect("shutdown");
    daemon.assert_clean_exit();
}

#[test]
fn analyze_is_byte_identical_to_local_and_report_cached_by_fingerprint() {
    let daemon = Daemon::spawn(&["--workers", "2", "--queue", "16", "--cache", "8"]);
    let source = net_source(3);
    let local = Pipeline::from_source(&source)
        .expect("source parses")
        .link()
        .expect("source links")
        .analyze()
        .to_json();

    let mut client = Client::connect(&*daemon.addr).expect("connect");
    let cold = client.analyze(&source).expect("cold analyze");
    assert!(!cold.cached, "first analyze must miss the report cache");
    assert_eq!(
        cold.artifact_json(),
        local,
        "remote analysis differs from the local run"
    );
    let warm = client.analyze(&source).expect("warm analyze");
    assert!(warm.cached, "second analyze must hit the report cache");
    assert_eq!(
        warm.artifact_json(),
        local,
        "cached analysis differs from the cold one"
    );
    client.shutdown().expect("shutdown");
    daemon.assert_clean_exit();
}

#[test]
fn busy_rejections_are_ridden_out_by_the_deterministic_retry_policy() {
    use qss::remote::{with_retry, RetryPolicy};

    // One worker, a one-slot queue: two slow searches saturate the
    // server completely, so a third request *must* see `busy`.
    let daemon = Daemon::spawn(&["--workers", "1", "--queue", "1"]);
    let addr = daemon.addr.clone();

    // A divider chain whose full search runs for ~k^depth source
    // firings; an 800 ms budget turns each into a slow, self-cancelling
    // occupant of the worker (and of the queue slot behind it). The two
    // deadlines differ so the requests do not coalesce.
    let slow_source = pathological_source(8, 8);
    let mut saturators = Vec::new();
    for deadline_ms in [800u64, 801] {
        let addr = addr.clone();
        let source = slow_source.clone();
        saturators.push(thread::spawn(move || {
            let mut config = qss::PipelineConfig::default();
            config.schedule.max_nodes = 500_000_000;
            config.budget.deadline_ms = Some(deadline_ms);
            let mut client = Client::connect(&*addr).expect("connect");
            // The request itself times out — that is the point: it holds
            // the worker for its whole budget first. (The two saturators
            // race each other into the one-slot queue, so one may bounce
            // off `busy` before it gets in.)
            loop {
                let error = client
                    .schedule(&source, Some(&config))
                    .expect_err("the saturating search must exhaust its budget");
                match error {
                    qss::remote::ClientError::Server(e)
                        if e.kind == qss::remote::ErrorKind::Busy =>
                    {
                        thread::sleep(Duration::from_millis(10));
                    }
                    qss::remote::ClientError::Server(e) => {
                        assert_eq!(e.kind, qss::remote::ErrorKind::Timeout);
                        break;
                    }
                    other => panic!("saturator failed oddly: {other}"),
                }
            }
        }));
    }
    // Let both saturators reach the server before the retrying client.
    thread::sleep(Duration::from_millis(150));

    // The backoff schedule is a pure function of the seed: two policies
    // with the same seed must plan identical sleeps...
    let policy = RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_millis(400),
        seed: 42,
        overall_deadline: Some(Duration::from_secs(20)),
    };
    let replay: Vec<_> = {
        let mut a = policy.backoff();
        let mut b = policy.backoff();
        let mut delays = Vec::new();
        while let (Some(x), Some(y)) = (a.next_delay(), b.next_delay()) {
            assert_eq!(x, y, "same seed, same schedule");
            delays.push(x);
        }
        delays
    };
    assert_eq!(replay.len(), policy.max_attempts as usize - 1);

    // ...and riding that schedule through the saturated window must end
    // in success, after at least one observed `busy`.
    let mut attempts = 0u32;
    let reply = with_retry(&*addr, &policy, |client| {
        attempts += 1;
        client.schedule(&net_source(5), None)
    })
    .expect("the retry policy must outlast the backpressure window");
    assert!(!reply.fingerprint.is_empty());
    assert!(
        attempts > 1,
        "the saturated server should have answered `busy` at least once"
    );

    for saturator in saturators {
        saturator.join().expect("saturator thread");
    }
    let mut client = Client::connect(&*addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.busy_rejections >= 1,
        "the full queue must have rejected at least one request: {stats:?}"
    );
    assert!(
        stats.timeouts >= 2,
        "both saturating searches must have timed out: {stats:?}"
    );
    client.shutdown().expect("shutdown");
    daemon.assert_clean_exit();
}

/// The acceptance test for the out-of-order connection core: on ONE
/// pipelined v2 connection, every fast `link` queued behind a slow,
/// budget-bound `schedule` completes before it — matched by id, with
/// artifacts byte-identical to local [`Pipeline`] runs.
#[test]
fn pipelined_links_overtake_a_slow_schedule_with_byte_identical_artifacts() {
    const FAST: usize = 4;

    let daemon = Daemon::spawn(&["--workers", "2", "--queue", "64"]);
    let sources: Vec<String> = (0..FAST as u32).map(|i| net_source(2 + i)).collect();
    let expected: Vec<String> = sources
        .iter()
        .map(|s| {
            Pipeline::from_source(s)
                .expect("source parses")
                .link()
                .expect("source links")
                .to_json()
        })
        .collect();

    let mut client = Client::connect(&*daemon.addr).expect("connect");
    let mut slow_config = qss::PipelineConfig::default();
    slow_config.schedule.max_nodes = 500_000_000;
    slow_config.budget.deadline_ms = Some(900);
    let slow_id = client
        .send(&qss::remote::Request {
            version: None,
            id: None,
            kind: qss::remote::RequestKind::Schedule,
            source: Some(pathological_source(8, 8)),
            config: Some(slow_config),
            events: Vec::new(),
            include_task: false,
        })
        .expect("send the slow schedule");
    let mut link_ids = HashMap::new();
    for (net, source) in sources.iter().enumerate() {
        let id = client
            .send(&qss::remote::Request {
                version: None,
                id: None,
                kind: qss::remote::RequestKind::Link,
                source: Some(source.clone()),
                config: None,
                events: Vec::new(),
                include_task: false,
            })
            .expect("send a fast link");
        link_ids.insert(id, net);
    }

    let mut arrival = Vec::new();
    for _ in 0..=FAST {
        let (id, result) = client.recv().expect("pipelined response");
        if id == slow_id {
            let error = result.expect_err("the budget-bound schedule must time out");
            assert_eq!(error.kind, qss::remote::ErrorKind::Timeout);
        } else {
            let net = link_ids[&id];
            let result = result.expect("link must succeed");
            let artifact = result
                .get("artifact")
                .expect("link result carries the artifact");
            assert_eq!(
                serde_json::to_string(artifact).expect("serialize"),
                expected[net],
                "link artifact for net {net} drifted from the local pipeline"
            );
        }
        arrival.push(id);
    }
    assert_eq!(
        arrival.last(),
        Some(&slow_id),
        "every link must complete before the slow schedule: {arrival:?}"
    );
    let mut client = Client::connect(&*daemon.addr).expect("connect");
    client.shutdown().expect("shutdown");
    daemon.assert_clean_exit();
}

/// Coalesced followers must wait on the event loop, not on worker
/// threads: with ONE worker, eight followers parked behind a slow
/// leader, the daemon still answers pipeline work for a distinct net
/// promptly. A ninth follower joins through a raw socket whose config
/// JSON spells the same configuration with its keys in reverse order —
/// canonicalization must coalesce it onto the same flight.
#[test]
fn parked_followers_hold_no_worker_while_a_single_worker_serves_others() {
    use std::io::{BufRead, BufReader, Write};

    let daemon = Daemon::spawn(&["--workers", "1", "--queue", "64", "--cache", "4"]);
    let addr = daemon.addr.clone();
    let source = pathological_source(8, 8);
    let mut config = qss::PipelineConfig::default();
    config.schedule.max_nodes = 500_000_000;
    config.budget.deadline_ms = Some(1500);

    let started = std::time::Instant::now();
    let mut followers = Vec::new();
    for _ in 0..9 {
        let addr = addr.clone();
        let source = source.clone();
        let config = config.clone();
        followers.push(thread::spawn(move || {
            let mut client = Client::connect(&*addr).expect("connect");
            let error = client
                .schedule(&source, Some(&config))
                .expect_err("the coalesced search must exhaust its budget");
            match error {
                qss::remote::ClientError::Server(e) => {
                    assert_eq!(
                        e.kind,
                        qss::remote::ErrorKind::Timeout,
                        "a parked follower must share the leader's timeout, \
                         not bounce off `busy`: {e:?}"
                    );
                }
                other => panic!("follower failed oddly: {other}"),
            }
        }));
    }
    // The tenth duplicate arrives as raw bytes with the identical config
    // spelled in reverse key order — the server's canonical re-encoding
    // must still coalesce it.
    let reversed_config = {
        let canonical = serde_json::to_string(&config).expect("serialize config");
        let serde_json::Value::Object(mut pairs) =
            serde_json::from_str::<serde_json::Value>(&canonical).expect("reparse config")
        else {
            panic!("config serializes as an object");
        };
        pairs.reverse();
        serde_json::to_string(&serde_json::Value::Object(pairs)).expect("serialize")
    };
    let raw_follower = {
        let addr = addr.clone();
        let line = format!(
            "{{\"kind\": \"schedule\", \"source\": {}, \"config\": {}}}\n",
            serde_json::to_string(&source).expect("serialize source"),
            reversed_config
        );
        thread::spawn(move || {
            let mut stream = std::net::TcpStream::connect(&*addr).expect("connect");
            stream.write_all(line.as_bytes()).expect("send");
            let mut response = String::new();
            BufReader::new(&mut stream)
                .read_line(&mut response)
                .expect("read");
            let (_, result) = qss::remote::parse_response(&response).expect("parse");
            assert_eq!(
                result.expect_err("shares the leader's timeout").kind,
                qss::remote::ErrorKind::Timeout
            );
        })
    };

    // Let every follower reach the daemon, then demand service for a
    // *distinct* net while all ten are parked. With the old
    // thread-per-request waiting this would block for the leader's whole
    // budget; on the event loop the lone worker is free.
    thread::sleep(Duration::from_millis(400));
    let other = net_source(3);
    let local = Pipeline::from_source(&other)
        .expect("source parses")
        .link()
        .expect("source links")
        .analyze()
        .to_json();
    let mut client = Client::connect(&*addr).expect("connect");
    let summary = client.check(&other).expect("check while followers park");
    assert_eq!(summary.processes, 1);
    let report = client
        .analyze(&other)
        .expect("analyze while followers park");
    assert_eq!(report.artifact_json(), local);
    assert!(
        started.elapsed() < Duration::from_millis(1300),
        "the distinct net had to be served while the searches were still \
         parked, not after their budget ({:?} elapsed)",
        started.elapsed()
    );

    for follower in followers {
        follower.join().expect("follower thread");
    }
    raw_follower.join().expect("raw follower thread");

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.searches, 1,
        "ten duplicates must spawn exactly one search: {stats:?}"
    );
    assert!(
        stats.coalesced >= 9,
        "every follower must have joined the leader's flight: {stats:?}"
    );
    assert_eq!(
        stats.busy_rejections, 0,
        "parked followers must not consume queue or worker slots: {stats:?}"
    );
    client.shutdown().expect("shutdown");
    daemon.assert_clean_exit();
}

/// Open file descriptors of a process, by its `/proc` fd table.
fn fd_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("read the daemon's fd table")
        .count()
}

/// The scaled connection smoke test: one daemon holds 1024+ idle
/// connections on its poll set, still serves the very first one,
/// enforces `--max-connections` on the next, and — once the storm
/// disconnects — returns to its baseline fd count (no descriptor leaks).
/// A second short-lived daemon proves idle reaping still works.
#[test]
fn a_thousand_idle_connections_are_held_capped_and_reaped_without_fd_leaks() {
    use std::io::{BufRead, BufReader, Write};
    const CONNS: usize = 1024;

    let daemon = Daemon::spawn(&[
        "--workers",
        "1",
        "--max-connections",
        &CONNS.to_string(),
        "--idle-timeout",
        "30000",
    ]);
    let pid = daemon.child.id();
    let baseline = fd_count(pid);

    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let stream = std::net::TcpStream::connect(&*daemon.addr)
            .unwrap_or_else(|e| panic!("connection {i} refused: {e}"));
        conns.push(stream);
    }
    // Give the accept loop a moment to register the whole storm, then
    // the connection over the cap must be answered with a typed `busy`
    // line and closed.
    thread::sleep(Duration::from_millis(300));
    let mut over_cap = std::net::TcpStream::connect(&*daemon.addr).expect("connect over cap");
    over_cap
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(&mut over_cap)
        .read_line(&mut line)
        .expect("read the rejection line");
    let (_, result) = qss::remote::parse_response(&line).expect("rejection is a response");
    assert_eq!(
        result.expect_err("over-cap connection is rejected").kind,
        qss::remote::ErrorKind::Busy
    );
    drop(over_cap);

    // The very first connection of the storm still gets service.
    let first = &mut conns[0];
    first
        .write_all(b"{\"id\": 7, \"kind\": \"check\", \"source\": \"PROCESS p () { int x; }\"}\n")
        .expect("send on the oldest connection");
    let mut response = String::new();
    BufReader::new(&mut *first)
        .read_line(&mut response)
        .expect("read on the oldest connection");
    let (id, result) = qss::remote::parse_response(&response).expect("response");
    assert_eq!(id, Some(7));
    assert!(result.is_ok(), "oldest connection must still serve");

    // Disconnect the storm; the daemon must release every descriptor.
    drop(conns);
    let mut settled = baseline;
    for _ in 0..200 {
        settled = fd_count(pid);
        if settled <= baseline {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    assert!(
        settled <= baseline,
        "daemon leaks fds: {settled} open after the storm, {baseline} before"
    );
    let mut client = Client::connect(&*daemon.addr).expect("connect");
    client.shutdown().expect("shutdown");
    daemon.assert_clean_exit();

    // Idle reaping: a daemon with a 300 ms idle timeout severs a quiet
    // connection on its own.
    let daemon = Daemon::spawn(&["--workers", "1", "--idle-timeout", "300"]);
    let mut idle = std::net::TcpStream::connect(&*daemon.addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    let reaped = std::io::Read::read(&mut idle, &mut buf).expect("read EOF from the reaper");
    assert_eq!(
        reaped, 0,
        "the idle connection must be closed by the daemon"
    );
    let mut client = Client::connect(&*daemon.addr).expect("connect");
    client.shutdown().expect("shutdown");
    daemon.assert_clean_exit();
}

/// The observability acceptance test: under concurrent pipelined load,
/// the `metrics` snapshot must be internally consistent — per-kind
/// latency histogram counts sum to the `responses` counter, quantiles
/// are ordered within each histogram, and the unified registry carries
/// the same cache counters `stats` reports — and, after a graceful
/// drain, `--trace-out` must hold a valid Chrome trace whose spans cover
/// the queued → search → respond lifecycle with intact parent links.
#[test]
fn metrics_are_internally_consistent_and_the_trace_covers_the_lifecycle() {
    const CLIENTS: usize = 6;
    let trace_path = std::env::temp_dir().join(format!(
        "qssd_e2e_trace_{}_{:x}.json",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let daemon = Daemon::spawn(&[
        "--workers",
        "2",
        "--queue",
        "64",
        "--cache",
        "8",
        "--trace-out",
        trace_path.to_str().expect("utf-8 temp path"),
    ]);
    let addr = daemon.addr.clone();

    // Concurrent pipelined load: every client walks two nets through
    // schedule + link + analyze, so several request kinds populate the
    // latency histograms and the cache counters move.
    let sources: Vec<String> = (0..2u32).map(|i| net_source(2 + i)).collect();
    let mut workers = Vec::new();
    for _ in 0..CLIENTS {
        let addr = addr.clone();
        let sources = sources.clone();
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(&*addr).expect("connect");
            for source in &sources {
                loop {
                    match client.schedule(source, None) {
                        Ok(_) => break,
                        Err(qss::remote::ClientError::Server(e))
                            if e.kind == qss::remote::ErrorKind::Busy =>
                        {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(other) => panic!("schedule failed: {other}"),
                    }
                }
                client.link(source, None).expect("link");
                client.analyze(source).expect("analyze");
            }
        }));
    }
    for worker in workers {
        worker.join().expect("client thread");
    }

    let mut client = Client::connect(&*addr).expect("connect");
    let stats = client.stats().expect("stats");
    let metrics = client.metrics().expect("metrics");
    let counter = |name: &str| -> u64 {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("metrics counter `{name}` missing: {metrics:?}"))
    };

    // Histogram bookkeeping happens at the same choke point as the
    // responses counter, so across every request kind (including the
    // `_error` pseudo-kind) the counts must tie out exactly.
    let histograms = metrics
        .get("histograms")
        .and_then(|h| h.as_object())
        .expect("metrics carries a histograms object");
    let mut latency_total = 0u64;
    for (name, summary) in histograms {
        assert!(
            name.starts_with("latency_us."),
            "unexpected histogram `{name}`"
        );
        let field = |f: &str| {
            summary
                .get(f)
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("histogram `{name}` lacks `{f}`: {summary:?}"))
        };
        let (count, min, max) = (field("count"), field("min"), field("max"));
        let (p50, p95, p99) = (field("p50"), field("p95"), field("p99"));
        assert!(count > 0, "empty histogram `{name}` was registered");
        assert!(
            min <= p50 && p50 <= p95 && p95 <= p99,
            "quantiles of `{name}` are not monotone: {summary:?}"
        );
        assert!(max >= min, "bounds of `{name}` are inverted: {summary:?}");
        latency_total += count;
    }
    assert_eq!(
        latency_total,
        counter("responses"),
        "per-kind latency counts must sum to the responses counter: {metrics:?}"
    );
    for kind in ["schedule", "link", "analyze"] {
        let count = histograms
            .iter()
            .find(|(name, _)| name == &format!("latency_us.{kind}"))
            .and_then(|(_, s)| s.get("count"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        assert!(
            count >= (CLIENTS * sources.len()) as u64,
            "every `{kind}` request must land in its histogram: {metrics:?}"
        );
    }

    // "stats" and "metrics" are two views of one registry: the ad-hoc
    // counters and the cache counters must agree between them. The
    // `metrics` request itself is the one request admitted between the
    // two snapshots (same sequential connection), hence the +1.
    assert_eq!(counter("requests"), stats.requests + 1);
    assert_eq!(counter("searches"), stats.searches);
    assert_eq!(counter("coalesced"), stats.coalesced);
    assert_eq!(counter("busy_rejections"), stats.busy_rejections);
    assert_eq!(counter("context_cache.hits"), stats.cache.hits);
    assert_eq!(counter("context_cache.misses"), stats.cache.misses);
    assert!(
        counter("loop.wakeups") > 0,
        "completions must wake the loop"
    );

    client.shutdown().expect("shutdown");
    daemon.assert_clean_exit();

    // The drained daemon must have written a loadable Chrome trace:
    // one JSON object whose `traceEvents` hold matched b/e async pairs
    // for the whole request lifecycle, every parent link resolving to a
    // recorded span.
    let trace_text = std::fs::read_to_string(&trace_path).expect("read --trace-out file");
    let trace: serde_json::Value =
        serde_json::from_str(&trace_text).expect("--trace-out is valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("trace carries traceEvents");
    let phase_names = |phase: &str| -> Vec<&str> {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(phase))
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect()
    };
    let begins = phase_names("b");
    let ends = phase_names("e");
    for stage in ["queued", "search", "respond", "request kind=schedule"] {
        assert!(
            begins.contains(&stage) && ends.contains(&stage),
            "trace must hold a matched b/e pair for `{stage}`"
        );
    }
    let ids: std::collections::HashSet<u64> = events
        .iter()
        .filter_map(|e| e.get("id").and_then(|i| i.as_u64()))
        .collect();
    let mut parents_checked = 0usize;
    for event in events {
        if let Some(parent) = event.get("args").and_then(|a| a.get("parent")) {
            let parent = parent.as_u64().expect("parent ids are integers");
            // Parent 0 is the root (SpanId::NONE); anything else must be
            // a span recorded in this journal — nesting stays intact.
            if parent != 0 {
                assert!(
                    ids.contains(&parent),
                    "span parent {parent} is not recorded in the journal"
                );
                parents_checked += 1;
            }
        }
    }
    assert!(
        parents_checked > 0,
        "the trace must contain nested (parented) spans"
    );
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn qssd_rejects_bad_flags_with_usage_exit_code() {
    let output = Command::new(env!("CARGO_BIN_EXE_qssd"))
        .args(["--frobnicate"])
        .output()
        .expect("run qssd");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown option"), "stderr: {stderr}");
}
