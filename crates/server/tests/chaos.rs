//! Seeded fault-injection harness for `qssd`.
//!
//! Every scenario here throws one specific kind of abuse at a real
//! spawned daemon — half-written requests, dribbled bytes, half-closed
//! sockets, oversized floods, clients dying mid-response, binary
//! garbage, connection storms past the cap, idle peers, and schedule
//! searches with impossible deadlines — and then asserts the two
//! invariants that make the service robust:
//!
//! 1. the server still answers a clean `schedule` request correctly, and
//! 2. a `shutdown` request drains it to a clean exit-0.
//!
//! All randomness flows from one seeded splitmix64 stream
//! (`QSS_CHAOS_SEED` overrides the seed), so a CI failure replays
//! exactly with the seed it prints.

use qss::remote::{parse_response, with_retry, Client, ClientError, ErrorKind, RetryPolicy};
use qss::PipelineConfig;
use qss_bench::testgen::divider_chain_source as pathological_source;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

// ------------------------------------------------------------ seeded rng

const DEFAULT_SEED: u64 = 0xC0FF_EE00_D00D;

fn chaos_seed() -> u64 {
    std::env::var("QSS_CHAOS_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(DEFAULT_SEED)
}

/// splitmix64: the same deterministic stream the client backoff uses.
struct Rng(u64);

impl Rng {
    fn for_scenario(name: &str) -> Rng {
        // Mix the scenario name in so scenarios draw independent streams
        // from one seed; print the seed so failures replay.
        let mut state = chaos_seed();
        for b in name.bytes() {
            state = state.wrapping_mul(31).wrapping_add(u64::from(b));
        }
        eprintln!("chaos[{name}]: QSS_CHAOS_SEED={}", chaos_seed());
        Rng(state)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

// --------------------------------------------------------------- daemon

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

/// The clean-schedule invariant every scenario re-checks afterwards.
fn assert_clean_schedule(addr: &str) {
    let mut client = Client::connect(addr).expect("connect for the clean check");
    let reply = client
        .schedule(ECHO_SOURCE, None)
        .expect("clean schedule after the scenario");
    assert!(!reply.fingerprint.is_empty());
}

fn shutdown_cleanly(daemon: Daemon) {
    let mut client = Client::connect(&*daemon.addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown request");
    daemon.assert_clean_exit();
}

const ECHO_SOURCE: &str = "PROCESS echo (In DPORT a, Out DPORT b) {\n\
    \x20   int x;\n\
    \x20   while (1) { READ_DATA(a, x, 1); WRITE_DATA(b, x * 2, 1); }\n\
    }\n";

fn schedule_request_line(source: &str, config: Option<&PipelineConfig>) -> String {
    let request = qss::remote::Request {
        version: None,
        id: Some(1),
        kind: qss::remote::RequestKind::Schedule,
        source: Some(source.to_string()),
        config: config.cloned(),
        events: Vec::new(),
        include_task: false,
    };
    serde_json::to_string(&request.to_value()).expect("request serializes")
}

/// A config whose search budget trips long before the node cap does.
fn tight_budget_config(deadline_ms: u64) -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.schedule.max_nodes = 500_000_000;
    config.budget.deadline_ms = Some(deadline_ms);
    config
}

// ---------------------------------------------------------- chaos proxy

/// Client→server fault injection for one proxied connection.
enum Fault {
    /// Forward at most `chunk` bytes per `delay` tick.
    Dribble { chunk: usize, delay: Duration },
    /// Forward `bytes` bytes, then sever both directions.
    CutAfter { bytes: usize },
}

/// A one-connection TCP proxy: the server→client direction is pumped
/// verbatim, the client→server direction goes through the [`Fault`].
struct ChaosProxy {
    addr: String,
}

impl ChaosProxy {
    fn spawn(upstream: String, fault: Fault) -> ChaosProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr").to_string();
        thread::spawn(move || {
            let Ok((client, _)) = listener.accept() else {
                return;
            };
            let Ok(server) = TcpStream::connect(&upstream) else {
                return;
            };
            let (Ok(client_read), Ok(server_write)) = (client.try_clone(), server.try_clone())
            else {
                return;
            };
            // Server → client, verbatim.
            let back = thread::spawn(move || {
                let mut from = server;
                let mut to = client;
                let mut buf = [0u8; 4096];
                while let Ok(n) = from.read(&mut buf) {
                    if n == 0 || to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                    let _ = to.flush();
                }
                let _ = to.shutdown(Shutdown::Write);
            });
            // Client → server, through the fault.
            let mut from = client_read;
            let mut to = server_write;
            match fault {
                Fault::Dribble { chunk, delay } => {
                    let mut buf = vec![0u8; chunk.max(1)];
                    while let Ok(n) = from.read(&mut buf) {
                        if n == 0 || to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                        let _ = to.flush();
                        thread::sleep(delay);
                    }
                    let _ = to.shutdown(Shutdown::Write);
                }
                Fault::CutAfter { bytes } => {
                    let mut remaining = bytes;
                    let mut buf = [0u8; 256];
                    while remaining > 0 {
                        let want = remaining.min(buf.len());
                        match from.read(&mut buf[..want]) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                if to.write_all(&buf[..n]).is_err() {
                                    break;
                                }
                                let _ = to.flush();
                                remaining -= n;
                            }
                        }
                    }
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                }
            }
            let _ = back.join();
        });
        ChaosProxy { addr }
    }
}

// ------------------------------------------------------------- scenarios

/// Scenario 1: a client writes half a request line and vanishes.
#[test]
fn disconnect_mid_request_leaves_the_server_serving() {
    let daemon = Daemon::spawn(&[]);
    let mut rng = Rng::for_scenario("disconnect_mid_request");
    for _ in 0..4 {
        let line = schedule_request_line(ECHO_SOURCE, None);
        let cut = 1 + rng.below(line.len() as u64 - 1) as usize;
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream
            .write_all(&line.as_bytes()[..cut])
            .expect("write the partial request");
        drop(stream); // no newline ever arrives
    }
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}

/// Scenario 2: a request dribbles in a few bytes at a time, but faster
/// than the request timeout — it must still succeed.
#[test]
fn dribbled_request_within_the_deadline_succeeds() {
    let daemon = Daemon::spawn(&["--request-timeout", "5000"]);
    let proxy = ChaosProxy::spawn(
        daemon.addr.clone(),
        Fault::Dribble {
            chunk: 23,
            delay: Duration::from_millis(5),
        },
    );
    let mut client = Client::connect(&*proxy.addr).expect("connect through the proxy");
    let reply = client
        .schedule(ECHO_SOURCE, None)
        .expect("dribbled schedule");
    assert!(!reply.fingerprint.is_empty());
    drop(client);
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}

/// Scenario 3: a slowloris dribbles one byte per tick, slower than the
/// request timeout — the server must cut the line, not wait forever.
#[test]
fn slowloris_line_is_reaped_by_the_request_timeout() {
    let daemon = Daemon::spawn(&["--request-timeout", "250"]);
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    // A short read timeout keeps the probe between bytes from stalling
    // the dribble.
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let started = Instant::now();
    let mut cut_off = false;
    // One byte every 40 ms: a full request would take ~10 s against a
    // 250 ms line deadline.
    for b in schedule_request_line(ECHO_SOURCE, None).into_bytes() {
        if stream
            .write_all(&[b])
            .and_then(|()| stream.flush())
            .is_err()
        {
            cut_off = true;
            break;
        }
        thread::sleep(Duration::from_millis(40));
        if started.elapsed() > Duration::from_secs(5) {
            break;
        }
        // A closed peer often surfaces on read before write.
        let mut probe = [0u8; 1];
        match stream.read(&mut probe) {
            Ok(0) => {
                cut_off = true;
                break;
            }
            Ok(_) => panic!("server answered an unfinished request line"),
            Err(_) => {}
        }
    }
    assert!(
        cut_off,
        "the server let a slowloris line dribble past its deadline"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "reaping took {:?}",
        started.elapsed()
    );
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}

/// Scenario 4: the client half-closes its write side after one full
/// request — the response must still arrive on the intact read side.
#[test]
fn half_closed_socket_still_receives_its_response() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    let line = schedule_request_line(ECHO_SOURCE, None);
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("newline");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read the response");
    let (id, result) = parse_response(response.trim()).expect("parse the response");
    assert_eq!(id, Some(1));
    assert!(result.is_ok(), "half-closed request failed: {result:?}");
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}

/// Scenario 5: a flood of oversized lines gets typed `too_large` answers
/// and the connection stays usable.
#[test]
fn oversized_line_flood_is_answered_and_survived() {
    let daemon = Daemon::spawn(&["--max-line", "1024"]);
    let mut rng = Rng::for_scenario("oversized_flood");
    let mut client = Client::connect(&*daemon.addr).expect("connect");
    for _ in 0..8 {
        let len = 2048 + rng.below(4096) as usize;
        let flood: String = (0..len)
            .map(|_| char::from(b'a' + (rng.below(26) as u8)))
            .collect();
        let response = client.raw_line(&flood).expect("flood answered");
        let (_, result) = parse_response(&response).expect("typed response");
        assert_eq!(result.unwrap_err().kind, ErrorKind::TooLarge);
    }
    // The same connection still schedules.
    let reply = client
        .schedule(ECHO_SOURCE, None)
        .expect("post-flood schedule");
    assert!(!reply.fingerprint.is_empty());
    drop(client);
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}

/// Scenario 6: the client dies while its (large) response is in flight.
#[test]
fn client_killed_mid_response_does_not_wedge_the_server() {
    let daemon = Daemon::spawn(&[]);
    for _ in 0..3 {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        let line = schedule_request_line(&pathological_source(2, 2), None);
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
        // Read a token amount of the response, then vanish.
        let mut partial = [0u8; 16];
        let _ = stream.read(&mut partial);
        drop(stream);
    }
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}

/// Scenario 7: seeded binary garbage gets typed protocol errors, line
/// after line, without losing the connection.
#[test]
fn binary_garbage_gets_typed_errors_and_the_connection_survives() {
    let daemon = Daemon::spawn(&[]);
    let mut rng = Rng::for_scenario("binary_garbage");
    let mut client = Client::connect(&*daemon.addr).expect("connect");
    for _ in 0..12 {
        let len = 1 + rng.below(200) as usize;
        let mut garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // Keep it one non-empty line: no interior newlines, at least one
        // visible byte so the server does not skip it as blank.
        for b in &mut garbage {
            if *b == b'\n' || *b == b'\r' {
                *b = b'?';
            }
        }
        garbage[0] = b'!';
        let line = String::from_utf8_lossy(&garbage).into_owned();
        let response = client.raw_line(&line).expect("garbage answered");
        let (_, result) = parse_response(&response).expect("typed response");
        let kind = result.unwrap_err().kind;
        assert!(
            matches!(kind, ErrorKind::Protocol | ErrorKind::UnknownKind),
            "garbage answered with {kind:?}"
        );
    }
    let reply = client
        .schedule(ECHO_SOURCE, None)
        .expect("post-garbage schedule");
    assert!(!reply.fingerprint.is_empty());
    drop(client);
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}

/// Scenario 8: connections beyond `--max-connections` are rejected with
/// one typed `busy` line; the retry policy rides it out once capacity
/// frees up.
#[test]
fn connection_cap_rejects_typed_and_retry_recovers() {
    let daemon = Daemon::spawn(&["--max-connections", "2"]);
    let held_one = TcpStream::connect(&daemon.addr).expect("occupy slot 1");
    let held_two = TcpStream::connect(&daemon.addr).expect("occupy slot 2");
    // Give the server a beat to register both connections.
    thread::sleep(Duration::from_millis(100));

    let over_cap = TcpStream::connect(&daemon.addr).expect("tcp connect still accepts");
    let mut response = String::new();
    let mut reader = BufReader::new(over_cap);
    reader.read_line(&mut response).expect("rejection line");
    let (id, result) = parse_response(response.trim()).expect("typed rejection");
    assert_eq!(id, None);
    assert_eq!(result.unwrap_err().kind, ErrorKind::Busy);

    // Free a slot, then let the deterministic retry policy get through.
    drop(held_one);
    let policy = RetryPolicy {
        max_attempts: 20,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(200),
        seed: chaos_seed(),
        overall_deadline: Some(Duration::from_secs(20)),
    };
    // A reject-at-accept surfaces as a typed `busy` on the first read
    // (or, on an unlucky race, as EOF — a transport error); the policy
    // retries both.
    let reply = with_retry(&*daemon.addr, &policy, |client| {
        client.schedule(ECHO_SOURCE, None)
    })
    .expect("retry through the connection cap");
    assert!(!reply.fingerprint.is_empty());
    drop(held_two);
    // The cap releases as the held sockets reap; the clean check retries
    // the same way.
    let reply = with_retry(&*daemon.addr, &policy, |client| {
        client.schedule(ECHO_SOURCE, None)
    })
    .expect("clean schedule after the cap scenario");
    assert!(!reply.fingerprint.is_empty());
    shutdown_cleanly(daemon);
}

/// Scenario 9: connections that go quiet are reaped by the idle timeout.
#[test]
fn idle_connections_are_reaped() {
    let daemon = Daemon::spawn(&["--idle-timeout", "200"]);
    let mut client = Client::connect(&*daemon.addr).expect("connect");
    let reply = client
        .schedule(ECHO_SOURCE, None)
        .expect("schedule while fresh");
    assert!(!reply.fingerprint.is_empty());
    // Now go quiet and wait for the reaper: the next read sees EOF.
    let mut stream = TcpStream::connect(&daemon.addr).expect("idle connection");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let started = Instant::now();
    let mut probe = [0u8; 1];
    let reaped = matches!(stream.read(&mut probe), Ok(0) | Err(_));
    assert!(reaped, "idle connection was not reaped");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "idle reap took {elapsed:?}"
    );
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}

/// Scenario 10 — the tentpole acceptance scenario: a pathological net
/// with a 50 ms budget answers a typed `timeout` within budget + slack,
/// the worker slot frees, coalesced followers inherit the same typed
/// error, and the very next normal request is served correctly.
#[test]
fn tiny_budget_timeout_frees_the_worker_and_reaches_followers() {
    let daemon = Daemon::spawn(&["--workers", "2", "--queue", "32"]);
    let source = pathological_source(8, 8);
    let config = tight_budget_config(50);

    // Solo probe: typed timeout, within budget + 100 ms slack.
    let mut client = Client::connect(&*daemon.addr).expect("connect");
    let started = Instant::now();
    let error = client
        .schedule(&source, Some(&config))
        .expect_err("a 50 ms budget cannot schedule k^depth = 16.7M firings");
    let elapsed = started.elapsed();
    let ClientError::Server(wire) = error else {
        panic!("expected a typed server error, got {error}");
    };
    assert_eq!(wire.kind, ErrorKind::Timeout, "message: {}", wire.message);
    assert!(
        elapsed < Duration::from_millis(150),
        "timeout took {elapsed:?}, budget 50 ms + 100 ms slack"
    );

    // Concurrent duplicates: every one gets the same typed timeout, via
    // coalescing onto the leader or via its own (context-cached) search.
    const CLIENTS: usize = 5;
    let mut workers = Vec::new();
    for _ in 0..CLIENTS {
        let addr = daemon.addr.clone();
        let source = source.clone();
        let config = config.clone();
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(&*addr).expect("connect");
            client.schedule(&source, Some(&config))
        }));
    }
    for worker in workers {
        let result = worker.join().expect("client thread");
        let error = result.expect_err("every duplicate must time out");
        let ClientError::Server(wire) = error else {
            panic!("expected a typed server error, got {error}");
        };
        assert_eq!(wire.kind, ErrorKind::Timeout);
    }

    // The worker slots are free: a normal request is served immediately.
    let started = Instant::now();
    let reply = client.schedule(ECHO_SOURCE, None).expect("clean schedule");
    assert!(!reply.fingerprint.is_empty());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the timed-out searches did not free their workers"
    );

    let stats = client.stats().expect("stats");
    assert!(
        stats.timeouts >= (CLIENTS + 1) as u64,
        "every budget expiry must be counted: {stats:?}"
    );
    assert!(
        stats.cancelled >= 1,
        "at least one leading search was cancelled mid-flight: {stats:?}"
    );
    assert!(
        stats.cache.hits + stats.coalesced >= CLIENTS as u64 - 1,
        "duplicates must share the context or the in-flight search: {stats:?}"
    );
    shutdown_cleanly(daemon);
}

/// Scenario 12: a pipelined connection is cut while responses are still
/// parked inside the server — out-of-order (v2) rounds park a slow
/// schedule's completion behind already-delivered checks, in-order (v1)
/// rounds hold the checks' finished responses hostage behind the slow
/// schedule — and the seeded cut lands at a random point in between.
/// Either way the daemon must discard the orphaned responses and serve
/// the next client as if nothing happened.
#[test]
fn cut_connection_with_parked_responses_is_cleaned_up() {
    // Two workers: the slow flights coalesce onto at most one search
    // slot at a time, so the closing clean check always finds the other.
    let daemon = Daemon::spawn(&["--workers", "2", "--queue", "32"]);
    let mut rng = Rng::for_scenario("cut_with_parked_responses");
    let slow = pathological_source(8, 8);
    for round in 0..4 {
        let version = if round % 2 == 0 { 2 } else { 1 };
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(400)))
            .expect("read timeout");
        // One slow schedule whose budget outlives this whole round, then
        // a burst of instant checks behind it on the same connection.
        let request = qss::remote::Request {
            version: Some(version),
            id: Some(100),
            kind: qss::remote::RequestKind::Schedule,
            source: Some(slow.clone()),
            config: Some(tight_budget_config(1200)),
            events: Vec::new(),
            include_task: false,
        };
        let mut batch = serde_json::to_string(&request.to_value()).expect("serialize");
        batch.push('\n');
        let checks = 1 + rng.below(3);
        for id in 0..checks {
            let check = qss::remote::Request {
                version: None,
                id: Some(101 + id),
                kind: qss::remote::RequestKind::Check,
                source: Some(ECHO_SOURCE.to_string()),
                config: None,
                events: Vec::new(),
                include_task: false,
            };
            batch.push_str(&serde_json::to_string(&check.to_value()).expect("serialize"));
            batch.push('\n');
        }
        stream.write_all(batch.as_bytes()).expect("write the batch");
        // On v2 the checks answer immediately (drain a random number of
        // them); on v1 they are held behind the parked schedule, so every
        // read just runs out the clock. Then cut with everything still
        // in flight.
        let drain = rng.below(checks + 1);
        let mut reader = BufReader::new(&mut stream);
        for _ in 0..drain {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    let (id, result) = parse_response(line.trim()).expect("typed response");
                    if version == 2 {
                        assert!(
                            matches!(id, Some(i) if i >= 101),
                            "v2 checks must overtake the parked schedule, got {id:?}"
                        );
                        assert!(result.is_ok(), "check failed: {result:?}");
                    } else {
                        panic!("v1 must hold responses behind the schedule, got {id:?}");
                    }
                }
                // v1 rounds (or an unlucky v2 race) time out — fine.
                _ => break,
            }
        }
        thread::sleep(Duration::from_millis(rng.below(200)));
        drop(reader);
        drop(stream); // the parked schedule response now has no home
    }
    // The orphaned completions are discarded, not delivered, not leaked:
    // the daemon still schedules and drains cleanly.
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}

/// Scenario 11: a request dribbling through the proxy is cut mid-line —
/// the server sees a partial line plus EOF and moves on.
#[test]
fn proxied_cut_mid_request_is_survived() {
    let daemon = Daemon::spawn(&[]);
    let mut rng = Rng::for_scenario("proxied_cut");
    for _ in 0..3 {
        let line = schedule_request_line(ECHO_SOURCE, None);
        let cut = 8 + rng.below(line.len() as u64 / 2) as usize;
        let proxy = ChaosProxy::spawn(daemon.addr.clone(), Fault::CutAfter { bytes: cut });
        let mut stream = TcpStream::connect(&proxy.addr).expect("connect via proxy");
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
        // The proxy severs after `cut` bytes; our side just observes the
        // close (or nothing).
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        let mut sink = [0u8; 64];
        let _ = stream.read(&mut sink);
    }
    assert_clean_schedule(&daemon.addr);
    shutdown_cleanly(daemon);
}
