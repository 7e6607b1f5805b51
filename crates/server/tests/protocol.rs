//! Protocol-layer robustness: malformed JSON lines, oversized requests,
//! unknown request kinds and plain hostile bytes must all produce typed
//! error responses while the connection — and the server — stay alive.
//! A mini-fuzz in the spirit of `tests/parser_fuzz.rs` closes the suite.

use qss::remote::{Client, ClientError, ErrorKind, Request, RequestKind};
use qss_bench::testgen::divider_chain_source as pathological_source;
use qss_server::{Server, ServerConfig};

const ECHO: &str = r#"
PROCESS echo (In DPORT a, Out DPORT b) {
    int x;
    while (1) { READ_DATA(a, x, 1); WRITE_DATA(b, x * 2, 1); }
}
"#;

fn small_server() -> qss_server::ServerHandle {
    Server::bind(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 4,
        max_line_bytes: 4096,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
    .spawn()
}

/// Sends a raw line, asserts the response is an error of `kind`, and
/// proves the same connection still serves a well-formed request.
fn expect_error_then_recover(client: &mut Client, line: &str, kind: ErrorKind) {
    let response = client.raw_line(line).expect("server must answer");
    let (_, result) = qss::remote::parse_response(&response).expect("response must be JSON");
    let error = result.expect_err("malformed input must fail");
    assert_eq!(error.kind, kind, "for line {line:?}");
    let summary = client.check(ECHO).expect("connection must stay usable");
    assert_eq!(summary.system, "echo_system");
    assert_eq!(summary.processes, 1);
}

#[test]
fn malformed_lines_return_typed_errors_and_keep_the_connection() {
    let server = small_server();
    let mut client = Client::connect(server.addr()).unwrap();
    expect_error_then_recover(&mut client, "not json at all", ErrorKind::Protocol);
    expect_error_then_recover(&mut client, "{\"kind\": \"check\"", ErrorKind::Protocol);
    expect_error_then_recover(&mut client, "[1, 2, 3]", ErrorKind::Protocol);
    expect_error_then_recover(&mut client, "{}", ErrorKind::Protocol);
    expect_error_then_recover(&mut client, "\"just a string\"", ErrorKind::Protocol);
    expect_error_then_recover(
        &mut client,
        "{\"kind\": \"schedule\"}", // missing source
        ErrorKind::Protocol,
    );
    expect_error_then_recover(
        &mut client,
        "{\"kind\": \"explode\", \"source\": \"x\"}",
        ErrorKind::UnknownKind,
    );
    expect_error_then_recover(
        &mut client,
        "{\"kind\": \"check\", \"source\": \"x\", \"surprise\": true}",
        ErrorKind::Protocol,
    );
    server.shutdown_and_join().unwrap();
}

#[test]
fn oversized_requests_are_rejected_without_dropping_the_connection() {
    let server = small_server();
    let mut client = Client::connect(server.addr()).unwrap();
    // Far beyond the 4096-byte line limit of `small_server`.
    let huge = format!(
        "{{\"kind\": \"check\", \"source\": \"{}\"}}",
        "x".repeat(64 * 1024)
    );
    expect_error_then_recover(&mut client, &huge, ErrorKind::TooLarge);
    // Twice in a row — the drain must resync on the line boundary.
    expect_error_then_recover(&mut client, &huge, ErrorKind::TooLarge);
    server.shutdown_and_join().unwrap();
}

#[test]
fn pipeline_failures_carry_their_stage_as_the_error_kind() {
    let server = small_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.check("PROCESS broken (In DPORT a { }").unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, ErrorKind::Parse);
            assert!(e.message.contains("parse stage"), "message: {}", e.message);
        }
        other => panic!("expected a server error, got {other}"),
    }
    // An invalid embedded config is a `config` error.
    let response = client
        .raw_line("{\"kind\": \"schedule\", \"source\": \"x\", \"config\": {\"profile\": 42}}")
        .unwrap();
    let (_, result) = qss::remote::parse_response(&response).unwrap();
    assert_eq!(result.unwrap_err().kind, ErrorKind::Config);
    // The server survives all of it.
    assert!(client.check(ECHO).is_ok());
    server.shutdown_and_join().unwrap();
}

#[test]
fn blank_lines_are_ignored_and_ids_are_echoed() {
    let server = small_server();
    let mut client = Client::connect(server.addr()).unwrap();
    // A blank line produces no response; the next real request answers
    // with its own id — if the server had answered the blank line, this
    // response's id would not match.
    let response = client
        .raw_line("\n{\"id\": 42, \"kind\": \"check\", \"source\": \"PROCESS p () { int x; }\"}")
        .unwrap();
    let (id, _) = qss::remote::parse_response(&response).unwrap();
    assert_eq!(id, Some(42));
    server.shutdown_and_join().unwrap();
}

#[test]
fn mini_fuzz_mutated_requests_never_kill_the_server() {
    let server = small_server();
    let valid = format!(
        "{{\"id\": 1, \"kind\": \"check\", \"source\": {}}}",
        serde_json::to_string(&ECHO.to_string()).unwrap()
    );
    // Deterministic mutation battery: truncations, byte substitutions,
    // insertions and duplications of a valid request line.
    // (Blank lines are skipped: by design they elicit no response, so a
    // lock-step send-then-read driver would wait forever on them.)
    let mut lines: Vec<String> = Vec::new();
    for i in (1..valid.len()).step_by(7) {
        lines.push(valid[..i].to_string());
    }
    let substitutes = ["\"", "{", "}", "\\", "\0", "9", ",", "ß"];
    for (n, i) in (0..valid.len()).step_by(5).enumerate() {
        let mut mutated = valid.clone();
        let replacement = substitutes[n % substitutes.len()];
        // Only splice on a char boundary; skip otherwise.
        if mutated.is_char_boundary(i) && mutated.is_char_boundary(i + 1) {
            mutated.replace_range(i..i + 1, replacement);
            lines.push(mutated);
        }
    }
    for i in (0..valid.len()).step_by(11) {
        let mut mutated = valid.clone();
        if mutated.is_char_boundary(i) {
            mutated.insert_str(i, "{\"junk\":");
            lines.push(mutated);
        }
    }
    lines.push(valid.repeat(2)); // two requests glued without newline
    lines.push("\u{7f}\u{1b}[2J".to_string()); // terminal junk

    let mut client = Client::connect(server.addr()).unwrap();
    for line in &lines {
        // Every mutated line must produce exactly one parseable response
        // (ok or a typed error) on a still-healthy connection.
        let response = client
            .raw_line(line)
            .unwrap_or_else(|e| panic!("no response for {line:?}: {e}"));
        let _ = qss::remote::parse_response(&response)
            .unwrap_or_else(|e| panic!("unparseable response for {line:?}: {e}"));
    }
    // And the server still does real work afterwards.
    let summary = client.check(ECHO).expect("server survived the fuzz");
    assert_eq!(summary.system, "echo_system");
    let stats = client.stats().unwrap();
    assert!(stats.requests as usize >= lines.len());
    server.shutdown_and_join().unwrap();
}

/// Two independent producer/consumer pairs: two uncontrollable inputs.
const TWO_PAIRS: &str = "SYSTEM two_pairs {
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
}";

#[test]
fn removed_config_keys_change_nothing_in_a_schedule_result() {
    let server = small_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let source = serde_json::to_string(TWO_PAIRS).unwrap();
    let mut schedule = |config: &str| {
        let line = format!(
            "{{\"id\": 1, \"kind\": \"schedule\", \"source\": {source}, \"config\": {config}}}"
        );
        let response = client.raw_line(&line).expect("server must answer");
        let (_, result) = qss::remote::parse_response(&response).expect("response must be JSON");
        serde_json::to_string(&result.expect("two pairs are schedulable")).unwrap()
    };
    // The first request builds the context; the next two both hit it.
    schedule("{}");
    let plain = schedule("{}");
    // The thread fan-out switch and the code-sharing flag once selected
    // behaviour; a config that still carries them is the default config.
    let with_removed_keys = schedule(
        "{\"parallel_schedule\": true, \
         \"task\": {\"share_code_segments\": false, \"inline_communication\": true}}",
    );
    assert_eq!(with_removed_keys, plain);
    assert!(plain.contains("\"cached\":true"), "result: {plain}");
    assert!(!plain.contains("parallel_schedule"));
    let result: serde_json::Value = serde_json::from_str(&plain).unwrap();
    let schedules = result
        .get("artifact")
        .and_then(|artifact| artifact.get("schedules"))
        .and_then(|schedules| schedules.get("schedules"))
        .and_then(serde_json::Value::as_array)
        .expect("a schedule artifact");
    assert_eq!(schedules.len(), 2, "one schedule per input");
    server.shutdown_and_join().unwrap();
}

/// A schedule request that holds its search slot for `deadline_ms`
/// before timing out — the "slow" half of every ordering test.
fn slow_schedule(deadline_ms: u64) -> Request {
    let mut config = qss::PipelineConfig::default();
    config.schedule.max_nodes = 500_000_000;
    config.budget.deadline_ms = Some(deadline_ms);
    Request {
        version: None,
        id: None,
        kind: RequestKind::Schedule,
        source: Some(pathological_source(8, 8)),
        config: Some(config),
        events: Vec::new(),
        include_task: false,
    }
}

fn check_request(source: &str) -> Request {
    Request {
        version: None,
        id: None,
        kind: RequestKind::Check,
        source: Some(source.to_string()),
        config: None,
        events: Vec::new(),
        include_task: false,
    }
}

#[test]
fn v2_pipelined_responses_arrive_out_of_order_matched_by_id() {
    let server = small_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // One connection, four requests on the wire at once: a schedule that
    // burns its whole 600 ms budget, then three instant checks. `send`
    // speaks version 2, so the checks must not queue behind the slow
    // search — head-of-line blocking was exactly the old bug.
    let slow_id = client.send(&slow_schedule(600)).expect("send schedule");
    let check_ids: Vec<u64> = (0..3)
        .map(|_| client.send(&check_request(ECHO)).expect("send check"))
        .collect();

    let mut arrival = Vec::new();
    for _ in 0..4 {
        let (id, result) = client.recv().expect("pipelined response");
        if id == slow_id {
            let error = result.expect_err("the saturating search must time out");
            assert_eq!(error.kind, ErrorKind::Timeout);
        } else {
            assert!(check_ids.contains(&id), "unexpected response id {id}");
            let summary = result.expect("check must succeed");
            assert_eq!(
                summary.get("system").and_then(serde_json::Value::as_str),
                Some("echo_system")
            );
        }
        arrival.push(id);
    }
    assert_eq!(
        arrival.last(),
        Some(&slow_id),
        "every fast check must overtake the slow schedule: {arrival:?}"
    );
    server.shutdown_and_join().unwrap();
}

#[test]
fn v1_connections_keep_strict_request_order_even_when_it_blocks() {
    use std::io::{BufRead, BufReader, Write};

    let server = small_server();
    // Raw v1 pipelining: no `version` field, so the server must hold the
    // fast checks' responses until the slow schedule ahead of them has
    // answered — order over latency is the v1 contract.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut batch = String::new();
    let mut slow = slow_schedule(400);
    slow.id = Some(100);
    batch.push_str(&serde_json::to_string(&slow.to_value()).unwrap());
    batch.push('\n');
    for id in 101..=103u64 {
        let mut check = check_request(ECHO);
        check.id = Some(id);
        batch.push_str(&serde_json::to_string(&check.to_value()).unwrap());
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut arrival = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let (id, _) = qss::remote::parse_response(&line).expect("v1 response");
        arrival.push(id.expect("ids are echoed"));
    }
    assert_eq!(
        arrival,
        vec![100, 101, 102, 103],
        "v1 must deliver responses in request order"
    );
    drop(reader);
    drop(stream);
    server.shutdown_and_join().unwrap();
}

#[test]
fn shutdown_rejects_new_work_while_draining() {
    let server = small_server();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    // On the still-open connection, new pipeline work is refused with a
    // typed shutting_down error (or the socket is already severed —
    // both are graceful).
    match client.check(ECHO) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKind::ShuttingDown),
        Err(ClientError::Io(_)) => {}
        Ok(_) => panic!("pipeline work accepted after shutdown"),
        Err(other) => panic!("unexpected error {other}"),
    }
    server.join().unwrap();
}

/// One v2 `schedule` and one v2 `generate` response line for
/// `samples/pipeline.flowc`, pinned byte for byte before workers began
/// writing the `result` text themselves. The second request reuses the
/// first one's context, so it answers `"cached": true`.
#[test]
fn v2_schedule_and_generate_response_lines_match_the_pinned_fixtures() {
    const PIPELINE: &str = include_str!("../../../samples/pipeline.flowc");
    let server = Server::bind(ServerConfig::default())
        .expect("bind ephemeral port")
        .spawn();
    let mut client = Client::connect(server.addr()).unwrap();
    let source = serde_json::to_string(PIPELINE).unwrap();
    let expected = [
        (
            "schedule",
            include_str!("../../../tests/fixtures/pipeline.v2_schedule.response.json"),
        ),
        (
            "generate",
            include_str!("../../../tests/fixtures/pipeline.v2_generate.response.json"),
        ),
    ];
    for (kind, fixture) in expected {
        let line =
            format!("{{\"version\": 2, \"id\": 7, \"kind\": \"{kind}\", \"source\": {source}}}");
        let response = client.raw_line(&line).expect("server must answer");
        assert_eq!(response, fixture, "`{kind}` response line");
    }
    server.shutdown_and_join().unwrap();
}
