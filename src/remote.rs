//! The `qssd` wire protocol and its client.
//!
//! `qssd` (the long-running scheduling service in `crates/server`) speaks
//! a **newline-delimited JSON** protocol over TCP: every request is one
//! JSON object on one line, every response is one JSON object on one
//! line. By default (protocol version 1) responses are written in
//! request order per connection; a request carrying `"version": 2` opts
//! its connection into **out-of-order delivery**, where every response
//! is written the moment it completes and is correlated by the echoed
//! `id` ([`Client::send_many`] drives this pipelined mode). The full
//! format, with one worked example per request kind, is documented in
//! `PROTOCOL.md` at the repository root.
//!
//! This module owns everything both endpoints share — the parsed
//! [`Request`], the typed [`WireError`]/[`ErrorKind`], the bounded line
//! reader, the response encoding — plus the [`Client`]. It lives in the
//! `qss` facade (rather than the server crate) so the `qssc` CLI can
//! drive a warm server without depending on `qss_server`, which itself
//! depends on this crate; `qss_server` re-exports [`Client`] as
//! `qss_server::Client`.
//!
//! ```no_run
//! use qss::remote::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7700")?;
//! let reply = client.generate("PROCESS copy (In DPORT a, Out DPORT b) { \
//!     int x; while (1) { READ_DATA(a, x, 1); WRITE_DATA(b, x, 1); } }", None)?;
//! println!("net {} cached={}", reply.fingerprint, reply.cached);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::{EnvEvent, PipelineConfig, QssError, Stage};
use serde::{Deserialize, Serialize};
use serde_json::{JsonWriter, Value};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default cap on one *request* line, enforced by the server. Oversized
/// lines are drained and answered with an [`ErrorKind::TooLarge`] error
/// without dropping the connection.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Cap on one *response* line, enforced by the client. Responses embed
/// whole artifacts (serialized nets, schedules, generated C), so the
/// bound is far above the request cap.
pub const CLIENT_MAX_LINE_BYTES: usize = 256 << 20;

// ---------------------------------------------------------------- errors

/// The typed error classes of the wire protocol.
///
/// The first group is produced by the protocol layer itself; the second
/// mirrors [`Stage`], so a pipeline failure on the server reports the
/// same stage it would report locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The request line was not a JSON object of the documented shape.
    Protocol,
    /// The request line exceeded the server's line limit.
    TooLarge,
    /// The `kind` field named no known request kind.
    UnknownKind,
    /// The worker queue was full — back off and retry.
    Busy,
    /// A deadline ran out: the request's schedule-search budget expired,
    /// the request waited in the queue past its deadline, or a coalesced
    /// follower's wait timed out.
    Timeout,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// An unexpected server-side failure (a bug, not a bad request).
    Internal,
    /// FlowC lexing/parsing failed.
    Parse,
    /// Building or linking the system Petri net failed.
    Link,
    /// The quasi-static schedule search failed.
    Schedule,
    /// Sequential-task code generation failed.
    Generate,
    /// Executing the workload failed.
    Simulate,
    /// The embedded `config` object was invalid.
    Config,
    /// A file-system error (server-side I/O).
    Io,
}

impl ErrorKind {
    /// The wire name of the kind (`"busy"`, `"too_large"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::UnknownKind => "unknown_kind",
            ErrorKind::Busy => "busy",
            ErrorKind::Timeout => "timeout",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
            ErrorKind::Parse => "parse",
            ErrorKind::Link => "link",
            ErrorKind::Schedule => "schedule",
            ErrorKind::Generate => "generate",
            ErrorKind::Simulate => "simulate",
            ErrorKind::Config => "config",
            ErrorKind::Io => "io",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "protocol" => ErrorKind::Protocol,
            "too_large" => ErrorKind::TooLarge,
            "unknown_kind" => ErrorKind::UnknownKind,
            "busy" => ErrorKind::Busy,
            "timeout" => ErrorKind::Timeout,
            "shutting_down" => ErrorKind::ShuttingDown,
            "internal" => ErrorKind::Internal,
            "parse" => ErrorKind::Parse,
            "link" => ErrorKind::Link,
            "schedule" => ErrorKind::Schedule,
            "generate" => ErrorKind::Generate,
            "simulate" => ErrorKind::Simulate,
            "config" => ErrorKind::Config,
            "io" => ErrorKind::Io,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed protocol-level error: what the `error` object of a failed
/// response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The error class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
        }
    }

    /// A malformed-request error.
    pub fn protocol(message: impl Into<String>) -> Self {
        WireError::new(ErrorKind::Protocol, message)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for WireError {}

impl From<QssError> for WireError {
    fn from(e: QssError) -> Self {
        // A blown search budget is a deadline condition, not a property
        // of the net — it maps to `timeout`, never `schedule`.
        if matches!(e, QssError::BudgetExhausted(_)) {
            return WireError::new(ErrorKind::Timeout, e.to_string());
        }
        let kind = match e.stage() {
            Stage::Parse => ErrorKind::Parse,
            Stage::Link => ErrorKind::Link,
            Stage::Schedule => ErrorKind::Schedule,
            Stage::Generate => ErrorKind::Generate,
            Stage::Simulate => ErrorKind::Simulate,
            Stage::Config => ErrorKind::Config,
            Stage::Io => ErrorKind::Io,
        };
        WireError::new(kind, e.to_string())
    }
}

// -------------------------------------------------------------- requests

/// The request kinds of the protocol, mirroring the pipeline stages plus
/// the two control requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Parse and link only; returns the summary `qssc check` prints.
    Check,
    /// Parse, link and run the structural static analyzer; returns the
    /// `AnalysisReport` (cached server-side by net fingerprint).
    Analyze,
    /// Run stage 1 and return the `LinkedArtifact` with its fingerprint.
    Link,
    /// Run through stage 2 and return the `ScheduleArtifact`.
    Schedule,
    /// Run through stage 3 and return the `TaskArtifact`.
    Generate,
    /// Run through stage 4 on the supplied events; returns the
    /// `SimArtifact`.
    Simulate,
    /// Report server/cache/coalescing counters (handled out-of-queue).
    Stats,
    /// Report the full metrics registry — every counter plus per-kind
    /// latency histogram quantiles (handled out-of-queue).
    Metrics,
    /// Graceful shutdown: drain in-flight work, then exit
    /// (handled out-of-queue).
    Shutdown,
}

impl RequestKind {
    /// The wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Check => "check",
            RequestKind::Analyze => "analyze",
            RequestKind::Link => "link",
            RequestKind::Schedule => "schedule",
            RequestKind::Generate => "generate",
            RequestKind::Simulate => "simulate",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::Shutdown => "shutdown",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "check" => RequestKind::Check,
            "analyze" => RequestKind::Analyze,
            "link" => RequestKind::Link,
            "schedule" => RequestKind::Schedule,
            "generate" => RequestKind::Generate,
            "simulate" => RequestKind::Simulate,
            "stats" => RequestKind::Stats,
            "metrics" => RequestKind::Metrics,
            "shutdown" => RequestKind::Shutdown,
            _ => return None,
        })
    }

    /// Whether requests of this kind must carry FlowC `source` text.
    pub fn needs_source(self) -> bool {
        !matches!(
            self,
            RequestKind::Stats | RequestKind::Metrics | RequestKind::Shutdown
        )
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Newest protocol version a `qssd` understands. Version 1 (the
/// default) delivers responses in request order per connection; version
/// 2 delivers each response as soon as it completes, correlated by `id`.
pub const PROTOCOL_VERSION_MAX: u32 = 2;

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Protocol version this request speaks: `None` or `Some(1)` keeps
    /// the connection on in-order delivery, `Some(2)` switches it to
    /// out-of-order delivery (sticky for the rest of the connection).
    pub version: Option<u32>,
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<u64>,
    /// What to do.
    pub kind: RequestKind,
    /// Whole-system FlowC source text (required unless
    /// [`RequestKind::needs_source`] is false). `qssc remote` forwards
    /// file or stdin content here unchanged.
    pub source: Option<String>,
    /// Pipeline configuration; the server uses
    /// [`PipelineConfig::default`] when absent.
    pub config: Option<PipelineConfig>,
    /// Environment events for `simulate`.
    pub events: Vec<EnvEvent>,
    /// `simulate` only: also embed the stage-3 `TaskArtifact` in the
    /// result (as a sibling `task` field), so a caller that wants both
    /// the generated tasks and the execution comparison — `qssc remote
    /// build --events` — needs one request instead of running the whole
    /// pipeline twice on the server.
    pub include_task: bool,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    /// [`ErrorKind::Protocol`] for non-JSON input or a malformed shape,
    /// [`ErrorKind::UnknownKind`] for an unrecognized `kind`, and
    /// [`ErrorKind::Config`] for an invalid embedded `config`.
    pub fn parse_line(line: &str) -> Result<Request, WireError> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| WireError::protocol(format!("invalid JSON: {e}")))?;
        Request::from_value(&value)
    }

    /// Parses a request from an already-decoded JSON value.
    ///
    /// # Errors
    /// Same contract as [`Request::parse_line`].
    pub fn from_value(value: &Value) -> Result<Request, WireError> {
        let object = value
            .as_object()
            .ok_or_else(|| WireError::protocol("request must be a JSON object"))?;
        for (key, _) in object {
            if !matches!(
                key.as_str(),
                "version" | "id" | "kind" | "source" | "config" | "events" | "include_task"
            ) {
                return Err(WireError::protocol(format!("unknown field `{key}`")));
            }
        }
        let version = match value.get("version") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let version = v
                    .as_u64()
                    .ok_or_else(|| WireError::protocol("`version` must be an unsigned integer"))?;
                if !(1..=u64::from(PROTOCOL_VERSION_MAX)).contains(&version) {
                    return Err(WireError::protocol(format!(
                        "unsupported protocol `version` {version} (this server speaks 1..={PROTOCOL_VERSION_MAX})"
                    )));
                }
                Some(version as u32)
            }
        };
        let id = match value.get("id") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| WireError::protocol("`id` must be an unsigned integer"))?,
            ),
        };
        let kind_name = value
            .get("kind")
            .ok_or_else(|| WireError::protocol("missing `kind`"))?
            .as_str()
            .ok_or_else(|| WireError::protocol("`kind` must be a string"))?;
        let kind = RequestKind::from_name(kind_name).ok_or_else(|| {
            WireError::new(
                ErrorKind::UnknownKind,
                format!("unknown request kind `{kind_name}`"),
            )
        })?;
        let source = match value.get("source") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| WireError::protocol("`source` must be a string"))?
                    .to_string(),
            ),
        };
        if kind.needs_source() && source.is_none() {
            return Err(WireError::protocol(format!(
                "request kind `{kind}` needs a `source` field"
            )));
        }
        let config =
            match value.get("config") {
                None | Some(Value::Null) => None,
                Some(v) => Some(serde_json::from_value::<PipelineConfig>(v.clone()).map_err(
                    |e| WireError::new(ErrorKind::Config, format!("invalid `config`: {e}")),
                )?),
            };
        let events = match value.get("events") {
            None | Some(Value::Null) => Vec::new(),
            Some(v) => serde_json::from_value::<Vec<EnvEvent>>(v.clone()).map_err(|e| {
                WireError::protocol(format!(
                    "`events` must be an array of {{process, port, values}} objects: {e}"
                ))
            })?,
        };
        let include_task = match value.get("include_task") {
            None | Some(Value::Null) => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| WireError::protocol("`include_task` must be a boolean"))?,
        };
        Ok(Request {
            version,
            id,
            kind,
            source,
            config,
            events,
            include_task,
        })
    }

    /// Encodes the request as a JSON value (the client side of
    /// [`Request::from_value`]).
    pub fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = Vec::new();
        if let Some(version) = self.version {
            pairs.push(("version".into(), Value::Number(u64::from(version).into())));
        }
        if let Some(id) = self.id {
            pairs.push(("id".into(), Value::Number(id.into())));
        }
        pairs.push(("kind".into(), Value::String(self.kind.name().into())));
        if let Some(source) = &self.source {
            pairs.push(("source".into(), Value::String(source.clone())));
        }
        if let Some(config) = &self.config {
            pairs.push(("config".into(), config.to_value()));
        }
        if !self.events.is_empty() {
            pairs.push(("events".into(), self.events.to_value()));
        }
        if self.include_task {
            pairs.push(("include_task".into(), Value::Bool(true)));
        }
        Value::Object(pairs)
    }
}

// ------------------------------------------------------------- responses

/// Encodes a success response (without the trailing newline).
pub fn response_ok(id: Option<u64>, result: Value) -> String {
    response_line(id, true, |w| w.field("result", &result))
}

/// Encodes a success response around `result`, the compact JSON text of
/// the result that a writer already produced (a server worker, say).
/// The text is spliced in as is, so the line is byte-identical to
/// [`response_ok`] of the parsed result. The line has room for a
/// trailing newline.
pub fn response_ok_json(id: Option<u64>, result: &str) -> String {
    response_line(id, true, |w| {
        w.reserve(result.len() + "}\n".len());
        w.key("result");
        w.raw(result);
    })
}

/// Encodes an error response (without the trailing newline).
pub fn response_error(id: Option<u64>, error: &WireError) -> String {
    response_line(id, false, |w| {
        w.key("error");
        w.begin_object();
        w.field("kind", error.kind.name());
        w.field("message", &error.message);
        w.end_object();
    })
}

/// `{"id": ..., "ok": ..., <payload>}` as compact JSON text.
fn response_line(id: Option<u64>, ok: bool, payload: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field("id", &id);
    w.field("ok", &ok);
    payload(&mut w);
    w.end_object();
    w.into_string()
}

/// Decodes one response line into `(echoed id, result-or-error)`.
///
/// # Errors
/// Returns a message when the line is not a response-shaped JSON object
/// (the *transport* failed, as opposed to the request having failed).
#[allow(clippy::type_complexity)]
pub fn parse_response(line: &str) -> Result<(Option<u64>, Result<Value, WireError>), String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("response is not valid JSON: {e}"))?;
    let id = value.get("id").and_then(Value::as_u64);
    let ok = value
        .get("ok")
        .and_then(Value::as_bool)
        .ok_or("response has no boolean `ok` field")?;
    if ok {
        // Move the payload out instead of cloning it: responses embed
        // whole artifacts, and this sits on every request's return path.
        let result = take_field(value, "result").ok_or("ok response has no `result`")?;
        Ok((id, Ok(result)))
    } else {
        let error = value.get("error").ok_or("error response has no `error`")?;
        let kind = error
            .get("kind")
            .and_then(Value::as_str)
            .and_then(ErrorKind::from_name)
            .unwrap_or(ErrorKind::Internal);
        let message = error
            .get("message")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        Ok((id, Err(WireError::new(kind, message))))
    }
}

/// Moves field `key` out of an object value (no tree clone).
fn take_field(value: Value, key: &str) -> Option<Value> {
    match value {
        Value::Object(pairs) => pairs.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

// --------------------------------------------------------------- line IO

/// Outcome of one bounded line read.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (without the terminating `\n`).
    Line(String),
    /// The line exceeded the byte limit; the rest of it was drained so
    /// the stream is positioned at the next line.
    TooLarge,
    /// End of stream before any byte of a new line.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max` bytes.
///
/// Oversized lines are consumed to their end and reported as
/// [`LineRead::TooLarge`], keeping the stream usable for the next
/// request — the protocol's way of surviving a hostile or buggy client
/// without dropping the connection.
///
/// # Errors
/// Propagates transport errors from the underlying reader, read timeouts
/// included.
pub fn read_line_bounded(reader: &mut impl BufRead, max: usize) -> io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let (consumed, terminated, at_eof) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                (0, false, true)
            } else {
                match available.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        if !oversized {
                            line.extend_from_slice(&available[..i]);
                        }
                        (i + 1, true, false)
                    }
                    None => {
                        if !oversized {
                            line.extend_from_slice(available);
                        }
                        (available.len(), false, false)
                    }
                }
            }
        };
        reader.consume(consumed);
        // The limit counts content bytes only (the `\n` is excluded).
        if line.len() > max {
            oversized = true;
            line.clear();
        }
        if terminated || at_eof {
            if oversized {
                // At EOF the oversized tail was fully drained too.
                return Ok(LineRead::TooLarge);
            }
            if at_eof && line.is_empty() {
                return Ok(LineRead::Eof);
            }
            // EOF with a partial unterminated line surfaces it as a line,
            // so `printf '...' | nc`-style clients without trailing
            // newlines still work.
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(LineRead::Line(String::from_utf8_lossy(&line).into_owned()));
        }
    }
}

// ------------------------------------------------------------ statistics

/// Counters of the server's `ContextCache`, inside [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests served with a cached `SearchContext`.
    pub hits: u64,
    /// Requests that had to build their `SearchContext`.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Fingerprint matches rejected by the ordered-digest guard (counted
    /// as misses too).
    pub collisions: u64,
    /// Live entries.
    pub entries: u64,
    /// Configured capacity.
    pub capacity: u64,
}

/// The result payload of a `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests parsed (including ones answered with an error).
    pub requests: u64,
    /// Error responses written.
    pub errors: u64,
    /// Requests rejected with `busy` because the queue was full.
    pub busy_rejections: u64,
    /// Schedule searches that attached to another request's in-flight
    /// search instead of running their own.
    pub coalesced: u64,
    /// `timeout` responses written (expired deadlines, blown search
    /// budgets, coalesced waits that timed out).
    pub timeouts: u64,
    /// Schedule searches a leader gave up on because a deadline or
    /// budget cancelled them mid-search.
    pub cancelled: u64,
    /// Schedule searches actually spawned (coalesced followers share
    /// their leader's search, so under duplicate-heavy load this stays
    /// far below the schedule-bearing request count).
    pub searches: u64,
    /// Worker threads (also the bound on concurrently running schedule
    /// searches).
    pub workers: u64,
    /// Bound of the job queue.
    pub queue_capacity: u64,
    /// Context-cache counters.
    pub cache: CacheStats,
}

/// The result payload of a `check` request (the remote counterpart of
/// `qssc check`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckSummary {
    /// Net fingerprint, as 16 lowercase hex digits.
    pub fingerprint: String,
    /// System name.
    pub system: String,
    /// Number of processes.
    pub processes: u64,
    /// Number of channels.
    pub channels: u64,
    /// Places of the linked net.
    pub places: u64,
    /// Transitions of the linked net.
    pub transitions: u64,
    /// Uncontrollable environment inputs.
    pub uncontrollable_inputs: u64,
    /// Choice places.
    pub choice_places: u64,
}

/// Formats a fingerprint the way the wire protocol carries it.
pub fn fingerprint_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

// ---------------------------------------------------------------- client

/// A client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The TCP transport failed (connect, write, read, EOF mid-response).
    Io(String),
    /// The server's bytes did not decode as a protocol response.
    Protocol(String),
    /// The server answered with a typed error.
    Server(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "transport: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// An artifact-bearing reply (`link`, `schedule`, `generate`,
/// `simulate`).
#[derive(Debug, Clone)]
pub struct RemoteArtifact {
    /// The linked net's fingerprint, as 16 hex digits.
    pub fingerprint: String,
    /// Whether the server reused a cached `SearchContext` for this net
    /// (always `false` for `link`, which needs no context).
    pub cached: bool,
    /// The artifact itself, byte-for-byte the JSON the corresponding
    /// local pipeline stage would serialize (re-encode with
    /// [`RemoteArtifact::artifact_json`] to compare or archive it, or
    /// decode it with the artifact type's `from_json`/`Deserialize`).
    pub artifact: Value,
    /// The sibling `TaskArtifact` of a `simulate` reply, present only
    /// when the request set `include_task`
    /// ([`Client::simulate_with_task`]).
    pub task: Option<Value>,
}

impl RemoteArtifact {
    /// The artifact as compact JSON — identical bytes to the local
    /// stage's `to_json()`.
    pub fn artifact_json(&self) -> String {
        serde_json::to_string(&self.artifact).expect("value serialization is infallible")
    }

    fn from_result(result: Value) -> Result<Self, ClientError> {
        let Value::Object(pairs) = result else {
            return Err(ClientError::Protocol("result is not an object".into()));
        };
        let mut fingerprint = None;
        let mut cached = false;
        let mut artifact = None;
        let mut task = None;
        for (key, value) in pairs {
            match key.as_str() {
                "fingerprint" => fingerprint = value.as_str().map(str::to_string),
                "cached" => cached = value.as_bool().unwrap_or(false),
                "artifact" => artifact = Some(value),
                "task" => task = Some(value),
                _ => {}
            }
        }
        Ok(RemoteArtifact {
            fingerprint: fingerprint
                .ok_or_else(|| ClientError::Protocol("result has no `fingerprint`".into()))?,
            cached,
            artifact: artifact
                .ok_or_else(|| ClientError::Protocol("result has no `artifact`".into()))?,
            task,
        })
    }
}

/// A connection to a running `qssd`, issuing one request at a time.
///
/// Connections are cheap and long-lived; the server keeps them open
/// across any number of requests, including failed ones.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// Default bound on how long [`Client::connect`] waits for one address —
/// long enough for any healthy network, short enough that a blackholed
/// server fails the caller fast instead of pinning it for minutes.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

impl Client {
    /// Connects to a `qssd` at `addr`, bounded by
    /// [`DEFAULT_CONNECT_TIMEOUT`].
    ///
    /// # Errors
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with_timeout(addr, DEFAULT_CONNECT_TIMEOUT)
    }

    /// Connects to a `qssd` at `addr`, waiting at most `timeout` per
    /// resolved address.
    ///
    /// # Errors
    /// Propagates connection errors; if `addr` resolves to several
    /// addresses the error of the last attempt is reported.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let mut last_error = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Client {
                        reader,
                        writer: stream,
                        next_id: 1,
                    });
                }
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Sends one raw line (newline appended if missing) and returns the
    /// raw response line. The escape hatch for tests and protocol fuzzing
    /// — normal callers use the typed methods.
    ///
    /// # Errors
    /// Fails on transport errors or if the server closes the connection.
    pub fn raw_line(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        match read_line_bounded(&mut self.reader, CLIENT_MAX_LINE_BYTES)? {
            LineRead::Line(line) => Ok(line),
            LineRead::TooLarge => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response exceeded the client line limit",
            )),
            LineRead::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    fn call(&mut self, request: Request) -> Result<Value, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            id: Some(id),
            ..request
        };
        let line = serde_json::to_string(&request.to_value())
            .expect("request serialization is infallible");
        let response = self.raw_line(&line)?;
        let (echoed, result) = parse_response(&response).map_err(ClientError::Protocol)?;
        // An error with no echoed id is still *our* error: the server
        // answers `id: null` when it could not parse the request far
        // enough to know the id (e.g. `too_large`), and requests are
        // strictly request/response-paired per connection. Surfacing the
        // typed error beats a confusing id-mismatch report.
        if let (Err(error), None) = (&result, echoed) {
            return Err(ClientError::Server(error.clone()));
        }
        if echoed != Some(id) {
            return Err(ClientError::Protocol(format!(
                "response id {echoed:?} does not match request id {id}"
            )));
        }
        result.map_err(ClientError::Server)
    }

    fn pipeline_request(
        &mut self,
        kind: RequestKind,
        source: &str,
        config: Option<&PipelineConfig>,
        events: &[EnvEvent],
        include_task: bool,
    ) -> Result<Value, ClientError> {
        self.call(Request {
            version: None,
            id: None,
            kind,
            source: Some(source.to_string()),
            config: config.cloned(),
            events: events.to_vec(),
            include_task,
        })
    }

    /// Writes one request without waiting for its response, switching
    /// the connection to protocol version 2 (out-of-order delivery). The
    /// request's `id` is overwritten with a fresh connection-unique one
    /// and returned — match it against [`Client::recv`].
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            version: Some(2),
            id: Some(id),
            ..request.clone()
        };
        let line = serde_json::to_string(&request.to_value())
            .expect("request serialization is infallible");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Reads the next response in *arrival* order — on a version-2
    /// connection that is completion order, not request order. Returns
    /// the echoed id and the typed result.
    ///
    /// # Errors
    /// [`ClientError::Io`] on transport failure, [`ClientError::Protocol`]
    /// when the line does not decode as a response or carries no id (a
    /// pipelined connection cannot correlate an id-less response).
    pub fn recv(&mut self) -> Result<(u64, Result<Value, WireError>), ClientError> {
        let line = match read_line_bounded(&mut self.reader, CLIENT_MAX_LINE_BYTES)
            .map_err(ClientError::from)?
        {
            LineRead::Line(line) => line,
            LineRead::TooLarge => {
                return Err(ClientError::Protocol(
                    "response exceeded the client line limit".into(),
                ))
            }
            LineRead::Eof => {
                return Err(ClientError::Io("server closed the connection".into()));
            }
        };
        let (id, result) = parse_response(&line).map_err(ClientError::Protocol)?;
        match id {
            Some(id) => Ok((id, result)),
            // An id-less response can still be a typed error for a
            // request the server could not attribute; surface it.
            None => match result {
                Err(error) => Err(ClientError::Server(error)),
                Ok(_) => Err(ClientError::Protocol(
                    "pipelined response carries no id".into(),
                )),
            },
        }
    }

    /// Pipelines `requests` on this connection (protocol version 2):
    /// writes every line up front, then reads until each request has its
    /// response, demultiplexing by echoed id. The results come back in
    /// *request* order regardless of the order the server completed them
    /// in — out-of-order completion is the entire point: a slow
    /// `schedule` no longer blocks the `check`s queued behind it.
    ///
    /// # Errors
    /// Fails on transport errors, on a response whose id matches no
    /// outstanding request, and on duplicated response ids. Per-request
    /// failures are returned in-band as `Err(WireError)` entries.
    #[allow(clippy::type_complexity)]
    pub fn send_many(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<Result<Value, WireError>>, ClientError> {
        let mut ids = Vec::with_capacity(requests.len());
        for request in requests {
            ids.push(self.send(request)?);
        }
        let mut results: Vec<Option<Result<Value, WireError>>> = vec![None; requests.len()];
        for _ in 0..requests.len() {
            let (id, result) = self.recv()?;
            let slot = ids.iter().position(|&sent| sent == id).ok_or_else(|| {
                ClientError::Protocol(format!("response id {id} matches no pipelined request"))
            })?;
            if results[slot].is_some() {
                return Err(ClientError::Protocol(format!(
                    "server answered request id {id} twice"
                )));
            }
            results[slot] = Some(result);
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every slot was filled by the read loop"))
            .collect())
    }

    /// Parses and links `source` remotely; returns the summary.
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn check(&mut self, source: &str) -> Result<CheckSummary, ClientError> {
        let result = self.pipeline_request(RequestKind::Check, source, None, &[], false)?;
        serde_json::from_value(result)
            .map_err(|e| ClientError::Protocol(format!("malformed check summary: {e}")))
    }

    /// Runs the structural static analyzer remotely; the artifact is an
    /// `AnalysisReport`, byte-identical to the one `qssc analyze`
    /// computes locally (the server caches it by net fingerprint —
    /// [`RemoteArtifact::cached`] reports a hit).
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn analyze(&mut self, source: &str) -> Result<RemoteArtifact, ClientError> {
        let result = self.pipeline_request(RequestKind::Analyze, source, None, &[], false)?;
        RemoteArtifact::from_result(result)
    }

    /// Runs stage 1 remotely; the artifact is a `LinkedArtifact`.
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn link(
        &mut self,
        source: &str,
        config: Option<&PipelineConfig>,
    ) -> Result<RemoteArtifact, ClientError> {
        let result = self.pipeline_request(RequestKind::Link, source, config, &[], false)?;
        RemoteArtifact::from_result(result)
    }

    /// Runs through stage 2 remotely; the artifact is a
    /// `ScheduleArtifact`.
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn schedule(
        &mut self,
        source: &str,
        config: Option<&PipelineConfig>,
    ) -> Result<RemoteArtifact, ClientError> {
        let result = self.pipeline_request(RequestKind::Schedule, source, config, &[], false)?;
        RemoteArtifact::from_result(result)
    }

    /// Runs through stage 3 remotely; the artifact is a `TaskArtifact`.
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn generate(
        &mut self,
        source: &str,
        config: Option<&PipelineConfig>,
    ) -> Result<RemoteArtifact, ClientError> {
        let result = self.pipeline_request(RequestKind::Generate, source, config, &[], false)?;
        RemoteArtifact::from_result(result)
    }

    /// Runs through stage 4 remotely on `events`; the artifact is a
    /// `SimArtifact`.
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn simulate(
        &mut self,
        source: &str,
        config: Option<&PipelineConfig>,
        events: &[EnvEvent],
    ) -> Result<RemoteArtifact, ClientError> {
        let result = self.pipeline_request(RequestKind::Simulate, source, config, events, false)?;
        RemoteArtifact::from_result(result)
    }

    /// Like [`Client::simulate`], but also asks the server to embed the
    /// stage-3 `TaskArtifact` in the reply
    /// ([`RemoteArtifact::task`]) — one request where `generate` +
    /// `simulate` would run the pipeline twice. `qssc remote build
    /// --events` uses this.
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn simulate_with_task(
        &mut self,
        source: &str,
        config: Option<&PipelineConfig>,
        events: &[EnvEvent],
    ) -> Result<RemoteArtifact, ClientError> {
        let result = self.pipeline_request(RequestKind::Simulate, source, config, events, true)?;
        let reply = RemoteArtifact::from_result(result)?;
        if reply.task.is_none() {
            return Err(ClientError::Protocol(
                "server did not honour `include_task`".into(),
            ));
        }
        Ok(reply)
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        let result = self.call(Request {
            version: None,
            id: None,
            kind: RequestKind::Stats,
            source: None,
            config: None,
            events: Vec::new(),
            include_task: false,
        })?;
        serde_json::from_value(result)
            .map_err(|e| ClientError::Protocol(format!("malformed stats: {e}")))
    }

    /// Fetches the server's full metrics registry — every counter plus
    /// the per-kind latency histograms — as the raw JSON snapshot the
    /// `metrics` protocol kind returns (see `PROTOCOL.md`).
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.call(Request {
            version: None,
            id: None,
            kind: RequestKind::Metrics,
            source: None,
            config: None,
            events: Vec::new(),
            include_task: false,
        })
    }

    /// Asks the server to drain in-flight work and exit.
    ///
    /// # Errors
    /// [`ClientError::Server`] carries the typed wire error.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(Request {
            version: None,
            id: None,
            kind: RequestKind::Shutdown,
            source: None,
            config: None,
            events: Vec::new(),
            include_task: false,
        })?;
        Ok(())
    }
}

// ----------------------------------------------------------------- retry

impl ClientError {
    /// Whether retrying the same request against the same server can
    /// plausibly succeed: `busy` (the queue was momentarily full) and
    /// transport failures (connection refused during a restart, a broken
    /// pipe from a server that died mid-request). Typed server errors
    /// other than `busy` are deterministic — the same request will fail
    /// the same way — and protocol decode failures mean the peer is not
    /// speaking our protocol at all.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Server(e) => e.kind == ErrorKind::Busy,
            ClientError::Protocol(_) => false,
        }
    }
}

/// Retry schedule for [`with_retry`]: truncated exponential backoff with
/// deterministic jitter. The jitter stream is a pure function of `seed`,
/// so a fleet of clients spreads its retries while every individual run
/// replays exactly (the property the e2e suite pins down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first one included (`0` is treated as `1`).
    pub max_attempts: u32,
    /// Delay budget of the first retry (before jitter).
    pub base_delay: Duration,
    /// Cap on the per-retry delay budget.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
    /// Overall wall-clock bound across all attempts and sleeps; `None`
    /// bounds the run by `max_attempts` alone.
    pub overall_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            seed: 0,
            overall_deadline: Some(Duration::from_secs(30)),
        }
    }
}

impl RetryPolicy {
    /// The backoff state machine of this policy.
    pub fn backoff(&self) -> Backoff {
        Backoff {
            policy: *self,
            attempt: 0,
            rng: self.seed,
        }
    }
}

/// Iterator-like backoff state: one [`Backoff::next_delay`] call per
/// failed attempt.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// The sleep before the next attempt, or `None` once the policy's
    /// attempts are used up. The delay before retry *k* (1-based) is
    /// drawn from `[budget/2, budget]` where
    /// `budget = min(base_delay · 2^(k-1), max_delay)` — "equal jitter",
    /// which decorrelates clients without ever collapsing to zero sleep.
    pub fn next_delay(&mut self) -> Option<Duration> {
        self.attempt += 1;
        if self.attempt >= self.policy.max_attempts.max(1) {
            return None;
        }
        let exp = self.attempt.saturating_sub(1).min(32);
        let budget = self
            .policy
            .base_delay
            .saturating_mul(1u32 << exp.min(31))
            .min(self.policy.max_delay);
        let budget_ms = budget.as_millis() as u64;
        let half = budget_ms / 2;
        let jitter = if budget_ms > half {
            splitmix64(&mut self.rng) % (budget_ms - half + 1)
        } else {
            0
        };
        Some(Duration::from_millis(half + jitter))
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// The splitmix64 step: passes through every 64-bit state exactly once,
/// good enough jitter, zero dependencies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `op` against a [`Client`] for `addr`, retrying per `policy` on
/// [retryable](ClientError::is_retryable) failures. The connection is
/// established lazily and re-established after any transport error (the
/// old stream may hold a half-written request). Non-retryable errors,
/// exhausted attempts and the overall deadline all surface the *last*
/// error.
///
/// # Errors
/// The last [`ClientError`] once the policy gives up.
pub fn with_retry<T>(
    addr: impl ToSocketAddrs,
    policy: &RetryPolicy,
    mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let started = Instant::now();
    let mut backoff = policy.backoff();
    let mut client: Option<Client> = None;
    loop {
        let result = match &mut client {
            Some(c) => op(c),
            None => match Client::connect_with_timeout(&addr, DEFAULT_CONNECT_TIMEOUT) {
                Ok(c) => op(client.insert(c)),
                Err(e) => Err(ClientError::from(e)),
            },
        };
        let error = match result {
            Ok(value) => return Ok(value),
            Err(e) => e,
        };
        if matches!(error, ClientError::Io(_)) {
            // The stream state is unknown after a transport error;
            // reconnect rather than desynchronize the protocol.
            client = None;
        }
        if !error.is_retryable() {
            return Err(error);
        }
        let Some(delay) = backoff.next_delay() else {
            return Err(error);
        };
        if let Some(overall) = policy.overall_deadline {
            if started.elapsed() + delay > overall {
                return Err(error);
            }
        }
        std::thread::sleep(delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let request = Request {
            version: Some(2),
            id: Some(7),
            kind: RequestKind::Simulate,
            source: Some("PROCESS p () {}".into()),
            config: Some(PipelineConfig::default()),
            events: vec![EnvEvent::new("p", "a", 3)],
            include_task: true,
        };
        let line = serde_json::to_string(&request.to_value()).unwrap();
        let back = Request::parse_line(&line).unwrap();
        assert_eq!(back.version, Some(2));
        assert_eq!(back.id, Some(7));
        assert_eq!(back.kind, RequestKind::Simulate);
        assert_eq!(back.source, request.source);
        assert_eq!(back.config, request.config);
        assert_eq!(back.events, request.events);
        assert!(back.include_task);
    }

    #[test]
    fn typed_parse_errors() {
        let kind = |line: &str| Request::parse_line(line).unwrap_err().kind;
        assert_eq!(kind("not json"), ErrorKind::Protocol);
        assert_eq!(kind("[1,2]"), ErrorKind::Protocol);
        assert_eq!(kind("{\"kind\": \"frobnicate\"}"), ErrorKind::UnknownKind);
        assert_eq!(kind("{\"kind\": \"check\"}"), ErrorKind::Protocol); // no source
        assert_eq!(kind("{\"source\": \"x\"}"), ErrorKind::Protocol); // no kind
        assert_eq!(
            kind("{\"kind\": \"check\", \"source\": \"x\", \"bogus\": 1}"),
            ErrorKind::Protocol
        );
        assert_eq!(
            kind("{\"kind\": \"schedule\", \"source\": \"x\", \"config\": {\"profile\": 9}}"),
            ErrorKind::Config
        );
        // Control requests need no source.
        assert!(Request::parse_line("{\"kind\": \"stats\"}").is_ok());
        assert!(Request::parse_line("{\"kind\": \"shutdown\"}").is_ok());
    }

    #[test]
    fn version_field_is_validated() {
        let parse = |line: &str| Request::parse_line(line);
        let ok = parse("{\"version\": 1, \"kind\": \"stats\"}").unwrap();
        assert_eq!(ok.version, Some(1));
        let ok = parse("{\"version\": 2, \"kind\": \"stats\"}").unwrap();
        assert_eq!(ok.version, Some(2));
        assert_eq!(parse("{\"kind\": \"stats\"}").unwrap().version, None);
        for bad in [
            "{\"version\": 0, \"kind\": \"stats\"}",
            "{\"version\": 3, \"kind\": \"stats\"}",
            "{\"version\": \"two\", \"kind\": \"stats\"}",
        ] {
            assert_eq!(parse(bad).unwrap_err().kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn response_round_trip() {
        let ok = response_ok(Some(3), Value::Bool(true));
        let (id, result) = parse_response(&ok).unwrap();
        assert_eq!(id, Some(3));
        assert_eq!(result.unwrap(), Value::Bool(true));

        let err = response_error(None, &WireError::new(ErrorKind::Busy, "queue full"));
        let (id, result) = parse_response(&err).unwrap();
        assert_eq!(id, None);
        let e = result.unwrap_err();
        assert_eq!(e.kind, ErrorKind::Busy);
        assert_eq!(e.message, "queue full");
    }

    #[test]
    fn bounded_reader_recovers_from_oversized_lines() {
        let text = format!("short\n{}\nafter\nlast", "x".repeat(100));
        let mut reader = std::io::BufReader::with_capacity(16, text.as_bytes());
        assert!(matches!(
            read_line_bounded(&mut reader, 32).unwrap(),
            LineRead::Line(l) if l == "short"
        ));
        assert!(matches!(
            read_line_bounded(&mut reader, 32).unwrap(),
            LineRead::TooLarge
        ));
        assert!(matches!(
            read_line_bounded(&mut reader, 32).unwrap(),
            LineRead::Line(l) if l == "after"
        ));
        // Unterminated trailing line still arrives.
        assert!(matches!(
            read_line_bounded(&mut reader, 32).unwrap(),
            LineRead::Line(l) if l == "last"
        ));
        assert!(matches!(
            read_line_bounded(&mut reader, 32).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn exact_limit_lines_pass() {
        let text = format!("{}\n", "y".repeat(32));
        let mut reader = std::io::BufReader::new(text.as_bytes());
        assert!(matches!(
            read_line_bounded(&mut reader, 32).unwrap(),
            LineRead::Line(l) if l.len() == 32
        ));
    }

    #[test]
    fn timeout_kind_has_a_wire_name() {
        assert_eq!(ErrorKind::Timeout.name(), "timeout");
        assert_eq!(ErrorKind::from_name("timeout"), Some(ErrorKind::Timeout));
    }

    #[test]
    fn budget_exhaustion_crosses_the_wire_as_timeout() {
        let inner = crate::core::ScheduleError::BudgetExhausted {
            source: crate::petri::TransitionId::new(0),
            stop: crate::BudgetStop::Deadline,
            steps: 1024,
        };
        let wire = WireError::from(QssError::from(inner));
        assert_eq!(wire.kind, ErrorKind::Timeout);
        assert!(wire.message.contains("deadline exceeded"));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(40),
            max_delay: Duration::from_millis(200),
            seed: 42,
            overall_deadline: None,
        };
        let mut a = policy.backoff();
        let mut b = policy.backoff();
        let seq_a: Vec<_> = std::iter::from_fn(|| a.next_delay()).collect();
        let seq_b: Vec<_> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same schedule");
        assert_eq!(seq_a.len(), 5, "max_attempts - 1 sleeps");
        for (k, delay) in seq_a.iter().enumerate() {
            let budget = Duration::from_millis(40)
                .saturating_mul(1 << k as u32)
                .min(Duration::from_millis(200));
            assert!(
                *delay >= budget / 2 && *delay <= budget,
                "attempt {k}: {delay:?}"
            );
        }
        let mut other = RetryPolicy { seed: 43, ..policy }.backoff();
        let seq_c: Vec<_> = std::iter::from_fn(|| other.next_delay()).collect();
        assert_ne!(seq_a, seq_c, "different seeds decorrelate");
    }

    #[test]
    fn retryability_is_typed() {
        assert!(ClientError::Io("broken pipe".into()).is_retryable());
        assert!(ClientError::Server(WireError::new(ErrorKind::Busy, "full")).is_retryable());
        assert!(!ClientError::Server(WireError::new(ErrorKind::Timeout, "late")).is_retryable());
        assert!(!ClientError::Server(WireError::protocol("bad")).is_retryable());
        assert!(!ClientError::Protocol("not json".into()).is_retryable());
    }
}
