//! `serve_warm` / `serve_cold`: a `qssd` child process driven open loop
//! from this process over at most two protocol-v2 connections.
//!
//! Requests are due on a fixed arrival schedule and timed from their due
//! time, so a stalled server or generator shows up in the latency of the
//! requests behind it. Each connection keeps at most [`WINDOW`] requests
//! in flight; when the window is full the generator waits, and that wait
//! is reported as generator lag (it is also inside every latency).

use crate::gen::{ballast_source, multi_pfc_source, Deck, Rng};
use crate::layers::{self, Work};
use crate::stats::{median, peak_rss_mb, quantile, window_quantile, Metric, Outcome, SETUPS};
use crate::trace::{chrome_trace, render_table, Span, Tracer};
use qss::remote::{
    fingerprint_hex, parse_response, read_line_bounded, response_ok, LineRead, Request,
    RequestKind, WireError,
};
use qss::{EnvEvent, Pipeline, PipelineConfig, PortClass, SearchContext};
use serde_json::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections.
const CONNECTIONS: usize = 2;
/// Requests in flight per connection before the generator waits.
const WINDOW: usize = 2;
/// `qssd --workers`: one search slot per request the client can have in
/// flight, so a search never finds every slot taken (`busy`).
const SERVER_WORKERS: usize = CONNECTIONS * WINDOW;
/// Longest response line the client accepts.
const MAX_LINE: usize = 64 << 20;
/// How long a phase may take to drain before the run gives up.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// The rate ladder: rung `i` offers `first × RUNG_RATIO^i` requests per
/// second (see [`Mix::first_rung`]) for one window of requests (see
/// [`Mix::window_jobs`]); a climb stops at the first rung that misses the
/// limit, and the ladder is climbed again and again while its half of the
/// run lasts.
const RUNG_RATIO: f64 = 1.12;
const MAX_RUNGS: i32 = 8;
/// A rung has a growing backlog when the generator's median lag over its
/// second half exceeds this share of the latency limit.
const BACKLOG_SHARE: f64 = 0.2;

/// The warm pool: ballast nets of 48 processes, and multi-copy PFCs as
/// `(copies, pixels)`.
const WARM_BALLAST: usize = 4;
const WARM_PFCS: [(usize, u32); 2] = [(2, 6), (3, 8)];
const WARM_POOL: usize = WARM_BALLAST + WARM_PFCS.len();

/// Process counts of the cold systems, one round of the deck each.
const COLD_SIZES: std::ops::RangeInclusive<usize> = 32..=128;
/// Process counts of the systems that warm a `serve_cold` daemon.
const COLD_PRIMES: [usize; 4] = [32, 64, 96, 128];

/// Sampled responses checked byte for byte against the local pipeline,
/// at most, per run.
const MAX_SAMPLES: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// A small fixed pool of mid-size systems: after warm-up every
    /// schedule-bearing request hits the server's context cache.
    Warm,
    /// Every request a never-seen wide system: only cache inserts and
    /// evictions.
    Cold,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Warm => "serve_warm",
            Mix::Cold => "serve_cold",
        }
    }

    /// The reference arrival rate (requests per second), a third to a half
    /// of what the daemon sustains on two cores: `latency_ms_*` is
    /// measured there, and the ladder starts above it.
    fn reference_rate(self) -> f64 {
        match self {
            Mix::Warm => 200.0,
            Mix::Cold => 50.0,
        }
    }

    /// The rate of the ladder's first rung, a few rungs below what the
    /// daemon sustains on two cores, so a climb takes a few rungs.
    fn first_rung(self) -> f64 {
        match self {
            Mix::Warm => 500.0,
            Mix::Cold => 80.0,
        }
    }

    /// Consecutive requests per window: four rounds of the warm
    /// `(kind, system)` deck (1.2 s at the reference rate), one round of
    /// the cold size deck. Every window then holds the same requests, only
    /// in another order. A latency window and a ladder rung are one window
    /// long.
    fn window_jobs(self) -> usize {
        match self {
            Mix::Warm => 4 * WARM_POOL * weighted_kinds(self).len(),
            Mix::Cold => COLD_SIZES.count(),
        }
    }

    /// `(kind, weight)` of the request mix.
    fn kinds(self) -> &'static [(RequestKind, usize)] {
        match self {
            Mix::Warm => &[
                (RequestKind::Schedule, 7),
                (RequestKind::Check, 1),
                (RequestKind::Analyze, 1),
                (RequestKind::Generate, 1),
            ],
            Mix::Cold => &[(RequestKind::Schedule, 3), (RequestKind::Analyze, 2)],
        }
    }
}

/// One request of the arrival schedule.
#[derive(Debug, Clone, Copy)]
struct Job {
    kind: RequestKind,
    system: usize,
    /// Check this response's artifact against the local pipeline.
    sample: bool,
}

/// The generated inputs of one run.
struct Inputs {
    systems: Vec<Arc<str>>,
    /// `(kind, system)` requests that warm the server before measuring.
    warmup: Vec<(RequestKind, usize)>,
    jobs: Vec<Job>,
}

/// Every kind of the mix, as often as its weight says.
fn weighted_kinds(mix: Mix) -> Vec<RequestKind> {
    mix.kinds()
        .iter()
        .flat_map(|&(kind, weight)| std::iter::repeat_n(kind, weight))
        .collect()
}

/// The kind of a cold request on a system of `processes` processes: sizes
/// 0 or 1 modulo 5 are analyzed, the rest scheduled. That is the 3 : 2 mix
/// of [`Mix::kinds`], and every round of the size deck holds the same
/// `(size, kind)` requests.
fn cold_kind(processes: usize) -> RequestKind {
    if processes % 5 < 2 {
        RequestKind::Analyze
    } else {
        RequestKind::Schedule
    }
}

fn generate_inputs(mix: Mix, seed: u64, max_jobs: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut systems: Vec<Arc<str>> = Vec::new();
    let mut warmup = Vec::new();
    let mut jobs = Vec::with_capacity(max_jobs);
    match mix {
        Mix::Warm => {
            // Four 48-process ballast nets and two multi-copy PFCs, each
            // requested once per kind before measuring.
            for i in 0..WARM_BALLAST {
                systems.push(ballast_source(&format!("warm{i}"), 46, rng.next_u64()).into());
            }
            for (i, (copies, pixels)) in WARM_PFCS.into_iter().enumerate() {
                systems.push(multi_pfc_source(&format!("pfc{i}"), copies, pixels).into());
            }
            for system in 0..systems.len() {
                for &(kind, _) in mix.kinds() {
                    warmup.push((kind, system));
                }
            }
            let kinds = weighted_kinds(mix);
            let mut deck = Deck::new(
                (0..systems.len())
                    .flat_map(|system| kinds.iter().map(move |&kind| (kind, system)))
                    .collect(),
            );
            for _ in 0..max_jobs {
                let (kind, system) = deck.draw(&mut rng);
                // A `check` response carries no artifact to compare.
                let sample = rng.range(0, 127) == 0 && kind != RequestKind::Check;
                jobs.push(Job {
                    kind,
                    system,
                    sample,
                });
            }
        }
        Mix::Cold => {
            // Warm the process (allocator, code paths) on one system of
            // each size class that the measured jobs never repeat; they
            // are also the systems the task-quality metrics cover.
            for (i, processes) in COLD_PRIMES.into_iter().enumerate() {
                systems.push(
                    ballast_source(&format!("prime{i}"), processes - 2, rng.next_u64()).into(),
                );
                warmup.push((mix.kinds()[i % 2].0, i));
            }
            let mut sizes = Deck::new(COLD_SIZES.collect());
            for i in 0..max_jobs {
                let processes: usize = sizes.draw(&mut rng);
                systems.push(
                    ballast_source(&format!("cold{i}"), processes - 2, rng.next_u64()).into(),
                );
                let sample = rng.range(0, 31) == 0;
                jobs.push(Job {
                    kind: cold_kind(processes),
                    system: systems.len() - 1,
                    sample,
                });
            }
        }
    }
    Inputs {
        systems,
        warmup,
        jobs,
    }
}

/// The `qssd` child; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(qssd: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(qssd)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &SERVER_WORKERS.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", qssd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("qssd: listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("qssd did not report its address (got {line:?})"))
            }
        }
    }

    /// Waits for the daemon to exit after a `shutdown`.
    fn wait(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("qssd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("qssd did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What the client knows about a request in flight.
struct Pending {
    due: Instant,
    sent: Instant,
    /// `None` for control requests outside the measured phases.
    measured: Option<(usize, usize)>,
    traced: bool,
}

/// One completed measured request.
struct Record {
    phase: usize,
    job: usize,
    /// From the due time to the decoded response.
    latency_ms: f64,
    /// From the actual send to the decoded response.
    since_send_ms: f64,
    error: Option<WireError>,
    /// The response line of a sampled request, kept as it arrived; its
    /// artifact is checked after the run, off the timed path.
    response: Option<String>,
}

/// State both reader threads share with the generator.
struct Shared {
    control: Sender<(u64, Result<Value, WireError>)>,
    sampled: Vec<bool>,
    records: Mutex<Vec<Record>>,
    spans: Mutex<Vec<Span>>,
    origin: Instant,
}

/// The requests in flight on one connection. The reader signals each
/// completion, so the generator sleeps until a window slot frees instead
/// of polling for it.
#[derive(Default)]
struct InFlight {
    count: Mutex<usize>,
    changed: Condvar,
}

impl InFlight {
    fn add(&self) {
        *self.count.lock().expect("in-flight lock") += 1;
    }

    fn done(&self) {
        *self.count.lock().expect("in-flight lock") -= 1;
        self.changed.notify_all();
    }

    /// Waits until fewer than `limit` requests are in flight; false if
    /// `deadline` passes first.
    fn wait_below(&self, limit: usize, deadline: Instant) -> bool {
        let mut count = self.count.lock().expect("in-flight lock");
        while *count >= limit {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            count = self
                .changed
                .wait_timeout(count, deadline - now)
                .expect("in-flight lock")
                .0;
        }
        true
    }
}

/// One client connection: the write half here, the read half on its own
/// thread, which completes requests from the `pending` map.
struct Conn {
    writer: TcpStream,
    pending: Arc<Mutex<HashMap<u64, Pending>>>,
    in_flight: Arc<InFlight>,
    next_id: u64,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(addr: &str, shared: &Arc<Shared>) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to qssd: {e}"))?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let pending: Arc<Mutex<HashMap<u64, Pending>>> = Arc::default();
        let in_flight: Arc<InFlight> = Arc::default();
        let reader = {
            let (pending, in_flight, shared) = (pending.clone(), in_flight.clone(), shared.clone());
            std::thread::spawn(move || read_loop(read_half, &pending, &in_flight, &shared))
        };
        Ok(Conn {
            writer: stream,
            pending,
            in_flight,
            next_id: 1,
            reader: Some(reader),
        })
    }

    /// Writes one request; the reader thread completes it.
    fn send(&mut self, mut request: Request, pending: Pending) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        request.version = Some(2);
        request.id = Some(id);
        let mut line = serde_json::to_string(&request.to_value())
            .expect("request serialization is infallible");
        line.push('\n');
        self.in_flight.add();
        self.pending
            .lock()
            .expect("pending map lock")
            .insert(id, pending);
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        Ok(id)
    }
}

fn read_loop(
    stream: TcpStream,
    pending: &Mutex<HashMap<u64, Pending>>,
    in_flight: &InFlight,
    shared: &Shared,
) {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    while let Ok(LineRead::Line(line)) = read_line_bounded(&mut reader, MAX_LINE) {
        let decode_start = Instant::now();
        let Ok((Some(id), result)) = parse_response(&line) else {
            break;
        };
        let done = Instant::now();
        let Some(entry) = pending.lock().expect("pending map lock").remove(&id) else {
            continue;
        };
        let Some((phase, job)) = entry.measured else {
            in_flight.done();
            let _ = shared.control.send((id, result));
            continue;
        };
        if entry.traced {
            let ns = |at: Instant| at.saturating_duration_since(shared.origin).as_nanos() as u64;
            let request = job as u64;
            let mut spans = shared.spans.lock().expect("span lock");
            let root = spans.len();
            for (name, start, end, parent) in [
                ("request", entry.due, done, None),
                ("client.lag", entry.due, entry.sent, Some(root)),
                ("server+wire", entry.sent, decode_start, Some(root)),
                ("remote.decode", decode_start, done, Some(root)),
            ] {
                spans.push(Span {
                    name,
                    start_ns: ns(start),
                    end_ns: ns(end),
                    parent,
                    request,
                });
            }
        }
        let (error, response) = match result {
            Ok(_) => (None, shared.sampled[job].then_some(line)),
            Err(error) => (Some(error), None),
        };
        shared.records.lock().expect("record lock").push(Record {
            phase,
            job,
            latency_ms: done.duration_since(entry.due).as_secs_f64() * 1e3,
            since_send_ms: done.duration_since(entry.sent).as_secs_f64() * 1e3,
            error,
            response,
        });
        // Out of flight only once recorded: a phase that has drained has
        // every record in.
        in_flight.done();
    }
}

/// A running daemon with the client's connections.
struct Session {
    daemon: Daemon,
    conns: Vec<Conn>,
    shared: Arc<Shared>,
    control: Receiver<(u64, Result<Value, WireError>)>,
    /// Requests written so far on any connection; the server's
    /// `responses` counter must end up equal to it.
    sent: u64,
}

fn request(kind: RequestKind, source: Option<&str>) -> Request {
    Request {
        version: Some(2),
        id: None,
        kind,
        source: source.map(str::to_string),
        config: None,
        events: Vec::new(),
        include_task: false,
    }
}

impl Session {
    /// Spawns the daemon, connects, and warms the server on `inputs`.
    fn start(qssd: &Path, inputs: &Inputs) -> Result<Session, String> {
        let daemon = Daemon::spawn(qssd)?;
        let (control_tx, control) = channel();
        let shared = Arc::new(Shared {
            control: control_tx,
            sampled: inputs.jobs.iter().map(|j| j.sample).collect(),
            records: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            origin: Instant::now(),
        });
        let conns = (0..CONNECTIONS)
            .map(|_| Conn::open(&daemon.addr, &shared))
            .collect::<Result<Vec<_>, _>>()?;
        let mut session = Session {
            daemon,
            conns,
            shared,
            control,
            sent: 0,
        };
        for &(kind, system) in &inputs.warmup {
            session
                .call(request(kind, Some(&inputs.systems[system])))
                .map_err(|e| format!("warm-up {kind} failed: {e}"))?;
        }
        Ok(session)
    }

    /// One round trip on the first connection, outside any phase.
    fn call(&mut self, request: Request) -> Result<Value, String> {
        let now = Instant::now();
        let pending = Pending {
            due: now,
            sent: now,
            measured: None,
            traced: false,
        };
        let id = self.conns[0].send(request, pending)?;
        self.sent += 1;
        match self.control.recv_timeout(Duration::from_secs(60)) {
            Ok((got, result)) if got == id => {
                result.map_err(|e| format!("{}: {}", e.kind.name(), e.message))
            }
            Ok((got, _)) => Err(format!("control reply {got} does not match request {id}")),
            Err(_) => Err("no control reply within 60 s".into()),
        }
    }

    fn metrics(&mut self) -> Result<Value, String> {
        self.call(request(RequestKind::Metrics, None))
    }

    /// Shuts the daemon down, joins the readers and reaps the child.
    fn stop(mut self) -> Result<Vec<Record>, String> {
        self.call(request(RequestKind::Shutdown, None))?;
        for conn in &mut self.conns {
            let _ = conn.writer.shutdown(std::net::Shutdown::Write);
            if let Some(reader) = conn.reader.take() {
                reader.join().map_err(|_| "a reader thread panicked")?;
            }
        }
        self.daemon.wait()?;
        let records = std::mem::take(&mut *self.shared.records.lock().expect("record lock"));
        Ok(records)
    }
}

/// One open-loop phase: `count` jobs from `first` on, due every `1/rate`
/// seconds, alternating connections.
struct Phase {
    rate: f64,
    first: usize,
    count: usize,
    traced: bool,
}

struct PhaseStats {
    rate: f64,
    count: usize,
    /// Generator lag of every send, in send order.
    lags_ms: Vec<f64>,
    /// Completed requests per second, from the first due time to the
    /// last response.
    served: f64,
}

fn run_phase(
    session: &mut Session,
    inputs: &Inputs,
    index: usize,
    phase: &Phase,
) -> Result<PhaseStats, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let mut lags_ms = Vec::with_capacity(phase.count);
    for n in 0..phase.count {
        let job_index = phase.first + n;
        let job = inputs.jobs[job_index];
        let due = start + Duration::from_secs_f64(n as f64 / phase.rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let conn = &mut session.conns[n % CONNECTIONS];
        if !conn
            .in_flight
            .wait_below(WINDOW, Instant::now() + DRAIN_LIMIT)
        {
            return Err("no response for 30 s with the connection's window full".into());
        }
        let sent = Instant::now();
        lags_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let pending = Pending {
            due,
            sent,
            measured: Some((index, job_index)),
            traced: phase.traced,
        };
        conn.send(
            request(job.kind, Some(&inputs.systems[job.system])),
            pending,
        )?;
        session.sent += 1;
    }
    // The phase ends when its last response is in.
    let drain_deadline = Instant::now() + DRAIN_LIMIT;
    for conn in &session.conns {
        if !conn.in_flight.wait_below(1, drain_deadline) {
            return Err("requests still outstanding 30 s after their phase ended".into());
        }
    }
    Ok(PhaseStats {
        rate: phase.rate,
        count: phase.count,
        lags_ms,
        served: phase.count as f64 / start.elapsed().as_secs_f64(),
    })
}

/// How far phase `index` stayed inside the limit: at least 1 when its
/// p99 met the limit with no error and no growing backlog, below 1 by the
/// factor it missed by.
fn headroom(records: &[Record], index: usize, stats: &PhaseStats, limit_ms: f64) -> f64 {
    let (latencies, errors) = phase_latencies(records, index);
    if errors > 0 || latencies.is_empty() {
        return 0.0;
    }
    let mut tail: Vec<f64> = stats.lags_ms[stats.lags_ms.len() / 2..].to_vec();
    tail.sort_by(f64::total_cmp);
    let p99 = quantile(&latencies, 0.99).max(1e-6);
    let lag = quantile(&tail, 0.5).max(1e-6);
    (limit_ms / p99).min(BACKLOG_SHARE * limit_ms / lag)
}

/// `max_rate_rps` and the served rate under saturation of one climb,
/// from `(rate, headroom, served)` of the reference phase followed by the
/// climb's rungs.
///
/// The rate is the highest rung that met the limit, moved toward the
/// first rung that missed it by where headroom 1 falls between their
/// headrooms (geometrically, like the ladder). The saturated rate is what
/// the first failing rung actually served (the top rung's if none failed).
fn climb_rate(steps: &[(f64, f64, f64)]) -> (f64, f64) {
    let (reference, reference_headroom, reference_served) = steps[0];
    if reference_headroom < 1.0 {
        return (reference * reference_headroom, reference_served);
    }
    let Some(fail) = steps.iter().position(|&(_, h, _)| h < 1.0) else {
        let (top, _, served) = steps[steps.len() - 1];
        return (top, served);
    };
    let (pass_rate, pass_headroom, _) = steps[fail - 1];
    let (fail_rate, fail_headroom, fail_served) = steps[fail];
    let rate = if fail_headroom <= 0.0 {
        pass_rate
    } else {
        let frac = pass_headroom.ln() / (pass_headroom.ln() - fail_headroom.ln());
        pass_rate * (fail_rate / pass_rate).powf(frac.clamp(0.0, 1.0))
    };
    (rate, fail_served)
}

/// `(p50, p99)` of the reference phase: the reference phase is cut into
/// windows of [`Mix::window_jobs`] requests, and each quantile is the
/// median of the windows' quantiles (see [`window_quantile`]).
fn window_latency(records: &[Record], per_window: usize) -> (f64, f64) {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for record in records.iter().filter(|r| r.phase == 0 && r.error.is_none()) {
        let window = record.job / per_window;
        if windows.len() <= window {
            windows.resize(window + 1, Vec::new());
        }
        windows[window].push(record.latency_ms);
    }
    (
        window_quantile(&windows, 0.5),
        window_quantile(&windows, 0.99),
    )
}

/// Sorted latencies of one phase and its error count.
fn phase_latencies(records: &[Record], phase: usize) -> (Vec<f64>, usize) {
    let mut latencies: Vec<f64> = records
        .iter()
        .filter(|r| r.phase == phase && r.error.is_none())
        .map(|r| r.latency_ms)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let errors = records
        .iter()
        .filter(|r| r.phase == phase && r.error.is_some())
        .count();
    (latencies, errors)
}

fn counter(snapshot: &Value, name: &str) -> f64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0) as f64
}

/// A field of one per-kind latency histogram (times in milliseconds).
fn histogram(snapshot: &Value, kind: &str, field: &str) -> f64 {
    let value = snapshot
        .get("histograms")
        .and_then(|h| h.get(&format!("latency_us.{kind}")))
        .and_then(|h| h.get(field))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    if field == "count" {
        value
    } else {
        value / 1e3
    }
}

/// The local pipeline's bytes for `kind` on `source`, as the server
/// embeds them in its response.
fn local_artifact(kind: RequestKind, source: &str) -> Result<String, String> {
    let linked = Pipeline::from_source(source)
        .and_then(|p| p.with_config(PipelineConfig::default()).link())
        .map_err(|e| e.to_string())?;
    match kind {
        RequestKind::Schedule => linked
            .schedule()
            .map(|s| s.to_json())
            .map_err(|e| e.to_string()),
        RequestKind::Generate => linked
            .schedule()
            .and_then(|s| s.generate())
            .map(|t| t.to_json())
            .map_err(|e| e.to_string()),
        RequestKind::Analyze => {
            Ok(serde_json::to_string(&linked.analyze())
                .expect("report serialization is infallible"))
        }
        other => Err(format!("no artifact for `{other}`")),
    }
}

/// Generated-task quality of one system: code bytes and single-task
/// cycles on four events per uncontrollable input, and whether the
/// single task's outputs equal the multi-task executor's.
fn task_quality(source: &str) -> Result<(u64, u64, bool), String> {
    let task = Pipeline::from_source(source)
        .and_then(|p| p.link())
        .and_then(|l| l.schedule())
        .and_then(|s| s.generate())
        .map_err(|e| e.to_string())?;
    let events: Vec<EnvEvent> = task
        .system
        .env_inputs
        .iter()
        .filter(|input| input.class == PortClass::Uncontrollable)
        .flat_map(|input| {
            (0..4).map(move |v| EnvEvent::new(input.process.clone(), input.port.clone(), v))
        })
        .collect();
    let sim = task.simulate(&events).map_err(|e| e.to_string())?;
    let code: u64 = task.report(None).tasks.iter().map(|t| t.code_bytes).sum();
    Ok((code, sim.single.cycles, sim.outputs_match))
}

/// Replays `jobs` in process through the same public stage functions
/// `qssd` calls, one span per layer, with the server's context and
/// report caches emulated by fingerprint. Stops at `deadline`.
fn replay(
    inputs: &Inputs,
    tracer: &mut Tracer,
    work: &mut Work,
    deadline: Instant,
) -> Result<(), String> {
    let mut contexts: HashMap<(u64, u64), Arc<SearchContext>> = HashMap::new();
    let mut reports: HashMap<(u64, u64), Value> = HashMap::new();
    // Warm the emulated caches the way the daemon's warm-up did, off the
    // record.
    for &(kind, system) in &inputs.warmup {
        let mut unrecorded = Tracer::new(Instant::now());
        let mut unrecorded_work = Work::default();
        replay_one(
            kind,
            &inputs.systems[system],
            0,
            &mut unrecorded,
            &mut unrecorded_work,
            &mut contexts,
            &mut reports,
        )?;
    }
    for (id, job) in inputs.jobs.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let root = tracer.begin("request", id as u64);
        let replayed = replay_one(
            job.kind,
            &inputs.systems[job.system],
            id as u64,
            tracer,
            work,
            &mut contexts,
            &mut reports,
        );
        tracer.end(root);
        replayed?;
        work.units += 1;
        // The daemon's cache holds 64 contexts; cold traffic never hits.
        if contexts.len() > 64 {
            contexts.clear();
        }
    }
    Ok(())
}

/// One replayed request: parse, link and fingerprint, then the work its
/// kind does on the daemon, then the response line and its decoding.
fn replay_one(
    kind: RequestKind,
    source: &str,
    request: u64,
    tracer: &mut Tracer,
    work: &mut Work,
    contexts: &mut HashMap<(u64, u64), Arc<SearchContext>>,
    reports: &mut HashMap<(u64, u64), Value>,
) -> Result<(), String> {
    let linked = layers::link(source, PipelineConfig::default(), tracer, request)?;
    let key = tracer.time("petri.fingerprint", request, || {
        (linked.fingerprint(), linked.ordered_digest())
    });
    let fingerprint = Value::String(fingerprint_hex(key.0));
    let result = match kind {
        RequestKind::Check => {
            let analysis = linked.analysis();
            Value::Object(vec![
                ("fingerprint".into(), fingerprint),
                (
                    "system".into(),
                    Value::String(linked.spec.name().to_string()),
                ),
                (
                    "places".into(),
                    Value::Number((analysis.num_places as u64).into()),
                ),
                (
                    "transitions".into(),
                    Value::Number((analysis.num_transitions as u64).into()),
                ),
            ])
        }
        RequestKind::Analyze => {
            let cached = reports.contains_key(&key);
            if !cached {
                let report = tracer.time("petri.structural", request, || linked.analyze());
                let value = tracer.time("serde.artifact_json", request, || {
                    serde_json::to_value(&report).expect("report serialization is infallible")
                });
                reports.insert(key, value);
            }
            Value::Object(vec![
                ("fingerprint".into(), fingerprint),
                ("cached".into(), Value::Bool(cached)),
                ("artifact".into(), reports[&key].clone()),
            ])
        }
        RequestKind::Schedule | RequestKind::Generate => {
            let cached = contexts.contains_key(&key);
            let context = tracer.time("core.context", request, || {
                contexts
                    .entry(key)
                    .or_insert_with(|| Arc::new(SearchContext::new(&linked.system.net)))
                    .clone()
            });
            let schedule = layers::schedule(linked, context, tracer, request, work)?;
            let artifact = if kind == RequestKind::Generate {
                let task = layers::generate(schedule, tracer, request, work)?;
                tracer.time("serde.artifact_json", request, || {
                    serde_json::to_value(&task)
                })
            } else {
                tracer.time("serde.artifact_json", request, || {
                    serde_json::to_value(&schedule)
                })
            };
            Value::Object(vec![
                ("fingerprint".into(), fingerprint),
                ("cached".into(), Value::Bool(cached)),
                (
                    "artifact".into(),
                    artifact.expect("artifact serialization is infallible"),
                ),
            ])
        }
        other => return Err(format!("`{other}` is not part of a request mix")),
    };
    let line = tracer.time("serde.response_line", request, || {
        response_ok(Some(request), result)
    });
    work.artifact_bytes += line.len() as u64;
    let (_, decoded) = tracer
        .time("remote.decode", request, || parse_response(&line))
        .map_err(|e| format!("replayed response does not decode: {e}"))?;
    decoded.map_err(|e| format!("replayed {kind} failed: {}", e.message))?;
    Ok(())
}

pub fn run(
    mix: Mix,
    qssd: &Path,
    seed: u64,
    seconds: f64,
    limit_ms: f64,
    traced: bool,
    trace_out: &Path,
) -> Result<Outcome, String> {
    let reference = mix.reference_rate();
    let window = mix.window_jobs();
    // Half of the run at the reference rate, the other half climbing the
    // ladder; a traced run spends its second half on the replay. Every
    // phase is a whole number of windows, so each holds whole rounds of
    // the request deck.
    let reference_s = seconds / 2.0;
    let ladder_s = seconds / 2.0;
    let reference_windows = ((reference * reference_s / window as f64) as usize).max(2);
    let rung = |i: i32| mix.first_rung() * RUNG_RATIO.powi(i);
    // A rung is one window long, so it lasts at least `window / top rung`
    // seconds, and the last climb starts before the ladder's time is up.
    let max_jobs = reference_windows * window
        + (ladder_s * rung(MAX_RUNGS - 1)) as usize
        + MAX_RUNGS as usize * window;

    let mut setup_times = Vec::new();
    let mut prepared = None;
    for attempt in 0..SETUPS {
        let start = Instant::now();
        let inputs = generate_inputs(mix, seed, max_jobs);
        let session = Session::start(qssd, &inputs)?;
        setup_times.push(start.elapsed().as_secs_f64());
        if attempt + 1 < SETUPS {
            session.stop()?;
        } else {
            prepared = Some((inputs, session));
        }
    }
    let (inputs, mut session) = prepared.expect("SETUPS is at least one");
    let before = session.metrics()?;

    // Phase 0 is the reference. A traced run adds a traced half at the
    // same rate (the two halves' latency ratio is the client-side tracing
    // overhead); an untraced run climbs the ladder until its time is up,
    // each climb stopping at its first rung that misses the limit.
    let mut phases: Vec<(PhaseStats, f64)> = Vec::new();
    let mut climbs: Vec<Vec<usize>> = Vec::new();
    let mut next_job = 0;
    let mut run_at = |session: &mut Session, rate: f64, windows: usize, traced: bool| {
        let count = windows * window;
        if next_job + count > inputs.jobs.len() {
            return Err("the run needs more requests than were generated".to_string());
        }
        let phase = Phase {
            rate,
            first: next_job,
            count,
            traced,
        };
        next_job += count;
        let index = phases.len();
        let stats = run_phase(session, &inputs, index, &phase)?;
        let records = session.shared.records.lock().expect("record lock");
        let headroom = headroom(&records, index, &stats, limit_ms);
        drop(records);
        phases.push((stats, headroom));
        Ok::<_, String>((index, headroom))
    };
    if traced {
        let half = reference_windows / 2;
        run_at(&mut session, reference, half, false)?;
        run_at(&mut session, reference, half, true)?;
    } else {
        run_at(&mut session, reference, reference_windows, false)?;
    }
    let qssd_rss = peak_rss_mb(Some(session.daemon.child.id())).unwrap_or(0.0);
    if !traced {
        let ladder_end = Instant::now() + Duration::from_secs_f64(ladder_s);
        while Instant::now() < ladder_end {
            let mut climb = Vec::new();
            for i in 0..MAX_RUNGS {
                let (index, headroom) = run_at(&mut session, rung(i), 1, false)?;
                climb.push(index);
                if headroom < 1.0 {
                    break;
                }
            }
            climbs.push(climb);
        }
    }
    let after = session.metrics()?;
    let final_metrics = session.metrics()?;
    // Every request written gets exactly one response; the `metrics`
    // request in flight is counted once its own response is out.
    let responses = counter(&final_metrics, "responses") as u64;
    let sent = session.sent;
    let spans = std::mem::take(&mut *session.shared.spans.lock().expect("span lock"));
    let records = session.stop()?;

    let mut correct = true;
    if responses + 1 != sent {
        println!(
            "FAILED: the server counted {responses} responses for {} requests",
            sent - 1
        );
        correct = false;
    }
    let attempted: u64 = phases.iter().map(|(p, _)| p.count as u64).sum();
    let mut failed = records.iter().filter(|r| r.error.is_some()).count() as u64;
    failed += attempted.saturating_sub(records.len() as u64);
    for record in records.iter().filter(|r| r.error.is_some()).take(5) {
        let error = record.error.as_ref().expect("filtered on errors");
        println!(
            "FAILED: request {}: {}: {}",
            record.job,
            error.kind.name(),
            error.message
        );
    }

    // Served artifacts of the seeded sample must equal the local bytes.
    let mut local: HashMap<(usize, &'static str), String> = HashMap::new();
    let mut checked = 0;
    for record in records
        .iter()
        .filter(|r| r.response.is_some())
        .take(MAX_SAMPLES)
    {
        let job = inputs.jobs[record.job];
        let key = (job.system, job.kind.name());
        let expected = match local.entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                entry.insert(local_artifact(job.kind, &inputs.systems[job.system])?)
            }
        };
        checked += 1;
        let served = record
            .response
            .as_deref()
            .and_then(|line| parse_response(line).ok())
            .and_then(|(_, result)| result.ok())
            .and_then(|value| {
                value
                    .get("artifact")
                    .map(|a| serde_json::to_string(a).expect("value serialization is infallible"))
            });
        if served.as_deref() != Some(expected.as_str()) {
            println!(
                "MISMATCH: served {} artifact of request {} differs from the local pipeline",
                job.kind, record.job
            );
            failed += 1;
        }
    }

    // Generated-task quality over the warm pool, or over the systems
    // that warmed the cold daemon.
    let quality_systems: Vec<usize> = match mix {
        Mix::Warm => (0..inputs.systems.len()).collect(),
        Mix::Cold => (0..COLD_PRIMES.len()).collect(),
    };
    let (mut code_bytes, mut cycles) = (0u64, 0u64);
    for &system in &quality_systems {
        let (code, single_cycles, outputs_match) = task_quality(&inputs.systems[system])?;
        if !outputs_match {
            println!("MISMATCH: single-task outputs of system {system} differ from the multi-task executor's");
            failed += 1;
        }
        code_bytes += code;
        cycles += single_cycles;
    }
    correct &= failed == 0;

    for (index, (stats, headroom)) in phases.iter().enumerate() {
        let (latencies, errors) = phase_latencies(&records, index);
        let mut lags = stats.lags_ms.clone();
        lags.sort_by(f64::total_cmp);
        println!(
            "{} phase {index}: {:.0} req/s offered, {:.1} served, p50 {:.2} ms, p99 {:.2} ms, generator lag p99 {:.2} ms, {errors} errors, headroom {headroom:.2}",
            mix.name(),
            stats.rate,
            stats.served,
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.99),
            quantile(&lags, 0.99),
        );
    }
    println!(
        "{}: {} requests, {checked} sampled artifacts checked, qssd peak RSS {qssd_rss:.1} MB",
        mix.name(),
        attempted
    );

    let mut metrics = Vec::new();
    if traced {
        let overhead = {
            let (untraced, _) = phase_latencies(&records, 0);
            let (traced, _) = phase_latencies(&records, 1);
            (quantile(&traced, 0.5) / quantile(&untraced, 0.5) - 1.0) * 100.0
        };
        let mut tracer = Tracer::new(Instant::now());
        let mut work = Work::default();
        replay(
            &inputs,
            &mut tracer,
            &mut work,
            Instant::now() + Duration::from_secs_f64(ladder_s),
        )?;
        let replayed = tracer.into_spans();
        println!(
            "{}",
            render_table(
                &format!("{}: client spans (traced half)", mix.name()),
                &spans
            )
        );
        println!(
            "{}",
            render_table(
                &format!("{}: in-process replay, per-layer self time", mix.name()),
                &replayed
            )
        );
        let mut all = spans.clone();
        let offset = all.len();
        all.extend(replayed.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        std::fs::write(trace_out, chrome_trace(&all)).map_err(|e| e.to_string())?;

        metrics.extend(layers::metrics(&replayed, &work));
        for &(kind, _) in mix.kinds() {
            for q in ["p50", "p99"] {
                metrics.push(Metric::new(
                    format!("server.service_ms_{q}.{}", kind.name()),
                    histogram(&after, kind.name(), q),
                    "ms",
                ));
            }
        }
        // Server time per request from the histogram sums (mean × count)
        // accumulated between the two snapshots.
        let (mut server_ms, mut server_count) = (0.0, 0.0);
        for &(kind, _) in mix.kinds() {
            let sum =
                |s: &Value| histogram(s, kind.name(), "mean") * histogram(s, kind.name(), "count");
            server_ms += sum(&after) - sum(&before);
            server_count +=
                histogram(&after, kind.name(), "count") - histogram(&before, kind.name(), "count");
        }
        let client_ms: f64 =
            records.iter().map(|r| r.since_send_ms).sum::<f64>() / records.len().max(1) as f64;
        metrics.push(Metric::new(
            "server.queue_wait_ms",
            client_ms - server_ms / server_count.max(1.0),
            "ms",
        ));
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        let (hits, misses) = (delta("context_cache.hits"), delta("context_cache.misses"));
        metrics.push(Metric::new(
            "server.context_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ));
        metrics.push(Metric::new("server.coalesced", delta("coalesced"), "count"));
        metrics.push(Metric::new(
            "server.busy_rejections",
            delta("busy_rejections"),
            "count",
        ));
        metrics.push(Metric::new("server.timeouts", delta("timeouts"), "count"));
        metrics.push(Metric::new(
            "server.loop_wakeups_per_req",
            delta("loop.wakeups") / delta("requests").max(1.0),
            "ratio",
        ));
        let mut lags: Vec<f64> = phases
            .iter()
            .flat_map(|(p, _)| p.lags_ms.iter().copied())
            .collect();
        lags.sort_by(f64::total_cmp);
        metrics.push(Metric::new(
            "client.lag_ms_p99",
            quantile(&lags, 0.99),
            "ms",
        ));
        metrics.push(Metric::new("client.requests", attempted as f64, "count"));
        metrics.push(Metric::new("trace.overhead_pct", overhead, "%"));
    } else {
        let (reference_latencies, _) = phase_latencies(&records, 0);
        let (latency_p50, latency_p99) = window_latency(&records, mix.window_jobs());
        let step = |i: usize| (phases[i].0.rate, phases[i].1, phases[i].0.served);
        let (mut rates, mut saturated): (Vec<f64>, Vec<f64>) = climbs
            .iter()
            .map(|climb| {
                let steps: Vec<_> = std::iter::once(0)
                    .chain(climb.iter().copied())
                    .map(step)
                    .collect();
                climb_rate(&steps)
            })
            .unzip();
        rates.sort_by(f64::total_cmp);
        saturated.sort_by(f64::total_cmp);
        println!(
            "reference phase: {} samples in windows of {}; climbs: max rate {rates:.1?}, saturated {saturated:.1?}",
            reference_latencies.len(),
            mix.window_jobs()
        );
        metrics.push(Metric::new("setup_s", median(&setup_times), "s"));
        metrics.push(Metric::new("latency_ms_p50", latency_p50, "ms"));
        metrics.push(Metric::new("latency_ms_p99", latency_p99, "ms"));
        // Medians over the climbs: a burst of interference ends the climb
        // it lands in early, and the median does not follow it.
        metrics.push(Metric::new("builds_per_s", median(&saturated), "1/s"));
        metrics.push(Metric::new("max_rate_rps", median(&rates), "1/s"));
        metrics.push(Metric::new(
            "success_share",
            (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        metrics.push(Metric::new("peak_rss_mb", qssd_rss, "MB"));
        metrics.push(Metric::new("task_cycles", cycles as f64, "cycles"));
        metrics.push(Metric::new("task_code_bytes", code_bytes as f64, "bytes"));
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}
