//! `qss_server` — the quasi-static scheduling pipeline as a long-running
//! TCP service (`qssd`).
//!
//! The ROADMAP's north star is heavy concurrent scheduling traffic; a
//! batch `qssc` invocation re-derives all per-net analyses on every run.
//! `qssd` keeps them warm instead:
//!
//! * **Protocol** — newline-delimited JSON over TCP (see
//!   [`qss::remote`] and `PROTOCOL.md`), request kinds `check` / `link`
//!   / `schedule` / `generate` / `simulate` / `stats` / `shutdown`,
//!   each pipeline kind returning byte-for-byte the artifact the local
//!   [`qss::Pipeline`] stage serializes. Protocol v2 (`"version": 2`)
//!   lets responses complete **out of order**, correlated by `id`; v1
//!   clients keep strict in-order delivery.
//! * **Connection core** — one readiness-driven event loop (`poll(2)`
//!   over nonblocking sockets) owns every connection: it reads, parses
//!   and writes incrementally, so a slow `schedule` on one connection
//!   never head-of-line-blocks a fast `check` pipelined behind it.
//! * **Compute split** — one fixed pool of `2 × --workers` threads does
//!   admission (parse, link, analyze) and runs each leader's EP search
//!   inline while it holds one of `--workers` search slots, so searches
//!   never occupy more than half the pool. The leader then assembles its
//!   response (generate, simulate) on the same worker outside the slots;
//!   that work is not capped. Coalesced followers
//!   park a continuation on the leader's flight and hold no thread while
//!   waiting.
//! * **Context cache** ([`ContextCache`]) — per-net
//!   [`qss::SearchContext`]s keyed by the order-independent net
//!   fingerprint (guarded by the ordered digest), LRU-bounded, with
//!   hit/miss/eviction counters surfaced through `stats`.
//! * **Coalescing** — concurrent `schedule`-bearing requests for the
//!   same `(fingerprint, digest, config)` attach to one in-flight search
//!   and all receive the shared result.
//! * **Backpressure** — a bounded job queue and a bounded search-slot
//!   semaphore; both shed load with a typed `busy` error instead of
//!   stalling the connection.
//! * **Graceful shutdown** — a `shutdown` request acknowledges, stops
//!   the accept loop, drains every outstanding request, writes every
//!   response, then exits without leaking listeners (what the CI
//!   harness relies on).
//!
//! ```no_run
//! use qss_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?; // 127.0.0.1, ephemeral port
//! println!("listening on {}", server.local_addr());
//! server.run()?; // blocks until a `shutdown` request
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod cache;
mod coalesce;
mod poll;
mod pool;
mod service;
mod util;

pub use cache::ContextCache;
/// The wire protocol and client, re-exported from the facade so server
/// users need a single dependency.
pub use qss::remote::{
    Client, ClientError, ErrorKind, RemoteArtifact, Request, RequestKind, ServerStats, WireError,
};

use crate::poll::PollFd;
use crate::pool::{JobQueue, SubmitError};
use crate::service::{Engine, Reply};
use crate::util::lock;
use qss::remote::{response_error, response_ok_json, DEFAULT_MAX_LINE_BYTES};
use qss_obs::{Observer, SpanId};
use serde_json::JsonWriter;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// The bound on concurrently running schedule searches. The pool
    /// runs `2 × workers` threads: a leader searches inline on the
    /// worker that admitted it while it holds one of `workers` search
    /// slots, so searches never occupy more than half the pool. Response
    /// assembly after a search (generate, simulate) holds no slot.
    pub workers: usize,
    /// Bound of the job queue; submissions beyond it are answered with a
    /// typed `busy` error.
    pub queue_capacity: usize,
    /// Capacity of the [`ContextCache`] (0 disables context caching).
    pub cache_capacity: usize,
    /// Per-request line limit in bytes; longer lines are drained and
    /// answered with `too_large`.
    pub max_line_bytes: usize,
    /// Deadline per pipeline request, measured from the moment the
    /// request line is parsed: it bounds queue wait, the schedule search
    /// (cancelled cooperatively mid-flight) and coalesced waits, each
    /// expiry answering a typed `timeout` error. It also caps how long
    /// one request line may dribble in. `None` = unbounded.
    pub request_timeout: Option<Duration>,
    /// Idle-connection reaper: a connection with no request in flight
    /// and no line in progress for this long is closed. `None` =
    /// connections idle forever.
    pub idle_timeout: Option<Duration>,
    /// Bound on write stalls: a connection whose outbound buffer makes
    /// no progress for this long is closed. `None` = wait forever.
    pub write_timeout: Option<Duration>,
    /// Cap on concurrently served connections; excess connections are
    /// answered with one typed `busy` error line and closed. `0` =
    /// unlimited.
    pub max_connections: usize,
    /// Path the span journal is exported to (Chrome trace-event JSON,
    /// loadable in Perfetto / `chrome://tracing`) when the server drains
    /// after a graceful shutdown. `None` = no trace file.
    pub trace_out: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity: 4 * workers.max(1),
            cache_capacity: 64,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            request_timeout: None,
            idle_timeout: None,
            write_timeout: None,
            max_connections: 0,
            trace_out: None,
        }
    }
}

/// Bound on retained span events: at ~10 events per request this keeps
/// the trace of the last few thousand requests, in well under 2 MiB.
const JOURNAL_CAPACITY: usize = 32 * 1024;

/// One queued unit of work: a parsed request, the connection and
/// per-connection sequence number its response must be posted back to,
/// and its deadline (when the server runs with `--request-timeout`).
struct Job {
    request: Request,
    conn: u64,
    seq: u64,
    deadline: Option<Instant>,
    /// The request's span (ends when its response is posted).
    span: SpanId,
    /// The `queued` child span (ends when a worker picks the job up).
    queued: SpanId,
}

/// One finished response traveling from a worker back to
/// the event loop: the `result` already serialized by the worker.
struct Completion {
    conn: u64,
    seq: u64,
    result: Result<String, WireError>,
}

/// Everything the event loop and the workers share.
struct ServerState {
    config: ServerConfig,
    engine: Engine,
    queue: JobQueue<Job>,
    /// Finished responses waiting for the event loop to pick them up.
    completions: Mutex<Vec<Completion>>,
    /// Write end of the self-pipe; one byte here wakes the event loop
    /// out of `poll`.
    wake: UnixStream,
    addr: SocketAddr,
}

impl ServerState {
    /// Posts a finished response and wakes the event loop. Safe to call
    /// more than once for the same `(conn, seq)` — the event loop drops
    /// completions for sequences it has already answered.
    fn post(&self, conn: u64, seq: u64, result: Result<String, WireError>) {
        lock(&self.completions).push(Completion { conn, seq, result });
        // A full pipe buffer means wake-ups are already pending.
        let _ = (&self.wake).write(&[1u8]);
    }
}

/// A bound, not-yet-running scheduling service.
pub struct Server {
    listener: TcpListener,
    wake_rx: UnixStream,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and prepares the shared state.
    ///
    /// # Errors
    /// Propagates bind errors (bad address, port in use).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        let state = Arc::new(ServerState {
            engine: Engine::new(
                config.cache_capacity,
                config.workers.max(1),
                Observer::armed(JOURNAL_CAPACITY),
            ),
            queue: JobQueue::new(config.queue_capacity),
            completions: Mutex::new(Vec::new()),
            wake: wake_tx,
            addr,
            config,
        });
        Ok(Server {
            listener,
            wake_rx,
            state,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until a `shutdown` request arrives, then drains: every
    /// outstanding request finishes, its response is written, and only
    /// then do connections close and the process move on.
    ///
    /// # Errors
    /// Propagates fatal listener / poll errors (per-connection errors
    /// are contained).
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            wake_rx,
            state,
        } = self;
        listener.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        // The write end must not block workers posting completions when
        // the event loop is slow to drain the pipe.
        state.wake.set_nonblocking(true)?;
        // Searches hold at most `workers` threads (the search slots), so
        // they never occupy the other half of the pool.
        let workers: Vec<_> = (0..2 * state.config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                thread::spawn(move || worker_loop(&state))
            })
            .collect();
        let mut event_loop = EventLoop {
            state: Arc::clone(&state),
            listener: Some(listener),
            wake_rx,
            conns: HashMap::new(),
            next_conn: 0,
            draining: false,
            accept_backoff: Duration::from_millis(10),
            accept_retry_at: None,
        };
        let result = event_loop.run();
        drop(event_loop);
        // Normally closed when the drain began; on a fatal loop error
        // this is what lets the workers exit.
        state.queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        // Every span has ended by now (all requests answered, all
        // workers joined), so the exported trace is complete.
        if let Some(path) = &state.config.trace_out {
            if let Some(mut trace) = state.engine.observer.export_chrome_trace() {
                trace.push('\n');
                if let Err(e) = std::fs::write(path, trace) {
                    eprintln!("qssd: could not write trace to {path}: {e}");
                }
            }
        }
        result
    }

    /// Runs the server on a background thread; the handle exposes the
    /// address and joins on shutdown. The in-process flavor used by
    /// tests and benchmarks.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let thread = thread::spawn(move || self.run());
        ServerHandle { addr, thread }
    }
}

/// Handle of a [`Server::spawn`]ed background server.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to exit (after some client sent `shutdown`).
    ///
    /// # Errors
    /// Propagates the server's exit status.
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }

    /// Sends a `shutdown` request and joins the server.
    ///
    /// # Errors
    /// Propagates client and server errors.
    pub fn shutdown_and_join(self) -> io::Result<()> {
        let mut client = Client::connect(self.addr)?;
        client
            .shutdown()
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.join()
    }
}

/// The worker loop: admit queued jobs until the queue closes. The
/// engine's reply callback posts the finished response back to the event
/// loop; panics inside a request are contained — the client gets a typed
/// `internal` error and the worker lives on.
fn worker_loop(state: &Arc<ServerState>) {
    while let Some(job) = state.queue.next() {
        let Job {
            request,
            conn,
            seq,
            deadline,
            span,
            queued,
        } = job;
        // The queue wait ends the moment a worker owns the job.
        state.engine.observer.span_end(queued, "queued", "worker");
        // A job whose deadline passed while it sat in the queue is
        // answered without running: the worker slot goes to live work.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            state.post(
                conn,
                seq,
                Err(WireError::new(
                    ErrorKind::Timeout,
                    "request deadline expired before a worker picked it up",
                )),
            );
            continue;
        }
        let reply_state = Arc::clone(state);
        let reply: Reply = Box::new(move |result| reply_state.post(conn, seq, result));
        if catch_unwind(AssertUnwindSafe(|| {
            state.engine.handle(request, deadline, span, reply)
        }))
        .is_err()
        {
            // The reply callback may or may not have fired before the
            // panic; a second post for an answered sequence is dropped.
            state.post(
                conn,
                seq,
                Err(WireError::new(
                    ErrorKind::Internal,
                    "request handler panicked",
                )),
            );
        }
    }
}

/// Response metadata carried from admission to the response choke point:
/// what the latency histogram, the per-kind counters and the request
/// span need when the response is finally posted.
#[derive(Clone, Copy)]
struct RespMeta {
    /// Request kind name; `"_error"` for lines that never parsed into a
    /// kind, so per-kind histogram counts still sum to total responses.
    kind: &'static str,
    /// Journal-clock reading when the request line was parsed.
    started_micros: u64,
    /// The request's span ([`SpanId::NONE`] when the observer is
    /// disabled or the line never parsed).
    span: SpanId,
}

impl RespMeta {
    fn error(state: &ServerState) -> RespMeta {
        RespMeta {
            kind: "_error",
            started_micros: state.engine.observer.now_micros(),
            span: SpanId::NONE,
        }
    }
}

/// A request admitted to the queue, awaiting its completion.
struct PendingRequest {
    id: Option<u64>,
    deadline: Option<Instant>,
    meta: RespMeta,
}

/// A completed response a v1 connection is holding until every earlier
/// sequence has been released (in-order delivery).
struct HeldResponse {
    text: String,
}

/// Per-connection state owned by the event loop.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// Bytes read but not yet split into a full line.
    read_buf: Vec<u8>,
    /// A line blew past `max_line_bytes`; its bytes are being discarded
    /// until the newline, which answers `too_large`.
    oversized: bool,
    /// Outbound bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Protocol version, sticky per connection: starts at 1 (strict
    /// in-order responses); the first request carrying `"version": 2`
    /// switches to out-of-order delivery for good.
    version: u32,
    /// Sequence number assigned to the next response-bearing line.
    next_seq: u64,
    /// v1 ordering: the next sequence allowed onto the wire.
    next_release: u64,
    /// Requests in flight (queued, searching, or parked on a flight).
    pending: HashMap<u64, PendingRequest>,
    /// v1 ordering: completed responses blocked behind an earlier one.
    held: BTreeMap<u64, HeldResponse>,
    /// The peer closed its write half; we still answer what's in
    /// flight.
    read_closed: bool,
    last_activity: Instant,
    /// When the currently dribbling request line started arriving.
    line_started_at: Option<Instant>,
    last_write_progress: Instant,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> Conn {
        let now = Instant::now();
        Conn {
            id,
            stream,
            read_buf: Vec::new(),
            oversized: false,
            write_buf: Vec::new(),
            write_pos: 0,
            version: 1,
            next_seq: 0,
            next_release: 0,
            pending: HashMap::new(),
            held: BTreeMap::new(),
            read_closed: false,
            last_activity: now,
            line_started_at: None,
            last_write_progress: now,
        }
    }

    fn has_unwritten(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// A partial request line is in progress (dribbling or oversized).
    fn line_in_progress(&self) -> bool {
        self.oversized || !self.read_buf.is_empty()
    }

    /// Nothing in flight, nothing buffered: eligible for idle reaping.
    fn is_quiet(&self) -> bool {
        self.pending.is_empty() && self.held.is_empty() && !self.has_unwritten()
    }

    /// The peer is gone and every outstanding response was delivered.
    fn should_close(&self) -> bool {
        self.read_closed && self.is_quiet() && !self.line_in_progress()
    }
}

/// The readiness-driven connection core: one thread, one `poll` set,
/// every connection.
struct EventLoop {
    state: Arc<ServerState>,
    /// `None` once draining — closing the listener is what stops new
    /// connections.
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    draining: bool,
    accept_backoff: Duration,
    /// Transient accept failure (EMFILE etc.): leave the listener out of
    /// the poll set until this instant instead of spinning.
    accept_retry_at: Option<Instant>,
}

/// Poll-set bookkeeping: what each pollfd slot stands for.
enum Token {
    Listener,
    Wake,
    Conn(u64),
}

impl EventLoop {
    fn run(&mut self) -> io::Result<()> {
        loop {
            self.apply_completions();
            if self.draining && self.drained() {
                return Ok(());
            }
            let now = Instant::now();
            let mut fds: Vec<PollFd> = Vec::with_capacity(self.conns.len() + 2);
            let mut tokens: Vec<Token> = Vec::with_capacity(self.conns.len() + 2);
            if let Some(listener) = &self.listener {
                if self.accept_retry_at.is_none_or(|at| now >= at) {
                    self.accept_retry_at = None;
                    fds.push(PollFd::new(listener.as_raw_fd(), poll::POLLIN));
                    tokens.push(Token::Listener);
                }
            }
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), poll::POLLIN));
            tokens.push(Token::Wake);
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if !conn.read_closed {
                    events |= poll::POLLIN;
                }
                if conn.has_unwritten() {
                    events |= poll::POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                tokens.push(Token::Conn(id));
            }
            let timeout = self
                .next_deadline(now)
                .map(|deadline| deadline.saturating_duration_since(now));
            poll::poll_fds(&mut fds, timeout)?;
            for (fd, token) in fds.iter().zip(&tokens) {
                if fd.revents == 0 {
                    continue;
                }
                match token {
                    Token::Wake => {
                        self.state.engine.counters.wakeups.inc();
                        drain_wake(&self.wake_rx);
                    }
                    Token::Listener => self.accept_all(),
                    Token::Conn(id) => self.service_conn(*id, *fd),
                }
            }
            self.expire_timers();
        }
    }

    /// Moves finished responses from the workers onto their
    /// connections. Completions for already-answered (or vanished)
    /// sequences are dropped — which is what makes double-posting after
    /// a panic, and late results after a deadline expiry, harmless.
    fn apply_completions(&mut self) {
        let batch: Vec<Completion> = std::mem::take(&mut *lock(&self.state.completions));
        let state = Arc::clone(&self.state);
        for completion in batch {
            if let Some(conn) = self.conns.get_mut(&completion.conn) {
                if let Some(pending) = conn.pending.remove(&completion.seq) {
                    complete(
                        &state,
                        conn,
                        completion.seq,
                        pending.id,
                        pending.meta,
                        completion.result,
                    );
                }
            }
        }
    }

    /// Whether the drain is finished: every admitted request answered
    /// and every response byte handed to its socket.
    fn drained(&self) -> bool {
        self.conns
            .values()
            .all(|c| c.pending.is_empty() && c.held.is_empty() && !c.has_unwritten())
            && lock(&self.state.completions).is_empty()
    }

    /// Stops accepting, closes the queue; called once the `shutdown`
    /// acknowledgement is on its way out.
    fn begin_drain(&mut self) {
        if !self.draining {
            self.draining = true;
            self.listener = None;
            self.state.queue.close();
        }
    }

    /// The earliest instant any timer fires; `None` = sleep until I/O.
    fn next_deadline(&self, _now: Instant) -> Option<Instant> {
        let cfg = &self.state.config;
        let line_limit = cfg.request_timeout.or(cfg.idle_timeout);
        let mut earliest: Option<Instant> = self.accept_retry_at;
        let mut merge = |candidate: Instant| {
            earliest = Some(match earliest {
                Some(current) => current.min(candidate),
                None => candidate,
            });
        };
        for conn in self.conns.values() {
            if conn.line_in_progress() {
                if let (Some(limit), Some(started)) = (line_limit, conn.line_started_at) {
                    merge(started + limit);
                }
            } else if conn.is_quiet() && !conn.read_closed {
                if let Some(idle) = cfg.idle_timeout {
                    merge(conn.last_activity + idle);
                }
            }
            if conn.has_unwritten() {
                if let Some(stall) = cfg.write_timeout {
                    merge(conn.last_write_progress + stall);
                }
            }
            for pending in conn.pending.values() {
                if let Some(deadline) = pending.deadline {
                    merge(deadline);
                }
            }
        }
        earliest
    }

    /// Accepts until the listener would block. Transient failures put
    /// the listener on an exponential-backoff cooldown instead of
    /// killing the server.
    fn accept_all(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = Duration::from_millis(10);
                    let max = self.state.config.max_connections;
                    if max > 0 && self.conns.len() >= max {
                        let counters = &self.state.engine.counters;
                        counters.requests.inc();
                        counters.busy_rejections.inc();
                        let error = WireError::new(
                            ErrorKind::Busy,
                            format!("connection limit reached ({max}); retry later"),
                        );
                        // One best-effort nonblocking write; never let a
                        // rejected peer stall the event loop.
                        let mut line = respond_error(&self.state, None, error);
                        line.push('\n');
                        let mut stream = stream;
                        stream.set_nonblocking(true).ok();
                        let _ = stream.write(line.as_bytes());
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(id, Conn::new(id, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(_) => {
                    // EMFILE/ENFILE, memory pressure: heal with time.
                    self.accept_retry_at = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(Duration::from_secs(1));
                    return;
                }
            }
        }
    }

    /// Handles one connection's readiness: read and parse what arrived,
    /// flush what fits, drop the connection on transport errors.
    fn service_conn(&mut self, id: u64, fd: PollFd) {
        let state = Arc::clone(&self.state);
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut dead = fd.has(poll::POLLNVAL);
        let mut begin_drain = false;
        if !dead && fd.has(poll::POLLIN | poll::POLLHUP | poll::POLLERR) && !conn.read_closed {
            let (alive, drain) = read_conn(&state, conn, draining);
            dead = !alive;
            begin_drain = drain;
        }
        if !dead && conn.has_unwritten() && flush_conn(&state, conn).is_err() {
            dead = true;
        }
        if !dead && conn.should_close() {
            dead = true;
        }
        if dead {
            self.conns.remove(&id);
        }
        if begin_drain {
            self.begin_drain();
        }
    }

    /// Fires expired timers: request deadlines answer `timeout`,
    /// dribbling lines and idle connections are reaped, stalled writers
    /// are cut.
    fn expire_timers(&mut self) {
        let state = Arc::clone(&self.state);
        let cfg = &state.config;
        let line_limit = cfg.request_timeout.or(cfg.idle_timeout);
        let now = Instant::now();
        let mut dead: Vec<u64> = Vec::new();
        for (&id, conn) in self.conns.iter_mut() {
            let expired: Vec<u64> = conn
                .pending
                .iter()
                .filter(|(_, p)| p.deadline.is_some_and(|d| now >= d))
                .map(|(&seq, _)| seq)
                .collect();
            for seq in expired {
                if let Some(pending) = conn.pending.remove(&seq) {
                    complete(
                        &state,
                        conn,
                        seq,
                        pending.id,
                        pending.meta,
                        Err(WireError::new(
                            ErrorKind::Timeout,
                            "request deadline expired",
                        )),
                    );
                }
            }
            if conn.has_unwritten() && flush_conn(&state, conn).is_err() {
                dead.push(id);
                continue;
            }
            if conn.line_in_progress() {
                if let (Some(limit), Some(started)) = (line_limit, conn.line_started_at) {
                    if now >= started + limit {
                        // A slowloris line (or one the peer abandoned).
                        dead.push(id);
                        continue;
                    }
                }
            } else if conn.is_quiet() && !conn.read_closed {
                if let Some(idle) = cfg.idle_timeout {
                    if now >= conn.last_activity + idle {
                        dead.push(id);
                        continue;
                    }
                }
            }
            if conn.has_unwritten() {
                if let Some(stall) = cfg.write_timeout {
                    if now >= conn.last_write_progress + stall {
                        dead.push(id);
                        continue;
                    }
                }
            }
            if conn.should_close() {
                dead.push(id);
            }
        }
        for id in dead {
            self.conns.remove(&id);
        }
    }
}

/// Swallows pending wake bytes so the next `poll` sleeps.
fn drain_wake(mut wake_rx: &UnixStream) {
    let mut sink = [0u8; 64];
    loop {
        match wake_rx.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
}

/// Reads until the socket would block, splitting and dispatching full
/// lines as they arrive. Returns `(connection still alive, begin
/// drain?)`.
fn read_conn(state: &ServerState, conn: &mut Conn, draining: bool) -> (bool, bool) {
    let mut begin_drain = false;
    let mut scratch = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                // Peer closed its write half; outstanding responses are
                // still delivered before the connection goes away.
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.read_buf.extend_from_slice(&scratch[..n]);
                begin_drain |= process_buffer(state, conn, draining);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if conn.line_in_progress() {
                    state.engine.counters.partial_reads.inc();
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return (false, begin_drain),
        }
    }
    (true, begin_drain)
}

/// Splits the read buffer into lines and dispatches each; enforces the
/// line-size limit and tracks the dribbling-line deadline.
fn process_buffer(state: &ServerState, conn: &mut Conn, draining: bool) -> bool {
    let mut begin_drain = false;
    while let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = conn.read_buf.drain(..=pos).collect();
        let oversized = std::mem::take(&mut conn.oversized)
            || line.len().saturating_sub(1) > state.config.max_line_bytes;
        if oversized {
            state.engine.counters.requests.inc();
            let seq = conn.next_seq;
            conn.next_seq += 1;
            let error = WireError::new(
                ErrorKind::TooLarge,
                format!(
                    "request line exceeds the {}-byte limit",
                    state.config.max_line_bytes
                ),
            );
            complete(state, conn, seq, None, RespMeta::error(state), Err(error));
        } else {
            begin_drain |= handle_line(state, conn, &line[..line.len() - 1], draining);
        }
    }
    if !conn.oversized && conn.read_buf.len() > state.config.max_line_bytes {
        // Discard the oversized line as it arrives; the eventual newline
        // answers `too_large`.
        conn.oversized = true;
        conn.read_buf.clear();
    }
    if conn.line_in_progress() {
        conn.line_started_at.get_or_insert_with(Instant::now);
    } else {
        conn.line_started_at = None;
    }
    begin_drain
}

/// Parses and dispatches one request line. Control requests answer
/// inline; pipeline requests go to the worker queue and complete later
/// through the completion channel.
fn handle_line(state: &ServerState, conn: &mut Conn, raw: &[u8], draining: bool) -> bool {
    let text = String::from_utf8_lossy(raw);
    let line = text.trim();
    if line.is_empty() {
        return false;
    }
    state.engine.counters.requests.inc();
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        Err(error) => {
            complete(state, conn, seq, None, RespMeta::error(state), Err(error));
            return false;
        }
    };
    if request.version.unwrap_or(1) >= 2 && conn.version < 2 {
        switch_to_v2(conn);
    }
    let mut begin_drain = false;
    let id = request.id;
    let observer = &state.engine.observer;
    let kind_name = request.kind.name();
    let span = if observer.is_armed() {
        observer.span_begin(&format!("request kind={kind_name}"), SpanId::NONE, "loop")
    } else {
        SpanId::NONE
    };
    let meta = RespMeta {
        kind: kind_name,
        started_micros: observer.now_micros(),
        span,
    };
    match request.kind {
        // Control requests bypass the queue: they must answer promptly
        // even when the workers are saturated.
        RequestKind::Stats => {
            complete(state, conn, seq, id, meta, Ok(stats_json(state)));
        }
        RequestKind::Metrics => {
            complete(state, conn, seq, id, meta, Ok(metrics_json(state)));
        }
        RequestKind::Shutdown => {
            // Acknowledge, then drain: the ack is queued (held for v1
            // ordering if needed) and the drain guarantees it — like
            // every outstanding response — still reaches the wire.
            let ack = "{\"stopping\":true}".to_string();
            complete(state, conn, seq, id, meta, Ok(ack));
            begin_drain = true;
        }
        _ if draining => {
            let error = WireError::new(ErrorKind::ShuttingDown, "server is draining for shutdown");
            complete(state, conn, seq, id, meta, Err(error));
        }
        _ => {
            // The deadline clock starts when the request is accepted, so
            // it covers queue wait as well as the search itself.
            let deadline = state.config.request_timeout.map(|t| Instant::now() + t);
            conn.pending
                .insert(seq, PendingRequest { id, deadline, meta });
            let queued = observer.span_begin("queued", span, "loop");
            let submitted = state.queue.submit(Job {
                request,
                conn: conn.id,
                seq,
                deadline,
                span,
                queued,
            });
            match submitted {
                Ok(()) => {}
                Err(SubmitError::Full) => {
                    conn.pending.remove(&seq);
                    observer.span_end(queued, "queued", "loop");
                    state.engine.counters.busy_rejections.inc();
                    let error = WireError::new(
                        ErrorKind::Busy,
                        format!(
                            "worker queue is full ({} jobs); retry later",
                            state.config.queue_capacity
                        ),
                    );
                    complete(state, conn, seq, id, meta, Err(error));
                }
                Err(SubmitError::Closed) => {
                    conn.pending.remove(&seq);
                    observer.span_end(queued, "queued", "loop");
                    let error =
                        WireError::new(ErrorKind::ShuttingDown, "server is draining for shutdown");
                    complete(state, conn, seq, id, meta, Err(error));
                }
            }
        }
    }
    begin_drain
}

/// Upgrades a connection to v2 (out-of-order delivery). Responses held
/// for v1 ordering are flushed in sequence order — from here on,
/// completion order is wire order.
fn switch_to_v2(conn: &mut Conn) {
    conn.version = 2;
    for (_, held) in std::mem::take(&mut conn.held) {
        push_response(conn, held.text);
    }
}

/// Finishes sequence `seq` with `result`: splices the serialized result
/// into the response line and either writes it now (v2) or releases it
/// in order (v1).
fn complete(
    state: &ServerState,
    conn: &mut Conn,
    seq: u64,
    id: Option<u64>,
    meta: RespMeta,
    result: Result<String, WireError>,
) {
    let observer = &state.engine.observer;
    state.engine.counters.responses.inc();
    if observer.is_armed() {
        let elapsed = observer.now_micros().saturating_sub(meta.started_micros);
        observer
            .histogram(&format!("latency_us.{}", meta.kind))
            .record(elapsed);
    }
    let respond = observer.span_begin("respond", meta.span, "loop");
    let text = match result {
        Ok(result) => response_ok_json(id, &result),
        Err(error) => respond_error(state, id, error),
    };
    if conn.version >= 2 {
        push_response(conn, text);
    } else {
        if seq != conn.next_release {
            state.engine.counters.held_responses.inc();
        }
        conn.held.insert(seq, HeldResponse { text });
        while let Some(held) = conn.held.remove(&conn.next_release) {
            push_response(conn, held.text);
            conn.next_release += 1;
        }
    }
    observer.span_end(respond, "respond", "loop");
    if meta.span.is_recorded() {
        observer.span_end(meta.span, &format!("request kind={}", meta.kind), "loop");
    }
}

/// Appends one response line to the connection's outbound buffer. An
/// idle buffer takes the line's own allocation instead of a copy of it:
/// a response can be tens of megabytes.
fn push_response(conn: &mut Conn, text: String) {
    if conn.has_unwritten() {
        conn.write_buf.extend_from_slice(text.as_bytes());
    } else {
        conn.write_buf = text.into_bytes();
        conn.write_pos = 0;
        conn.last_write_progress = Instant::now();
    }
    conn.write_buf.push(b'\n');
}

/// Writes as much buffered output as the socket accepts.
///
/// # Errors
/// A transport error (the caller drops the connection).
fn flush_conn(state: &ServerState, conn: &mut Conn) -> io::Result<()> {
    while conn.has_unwritten() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => {
                conn.write_pos += n;
                let now = Instant::now();
                conn.last_write_progress = now;
                conn.last_activity = now;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if conn.has_unwritten() {
                    state.engine.counters.partial_writes.inc();
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if !conn.has_unwritten() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    Ok(())
}

/// Serializes an error response, counting it (and `timeout` responses in
/// their own counter, whatever path produced them).
fn respond_error(state: &ServerState, id: Option<u64>, error: WireError) -> String {
    state.engine.counters.errors.inc();
    if error.kind == ErrorKind::Timeout {
        state.engine.counters.timeouts.inc();
    }
    response_error(id, &error)
}

/// The `stats` payload as JSON text.
fn stats_json(state: &ServerState) -> String {
    let counters = &state.engine.counters;
    let stats = ServerStats {
        requests: counters.requests.get(),
        errors: counters.errors.get(),
        busy_rejections: counters.busy_rejections.get(),
        coalesced: counters.coalesced.get(),
        timeouts: counters.timeouts.get(),
        cancelled: counters.cancelled.get(),
        searches: counters.searches.get(),
        workers: state.config.workers.max(1) as u64,
        queue_capacity: state.config.queue_capacity as u64,
        cache: state.engine.cache.stats(),
    };
    serde_json::to_string(&stats).expect("stats serialization is infallible")
}

/// The `metrics` payload as JSON text: a full snapshot of the
/// observability registry — every counter the server maintains plus
/// quantile summaries of every latency histogram — serialized
/// deterministically (names sorted).
fn metrics_json(state: &ServerState) -> String {
    let snapshot = state.engine.observer.snapshot();
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("counters");
    w.begin_object();
    for (name, value) in &snapshot.counters {
        w.field(name, value);
    }
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (name, hist) in &snapshot.histograms {
        w.key(name);
        w.begin_object();
        w.field("count", &hist.count);
        w.field("min", &hist.min);
        w.field("max", &hist.max);
        w.field("mean", &hist.mean());
        w.field("p50", &hist.quantile(0.50));
        w.field("p95", &hist.quantile(0.95));
        w.field("p99", &hist.quantile(0.99));
        w.end_object();
    }
    w.end_object();
    w.field("journal_dropped", &state.engine.observer.journal_dropped());
    w.end_object();
    w.into_string()
}
