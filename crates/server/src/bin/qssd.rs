//! `qssd` — the quasi-static scheduling service daemon.
//!
//! Binds a TCP listener, prints the resolved address on stdout (so
//! harnesses binding port 0 can discover it), and serves the
//! newline-delimited JSON protocol documented in `PROTOCOL.md` until a
//! `shutdown` request drains it.
//!
//! ```text
//! qssd --addr 127.0.0.1:7700 --workers 4 --cache 64
//! qssc remote 127.0.0.1:7700 build system.flowc --emit c
//! ```

use qss_server::{Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
qssd — quasi-static scheduling service (Cortadella et al., DAC 2000)

USAGE:
    qssd [OPTIONS]

OPTIONS:
    --addr HOST:PORT    listen address (default: 127.0.0.1:0 — the
                        resolved address is printed on stdout)
    --workers N         bound on concurrently running schedule searches;
                        the pool runs 2 x N worker threads, so searches
                        never hold more than N (default: min(cores, 8))
    --queue N           job-queue bound before `busy` backpressure
                        (default: 4 x workers)
    --cache N           SearchContext cache capacity, 0 disables
                        (default: 64)
    --max-line BYTES    per-request line limit (default: 1048576)
    --request-timeout MS
                        deadline per pipeline request: bounds queue wait,
                        the schedule search (cancelled cooperatively) and
                        coalesced waits, answering a typed `timeout`
                        error; 0 disables (default: 0)
    --idle-timeout MS   close connections with no request in progress for
                        this long; 0 disables (default: 0)
    --write-timeout MS  socket write timeout for response lines;
                        0 disables (default: 0)
    --max-connections N reject connections beyond N with a typed `busy`
                        line; 0 = unlimited (default: 0)
    --trace-out PATH    on graceful drain, write the span journal as a
                        Chrome trace-event JSON file (load it in
                        Perfetto / chrome://tracing)
    --help              show this help

Stop the daemon with a `{\"kind\": \"shutdown\"}` request (e.g.
`qssc remote ADDR shutdown`); it drains in-flight work and exits.
";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Exit::Usage(message)) => {
            eprintln!("qssd: {message}");
            eprintln!("run `qssd --help` for usage");
            ExitCode::from(2)
        }
        Err(Exit::Io(e)) => {
            eprintln!("qssd: {e}");
            ExitCode::FAILURE
        }
    }
}

enum Exit {
    Usage(String),
    Io(std::io::Error),
}

fn run() -> Result<(), Exit> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_args(&args)?;
    let server = Server::bind(config).map_err(Exit::Io)?;
    let addr = server.local_addr();
    // The discovery line harnesses parse; flush before blocking.
    println!("qssd: listening on {addr}");
    std::io::stdout().flush().ok();
    server.run().map_err(Exit::Io)?;
    eprintln!("qssd: drained and stopped");
    Ok(())
}

fn parse_args(args: &[String]) -> Result<ServerConfig, Exit> {
    let mut config = ServerConfig::default();
    let mut queue_set = false;
    let mut i = 0;
    let next_value = |args: &[String], i: &mut usize, flag: &str| {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| Exit::Usage(format!("`{flag}` needs a value")))
    };
    let parse_number = |flag: &str, value: &str| {
        value
            .parse::<usize>()
            .map_err(|_| Exit::Usage(format!("invalid `{flag}` value `{value}`")))
    };
    // Timeouts are flat milliseconds; 0 keeps the feature off.
    let parse_timeout = |flag: &str, value: &str| {
        let ms = value
            .parse::<u64>()
            .map_err(|_| Exit::Usage(format!("invalid `{flag}` value `{value}`")))?;
        Ok(if ms == 0 {
            None
        } else {
            Some(std::time::Duration::from_millis(ms))
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--addr" => config.addr = next_value(args, &mut i, "--addr")?,
            "--workers" => {
                let value = next_value(args, &mut i, "--workers")?;
                config.workers = parse_number("--workers", &value)?.max(1);
            }
            "--queue" => {
                let value = next_value(args, &mut i, "--queue")?;
                config.queue_capacity = parse_number("--queue", &value)?.max(1);
                queue_set = true;
            }
            "--cache" => {
                let value = next_value(args, &mut i, "--cache")?;
                config.cache_capacity = parse_number("--cache", &value)?;
            }
            "--max-line" => {
                let value = next_value(args, &mut i, "--max-line")?;
                config.max_line_bytes = parse_number("--max-line", &value)?.max(64);
            }
            "--request-timeout" => {
                let value = next_value(args, &mut i, "--request-timeout")?;
                config.request_timeout = parse_timeout("--request-timeout", &value)?;
            }
            "--idle-timeout" => {
                let value = next_value(args, &mut i, "--idle-timeout")?;
                config.idle_timeout = parse_timeout("--idle-timeout", &value)?;
            }
            "--write-timeout" => {
                let value = next_value(args, &mut i, "--write-timeout")?;
                config.write_timeout = parse_timeout("--write-timeout", &value)?;
            }
            "--trace-out" => {
                config.trace_out = Some(next_value(args, &mut i, "--trace-out")?);
            }
            "--max-connections" => {
                let value = next_value(args, &mut i, "--max-connections")?;
                config.max_connections = parse_number("--max-connections", &value)?;
            }
            other => return Err(Exit::Usage(format!("unknown option `{other}`"))),
        }
        i += 1;
    }
    if !queue_set {
        // The documented default tracks the *final* worker count, not
        // the one ServerConfig::default() guessed before `--workers`.
        config.queue_capacity = 4 * config.workers;
    }
    Ok(config)
}
