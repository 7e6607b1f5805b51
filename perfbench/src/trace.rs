//! The benchmark's span recorder: spans around each call into a layer,
//! kept in memory and written out once the run ends.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! origin), a parent and the id of the request it belongs to. A layer's
//! self time is its span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub request: u64,
}

/// One thread's span recorder. Spans nest through an explicit stack:
/// [`Tracer::begin`] opens a span under the innermost open one.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index` and any span still open inside it (a layer
    /// call that returned early with an error).
    pub fn end(&mut self, index: usize) {
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, request);
        let value = f();
        self.end(span);
        value
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals: span count and summed self time in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let own = span
            .end_ns
            .saturating_sub(span.start_ns)
            .saturating_sub(covered);
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    totals
}

/// The self-time table: one row per span name, with its share of the
/// summed self time of all spans.
pub fn render_table(title: &str, spans: &[Span]) -> String {
    let totals = self_times(spans);
    let all: u64 = totals.values().map(|(_, ns)| ns).sum::<u64>().max(1);
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1 .1));
    let mut out = format!(
        "{title}\n{:<28} {:>8} {:>12} {:>10} {:>7}\n",
        "span", "count", "self_ms", "mean_ms", "share"
    );
    for (name, (count, ns)) in rows {
        let _ = writeln!(
            out,
            "{name:<28} {count:>8} {:>12.3} {:>10.4} {:>6.1}%",
            ns as f64 / 1e6,
            ns as f64 / 1e6 / count.max(1) as f64,
            100.0 * ns as f64 / all as f64
        );
    }
    out
}

/// Chrome trace-event JSON (complete `X` events, microsecond timestamps)
/// with each span's parent index and request id in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 32);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (index, span) in spans.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{index},\"parent\":{parent},\"request\":{}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
            span.request
        );
    }
    out.push_str("]}\n");
    out
}
