//! In-memory spans recorded by the benchmark around each call into a
//! layer, written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `name` inside `parent` (the operation kind), for
/// operation `op`. Spans of one operation share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer; all buffers of a run share one origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub thread: &'static str,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, thread: &'static str) -> SpanLog {
        SpanLog {
            origin,
            thread,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: at(start),
            end_ns: at(end),
        });
    }
}

/// Writes every buffer to `path`, one JSON object per span.
pub fn write_jsonl(path: impl AsRef<Path>, logs: &[&SpanLog]) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for log in logs {
        for s in &log.spans {
            writeln!(
                out,
                "{{\"thread\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                log.thread, s.name, s.parent, s.op, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
