//! The benchmark's own spans: one around every call it makes into a
//! layer during the traced run, held in memory and written as JSON
//! lines when the run ends. Spans inside the product are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function` of the call.
    pub name: &'static str,
    /// Index of the workload operation the call served; spans of one
    /// operation share it.
    pub op: usize,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Name of the enclosing span (`""` for a root).
    pub parent: &'static str,
}

/// In-memory span sink.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f`, records a span around it, and returns its result and
    /// its duration in milliseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, op, start, end);
        (out, crate::stats::ms(end - start))
    }

    /// Records a span from timestamps taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: usize,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            op,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                json::quote(s.name),
                s.op,
                s.start_ns,
                s.end_ns,
                json::quote(s.parent)
            )?;
        }
        w.flush()
    }
}
