//! In-memory spans for the traced run.
//!
//! A span is a name, a start and end on the run's monotonic clock, the
//! span that caused it, and the id of the operation it belongs to. Spans
//! are recorded from the benchmark's own code around its calls into each
//! crate's public functions, kept in memory, and written out as JSON lines
//! when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `table.csv_decode` or `op.check_csv`.
    pub name: String,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), next_op: 0 }
    }
}

impl Spans {
    /// A fresh operation id.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span whose interval was measured elsewhere (an operation
    /// timed around a child process or a socket round trip). Returns its
    /// index, for use as a parent.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        took: Duration,
    ) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` and returns its result with the
    /// span's duration in milliseconds.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        let idx = self.record(op, parent, name, start, took);
        (out, self.spans[idx].ms())
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_share_the_op_id_and_link_to_their_parent() {
        let mut spans = Spans::default();
        let op = spans.new_op();
        let root = spans.record(op, None, "op.check_csv", Instant::now(), Duration::from_millis(3));
        let (v, ms) = spans.time(op, Some(root), "table.csv_decode", || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        let all = spans.spans();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(root));
        assert!(all.iter().all(|s| s.op == op));
        assert_eq!(spans.to_jsonl().lines().count(), 2);
    }
}
