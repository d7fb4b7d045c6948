//! Pluggable event sinks.

use crate::event::Event;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Mutex;

/// Where events go once the fast-path gate is open.
///
/// Implementations must be cheap enough to sit behind a hot loop at chunk
/// granularity and must tolerate concurrent `record` calls (the serving
/// path emits from worker threads).
pub trait Recorder: Send + Sync {
    /// Whether installing this recorder should arm the instrumentation
    /// fast path. The default is `true`; [`NoopRecorder`] answers `false`,
    /// which is what makes "Noop installed" indistinguishable from
    /// "nothing installed" on the hot path.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&self, event: Event);
}

/// Discards everything — and, via [`Recorder::enabled`], keeps the global
/// gate closed so instrumentation sites never even construct events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// An in-memory ring buffer of the most recent events. The CLI's
/// `--trace-out` drains one of these into a Chrome-trace file after the
/// run; tests use it to assert on emitted events.
#[derive(Debug)]
pub struct RingRecorder {
    buf: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: Mutex<u64>,
}

impl RingRecorder {
    /// A ring holding at most `capacity` events; older events are dropped
    /// first (and counted — see [`RingRecorder::dropped`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity: capacity.max(1),
            dropped: Mutex::new(0),
        }
    }

    /// Takes every buffered event, oldest first, leaving the ring empty.
    pub fn take(&self) -> Vec<Event> {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Recorder for RingRecorder {
    fn record(&self, event: Event) {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() == self.capacity {
            buf.pop_front();
            *self.dropped.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        }
        buf.push_back(event);
    }
}

/// Streams each event as one JSONL line to a writer (a file, a pipe, a
/// `Vec<u8>` in tests). Lines use the shared flat-object schema of
/// [`Event::to_jsonl`].
pub struct JsonlRecorder {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder").finish_non_exhaustive()
    }
}

impl JsonlRecorder {
    /// Wraps `writer`; each event becomes one line. Write errors are
    /// swallowed — observability must never fail the observed pipeline.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self { writer: Mutex::new(writer) }
    }

    /// Opens (truncates) `path` and streams events to it.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let _ = self.writer.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: Event) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(w, "{}", event.to_jsonl());
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(value: u64) -> Event {
        Event::Counter { name: "c", tid: 1, value, t_ns: value }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = RingRecorder::with_capacity(3);
        for v in 0..5 {
            ring.record(counter(v));
        }
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring
            .take()
            .into_iter()
            .map(|e| match e {
                Event::Counter { value, .. } => value,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_recorder_writes_parseable_lines() {
        use std::sync::{Arc, Mutex};

        /// A `Write` handle tests can read back after the recorder flushes.
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared::default();
        let rec = JsonlRecorder::new(Box::new(shared.clone()));
        rec.record(Event::SpanStart { id: 1, parent: 0, tid: 1, name: "s", t_ns: 5 });
        rec.record(counter(9));
        rec.flush();
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::event::parse_jsonl_line(line).unwrap();
        }
    }
}
