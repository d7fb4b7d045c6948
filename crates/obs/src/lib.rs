//! Zero-overhead-when-off tracing and metrics for the Guardrail pipeline.
//!
//! Every stage boundary of the pipeline — PC levels, MEC enumeration,
//! sketch fills, OptSMT, and the serving path's detect/rectify chunks —
//! brackets itself with a [`Span`] and attaches work-unit counters as span
//! arguments. Where the events go is decided once per process by installing
//! a [`Recorder`]:
//!
//! * [`NoopRecorder`] (the default) — recording stays **off**: the entire
//!   hot-path cost of an instrumentation site is one relaxed atomic load,
//!   and no span allocates. The repo's `tests/alloc_free.rs` pins hold with
//!   this recorder installed.
//! * [`RingRecorder`] — an in-memory ring buffer, drained after a run to
//!   build a Chrome-trace file ([`chrome_trace`]) or inspect events in
//!   tests.
//! * [`JsonlRecorder`] — streams one JSON object per event to a writer
//!   (the same flat-object schema as the bench harness's `CRITERION_JSON`
//!   lines, so traces and bench baselines can be post-processed with one
//!   parser — see [`json`]).
//!
//! ```
//! use guardrail_obs as obs;
//! use std::sync::Arc;
//!
//! let ring = Arc::new(obs::RingRecorder::with_capacity(1024));
//! obs::install(ring.clone());
//! {
//!     let mut span = obs::span("demo_stage");
//!     span.arg("work_units", 42);
//! } // span end recorded here
//! obs::uninstall();
//! let events = ring.take();
//! assert_eq!(events.len(), 2); // start + end
//! let trace = obs::chrome_trace(&events);
//! assert!(trace.contains("\"demo_stage\""));
//! ```
//!
//! # Overhead contract
//!
//! With the [`NoopRecorder`] installed (or nothing installed), every public
//! entry point below checks a single `AtomicBool` with `Ordering::Relaxed`
//! and returns — except [`count`], which feeds the metrics registry and so
//! also checks the metrics gate before it returns. [`span`] hands back a disarmed guard whose `Vec` of
//! arguments is never allocated (`Vec::new` is allocation-free) and whose
//! `Drop` is a branch on a dead flag. No timestamps are taken, no
//! thread-locals touched, no locks acquired.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use chrome::chrome_trace;
pub use event::{parse_jsonl_line, Event, ParsedEvent};
pub use metrics::{arm_metrics, metrics_on, Histogram};
pub use recorder::{JsonlRecorder, NoopRecorder, Recorder, RingRecorder};
pub use report::{PipelineReport, StageReport};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// The one-load fast-path gate. `install` keeps it in sync with the active
/// recorder's [`Recorder::enabled`] verdict, so a Noop install leaves every
/// instrumentation site on its single-atomic-load path.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic span ids, unique per process (0 is reserved for "disarmed" /
/// "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense thread ids for trace lanes (std's `ThreadId` is opaque).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's trace lane.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open span ids, innermost last — gives every span its parent and
    /// guarantees begin/end events balance LIFO per thread (RAII).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> &'static RwLock<Arc<dyn Recorder>> {
    static REGISTRY: OnceLock<RwLock<Arc<dyn Recorder>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Arc::new(NoopRecorder)))
}

/// Installs `recorder` as the process-global event sink and arms (or
/// disarms, for a [`NoopRecorder`]) the fast-path gate.
///
/// Instrumented library code never calls this: recording is an application
/// decision (the CLI's `--trace-out`, a test, a bench run). Installing is
/// not thread-safe *semantically* — events from concurrently running work
/// land in whichever recorder is current — so do it around a run, not
/// during one.
pub fn install(recorder: Arc<dyn Recorder>) {
    let enabled = recorder.enabled();
    *registry().write().unwrap_or_else(|e| e.into_inner()) = recorder;
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Restores the default [`NoopRecorder`], disarming the fast-path gate.
pub fn uninstall() {
    install(Arc::new(NoopRecorder));
}

/// Whether a recorder is armed. The only cost an instrumentation site pays
/// when recording is off.
#[inline(always)]
pub fn recording() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process's trace epoch (the first observability
/// call). Monotonic; shared by every event so traces line up across
/// threads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn dispatch(event: Event) {
    let recorder = registry().read().unwrap_or_else(|e| e.into_inner()).clone();
    recorder.record(event);
}

/// An RAII span guard: records a begin event on creation (when recording)
/// and the matching end event — carrying any [`Span::arg`] attachments — on
/// drop. Disarmed spans (recording off) cost one branch in `Drop` and never
/// allocate.
#[must_use = "a span measures the scope it lives in; binding it to _ ends it immediately"]
#[derive(Debug)]
pub struct Span {
    /// 0 when disarmed.
    id: u64,
    name: &'static str,
    args: Vec<(&'static str, u64)>,
}

/// Opens a span named `name` under the innermost open span of this thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !recording() {
        return Span { id: 0, name, args: Vec::new() };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let tid = TID.with(|t| *t);
    dispatch(Event::SpanStart { id, parent, tid, name, t_ns: now_ns() });
    Span { id, name, args: Vec::new() }
}

impl Span {
    /// Attaches a `key = value` argument to the span's end event (shown as
    /// span args in Perfetto). A no-op on a disarmed span.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.id != 0 {
            self.args.push((key, value));
        }
    }

    /// Whether this span is actually recording (useful to skip arg
    /// computations that are themselves costly).
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.id != 0
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // RAII makes LIFO the overwhelmingly common case; out-of-order
            // drops (spans moved across scopes) are still removed correctly.
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                stack.retain(|&open| open != self.id);
            }
        });
        let tid = TID.with(|t| *t);
        dispatch(Event::SpanEnd {
            id: self.id,
            tid,
            name: self.name,
            t_ns: now_ns(),
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Adds `delta` to the unlabelled counter series `name` in the metrics
/// registry — the same cell a `metrics` scrape renders — and, while a
/// recorder is armed, emits an [`Event::Counter`] sample carrying that
/// cell's new total. With neither recording nor metrics on this is two
/// relaxed loads and a return: the registry is not consulted and nothing
/// allocates.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !(recording() || metrics_on()) {
        return;
    }
    count_slow(name, delta);
}

#[cold]
fn count_slow(name: &'static str, delta: u64) {
    let total = metrics::counter(name, "").fetch_add(delta, Ordering::Relaxed) + delta;
    if recording() {
        let tid = TID.with(|t| *t);
        dispatch(Event::Counter { name, tid, value: total, t_ns: now_ns() });
    }
}

/// Serializes the tests that touch process-global state (the recorder
/// gate, the metrics gate, the metrics registry).
#[cfg(test)]
fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_spans_are_inert() {
        let _guard = test_serial();
        uninstall();
        metrics::arm_metrics(false);
        metrics::reset_metrics();
        assert!(!recording());
        let mut s = span("never_recorded");
        assert!(!s.is_armed());
        s.arg("ignored", 1);
        drop(s);
        count("ignored_counter", 5);
        assert_eq!(metrics::series_count(), 0, "a disarmed count must not register a series");
    }

    #[test]
    fn ring_recorder_captures_nested_spans_and_counters() {
        let _guard = test_serial();
        metrics::reset_metrics();
        let ring = Arc::new(RingRecorder::with_capacity(64));
        install(ring.clone());
        {
            let mut outer = span("outer");
            outer.arg("outer_arg", 7);
            {
                let _inner = span("inner");
                count("events_seen", 3);
            }
        }
        uninstall();
        metrics::reset_metrics();
        let events = ring.take();
        assert_eq!(events.len(), 5, "{events:?}");
        let (outer_id, inner_parent) = match (&events[0], &events[1]) {
            (
                Event::SpanStart { id, parent: 0, name: "outer", .. },
                Event::SpanStart { parent, name: "inner", .. },
            ) => (*id, *parent),
            other => panic!("unexpected prefix {other:?}"),
        };
        assert_eq!(inner_parent, outer_id, "inner span must nest under outer");
        assert!(matches!(&events[2], Event::Counter { name: "events_seen", value: 3, .. }));
        assert!(matches!(&events[3], Event::SpanEnd { name: "inner", .. }));
        match &events[4] {
            Event::SpanEnd { id, name: "outer", args, .. } => {
                assert_eq!(*id, outer_id);
                assert_eq!(args.as_slice(), &[("outer_arg", 7)]);
            }
            other => panic!("expected outer end, got {other:?}"),
        }
    }

    #[test]
    fn count_feeds_the_registry_and_the_trace() {
        let _guard = test_serial();
        uninstall();
        metrics::reset_metrics();
        // Metrics armed, no recorder: the scrape sees the count.
        metrics::arm_metrics(true);
        count("test_served_requests_total", 2);
        count("test_served_requests_total", 3);
        assert!(
            metrics::render_prometheus().contains("test_served_requests_total 5"),
            "{}",
            metrics::render_prometheus()
        );
        // Arming a recorder makes the same cell emit events on top.
        let ring = Arc::new(RingRecorder::with_capacity(16));
        install(ring.clone());
        count("test_served_requests_total", 1);
        uninstall();
        metrics::arm_metrics(false);
        let cell = metrics::counter("test_served_requests_total", "");
        assert_eq!(cell.load(Ordering::Relaxed), 6);
        metrics::reset_metrics();
        let events = ring.take();
        assert!(
            matches!(
                events.as_slice(),
                [Event::Counter { name: "test_served_requests_total", value: 6, .. }]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn noop_install_keeps_gate_closed() {
        let _guard = test_serial();
        install(Arc::new(NoopRecorder));
        assert!(!recording(), "installing Noop must leave the fast path disarmed");
        uninstall();
    }

    #[test]
    fn counters_accumulate_while_recording() {
        let _guard = test_serial();
        metrics::reset_metrics();
        let ring = Arc::new(RingRecorder::with_capacity(16));
        install(ring.clone());
        count("accum", 2);
        count("accum", 3);
        assert_eq!(metrics::counter("accum", "").load(Ordering::Relaxed), 5);
        uninstall();
        metrics::reset_metrics();
        let values: Vec<u64> = ring
            .take()
            .into_iter()
            .filter_map(|e| match e {
                Event::Counter { name: "accum", value, .. } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(values, vec![2, 5], "counter events carry running totals");
    }
}
