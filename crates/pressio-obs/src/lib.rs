//! # pressio-obs
//!
//! Structured tracing and metrics for the predict/bench pipeline — the
//! observability layer the paper's evaluation implies but never shows:
//! where does a Table 2 run actually spend its time, per stage, per
//! worker, per codec?
//!
//! Three concepts, no external dependencies:
//!
//! - **Spans** — nestable named timers with monotonic timestamps. A span
//!   records itself when dropped; nesting is tracked per thread, so a
//!   `table2:truth` span running inside a `queue:task` span carries its
//!   parent's name in the trace.
//! - **Counters and gauges** — named monotonically-accumulated deltas
//!   (`queue:retry`, `sz3:compress.bytes_out`) and last-write-wins values
//!   (`queue:worker.0.utilization`).
//! - **Sinks** — every measurement feeds an in-memory aggregate
//!   ([`Report`]: per-name `MeanStd`, rendered Table-2 style) and,
//!   optionally, an append-only JSON-lines event sink
//!   ([`JsonlSink`]) using the same torn-line-tolerant conventions as the
//!   bench checkpoint store: one self-contained JSON object per line, so
//!   a reader skips a torn trailing line instead of failing.
//!
//! ## Global collector
//!
//! Instrumented code calls the free functions ([`span`], [`record_ms`],
//! [`add_counter`], [`set_gauge`]). They are near-free no-ops until a
//! [`Collector`] is [`install`]ed — a single relaxed atomic load on the
//! disabled path — so production code paths stay instrumented
//! unconditionally (the <5% overhead budget of the bench harness).
//!
//! ```
//! let collector = std::sync::Arc::new(pressio_obs::Collector::new());
//! pressio_obs::install(collector.clone());
//! {
//!     let _outer = pressio_obs::span("load");
//!     let _inner = pressio_obs::span("load.parse");
//!     pressio_obs::add_counter("records", 3);
//! }
//! pressio_obs::uninstall();
//! let report = collector.report();
//! assert_eq!(report.spans["load.parse"].count(), 1);
//! assert_eq!(report.counters["records"], 3);
//! ```

#![warn(missing_docs)]

mod collector;
mod sink;

pub use collector::{Collector, Report};
pub use sink::{read_trace, EventSink, JsonlSink, TraceEvent, VecSink};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Arc<Collector>>> = Mutex::new(None);

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Install `collector` as the process-global collector, enabling the free
/// functions. Replaces any previously installed collector.
pub fn install(collector: Arc<Collector>) {
    *GLOBAL.lock().unwrap_or_else(|e| e.into_inner()) = Some(collector);
    ENABLED.store(true, Ordering::Release);
}

/// Remove and return the global collector, disabling the free functions.
pub fn uninstall() -> Option<Arc<Collector>> {
    ENABLED.store(false, Ordering::Release);
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).take()
}

/// Whether a global collector is installed.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// The installed collector, if any.
pub fn global() -> Option<Arc<Collector>> {
    if !is_enabled() {
        return None;
    }
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Open a span named `name`. The returned guard records the span's
/// duration into the global collector when dropped; a no-op guard is
/// returned when no collector is installed.
pub fn span(name: impl Into<String>) -> Span {
    match global() {
        Some(collector) => Span::start(name.into(), collector),
        None => Span { active: None },
    }
}

/// Record a measurement of `ms` milliseconds under `name`, exactly as a
/// closed span would. This is the bridge for code that already measures
/// durations itself (e.g. the Table 2 driver's `time_ms` calls): feeding
/// the same value here guarantees the trace aggregates agree with the
/// numbers the caller prints.
pub fn record_ms(name: &str, ms: f64) {
    if let Some(c) = global() {
        c.record_ms(name, ms);
    }
}

/// Add `delta` to the counter `name`.
pub fn add_counter(name: &str, delta: i64) {
    if let Some(c) = global() {
        c.add_counter(name, delta);
    }
}

/// Set the gauge `name` to `value` (last write wins).
pub fn set_gauge(name: &str, value: f64) {
    if let Some(c) = global() {
        c.set_gauge(name, value);
    }
}

/// Record that `task` was dynamically spawned by `parent` (a dependency
/// edge; exported as a [`TraceEvent::TaskLink`] when a sink is attached).
pub fn task_link(task: &str, parent: &str) {
    if let Some(c) = global() {
        c.record_task_link(task, parent);
    }
}

/// Flush the global collector's event sink, if any.
pub fn flush() {
    if let Some(c) = global() {
        c.flush();
    }
}

/// RAII guard for an open span; records on drop.
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: String,
    parent: Option<String>,
    collector: Arc<Collector>,
    start: Instant,
}

impl Span {
    fn start(name: String, collector: Arc<Collector>) -> Span {
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().cloned();
            stack.push(name.clone());
            parent
        });
        Span {
            active: Some(ActiveSpan {
                name,
                parent,
                collector,
                start: Instant::now(),
            }),
        }
    }

    /// The span's name (`None` for a disabled no-op guard).
    pub fn name(&self) -> Option<&str> {
        self.active.as_ref().map(|a| a.name.as_str())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let elapsed_ms = active.start.elapsed().as_secs_f64() * 1e3;
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                // spans are strictly nested per thread, so the top entry is
                // ours unless a guard was leaked across threads; search
                // defensively rather than assume
                if let Some(pos) = stack.iter().rposition(|n| n == &active.name) {
                    stack.remove(pos);
                }
            });
            active
                .collector
                .record_span(&active.name, active.parent.as_deref(), elapsed_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The global collector is process-wide state: tests touching it must
    /// not interleave.
    static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_paths_are_no_ops() {
        let _guard = exclusive();
        uninstall();
        assert!(!is_enabled());
        let s = span("ignored");
        assert!(s.name().is_none());
        drop(s);
        record_ms("ignored", 1.0);
        add_counter("ignored", 1);
        set_gauge("ignored", 1.0);
        flush();
    }

    /// With tracing off every record entry point is one atomic load: each
    /// completes while another thread holds the registry lock. (That they
    /// allocate nothing is `obs_integration.rs`'s counting-allocator test.)
    #[test]
    fn untraced_records_never_touch_the_registry_lock() {
        let _guard = exclusive();
        uninstall();
        let held = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let (done, finished) = std::sync::mpsc::channel();
        let recorder = std::thread::spawn(move || {
            drop(span("untraced"));
            record_ms("untraced", 1.0);
            add_counter("untraced", 1);
            set_gauge("untraced", 1.0);
            task_link("untraced", "parent");
            flush();
            let _ = done.send(global().is_none());
        });
        let answered = finished.recv_timeout(std::time::Duration::from_secs(30));
        drop(held);
        recorder.join().unwrap();
        assert_eq!(answered, Ok(true), "an untraced record waited on the lock");
    }

    #[test]
    fn spans_nest_and_attribute_parents() {
        let _guard = exclusive();
        let collector = Arc::new(Collector::new());
        install(collector.clone());
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        uninstall();
        let report = collector.report();
        assert_eq!(report.spans["outer"].count(), 1);
        assert_eq!(report.spans["inner"].count(), 2);
        assert_eq!(report.span_parents["inner"], "outer");
        assert!(!report.span_parents.contains_key("outer"));
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _guard = exclusive();
        let collector = Arc::new(Collector::new());
        install(collector.clone());
        add_counter("retries", 2);
        add_counter("retries", 3);
        set_gauge("util", 0.25);
        set_gauge("util", 0.75);
        uninstall();
        let report = collector.report();
        assert_eq!(report.counters["retries"], 5);
        assert_eq!(report.gauges["util"], 0.75);
    }

    #[test]
    fn record_ms_matches_external_accumulator_exactly() {
        let _guard = exclusive();
        let collector = Arc::new(Collector::new());
        install(collector.clone());
        let mut external = pressio_core::timing::MeanStd::new();
        for ms in [1.5, 2.25, 10.0, 0.125] {
            external.push(ms);
            record_ms("stage", ms);
        }
        uninstall();
        let agg = &collector.report().spans["stage"];
        assert_eq!(agg.mean(), external.mean());
        assert_eq!(agg.std(), external.std());
        assert_eq!(agg.count(), external.count());
    }

    #[test]
    fn concurrent_recording_is_safe_and_lossless() {
        let _guard = exclusive();
        let collector = Arc::new(Collector::new());
        install(collector.clone());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let _s = span("work");
                        add_counter("ops", 1);
                        record_ms(&format!("thread.{t}"), i as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        uninstall();
        let report = collector.report();
        assert_eq!(report.counters["ops"], 800);
        assert_eq!(report.spans["work"].count(), 800);
        for t in 0..8 {
            assert_eq!(report.spans[&format!("thread.{t}")].count(), 100);
        }
    }

    #[test]
    fn uninstall_returns_the_installed_collector() {
        let _guard = exclusive();
        let collector = Arc::new(Collector::new());
        install(collector.clone());
        let back = uninstall().unwrap();
        assert!(Arc::ptr_eq(&collector, &back));
        assert!(uninstall().is_none());
    }
}
