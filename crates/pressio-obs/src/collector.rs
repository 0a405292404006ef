//! The thread-safe collector and its aggregate report.
//!
//! The collector has two backends chosen at construction time:
//!
//! - **Sharded** ([`Collector::new`], no sink): measurements land in one of
//!   [`N_SHARDS`] independently locked shards selected by thread, so
//!   intra-task worker threads do not serialize on a single mutex. Shards
//!   are merged in fixed order at [`Collector::report`] time; counter
//!   addition commutes and a span name recorded from a single thread
//!   merges as an identity clone, so driver-thread aggregates are exact.
//! - **Single-state** ([`Collector::with_sink`]): every event also appends
//!   to the sink, and trace ordering plus running counter totals need a
//!   global order, so everything goes through one mutex — the pre-sharding
//!   behaviour.

use crate::sink::{EventSink, TraceEvent};
use pressio_core::timing::MeanStd;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::Instant;

/// Number of shards in the sink-less backend. Granularity only: the merged
/// report never depends on it.
pub const N_SHARDS: usize = 16;

/// Thread-safe measurement collector.
///
/// Every measurement updates the in-memory aggregates; when an event sink
/// is attached, a [`TraceEvent`] is also appended for each measurement.
pub struct Collector {
    epoch: Instant,
    state: Mutex<State>,
    /// `Some` in sharded mode (no sink); spans and counters go here.
    shards: Option<Vec<Mutex<Shard>>>,
}

struct State {
    spans: BTreeMap<String, MeanStd>,
    span_parents: BTreeMap<String, String>,
    counters: BTreeMap<String, i64>,
    gauges: BTreeMap<String, f64>,
    task_parents: BTreeMap<String, String>,
    sink: Option<Box<dyn EventSink + Send>>,
}

#[derive(Default)]
struct Shard {
    spans: BTreeMap<String, MeanStd>,
    span_parents: BTreeMap<String, String>,
    counters: BTreeMap<String, i64>,
    task_parents: BTreeMap<String, String>,
}

/// Aggregated view of everything a [`Collector`] saw.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-span-name duration statistics (ms), including `record_ms` feeds.
    pub spans: BTreeMap<String, MeanStd>,
    /// Last observed parent for each span name that had one.
    pub span_parents: BTreeMap<String, String>,
    /// Final counter values.
    pub counters: BTreeMap<String, i64>,
    /// Final gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Dynamic dependency edges: spawned task id → spawning task id.
    pub task_parents: BTreeMap<String, String>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

fn empty_state() -> State {
    State {
        spans: BTreeMap::new(),
        span_parents: BTreeMap::new(),
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
        task_parents: BTreeMap::new(),
        sink: None,
    }
}

/// Stable shard index for the current thread (cached per thread).
fn thread_shard() -> usize {
    thread_local! {
        static IDX: usize = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish() as usize % N_SHARDS
        };
    }
    IDX.with(|i| *i)
}

impl Collector {
    /// Collector with in-memory aggregation only (sharded backend).
    pub fn new() -> Collector {
        Collector {
            epoch: Instant::now(),
            state: Mutex::new(empty_state()),
            shards: Some(
                (0..N_SHARDS)
                    .map(|_| Mutex::new(Shard::default()))
                    .collect(),
            ),
        }
    }

    /// Collector that also appends every event to `sink`. Trace events
    /// need a global order (the JSONL stream carries running counter
    /// totals), so this backend serializes on one mutex.
    pub fn with_sink(sink: Box<dyn EventSink + Send>) -> Collector {
        let mut state = empty_state();
        state.sink = Some(sink);
        Collector {
            epoch: Instant::now(),
            state: Mutex::new(state),
            shards: None,
        }
    }

    /// Microseconds since this collector was created (monotonic).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // a panic while holding the lock poisons it; measurements are
        // append-only so the state stays valid — keep collecting
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_shard<'a>(&self, shards: &'a [Mutex<Shard>]) -> std::sync::MutexGuard<'a, Shard> {
        shards[thread_shard()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Record a closed span (or an externally measured duration).
    pub(crate) fn record_span(&self, name: &str, parent: Option<&str>, dur_ms: f64) {
        if let Some(shards) = &self.shards {
            let mut shard = self.lock_shard(shards);
            shard
                .spans
                .entry(name.to_string())
                .or_default()
                .push(dur_ms);
            if let Some(parent) = parent {
                shard
                    .span_parents
                    .insert(name.to_string(), parent.to_string());
            }
            return;
        }
        let at_us = self.now_us();
        let mut state = self.lock();
        state
            .spans
            .entry(name.to_string())
            .or_default()
            .push(dur_ms);
        if let Some(parent) = parent {
            state
                .span_parents
                .insert(name.to_string(), parent.to_string());
        }
        if let Some(sink) = state.sink.as_mut() {
            sink.record(&TraceEvent::Span {
                name: name.to_string(),
                parent: parent.map(String::from),
                thread: thread_label(),
                end_us: at_us,
                dur_ms,
            });
        }
    }

    /// Record an externally measured duration (ms) under `name`, exactly
    /// like a closed span with no parent.
    pub fn record_ms(&self, name: &str, ms: f64) {
        self.record_span(name, None, ms);
    }

    /// Add `delta` to counter `name`.
    pub fn add_counter(&self, name: &str, delta: i64) {
        if let Some(shards) = &self.shards {
            let mut shard = self.lock_shard(shards);
            *shard.counters.entry(name.to_string()).or_insert(0) += delta;
            return;
        }
        let at_us = self.now_us();
        let mut state = self.lock();
        let total = {
            let slot = state.counters.entry(name.to_string()).or_insert(0);
            *slot += delta;
            *slot
        };
        if let Some(sink) = state.sink.as_mut() {
            sink.record(&TraceEvent::Counter {
                name: name.to_string(),
                delta,
                total,
                at_us,
            });
        }
    }

    /// Record that `task` was spawned as a dynamic follow-up of `parent`
    /// (an edge of the run's dependency graph).
    pub fn record_task_link(&self, task: &str, parent: &str) {
        if let Some(shards) = &self.shards {
            let mut shard = self.lock_shard(shards);
            shard
                .task_parents
                .insert(task.to_string(), parent.to_string());
            return;
        }
        let at_us = self.now_us();
        let mut state = self.lock();
        state
            .task_parents
            .insert(task.to_string(), parent.to_string());
        if let Some(sink) = state.sink.as_mut() {
            sink.record(&TraceEvent::TaskLink {
                task: task.to_string(),
                parent: parent.to_string(),
                at_us,
            });
        }
    }

    /// Set gauge `name` to `value`. Gauges are last-write-wins, which
    /// needs a global order, so they always go through the central state.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let at_us = self.now_us();
        let mut state = self.lock();
        state.gauges.insert(name.to_string(), value);
        if let Some(sink) = state.sink.as_mut() {
            sink.record(&TraceEvent::Gauge {
                name: name.to_string(),
                value,
                at_us,
            });
        }
    }

    /// Snapshot the aggregates. In sharded mode, shards merge in fixed
    /// index order: counters add exactly; a span name recorded from only
    /// one thread merges as an identity clone of its running statistics.
    pub fn report(&self) -> Report {
        let state = self.lock();
        let mut report = Report {
            spans: state.spans.clone(),
            span_parents: state.span_parents.clone(),
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            task_parents: state.task_parents.clone(),
        };
        drop(state);
        if let Some(shards) = &self.shards {
            for shard in shards {
                let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
                for (name, agg) in &shard.spans {
                    report.spans.entry(name.clone()).or_default().merge(agg);
                }
                for (name, parent) in &shard.span_parents {
                    report.span_parents.insert(name.clone(), parent.clone());
                }
                for (name, delta) in &shard.counters {
                    *report.counters.entry(name.clone()).or_insert(0) += delta;
                }
                for (task, parent) in &shard.task_parents {
                    report.task_parents.insert(task.clone(), parent.clone());
                }
            }
        }
        report
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = self.lock().sink.as_mut() {
            sink.flush();
        }
    }
}

fn thread_label() -> String {
    std::thread::current()
        .name()
        .map(String::from)
        .unwrap_or_else(|| format!("{:?}", std::thread::current().id()))
}

impl Report {
    /// Render the report as a Table-2-style text table: spans first
    /// (count, mean ± sd, total), then counters, then gauges.
    pub fn format(&self) -> String {
        let mut s = String::new();
        if !self.spans.is_empty() {
            s.push_str("| span | count | mean ± sd (ms) | total (ms) |\n");
            s.push_str("|---|---|---|---|\n");
            for (name, agg) in &self.spans {
                let label = match self.span_parents.get(name) {
                    Some(parent) => format!("{name} (in {parent})"),
                    None => name.clone(),
                };
                s.push_str(&format!(
                    "| {label} | {} | {} | {:.3} |\n",
                    agg.count(),
                    agg.display(3),
                    agg.mean() * agg.count() as f64,
                ));
            }
        }
        if !self.counters.is_empty() {
            s.push_str("\n| counter | value |\n|---|---|\n");
            for (name, value) in &self.counters {
                s.push_str(&format!("| {name} | {value} |\n"));
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("\n| gauge | value |\n|---|---|\n");
            for (name, value) in &self.gauges {
                s.push_str(&format!("| {name} | {value:.4} |\n"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_collector_use_without_global_install() {
        let c = Collector::new();
        c.record_ms("a", 2.0);
        c.record_ms("a", 4.0);
        c.add_counter("n", 7);
        c.set_gauge("g", 1.5);
        let r = c.report();
        assert_eq!(r.spans["a"].count(), 2);
        assert!((r.spans["a"].mean() - 3.0).abs() < 1e-12);
        assert_eq!(r.counters["n"], 7);
        assert_eq!(r.gauges["g"], 1.5);
    }

    #[test]
    fn report_formats_all_sections() {
        let c = Collector::new();
        c.record_span("child", Some("parent"), 1.0);
        c.add_counter("hits", 3);
        c.set_gauge("util", 0.5);
        let text = c.report().format();
        assert!(text.contains("child (in parent)"));
        assert!(text.contains("| hits | 3 |"));
        assert!(text.contains("| util | 0.5000 |"));
        assert!(text.contains("mean ± sd"));
    }

    #[test]
    fn monotonic_timestamps_advance() {
        let c = Collector::new();
        let a = c.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.now_us();
        assert!(b > a);
    }

    #[test]
    fn single_thread_sharded_aggregates_are_exact() {
        // a name recorded from one thread lands in one shard; report()
        // merges it into an empty accumulator, which is an identity clone
        let c = Collector::new();
        let mut reference = MeanStd::new();
        for i in 0..100 {
            let v = (i as f64 * 0.37).sin() * 5.0 + 10.0;
            c.record_ms("stage", v);
            reference.push(v);
        }
        let r = c.report();
        assert_eq!(r.spans["stage"].count(), reference.count());
        assert_eq!(r.spans["stage"].mean(), reference.mean());
        assert_eq!(r.spans["stage"].std(), reference.std());
    }

    #[test]
    fn concurrent_shards_merge_losslessly() {
        let c = std::sync::Arc::new(Collector::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        c.record_ms(&format!("thread{t}"), i as f64);
                        c.add_counter("ops", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let r = c.report();
        assert_eq!(r.counters["ops"], 8 * 500);
        for t in 0..8 {
            assert_eq!(r.spans[&format!("thread{t}")].count(), 500);
        }
    }

    #[test]
    fn shard_contention_stays_bounded() {
        // regression guard for the sharded backend: hammering the
        // collector from many threads must not serialize into pathological
        // per-op cost (pre-sharding, 8 threads × 20k ops on one mutex was
        // the failure mode this protects against)
        let c = std::sync::Arc::new(Collector::new());
        let ops_per_thread = 20_000usize;
        let start = Instant::now();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    let name = format!("worker{t}");
                    for i in 0..ops_per_thread {
                        c.record_ms(&name, i as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let elapsed = start.elapsed();
        let total_ops = 8 * ops_per_thread;
        let per_op_us = elapsed.as_micros() as f64 / total_ops as f64;
        let r = c.report();
        for t in 0..8 {
            assert_eq!(
                r.spans[&format!("worker{t}")].count(),
                ops_per_thread as u64
            );
        }
        // generous bound (≈50× a contended-mutex budget) so slow CI hosts
        // pass while a true serialization regression still trips it
        assert!(per_op_us < 50.0, "collector per-op cost {per_op_us:.2}µs");
    }
}
