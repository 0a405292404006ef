//! Observability integration: the trace aggregates must agree *exactly*
//! with the numbers the experiment driver reports, and the queue's
//! retry/panic counters must match its returned statistics.
//!
//! These tests install the process-global collector, so they serialize
//! through a shared lock and live in their own integration binary (unit
//! tests of this crate also exercise `run_table2`, which would otherwise
//! record into whichever collector happens to be installed).

use pressio_bench_infra::experiment::{run_table2, Table2Config};
use pressio_bench_infra::queue::{
    run_tasks, run_tasks_dynamic, DynamicOutcome, PoolConfig, Scheduling, Task,
};
use pressio_core::error::Error;
use pressio_core::timing::MeanStd;
use pressio_core::Options;
use pressio_dataset::Hurricane;
use pressio_obs::{TraceEvent, VecSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The system allocator, counting what each thread allocates, so a test
/// reads its own thread's count while the others run beside it.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn assert_agrees(report: &pressio_obs::Report, name: &str, printed: &MeanStd) {
    let traced = report
        .spans
        .get(name)
        .unwrap_or_else(|| panic!("span '{name}' missing from trace aggregates"));
    assert_eq!(traced.count(), printed.count(), "{name}: count");
    assert_eq!(traced.mean(), printed.mean(), "{name}: mean");
    assert_eq!(traced.std(), printed.std(), "{name}: std");
}

/// The tentpole acceptance check: every timing the Table 2 driver
/// prints is also present in the trace aggregates with identical
/// mean/std/count, because both are fed the same measured values.
#[test]
fn trace_aggregates_agree_exactly_with_table2() {
    let _guard = exclusive();
    let collector = Arc::new(pressio_obs::Collector::new());
    pressio_obs::install(collector.clone());
    let mut hurricane = Hurricane::with_dims(16, 16, 8, 2)
        .with_fields(&["P", "U", "QRAIN", "TC"])
        .unwrap();
    let cfg = Table2Config {
        schemes: vec!["khan2023".into(), "jin2022".into(), "rahman2023".into()],
        compressors: vec!["sz3".into(), "zfp".into()],
        abs_bounds: vec![1e-4],
        folds: 3,
        seed: 7,
        workers: 2,
        checkpoint: None,
    };
    let table = run_table2(&mut hurricane, &cfg).unwrap();
    pressio_obs::uninstall();
    let report = collector.report();

    for b in &table.baselines {
        assert_agrees(
            &report,
            &format!("table2:{}:compress_ms", b.compressor),
            &b.compress_ms,
        );
        assert_agrees(
            &report,
            &format!("table2:{}:decompress_ms", b.compressor),
            &b.decompress_ms,
        );
    }
    for m in table.methods.iter().filter(|m| m.supported) {
        let stage = |s: &str| format!("table2:{}:{}:{s}", m.compressor, m.scheme);
        for (name, printed) in [
            ("error_agnostic", &m.error_agnostic_ms),
            ("error_dependent", &m.error_dependent_ms),
            ("training", &m.training_ms),
            ("fit", &m.fit_ms),
            ("inference", &m.inference_ms),
        ] {
            if let Some(printed) = printed {
                assert_agrees(&report, &stage(name), printed);
            }
        }
    }

    // the pipeline spans and codec counters made it into the same trace
    assert!(report.spans.contains_key("table2:load"));
    assert!(report.spans.contains_key("queue:task"));
    assert!(report.spans.contains_key("sz3:compress"));
    assert!(report.spans.contains_key("zfp:compress"));
    // the totals include tiny sample-block compressions from trial-based
    // schemes (header overhead dominates those), so only sanity-check them
    assert!(report.counters["sz3:compress.bytes_in"] > 0);
    assert!(report.counters["sz3:compress.bytes_out"] > 0);
    assert_eq!(
        report.counters["table2:checkpoint.miss"] as usize,
        table.checkpoint_misses
    );
    // per-worker utilization gauges from the truth-collection pool
    assert!(report.gauges.contains_key("queue:worker.0.utilization"));
    assert!(report.gauges.contains_key("queue:pool.wall_ms"));
}

/// The SZ lossless stage in the trace: a `sz3:huffman` and a `sz3:lzss` span
/// under every `sz3:compress`, and one counter per stream saying what the
/// dictionary stage did with it.
#[test]
fn sz_lossless_stage_says_what_the_dictionary_stage_did() {
    use pressio_core::Compressor;
    let _guard = exclusive();
    let collector = Arc::new(pressio_obs::Collector::new());
    pressio_obs::install(collector.clone());
    let mut sz = pressio_sz::SzCompressor::new();
    // a fixed predictor: the outcomes below are those of Lorenzo's symbols
    sz.set_options(&Options::new().with("sz3:predictor", "lorenzo"))
        .unwrap();
    for (field, [nx, ny, nz]) in [
        // a sparse field: LZSS halves its coded symbols — kept
        ("QCLOUD", [16, 16, 8]),
        // a small dense field: tried whole, came out larger — discarded
        ("U", [16, 16, 8]),
        // a dense field past the trial threshold: sampled, never run — skipped
        ("P", [64, 64, 32]),
    ] {
        let data = Hurricane::with_dims(nx, ny, nz, 1).generate(field, 0);
        sz.compress(&data).unwrap();
    }
    pressio_obs::uninstall();
    let report = collector.report();
    for stage in ["sz3:huffman", "sz3:lzss"] {
        assert_eq!(report.spans[stage].count(), 3, "{stage}");
        assert_eq!(report.span_parents[stage], "sz3:compress", "{stage}");
    }
    for outcome in ["kept", "discarded", "skipped"] {
        assert_eq!(
            report.counters[&format!("sz3:lzss.{outcome}")],
            1,
            "{outcome}"
        );
    }
}

/// The SZ stages in a production trace, as the benchmark's replay shows
/// them: `sz3:predict` under `sz3:compress`, and `sz3:estimate` and
/// `sz3:select` beside it when the predictor is `auto`'s to choose (with one
/// `sz3:auto.<predictor>` counter per choice); `sz3:parse` and `sz3:reconstruct` under
/// `sz3:decompress`; and how much of the field the quantizer gave up on, as
/// `sz3:escapes` of `sz3:elements`.
#[test]
fn sz_stages_and_escapes_are_in_the_trace() {
    use pressio_core::Compressor;
    let _guard = exclusive();
    let collector = Arc::new(pressio_obs::Collector::new());
    pressio_obs::install(collector.clone());
    let (mut elements, mut escapes) = (0, 0);
    let mut chosen = String::new();
    for predictor in ["lorenzo", "interp", "auto"] {
        let mut sz = pressio_sz::SzCompressor::new();
        sz.set_options(&Options::new().with("sz3:predictor", predictor))
            .unwrap();
        // pressure at 1e-4: a share of its values is stored verbatim
        let data = Hurricane::with_dims(24, 20, 6, 1).generate("P", 0);
        let bytes = sz.compress(&data).unwrap();
        sz.decompress(&bytes, data.dtype(), data.dims()).unwrap();
        let parsed = pressio_sz::codec::parse_par(&bytes, 1).unwrap();
        elements += parsed.symbols.len() as i64;
        escapes += parsed.unpredictable.len() as i64;
        if predictor == "auto" {
            chosen = format!("sz3:auto.{}", parsed.predictor.name());
        }
    }
    pressio_obs::uninstall();
    let report = collector.report();
    for (stage, parent, count) in [
        ("sz3:estimate", "sz3:compress", 1),
        ("sz3:select", "sz3:compress", 1),
        ("sz3:predict", "sz3:compress", 3),
        ("sz3:parse", "sz3:decompress", 3),
        ("sz3:reconstruct", "sz3:decompress", 3),
    ] {
        assert_eq!(report.spans[stage].count(), count, "{stage}");
        assert_eq!(report.span_parents[stage], parent, "{stage}");
    }
    let choices = report
        .counters
        .iter()
        .filter(|c| c.0.starts_with("sz3:auto."));
    assert_eq!(choices.collect::<Vec<_>>(), [(&chosen, &1)]);
    assert!(escapes > 0 && escapes < elements);
    assert_eq!(report.counters["sz3:elements"], elements);
    assert_eq!(report.counters["sz3:escapes"], escapes);
}

/// How sparse a field was to ZFP and what a block cost it, as the four
/// `zfp:` counters: checked against a count made from the input — a slab
/// of zeros, a NaN, and pressure everywhere else.
#[test]
fn zfp_block_counters_match_a_count_made_from_the_input() {
    use pressio_core::Compressor;
    let _guard = exclusive();
    let (nx, ny, nz) = (24, 20, 11);
    let mut values = Hurricane::with_dims(nx, ny, nz, 1)
        .generate("P", 0)
        .as_f32()
        .unwrap()
        .to_vec();
    values[..nx * ny * 4].fill(0.0); // the first layer of blocks
    values[nx * ny * 5 + 7] = f32::NAN;
    let data = pressio_core::Data::from_f32(vec![nx, ny, nz], values.clone());

    // block by block, from the input alone (edge blocks replicate values
    // that are in the volume, so padding changes no classification)
    let (mut blocks, mut zero, mut raw) = (0, 0, 0);
    for (bz, by, bx) in (0..nz.div_ceil(4))
        .flat_map(|bz| (0..ny / 4).flat_map(move |by| (0..nx / 4).map(move |bx| (bz, by, bx))))
    {
        let block: Vec<f32> = (bz * 4..(bz * 4 + 4).min(nz))
            .flat_map(|z| (by * 4..by * 4 + 4).map(move |y| (z * ny + y) * nx + bx * 4))
            .flat_map(|row| values[row..row + 4].iter().copied())
            .collect();
        blocks += 1;
        raw += block.iter().any(|v| !v.is_finite()) as i64;
        zero += block.iter().all(|&v| v == 0.0) as i64;
    }
    assert!(zero == 30 && raw == 1 && blocks == 90);

    let collector = Arc::new(pressio_obs::Collector::new());
    pressio_obs::install(collector.clone());
    let zfp = pressio_zfp::ZfpCompressor::new();
    let bytes = zfp.compress(&data).unwrap();
    let after_compress = collector.report().counters;
    zfp.decompress(&bytes, data.dtype(), data.dims()).unwrap();
    pressio_obs::uninstall();
    let counters = collector.report().counters;

    assert_eq!(after_compress["zfp:blocks"], blocks);
    assert_eq!(after_compress["zfp:blocks.zero"], zero);
    assert_eq!(after_compress["zfp:blocks.raw"], raw);
    // a coded block of pressure at 1e-4 costs some planes and not all 58
    let planes = after_compress["zfp:planes"];
    let coded = blocks - zero - raw;
    assert!(planes > 10 * coded && planes < 58 * coded, "{planes}");
    // the decoder meets the same blocks and enters the same planes
    for (key, value) in &after_compress {
        if key.starts_with("zfp:blocks") || key == "zfp:planes" {
            assert_eq!(counters[key], 2 * value, "{key}");
        }
    }
}

/// Fault-tolerance: a task that dies on worker k is retried on a different
/// worker under DataAffinity, and the observability counters tell the same
/// story as the returned `TaskOutcome`s / `PoolStats`.
#[test]
fn queue_retry_and_panic_counters_match_outcomes() {
    let _guard = exclusive();
    let collector = Arc::new(pressio_obs::Collector::new());
    pressio_obs::install(collector.clone());

    let tasks: Vec<Task> = (0..6)
        .map(|i| Task::new(format!("task{i}"), i as u64, Options::new()))
        .collect();
    let first_worker = Arc::new(AtomicUsize::new(usize::MAX));
    let fw = first_worker.clone();
    let (outcomes, stats) = run_tasks(
        tasks,
        PoolConfig {
            workers: 2,
            scheduling: Scheduling::DataAffinity,
            max_attempts: 3,
            retry_backoff_ms: 0,
        },
        Arc::new(move |t: &Task, w| {
            if t.id == "task2" {
                // first attempt panics (a buggy metric); a retry landing on
                // the same worker would fail again, so success proves the
                // retry moved
                match fw.compare_exchange(usize::MAX, w, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(_) => panic!("injected metric bug"),
                    Err(prev) if prev == w => {
                        return Err(Error::TaskFailed("still on the same worker?".into()))
                    }
                    Err(_) => {}
                }
            }
            Ok(Options::new().with("worker", w as u64))
        }),
    );
    pressio_obs::uninstall();
    let report = collector.report();

    assert_eq!(outcomes.len(), 6);
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
    let retried = outcomes.iter().find(|o| o.id == "task2").unwrap();
    assert_eq!(retried.attempts, 2);
    let final_worker = retried.result.as_ref().unwrap().get_u64("worker").unwrap() as usize;
    assert_ne!(
        final_worker,
        first_worker.load(Ordering::SeqCst),
        "retry must move to a different worker"
    );

    // counters agree with the pool's own accounting
    assert_eq!(report.counters["queue:retry"], stats.retries as i64);
    assert_eq!(report.counters["queue:panic"], 1);
    let attempts: usize = outcomes.iter().map(|o| o.attempts).sum();
    assert_eq!(report.spans["queue:task"].count(), attempts as u64);
}

/// Dynamic-dependency linkage: a run where tasks spawn follow-ups (which
/// spawn further follow-ups) must leave enough `TaskLink` events in the
/// trace to reconstruct the full spawn graph afterwards.
#[test]
fn dynamic_task_graph_is_reconstructible_from_trace() {
    let _guard = exclusive();
    let sink = VecSink::default();
    let events = sink.0.clone();
    let collector = Arc::new(pressio_obs::Collector::with_sink(Box::new(sink)));
    pressio_obs::install(collector.clone());

    // two roots; r0 invalidates two metrics, one of which needs a second
    // level of recomputation
    let tasks = vec![
        Task::new("r0", 0, Options::new()),
        Task::new("r1", 1, Options::new()),
    ];
    let (outcomes, _) = run_tasks_dynamic(
        tasks,
        PoolConfig {
            workers: 2,
            scheduling: Scheduling::DataAffinity,
            max_attempts: 1,
            retry_backoff_ms: 0,
        },
        100,
        Arc::new(|task: &Task, _w| {
            let follow_ups = match task.id.as_str() {
                "r0" => vec![
                    Task::new("r0/psnr", 0, Options::new()),
                    Task::new("r0/ssim", 0, Options::new()),
                ],
                "r0/ssim" => vec![Task::new("r0/ssim/window", 0, Options::new())],
                _ => Vec::new(),
            };
            Ok(DynamicOutcome {
                value: Options::new(),
                follow_ups,
            })
        }),
    );
    pressio_obs::flush();
    pressio_obs::uninstall();
    assert_eq!(outcomes.len(), 5);

    // reconstruct the graph from trace events alone
    let mut edges: BTreeMap<String, String> = BTreeMap::new();
    for event in events.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        if let TraceEvent::TaskLink { task, parent, .. } = event {
            edges.insert(task.clone(), parent.clone());
        }
    }
    let expected: BTreeMap<String, String> = [
        ("r0/psnr", "r0"),
        ("r0/ssim", "r0"),
        ("r0/ssim/window", "r0/ssim"),
    ]
    .into_iter()
    .map(|(t, p)| (t.to_string(), p.to_string()))
    .collect();
    assert_eq!(edges, expected);
    // roots have no incoming edge
    assert!(!edges.contains_key("r0"));
    assert!(!edges.contains_key("r1"));
    // the aggregate report carries the same graph
    assert_eq!(collector.report().task_parents, expected);
}

/// Table 2's task graph in the trace: `run_tasks` links every task to the
/// stage Table 2 stamped on it, so the links per stage count the graph — a
/// truth per (compressor, dataset, bound), a feature set per (scheme,
/// dataset), a fold per (compressor, trained scheme, fold). A feature set
/// runs its scheme's error-agnostic stage once for every compressor, so
/// both codec rows print the same samples.
#[test]
fn table2_task_graph_is_linked_by_stage_in_the_trace() {
    let _guard = exclusive();
    let sink = VecSink::default();
    let events = sink.0.clone();
    let collector = Arc::new(pressio_obs::Collector::with_sink(Box::new(sink)));
    pressio_obs::install(collector.clone());
    // 3 fields × 2 timesteps = 6 datasets
    let mut hurricane = Hurricane::with_dims(12, 12, 6, 2)
        .with_fields(&["P", "U", "QRAIN"])
        .unwrap();
    let cfg = Table2Config {
        schemes: vec!["khan2023".into(), "jin2022".into(), "rahman2023".into()],
        compressors: vec!["sz3".into(), "zfp".into()],
        abs_bounds: vec![1e-6, 1e-4],
        folds: 3,
        seed: 7,
        workers: 1,
        checkpoint: None,
    };
    let table = run_table2(&mut hurricane, &cfg).unwrap();
    pressio_obs::flush();
    pressio_obs::uninstall();

    let mut per_stage: BTreeMap<String, usize> = BTreeMap::new();
    for event in events.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        if let TraceEvent::TaskLink { parent, .. } = event {
            *per_stage.entry(parent.clone()).or_default() += 1;
        }
    }
    let expected = [
        // 3 schemes × 6 datasets
        ("table2:features", 18),
        // rahman2023, the one trained scheme, on 2 codecs × 3 folds
        ("table2:fold", 6),
        // 2 codecs × 6 datasets × 2 bounds
        ("table2:truth", 24),
    ];
    let expected = expected.map(|(stage, n)| (stage.to_string(), n));
    assert_eq!(per_stage, BTreeMap::from(expected));

    let report = collector.report();
    // once per (scheme, dataset), not once per (compressor, scheme, dataset)
    assert_eq!(report.counters["table2:features.agnostic"], 18);
    assert_eq!(report.span_parents["table2:sz3:truth"], "queue:task");
    let rahman = |codec: &str| {
        let row = table
            .methods
            .iter()
            .find(|m| m.scheme == "rahman2023" && m.compressor == codec);
        let e_agn = row.unwrap().error_agnostic_ms.clone().unwrap();
        (e_agn.count(), e_agn.mean().to_bits(), e_agn.std().to_bits())
    };
    assert_eq!(rahman("sz3"), rahman("zfp"));
    assert_eq!(rahman("sz3").0, 6);
}

/// With tracing off, every record entry point allocates nothing: a span
/// guard, a duration, a counter, a gauge, a task edge and a flush, each a
/// thousand times, against a counting allocator. (That they take no lock is
/// `pressio-obs`'s own `untraced_records_never_touch_the_registry_lock`.)
#[test]
fn untraced_record_path_allocates_nothing() {
    let _guard = exclusive();
    pressio_obs::uninstall();
    let before = ALLOCATIONS.with(Cell::get);
    for i in 0..1_000 {
        let span = pressio_obs::span("obs_untraced:span");
        pressio_obs::record_ms("obs_untraced:stage", f64::from(i));
        pressio_obs::add_counter("obs_untraced:counter", 1);
        pressio_obs::set_gauge("obs_untraced:gauge", f64::from(i));
        pressio_obs::task_link("obs_untraced:task", "obs_untraced:parent");
        pressio_obs::flush();
        assert!(span.name().is_none());
        assert!(pressio_obs::global().is_none());
    }
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 0);
    // the allocator does count this thread
    std::hint::black_box(vec![0u8; 64]);
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 1);
}

/// CPU time the calling thread has run, in ms. Unlike the wall clock it
/// does not count time the thread sat preempted, so a busy host does not
/// add to whichever side of a comparison it happened to land on.
#[cfg(target_os = "linux")]
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec (two C longs on Linux) for
    // the duration of the call, and the clock id is Linux's own.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Elsewhere the wall clock stands in for the thread's CPU time.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ms() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// Overhead budget: running an instrumented workload with the (sharded)
/// collector installed must cost within 5% of running it with tracing
/// disabled. The cost is the thread's CPU time, so time spent preempted by
/// other processes is charged to neither side. Runs go in alternated
/// pairs, the order flipped every pair, and the overhead is the median of
/// the pairs' differences: both runs of a pair see the same host, and one
/// run slowed by a neighbour moves the median by one place where it would
/// move a lone minimum by its whole size.
#[test]
fn traced_run_overhead_stays_within_budget() {
    let _guard = exclusive();
    pressio_obs::uninstall();

    // ~200 recorded stages of pure compute, a realistic span-to-work ratio
    fn workload() -> f64 {
        let mut acc = 0.0f64;
        for stage in 0..200u64 {
            let start = Instant::now();
            for i in 0..2_000u64 {
                acc += ((i * stage) as f64).sqrt().sin();
            }
            pressio_obs::record_ms("obs_budget:stage", start.elapsed().as_secs_f64() * 1e3);
        }
        acc
    }
    fn run(traced: bool) -> f64 {
        let collector = traced.then(|| Arc::new(pressio_obs::Collector::new()));
        if let Some(collector) = &collector {
            pressio_obs::install(collector.clone());
        }
        let start = thread_cpu_ms();
        std::hint::black_box(workload());
        let ms = thread_cpu_ms() - start;
        if let Some(collector) = collector {
            pressio_obs::uninstall();
            assert_eq!(collector.report().spans["obs_budget:stage"].count(), 200);
        }
        ms
    }
    fn median(mut values: Vec<f64>) -> f64 {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    }

    let (mut untraced, mut overheads) = (Vec::new(), Vec::new());
    for pair in 0..41 {
        let (untraced_ms, traced_ms) = if pair % 2 == 0 {
            let untraced_ms = run(false);
            (untraced_ms, run(true))
        } else {
            let traced_ms = run(true);
            (run(false), traced_ms)
        };
        untraced.push(untraced_ms);
        overheads.push(traced_ms - untraced_ms);
    }
    let (untraced_ms, overhead_ms) = (median(untraced), median(overheads));

    // 5% relative budget with a small absolute floor so timer quantization
    // on very fast hosts cannot trip the assert
    let budget_ms = (untraced_ms * 0.05).max(0.5);
    assert!(
        overhead_ms <= budget_ms,
        "tracing costs {overhead_ms:.3}ms over untraced {untraced_ms:.3}ms (medians of 41 pairs), \
         past the budget {budget_ms:.3}ms"
    );
}
