//! The six workloads. Each one sets its inputs up from the seed, runs a
//! timed window against the program with tracing off, and can run a traced
//! pass that times the layers under it from outside.

pub mod codec;
pub mod predict;
pub mod stream;
pub mod table2;

use crate::trace::Recorder;
use pressio_core::Data;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `pressio:abs` on every workload.
pub const ABS: f64 = 1e-4;

/// Metric name → value; the names are those of `BENCHMARK.json`.
pub type Metrics = BTreeMap<std::borrow::Cow<'static, str>, f64>;

/// What a run is given.
pub struct Ctx {
    pub seed: u64,
    /// Scratch directory of this set-up, relative to the working directory.
    pub dir: PathBuf,
}

/// What one timed window saw, from outside the program.
#[derive(Default)]
pub struct Window {
    /// Every operation whose output passed its check.
    pub ops: Vec<Op>,
    /// Outputs checked, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Raw bytes ÷ compressed bytes of the workload's inputs, an exact count.
    pub ratio: f64,
    /// Per-layer metrics the window itself yields.
    pub layers: Metrics,
}

pub trait Workload {
    /// Operations a window must time to be worth reporting.
    fn min_ops(&self) -> usize;

    /// Cost of generating the inputs, ms per MiB.
    fn generate_ms_per_mib(&self) -> f64;

    /// Run operations for `seconds` with tracing off and check every
    /// output. `Err` means the run was not the workload it claims to be.
    fn measure(&mut self, seconds: f64) -> Result<Window, String>;

    /// The traced pass: replay operations in-process for about `seconds`
    /// with spans around the calls into each layer, and time the layers
    /// only a microbenchmark can reach. `op_ms` is the untraced figure
    /// the layers are set against.
    fn trace(
        &mut self,
        seconds: f64,
        op_ms: f64,
        rec: &mut Recorder,
        out: &mut Metrics,
    ) -> Result<(), String>;

    /// Peak resident memory of the process that runs the program's code:
    /// this one, unless the workload drives a child.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(std::process::id())
    }

    /// Stop what set-up started.
    fn finish(self: Box<Self>) {}
}

/// Set a workload up from the seed. This is what `setup_s` times.
pub fn setup(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "predict_cold_1m" => Box::new(predict::Predict::setup(ctx, true)?),
        "predict_hot_8k" => Box::new(predict::Predict::setup(ctx, false)?),
        "sz3_16m" => Box::new(codec::Codec::setup(ctx, "sz3")?),
        "zfp_16m" => Box::new(codec::Codec::setup(ctx, "zfp")?),
        "stream_sz3_256k" => Box::new(stream::Stream::setup(ctx)?),
        "table2_cv" => Box::new(table2::Table2Cv::setup(ctx)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Milliseconds `f` took, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64() * 1e3)
}

/// One timed operation: the number of the input it ran on, and its ms.
pub type Op = (u32, f64);

/// The fastest of a sample of timings. This sandbox shares its memory
/// system with other guests: for seconds at a time memory-bound code runs
/// 1.3–1.8× slower while compute-bound code is untouched, so a window's
/// median moves by 10–30 % between runs of the same binary and its fastest
/// operation by 1–3 %. Every timing the harness reports is therefore the
/// fastest one seen: what the code costs when nothing else is in its way.
pub fn fastest(ms: &[f64]) -> f64 {
    ms.iter().copied().fold(f64::NAN, f64::min)
}

/// Per distinct input, the fastest time seen.
fn fastest_per_input(ops: &[Op]) -> Vec<f64> {
    let mut best: BTreeMap<u32, f64> = BTreeMap::new();
    for &(input, ms) in ops {
        let seen = best.entry(input).or_insert(ms);
        *seen = seen.min(ms);
    }
    best.into_values().collect()
}

/// What an operation takes: per distinct input the fastest time seen (the
/// interference filtered out, see [`fastest`]), then the median over the
/// inputs (so that no one cheap input speaks for the rest).
pub fn typical_ms(ops: &[Op]) -> f64 {
    crate::stats::median(&fastest_per_input(ops))
}

/// What one pass over every input takes: the inputs' fastest times, summed.
pub fn pass_ms(ops: &[Op]) -> f64 {
    fastest_per_input(ops).iter().sum()
}

/// Fastest of `reps` calls of `f`, ms.
pub fn fastest_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let ms: Vec<f64> = (0..reps)
        .map(|_| {
            let (result, ms) = timed(&mut f);
            std::hint::black_box(result);
            ms
        })
        .collect();
    fastest(&ms)
}

/// `VmHWM` of process `pid`, MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("{path} has no VmHWM"))
}

/// The decode check: same dtype, same dims, and `max|x − x̂| ≤ abs`
/// compared as `tests/error_bounds.rs` does (the f32 difference, widened).
pub fn within_bound(original: &Data, decoded: &Data, abs: f64) -> bool {
    if decoded.dtype() != original.dtype() || decoded.dims() != original.dims() {
        return false;
    }
    match (original.as_f32(), decoded.as_f32()) {
        (Ok(a), Ok(b)) => a.iter().zip(b).all(|(x, y)| ((x - y).abs() as f64) <= abs),
        _ => false,
    }
}

/// MB/s (10⁶ bytes) of `bytes` in `ms`.
pub fn mb_s(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / 1e3 / ms
}
