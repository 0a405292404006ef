//! Lane-strided reduction kernels for the feature-extraction hot loops.
//!
//! The naive single-accumulator reductions in the feature extractors
//! serialize on the floating-point add's latency; these kernels keep
//! [`LANES`] independent accumulators (element `i` lands in lane
//! `i % LANES`) so the loop body is branch-free and autovectorizes, then
//! collapse with the fixed pairwise tree in [`pressio_core::lanes::fold`].
//!
//! Every kernel is generic over the element type it reads ([`Widen`]):
//! it walks the typed buffer and widens in-register, so `&[f32]` costs no
//! `f64` copy, and `T = f64` is the kernel the `f64`-only versions were.
//! Each has a `_scalar` twin that mirrors the lane/fold order exactly — the
//! pair is **bit-identical** by construction, pinned by the tests below and
//! by `tests/lane_kernels.rs`.

use pressio_core::lanes::{finite, finite_or_zero, fold, Widen, LANES};

/// What one sweep over a buffer yields: the first pass of the two-pass
/// summary plus the first-difference reduction, all over finite values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    /// Number of finite values.
    pub count: usize,
    /// Their sum, folded lane-strided.
    pub sum: f64,
    /// Their minimum (`+inf` when there is none).
    pub min: f64,
    /// Their maximum (`-inf` when there is none).
    pub max: f64,
    /// How many are exactly zero.
    pub zeros: usize,
    /// Sum of `|v[i+1] - v[i]|` over consecutive pairs where both values
    /// are finite — the "mean absolute first difference" numerator.
    pub abs_diff: f64,
    /// Number of such pairs.
    pub pairs: usize,
}

/// Elements per block of [`sweep`]: both reductions run over a block
/// while it is in L1, so the buffer is read from memory once. A multiple
/// of [`LANES`], which keeps every block's first element in lane 0.
const BLOCK: usize = 512 * LANES;

/// `count`, `sum`, `min`, `max`, `zeros` and the absolute first difference
/// of `values` in one sweep of the buffer.
pub fn sweep<T: Widen>(values: &[T]) -> Sweep {
    let (mut stats, mut pairs) = (Stats::new(), Pairs::new());
    let mut start = 0;
    while start < values.len() {
        let end = (start + BLOCK).min(values.len());
        stats.feed(&values[start..end]);
        // a block's last pair reaches one element into the next block
        pairs.feed(&values[start..(end + 1).min(values.len())], f64::abs);
        start = end;
    }
    let (count, sum, min, max, zeros) = stats.finish();
    let (abs_diff, pairs) = pairs.finish();
    Sweep {
        count,
        sum,
        min,
        max,
        zeros,
        abs_diff,
        pairs,
    }
}

/// First pass of the two-pass summary alone: `(count, sum, min, max,
/// zeros)` over finite values, as [`sweep`] reports them.
pub fn sum_min_max_zeros<T: Widen>(values: &[T]) -> (usize, f64, f64, f64, usize) {
    let mut stats = Stats::new();
    stats.feed(values);
    stats.finish()
}

/// Sum of `(v[i+1] - v[i])²` over finite consecutive pairs, plus the pair
/// count — the lag-1 residual-variance numerator (coding gain).
pub fn sum_sq_diff<T: Widen>(values: &[T]) -> (f64, usize) {
    let mut pairs = Pairs::new();
    pairs.feed(values, |d| d * d);
    pairs.finish()
}

/// `rem` (shorter than a chunk) widened into a whole chunk, the missing
/// lanes NaN: to every kernel below a non-finite element is an exact no-op
/// (it adds `+0.0` to accumulators that are never `-0.0`, and never wins a
/// min or max), so the tail runs through the chunk body itself.
#[inline(always)]
fn padded<T: Widen>(rem: &[T]) -> [f64; LANES] {
    let mut chunk = [f64::NAN; LANES];
    for (lane, v) in chunk.iter_mut().zip(rem) {
        *lane = v.widen();
    }
    chunk
}

#[inline(always)]
fn widened<T: Widen>(chunk: &[T]) -> [f64; LANES] {
    // a fixed-size view drops the per-element bounds checks
    let chunk: &[T; LANES] = chunk.try_into().unwrap();
    std::array::from_fn(|l| chunk[l].widen())
}

/// Lane accumulators of the first summary pass.
// Codegen notes, hard-won, for this and `Pairs`: every index into a lane
// array is a compile-time constant (the `for l in 0..LANES` loops fully
// unroll) so SROA promotes the arrays to SSA registers — one dynamic index
// anywhere keeps them in a stack slot and LLVM then compiles the
// conditional accumulate as masked stores, a store-forwarding round trip
// per iteration that is *slower* than the naive loop. The finiteness
// predicates combine with `&` (not `&&`) to stay branch-free, counts
// accumulate in f64 lanes (exact below 2^53) so the body never crosses
// into the integer domain, and min/max are a compare-select on the
// already-masked candidate: neither side can be NaN, which `f64::min`
// cannot know and pays a second compare and a blend for.
#[derive(Clone, Copy)]
struct Stats {
    sum: [f64; LANES],
    mn: [f64; LANES],
    mx: [f64; LANES],
    cnt: [f64; LANES],
    zeros: [f64; LANES],
}

impl Stats {
    fn new() -> Stats {
        Stats {
            sum: [0.0; LANES],
            mn: [f64::INFINITY; LANES],
            mx: [f64::NEG_INFINITY; LANES],
            cnt: [0.0; LANES],
            zeros: [0.0; LANES],
        }
    }

    // constant-index lane loops, here and below: see the notes above
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn chunk(&mut self, chunk: [f64; LANES]) {
        for l in 0..LANES {
            let v = chunk[l];
            let fin = finite(v);
            self.cnt[l] += if fin { 1.0 } else { 0.0 };
            // only a finite value compares equal to zero
            self.zeros[l] += if v == 0.0 { 1.0 } else { 0.0 };
            self.sum[l] += if fin { v } else { 0.0 };
            let lo = if fin { v } else { f64::INFINITY };
            let hi = if fin { v } else { f64::NEG_INFINITY };
            self.mn[l] = if lo < self.mn[l] { lo } else { self.mn[l] };
            self.mx[l] = if hi > self.mx[l] { hi } else { self.mx[l] };
        }
    }

    /// Fold in `values`, whose first element belongs to lane 0.
    // Never inlined, here and in `Pairs`: the two reductions' lane arrays
    // together outnumber the vector registers, and in one function the
    // register allocator leaves some accumulating through a stack slot
    // inside the loops — a store-forwarding round trip per chunk. A call
    // per block parks the other reduction's arrays in memory instead.
    #[inline(never)]
    fn feed<T: Widen>(&mut self, values: &[T]) {
        // a local copy, so the arrays are registers for the whole loop
        let mut lanes = *self;
        let mut chunks = values.chunks_exact(LANES);
        for chunk in &mut chunks {
            lanes.chunk(widened(chunk));
        }
        if !chunks.remainder().is_empty() {
            lanes.chunk(padded(chunks.remainder()));
        }
        *self = lanes;
    }

    /// `(count, sum, min, max, zeros)`. The sum collapses through [`fold`];
    /// min and max through the lanes in order, an earlier lane winning a
    /// tie between `+0.0` and `-0.0` as the earlier element did in its lane.
    #[inline(always)]
    fn finish(self) -> (usize, f64, f64, f64, usize) {
        // identity, but opaque: stops SLP's horizontal-reduction matcher
        // from seeing the fold tree and re-shuffling the loop body's lane
        // order around it (measurably worse codegen)
        let sum = std::hint::black_box(self.sum);
        let mn = std::hint::black_box(self.mn);
        let mx = std::hint::black_box(self.mx);
        let cnt = std::hint::black_box(self.cnt);
        let zeros = std::hint::black_box(self.zeros);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for l in 0..LANES {
            min = if mn[l] < min { mn[l] } else { min };
            max = if mx[l] > max { mx[l] } else { max };
        }
        (
            fold(cnt) as usize,
            fold(sum),
            min,
            max,
            fold(zeros) as usize,
        )
    }
}

/// Lane accumulators of a reduction over consecutive pairs.
#[derive(Clone, Copy)]
struct Pairs {
    acc: [f64; LANES],
    cnt: [f64; LANES],
}

impl Pairs {
    fn new() -> Pairs {
        Pairs {
            acc: [0.0; LANES],
            cnt: [0.0; LANES],
        }
    }

    #[inline(always)]
    fn chunk(&mut self, x: [f64; LANES], y: [f64; LANES], f: &impl Fn(f64) -> f64) {
        for l in 0..LANES {
            let fin = finite(x[l]) & finite(y[l]);
            self.acc[l] += f(if fin { y[l] - x[l] } else { 0.0 });
            self.cnt[l] += if fin { 1.0 } else { 0.0 };
        }
    }

    /// Fold in `f(values[k + 1] - values[k])` for every `k` where both are
    /// finite; pair 0 belongs to lane 0. `f` maps into the non-negative
    /// reals and `f(0.0)` is `+0.0`, so a masked pair adds an exact no-op.
    #[inline(never)]
    fn feed<T: Widen>(&mut self, values: &[T], f: impl Fn(f64) -> f64) {
        if values.len() < 2 {
            return;
        }
        let mut lanes = *self;
        let (a, b) = (&values[..values.len() - 1], &values[1..]);
        let (mut xs, mut ys) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        for (x, y) in (&mut xs).zip(&mut ys) {
            lanes.chunk(widened(x), widened(y), &f);
        }
        if !xs.remainder().is_empty() {
            lanes.chunk(padded(xs.remainder()), padded(ys.remainder()), &f);
        }
        *self = lanes;
    }

    /// `(sum, pair count)`.
    #[inline(always)]
    fn finish(self) -> (f64, usize) {
        // opaque for the reason given in `Stats::finish`
        let acc = std::hint::black_box(self.acc);
        let cnt = std::hint::black_box(self.cnt);
        (fold(acc), fold(cnt) as usize)
    }
}

/// Second pass: `Σ (v − mean)²` over finite values, lane-strided.
pub fn sum_sq_dev<T: Widen>(values: &[T], mean: f64) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut step = |chunk: [f64; LANES]| {
        for l in 0..LANES {
            // non-finite v gives non-finite d, masked to 0; so does a
            // finite v whose deviation overflows
            let d = finite_or_zero(chunk[l] - mean);
            acc[l] += d * d;
        }
    };
    let mut chunks = values.chunks_exact(LANES);
    for chunk in &mut chunks {
        step(widened(chunk));
    }
    if !chunks.remainder().is_empty() {
        step(padded(chunks.remainder()));
    }
    fold(std::hint::black_box(acc))
}

/// Exact-order scalar reference for [`sweep`] (and so for
/// [`sum_min_max_zeros`], its first five fields).
pub fn sweep_scalar<T: Widen>(values: &[T]) -> Sweep {
    let mut sum = [0.0f64; LANES];
    let mut mn = [f64::INFINITY; LANES];
    let mut mx = [f64::NEG_INFINITY; LANES];
    let (mut count, mut zeros) = (0usize, 0usize);
    for (i, v) in values.iter().map(|v| v.widen()).enumerate() {
        if v.is_finite() {
            let l = i % LANES;
            count += 1;
            zeros += usize::from(v == 0.0);
            sum[l] += v;
            if v < mn[l] {
                mn[l] = v;
            }
            if v > mx[l] {
                mx[l] = v;
            }
        }
    }
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for l in 0..LANES {
        if mn[l] < min {
            min = mn[l];
        }
        if mx[l] > max {
            max = mx[l];
        }
    }
    let (abs_diff, pairs) = pair_reduce_scalar(values, f64::abs);
    Sweep {
        count,
        sum: fold(sum),
        min,
        max,
        zeros,
        abs_diff,
        pairs,
    }
}

/// Exact-order scalar reference for [`sum_sq_dev`].
pub fn sum_sq_dev_scalar<T: Widen>(values: &[T], mean: f64) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (i, v) in values.iter().enumerate() {
        let d = v.widen() - mean;
        if d.is_finite() {
            acc[i % LANES] += d * d;
        }
    }
    fold(acc)
}

/// Exact-order scalar reference for [`sum_sq_diff`].
pub fn sum_sq_diff_scalar<T: Widen>(values: &[T]) -> (f64, usize) {
    pair_reduce_scalar(values, |d| d * d)
}

fn pair_reduce_scalar<T: Widen>(values: &[T], f: impl Fn(f64) -> f64) -> (f64, usize) {
    let mut acc = [0.0f64; LANES];
    let mut cnt = 0usize;
    for (i, w) in values.windows(2).enumerate() {
        let (x, y) = (w[0].widen(), w[1].widen());
        if x.is_finite() && y.is_finite() {
            acc[i % LANES] += f(y - x);
            cnt += 1;
        }
    }
    (fold(acc), cnt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 5.0).collect();
        if n > 4 {
            v[1] = f64::NAN;
            v[n / 2] = f64::INFINITY;
            v[n - 2] = 0.0;
        }
        v
    }

    /// Lengths on both sides of a lane chunk and of a [`BLOCK`] boundary.
    const LENGTHS: [usize; 15] = [
        0,
        1,
        2,
        7,
        8,
        9,
        61,
        200,
        1003,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        BLOCK + 2,
        2 * BLOCK + LANES,
        2 * BLOCK + LANES + 1,
    ];

    fn bits(s: Sweep) -> (usize, u64, u64, u64, usize, u64, usize) {
        (
            s.count,
            s.sum.to_bits(),
            s.min.to_bits(),
            s.max.to_bits(),
            s.zeros,
            s.abs_diff.to_bits(),
            s.pairs,
        )
    }

    #[test]
    fn kernels_match_their_scalar_twins_bitwise() {
        for n in LENGTHS {
            let v = synth(n);
            let f: Vec<f32> = v.iter().map(|&x| x as f32).collect();
            let want = bits(sweep_scalar(&v));
            assert_eq!(bits(sweep(&v)), want, "sweep n={n}");
            assert_eq!(bits(sweep(&f)), bits(sweep_scalar(&f)), "f32 sweep n={n}");
            let (count, sum, min, max, zeros) = sum_min_max_zeros(&v);
            let alone = (count, sum.to_bits(), min.to_bits(), max.to_bits(), zeros);
            assert_eq!(
                alone,
                (want.0, want.1, want.2, want.3, want.4),
                "stats n={n}"
            );
            let (a, ca) = sum_sq_diff(&v);
            let (b, cb) = sum_sq_diff_scalar(&v);
            assert_eq!((a.to_bits(), ca), (b.to_bits(), cb), "sq n={n}");
            let dev = sum_sq_dev(&v, 0.25).to_bits();
            assert_eq!(dev, sum_sq_dev_scalar(&v, 0.25).to_bits(), "dev n={n}");
        }
    }

    #[test]
    fn pair_kernels_skip_non_finite_pairs() {
        let v = [1.0, f64::NAN, 2.0, 5.0];
        // only the (2.0, 5.0) pair is fully finite
        let s = sweep(&v);
        assert_eq!((s.abs_diff, s.pairs), (3.0, 1));
        assert_eq!(sum_sq_diff(&v), (9.0, 1));
    }

    #[test]
    fn first_pass_handles_masks_and_tails() {
        for n in [0usize, 3, 8, 17, 100] {
            let v = synth(n);
            let (count, sum, min, max, zeros) = sum_min_max_zeros(&v);
            let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
            assert_eq!(count, finite.len(), "n={n}");
            assert_eq!(zeros, finite.iter().filter(|&&x| x == 0.0).count());
            if finite.is_empty() {
                assert_eq!(sum, 0.0);
            } else {
                let naive: f64 = finite.iter().sum();
                assert!((sum - naive).abs() <= 1e-9 * naive.abs().max(1.0));
                assert_eq!(min, finite.iter().copied().fold(f64::INFINITY, f64::min));
                assert_eq!(
                    max,
                    finite.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                );
            }
        }
    }

    /// Dev harness for kernel codegen work — not a correctness test.
    /// `cargo test --release -p pressio-stats -- --ignored --nocapture timing`
    #[test]
    #[ignore = "timing harness, run manually in release mode"]
    fn timing_harness() {
        let n = 1usize << 18;
        let v: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 5.0).collect();
        let wide: Vec<f64> = v.iter().map(|&x| x as f64).collect();
        fn min_ms<R>(f: impl Fn() -> R) -> f64 {
            (0..50)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(f());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        }
        println!("sweep f32          {:.3} ms", min_ms(|| sweep(&v)));
        println!("sweep f32 scalar   {:.3} ms", min_ms(|| sweep_scalar(&v)));
        println!("sweep f64          {:.3} ms", min_ms(|| sweep(&wide)));
        println!(
            "stats f32          {:.3} ms",
            min_ms(|| sum_min_max_zeros(&v))
        );
        println!(
            "stats f64          {:.3} ms",
            min_ms(|| sum_min_max_zeros(&wide))
        );
        println!(
            "sq_dev f64         {:.3} ms",
            min_ms(|| sum_sq_dev(&wide, 0.1))
        );
        println!(
            "sq_dev f32         {:.3} ms",
            min_ms(|| sum_sq_dev(&v, 0.1))
        );
    }

    #[test]
    fn second_pass_matches_naive_two_pass() {
        let v = synth(257);
        let (count, sum, _, _, _) = sum_min_max_zeros(&v);
        let mean = sum / count as f64;
        let lane = sum_sq_dev(&v, mean);
        let naive: f64 = v
            .iter()
            .filter(|x| x.is_finite())
            .map(|&x| (x - mean) * (x - mean))
            .sum();
        assert!((lane - naive).abs() <= 1e-9 * naive.max(1.0));
    }
}
