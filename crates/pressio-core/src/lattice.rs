//! Sub-lattices of n-d buffers: the one walk that copies them out
//! ([`gather`]) and the one law that draws sample blocks ([`Blocks`]).
//!
//! A trial estimator's blocks, a sampler's blocks and decimations, a
//! feature pass's samples, SZ's `auto` sample and a stream's outer slices
//! all go through these two; only ZFP's padded 4^d blocks have a reader of
//! their own, the codec's.

/// Append to `out` the lattice `origin + step·k`, `k < shape` along each
/// axis, of `values` viewed with shape `view` (its buffer's dims, or a
/// collapse of them), in the lattice's storage order, each element through
/// `map` (the identity, or [`Widen::widen`](crate::lanes::Widen::widen)).
///
/// The workspace's one n-d walk: a block (`step` 1) is copied a whole x-run
/// at a time, a decimation a strided run at a time. Nothing is appended for
/// a lattice with an empty axis; rank 0 is the one element. `step` is at
/// least 1. Panics if the lattice leaves `values`.
pub fn gather<T: Copy, U>(
    values: &[T],
    view: &[usize],
    origin: &[usize],
    shape: &[usize],
    step: usize,
    map: impl Fn(T) -> U,
    out: &mut Vec<U>,
) {
    let n: usize = shape.iter().product();
    if n == 0 {
        return;
    }
    out.reserve(n);
    let strides: Vec<usize> = view
        .iter()
        .scan(1, |stride, &d| Some(std::mem::replace(stride, *stride * d)))
        .collect();
    let first: usize = origin.iter().zip(&strides).map(|(o, s)| o * s).sum();
    let run = shape.first().copied().unwrap_or(1);
    let mut coord = vec![0usize; shape.len()];
    for _ in 0..n / run {
        let at = first
            + (1..shape.len())
                .map(|d| coord[d] * step * strides[d])
                .sum::<usize>();
        if step == 1 {
            out.extend(values[at..at + run].iter().map(|&v| map(v)));
        } else {
            let row = &values[at..=at + (run - 1) * step];
            out.extend(row.iter().step_by(step).map(|&v| map(v)));
        }
        // one odometer step over the axes above x per run
        for d in 1..shape.len() {
            coord[d] += 1;
            if coord[d] < shape[d] {
                break;
            }
            coord[d] = 0;
        }
    }
}

/// A seeded draw of sample blocks: `count` blocks (at least one) whose edge
/// along each axis is `shape`'s, clamped to the axis, and whose origin along
/// each axis is uniform over the multiples of `align` (ZFP's 4, else 1) that
/// keep the block inside the buffer. The generator is the caller's, seeded
/// with `seed`, so a sampled feature is as deterministic as a whole-buffer
/// one.
#[derive(Debug, Clone, Copy)]
pub struct Blocks<'a> {
    /// Edge of a block along each axis, fastest first. An axis past the end
    /// repeats the last edge, so `&[12]` draws 12ⁿ cubes.
    pub shape: &'a [usize],
    /// Number of blocks.
    pub count: usize,
    /// Seed of the draw's generator.
    pub seed: u64,
    /// What every origin is a multiple of.
    pub align: usize,
}

impl Blocks<'_> {
    /// The shape of a block in a buffer of shape `dims`.
    pub fn block(&self, dims: &[usize]) -> Vec<usize> {
        let last = self.shape.last().copied().unwrap_or(usize::MAX);
        let edges = self.shape.iter().copied().chain(std::iter::repeat(last));
        dims.iter()
            .zip(edges)
            .map(|(&d, edge)| d.min(edge))
            .collect()
    }

    /// The origins of the draw's blocks of shape `block` in a buffer viewed
    /// with shape `dims`, in draw order. Along each axis with room to move,
    /// `uniform(k)` — a value uniform over `0..=k` from the generator seeded
    /// with [`Blocks::seed`] — picks the offset in multiples of `align`.
    pub fn origins(
        &self,
        dims: &[usize],
        block: &[usize],
        mut uniform: impl FnMut(usize) -> usize,
    ) -> Vec<Vec<usize>> {
        (0..self.count.max(1))
            .map(|_| {
                dims.iter()
                    .zip(block)
                    .map(|(&full, &b)| {
                        if full > b {
                            uniform((full - b) / self.align) * self.align
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect()
    }
}
