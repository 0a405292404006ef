//! # pressio-zfp
//!
//! A pure-Rust, ZFP-like transform codec for floating-point arrays
//! (Lindstrom 2014 architecture): the volume is tiled into 4^d blocks, each
//! block is promoted to block-floating-point integers, decorrelated with the
//! lifting transform, mapped to negabinary, and coded plane by plane with
//! embedded group testing ([`transform`], [`block`]).
//!
//! Three modes mirror ZFP's: **fixed-accuracy** (`pressio:abs`),
//! **fixed-precision** (`zfp:precision` bit planes), and **fixed-rate**
//! (`zfp:rate` bits/value, constant-size blocks). Fixed-accuracy guarantees
//! the point-wise absolute error bound on finite data.
//!
//! ```
//! use pressio_core::{Compressor, Data, Dtype, Options};
//! use pressio_zfp::ZfpCompressor;
//!
//! let data = Data::from_f32(vec![64, 64],
//!     (0..4096).map(|i| (i as f32 * 0.01).sin()).collect());
//! let mut zfp = ZfpCompressor::new();
//! zfp.set_options(&Options::new().with("pressio:abs", 1e-3)).unwrap();
//! let compressed = zfp.compress(&data).unwrap();
//! let restored = zfp.decompress(&compressed, Dtype::F32, &[64, 64]).unwrap();
//! for (a, b) in data.as_f32().unwrap().iter().zip(restored.as_f32().unwrap()) {
//!     assert!((a - b).abs() <= 1e-3);
//! }
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod transform;
#[cfg(test)]
mod twin;

pub use block::Mode;

use block::{Block, Plan, MAX_BLOCK};
use pressio_core::bound::{finite_range, ErrorBound};
use pressio_core::error::{Error, Result};
use pressio_core::lanes::{Element, Widen};
use pressio_core::metrics::invalidations;
use pressio_core::{Compressor, Data, Dtype, Elements, Options};
use pressio_lossless::{BitReader, BitWriter};

const MAGIC: &[u8; 4] = b"ZFRS";
/// Chunked container: per-chunk payload lengths enable parallel decode.
const VERSION: u8 = 2;

/// Blocks per chunk in the v2 container. This is a *format* constant —
/// chunk boundaries never depend on the thread count, which is what makes
/// parallel and sequential encodes byte-identical.
pub const CHUNK_BLOCKS: usize = 256;

/// Units of work handed to the pool per thread: `compress` cuts its chunks
/// into this many runs a thread, `decompress` decodes this many chunks a
/// thread before it scatters them. Enough that one slow run does not idle
/// the other threads, few enough that a wave's decoded blocks (128 KiB a
/// chunk) are still in cache when they are scattered.
const WAVE_PER_THREAD: usize = 4;

/// The ZFP-like compressor plugin (`id = "zfp"`).
///
/// Recognized options:
/// - `pressio:abs` and `pressio:rel` — the accuracy mode's tolerance,
///   parsed, reported and resolved per buffer by
///   [`pressio_core::bound::ErrorBound`].
/// - `zfp:mode` (`"accuracy" | "precision" | "rate"`, default `"accuracy"`).
/// - `zfp:precision` (`u64`, planes, default 24) — precision mode only.
/// - `zfp:rate` (`f64`, bits/value, default 8.0) — rate mode only.
/// - `pressio:nthreads` (`u64`, default 0 = auto) — intra-task threads;
///   `1` forces the sequential path, output is identical either way.
#[derive(Clone, Debug)]
pub struct ZfpCompressor {
    bound: ErrorBound,
    mode: String,
    precision: u32,
    rate: f64,
    nthreads: Option<usize>,
}

impl Default for ZfpCompressor {
    fn default() -> Self {
        ZfpCompressor {
            bound: ErrorBound::default(),
            mode: "accuracy".to_string(),
            precision: 24,
            rate: 8.0,
            nthreads: None,
        }
    }
}

impl ZfpCompressor {
    /// Compressor with default settings (accuracy mode, `abs = 1e-4`).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Collapse an arbitrary-rank shape to at most 3 dims (fastest first),
/// multiplying the excess into the last — same convention as `pressio-sz`.
/// The shape the codec tiles into 4^d blocks.
pub fn collapse_dims(dims: &[usize]) -> Vec<usize> {
    match dims.len() {
        0 => vec![0],
        1..=3 => dims.to_vec(),
        _ => {
            let mut v = dims[..2].to_vec();
            v.push(dims[2..].iter().product());
            v
        }
    }
}

/// A collapsed shape and its tiling into 4^d blocks, in canonical linear
/// block order (x fastest).
struct Grid {
    /// Rank of the blocks: 1, 2 or 3.
    d: usize,
    /// Elements along x, y, z (1 beyond the rank).
    n: [usize; 3],
    /// Blocks along x, y, z.
    blocks: [usize; 3],
}

impl Grid {
    fn new(nd: &[usize]) -> Grid {
        let n = [nd[0], *nd.get(1).unwrap_or(&1), *nd.get(2).unwrap_or(&1)];
        Grid {
            d: nd.len().clamp(1, 3),
            n,
            blocks: n.map(|n| n.div_ceil(4)),
        }
    }

    fn total_blocks(&self) -> usize {
        if self.n.contains(&0) {
            0
        } else {
            self.blocks.iter().product()
        }
    }

    /// Element coordinates of the first value of each block in `lo..hi`.
    /// One division to start, then a step per block.
    fn origins(&self, lo: usize, hi: usize) -> impl Iterator<Item = [usize; 3]> + '_ {
        let [bx_n, by_n, _] = self.blocks;
        let mut at = [lo % bx_n, (lo / bx_n) % by_n, lo / (bx_n * by_n)];
        (lo..hi).map(move |_| {
            let origin = at.map(|b| b * 4);
            at[0] += 1;
            if at[0] == bx_n {
                at[0] = 0;
                at[1] += 1;
                if at[1] == by_n {
                    at[1] = 0;
                    at[2] += 1;
                }
            }
            origin
        })
    }

    /// Rows of four values in a block, and whether the block at `origin`
    /// lies wholly inside the volume.
    fn rows_and_interior(&self, [x, y, z]: [usize; 3]) -> (usize, bool) {
        let (yr, zr) = (
            if self.d >= 2 { 4 } else { 1 },
            if self.d >= 3 { 4 } else { 1 },
        );
        let [nx, ny, nz] = self.n;
        (yr * zr, x + 4 <= nx && y + yr <= ny && z + zr <= nz)
    }

    /// Gather the block at `origin` straight from the typed elements,
    /// replicating edge values into the padding of partial blocks (ZFP's
    /// strategy keeps the transform well-behaved at boundaries). An
    /// interior block is a row copy per four values.
    fn gather<T: Widen>(&self, values: &[T], origin: [usize; 3], out: &mut [f64; MAX_BLOCK]) {
        let [nx, ny, nz] = self.n;
        let [x, y, z] = origin;
        let (rows, interior) = self.rows_and_interior(origin);
        for (row, out) in out.chunks_exact_mut(4).take(rows).enumerate() {
            let (dy, dz) = (row & 3, row >> 2);
            if interior {
                let from = &values[((z + dz) * ny + y + dy) * nx + x..][..4];
                for (o, v) in out.iter_mut().zip(from) {
                    *o = v.widen();
                }
            } else {
                let start = ((z + dz).min(nz - 1) * ny + (y + dy).min(ny - 1)) * nx;
                for (dx, o) in out.iter_mut().enumerate() {
                    *o = values[start + (x + dx).min(nx - 1)].widen();
                }
            }
        }
    }

    /// Scatter a decoded block back into the typed output, narrowing as it
    /// goes and skipping padded lanes.
    fn scatter<T: Element>(&self, block: &[f64], out: &mut [T], origin: [usize; 3]) {
        let [nx, ny, nz] = self.n;
        let [x, y, z] = origin;
        let (rows, interior) = self.rows_and_interior(origin);
        for (row, block) in block.chunks_exact(4).take(rows).enumerate() {
            let (y, z) = (y + (row & 3), z + (row >> 2));
            if interior {
                let to = &mut out[(z * ny + y) * nx + x..][..4];
                for (o, &v) in to.iter_mut().zip(block) {
                    *o = T::narrow(v);
                }
            } else if y < ny && z < nz {
                let start = (z * ny + y) * nx;
                for (dx, &v) in block.iter().enumerate().take(nx - x) {
                    out[start + x + dx] = T::narrow(v);
                }
            }
        }
    }
}

/// The 4^d block at `origin` of `values` (shape `dims`, any rank) as the
/// codec reads it: `dims` collapsed by [`collapse_dims`], `origin` a
/// multiple of 4 along each collapsed axis, and edge values replicated into
/// the padding of a partial block. The block fills `out[..4^d]`, `d` the
/// collapsed rank; a block of an empty buffer reads as zeros.
pub fn read_block<T: Widen>(
    values: &[T],
    dims: &[usize],
    origin: &[usize],
    out: &mut [f64; MAX_BLOCK],
) {
    let grid = Grid::new(&collapse_dims(dims));
    if grid.total_blocks() == 0 {
        out.fill(0.0);
        return;
    }
    let at = |axis: usize| origin.get(axis).copied().unwrap_or(0);
    grid.gather(values, [at(0), at(1), at(2)], out);
}

/// What the blocks of a call turned out to be: the `zfp:blocks*` and
/// `zfp:planes` counters, summed in locals and recorded once.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    blocks: i64,
    zero: i64,
    raw: i64,
    planes: i64,
}

impl Tally {
    fn count(&mut self, block: Block) {
        self.blocks += 1;
        match block {
            Block::Zero => self.zero += 1,
            Block::Raw => self.raw += 1,
            Block::Coded { planes } => self.planes += planes as i64,
        }
    }

    fn merge(mut self, other: Tally) -> Tally {
        self.blocks += other.blocks;
        self.zero += other.zero;
        self.raw += other.raw;
        self.planes += other.planes;
        self
    }

    /// How sparse the field was to ZFP, and what a block cost: call under
    /// `pressio_obs::is_enabled()`.
    fn record(&self) {
        pressio_obs::add_counter("zfp:blocks", self.blocks);
        pressio_obs::add_counter("zfp:blocks.zero", self.zero);
        pressio_obs::add_counter("zfp:blocks.raw", self.raw);
        pressio_obs::add_counter("zfp:planes", self.planes);
    }
}

fn mode_tag(mode: &str) -> u8 {
    match mode {
        "precision" => 1,
        "rate" => 2,
        _ => 0,
    }
}

impl ZfpCompressor {
    /// The header up to the chunk table.
    fn write_header(&self, out: &mut Vec<u8>, input: &Data, header_abs: f64) {
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(if input.dtype() == Dtype::F32 { 0 } else { 1 });
        out.push(mode_tag(&self.mode));
        out.push(input.dims().len() as u8);
        for &dim in input.dims() {
            out.extend_from_slice(&(dim as u64).to_le_bytes());
        }
        out.extend_from_slice(&header_abs.to_le_bytes());
        out.extend_from_slice(&(self.precision as u64).to_le_bytes());
        out.extend_from_slice(&self.rate.to_le_bytes());
    }

    /// `compress` on the typed elements of `input`.
    fn compress_elements<T: Widen>(&self, input: &Data, values: &[T]) -> Vec<u8> {
        let grid = Grid::new(&collapse_dims(input.dims()));
        let mode = match self.mode.as_str() {
            "precision" => Mode::Precision(self.precision),
            "rate" => Mode::Rate(self.rate),
            _ => Mode::Accuracy(self.bound.resolve(|| finite_range(values))),
        };
        // the header carries the tolerance as resolved on this buffer, so the
        // decoder derives the identical plane cutoff
        let header_abs = match mode {
            Mode::Accuracy(abs) => abs,
            _ => self.bound.abs,
        };
        let plan = Plan::new(mode, grid.d);

        // v2 chunked layout: blocks in canonical linear order are grouped
        // into fixed-size chunks, each encoded into its own byte-aligned
        // bitstream. Chunk boundaries are format constants, so the stream
        // is identical at any thread count: a thread takes a run of whole
        // chunks and writes them, each aligned, into one writer.
        let total_blocks = grid.total_blocks();
        let n_chunks = total_blocks.div_ceil(CHUNK_BLOCKS);
        let nthreads = pressio_core::threads::resolve(self.nthreads);
        let n_runs = if nthreads <= 1 {
            n_chunks.min(1)
        } else {
            n_chunks.min(WAVE_PER_THREAD * nthreads)
        };
        let runs = pressio_core::threads::par_map_indexed(nthreads, n_runs, |run| {
            let chunks = run * n_chunks / n_runs..(run + 1) * n_chunks / n_runs;
            // sized from the data: half the raw bytes is past what most
            // fields need (untouched, it costs nothing) and one doubling
            // short of what none exceeds
            let raw = chunks.len() * CHUNK_BLOCKS * plan.block_len() * std::mem::size_of::<T>();
            let mut w = BitWriter::with_capacity(raw / 2);
            let mut lens = Vec::with_capacity(chunks.len());
            let mut tally = Tally::default();
            let mut block = [0.0; MAX_BLOCK];
            for c in chunks {
                let start = w.len_bits();
                let hi = ((c + 1) * CHUNK_BLOCKS).min(total_blocks);
                for origin in grid.origins(c * CHUNK_BLOCKS, hi) {
                    grid.gather(values, origin, &mut block);
                    tally.count(plan.encode(&block, &mut w));
                }
                w.align();
                lens.push((w.len_bits() - start) as u64 / 8);
            }
            (w.into_bytes(), lens, tally)
        });

        let payload: usize = runs.iter().map(|(bytes, ..)| bytes.len()).sum();
        let mut out = Vec::with_capacity(64 + 8 * input.dims().len() + 8 * n_chunks + payload);
        self.write_header(&mut out, input, header_abs);
        out.extend_from_slice(&(CHUNK_BLOCKS as u64).to_le_bytes());
        out.extend_from_slice(&(n_chunks as u64).to_le_bytes());
        for len in runs.iter().flat_map(|(_, lens, _)| lens) {
            out.extend_from_slice(&len.to_le_bytes());
        }
        for (bytes, ..) in &runs {
            out.extend_from_slice(bytes);
        }
        if pressio_obs::is_enabled() {
            pressio_obs::add_counter("zfp:compress.bytes_in", input.size_in_bytes() as i64);
            pressio_obs::add_counter("zfp:compress.bytes_out", out.len() as i64);
            runs.iter()
                .fold(Tally::default(), |sum, (.., tally)| sum.merge(*tally))
                .record();
        }
        out
    }
}

/// The chunked payload of a parsed container.
struct Chunks<'a> {
    plan: Plan,
    /// Blocks per chunk, as the stream declares it.
    chunk_blocks: usize,
    /// Chunk `c` is `payload[offsets[c]..offsets[c + 1]]`: per-chunk
    /// lengths let every chunk decode independently (and so in parallel).
    offsets: Vec<usize>,
    payload: &'a [u8],
}

/// One decoded chunk: the values of its blocks that are not all zero, one
/// after another, and which blocks those are.
struct DecodedChunk {
    values: Vec<f64>,
    zero: Vec<bool>,
    tally: Tally,
}

impl Chunks<'_> {
    fn decode_chunk(&self, c: usize, total_blocks: usize) -> Result<DecodedChunk> {
        let lo = c * self.chunk_blocks;
        let blocks = self.chunk_blocks.min(total_blocks - lo);
        let size = self.plan.block_len();
        let mut r = BitReader::new(&self.payload[self.offsets[c]..self.offsets[c + 1]]);
        let mut chunk = DecodedChunk {
            values: Vec::new(),
            zero: Vec::with_capacity(blocks),
            tally: Tally::default(),
        };
        let mut block = [0.0; MAX_BLOCK];
        for b in 0..blocks {
            let kind = self
                .plan
                .decode(&mut r, &mut block)
                .map_err(|e| Error::CorruptStream(e.to_string()))?;
            chunk.tally.count(kind);
            chunk.zero.push(kind == Block::Zero);
            if kind != Block::Zero {
                if chunk.values.capacity() == 0 {
                    // room for the rest of the chunk, once it has anything
                    // in it: an all-zero chunk allocates nothing
                    chunk.values.reserve_exact((blocks - b) * size);
                }
                chunk.values.extend_from_slice(&block[..size]);
            }
        }
        Ok(chunk)
    }

    /// Decode every chunk into a zeroed `Vec<T>`, a wave of chunks at a
    /// time: the wave decodes on the pool into flat per-chunk buffers, then
    /// its blocks are scattered and narrowed into the output before the
    /// next wave starts. All-zero blocks are not scattered at all.
    fn decode<T: Element>(
        &self,
        grid: &Grid,
        n: usize,
        nthreads: usize,
    ) -> Result<(Vec<T>, Tally)> {
        let mut out = vec![T::default(); n];
        let mut tally = Tally::default();
        let total_blocks = grid.total_blocks();
        let n_chunks = self.offsets.len() - 1;
        let size = self.plan.block_len();
        let wave = WAVE_PER_THREAD * nthreads.max(1);
        for first in (0..n_chunks).step_by(wave) {
            let decoded =
                pressio_core::threads::par_map_indexed(nthreads, wave.min(n_chunks - first), |k| {
                    self.decode_chunk(first + k, total_blocks)
                });
            for (k, chunk) in decoded.into_iter().enumerate() {
                let chunk = chunk?;
                tally = tally.merge(chunk.tally);
                let lo = (first + k) * self.chunk_blocks;
                let mut blocks = chunk.values.chunks_exact(size);
                for (origin, &zero) in grid.origins(lo, lo + chunk.zero.len()).zip(&chunk.zero) {
                    if !zero {
                        let block = blocks.next().expect("a block per nonzero flag");
                        grid.scatter(block, &mut out, origin);
                    }
                }
            }
        }
        Ok((out, tally))
    }
}

impl Compressor for ZfpCompressor {
    fn id(&self) -> &'static str {
        "zfp"
    }

    fn set_options(&mut self, opts: &Options) -> Result<()> {
        self.bound.set_options(opts)?;
        if let Some(m) = opts.get_str_opt("zfp:mode")? {
            if !["accuracy", "precision", "rate"].contains(&m) {
                return Err(Error::InvalidValue {
                    key: "zfp:mode".into(),
                    reason: format!("unknown mode '{m}'"),
                });
            }
            self.mode = m.to_string();
        }
        if let Some(p) = opts.get_u64_opt("zfp:precision")? {
            if p == 0 || p > block::INTPREC as u64 {
                return Err(Error::InvalidValue {
                    key: "zfp:precision".into(),
                    reason: format!("precision must be in 1..={}", block::INTPREC),
                });
            }
            self.precision = p as u32;
        }
        if let Some(r) = opts.get_f64_opt("zfp:rate")? {
            if !(r > 0.0 && r <= 64.0) {
                return Err(Error::InvalidValue {
                    key: "zfp:rate".into(),
                    reason: "rate must be in (0, 64] bits/value".into(),
                });
            }
            self.rate = r;
        }
        if let Some(n) = opts.get_u64_opt("pressio:nthreads")? {
            self.nthreads = if n == 0 { None } else { Some(n as usize) };
        }
        Ok(())
    }

    fn get_options(&self) -> Options {
        self.error_settings()
            .with("pressio:nthreads", self.nthreads.unwrap_or(0) as u64)
    }

    fn error_settings(&self) -> Options {
        self.bound
            .options()
            .with("zfp:mode", self.mode.as_str())
            .with("zfp:precision", self.precision as u64)
            .with("zfp:rate", self.rate)
    }

    fn get_configuration(&self) -> Options {
        Options::new()
            .with("pressio:thread_safe", true)
            .with("pressio:stability", "stable")
            .with("pressio:dtypes", vec!["f32".to_string(), "f64".to_string()])
            .with(
                "predictors:error_dependent_settings",
                [
                    &ErrorBound::KEYS[..],
                    &["zfp:mode", "zfp:precision", "zfp:rate"],
                ]
                .concat()
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>(),
            )
            .with(
                "predictors:invalidate",
                vec![invalidations::ERROR_DEPENDENT.to_string()],
            )
    }

    fn compress(&self, input: &Data) -> Result<Vec<u8>> {
        let _span = pressio_obs::span("zfp:compress");
        match input.elements() {
            // one element and no axis to cut blocks along: it would be dropped
            _ if input.dims().is_empty() => Err(Error::UnsupportedData(
                "zfp needs at least one dimension, got a rank-0 buffer".into(),
            )),
            Elements::F32(values) => Ok(self.compress_elements(input, values)),
            Elements::F64(values) => Ok(self.compress_elements(input, values)),
            _ => Err(Error::UnsupportedData(format!(
                "zfp supports f32/f64, got {}",
                input.dtype().name()
            ))),
        }
    }

    fn decompress(&self, compressed: &[u8], dtype: Dtype, dims: &[usize]) -> Result<Data> {
        let _span = pressio_obs::span("zfp:decompress");
        if pressio_obs::is_enabled() {
            pressio_obs::add_counter("zfp:decompress.bytes_in", compressed.len() as i64);
        }
        let mut pos = 0usize;
        let get = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let s = compressed
                .get(*pos..*pos + n)
                .ok_or_else(|| Error::CorruptStream("truncated zfp header".into()))?;
            *pos += n;
            Ok(s)
        };
        if get(&mut pos, 4)? != MAGIC {
            return Err(Error::CorruptStream("bad zfp magic".into()));
        }
        let version = get(&mut pos, 1)?[0];
        if version != VERSION {
            return Err(Error::CorruptStream("unknown zfp version".into()));
        }
        let stored_dtype = if get(&mut pos, 1)?[0] == 0 {
            Dtype::F32
        } else {
            Dtype::F64
        };
        if stored_dtype != dtype {
            return Err(Error::UnsupportedData(format!(
                "stream holds {}, caller asked for {}",
                stored_dtype.name(),
                dtype.name()
            )));
        }
        let mode_tag = get(&mut pos, 1)?[0];
        let rank = get(&mut pos, 1)?[0] as usize;
        if rank > 8 {
            return Err(Error::CorruptStream("implausible rank".into()));
        }
        let mut stored_dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            stored_dims.push(u64::from_le_bytes(get(&mut pos, 8)?.try_into().unwrap()) as usize);
        }
        if stored_dims != dims {
            return Err(Error::UnsupportedData(format!(
                "stream dims {stored_dims:?} do not match requested {dims:?}"
            )));
        }
        let abs = f64::from_le_bytes(get(&mut pos, 8)?.try_into().unwrap());
        let precision = u64::from_le_bytes(get(&mut pos, 8)?.try_into().unwrap());
        let rate = f64::from_le_bytes(get(&mut pos, 8)?.try_into().unwrap());
        // each mode's parameter, held to what `set_options` accepts
        let mode = match mode_tag {
            1 => {
                if !(1..=block::INTPREC as u64).contains(&precision) {
                    return Err(Error::CorruptStream("invalid precision".into()));
                }
                Mode::Precision(precision as u32)
            }
            2 => {
                if !(rate > 0.0 && rate <= 64.0) {
                    return Err(Error::CorruptStream("invalid rate".into()));
                }
                Mode::Rate(rate)
            }
            _ => {
                if !(abs.is_finite() && abs > 0.0) {
                    return Err(Error::CorruptStream("invalid tolerance".into()));
                }
                Mode::Accuracy(abs)
            }
        };
        let grid = Grid::new(&collapse_dims(dims));
        let n: usize = dims.iter().product();
        let chunk_blocks = u64::from_le_bytes(get(&mut pos, 8)?.try_into().unwrap()) as usize;
        let n_chunks = u64::from_le_bytes(get(&mut pos, 8)?.try_into().unwrap()) as usize;
        if chunk_blocks == 0 || n_chunks != grid.total_blocks().div_ceil(chunk_blocks) {
            return Err(Error::CorruptStream("bad zfp chunk table".into()));
        }
        let overflow = || Error::CorruptStream("zfp chunk table overflow".into());
        let mut offsets = Vec::with_capacity(n_chunks + 1);
        offsets.push(0usize);
        for _ in 0..n_chunks {
            let len = u64::from_le_bytes(get(&mut pos, 8)?.try_into().unwrap()) as usize;
            let next = offsets[offsets.len() - 1]
                .checked_add(len)
                .ok_or_else(overflow)?;
            offsets.push(next);
        }
        let end = pos.checked_add(offsets[n_chunks]).ok_or_else(overflow)?;
        let payload = compressed
            .get(pos..end)
            .ok_or_else(|| Error::CorruptStream("truncated zfp payload".into()))?;
        let chunks = Chunks {
            plan: Plan::new(mode, grid.d),
            chunk_blocks,
            offsets,
            payload,
        };
        let nthreads = pressio_core::threads::resolve(self.nthreads);
        let (data, tally) = match dtype {
            Dtype::F32 => {
                let (values, tally) = chunks.decode::<f32>(&grid, n, nthreads)?;
                (Data::from_f32(dims.to_vec(), values), tally)
            }
            _ => {
                let (values, tally) = chunks.decode::<f64>(&grid, n, nthreads)?;
                (Data::from_f64(dims.to_vec(), values), tally)
            }
        };
        if pressio_obs::is_enabled() {
            tally.record();
        }
        Ok(data)
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(nx: usize, ny: usize, nz: usize) -> Data {
        let values: Vec<f32> = (0..nx * ny * nz)
            .map(|i| {
                let x = (i % nx) as f32;
                let y = ((i / nx) % ny) as f32;
                let z = (i / (nx * ny)) as f32;
                (x * 0.11).sin() * (y * 0.13).cos() + 0.02 * z
            })
            .collect();
        Data::from_f32(vec![nx, ny, nz], values)
    }

    #[test]
    fn accuracy_round_trip_3d() {
        let data = field(21, 18, 7); // partial blocks on every axis
        let mut zfp = ZfpCompressor::new();
        for eb in [1e-2f64, 1e-4, 1e-6] {
            zfp.set_options(&Options::new().with("pressio:abs", eb))
                .unwrap();
            let c = zfp.compress(&data).unwrap();
            let out = zfp.decompress(&c, Dtype::F32, data.dims()).unwrap();
            for (a, b) in data.as_f32().unwrap().iter().zip(out.as_f32().unwrap()) {
                assert!(((a - b).abs() as f64) <= eb, "eb={eb}: |{a}-{b}|");
            }
        }
    }

    #[test]
    fn accuracy_round_trip_1d_2d() {
        for dims in [vec![103usize], vec![17, 13]] {
            let n: usize = dims.iter().product();
            let values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin() * 3.0).collect();
            let data = Data::from_f64(dims.clone(), values.clone());
            let mut zfp = ZfpCompressor::new();
            zfp.set_options(&Options::new().with("pressio:abs", 1e-5))
                .unwrap();
            let c = zfp.compress(&data).unwrap();
            let out = zfp.decompress(&c, Dtype::F64, &dims).unwrap();
            for (a, b) in values.iter().zip(out.as_f64().unwrap()) {
                assert!((a - b).abs() <= 1e-5, "dims={dims:?}");
            }
        }
    }

    #[test]
    fn compresses_smooth_data() {
        let data = field(64, 64, 16);
        let mut zfp = ZfpCompressor::new();
        zfp.set_options(&Options::new().with("pressio:abs", 1e-3))
            .unwrap();
        let c = zfp.compress(&data).unwrap();
        let ratio = data.size_in_bytes() as f64 / c.len() as f64;
        assert!(ratio > 3.0, "ratio only {ratio:.2}");
    }

    #[test]
    fn rate_mode_output_size_is_deterministic() {
        let data = field(32, 32, 8);
        let mut zfp = ZfpCompressor::new();
        zfp.set_options(
            &Options::new()
                .with("zfp:mode", "rate")
                .with("zfp:rate", 8.0),
        )
        .unwrap();
        let c = zfp.compress(&data).unwrap();
        let out = zfp.decompress(&c, Dtype::F32, data.dims()).unwrap();
        assert_eq!(out.dims(), data.dims());
        // 8 bits/value over 4^3 blocks; payload should be close to n bytes
        let n = data.num_elements();
        let payload = c.len();
        assert!(payload < n * 2, "rate-mode stream too large: {payload}");
    }

    #[test]
    fn precision_mode_round_trips() {
        let data = field(16, 16, 4);
        let mut zfp = ZfpCompressor::new();
        zfp.set_options(
            &Options::new()
                .with("zfp:mode", "precision")
                .with("zfp:precision", 32u64),
        )
        .unwrap();
        let c = zfp.compress(&data).unwrap();
        let out = zfp.decompress(&c, Dtype::F32, data.dims()).unwrap();
        for (a, b) in data.as_f32().unwrap().iter().zip(out.as_f32().unwrap()) {
            assert!((a - b).abs() < 1e-2);
        }
    }

    #[test]
    fn sparse_zero_field_is_tiny() {
        let data = Data::from_f32(vec![64, 64], vec![0.0; 4096]);
        let zfp = ZfpCompressor::new();
        let c = zfp.compress(&data).unwrap();
        // 256 all-zero blocks at 2 bits each + header
        assert!(c.len() < 200, "len={}", c.len());
    }

    #[test]
    fn rejects_bad_options_and_dtypes() {
        let mut zfp = ZfpCompressor::new();
        assert!(zfp
            .set_options(&Options::new().with("pressio:abs", 0.0))
            .is_err());
        assert!(zfp
            .set_options(&Options::new().with("zfp:mode", "psychic"))
            .is_err());
        assert!(zfp
            .set_options(&Options::new().with("zfp:rate", 100.0))
            .is_err());
        let ints = Data::from_i32(vec![4], vec![1, 2, 3, 4]);
        assert!(zfp.compress(&ints).is_err());
    }

    #[test]
    fn corrupt_streams_error() {
        let data = field(8, 8, 4);
        let zfp = ZfpCompressor::new();
        let c = zfp.compress(&data).unwrap();
        assert!(zfp.decompress(&c[..10], Dtype::F32, data.dims()).is_err());
        assert!(zfp
            .decompress(b"garbage!", Dtype::F32, data.dims())
            .is_err());
        assert!(zfp.decompress(&c, Dtype::F64, data.dims()).is_err());
        assert!(zfp.decompress(&c, Dtype::F32, &[8, 8, 5]).is_err());
    }

    #[test]
    fn non_finite_values_round_trip() {
        let mut values: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
        values[7] = f64::NAN;
        values[100] = f64::INFINITY;
        let data = Data::from_f64(vec![16, 16], values.clone());
        let zfp = ZfpCompressor::new();
        let c = zfp.compress(&data).unwrap();
        let out = zfp.decompress(&c, Dtype::F64, &[16, 16]).unwrap();
        let out = out.as_f64().unwrap();
        assert!(out[7].is_nan());
        assert_eq!(out[100], f64::INFINITY);
    }

    #[test]
    fn relative_bound_scales_with_value_range() {
        let small: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.013).sin()).collect();
        let large: Vec<f32> = small.iter().map(|v| v * 500.0).collect();
        let mut zfp = ZfpCompressor::new();
        zfp.set_options(&Options::new().with("pressio:rel", 1e-4))
            .unwrap();
        for (values, range) in [(small, 2.0f64), (large, 1000.0)] {
            let data = Data::from_f32(vec![32, 32], values.clone());
            let c = zfp.compress(&data).unwrap();
            let out = zfp.decompress(&c, Dtype::F32, &[32, 32]).unwrap();
            let bound = 1e-4 * range * 1.01;
            for (a, b) in values.iter().zip(out.as_f32().unwrap()) {
                assert!(((a - b).abs() as f64) <= bound, "range={range}");
            }
        }
        assert!(zfp
            .set_options(&Options::new().with("pressio:rel", f64::NAN))
            .is_err());
    }

    #[test]
    fn v1_container_is_a_typed_corrupt_stream() {
        // the retired continuous-bitstream container: same header, version 1
        let mut v1 = b"ZFRS\x01\x00\x00\x01".to_vec();
        v1.extend_from_slice(&4u64.to_le_bytes()); // dims [4]
        v1.extend_from_slice(&1e-3f64.to_le_bytes()); // abs
        v1.extend_from_slice(&0u64.to_le_bytes()); // precision
        v1.extend_from_slice(&0f64.to_le_bytes()); // rate
        v1.extend_from_slice(&0u64.to_le_bytes()); // payload length
        let err = ZfpCompressor::new()
            .decompress(&v1, Dtype::F32, &[4])
            .unwrap_err();
        assert!(
            matches!(&err, Error::CorruptStream(why) if why == "unknown zfp version"),
            "{err}"
        );
    }

    #[test]
    fn parallel_encode_is_byte_identical() {
        let data = field(33, 29, 9);
        let mut zfp = ZfpCompressor::new();
        zfp.set_options(
            &Options::new()
                .with("pressio:abs", 1e-4)
                .with("pressio:nthreads", 1u64),
        )
        .unwrap();
        let seq = zfp.compress(&data).unwrap();
        zfp.set_options(&Options::new().with("pressio:nthreads", 3u64))
            .unwrap();
        let par = zfp.compress(&data).unwrap();
        assert_eq!(seq, par);
        let out = zfp.decompress(&par, Dtype::F32, data.dims()).unwrap();
        assert_eq!(out.dims(), data.dims());
    }

    #[test]
    fn corrupt_chunk_table_errors() {
        let data = field(8, 8, 4);
        let zfp = ZfpCompressor::new();
        let mut c = zfp.compress(&data).unwrap();
        // chunk_blocks field sits right after the fixed header; zero it
        let chunk_off = 4 + 1 + 1 + 1 + 1 + 3 * 8 + 8 + 8 + 8;
        c[chunk_off..chunk_off + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(zfp.decompress(&c, Dtype::F32, data.dims()).is_err());
    }

    /// `field(8, 8, 4)` compressed under `opts`, with the 8 header bytes
    /// `back` fields before the first chunk length replaced: 1 = chunk
    /// count, 2 = blocks per chunk, 3 = rate, 4 = precision, 5 = tolerance;
    /// 0 = the first chunk length itself.
    fn patched(opts: &Options, back: usize, bytes: [u8; 8]) -> Result<Data> {
        let data = field(8, 8, 4);
        let mut zfp = ZfpCompressor::new();
        zfp.set_options(opts).unwrap();
        let mut c = zfp.compress(&data).unwrap();
        let first_len = 4 + 4 + 3 * 8 + 5 * 8;
        c[first_len - 8 * back..][..8].copy_from_slice(&bytes);
        zfp.decompress(&c, Dtype::F32, data.dims())
    }

    fn corrupt_reason(result: Result<Data>) -> String {
        match result {
            Err(Error::CorruptStream(why)) => why,
            other => panic!("expected a corrupt-stream error, got {other:?}"),
        }
    }

    #[test]
    fn chunk_length_that_overflows_the_cursor_is_a_typed_error() {
        // the one chunk claims u64::MAX - 10 bytes: offset + cursor wraps
        let huge = (u64::MAX - 10).to_le_bytes();
        assert_eq!(
            corrupt_reason(patched(&Options::new(), 0, huge)),
            "zfp chunk table overflow"
        );
    }

    #[test]
    fn header_rate_is_held_to_the_option_range() {
        let rate_mode = Options::new().with("zfp:mode", "rate");
        for bad in [f64::NAN, 1e300, f64::INFINITY, 0.0, -1.0, 64.5] {
            assert_eq!(
                corrupt_reason(patched(&rate_mode, 3, bad.to_le_bytes())),
                "invalid rate",
                "rate {bad}"
            );
        }
        // the top of the range is a rate, written and read
        let top = rate_mode.with("zfp:rate", 64.0);
        assert!(patched(&top, 3, 64f64.to_le_bytes()).is_ok());
    }

    #[test]
    fn header_precision_is_held_to_the_option_range() {
        let precision_mode = Options::new().with("zfp:mode", "precision");
        // the last would truncate to a valid 12 as a u32
        for bad in [0u64, 59, u64::MAX, (1 << 32) | 12] {
            assert_eq!(
                corrupt_reason(patched(&precision_mode, 4, bad.to_le_bytes())),
                "invalid precision",
                "precision {bad}"
            );
        }
        let top = precision_mode.with("zfp:precision", 58u64);
        assert!(patched(&top, 4, 58u64.to_le_bytes()).is_ok());
    }

    #[test]
    fn zfp_beats_itself_on_looser_bounds() {
        let data = field(48, 48, 12);
        let mut zfp = ZfpCompressor::new();
        zfp.set_options(&Options::new().with("pressio:abs", 1e-6))
            .unwrap();
        let tight = zfp.compress(&data).unwrap().len();
        zfp.set_options(&Options::new().with("pressio:abs", 1e-2))
            .unwrap();
        let loose = zfp.compress(&data).unwrap().len();
        assert!(loose < tight);
    }
}
