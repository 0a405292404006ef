//! Stream assembly for the SZ-like compressor: header, predictor side
//! streams, Huffman-coded symbols, and the lossless backend stage.

use crate::quantizer::{Dequantizer, Quantizer};
use crate::{interp, lorenzo, regression};
use pressio_core::error::{Error, Result};
use pressio_core::lanes::{Element, Widen};
use pressio_core::{Data, Dtype};
use pressio_lossless::huffman::ShardedSymbols;
use pressio_lossless::{entropy, huffman, lzss};
use std::borrow::Cow;

const MAGIC: &[u8; 4] = b"SZRS";
const VERSION: u8 = 1;

/// Quantization radius: codes in `(-(RADIUS-1), RADIUS-1)`; symbol alphabet
/// is `2·RADIUS`, matching SZ's default 65536-bin quantizer.
pub const RADIUS: i64 = 32768;

/// Predictor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predictor {
    /// Pointwise Lorenzo (1st order neighbors).
    Lorenzo,
    /// Block-wise linear regression.
    Regression,
    /// Multilevel cubic interpolation.
    Interp,
    /// Per-block Lorenzo-vs-regression selection (SZ3's default design).
    Hybrid,
}

impl Predictor {
    /// Parse the `sz3:predictor` option value.
    pub fn parse(s: &str) -> Result<Predictor> {
        match s {
            "lorenzo" => Ok(Predictor::Lorenzo),
            "regression" => Ok(Predictor::Regression),
            "interp" | "interpolation" => Ok(Predictor::Interp),
            "hybrid" => Ok(Predictor::Hybrid),
            other => Err(Error::InvalidValue {
                key: "sz3:predictor".into(),
                reason: format!("unknown predictor '{other}'"),
            }),
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Predictor::Lorenzo => "lorenzo",
            Predictor::Regression => "regression",
            Predictor::Interp => "interp",
            Predictor::Hybrid => "hybrid",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Predictor::Lorenzo => 0,
            Predictor::Regression => 1,
            Predictor::Interp => 2,
            Predictor::Hybrid => 3,
        }
    }

    fn from_tag(t: u8) -> Result<Predictor> {
        match t {
            0 => Ok(Predictor::Lorenzo),
            1 => Ok(Predictor::Regression),
            2 => Ok(Predictor::Interp),
            3 => Ok(Predictor::Hybrid),
            _ => Err(Error::CorruptStream("bad predictor tag".into())),
        }
    }
}

/// Output of the prediction+quantization stages, before entropy coding.
/// This is the intermediate the Jin (2022) ratio-quality model inspects.
pub struct QuantizedStream {
    /// Quantization symbols (0 = unpredictable).
    pub symbols: Vec<u32>,
    /// Verbatim values for unpredictable points.
    pub unpredictable: Vec<f64>,
    /// Regression coefficients (empty for other predictors).
    pub coefficients: Vec<f32>,
    /// Hybrid per-block mode bitmap (bit set = regression block; empty for
    /// non-hybrid predictors).
    pub block_modes: Vec<u8>,
    /// The reconstruction the decoder will produce, as the predictor fed it
    /// back; Lorenzo's is empty unless a chunk encoder asks for it.
    pub reconstruction: Vec<f64>,
}

impl QuantizedStream {
    /// What [`assemble_par`] would make of this stream, in bytes, without
    /// encoding it (the estimate of Jin et al.'s ratio-quality model), in
    /// three parts: the symbols at their entropy; the side streams as they
    /// are stored (escapes, regression coefficients, hybrid mode bytes); and
    /// the code-length table, the 38-bit entry
    /// [`huffman::Codebook::write_table`] emits per distinct symbol. The
    /// first two grow with the stream, the table does not. The header,
    /// which every predictor shares, is left out.
    pub(crate) fn estimated_bytes(&self, dtype: Dtype) -> (f64, f64, f64) {
        let counts = huffman::histogram(&self.symbols);
        let n = self.symbols.len() as u64;
        let bits = entropy::entropy_from_counts(counts.iter().map(|c| c.1), n);
        let side = self.unpredictable.len() * dtype.size()
            + self.coefficients.len() * 4
            + self.block_modes.len();
        let table = counts.len() as f64 * 4.75;
        (bits * n as f64 / 8.0, side as f64, table)
    }
}

/// Lorenzo prediction + quantization straight off the typed elements.
/// [`QuantizedStream::reconstruction`] is `n` more `f64` and is filled only
/// when asked for: a chunk encoder does, the stage functions do not.
/// `symbols` is a block to put the symbols in, empty to allocate one.
pub(crate) fn lorenzo_quantize<T: Widen>(
    values: &[T],
    dims: &[usize],
    eb: f64,
    round_f32: bool,
    keep_reconstruction: bool,
    symbols: Vec<u32>,
) -> QuantizedStream {
    let bound = (eb, RADIUS, round_f32);
    let kernel = lorenzo::Kernel::selected();
    let coded = kernel.encode(values, dims, bound, keep_reconstruction, symbols);
    QuantizedStream {
        symbols: coded.symbols,
        unpredictable: coded.unpredictable,
        coefficients: Vec::new(),
        block_modes: Vec::new(),
        reconstruction: coded.reconstruction,
    }
}

/// Prediction + quantization only (stages 1–2 of the SZ pipeline), on the
/// typed elements. Lorenzo reads them as they are and keeps no
/// reconstruction, as `compress` does; the other predictors widen a copy
/// and build theirs as they go. Output is byte-identical at any thread
/// count.
#[allow(clippy::too_many_arguments)]
pub fn predict_and_quantize_par<T: Widen>(
    values: &[T],
    dims: &[usize],
    eb: f64,
    predictor: Predictor,
    block: usize,
    round_f32: bool,
    nthreads: usize,
) -> QuantizedStream {
    if predictor == Predictor::Lorenzo {
        return lorenzo_quantize(values, dims, eb, round_f32, false, Vec::new());
    }
    let values: Vec<f64> = values.iter().map(|v| v.widen()).collect();
    quantize_widened(&values, dims, eb, predictor, block, round_f32, nthreads)
}

/// [`predict_and_quantize_par`] of values that are `f64` already, which the
/// other predictors then read with no copy. Only regression parallelizes
/// (its blocks are independent); Lorenzo, interp, and hybrid carry
/// reconstruction feedback between elements and stay sequential.
#[allow(clippy::too_many_arguments)]
pub(crate) fn quantize_widened(
    values: &[f64],
    dims: &[usize],
    eb: f64,
    predictor: Predictor,
    block: usize,
    round_f32: bool,
    nthreads: usize,
) -> QuantizedStream {
    let mut q = Quantizer::new(eb, RADIUS, round_f32, values.len());
    let (reconstruction, coefficients, block_modes) = match predictor {
        Predictor::Lorenzo => {
            return lorenzo_quantize(values, dims, eb, round_f32, false, Vec::new())
        }
        Predictor::Regression => {
            let (r, c) = regression::encode_par(values, dims, block, &mut q, nthreads);
            (r, c, Vec::new())
        }
        Predictor::Interp => (interp::encode(values, dims, &mut q), Vec::new(), Vec::new()),
        Predictor::Hybrid => crate::hybrid::encode(values, dims, block, &mut q),
    };
    QuantizedStream {
        symbols: q.symbols,
        unpredictable: q.unpredictable,
        coefficients,
        block_modes,
        reconstruction,
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let end = *pos + 8;
    let s = bytes
        .get(*pos..end)
        .ok_or_else(|| Error::CorruptStream("truncated u64".into()))?;
    *pos = end;
    Ok(u64::from_le_bytes(s.try_into().unwrap()))
}

fn read_u8(bytes: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *bytes
        .get(*pos)
        .ok_or_else(|| Error::CorruptStream("truncated u8".into()))?;
    *pos += 1;
    Ok(b)
}

/// Assemble the full compressed stream for pre-quantized data, with a
/// thread count for the Huffman histogram and the per-shard encode (counts
/// are summed, shard boundaries are a format constant — identical output at
/// any count).
pub fn assemble_par(
    dtype: Dtype,
    dims: &[usize],
    eb: f64,
    predictor: Predictor,
    block: usize,
    stream: &QuantizedStream,
    nthreads: usize,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(match dtype {
        Dtype::F32 => 0,
        _ => 1,
    });
    out.push(predictor.tag());
    out.push(block as u8);
    out.push(dims.len() as u8);
    for &d in dims {
        push_u64(&mut out, d as u64);
    }
    out.extend_from_slice(&eb.to_le_bytes());
    // unpredictable values, stored at target precision
    push_u64(&mut out, stream.unpredictable.len() as u64);
    for &v in &stream.unpredictable {
        if dtype == Dtype::F32 {
            out.extend_from_slice(&(v as f32).to_le_bytes());
        } else {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    // regression coefficients
    push_u64(&mut out, stream.coefficients.len() as u64);
    for &c in &stream.coefficients {
        out.extend_from_slice(&c.to_le_bytes());
    }
    // hybrid per-block mode bitmap
    push_u64(&mut out, stream.block_modes.len() as u64);
    out.extend_from_slice(&stream.block_modes);
    // entropy-coded symbols (sharded layout so both encode and decode can
    // fan out per shard) written in place after the backend byte and the
    // payload length, which are filled in last; then the dictionary backend
    // where it helps, over that tail
    let backend_at = out.len();
    out.push(2);
    push_u64(&mut out, 0);
    let huff_at = out.len();
    {
        let _span = pressio_obs::span("sz3:huffman");
        huffman::write_symbols_sharded(&stream.symbols, nthreads, &mut out);
    }
    let dict = {
        let _span = pressio_obs::span("sz3:lzss");
        let huff = &out[huff_at..];
        lzss_trial_shrinks(huff).then(|| lzss::compress(huff))
    };
    // the trial decides whether to try; the result itself has the last word
    let outcome = match dict {
        None => "sz3:lzss.skipped",
        Some(dict) if dict.len() < out.len() - huff_at => {
            out.truncate(huff_at);
            out.extend_from_slice(&dict);
            out[backend_at] = 3;
            "sz3:lzss.kept"
        }
        Some(_) => "sz3:lzss.discarded",
    };
    pressio_obs::add_counter(outcome, 1);
    let payload = (out.len() - huff_at) as u64;
    out[backend_at + 1..huff_at].copy_from_slice(&payload.to_le_bytes());
    out
}

/// Huffman payloads up to this size go through LZSS whole: the run is its
/// own trial, and it is cheap.
pub const TRIAL_WHOLE: usize = 64 << 10;
/// Larger payloads are judged on this many evenly spaced blocks…
pub const TRIAL_BLOCKS: usize = 8;
/// …of this many bytes each.
pub const TRIAL_BLOCK: usize = 8 << 10;

/// Whether LZSS is worth running over the whole Huffman payload. Its payoff
/// is bimodal: the coded symbols of a sparse field (long runs of one short
/// code) shrink by half or more, those of a dense field are noise that
/// *grows* by the 9-bit literal — after the slowest pass of the pipeline.
/// A sample tells the two apart.
pub fn lzss_trial_shrinks(huff: &[u8]) -> bool {
    if huff.len() <= TRIAL_WHOLE {
        return true;
    }
    let stride = (huff.len() - TRIAL_BLOCK) / (TRIAL_BLOCKS - 1);
    let packed: usize = (0..TRIAL_BLOCKS)
        .map(|k| lzss::compress(&huff[k * stride..][..TRIAL_BLOCK]).len())
        .sum();
    packed < TRIAL_BLOCKS * TRIAL_BLOCK
}

/// Parsed header + payload of a compressed stream.
pub struct ParsedStream {
    /// Element type of the original buffer.
    pub dtype: Dtype,
    /// Original shape.
    pub dims: Vec<usize>,
    /// Error bound the stream was produced with.
    pub eb: f64,
    /// Predictor used.
    pub predictor: Predictor,
    /// Regression block size.
    pub block: usize,
    /// Decoded quantization symbols.
    pub symbols: Vec<u32>,
    /// Verbatim values.
    pub unpredictable: Vec<f64>,
    /// Regression coefficients.
    pub coefficients: Vec<f32>,
    /// Hybrid per-block mode bitmap.
    pub block_modes: Vec<u8>,
}

/// A stream produced by [`assemble_par`] read up to its symbols: the header
/// and side streams checked against the stream's length, the Huffman
/// stream's table and shard table not yet read.
struct Layout<'a> {
    dtype: Dtype,
    dims: Vec<usize>,
    n: usize,
    eb: f64,
    predictor: Predictor,
    block: usize,
    /// The escapes' values as stored, at the stream's precision.
    verbatim: &'a [u8],
    coefficients: &'a [u8],
    block_modes: &'a [u8],
    /// The sharded Huffman stream, or LZSS over it where `packed`.
    payload: &'a [u8],
    packed: bool,
}

fn corrupt(e: impl std::fmt::Display) -> Error {
    Error::CorruptStream(e.to_string())
}

/// `count` items of `size` bytes at `pos`; `None` or more than the stream
/// holds is `CorruptStream(why)`.
fn items<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    count: Option<usize>,
    size: usize,
    why: &str,
) -> Result<&'a [u8]> {
    let len = count
        .and_then(|c| c.checked_mul(size))
        .filter(|&len| len <= bytes.len().saturating_sub(*pos))
        .ok_or_else(|| Error::CorruptStream(why.into()))?;
    *pos += len;
    Ok(&bytes[*pos - len..*pos])
}

/// Read everything of `bytes` but the symbols.
fn read_layout(bytes: &[u8]) -> Result<Layout<'_>> {
    let mut pos = 0usize;
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(Error::CorruptStream("bad magic".into()));
    }
    pos += 4;
    let version = read_u8(bytes, &mut pos)?;
    if version != VERSION {
        return Err(Error::CorruptStream(format!("unknown version {version}")));
    }
    let dtype = if read_u8(bytes, &mut pos)? == 0 {
        Dtype::F32
    } else {
        Dtype::F64
    };
    let predictor = Predictor::from_tag(read_u8(bytes, &mut pos)?)?;
    let block = read_u8(bytes, &mut pos)? as usize;
    let rank = read_u8(bytes, &mut pos)? as usize;
    if rank > 8 {
        return Err(Error::CorruptStream("implausible rank".into()));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(read_u64(bytes, &mut pos)? as usize);
    }
    // checked: a hostile header can hold dims whose product overflows usize
    let n = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&n| n <= (1usize << 34))
        .ok_or_else(|| Error::CorruptStream("implausible element count".into()))?;
    let eb = f64::from_le_bytes(
        bytes
            .get(pos..pos + 8)
            .ok_or_else(|| Error::CorruptStream("truncated eb".into()))?
            .try_into()
            .unwrap(),
    );
    pos += 8;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(Error::CorruptStream("invalid error bound".into()));
    }
    // each side stream must fit in the rest of the stream: refused
    // before anything is sized by its count
    let n_unpred = Some(read_u64(bytes, &mut pos)? as usize).filter(|&c| c <= n);
    let verbatim = items(
        bytes,
        &mut pos,
        n_unpred,
        dtype.size(),
        "unpredictable count exceeds size",
    )?;
    let n_coef = Some(read_u64(bytes, &mut pos)? as usize).filter(|&c| c <= 4 * n + 4);
    let coefficients = items(bytes, &mut pos, n_coef, 4, "coefficient count exceeds size")?;
    let n_modes = Some(read_u64(bytes, &mut pos)? as usize);
    let block_modes = items(bytes, &mut pos, n_modes, 1, "mode bitmap exceeds stream")?;
    let backend = read_u8(bytes, &mut pos)?;
    let payload_len = Some(read_u64(bytes, &mut pos)? as usize);
    let payload = items(bytes, &mut pos, payload_len, 1, "truncated payload")?;
    // 2 = the sharded Huffman stream, 3 = LZSS over it
    if !matches!(backend, 2 | 3) {
        return Err(Error::CorruptStream("unknown backend".into()));
    }
    Ok(Layout {
        dtype,
        dims,
        n,
        eb,
        predictor,
        block,
        verbatim,
        coefficients,
        block_modes,
        payload,
        packed: backend == 3,
    })
}

impl<'a> Layout<'a> {
    /// The escapes' values in element order.
    fn escapes(&self) -> impl Iterator<Item = f64> + 'a {
        let size = self.dtype.size();
        self.verbatim.chunks_exact(size).map(move |v| match size {
            4 => f32::from_le_bytes(v.try_into().unwrap()) as f64,
            _ => f64::from_le_bytes(v.try_into().unwrap()),
        })
    }

    /// The sharded Huffman stream, LZSS undone.
    fn huffman(&self) -> Result<Cow<'a, [u8]>> {
        Ok(match self.packed {
            false => Cow::Borrowed(self.payload),
            true => Cow::Owned(lzss::decompress(self.payload).map_err(corrupt)?),
        })
    }

    fn count_is_n(&self, count: usize) -> Result<()> {
        match count == self.n {
            true => Ok(()),
            false => Err(Error::CorruptStream(format!(
                "symbol count {count} != element count {}",
                self.n
            ))),
        }
    }

    /// Every symbol decoded, the side streams copied out.
    fn parse(self, nthreads: usize) -> Result<ParsedStream> {
        let huff = self.huffman()?;
        let symbols = huffman::decompress_symbols_sharded(&huff, nthreads).map_err(corrupt)?;
        self.count_is_n(symbols.len())?;
        let coefficients = self.coefficients.chunks_exact(4);
        Ok(ParsedStream {
            unpredictable: self.escapes().collect(),
            coefficients: coefficients
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect(),
            block_modes: self.block_modes.to_vec(),
            symbols,
            dtype: self.dtype,
            dims: self.dims,
            eb: self.eb,
            predictor: self.predictor,
            block: self.block,
        })
    }
}

impl lorenzo::SymbolSource for (ShardedSymbols<'_>, usize) {
    type Error = Error;

    fn next_plane(&mut self, len: usize) -> Result<&[u32]> {
        self.0.take(len, self.1).map_err(corrupt)
    }
}

/// Parse and entropy-decode a stream produced by [`assemble_par`], with a
/// thread count: the sharded Huffman backend decodes its shards in
/// parallel. Results are identical at any thread count.
pub fn parse_par(bytes: &[u8], nthreads: usize) -> Result<ParsedStream> {
    read_layout(bytes)?.parse(nthreads)
}

/// [`SzCompressor::decompress`](crate::SzCompressor): a Lorenzo stream's
/// symbols are decoded a window of `nthreads` shards at a time and its
/// escapes read off its bytes as the sweep reaches them; any other stream
/// goes through [`parse_par`] and [`reconstruct_par`]. The `dtype` and
/// `dims` asked for are checked once every symbol is decoded, as they are
/// after `parse_par`: corrupt symbols are `CorruptStream` whatever is asked.
pub(crate) fn decompress(
    bytes: &[u8],
    dtype: Dtype,
    dims: &[usize],
    nthreads: usize,
) -> Result<Data> {
    let parse = pressio_obs::span("sz3:parse");
    let layout = read_layout(bytes)?;
    if layout.predictor != Predictor::Lorenzo {
        let parsed = layout.parse(nthreads)?;
        drop(parse);
        requested(parsed.dtype, &parsed.dims, dtype, dims)?;
        let _span = pressio_obs::span("sz3:reconstruct");
        return reconstruct_par(&parsed, nthreads);
    }
    // Tables are checked before the output is allocated. LZSS's output is
    // then dropped and made again after it: kept, it would split the heap
    // block the last call's output left, which the output needs whole.
    let checked = ShardedSymbols::parse(layout.huffman()?).map_err(corrupt)?;
    layout.count_is_n(checked.count())?;
    let stored = (!layout.packed).then_some(checked);
    drop(parse);
    let _span = pressio_obs::span("sz3:reconstruct");
    let data = lorenzo_decode(
        layout.dtype,
        &layout.dims,
        layout.eb,
        layout.escapes(),
        || {
            let symbols = match stored {
                Some(symbols) => symbols,
                None => ShardedSymbols::parse(layout.huffman()?).map_err(corrupt)?,
            };
            Ok((symbols, nthreads))
        },
    )?;
    requested(data.dtype(), data.dims(), dtype, dims)?;
    Ok(data)
}

/// Refuse a decompress whose `dtype` or `dims` are not the stream's.
fn requested(stream: Dtype, stream_dims: &[usize], dtype: Dtype, dims: &[usize]) -> Result<()> {
    let why = match (stream == dtype, stream_dims == dims) {
        (false, _) => format!(
            "stream holds {}, caller asked for {}",
            stream.name(),
            dtype.name()
        ),
        (_, false) => format!("stream dims {stream_dims:?} do not match requested {dims:?}"),
        _ => return Ok(()),
    };
    Err(Error::UnsupportedData(why))
}

/// The Lorenzo sweep into a buffer of the stream's element type, which is
/// allocated before `symbols` makes the source.
fn lorenzo_decode<S: lorenzo::SymbolSource>(
    dtype: Dtype,
    dims: &[usize],
    eb: f64,
    escapes: impl Iterator<Item = f64>,
    symbols: impl FnOnce() -> std::result::Result<S, S::Error>,
) -> std::result::Result<Data, S::Error> {
    fn sweep<T: Element, S: lorenzo::SymbolSource>(
        dims: &[usize],
        bound: (f64, i64, bool),
        escapes: impl Iterator<Item = f64>,
        symbols: impl FnOnce() -> std::result::Result<S, S::Error>,
    ) -> std::result::Result<Vec<T>, S::Error> {
        let mut out = vec![T::default(); dims.iter().product()];
        lorenzo::Kernel::selected().decode_into(dims, bound, symbols()?, escapes, &mut out)?;
        Ok(out)
    }
    Ok(match dtype {
        Dtype::F32 => Data::from_f32(
            dims.to_vec(),
            sweep(dims, (eb, RADIUS, true), escapes, symbols)?,
        ),
        _ => Data::from_f64(
            dims.to_vec(),
            sweep(dims, (eb, RADIUS, false), escapes, symbols)?,
        ),
    })
}

/// Reconstruct the data described by a parsed stream, with a thread count.
/// Interp decodes by independent
/// chunks within each interpolation pass; Lorenzo (one sweep, narrowed a
/// plane at a time into the buffer it returns), regression and hybrid stay
/// sequential. All paths are bit-identical at any thread count.
pub fn reconstruct_par(p: &ParsedStream, nthreads: usize) -> Result<Data> {
    let round_f32 = p.dtype == Dtype::F32;
    let recon = match p.predictor {
        Predictor::Lorenzo => {
            let escapes = p.unpredictable.iter().copied();
            let symbols = || Ok(&p.symbols[..]);
            return Ok(lorenzo_decode(p.dtype, &p.dims, p.eb, escapes, symbols)?);
        }
        Predictor::Interp => interp::decode_par(
            &p.dims,
            p.eb,
            RADIUS,
            round_f32,
            &p.symbols,
            &p.unpredictable,
            nthreads,
        ),
        Predictor::Regression => {
            let mut dq = Dequantizer::new(p.eb, RADIUS, round_f32, &p.symbols, &p.unpredictable);
            regression::decode(&p.dims, p.block, &p.coefficients, &mut dq)
        }
        Predictor::Hybrid => {
            let mut dq = Dequantizer::new(p.eb, RADIUS, round_f32, &p.symbols, &p.unpredictable);
            crate::hybrid::decode(&p.dims, p.block, &p.coefficients, &p.block_modes, &mut dq)
        }
    }?;
    Ok(decoded_buffer(p.dtype, &p.dims, recon))
}

/// A reconstruction as the buffer a `dtype` stream decodes to: narrowed to
/// `f32` where the stream holds `f32`, as the Lorenzo sweep narrows it.
pub(crate) fn decoded_buffer(dtype: Dtype, dims: &[usize], recon: Vec<f64>) -> Data {
    match dtype {
        Dtype::F32 => Data::from_f32(dims.to_vec(), recon.iter().map(|&v| v as f32).collect()),
        _ => Data::from_f64(dims.to_vec(), recon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavefield(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.013).sin() * 3.0).collect()
    }

    #[test]
    fn full_pipeline_round_trip_all_predictors() {
        let dims = vec![24usize, 16, 4];
        let n: usize = dims.iter().product();
        let values = wavefield(n);
        let eb = 1e-4;
        for pred in [
            Predictor::Lorenzo,
            Predictor::Regression,
            Predictor::Interp,
            Predictor::Hybrid,
        ] {
            let qs = predict_and_quantize_par(&values, &dims, eb, pred, 6, false, 1);
            let bytes = assemble_par(Dtype::F64, &dims, eb, pred, 6, &qs, 1);
            let parsed = parse_par(&bytes, 1).unwrap();
            let out = reconstruct_par(&parsed, 1).unwrap();
            let out = out.as_f64().unwrap();
            for (v, r) in values.iter().zip(out) {
                assert!((v - r).abs() <= eb, "{pred:?}");
            }
            // decoder reconstruction must match the in-loop reconstruction,
            // which Lorenzo keeps only when asked
            let kept = match pred {
                Predictor::Lorenzo => {
                    lorenzo_quantize(&values, &dims, eb, false, true, Vec::new()).reconstruction
                }
                _ => qs.reconstruction,
            };
            assert_eq!(out, &kept[..], "{pred:?}");
        }
    }

    #[test]
    fn f32_round_trip_respects_bound() {
        let dims = vec![50usize, 10];
        let n = 500;
        let values_f32: Vec<f32> = (0..n).map(|i| (i as f32 * 0.1).cos() * 10.0).collect();
        let values: Vec<f64> = values_f32.iter().map(|&v| v as f64).collect();
        let eb = 1e-3;
        let qs = predict_and_quantize_par(&values, &dims, eb, Predictor::Lorenzo, 6, true, 1);
        let bytes = assemble_par(Dtype::F32, &dims, eb, Predictor::Lorenzo, 6, &qs, 1);
        let out = reconstruct_par(&parse_par(&bytes, 1).unwrap(), 1).unwrap();
        for (v, r) in values_f32.iter().zip(out.as_f32().unwrap()) {
            assert!((v - r).abs() as f64 <= eb);
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let dims = vec![64usize, 64];
        let values = wavefield(64 * 64);
        let qs = predict_and_quantize_par(&values, &dims, 1e-3, Predictor::Lorenzo, 6, false, 1);
        let bytes = assemble_par(Dtype::F64, &dims, 1e-3, Predictor::Lorenzo, 6, &qs, 1);
        let ratio = (values.len() * 8) as f64 / bytes.len() as f64;
        assert!(ratio > 8.0, "compression ratio only {ratio:.2}");
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        assert!(parse_par(b"", 1).is_err());
        assert!(parse_par(b"NOPE00000000", 1).is_err());
        let dims = vec![16usize, 16];
        let values = wavefield(256);
        let qs = predict_and_quantize_par(&values, &dims, 1e-3, Predictor::Lorenzo, 6, false, 1);
        let bytes = assemble_par(Dtype::F64, &dims, 1e-3, Predictor::Lorenzo, 6, &qs, 1);
        for cut in [5, 10, 20, bytes.len() - 3] {
            assert!(parse_par(&bytes[..cut], 1).is_err(), "cut={cut}");
        }
        // flip a header byte (version)
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(parse_par(&bad, 1).is_err());
    }

    #[test]
    fn retired_backends_are_rejected() {
        // 0 and 1 were the single-stream Huffman layout; nothing has written
        // them since the sharded one, and nothing reads them any more
        let dims = vec![16usize, 16];
        let qs = predict_and_quantize_par(
            &wavefield(256),
            &dims,
            1e-3,
            Predictor::Lorenzo,
            6,
            false,
            1,
        );
        let bytes = assemble_par(Dtype::F64, &dims, 1e-3, Predictor::Lorenzo, 6, &qs, 1);
        let huff = huffman::compress_symbols_sharded(&qs.symbols, 1);
        let payload = if bytes.ends_with(&huff) {
            huff.len()
        } else {
            lzss::compress(&huff).len()
        };
        let backend_at = bytes.len() - payload - 9;
        assert!(matches!(bytes[backend_at], 2 | 3));
        for retired in [0, 1, 4] {
            let mut bad = bytes.clone();
            bad[backend_at] = retired;
            match parse_par(&bad, 1) {
                Err(Error::CorruptStream(message)) => assert_eq!(message, "unknown backend"),
                other => panic!("backend {retired}: {:?}", other.map(|p| p.symbols.len())),
            }
        }
    }

    #[test]
    fn the_trial_tells_runs_from_noise() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect()
        };
        // up to the threshold there is no sampling: the whole run is the trial
        assert!(lzss_trial_shrinks(&noise(TRIAL_WHOLE)));
        assert!(!lzss_trial_shrinks(&noise(TRIAL_WHOLE + 1)));
        assert!(!lzss_trial_shrinks(&noise(1 << 20)));
        assert!(lzss_trial_shrinks(&vec![0; TRIAL_WHOLE + 1]));
        // mostly noise with compressible stretches the samples land in
        let mut mixed = noise(1 << 20);
        mixed[..1 << 19].fill(7);
        assert!(lzss_trial_shrinks(&mixed));
    }

    #[test]
    fn predictor_parse_round_trip() {
        for p in [
            Predictor::Lorenzo,
            Predictor::Regression,
            Predictor::Interp,
            Predictor::Hybrid,
        ] {
            assert_eq!(Predictor::parse(p.name()).unwrap(), p);
        }
        assert!(Predictor::parse("nope").is_err());
    }
}
