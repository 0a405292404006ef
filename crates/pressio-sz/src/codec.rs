//! Stream assembly for the SZ-like compressor: header, predictor side
//! streams, Huffman-coded symbols, and the lossless backend stage.

use crate::quantizer::{DequantError, Dequantizer, Quantizer};
use crate::{interp, lorenzo, regression};
use pressio_core::error::{Error, Result};
use pressio_core::lanes::Widen;
use pressio_core::{Data, Dtype};
use pressio_lossless::{entropy, huffman, lzss};

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
    // fan out per shard), then the dictionary backend where it helps
    let huff = {
        let _span = pressio_obs::span("sz3:huffman");
        huffman::compress_symbols_sharded(&stream.symbols, nthreads)
    };
    let dict = {
        let _span = pressio_obs::span("sz3:lzss");
        lzss_trial_shrinks(&huff).then(|| lzss::compress(&huff))
    };
    // the trial decides whether to try; the result itself has the last word
    let (outcome, backend, payload) = match &dict {
        None => ("sz3:lzss.skipped", 2, &huff),
        Some(dict) if dict.len() < huff.len() => ("sz3:lzss.kept", 3, dict),
        Some(_) => ("sz3:lzss.discarded", 2, &huff),
    };
    pressio_obs::add_counter(outcome, 1);
    out.push(backend);
    push_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
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

/// Parse and entropy-decode a stream produced by [`assemble_par`], with a
/// thread count: the sharded Huffman backend decodes its shards in
/// parallel. Results are identical at any thread count.
pub fn parse_par(bytes: &[u8], nthreads: usize) -> Result<ParsedStream> {
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
    let n_unpred = read_u64(bytes, &mut pos)? as usize;
    let value_size = if dtype == Dtype::F32 { 4 } else { 8 };
    // must fit in the remaining stream (reject before allocating for it)
    if n_unpred > n || n_unpred.saturating_mul(value_size) > bytes.len().saturating_sub(pos) {
        return Err(Error::CorruptStream(
            "unpredictable count exceeds size".into(),
        ));
    }
    let mut unpredictable = Vec::with_capacity(n_unpred);
    for _ in 0..n_unpred {
        if dtype == Dtype::F32 {
            let s = bytes
                .get(pos..pos + 4)
                .ok_or_else(|| Error::CorruptStream("truncated unpredictable".into()))?;
            unpredictable.push(f32::from_le_bytes(s.try_into().unwrap()) as f64);
            pos += 4;
        } else {
            let s = bytes
                .get(pos..pos + 8)
                .ok_or_else(|| Error::CorruptStream("truncated unpredictable".into()))?;
            unpredictable.push(f64::from_le_bytes(s.try_into().unwrap()));
            pos += 8;
        }
    }
    let n_coef = read_u64(bytes, &mut pos)? as usize;
    if n_coef > 4 * n + 4 || n_coef.saturating_mul(4) > bytes.len().saturating_sub(pos) {
        return Err(Error::CorruptStream(
            "coefficient count exceeds size".into(),
        ));
    }
    let mut coefficients = Vec::with_capacity(n_coef);
    for _ in 0..n_coef {
        let s = bytes
            .get(pos..pos + 4)
            .ok_or_else(|| Error::CorruptStream("truncated coefficients".into()))?;
        coefficients.push(f32::from_le_bytes(s.try_into().unwrap()));
        pos += 4;
    }
    let n_modes = read_u64(bytes, &mut pos)? as usize;
    if n_modes > bytes.len().saturating_sub(pos) {
        return Err(Error::CorruptStream("mode bitmap exceeds stream".into()));
    }
    let block_modes = bytes
        .get(pos..pos + n_modes)
        .ok_or_else(|| Error::CorruptStream("truncated mode bitmap".into()))?
        .to_vec();
    pos += n_modes;
    let backend = read_u8(bytes, &mut pos)?;
    let payload_len = read_u64(bytes, &mut pos)? as usize;
    let payload = bytes
        .get(pos..pos + payload_len)
        .ok_or_else(|| Error::CorruptStream("truncated payload".into()))?;
    // 2 = the sharded Huffman stream, 3 = LZSS over it
    let unpacked;
    let huff = match backend {
        2 => payload,
        3 => {
            unpacked =
                lzss::decompress(payload).map_err(|e| Error::CorruptStream(e.to_string()))?;
            &unpacked
        }
        _ => return Err(Error::CorruptStream("unknown backend".into())),
    };
    let symbols = huffman::decompress_symbols_sharded(huff, nthreads)
        .map_err(|e| Error::CorruptStream(e.to_string()))?;
    if symbols.len() != n {
        return Err(Error::CorruptStream(format!(
            "symbol count {} != element count {n}",
            symbols.len()
        )));
    }
    Ok(ParsedStream {
        dtype,
        dims,
        eb,
        predictor,
        block,
        symbols,
        unpredictable,
        coefficients,
        block_modes,
    })
}

/// The Lorenzo sweep, written as the element type the stream holds.
fn lorenzo_reconstruct(p: &ParsedStream) -> std::result::Result<Data, DequantError> {
    let kernel = lorenzo::Kernel::selected();
    let (symbols, verbatim) = (&p.symbols[..], &p.unpredictable[..]);
    Ok(match p.dtype {
        Dtype::F32 => Data::from_f32(
            p.dims.clone(),
            kernel.decode(&p.dims, (p.eb, RADIUS, true), symbols, verbatim)?,
        ),
        _ => Data::from_f64(
            p.dims.clone(),
            kernel.decode(&p.dims, (p.eb, RADIUS, false), symbols, verbatim)?,
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
    let corrupt = |e: DequantError| Error::CorruptStream(e.to_string());
    let recon = match p.predictor {
        Predictor::Lorenzo => return lorenzo_reconstruct(p).map_err(corrupt),
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
    }
    .map_err(corrupt)?;
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
