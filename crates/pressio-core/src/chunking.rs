//! Outer-axis chunk iteration for streaming compression.
//!
//! Dims are fastest-first everywhere in this crate, so the *last* dimension
//! is the slowest-varying (for a time series: the timestep axis) and a run
//! of consecutive outer slices is a contiguous block of memory. Streaming
//! splits a field along that axis into chunks of `chunk_outer` slices each;
//! every chunk keeps the full inner shape and gains an outer extent, so a
//! `[nx, ny, nz, t]` field yields rank-4 `[nx, ny, nz, c]` chunks that the
//! SZ and ZFP codecs already accept (both collapse high rank gracefully).
//!
//! The module also carries the chained-mode delta transform: a chunk can be
//! re-expressed as residuals against the *previous chunk's last decoded
//! slice* (a previous-timestep hold predictor, LFZip-style). Because the
//! reference slice is the decoded one, encoder and decoder reconstruct the
//! exact same state, and an absolute error bound on the residual stream
//! carries over to the reconstruction up to one float rounding step. What
//! an encoding stream carries between chunks is one [`Carry`]: that slice,
//! and a memo the codec keeps for itself.

use std::any::Any;

use crate::compressor::Compressor;
use crate::data::{Data, Dtype};
use crate::error::{Error, Result};

/// Split fastest-first dims into `(inner_dims, outer_extent)`.
///
/// Rank-1 data has an empty inner shape (each outer slice is one scalar).
pub fn split_dims(dims: &[usize]) -> Result<(Vec<usize>, usize)> {
    match dims.split_last() {
        Some((&outer, inner)) => Ok((inner.to_vec(), outer)),
        None => Err(Error::UnsupportedData(
            "cannot stream zero-rank data".into(),
        )),
    }
}

/// Elements in one outer slice (product of the inner dims).
pub fn inner_elems(inner_dims: &[usize]) -> usize {
    inner_dims.iter().product()
}

/// Iterator over `(start, count)` outer ranges covering `outer` slices in
/// chunks of at most `chunk_outer`.
#[derive(Debug, Clone)]
pub struct OuterChunks {
    outer: usize,
    chunk_outer: usize,
    next: usize,
}

impl OuterChunks {
    /// Plan chunk ranges; `chunk_outer` must be non-zero.
    pub fn new(outer: usize, chunk_outer: usize) -> Result<OuterChunks> {
        if chunk_outer == 0 {
            return Err(Error::InvalidValue {
                key: "stream:chunk_outer".into(),
                reason: "chunk size must be at least one outer slice".into(),
            });
        }
        Ok(OuterChunks {
            outer,
            chunk_outer,
            next: 0,
        })
    }
}

impl Iterator for OuterChunks {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.next >= self.outer {
            return None;
        }
        let start = self.next;
        let count = self.chunk_outer.min(self.outer - start);
        self.next = start + count;
        Some((start, count))
    }
}

/// Extract `count` outer slices starting at `start` as a standalone buffer.
///
/// The result keeps the inner shape and has outer extent `count`.
pub fn slice_outer(data: &Data, start: usize, count: usize) -> Result<Data> {
    let (inner, outer) = split_dims(data.dims())?;
    if start + count > outer {
        return Err(Error::UnsupportedData(format!(
            "outer slice {start}+{count} exceeds extent {outer}"
        )));
    }
    let mut origin = vec![0usize; inner.len()];
    origin.push(start);
    let mut shape = inner;
    shape.push(count);
    data.slice_block(&origin, &shape)
}

/// Concatenate chunks along the outer axis (inverse of chunked
/// [`slice_outer`] extraction). All chunks must share dtype and inner shape.
pub fn concat_outer(chunks: &[Data]) -> Result<Data> {
    let first = chunks
        .first()
        .ok_or_else(|| Error::UnsupportedData("cannot concatenate zero chunks".into()))?;
    let (inner, _) = split_dims(first.dims())?;
    let dtype = first.dtype();
    let mut total_outer = 0usize;
    let mut bytes = Vec::new();
    for chunk in chunks {
        let (ci, co) = split_dims(chunk.dims())?;
        if ci != inner || chunk.dtype() != dtype {
            return Err(Error::UnsupportedData(
                "chunks disagree on dtype or inner shape".into(),
            ));
        }
        total_outer += co;
        bytes.extend_from_slice(&chunk.to_le_bytes());
    }
    let mut dims = inner;
    dims.push(total_outer);
    Data::from_le_bytes(dtype, dims, &bytes)
}

/// The last outer slice of `data`, with the outer axis dropped
/// (dims = inner shape). This is the carried state for chained streaming:
/// the storage's contiguous tail, copied once as one x-run.
pub fn last_outer_slice(data: &Data) -> Result<Data> {
    let (inner, outer) = split_dims(data.dims())?;
    if outer == 0 {
        return Err(Error::UnsupportedData(
            "empty outer extent has no last slice".into(),
        ));
    }
    let (n, start) = (data.num_elements(), (outer - 1) * inner_elems(&inner));
    Ok(data.gather(&[n], &[[start]], &[n - start], 1, inner))
}

fn check_delta_shapes(chunk: &Data, prev_last: &Data) -> Result<(usize, usize)> {
    let (inner, outer) = split_dims(chunk.dims())?;
    if prev_last.dims() != inner.as_slice() {
        return Err(Error::UnsupportedData(format!(
            "carried slice shape {:?} does not match chunk inner shape {:?}",
            prev_last.dims(),
            inner
        )));
    }
    if prev_last.dtype() != chunk.dtype() {
        return Err(Error::UnsupportedData(
            "carried slice dtype does not match chunk dtype".into(),
        ));
    }
    Ok((inner_elems(&inner), outer))
}

/// Forward temporal delta: every outer slice of `chunk` becomes its residual
/// against `prev_last` (the previous chunk's last decoded slice, broadcast
/// across the chunk — a previous-timestep hold predictor).
pub fn delta_forward(chunk: &Data, prev_last: &Data) -> Result<Data> {
    let (stride, outer) = check_delta_shapes(chunk, prev_last)?;
    match chunk.dtype() {
        Dtype::F32 => {
            let cur = chunk.as_f32()?;
            let prev = prev_last.as_f32()?;
            let mut out = Vec::with_capacity(cur.len());
            for s in 0..outer {
                for i in 0..stride {
                    out.push(cur[s * stride + i] - prev[i]);
                }
            }
            Ok(Data::from_f32(chunk.dims().to_vec(), out))
        }
        Dtype::F64 => {
            let cur = chunk.as_f64()?;
            let prev = prev_last.as_f64()?;
            let mut out = Vec::with_capacity(cur.len());
            for s in 0..outer {
                for i in 0..stride {
                    out.push(cur[s * stride + i] - prev[i]);
                }
            }
            Ok(Data::from_f64(chunk.dims().to_vec(), out))
        }
        other => Err(Error::UnsupportedData(format!(
            "chained streaming requires a float dtype, got {}",
            other.name()
        ))),
    }
}

/// Inverse of [`delta_forward`]: add `prev_last` back onto every outer slice
/// of the residual chunk.
pub fn delta_reconstruct(residual: &Data, prev_last: &Data) -> Result<Data> {
    let (stride, outer) = check_delta_shapes(residual, prev_last)?;
    match residual.dtype() {
        Dtype::F32 => {
            let res = residual.as_f32()?;
            let prev = prev_last.as_f32()?;
            let mut out = Vec::with_capacity(res.len());
            for s in 0..outer {
                for i in 0..stride {
                    out.push(res[s * stride + i] + prev[i]);
                }
            }
            Ok(Data::from_f32(residual.dims().to_vec(), out))
        }
        Dtype::F64 => {
            let res = residual.as_f64()?;
            let prev = prev_last.as_f64()?;
            let mut out = Vec::with_capacity(res.len());
            for s in 0..outer {
                for i in 0..stride {
                    out.push(res[s * stride + i] + prev[i]);
                }
            }
            Ok(Data::from_f64(residual.dims().to_vec(), out))
        }
        other => Err(Error::UnsupportedData(format!(
            "chained streaming requires a float dtype, got {}",
            other.name()
        ))),
    }
}

/// A codec's own state across a chained stream's residual chunks, opaque
/// to the stream that holds it (SZ keeps the predictor `auto` chose there).
pub type Memo = Option<Box<dyn Any + Send + Sync>>;

/// What a chained stream carries from one chunk to the next. The stream
/// owns it, never the codec, so one codec can serve any number of streams
/// without their state mixing.
#[derive(Default)]
pub struct Carry {
    /// The previous chunk's last decoded slice, which the next chunk is
    /// taken as residuals against; `None` before the first chunk. The
    /// stream advances it ([`last_outer_slice`] of each decoded chunk).
    pub slice: Option<Data>,
    /// The codec's memo, which only the codec reads and writes.
    pub memo: Memo,
}

/// Encode one chunk, alone (`carry` is `None`) or as part of a chained
/// stream. `encode` compresses the payload and returns its bytes with the
/// payload as a decoder will rebuild it; the result is `(compressed,
/// decoded chunk)`, so both sides agree bit for bit on checksums and
/// carried state. A codec that keeps its own reconstruction hands that
/// back; any other decompresses what it wrote ([`Compressor::encode_chunk`]).
///
/// The payload is the chunk itself unless the carry holds a slice; then it
/// is the chunk's residuals against that slice, and only then is `encode`
/// handed the carry's memo. An independent chunk and a stream's raw first
/// chunk are coded as whole-buffer `compress` codes them, and nothing the
/// codec learns from a raw chunk is kept for the residuals after it.
pub fn encode_chunk_with(
    chunk: &Data,
    carry: Option<&mut Carry>,
    encode: impl FnOnce(&Data, Option<&mut Memo>) -> Result<(Vec<u8>, Data)>,
) -> Result<(Vec<u8>, Data)> {
    let Some(Carry {
        slice: Some(prev),
        memo,
    }) = carry
    else {
        return encode(chunk, None);
    };
    let (compressed, decoded_payload) = encode(&delta_forward(chunk, prev)?, Some(memo))?;
    Ok((compressed, delta_reconstruct(&decoded_payload, prev)?))
}

/// Decode one chunk, optionally chained on the previous chunk's last decoded
/// slice (mirror of [`encode_chunk_with`]).
pub fn decode_chunk_stateful<C: Compressor + ?Sized>(
    codec: &C,
    compressed: &[u8],
    dtype: Dtype,
    dims: &[usize],
    carried: Option<&Data>,
) -> Result<Data> {
    let payload = codec.decompress(compressed, dtype, dims)?;
    match carried {
        Some(prev) => delta_reconstruct(&payload, prev),
        None => Ok(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;

    /// Lossless identity codec: the "compressed" stream is the LE bytes.
    #[derive(Clone)]
    struct IdentityCodec;

    impl Compressor for IdentityCodec {
        fn id(&self) -> &'static str {
            "identity"
        }
        fn set_options(&mut self, _opts: &Options) -> Result<()> {
            Ok(())
        }
        fn get_options(&self) -> Options {
            Options::new()
        }
        fn get_configuration(&self) -> Options {
            Options::new()
        }
        fn compress(&self, input: &Data) -> Result<Vec<u8>> {
            Ok(input.to_le_bytes())
        }
        fn decompress(&self, compressed: &[u8], dtype: Dtype, dims: &[usize]) -> Result<Data> {
            Data::from_le_bytes(dtype, dims.to_vec(), compressed)
        }
        fn clone_box(&self) -> Box<dyn Compressor> {
            Box::new(self.clone())
        }
    }

    fn field(nx: usize, t: usize) -> Data {
        let vals: Vec<f32> = (0..nx * t).map(|i| (i as f32) * 0.5 - 3.0).collect();
        Data::from_f32(vec![nx, t], vals)
    }

    #[test]
    fn outer_chunks_cover_exactly_once() {
        let ranges: Vec<_> = OuterChunks::new(10, 4).unwrap().collect();
        assert_eq!(ranges, vec![(0, 4), (4, 4), (8, 2)]);
        let ranges: Vec<_> = OuterChunks::new(8, 4).unwrap().collect();
        assert_eq!(ranges, vec![(0, 4), (4, 4)]);
        assert_eq!(OuterChunks::new(0, 4).unwrap().count(), 0);
        assert!(OuterChunks::new(3, 0).is_err());
    }

    #[test]
    fn slice_concat_roundtrip() {
        let data = field(5, 7);
        let chunks: Vec<Data> = OuterChunks::new(7, 3)
            .unwrap()
            .map(|(s, c)| slice_outer(&data, s, c).unwrap())
            .collect();
        assert_eq!(chunks[0].dims(), &[5, 3]);
        assert_eq!(chunks[2].dims(), &[5, 1]);
        let back = concat_outer(&chunks).unwrap();
        assert_eq!(back.dims(), data.dims());
        assert_eq!(back.to_le_bytes(), data.to_le_bytes());
    }

    #[test]
    fn rank1_slices_are_scalar_runs() {
        let data = Data::from_f64(vec![6], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = slice_outer(&data, 2, 3).unwrap();
        assert_eq!(s.dims(), &[3]);
        assert_eq!(s.as_f64().unwrap(), &[2.0, 3.0, 4.0]);
        let last = last_outer_slice(&data).unwrap();
        assert_eq!(last.dims(), &[] as &[usize]);
        assert_eq!(last.as_f64().unwrap(), &[5.0]);
    }

    #[test]
    fn delta_roundtrip_is_exact_for_identity() {
        let data = field(4, 6);
        let prev = last_outer_slice(&slice_outer(&data, 0, 2).unwrap()).unwrap();
        let cur = slice_outer(&data, 2, 3).unwrap();
        let res = delta_forward(&cur, &prev).unwrap();
        let back = delta_reconstruct(&res, &prev).unwrap();
        assert_eq!(back.to_le_bytes(), cur.to_le_bytes());
    }

    #[test]
    fn delta_rejects_shape_and_dtype_mismatch() {
        let cur = field(4, 2);
        let bad_shape = Data::from_f32(vec![3], vec![0.0; 3]);
        assert!(delta_forward(&cur, &bad_shape).is_err());
        let bad_dtype = Data::from_f64(vec![4], vec![0.0; 4]);
        assert!(delta_forward(&cur, &bad_dtype).is_err());
        let ints = Data::from_i32(vec![4, 2], vec![0; 8]);
        let prev = Data::from_i32(vec![4], vec![0; 4]);
        assert!(delta_forward(&ints, &prev).is_err());
    }

    #[test]
    fn stateful_chunk_pipeline_matches_whole_buffer() {
        let codec = IdentityCodec;
        let data = field(8, 9);
        for carried_mode in [false, true] {
            let mut carry = carried_mode.then(Carry::default);
            let mut decoded_chunks = Vec::new();
            for (s, c) in OuterChunks::new(9, 4).unwrap() {
                let chunk = slice_outer(&data, s, c).unwrap();
                let (comp, enc_decoded) = codec.encode_chunk(&chunk, carry.as_mut()).unwrap();
                let carried = carry.as_ref().and_then(|c| c.slice.as_ref());
                let dec =
                    decode_chunk_stateful(&codec, &comp, chunk.dtype(), chunk.dims(), carried)
                        .unwrap();
                // encoder-side and decoder-side reconstructions agree
                assert_eq!(enc_decoded.to_le_bytes(), dec.to_le_bytes());
                if let Some(carry) = &mut carry {
                    carry.slice = Some(last_outer_slice(&dec).unwrap());
                }
                decoded_chunks.push(dec);
            }
            let back = concat_outer(&decoded_chunks).unwrap();
            assert_eq!(back.to_le_bytes(), data.to_le_bytes());
        }
    }
}
