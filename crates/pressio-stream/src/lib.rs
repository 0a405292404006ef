//! `pressio-stream`: chunked streaming frames for lossy scientific data.
//!
//! Everything else in the workspace is one-shot whole-buffer; this crate
//! adds the PSTF frame format (an LZ4F-style container with a PSEL-style
//! checksummed JSON config header) plus [`StreamEncoder`]/[`StreamDecoder`]
//! that run the SZ and ZFP codecs chunk-at-a-time in bounded memory. The
//! chunk axis is the outer (slowest, e.g. timestep) dimension, so a
//! `[nx, ny, nz, t]` field streams as `t / chunk_outer` contiguous chunks.
//!
//! Two chunk modes, declared in the header flags:
//!
//! - **independent** (default): each chunk is a standalone compressed
//!   buffer, byte-identical to whole-buffer compression of that chunk —
//!   chunks can in principle be decoded in isolation.
//! - **chained** (`FLAG_CHAINED`): each chunk is compressed as temporal
//!   residuals against the previous chunk's last *decoded* slice (a
//!   previous-timestep hold predictor, LFZip-style). Wins when adjacent
//!   timesteps are correlated; requires in-order decoding.
//!
//! Integrity: every chunk record carries a checksum of its decoded bytes,
//! and the end marker pins chunk/slice totals plus a running checksum over
//! the whole decoded stream — truncation or tampering is always a typed
//! [`pressio_core::Error::CorruptStream`], never a silent partial result.

#![warn(missing_docs)]

pub mod decoder;
pub mod encoder;
pub mod frame;

pub use decoder::{scan_info, StreamDecoder, StreamSummary};
pub use encoder::StreamEncoder;
pub use frame::{ChunkRecord, EndMarker, StreamHeader, FLAG_CHAINED, MAGIC, VERSION};

use pressio_core::chunking::{concat_outer, slice_outer, split_dims, OuterChunks};
use pressio_core::error::Result;
use pressio_core::Data;

/// Compress a whole in-memory buffer into a PSTF stream by slicing its
/// outer axis into `header.chunk_outer`-sized chunks. Convenience for the
/// CLI and tests; true streaming callers feed [`StreamEncoder`] directly.
pub fn compress_stream(data: &Data, header: StreamHeader) -> Result<Vec<u8>> {
    let (_, outer) = split_dims(data.dims())?;
    let mut encoder = StreamEncoder::new(Vec::new(), header)?;
    for (start, count) in OuterChunks::new(outer, encoder.header().chunk_outer)? {
        let chunk = slice_outer(data, start, count)?;
        encoder.write_chunk(&chunk)?;
    }
    encoder.finish()
}

/// Decompress a whole PSTF stream back into one buffer (inverse of
/// [`compress_stream`] up to the codec's error bound).
pub fn decompress_stream(bytes: &[u8]) -> Result<Data> {
    let mut decoder = StreamDecoder::new(bytes)?;
    let mut chunks = Vec::new();
    while let Some(chunk) = decoder.next_chunk()? {
        chunks.push(chunk);
    }
    concat_outer(&chunks)
}
