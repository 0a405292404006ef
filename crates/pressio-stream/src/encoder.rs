//! Push-based streaming encoder: chunks in, PSTF frame out, bounded memory.

use std::io::Write;

use pressio_core::chunking::{last_outer_slice, split_dims, Carry};
use pressio_core::error::{Error, Result};
use pressio_core::hash::Fnv1a64;
use pressio_core::{Compressor, Data};

use crate::frame::{ChunkRecord, EndMarker, StreamHeader, MAX_CHUNK_BYTES};

/// Incremental PSTF writer.
///
/// Memory use is bounded by the largest single chunk (raw + compressed)
/// plus, in chained mode, one [`Carry`]: a slice and the codec's memo —
/// independent of how many chunks the stream ends up holding. Per chunk the
/// codec hands back the chunk as any decoder will reconstruct it (its own
/// reconstruction where it keeps one, a decode of its output otherwise), so
/// the checksums and the carried slice match the decoder's. The memo is the
/// codec's alone (SZ's `auto` choice) and never reaches the frame.
pub struct StreamEncoder<W: Write> {
    writer: W,
    header: StreamHeader,
    codec: Box<dyn Compressor>,
    /// `Some` in chained mode.
    carry: Option<Carry>,
    running: Fnv1a64,
    chunks: u32,
    total_outer: u64,
}

impl<W: Write> StreamEncoder<W> {
    /// Validate the header, write it, and return the ready encoder.
    pub fn new(mut writer: W, header: StreamHeader) -> Result<StreamEncoder<W>> {
        let codec = header.build_codec()?;
        let bytes = header.encode()?;
        writer.write_all(&bytes)?;
        Ok(StreamEncoder {
            writer,
            carry: header.chained.then(Carry::default),
            header,
            codec,
            running: Fnv1a64::new(),
            chunks: 0,
            total_outer: 0,
        })
    }

    /// The stream's declared configuration.
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Compress and append one chunk. The chunk must carry the declared
    /// dtype and inner shape, with 1..=`chunk_outer` outer slices.
    pub fn write_chunk(&mut self, chunk: &Data) -> Result<ChunkRecord> {
        let (inner, outer) = split_dims(chunk.dims())?;
        if inner != self.header.inner_dims {
            return Err(Error::UnsupportedData(format!(
                "chunk inner shape {:?} does not match stream shape {:?}",
                inner, self.header.inner_dims
            )));
        }
        if chunk.dtype() != self.header.dtype {
            return Err(Error::UnsupportedData(format!(
                "chunk dtype {} does not match stream dtype {}",
                chunk.dtype().name(),
                self.header.dtype.name()
            )));
        }
        if outer == 0 || outer > self.header.chunk_outer {
            return Err(Error::UnsupportedData(format!(
                "chunk outer extent {outer} outside 1..={}",
                self.header.chunk_outer
            )));
        }

        let (mut compressed, decoded) = self.codec.encode_chunk(chunk, self.carry.as_mut())?;
        if compressed.is_empty() || compressed.len() > MAX_CHUNK_BYTES {
            return Err(Error::CorruptStream(format!(
                "codec produced a {}-byte chunk outside frame limits",
                compressed.len()
            )));
        }
        // the chunk's checksum and the stream's in one pass
        let (mut checksum, mut running) = (Fnv1a64::new(), self.running);
        checksum.update_le_pair(&mut running, &decoded);
        let record = ChunkRecord {
            outer: outer as u32,
            raw_len: decoded.size_in_bytes() as u32,
            comp_len: compressed.len() as u32,
            checksum: checksum.finish(),
        };

        // Mid-stream failpoints model a lossy transport: a corrupted or
        // dropped chunk must surface at the decoder as a typed error.
        if pressio_faults::check("stream:chunk.corrupt").is_some() {
            for i in [0, compressed.len() / 2, compressed.len() - 1] {
                compressed[i] ^= 0x5a;
            }
        }
        let drop_chunk = pressio_faults::check("stream:chunk.drop").is_some();
        if !drop_chunk {
            self.writer.write_all(&record.encode_prefix())?;
            self.writer.write_all(&compressed)?;
        }

        // State advances as if the chunk were delivered — the failure is
        // the transport's, not the encoder's.
        self.running = running;
        if let Some(carry) = &mut self.carry {
            carry.slice = Some(last_outer_slice(&decoded)?);
        }
        self.chunks = self.chunks.checked_add(1).ok_or_else(|| {
            Error::UnsupportedData("chunk count overflows the frame format".into())
        })?;
        self.total_outer += outer as u64;
        Ok(record)
    }

    /// Write the end marker and hand the writer back.
    pub fn finish(mut self) -> Result<W> {
        if self.total_outer > u32::MAX as u64 {
            return Err(Error::UnsupportedData(
                "total outer extent overflows the frame format".into(),
            ));
        }
        let end = EndMarker {
            total_chunks: self.chunks,
            total_outer: self.total_outer,
            content_checksum: self.running.finish(),
        };
        self.writer.write_all(&end.encode())?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}
