//! Pull-based streaming decoder: PSTF frame in, chunks out, bounded memory.

use std::io::Read;

use pressio_core::chunking::last_outer_slice;
use pressio_core::error::{Error, Result};
use pressio_core::hash::Fnv1a64;
use pressio_core::{Compressor, Data};

use crate::frame::{ChunkRecord, EndMarker, StreamHeader, CHUNK_PREFIX_LEN, HEADER_PREFIX_LEN};

fn corrupt(why: &str) -> Error {
    Error::CorruptStream(format!("pstf frame: {why}"))
}

/// `read_exact` with truncation mapped to a typed corrupt-stream error —
/// a cut cable mid-stream must never look like a clean end.
fn read_exact_or_corrupt<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt(&format!("truncated {what}"))
        } else {
            Error::Io(e.to_string())
        }
    })
}

/// Incremental PSTF reader.
///
/// Every declared length is validated against the header *before* any
/// allocation it sizes, every chunk is checked against its content
/// checksum, and the stream only counts as complete once a valid end
/// marker (totals + running checksum) has been consumed. Memory use is
/// bounded by one chunk plus one carried slice.
pub struct StreamDecoder<R: Read> {
    reader: R,
    header: StreamHeader,
    codec: Box<dyn Compressor>,
    carried: Option<Data>,
    running: Fnv1a64,
    chunks_seen: u32,
    outer_seen: u64,
    done: bool,
}

impl<R: Read> StreamDecoder<R> {
    /// Read and validate the header, returning a ready decoder.
    pub fn new(mut reader: R) -> Result<StreamDecoder<R>> {
        let mut prefix = [0u8; HEADER_PREFIX_LEN];
        read_exact_or_corrupt(&mut reader, &mut prefix, "header prefix")?;
        let (flags, payload_len) = StreamHeader::parse_prefix(&prefix)?;
        let mut payload = vec![0u8; payload_len];
        read_exact_or_corrupt(&mut reader, &mut payload, "header payload")?;
        let header = StreamHeader::parse_payload(&prefix, flags, &payload)?;
        let codec = header.build_codec()?;
        Ok(StreamDecoder {
            reader,
            header,
            codec,
            carried: None,
            running: Fnv1a64::new(),
            chunks_seen: 0,
            outer_seen: 0,
            done: false,
        })
    }

    /// The stream's declared configuration.
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Chunks decoded so far.
    pub fn chunks_seen(&self) -> u32 {
        self.chunks_seen
    }

    /// Outer slices decoded so far.
    pub fn outer_seen(&self) -> u64 {
        self.outer_seen
    }

    /// True once the end marker has been consumed and verified.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Decode the next chunk, or `Ok(None)` after a *verified* end marker.
    /// Truncation, tampering, reordering, or totals mismatch all surface
    /// as `Error::CorruptStream` — never as a silent partial result.
    pub fn next_chunk(&mut self) -> Result<Option<Data>> {
        if self.done {
            return Ok(None);
        }
        let mut prefix = [0u8; CHUNK_PREFIX_LEN];
        read_exact_or_corrupt(&mut self.reader, &mut prefix, "chunk record")?;
        let record = ChunkRecord::parse_prefix(&prefix);
        if record.outer == 0 {
            let end = EndMarker::parse(&prefix)?;
            if end.total_chunks != self.chunks_seen {
                return Err(corrupt(&format!(
                    "end marker declares {} chunks, saw {}",
                    end.total_chunks, self.chunks_seen
                )));
            }
            if end.total_outer != self.outer_seen {
                return Err(corrupt(&format!(
                    "end marker declares {} outer slices, saw {}",
                    end.total_outer, self.outer_seen
                )));
            }
            if end.content_checksum != self.running.finish() {
                return Err(corrupt("end-of-stream content checksum mismatch"));
            }
            self.done = true;
            return Ok(None);
        }
        record.validate(&self.header)?;
        let mut compressed = vec![0u8; record.comp_len as usize];
        read_exact_or_corrupt(&mut self.reader, &mut compressed, "chunk payload")?;

        let mut dims = self.header.inner_dims.clone();
        dims.push(record.outer as usize);
        let carried = if self.header.chained {
            self.carried.as_ref()
        } else {
            None
        };
        let decoded = self
            .codec
            .decode_chunk(&compressed, self.header.dtype, &dims, carried)?;
        // the chunk's checksum and the stream's in one pass; the stream's is
        // committed only once the chunk's verifies
        let (mut checksum, mut running) = (Fnv1a64::new(), self.running);
        checksum.update_le_pair(&mut running, &decoded);
        if checksum.finish() != record.checksum {
            return Err(corrupt(&format!(
                "chunk {} content checksum mismatch",
                self.chunks_seen
            )));
        }
        self.running = running;
        if self.header.chained {
            self.carried = Some(last_outer_slice(&decoded)?);
        }
        self.chunks_seen += 1;
        self.outer_seen += record.outer as u64;
        Ok(Some(decoded))
    }
}

/// Structural summary of a stream, as reported by [`scan_info`].
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// The parsed header.
    pub header: StreamHeader,
    /// Every chunk record, in order.
    pub chunks: Vec<ChunkRecord>,
    /// The verified end marker.
    pub end: EndMarker,
    /// Total compressed payload bytes across chunks.
    pub compressed_bytes: u64,
    /// Total raw (decoded) bytes across chunks.
    pub raw_bytes: u64,
}

/// Walk a stream's structure without decompressing: validates the header,
/// every record prefix, and the end marker's totals (the content checksum
/// requires decoding — use [`StreamDecoder`] for full verification).
pub fn scan_info<R: Read>(mut reader: R) -> Result<StreamSummary> {
    let mut prefix = [0u8; HEADER_PREFIX_LEN];
    read_exact_or_corrupt(&mut reader, &mut prefix, "header prefix")?;
    let (flags, payload_len) = StreamHeader::parse_prefix(&prefix)?;
    let mut payload = vec![0u8; payload_len];
    read_exact_or_corrupt(&mut reader, &mut payload, "header payload")?;
    let header = StreamHeader::parse_payload(&prefix, flags, &payload)?;

    let mut chunks = Vec::new();
    let mut compressed_bytes = 0u64;
    let mut raw_bytes = 0u64;
    let mut outer_total = 0u64;
    loop {
        let mut rec_prefix = [0u8; CHUNK_PREFIX_LEN];
        read_exact_or_corrupt(&mut reader, &mut rec_prefix, "chunk record")?;
        let record = ChunkRecord::parse_prefix(&rec_prefix);
        if record.outer == 0 {
            let end = EndMarker::parse(&rec_prefix)?;
            if end.total_chunks as usize != chunks.len() || end.total_outer != outer_total {
                return Err(corrupt("end marker totals do not match scanned records"));
            }
            return Ok(StreamSummary {
                header,
                chunks,
                end,
                compressed_bytes,
                raw_bytes,
            });
        }
        record.validate(&header)?;
        // skip the payload without buffering it
        let mut remaining = record.comp_len as u64;
        let mut sink = [0u8; 8192];
        while remaining > 0 {
            let take = remaining.min(sink.len() as u64) as usize;
            read_exact_or_corrupt(&mut reader, &mut sink[..take], "chunk payload")?;
            remaining -= take as u64;
        }
        compressed_bytes += record.comp_len as u64;
        raw_bytes += record.raw_len as u64;
        outer_total += record.outer as u64;
        chunks.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress_stream;
    use pressio_core::{Dtype, Options};

    /// A chunk whose payload took a flipped bit in transit is refused — by
    /// the codec, or by its checksum once the codec decoded something else —
    /// and the decoder's state is what the last good chunk left: running
    /// checksum, carried slice and counts. A flip the decode does not see
    /// (a byte the predictor ignores) must give back the chunk unchanged.
    #[test]
    fn a_flipped_payload_byte_errors_and_leaves_the_running_checksum_alone() {
        let (inner, outer) = ([16usize, 6], 3);
        let values = (0..16 * 6 * outer)
            .map(|i| (i as f32 * 0.37).sin() * 4.0 + (i / 96) as f32 * 0.01)
            .collect();
        let data = Data::from_f32(vec![inner[0], inner[1], outer], values);
        let header = StreamHeader {
            codec: "sz3".into(),
            dtype: Dtype::F32,
            inner_dims: inner.to_vec(),
            chunk_outer: 1,
            chained: true,
            codec_options: Options::new()
                .with("pressio:abs", 1e-3)
                .with("sz3:predictor", "lorenzo"),
        };
        let framed = compress_stream(&data, header).unwrap();
        let chunks = scan_info(&framed[..]).unwrap().chunks;
        let records: usize = chunks
            .iter()
            .map(|c| CHUNK_PREFIX_LEN + c.comp_len as usize)
            .sum();
        let header_len = framed.len() - records - CHUNK_PREFIX_LEN;
        // the second chunk's payload: a carried slice is already in play
        let start = header_len + CHUNK_PREFIX_LEN * 2 + chunks[0].comp_len as usize;
        let good = {
            let mut decoder = StreamDecoder::new(&framed[..]).unwrap();
            decoder.next_chunk().unwrap();
            decoder.next_chunk().unwrap().unwrap().to_le_bytes()
        };

        let mut refused_by_checksum = 0;
        for at in start..start + chunks[1].comp_len as usize {
            let mut bad = framed.clone();
            bad[at] ^= 0x01;
            let mut decoder = StreamDecoder::new(&bad[..]).unwrap();
            decoder.next_chunk().unwrap().unwrap();
            let before = (
                decoder.running,
                decoder.carried.clone(),
                decoder.chunks_seen,
                decoder.outer_seen,
            );
            match decoder.next_chunk() {
                Ok(Some(chunk)) => assert!(chunk.to_le_bytes() == good, "byte {at}"),
                Ok(None) => panic!("byte {at}: a chunk record read as the end"),
                Err(e) => {
                    let after = (
                        decoder.running,
                        decoder.carried.clone(),
                        decoder.chunks_seen,
                        decoder.outer_seen,
                    );
                    assert!(after == before, "byte {at}: {e} moved the decoder's state");
                    refused_by_checksum += e.to_string().contains("checksum mismatch") as usize;
                }
            }
        }
        assert!(refused_by_checksum > 0, "no flip reached the checksum");
    }
}
