//! The PSTF on-disk / on-wire frame layout.
//!
//! An LZ4F-style container specialised for lossy scientific streams: the
//! header is a PSEL-style checksummed canonical-JSON block carrying the
//! codec configuration, and every chunk record carries both lengths plus a
//! checksum of the *decoded* bytes — the only content an encoder and a
//! decoder of a lossy stream can ever agree on (the encoder learns them from
//! the codec, which it needs anyway for chained state:
//! [`Compressor::encode_chunk`] returns them with the compressed bytes).
//!
//! ```text
//! +----------+---------+---------+-------------+------------+-----------------+
//! | "PSTF"   | version | flags   | payload_len | fnv1a64    | canonical JSON  |
//! | 4 bytes  | u16 LE  | u16 LE  | u32 LE      | u64 LE     | payload_len B   |
//! +----------+---------+---------+-------------+------------+-----------------+
//! then, per chunk (outer != 0):
//! +----------+---------+----------+------------+----------------------+
//! | outer    | raw_len | comp_len | fnv1a64 of | compressed bytes     |
//! | u32 LE   | u32 LE  | u32 LE   | decoded LE | comp_len B           |
//! +----------+---------+----------+------------+----------------------+
//! terminated by the end marker (outer == 0):
//! +----------+--------------+-------------+----------------------------+
//! | 0u32 LE  | total_chunks | total_outer | running fnv1a64 over every |
//! |          | u32 LE       | u32 LE      | decoded byte, u64 LE       |
//! +----------+--------------+-------------+----------------------------+
//! ```
//!
//! Flags: bit 0 = chained (chunks are temporal-delta residuals against the
//! previous chunk's last decoded slice); all other bits must be zero.

use pressio_core::error::{Error, Result};
use pressio_core::hash::fnv1a64;
use pressio_core::{Compressor, Dtype, Options};

/// Frame magic, first four bytes of every stream.
pub const MAGIC: [u8; 4] = *b"PSTF";
/// Current frame format version.
pub const VERSION: u16 = 1;
/// Flag bit 0: chunks are chained temporal-delta residuals.
pub const FLAG_CHAINED: u16 = 1;
/// Fixed-size prefix before the JSON payload (magic + version + flags +
/// payload_len + checksum).
pub const HEADER_PREFIX_LEN: usize = 20;
/// Fixed-size prefix of every chunk record (outer + raw_len + comp_len +
/// checksum). The end marker is the same width.
pub const CHUNK_PREFIX_LEN: usize = 20;
/// Upper bound on the header JSON payload — the codec config is a handful
/// of scalars, anything bigger is corrupt, not large.
pub const MAX_HEADER_PAYLOAD: usize = 1 << 20;
/// Upper bound on a single chunk's raw or compressed byte length. Bounds
/// decoder allocation; streams with bigger appetites use more chunks.
pub const MAX_CHUNK_BYTES: usize = 256 << 20;
/// Upper bound on outer slices per chunk.
pub const MAX_OUTER_PER_CHUNK: usize = 1 << 24;

fn corrupt(why: &str) -> Error {
    Error::CorruptStream(format!("pstf frame: {why}"))
}

/// A default-configured codec for `id`: the one place a stream's codec id
/// is resolved, so the ids a header may declare and the ids an encoder or
/// decoder can run are the same set.
fn codec_by_id(id: &str) -> Option<Box<dyn Compressor>> {
    match id {
        "sz3" => Some(Box::new(pressio_sz::SzCompressor::new())),
        "zfp" => Some(Box::new(pressio_zfp::ZfpCompressor::new())),
        _ => None,
    }
}

/// Everything the header declares about a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamHeader {
    /// Codec id (a compressor's `id()`: SZ or ZFP).
    pub codec: String,
    /// Element type of every chunk.
    pub dtype: Dtype,
    /// Inner (per-slice) shape, fastest-first; empty for rank-1 streams.
    pub inner_dims: Vec<usize>,
    /// Maximum outer slices per chunk — the decoder's allocation bound.
    pub chunk_outer: usize,
    /// Chained temporal-delta mode (header flag bit 0).
    pub chained: bool,
    /// Codec passthrough options (`pressio:abs`, `sz3:predictor`, ...):
    /// every header key that does not start with `stream:`.
    pub codec_options: Options,
}

impl StreamHeader {
    /// Bytes in one outer slice, or an error if the inner shape overflows.
    pub fn slice_bytes(&self) -> Result<usize> {
        let mut elems: usize = 1;
        for &d in &self.inner_dims {
            elems = elems
                .checked_mul(d)
                .ok_or_else(|| corrupt("inner dims product overflows"))?;
        }
        elems
            .checked_mul(self.dtype.size())
            .ok_or_else(|| corrupt("slice byte size overflows"))
    }

    /// The declared codec with the header's passthrough options applied.
    pub(crate) fn build_codec(&self) -> Result<Box<dyn Compressor>> {
        let mut codec = codec_by_id(&self.codec).ok_or_else(|| Error::UnknownPlugin {
            kind: "stream codec",
            name: self.codec.clone(),
        })?;
        codec.set_options(&self.codec_options)?;
        Ok(codec)
    }

    /// Validate invariants shared by the encode and decode paths.
    fn validate(&self) -> Result<()> {
        if codec_by_id(&self.codec).is_none() {
            return Err(corrupt(&format!("unknown codec '{}'", self.codec)));
        }
        if self.chunk_outer == 0 || self.chunk_outer > MAX_OUTER_PER_CHUNK {
            return Err(corrupt("chunk_outer out of range"));
        }
        if self.inner_dims.contains(&0) {
            return Err(corrupt("zero-extent inner dimension"));
        }
        let slice = self.slice_bytes()?;
        if slice == 0 {
            return Err(corrupt("zero-byte slice"));
        }
        if slice.checked_mul(self.chunk_outer).is_none()
            || slice * self.chunk_outer > MAX_CHUNK_BYTES
        {
            return Err(corrupt("declared chunk size exceeds MAX_CHUNK_BYTES"));
        }
        Ok(())
    }

    /// Serialize as the canonical-JSON options payload.
    fn to_options(&self) -> Options {
        let mut opts = self.codec_options.clone();
        opts.set("stream:codec", self.codec.as_str());
        opts.set("stream:dtype", self.dtype.name());
        opts.set(
            "stream:inner_dims",
            self.inner_dims
                .iter()
                .map(|&d| d as u64)
                .collect::<Vec<u64>>(),
        );
        opts.set("stream:chunk_outer", self.chunk_outer as u64);
        opts
    }

    fn from_options(opts: &Options) -> Result<StreamHeader> {
        let codec = opts
            .get_str("stream:codec")
            .map_err(|_| corrupt("missing stream:codec"))?
            .to_string();
        let dtype = Dtype::parse(
            opts.get_str("stream:dtype")
                .map_err(|_| corrupt("missing stream:dtype"))?,
        )
        .map_err(|_| corrupt("unknown stream:dtype"))?;
        let inner_dims: Vec<usize> = opts
            .get_u64_slice("stream:inner_dims")
            .map_err(|_| corrupt("missing stream:inner_dims"))?
            .iter()
            .map(|&d| d as usize)
            .collect();
        let chunk_outer = opts
            .get_u64("stream:chunk_outer")
            .map_err(|_| corrupt("missing stream:chunk_outer"))? as usize;
        let mut codec_options = Options::new();
        for (key, value) in opts.iter() {
            if !key.starts_with("stream:") {
                codec_options.set(key, value.clone());
            }
        }
        Ok(StreamHeader {
            codec,
            dtype,
            inner_dims,
            chunk_outer,
            chained: false,
            codec_options,
        })
    }

    /// Encode the full header block (prefix + checksummed JSON payload).
    pub fn encode(&self) -> Result<Vec<u8>> {
        self.validate()?;
        let payload = self.to_options().to_json()?.into_bytes();
        if payload.len() > MAX_HEADER_PAYLOAD {
            return Err(Error::Serialization(
                "stream header payload exceeds MAX_HEADER_PAYLOAD".into(),
            ));
        }
        let flags: u16 = if self.chained { FLAG_CHAINED } else { 0 };
        let mut out = Vec::with_capacity(HEADER_PREFIX_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Parse the fixed header prefix, returning `(flags, payload_len)`.
    ///
    /// Split from [`StreamHeader::parse_payload`] so a streaming reader can
    /// read exactly `payload_len` more bytes before allocating.
    pub fn parse_prefix(prefix: &[u8; HEADER_PREFIX_LEN]) -> Result<(u16, usize)> {
        if prefix[0..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u16::from_le_bytes([prefix[4], prefix[5]]);
        if version != VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let flags = u16::from_le_bytes([prefix[6], prefix[7]]);
        if flags & !FLAG_CHAINED != 0 {
            return Err(corrupt("unknown flag bits set"));
        }
        let payload_len = u32::from_le_bytes(prefix[8..12].try_into().expect("4 bytes")) as usize;
        if payload_len > MAX_HEADER_PAYLOAD {
            return Err(corrupt("header payload exceeds MAX_HEADER_PAYLOAD"));
        }
        Ok((flags, payload_len))
    }

    /// Parse and validate the JSON payload against the prefix checksum.
    pub fn parse_payload(
        prefix: &[u8; HEADER_PREFIX_LEN],
        flags: u16,
        payload: &[u8],
    ) -> Result<StreamHeader> {
        let want = u64::from_le_bytes(prefix[12..20].try_into().expect("8 bytes"));
        if fnv1a64(payload) != want {
            return Err(corrupt("header payload checksum mismatch"));
        }
        let text = std::str::from_utf8(payload).map_err(|_| corrupt("payload is not UTF-8"))?;
        let opts = Options::from_json(text).map_err(|e| corrupt(&format!("payload JSON: {e}")))?;
        let mut header = StreamHeader::from_options(&opts)?;
        header.chained = flags & FLAG_CHAINED != 0;
        header.validate()?;
        Ok(header)
    }

    /// One-shot parse of a header at the front of `bytes`, returning the
    /// header and the offset where chunk records begin.
    pub fn decode(bytes: &[u8]) -> Result<(StreamHeader, usize)> {
        if bytes.len() < HEADER_PREFIX_LEN {
            return Err(corrupt("truncated header prefix"));
        }
        let prefix: [u8; HEADER_PREFIX_LEN] =
            bytes[..HEADER_PREFIX_LEN].try_into().expect("prefix");
        let (flags, payload_len) = StreamHeader::parse_prefix(&prefix)?;
        let rest = &bytes[HEADER_PREFIX_LEN..];
        if rest.len() < payload_len {
            return Err(corrupt("truncated header payload"));
        }
        let header = StreamHeader::parse_payload(&prefix, flags, &rest[..payload_len])?;
        Ok((header, HEADER_PREFIX_LEN + payload_len))
    }
}

/// Metadata of one chunk record (or, when `outer == 0`, the end marker —
/// see [`EndMarker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Outer slices in this chunk (never 0 for a real chunk).
    pub outer: u32,
    /// Uncompressed byte length of the chunk.
    pub raw_len: u32,
    /// Compressed byte length following the prefix.
    pub comp_len: u32,
    /// FNV-1a64 of the decoded chunk's little-endian bytes.
    pub checksum: u64,
}

impl ChunkRecord {
    /// Serialize the 20-byte record prefix.
    pub fn encode_prefix(&self) -> [u8; CHUNK_PREFIX_LEN] {
        let mut out = [0u8; CHUNK_PREFIX_LEN];
        out[0..4].copy_from_slice(&self.outer.to_le_bytes());
        out[4..8].copy_from_slice(&self.raw_len.to_le_bytes());
        out[8..12].copy_from_slice(&self.comp_len.to_le_bytes());
        out[12..20].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Parse a 20-byte record prefix (caller dispatches on `outer == 0`).
    pub fn parse_prefix(prefix: &[u8; CHUNK_PREFIX_LEN]) -> ChunkRecord {
        ChunkRecord {
            outer: u32::from_le_bytes(prefix[0..4].try_into().expect("4 bytes")),
            raw_len: u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes")),
            comp_len: u32::from_le_bytes(prefix[8..12].try_into().expect("4 bytes")),
            checksum: u64::from_le_bytes(prefix[12..20].try_into().expect("8 bytes")),
        }
    }

    /// Validate a parsed chunk record against the stream header *before*
    /// any allocation sized by its fields.
    pub fn validate(&self, header: &StreamHeader) -> Result<()> {
        if self.outer == 0 {
            return Err(corrupt("chunk record with zero outer extent"));
        }
        if self.outer as usize > header.chunk_outer {
            return Err(corrupt("chunk outer extent exceeds declared chunk_outer"));
        }
        let want_raw = header
            .slice_bytes()?
            .checked_mul(self.outer as usize)
            .ok_or_else(|| corrupt("chunk raw size overflows"))?;
        if self.raw_len as usize != want_raw {
            return Err(corrupt(&format!(
                "raw_len {} does not match {} slices of the declared shape ({want_raw} bytes)",
                self.raw_len, self.outer
            )));
        }
        if self.raw_len as usize > MAX_CHUNK_BYTES || self.comp_len as usize > MAX_CHUNK_BYTES {
            return Err(corrupt("chunk length exceeds MAX_CHUNK_BYTES"));
        }
        if self.comp_len == 0 {
            return Err(corrupt("empty compressed chunk"));
        }
        Ok(())
    }
}

/// The end-of-stream marker: totals plus a running checksum over every
/// decoded byte, so truncation and chunk-reordering are always detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndMarker {
    /// Number of chunk records in the stream.
    pub total_chunks: u32,
    /// Sum of the chunks' outer extents.
    pub total_outer: u64,
    /// Running FNV-1a64 over the decoded LE bytes of every chunk in order.
    pub content_checksum: u64,
}

impl EndMarker {
    /// Serialize the 20-byte end marker (leading `outer == 0` sentinel).
    pub fn encode(&self) -> [u8; CHUNK_PREFIX_LEN] {
        let mut out = [0u8; CHUNK_PREFIX_LEN];
        out[0..4].copy_from_slice(&0u32.to_le_bytes());
        out[4..8].copy_from_slice(&self.total_chunks.to_le_bytes());
        out[8..12].copy_from_slice(&(self.total_outer as u32).to_le_bytes());
        out[12..20].copy_from_slice(&self.content_checksum.to_le_bytes());
        out
    }

    /// Parse an end marker from a record prefix whose `outer` field is 0.
    pub fn parse(prefix: &[u8; CHUNK_PREFIX_LEN]) -> Result<EndMarker> {
        if u32::from_le_bytes(prefix[0..4].try_into().expect("4 bytes")) != 0 {
            return Err(corrupt("not an end marker"));
        }
        Ok(EndMarker {
            total_chunks: u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes")),
            total_outer: u32::from_le_bytes(prefix[8..12].try_into().expect("4 bytes")) as u64,
            content_checksum: u64::from_le_bytes(prefix[12..20].try_into().expect("8 bytes")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamHeader {
        StreamHeader {
            codec: "sz3".into(),
            dtype: Dtype::F32,
            inner_dims: vec![16, 12],
            chunk_outer: 4,
            chained: true,
            codec_options: Options::new().with("pressio:abs", 1e-4),
        }
    }

    #[test]
    fn header_roundtrip() {
        let header = sample();
        let bytes = header.encode().unwrap();
        let (back, offset) = StreamHeader::decode(&bytes).unwrap();
        assert_eq!(back, header);
        assert_eq!(offset, bytes.len());
        assert!(back.chained);
        assert_eq!(back.codec_options.get_f64("pressio:abs").unwrap(), 1e-4);
    }

    #[test]
    fn header_rejects_truncation_at_every_length() {
        let bytes = sample().encode().unwrap();
        for len in 0..bytes.len() {
            assert!(
                StreamHeader::decode(&bytes[..len]).is_err(),
                "accepted truncation to {len} bytes"
            );
        }
    }

    #[test]
    fn header_rejects_tampering() {
        let mut bytes = sample().encode().unwrap();
        // flip one payload byte: checksum must catch it
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(StreamHeader::decode(&bytes).is_err());
    }

    #[test]
    fn header_rejects_bad_fields() {
        let mut h = sample();
        h.codec = "gzip".into();
        assert!(h.encode().is_err());
        let mut h = sample();
        h.chunk_outer = 0;
        assert!(h.encode().is_err());
        let mut h = sample();
        h.inner_dims = vec![16, 0];
        assert!(h.encode().is_err());
        // dims-product overflow must be caught, not wrap
        let mut h = sample();
        h.inner_dims = vec![usize::MAX / 2, 4];
        assert!(h.encode().is_err());
    }

    #[test]
    fn header_rejects_unknown_flags_and_version() {
        let mut bytes = sample().encode().unwrap();
        bytes[6] |= 0x02; // undefined flag bit
        assert!(StreamHeader::decode(&bytes).is_err());
        let mut bytes = sample().encode().unwrap();
        bytes[4] = 9; // future version
        assert!(StreamHeader::decode(&bytes).is_err());
    }

    #[test]
    fn chunk_record_roundtrip_and_validation() {
        let header = sample();
        let slice = header.slice_bytes().unwrap();
        let rec = ChunkRecord {
            outer: 3,
            raw_len: (slice * 3) as u32,
            comp_len: 100,
            checksum: 0xdead_beef,
        };
        let back = ChunkRecord::parse_prefix(&rec.encode_prefix());
        assert_eq!(back, rec);
        rec.validate(&header).unwrap();

        let mut bad = rec;
        bad.outer = 5; // > chunk_outer
        assert!(bad.validate(&header).is_err());
        let mut bad = rec;
        bad.raw_len += 1; // shape mismatch
        assert!(bad.validate(&header).is_err());
        let mut bad = rec;
        bad.comp_len = 0;
        assert!(bad.validate(&header).is_err());
    }

    #[test]
    fn end_marker_roundtrip() {
        let end = EndMarker {
            total_chunks: 12,
            total_outer: 48,
            content_checksum: 0x0123_4567_89ab_cdef,
        };
        let bytes = end.encode();
        assert_eq!(EndMarker::parse(&bytes).unwrap(), end);
        // an end marker prefix parses as a chunk record with outer == 0
        assert_eq!(ChunkRecord::parse_prefix(&bytes).outer, 0);
    }
}
