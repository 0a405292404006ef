//! The versioned, checksummed decision-record header that makes a selected
//! container self-describing.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"PSEL"
//! 4       2     format version (currently 1)
//! 6       2     reserved (must be 0)
//! 8       4     payload length in bytes
//! 12      8     FNV-1a 64 checksum of the payload bytes
//! 20      n     payload: the decision record as canonical Options JSON
//! 20+n    ...   the winning codec's own compressed stream
//! ```
//!
//! The payload carries everything decompression and auditing need: the
//! winning codec id and error bound, the original dtype + dims, how the
//! decision was made (`trial`/`remote`/`static`), the model tag consulted,
//! the policy string, the predicted ratio, and whether the static fallback
//! fired. Decoding is a pure function — a reject leaves no partial state —
//! and every length/dimension is checked before use so corrupt or
//! adversarial headers fail with [`Error::CorruptStream`], never a panic.

use pressio_core::data::Dtype;
use pressio_core::error::{Error, Result};
use pressio_core::hash::fnv1a64;
use pressio_core::Options;

/// Container magic.
pub const MAGIC: [u8; 4] = *b"PSEL";
/// Current header format version.
pub const VERSION: u16 = 1;
/// Fixed-size prefix before the JSON payload.
pub const PREFIX_LEN: usize = 20;
/// Upper bound on the JSON payload: a decision record is a handful of
/// scalar fields, so anything bigger than this is corrupt, not large.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// The audited compression decision stored in every selected container.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Winning codec id (`"sz3"` / `"zfp"`).
    pub codec: String,
    /// Absolute error bound the winner was configured with.
    pub abs: f64,
    /// Original buffer dtype (decompression needs no out-of-band shape).
    pub dtype: Dtype,
    /// Original buffer dims.
    pub dims: Vec<usize>,
    /// How the decision was made: `"trial"`, `"remote"`, or `"static"`.
    pub consult: String,
    /// Model tag consulted (`name@version`), or `"-"` for trial/static.
    pub model: String,
    /// Human-readable policy the decision satisfied.
    pub policy: String,
    /// The consult's predicted compression ratio for the winner (0 when
    /// the static policy decided without a prediction).
    pub predicted_ratio: f64,
    /// True when the deterministic static policy decided because the
    /// consult path was unavailable or the model was stale.
    pub fallback: bool,
}

impl DecisionRecord {
    /// Render as the canonical `Options` the JSON payload serializes.
    pub fn to_options(&self) -> Options {
        Options::new()
            .with("select:codec", self.codec.as_str())
            .with("select:abs", self.abs)
            .with("select:dtype", self.dtype.name())
            .with(
                "select:dims",
                self.dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
            )
            .with("select:consult", self.consult.as_str())
            .with("select:model", self.model.as_str())
            .with("select:policy", self.policy.as_str())
            .with("select:predicted_ratio", self.predicted_ratio)
            .with("select:fallback", self.fallback)
    }

    /// Parse back from the payload `Options`, validating every field.
    pub fn from_options(opts: &Options) -> Result<DecisionRecord> {
        let codec = opts.get_str("select:codec")?.to_string();
        if codec.is_empty() || codec.len() > 64 {
            return Err(Error::CorruptStream("decision record: bad codec id".into()));
        }
        let abs = opts.get_f64("select:abs")?;
        if !(abs.is_finite() && abs > 0.0) {
            return Err(Error::CorruptStream(
                "decision record: error bound must be positive and finite".into(),
            ));
        }
        let dtype = Dtype::parse(opts.get_str("select:dtype")?)?;
        let dims_u64 = opts.get_u64_slice("select:dims")?;
        if dims_u64.is_empty() || dims_u64.len() > 8 {
            return Err(Error::CorruptStream(
                "decision record: dims must have 1..=8 entries".into(),
            ));
        }
        // reject dimension products that overflow or exceed any plausible
        // buffer before a codec multiplies them (lesson from the SZ fuzzer)
        let mut elements: usize = 1;
        for &d in dims_u64 {
            let d = usize::try_from(d)
                .ok()
                .filter(|&d| d > 0)
                .ok_or_else(|| Error::CorruptStream("decision record: bad dimension".into()))?;
            elements = elements
                .checked_mul(d)
                .filter(|&n| n.checked_mul(dtype.size()).is_some())
                .ok_or_else(|| {
                    Error::CorruptStream("decision record: dims product overflows".into())
                })?;
        }
        let predicted_ratio = opts.get_f64("select:predicted_ratio")?;
        if !predicted_ratio.is_finite() || predicted_ratio < 0.0 {
            return Err(Error::CorruptStream(
                "decision record: bad predicted ratio".into(),
            ));
        }
        Ok(DecisionRecord {
            codec,
            abs,
            dtype,
            dims: dims_u64.iter().map(|&d| d as usize).collect(),
            consult: opts.get_str("select:consult")?.to_string(),
            model: opts.get_str("select:model")?.to_string(),
            policy: opts.get_str("select:policy")?.to_string(),
            predicted_ratio,
            fallback: opts.get_bool("select:fallback")?,
        })
    }

    /// Encode the full header (fixed prefix + JSON payload), ready to have
    /// the winner's compressed stream appended.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let payload = self.to_options().to_json()?.into_bytes();
        if payload.len() > MAX_PAYLOAD {
            return Err(Error::Serialization(
                "decision record payload exceeds MAX_PAYLOAD".into(),
            ));
        }
        let mut out = Vec::with_capacity(PREFIX_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }
}

/// Decode the header at the front of `container`, returning the record and
/// the offset where the winner's compressed stream begins.
///
/// Pure and atomic on reject: any malformed input returns `Err` without
/// yielding a partial record or touching global state.
pub fn decode(container: &[u8]) -> Result<(DecisionRecord, usize)> {
    let fail = |why: &str| Error::CorruptStream(format!("select container: {why}"));
    if container.len() < PREFIX_LEN {
        return Err(fail("truncated header prefix"));
    }
    if container[0..4] != MAGIC {
        return Err(fail("bad magic"));
    }
    let version = u16::from_le_bytes([container[4], container[5]]);
    if version != VERSION {
        return Err(fail(&format!("unsupported header version {version}")));
    }
    if container[6] != 0 || container[7] != 0 {
        return Err(fail("nonzero reserved field"));
    }
    let payload_len =
        u32::from_le_bytes([container[8], container[9], container[10], container[11]]) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(fail("payload length exceeds MAX_PAYLOAD"));
    }
    let rest = &container[PREFIX_LEN..];
    if rest.len() < payload_len {
        return Err(fail("truncated payload"));
    }
    let payload = &rest[..payload_len];
    let want = u64::from_le_bytes(container[12..20].try_into().expect("8 checksum bytes"));
    if fnv1a64(payload) != want {
        return Err(fail("payload checksum mismatch"));
    }
    let text = std::str::from_utf8(payload).map_err(|_| fail("payload is not UTF-8"))?;
    let opts = Options::from_json(text).map_err(|e| fail(&format!("payload JSON: {e}")))?;
    let record = DecisionRecord::from_options(&opts)?;
    Ok((record, PREFIX_LEN + payload_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecisionRecord {
        DecisionRecord {
            codec: "zfp".into(),
            abs: 1e-4,
            dtype: Dtype::F32,
            dims: vec![16, 16, 8],
            consult: "trial".into(),
            model: "-".into(),
            policy: "max-ratio s.t. psnr>=60dB".into(),
            predicted_ratio: 7.25,
            fallback: false,
        }
    }

    #[test]
    fn roundtrips_with_trailing_stream() {
        let record = sample();
        let mut container = record.encode().unwrap();
        let offset = container.len();
        container.extend_from_slice(b"compressed-bytes");
        let (back, start) = decode(&container).unwrap();
        assert_eq!(back, record);
        assert_eq!(start, offset);
        assert_eq!(&container[start..], b"compressed-bytes");
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let container = sample().encode().unwrap();
        for len in 0..container.len() {
            assert!(decode(&container[..len]).is_err(), "accepted prefix {len}");
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_checksum() {
        let good = sample().encode().unwrap();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode(&bad).is_err());
        let mut bad = good.clone();
        bad[4] = 0xFF; // version
        assert!(decode(&bad).is_err());
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // flip a payload byte under the checksum
        assert!(decode(&bad).is_err());
        assert!(decode(&good).is_ok(), "original still parses after rejects");
    }

    #[test]
    fn rejects_overflowing_dims() {
        let mut record = sample();
        record.dims = vec![usize::MAX, 2];
        let container = record.encode().unwrap();
        let err = decode(&container).unwrap_err();
        assert!(matches!(err, Error::CorruptStream(_)), "{err}");
    }

    #[test]
    fn rejects_zero_and_nonpositive_bounds() {
        let mut record = sample();
        record.dims = vec![4, 0];
        assert!(decode(&record.encode().unwrap()).is_err());
        let mut record = sample();
        record.abs = -1.0;
        assert!(decode(&record.encode().unwrap()).is_err());
    }
}
