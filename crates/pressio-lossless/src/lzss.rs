//! LZSS byte-oriented dictionary compression.
//!
//! SZ3 post-processes its Huffman-coded quantization stream with a
//! dictionary coder (zstd in the reference implementation). This LZSS with a
//! 64 KiB window and hash-chain match finding plays that role: it captures
//! the long runs and repeated structures that remain after entropy coding of
//! quantization indices, with fully deterministic output.

use crate::bitstream::{BitReader, BitWriter};

/// Errors from LZSS decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzssError {
    /// Stream ended prematurely or references preceded the window.
    Corrupt(&'static str),
}

impl std::fmt::Display for LzssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzssError::Corrupt(m) => write!(f, "corrupt lzss stream: {m}"),
        }
    }
}

impl std::error::Error for LzssError {}

const WINDOW_BITS: u32 = 16;
const WINDOW_SIZE: usize = 1 << WINDOW_BITS;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 258;
const LEN_BITS: u32 = 8; // MAX_MATCH - MIN_MATCH fits in 8 bits
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 64;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    ((v.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `limit`; `a < b` and `b + limit <= data.len()`. Eight bytes a step: the
/// first differing byte is the lowest set byte of the XOR.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    let mut l = 0;
    while l + 8 <= limit {
        let diff = word(a + l) ^ word(b + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Compress `data`. Output format: `[len:u64][tokens]` where each token is a
/// flag bit (0 = literal byte, 1 = match) followed by either 8 literal bits
/// or `WINDOW_BITS` distance + `LEN_BITS` length-minus-MIN_MATCH bits.
///
/// The match finder is a hash chain: `head[h]` is the latest position whose
/// four bytes hash to `h`, `prev` links each position to the one before it
/// on the same chain. A position is stored as its low 32 bits plus one
/// (0 = none) and read back as a distance from the cursor, and only
/// positions inside the window are ever followed, so `prev` is a ring of
/// the window's size — both tables cost the same however long the input.
/// (Past 4 GiB a stored position can alias a later one; a candidate is
/// still only taken after its bytes compared equal.)
pub fn compress(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    let mut w = BitWriter::with_capacity(n / 2 + 16);
    w.write_bits(n as u64, 64);
    let mut head = vec![0u32; 1 << HASH_BITS];
    let mut prev = vec![0u32; n.min(WINDOW_SIZE).next_power_of_two()];
    let ring = prev.len() - 1;
    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash4(data, i);
            let limit = (n - i).min(MAX_MATCH);
            let mut link = head[h];
            for _ in 0..MAX_CHAIN {
                let dist = ((i + 1) as u32).wrapping_sub(link) as usize;
                if link == 0 || !(1..WINDOW_SIZE).contains(&dist) {
                    break;
                }
                let cand = i - dist;
                // the first longest match wins, so a candidate only counts
                // if it is longer than the best — and then it agrees with
                // the input at `best_len`; most do not, and stop here
                if data[cand + best_len] == data[i + best_len] {
                    let l = match_len(data, cand, i, limit);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == limit {
                            break;
                        }
                    }
                }
                link = prev[cand & ring];
            }
            // insert current position into the chain
            prev[i & ring] = head[h];
            head[h] = (i + 1) as u32;
        }
        if best_len >= MIN_MATCH {
            let len = (best_len - MIN_MATCH) as u64;
            let token = 1 | (best_dist as u64) << 1 | len << (1 + WINDOW_BITS);
            w.write_bits(token, 1 + WINDOW_BITS + LEN_BITS);
            // index the skipped positions so later matches can reach them
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            for j in i + 1..end {
                let h = hash4(data, j);
                prev[j & ring] = head[h];
                head[h] = (j + 1) as u32;
            }
            i += best_len;
        } else {
            w.write_bits((data[i] as u64) << 1, 9);
            i += 1;
        }
    }
    w.into_bytes()
}

/// Inverse of [`compress`].
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>, LzssError> {
    let mut r = BitReader::new(bytes);
    let n = r
        .read_bits(64)
        .ok_or(LzssError::Corrupt("missing length"))? as usize;
    // guard against absurd lengths from corrupt headers
    if n > bytes.len().saturating_mul(MAX_MATCH) + 64 {
        return Err(LzssError::Corrupt("implausible decoded length"));
    }
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let flag = r.read_bit().ok_or(LzssError::Corrupt("truncated token"))?;
        if flag {
            let dist = r
                .read_bits(WINDOW_BITS)
                .ok_or(LzssError::Corrupt("truncated match"))? as usize;
            let len = r
                .read_bits(LEN_BITS)
                .ok_or(LzssError::Corrupt("truncated match"))? as usize
                + MIN_MATCH;
            if dist == 0 || dist > out.len() {
                return Err(LzssError::Corrupt("match distance out of range"));
            }
            let start = out.len() - dist;
            // overlapping copies are valid (runs); copy byte-by-byte
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            let b = r
                .read_bits(8)
                .ok_or(LzssError::Corrupt("truncated literal"))? as u8;
            out.push(b);
        }
    }
    if out.len() != n {
        return Err(LzssError::Corrupt("length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xorshift;

    /// The match finder this module had before the ring: chain tables of
    /// `usize` as long as the input, bytewise match extension, every
    /// candidate extended. The reference [`compress`] is held to, byte for
    /// byte.
    fn compress_reference(data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::with_capacity(data.len() / 2 + 16);
        w.write_bits(data.len() as u64, 64);
        let n = data.len();
        if n == 0 {
            return w.into_bytes();
        }
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; n];
        let mut i = 0usize;
        while i < n {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= n {
                let h = hash4(data, i);
                let mut cand = head[h];
                let mut chain = 0usize;
                let window_start = i.saturating_sub(WINDOW_SIZE - 1);
                while cand != usize::MAX && cand >= window_start && chain < MAX_CHAIN {
                    let limit = (n - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= MAX_MATCH {
                            break;
                        }
                    }
                    if cand == 0 {
                        break;
                    }
                    cand = prev[cand];
                    chain += 1;
                }
                prev[i] = head[h];
                head[h] = i;
            }
            if best_len >= MIN_MATCH {
                w.write_bit(true);
                w.write_bits(best_dist as u64, WINDOW_BITS);
                w.write_bits((best_len - MIN_MATCH) as u64, LEN_BITS);
                let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
                let mut j = i + 1;
                while j < end {
                    let h = hash4(data, j);
                    prev[j] = head[h];
                    head[h] = j;
                    j += 1;
                }
                i += best_len;
            } else {
                w.write_bit(false);
                w.write_bits(data[i] as u64, 8);
                i += 1;
            }
        }
        w.into_bytes()
    }

    #[test]
    fn same_bytes_as_the_reference_match_finder() {
        let mut next = xorshift(0x5eed_1255);
        let mut inputs: Vec<(&str, Vec<u8>)> = vec![
            ("empty", vec![]),
            ("one byte", vec![9]),
            ("two bytes", vec![9, 9]),
            ("three bytes", vec![9, 9, 9]),
            ("four equal bytes", vec![9; 4]),
            ("noise", (0..20_000).map(|_| next() as u8).collect()),
            // few distinct bytes: long chains, many near-ties between candidates
            (
                "two-letter noise",
                (0..30_000).map(|_| next() as u8 & 1).collect(),
            ),
            ("zeros past two windows", vec![0; 150_000]),
        ];
        let mut runs = Vec::new();
        while runs.len() < 60_000 {
            let (byte, len) = (next() as u8 & 3, next() % 700);
            runs.extend(std::iter::repeat_n(byte, len as usize));
        }
        inputs.push(("run-heavy", runs));
        for period in [1usize, 2, 3, 4, 5, 7, 255, 256, 257, 258, 259, 300, 1000] {
            let unit: Vec<u8> = (0..period).map(|_| next() as u8).collect();
            inputs.push((
                "periodic",
                unit.iter().copied().cycle().take(5_000).collect(),
            ));
        }
        // repeats at distances around the window's edge: 65 535 is the
        // farthest a match may reach
        for gap in [65_530usize, 65_534, 65_535, 65_536, 65_537, 70_000] {
            let block: Vec<u8> = (0..600).map(|_| next() as u8).collect();
            let mut data = block.clone();
            data.extend((0..gap - block.len()).map(|_| next() as u8));
            data.extend_from_slice(&block);
            data.extend((0..5_000).map(|_| next() as u8 & 7));
            inputs.push(("beyond the window", data));
        }
        // the shape LZSS sees in the SZ pipeline: a coded sparse field,
        // long stretches of one repeated byte broken by short noisy bursts
        let mut coded = Vec::new();
        while coded.len() < 200_000 {
            coded.extend(std::iter::repeat_n(0u8, (next() % 5_000) as usize));
            coded.extend((0..next() % 40).map(|_| next() as u8));
        }
        inputs.push(("coded sparse field", coded));
        for (name, data) in inputs {
            let packed = compress(&data);
            assert!(
                packed == compress_reference(&data),
                "{name} ({} bytes): output differs from the reference",
                data.len()
            );
            assert_eq!(decompress(&packed).unwrap(), data, "{name}");
        }
    }

    #[test]
    fn round_trip_text() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog."
            .to_vec();
        let c = compress(&data);
        assert!(c.len() < data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn round_trip_empty_and_tiny() {
        for data in [vec![], vec![7u8], vec![1, 2, 3]] {
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn zero_runs_compress_hard() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 2_000, "run compression too weak: {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_run() {
        // "abcabcabc..." exercises overlapping copies (dist < len)
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(5000).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_round_trips() {
        // xorshift noise: no matches, pure literal path
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        // literal overhead is 9/8 plus the header
        assert!(c.len() <= data.len() * 9 / 8 + 16);
    }

    #[test]
    fn matches_beyond_window_are_not_used() {
        // 70000 zeros, then a unique marker, then zeros again: decoder must
        // never be asked to reach back past the 64KiB window.
        let mut data = vec![0u8; 70_000];
        data.extend_from_slice(b"MARKER");
        data.extend(vec![0u8; 70_000]);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data: Vec<u8> = b"hello hello hello hello hello".to_vec();
        let c = compress(&data);
        for cut in [0, 4, 8, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn corrupt_distance_errors() {
        // hand-craft: length 4, then a match token with dist > produced
        let mut w = BitWriter::new();
        w.write_bits(4, 64);
        w.write_bit(true);
        w.write_bits(100, WINDOW_BITS); // distance 100 into empty output
        w.write_bits(0, LEN_BITS);
        let bytes = w.into_bytes();
        assert!(decompress(&bytes).is_err());
    }
}
