//! Canonical Huffman coding over `u32` symbol alphabets.
//!
//! SZ-style compressors Huffman-code their quantization indices; the Jin
//! (2022) ratio-quality model additionally needs the *expected code length*
//! of a symbol distribution without actually encoding. Both are served here.
//!
//! Codes are canonical: only the code-length table is stored in the stream
//! header, and both encoder and decoder derive identical codebooks from it.

use crate::bitstream::{BitReader, BitWriter};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;

/// Errors from Huffman coding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// The encoded stream ended prematurely or contained an invalid code.
    Corrupt(&'static str),
    /// Attempted to encode a symbol not present when the codebook was built.
    UnknownSymbol(u32),
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::Corrupt(msg) => write!(f, "corrupt huffman stream: {msg}"),
            HuffmanError::UnknownSymbol(s) => write!(f, "symbol {s} not in codebook"),
        }
    }
}

impl std::error::Error for HuffmanError {}

/// Maximum code length we emit. Package-merge style limiting is overkill for
/// quantization-index alphabets; we rebuild with dampened frequencies in the
/// rare case the tree exceeds this.
const MAX_CODE_LEN: u32 = 58;

/// Longest code length a table may carry (its length field is 6 bits).
const MAX_TABLE_LEN: u32 = 63;

/// Width of the decoder's first-level lookup table: codes up to this many
/// bits decode in one load, several to a 64-bit word. 2 048 eight-byte
/// entries sit in L1 beside the stream.
const LUT_BITS: u32 = 11;

/// A band of symbol values is worth a dense array while it is no wider than
/// this many slots per input symbol; past that, zeroing and scanning the
/// array costs more than sorting the input. This keeps every table's cost
/// proportional to the buffer, not to the alphabet's capacity.
const BAND_SLOTS_PER_SYMBOL: u64 = 16;

/// Whether the inclusive band `lo..=hi` may back a dense array for an input
/// of `n` symbols.
fn band_is_dense(lo: u32, hi: u32, n: u64) -> bool {
    ((hi - lo) as u64) < BAND_SLOTS_PER_SYMBOL.saturating_mul(n)
}

/// The canonical code of each length: where its run of consecutive codes
/// starts, where its symbols start in the canonical order, and how many
/// there are. Indexed by length.
#[derive(Debug, Clone, Copy, Default)]
struct LengthRun {
    first_code: u64,
    first_index: usize,
    count: usize,
}

/// A canonical Huffman codebook for a set of `u32` symbols.
#[derive(Debug, Clone)]
pub struct Codebook {
    /// (symbol, code length) in canonical order: shorter codes first, then
    /// by symbol.
    lengths: Vec<(u32, u32)>,
    /// One run per code length, `0..=max_len`.
    runs: Vec<LengthRun>,
    /// symbol → code for encoding. [`Codebook::from_frequencies`] fills it,
    /// sized by its input; a book read from a stream builds the
    /// allocation-by-count form on first use, so no table header can size
    /// an array by a symbol's *value*.
    index: OnceLock<EncodeIndex>,
    /// First-level decode table, built by the first [`Codebook::decode`].
    lut: OnceLock<Vec<LutEntry>>,
}

/// An encoder slot: the code bit-reversed (so one LSB-first write emits it
/// MSB-first) under a marker bit at position `len`. Codes are at most 63
/// bits, so the marker fits; 0 means "no code".
fn slot(code: u64, len: u32) -> u64 {
    (code.reverse_bits() >> (64 - len)) | 1 << len
}

fn slot_len(slot: u64) -> u32 {
    63 - slot.leading_zeros()
}

/// symbol → [`slot`], without hashing: a dense array over the band of
/// symbols present, SZ's escape symbol 0 kept out of it (the band sits
/// around the quantizer's radius, tens of thousands of slots from 0), or a
/// sorted list when the alphabet is too sparse for a band.
#[derive(Debug, Clone, Default)]
struct EncodeIndex {
    /// Slots of the symbols `lo..lo + band.len()`.
    band: Vec<u64>,
    lo: u32,
    /// Slot of symbol 0 when there is a band.
    zero: u64,
    /// `(symbol, slot)` by symbol, when there is no band.
    sorted: Vec<(u32, u64)>,
}

impl EncodeIndex {
    /// Index `book` for an input of `total` symbols (`None`: unknown, no
    /// band).
    fn new(book: &Codebook, total: Option<u64>) -> EncodeIndex {
        let coded = book.lengths.iter().enumerate().map(|(i, &(sym, len))| {
            let run = &book.runs[len as usize];
            let code = run.first_code.wrapping_add((i - run.first_index) as u64);
            (sym, slot(code, len))
        });
        let nonzero = book.lengths.iter().map(|&(s, _)| s).filter(|&s| s != 0);
        // no nonzero symbol at all: an empty band above 0
        let lo = nonzero.clone().min().unwrap_or(1);
        let hi = nonzero.max().unwrap_or(lo);
        let mut index = EncodeIndex::default();
        if total.is_some_and(|n| band_is_dense(lo, hi, n)) {
            index.lo = lo;
            index.band = vec![0; (hi - lo) as usize + 1];
            for (sym, slot) in coded {
                match sym {
                    0 => index.zero = slot,
                    _ => index.band[(sym - lo) as usize] = slot,
                }
            }
        } else {
            index.sorted = coded.collect();
            index.sorted.sort_unstable();
        }
        index
    }

    /// The slot of `symbol`, 0 if it has no code.
    #[inline]
    fn slot(&self, symbol: u32) -> u64 {
        match self.band.get(symbol.wrapping_sub(self.lo) as usize) {
            Some(&slot) => slot,
            None => self.slot_outside_band(symbol),
        }
    }

    #[cold]
    fn slot_outside_band(&self, symbol: u32) -> u64 {
        if symbol == 0 && !self.band.is_empty() {
            return self.zero;
        }
        match self.sorted.binary_search_by_key(&symbol, |&(s, _)| s) {
            Ok(i) => self.sorted[i].1,
            Err(_) => 0,
        }
    }
}

/// A first-level decode table entry: the symbol whose code is a prefix of
/// the index, and that code's length; length 0 sends the decoder to the
/// canonical walk.
#[derive(Debug, Clone, Copy, Default)]
struct LutEntry {
    symbol: u32,
    len: u32,
}

impl Codebook {
    /// Build a codebook from `(symbol, frequency)` pairs. Zero-frequency
    /// entries are ignored; an empty histogram yields an empty codebook; a
    /// single-symbol histogram gets a 1-bit code.
    pub fn from_frequencies(freqs: &[(u32, u64)]) -> Codebook {
        let mut active: Vec<(u32, u64)> = freqs.iter().copied().filter(|&(_, f)| f > 0).collect();
        active.sort_unstable();
        let lengths = match active.len() {
            0 => Vec::new(),
            1 => vec![(active[0].0, 1)],
            _ => {
                let mut lengths = huffman_lengths(&active);
                // Rare pathological distributions can exceed MAX_CODE_LEN;
                // dampen by flattening frequencies logarithmically and rebuild.
                if lengths.iter().any(|&(_, l)| l > MAX_CODE_LEN) {
                    lengths = huffman_lengths(&dampened(&active));
                }
                lengths
            }
        };
        let book = Self::from_lengths(lengths);
        let total = active.iter().fold(0u64, |n, &(_, f)| n.saturating_add(f));
        let index = EncodeIndex::new(&book, Some(total));
        Codebook {
            index: index.into(),
            ..book
        }
    }

    /// Build from an explicit `(symbol, code length)` table (the stream
    /// header form). Lengths must be in `1..=63` and satisfy Kraft's
    /// inequality, as produced by [`Codebook::from_frequencies`].
    pub fn from_lengths(mut lengths: Vec<(u32, u32)>) -> Codebook {
        // canonical order: shorter codes first, then by symbol
        lengths.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        assert!(
            lengths
                .iter()
                .all(|&(_, l)| (1..=MAX_TABLE_LEN).contains(&l)),
            "code lengths must be in 1..=63"
        );
        let max_len = lengths.last().map_or(0, |&(_, l)| l as usize);
        let mut runs = vec![LengthRun::default(); max_len + 1];
        for &(_, l) in &lengths {
            runs[l as usize].count += 1;
        }
        let (mut code, mut index) = (0u64, 0usize);
        for run in &mut runs[1..] {
            code <<= 1;
            run.first_code = code;
            run.first_index = index;
            code = code.wrapping_add(run.count as u64);
            index += run.count;
        }
        Codebook {
            lengths,
            runs,
            index: OnceLock::new(),
            lut: OnceLock::new(),
        }
    }

    /// Number of symbols with codes.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// Whether the codebook is empty.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    fn index(&self) -> &EncodeIndex {
        self.index.get_or_init(|| EncodeIndex::new(self, None))
    }

    /// Code length in bits for `symbol`, if coded.
    pub fn code_length(&self, symbol: u32) -> Option<u32> {
        Some(self.index().slot(symbol))
            .filter(|&slot| slot != 0)
            .map(slot_len)
    }

    /// Expected bits/symbol under the distribution `freqs` — the quantity the
    /// Jin model computes analytically (its "Huffman encoding efficiency").
    pub fn expected_code_length(&self, freqs: &[(u32, u64)]) -> f64 {
        let total: u64 = freqs.iter().map(|&(_, f)| f).sum();
        if total == 0 {
            return 0.0;
        }
        let mut bits = 0.0;
        for &(s, f) in freqs {
            if f == 0 {
                continue;
            }
            let len = self.code_length(s).unwrap_or(32) as f64;
            bits += len * f as f64;
        }
        bits / total as f64
    }

    /// Canonical `(code, length)` for `symbol`, if coded. The code value is
    /// MSB-first, as [`Codebook::decode`] consumes it.
    #[cfg(test)]
    pub fn code(&self, symbol: u32) -> Option<(u64, u32)> {
        let len = self.code_length(symbol)?;
        let slot = self.index().slot(symbol);
        Some(((slot ^ 1 << len).reverse_bits() >> (64 - len), len))
    }

    /// Encode `symbols` onto `writer` (MSB-first within each code).
    pub fn encode(&self, symbols: &[u32], writer: &mut BitWriter) -> Result<(), HuffmanError> {
        let index = self.index();
        for &s in symbols {
            match index.slot(s) {
                0 => return Err(HuffmanError::UnknownSymbol(s)),
                // the writer takes the low `len` bits: the code, not its marker
                slot => writer.write_bits(slot, slot_len(slot)),
            }
        }
        Ok(())
    }

    /// Decode exactly `count` symbols from `reader`.
    pub fn decode(&self, reader: &mut BitReader, count: usize) -> Result<Vec<u32>, HuffmanError> {
        let mut out = Vec::with_capacity(count);
        self.decode_onto(reader, count, &mut out)?;
        Ok(out)
    }

    /// [`Codebook::decode`] appending to `out`.
    fn decode_onto(
        &self,
        reader: &mut BitReader,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), HuffmanError> {
        if self.is_empty() {
            return if count == 0 {
                Ok(())
            } else {
                Err(HuffmanError::Corrupt("empty codebook"))
            };
        }
        let lut = self.lut.get_or_init(|| self.build_lut());
        let mask = lut.len() as u64 - 1;
        let count = out.len() + count;
        while out.len() < count {
            // whole words through the table, for as long as 8 bytes remain
            // and the next code is short enough to be in it
            if let Some((mut word, valid)) = reader.peek_word() {
                let mut left = valid;
                while out.len() < count {
                    let entry = lut[(word & mask) as usize];
                    if entry.len == 0 || entry.len > left {
                        break;
                    }
                    out.push(entry.symbol);
                    word >>= entry.len;
                    left -= entry.len;
                }
                if left < valid {
                    reader.skip_bits(valid - left);
                    continue;
                }
            }
            // a code longer than the table, the stream's last bytes, and
            // every malformed stream: one symbol by the canonical walk
            out.push(self.decode_one(reader)?);
        }
        Ok(())
    }

    /// Decode one symbol a bit at a time: extend the code until it falls in
    /// its length's run of canonical codes.
    fn decode_one(&self, reader: &mut BitReader) -> Result<u32, HuffmanError> {
        let mut code = 0u64;
        for run in &self.runs[1..] {
            let bit = reader
                .read_bit()
                .ok_or(HuffmanError::Corrupt("stream truncated"))?;
            code = (code << 1) | bit as u64;
            if code >= run.first_code && code < run.first_code.wrapping_add(run.count as u64) {
                let idx = run.first_index + (code - run.first_code) as usize;
                return Ok(self.lengths[idx].0);
            }
        }
        // one bit past the longest code still has to be there to be invalid
        reader
            .read_bit()
            .ok_or(HuffmanError::Corrupt("stream truncated"))?;
        Err(HuffmanError::Corrupt("invalid code"))
    }

    /// The first-level table: every index whose low bits, read first bit
    /// lowest, start with a code of at most [`LUT_BITS`] bits maps to that
    /// code's symbol. Filled longest length first so that on a table that
    /// breaks Kraft's inequality (only a corrupt header can) the shortest
    /// match wins, as it does in [`Codebook::decode_one`].
    fn build_lut(&self) -> Vec<LutEntry> {
        let bits = LUT_BITS.min(self.runs.len() as u32 - 1);
        let mut lut = vec![LutEntry::default(); 1 << bits];
        for len in (1..=bits).rev() {
            let run = &self.runs[len as usize];
            // codes past `len` bits (an over-full table) match no bit pattern
            let codes = (1u64 << len).saturating_sub(run.first_code);
            for k in 0..run.count.min(codes as usize) {
                let entry = LutEntry {
                    symbol: self.lengths[run.first_index + k].0,
                    len,
                };
                let code = run.first_code + k as u64;
                let first = (code.reverse_bits() >> (64 - len)) as usize;
                for slot in lut[first..].iter_mut().step_by(1 << len) {
                    *slot = entry;
                }
            }
        }
        lut
    }

    /// Serialize the code-length table (the only part a decoder needs).
    pub fn write_table(&self, writer: &mut BitWriter) {
        writer.write_bits(self.lengths.len() as u64, 32);
        for &(sym, len) in &self.lengths {
            writer.write_bits(sym as u64 | (len as u64) << 32, 38);
        }
    }

    /// Read a table written by [`Codebook::write_table`].
    pub fn read_table(reader: &mut BitReader) -> Result<Codebook, HuffmanError> {
        let n = reader
            .read_bits(32)
            .ok_or(HuffmanError::Corrupt("missing table size"))? as usize;
        // sanity cap: a table bigger than the remaining stream is corrupt
        if n > reader.remaining_bits() / 38 + 1 {
            return Err(HuffmanError::Corrupt("table size exceeds stream"));
        }
        let mut lengths = Vec::with_capacity(n);
        for _ in 0..n {
            let sym = reader
                .read_bits(32)
                .ok_or(HuffmanError::Corrupt("truncated table"))? as u32;
            let len = reader
                .read_bits(6)
                .ok_or(HuffmanError::Corrupt("truncated table"))? as u32;
            if len == 0 {
                return Err(HuffmanError::Corrupt("invalid code length"));
            }
            lengths.push((sym, len));
        }
        Ok(Codebook::from_lengths(lengths))
    }
}

/// Huffman code lengths for the given (sorted by symbol, positive)
/// histogram, in its order.
///
/// The tree is the one a min-heap ordered by `(frequency, id)` builds —
/// leaves are ids `0..n` in input order, internal nodes `n..` in the order
/// they are made — merged from two queues instead: the leaves sorted by
/// `(frequency, id)`, and the internal nodes in a FIFO, which they enter in
/// order of frequency (each sums the two least nodes left) and of id. So
/// either queue's head is its least node, a tie between the heads goes to
/// the leaf (its id is lower) as the heap's order has it, and the merge
/// pops what the heap would. Depths are then set from the root down: a
/// node's parent always has the higher id.
fn huffman_lengths(freqs: &[(u32, u64)]) -> Vec<(u32, u32)> {
    let n = freqs.len();
    debug_assert!(n >= 2);
    let mut leaves: Vec<(u64, usize)> = freqs.iter().enumerate().map(|(id, f)| (f.1, id)).collect();
    leaves.sort_unstable();
    let mut leaves = leaves.into_iter().peekable();
    // internal node `n + k` sums to `internal[k]`
    let mut internal: Vec<u64> = Vec::with_capacity(n - 1);
    let mut parent = vec![0usize; 2 * n - 1];
    let mut next_internal = 0;
    for id in n..2 * n - 1 {
        let mut least = || {
            let queued = internal.get(next_internal).map(|&f| (f, n + next_internal));
            match (leaves.peek(), queued) {
                (Some(&leaf), Some(node)) if node < leaf => {
                    next_internal += 1;
                    node
                }
                (Some(_), _) => leaves.next().expect("the head just peeked"),
                (None, node) => {
                    next_internal += 1;
                    node.expect("n − 1 merges take 2n − 2 nodes")
                }
            }
        };
        let (a, b) = (least(), least());
        (parent[a.1], parent[b.1]) = (id, id);
        internal.push(a.0 + b.0);
    }
    // each node's parent link becomes its depth, the root's (`2n − 2`) 0:
    // the links above a node are depths by the time it is reached
    let depth = &mut parent;
    depth[2 * n - 2] = 0;
    for id in (0..2 * n - 2).rev() {
        depth[id] = depth[depth[id]] + 1;
    }
    freqs
        .iter()
        .zip(depth.iter())
        .map(|(&(sym, _), &d)| (sym, d as u32))
        .collect()
}

/// A histogram flattened logarithmically, for a rebuild whose longest code
/// fits [`MAX_CODE_LEN`].
fn dampened(freqs: &[(u32, u64)]) -> Vec<(u32, u64)> {
    freqs
        .iter()
        .map(|&(s, f)| (s, (f as f64).log2().max(0.0) as u64 + 1))
        .collect()
}

/// Symbols per encode shard in the sharded stream layout. This is a
/// **format constant**: shard boundaries depend only on it, never on the
/// thread count, so any thread count produces (and decodes) byte-identical
/// streams.
pub const ENC_SHARD: usize = 1 << 15;

/// Huffman-compress `symbols` into the *sharded* self-describing layout:
///
/// `[table][count:u64][n_shards:u64][shard_bytes:u64 × n_shards][pad][shard payloads...]`
///
/// Each shard independently encodes `ENC_SHARD` consecutive symbols (the
/// last shard takes the remainder) and is zero-padded to a byte boundary,
/// so shards can be encoded *and* decoded in parallel. The per-shard byte
/// lengths ride in the header. Single-threaded output is byte-identical to
/// any parallel output because shard boundaries are a format constant.
pub fn compress_symbols_sharded(symbols: &[u32], nthreads: usize) -> Vec<u8> {
    let mut out = Vec::new();
    write_symbols_sharded(symbols, nthreads, &mut out);
    out
}

/// [`compress_symbols_sharded`] appended to `out`. The shard-length table
/// is written as zeros and filled in once the shards are written: at one
/// thread each shard is encoded straight onto `out`, at more each into a
/// buffer of its own, in parallel. `out` grows once, by a bound taken from
/// the histogram.
pub fn write_symbols_sharded(symbols: &[u32], nthreads: usize, out: &mut Vec<u8>) {
    let freqs = histogram_par(symbols, nthreads);
    let book = Codebook::from_frequencies(&freqs);
    let n_shards = symbols.len().div_ceil(ENC_SHARD);
    let mut w = BitWriter::appending(std::mem::take(out));
    book.write_table(&mut w);
    w.write_bits(symbols.len() as u64, 64);
    w.write_bits(n_shards as u64, 64);
    let lengths_at = w.len_bits();
    for _ in 0..n_shards {
        w.write_bits(0, 64);
    }
    *out = w.into_bytes();
    // every code's bits, and at most a byte of padding per shard
    let bits: u64 = freqs
        .iter()
        .map(|&(s, f)| f * book.code_length(s).map_or(0, u64::from))
        .sum();
    out.reserve(bits.div_ceil(8) as usize + n_shards);
    let encode = |shard: &[u32], w: &mut BitWriter| {
        book.encode(shard, w)
            .expect("all symbols present in freshly built codebook")
    };
    let mut lengths = Vec::with_capacity(n_shards);
    if nthreads <= 1 || n_shards <= 1 {
        for shard in symbols.chunks(ENC_SHARD) {
            let (start, mut w) = (out.len(), BitWriter::appending(std::mem::take(out)));
            encode(shard, &mut w);
            *out = w.into_bytes();
            lengths.push(out.len() - start);
        }
    } else {
        for payload in rayon::par_chunks(symbols, ENC_SHARD, |_, shard| {
            let mut w = BitWriter::with_capacity(shard.len() / 2);
            encode(shard, &mut w);
            w.into_bytes()
        }) {
            lengths.push(payload.len());
            out.extend_from_slice(&payload);
        }
    }
    // the lengths' bits into the zeros written for them
    for (i, len) in lengths.into_iter().enumerate() {
        for bit in (0..64).filter(|bit| len >> bit & 1 == 1) {
            let at = lengths_at + 64 * i + bit;
            out[at / 8] |= 1 << (at % 8);
        }
    }
}

/// A stream [`compress_symbols_sharded`] wrote, borrowed or owned, its
/// code table and shard table read and checked against its length; its
/// symbols are decoded as [`ShardedSymbols::take`] reads them.
pub struct ShardedSymbols<'a> {
    bytes: Cow<'a, [u8]>,
    book: Codebook,
    count: usize,
    /// Each shard's payload in `bytes` and how many symbols it holds.
    shards: Vec<(Range<usize>, usize)>,
    /// Shards decoded so far, into `buf`, of which `taken` symbols are read.
    decoded: usize,
    buf: Vec<u32>,
    taken: usize,
}

impl<'a> ShardedSymbols<'a> {
    /// Read everything of `bytes` but the shards' contents: a stream too
    /// short for what its header claims is refused here, before anything
    /// is sized by the claim.
    pub fn parse(bytes: impl Into<Cow<'a, [u8]>>) -> Result<Self, HuffmanError> {
        let bytes = bytes.into();
        let mut r = BitReader::new(&bytes);
        let book = Codebook::read_table(&mut r)?;
        let count = r
            .read_bits(64)
            .ok_or(HuffmanError::Corrupt("missing count"))? as usize;
        if count > 0 && book.is_empty() {
            return Err(HuffmanError::Corrupt("empty codebook with nonzero count"));
        }
        // every symbol costs at least one bit: a larger count is corrupt (and
        // must be rejected before Vec::with_capacity aborts on it)
        if count > r.remaining_bits() {
            return Err(HuffmanError::Corrupt("count exceeds stream"));
        }
        let n_shards = r
            .read_bits(64)
            .ok_or(HuffmanError::Corrupt("missing shard count"))? as usize;
        if n_shards != count.div_ceil(ENC_SHARD) {
            return Err(HuffmanError::Corrupt("shard count mismatch"));
        }
        let mut shard_bytes = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let len = r
                .read_bits(64)
                .ok_or(HuffmanError::Corrupt("truncated shard table"))?
                as usize;
            if len > bytes.len() {
                return Err(HuffmanError::Corrupt("shard length exceeds stream"));
            }
            shard_bytes.push(len);
        }
        let mut shards = Vec::with_capacity(n_shards);
        for (i, &len) in shard_bytes.iter().enumerate() {
            let start = r.bit_position().div_ceil(8);
            let payload = r
                .read_bytes_aligned(len)
                .ok_or(HuffmanError::Corrupt("truncated shard payload"))?;
            let n_syms = ENC_SHARD.min(count - i * ENC_SHARD);
            if n_syms > payload.len() * 8 {
                return Err(HuffmanError::Corrupt("shard count exceeds payload"));
            }
            shards.push((start..start + len, n_syms));
        }
        let (decoded, buf, taken) = (0, Vec::new(), 0);
        Ok(ShardedSymbols {
            bytes,
            book,
            count,
            shards,
            decoded,
            buf,
            taken,
        })
    }

    /// Symbols in the stream.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The next `len` symbols; fewer only where the stream ends. Shards are
    /// decoded `nthreads` at a time (in parallel) into one buffer, whose
    /// symbols already read are dropped first; a shard that does not
    /// decode is an error when the read reaches it.
    pub fn take(&mut self, len: usize, nthreads: usize) -> Result<&[u32], HuffmanError> {
        if self.buf.len() - self.taken < len {
            self.buf.drain(..self.taken);
            self.taken = 0;
            while self.buf.len() < len && self.decoded < self.shards.len() {
                let window = nthreads.clamp(1, self.shards.len() - self.decoded);
                let shards = &self.shards[self.decoded..][..window];
                if nthreads <= 1 || window == 1 {
                    for (payload, n_syms) in shards {
                        let mut r = BitReader::new(&self.bytes[payload.clone()]);
                        self.book.decode_onto(&mut r, *n_syms, &mut self.buf)?;
                    }
                } else {
                    for shard in rayon::par_chunks(shards, 1, |_, shard| {
                        let (payload, n_syms) = &shard[0];
                        let mut r = BitReader::new(&self.bytes[payload.clone()]);
                        self.book.decode(&mut r, *n_syms)
                    }) {
                        self.buf.extend_from_slice(&shard?);
                    }
                }
                self.decoded += window;
            }
        }
        let read = &self.buf[self.taken..][..len.min(self.buf.len() - self.taken)];
        self.taken += read.len();
        Ok(read)
    }
}

/// Inverse of [`compress_symbols_sharded`]; shards decode in parallel when
/// `nthreads > 1`, with identical results at any thread count.
pub fn decompress_symbols_sharded(bytes: &[u8], nthreads: usize) -> Result<Vec<u32>, HuffmanError> {
    let mut stream = ShardedSymbols::parse(bytes)?;
    stream.buf.reserve_exact(stream.count);
    stream.take(stream.count, nthreads)?;
    Ok(stream.buf)
}

/// Histogram of a symbol stream as sorted `(symbol, count)` pairs.
pub fn histogram(symbols: &[u32]) -> Vec<(u32, u64)> {
    histogram_par(symbols, 1)
}

/// Fewest symbols worth a thread of their own; granularity only, never
/// affects output.
const HIST_SHARD: usize = 1 << 16;

/// `f` over `symbols` split into one contiguous part per thread.
fn over_parts<R: Send>(symbols: &[u32], nthreads: usize, f: impl Fn(&[u32]) -> R + Sync) -> Vec<R> {
    let part = symbols.len().div_ceil(nthreads.max(1)).max(HIST_SHARD);
    if symbols.len() <= part {
        vec![f(symbols)]
    } else {
        rayon::par_chunks(symbols, part, |_, p| f(p))
    }
}

/// Occurrences in `part` of each symbol of the band `lo..lo + span`, and of
/// the one symbol that can fall outside it, 0. Element `i` is counted into
/// copy `i % LANES` of the band; the copies are summed at the end.
fn count_band<const LANES: usize>(part: &[u32], lo: u32, span: usize) -> (Vec<u64>, u64) {
    let mut counts = vec![0u64; LANES * span];
    let mut zeros = 0u64;
    let mut count = |lane: usize, s: u32| match counts[lane * span..][..span]
        .get_mut(s.wrapping_sub(lo) as usize)
    {
        Some(count) => *count += 1,
        None => zeros += 1,
    };
    let mut groups = part.chunks_exact(LANES);
    for group in &mut groups {
        for (lane, &s) in group.iter().enumerate() {
            count(lane, s);
        }
    }
    for (lane, &s) in groups.remainder().iter().enumerate() {
        count(lane, s);
    }
    let (band, copies) = counts.split_at_mut(span);
    for copy in copies.chunks(span) {
        for (count, more) in band.iter_mut().zip(copy) {
            *count += more;
        }
    }
    counts.truncate(span);
    (counts, zeros)
}

/// [`histogram`] with a thread count: each thread counts a contiguous part
/// into an array of its own over the band of symbols present, and the
/// arrays are summed. Addition commutes, so the result is the same at any
/// thread count.
pub fn histogram_par(symbols: &[u32], nthreads: usize) -> Vec<(u32, u64)> {
    // The band of nonzero symbols, as (lowest − 1, highest): SZ's escape
    // symbol 0 would stretch it from the quantizer's radius down to 0, so it
    // is counted apart. 0 − 1 wraps to the top and never lowers the minimum.
    let (below, hi) = over_parts(symbols, nthreads, |part| {
        part.iter().fold((u32::MAX, 0), |(below, hi), &s| {
            (below.min(s.wrapping_sub(1)), hi.max(s))
        })
    })
    .into_iter()
    .fold((u32::MAX, 0), |a, b| (a.0.min(b.0), a.1.max(b.1)));
    if hi == 0 {
        // nothing but zeros, or nothing at all
        return match symbols.len() {
            0 => Vec::new(),
            n => vec![(0, n as u64)],
        };
    }
    let lo = below + 1;
    if !band_is_dense(lo, hi, symbols.len() as u64) {
        // too sparse an alphabet for an array: sort and count the runs
        let mut sorted = symbols.to_vec();
        sorted.sort_unstable();
        return sorted
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u64))
            .collect();
    }
    let span = (hi - lo) as usize + 1;
    let mut parts = over_parts(symbols, nthreads, |part| {
        // A sparse field is one long run of a single symbol, and counted into
        // one array each increment waits for the store before it: where the
        // band is narrow beside the input, count into interleaved copies.
        if span.saturating_mul(64) <= part.len() {
            count_band::<4>(part, lo, span)
        } else {
            count_band::<1>(part, lo, span)
        }
    })
    .into_iter();
    let (mut band, mut zeros) = parts.next().expect("at least one part");
    for (part_band, part_zeros) in parts {
        zeros += part_zeros;
        for (count, part_count) in band.iter_mut().zip(part_band) {
            *count += part_count;
        }
    }
    let coded = band.iter().zip(lo..).filter(|(&count, _)| count > 0);
    (zeros > 0)
        .then_some((0, zeros))
        .into_iter()
        .chain(coded.map(|(&count, symbol)| (symbol, count)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xorshift;

    fn round_trip(symbols: &[u32]) -> Vec<u8> {
        let bytes = compress_symbols_sharded(symbols, 1);
        assert_eq!(decompress_symbols_sharded(&bytes, 1).unwrap(), symbols);
        bytes
    }

    impl Codebook {
        /// The decoder this module had before the lookup table: every
        /// symbol by the canonical walk. The reference [`Codebook::decode`]
        /// is held to.
        fn decode_walk(
            &self,
            reader: &mut BitReader,
            count: usize,
        ) -> Result<Vec<u32>, HuffmanError> {
            if self.is_empty() && count > 0 {
                return Err(HuffmanError::Corrupt("empty codebook"));
            }
            (0..count).map(|_| self.decode_one(reader)).collect()
        }

        /// The encoder before word packing: each code looked up through
        /// [`Codebook::code`] and emitted one bit at a time, first bit
        /// first. The reference [`Codebook::encode`] is held to.
        fn encode_bitwise(&self, symbols: &[u32], writer: &mut BitWriter) {
            for &s in symbols {
                let (code, len) = self.code(s).unwrap();
                for b in (0..len).rev() {
                    writer.write_bit((code >> b) & 1 == 1);
                }
            }
        }
    }

    /// The tree builder before the two queues: a `BinaryHeap` of
    /// `(frequency, id)` and a walk up the parent links from every leaf. The
    /// reference [`huffman_lengths`] is held to.
    fn huffman_lengths_by_heap(freqs: &[(u32, u64)]) -> Vec<(u32, u32)> {
        #[derive(PartialEq, Eq)]
        struct Node {
            freq: u64,
            id: usize,
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // min-heap by frequency, ties by id for determinism
                other.freq.cmp(&self.freq).then(other.id.cmp(&self.id))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = freqs.len();
        debug_assert!(n >= 2);
        // parent links for internal nodes; leaves are ids 0..n
        let mut parent = vec![usize::MAX; 2 * n];
        let mut heap: std::collections::BinaryHeap<Node> = freqs
            .iter()
            .enumerate()
            .map(|(id, &(_, f))| Node { freq: f, id })
            .collect();
        let mut next_id = n;
        while heap.len() > 1 {
            let a = heap.pop().unwrap();
            let b = heap.pop().unwrap();
            parent[a.id] = next_id;
            parent[b.id] = next_id;
            heap.push(Node {
                freq: a.freq + b.freq,
                id: next_id,
            });
            next_id += 1;
        }
        let mut lengths = Vec::with_capacity(n);
        for (leaf, &(sym, _)) in freqs.iter().enumerate() {
            let mut depth = 0u32;
            let mut node = leaf;
            while parent[node] != usize::MAX {
                node = parent[node];
                depth += 1;
            }
            lengths.push((sym, depth.max(1)));
        }
        lengths
    }

    /// Symbol streams over the alphabets the coder meets: one symbol, two,
    /// a sparse field's 13, a dense field's 1 173 around the radius with
    /// the escape symbol 0 among them, the full 65 535, and a sparse
    /// alphabet far too wide for a band.
    fn alphabets() -> Vec<(&'static str, Vec<u32>)> {
        let mut next = xorshift(0xA1FA_BE75);
        // geometric spread around `center`: short codes near it, long far out
        let mut around = |center: u32, width: u32, n: usize| -> Vec<u32> {
            (0..n)
                .map(|_| {
                    let r = next();
                    let reach = width >> (r % 11).min(width.ilog2() as u64);
                    let offset = (r >> 8) as u32 % (reach + 1);
                    if r & 0x80 == 0 {
                        center + offset
                    } else {
                        center - offset
                    }
                })
                .collect()
        };
        let mut dense = around(32_768, 586, 40_000);
        dense.extend(32_182..=32_768 + 586); // all 1 173 present
        dense.extend([0, 0, 0]);
        let mut next = xorshift(0x5A5A);
        vec![
            ("one symbol", vec![32_768; 500]),
            (
                "two symbols",
                (0..500).map(|i| 32_768 + (i % 3 == 0) as u32).collect(),
            ),
            ("13 symbols", around(32_768, 6, 5_000)),
            ("1 173 symbols and the escape", dense),
            (
                "65 535 symbols",
                (1..=65_535).chain(around(32_768, 32_767, 70_000)).collect(),
            ),
            (
                "sparse 0..100 000",
                (0..2_000).map(|_| next() as u32 % 100_000).collect(),
            ),
            (
                "the corners of u32",
                vec![0, u32::MAX, 1, u32::MAX - 1, 0, u32::MAX, 7],
            ),
        ]
    }

    /// `n` symbols with Fibonacci frequencies: the most skewed tree there
    /// is, its longest code `n − 1` bits.
    fn fibonacci(n: u32) -> Vec<(u32, u64)> {
        let (mut a, mut b) = (1u64, 1u64);
        (0..n)
            .map(|s| {
                let f = a;
                (a, b) = (b, a + b);
                (1_000 + s * 977, f)
            })
            .collect()
    }

    #[test]
    fn word_packed_encode_matches_bit_at_a_time_emission() {
        let mut cases: Vec<(String, Codebook, Vec<u32>)> = alphabets()
            .into_iter()
            .map(|(name, symbols)| {
                let book = Codebook::from_frequencies(&histogram(&symbols));
                (name.to_string(), book, symbols)
            })
            .collect();
        for n in [41, 50, 58, 59] {
            let freqs = fibonacci(n);
            let book = Codebook::from_frequencies(&freqs);
            let longest = freqs.iter().map(|f| book.code_length(f.0).unwrap()).max();
            assert_eq!(longest, Some(n - 1), "fibonacci({n})");
            // the rarest symbols, back to back: 58-bit codes straddle words
            let symbols = freqs.iter().chain(freqs.iter().take(8)).map(|f| f.0);
            cases.push((format!("fibonacci({n})"), book, symbols.collect()));
        }
        for (name, book, symbols) in &cases {
            // a book read back from its table encodes the same as the one built
            // from the histogram, through the index it builds on first use
            let mut table = BitWriter::new();
            book.write_table(&mut table);
            let read_back = Codebook::read_table(&mut BitReader::new(&table.into_bytes())).unwrap();
            for offset in (0..64).step_by(if symbols.len() > 10_000 { 13 } else { 1 }) {
                let mut reference = BitWriter::new();
                reference.write_bits(u64::MAX, offset);
                let mut packed = reference.clone();
                let mut from_table = reference.clone();
                book.encode_bitwise(symbols, &mut reference);
                book.encode(symbols, &mut packed).unwrap();
                read_back.encode(symbols, &mut from_table).unwrap();
                assert_eq!(
                    packed.len_bits(),
                    reference.len_bits(),
                    "{name} at {offset}"
                );
                let reference = reference.into_bytes();
                assert!(packed.into_bytes() == reference, "{name} at bit {offset}");
                assert!(
                    from_table.into_bytes() == reference,
                    "{name} at bit {offset}"
                );
            }
        }
    }

    /// The two queues against the heap on every alphabet above, on a
    /// histogram of nothing but ties, and on Fibonacci trees of 41 to 70
    /// symbols as built and as dampened (from 60 symbols on the longest code
    /// is too long and `from_frequencies` rebuilds from the dampened form).
    #[test]
    fn two_queues_build_the_heaps_tree() {
        let mut cases: Vec<(String, Vec<(u32, u64)>)> = alphabets()
            .into_iter()
            .map(|(name, symbols)| (name.to_string(), histogram(&symbols)))
            .collect();
        cases.push((
            "ties".into(),
            (0..257).map(|s| (s, 1 + s as u64 % 3)).collect(),
        ));
        for n in 41..=70 {
            cases.push((format!("fibonacci({n})"), fibonacci(n)));
            cases.push((format!("fibonacci({n}) dampened"), dampened(&fibonacci(n))));
        }
        for (name, freqs) in cases.into_iter().filter(|(_, f)| f.len() >= 2) {
            assert_eq!(
                huffman_lengths(&freqs),
                huffman_lengths_by_heap(&freqs),
                "{name}"
            );
        }
    }

    #[test]
    fn dampening_keeps_codes_within_the_limit() {
        // 60 Fibonacci symbols want a 59-bit code; the rebuilt tree must not
        let freqs = fibonacci(70);
        let book = Codebook::from_frequencies(&freqs);
        assert!(freqs
            .iter()
            .all(|f| book.code_length(f.0).unwrap() <= MAX_CODE_LEN));
        let symbols: Vec<u32> = freqs.iter().map(|f| f.0).collect();
        let mut w = BitWriter::new();
        book.encode(&symbols, &mut w).unwrap();
        let bytes = w.into_bytes();
        let decoded = book.decode(&mut BitReader::new(&bytes), symbols.len());
        assert_eq!(decoded.unwrap(), symbols);
    }

    /// Both decoders over the same bits: same symbols and same cursor, or
    /// the same error.
    fn assert_decoders_agree(book: &Codebook, bytes: &[u8], start_bit: usize, count: usize) {
        let mut table = BitReader::new(bytes);
        table.skip_bits(start_bit as u32);
        let mut walk = table.clone();
        let by_table = book.decode(&mut table, count);
        let by_walk = book.decode_walk(&mut walk, count);
        assert_eq!(
            by_table, by_walk,
            "decoding {count} symbols from bit {start_bit}"
        );
        if by_table.is_ok() {
            assert_eq!(table.bit_position(), walk.bit_position());
        }
    }

    #[test]
    fn table_decode_matches_the_canonical_walk() {
        for (name, symbols) in alphabets() {
            let book = Codebook::from_frequencies(&histogram(&symbols));
            for offset in [0usize, 1, 5, 7] {
                let mut w = BitWriter::new();
                w.write_bits(0, offset as u32);
                book.encode(&symbols, &mut w).unwrap();
                let bytes = w.into_bytes();
                let decoded = book.decode(&mut BitReader::new(&bytes), 0);
                assert_eq!(decoded, Ok(vec![]), "{name}");
                assert_decoders_agree(&book, &bytes, offset, symbols.len());
                // asking for more than is there runs both off the end
                assert_decoders_agree(&book, &bytes, offset, symbols.len() + 9);
            }
        }
        for n in [41, 58, 59] {
            let freqs = fibonacci(n);
            let book = Codebook::from_frequencies(&freqs);
            let symbols: Vec<u32> = freqs.iter().rev().chain(&freqs).map(|f| f.0).collect();
            let mut w = BitWriter::new();
            book.encode(&symbols, &mut w).unwrap();
            assert_decoders_agree(&book, &w.into_bytes(), 0, symbols.len());
        }
    }

    #[test]
    fn table_decode_matches_the_walk_on_every_truncation_and_bit_flip() {
        for (name, symbols) in alphabets() {
            // a short stream: every cut and every flipped bit of it is tried
            let symbols = &symbols[..symbols.len().min(120)];
            let stream = compress_symbols_sharded(symbols, 1);
            let check = |bytes: &[u8]| {
                // the sharded reader's verdict must not depend on the decoder…
                let whole = decompress_symbols_sharded(bytes, 1);
                // …and after whatever table the bytes now hold (a flipped
                // length breaks Kraft's inequality), both decoders must make
                // the same symbols or the same error of the bits that follow
                let mut r = BitReader::new(bytes);
                let Ok(book) = Codebook::read_table(&mut r) else {
                    assert!(whole.is_err(), "{name}");
                    return;
                };
                let start = r.bit_position();
                for count in [1, symbols.len(), 4 * symbols.len()] {
                    if !book.is_empty() {
                        assert_decoders_agree(&book, bytes, start, count);
                    }
                }
            };
            for cut in 0..stream.len() {
                check(&stream[..cut]);
                assert!(decompress_symbols_sharded(&stream[..cut], 1).is_err());
            }
            for bit in 0..stream.len() * 8 {
                let mut flipped = stream.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                check(&flipped);
            }
        }
    }

    #[test]
    fn every_malformed_stream_gets_the_error_it_always_got() {
        // one stream per error the sharded reader and the decoder can
        // return, each pinned to the message it had before the decode table
        // (checked against the parent commit): a table of `lengths`, the
        // given u64 header fields, then payload bytes
        let build = |lengths: &[(u32, u32)], fields: &[u64], payload: &[u8]| {
            let mut w = BitWriter::new();
            Codebook::from_lengths(lengths.to_vec()).write_table(&mut w);
            for &field in fields {
                w.write_bits(field, 64);
            }
            w.write_bytes_aligned(payload);
            w.into_bytes()
        };
        let one = [(7, 1)]; // its only code is `0`
        let three = [(1, 1), (2, 2), (3, 2)]; // 0, 10, 11
        let valid = compress_symbols_sharded(&[5, 6, 7, 8, 9].repeat(40), 1);
        let cases = [
            ("missing table size", vec![]),
            ("table size exceeds stream", vec![0xFF; 16]),
            ("truncated table", valid[..24].to_vec()),
            ("missing count", build(&one, &[], &[])),
            ("empty codebook with nonzero count", build(&[], &[5], &[])),
            ("count exceeds stream", build(&one, &[u64::MAX], &[0; 8])),
            ("missing shard count", build(&one, &[3], &[0])),
            ("shard count mismatch", build(&one, &[3, 2], &[0; 8])),
            ("truncated shard table", build(&one, &[3, 1], &[0; 4])),
            (
                "shard length exceeds stream",
                build(&one, &[3, 1, 1 << 40], &[0]),
            ),
            ("truncated shard payload", build(&one, &[3, 1, 9], &[0; 4])),
            (
                "shard count exceeds payload",
                build(&one, &[20, 1, 2], &[0; 2]),
            ),
            // the stream's last bytes, decoded by the canonical walk…
            ("stream truncated", build(&three, &[5, 1, 1], &[0xFF])),
            ("invalid code", build(&one, &[3, 1, 1], &[0xFF])),
            // …and whole words, decoded through the table until it gives up
            (
                "stream truncated",
                build(&three, &[100, 1, 16], &[0xFF; 16]),
            ),
            ("invalid code", build(&one, &[3, 1, 16], &[0xFF; 16])),
            (
                "invalid code",
                build(&one, &[100, 1, 16], &[&[0; 9][..], &[0xFF; 7]].concat()),
            ),
        ];
        for (message, bytes) in cases {
            for threads in [1, 3] {
                assert_eq!(
                    decompress_symbols_sharded(&bytes, threads),
                    Err(HuffmanError::Corrupt(message))
                );
            }
        }
    }

    #[test]
    fn histogram_counts_every_alphabet_the_same_way() {
        let mut cases = alphabets();
        cases.push(("empty", vec![]));
        cases.push(("only zeros", vec![0; 10]));
        // a band just wide enough for an array, and one symbol too wide
        cases.push(("at the band limit", vec![100, 100 + 16 * 3 - 1, 100]));
        cases.push(("past the band limit", vec![100, 100 + 16 * 3, 100]));
        // long enough to be split between threads
        let mut next = xorshift(77);
        let long = (0..300_000).map(|_| 32_768 + (next() % 512) as u32 * (next() % 3) as u32);
        cases.push(("long", long.collect()));
        for (name, symbols) in cases {
            let mut counts = std::collections::BTreeMap::new();
            for &s in &symbols {
                *counts.entry(s).or_insert(0u64) += 1;
            }
            let expected: Vec<(u32, u64)> = counts.into_iter().collect();
            for threads in [1usize, 2, 3, 7] {
                assert!(
                    histogram_par(&symbols, threads) == expected,
                    "{name}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn round_trip_skewed_distribution() {
        let mut symbols = Vec::new();
        for i in 0..1000u32 {
            let s = match i % 10 {
                0..=6 => 0,
                7..=8 => 1,
                _ => i % 50,
            };
            symbols.push(s);
        }
        round_trip(&symbols);
    }

    #[test]
    fn skewed_stream_compresses() {
        let symbols: Vec<u32> = (0..10_000)
            .map(|i| if i % 100 == 0 { 1 } else { 0 })
            .collect();
        let bytes = round_trip(&symbols);
        // ~1.08 bits/symbol + table << 4 bytes/symbol raw
        assert!(bytes.len() < 10_000 / 4);
    }

    #[test]
    fn empty_and_single_symbol_streams() {
        round_trip(&[]);
        round_trip(&[42u32; 100]);
    }

    #[test]
    fn two_symbols_get_one_bit_each() {
        let freqs = vec![(0u32, 50u64), (1u32, 50u64)];
        let book = Codebook::from_frequencies(&freqs);
        assert_eq!(book.code_length(0), Some(1));
        assert_eq!(book.code_length(1), Some(1));
    }

    #[test]
    fn expected_code_length_matches_actual() {
        let symbols: Vec<u32> = (0..4096u32).map(|i| i % 7).collect();
        let freqs = histogram(&symbols);
        let book = Codebook::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        book.encode(&symbols, &mut w).unwrap();
        let actual_bits_per_symbol = w.len_bits() as f64 / symbols.len() as f64;
        let expected = book.expected_code_length(&freqs);
        assert!((actual_bits_per_symbol - expected).abs() < 1e-9);
    }

    #[test]
    fn expected_length_within_one_bit_of_entropy() {
        // Huffman optimality: H <= E[len] < H + 1
        let mut symbols = Vec::new();
        for (s, n) in [(0u32, 700usize), (1, 150), (2, 100), (3, 40), (4, 10)] {
            symbols.extend(std::iter::repeat_n(s, n));
        }
        let freqs = histogram(&symbols);
        let total: u64 = freqs.iter().map(|f| f.1).sum();
        let entropy: f64 = freqs
            .iter()
            .map(|&(_, f)| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        let book = Codebook::from_frequencies(&freqs);
        let e = book.expected_code_length(&freqs);
        assert!(e >= entropy - 1e-9, "E[len]={e} < H={entropy}");
        assert!(e < entropy + 1.0, "E[len]={e} >= H+1={}", entropy + 1.0);
    }

    #[test]
    fn unknown_symbol_errors() {
        // inside the band, outside it, the escape symbol, and a sparse book
        for known in [vec![(5, 1), (9, 1)], vec![(5, 1), (4_000_000_000, 1)]] {
            let book = Codebook::from_frequencies(&known);
            for unknown in [0, 4, 7, 10, u32::MAX] {
                let mut w = BitWriter::new();
                assert_eq!(
                    book.encode(&[5, unknown], &mut w),
                    Err(HuffmanError::UnknownSymbol(unknown))
                );
                assert_eq!(book.code(unknown), None);
            }
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let symbols: Vec<u32> = (0..100u32).collect();
        let bytes = compress_symbols_sharded(&symbols, 1);
        let truncated = &bytes[..bytes.len() / 2];
        assert!(decompress_symbols_sharded(truncated, 1).is_err());
    }

    #[test]
    fn garbage_header_errors_not_panics() {
        // all-0xFF header claims an enormous table
        let garbage = vec![0xFFu8; 16];
        assert!(decompress_symbols_sharded(&garbage, 1).is_err());
    }

    #[test]
    fn table_round_trip_preserves_codes() {
        let freqs: Vec<(u32, u64)> = (0..20u32).map(|s| (s, (s as u64 + 1) * 3)).collect();
        let book = Codebook::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        book.write_table(&mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let book2 = Codebook::read_table(&mut r).unwrap();
        for s in 0..=20u32 {
            assert_eq!(book.code_length(s), book2.code_length(s));
            assert_eq!(book.code(s), book2.code(s));
        }
    }

    #[test]
    fn parallel_histogram_and_encode_match_sequential() {
        let symbols: Vec<u32> = (0..300_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 512)
            .collect();
        for threads in [2usize, 3, 7] {
            assert_eq!(histogram(&symbols), histogram_par(&symbols, threads));
            assert_eq!(
                compress_symbols_sharded(&symbols, 1),
                compress_symbols_sharded(&symbols, threads)
            );
        }
    }

    #[test]
    fn sharded_round_trip_and_thread_invariance() {
        // crosses several ENC_SHARD boundaries with a ragged tail
        let symbols: Vec<u32> = (0..(3 * ENC_SHARD as u32 + 1234))
            .map(|i| i.wrapping_mul(2654435761) % 300)
            .collect();
        let seq = compress_symbols_sharded(&symbols, 1);
        assert_eq!(decompress_symbols_sharded(&seq, 1).unwrap(), symbols);
        for threads in [2usize, 3, 7] {
            assert_eq!(compress_symbols_sharded(&symbols, threads), seq);
            assert_eq!(decompress_symbols_sharded(&seq, threads).unwrap(), symbols);
        }
    }

    #[test]
    fn sharded_handles_empty_small_and_single_symbol() {
        for symbols in [Vec::new(), vec![7u32; 10], (0..100u32).collect::<Vec<_>>()] {
            let bytes = compress_symbols_sharded(&symbols, 4);
            assert_eq!(decompress_symbols_sharded(&bytes, 4).unwrap(), symbols);
        }
    }

    #[test]
    fn sharded_rejects_corruption() {
        let symbols: Vec<u32> = (0..(ENC_SHARD as u32 * 2)).map(|i| i % 17).collect();
        let bytes = compress_symbols_sharded(&symbols, 2);
        // truncation anywhere must error, not panic
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(decompress_symbols_sharded(&bytes[..cut], 2).is_err());
        }
        assert!(decompress_symbols_sharded(&[0xFFu8; 16], 1).is_err());
    }

    #[test]
    fn large_alphabet_round_trip() {
        // typical SZ quantization-bin alphabet size
        let symbols: Vec<u32> = (0..65536u32)
            .map(|i| i.wrapping_mul(2654435761) % 1000)
            .collect();
        round_trip(&symbols);
    }
}
