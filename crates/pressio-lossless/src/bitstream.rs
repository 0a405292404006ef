//! LSB-first bit-level readers and writers.
//!
//! Both the SZ-like Huffman backend and the ZFP-like embedded coder are
//! bit-oriented; this module is their shared substrate. Bits are packed
//! little-endian within each byte (bit 0 of byte 0 is the first bit written),
//! matching the convention of the ZFP reference bitstream.

/// Accumulating bit writer. Bits gather in a 64-bit word that is appended
/// to the byte buffer each time it fills, so a write is a shift and an OR
/// whatever its width.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet in `bytes`, first-written lowest; zero above `nbits`.
    acc: u64,
    /// Number of pending bits in `acc`, always below 64.
    nbits: u32,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with pre-reserved capacity in bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Writer that appends to `bytes`.
    pub(crate) fn appending(bytes: Vec<u8>) -> Self {
        BitWriter {
            bytes,
            ..Self::default()
        }
    }

    /// Total bits written so far.
    pub fn len_bits(&self) -> usize {
        self.bytes.len() * 8 + self.nbits as usize
    }

    /// Append a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Append the low `n` bits of `value`, least-significant bit first.
    /// `n` must be ≤ 64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let v = value & (u64::MAX >> (64 - n));
        self.acc |= v << self.nbits;
        let filled = self.nbits + n;
        if filled < 64 {
            self.nbits = filled;
            return;
        }
        self.bytes.extend_from_slice(&self.acc.to_le_bytes());
        // what of `v` did not fit; nothing when the word was empty (n = 64)
        self.acc = v.checked_shr(64 - self.nbits).unwrap_or(0);
        self.nbits = filled - 64;
    }

    /// Append the low `len` bits of `code` most-significant bit first, as a
    /// single bulk [`BitWriter::write_bits`] of the bit-reversed value.
    /// Byte-identical to writing the bits one at a time from bit `len-1`
    /// down to bit `0`.
    #[inline]
    pub fn write_code_msb(&mut self, code: u64, len: u32) {
        if len == 0 {
            return;
        }
        self.write_bits(code.reverse_bits() >> (64 - len), len);
    }

    /// Append a whole byte slice (first aligns to a byte boundary).
    pub fn write_bytes_aligned(&mut self, data: &[u8]) {
        self.flush_pending();
        self.bytes.extend_from_slice(data);
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        self.write_bits(0, self.nbits.wrapping_neg() & 7);
    }

    /// Finish, returning the packed bytes (final partial byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.flush_pending();
        self.bytes
    }

    /// Align, then move the pending whole bytes out of the accumulator.
    fn flush_pending(&mut self) {
        self.align();
        let pending = (self.nbits / 8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_le_bytes()[..pending]);
        self.acc = 0;
        self.nbits = 0;
    }
}

/// Bit reader over a byte slice, mirroring [`BitWriter`]'s packing.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reader positioned at the first bit.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Current absolute bit position.
    pub fn bit_position(&self) -> usize {
        self.pos
    }

    /// Read one bit; `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.bytes.len() * 8 {
            return None;
        }
        let byte = self.bytes[self.pos >> 3];
        let bit = (byte >> (self.pos & 7)) & 1;
        self.pos += 1;
        Some(bit == 1)
    }

    /// Read `n` bits (≤ 64), LSB first; `None` if fewer remain. Answered
    /// from one [`BitReader::peek_word`] — and, for a read wider than the
    /// word's valid bits, the byte after it — wherever a word can be
    /// peeked; the last 8 bytes of a stream are read a byte at a time.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 64);
        let Some((word, valid)) = self.peek_word() else {
            return self.read_bits_by_byte(n);
        };
        let value = if n <= valid {
            // n = 0 shifts by 64: nothing of the word is kept
            word & u64::MAX.checked_shr(64 - n).unwrap_or(0)
        } else {
            // at most 7 bits short; no next byte means fewer than n remain
            let next = *self.bytes.get((self.pos >> 3) + 8)? as u64;
            word | (next & ((1 << (n - valid)) - 1)) << valid
        };
        self.pos += n as usize;
        Some(value)
    }

    /// [`BitReader::read_bits`] a byte at a time: the end of the stream and
    /// every `None` are decided here.
    fn read_bits_by_byte(&mut self, n: u32) -> Option<u64> {
        if self.remaining_bits() < n as usize {
            return None;
        }
        let mut out = 0u64;
        let mut got = 0u32;
        while got < n {
            let byte = self.bytes[self.pos >> 3] as u64;
            let offset = (self.pos & 7) as u32;
            let avail = 8 - offset;
            let take = avail.min(n - got);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            out |= ((byte >> offset) & mask) << got;
            got += take;
            self.pos += take as usize;
        }
        Some(out)
    }

    /// The stream's next bits without consuming them, as `(word, valid)`:
    /// the low `valid` bits of `word` (57 to 64 of them) are the next
    /// `valid` bits of the stream, the rest are zero. `None` when fewer
    /// than 8 bytes remain from the cursor's byte on — the table decoders
    /// hand the tail of a stream to their bit-at-a-time path.
    #[inline]
    pub fn peek_word(&self) -> Option<(u64, u32)> {
        let start = self.pos >> 3;
        let word = self.bytes.get(start..start + 8)?;
        let offset = (self.pos & 7) as u32;
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
        Some((word >> offset, 64 - offset))
    }

    /// Consume `n` bits a [`BitReader::peek_word`] returned.
    #[inline]
    pub fn skip_bits(&mut self, n: u32) {
        debug_assert!(n as usize <= self.remaining_bits());
        self.pos += n as usize;
    }

    /// Skip to the next byte boundary.
    pub fn align(&mut self) {
        self.pos = (self.pos + 7) & !7;
    }

    /// Read `n` bytes after aligning; `None` if fewer remain.
    pub fn read_bytes_aligned(&mut self, n: usize) -> Option<&'a [u8]> {
        self.align();
        let start = self.pos / 8;
        if start + n > self.bytes.len() {
            return None;
        }
        self.pos += n * 8;
        Some(&self.bytes[start..start + n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn multi_bit_round_trip_misaligned() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(0x3FFF, 14);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(32), Some(0xDEADBEEF));
        assert_eq!(r.read_bits(14), Some(0x3FFF));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn zero_width_reads_and_writes() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 0);
        w.write_bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0), Some(0));
        assert_eq!(r.read_bit(), Some(true));
    }

    #[test]
    fn len_bits_tracks() {
        let mut w = BitWriter::new();
        assert_eq!(w.len_bits(), 0);
        w.write_bits(0, 5);
        assert_eq!(w.len_bits(), 5);
        w.write_bits(0, 11);
        assert_eq!(w.len_bits(), 16);
    }

    #[test]
    fn write_code_msb_matches_per_bit_loop() {
        let mut state = 0x0bad_cafe_dead_beefu64;
        let mut xorshift = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let len = (xorshift() % 58 + 1) as u32;
            let code = xorshift() & ((1u64 << len) - 1);
            let mut bulk = BitWriter::new();
            bulk.write_bits(xorshift() & 0b111, 3); // misalign
            bulk.write_code_msb(code, len);
            let mut loopy = bulk.clone();
            // rebuild: same misalignment, per-bit MSB-first writes
            let mut reference = BitWriter::new();
            reference.write_bits(0, 3);
            for b in (0..len).rev() {
                reference.write_bit((code >> b) & 1 == 1);
            }
            loopy.write_code_msb(0, 0); // zero-width is a no-op
            assert_eq!(loopy.len_bits(), bulk.len_bits());
            assert_eq!(reference.len_bits(), 3 + len as usize);
            // compare the code bits by reading both streams back
            let a = bulk.into_bytes();
            let b = reference.into_bytes();
            let mut ra = BitReader::new(&a);
            let mut rb = BitReader::new(&b);
            ra.read_bits(3);
            rb.read_bits(3);
            for _ in 0..len {
                assert_eq!(ra.read_bit(), rb.read_bit());
            }
        }
    }

    /// The writer this module had before the accumulator, one byte at a
    /// time: the reference the word-packed writer is held to.
    #[derive(Default)]
    struct ByteWriter {
        bytes: Vec<u8>,
        bit_pos: u32,
    }

    impl ByteWriter {
        fn write_bits(&mut self, value: u64, n: u32) {
            let mut v = value;
            let mut remaining = n;
            while remaining > 0 {
                if self.bit_pos == 0 {
                    self.bytes.push(0);
                }
                let take = (8 - self.bit_pos).min(remaining);
                let chunk = (v & ((1u64 << take) - 1)) as u8;
                *self.bytes.last_mut().unwrap() |= chunk << self.bit_pos;
                self.bit_pos = (self.bit_pos + take) & 7;
                v >>= take;
                remaining -= take;
            }
        }

        fn len_bits(&self) -> usize {
            self.bytes.len() * 8 - ((8 - self.bit_pos) & 7) as usize
        }
    }

    #[test]
    fn accumulator_matches_the_byte_at_a_time_writer() {
        let mut xorshift = crate::xorshift(0x9e37_79b9_7f4a_7c15);
        for round in 0..200 {
            let mut word = BitWriter::new();
            let mut byte = ByteWriter::default();
            for _ in 0..round {
                match xorshift() % 8 {
                    0 => {
                        word.align();
                        byte.bit_pos = 0;
                    }
                    1 => {
                        let blob: Vec<u8> = (0..xorshift() % 20).map(|i| i as u8 ^ 0xA5).collect();
                        word.write_bytes_aligned(&blob);
                        byte.bit_pos = 0;
                        byte.bytes.extend_from_slice(&blob);
                    }
                    2 => {
                        let bit = xorshift() & 1 == 1;
                        word.write_bit(bit);
                        byte.write_bits(bit as u64, 1);
                    }
                    _ => {
                        // any width, with junk above it that must be ignored
                        let (value, n) = (xorshift(), (xorshift() % 65) as u32);
                        word.write_bits(value, n);
                        byte.write_bits(value, n);
                    }
                }
                assert_eq!(word.len_bits(), byte.len_bits());
            }
            assert_eq!(word.into_bytes(), byte.bytes);
        }
    }

    #[test]
    fn peek_word_shows_the_bits_read_bits_returns() {
        let bytes: Vec<u8> = (0..23u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let mut r = BitReader::new(&bytes);
        let mut widths = [1u32, 7, 3, 11, 13, 2, 29, 5].iter().cycle();
        while let Some((word, valid)) = r.peek_word() {
            assert!((57..=64).contains(&valid));
            assert_eq!(valid, 64 - (r.bit_position() & 7) as u32);
            assert_eq!(r.clone().read_bits(valid), Some(word));
            let n = *widths.next().unwrap();
            assert_eq!(r.clone().read_bits(n), Some(word & ((1 << n) - 1)));
            r.skip_bits(n);
        }
        // the last 8 bytes are left to the bit-at-a-time readers
        assert!(r.remaining_bits() <= 64);
        assert_eq!(BitReader::new(&bytes[..7]).peek_word(), None);
    }

    /// `read_bits` against the byte loop it used to be: every width at
    /// every start offset, over buffers short enough that the hand-over to
    /// the byte loop in the last 8 bytes and every `None` are hit.
    #[test]
    fn word_reads_match_the_byte_at_a_time_reader() {
        let mut xorshift = crate::xorshift(0x243f_6a88_85a3_08d3);
        for len in 0..=24usize {
            let bytes: Vec<u8> = (0..len).map(|_| xorshift() as u8).collect();
            for start in 0..64usize {
                for n in 0..=64u32 {
                    let mut word = BitReader::new(&bytes);
                    if start > word.remaining_bits() {
                        continue;
                    }
                    word.skip_bits(start as u32);
                    let mut byte = word.clone();
                    assert_eq!(
                        word.read_bits(n),
                        byte.read_bits_by_byte(n),
                        "{len} bytes, {n} bits at {start}"
                    );
                    assert_eq!(word.bit_position(), byte.bit_position());
                    // and the read after it starts from the same place
                    assert_eq!(word.read_bits(7), byte.read_bits_by_byte(7));
                    assert_eq!(word.bit_position(), byte.bit_position());
                }
            }
        }
    }

    #[test]
    fn aligned_bytes_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.write_bytes_aligned(&[1, 2, 3]);
        w.write_bits(0b1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2), Some(0b11));
        assert_eq!(r.read_bytes_aligned(3), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.read_bit(), Some(true));
    }

    #[test]
    fn read_past_end_is_none() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn remaining_bits_accounting() {
        let bytes = [0u8; 2];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5);
        assert_eq!(r.remaining_bits(), 11);
        r.align();
        assert_eq!(r.remaining_bits(), 8);
    }
}
