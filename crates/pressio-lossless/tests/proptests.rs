//! Property tests: every lossless codec must round-trip arbitrary inputs
//! exactly, and the bitstream must honor its packing contract.

use pressio_lossless::bitstream::{BitReader, BitWriter};
use pressio_lossless::huffman::{compress_symbols_sharded, decompress_symbols_sharded};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitstream_round_trips_mixed_writes(fields in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 0..50)) {
        let mut w = BitWriter::new();
        for &(value, width) in &fields {
            w.write_bits(value & mask(width), width);
        }
        let total: usize = fields.iter().map(|&(_, n)| n as usize).sum();
        prop_assert_eq!(w.len_bits(), total);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(value, width) in &fields {
            prop_assert_eq!(r.read_bits(width), Some(value & mask(width)));
        }
    }

    #[test]
    fn huffman_round_trips_any_symbols(
        symbols in prop::collection::vec(0u32..100_000, 0..2000),
        threads in 1usize..4,
    ) {
        let bytes = compress_symbols_sharded(&symbols, threads);
        prop_assert_eq!(&compress_symbols_sharded(&symbols, 1), &bytes);
        prop_assert_eq!(decompress_symbols_sharded(&bytes, threads).unwrap(), symbols);
    }

    #[test]
    fn huffman_round_trips_banded_symbols(
        // the SZ shape: a band around the quantizer's radius plus the escape symbol
        offsets in prop::collection::vec(0u32..600, 0..3000),
        escapes in prop::collection::vec(0usize..3000, 0..8),
    ) {
        let mut symbols: Vec<u32> = offsets.iter().map(|o| 32_768 - 300 + o).collect();
        for at in escapes {
            if let Some(s) = symbols.get_mut(at) {
                *s = 0;
            }
        }
        let bytes = compress_symbols_sharded(&symbols, 2);
        prop_assert_eq!(decompress_symbols_sharded(&bytes, 2).unwrap(), symbols);
    }

    #[test]
    fn huffman_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..500)) {
        // errors allowed; panics are not — and the verdict is the same at any thread count
        let sequential = decompress_symbols_sharded(&bytes, 1);
        prop_assert_eq!(decompress_symbols_sharded(&bytes, 3), sequential);
    }

    #[test]
    fn huffman_never_panics_on_a_mutated_stream(
        symbols in prop::collection::vec(32_700u32..32_800, 1..400),
        flips in prop::collection::vec((0usize..4096, 0u8..8), 1..4),
    ) {
        // garbage rarely gets past the table; a valid stream with a few bits
        // flipped reaches the shard table and the decoder
        let mut bytes = compress_symbols_sharded(&symbols, 1);
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        let sequential = decompress_symbols_sharded(&bytes, 1);
        prop_assert_eq!(decompress_symbols_sharded(&bytes, 3), sequential);
    }

    #[test]
    fn lzss_round_trips_any_bytes(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let c = pressio_lossless::lzss::compress(&data);
        prop_assert_eq!(pressio_lossless::lzss::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lzss_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..500)) {
        let _ = pressio_lossless::lzss::decompress(&bytes);
    }

    #[test]
    fn entropy_is_bounded(symbols in prop::collection::vec(0u32..64, 1..3000)) {
        let h = pressio_lossless::entropy::shannon_entropy_symbols(&symbols);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= 6.0 + 1e-12); // log2(64)
    }
}

fn mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}
