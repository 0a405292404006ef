//! # pressio-lossless
//!
//! Lossless coding substrate for the LibPressio-Predict reproduction:
//! bit-level streams ([`bitstream`]), canonical Huffman coding ([`huffman`]),
//! LZSS dictionary compression ([`lzss`]), and entropy estimators
//! ([`entropy`]).
//!
//! The SZ-like compressor chains `Huffman → LZSS` (the dictionary stage
//! only where a trial says it pays), and the prediction schemes of
//! `pressio-predict` reuse the entropy and expected-code-length machinery
//! to *model* the encoder without running it.

#![warn(missing_docs)]

pub mod bitstream;
pub mod entropy;
pub mod huffman;
pub mod lzss;

pub use bitstream::{BitReader, BitWriter};
pub use huffman::{Codebook, HuffmanError};

/// Deterministic noise for the modules' differential tests.
#[cfg(test)]
pub(crate) fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}
