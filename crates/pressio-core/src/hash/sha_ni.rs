//! The x86-64 SHA-NI block kernels behind [`super::Sha256`]: four rounds
//! per `sha256rnds2` pair, the message schedule in `sha256msg1` /
//! `sha256msg2`. It is the only module of the crate allowed `unsafe`, and
//! both kernels are bit-identical to the portable loop in the parent
//! module, which the tests hold them to.
//!
//! The working state lives in two registers in the order the
//! instructions want, `ABEF` and `CDGH` (most significant lane first);
//! it is packed from and unpacked to the `[a, b, c, d, e, f, g, h]` word
//! order once per call, not once per block.
//!
//! The pair kernel runs two independent chains block for block. One chain
//! waits on each `sha256rnds2` before the next; two chains give the core a
//! second stream of rounds to issue in those waits.

#![allow(unsafe_code)]

use super::{BlockKernel, PairKernel, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// The single-chain and the pair kernel, when this CPU has the
/// instructions they are compiled for.
pub(super) fn detect() -> Option<(BlockKernel, PairKernel)> {
    let supported = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    supported.then_some((compress_blocks as BlockKernel, compress_pair as PairKernel))
}

/// Safe face of the single-chain kernel. Private: the only way out of
/// this module is through [`detect`], so holding the pointer proves the
/// features exist.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: `detect` hands this function out only after
    // `is_x86_feature_detected!` reported every feature the callee is
    // compiled with (sha, sse2, ssse3, sse4.1).
    unsafe { compress_chains([state], [blocks]) }
}

/// Safe face of the pair kernel, handed out by [`detect`] alone.
fn compress_pair(a: &mut [u32; 8], b: &mut [u32; 8], blocks_a: &[u8], blocks_b: &[u8]) {
    assert_eq!(blocks_a.len(), blocks_b.len(), "a pair folds equal runs");
    // SAFETY: as for `compress_blocks`: the features were detected before
    // the pointer left `detect`.
    unsafe { compress_chains([a, b], [blocks_a, blocks_b]) }
}

fn load(words: &[u32; 4]) -> __m128i {
    // SAFETY: the reference covers 16 readable bytes; `loadu` has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
}

fn load_bytes(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: the reference covers 16 readable bytes; `loadu` has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

fn store(words: &mut [u32; 4], v: __m128i) {
    // SAFETY: the exclusive reference covers 16 writable bytes; `storeu`
    // has no alignment requirement.
    unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) }
}

/// One chain's working state: `ABEF`, `CDGH`, and the last sixteen
/// schedule words.
#[derive(Clone, Copy)]
struct Chain {
    abef: __m128i,
    cdgh: __m128i,
    w: [__m128i; 4],
}

impl Chain {
    /// `state` in the instructions' register order.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn pack(state: &[u32; 8]) -> Chain {
        let lo: &[u32; 4] = state[..4].try_into().expect("state splits 4 + 4");
        let hi: &[u32; 4] = state[4..].try_into().expect("state splits 4 + 4");
        // lanes are listed least significant first in the comments
        let badc = _mm_shuffle_epi32(load(lo), 0xb1); // [b, a, d, c]
        let hgfe = _mm_shuffle_epi32(load(hi), 0x1b); // [h, g, f, e]
        Chain {
            abef: _mm_alignr_epi8(badc, hgfe, 8),    // [f, e, b, a]
            cdgh: _mm_blend_epi16(hgfe, badc, 0xf0), // [h, g, d, c]
            w: [_mm_set_epi64x(0, 0); 4],
        }
    }

    /// Back to `[a, b, c, d, e, f, g, h]`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn unpack(self, state: &mut [u32; 8]) {
        let (lo, hi) = state.split_at_mut(4);
        let lo: &mut [u32; 4] = lo.try_into().expect("state splits 4 + 4");
        let hi: &mut [u32; 4] = hi.try_into().expect("state splits 4 + 4");
        let feba = _mm_shuffle_epi32(self.abef, 0x1b); // [a, b, e, f]
        let dchg = _mm_shuffle_epi32(self.cdgh, 0xb1); // [g, h, c, d]
        store(lo, _mm_blend_epi16(feba, dchg, 0xf0)); // [a, b, c, d]
        store(hi, _mm_alignr_epi8(dchg, feba, 8)); // [e, f, g, h]
    }

    /// Load one 64-byte block as the first sixteen schedule words.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load_block(&mut self, block: &[u8]) {
        let big_endian_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        for (w, bytes) in self.w.iter_mut().zip(block.chunks_exact(16)) {
            let bytes: &[u8; 16] = bytes.try_into().expect("chunks_exact(16)");
            *w = _mm_shuffle_epi8(load_bytes(bytes), big_endian_words);
        }
    }

    /// Rounds `4 group` to `4 group + 3`, scheduling their words first
    /// past the sixteenth (FIPS 180-4 §6.2.2, four `t` at a time).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn four_rounds(&mut self, group: usize, k: __m128i) {
        let w = &mut self.w;
        if group >= 4 {
            let sigma0 = _mm_sha256msg1_epu32(w[group % 4], w[(group + 1) % 4]);
            let w_t_minus_7 = _mm_alignr_epi8(w[(group + 3) % 4], w[(group + 2) % 4], 4);
            let sum = _mm_add_epi32(sigma0, w_t_minus_7);
            w[group % 4] = _mm_sha256msg2_epu32(sum, w[(group + 3) % 4]);
        }
        let wk = _mm_add_epi32(w[group % 4], k);
        // rounds t, t+1 read the low half of wk; t+2, t+3 the high
        self.cdgh = _mm_sha256rnds2_epu32(self.cdgh, self.abef, wk);
        self.abef = _mm_sha256rnds2_epu32(self.abef, self.cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
}

/// Fold `blocks[i]` (all of one length, a multiple of 64) into
/// `states[i]`, the `N` chains side by side round group by round group.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_chains<const N: usize>(states: [&mut [u32; 8]; N], blocks: [&[u8]; N]) {
    // a multiple of 64 is the kernel contract, not a memory-safety
    // condition: slicing never reads past a slice
    debug_assert_eq!(blocks[0].len() % 64, 0);
    let mut chains = [Chain::pack(states[0]); N];
    for (chain, state) in chains.iter_mut().zip(&states).skip(1) {
        *chain = Chain::pack(state);
    }
    for block in 0..blocks[0].len() / 64 {
        let start = chains;
        for (chain, blocks) in chains.iter_mut().zip(blocks) {
            chain.load_block(&blocks[64 * block..][..64]);
        }
        for (group, k) in K.chunks_exact(4).enumerate() {
            let k = load(k.try_into().expect("chunks_exact(4)"));
            for chain in &mut chains {
                chain.four_rounds(group, k);
            }
        }
        for (chain, start) in chains.iter_mut().zip(start) {
            chain.abef = _mm_add_epi32(chain.abef, start.abef);
            chain.cdgh = _mm_add_epi32(chain.cdgh, start.cdgh);
        }
    }
    for (chain, state) in chains.into_iter().zip(states) {
        chain.unpack(state);
    }
}
