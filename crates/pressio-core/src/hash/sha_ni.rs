//! The x86-64 SHA-NI block kernel behind [`super::Sha256`]: four rounds
//! per `sha256rnds2` pair, the message schedule in `sha256msg1` /
//! `sha256msg2`. It is the only module of the crate allowed `unsafe`, and
//! it is bit-identical to the portable loop in the parent module, which
//! the tests hold it to.
//!
//! The working state lives in two registers in the order the
//! instructions want, `ABEF` and `CDGH` (most significant lane first);
//! it is packed from and unpacked to the `[a, b, c, d, e, f, g, h]` word
//! order once per call, not once per block.

#![allow(unsafe_code)]

use super::{BlockKernel, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// The kernel, when this CPU has the instructions it is compiled for.
pub(super) fn detect() -> Option<BlockKernel> {
    let supported = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    supported.then_some(compress_blocks as BlockKernel)
}

/// Safe face of the kernel. Private: the only way out of this module is
/// through [`detect`], so holding the pointer proves the features exist.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: `detect` hands this function out only after
    // `is_x86_feature_detected!` reported every feature the callee is
    // compiled with (sha, sse2, ssse3, sse4.1).
    unsafe { compress_blocks_sha(state, blocks) }
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

/// Four new schedule words from the previous sixteen (FIPS 180-4 §6.2.2
/// step 1, four `t` at a time).
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let sigma0 = _mm_sha256msg1_epu32(w0, w1);
    let w_t_minus_7 = _mm_alignr_epi8(w3, w2, 4);
    _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_t_minus_7), w3)
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[u8]) {
    // a multiple of 64 is the kernel contract, not a memory-safety
    // condition: `chunks_exact` never reads past the slice
    debug_assert_eq!(blocks.len() % 64, 0);
    let (lo, hi) = state.split_at_mut(4);
    let lo: &mut [u32; 4] = lo.try_into().expect("state splits 4 + 4");
    let hi: &mut [u32; 4] = hi.try_into().expect("state splits 4 + 4");

    // lanes are listed least significant first in the comments
    let big_endian_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let badc = _mm_shuffle_epi32(load(lo), 0xb1); // [b, a, d, c]
    let hgfe = _mm_shuffle_epi32(load(hi), 0x1b); // [h, g, f, e]
    let mut abef = _mm_alignr_epi8(badc, hgfe, 8); // [f, e, b, a]
    let mut cdgh = _mm_blend_epi16(hgfe, badc, 0xf0); // [h, g, d, c]

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w = [_mm_set_epi64x(0, 0); 4];
        for (w, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
            let bytes: &[u8; 16] = bytes.try_into().expect("chunks_exact(16)");
            *w = _mm_shuffle_epi8(load_bytes(bytes), big_endian_words);
        }
        for (group, k) in K.chunks_exact(4).enumerate() {
            if group >= 4 {
                w[group % 4] = schedule(
                    w[group % 4],
                    w[(group + 1) % 4],
                    w[(group + 2) % 4],
                    w[(group + 3) % 4],
                );
            }
            let k: &[u32; 4] = k.try_into().expect("chunks_exact(4)");
            let wk = _mm_add_epi32(w[group % 4], load(k));
            // rounds t, t+1 read the low half of wk; t+2, t+3 the high
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b); // [a, b, e, f]
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1); // [g, h, c, d]
    store(lo, _mm_blend_epi16(feba, dchg, 0xf0)); // [a, b, c, d]
    store(hi, _mm_alignr_epi8(dchg, feba, 8)); // [e, f, g, h]
}
