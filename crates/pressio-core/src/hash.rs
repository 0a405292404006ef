//! Deterministic option-structure hashing (paper §4.3).
//!
//! LibPressio-Predict-Bench indexes its checkpoint database by a *stable
//! cryptographic* hash of option structures: unlike `std::hash`, the digest
//! is identical across executions, architectures, and library versions, so a
//! restarted job finds its previous results. We implement SHA-256 from the
//! FIPS 180-4 specification (no external dependency) and define a canonical
//! byte encoding of [`Options`]: entries are walked in sorted-key order and
//! `Opaque` values (the analog of `void*` CUDA streams / `MPI_Comm`) are
//! skipped.
//!
//! The one [`Sha256`] sits on one of two block kernels, picked once per
//! process by CPU detection and by nothing else: the x86-64 SHA-NI
//! instructions where the CPU has them, the portable FIPS loop everywhere
//! else. The portable loop is also the scalar twin: the tests drive both
//! kernels directly and hold every digest of the fast one to it.
//! [`content_digest`] keys a data buffer in memory: a SHA-256 tree whose
//! leaves are hashed in parallel.

use crate::data::Data;
use crate::options::Options;
use crate::threads;
use crate::value::Value;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A SHA-256 block kernel: fold the whole 64-byte blocks of its second
/// argument (whose length is a multiple of 64) into the eight state words.
type BlockKernel = fn(&mut [u32; 8], &[u8]);

/// Two independent SHA-256 chains at once: fold equal-length runs of whole
/// blocks, the third argument into the first state and the fourth into the
/// second.
type PairKernel = fn(&mut [u32; 8], &mut [u32; 8], &[u8], &[u8]);

#[cfg(target_arch = "x86_64")]
mod sha_ni;

/// The portable kernel: the FIPS 180-4 §6.2.2 loop, block after block. It
/// is the only path on hosts without SHA-NI and the scalar twin the
/// SHA-NI kernel is tested against.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, x) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(x);
        }
    }
}

/// The portable pair: one chain, then the other. The scalar twin of the
/// SHA-NI pair kernel.
fn compress_pair_scalar(a: &mut [u32; 8], b: &mut [u32; 8], blocks_a: &[u8], blocks_b: &[u8]) {
    assert_eq!(blocks_a.len(), blocks_b.len(), "a pair folds equal runs");
    compress_blocks_scalar(a, blocks_a);
    compress_blocks_scalar(b, blocks_b);
}

/// A matched single-chain and pair kernel.
#[derive(Clone, Copy)]
struct Kernels {
    blocks: BlockKernel,
    pair: PairKernel,
}

const SCALAR: Kernels = Kernels {
    blocks: compress_blocks_scalar,
    pair: compress_pair_scalar,
};

/// The SHA-NI kernels, or `None` where the CPU (or the architecture) does
/// not have them.
fn sha_ni_kernels() -> Option<Kernels> {
    #[cfg(target_arch = "x86_64")]
    return sha_ni::detect().map(|(blocks, pair)| Kernels { blocks, pair });
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// The kernels every [`Sha256`] of this process uses: SHA-NI where the CPU
/// has it, the portable loop otherwise. Detected once; nothing but the CPU
/// selects them.
fn selected() -> Kernels {
    static SELECTED: std::sync::OnceLock<Kernels> = std::sync::OnceLock::new();
    *SELECTED.get_or_init(|| sha_ni_kernels().unwrap_or(SCALAR))
}

impl Kernels {
    fn digest(self, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(self.blocks);
        h.update(data);
        h.finalize()
    }

    /// The digests of two equal-length messages, their whole blocks folded
    /// side by side through the pair kernel.
    fn digest_pair(self, a: &[u8], b: &[u8]) -> [[u8; 32]; 2] {
        let whole = a.len() & !63;
        let (mut ha, mut hb) = (
            Sha256::with_kernel(self.blocks),
            Sha256::with_kernel(self.blocks),
        );
        (self.pair)(&mut ha.state, &mut hb.state, &a[..whole], &b[..whole]);
        for (h, tail) in [(&mut ha, &a[whole..]), (&mut hb, &b[whole..])] {
            h.total_len = whole as u64;
            h.update(tail);
        }
        [ha.finalize(), hb.finalize()]
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    compress_blocks: BlockKernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Self::with_kernel(selected().blocks)
    }

    fn with_kernel(compress_blocks: BlockKernel) -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            compress_blocks,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(rest.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len < 64 {
                return;
            }
            (self.compress_blocks)(&mut self.state, &self.buffer);
        }
        // every whole block of the input goes to the kernel in one call,
        // straight from the caller's slice
        let (blocks, tail) = rest.split_at(rest.len() & !63);
        if !blocks.is_empty() {
            (self.compress_blocks)(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // the buffered tail, 0x80, zeros, and the bit length closing the
        // last block: one block if the tail leaves room for nine bytes,
        // two if not
        let mut padded = [0u8; 128];
        let tail = self.buffer_len;
        padded[..tail].copy_from_slice(&self.buffer[..tail]);
        padded[tail] = 0x80;
        let end = if tail < 56 { 64 } else { 128 };
        let bit_len = self.total_len.wrapping_mul(8);
        padded[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        (self.compress_blocks)(&mut self.state, &padded[..end]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        selected().digest(data)
    }
}

/// Bytes per leaf of [`content_digest`]'s tree: changing it changes every key.
pub const CONTENT_LEAF: usize = 256 << 10;

/// The first bytes of every [`content_digest`] root.
const CONTENT_LABEL: &[u8] = b"pressio content tree/256K";

/// Content digest of a buffer of `dtype` elements shaped `dims` whose
/// little-endian image is `bytes`: a two-level SHA-256 tree. The leaves are
/// `bytes` in [`CONTENT_LEAF`]-byte pieces (the last shorter, none when
/// empty); the root hashes [`CONTENT_LABEL`], the dtype and dims (each
/// length-prefixed), the byte length and the leaf digests in order. Both
/// levels are fixed and the root binds the length, so the tree is as
/// collision-resistant as SHA-256. Leaves are hashed on the [`threads`]
/// pool, an equal pair at a time through the pair kernel, to the same
/// digest at any thread count on either kernel; a one-leaf buffer resolves
/// no thread count and queues no pool job.
pub fn content_digest(dtype: &str, dims: &[u64], bytes: &[u8]) -> [u8; 32] {
    let nthreads = if bytes.len() > CONTENT_LEAF {
        threads::resolve(None)
    } else {
        1
    };
    content_digest_on(selected(), nthreads, dtype, dims, bytes)
}

fn content_digest_on(
    kernels: Kernels,
    nthreads: usize,
    dtype: &str,
    dims: &[u64],
    bytes: &[u8],
) -> [u8; 32] {
    let mut root = Sha256::with_kernel(kernels.blocks);
    root.update(CONTENT_LABEL);
    root.update(&(dtype.len() as u64).to_le_bytes());
    root.update(dtype.as_bytes());
    root.update(&(dims.len() as u64).to_le_bytes());
    for d in dims {
        root.update(&d.to_le_bytes());
    }
    root.update(&(bytes.len() as u64).to_le_bytes());
    if bytes.len() <= CONTENT_LEAF {
        // none or one leaf: no pool job, no allocation
        for leaf in bytes.chunks(CONTENT_LEAF) {
            root.update(&kernels.digest(leaf));
        }
    } else {
        let leaves: Vec<&[u8]> = bytes.chunks(CONTENT_LEAF).collect();
        let digests = threads::par_chunks(nthreads, &leaves, 2, |_, pair| match *pair {
            [a, b] if a.len() == b.len() => kernels.digest_pair(a, b).to_vec(),
            _ => pair.iter().map(|leaf| kernels.digest(leaf)).collect(),
        });
        for leaf in digests.iter().flatten() {
            root.update(leaf);
        }
    }
    root.finalize()
}

/// Streaming FNV-1a 64-bit — the repo's standard cheap content checksum
/// (PSEL decision records, PSTF stream frames). Unlike [`Sha256`] it is
/// not collision-resistant; it guards against corruption, not adversaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a64 {
        Fnv1a64 {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Absorb bytes; chunk boundaries do not affect the result.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.step(b);
        }
    }

    #[inline(always)]
    fn step(&mut self, byte: u8) {
        self.state ^= byte as u64;
        self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Absorb the little-endian image of `data` ([`Data::to_le_bytes`])
    /// into `self` and `other` at once, without materialising the image.
    ///
    /// Each byte is one multiply that waits on the last, so a hasher runs
    /// at the multiplier's latency; two independent chains in one pass cost
    /// about what one does.
    pub fn update_le_pair(&mut self, other: &mut Fnv1a64, data: &Data) {
        data.le_runs(|run| {
            for &byte in run {
                self.step(byte);
                other.step(byte);
            }
        });
    }

    /// The digest so far (the hasher remains usable).
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// Render a digest as lowercase hex.
pub fn to_hex(digest: &[u8; 32]) -> String {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(64);
    for &b in digest {
        s.push(NIBBLES[usize::from(b >> 4)] as char);
        s.push(NIBBLES[usize::from(b & 0x0f)] as char);
    }
    s
}

fn hash_value(h: &mut Sha256, v: &Value) {
    // A one-byte type tag keeps e.g. U64(1) and I64(1) distinct.
    match v {
        Value::Bool(b) => {
            h.update(&[0x01, *b as u8]);
        }
        Value::I64(x) => {
            h.update(&[0x02]);
            h.update(&x.to_le_bytes());
        }
        Value::U64(x) => {
            h.update(&[0x03]);
            h.update(&x.to_le_bytes());
        }
        Value::F64(x) => {
            h.update(&[0x04]);
            // canonicalize -0.0 so numerically equal configs hash equal
            let x = if *x == 0.0 { 0.0 } else { *x };
            h.update(&x.to_le_bytes());
        }
        Value::Str(s) => {
            h.update(&[0x05]);
            h.update(&(s.len() as u64).to_le_bytes());
            h.update(s.as_bytes());
        }
        Value::F64Vec(xs) => {
            h.update(&[0x06]);
            h.update(&(xs.len() as u64).to_le_bytes());
            for x in xs {
                let x = if *x == 0.0 { 0.0 } else { *x };
                h.update(&x.to_le_bytes());
            }
        }
        Value::U64Vec(xs) => {
            h.update(&[0x07]);
            h.update(&(xs.len() as u64).to_le_bytes());
            for x in xs {
                h.update(&x.to_le_bytes());
            }
        }
        Value::StrVec(xs) => {
            h.update(&[0x08]);
            h.update(&(xs.len() as u64).to_le_bytes());
            for s in xs {
                h.update(&(s.len() as u64).to_le_bytes());
                h.update(s.as_bytes());
            }
        }
        Value::Bytes(xs) => {
            h.update(&[0x09]);
            h.update(&(xs.len() as u64).to_le_bytes());
            h.update(xs);
        }
        Value::Opaque(_) => unreachable!("opaque values are filtered before hashing"),
    }
}

/// Stable digest of an option structure.
///
/// Entries are visited in sorted-key order (guaranteed by [`Options`]'s
/// `BTreeMap`); `Opaque` entries are skipped so runtime handles do not
/// perturb the key a result is stored under.
pub fn hash_options(opts: &Options) -> [u8; 32] {
    let mut h = Sha256::new();
    for (k, v) in opts.iter() {
        if !v.is_hashable() {
            continue;
        }
        h.update(&(k.len() as u64).to_le_bytes());
        h.update(k.as_bytes());
        hash_value(&mut h, v);
    }
    h.finalize()
}

/// Hex form of [`hash_options`] — the checkpoint database key.
pub fn hash_options_hex(opts: &Options) -> String {
    to_hex(&hash_options(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SHA-NI kernel, or a line on stderr (one per case, however often
    /// a proptest asks) saying `case` was skipped: on a host without the
    /// instructions the SHA-NI cases must not look like passes in the log.
    fn sha_ni_or_skip(case: &'static str) -> Option<Kernels> {
        static SKIPPED: std::sync::Mutex<Vec<&str>> = std::sync::Mutex::new(Vec::new());
        let kernel = sha_ni_kernels();
        if kernel.is_none() {
            let mut skipped = SKIPPED.lock().unwrap();
            if !skipped.contains(&case) {
                skipped.push(case);
                eprintln!("SKIPPED {case}: this CPU has no SHA-NI; only the scalar kernel ran");
            }
        }
        kernel
    }

    fn digest_with(kernel: BlockKernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    /// Deterministic filler for the large-buffer cases.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// FIPS 180-4 test vectors.
    fn check_known_vectors(kernel: BlockKernel) {
        for (message, hex) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(to_hex(&digest_with(kernel, message)), hex);
        }
    }

    fn check_million_a(kernel: BlockKernel) {
        let mut h = Sha256::with_kernel(kernel);
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_known_vectors_scalar() {
        check_known_vectors(compress_blocks_scalar);
    }

    #[test]
    fn sha256_known_vectors_sha_ni() {
        if let Some(kernels) = sha_ni_or_skip("sha256_known_vectors_sha_ni") {
            check_known_vectors(kernels.blocks);
        }
    }

    #[test]
    fn sha256_million_a_scalar() {
        check_million_a(compress_blocks_scalar);
    }

    #[test]
    fn sha256_million_a_sha_ni() {
        if let Some(kernels) = sha_ni_or_skip("sha256_million_a_sha_ni") {
            check_million_a(kernels.blocks);
        }
    }

    /// What `Sha256::new()` runs on here, printed for the CI log, and the
    /// public path pinned to a FIPS vector whichever kernel that is.
    #[test]
    fn sha256_selected_kernel_is_reported() {
        let name = if sha_ni_kernels().is_some() {
            "sha-ni"
        } else {
            "scalar"
        };
        eprintln!("sha256 kernel selected on this host: {name}");
        assert_eq!(
            digest_with(selected().blocks, b"abc"),
            Sha256::digest(b"abc")
        );
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha_ni_matches_scalar_on_multi_mib_buffers() {
        let Some(Kernels { blocks: sha_ni, .. }) =
            sha_ni_or_skip("sha_ni_matches_scalar_on_multi_mib_buffers")
        else {
            return;
        };
        for (len, start) in [(1 << 20, 0), ((3 << 20) + 17, 1), ((5 << 20) + 63, 7)] {
            let buffer = noise(start + len, len as u64);
            let data = &buffer[start..];
            let expected = digest_with(compress_blocks_scalar, data);
            assert_eq!(digest_with(sha_ni, data), expected, "len={len}");
            // the same bytes in three uneven updates
            let mut h = Sha256::with_kernel(sha_ni);
            let (head, rest) = data.split_at(65);
            let (middle, tail) = rest.split_at(rest.len() / 2 + 1);
            for piece in [head, middle, tail] {
                h.update(piece);
            }
            assert_eq!(h.finalize(), expected, "len={len} in three updates");
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// `update` piece lengths: the block-boundary sizes by name, and
        /// anything up to a few blocks.
        fn arb_piece() -> impl Strategy<Value = usize> {
            prop_oneof![
                Just(0usize),
                Just(1usize),
                Just(63usize),
                Just(64usize),
                Just(65usize),
                0usize..300,
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // The two kernels themselves: any state, any run of blocks,
            // any start alignment.
            #[test]
            fn kernels_agree_block_for_block(
                state in prop::collection::vec(any::<u32>(), 8),
                bytes in prop::collection::vec(any::<u8>(), 16 + 64 * 9),
                start in 0usize..16,
                blocks in 0usize..=9,
            ) {
                let Some(Kernels { blocks: sha_ni, .. }) =
                    sha_ni_or_skip("kernels_agree_block_for_block")
                else {
                    return Ok(());
                };
                let state: [u32; 8] = state.try_into().unwrap();
                let input = &bytes[start..start + 64 * blocks];
                let (mut scalar_state, mut sha_ni_state) = (state, state);
                compress_blocks_scalar(&mut scalar_state, input);
                sha_ni(&mut sha_ni_state, input);
                prop_assert_eq!(scalar_state, sha_ni_state);
            }

            // The pair kernels: any two states, any equal runs of blocks
            // from any two start alignments, against the single-chain
            // scalar loop on each.
            #[test]
            fn pair_kernels_agree_block_for_block(
                states in prop::collection::vec(any::<u32>(), 16),
                bytes in prop::collection::vec(any::<u8>(), 32 + 64 * 9),
                starts in (0usize..16, 16usize..32),
                blocks in 0usize..=9,
            ) {
                let Some(sha_ni) = sha_ni_or_skip("pair_kernels_agree_block_for_block") else {
                    return Ok(());
                };
                let a: [u32; 8] = states[..8].try_into().unwrap();
                let b: [u32; 8] = states[8..].try_into().unwrap();
                let input_a = &bytes[starts.0..starts.0 + 64 * blocks];
                let input_b = &bytes[starts.1..starts.1 + 64 * blocks];
                let (mut want_a, mut want_b) = (a, b);
                compress_blocks_scalar(&mut want_a, input_a);
                compress_blocks_scalar(&mut want_b, input_b);
                for pair in [SCALAR.pair, sha_ni.pair] {
                    let (mut got_a, mut got_b) = (a, b);
                    pair(&mut got_a, &mut got_b, input_a, input_b);
                    prop_assert_eq!((got_a, got_b), (want_a, want_b));
                }
            }

            // Pair digests: random equal lengths 0..=4096 at unaligned,
            // different starts.
            #[test]
            fn pair_digests_agree_at_any_length_and_offset(
                bytes in prop::collection::vec(any::<u8>(), 2 * 4096 + 32),
                len in 0usize..=4096,
                starts in (0usize..16, 0usize..16),
            ) {
                let Some(sha_ni) = sha_ni_or_skip("pair_digests_agree_at_any_length_and_offset")
                else {
                    return Ok(());
                };
                let a = &bytes[starts.0..starts.0 + len];
                let b = &bytes[4096 + 16 + starts.1..][..len];
                let want = [a, b].map(|m| digest_with(compress_blocks_scalar, m));
                prop_assert_eq!(SCALAR.digest_pair(a, b), want);
                prop_assert_eq!(sha_ni.digest_pair(a, b), want);
            }

            // Whole digests: random lengths 0..=4096, random `update`
            // split points, unaligned slice starts.
            #[test]
            fn digests_agree_under_any_split(
                bytes in prop::collection::vec(any::<u8>(), 0..=4096 + 15),
                start in 0usize..16,
                pieces in prop::collection::vec(arb_piece(), 0..12),
            ) {
                let Some(Kernels { blocks: sha_ni, .. }) =
                    sha_ni_or_skip("digests_agree_under_any_split")
                else {
                    return Ok(());
                };
                let data = &bytes[start.min(bytes.len())..];
                let expected = digest_with(compress_blocks_scalar, data);
                prop_assert_eq!(digest_with(sha_ni, data), expected);
                for kernel in [compress_blocks_scalar, sha_ni] {
                    let mut h = Sha256::with_kernel(kernel);
                    let mut rest = data;
                    for &piece in &pieces {
                        let (head, tail) = rest.split_at(piece.min(rest.len()));
                        h.update(head);
                        rest = tail;
                    }
                    h.update(rest);
                    prop_assert_eq!(h.finalize(), expected);
                }
            }
        }
    }

    /// [`content_digest`] as its doc defines it, longhand on the scalar
    /// kernel: one digest per leaf, then the root.
    fn reference_content_digest(dtype: &str, dims: &[u64], bytes: &[u8]) -> [u8; 32] {
        let mut root = Sha256::with_kernel(compress_blocks_scalar);
        root.update(CONTENT_LABEL);
        root.update(&(dtype.len() as u64).to_le_bytes());
        root.update(dtype.as_bytes());
        root.update(&(dims.len() as u64).to_le_bytes());
        for d in dims {
            root.update(&d.to_le_bytes());
        }
        root.update(&(bytes.len() as u64).to_le_bytes());
        for leaf in bytes.chunks(CONTENT_LEAF) {
            root.update(&digest_with(compress_blocks_scalar, leaf));
        }
        root.finalize()
    }

    fn check_pair_vectors(kernels: Kernels) {
        for (message, hex) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(
                kernels.digest_pair(message, message).map(|d| to_hex(&d)),
                [hex; 2]
            );
        }
        let million_a = vec![b'a'; 1_000_000];
        let hex = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let [a, b] = kernels.digest_pair(&million_a, &million_a);
        assert_eq!((to_hex(&a), to_hex(&b)), (hex.into(), hex.into()));
    }

    #[test]
    fn pair_known_vectors_scalar() {
        check_pair_vectors(SCALAR);
    }

    #[test]
    fn pair_known_vectors_sha_ni() {
        if let Some(kernels) = sha_ni_or_skip("pair_known_vectors_sha_ni") {
            check_pair_vectors(kernels);
        }
    }

    /// Empty, one byte, exactly one leaf, one leaf and a byte (an unequal
    /// pair, each leaf hashed alone), and five leaves and a tail (two equal
    /// pairs and a lone short leaf): the definition, on both kernels, at 1,
    /// 2 and 4 threads.
    #[test]
    fn content_digest_is_its_definition_at_any_thread_count_and_kernel() {
        let dims = [7u64, 3];
        let kernels = [
            ("scalar", Some(SCALAR)),
            ("sha-ni", sha_ni_or_skip("content_digest_sha_ni")),
        ];
        for len in [0, 1, CONTENT_LEAF, CONTENT_LEAF + 1, 5 * CONTENT_LEAF + 17] {
            let bytes = noise(len, len as u64 + 1);
            let expected = reference_content_digest("f32", &dims, &bytes);
            for (name, kernels) in kernels.iter().filter_map(|(n, k)| Some((n, (*k)?))) {
                for nthreads in [1, 2, 4] {
                    let got = content_digest_on(kernels, nthreads, "f32", &dims, &bytes);
                    assert_eq!(got, expected, "{name} len={len} threads={nthreads}");
                }
            }
            assert_eq!(content_digest("f32", &dims, &bytes), expected, "len={len}");
        }
    }

    #[test]
    fn content_digest_binds_dtype_dims_and_length() {
        let bytes = noise(CONTENT_LEAF + 8, 3);
        let base = content_digest("f32", &[4, 3], &bytes);
        assert_ne!(content_digest("i32", &[4, 3], &bytes), base);
        assert_ne!(content_digest("f32", &[3, 4], &bytes), base);
        assert_ne!(content_digest("f32", &[4, 3, 1], &bytes), base);
        assert_ne!(
            content_digest("f32", &[4, 3], &bytes[..bytes.len() - 4]),
            base
        );
        assert_ne!(content_digest("f32", &[4, 3], &bytes[..CONTENT_LEAF]), base);
        let mut flipped = bytes.clone();
        flipped[CONTENT_LEAF + 3] ^= 1;
        assert_ne!(content_digest("f32", &[4, 3], &flipped), base);
        // a dims word cannot pass for payload bytes, nor a dtype byte for a dim
        let (dim, tail) = (&12u64.to_le_bytes(), &bytes[..16]);
        let moved: Vec<u8> = dim.iter().chain(tail).copied().collect();
        assert_ne!(
            content_digest("u8", &[2], &moved),
            content_digest("u8", &[2, 12], tail)
        );
        assert_ne!(
            content_digest("f3", &[2], b""),
            content_digest("f", &[2], b"3")
        );
    }

    /// Fastest-of-15 ms per MiB: one chain, the pair kernel, and the
    /// content tree at 1 and 2 threads, on a 1 MiB buffer. The host is
    /// noisy: compare rows within a run.
    #[test]
    #[ignore = "timing; run with --ignored --nocapture"]
    fn content_digest_costs() {
        let bytes = noise(1 << 20, 9);
        let fastest = |f: &dyn Fn()| {
            (0..15)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        };
        let kernels = selected();
        let (a, b) = bytes.split_at(bytes.len() / 2);
        let rows: [(&str, &dyn Fn()); 4] = [
            ("one chain", &|| {
                std::hint::black_box(kernels.digest(&bytes));
            }),
            ("pair kernel", &|| {
                std::hint::black_box(kernels.digest_pair(a, b));
            }),
            ("tree, 1 thread", &|| {
                std::hint::black_box(content_digest_on(kernels, 1, "f32", &[1], &bytes));
            }),
            ("tree, 2 threads", &|| {
                std::hint::black_box(content_digest_on(kernels, 2, "f32", &[1], &bytes));
            }),
        ];
        for (name, f) in rows {
            eprintln!("{name:>16}: {:.3} ms/MiB", fastest(f));
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn option_hash_is_insertion_order_independent() {
        let a = Options::new().with("x", 1.0).with("y", "abs");
        let b = Options::new().with("y", "abs").with("x", 1.0);
        assert_eq!(hash_options(&a), hash_options(&b));
    }

    #[test]
    fn option_hash_distinguishes_values_and_types() {
        let base = Options::new().with("pressio:abs", 1e-6);
        let other = Options::new().with("pressio:abs", 1e-4);
        assert_ne!(hash_options(&base), hash_options(&other));
        let int1 = Options::new().with("n", 1u64);
        let sint1 = Options::new().with("n", 1i64);
        assert_ne!(hash_options(&int1), hash_options(&sint1));
    }

    #[test]
    fn opaque_entries_do_not_affect_hash() {
        let plain = Options::new().with("pressio:abs", 1e-6);
        let mut with_handle = plain.clone();
        with_handle.set("runtime:stream", Value::Opaque("cuda-stream-7".into()));
        assert_eq!(hash_options(&plain), hash_options(&with_handle));
    }

    #[test]
    fn negative_zero_canonicalized() {
        let a = Options::new().with("v", 0.0f64);
        let b = Options::new().with("v", -0.0f64);
        assert_eq!(hash_options(&a), hash_options(&b));
    }

    #[test]
    fn key_value_boundaries_unambiguous() {
        // ("ab" -> "c") must differ from ("a" -> "bc")
        let a = Options::new().with("ab", "c");
        let b = Options::new().with("a", "bc");
        assert_ne!(hash_options(&a), hash_options(&b));
    }

    #[test]
    fn fnv1a64_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a64_streaming_matches_one_shot() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1031).collect();
        let mut h = Fnv1a64::new();
        for piece in payload.chunks(7) {
            h.update(piece);
        }
        assert_eq!(h.finish(), fnv1a64(&payload));
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }

    #[test]
    fn the_pair_update_hashes_the_le_image_into_both() {
        let n = 37;
        let buffers = [
            Data::from_f32(vec![n], (0..n).map(|i| i as f32 * -0.37).collect()),
            Data::from_f64(vec![n], (0..n).map(|i| i as f64 * 1e-300).collect()),
            Data::from_i32(vec![n], (0..n).map(|i| i as i32 - 18).collect()),
            Data::from_i64(vec![n], (0..n).map(|i| (i as i64) << 40).collect()),
            Data::from_bytes((0..n).map(|i| i as u8 * 7).collect()),
            Data::from_f32(vec![0], Vec::new()),
        ];
        for data in buffers {
            let image = data.to_le_bytes();
            // a fresh hasher and one part-way through a stream
            let (mut fresh, mut running) = (Fnv1a64::new(), Fnv1a64::new());
            running.update(b"earlier chunks");
            let mut want = running;
            want.update(&image);
            fresh.update_le_pair(&mut running, &data);
            assert_eq!(fresh.finish(), fnv1a64(&image), "{:?}", data.dtype());
            assert_eq!(running, want, "{:?}", data.dtype());
        }
    }
}
