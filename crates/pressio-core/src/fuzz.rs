//! Seeded, dependency-free fuzzing harness for parser hardening.
//!
//! This is deliberately not coverage-guided: there is no nightly
//! toolchain or cargo-fuzz in the build environment, and the parsers
//! under test (wire frames, failpoint specs) are small enough that
//! corpus-seeded random mutation reaches their error paths reliably.
//! Everything is a pure function of `(seed, iteration)`, so any failure
//! reproduces exactly from the numbers in the panic message — including
//! in CI, where the nightly tier raises `PRESSIO_FUZZ_ITERS` well above
//! the smoke default.

/// SplitMix64 PRNG — small state, full 64-bit period, and deterministic
/// across platforms, which is all a reproducible fuzzer needs.
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seed a generator; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// One random byte.
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() & 0xff) as u8
    }
}

/// Boundary values a length-prefixed binary protocol is most likely to
/// mishandle; the mutator stamps these over random 4-byte windows.
const INTERESTING_U32: [u32; 8] = [
    0,
    1,
    0x7f,
    0xff,
    0xffff,
    128 << 20,       // pressio-serve MAX_FRAME
    (128 << 20) + 1, // one past it
    u32::MAX,
];

/// Derive one mutated case from `base`, spending `1..=4` stacked
/// mutation operators. `corpus` feeds the splice operator.
pub fn mutate(base: &[u8], corpus: &[Vec<u8>], rng: &mut Rng) -> Vec<u8> {
    let mut out = base.to_vec();
    for _ in 0..1 + rng.below(4) {
        match rng.below(8) {
            // flip one bit
            0 if !out.is_empty() => {
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
            // overwrite one byte
            1 if !out.is_empty() => {
                let i = rng.below(out.len());
                out[i] = rng.byte();
            }
            // delete a range
            2 if !out.is_empty() => {
                let start = rng.below(out.len());
                let end = (start + 1 + rng.below(16)).min(out.len());
                out.drain(start..end);
            }
            // duplicate a range in place
            3 if !out.is_empty() => {
                let start = rng.below(out.len());
                let end = (start + 1 + rng.below(16)).min(out.len());
                let chunk: Vec<u8> = out[start..end].to_vec();
                let at = rng.below(out.len() + 1);
                out.splice(at..at, chunk);
            }
            // insert random bytes
            4 => {
                let at = rng.below(out.len() + 1);
                let chunk: Vec<u8> = (0..1 + rng.below(8)).map(|_| rng.byte()).collect();
                out.splice(at..at, chunk);
            }
            // truncate
            5 if !out.is_empty() => {
                out.truncate(rng.below(out.len()));
            }
            // splice a window from another corpus entry
            6 if !corpus.is_empty() => {
                let other = &corpus[rng.below(corpus.len())];
                if !other.is_empty() {
                    let start = rng.below(other.len());
                    let end = (start + 1 + rng.below(32)).min(other.len());
                    let at = rng.below(out.len() + 1);
                    out.splice(at..at, other[start..end].iter().copied());
                }
            }
            // stamp an interesting u32 (big-endian) over a 4-byte window
            7 if out.len() >= 4 => {
                let v = INTERESTING_U32[rng.below(INTERESTING_U32.len())];
                let at = rng.below(out.len() - 3);
                out[at..at + 4].copy_from_slice(&v.to_be_bytes());
            }
            _ => {}
        }
    }
    out
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Drives `iters` mutated cases through a check closure, catching panics
/// and re-raising them with the exact `(seed, iteration)` and a hex dump
/// so the case replays byte-for-byte.
pub struct Fuzzer {
    /// Base seed; every iteration derives its own stream from it.
    pub seed: u64,
    /// Number of mutated cases to run.
    pub iters: u64,
}

impl Fuzzer {
    /// Smoke-test defaults, overridable without recompiling:
    /// `PRESSIO_FUZZ_ITERS` scales depth (the nightly CI tier raises it),
    /// `PRESSIO_FUZZ_SEED` replays a reported failure.
    pub fn from_env(default_iters: u64) -> Fuzzer {
        Fuzzer {
            seed: env_u64("PRESSIO_FUZZ_SEED", 0x5eed_cafe_f00d_0001),
            iters: env_u64("PRESSIO_FUZZ_ITERS", default_iters),
        }
    }

    /// Replay a single case: the mutated input for `(seed, iteration)`.
    pub fn case(&self, corpus: &[Vec<u8>], iteration: u64) -> Vec<u8> {
        let mut rng = Rng::new(
            self.seed
                .wrapping_add(iteration)
                .wrapping_mul(0x9e3779b97f4a7c15),
        );
        let base = &corpus[rng.below(corpus.len())];
        mutate(base, corpus, &mut rng)
    }

    /// Run every case through `check`. A panic inside `check` fails the
    /// run with enough context (`seed`, iteration, input hex) to replay
    /// it exactly.
    pub fn run(&self, corpus: &[Vec<u8>], mut check: impl FnMut(&[u8])) {
        assert!(!corpus.is_empty(), "fuzz corpus must not be empty");
        for i in 0..self.iters {
            let case = self.case(corpus, i);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                check(&case);
            }));
            if let Err(payload) = outcome {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                panic!(
                    "fuzz case panicked: seed={:#x} iteration={} input[{} bytes]={}: {msg}",
                    self.seed,
                    i,
                    case.len(),
                    hex_preview(&case, 256),
                );
            }
        }
    }
}

/// First `limit` bytes as hex (with an ellipsis when truncated) — enough
/// to eyeball a failing case without flooding the test log.
pub fn hex_preview(bytes: &[u8], limit: usize) -> String {
    let shown = &bytes[..bytes.len().min(limit)];
    let mut s = String::with_capacity(shown.len() * 2 + 1);
    for b in shown {
        s.push_str(&format!("{b:02x}"));
    }
    if bytes.len() > limit {
        s.push('…');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn cases_replay_identically() {
        let corpus = vec![b"hello world".to_vec(), vec![0u8; 64]];
        let fuzzer = Fuzzer { seed: 99, iters: 0 };
        for i in 0..50 {
            assert_eq!(fuzzer.case(&corpus, i), fuzzer.case(&corpus, i));
        }
    }

    #[test]
    fn mutation_changes_most_cases() {
        let corpus = vec![(0u8..=255).collect::<Vec<u8>>()];
        let fuzzer = Fuzzer { seed: 3, iters: 0 };
        let changed = (0..100)
            .filter(|&i| fuzzer.case(&corpus, i) != corpus[0])
            .count();
        assert!(changed > 90, "only {changed}/100 cases mutated");
    }

    #[test]
    fn run_reports_seed_and_iteration_on_panic() {
        let corpus = vec![vec![1, 2, 3]];
        let fuzzer = Fuzzer { seed: 5, iters: 10 };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fuzzer.run(&corpus, |_| panic!("boom"));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("seed=0x5"), "{msg}");
        assert!(msg.contains("iteration=0"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn hex_preview_truncates() {
        assert_eq!(hex_preview(&[0xab, 0xcd], 8), "abcd");
        assert_eq!(hex_preview(&[0xff; 4], 2), "ffff…");
    }
}
