//! Thread-count resolution and sequential-fallback parallel helpers.
//!
//! One knob controls intra-task parallelism everywhere: the
//! `PRESSIO_THREADS` environment variable, the process-wide override set
//! with [`set_global_threads`] (the CLI `--threads` flag), or a
//! per-instance `pressio:nthreads` option on a compressor. Resolution
//! order is instance option → global override → `PRESSIO_THREADS` →
//! `available_parallelism()`. A resolved count of `1` forces the plain
//! sequential code path (no pool involvement at all), which is also the
//! reference behaviour the byte-identical-output guarantee is pinned
//! against.
//!
//! The helpers here never change *what* is computed — chunk boundaries
//! are fixed by the caller, results come back in order — only whether the
//! chunks run on pool threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread-count override (0 = unset).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide thread count (the CLI `--threads` flag). `0`
/// clears the override.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The machine's available parallelism (≥ 1), read once per process:
/// `available_parallelism` re-reads the cgroup files on every call, and
/// the pool this count sizes is itself sized once.
pub fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolve the effective thread count: `instance` option if set, else the
/// [`set_global_threads`] override, else `PRESSIO_THREADS`, else
/// [`available`]. Always ≥ 1.
pub fn resolve(instance: Option<usize>) -> usize {
    if let Some(n) = instance {
        return n.max(1);
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Ok(s) = std::env::var("PRESSIO_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available()
}

/// Map `f` over indices `0..n`, in parallel when `nthreads > 1`, returning
/// results in index order. With `nthreads <= 1` this is a plain sequential
/// loop — identical to pre-parallelism behaviour.
pub fn par_map_indexed<R, F>(nthreads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if nthreads <= 1 || n <= 1 {
        (0..n).map(f).collect()
    } else {
        rayon::par_map(n, f)
    }
}

/// Map `f` over `items.chunks(chunk_len)`, in parallel when
/// `nthreads > 1`, returning per-chunk results in chunk order. The chunk
/// boundaries are identical in both modes, so callers that splice the
/// results byte-concatenate to the same stream either way.
pub fn par_chunks<T, R, F>(nthreads: usize, items: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let chunk_len = chunk_len.max(1);
    if nthreads <= 1 || items.len() <= chunk_len {
        items
            .chunks(chunk_len)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect()
    } else {
        rayon::par_chunks(items, chunk_len, f)
    }
}

/// Run `f` over `items.chunks_mut(chunk_len)`, in parallel when
/// `nthreads > 1`. `f` receives `(chunk_index, chunk)` and writes its
/// chunk in place, so a caller fills one output buffer with no second
/// copy; the chunk boundaries are the same in both modes.
pub fn par_chunks_mut<T, F>(nthreads: usize, items: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    if nthreads <= 1 || items.len() <= chunk_len {
        for (i, chunk) in items.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
    } else {
        rayon::scope(|s| {
            for (i, chunk) in items.chunks_mut(chunk_len).enumerate() {
                let f = &f;
                s.spawn(move |_| f(i, chunk));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_instance() {
        assert_eq!(resolve(Some(3)), 3);
        assert_eq!(resolve(Some(0)), 1); // clamped
    }

    #[test]
    fn global_override_round_trips() {
        set_global_threads(5);
        assert_eq!(resolve(None), 5);
        set_global_threads(0);
    }

    #[test]
    fn par_map_indexed_matches_sequential() {
        let seq = par_map_indexed(1, 100, |i| i * 3);
        let par = par_map_indexed(4, 100, |i| i * 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_chunks_boundaries_are_thread_independent() {
        let items: Vec<u32> = (0..103).collect();
        let seq = par_chunks(1, &items, 10, |i, c| (i, c.to_vec()));
        let par = par_chunks(7, &items, 10, |i, c| (i, c.to_vec()));
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 11);
    }

    #[test]
    fn par_chunks_mut_fills_each_chunk_in_place() {
        let fill = |nthreads| {
            let mut items = vec![0usize; 103];
            par_chunks_mut(nthreads, &mut items, 10, |i, c| {
                for (k, v) in c.iter_mut().enumerate() {
                    *v = i * 1000 + k;
                }
            });
            items
        };
        let seq = fill(1);
        assert_eq!(seq, fill(7));
        assert_eq!((seq[0], seq[19], seq[102]), (0, 1009, 10002));
    }
}
