//! Concurrency correctness for the sharded LRU: N threads hammering the
//! cache through a start barrier must never lose an update, corrupt the
//! recency index, or grow past the capacity bound.

use pressio_serve::ShardedLru;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

#[test]
fn concurrent_insert_get_no_lost_updates() {
    let threads = 8;
    let per_thread = if std::env::var_os("CI_FAST").is_some() {
        200
    } else {
        1000
    };
    // Capacity comfortably above the working set, so nothing the test
    // wrote can be evicted: every write must be readable afterwards.
    let cache: Arc<ShardedLru<u64>> = Arc::new(ShardedLru::new("t", 8, threads * per_thread * 2));
    let barrier = Arc::new(Barrier::new(threads));
    let hits = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cache = cache.clone();
            let barrier = barrier.clone();
            let hits = hits.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    let key = format!("k-{t}-{i}");
                    cache.insert(key.clone(), (t * per_thread + i) as u64);
                    // read back something this thread already wrote
                    let probe = format!("k-{t}-{}", i / 2);
                    if cache.get(&probe) == Some((t * per_thread + i / 2) as u64) {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Own-key reads can never miss when capacity exceeds the working set.
    assert_eq!(
        hits.load(Ordering::Relaxed),
        (threads * per_thread) as u64,
        "a thread lost one of its own writes"
    );
    // Every key from every thread is still present with the right value.
    for t in 0..threads {
        for i in 0..per_thread {
            assert_eq!(
                cache.get(format!("k-{t}-{i}")),
                Some((t * per_thread + i) as u64)
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.insertions, (threads * per_thread) as u64);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.len, threads * per_thread);
}

#[test]
fn concurrent_churn_stays_bounded() {
    let threads = 8;
    let per_thread = if std::env::var_os("CI_FAST").is_some() {
        500
    } else {
        2500
    };
    // Tiny capacity: almost every insert evicts. The invariant under
    // arbitrary interleaving is conservation: insertions that did not
    // evict are still resident.
    let cache: Arc<ShardedLru<usize>> = Arc::new(ShardedLru::new("t", 4, 16));
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cache = cache.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    cache.insert(format!("k-{t}-{i}"), i);
                    let _ = cache.get(format!("k-{}-{i}", (t + 1) % threads));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        cache.len() <= cache.capacity(),
        "{} entries exceed bound {}",
        cache.len(),
        cache.capacity()
    );
    let stats = cache.stats();
    assert_eq!(stats.insertions, (threads * per_thread) as u64);
    assert_eq!(
        stats.evictions + stats.len as u64,
        stats.insertions,
        "evictions + resident must equal insertions (no lost or duplicated entries)"
    );
}

#[test]
fn concurrent_same_key_overwrites_end_consistent() {
    let threads = 8;
    let rounds = 500;
    let cache: Arc<ShardedLru<u64>> = Arc::new(ShardedLru::new("t", 2, 8));
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads as u64)
        .map(|t| {
            let cache = cache.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..rounds {
                    cache.insert("shared", t);
                    let got = cache.get("shared");
                    // the value must always be one some thread wrote
                    assert!(matches!(got, Some(v) if v < threads as u64));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // exactly one copy of the contended key survives
    assert_eq!(cache.len(), 1);
    assert!(cache.get("shared").is_some());
}
