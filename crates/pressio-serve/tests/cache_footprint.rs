//! What a cold predict leaves behind in a warmed-up daemon, counted by the
//! allocator: its feature and prediction cache entries, and nothing else.
//! The process's live heap is read before and after a run of cold
//! `rahman2023` predicts on distinct buffers; the growth over the run,
//! divided by its requests, is what each request left.

use pressio_core::{Data, Options};
use pressio_serve::protocol::op;
use pressio_serve::{Client, Endpoint, ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

/// The system allocator, keeping count of the bytes live in the process.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize, by: isize) {
    LIVE.fetch_add(bytes as isize * by, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the count is one
// atomic add, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size, 1);
            grew(layout.size(), -1);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grew(layout.size(), -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A 1 KiB field no other seed makes.
fn buffer(seed: usize) -> Data {
    let values = (0..256).map(|i| ((i * 7 + seed * 13) % 97) as f32 * 0.25 + seed as f32);
    Data::from_f32(vec![8, 8, 4], values.collect())
}

/// The live heap once the daemon has dropped what it answered with.
fn settled_live() -> isize {
    std::thread::sleep(Duration::from_millis(200));
    LIVE.load(Ordering::Relaxed)
}

fn cache_bytes(client: &mut Client) -> u64 {
    let stats = client.stats().unwrap();
    let bytes = |cache: &str| stats.get_u64(&format!("serve:{cache}.bytes")).unwrap();
    bytes("feature_cache") + bytes("prediction_cache")
}

#[test]
fn a_cold_rahman_predict_leaves_at_most_640_bytes() {
    const WARM_UP: usize = 64;
    const MEASURED: usize = 1024;
    let dir = std::env::temp_dir().join("pressio_serve_cache_footprint");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), dir.join("models"));
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let train = Options::new()
        .with("serve:op", op::TRAIN)
        .with("serve:model", "m")
        .with("serve:scheme", "rahman2023")
        .with("serve:dims", vec![8u64, 8, 4])
        .with("serve:timesteps", 1u64)
        .with("serve:bounds", vec![1e-4]);
    let trained = client.call(&train).unwrap();
    assert_eq!(
        trained.get_str("serve:type").unwrap(),
        "trained",
        "{trained}"
    );
    let extra = Options::new().with("pressio:abs", 1e-4);
    let cold = |client: &mut Client, seeds: std::ops::Range<usize>| {
        for seed in seeds {
            let resp = client.predict("m", &buffer(seed), &extra).unwrap();
            assert!(!resp.get_bool("serve:cached").unwrap(), "{resp}");
        }
    };
    cold(&mut client, 0..WARM_UP);
    let stats_before = cache_bytes(&mut client);
    let before = settled_live();
    cold(&mut client, WARM_UP..WARM_UP + MEASURED);
    let after = settled_live();
    let per_request = (after - before) as f64 / MEASURED as f64;
    let stats_per_request = (cache_bytes(&mut client) - stats_before) as f64 / MEASURED as f64;
    println!(
        "{MEASURED} cold predicts: {per_request:.0} heap bytes left each \
         ({stats_per_request:.0} by serve:*_cache.bytes)"
    );
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(per_request <= 640.0, "{per_request:.0} B per cold predict");
    assert!(
        stats_per_request <= 1024.0,
        "{stats_per_request:.0} B by the stats"
    );
}
