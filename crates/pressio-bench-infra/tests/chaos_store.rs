//! Fault-injection tests for `CheckpointStore`.
//!
//! These configure the process-global `pressio-faults` registry, so they
//! live in their own integration-test binary (own process: the schedules
//! cannot steal fires from unrelated tests) and serialize through a local
//! mutex (Rust runs tests within a binary concurrently).

use pressio_bench_infra::store::CheckpointStore;
use pressio_core::Options;
use std::path::PathBuf;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn temp_log(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pressio_chaos_store").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("checkpoint.log")
}

fn val(tag: &str) -> Options {
    Options::new().with("tag", tag)
}

#[test]
fn injected_put_io_error_surfaces_and_store_recovers() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = temp_log("put_io");
    let mut store = CheckpointStore::open(&path).unwrap();
    pressio_faults::configure("store:put.io=err,times=1").unwrap();
    let err = store.put("a", val("first")).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    assert_eq!(pressio_faults::fired("store:put.io"), 1);
    // the failed put committed nothing; a retry goes through cleanly
    assert!(!store.contains("a"));
    store.put("a", val("first")).unwrap();
    store.put("b", val("second")).unwrap();
    drop(store);
    pressio_faults::clear();
    let store = CheckpointStore::open(&path).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(store.get("a"), Some(&val("first")));
    assert!(store.quarantined().is_none());
}

#[test]
fn torn_put_fails_then_heals_on_retry() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = temp_log("torn_put");
    let mut store = CheckpointStore::open(&path).unwrap();
    store.put("before", val("intact")).unwrap();
    pressio_faults::configure("store:put.torn=torn,times=1").unwrap();
    // the torn write leaves half a line on disk and reports failure
    assert!(store.put("torn", val("half")).is_err());
    assert_eq!(pressio_faults::fired("store:put.torn"), 1);
    assert!(!store.contains("torn"));
    pressio_faults::clear();
    // the retry must not concatenate onto the torn fragment: the store
    // seals the dirty tail with a newline first
    store.put("torn", val("whole")).unwrap();
    store.put("after", val("intact")).unwrap();
    drop(store);
    let store = CheckpointStore::open(&path).unwrap();
    assert_eq!(store.get("before"), Some(&val("intact")));
    assert_eq!(store.get("torn"), Some(&val("whole")));
    assert_eq!(store.get("after"), Some(&val("intact")));
    // the fragment shows up as exactly one recovered bad line
    assert_eq!(store.recovered_torn(), 1);
}

#[test]
fn crash_during_compact_preserves_the_whole_log() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = temp_log("compact_crash");
    let mut store = CheckpointStore::open(&path).unwrap();
    for i in 0..6 {
        store.put(format!("k{i}"), val(&format!("v{i}"))).unwrap();
        store.put(format!("k{i}"), val(&format!("v{i}b"))).unwrap(); // dead versions
    }
    // crash after the compacted temp file is written but before the rename
    pressio_faults::configure("store:compact.crash=crash,times=1").unwrap();
    assert!(store.compact().is_err());
    assert_eq!(pressio_faults::fired("store:compact.crash"), 1);
    pressio_faults::clear();
    drop(store);
    // the original log is untouched: every record survives the reopen
    let mut store = CheckpointStore::open(&path).unwrap();
    assert_eq!(store.len(), 6);
    for i in 0..6 {
        assert_eq!(store.get(&format!("k{i}")), Some(&val(&format!("v{i}b"))));
    }
    // a later compact (no fault) completes and still keeps every record
    store.compact().unwrap();
    assert_eq!(store.len(), 6);
    drop(store);
    let store = CheckpointStore::open(&path).unwrap();
    assert_eq!(store.len(), 6);
}

#[test]
fn injected_sync_and_open_errors_surface() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = temp_log("sync_open");
    let mut store = CheckpointStore::open(&path).unwrap();
    store.put("k", val("v")).unwrap();
    pressio_faults::configure("store:sync.io=err,times=1;store:open.io=err,times=1").unwrap();
    assert!(store.sync().is_err());
    drop(store);
    assert!(CheckpointStore::open(&path).is_err());
    assert_eq!(pressio_faults::fired("store:sync.io"), 1);
    assert_eq!(pressio_faults::fired("store:open.io"), 1);
    pressio_faults::clear();
    // both faults were transient: the store opens clean afterwards
    let store = CheckpointStore::open(&path).unwrap();
    assert_eq!(store.get("k"), Some(&val("v")));
}
