//! A checkpoint line is `{"key":KEY,"value":OPTIONS}`, byte for byte what
//! the serde derive on `Record { key: String, value: Options }` wrote
//! before the store used core's JSON codec (the `Options` mirror in
//! pressio-serve's `tests/reference/`): so every log written before reads
//! back, and a log written now is the one the derive would have written.

#[path = "../../pressio-serve/tests/reference/mirror.rs"]
mod mirror;

use pressio_bench_infra::store::CheckpointStore;
use pressio_core::{Options, Value};

#[derive(serde::Serialize)]
struct Record {
    key: String,
    value: mirror::Mirror,
}

fn derived_line(key: &str, value: &Options) -> String {
    let record = Record {
        key: key.to_string(),
        value: mirror::Mirror::from(value),
    };
    serde_json::to_string(&record).unwrap() + "\n"
}

/// Keys that need escapes or are not ASCII, and values of every variant,
/// with the floats a printer gets wrong.
fn cases() -> Vec<(String, Options)> {
    let every_variant = Options::new()
        .with("b", true)
        .with("i", Value::I64(i64::MIN))
        .with("u", Value::U64(u64::MAX))
        .with("f", -0.0)
        .with("fv", vec![5e-324, f64::MAX, 1e22, 0.1])
        .with("uv", vec![0u64, 1 << 63])
        .with("s", "q\"b\\n\n\u{1}\u{7f}é")
        .with("sv", vec![String::new(), "漢😀".to_string()])
        .with("bytes", vec![0u8, 10, 255])
        .with("o", Value::Opaque("mpi_comm".into()));
    vec![
        ("sz3/P-t00/rahman2023".into(), every_variant),
        (
            "q\"b\\n\n\t\u{0}".into(),
            Options::new().with("ratio", 12.5),
        ),
        ("漢😀\u{2028}".into(), Options::new().with("x", 1e300)),
        (String::new(), Options::new()),
    ]
}

#[test]
fn a_checkpoint_line_is_the_derived_records_bytes() {
    let dir = std::env::temp_dir().join("pressio_checkpoint_line");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lines.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut store = CheckpointStore::open(&path).unwrap();
    let mut want = String::new();
    for (key, value) in cases() {
        store.put(key.as_str(), value.clone()).unwrap();
        want += &derived_line(&key, &value);
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), want);

    // compaction writes the same lines, sorted by key
    store.compact().unwrap();
    let mut sorted = cases();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let want: String = sorted.iter().map(|(k, v)| derived_line(k, v)).collect();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), want);

    // and the derive's log reads back, bit for bit
    drop(store);
    let store = CheckpointStore::open(&path).unwrap();
    assert_eq!(store.recovered_torn(), 0);
    for (key, value) in cases() {
        assert_eq!(
            format!("{:?}", store.get(&key)),
            format!("{:?}", Some(&value))
        );
    }
}
