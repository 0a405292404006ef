//! Runs the benchmark's entry command in `--smoke` mode and holds its output
//! to `BENCHMARK.json`: a renamed workload or metric fails here instead of
//! silently vanishing from `results.json`.

use serde::Content as Json;
use std::path::Path;
use std::process::Command;

fn get<'a>(value: &'a Json, key: &str) -> &'a Json {
    match value {
        Json::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
    .unwrap_or_else(|| panic!("no `{key}`"))
}

fn text(value: &Json) -> &str {
    match value {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(value: &Json) -> &[Json] {
    match value {
        Json::Seq(items) => items,
        other => panic!("expected a list, got {other:?}"),
    }
}

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::parse_content(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn a_smoke_set_reports_every_declared_workload_and_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent");
    let status = Command::new("bash")
        .args(["benchmark/run.sh", "--smoke"])
        .current_dir(root)
        .status()
        .expect("bash runs");
    assert!(
        status.success(),
        "benchmark/run.sh --smoke exited with {status}"
    );

    let spec = read(&root.join("BENCHMARK.json"));
    let results = read(&root.join("benchmark/out/results.json"));
    assert_eq!(
        get(get(&results, "provenance"), "reportable"),
        &Json::Bool(false),
        "smoke numbers must be marked as not for reporting"
    );
    for workload in items(get(&spec, "workloads")) {
        let name = text(get(workload, "name"));
        let reported = get(get(&results, "workloads"), name);
        assert_eq!(
            get(reported, "correct"),
            &Json::Bool(true),
            "{name} failed a check"
        );
        for kind in ["end_to_end", "per_layer"] {
            for metric in items(get(&spec, kind)) {
                let metric_name = text(get(metric, "name"));
                let value = get(get(reported, kind), metric_name);
                assert_eq!(
                    text(get(value, "unit")),
                    text(get(metric, "unit")),
                    "{name}: unit of {metric_name}"
                );
                assert!(
                    matches!(
                        get(value, "value"),
                        Json::F64(_) | Json::I64(_) | Json::U64(_)
                    ),
                    "{name}: {metric_name} is not a number"
                );
            }
        }
    }
}
