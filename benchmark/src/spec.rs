//! `BENCHMARK.json` is the one place metric names, units, directions and
//! bounds are written down; the harness reads them from there.

use crate::json::{self, Json};

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(root: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = json::get(root, key).ok_or_else(|| format!("BENCHMARK.json has no `{key}`"))?;
    json::items(list)
        .iter()
        .map(|m| {
            let field = |k: &str| {
                json::get(m, k)
                    .and_then(json::as_str)
                    .ok_or_else(|| format!("a `{key}` metric lacks `{k}`"))
            };
            Ok(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: json::get(m, "bound").and_then(json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Read `BENCHMARK.json` from the working directory (the repo root).
    pub fn load() -> Result<Spec, String> {
        let root = json::read_file(std::path::Path::new("BENCHMARK.json"))?;
        let workloads = json::get(&root, "workloads")
            .map(json::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| json::get(w, "name").and_then(json::as_str))
            .map(str::to_string)
            .collect();
        Ok(Spec {
            workloads,
            run_seconds: json::get(&root, "run_seconds")
                .and_then(json::as_f64)
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }
}
