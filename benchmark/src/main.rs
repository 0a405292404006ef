//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run; the last line of stdout is its result
//! run.sh [--seed N] [--seconds S] [--smoke]                 every workload, untraced then traced → out/results.json
//! run.sh --calibrate [--seconds S]                          ten seeds per workload → spreads, out/calibration.json
//! run.sh --compare A.json B.json                            judge B against A by the bounds of BENCHMARK.json
//! ```

mod daemon;
mod inputs;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use spec::{MetricSpec, Spec};
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{typical_ms, Ctx, Metrics};

const OUT_DIR: &str = "benchmark/out";
/// An untraced run sets its workload up at least `MIN_SETUPS` times and
/// goes on, up to `MAX_SETUPS`, until the set-ups have taken
/// `SETUP_BUDGET_S` together: a 30 ms set-up needs more repeats than a 2 s
/// one before it shows what it costs. `setup_s` is the fastest of them, for
/// the reason every other timing is (`workloads::fastest`).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;
/// Seeds a calibration runs per workload, as the driver does.
const CALIBRATION_RUNS: u64 = 10;

/// Why a run has no result.
enum Stop {
    /// The run was not the workload it claims to be: wrong hit share, too
    /// few samples. Distinct from a failed operation, which is counted.
    Invalid(String),
    Error(String),
}

impl From<String> for Stop {
    fn from(message: String) -> Stop {
        Stop::Error(message)
    }
}

/// One run of one workload.
struct RunResult {
    workload: String,
    attempted: u64,
    failed: u64,
    /// Every metric of the run's kind, in `BENCHMARK.json` order.
    metrics: Vec<(String, f64, String)>,
    /// The traced pass's layer table.
    table: String,
}

fn run_once(
    spec: &Spec,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<RunResult, Stop> {
    let dir = PathBuf::from(format!("{OUT_DIR}/run-{}", std::process::id()));
    let result = run_in(&dir, spec, workload, seed, seconds, traced, smoke);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    dir: &Path,
    spec: &Spec,
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<RunResult, Stop> {
    // set the workload up; an untraced run does it several times over
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = loop {
        let ctx = Ctx {
            seed,
            dir: dir.join(format!("s{}", setup_s.len())),
        };
        let started = Instant::now();
        let workload = workloads::setup(name, &ctx)?;
        setup_s.push(started.elapsed().as_secs_f64());
        let enough = setup_s.len() >= MIN_SETUPS
            && (setup_s.len() >= MAX_SETUPS || setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S);
        if traced || enough {
            break workload;
        }
        workload.finish();
    };

    let window = workload
        .measure(if traced { seconds * 0.4 } else { seconds })
        .map_err(Stop::Invalid)?;
    // the minimum guards the end-to-end numbers; a traced run's shorter
    // window only feeds the per-layer ones
    if !smoke && !traced && window.ops.len() < workload.min_ops() {
        return Err(Stop::Invalid(format!(
            "{} operations timed, {name} needs {} to be worth reporting",
            window.ops.len(),
            workload.min_ops()
        )));
    }
    let op_ms = typical_ms(&window.ops);

    let mut table = String::new();
    let (measured, specs): (Metrics, &[MetricSpec]) = if traced {
        let mut layers = window.layers.clone();
        let mut recorder = trace::Recorder::new();
        workload.trace(seconds * 0.6, op_ms, &mut recorder, &mut layers)?;
        probes::run(dir, seed, &mut layers)?;
        // every layer the replay put a span around: its share of the operation
        for (layer, time) in recorder.layers() {
            if let Some(m) = spec
                .per_layer
                .iter()
                .find(|m| m.name.strip_suffix("_share") == Some(layer))
            {
                layers.insert(m.name.clone().into(), time.self_ms / op_ms);
            }
        }
        layers.insert(
            "dataset.generate_ms_per_mib".into(),
            workload.generate_ms_per_mib(),
        );
        // what a caller of this box waits, interference and all
        let all_ms: Vec<f64> = window.ops.iter().map(|op| op.1).collect();
        layers.insert("op.samples".into(), all_ms.len() as f64);
        layers.insert("op.p50_ms".into(), median(&all_ms));
        layers.insert("op.p95_ms".into(), percentile(&all_ms, 95.0));
        layers.insert("op.p99_ms".into(), percentile(&all_ms, 99.0));
        let path = format!("{OUT_DIR}/trace-{name}.jsonl");
        recorder
            .write_jsonl(Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;
        table = layer_table(name, &recorder, op_ms);
        (layers, &spec.per_layer)
    } else {
        let end_to_end = Metrics::from([
            ("setup_s".into(), workloads::fastest(&setup_s)),
            ("op_ms".into(), op_ms),
            ("peak_rss_mb".into(), workload.peak_rss_mb()?),
            ("ratio".into(), window.ratio),
        ]);
        (end_to_end, &spec.end_to_end)
    };
    workload.finish();

    let mut metrics = Vec::new();
    for m in specs {
        let value = match measured.get(m.name.as_str()) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(Stop::Error(format!("{name}: {} measured as {v}", m.name))),
            // a layer that is not on this workload's path did no work
            None if traced => 0.0,
            None => return Err(Stop::Error(format!("{name}: {} was not measured", m.name))),
        };
        metrics.push((m.name.clone(), value, m.unit.clone()));
    }
    if let Some(stray) = measured
        .keys()
        .find(|k| !specs.iter().any(|m| m.name == k.as_ref()))
    {
        return Err(Stop::Error(format!(
            "{name} measured `{stray}`, which BENCHMARK.json does not declare"
        )));
    }
    Ok(RunResult {
        workload: name.to_string(),
        attempted: window.attempted,
        failed: window.failed,
        metrics,
        table,
    })
}

/// This repo's Table 2: per layer, calls, self time per operation and its
/// share of the untraced end-to-end median.
fn layer_table(workload: &str, recorder: &trace::Recorder, op_ms: f64) -> String {
    let mut out = format!(
        "{workload}: traced replay against the untraced op_ms = {op_ms:.3} ms\n{:<30} {:>7} {:>12} {:>8}\n",
        "layer", "calls", "self ms/op", "share"
    );
    for (name, layer) in recorder.layers() {
        out += &format!(
            "{name:<30} {:>7} {:>12.4} {:>7.1}%\n",
            layer.calls,
            layer.self_ms,
            100.0 * layer.self_ms / op_ms
        );
    }
    out
}

impl RunResult {
    fn metrics_json(&self) -> Json {
        Json::Map(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        json::obj(vec![
                            ("value", Json::F64(*value)),
                            ("unit", json::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Every metric by name with its unit, then the object the driver reads.
    fn print(&self) {
        print!("{}", self.table);
        // a traced run's zeros are the layers not on this workload's path
        for (name, value, unit) in self
            .metrics
            .iter()
            .filter(|m| self.table.is_empty() || m.1 != 0.0)
        {
            println!("{:<18} {name:<40} {value:>14.4} {unit}", self.workload);
        }
        let line = json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", self.metrics_json()),
        ]);
        println!("{}", json::compact(&line));
    }
}

/// What a results file records about where its numbers came from.
fn provenance(seed: u64, seconds: f64, reportable: bool) -> Json {
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let config = std::fs::read_to_string(".cargo/config.toml").unwrap_or_default();
    let mut rustflags: Vec<String> = config
        .lines()
        .filter(|l| l.trim_start().starts_with("rustflags"))
        .map(|l| l.trim().to_string())
        .collect();
    rustflags.extend(
        std::env::var("RUSTFLAGS")
            .ok()
            .map(|f| format!("RUSTFLAGS={f}")),
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    json::obj(vec![
        ("commit", json::str(output("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::U64(seed)),
        ("window_s", Json::F64(seconds)),
        // --smoke numbers only show that the harness runs
        ("reportable", Json::Bool(reportable)),
        ("nproc", Json::U64(nproc as u64)),
        ("generator_connections", Json::U64(nproc.min(2) as u64)),
        (
            "pressio_threads",
            Json::U64(pressio_core::threads::resolve(None) as u64),
        ),
        ("rustc", json::str(output("rustc", &["-V"]))),
        ("rustflags", json::str(rustflags.join("; "))),
    ])
}

fn write_json(path: &str, value: &Json) -> Result<(), String> {
    std::fs::write(path, json::pretty(value)).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// One run in a process of its own, which is how the driver makes them:
/// nothing is left over from the run before, and `peak_rss_mb` starts from a
/// fresh high-water mark. Returns the run's result object; `echo` passes the
/// lines before it through.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    echo: bool,
) -> Result<Json, Stop> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(smoke.then_some("--smoke"))
        .stderr(std::process::Stdio::inherit());
    let output = command
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    match output.status.code() {
        Some(0) => {}
        Some(2) => {
            return Err(Stop::Invalid(format!(
                "{workload} (seed {seed}) was not a valid run"
            )))
        }
        _ => {
            return Err(Stop::Error(format!(
                "{workload} (seed {seed}) ended with {}",
                output.status
            )))
        }
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let (before, result) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    if echo {
        println!("{before}");
    }
    Ok(json::parse(result)?)
}

fn failed_checks(result: &Json) -> f64 {
    json::get(result, "failed")
        .and_then(json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Every workload, untraced and then traced.
fn full_set(spec: &Spec, seed: u64, seconds: f64, smoke: bool) -> Result<(), Stop> {
    let mut workloads = Vec::new();
    for name in &spec.workloads {
        let untraced = run_child(name, seed, seconds, false, smoke, true)?;
        let traced = run_child(name, seed, seconds, true, smoke, true)?;
        let field = |run: &Json, key: &str| json::get(run, key).cloned().unwrap_or(Json::Null);
        workloads.push((
            name.clone(),
            json::obj(vec![
                (
                    "correct",
                    Json::Bool(failed_checks(&untraced) + failed_checks(&traced) == 0.0),
                ),
                // outputs checked, and failed, by the untraced and by the traced run
                (
                    "attempted",
                    Json::Seq(vec![
                        field(&untraced, "attempted"),
                        field(&traced, "attempted"),
                    ]),
                ),
                (
                    "failed",
                    Json::Seq(vec![field(&untraced, "failed"), field(&traced, "failed")]),
                ),
                ("end_to_end", field(&untraced, "metrics")),
                ("per_layer", field(&traced, "metrics")),
            ]),
        ));
    }
    let results = json::obj(vec![
        ("provenance", provenance(seed, seconds, !smoke)),
        ("workloads", Json::Map(workloads)),
    ]);
    Ok(write_json(&format!("{OUT_DIR}/results.json"), &results)?)
}

/// The driver's own acceptance procedure: ten untraced runs per workload,
/// each with another seed; per end-to-end metric the interquartile range as
/// a share of the median, set against the metric's bound.
fn calibrate(spec: &Spec, seconds: f64) -> Result<(), Stop> {
    let mut workloads = Vec::new();
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>12} {:>9} {:>9} {:>7}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "max/min", "bound"
    );
    for name in &spec.workloads {
        let mut runs = Vec::new();
        for seed in 1..=CALIBRATION_RUNS {
            runs.push(run_child(name, seed, seconds, false, false, false)?);
        }
        let mut metrics = Vec::new();
        for m in &spec.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    json::as_f64(json::get(
                        json::get(json::get(r, "metrics")?, &m.name)?,
                        "value",
                    )?)
                })
                .collect();
            let (q1, q3) = stats::quartiles(&values);
            let (min, max) = (percentile(&values, 0.0), percentile(&values, 100.0));
            let bound = m.bound.unwrap_or(f64::NAN);
            println!(
                "{name:<18} {:<16} {:>12.4} {q1:>12.4} {q3:>12.4} {:>8.2}% {:>9.3} {:>6.1}%{}",
                m.name,
                median(&values),
                100.0 * stats::iqr_share(&values),
                max / min,
                100.0 * bound,
                if stats::iqr_share(&values) > bound / 3.0 {
                    "  <- above a third of the bound"
                } else {
                    ""
                }
            );
            metrics.push((
                m.name.clone(),
                json::obj(vec![
                    ("value", Json::F64(median(&values))),
                    ("unit", json::str(&m.unit)),
                    ("q1", Json::F64(q1)),
                    ("q3", Json::F64(q3)),
                    ("min", Json::F64(min)),
                    ("max", Json::F64(max)),
                    ("runs", Json::U64(values.len() as u64)),
                ]),
            ));
        }
        let failed: f64 = runs.iter().map(failed_checks).sum();
        workloads.push((
            name.clone(),
            json::obj(vec![
                ("correct", Json::Bool(failed == 0.0)),
                ("end_to_end", Json::Map(metrics)),
            ]),
        ));
    }
    let results = json::obj(vec![
        ("provenance", provenance(1, seconds, true)),
        ("workloads", Json::Map(workloads)),
    ]);
    Ok(write_json(
        &format!("{OUT_DIR}/calibration.json"),
        &results,
    )?)
}

/// Judge `b` against `a`, pair by pair, by the bounds of `BENCHMARK.json`.
/// A pair is `unresolved` when either file carries quartiles (it came from
/// `--calibrate`) wider apart than the bound and the two ranges overlap.
fn compare(spec: &Spec, a: &str, b: &str) -> Result<bool, Stop> {
    let (a, b) = (
        json::read_file(Path::new(a))?,
        json::read_file(Path::new(b))?,
    );
    let metric = |file: &Json, workload: &str, name: &str| -> Option<(f64, Option<(f64, f64)>)> {
        let m = json::get(
            json::get(
                json::get(json::get(file, "workloads")?, workload)?,
                "end_to_end",
            )?,
            name,
        )?;
        let quartiles = json::get(m, "q1")
            .and_then(json::as_f64)
            .zip(json::get(m, "q3").and_then(json::as_f64));
        Some((json::as_f64(json::get(m, "value")?)?, quartiles))
    };
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    let mut regressed = false;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some((va, qa)), Some((vb, qb))) =
                (metric(&a, workload, &m.name), metric(&b, workload, &m.name))
            else {
                println!("{workload:<18} {:<16} missing from a file", m.name);
                regressed = true;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            // positive = B is worse
            let worse_by = if m.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let wide = |q: Option<(f64, f64)>, v: f64| {
                q.is_some_and(|(q1, q3)| (q3 - q1) / v.abs() > bound)
            };
            let overlap = match (qa, qb) {
                (Some((a1, a3)), Some((b1, b3))) => a1 <= b3 && b1 <= a3,
                _ => true,
            };
            let verdict = if (wide(qa, va) || wide(qb, vb)) && overlap {
                "unresolved"
            } else if worse_by > bound {
                regressed = true;
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{workload:<18} {:<16} {va:>12.4} {vb:>12.4} {:>+7.2}% {:>6.1}%  {verdict}",
                m.name,
                100.0 * (vb - va) / va,
                100.0 * bound
            );
        }
    }
    Ok(regressed)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    calibrate: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        calibrate: false,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|_| "--seconds needs a number")?)
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--calibrate" => args.calibrate = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => {
                return Err(format!(
                    "unknown argument `{other}`; see benchmark/README.md"
                ))
            }
        }
    }
    Ok(args)
}

fn run() -> Result<bool, Stop> {
    let args = parse_args()?;
    let spec = Spec::load()?;
    // One library thread. A rank compresses its own buffer on its own core;
    // and on a two-core sandbox a second library thread competes with the
    // harness and the daemon, which makes every timing swing by up to 2×.
    // The daemon child keeps the library default.
    pressio_core::threads::set_global_threads(1);
    if let Some((a, b)) = &args.compare {
        return compare(&spec, a, b).map(|regressed| !regressed);
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    // --smoke: 2 s windows, minimums waived, numbers not for reporting
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 2.0 } else { spec.run_seconds });
    if args.calibrate {
        calibrate(&spec, seconds)?;
    } else if let Some(workload) = &args.workload {
        run_once(&spec, workload, args.seed, seconds, args.traced, args.smoke)?.print();
    } else {
        full_set(&spec, args.seed, seconds, args.smoke)?;
    }
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(Stop::Error(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
        Err(Stop::Invalid(message)) => {
            eprintln!("invalid benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
