//! `pressio bench --ablation <name>`: the paper's studies beside Table 2 —
//! Figure 2, the scheduling and restart claims of §4.3, the design
//! ablations and the §7 future-work items. Every study writes its markdown
//! report to the supplied writer and runs at the size [`Study`] gives it.

use crate::args::{usage_error, Args};
use pressio_bench_infra::experiment::{run_table2, Table2Config};
use pressio_bench_infra::queue::{run_tasks, PoolConfig, Scheduling, Task};
use pressio_core::error::{Error, Result};
use pressio_core::timing::{time_ms, MeanStd};
use pressio_core::{Compressor, Data, Options};
use pressio_dataset::{synthetic::FAMILIES, DatasetPlugin, Hurricane, SyntheticSuite};
use pressio_dataset::{FolderLoader, LocalCache, Sampler, Strategy};
use pressio_predict::bandwidth::{bandwidth_features, bandwidth_model};
use pressio_predict::evaluator::{cross_validate, CachedEvaluator};
use pressio_predict::registry::standard_schemes;
use pressio_predict::schemes::{RahmanScheme, TaoScheme};
use pressio_predict::{Predictor, Scheme};
use pressio_stats::{k_folds, medape};
use pressio_sz::SzCompressor;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The problem size a study runs at.
#[derive(Debug, Clone, PartialEq)]
pub struct Study {
    /// Grid dims of the synthetic hurricane.
    pub dims: (usize, usize, usize),
    /// Timesteps of Table 2's hurricane.
    pub timesteps: usize,
    /// Worker threads.
    pub workers: usize,
    /// Each study's reduced preset: `--timesteps 1`, the default.
    pub quick: bool,
}

impl Study {
    pub(crate) fn from_args(a: &Args) -> Study {
        Study {
            dims: a.dims,
            timesteps: a.timesteps,
            workers: a.workers,
            quick: a.timesteps <= 1,
        }
    }
}

type Body = fn(&Study, &mut dyn Write) -> Result<()>;

/// Every study `--ablation` names, with the function that runs it.
pub const NAMES: [(&str, Body); 11] = [
    ("affinity", affinity),
    ("bandwidth", bandwidth),
    ("checkpoint", checkpoint),
    ("datasets", datasets),
    ("fig2", fig2),
    ("insample", insample),
    ("invalidation", invalidation),
    ("lorenzo", lorenzo),
    ("lossless", lossless),
    ("rahman", rahman),
    ("tao_sweep", tao_sweep),
];

/// Run the study called `name`.
pub fn run(name: &str, study: &Study, out: &mut dyn Write) -> Result<()> {
    let Some((_, body)) = NAMES.iter().find(|(known, _)| *known == name) else {
        let names: Vec<&str> = NAMES.iter().map(|(known, _)| *known).collect();
        return Err(usage_error(&format!(
            "unknown ablation '{name}' (available: {})",
            names.join(", ")
        )));
    };
    body(study, out)
}

/// One scheduling policy's measurements.
#[derive(Debug, Clone)]
pub(crate) struct AffinityRow {
    /// Which policy ran.
    pub scheduling: Scheduling,
    /// Wall time for the full task set.
    pub elapsed_s: f64,
    /// Dataset loads summed over workers (lower = better affinity).
    pub total_loads: u64,
    /// Distinct datasets each worker loaded.
    pub distinct_keys_per_worker: Vec<usize>,
}

/// The affinity ablation's result: one row per scheduling policy, plus
/// workload shape.
#[derive(Debug, Clone)]
pub(crate) struct AffinityReport {
    /// Datasets in the workload.
    pub datasets: usize,
    /// Error bounds per dataset.
    pub bounds: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Affinity first, then round-robin.
    pub rows: Vec<AffinityRow>,
}

/// The data-affinity scheduling ablation (paper §4.3 — "we attempt to
/// schedule as many jobs with the same data to the same workers"). Tasks
/// simulate a load-then-compute pattern where each worker pays a load cost
/// the first time it touches a dataset; the report compares distinct-load
/// counts and wall time under affinity vs round-robin scheduling. Workers
/// are clamped to ≥ 4: scheduling semantics need several even on a single
/// core. Quick mode is 6 datasets instead of 13.
pub(crate) fn run_affinity_ablation(study: &Study) -> Result<AffinityReport> {
    let workers = study.workers.max(4);
    let mut hurricane = Hurricane::with_dims(study.dims.0, study.dims.1, study.dims.2, 2);
    let n_data = hurricane.len().min(if study.quick { 6 } else { 13 });
    let datasets: Arc<Vec<Data>> = Arc::new(
        (0..n_data)
            .map(|i| hurricane.load_data(i))
            .collect::<Result<_>>()?,
    );
    // several error bounds per dataset: the repeated-data workload
    let bounds = [1e-6, 1e-5, 1e-4, 1e-3];
    let tasks: Vec<Task> = (0..n_data)
        .flat_map(|di| {
            bounds.iter().enumerate().map(move |(bi, &abs)| {
                Task::new(
                    format!("d{di:02}b{bi}"),
                    di as u64,
                    Options::new()
                        .with("dataset", di as u64)
                        .with("pressio:abs", abs),
                )
            })
        })
        .collect();
    let mut rows = Vec::new();
    for scheduling in [Scheduling::DataAffinity, Scheduling::RoundRobin] {
        // per-worker "loaded dataset" caches: first touch costs a deep copy
        let caches: Arc<Vec<Mutex<HashMap<u64, Data>>>> =
            Arc::new((0..workers).map(|_| Mutex::new(HashMap::new())).collect());
        let ds = datasets.clone();
        let cs = caches.clone();
        let t0 = Instant::now();
        let (outcomes, stats) = run_tasks(
            tasks.clone(),
            PoolConfig {
                workers,
                scheduling,
                max_attempts: 1,
                retry_backoff_ms: 0,
            },
            Arc::new(move |task: &Task, w| {
                let di = task.config.get_u64("dataset")? as usize;
                let abs = task.config.get_f64("pressio:abs")?;
                let mut cache = cs[w].lock().unwrap();
                // simulated load: deep-copy into the worker-local cache
                let data = cache
                    .entry(di as u64)
                    .or_insert_with(|| ds[di].clone())
                    .clone();
                // the compute: a khan-style fast estimate
                let scheme = pressio_predict::schemes::KhanScheme;
                let mut sz = SzCompressor::new();
                sz.set_options(&Options::new().with("pressio:abs", abs))?;
                scheme.error_dependent_features(&data, &sz)
            }),
        );
        let elapsed_s = t0.elapsed().as_secs_f64();
        for outcome in &outcomes {
            if let Err(e) = &outcome.result {
                return Err(Error::TaskFailed(format!(
                    "affinity ablation task {}: {e}",
                    outcome.id
                )));
            }
        }
        rows.push(AffinityRow {
            scheduling,
            elapsed_s,
            total_loads: stats.total_loads() as u64,
            distinct_keys_per_worker: stats.distinct_keys_per_worker.clone(),
        });
    }
    Ok(AffinityReport {
        datasets: n_data,
        bounds: bounds.len(),
        workers,
        rows,
    })
}

/// The affinity ablation's report.
pub(crate) fn format_affinity(report: &AffinityReport) -> String {
    let mut out = String::from("# Ablation: data-affinity vs round-robin scheduling\n\n");
    out.push_str(&format!(
        "{} tasks = {} datasets x {} bounds, {} workers\n",
        report.datasets * report.bounds,
        report.datasets,
        report.bounds,
        report.workers
    ));
    for row in &report.rows {
        out.push_str(&format!(
            "{:?}: {:.2}s, distinct dataset loads = {} (per-worker {:?})\n",
            row.scheduling, row.elapsed_s, row.total_loads, row.distinct_keys_per_worker
        ));
    }
    out.push_str(
        "\nshape check: affinity performs ~1 load per dataset; \
         round-robin up to workers x datasets\n",
    );
    out
}

fn affinity(study: &Study, out: &mut dyn Write) -> Result<()> {
    let text = format_affinity(&run_affinity_ablation(study)?);
    Ok(out.write_all(text.as_bytes())?)
}

fn median_time_ms(comp: &SzCompressor, data: &Data, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let (r, ms) = time_ms(|| comp.compress(data));
            r.unwrap();
            ms
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Future-work item 4 of the paper (§7): bandwidth prediction. Trains the
/// runtime-class bandwidth model on observed compression timings across
/// Hurricane fields at several sizes, then validates predicted vs measured
/// compression time out-of-sample. `--dims` is not used: the sizes are the
/// model's inputs.
///
/// Timing is `predictors:runtime` + `predictors:nondeterministic`, so each
/// observation is the median of several replicates (the refinement to the
/// validation model the paper's §7 calls for).
fn bandwidth(study: &Study, out: &mut dyn Write) -> Result<()> {
    let reps = if study.quick { 2 } else { 3 };
    let abs = 1e-4;
    let mut sz = SzCompressor::new();
    // pin the predictor: "auto" trial-selection adds timing variance that
    // is about the selection, not the pipeline being modeled
    sz.set_options(
        &Options::new()
            .with("pressio:abs", abs)
            .with("sz3:predictor", "lorenzo"),
    )
    .unwrap();

    // observations across sizes and fields (sizes vary the dominant term)
    let mut feats = Vec::new();
    let mut times = Vec::new();
    let mut tags = Vec::new();
    for scale in [16usize, 24, 32, 48] {
        let mut h = Hurricane::with_dims(scale, scale, scale / 2, 1)
            .with_fields(&["P", "TC", "U", "QRAIN", "QVAPOR", "W"])?;
        for i in 0..h.len() {
            let meta = h.load_metadata(i).unwrap();
            let data = h.load_data(i).unwrap();
            feats.push(bandwidth_features(&data, abs));
            times.push(median_time_ms(&sz, &data, reps));
            tags.push(format!("{}@{scale}", meta.name));
        }
    }
    // odd observations train, even validate (interleaves sizes and fields)
    let (mut tf, mut tt, mut vf, mut vt, mut vtag) = (vec![], vec![], vec![], vec![], vec![]);
    for i in 0..feats.len() {
        if i % 2 == 0 {
            tf.push(feats[i].clone());
            tt.push(times[i]);
        } else {
            vf.push(feats[i].clone());
            vt.push(times[i]);
            vtag.push(tags[i].clone());
        }
    }
    let mut model = bandwidth_model();
    model.fit(&tf, &tt).unwrap();

    writeln!(
        out,
        "# Bandwidth prediction (sz3 @1e-4, runtime-class metric, median of {reps} reps)\n"
    )?;
    writeln!(
        out,
        "| dataset | measured (ms) | predicted (ms) | measured MB/s | predicted MB/s |"
    )?;
    writeln!(out, "|---|---|---|---|---|")?;
    let mut preds = Vec::new();
    for ((f, &t), tag) in vf.iter().zip(&vt).zip(&vtag) {
        let p = model.predict(f).unwrap();
        preds.push(p);
        let bytes = f.get_f64("bw:log_bytes").unwrap().exp2();
        writeln!(
            out,
            "| {tag} | {t:.2} | {p:.2} | {:.1} | {:.1} |",
            bytes / 1e6 / (t / 1e3),
            bytes / 1e6 / (p / 1e3)
        )?;
    }
    let med = medape(&vt, &preds).unwrap();
    writeln!(out, "\nout-of-sample compression-time MedAPE: {med:.1}%")?;
    Ok(writeln!(out, "shape check: predictions track payload size and data roughness; residual error reflects the runtime/nondeterministic invalidation class")?)
}

/// Measurements from the cold + warm run pair.
#[derive(Debug, Clone)]
pub(crate) struct RestartReport {
    /// Cold (compute-everything) wall time.
    pub cold_s: f64,
    /// Warm (restart) wall time.
    pub warm_s: f64,
    /// Truth results computed in the cold run.
    pub cold_misses: usize,
    /// Checkpoint records reused by the warm run.
    pub warm_hits: usize,
    /// Truth results the warm run recomputed (must be 0).
    pub warm_misses: usize,
}

impl RestartReport {
    /// Restart speedup on truth collection.
    pub(crate) fn speedup(&self) -> f64 {
        self.cold_s / self.warm_s.max(1e-9)
    }
}

/// The checkpoint-restart ablation (paper §3/§4.3 — "fine-grained
/// checkpoint restart allows us to re-run only the affected results
/// quickly"): the ground-truth collection of the Table 2 experiment twice
/// against one fresh checkpoint store. The cold run computes everything,
/// the warm run must reuse every record (zero recomputes) and finish much
/// faster. Quick mode is one bound and two timesteps.
pub(crate) fn run_checkpoint_ablation(study: &Study) -> Result<RestartReport> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let ckpt = std::env::temp_dir().join(format!(
        "pressio_ablation_checkpoint-{}-{}.jsonl",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&ckpt);
    let cfg = Table2Config {
        schemes: vec!["khan2023".into()],
        compressors: vec!["sz3".into(), "zfp".into()],
        abs_bounds: if study.quick {
            vec![1e-4]
        } else {
            vec![1e-6, 1e-4]
        },
        folds: 3,
        seed: 1,
        workers: study.workers,
        checkpoint: Some(ckpt.clone()),
    };
    let timesteps = if study.quick { 2 } else { 8 };
    let mut hurricane = Hurricane::with_dims(study.dims.0, study.dims.1, study.dims.2, timesteps);

    let t0 = Instant::now();
    let cold = run_table2(&mut hurricane, &cfg)?;
    let cold_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let warm = run_table2(&mut hurricane, &cfg)?;
    let warm_s = t0.elapsed().as_secs_f64();

    let _ = std::fs::remove_file(&ckpt);
    if warm.checkpoint_misses != 0 {
        return Err(Error::TaskFailed(format!(
            "restart recomputed {} truth results; checkpoint reuse is broken",
            warm.checkpoint_misses
        )));
    }
    Ok(RestartReport {
        cold_s,
        warm_s,
        cold_misses: cold.checkpoint_misses,
        warm_hits: warm.checkpoint_hits,
        warm_misses: warm.checkpoint_misses,
    })
}

/// The checkpoint ablation's report.
pub(crate) fn format_checkpoint(report: &RestartReport) -> String {
    let mut out = String::from("# Ablation: checkpointed restart vs recompute-all\n\n");
    out.push_str(&format!(
        "cold run:    {:.2}s ({} truth results computed)\n",
        report.cold_s, report.cold_misses
    ));
    out.push_str(&format!(
        "restart run: {:.2}s ({} reused, {} recomputed)\n",
        report.warm_s, report.warm_hits, report.warm_misses
    ));
    out.push_str(&format!(
        "restart speedup on truth collection: {:.1}x\n",
        report.speedup()
    ));
    out
}

fn checkpoint(study: &Study, out: &mut dyn Write) -> Result<()> {
    let text = format_checkpoint(&run_checkpoint_ablation(study)?);
    Ok(out.write_all(text.as_bytes())?)
}

/// 5-fold out-of-sample predictions of `scheme` for each of `datasets`,
/// one observation each, its folds shuffled by `seed`.
fn out_of_sample(
    scheme: &dyn Scheme,
    datasets: &[Data],
    sz: &SzCompressor,
    truths: &[f64],
    seed: u64,
) -> Result<Vec<f64>> {
    let feats = datasets
        .iter()
        .map(|d| scheme.features(d, sz))
        .collect::<Result<Vec<_>>>()?;
    let groups: Vec<usize> = (0..datasets.len()).collect();
    let folds = k_folds(datasets.len(), 5, seed);
    Ok(cross_validate(scheme, &feats, truths, &groups, &folds)?.predictions)
}

/// Future-work item 2 of the paper (§7): extend the evaluation beyond
/// weather data. Runs the out-of-sample prediction comparison on four
/// structurally distinct synthetic families (turbulence, shocks, wave
/// packets, plateaus) and reports per-family MedAPE for each scheme —
/// "different datasets have different structural patterns".
fn datasets(study: &Study, out: &mut dyn Write) -> Result<()> {
    let realizations = if study.quick { 4 } else { 10 };
    let mut suite = SyntheticSuite::new(study.dims.0, study.dims.1, study.dims.2, realizations);
    let n = suite.len();
    let mut datasets = Vec::new();
    let mut families = Vec::new();
    for i in 0..n {
        let meta = suite.load_metadata(i).unwrap();
        families.push(
            meta.attributes
                .get_str("synthetic:family")
                .unwrap()
                .to_string(),
        );
        datasets.push(suite.load_data(i).unwrap());
    }
    let mut sz = SzCompressor::new();
    sz.set_options(&Options::new().with("pressio:abs", 1e-4))
        .unwrap();
    let truths: Vec<f64> = datasets
        .iter()
        .map(|d| d.size_in_bytes() as f64 / sz.compress(d).unwrap().len() as f64)
        .collect();

    let registry = standard_schemes();
    writeln!(
        out,
        "# Non-weather dataset study: out-of-sample MedAPE by family (sz3 @1e-4)\n"
    )?;
    write!(out, "| scheme |")?;
    for f in FAMILIES {
        write!(out, " {f} |")?;
    }
    writeln!(out, " all |")?;
    write!(out, "|---|")?;
    for _ in FAMILIES {
        write!(out, "---|")?;
    }
    writeln!(out, "---|")?;
    for name in ["khan2023", "jin2022", "rahman2023", "krasowska2021"] {
        let scheme = registry.build(name).unwrap();
        let preds = out_of_sample(scheme.as_ref(), &datasets, &sz, &truths, 17)?;
        write!(out, "| {name} |")?;
        for family in FAMILIES {
            let (t, p): (Vec<f64>, Vec<f64>) = truths
                .iter()
                .zip(&preds)
                .zip(&families)
                .filter(|(_, f)| f.as_str() == family)
                .map(|((t, p), _)| (*t, *p))
                .unzip();
            write!(out, " {:.1} |", medape(&t, &p).unwrap_or(f64::NAN))?;
        }
        writeln!(out, " {:.1} |", medape(&truths, &preds).unwrap())?;
    }
    Ok(writeln!(out, "\nshape check: calculation methods are family-sensitive (shock/plateau stress them differently); trained methods track all families once trained on them")?)
}

/// Figure 2 of the paper: a stacked dataset-loader pipeline
/// (`folder_loader` → `local_cache` → `sampler`) and what each stage buys —
/// cold load vs node-local-cache load vs metadata-only planning vs sampled
/// load. Quick mode is 8 fields instead of 26.
fn fig2(study: &Study, out: &mut dyn Write) -> Result<()> {
    let base = std::env::temp_dir().join(format!("pressio_fig2-{}", std::process::id()));
    let raw_dir = base.join("raw");
    let cache_dir = base.join("cache");
    let _ = std::fs::remove_dir_all(&base);

    // materialize a slice of the hurricane onto "the parallel filesystem"
    let (nx, ny, nz) = study.dims;
    let mut source = Hurricane::with_dims(nx, ny, nz, 2);
    let n = source.len().min(if study.quick { 8 } else { 26 });
    for i in 0..n {
        let meta = source.load_metadata(i)?;
        let data = source.load_data(i)?;
        pressio_dataset::io::write_raw(&raw_dir, &meta.name.replace('@', "-"), &data)?;
    }

    // Figure 2 stack: io_loader/folder_loader -> local_cache -> sampler
    let folder = FolderLoader::open(&raw_dir, None)?;
    let cache = LocalCache::new(Box::new(folder), &cache_dir)?;
    let mut pipeline = Sampler::new(
        Box::new(cache),
        Strategy::RandomBlocks {
            shape: vec![16, 16, 16],
            count: 4,
            seed: 11,
        },
    );

    // metadata-only planning pass (must be nearly free)
    let (metas, meta_ms) = time_ms(|| pipeline.load_metadata_all());
    let metas = metas?;
    writeln!(
        out,
        "# Figure 2 pipeline: folder_loader -> local_cache -> sampler\n"
    )?;
    writeln!(
        out,
        "metadata-only planning over {} datasets: {meta_ms:.2} ms total",
        metas.len()
    )?;
    // the first pass misses the node-local tier, the second hits it
    let mut passes = [MeanStd::new(), MeanStd::new()];
    for pass in &mut passes {
        for i in 0..metas.len() {
            let (loaded, ms) = time_ms(|| pipeline.load_data(i));
            loaded?;
            pass.push(ms);
        }
    }
    let [cold, warm] = passes;
    writeln!(
        out,
        "cold sampled load  (folder -> cache-miss -> sample): {} ms",
        cold.display(3)
    )?;
    writeln!(
        out,
        "warm sampled load  (local-cache hit -> sample):      {} ms",
        warm.display(3)
    )?;
    writeln!(
        out,
        "sampled payload: {:?} of full {:?} ({}x reduction)",
        metas[0].dims,
        study.dims,
        (nx * ny * nz) as f64 / metas[0].dims.iter().product::<usize>() as f64
    )?;
    writeln!(
        out,
        "\nshape check: metadata pass ≪ one cold load; warm loads served from the node-local tier"
    )?;
    let _ = std::fs::remove_dir_all(&base);
    Ok(())
}

/// Future-work item 1 of the paper (§7): compare **in-sample** prediction
/// (train and predict on the same fields — the "best-case" most prior work
/// reports) against the **out-of-sample** setting the paper insists on
/// (predict on fields never seen in training). The gap quantifies how much
/// of published accuracy comes from field similarity.
fn insample(study: &Study, out: &mut dyn Write) -> Result<()> {
    let timesteps = if study.quick { 3 } else { 6 };
    let mut hurricane = Hurricane::with_dims(study.dims.0, study.dims.1, study.dims.2, timesteps);
    let n = hurricane.len();
    let datasets: Vec<_> = (0..n).map(|i| hurricane.load_data(i).unwrap()).collect();
    let mut sz = SzCompressor::new();
    sz.set_options(&Options::new().with("pressio:abs", 1e-4))
        .unwrap();
    let truths: Vec<f64> = datasets
        .iter()
        .map(|d| d.size_in_bytes() as f64 / sz.compress(d).unwrap().len() as f64)
        .collect();

    let registry = standard_schemes();
    writeln!(
        out,
        "# In-sample (best case) vs out-of-sample (paper setting) MedAPE, sz3 @1e-4\n"
    )?;
    writeln!(
        out,
        "| scheme | in-sample (%) | out-of-sample (%) | degradation |"
    )?;
    writeln!(out, "|---|---|---|---|")?;
    for name in [
        "krasowska2021",
        "underwood2023",
        "rahman2023",
        "lu2018",
        "qin2020",
        "ganguli2023",
    ] {
        let scheme = registry.build(name).unwrap();
        let feats = datasets
            .iter()
            .map(|d| scheme.features(d, &sz))
            .collect::<Result<Vec<_>>>()?;
        // in-sample: fit on everything, predict everything
        let mut p = scheme.make_predictor();
        p.fit(&feats, &truths).unwrap();
        let preds_in: Vec<f64> = feats.iter().map(|f| p.predict(f).unwrap()).collect();
        let in_sample = medape(&truths, &preds_in).unwrap();
        // out-of-sample: 5-fold CV
        let groups: Vec<usize> = (0..n).collect();
        let folds = k_folds(n, 5, 42);
        let cv = cross_validate(scheme.as_ref(), &feats, &truths, &groups, &folds)?;
        let out_sample = medape(&truths, &cv.predictions).unwrap();
        writeln!(
            out,
            "| {name} | {in_sample:.1} | {out_sample:.1} | {:.1}x |",
            out_sample / in_sample.max(1e-9)
        )?;
    }
    Ok(writeln!(out, "\nshape check: every trained scheme degrades out-of-sample; the paper's evaluation deliberately reports the harder number")?)
}

/// Ablation: invalidation-aware metric reuse (the paper's Q1 and §6 —
/// methods "leverage the ability to compute a subset of error-agnostic
/// metrics up front, and then use them to conduct many different
/// predictions"). Predicts at a sweep of error bounds with and without the
/// cached evaluator and reports the time saved.
fn invalidation(study: &Study, out: &mut dyn Write) -> Result<()> {
    let mut hurricane = Hurricane::with_dims(study.dims.0, study.dims.1, study.dims.2, 1);
    let n = hurricane.len().min(if study.quick { 4 } else { 13 });
    let datasets: Vec<_> = (0..n)
        .map(|i| {
            (
                hurricane.load_metadata(i).unwrap().name,
                hurricane.load_data(i).unwrap(),
            )
        })
        .collect();
    let bounds = [1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3];
    let registry = standard_schemes();

    writeln!(
        out,
        "# Ablation: error-agnostic metric reuse across an error-bound sweep\n"
    )?;
    writeln!(
        out,
        "{} datasets x {} bounds, scheme = underwood2023 (expensive SVD agnostic stage)\n",
        n,
        bounds.len()
    )?;
    // without reuse: recompute every feature for every bound
    let scheme = registry.build("underwood2023").unwrap();
    let t0 = Instant::now();
    for (_, data) in &datasets {
        for &abs in &bounds {
            let mut sz = SzCompressor::new();
            sz.set_options(&Options::new().with("pressio:abs", abs))
                .unwrap();
            let _ = scheme.error_agnostic_features(data).unwrap();
            let _ = scheme.error_dependent_features(data, &sz).unwrap();
        }
    }
    let naive = t0.elapsed().as_secs_f64();
    writeln!(out, "no reuse (recompute everything):        {naive:.2}s")?;

    // with reuse: the cached evaluator recomputes agnostic features once
    let scheme = registry.build("underwood2023").unwrap();
    let mut eval = CachedEvaluator::new(scheme);
    let t0 = Instant::now();
    for (name, data) in &datasets {
        for &abs in &bounds {
            let mut sz = SzCompressor::new();
            sz.set_options(&Options::new().with("pressio:abs", abs))
                .unwrap();
            let _ = eval.features(name, data, &sz).unwrap();
        }
    }
    let cached = t0.elapsed().as_secs_f64();
    let counters = eval.counters();
    writeln!(out, "with invalidation-aware reuse:          {cached:.2}s")?;
    writeln!(
        out,
        "agnostic cache: {} hits / {} misses; dependent cache: {} hits / {} misses",
        counters.agnostic_hits,
        counters.agnostic_misses,
        counters.dependent_hits,
        counters.dependent_misses
    )?;
    writeln!(out, "speedup: {:.1}x", naive / cached.max(1e-9))?;
    Ok(writeln!(
        out,
        "\nshape check: the SVD is computed once per dataset instead of once per (dataset, bound)"
    )?)
}

/// What the skewed band sweep buys over one row at a time, and what writing
/// the band step out in `std::arch` buys over leaving the lane arrays to the
/// autovectorizer: Lorenzo predict+quantize and reconstruct of Hurricane
/// fields (f32, `abs = 1e-4`) in nanoseconds per element, fastest of enough
/// repetitions to cover two million elements, through each form of the step.
/// Every form must produce the same streams. `--dims` is not used: the
/// shapes are the table's rows. Quick mode is one field.
fn lorenzo(study: &Study, out: &mut dyn Write) -> Result<()> {
    use pressio_sz::lorenzo::{Encoded, Kernel};
    const SHAPES: [[usize; 3]; 4] = [[16, 16, 8], [32, 32, 16], [64, 64, 16], [128, 128, 64]];
    let fields: &[&str] = if study.quick {
        &["P"]
    } else {
        &["P", "PRECIP", "QCLOUD", "U"]
    };
    let selected = Kernel::selected();
    let forms = [Kernel::one_row(), Kernel::portable(), selected];
    let bound = (1e-4, pressio_sz::RADIUS, true);
    writeln!(
        out,
        "# Ablation: Lorenzo one row at a time vs the band sweep (kernel selected: {})\n",
        selected.name()
    )?;
    writeln!(
        out,
        "| field | dims | escapes % | encode ns/el: one-row | portable | {0} | decode ns/el: one-row | portable | {0} | streams |",
        selected.name()
    )?;
    writeln!(out, "|---|---|---|---|---|---|---|---|---|---|")?;
    let mut all_equal = true;
    for field in fields {
        for [nx, ny, nz] in SHAPES {
            let data = Hurricane::with_dims(nx, ny, nz, 1).generate(field, 0);
            let (values, dims) = (data.as_f32().unwrap(), data.dims());
            let n = values.len();
            let reps = (2_000_000 / n).max(3);
            let ns_per_element = |run: &mut dyn FnMut()| {
                let best = (0..reps)
                    .map(|_| time_ms(&mut *run).1)
                    .fold(f64::INFINITY, f64::min);
                best * 1e6 / n as f64
            };
            let reference = forms[0].encode(values, dims, bound, false, Vec::new());
            let decode = |kernel: Kernel, coded: &Encoded| {
                let escapes = coded.unpredictable.iter().copied();
                kernel.decode::<f32, _>(dims, bound, &coded.symbols[..], escapes)
            };
            let decoded = decode(forms[0], &reference).unwrap();
            let (mut encode_ns, mut decode_ns, mut equal) = (Vec::new(), Vec::new(), true);
            for kernel in forms {
                let coded = kernel.encode(values, dims, bound, false, Vec::new());
                let (symbols, verbatim) = (&coded.symbols, &coded.unpredictable);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                equal &= *symbols == reference.symbols
                    && bits(verbatim) == bits(&reference.unpredictable)
                    && decode(kernel, &coded).unwrap() == decoded;
                encode_ns.push(ns_per_element(&mut || {
                    std::hint::black_box(kernel.encode(values, dims, bound, false, Vec::new()));
                }));
                decode_ns.push(ns_per_element(&mut || {
                    std::hint::black_box(decode(kernel, &coded).ok());
                }));
            }
            all_equal &= equal;
            writeln!(
                out,
                "| {field} | {nx}×{ny}×{nz} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {} |",
                reference.unpredictable.len() as f64 * 100.0 / n as f64,
                encode_ns[0],
                encode_ns[1],
                encode_ns[2],
                decode_ns[0],
                decode_ns[1],
                decode_ns[2],
                if equal { "equal" } else { "DIFFER" },
            )?;
        }
    }
    if !all_equal {
        return Err(Error::TaskFailed(
            "the forms of the Lorenzo step produced different streams".into(),
        ));
    }
    Ok(writeln!(out, "\nshape check: the one-row form waits on one dependency chain per element; eight rows in flight hide it, and the explicit form keeps the chain in registers where the lane arrays go through the stack")?)
}

/// What SZ's dictionary stage buys, and whether the trial in
/// `codec::assemble_par` calls it right: for every Hurricane field at each
/// (size, bound) the compressor's own quantized symbols go through the
/// Huffman coder, through LZSS in full, and through the trial, each timed
/// once (sizes are what the table is for; the milliseconds are a guide).
/// `--dims` is not used: the sizes are the table's rows. Quick mode stops
/// at 64×64×16.
fn lossless(study: &Study, out: &mut dyn Write) -> Result<()> {
    use pressio_lossless::{huffman, lzss};
    let mut configs = vec![
        ([16, 16, 8], 1e-4),
        ([32, 32, 16], 1e-6),
        ([32, 32, 16], 1e-4),
        ([64, 64, 16], 1e-4),
    ];
    if !study.quick {
        configs.extend([
            ([64, 64, 64], 1e-4),
            ([64, 64, 64], 1e-2),
            ([128, 128, 64], 1e-4),
        ]);
    }
    writeln!(
        out,
        "# Ablation: what LZSS buys after Huffman (sz3, predictor auto)\n"
    )?;
    writeln!(
        out,
        "| field | dims | abs | Huffman (B) | ms | LZSS (B) | gain % | ms | trial | ms | exhaustive |"
    )?;
    writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|")?;
    let (mut kept, mut discarded, mut skipped, mut disagreements) = (0, 0, 0, 0);
    let (mut full_ms, mut gated_ms, mut forgone) = (0.0, 0.0, 0usize);
    for ([nx, ny, nz], abs) in configs {
        let mut sz = SzCompressor::new();
        sz.set_options(&Options::new().with("pressio:abs", abs))
            .unwrap();
        for field in pressio_dataset::hurricane::FIELDS {
            let data = Hurricane::with_dims(nx, ny, nz, 1).generate(field, 0);
            let symbols = pressio_sz::codec::parse_par(&sz.compress(&data).unwrap(), 1)
                .unwrap()
                .symbols;
            let (huff, huff_ms) = time_ms(|| huffman::compress_symbols_sharded(&symbols, 1));
            let (dict, lzss_ms) = time_ms(|| lzss::compress(&huff));
            let (tried, trial_ms) = time_ms(|| pressio_sz::codec::lzss_trial_shrinks(&huff));
            let wins = dict.len() < huff.len();
            let (decision, tally) = match (tried, wins) {
                (true, true) => ("kept", &mut kept),
                (true, false) => ("discarded", &mut discarded),
                (false, _) => ("skipped", &mut skipped),
            };
            *tally += 1;
            if !tried && wins {
                disagreements += 1;
                forgone += huff.len() - dict.len();
            }
            full_ms += lzss_ms;
            // a payload that is tried whole is its own trial
            gated_ms += match (tried, huff.len() <= pressio_sz::codec::TRIAL_WHOLE) {
                (true, true) => lzss_ms,
                (true, false) => trial_ms + lzss_ms,
                (false, _) => trial_ms,
            };
            writeln!(
                out,
                "| {field} | {nx}×{ny}×{nz} | {abs:e} | {} | {huff_ms:.3} | {} | {:+.1} | {lzss_ms:.3} | {decision} | {trial_ms:.3} | {} |",
                huff.len(),
                dict.len(),
                (1.0 - dict.len() as f64 / huff.len() as f64) * 100.0,
                if wins { "keep" } else { "drop" },
            )?;
        }
    }
    writeln!(
        out,
        "\n{kept} kept, {discarded} discarded (ran, lost), {skipped} skipped (trial said no); \
         {disagreements} where the trial skipped a pass that would have won ({forgone} B forgone)"
    )?;
    writeln!(
        out,
        "dictionary stage: {full_ms:.1} ms always running LZSS in full, {gated_ms:.1} ms behind the trial"
    )?;
    Ok(writeln!(out, "shape check: gain is bimodal — sparse fields shrink by half or more in well under a millisecond, large dense payloads grow by up to the 9-bit literal's 12.5 % after the slowest pass of the pipeline")?)
}

/// Ablation: FXRZ design choices (paper §6 credits the **sparsity
/// correction** for Rahman's winning MedAPE on mixed sparse/dense
/// Hurricane data; Rahman 2023 credits **data augmentation** for reducing
/// training cost). This sweep toggles both and reports out-of-sample
/// MedAPE split by sparse vs dense fields.
fn rahman(study: &Study, out: &mut dyn Write) -> Result<()> {
    let timesteps = if study.quick { 3 } else { 8 };
    let mut hurricane = Hurricane::with_dims(study.dims.0, study.dims.1, study.dims.2, timesteps);
    let n = hurricane.len();
    let mut datasets = Vec::new();
    let mut sparse_flags = Vec::new();
    for i in 0..n {
        let meta = hurricane.load_metadata(i).unwrap();
        sparse_flags.push(meta.attributes.get_bool("hurricane:sparse").unwrap());
        datasets.push(hurricane.load_data(i).unwrap());
    }
    let mut sz = SzCompressor::new();
    sz.set_options(&Options::new().with("pressio:abs", 1e-4))
        .unwrap();
    let truths: Vec<f64> = datasets
        .iter()
        .map(|d| d.size_in_bytes() as f64 / sz.compress(d).unwrap().len() as f64)
        .collect();

    writeln!(
        out,
        "# Ablation: rahman2023 sparsity correction x data augmentation (sz3, abs=1e-4)\n"
    )?;
    writeln!(out, "| sparsity correction | augmentation | MedAPE all (%) | MedAPE sparse (%) | MedAPE dense (%) |")?;
    writeln!(out, "|---|---|---|---|---|")?;
    for sparsity in [true, false] {
        for augmentation in [2.0f64, 0.0] {
            let scheme = RahmanScheme {
                sparsity_correction: sparsity,
                augmentation,
            };
            let pred = out_of_sample(&scheme, &datasets, &sz, &truths, 99)?;
            let all = medape(&truths, &pred).unwrap();
            let (mut st, mut sp, mut dt, mut dp) = (vec![], vec![], vec![], vec![]);
            for i in 0..n {
                if sparse_flags[i] {
                    st.push(truths[i]);
                    sp.push(pred[i]);
                } else {
                    dt.push(truths[i]);
                    dp.push(pred[i]);
                }
            }
            let sparse = medape(&st, &sp).unwrap_or(f64::NAN);
            let dense = medape(&dt, &dp).unwrap_or(f64::NAN);
            writeln!(
                out,
                "| {} | {} | {all:.1} | {sparse:.1} | {dense:.1} |",
                if sparsity { "on" } else { "off" },
                if augmentation > 0.0 { "on" } else { "off" },
            )?;
        }
    }
    Ok(writeln!(
        out,
        "\nshape check: disabling the sparsity features should hurt most on the sparse fields"
    )?)
}

/// Ablation: Tao (2019) sampling parameters — block size × block count
/// sweep, reporting estimation time and MedAPE against the true ratio.
/// The original design tied block size to compressor internals (§2.2);
/// this sweep shows the accuracy/time trade-off empirically. Estimation
/// delegates to [`pressio_select::trial_sampled_ratio`] — the exact code
/// the auto-selection trial consult runs — over both of the selector's
/// codecs, so the sweep measures the estimator the product actually uses.
fn tao_sweep(study: &Study, out: &mut dyn Write) -> Result<()> {
    let mut hurricane = Hurricane::with_dims(study.dims.0, study.dims.1, study.dims.2, 2);
    let n = hurricane.len().min(if study.quick { 6 } else { 13 });
    let datasets: Vec<_> = (0..n).map(|i| hurricane.load_data(i).unwrap()).collect();
    let compressors: Vec<Box<dyn Compressor>> = pressio_select::CODECS
        .iter()
        .map(|name| {
            let mut comp = pressio_predict::standard_compressors().build(name).unwrap();
            comp.set_options(&Options::new().with("pressio:abs", 1e-4))
                .unwrap();
            comp
        })
        .collect();
    let truths: Vec<f64> = compressors
        .iter()
        .flat_map(|comp| {
            datasets
                .iter()
                .map(|d| d.size_in_bytes() as f64 / comp.compress(d).unwrap().len() as f64)
        })
        .collect();

    writeln!(
        out,
        "# Ablation: tao2019 block-size / block-count sweep (sz3 + zfp, abs=1e-4)\n"
    )?;
    writeln!(out, "| block edge | blocks | est. time (ms) | MedAPE (%) |")?;
    writeln!(out, "|---|---|---|---|")?;
    for edge in [4usize, 8, 16, 24] {
        for count in [2usize, 8, 24] {
            let scheme = TaoScheme {
                block_edge: edge,
                block_count: count,
                ..TaoScheme::default()
            };
            let mut t = MeanStd::new();
            let mut preds = Vec::new();
            for comp in &compressors {
                for d in &datasets {
                    let (ratio, ms) = time_ms(|| {
                        pressio_select::trial_sampled_ratio(d, comp.as_ref(), &scheme).unwrap()
                    });
                    t.push(ms);
                    preds.push(ratio);
                }
            }
            let med = medape(&truths, &preds).unwrap();
            writeln!(out, "| {edge} | {count} | {} | {med:.1} |", t.display(3))?;
        }
    }
    Ok(writeln!(out, "\nshape check: larger blocks amortize per-block stream overhead (error falls), more blocks cost linearly more time")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_loads_each_dataset_fewer_times_than_round_robin() {
        let report = run_affinity_ablation(&Study {
            dims: (8, 8, 4),
            timesteps: 1,
            workers: 4,
            quick: true,
        })
        .unwrap();
        assert_eq!(report.rows.len(), 2);
        let affinity = &report.rows[0];
        let round_robin = &report.rows[1];
        assert!(matches!(affinity.scheduling, Scheduling::DataAffinity));
        assert!(matches!(round_robin.scheduling, Scheduling::RoundRobin));
        // affinity: each dataset is loaded once; round-robin spreads the
        // same dataset across workers so it can only load more
        assert_eq!(affinity.total_loads, report.datasets as u64);
        assert!(round_robin.total_loads >= affinity.total_loads);
        let text = format_affinity(&report);
        assert!(text.contains("DataAffinity"), "{text}");
        assert!(text.contains("RoundRobin"), "{text}");
    }

    #[test]
    fn warm_run_reuses_every_checkpoint_record() {
        let report = run_checkpoint_ablation(&Study {
            dims: (8, 8, 4),
            timesteps: 1,
            workers: 2,
            quick: true,
        })
        .unwrap();
        assert!(report.cold_misses > 0, "cold run must compute something");
        assert_eq!(report.warm_misses, 0);
        assert_eq!(report.warm_hits, report.cold_misses);
        let text = format_checkpoint(&report);
        assert!(text.contains("restart speedup"), "{text}");
    }
}
