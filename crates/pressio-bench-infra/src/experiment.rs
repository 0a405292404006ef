//! The Table 2 experiment driver: k-fold cross-validated evaluation of
//! prediction schemes against ground-truth compressor runs, with stage
//! timing (error-agnostic / error-dependent / training / fit / inference),
//! checkpointed truth collection, and data-affinity parallel execution.

use crate::queue::{run_tasks, PoolConfig, Task};
use crate::store::CheckpointStore;
use pressio_core::error::{Error, Result};
use pressio_core::hash::{hash_options_hex, to_hex, Sha256};
use pressio_core::timing::{time_ms, MeanStd};
use pressio_core::{Compressor, Data, Options, Registry};
use pressio_dataset::DatasetPlugin;
use pressio_predict::evaluator::cross_validate;
use pressio_predict::registry::{standard_compressors, standard_schemes};
use pressio_predict::Scheme;
use pressio_stats::{k_folds, medape};
use std::path::PathBuf;
use std::sync::Arc;

/// Experiment configuration (defaults mirror the paper's §5 setup).
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Scheme names to evaluate.
    pub schemes: Vec<String>,
    /// Compressor names to evaluate against.
    pub compressors: Vec<String>,
    /// Absolute error bounds (`pressio:abs`); the paper uses 1e-6 and 1e-4.
    pub abs_bounds: Vec<f64>,
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// Seed for fold shuffling.
    pub seed: u64,
    /// Worker threads for ground-truth collection. The caller extracts
    /// the features beside them, so a run keeps `workers + 1` busy.
    pub workers: usize,
    /// Optional checkpoint database path (resume support).
    pub checkpoint: Option<PathBuf>,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            schemes: vec!["khan2023".into(), "jin2022".into(), "rahman2023".into()],
            compressors: vec!["sz3".into(), "zfp".into()],
            abs_bounds: vec![1e-6, 1e-4],
            folds: 10,
            seed: 0xBE7C,
            workers: 4,
            checkpoint: None,
        }
    }
}

/// A compressor baseline row (the `sz3` / `zfp` rows of Table 2).
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Compressor id.
    pub compressor: String,
    /// Compression wall time, ms.
    pub compress_ms: MeanStd,
    /// Decompression wall time, ms.
    pub decompress_ms: MeanStd,
    /// Achieved compression ratio.
    pub ratio: MeanStd,
}

/// A method row of Table 2.
#[derive(Debug, Clone, Default)]
pub struct MethodRow {
    /// Scheme name.
    pub scheme: String,
    /// Compressor id.
    pub compressor: String,
    /// Whether the scheme supports this compressor (N/A row otherwise).
    pub supported: bool,
    /// Error-dependent feature time, ms (None = scheme has no such stage).
    pub error_dependent_ms: Option<MeanStd>,
    /// Error-agnostic feature time, ms.
    pub error_agnostic_ms: Option<MeanStd>,
    /// Training-observation collection time, ms (trainable schemes only).
    pub training_ms: Option<MeanStd>,
    /// Model fit time, ms (trainable schemes only).
    pub fit_ms: Option<MeanStd>,
    /// Per-prediction inference time, ms (trainable schemes only; identity
    /// predictors report N/A like the paper).
    pub inference_ms: Option<MeanStd>,
    /// Median absolute percentage error over all validation predictions.
    pub medape: Option<f64>,
    /// Validation predictions that were not finite, which `medape` leaves
    /// out.
    pub non_finite: usize,
}

/// Complete Table 2 result.
#[derive(Debug, Clone, Default)]
pub struct Table2 {
    /// Baseline rows, one per compressor.
    pub baselines: Vec<BaselineRow>,
    /// Method rows, one per (compressor, scheme).
    pub methods: Vec<MethodRow>,
    /// Ground-truth results reused from the checkpoint store.
    pub checkpoint_hits: usize,
    /// Ground-truth results computed this run.
    pub checkpoint_misses: usize,
}

/// One ground-truth observation.
#[derive(Debug, Clone)]
struct Truth {
    dataset: usize,
    bound: f64,
    ratio: f64,
    compress_ms: f64,
    decompress_ms: f64,
}

/// What a truth is keyed by besides its compressor and bound: the dataset's
/// name and its content — dtype, dims, and a SHA-256 of its bytes — so a
/// checkpoint written at one grid size is never read back at another. The
/// dims are an entry of their own, not bytes ahead of the payload, so
/// `[8, 8]` + `le64(4)‖B` and `[8, 8, 4]` + `B` cannot meet.
fn dataset_key(name: &str, data: &Data) -> Options {
    let mut sha = Sha256::new();
    sha.update(&data.to_le_bytes());
    let dims: Vec<u64> = data.dims().iter().map(|&d| d as u64).collect();
    Options::new()
        .with("dataset", name)
        .with("data:dtype", data.dtype().name())
        .with("data:dims", dims)
        .with("data:sha256", to_hex(&sha.finalize()))
}

fn truth_key(compressor: &str, dataset: &Options, abs: f64) -> String {
    let mut key = dataset.clone();
    key.set("task", "truth");
    key.set("compressor", compressor);
    key.set("pressio:abs", abs);
    hash_options_hex(&key)
}

fn configured(compressor_name: &str, abs: f64) -> Result<Box<dyn Compressor>> {
    let mut c = standard_compressors().build(compressor_name)?;
    c.set_options(&Options::new().with("pressio:abs", abs))?;
    Ok(c)
}

/// Every (dataset, bound) observation in the order truths and features are
/// both kept in: dataset-major, then bound.
fn observations(n_data: usize, bounds: &[f64]) -> Vec<(usize, f64)> {
    let mut bounds = bounds.to_vec();
    bounds.sort_by(f64::total_cmp);
    (0..n_data)
        .flat_map(|di| bounds.iter().map(move |&abs| (di, abs)))
        .collect()
}

/// Collect ground truth (ratio + timings) for every observation for one
/// compressor, using the worker pool and the checkpoint store; also returns
/// how many truths the pool computed (the rest were checkpoint hits).
fn collect_truth(
    compressor_name: &str,
    datasets: &Arc<Vec<(String, Data)>>,
    dataset_keys: &[Options],
    observations: &[(usize, f64)],
    cfg: &Table2Config,
    store: &mut Option<CheckpointStore>,
) -> Result<(Vec<Truth>, usize)> {
    let _span = pressio_obs::span(format!("table2:{compressor_name}:truth"));
    let mut truths = Vec::new();
    let mut tasks = Vec::new();
    for &(di, abs) in observations {
        let key = truth_key(compressor_name, &dataset_keys[di], abs);
        if let Some(store) = store.as_ref() {
            if let Some(v) = store.get(&key) {
                pressio_obs::add_counter("table2:checkpoint.hit", 1);
                truths.push(Truth {
                    dataset: di,
                    bound: abs,
                    ratio: v.get_f64("ratio")?,
                    compress_ms: v.get_f64("compress_ms")?,
                    decompress_ms: v.get_f64("decompress_ms")?,
                });
                continue;
            }
        }
        pressio_obs::add_counter("table2:checkpoint.miss", 1);
        tasks.push(Task::new(
            key,
            di as u64,
            Options::new()
                .with("dataset_index", di as u64)
                .with("pressio:abs", abs),
        ));
    }
    let computed = tasks.len();
    if !tasks.is_empty() {
        let datasets = datasets.clone();
        let comp_name = compressor_name.to_string();
        let (outcomes, _stats) = run_tasks(
            tasks,
            PoolConfig {
                workers: cfg.workers,
                ..Default::default()
            },
            Arc::new(move |task: &Task, _w| {
                let di = task.config.get_usize("dataset_index")?;
                let abs = task.config.get_f64("pressio:abs")?;
                let comp = configured(&comp_name, abs)?;
                let data = &datasets[di].1;
                let (compressed, compress_ms) = time_ms(|| comp.compress(data));
                let compressed = compressed?;
                let ((), decompress_ms) = {
                    let (r, ms) =
                        time_ms(|| comp.decompress(&compressed, data.dtype(), data.dims()));
                    r?;
                    ((), ms)
                };
                let ratio = data.size_in_bytes() as f64 / compressed.len().max(1) as f64;
                Ok(Options::new()
                    .with("dataset_index", di as u64)
                    .with("pressio:abs", abs)
                    .with("ratio", ratio)
                    .with("compress_ms", compress_ms)
                    .with("decompress_ms", decompress_ms))
            }),
        );
        for o in outcomes {
            let v = o.result?;
            if let Some(store) = store.as_mut() {
                // Checkpointing is an optimization: a put that keeps
                // failing after spaced retries costs recomputation on the
                // next run, never the campaign. The truth value itself is
                // already in hand.
                let mut attempt = 1;
                while let Err(e) = store.put(&o.id, v.clone()) {
                    attempt += 1;
                    if attempt > 3 {
                        pressio_obs::add_counter("table2:checkpoint.put_failed", 1);
                        eprintln!("warning: checkpoint put for {} failed: {e}", o.id);
                        break;
                    }
                    pressio_obs::add_counter("table2:checkpoint.put_retried", 1);
                    let wait = pressio_faults::backoff_ms(5, 80, attempt, &o.id);
                    std::thread::sleep(std::time::Duration::from_millis(wait));
                }
            }
            truths.push(Truth {
                dataset: v.get_usize("dataset_index")?,
                bound: v.get_f64("pressio:abs")?,
                ratio: v.get_f64("ratio")?,
                compress_ms: v.get_f64("compress_ms")?,
                decompress_ms: v.get_f64("decompress_ms")?,
            });
        }
    }
    // deterministic order: dataset-major, then bound
    truths.sort_by(|a, b| a.dataset.cmp(&b.dataset).then(a.bound.total_cmp(&b.bound)));
    Ok((truths, computed))
}

/// Run the full Table 2 experiment over `dataset`.
pub fn run_table2(dataset: &mut dyn DatasetPlugin, cfg: &Table2Config) -> Result<Table2> {
    // 1. load everything once (the bench preloads; workers share via Arc)
    let load_span = pressio_obs::span("table2:load");
    let metas = dataset.load_metadata_all()?;
    let mut loaded = Vec::with_capacity(metas.len());
    for (i, meta) in metas.iter().enumerate() {
        // transient load failures (busy filesystem, injected faults) get
        // spaced retries before they can kill the campaign
        let mut attempt = 1;
        let data = loop {
            match dataset.load_data(i) {
                Ok(d) => break d,
                Err(_) if attempt < 3 => {
                    attempt += 1;
                    pressio_obs::add_counter("table2:load.retried", 1);
                    let wait = pressio_faults::backoff_ms(5, 80, attempt, &meta.name);
                    std::thread::sleep(std::time::Duration::from_millis(wait));
                }
                Err(e) => return Err(e),
            }
        };
        loaded.push((meta.name.clone(), data));
    }
    drop(load_span);
    let datasets = Arc::new(loaded);
    let n_data = datasets.len();
    if n_data == 0 {
        return Err(Error::InvalidValue {
            key: "dataset".into(),
            reason: "no datasets to evaluate".into(),
        });
    }

    let mut store = match &cfg.checkpoint {
        Some(path) => match CheckpointStore::open(path) {
            Ok(s) => {
                if let Some(q) = s.quarantined() {
                    eprintln!(
                        "warning: corrupt checkpoint log quarantined to {}; resuming from {} surviving records",
                        q.display(),
                        s.len()
                    );
                }
                Some(s)
            }
            Err(e) => {
                // run uncheckpointed rather than aborting the campaign
                pressio_obs::add_counter("table2:checkpoint.open_failed", 1);
                eprintln!("warning: checkpoint store unavailable ({e}); running without resume");
                None
            }
        },
        None => None,
    };

    let registry = standard_schemes();
    let dataset_keys: Vec<Options> = datasets
        .iter()
        .map(|(name, data)| dataset_key(name, data))
        .collect();
    let observations = observations(n_data, &cfg.abs_bounds);

    // 2. a truth needs the pool and the checkpoint, a feature only its
    //    buffer and bound: the pool collects the truths compressor by
    //    compressor on a thread of its own while the caller extracts every
    //    feature set, then cross-validates each compressor as its truths
    //    come in. A failed side is reported once the pool has stopped, the
    //    truths' error first, so the checkpoint keeps every truth finished.
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel();
        let (datasets, keys, obs, store) = (&datasets, &dataset_keys, &observations, &mut store);
        s.spawn(move || {
            for c in &cfg.compressors {
                let truths = collect_truth(c, datasets, keys, obs, cfg, store);
                let failed = truths.is_err();
                if tx.send(truths).is_err() || failed {
                    break;
                }
            }
        });
        let extracted = cfg
            .compressors
            .iter()
            .flat_map(|c| cfg.schemes.iter().map(move |s| (c, s)))
            .map(|(c, s)| extract_features(&registry, c, s, datasets, obs))
            .collect::<Result<Vec<_>>>();
        let mut extracted = match extracted {
            Ok(extracted) => extracted.into_iter(),
            Err(e) => return rx.into_iter().try_for_each(|t| t.map(drop)).and(Err(e)),
        };
        let mut out = Table2::default();
        for (compressor_name, truths) in cfg.compressors.iter().zip(rx) {
            let (truths, computed) = truths?;
            out.checkpoint_misses += computed;
            out.checkpoint_hits += truths.len() - computed;
            let in_step = truths.iter().map(|t| (t.dataset, t.bound));
            assert!(in_step.eq(obs.iter().copied()), "truths out of step");
            let stages = extracted.by_ref().take(cfg.schemes.len());
            evaluate(compressor_name, &truths, stages, cfg, n_data, &mut out)?;
        }
        Ok(out)
    })
}

/// Table 2's rows for one compressor: its baseline row from `truths`, and
/// each scheme's row from its feature stage, cross-validated here.
fn evaluate(
    compressor_name: &str,
    truths: &[Truth],
    extracted: impl Iterator<Item = (MethodRow, Option<Fittable>)>,
    cfg: &Table2Config,
    n_data: usize,
    out: &mut Table2,
) -> Result<()> {
    let ratios: Vec<f64> = truths.iter().map(|t| t.ratio).collect();
    let obs_dataset: Vec<usize> = truths.iter().map(|t| t.dataset).collect();

    // baseline row — each observation is also fed to the trace under
    // the same name, so the trace aggregates equal the printed MeanStds
    let mut comp_acc = MeanStd::new();
    let mut decomp_acc = MeanStd::new();
    let mut ratio_acc = MeanStd::new();
    for t in truths {
        comp_acc.push(t.compress_ms);
        decomp_acc.push(t.decompress_ms);
        ratio_acc.push(t.ratio);
        pressio_obs::record_ms(
            &format!("table2:{compressor_name}:compress_ms"),
            t.compress_ms,
        );
        pressio_obs::record_ms(
            &format!("table2:{compressor_name}:decompress_ms"),
            t.decompress_ms,
        );
    }
    pressio_obs::set_gauge(
        &format!("table2:{compressor_name}:ratio.mean"),
        ratio_acc.mean(),
    );
    out.baselines.push(BaselineRow {
        compressor: compressor_name.to_string(),
        compress_ms: comp_acc.clone(),
        decompress_ms: decomp_acc,
        ratio: ratio_acc,
    });

    for (mut row, fittable) in extracted {
        let Some((scheme, features)) = fittable else {
            out.methods.push(row);
            continue;
        };
        let scheme_name = row.scheme.clone();
        let stage = |name: &str| format!("table2:{compressor_name}:{scheme_name}:{name}");

        // 3. evaluate, folding over datasets so validation fields are
        //    out-of-sample; each fold trains in ascending dataset order
        let trainable = scheme.make_predictor().requires_training();
        let mut folds = Vec::new();
        if trainable {
            if n_data < 2 {
                return Err(Error::InvalidValue {
                    key: "dataset".into(),
                    reason: format!(
                        "cross-validating {scheme_name} needs at least 2 datasets, got {n_data}"
                    ),
                });
            }
            folds = k_folds(n_data, cfg.folds.clamp(2, n_data), cfg.seed);
            folds.iter_mut().for_each(|fold| fold.train.sort_unstable());
        }
        let cv = cross_validate(scheme.as_ref(), &features, &ratios, &obs_dataset, &folds)?;

        if trainable {
            // training = collecting ground truth = running the compressor
            row.training_ms = Some(traced(
                &stage("training"),
                truths.iter().map(|t| t.compress_ms),
            ));
            row.fit_ms = Some(traced(&stage("fit"), cv.fit_ms.iter().copied()));
            row.inference_ms = Some(traced(&stage("inference"), cv.inference_ms.iter().copied()));
        }
        row.medape = medape(&ratios, &cv.predictions);
        row.non_finite = cv.predictions.iter().filter(|p| !p.is_finite()).count();
        out.methods.push(row);
    }
    Ok(())
}

/// A supported pair's scheme and its feature set per observation.
type Fittable = (Box<dyn Scheme>, Vec<Options>);

/// The feature stage of `scheme_name` on `compressor_name` for every
/// observation: its row with the stage times filled in, and what the folds
/// fit (`None` if the scheme does not support the compressor). Agnostic
/// features are computed once per dataset (the invalidation reuse the
/// framework enables) and each stage is timed on its own. It reads no
/// truth, so it runs while the pool collects them.
fn extract_features(
    registry: &Registry<dyn Scheme>,
    compressor_name: &str,
    scheme_name: &str,
    datasets: &[(String, Data)],
    observations: &[(usize, f64)],
) -> Result<(MethodRow, Option<Fittable>)> {
    let _scheme_span = pressio_obs::span(format!("table2:{compressor_name}:{scheme_name}"));
    let stage = |name: &str| format!("table2:{compressor_name}:{scheme_name}:{name}");
    let mut row = MethodRow {
        scheme: scheme_name.to_string(),
        compressor: compressor_name.to_string(),
        ..MethodRow::default()
    };
    let scheme = registry.build(scheme_name)?;
    if !scheme.supports(compressor_name) {
        return Ok((row, None));
    }
    let mut agnostic_time = MeanStd::new();
    let mut dependent_time = MeanStd::new();
    let (mut has_agnostic, mut has_dependent) = (false, false);
    let mut features = Vec::with_capacity(observations.len());
    // observations are dataset-major: one run per dataset
    for run in observations.chunk_by(|a, b| a.0 == b.0) {
        let data = &datasets[run[0].0].1;
        let (agnostic, ms) = time_ms(|| scheme.error_agnostic_features(data));
        let agnostic = agnostic?;
        agnostic_time.push(ms);
        pressio_obs::record_ms(&stage("error_agnostic"), ms);
        has_agnostic |= !agnostic.is_empty();
        for &(_, abs) in run {
            let comp = configured(compressor_name, abs)?;
            let (dep, ms) = time_ms(|| scheme.error_dependent_features(data, comp.as_ref()));
            let dep = dep?;
            dependent_time.push(ms);
            pressio_obs::record_ms(&stage("error_dependent"), ms);
            has_dependent |= !dep.is_empty();
            let mut merged = agnostic.clone();
            merged.merge_from(&dep);
            features.push(merged);
        }
    }
    row.supported = true;
    row.error_agnostic_ms = has_agnostic.then_some(agnostic_time);
    row.error_dependent_ms = has_dependent.then_some(dependent_time);
    Ok((row, Some((scheme, features))))
}

/// `values` in one [`MeanStd`], each also fed to the trace as `name`, so
/// the trace aggregates equal the printed row.
fn traced(name: &str, values: impl Iterator<Item = f64>) -> MeanStd {
    let mut acc = MeanStd::new();
    for ms in values {
        acc.push(ms);
        pressio_obs::record_ms(name, ms);
    }
    acc
}

fn fmt_opt(v: &Option<MeanStd>, precision: usize) -> String {
    match v {
        Some(m) if m.count() > 0 => m.display(precision),
        _ => "N/A".to_string(),
    }
}

/// Render the result in the shape of the paper's Table 2.
pub fn format_table2(t: &Table2) -> String {
    let mut s = String::new();
    s.push_str(
        "| method | Error-Dependent (ms) | Error-Agnostic (ms) | Training (ms) | Fit (ms) | \
         Inference (ms) | Compression/Decompression (ms) | MedAPE (%) |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|---|\n");
    for b in &t.baselines {
        s.push_str(&format!(
            "| {} | | | | | | {} / {} | |\n",
            b.compressor,
            b.compress_ms.display(2),
            b.decompress_ms.display(2),
        ));
        for m in t.methods.iter().filter(|m| m.compressor == b.compressor) {
            if !m.supported {
                s.push_str(&format!(
                    "| {} {} | N/A | N/A | N/A | N/A | N/A | | N/A |\n",
                    m.compressor, m.scheme
                ));
                continue;
            }
            let mut medape = m.medape.map_or_else(|| "N/A".into(), |v| format!("{v:.2}"));
            if m.non_finite > 0 {
                medape += &format!(" ({} non-finite left out)", m.non_finite);
            }
            s.push_str(&format!(
                "| {} {} | {} | {} | {} | {} | {} | | {} |\n",
                m.compressor,
                m.scheme,
                fmt_opt(&m.error_dependent_ms, 3),
                fmt_opt(&m.error_agnostic_ms, 3),
                fmt_opt(&m.training_ms, 2),
                fmt_opt(&m.fit_ms, 2),
                fmt_opt(&m.inference_ms, 4),
                medape,
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_dataset::Hurricane;
    use pressio_predict::features::FeaturePass;

    fn tiny_config() -> Table2Config {
        Table2Config {
            schemes: vec!["khan2023".into(), "jin2022".into(), "rahman2023".into()],
            compressors: vec!["sz3".into(), "zfp".into()],
            abs_bounds: vec![1e-4],
            folds: 3,
            seed: 7,
            workers: 2,
            checkpoint: None,
        }
    }

    fn tiny_hurricane() -> Hurricane {
        Hurricane::with_dims(16, 16, 8, 2)
            .with_fields(&["P", "U", "QRAIN", "QSNOW", "TC", "V"])
            .unwrap()
    }

    #[test]
    fn table2_runs_end_to_end() {
        let mut data = tiny_hurricane();
        let t = run_table2(&mut data, &tiny_config()).unwrap();
        assert_eq!(t.baselines.len(), 2);
        assert_eq!(t.methods.len(), 6);
        // jin on zfp is the N/A row
        let jin_zfp = t
            .methods
            .iter()
            .find(|m| m.scheme == "jin2022" && m.compressor == "zfp")
            .unwrap();
        assert!(!jin_zfp.supported);
        assert!(jin_zfp.medape.is_none());
        // every supported row produced a MedAPE
        for m in t.methods.iter().filter(|m| m.supported) {
            assert!(m.medape.is_some(), "{} {}", m.compressor, m.scheme);
            assert!(m.medape.unwrap().is_finite());
        }
        // trainable scheme reports all five stages
        let rahman = t
            .methods
            .iter()
            .find(|m| m.scheme == "rahman2023" && m.compressor == "sz3")
            .unwrap();
        assert!(rahman.training_ms.is_some());
        assert!(rahman.fit_ms.is_some());
        assert!(rahman.inference_ms.is_some());
        assert!(rahman.error_agnostic_ms.is_some());
        // calculation schemes report no training
        let khan = t
            .methods
            .iter()
            .find(|m| m.scheme == "khan2023" && m.compressor == "sz3")
            .unwrap();
        assert!(khan.training_ms.is_none());
        assert!(khan.error_dependent_ms.is_some());
        assert!(khan.error_agnostic_ms.is_none());
    }

    #[test]
    fn rendered_table_has_expected_shape() {
        let mut data = tiny_hurricane();
        let t = run_table2(&mut data, &tiny_config()).unwrap();
        let rendered = format_table2(&t);
        assert!(rendered.contains("| sz3 |"));
        assert!(rendered.contains("sz3 khan2023"));
        assert!(rendered.contains("zfp jin2022 | N/A"));
        assert!(rendered.contains("MedAPE"));
    }

    #[test]
    fn checkpoint_resume_skips_truth_recomputation() {
        let dir = std::env::temp_dir().join("pressio_table2_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("truth.jsonl");
        let mut cfg = tiny_config();
        cfg.schemes = vec!["khan2023".into()];
        cfg.compressors = vec!["sz3".into()];
        cfg.checkpoint = Some(path.clone());
        let mut data = tiny_hurricane();
        let first = run_table2(&mut data, &cfg).unwrap();
        assert_eq!(first.checkpoint_hits, 0);
        assert!(first.checkpoint_misses > 0);
        let second = run_table2(&mut data, &cfg).unwrap();
        assert_eq!(second.checkpoint_misses, 0, "restart must reuse truth");
        assert_eq!(second.checkpoint_hits, first.checkpoint_misses);
        // identical quality metrics after resume
        let m1 = first.methods[0].medape.unwrap();
        let m2 = second.methods[0].medape.unwrap();
        assert!((m1 - m2).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint's truths belong to the buffers they were measured on:
    /// the same field names at another grid size miss, and that size's own
    /// rerun hits every one.
    #[test]
    fn checkpointed_truths_are_not_reused_across_grid_sizes() {
        let dir = std::env::temp_dir().join("pressio_table2_ckpt_sizes");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = Table2Config {
            schemes: vec!["khan2023".into()],
            compressors: vec!["sz3".into()],
            workers: 2,
            checkpoint: Some(dir.join("truth.jsonl")),
            ..Table2Config::default()
        };
        let run = |nx, ny, nz| run_table2(&mut Hurricane::with_dims(nx, ny, nz, 1), &cfg).unwrap();
        let small = run(16, 16, 8);
        assert_eq!((small.checkpoint_hits, small.checkpoint_misses), (0, 26));
        let large = run(24, 24, 12);
        assert_eq!((large.checkpoint_hits, large.checkpoint_misses), (0, 26));
        let again = run(24, 24, 12);
        assert_eq!((again.checkpoint_hits, again.checkpoint_misses), (26, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every MedAPE bit of a tiny Table 2 with Ganguli's conformal forest
    /// added, against a digest taken before the forest fit moved onto
    /// presorted columns: the rahman and ganguli rows fit forests, and the
    /// rest show that nothing else moved. Re-taken once, when a split whose
    /// midpoint rounded up to its upper value moved to its lower one: sz3
    /// ganguli2023 went 56.0718 → 56.0880 % (rows at that upper value had
    /// gone left), zfp ganguli2023 25.0721 → 29.6747 % (one of its 12
    /// predictions had been a `NaN` leaf, which `medape` dropped).
    #[test]
    fn medapes_match_the_digest_taken_before_presorting() {
        let mut cfg = tiny_config();
        cfg.schemes.push("ganguli2023".into());
        let t = run_table2(&mut tiny_hurricane(), &cfg).unwrap();
        let lines: String = t
            .methods
            .iter()
            .map(|m| {
                format!(
                    "{} {} {:?}\n",
                    m.compressor,
                    m.scheme,
                    m.medape.map(f64::to_bits)
                )
            })
            .collect();
        let digest = pressio_core::hash::fnv1a64(lines.as_bytes());
        assert_eq!(
            digest, 0x0d54304c6fe7091b,
            "MedAPEs moved: digest {digest:#018x}\n{lines}"
        );
    }

    /// A scheme whose predictor answers feature `x` back: `NaN` on the one
    /// observation whose `x` is `NaN`.
    struct EchoX;

    impl Scheme for EchoX {
        fn info(&self) -> pressio_predict::SchemeInfo {
            standard_schemes().build("khan2023").unwrap().info()
        }
        fn supports(&self, _: &str) -> bool {
            true
        }
        fn error_agnostic_from(&self, _: &FeaturePass<'_>) -> Result<Options> {
            Ok(Options::new())
        }
        fn error_dependent_from(&self, _: &FeaturePass<'_>, _: &dyn Compressor) -> Result<Options> {
            Ok(Options::new())
        }
        fn make_predictor(&self) -> Box<dyn pressio_predict::Predictor> {
            Box::new(pressio_predict::IdentityPredictor::new("x"))
        }
        fn feature_keys(&self) -> Vec<String> {
            vec!["x".into()]
        }
    }

    #[test]
    fn a_row_counts_the_non_finite_predictions_its_medape_left_out() {
        let xs = [1.0, 2.0, f64::NAN, 4.0];
        let truths: Vec<Truth> = (0..xs.len())
            .map(|dataset| Truth {
                dataset,
                bound: 1e-4,
                ratio: 2.0,
                compress_ms: 1.0,
                decompress_ms: 1.0,
            })
            .collect();
        let features = xs.iter().map(|&x| Options::new().with("x", x)).collect();
        let row = MethodRow {
            scheme: "echo".into(),
            compressor: "sz3".into(),
            supported: true,
            ..MethodRow::default()
        };
        let scheme: Box<dyn Scheme> = Box::new(EchoX);
        let extracted = std::iter::once((row, Some((scheme, features))));
        let mut table = Table2::default();
        evaluate(
            "sz3",
            &truths,
            extracted,
            &tiny_config(),
            xs.len(),
            &mut table,
        )
        .unwrap();
        let row = &table.methods[0];
        assert_eq!(row.non_finite, 1);
        // the finite three: 50 %, 0 % and 100 % off a ratio of 2
        assert_eq!(row.medape, Some(50.0));
        assert!(
            format_table2(&table).contains("| 50.00 (1 non-finite left out) |"),
            "{}",
            format_table2(&table)
        );
    }

    #[test]
    fn empty_dataset_errors() {
        let mut data = pressio_dataset::MemoryDataset::new(vec![]);
        assert!(run_table2(&mut data, &tiny_config()).is_err());
    }
}
