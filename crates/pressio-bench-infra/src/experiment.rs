//! The Table 2 experiment driver: k-fold cross-validated evaluation of
//! prediction schemes against ground-truth compressor runs, with stage
//! timing (error-agnostic / error-dependent / training / fit / inference),
//! checkpointed truth collection, and data-affinity parallel execution.

use crate::queue::{run_tasks, PoolConfig, Task, TaskOutcome};
use crate::store::CheckpointStore;
use pressio_core::error::{Error, Result};
use pressio_core::hash::{hash_options_hex, to_hex, Sha256};
use pressio_core::timing::{time_ms, MeanStd};
use pressio_core::{Compressor, Data, Options};
use pressio_dataset::DatasetPlugin;
use pressio_predict::evaluator::{cross_validate, cross_validate_fold, CrossValidation};
use pressio_predict::registry::{standard_compressors, standard_schemes};
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
    /// A run keeps `workers + 1` threads busy on one pool, which takes
    /// every truth, feature and fold task of the table alike.
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
    ratio: f64,
    compress_ms: f64,
    decompress_ms: f64,
}

impl Truth {
    /// A truth as a task returns it and the checkpoint keeps it.
    fn read(v: &Options) -> Result<Truth> {
        Ok(Truth {
            ratio: v.get_f64("ratio")?,
            compress_ms: v.get_f64("compress_ms")?,
            decompress_ms: v.get_f64("decompress_ms")?,
        })
    }
}

/// What a truth is keyed by besides its compressor and bound: the dataset's
/// name and its content — dtype, dims, and a SHA-256 of its bytes — so a
/// checkpoint written at one grid size is never read back at another. The
/// dims are an entry of their own, not bytes ahead of the payload, so
/// `[8, 8]` + `le64(4)‖B` and `[8, 8, 4]` + `B` cannot meet. The bytes are
/// hashed from the typed elements, never copied whole.
fn dataset_key(name: &str, data: &Data) -> Options {
    let mut sha = Sha256::new();
    data.le_runs(|run| sha.update(run));
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

/// A truth task: one compress and decompress of `data` at `abs`.
fn measure_truth(compressor_name: &str, data: &Data, abs: f64) -> Result<Options> {
    let _span = pressio_obs::span(format!("table2:{compressor_name}:truth"));
    let comp = configured(compressor_name, abs)?;
    let (compressed, compress_ms) = time_ms(|| comp.compress(data));
    let compressed = compressed?;
    let (decompressed, decompress_ms) =
        time_ms(|| comp.decompress(&compressed, data.dtype(), data.dims()));
    decompressed?;
    let ratio = data.size_in_bytes() as f64 / compressed.len().max(1) as f64;
    Ok(Options::new()
        .with("ratio", ratio)
        .with("compress_ms", compress_ms)
        .with("decompress_ms", decompress_ms))
}

/// What a feature task measured: its error-agnostic stage's ms and whether
/// it found features, then per compressor and bound the merged feature
/// set, the error-dependent stage's ms and whether that stage found any.
type Features = (f64, bool, Vec<Vec<(Options, f64, bool)>>);

/// A feature task: scheme `name`'s error-agnostic stage on `data` once,
/// then its error-dependent stage for each of `codecs` at each bound, all
/// read through one pass: a dependent stage reuses what the agnostic swept.
fn features_of(name: &str, data: &Data, codecs: &[String], bounds: &[f64]) -> Result<Features> {
    let _span = pressio_obs::span(format!("table2:{name}:features"));
    let scheme = standard_schemes().build(name)?;
    let pass = pressio_predict::features::FeaturePass::new(data);
    let (agnostic, agnostic_ms) = time_ms(|| scheme.error_agnostic_from(&pass));
    let agnostic = agnostic?;
    pressio_obs::add_counter("table2:features.agnostic", 1);
    let dependent = codecs.iter().map(|codec| {
        let at_bound = bounds.iter().map(|&abs| {
            let comp = configured(codec, abs)?;
            let (dep, ms) = time_ms(|| scheme.error_dependent_from(&pass, comp.as_ref()));
            let dep = dep?;
            let mut merged = agnostic.clone();
            merged.merge_from(&dep);
            Ok((merged, ms, !dep.is_empty()))
        });
        at_bound.collect::<Result<Vec<_>>>()
    });
    let dependent = dependent.collect::<Result<_>>()?;
    Ok((agnostic_ms, !agnostic.is_empty(), dependent))
}

/// What a task of the first wave measured, and where it belongs.
enum Measured {
    /// A truth: its compressor, its observation and its value.
    Truth(usize, usize, Options),
    /// A feature task: its scheme, its dataset and what it measured.
    Features(usize, usize, Features),
}

/// A task of Table 2's graph at (`a`, `b`) — (compressor, observation) for
/// a truth, (scheme, dataset) for a feature set, (trained row, fold) for a
/// fold — stamped with its stage and keyed by `key`, its dataset for the
/// first two.
fn task(stage: &str, key: usize, a: usize, b: usize) -> Task {
    let at = Options::new().with("a", a as u64).with("b", b as u64);
    Task::new(format!("table2:{stage}:{a}:{b}"), key as u64, at)
        .with_parent(format!("table2:{stage}"))
}

/// `tasks` on one pool of `workers + 1` threads, under a span named
/// `wave`, each measured by `measure(stage, a, b)`.
fn run_wave<M: Send + 'static>(
    wave: &str,
    tasks: Vec<Task>,
    workers: usize,
    measure: impl Fn(&str, usize, usize) -> Result<M> + Send + Sync + 'static,
) -> Vec<TaskOutcome<M>> {
    let _span = pressio_obs::span(wave);
    let pool = PoolConfig {
        workers: workers + 1,
        ..Default::default()
    };
    let worker = move |task: &Task, _| {
        let (a, b) = (task.config.get_usize("a")?, task.config.get_usize("b")?);
        measure(task.parent.as_deref().unwrap_or_default(), a, b)
    };
    run_tasks(tasks, pool, Arc::new(worker)).0
}

/// `op`, tried up to three times: each retry is counted under `counter`
/// and waits a backoff seeded by `key`. The last error if all three fail.
fn retried<T>(key: &str, counter: &str, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt = 1;
    loop {
        match op() {
            Err(_) if attempt < 3 => {
                attempt += 1;
                pressio_obs::add_counter(counter, 1);
                let wait = pressio_faults::backoff_ms(5, 80, attempt, key);
                std::thread::sleep(std::time::Duration::from_millis(wait));
            }
            done => return done,
        }
    }
}

/// Store `v` under `key`. Checkpointing is an optimization: a put (or the
/// wave's one sync) that keeps failing costs recomputation on the next
/// run, never the campaign. The truth value itself is already in hand.
fn checkpoint(store: &mut CheckpointStore, key: &str, v: &Options) {
    let put = || store.put(key, v.clone());
    if let Err(e) = retried(key, "table2:checkpoint.put_retried", put) {
        pressio_obs::add_counter("table2:checkpoint.put_failed", 1);
        eprintln!("warning: checkpoint put for {key} failed: {e}");
    }
}

/// Run the full Table 2 experiment over `dataset`.
///
/// Every stage is a task on one pool of `workers + 1` threads; the caller
/// only plans, checkpoints and assembles. The first wave holds a truth task
/// per (compressor, dataset, bound) the checkpoint misses and a feature
/// task per (scheme, dataset), each keyed by its dataset. Once it drains
/// and its truths are checkpointed, the second holds a fit-and-predict task
/// per (compressor, trained scheme, fold). A truth error outranks a feature
/// error, which outranks a fold error.
pub fn run_table2(dataset: &mut dyn DatasetPlugin, cfg: &Table2Config) -> Result<Table2> {
    // 1. load everything once (the bench preloads; workers share via Arc)
    let load_span = pressio_obs::span("table2:load");
    let metas = dataset.load_metadata_all()?;
    let mut loaded = Vec::with_capacity(metas.len());
    for (i, meta) in metas.iter().enumerate() {
        // transient load failures (busy filesystem, injected faults) get
        // spaced retries before they can kill the campaign
        let data = retried(&meta.name, "table2:load.retried", || dataset.load_data(i))?;
        loaded.push((meta.name.clone(), data));
    }
    drop(load_span);
    let n_data = loaded.len();
    let invalid = |reason: String| Error::InvalidValue {
        key: "dataset".into(),
        reason,
    };
    if n_data == 0 {
        return Err(invalid("no datasets to evaluate".into()));
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
                // one sync for all of a wave's truths, after their puts
                Some(s.with_sync_every(usize::MAX))
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

    // 2. the first wave: the truths the checkpoint misses, and the features
    //    of every scheme on every dataset for the compressors it supports;
    //    truths and features are both kept dataset-major, then by bound
    let registry = standard_schemes();
    let schemes = cfg.schemes.iter().map(|s| registry.build(s));
    let schemes = schemes.collect::<Result<Vec<_>>>();
    let codecs = &cfg.compressors;
    let supported: Vec<Vec<String>> = (schemes.iter().flatten())
        .map(|s| codecs.iter().filter(|c| s.supports(c)).cloned().collect())
        .collect();
    let mut bounds = cfg.abs_bounds.clone();
    bounds.sort_by(f64::total_cmp);
    let n = n_data * bounds.len();
    let dataset_keys: Vec<Options> = loaded.iter().map(|(n, d)| dataset_key(n, d)).collect();
    let (mut keys, mut truths, mut tasks) = (Vec::new(), vec![None; codecs.len() * n], Vec::new());
    for (c, codec) in codecs.iter().enumerate() {
        for (di, dataset) in dataset_keys.iter().enumerate() {
            for (b, &abs) in bounds.iter().enumerate() {
                let (o, key) = (di * bounds.len() + b, truth_key(codec, dataset, abs));
                if let Some(v) = store.as_ref().and_then(|s| s.get(&key)) {
                    pressio_obs::add_counter("table2:checkpoint.hit", 1);
                    truths[c * n + o] = Some(Truth::read(v)?);
                } else {
                    pressio_obs::add_counter("table2:checkpoint.miss", 1);
                    tasks.push(task("truth", di, c, o));
                }
                keys.push(key);
            }
        }
    }
    let misses = tasks.len();
    for (s, _) in supported.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
        tasks.extend((0..n_data).map(|di| task("features", di, s, di)));
    }
    let (plan, per_scheme, bounds_of) = (cfg.clone(), supported.clone(), bounds.clone());
    let measured = run_wave("table2:measure", tasks, cfg.workers, move |stage, a, b| {
        if stage == "table2:truth" {
            let (di, abs) = (b / bounds_of.len(), bounds_of[b % bounds_of.len()]);
            let v = measure_truth(&plan.compressors[a], &loaded[di].1, abs)?;
            return Ok(Measured::Truth(a, b, v));
        }
        let f = features_of(&plan.schemes[a], &loaded[b].1, &per_scheme[a], &bounds_of)?;
        Ok(Measured::Features(a, b, f))
    });

    // 3. its truths checkpointed, then its errors, truths' first
    let mut features = vec![vec![None; n_data]; supported.len()];
    let (mut truth_error, mut feature_error) = (None, None);
    for outcome in measured {
        match outcome.result {
            Ok(Measured::Truth(c, o, v)) => {
                if let Some(store) = store.as_mut() {
                    checkpoint(store, &keys[c * n + o], &v);
                }
                truths[c * n + o] = Some(Truth::read(&v)?);
            }
            Ok(Measured::Features(s, di, f)) => features[s][di] = Some(f),
            Err(e) if outcome.id.contains(":truth:") => truth_error = truth_error.or(Some(e)),
            Err(e) => feature_error = feature_error.or(Some(e)),
        }
    }
    if let Some(Err(e)) = store.as_mut().map(CheckpointStore::sync) {
        pressio_obs::add_counter("table2:checkpoint.sync_failed", 1);
        eprintln!("warning: checkpoint sync failed: {e}");
    }
    truth_error.map_or(Ok(()), Err)?;
    let schemes = schemes?;
    feature_error.map_or(Ok(()), Err)?;

    // 4. each row's feature stage; a scheme without training predicts here,
    //    a trained one waits for the second wave
    let truths: Vec<Truth> = truths.into_iter().flatten().collect();
    let ratios: Vec<f64> = truths.iter().map(|t| t.ratio).collect();
    let groups: Vec<usize> = (0..n).map(|o| o / bounds.len()).collect();
    let (mut rows, mut fits) = (Vec::new(), Vec::new());
    for (c, codec) in codecs.iter().enumerate() {
        for (s, scheme) in schemes.iter().enumerate() {
            let mut row = MethodRow::default();
            (row.scheme, row.compressor) = (cfg.schemes[s].clone(), codec.clone());
            let stage = |name: &str| format!("table2:{codec}:{}:{name}", cfg.schemes[s]);
            if let Some(at) = supported[s].iter().position(|x| x == codec) {
                let (mut agnostic, mut dependent) = (Vec::new(), Vec::new());
                for f in features[s].iter_mut().flatten() {
                    agnostic.push((f.0, f.1));
                    dependent.extend(std::mem::take(&mut f.2[at]));
                }
                let agnostic_ms = traced(&stage("error_agnostic"), agnostic.iter().map(|a| a.0));
                row.error_agnostic_ms = Some(agnostic_ms).filter(|_| agnostic.iter().any(|a| a.1));
                let dep_ms = traced(&stage("error_dependent"), dependent.iter().map(|d| d.1));
                row.error_dependent_ms = Some(dep_ms).filter(|_| dependent.iter().any(|d| d.2));
                let set: Vec<Options> = dependent.into_iter().map(|d| d.0).collect();
                row.supported = true;
                let ratios = &ratios[c * n..][..n];
                if !scheme.make_predictor().requires_training() {
                    let cv = cross_validate(scheme.as_ref(), &set, ratios, &groups, &[])?;
                    score(&mut row, ratios, &cv.predictions);
                } else if n_data < 2 {
                    let s = &row.scheme;
                    return Err(invalid(format!(
                        "cross-validating {s} needs at least 2 datasets, got {n_data}"
                    )));
                } else {
                    fits.push((rows.len(), c, row.scheme.clone(), set));
                }
            }
            rows.push(row);
        }
    }

    // 5. the second wave: every fold of every trained row, each fit on the
    //    fold's training datasets in ascending order
    let mut folds = match fits.is_empty() {
        true => Vec::new(),
        false => k_folds(n_data, cfg.folds.clamp(2, n_data), cfg.seed),
    };
    folds.iter_mut().for_each(|fold| fold.train.sort_unstable());
    let k = folds.len();
    let tasks = (0..fits.len() * k)
        .map(|j| task("fold", j, j / k, j % k))
        .collect();
    let fits = Arc::new(fits);
    let (inputs, ratios_of, folds_of) = (fits.clone(), ratios.clone(), folds);
    let fold_runs = run_wave("table2:folds", tasks, cfg.workers, move |_, r, k| {
        let (_, c, name, set) = &inputs[r];
        let scheme = standard_schemes().build(name)?;
        let ratios = &ratios_of[c * n..][..n];
        let run = cross_validate_fold(scheme.as_ref(), set, ratios, &groups, &folds_of[k])?;
        Ok((r, k, run))
    });
    let mut runs = vec![vec![None; k]; fits.len()];
    for outcome in fold_runs {
        let (r, k, run) = outcome.result?;
        runs[r][k] = Some(run);
    }

    // 6. the rows; every measurement is fed to the trace in the order its
    //    MeanStd takes it
    for (&(row, c, ..), runs) in fits.iter().zip(runs) {
        let cv = CrossValidation::from_folds(n, runs.into_iter().flatten())?;
        let row = &mut rows[row];
        let stage = |name: &str| format!("table2:{}:{}:{name}", row.compressor, row.scheme);
        // training = collecting ground truth = running the compressor
        let training = truths[c * n..][..n].iter().map(|t| t.compress_ms);
        row.training_ms = Some(traced(&stage("training"), training));
        row.fit_ms = Some(traced(&stage("fit"), cv.fit_ms));
        row.inference_ms = Some(traced(&stage("inference"), cv.inference_ms));
        score(row, &ratios[c * n..][..n], &cv.predictions);
    }
    let baselines = codecs.iter().zip(truths.chunks(n)).map(|(codec, truths)| {
        let mut ratio = MeanStd::new();
        truths.iter().for_each(|t| ratio.push(t.ratio));
        pressio_obs::set_gauge(&format!("table2:{codec}:ratio.mean"), ratio.mean());
        let compress = truths.iter().map(|t| t.compress_ms);
        let decompress = truths.iter().map(|t| t.decompress_ms);
        BaselineRow {
            compressor: codec.clone(),
            compress_ms: traced(&format!("table2:{codec}:compress_ms"), compress),
            decompress_ms: traced(&format!("table2:{codec}:decompress_ms"), decompress),
            ratio,
        }
    });
    Ok(Table2 {
        baselines: baselines.collect(),
        methods: rows,
        checkpoint_hits: codecs.len() * n - misses,
        checkpoint_misses: misses,
    })
}

/// A row's MedAPE over `predictions`, and how many it left out.
fn score(row: &mut MethodRow, ratios: &[f64], predictions: &[f64]) {
    row.medape = medape(ratios, predictions);
    row.non_finite = predictions.iter().filter(|p| !p.is_finite()).count();
}

/// `values` in one [`MeanStd`], each also fed to the trace as `name`, so
/// the trace aggregates equal the printed row.
fn traced(name: &str, values: impl IntoIterator<Item = f64>) -> MeanStd {
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
    use pressio_predict::Scheme;

    /// A checkpoint key taken when the dataset's bytes were hashed from a
    /// whole little-endian copy: hashing the elements in runs moves no key.
    #[test]
    fn dataset_keys_are_pinned() {
        let n = 40 * 30 * 3;
        let values = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
        let data = Data::from_f32(vec![40, 30, 3], values);
        let key = truth_key("sz3", &dataset_key("P", &data), 1e-4);
        assert_eq!(
            key,
            "e728cc43d19374d27abba28695ba89a694e4486c28408cebc6667663787a4b17"
        );
    }

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
        let ratios = vec![2.0; xs.len()];
        let groups: Vec<usize> = (0..xs.len()).collect();
        let features: Vec<Options> = xs.iter().map(|&x| Options::new().with("x", x)).collect();
        let cv = cross_validate(&EchoX, &features, &ratios, &groups, &[]).unwrap();
        let mut row = MethodRow {
            scheme: "echo".into(),
            compressor: "sz3".into(),
            supported: true,
            ..MethodRow::default()
        };
        score(&mut row, &ratios, &cv.predictions);
        assert_eq!(row.non_finite, 1);
        // the finite three: 50 %, 0 % and 100 % off a ratio of 2
        assert_eq!(row.medape, Some(50.0));
        let table = Table2 {
            baselines: vec![BaselineRow {
                compressor: "sz3".into(),
                compress_ms: MeanStd::new(),
                decompress_ms: MeanStd::new(),
                ratio: MeanStd::new(),
            }],
            methods: vec![row],
            ..Table2::default()
        };
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
