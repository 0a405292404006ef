//! `table2_cv`: the paper's own evaluation harness, `run_table2`, cold:
//! truth collection through the task queue and the checkpoint store, then
//! feature extraction, 10-fold fits and inference for every scheme.

use super::{timed, Ctx, Metrics, Window, Workload};
use crate::inputs::{self, Rng};
use crate::trace::Recorder;
use pressio_bench_infra::{run_table2, MethodRow, Table2, Table2Config};
use pressio_core::timing::MeanStd;
use pressio_core::Data;
use pressio_dataset::{DatasetPlugin, MemoryDataset, FIELDS};
use std::path::PathBuf;
use std::time::Instant;

/// 32×32×16 f32 = 64 KiB per field, 13 fields × 2 timesteps: the paper's
/// grid of schemes, compressors, bounds and folds on a dataset small enough
/// that a window holds a dozen cold runs.
const DIMS: [usize; 3] = [32, 32, 16];
const TIMESTEPS: usize = 2;

pub struct Table2Cv {
    dataset: MemoryDataset,
    buffers: Vec<Data>,
    generate_ms_per_mib: f64,
    config: Table2Config,
    dir: PathBuf,
    runs: usize,
    /// The last whole table and the ms its run took.
    last: Option<(Table2, f64)>,
}

impl Table2Cv {
    pub fn setup(ctx: &Ctx) -> Result<Table2Cv, String> {
        let mut rng = Rng::new(ctx.seed);
        let mut source = inputs::hurricane(&mut rng, DIMS, TIMESTEPS);
        let (buffers, ms) = timed(|| source.load_data_all());
        let buffers = buffers.map_err(|e| e.to_string())?;
        let names = source.load_metadata_all().map_err(|e| e.to_string())?;
        let mib = buffers.iter().map(Data::size_in_bytes).sum::<usize>() as f64 / (1 << 20) as f64;
        std::fs::create_dir_all(&ctx.dir).map_err(|e| e.to_string())?;
        Ok(Table2Cv {
            dataset: MemoryDataset::new(
                names
                    .into_iter()
                    .map(|m| m.name)
                    .zip(buffers.iter().cloned())
                    .collect(),
            ),
            buffers,
            generate_ms_per_mib: ms / mib,
            config: Table2Config {
                // one truth worker: a second one shares two cores with this
                // thread, and the run time then swings twice as far
                workers: 1,
                seed: rng.next(),
                ..Table2Config::default()
            },
            dir: ctx.dir.clone(),
            runs: 0,
            last: None,
        })
    }

    /// Truth tasks of one cold run: every dataset × compressor × bound.
    fn tasks(&self) -> usize {
        FIELDS.len() * TIMESTEPS * self.config.compressors.len() * self.config.abs_bounds.len()
    }

    /// One `run_table2` over `checkpoint`; `Some` if the table is whole and
    /// the checkpoint was used as a `cold` (or warm) run should use it.
    fn run(&mut self, checkpoint: PathBuf, cold: bool) -> (Option<Table2>, f64) {
        self.config.checkpoint = Some(checkpoint);
        let (table, ms) = timed(|| run_table2(&mut self.dataset, &self.config));
        let expected = if cold {
            (0, self.tasks())
        } else {
            (self.tasks(), 0)
        };
        let whole = |t: &Table2| {
            (t.checkpoint_hits, t.checkpoint_misses) == expected
                && t.baselines.len() == self.config.compressors.len()
                && t.methods.len() == self.config.compressors.len() * self.config.schemes.len()
                && t.methods
                    .iter()
                    .all(|m| !m.supported || m.medape.is_some_and(f64::is_finite))
        };
        (table.ok().filter(whole), ms)
    }

    fn fresh_checkpoint(&mut self) -> PathBuf {
        self.runs += 1;
        self.dir.join(format!("table2-{}.ckpt", self.runs))
    }
}

fn row<'a>(table: &'a Table2, scheme: &str, compressor: &str) -> Option<&'a MethodRow> {
    table
        .methods
        .iter()
        .find(|m| m.scheme == scheme && m.compressor == compressor)
}

impl Workload for Table2Cv {
    fn min_ops(&self) -> usize {
        3
    }

    fn generate_ms_per_mib(&self) -> f64 {
        self.generate_ms_per_mib
    }

    fn measure(&mut self, seconds: f64) -> Result<Window, String> {
        let mut w = Window::default();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            let checkpoint = self.fresh_checkpoint();
            let (table, ms) = self.run(checkpoint, true);
            w.attempted += 1;
            match table {
                Some(table) => {
                    w.ops.push((0, ms));
                    self.last = Some((table, ms));
                }
                None => w.failed += 1,
            }
        }
        w.ratio = super::codec::ratio_of("sz3", self.buffers.iter())?;
        if let Some((table, run_ms)) = &self.last {
            // the paper's Table 2 columns as the harness itself reports them,
            // each as the share of the run that stage took
            let share = |scheme: &str, pick: fn(&MethodRow) -> &Option<MeanStd>| {
                let stage = row(table, scheme, "sz3").and_then(|r| pick(r).as_ref());
                stage.map_or(0.0, |s| s.mean() * s.count() as f64 / run_ms)
            };
            let over_compress = |scheme: &str| {
                let stage = row(table, scheme, "sz3").and_then(|r| r.error_dependent_ms.as_ref());
                let compress = table.baselines.iter().find(|b| b.compressor == "sz3");
                stage
                    .zip(compress)
                    .map_or(0.0, |(s, c)| s.mean() / c.compress_ms.mean())
            };
            w.layers.insert(
                "predict.medape_pct".into(),
                row(table, "rahman2023", "sz3")
                    .and_then(|r| r.medape)
                    .unwrap_or(0.0),
            );
            w.layers.insert(
                "features.agnostic_share".into(),
                share("rahman2023", |r| &r.error_agnostic_ms),
            );
            w.layers.insert(
                "features.dependent_share".into(),
                share("rahman2023", |r| &r.error_dependent_ms),
            );
            w.layers.insert(
                "predictor.fit_share".into(),
                share("rahman2023", |r| &r.fit_ms),
            );
            w.layers.insert(
                "predictor.infer_share".into(),
                share("rahman2023", |r| &r.inference_ms),
            );
            w.layers.insert(
                "features.khan_dependent_over_compress".into(),
                over_compress("khan2023"),
            );
            w.layers.insert(
                "features.jin_dependent_over_compress".into(),
                over_compress("jin2022"),
            );
        }
        Ok(w)
    }

    fn trace(
        &mut self,
        _seconds: f64,
        op_ms: f64,
        rec: &mut Recorder,
        out: &mut Metrics,
    ) -> Result<(), String> {
        // one cold run, then the same run again over the now-warm checkpoint:
        // the difference is what collecting the truth cost
        let checkpoint = self.fresh_checkpoint();
        let (cold, cold_ms) =
            rec.operation("table2.cold", 0, |_| self.run(checkpoint.clone(), true));
        let (warm, warm_ms) = rec.operation("table2.resume", 0, |_| self.run(checkpoint, false));
        let (cold, warm) = cold
            .zip(warm)
            .ok_or("run_table2 failed its checks in the traced pass")?;
        let same = cold
            .methods
            .iter()
            .zip(&warm.methods)
            .all(|(a, b)| a.medape.map(f64::to_bits) == b.medape.map(f64::to_bits));
        if !same {
            return Err("the resumed run_table2 did not reproduce the cold run's MedAPE".into());
        }
        out.insert("obs.trace_overhead_share".into(), cold_ms / op_ms - 1.0);
        // `table2.resume_share` comes from the resume span, like every layer
        out.insert("table2.truth_share".into(), (cold_ms - warm_ms) / op_ms);
        Ok(())
    }
}
