//! The checkpoint-restart ablation (paper §3/§4.3 — "fine-grained
//! checkpoint restart allows us to re-run only the affected results
//! quickly"), run by `pressio bench --ablation checkpoint`.
//!
//! Runs the ground-truth collection of the Table 2 experiment twice
//! against the same checkpoint store: the cold run computes everything,
//! the warm run must reuse every record (zero recomputes) and finish much
//! faster — the restart speedup the paper claims.

use crate::experiment::{run_table2, Table2Config};
use pressio_core::error::{Error, Result};
use pressio_dataset::Hurricane;
use std::path::PathBuf;
use std::time::Instant;

/// Problem size for the ablation.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Synthetic hurricane grid dims.
    pub dims: (usize, usize, usize),
    /// Worker threads for ground-truth collection.
    pub workers: usize,
    /// Reduced preset (fewer timesteps / bounds) for CI-speed runs.
    pub quick: bool,
    /// Checkpoint log path; defaults to a temp file, removed afterwards.
    pub checkpoint: Option<PathBuf>,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            dims: (16, 16, 8),
            workers: 2,
            quick: true,
            checkpoint: None,
        }
    }
}

/// Measurements from the cold + warm run pair.
#[derive(Debug, Clone)]
pub struct RestartReport {
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
    pub fn speedup(&self) -> f64 {
        self.cold_s / self.warm_s.max(1e-9)
    }
}

/// Run the checkpointed-restart-vs-recompute-all ablation.
pub fn run_checkpoint_ablation(config: &RestartConfig) -> Result<RestartReport> {
    let ckpt = config.checkpoint.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "pressio_ablation_checkpoint-{}.jsonl",
            std::process::id()
        ))
    });
    let _ = std::fs::remove_file(&ckpt);
    let cfg = Table2Config {
        schemes: vec!["khan2023".into()],
        compressors: vec!["sz3".into(), "zfp".into()],
        abs_bounds: if config.quick {
            vec![1e-4]
        } else {
            vec![1e-6, 1e-4]
        },
        folds: 3,
        seed: 1,
        workers: config.workers,
        checkpoint: Some(ckpt.clone()),
    };
    let timesteps = if config.quick { 2 } else { 8 };
    let mut hurricane =
        Hurricane::with_dims(config.dims.0, config.dims.1, config.dims.2, timesteps);

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

/// Human-readable report, matching the old binary's output shape.
pub fn format_checkpoint(report: &RestartReport) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_run_reuses_every_checkpoint_record() {
        let report = run_checkpoint_ablation(&RestartConfig {
            dims: (8, 8, 4),
            workers: 2,
            quick: true,
            checkpoint: None,
        })
        .unwrap();
        assert!(report.cold_misses > 0, "cold run must compute something");
        assert_eq!(report.warm_misses, 0);
        assert_eq!(report.warm_hits, report.cold_misses);
        let text = format_checkpoint(&report);
        assert!(text.contains("restart speedup"), "{text}");
    }
}
