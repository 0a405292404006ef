//! # pressio-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index):
//!
//! | target | reproduces |
//! |---|---|
//! | `--bin table1` | Table 1 (method taxonomy, from live registry metadata) |
//! | `--bin table2` | Table 2 (Hurricane stage timings + MedAPE, 10-fold CV) |
//! | `--bin fig2_pipeline` | Figure 2 (dataset-loader pipeline: cold vs cached vs sampled) |
//! | `pressio bench --ablation <name>` | the ten ablations ([`ablations::NAMES`] plus `affinity` and `checkpoint`) |
//!
//! Binaries accept `--quick` for a reduced problem size and
//! `--timesteps N` / `--dims NX,NY,NZ` to re-scale the synthetic Hurricane.

#![warn(missing_docs)]

pub mod ablations;

use pressio_dataset::Hurricane;

/// Simple CLI options shared by the bench binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Grid dims of the synthetic hurricane.
    pub dims: (usize, usize, usize),
    /// Timesteps to generate.
    pub timesteps: usize,
    /// Reduced preset requested.
    pub quick: bool,
    /// Evaluate every registered scheme, not just the paper's three.
    pub all_schemes: bool,
    /// Worker threads.
    pub workers: usize,
    /// Write a JSONL observability trace to this path.
    pub trace: Option<std::path::PathBuf>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            dims: (64, 64, 32),
            timesteps: 48,
            quick: false,
            all_schemes: false,
            // match the hardware: timing columns are only meaningful
            // without thread oversubscription (scheduling demos that need
            // multiple workers request them explicitly)
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            trace: None,
        }
    }
}

impl BenchArgs {
    /// Parse from `std::env::args()`-style input. Unknown flags abort with
    /// a usage message (fail-fast beats silently ignored typos).
    pub fn parse(args: impl Iterator<Item = String>) -> BenchArgs {
        let mut out = BenchArgs::default();
        let mut it = args.peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => {
                    out.quick = true;
                    out.dims = (32, 32, 16);
                    out.timesteps = 6;
                }
                "--all-schemes" => out.all_schemes = true,
                "--timesteps" => {
                    out.timesteps = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--timesteps needs a number"));
                }
                "--workers" => {
                    out.workers = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--workers needs a number"));
                }
                "--trace" => {
                    let path = it.next().unwrap_or_else(|| usage("--trace needs a path"));
                    out.trace = Some(std::path::PathBuf::from(path));
                }
                "--dims" => {
                    let spec = it.next().unwrap_or_else(|| usage("--dims needs NX,NY,NZ"));
                    let parts: Vec<usize> =
                        spec.split(',').filter_map(|p| p.parse().ok()).collect();
                    if parts.len() != 3 {
                        usage("--dims needs NX,NY,NZ");
                    }
                    out.dims = (parts[0], parts[1], parts[2]);
                }
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        out
    }

    /// Build the hurricane generator for these args.
    pub fn hurricane(&self) -> Hurricane {
        Hurricane::with_dims(self.dims.0, self.dims.1, self.dims.2, self.timesteps)
    }

    /// Scheme list for the Table 2 run.
    pub fn schemes(&self) -> Vec<String> {
        if self.all_schemes {
            pressio_predict::standard_schemes()
                .names()
                .into_iter()
                .map(String::from)
                .collect()
        } else {
            vec!["khan2023".into(), "jin2022".into(), "rahman2023".into()]
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: [--quick] [--all-schemes] [--timesteps N] [--dims NX,NY,NZ] [--workers N] [--trace PATH]"
    );
    std::process::exit(2)
}

/// Install the process-global observability collector for this run when
/// `--trace PATH` was given: every span/counter/gauge is aggregated in
/// memory and streamed to `PATH` as JSON lines. Returns the collector so
/// the caller can render [`print_obs_summary`] at the end; `None` means
/// tracing is off and all instrumentation stays a near-free no-op.
pub fn init_tracing(args: &BenchArgs) -> Option<std::sync::Arc<pressio_obs::Collector>> {
    let path = args.trace.as_deref()?;
    let sink = match pressio_obs::JsonlSink::create(path) {
        Ok(sink) => sink,
        Err(e) => {
            eprintln!("error: cannot create trace file {}: {e}", path.display());
            std::process::exit(2)
        }
    };
    let collector = std::sync::Arc::new(pressio_obs::Collector::with_sink(Box::new(sink)));
    pressio_obs::install(collector.clone());
    Some(collector)
}

/// Uninstall the global collector, flush the trace file, and print the
/// aggregate report (per-span mean ± sd tables, counters, gauges) to
/// stdout. A no-op when [`init_tracing`] returned `None`.
pub fn print_obs_summary(collector: Option<std::sync::Arc<pressio_obs::Collector>>) {
    let Some(collector) = collector else { return };
    let _ = pressio_obs::uninstall();
    collector.flush();
    println!("\n## Observability report\n");
    print!("{}", collector.report().format());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_paper_scale() {
        let a = parse(&[]);
        assert_eq!(a.timesteps, 48);
        assert!(!a.quick);
        assert_eq!(a.schemes().len(), 3);
    }

    #[test]
    fn quick_reduces_scale() {
        let a = parse(&["--quick"]);
        assert!(a.quick);
        assert!(a.timesteps < 48);
    }

    #[test]
    fn dims_and_timesteps_parse() {
        let a = parse(&["--dims", "10,20,30", "--timesteps", "5", "--workers", "2"]);
        assert_eq!(a.dims, (10, 20, 30));
        assert_eq!(a.timesteps, 5);
        assert_eq!(a.workers, 2);
        let h = a.hurricane();
        assert_eq!(h.dims(), vec![10, 20, 30]);
    }

    #[test]
    fn all_schemes_expands_list() {
        let a = parse(&["--all-schemes"]);
        assert!(a.schemes().len() >= 7);
    }

    #[test]
    fn trace_flag_parses_and_round_trips() {
        let dir = std::env::temp_dir().join("pressio_bench_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let a = parse(&["--trace", path.to_str().unwrap()]);
        assert_eq!(a.trace.as_deref(), Some(path.as_path()));

        let collector = init_tracing(&a).expect("tracing enabled");
        pressio_obs::record_ms("bench:test_stage", 2.0);
        print_obs_summary(Some(collector.clone()));
        assert!(!pressio_obs::is_enabled(), "summary must uninstall");
        let (events, skipped) = pressio_obs::read_trace(&path).unwrap();
        assert_eq!(skipped, 0);
        assert!(events.iter().any(|e| e.name() == "bench:test_stage"));
        assert_eq!(collector.report().spans["bench:test_stage"].count(), 1);
    }

    #[test]
    fn no_trace_flag_disables_tracing() {
        let a = parse(&[]);
        assert!(a.trace.is_none());
        assert!(init_tracing(&a).is_none());
        print_obs_summary(None);
    }
}
