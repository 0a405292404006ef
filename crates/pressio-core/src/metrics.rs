//! Metrics plugins — the hook API of Figure 3, plus the built-in metrics
//! (`time`, `size`, `error_stat`) that ship with LibPressio and that the
//! prediction framework builds on.

use crate::bound::{finite_extrema, finite_range};
use crate::data::Data;
use crate::error::Result;
use crate::options::Options;
use std::time::Instant;

/// Special invalidation keys recognized by the prediction framework
/// (paper §4.2). A metric lists, in its configuration under
/// `predictors:invalidate`, either concrete setting names
/// (e.g. `"sz3:predictor"`) or one of these classes.
pub mod invalidations {
    /// The metric's value changes when any error-affecting setting changes.
    pub const ERROR_DEPENDENT: &str = "predictors:error_dependent";
    /// The metric depends only on the data, never on compressor settings.
    pub const ERROR_AGNOSTIC: &str = "predictors:error_agnostic";
    /// The metric depends on runtime factors (thread counts, machine load).
    pub const RUNTIME: &str = "predictors:runtime";
    /// The metric varies between runs with identical inputs (randomized
    /// algorithms); callers may want replicates.
    pub const NONDETERMINISTIC: &str = "predictors:nondeterministic";
    /// Pseudo-key used by callers to request training-only metrics; never
    /// listed by a metric itself (paper §4.2 footnote 2).
    pub const TRAINING: &str = "predictors:training";
}

/// A metrics plugin observing compressor activity through hooks.
///
/// Rust rendering of the C++ API in Figure 3: error-*agnostic* metrics
/// typically implement only [`MetricsPlugin::begin_compress`] (they see the
/// uncompressed input); error-*dependent* metrics also implement
/// [`MetricsPlugin::end_decompress`] to compare input and output. Results are
/// returned as an [`Options`] structure from [`MetricsPlugin::results`].
pub trait MetricsPlugin: Send {
    /// Stable identifier used to namespace result keys.
    fn id(&self) -> &'static str;

    /// Called with the uncompressed input before compression begins.
    fn begin_compress(&mut self, _input: &Data) -> Result<()> {
        Ok(())
    }

    /// Called after compression with the produced stream (empty on failure).
    fn end_compress(&mut self, _input: &Data, _compressed: &[u8], _ok: bool) -> Result<()> {
        Ok(())
    }

    /// Called with the compressed stream before decompression begins.
    fn begin_decompress(&mut self, _compressed: &[u8]) -> Result<()> {
        Ok(())
    }

    /// Called after decompression with the reconstructed buffer.
    fn end_decompress(
        &mut self,
        _compressed: &[u8],
        _output: Option<&Data>,
        _ok: bool,
    ) -> Result<()> {
        Ok(())
    }

    /// Collected results so far, namespaced `"{id}:{name}"`.
    fn results(&self) -> Options;

    /// Apply settings; default accepts and ignores everything.
    fn set_options(&mut self, _opts: &Options) -> Result<()> {
        Ok(())
    }

    /// Current settings.
    fn get_options(&self) -> Options {
        Options::new()
    }

    /// Static metadata, including the `predictors:invalidate` list.
    fn get_configuration(&self) -> Options {
        Options::new()
    }
}

/// Wall-clock timing of compress/decompress calls (`time:*`).
#[derive(Default)]
pub struct TimeMetrics {
    compress_start: Option<Instant>,
    decompress_start: Option<Instant>,
    compress_ms: Option<f64>,
    decompress_ms: Option<f64>,
}

impl TimeMetrics {
    /// Fresh, with no observations.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricsPlugin for TimeMetrics {
    fn id(&self) -> &'static str {
        "time"
    }

    fn begin_compress(&mut self, _input: &Data) -> Result<()> {
        self.compress_start = Some(Instant::now());
        Ok(())
    }

    fn end_compress(&mut self, _input: &Data, _compressed: &[u8], _ok: bool) -> Result<()> {
        if let Some(t0) = self.compress_start.take() {
            self.compress_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    }

    fn begin_decompress(&mut self, _compressed: &[u8]) -> Result<()> {
        self.decompress_start = Some(Instant::now());
        Ok(())
    }

    fn end_decompress(
        &mut self,
        _compressed: &[u8],
        _output: Option<&Data>,
        _ok: bool,
    ) -> Result<()> {
        if let Some(t0) = self.decompress_start.take() {
            self.decompress_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    }

    fn results(&self) -> Options {
        let mut o = Options::new();
        if let Some(ms) = self.compress_ms {
            o.set("time:compress_ms", ms);
        }
        if let Some(ms) = self.decompress_ms {
            o.set("time:decompress_ms", ms);
        }
        o
    }

    fn get_configuration(&self) -> Options {
        Options::new().with(
            "predictors:invalidate",
            vec![
                invalidations::RUNTIME.to_string(),
                invalidations::NONDETERMINISTIC.to_string(),
            ],
        )
    }
}

/// Size accounting: uncompressed/compressed bytes, compression ratio,
/// bit rate (`size:*`).
#[derive(Default)]
pub struct SizeMetrics {
    uncompressed: Option<u64>,
    compressed: Option<u64>,
    num_elements: Option<u64>,
}

impl SizeMetrics {
    /// Fresh, with no observations.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricsPlugin for SizeMetrics {
    fn id(&self) -> &'static str {
        "size"
    }

    fn end_compress(&mut self, input: &Data, compressed: &[u8], ok: bool) -> Result<()> {
        if ok {
            self.uncompressed = Some(input.size_in_bytes() as u64);
            self.compressed = Some(compressed.len() as u64);
            self.num_elements = Some(input.num_elements() as u64);
        }
        Ok(())
    }

    fn results(&self) -> Options {
        let mut o = Options::new();
        if let (Some(u), Some(c), Some(n)) = (self.uncompressed, self.compressed, self.num_elements)
        {
            o.set("size:uncompressed_size", u);
            o.set("size:compressed_size", c);
            if c > 0 {
                o.set("size:compression_ratio", u as f64 / c as f64);
            }
            if n > 0 {
                o.set("size:bit_rate", (c as f64 * 8.0) / n as f64);
            }
        }
        o
    }

    fn get_configuration(&self) -> Options {
        Options::new().with(
            "predictors:invalidate",
            vec![invalidations::ERROR_DEPENDENT.to_string()],
        )
    }
}

/// Pointwise reconstruction-error statistics (`error_stat:*`): max abs error,
/// MSE, RMSE, PSNR, value range. The paper notes this metric mixes error-
/// dependent results with error-agnostic ones (the input's value range), so
/// its configuration lists both classes keyed per result.
#[derive(Default)]
pub struct ErrorStatMetrics {
    input: Option<Vec<f64>>,
    results: Options,
}

impl ErrorStatMetrics {
    /// Fresh, with no observations.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricsPlugin for ErrorStatMetrics {
    fn id(&self) -> &'static str {
        "error_stat"
    }

    /// Min, max and range of the finite values, which `pressio:rel` scales.
    fn begin_compress(&mut self, input: &Data) -> Result<()> {
        let vals = input.to_f64_vec();
        if let Some((lo, hi)) = finite_extrema(&vals) {
            self.results.set("error_stat:value_min", lo);
            self.results.set("error_stat:value_max", hi);
        }
        self.results
            .set("error_stat:value_range", finite_range(&vals));
        self.input = Some(vals);
        Ok(())
    }

    fn end_decompress(
        &mut self,
        _compressed: &[u8],
        output: Option<&Data>,
        ok: bool,
    ) -> Result<()> {
        let (Some(input), Some(output), true) = (self.input.as_ref(), output, ok) else {
            return Ok(());
        };
        let out = output.to_f64_vec();
        if out.len() != input.len() {
            return Ok(());
        }
        // the codecs store non-finite values exactly
        let (mut n, mut max_abs, mut sse) = (0usize, 0.0f64, 0.0f64);
        for (a, b) in input.iter().zip(&out).filter(|(a, _)| a.is_finite()) {
            let d = (a - b).abs();
            max_abs = max_abs.max(d);
            sse += d * d;
            n += 1;
        }
        let mse = sse / n.max(1) as f64;
        let range = self
            .results
            .get_f64("error_stat:value_range")
            .unwrap_or(0.0);
        self.results.set("error_stat:max_error", max_abs);
        self.results.set("error_stat:mse", mse);
        self.results.set("error_stat:rmse", mse.sqrt());
        if mse > 0.0 && range > 0.0 {
            self.results
                .set("error_stat:psnr", 20.0 * (range / mse.sqrt()).log10());
        }
        Ok(())
    }

    fn results(&self) -> Options {
        self.results.clone()
    }

    fn get_configuration(&self) -> Options {
        // The mixed-class listing the paper describes for error_stat:
        // range statistics are error-agnostic; the error statistics are
        // error-dependent.
        Options::new()
            .with(
                "predictors:error_agnostic",
                vec![
                    "error_stat:value_min".to_string(),
                    "error_stat:value_max".to_string(),
                    "error_stat:value_range".to_string(),
                ],
            )
            .with(
                "predictors:error_dependent",
                vec![
                    "error_stat:max_error".to_string(),
                    "error_stat:mse".to_string(),
                    "error_stat:rmse".to_string(),
                    "error_stat:psnr".to_string(),
                ],
            )
            .with(
                "predictors:invalidate",
                vec![invalidations::ERROR_DEPENDENT.to_string()],
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_metrics_compute_ratio() {
        let mut m = SizeMetrics::new();
        let data = Data::from_f32(vec![8], vec![0.0; 8]); // 32 bytes
        m.end_compress(&data, &[0u8; 8], true).unwrap();
        let r = m.results();
        assert_eq!(r.get_u64("size:uncompressed_size").unwrap(), 32);
        assert_eq!(r.get_u64("size:compressed_size").unwrap(), 8);
        assert_eq!(r.get_f64("size:compression_ratio").unwrap(), 4.0);
        assert_eq!(r.get_f64("size:bit_rate").unwrap(), 8.0);
    }

    #[test]
    fn size_metrics_skip_failed_compress() {
        let mut m = SizeMetrics::new();
        let data = Data::from_f32(vec![2], vec![0.0; 2]);
        m.end_compress(&data, &[], false).unwrap();
        assert!(m.results().is_empty());
    }

    #[test]
    fn error_stat_range_then_errors() {
        let mut m = ErrorStatMetrics::new();
        let input = Data::from_f64(vec![4], vec![0.0, 1.0, 2.0, 3.0]);
        m.begin_compress(&input).unwrap();
        let r = m.results();
        assert_eq!(r.get_f64("error_stat:value_range").unwrap(), 3.0);

        let output = Data::from_f64(vec![4], vec![0.1, 1.0, 2.0, 2.9]);
        m.end_decompress(&[], Some(&output), true).unwrap();
        let r = m.results();
        let max_err = r.get_f64("error_stat:max_error").unwrap();
        assert!((max_err - 0.1).abs() < 1e-12);
        assert!(r.get_f64("error_stat:psnr").unwrap() > 0.0);
    }

    #[test]
    fn error_stat_exact_reconstruction_has_zero_error() {
        let mut m = ErrorStatMetrics::new();
        let input = Data::from_f64(vec![3], vec![5.0, 6.0, 7.0]);
        m.begin_compress(&input).unwrap();
        m.end_decompress(&[], Some(&input.clone()), true).unwrap();
        let r = m.results();
        assert_eq!(r.get_f64("error_stat:max_error").unwrap(), 0.0);
        assert_eq!(r.get_f64("error_stat:mse").unwrap(), 0.0);
        // psnr undefined (infinite) for exact reconstruction: key absent
        assert!(r.get_f64_opt("error_stat:psnr").unwrap().is_none());
    }

    /// An infinity, which the codecs store exactly, neither widens the
    /// range nor enters the error: PSNR is the finite values'.
    #[test]
    fn error_stat_leaves_non_finite_originals_out() {
        let measure = |input: Vec<f64>, output: Vec<f64>| {
            let mut m = ErrorStatMetrics::new();
            m.begin_compress(&Data::from_f64(vec![input.len()], input))
                .unwrap();
            m.end_decompress(&[], Some(&Data::from_f64(vec![output.len()], output)), true)
                .unwrap();
            m.results()
        };
        let finite = measure(vec![0.0, 1.0, 2.0, 3.0], vec![0.1, 1.0, 2.0, 2.9]);
        let salted = measure(
            vec![0.0, f64::INFINITY, 1.0, f64::NAN, 2.0, 3.0],
            vec![0.1, f64::INFINITY, 1.0, f64::NAN, 2.0, 2.9],
        );
        assert_eq!(salted.get_f64("error_stat:value_range").unwrap(), 3.0);
        assert_eq!(salted.get_f64("error_stat:value_max").unwrap(), 3.0);
        for key in ["error_stat:max_error", "error_stat:mse", "error_stat:psnr"] {
            assert_eq!(
                salted.get_f64(key).unwrap(),
                finite.get_f64(key).unwrap(),
                "{key}"
            );
        }
        // nothing finite: no extrema, range 0, no PSNR
        let none = measure(vec![f64::NAN, f64::INFINITY], vec![f64::NAN, f64::INFINITY]);
        assert_eq!(none.get_f64("error_stat:value_range").unwrap(), 0.0);
        assert!(!none.contains("error_stat:value_min"));
        assert!(!none.contains("error_stat:psnr"));
    }

    #[test]
    fn time_metrics_report_positive_durations() {
        let mut m = TimeMetrics::new();
        let data = Data::from_f32(vec![1], vec![0.0]);
        m.begin_compress(&data).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.end_compress(&data, &[], true).unwrap();
        let r = m.results();
        assert!(r.get_f64("time:compress_ms").unwrap() >= 1.0);
    }

    #[test]
    fn invalidation_metadata_present() {
        let cfg = SizeMetrics::new().get_configuration();
        let inv = cfg.get_str_slice("predictors:invalidate").unwrap();
        assert!(inv.contains(&invalidations::ERROR_DEPENDENT.to_string()));
    }
}
