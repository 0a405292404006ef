//! The compressor plugin abstraction, mirroring `libpressio_compressor_plugin`.

use crate::chunking;
use crate::data::{Data, Dtype};
use crate::error::Result;
use crate::metrics::MetricsPlugin;
use crate::options::Options;

/// A lossy (or lossless) compressor plugin.
///
/// Implementations are configured through [`Options`] (`set_options`), expose
/// their current configuration (`get_options`) and static capabilities
/// (`get_configuration`), and provide `compress`/`decompress`. The
/// configuration structure carries the `predictors:*` invalidation metadata
/// the prediction framework uses to decide which cached metrics survive a
/// settings change (paper §4.2).
pub trait Compressor: Send + Sync {
    /// Stable identifier (`"sz3"`, `"zfp"`), used in registries and
    /// experiment metadata.
    fn id(&self) -> &'static str;

    /// Apply settings. Unknown keys are ignored (LibPressio convention) so a
    /// combined option structure can be broadcast to several plugins.
    fn set_options(&mut self, opts: &Options) -> Result<()>;

    /// Current settings, suitable for hashing into a checkpoint key.
    fn get_options(&self) -> Options;

    /// Static capabilities: supported dtypes, error-bound modes, and
    /// invalidation metadata (which settings are error-affecting).
    fn get_configuration(&self) -> Options;

    /// The error-dependent settings alone: the entries of `get_options`
    /// that `get_configuration` lists under
    /// `predictors:error_dependent_settings` (all of them when it lists
    /// none). A codec that knows these without building both structures
    /// overrides this; the result must not change.
    fn error_settings(&self) -> Options {
        let options = self.get_options();
        let configuration = self.get_configuration();
        match configuration.get_str_slice("predictors:error_dependent_settings") {
            Ok(keys) => {
                let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                options.extract(&keys)
            }
            Err(_) => options,
        }
    }

    /// Compress `input` into a standalone byte stream.
    fn compress(&self, input: &Data) -> Result<Vec<u8>>;

    /// Decompress `compressed`, producing a buffer of the given type/shape.
    fn decompress(&self, compressed: &[u8], dtype: Dtype, dims: &[usize]) -> Result<Data>;

    /// Clone into a boxed trait object (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Compressor>;

    /// Streaming entry point: encode one outer-axis chunk, alone (`carry` is
    /// `None`) or as the next chunk of a chained stream, whose
    /// [`chunking::Carry`] holds the previous chunk's last *decoded* slice
    /// and the codec's memo. Returns the compressed bytes plus the decoded
    /// reconstruction — the frame layer checksums it and carries its last
    /// slice into the next chunk.
    ///
    /// Provided as compress then decompress, with no memo. A codec that
    /// already holds the decoder's reconstruction when it has compressed,
    /// or that remembers something across a stream's chunks, overrides this
    /// through [`chunking::encode_chunk_with`].
    fn encode_chunk(
        &self,
        chunk: &Data,
        carry: Option<&mut chunking::Carry>,
    ) -> Result<(Vec<u8>, Data)> {
        chunking::encode_chunk_with(chunk, carry, |payload, _| {
            let compressed = self.compress(payload)?;
            let decoded = self.decompress(&compressed, payload.dtype(), payload.dims())?;
            Ok((compressed, decoded))
        })
    }

    /// Streaming decode mirror of [`Compressor::encode_chunk`].
    fn decode_chunk(
        &self,
        compressed: &[u8],
        dtype: Dtype,
        dims: &[usize],
        carried: Option<&Data>,
    ) -> Result<Data> {
        chunking::decode_chunk_stateful(self, compressed, dtype, dims, carried)
    }
}

impl Clone for Box<dyn Compressor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A compressor wrapped with a stack of metrics plugins.
///
/// Mirrors LibPressio's pattern of attaching metrics to a compressor handle:
/// every `compress`/`decompress` call fires the `begin_*`/`end_*` hooks of
/// each attached [`MetricsPlugin`] (Figure 3 of the paper), and
/// [`InstrumentedCompressor::metrics_results`] gathers their combined output.
pub struct InstrumentedCompressor {
    inner: Box<dyn Compressor>,
    metrics: Vec<Box<dyn MetricsPlugin>>,
}

impl InstrumentedCompressor {
    /// Wrap `inner` with no metrics attached.
    pub fn new(inner: Box<dyn Compressor>) -> Self {
        InstrumentedCompressor {
            inner,
            metrics: Vec::new(),
        }
    }

    /// Attach a metrics plugin; hooks fire in attachment order.
    pub fn attach(&mut self, metric: Box<dyn MetricsPlugin>) -> &mut Self {
        self.metrics.push(metric);
        self
    }

    /// Builder-style [`InstrumentedCompressor::attach`].
    pub fn with_metric(mut self, metric: Box<dyn MetricsPlugin>) -> Self {
        self.attach(metric);
        self
    }

    /// Access the wrapped compressor.
    pub fn compressor(&self) -> &dyn Compressor {
        self.inner.as_ref()
    }

    /// Forward settings to the compressor **and** every attached metric.
    pub fn set_options(&mut self, opts: &Options) -> Result<()> {
        self.inner.set_options(opts)?;
        for m in &mut self.metrics {
            m.set_options(opts)?;
        }
        Ok(())
    }

    /// Compress with metric hooks.
    pub fn compress(&mut self, input: &Data) -> Result<Vec<u8>> {
        for m in &mut self.metrics {
            m.begin_compress(input)?;
        }
        let result = self.inner.compress(input);
        for m in &mut self.metrics {
            m.end_compress(input, result.as_deref().unwrap_or(&[]), result.is_ok())?;
        }
        result
    }

    /// Decompress with metric hooks.
    pub fn decompress(&mut self, compressed: &[u8], dtype: Dtype, dims: &[usize]) -> Result<Data> {
        for m in &mut self.metrics {
            m.begin_decompress(compressed)?;
        }
        let result = self.inner.decompress(compressed, dtype, dims);
        for m in &mut self.metrics {
            match &result {
                Ok(out) => m.end_decompress(compressed, Some(out), true)?,
                Err(_) => m.end_decompress(compressed, None, false)?,
            }
        }
        result
    }

    /// Union of all attached metrics' results. Later plugins win on key
    /// collisions (attachment order is the precedence order).
    pub fn metrics_results(&self) -> Options {
        let mut out = Options::new();
        for m in &self.metrics {
            out.merge_from(&m.results());
        }
        out
    }

    /// Union of all attached metrics' invalidation metadata
    /// (`predictors:invalidate` lists), keyed by metric id.
    pub fn metrics_configuration(&self) -> Options {
        let mut out = Options::new();
        for m in &self.metrics {
            let cfg = m.get_configuration();
            for (k, v) in cfg.iter() {
                out.set(format!("{}:{k}", m.id()), v.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    /// A compressor that truncates every f32 toward zero — enough structure
    /// to exercise the instrumentation plumbing.
    #[derive(Clone, Default)]
    struct TruncCompressor {
        opts: Options,
    }

    impl Compressor for TruncCompressor {
        fn id(&self) -> &'static str {
            "trunc"
        }
        fn set_options(&mut self, opts: &Options) -> Result<()> {
            self.opts.merge_from(opts);
            Ok(())
        }
        fn get_options(&self) -> Options {
            self.opts.clone()
        }
        fn get_configuration(&self) -> Options {
            Options::new().with("pressio:thread_safe", true)
        }
        fn compress(&self, input: &Data) -> Result<Vec<u8>> {
            let vals = input.as_f32()?;
            Ok(vals.iter().map(|v| v.trunc() as i8 as u8).collect())
        }
        fn decompress(&self, compressed: &[u8], dtype: Dtype, dims: &[usize]) -> Result<Data> {
            if dtype != Dtype::F32 {
                return Err(Error::UnsupportedData("trunc is f32 only".into()));
            }
            Ok(Data::from_f32(
                dims.to_vec(),
                compressed.iter().map(|&b| b as i8 as f32).collect(),
            ))
        }
        fn clone_box(&self) -> Box<dyn Compressor> {
            Box::new(self.clone())
        }
    }

    /// Counts hook invocations.
    #[derive(Default)]
    struct CountingMetric {
        begins: u32,
        ends: u32,
        d_begins: u32,
        d_ends: u32,
    }

    impl MetricsPlugin for CountingMetric {
        fn id(&self) -> &'static str {
            "count"
        }
        fn begin_compress(&mut self, _input: &Data) -> Result<()> {
            self.begins += 1;
            Ok(())
        }
        fn end_compress(&mut self, _input: &Data, _compressed: &[u8], _ok: bool) -> Result<()> {
            self.ends += 1;
            Ok(())
        }
        fn begin_decompress(&mut self, _compressed: &[u8]) -> Result<()> {
            self.d_begins += 1;
            Ok(())
        }
        fn end_decompress(
            &mut self,
            _compressed: &[u8],
            _output: Option<&Data>,
            _ok: bool,
        ) -> Result<()> {
            self.d_ends += 1;
            Ok(())
        }
        fn results(&self) -> Options {
            Options::new()
                .with("count:begin_compress", self.begins as u64)
                .with("count:end_compress", self.ends as u64)
                .with("count:begin_decompress", self.d_begins as u64)
                .with("count:end_decompress", self.d_ends as u64)
        }
    }

    #[test]
    fn hooks_fire_in_pairs() {
        let mut ic = InstrumentedCompressor::new(Box::new(TruncCompressor::default()))
            .with_metric(Box::new(CountingMetric::default()));
        let data = Data::from_f32(vec![4], vec![1.5, -2.5, 3.0, 0.0]);
        let bytes = ic.compress(&data).unwrap();
        let back = ic.decompress(&bytes, Dtype::F32, &[4]).unwrap();
        assert_eq!(back.as_f32().unwrap(), &[1.0, -2.0, 3.0, 0.0]);
        let r = ic.metrics_results();
        assert_eq!(r.get_u64("count:begin_compress").unwrap(), 1);
        assert_eq!(r.get_u64("count:end_compress").unwrap(), 1);
        assert_eq!(r.get_u64("count:begin_decompress").unwrap(), 1);
        assert_eq!(r.get_u64("count:end_decompress").unwrap(), 1);
    }

    #[test]
    fn boxed_compressor_clones() {
        let boxed: Box<dyn Compressor> = Box::new(TruncCompressor::default());
        let cloned = boxed.clone();
        assert_eq!(cloned.id(), "trunc");
    }

    #[test]
    fn set_options_reaches_compressor() {
        let mut ic = InstrumentedCompressor::new(Box::new(TruncCompressor::default()));
        ic.set_options(&Options::new().with("pressio:abs", 0.1))
            .unwrap();
        assert_eq!(
            ic.compressor()
                .get_options()
                .get_f64("pressio:abs")
                .unwrap(),
            0.1
        );
    }
}
