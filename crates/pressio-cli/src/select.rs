//! `pressio select <compress|decompress|explain>`: the `pressio-select`
//! meta-codec, which picks the compressor per buffer.

use crate::args::{usage_error, Args};
use crate::codec::{check_output_shape, required};
use pressio_core::error::Result;
use pressio_core::fs::publish;
use pressio_core::metrics::ErrorStatMetrics;
use pressio_core::{Compressor, MetricsPlugin, Options};
use pressio_dataset::io::read_raw;
use pressio_serve::Endpoint;
use std::io::Write;
use std::path::PathBuf;

/// The three `pressio select` actions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectAction {
    /// Consult, pick a winner, write a self-describing container.
    Compress,
    /// Header-driven decompression (no out-of-band shape needed).
    Decompress,
    /// Print the audited decision record of a container.
    Explain,
}

/// Auto-select the compressor per buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// What to do with the selected container.
    pub action: SelectAction,
    /// Input file (raw for compress, container otherwise).
    pub input: PathBuf,
    /// Output file (compress/decompress only).
    pub output: Option<PathBuf>,
    /// Consult mode: `trial` (in-process sampling, default), `remote`
    /// (query a serve daemon), or `static` (no prediction).
    pub consult: String,
    /// Daemon endpoint for remote consult.
    pub endpoint: Option<Endpoint>,
    /// Model name prefix for remote consult (`<prefix>-<codec>`).
    pub model: Option<String>,
    /// Selection options (`select:psnr`, `select:bounds`, ...).
    pub options: Options,
    /// After compressing, decompress again and report the measured
    /// PSNR against the policy floor.
    pub verify: bool,
}

impl Select {
    pub(crate) fn from_args(a: Args) -> Result<Select> {
        let action = match a.action.as_deref() {
            Some("compress") => SelectAction::Compress,
            Some("decompress") => SelectAction::Decompress,
            Some("explain") => SelectAction::Explain,
            other => {
                return Err(usage_error(&format!(
                    "select needs an action <compress|decompress|explain>, got {:?}",
                    other.unwrap_or("nothing")
                )))
            }
        };
        if action != SelectAction::Explain && a.output.is_none() {
            return Err(usage_error("select compress/decompress require --output"));
        }
        if a.consult == "remote" && a.endpoint.is_none() {
            return Err(usage_error(
                "select --consult remote requires --socket or --tcp",
            ));
        }
        Ok(Select {
            action,
            input: required("select", "input", a.input)?,
            output: a.output,
            consult: a.consult,
            endpoint: a.endpoint,
            model: a.model,
            options: a.options,
            verify: a.verify,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        match self.action {
            SelectAction::Compress => self.compress(out),
            SelectAction::Decompress => self.decompress(out),
            SelectAction::Explain => self.explain(out),
        }
    }

    fn output(&self) -> &PathBuf {
        self.output.as_ref().expect("parser enforces --output")
    }

    fn compress(&self, out: &mut impl Write) -> Result<()> {
        let data = read_raw(&self.input)?;
        let mut codec = pressio_select::SelectCodec::new();
        let mut opts = self
            .options
            .clone()
            .with("select:consult", self.consult.as_str());
        if let Some(ep) = &self.endpoint {
            opts.set("select:endpoint", ep.to_string());
        }
        if let Some(model) = &self.model {
            opts.set("select:model", model.as_str());
        }
        codec.set_options(&opts)?;
        let container = codec.compress(&data)?;
        publish(self.output(), |w| Ok(w.write_all(&container)?))?;
        let (record, _) = pressio_select::decode_header(&container)?;
        writeln!(
            out,
            "selected {} @ abs {:e} via {} consult{} ({} -> {} bytes, ratio {:.2})",
            record.codec,
            record.abs,
            record.consult,
            if record.fallback { " [fallback]" } else { "" },
            data.size_in_bytes(),
            container.len(),
            data.size_in_bytes() as f64 / container.len().max(1) as f64
        )?;
        if self.verify {
            let restored = codec.decompress(&container, record.dtype, &[])?;
            let mut error = ErrorStatMetrics::new();
            error.begin_compress(&data)?;
            error.end_decompress(&container, Some(&restored), true)?;
            // absent where nothing was lost
            let psnr = error.results().get_f64_opt("error_stat:psnr")?;
            let psnr = psnr.unwrap_or(f64::INFINITY);
            writeln!(
                out,
                "measured psnr: {psnr:.1} dB (policy {})",
                record.policy
            )?;
        }
        Ok(())
    }

    fn decompress(&self, out: &mut impl Write) -> Result<()> {
        let container = std::fs::read(&self.input)?;
        let (record, _) = pressio_select::decode_header(&container)?;
        let codec = pressio_select::SelectCodec::new();
        let data = codec.decompress(&container, record.dtype, &[])?;
        let output = self.output();
        check_output_shape(
            output,
            "select:dims",
            "container",
            record.dtype,
            &record.dims,
        )?;
        publish(output, |w| Ok(w.write_all(&data.to_le_bytes())?))?;
        writeln!(
            out,
            "{} -> {} ({} values, {} @ abs {:e})",
            self.input.display(),
            output.display(),
            data.num_elements(),
            record.codec,
            record.abs
        )?;
        Ok(())
    }

    fn explain(&self, out: &mut impl Write) -> Result<()> {
        let container = std::fs::read(&self.input)?;
        let (record, offset) = pressio_select::decode_header(&container)?;
        writeln!(out, "{}", record.to_options().to_json()?)?;
        writeln!(
            out,
            "header {} bytes, compressed payload {} bytes",
            offset,
            container.len() - offset
        )?;
        Ok(())
    }
}
