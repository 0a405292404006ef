//! `pressio compress`, `decompress` and `predict` — one compressor over one
//! raw file — and the two registry listings.

use crate::args::{usage_error, Args};
use pressio_core::error::{Error, Result};
use pressio_core::fs::publish;
use pressio_core::{Compressor, Options};
use pressio_dataset::io::{parse_filename, read_raw};
use pressio_predict::{format_table1, standard_compressors, standard_schemes, Scheme};
use std::io::Write;
use std::path::PathBuf;

fn build_compressor(name: &str, options: &Options) -> Result<Box<dyn Compressor>> {
    let mut comp = standard_compressors().build(name)?;
    comp.set_options(options)?;
    Ok(comp)
}

/// `what`'s `--input` / `--output`, or the usage error that asks for it.
pub(crate) fn required(what: &str, flag: &str, path: Option<PathBuf>) -> Result<PathBuf> {
    path.ok_or_else(|| usage_error(&format!("{what} requires --{flag}")))
}

/// `pressio schemes`: Table 1 of the paper, from the registry's own
/// metadata (the introspection §4.2 provides for exactly this).
pub(crate) fn list_schemes(out: &mut impl Write) -> Result<()> {
    let registry = standard_schemes();
    let schemes: Vec<_> = registry
        .names()
        .into_iter()
        .map(|name| registry.build(name))
        .collect::<Result<_>>()?;
    let schemes: Vec<&dyn Scheme> = schemes.iter().map(|s| s.as_ref()).collect();
    writeln!(
        out,
        "# Table 1: Estimation Methods (from live registry metadata)\n"
    )?;
    write!(out, "{}", format_table1(&schemes))?;
    Ok(())
}

/// `pressio compressors`.
pub(crate) fn list_compressors(out: &mut impl Write) -> Result<()> {
    let registry = standard_compressors();
    for name in registry.names() {
        let c = registry.build(name)?;
        writeln!(out, "{name}: {}", c.get_options())?;
    }
    Ok(())
}

/// Compress a raw file.
#[derive(Debug, Clone, PartialEq)]
pub struct Compress {
    /// Input raw file (shape-encoding name).
    pub input: PathBuf,
    /// Output stream path.
    pub output: PathBuf,
    /// Compressor id.
    pub compressor: String,
    /// Compressor options (abs/rel/predictor...).
    pub options: Options,
}

impl Compress {
    pub(crate) fn from_args(a: Args) -> Result<Compress> {
        Ok(Compress {
            input: required("compress", "input", a.input)?,
            output: required("compress", "output", a.output)?,
            compressor: a.compressor,
            options: a.options,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        let data = read_raw(&self.input)?;
        let comp = build_compressor(&self.compressor, &self.options)?;
        let stream = comp.compress(&data)?;
        publish(&self.output, |w| Ok(w.write_all(&stream)?))?;
        writeln!(
            out,
            "{} -> {}: {} -> {} bytes (ratio {:.2})",
            self.input.display(),
            self.output.display(),
            data.size_in_bytes(),
            stream.len(),
            data.size_in_bytes() as f64 / stream.len().max(1) as f64
        )?;
        Ok(())
    }
}

/// Decompress a stream back to a raw file.
#[derive(Debug, Clone, PartialEq)]
pub struct Decompress {
    /// Input stream path.
    pub input: PathBuf,
    /// Output raw file (shape-encoding name supplies dtype/dims).
    pub output: PathBuf,
    /// Compressor id.
    pub compressor: String,
}

impl Decompress {
    pub(crate) fn from_args(a: Args) -> Result<Decompress> {
        Ok(Decompress {
            input: required("decompress", "input", a.input)?,
            output: required("decompress", "output", a.output)?,
            compressor: a.compressor,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        let (_, dims, dtype) = parse_filename(&self.output)?;
        let stream = std::fs::read(&self.input)?;
        let comp = build_compressor(&self.compressor, &Options::new())?;
        let data = comp.decompress(&stream, dtype, &dims)?;
        publish(&self.output, |w| Ok(w.write_all(&data.to_le_bytes())?))?;
        writeln!(
            out,
            "{} -> {} ({} values)",
            self.input.display(),
            self.output.display(),
            data.num_elements()
        )?;
        Ok(())
    }
}

/// Predict the compression ratio without compressing.
#[derive(Debug, Clone, PartialEq)]
pub struct Predict {
    /// Input raw file.
    pub input: PathBuf,
    /// Compressor id.
    pub compressor: String,
    /// Scheme name.
    pub scheme: String,
    /// Compressor options.
    pub options: Options,
    /// Optional trained-state file for trainable schemes.
    pub state: Option<PathBuf>,
    /// Also run the compressor and report the truth.
    pub verify: bool,
}

impl Predict {
    pub(crate) fn from_args(a: Args) -> Result<Predict> {
        Ok(Predict {
            input: required("predict", "input", a.input)?,
            compressor: a.compressor,
            scheme: a.scheme.unwrap_or_else(|| "khan2023".into()),
            options: a.options,
            state: a.state,
            verify: a.verify,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        let (scheme, compressor) = (&self.scheme, &self.compressor);
        let data = read_raw(&self.input)?;
        let comp = build_compressor(compressor, &self.options)?;
        let sch = standard_schemes().build(scheme)?;
        if !sch.supports(comp.id()) {
            return Err(Error::Unsupported(format!(
                "scheme '{scheme}' does not support compressor '{compressor}'"
            )));
        }
        let features = sch.features(&data, comp.as_ref())?;
        let mut predictor = sch.make_predictor();
        if let Some(path) = &self.state {
            predictor.load_state(&std::fs::read(path)?)?;
        } else if predictor.requires_training() {
            return Err(Error::NotFitted(format!(
                "scheme '{scheme}' needs --state <trained-state-file>"
            )));
        }
        let predicted = predictor.predict(&features)?;
        writeln!(out, "predicted compression ratio: {predicted:.3}")?;
        if self.verify {
            let stream = comp.compress(&data)?;
            let actual = data.size_in_bytes() as f64 / stream.len().max(1) as f64;
            writeln!(out, "actual    compression ratio: {actual:.3}")?;
            writeln!(
                out,
                "absolute percentage error:   {:.1}%",
                ((predicted - actual) / actual).abs() * 100.0
            )?;
        }
        Ok(())
    }
}

/// A header (`what`: "container", "stream") is authoritative about a
/// decoded buffer's shape; if the output filename also encodes one, it
/// must agree rather than silently lie.
pub(crate) fn check_output_shape(
    output: &std::path::Path,
    key: &str,
    what: &str,
    dtype: pressio_core::Dtype,
    dims: &[usize],
) -> Result<()> {
    match parse_filename(output) {
        Ok((_, named_dims, named_dtype)) if named_dims != dims || named_dtype != dtype => {
            Err(Error::InvalidValue {
                key: key.into(),
                reason: format!(
                    "output name implies {named_dtype:?} {named_dims:?} but the {what} \
                     records {dtype:?} {dims:?}"
                ),
            })
        }
        _ => Ok(()),
    }
}
