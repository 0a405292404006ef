//! `pressio generate`: synthetic hurricane fields as raw files.

use crate::args::{usage_error, Args};
use pressio_core::error::Result;
use pressio_core::Dtype;
use pressio_dataset::io::{write_raw, write_raw_with};
use pressio_dataset::DatasetPlugin;
use std::io::Write;
use std::path::PathBuf;

/// Generate synthetic hurricane fields as raw files.
#[derive(Debug, Clone, PartialEq)]
pub struct Generate {
    /// Output directory.
    pub out: PathBuf,
    /// Grid dims.
    pub dims: (usize, usize, usize),
    /// Timesteps.
    pub timesteps: usize,
    /// Stack all timesteps of each field into one 4-D raw file
    /// (`FIELD-stack_NXxNYxNZxT.f32`) instead of one file per
    /// timestep — the shape `pressio stream` chunks along its outer
    /// (timestep) axis.
    pub stack: bool,
}

impl Generate {
    pub(crate) fn from_args(a: Args) -> Result<Generate> {
        Ok(Generate {
            out: a
                .output
                .ok_or_else(|| usage_error("generate requires --out"))?,
            dims: a.dims,
            timesteps: a.timesteps,
            stack: a.stack,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        let (dims, timesteps) = (self.dims, self.timesteps);
        let mut h = pressio_dataset::Hurricane::with_dims(dims.0, dims.1, dims.2, timesteps);
        if self.stack {
            // one 4-D file per field, timesteps stacked along the
            // outer (slowest) axis — the shape `pressio stream`
            // chunks — and written a timestep at a time, so only the
            // file ever holds the whole stack
            let fields: Vec<String> = h.fields().to_vec();
            let stacked = [dims.0, dims.1, dims.2, timesteps];
            for (f, field) in fields.iter().enumerate() {
                let name = format!("{field}-stack");
                let path = write_raw_with(&self.out, &name, Dtype::F32, &stacked, |w| {
                    for t in 0..timesteps {
                        w.write_all(&h.load_data(t * fields.len() + f)?.to_le_bytes())?;
                    }
                    Ok(())
                })?;
                writeln!(out, "wrote {}", path.display())?;
            }
            return Ok(());
        }
        for i in 0..h.len() {
            let meta = h.load_metadata(i)?;
            let data = h.load_data(i)?;
            let path = write_raw(&self.out, &meta.name.replace('@', "-"), &data)?;
            writeln!(out, "wrote {}", path.display())?;
        }
        Ok(())
    }
}
