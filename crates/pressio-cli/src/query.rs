//! `pressio query`: one request to a running daemon, its JSON response
//! printed.

use crate::args::{usage_error, Args};
use pressio_core::error::{Error, Result};
use pressio_core::Options;
use pressio_dataset::io::read_raw;
use pressio_serve::Endpoint;
use std::io::Write;
use std::path::PathBuf;

/// Send one request to a running daemon and print the JSON response.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Daemon to talk to.
    pub endpoint: Endpoint,
    /// Operation: ping, stats, models, load, train, predict, shutdown,
    /// reload.
    pub op: String,
    /// Model reference `name[@version]` (load/train/predict).
    pub model: Option<String>,
    /// Scheme name (train, or model-less predict).
    pub scheme: Option<String>,
    /// Compressor id.
    pub compressor: String,
    /// Raw input file for predict.
    pub input: Option<PathBuf>,
    /// Compressor options (abs/rel/...) forwarded in the request.
    pub options: Options,
    /// Training grid dims.
    pub dims: (usize, usize, usize),
    /// Training timesteps.
    pub timesteps: usize,
}

/// `Err` when the daemon's answer is an error response.
pub(crate) fn server_error(response: &Options) -> Result<()> {
    if response.get_str_opt("serve:type")? == Some("error") {
        return Err(Error::TaskFailed(format!(
            "server answered {}: {}",
            response.get_str_opt("serve:code")?.unwrap_or("error"),
            response.get_str_opt("serve:message")?.unwrap_or("")
        )));
    }
    Ok(())
}

impl Query {
    pub(crate) fn from_args(a: Args) -> Result<Query> {
        Ok(Query {
            endpoint: a
                .endpoint
                .ok_or_else(|| usage_error("query requires --socket or --tcp"))?,
            op: a
                .op
                .ok_or_else(|| usage_error("query requires --op <operation>"))?,
            model: a.model,
            scheme: a.scheme,
            compressor: a.compressor,
            input: a.input,
            options: a.options,
            dims: a.dims,
            timesteps: a.timesteps,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        let mut request = self
            .options
            .with("serve:op", self.op.as_str())
            .with("serve:compressor", self.compressor.as_str());
        if let Some(model) = &self.model {
            request.set("serve:model", model.as_str());
        }
        if let Some(scheme) = &self.scheme {
            request.set("serve:scheme", scheme.as_str());
        }
        match self.op.as_str() {
            "train" => {
                let (nx, ny, nz) = self.dims;
                request.set("serve:dims", vec![nx as u64, ny as u64, nz as u64]);
                request.set("serve:timesteps", self.timesteps as u64);
            }
            "predict" => {
                let input = self
                    .input
                    .ok_or_else(|| usage_error("query --op predict requires --input"))?;
                let data = read_raw(&input)?;
                pressio_serve::protocol::data_into_request(&mut request, &data);
            }
            _ => {}
        }
        let response = pressio_serve::Client::connect(&self.endpoint)?.call(&request)?;
        writeln!(out, "{}", response.to_json()?)?;
        server_error(&response)
    }
}
