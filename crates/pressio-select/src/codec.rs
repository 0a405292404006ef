//! [`SelectCodec`] — the auto-selection meta-codec.
//!
//! `compress` consults (trial / remote / static per configuration), picks
//! the winning `(codec, bound)` under the policy, compresses with the
//! winner, and prepends the decision-record header. `decompress` is fully
//! header-driven: the container says which codec, bound, dtype, and dims
//! to use, so no out-of-band knowledge is needed.

use std::sync::Mutex;

use pressio_core::bound::finite_range_of;
use pressio_core::data::{Data, Dtype};
use pressio_core::error::{Error, Result};
use pressio_core::{Compressor, Options};
use pressio_predict::standard_compressors;
use pressio_serve::{Client, Endpoint};

use crate::engine::{
    pick_winner, remote_estimates, static_decision, trial_estimates, trial_scheme, Consult,
    Decision,
};
use crate::header::{self, DecisionRecord};
use crate::policy::Policy;

/// Failpoint: the consult path (predictor) is unreachable.
pub const FP_CONSULT_UNAVAILABLE: &str = "select:consult.unavailable";
/// Failpoint: the consulted model is stale (checked in the remote path).
pub const FP_MODEL_STALE: &str = "select:model.stale";

/// The SZ-vs-ZFP auto-selection meta-codec.
pub struct SelectCodec {
    policy: Policy,
    consult: Consult,
    /// Pooled remote connection, reused across `compress` calls.
    client: Mutex<Option<Client>>,
}

impl Default for SelectCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl SelectCodec {
    /// Default policy (PSNR ≥ 60 dB over the standard bound grid) with
    /// in-process trial consult.
    pub fn new() -> SelectCodec {
        SelectCodec {
            policy: Policy::default(),
            consult: Consult::Trial(trial_scheme()),
            client: Mutex::new(None),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Consult the configured path and decide the winner for `data`.
    /// Any consult failure (predictor unreachable, stale model, no usable
    /// estimate) degrades to the deterministic static policy, counted as
    /// `select:fallback`.
    pub fn decide(&self, data: &Data) -> Decision {
        let _span = pressio_obs::span("select:consult");
        pressio_obs::add_counter("select:consult", 1);
        let range = finite_range_of(data);
        let feasible = self.policy.feasible_bounds(range);
        let consulted: Result<Decision> = (|| {
            pressio_faults::inject(FP_CONSULT_UNAVAILABLE)?;
            match &self.consult {
                Consult::Static => Ok(static_decision(&self.policy, range, false)),
                Consult::Trial(scheme) => {
                    let estimates = trial_estimates(data, &feasible, scheme)?;
                    let w = pick_winner(&estimates)?;
                    Ok(Decision {
                        codec: w.codec.to_string(),
                        abs: w.abs,
                        consult: "trial".into(),
                        model: "-".into(),
                        predicted_ratio: w.ratio,
                        fallback: false,
                    })
                }
                Consult::Remote {
                    endpoint,
                    model_prefix,
                    min_model_version,
                } => {
                    let mut pooled = self.client.lock().unwrap_or_else(|e| e.into_inner());
                    if pooled.is_none() {
                        *pooled = Some(Client::connect(endpoint)?);
                    }
                    let client = pooled.as_mut().expect("connected above");
                    let estimates =
                        remote_estimates(client, model_prefix, data, &feasible, *min_model_version);
                    // a poisoned connection must not poison the next
                    // compress call too
                    let estimates = estimates.inspect_err(|_| *pooled = None)?;
                    let w = pick_winner(&estimates)?;
                    Ok(Decision {
                        codec: w.codec.to_string(),
                        abs: w.abs,
                        consult: "remote".into(),
                        model: w.model.clone(),
                        predicted_ratio: w.ratio,
                        fallback: false,
                    })
                }
            }
        })();
        let decision = match consulted {
            Ok(d) => d,
            Err(_) => {
                pressio_obs::add_counter("select:fallback", 1);
                static_decision(&self.policy, range, true)
            }
        };
        pressio_obs::add_counter(&format!("select:winner.{}", decision.codec), 1);
        decision
    }

    fn endpoint(&self) -> Option<&Endpoint> {
        match &self.consult {
            Consult::Remote { endpoint, .. } => Some(endpoint),
            _ => None,
        }
    }
}

impl Compressor for SelectCodec {
    fn id(&self) -> &'static str {
        "select"
    }

    fn set_options(&mut self, opts: &Options) -> Result<()> {
        if let Some(floor) = opts.get_f64_opt("select:psnr")? {
            if !(floor.is_finite() && floor > 0.0) {
                return Err(Error::InvalidValue {
                    key: "select:psnr".into(),
                    reason: "PSNR floor must be positive and finite".into(),
                });
            }
            self.policy.psnr_floor = floor;
        }
        if let Ok(bounds) = opts.get_f64_slice("select:bounds") {
            if bounds.is_empty() || bounds.iter().any(|b| !(b.is_finite() && *b > 0.0)) {
                return Err(Error::InvalidValue {
                    key: "select:bounds".into(),
                    reason: "bounds must be non-empty, positive, finite".into(),
                });
            }
            self.policy.bounds = bounds.to_vec();
        }
        if let Some(mode) = opts.get_str_opt("select:consult")? {
            self.consult = match mode {
                "trial" => match &self.consult {
                    Consult::Trial(scheme) => Consult::Trial(scheme.clone()),
                    _ => Consult::Trial(trial_scheme()),
                },
                "static" => Consult::Static,
                "remote" => {
                    let spec = opts.get_str("select:endpoint").map_err(|_| {
                        Error::MissingOption("select:endpoint (required for remote consult)".into())
                    })?;
                    Consult::Remote {
                        endpoint: Endpoint::parse(spec)?,
                        model_prefix: opts
                            .get_str_opt("select:model")?
                            .unwrap_or("sel")
                            .to_string(),
                        min_model_version: opts.get_u64_opt("select:min-model-version")?,
                    }
                }
                other => {
                    return Err(Error::InvalidValue {
                        key: "select:consult".into(),
                        reason: format!("unknown consult mode '{other}'"),
                    })
                }
            };
            *self.client.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
        if let Consult::Remote {
            endpoint,
            model_prefix,
            min_model_version,
        } = &mut self.consult
        {
            // remote sub-options also retune an already-remote consult
            if let Some(spec) = opts.get_str_opt("select:endpoint")? {
                let parsed = Endpoint::parse(spec)?;
                if parsed.to_string() != endpoint.to_string() {
                    *endpoint = parsed;
                    *self.client.lock().unwrap_or_else(|e| e.into_inner()) = None;
                }
            }
            if let Some(prefix) = opts.get_str_opt("select:model")? {
                *model_prefix = prefix.to_string();
            }
            if let Some(v) = opts.get_u64_opt("select:min-model-version")? {
                *min_model_version = Some(v);
            }
        }
        if let Consult::Trial(scheme) = &mut self.consult {
            if let Some(edge) = opts.get_u64_opt("select:block-edge")? {
                scheme.block_edge = (edge as usize).max(1);
            }
            if let Some(count) = opts.get_u64_opt("select:block-count")? {
                scheme.block_count = (count as usize).max(1);
            }
            if let Some(seed) = opts.get_u64_opt("select:seed")? {
                scheme.seed = seed;
            }
        }
        Ok(())
    }

    fn get_options(&self) -> Options {
        let mut out = Options::new()
            .with("select:psnr", self.policy.psnr_floor)
            .with("select:bounds", self.policy.bounds.clone())
            .with("select:consult", self.consult.label());
        match &self.consult {
            Consult::Trial(scheme) => {
                out.set("select:block-edge", scheme.block_edge as u64);
                out.set("select:block-count", scheme.block_count as u64);
                out.set("select:seed", scheme.seed);
            }
            Consult::Remote {
                endpoint,
                model_prefix,
                min_model_version,
            } => {
                out.set("select:endpoint", endpoint.to_string());
                out.set("select:model", model_prefix.as_str());
                if let Some(v) = min_model_version {
                    out.set("select:min-model-version", *v);
                }
            }
            Consult::Static => {}
        }
        out
    }

    fn get_configuration(&self) -> Options {
        Options::new()
            .with("pressio:thread_safe", true)
            .with("pressio:stability", "stable")
            .with("pressio:dtypes", vec!["f32".to_string(), "f64".to_string()])
            .with(
                "predictors:error_dependent_settings",
                vec!["select:psnr".to_string(), "select:bounds".to_string()],
            )
            .with(
                "predictors:runtime_settings",
                vec![
                    "select:consult".to_string(),
                    "select:block-edge".to_string(),
                    "select:block-count".to_string(),
                ],
            )
    }

    fn compress(&self, input: &Data) -> Result<Vec<u8>> {
        let _span = pressio_obs::span("select:compress");
        let decision = self.decide(input);
        let mut winner = standard_compressors().build(&decision.codec)?;
        winner.set_options(&Options::new().with("pressio:abs", decision.abs))?;
        let stream = winner.compress(input)?;
        let record = DecisionRecord {
            codec: decision.codec,
            abs: decision.abs,
            dtype: input.dtype(),
            dims: input.dims().to_vec(),
            consult: decision.consult,
            model: decision.model,
            policy: self.policy.describe(),
            predicted_ratio: decision.predicted_ratio,
            fallback: decision.fallback,
        };
        let mut container = record.encode()?;
        container.extend_from_slice(&stream);
        Ok(container)
    }

    fn decompress(&self, compressed: &[u8], dtype: Dtype, dims: &[usize]) -> Result<Data> {
        let _span = pressio_obs::span("select:decompress");
        let (record, offset) = header::decode(compressed)?;
        // the header is authoritative; caller-supplied shape (when given)
        // must agree rather than silently reinterpret the buffer
        if !dims.is_empty() && dims != record.dims {
            return Err(Error::CorruptStream(format!(
                "select container holds dims {:?} but caller asked for {:?}",
                record.dims, dims
            )));
        }
        if !dims.is_empty() && dtype != record.dtype {
            return Err(Error::CorruptStream(format!(
                "select container holds dtype {} but caller asked for {}",
                record.dtype.name(),
                dtype.name()
            )));
        }
        let codec = standard_compressors().build(&record.codec)?;
        codec.decompress(&compressed[offset..], record.dtype, &record.dims)
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(SelectCodec {
            policy: self.policy.clone(),
            consult: self.consult.clone(),
            client: Mutex::new(None), // connections are not cloneable
        })
    }
}

impl std::fmt::Debug for SelectCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectCodec")
            .field("policy", &self.policy)
            .field("consult", &self.consult)
            .field("endpoint", &self.endpoint().map(|e| e.to_string()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(nx: usize, ny: usize) -> Data {
        Data::from_f32(
            vec![nx, ny],
            (0..nx * ny)
                .map(|i| ((i % nx) as f32 * 0.1).sin())
                .collect(),
        )
    }

    #[test]
    fn trial_selection_roundtrips_and_is_self_describing() {
        let codec = SelectCodec::new();
        let data = smooth(32, 32);
        let container = codec.compress(&data).unwrap();
        let (record, _) = header::decode(&container).unwrap();
        assert!(record.codec == "sz3" || record.codec == "zfp");
        assert_eq!(record.dims, vec![32, 32]);
        assert!(!record.fallback);
        // no out-of-band knowledge: empty dims, dtype ignored
        let restored = codec.decompress(&container, Dtype::F32, &[]).unwrap();
        assert_eq!(restored.dims(), data.dims());
        let max_err = data
            .as_f32()
            .unwrap()
            .iter()
            .zip(restored.as_f32().unwrap())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err as f64 <= record.abs * 1.0000001, "{max_err}");
    }

    #[test]
    fn caller_shape_mismatch_is_rejected() {
        let codec = SelectCodec::new();
        let container = codec.compress(&smooth(16, 16)).unwrap();
        assert!(codec.decompress(&container, Dtype::F32, &[8, 8]).is_err());
        assert!(codec.decompress(&container, Dtype::F64, &[16, 16]).is_err());
        assert!(codec.decompress(&container, Dtype::F32, &[16, 16]).is_ok());
    }

    #[test]
    fn static_mode_picks_policy_choice_without_consult() {
        let mut codec = SelectCodec::new();
        codec
            .set_options(&Options::new().with("select:consult", "static"))
            .unwrap();
        let data = smooth(16, 16);
        let d = codec.decide(&data);
        assert_eq!(d.consult, "static");
        assert!(!d.fallback, "explicit static mode is not a fallback");
        assert_eq!(d.codec, "sz3");
    }

    #[test]
    fn options_roundtrip_and_validate() {
        let mut codec = SelectCodec::new();
        codec
            .set_options(
                &Options::new()
                    .with("select:psnr", 80.0)
                    .with("select:bounds", vec![1e-6, 1e-5])
                    .with("select:block-count", 4u64),
            )
            .unwrap();
        let opts = codec.get_options();
        assert_eq!(opts.get_f64("select:psnr").unwrap(), 80.0);
        assert_eq!(opts.get_f64_slice("select:bounds").unwrap(), &[1e-6, 1e-5]);
        assert_eq!(opts.get_u64("select:block-count").unwrap(), 4);
        assert!(codec
            .set_options(&Options::new().with("select:psnr", -3.0))
            .is_err());
        assert!(codec
            .set_options(&Options::new().with("select:consult", "psychic"))
            .is_err());
        assert!(
            codec
                .set_options(&Options::new().with("select:consult", "remote"))
                .is_err(),
            "remote consult requires an endpoint"
        );
    }

    #[test]
    fn remote_mode_parses_endpoint_options() {
        let mut codec = SelectCodec::new();
        codec
            .set_options(
                &Options::new()
                    .with("select:consult", "remote")
                    .with("select:endpoint", "tcp:127.0.0.1:19999")
                    .with("select:model", "prod")
                    .with("select:min-model-version", 3u64),
            )
            .unwrap();
        let opts = codec.get_options();
        assert_eq!(opts.get_str("select:consult").unwrap(), "remote");
        assert_eq!(
            opts.get_str("select:endpoint").unwrap(),
            "tcp:127.0.0.1:19999"
        );
        assert_eq!(opts.get_str("select:model").unwrap(), "prod");
        assert_eq!(opts.get_u64("select:min-model-version").unwrap(), 3);
    }
}
