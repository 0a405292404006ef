//! The shared selection engine: estimate a compression ratio for every
//! admissible `(codec, bound)` candidate, then pick the winner.
//!
//! Three consult paths produce the estimates:
//!
//! - **trial** — Tao-style block sampling in-process: compress a few seeded
//!   sample blocks with the *actual* candidate codec and extrapolate. No
//!   model, deterministic for a fixed seed.
//! - **remote** — query a `pressio-serve` daemon through
//!   [`Client::call_resilient`], one trained model per codec
//!   (`<prefix>-sz3`, `<prefix>-zfp`).
//! - **static** — no estimate at all: the policy's deterministic choice
//!   (SZ at the loosest admissible bound). This is also the fallback when
//!   trial or remote consult fails or the remote model is stale.
//!
//! The ablation sweep (`pressio bench --ablation tao_sweep`) calls the same
//! [`trial_sampled_ratio`] the product path uses, so the two cannot drift.

use pressio_core::error::{Error, Result};
use pressio_core::{Compressor, Data, Options};
use pressio_predict::schemes::TaoScheme;
use pressio_predict::{standard_compressors, Scheme};
use pressio_serve::{Client, Endpoint, RetryPolicy};

use crate::policy::Policy;

/// The codecs the selector chooses between, in deterministic consult order.
pub const CODECS: [&str; 2] = ["sz3", "zfp"];

/// The trial consult's sampler: Tao's blocks under the selector's own
/// seed, fixed so selection is deterministic.
pub(crate) fn trial_scheme() -> TaoScheme {
    TaoScheme {
        seed: 0x5E1,
        ..TaoScheme::default()
    }
}

/// Estimate the compression ratio of `comp` on `data` by trial-compressing
/// sampled blocks (Tao 2019). The single entry point shared by the
/// `SelectCodec` trial consult and the `tao_sweep` ablation.
pub fn trial_sampled_ratio(data: &Data, comp: &dyn Compressor, scheme: &TaoScheme) -> Result<f64> {
    scheme
        .error_dependent_features(data, comp)?
        .get_f64("tao:sampled_ratio")
}

/// How the selector consults before deciding.
#[derive(Debug, Clone)]
pub enum Consult {
    /// In-process block-sampling trial compression.
    Trial(TaoScheme),
    /// Query a running `pressio-serve` daemon.
    Remote {
        /// The daemon's endpoint.
        endpoint: Endpoint,
        /// Model name prefix: the selector consults `<prefix>-<codec>`.
        model_prefix: String,
        /// Reject models older than this version as stale (triggers the
        /// static fallback instead of acting on outdated predictions).
        min_model_version: Option<u64>,
    },
    /// Skip consulting entirely; always the policy's static choice.
    Static,
}

impl Consult {
    /// The label recorded in the decision record.
    pub fn label(&self) -> &'static str {
        match self {
            Consult::Trial(_) => "trial",
            Consult::Remote { .. } => "remote",
            Consult::Static => "static",
        }
    }
}

/// The outcome of a selection, ready to be stamped into a header.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Winning codec id.
    pub codec: String,
    /// Winning absolute error bound.
    pub abs: f64,
    /// Consult label actually used (`"static"` after a fallback).
    pub consult: String,
    /// Model tag of the winner (`name@version`), `"-"` when no model.
    pub model: String,
    /// Predicted ratio of the winner (0 for static).
    pub predicted_ratio: f64,
    /// Whether the static fallback decided.
    pub fallback: bool,
}

/// One estimated candidate.
#[derive(Debug, Clone)]
pub struct CandidateEstimate {
    /// Candidate codec id.
    pub codec: &'static str,
    /// Candidate absolute bound.
    pub abs: f64,
    /// Estimated compression ratio.
    pub ratio: f64,
    /// Model tag that produced the estimate (`"-"` for trial).
    pub model: String,
}

/// Pick the winner: highest estimated ratio, ties resolved by iteration
/// order (codec order in [`CODECS`], then bounds ascending) so selection is
/// deterministic.
pub fn pick_winner(estimates: &[CandidateEstimate]) -> Result<&CandidateEstimate> {
    estimates
        .iter()
        .filter(|e| e.ratio.is_finite() && e.ratio > 0.0)
        .fold(None::<&CandidateEstimate>, |best, e| match best {
            Some(b) if e.ratio <= b.ratio => Some(b),
            _ => Some(e),
        })
        .ok_or_else(|| Error::Numerical("no candidate produced a usable estimate".into()))
}

/// Estimate every `(codec, bound)` candidate by trial compression.
pub fn trial_estimates(
    data: &Data,
    feasible: &[f64],
    scheme: &TaoScheme,
) -> Result<Vec<CandidateEstimate>> {
    let registry = standard_compressors();
    let mut out = Vec::with_capacity(CODECS.len() * feasible.len());
    for codec in CODECS {
        let mut comp = registry.build(codec)?;
        for &abs in feasible {
            comp.set_options(&Options::new().with("pressio:abs", abs))?;
            out.push(CandidateEstimate {
                codec,
                abs,
                ratio: trial_sampled_ratio(data, comp.as_ref(), scheme)?,
                model: "-".into(),
            });
        }
    }
    Ok(out)
}

/// Parse the `@version` suffix of a `name@version` model tag.
pub fn model_tag_version(tag: &str) -> Option<u64> {
    tag.rsplit_once('@').and_then(|(_, v)| v.parse().ok())
}

/// Estimate every candidate by querying the serve daemon: one predict per
/// `(codec, bound)` against the model `<prefix>-<codec>`, default retries.
pub fn remote_estimates(
    client: &mut Client,
    model_prefix: &str,
    data: &Data,
    feasible: &[f64],
    min_model_version: Option<u64>,
) -> Result<Vec<CandidateEstimate>> {
    let mut out = Vec::with_capacity(CODECS.len() * feasible.len());
    for codec in CODECS {
        let model_ref = format!("{model_prefix}-{codec}");
        for &abs in feasible {
            let extra = Options::new()
                .with("serve:compressor", codec)
                .with("pressio:abs", abs);
            let request = Client::predict_request(&model_ref, data, &extra);
            let resp = client.call_resilient(&request, &RetryPolicy::default())?;
            if resp.get_str_opt("serve:type")? == Some("error") {
                return Err(Error::TaskFailed(format!(
                    "serve answered {} for model {model_ref}",
                    resp.get_str_opt("serve:code")?.unwrap_or("error"),
                )));
            }
            let model = resp.get_str_opt("serve:model")?.unwrap_or("-").to_string();
            // a model older than the pin is stale: acting on it could pick
            // a codec the operator has since retrained away from
            pressio_faults::inject("select:model.stale")
                .map_err(|_| Error::NotFitted(format!("model {model} is stale (injected)")))?;
            if let (Some(min), Some(version)) = (min_model_version, model_tag_version(&model)) {
                if version < min {
                    return Err(Error::NotFitted(format!(
                        "model {model} is stale (pinned minimum version {min})"
                    )));
                }
            }
            out.push(CandidateEstimate {
                codec,
                abs,
                ratio: resp.get_f64("serve:prediction")?,
                model,
            });
        }
    }
    Ok(out)
}

/// The deterministic no-prediction decision.
pub fn static_decision(policy: &Policy, range: f64, fallback: bool) -> Decision {
    let (codec, abs) = policy.static_choice(range);
    Decision {
        codec: codec.to_string(),
        abs,
        consult: "static".into(),
        model: "-".into(),
        predicted_ratio: 0.0,
        fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(codec: &'static str, abs: f64, ratio: f64) -> CandidateEstimate {
        CandidateEstimate {
            codec,
            abs,
            ratio,
            model: "-".into(),
        }
    }

    #[test]
    fn winner_is_max_ratio_first_on_ties() {
        let estimates = vec![
            est("sz3", 1e-5, 3.0),
            est("sz3", 1e-4, 5.0),
            est("zfp", 1e-4, 5.0), // tie: earlier candidate wins
            est("zfp", 1e-3, f64::NAN),
        ];
        let w = pick_winner(&estimates).unwrap();
        assert_eq!((w.codec, w.abs), ("sz3", 1e-4));
    }

    #[test]
    fn all_unusable_estimates_is_an_error() {
        let estimates = vec![est("sz3", 1e-4, f64::NAN), est("zfp", 1e-4, -1.0)];
        assert!(pick_winner(&estimates).is_err());
    }

    #[test]
    fn trial_estimates_cover_the_candidate_grid_deterministically() {
        let data = Data::from_f32(
            vec![24, 24],
            (0..24 * 24)
                .map(|i| ((i % 24) as f32 * 0.2).sin())
                .collect(),
        );
        let scheme = trial_scheme();
        let a = trial_estimates(&data, &[1e-4, 1e-3], &scheme).unwrap();
        let b = trial_estimates(&data, &[1e-4, 1e-3], &scheme).unwrap();
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.codec, x.abs, x.ratio), (y.codec, y.abs, y.ratio));
        }
        // looser bound cannot estimate a (much) worse ratio on smooth data
        assert!(a[1].ratio >= a[0].ratio * 0.9, "{a:?}");
    }

    #[test]
    fn model_tag_versions_parse() {
        assert_eq!(model_tag_version("sel-sz3@7"), Some(7));
        assert_eq!(model_tag_version("plain"), None);
        assert_eq!(model_tag_version("odd@name@3"), Some(3));
    }
}
