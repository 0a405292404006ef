//! # pressio-select
//!
//! Online compressor auto-selection: the product surface that turns the
//! prediction infrastructure into a codec. Following Tao et al.
//! ("Automatic Online Selection between SZ and ZFP"), [`SelectCodec`]
//! decides **per buffer, at compression time** which codec and error bound
//! win under a target-metric policy ("max ratio subject to PSNR ≥ X dB"),
//! then records the decision in a versioned, checksummed header so the
//! container is self-describing and the choice is auditable.
//!
//! ```text
//!            ┌────────────── compress(data) ──────────────┐
//!            │                                            │
//!   policy: psnr ≥ X  ──►  feasible (codec, bound) grid   │
//!            │                                            │
//!            ▼                                            │
//!      consult path ──── trial  (sampled blocks, in-proc) │
//!            │      ├─── remote (pressio-serve predict)   │
//!            │      └─── static (no prediction)           │
//!            │  any failure / stale model                 │
//!            │          └──► static fallback (counted)    │
//!            ▼                                            ▼
//!      winner (codec, bound) ──► header ‖ winner's stream
//! ```
//!
//! Observability: `select:consult` span + counter per decision,
//! `select:winner.<codec>` per outcome, `select:fallback` when the static
//! policy had to decide. Failpoints `select:consult.unavailable` and
//! `select:model.stale` exercise the degraded paths deterministically.

#![warn(missing_docs)]

pub mod codec;
pub mod engine;
pub mod header;
pub mod policy;

pub use codec::{SelectCodec, FP_CONSULT_UNAVAILABLE, FP_MODEL_STALE};
pub use engine::{trial_sampled_ratio, Consult, Decision, CODECS};
pub use header::{decode as decode_header, DecisionRecord};
pub use policy::Policy;
