//! # pressio-serve
//!
//! An online prediction service for compression-performance models: the
//! daemon answers "how well will this compressor do on this buffer?"
//! without re-running training or (when cached) even feature extraction.
//!
//! One implementation per concern — concern → its one home:
//!
//! - wire frames, caps, version check → [`protocol`]
//! - transports (Unix-domain sockets and TCP behind one endpoint) → [`net`]
//! - serving a socket: accept loop, connection loop, stop signal,
//!   connection failpoints → `listen`
//! - the daemon: config, model catalog, op table, `train` / `load` /
//!   `reload` / `stats`, graceful drain → [`server`]
//! - the predict core (the paper's Fig. 4: who answers, which compressor,
//!   error-agnostic → error-dependent → predictor) and the batched
//!   `predict` op → `predict`
//! - retrying: attempt budget, deterministic backoff, outcome classes →
//!   `retry`, under [`Client::call_resilient`] and
//!   [`ResilientStreamSender`]
//! - stream sessions: state, journal records, chunk responses, the online
//!   learner, the `stream.*` ops → [`stream`]
//! - journal framing, append + fsync, torn-tail load → [`journal`]
//! - versioned, checksummed model artifacts → [`store`]
//! - content-hash LRUs → [`cache`]; the bounded batching queue →
//!   [`pipeline`]; the load-shedding breaker → [`breaker`]
//! - the blocking clients → [`client`]; the reconnecting, resuming stream
//!   client → [`sender`]

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// keeps handlers a reader can hold in their head (default limit: 100 lines)
#![warn(clippy::too_many_lines)]

pub mod breaker;
pub mod cache;
pub mod client;
pub mod journal;
mod listen;
pub mod net;
pub mod pipeline;
mod predict;
pub mod protocol;
mod retry;
pub mod sender;
pub mod server;
pub mod store;
pub mod stream;

pub use breaker::CircuitBreaker;
pub use cache::{CacheKey, CacheStats, ShardedLru};
pub use client::{Client, RetryPolicy};
pub use journal::SessionJournal;
pub use net::Endpoint;
pub use sender::ResilientStreamSender;
pub use server::{serve, ServeConfig, Server, ServerHandle};
pub use store::{ModelArtifact, ModelStore};
pub use stream::OnlineLearner;
