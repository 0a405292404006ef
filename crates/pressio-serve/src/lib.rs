//! # pressio-serve
//!
//! An online prediction service for compression-performance models: the
//! daemon answers "how well will this compressor do on this buffer?"
//! without re-running training or (when cached) even feature extraction.
//!
//! - [`protocol`] — versioned frames over a byte stream: a JSON header
//!   carrying an [`pressio_core::Options`] structure (the serialization
//!   checkpoints and the CLI use) and its byte buffers raw behind it.
//! - [`net`] — one [`net::Endpoint`] covering Unix-domain sockets and TCP.
//! - [`store`] — versioned, checksummed model artifacts
//!   (`<name>/<version>.pmodel`), written atomically.
//! - [`cache`] — sharded, content-hash-keyed LRU for features and
//!   predictions, with hit/miss counters in `pressio-obs`.
//! - [`pipeline`] — bounded batching queue with per-request deadlines and
//!   explicit `overloaded` backpressure.
//! - [`breaker`] — load-shedding circuit breaker: sustained overload trips
//!   it open so excess requests are rejected without queue churn.
//! - [`server`] — the daemon: accept loop, per-model request batching,
//!   hot model reload, graceful draining shutdown.
//! - [`shard`] — multi-process scale-out: rendezvous (consistent-hash)
//!   routing by content hash, the shard topology file, and the
//!   acceptor/supervisor that restarts dead shards.
//! - [`client`] — the blocking client used by `pressio query`, the tests,
//!   and the serve benchmark; [`client::ShardedClient`] routes directly to
//!   shards by content hash with failover.
//! - [`stream`] — streaming prediction sessions (`stream.begin` /
//!   `stream.chunk` / `stream.end` / `stream.resume`) with per-chunk
//!   temporal features and the rolling-window online learner behind
//!   `--online`.
//! - [`journal`] — crash-safe append+fsync per-session stream journals
//!   under the model store, the durable half of `stream.resume`.
//! - [`sender`] — [`sender::ResilientStreamSender`], the reconnecting
//!   stream client: retry with backoff on transient errors,
//!   `stream.resume` + replay-from-acked-offset across disconnects and
//!   daemon crashes.

#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod client;
pub mod journal;
pub mod net;
pub mod pipeline;
pub mod protocol;
pub mod sender;
pub mod server;
pub mod shard;
pub mod store;
pub mod stream;

pub use breaker::CircuitBreaker;
pub use cache::{CacheStats, ShardedLru};
pub use client::{Client, RetryPolicy, ShardedClient};
pub use journal::SessionJournal;
pub use net::Endpoint;
pub use sender::ResilientStreamSender;
pub use server::{serve, ExtraListener, ServeConfig, Server, ServerHandle};
pub use shard::{InProcessSpawner, ShardSpawner, Supervisor, SupervisorConfig, Topology};
pub use store::{ModelArtifact, ModelStore};
pub use stream::OnlineLearner;
