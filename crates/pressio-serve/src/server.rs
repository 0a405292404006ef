//! The `pressio-serve` daemon: accept loop, per-connection handlers, and
//! the prediction worker pool.
//!
//! Lifecycle: [`Server::start`] binds the endpoint, spawns the accept
//! thread, and returns a [`ServerHandle`]. A `shutdown` request (or
//! [`ServerHandle::trigger_shutdown`]) flips the shutdown flag, unblocks
//! the accept loop, lets every connection finish its in-flight request,
//! drains the bounded pipeline queue, joins all threads, and removes the
//! Unix socket file — a graceful drain, never a drop.
//!
//! Request flow for `predict`: the connection thread computes only the
//! batch key and deadline, then submits to the [`Pipeline`]; workers batch
//! same-model requests, probe the prediction cache (content-hash keyed),
//! then the two feature caches, and only on a full miss run feature
//! extraction — in parallel across the batch on the
//! `pressio_core::threads` pool. `train` runs inline on the connection
//! thread so long fits never starve the prediction workers.

use crate::breaker::CircuitBreaker;
use crate::cache::ShardedLru;
use crate::net::{Conn, Endpoint, Listener};
use crate::pipeline::{Pipeline, WorkItem};
use crate::protocol::{self, code, op, write_frame};
use crate::store::{parse_model_ref, ModelStore};
use pressio_core::error::{Error, Result};
use pressio_core::timing::time_ms;
use pressio_core::{threads, Data, Options};
use pressio_dataset::DatasetPlugin;
use pressio_predict::evaluator::CachedEvaluator;
use pressio_predict::{standard_compressors, standard_schemes, Predictor};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Default [`ServeConfig::cache_entries`] (and `pressio serve --cache`):
/// well over ten seconds of cold 1 MiB traffic from two callers (~250
/// req/s once buffers cross the wire raw). An entry is a key and a
/// number, or a key and a few dozen features.
pub const DEFAULT_CACHE_ENTRIES: usize = 16384;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where to listen.
    pub listen: Endpoint,
    /// Model store root directory.
    pub model_dir: PathBuf,
    /// Prediction worker threads.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it answer `overloaded`.
    pub queue_capacity: usize,
    /// Largest same-model batch a worker claims at once.
    pub batch_max: usize,
    /// Default per-request deadline (overridable per request via
    /// `serve:deadline_ms`).
    pub default_deadline_ms: u64,
    /// Entry bound for each of the feature and prediction caches.
    pub cache_entries: usize,
    /// Shard count for each cache.
    pub cache_shards: usize,
    /// Consecutive overload-class failures (queue full / deadline
    /// exceeded) before the load-shedding breaker opens; 0 disables it.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before probing with one request.
    pub breaker_cooldown_ms: u64,
    /// Additional endpoints to accept on, all feeding the same pipeline.
    /// Used by shard processes to bind the shared `SO_REUSEPORT` data
    /// port next to their private routed endpoint; `reuseport: true`
    /// entries bind with `SO_REUSEPORT` set.
    pub extra_listeners: Vec<ExtraListener>,
    /// Which shard this server is in a multi-shard deployment (stamped
    /// into stats and prediction responses so routing is observable).
    pub shard_index: Option<usize>,
    /// How long a resolved "latest version" for an unversioned model
    /// reference stays trusted before the store is re-probed. Bounds the
    /// staleness window of hot traffic to a re-trained model without a
    /// directory scan per request; a `reload` op invalidates it
    /// immediately.
    pub latest_ttl_ms: u64,
    /// Largest frame (declared header + payload length) accepted from a
    /// peer, in bytes. Clamped to [`protocol::MAX_FRAME`]; a frame
    /// declaring more is rejected *before* any buffer is allocated, so a
    /// hostile or corrupt prefix cannot force a large allocation. A
    /// buffer costs one wire byte per data byte, so this is also the
    /// largest servable buffer (less a few hundred bytes of header).
    pub max_frame: usize,
    /// Enable rolling-window online learning for streaming sessions:
    /// `stream.chunk` ops reporting `stream:actual` feed the session's
    /// [`crate::stream::OnlineLearner`], which periodically refits the
    /// model on the window and installs the bumped version hot.
    pub online: bool,
    /// Rolling-window size for online learning (observations kept).
    pub online_window: usize,
    /// Refit the model every this many online observations.
    pub online_refit_every: usize,
    /// Journal streaming sessions to `<model_dir>/sessions/` (append +
    /// fsync per chunk) so `stream.resume` can rehydrate them after a
    /// disconnect, crash, or shard respawn. On by default; turn off only
    /// when stream durability is worth trading for per-chunk fsync cost.
    pub stream_journal: bool,
    /// Streaming sessions idle longer than this many seconds are reaped
    /// by the sweep that runs on every stream op.
    pub stream_idle_secs: u64,
}

/// One extra accept endpoint (see [`ServeConfig::extra_listeners`]).
#[derive(Debug, Clone)]
pub struct ExtraListener {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Bind with `SO_REUSEPORT` (shared data port across shards).
    pub reuseport: bool,
}

impl ServeConfig {
    /// Defaults tuned for a local daemon.
    pub fn new(listen: Endpoint, model_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            listen,
            model_dir: model_dir.into(),
            workers: threads::available().min(4),
            queue_capacity: 64,
            batch_max: 8,
            default_deadline_ms: 10_000,
            cache_entries: DEFAULT_CACHE_ENTRIES,
            cache_shards: 16,
            breaker_threshold: 16,
            breaker_cooldown_ms: 1_000,
            extra_listeners: Vec::new(),
            shard_index: None,
            latest_ttl_ms: 2_000,
            max_frame: protocol::MAX_FRAME,
            online: false,
            online_window: 64,
            online_refit_every: 8,
            stream_journal: true,
            stream_idle_secs: 300,
        }
    }
}

/// A trained model resident in memory.
struct LoadedModel {
    name: String,
    version: u64,
    scheme: String,
    predictor: Box<dyn Predictor>,
}

/// Shared server state.
struct ServerState {
    config: ServeConfig,
    store: ModelStore,
    /// The concrete primary endpoint (port-0 binds resolved).
    endpoint: Endpoint,
    catalog: RwLock<HashMap<(String, u64), Arc<LoadedModel>>>,
    /// name → (latest version, when the store told us so). Unversioned
    /// references trust this within `latest_ttl_ms`, so hot traffic does
    /// not pay a directory scan per request; `reload` clears it.
    latest: RwLock<HashMap<String, (u64, Instant)>>,
    feature_cache: ShardedLru<Options>,
    prediction_cache: ShardedLru<f64>,
    breaker: CircuitBreaker,
    /// Feature extractions actually executed (cache hits skip these).
    features_computed: AtomicU64,
    predictions_served: AtomicU64,
    /// Extractions avoided because an identical buffer was already being
    /// extracted in the same batch (cross-connection coalescing).
    coalesced: AtomicU64,
    /// `reload` ops handled.
    reloads: AtomicU64,
    /// Open streaming sessions.
    streams: crate::stream::SessionMap,
    /// `stream.chunk` ops handled.
    stream_chunks: AtomicU64,
    /// Online-learning refits that produced a new model version.
    online_refits: AtomicU64,
    /// Durable per-session stream journals (`None` when disabled).
    journal: Option<crate::journal::SessionJournal>,
    /// Idle sessions reaped by the per-op sweep.
    sessions_reaped: AtomicU64,
    /// Already-acked chunks answered idempotently from the outcome cache.
    stream_replays: AtomicU64,
    /// `stream.resume` ops that successfully rehydrated or re-attached.
    stream_resumes: AtomicU64,
    /// Chunk observations fed to online learners (exactly-once: replays
    /// never double-count).
    stream_observed: AtomicU64,
    /// Journal appends that failed (durability degraded, stream kept
    /// alive).
    journal_errors: AtomicU64,
}

impl ServerState {
    fn new(config: ServeConfig, endpoint: Endpoint) -> Result<ServerState> {
        let store = ModelStore::open(&config.model_dir)?;
        let journal = config
            .stream_journal
            .then(|| crate::journal::SessionJournal::open(&config.model_dir))
            .transpose()?;
        let idle = Duration::from_secs(config.stream_idle_secs);
        Ok(ServerState {
            feature_cache: ShardedLru::new(
                "serve:cache.feature",
                config.cache_shards,
                config.cache_entries,
            ),
            prediction_cache: ShardedLru::new(
                "serve:cache.prediction",
                config.cache_shards,
                config.cache_entries,
            ),
            breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown_ms),
            config,
            store,
            endpoint,
            catalog: RwLock::new(HashMap::new()),
            latest: RwLock::new(HashMap::new()),
            features_computed: AtomicU64::new(0),
            predictions_served: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            streams: crate::stream::SessionMap::new(idle),
            stream_chunks: AtomicU64::new(0),
            online_refits: AtomicU64::new(0),
            journal,
            sessions_reaped: AtomicU64::new(0),
            stream_replays: AtomicU64::new(0),
            stream_resumes: AtomicU64::new(0),
            stream_observed: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
        })
    }

    /// Reap idle sessions; runs on every stream op so abandoned sessions
    /// are collected even on an otherwise-quiet daemon. The durable
    /// journal (when enabled) outlives the reap, so a reaped-but-journaled
    /// session is still resumable.
    fn sweep_sessions(&self) {
        let reaped = self.streams.sweep();
        if reaped > 0 {
            self.sessions_reaped
                .fetch_add(reaped as u64, Ordering::Relaxed);
            pressio_obs::add_counter("serve:session.reaped", reaped as i64);
        }
    }

    /// The latest store version of `name`, via the TTL cache.
    fn latest_version(&self, name: &str) -> Result<u64> {
        let now = Instant::now();
        if let Some(&(version, fetched)) = self
            .latest
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            if now.duration_since(fetched) < Duration::from_millis(self.config.latest_ttl_ms) {
                return Ok(version);
            }
        }
        let version = *self
            .store
            .versions(name)?
            .last()
            .ok_or_else(|| Error::UnknownPlugin {
                kind: "model",
                name: name.to_string(),
            })?;
        self.latest
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), (version, now));
        Ok(version)
    }

    /// Resolve `name[@version]` to a resident model, loading (and
    /// verifying) the artifact on first use. An unversioned reference
    /// resolves the latest store version (through the TTL cache), so a
    /// model re-trained under the same name is picked up hot — and a
    /// corrupt latest artifact is quarantined with fallback to the
    /// previous version ([`ModelStore::load_resilient`]) instead of an
    /// outage.
    fn resolve_model(&self, model_ref: &str) -> Result<Arc<LoadedModel>> {
        let (name, version_req) = parse_model_ref(model_ref)?;
        let version = match version_req {
            Some(v) => v,
            None => self.latest_version(&name)?,
        };
        if let Some(model) = self
            .catalog
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(name.clone(), version))
        {
            return Ok(model.clone());
        }
        let artifact = self.store.load_resilient(&name, version_req)?;
        if version_req.is_none() && artifact.version != version {
            // quarantine fallback loaded an older version: the cached
            // "latest" points at a file that no longer exists
            self.latest
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .insert(name.clone(), (artifact.version, Instant::now()));
        }
        let scheme = standard_schemes().build(&artifact.scheme)?;
        let mut predictor = scheme.make_predictor();
        predictor.load_state(&artifact.state)?;
        let model = Arc::new(LoadedModel {
            name: artifact.name,
            version: artifact.version,
            scheme: artifact.scheme,
            predictor,
        });
        // keyed by the version actually loaded: on quarantine fallback
        // that differs from the latest-version probe above
        self.catalog
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert((model.name.clone(), model.version), model.clone());
        pressio_obs::add_counter("serve:model.loaded", 1);
        Ok(model)
    }

    fn install_model(&self, model: LoadedModel) {
        // a freshly trained version is the latest by construction; make it
        // visible without waiting out the TTL
        self.latest
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(model.name.clone(), (model.version, Instant::now()));
        self.catalog
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert((model.name.clone(), model.version), Arc::new(model));
    }

    /// `reload`: forget every cached "latest version", re-resolve each
    /// resident model name against the store, drop catalog entries that
    /// are no longer the latest, and purge predictions cached under
    /// superseded versions. After this returns, no response can be served
    /// from state that predates the reload.
    fn reload(&self) -> Result<Options> {
        self.latest
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        let names: Vec<String> = {
            let catalog = self.catalog.read().unwrap_or_else(|e| e.into_inner());
            let mut names: Vec<String> = catalog.keys().map(|(n, _)| n.clone()).collect();
            names.sort();
            names.dedup();
            names
        };
        let mut stale_tags: Vec<String> = Vec::new();
        let mut dropped = 0usize;
        for name in &names {
            // a name whose artifacts vanished entirely drops all versions
            let latest = self.store.versions(name)?.last().copied();
            let mut catalog = self.catalog.write().unwrap_or_else(|e| e.into_inner());
            catalog.retain(|(n, v), _| {
                if n != name || Some(*v) == latest {
                    return true;
                }
                // colon-delimited so `m@1` cannot match inside `mm@12`
                stale_tags.push(format!(":{n}@{v}:"));
                dropped += 1;
                false
            });
        }
        let purged = if stale_tags.is_empty() {
            0
        } else {
            self.prediction_cache
                .purge_where(|key| stale_tags.iter().any(|tag| key.contains(tag.as_str())))
        };
        self.reloads.fetch_add(1, Ordering::Relaxed);
        pressio_obs::add_counter("serve:reload", 1);
        Ok(Options::new()
            .with("serve:type", "reloaded")
            .with("serve:models.dropped", dropped as u64)
            .with("serve:predictions.purged", purged as u64))
    }
}

/// Shutdown coordination: a flag plus a self-connect per listener to
/// unblock every blocked `accept`.
struct ShutdownSignal {
    flag: AtomicBool,
    endpoints: Vec<Endpoint>,
}

impl ShutdownSignal {
    fn trigger(&self) {
        if !self.flag.swap(true, Ordering::AcqRel) {
            // wake each accept loop; the accepted no-op connections close
            // immediately when the loops break
            for endpoint in &self.endpoints {
                let _ = endpoint.connect();
            }
        }
    }
}

/// A running server.
pub struct ServerHandle {
    endpoint: Endpoint,
    signal: Arc<ShutdownSignal>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The concrete endpoint (with a real port for `port 0` TCP binds).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Request a graceful shutdown without a client connection.
    pub fn trigger_shutdown(&self) {
        self.signal.trigger();
    }

    /// Whether the server is still accepting (false once shut down or
    /// crashed). The supervisor's liveness probe.
    pub fn is_running(&self) -> bool {
        self.accept.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Block until the server has fully drained and exited.
    pub fn wait(mut self) -> Result<()> {
        if let Some(t) = self.accept.take() {
            t.join()
                .map_err(|_| Error::TaskFailed("server accept thread panicked".into()))?;
        }
        Ok(())
    }
}

/// The daemon entry point used by `pressio serve`: start and block until
/// a graceful shutdown completes.
pub fn serve(config: ServeConfig) -> Result<()> {
    Server::start(config)?.wait()
}

/// Constructor namespace for the daemon.
pub struct Server;

impl Server {
    /// Bind every listener, spawn the accept loops, and return
    /// immediately. All listeners feed one pipeline and share one cache,
    /// so a shard reached over its private routed endpoint and over the
    /// shared `SO_REUSEPORT` data port answers identically.
    pub fn start(config: ServeConfig) -> Result<ServerHandle> {
        let listener = config.listen.bind()?;
        let endpoint = listener.local_endpoint()?;
        let mut listeners = vec![listener];
        for extra in &config.extra_listeners {
            let bound = if extra.reuseport {
                extra.endpoint.bind_reuseport()?
            } else {
                extra.endpoint.bind()?
            };
            listeners.push(bound);
        }
        let mut endpoints = vec![endpoint.clone()];
        for l in &listeners[1..] {
            endpoints.push(l.local_endpoint()?);
        }
        let state = Arc::new(ServerState::new(config, endpoint.clone())?);
        let signal = Arc::new(ShutdownSignal {
            flag: AtomicBool::new(false),
            endpoints,
        });
        let worker_state = state.clone();
        let pipeline = Arc::new(Pipeline::start(
            state.config.queue_capacity,
            state.config.batch_max,
            state.config.workers,
            Arc::new(move |batch| handle_batch(&worker_state, batch)),
        ));
        let seq = Arc::new(AtomicU64::new(0));
        let mut accept_threads = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let state = state.clone();
            let signal = signal.clone();
            let pipeline = pipeline.clone();
            let seq = seq.clone();
            let t = std::thread::Builder::new()
                .name(format!("pressio-serve-accept-{i}"))
                .spawn(move || accept_loop(listener, state, pipeline, signal, seq))
                .map_err(|e| Error::Io(format!("spawning accept thread: {e}")))?;
            accept_threads.push(t);
        }
        // coordinator: join every accept loop, then drain the shared
        // pipeline exactly once
        let accept = std::thread::Builder::new()
            .name("pressio-serve-coord".into())
            .spawn(move || {
                for t in accept_threads {
                    let _ = t.join();
                }
                pipeline.shutdown();
                pressio_obs::flush();
            })
            .map_err(|e| Error::Io(format!("spawning coordinator thread: {e}")))?;
        Ok(ServerHandle {
            endpoint,
            signal,
            accept: Some(accept),
        })
    }
}

fn accept_loop(
    listener: Listener,
    state: Arc<ServerState>,
    pipeline: Arc<Pipeline>,
    signal: Arc<ShutdownSignal>,
    seq: Arc<AtomicU64>,
) {
    let mut connections = Vec::new();
    while !signal.flag.load(Ordering::Acquire) {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => continue,
        };
        if signal.flag.load(Ordering::Acquire) {
            break; // the shutdown self-connect
        }
        let state = state.clone();
        let pipeline = pipeline.clone();
        let signal = signal.clone();
        let seq = seq.clone();
        if let Ok(handle) = std::thread::Builder::new()
            .name("pressio-serve-conn".into())
            .spawn(move || connection_loop(conn, &state, &pipeline, &signal, &seq))
        {
            connections.push(handle);
        }
        // reap finished connection threads so the list stays bounded
        connections.retain(|h| !h.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
    #[cfg(unix)]
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

fn connection_loop(
    mut conn: Conn,
    state: &ServerState,
    pipeline: &Pipeline,
    signal: &ShutdownSignal,
    seq: &AtomicU64,
) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
    while let Some(request) =
        protocol::next_request(&mut conn, state.config.max_frame, &signal.flag)
    {
        let op_name = request
            .get_str_opt("serve:op")
            .ok()
            .flatten()
            .unwrap_or("")
            .to_string();
        let _span = pressio_obs::span(format!("serve:op.{op_name}"));
        // failpoint: the daemon dies after accepting a request but before
        // answering it — the widest crash window a client can face. Exit
        // code 86 distinguishes the injected crash from a real panic so
        // supervisors and chaos tests can assert on it.
        if let Some(pressio_faults::FaultAction::Crash) =
            pressio_faults::check("serve:request.crash")
        {
            std::process::exit(86);
        }
        let started = Instant::now();
        let mut shutting_down = false;
        let response = match op_name.as_str() {
            op::PING => Options::new().with("serve:type", "pong"),
            op::STATS => stats_response(state, pipeline),
            op::MODELS => models_response(state),
            op::LOAD => respond(handle_load(state, &request)),
            op::TRAIN => respond(handle_train(state, &request)),
            op::RELOAD => respond(state.reload()),
            op::TOPOLOGY => respond(topology_response(state)),
            // streaming ops run inline on the connection thread: chunks of
            // one stream are strictly ordered (carried state), so routing
            // them through the batching pipeline would buy nothing
            op::STREAM_BEGIN => respond(handle_stream_begin(state, &request)),
            op::STREAM_CHUNK => respond(handle_stream_chunk(state, &request)),
            op::STREAM_END => respond(handle_stream_end(state, &request)),
            op::STREAM_RESUME => respond(handle_stream_resume(state, &request)),
            op::SHUTDOWN => {
                shutting_down = true;
                Options::new().with("serve:type", "bye")
            }
            op::PREDICT | op::SLEEP => submit_and_wait(state, pipeline, seq, request),
            other => {
                protocol::error_response(code::BAD_REQUEST, format!("unknown serve:op '{other}'"))
            }
        };
        let response = response.with("serve:elapsed_ms", started.elapsed().as_secs_f64() * 1e3);
        // failpoint: a stalled client holds the response in flight
        if let Some(
            pressio_faults::FaultAction::Stall(ms) | pressio_faults::FaultAction::Delay(ms),
        ) = pressio_faults::check("serve:conn.stall")
        {
            std::thread::sleep(Duration::from_millis(ms));
        }
        // failpoint: sever the connection mid-frame — the client sees a
        // torn frame / EOF and must reconnect and retry
        let write_ok = if pressio_faults::check("serve:conn.drop").is_some() {
            if let Ok(frame) = protocol::frame_bytes(&response) {
                let _ = std::io::Write::write_all(&mut conn, &frame[..frame.len() / 2]);
                let _ = std::io::Write::flush(&mut conn);
            }
            false
        } else {
            write_frame(&mut conn, &response).is_ok()
        };
        if shutting_down {
            signal.trigger();
            break;
        }
        if !write_ok {
            break;
        }
    }
}

fn respond(result: Result<Options>) -> Options {
    result.unwrap_or_else(|e| {
        let error_code = match &e {
            Error::UnknownPlugin { .. } => code::NOT_FOUND,
            Error::MissingOption(_) | Error::InvalidValue { .. } | Error::TypeMismatch { .. } => {
                code::BAD_REQUEST
            }
            _ => code::INTERNAL,
        };
        protocol::error_response(error_code, e.to_string())
    })
}

/// Serve the shard topology: the supervisor-written `.topology.json` next
/// to the model store when one exists, else a synthesized single-shard
/// topology for standalone servers.
fn topology_response(state: &ServerState) -> Result<Options> {
    let topology = match crate::shard::Topology::load(&state.config.model_dir)? {
        Some(t) => t,
        None => crate::shard::Topology::single(state.endpoint.clone()),
    };
    Ok(topology.to_options())
}

fn stats_response(state: &ServerState, pipeline: &Pipeline) -> Options {
    let f = state.feature_cache.stats();
    let p = state.prediction_cache.stats();
    let mut resp = Options::new();
    if let Some(shard) = state.config.shard_index {
        resp.set("serve:shard", shard as u64);
    }
    resp.with("serve:type", "stats")
        .with("serve:feature_cache.hits", f.hits)
        .with("serve:feature_cache.misses", f.misses)
        .with("serve:feature_cache.evictions", f.evictions)
        .with("serve:feature_cache.len", f.len as u64)
        .with("serve:prediction_cache.hits", p.hits)
        .with("serve:prediction_cache.misses", p.misses)
        .with("serve:prediction_cache.evictions", p.evictions)
        .with("serve:prediction_cache.len", p.len as u64)
        .with("serve:queue.depth", pipeline.depth() as u64)
        .with(
            "serve:features.computed",
            state.features_computed.load(Ordering::Relaxed),
        )
        .with(
            "serve:predictions.served",
            state.predictions_served.load(Ordering::Relaxed),
        )
        .with("serve:coalesced", state.coalesced.load(Ordering::Relaxed))
        .with("serve:reloads", state.reloads.load(Ordering::Relaxed))
        .with("serve:streams.active", state.streams.active() as u64)
        .with(
            "serve:stream.chunks",
            state.stream_chunks.load(Ordering::Relaxed),
        )
        .with(
            "serve:online.refits",
            state.online_refits.load(Ordering::Relaxed),
        )
        .with(
            "serve:session.reaped",
            state.sessions_reaped.load(Ordering::Relaxed),
        )
        .with(
            "serve:stream.replays",
            state.stream_replays.load(Ordering::Relaxed),
        )
        .with(
            "serve:stream.resumes",
            state.stream_resumes.load(Ordering::Relaxed),
        )
        .with(
            "serve:stream.observed",
            state.stream_observed.load(Ordering::Relaxed),
        )
        .with(
            "serve:journal.errors",
            state.journal_errors.load(Ordering::Relaxed),
        )
        .with(
            "serve:models.resident",
            state
                .catalog
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .len() as u64,
        )
        .with("serve:breaker.state", state.breaker.state_name())
        .with("serve:breaker.trips", state.breaker.trips())
        .with("serve:breaker.shed", state.breaker.shed())
}

fn models_response(state: &ServerState) -> Options {
    match state.store.models() {
        Ok(models) => {
            let refs: Vec<String> = models
                .iter()
                .flat_map(|(name, versions)| versions.iter().map(move |v| format!("{name}@{v}")))
                .collect();
            Options::new()
                .with("serve:type", "models")
                .with("serve:models", refs)
        }
        Err(e) => protocol::error_response(code::INTERNAL, e.to_string()),
    }
}

fn handle_load(state: &ServerState, request: &Options) -> Result<Options> {
    let model_ref = request.get_str("serve:model")?;
    let model = state.resolve_model(model_ref)?;
    Ok(Options::new()
        .with("serve:type", "loaded")
        .with("serve:model", model.name.as_str())
        .with("serve:version", model.version)
        .with("serve:scheme", model.scheme.as_str()))
}

/// Train a predictor on a synthetic Hurricane sweep, persist it, and make
/// it hot. Runs on the connection thread: training is minutes-scale work
/// and must not occupy a prediction worker.
fn handle_train(state: &ServerState, request: &Options) -> Result<Options> {
    let _span = pressio_obs::span("serve:train");
    let scheme_name = request.get_str("serve:scheme")?.to_string();
    let model_name = request.get_str("serve:model")?.to_string();
    let comp_id = request
        .get_str_opt("serve:compressor")?
        .unwrap_or("sz3")
        .to_string();
    let dims: Vec<usize> = match request.get_u64_slice("serve:dims") {
        Ok(d) if d.len() == 3 => d.iter().map(|&x| x as usize).collect(),
        Ok(_) => {
            return Err(Error::InvalidValue {
                key: "serve:dims".into(),
                reason: "need exactly 3 dims".into(),
            })
        }
        Err(_) => vec![16, 16, 8],
    };
    let timesteps = request.get_u64_opt("serve:timesteps")?.unwrap_or(2) as usize;
    let bounds: Vec<f64> = match request.get_f64_slice("serve:bounds") {
        Ok(b) if !b.is_empty() => b.to_vec(),
        _ => vec![1e-5, 1e-4, 1e-3],
    };
    let scheme = standard_schemes().build(&scheme_name)?;
    if !scheme.supports(&comp_id) {
        return Err(Error::Unsupported(format!(
            "scheme '{scheme_name}' does not support compressor '{comp_id}'"
        )));
    }
    let mut hurricane =
        pressio_dataset::Hurricane::with_dims(dims[0], dims[1], dims[2], timesteps.max(1));
    let mut features = Vec::new();
    let mut targets = Vec::new();
    for i in 0..hurricane.len() {
        let data = hurricane.load_data(i)?;
        let agnostic = scheme.error_agnostic_features(&data)?;
        for &abs in &bounds {
            let mut comp = standard_compressors().build(&comp_id)?;
            comp.set_options(request)?; // pass through compressor knobs
            comp.set_options(&Options::new().with("pressio:abs", abs))?;
            let mut sample = agnostic.clone();
            sample.merge_from(&scheme.error_dependent_features(&data, comp.as_ref())?);
            let target = scheme.training_observation(&data, comp.as_ref())?;
            features.push(sample);
            targets.push(target);
        }
    }
    let mut predictor = scheme.make_predictor();
    let (fit_result, fit_ms) = time_ms(|| predictor.fit(&features, &targets));
    fit_result?;
    pressio_obs::record_ms("serve:train.fit", fit_ms);
    let predictor_state = predictor.state()?;
    let version = state
        .store
        .save(&model_name, &scheme_name, &predictor_state)?;
    state.install_model(LoadedModel {
        name: model_name.clone(),
        version,
        scheme: scheme_name.clone(),
        predictor,
    });
    Ok(Options::new()
        .with("serve:type", "trained")
        .with("serve:model", model_name)
        .with("serve:version", version)
        .with("serve:scheme", scheme_name)
        .with("serve:samples", features.len() as u64)
        .with("serve:fit_ms", fit_ms))
}

// ---- streaming ops ---------------------------------------------------------

/// Open a streaming session. A `serve:model` reference is resolved (and
/// loaded) now so a bad reference fails at `begin`, not mid-stream; a
/// model-less stream needs a scheme whose predictor works untrained.
/// Compressor knobs on the request are captured and re-applied per chunk.
fn handle_stream_begin(state: &ServerState, request: &Options) -> Result<Options> {
    state.sweep_sessions();
    let id = request.get_str("stream:id")?.to_string();
    let model_name = request.get_str_opt("serve:model")?.map(str::to_string);
    let (scheme_name, model_tag) = match &model_name {
        Some(model_ref) => {
            let model = state.resolve_model(model_ref)?;
            (
                model.scheme.clone(),
                format!("{}@{}", model.name, model.version),
            )
        }
        None => {
            let scheme_name = request.get_str("serve:scheme")?.to_string();
            let scheme = standard_schemes().build(&scheme_name)?;
            if scheme.make_predictor().requires_training() {
                return Ok(protocol::error_response(
                    code::NOT_FOUND,
                    format!(
                        "scheme '{scheme_name}' needs a trained model; \
                         train one and pass serve:model"
                    ),
                ));
            }
            (scheme_name, String::new())
        }
    };
    let comp_id = request
        .get_str_opt("serve:compressor")?
        .unwrap_or("sz3")
        .to_string();
    let scheme = standard_schemes().build(&scheme_name)?;
    if !scheme.supports(&comp_id) {
        return Err(Error::Unsupported(format!(
            "scheme '{scheme_name}' does not support compressor '{comp_id}'"
        )));
    }
    let online = state.config.online;
    // the session token: client-minted when supplied (so a client that
    // never saw the `stream.begun` response can still resume), otherwise
    // server-minted and echoed back
    let token = match request.get_str_opt("stream:token")? {
        Some(t) if !t.is_empty() => t.to_string(),
        _ => crate::stream::mint_token(&id),
    };
    let session = crate::stream::StreamSession {
        id: id.clone(),
        token: token.clone(),
        scheme_name: scheme_name.clone(),
        model_name: model_name.clone(),
        comp_id: comp_id.clone(),
        codec_options: request.clone(),
        prev_last: None,
        chunks: 0,
        observed: 0,
        outcomes: Vec::new(),
        last_active: Instant::now(),
        learner: online.then(|| {
            crate::stream::OnlineLearner::new(
                state.config.online_window,
                state.config.online_refit_every,
            )
        }),
    };
    match state.streams.begin(session) {
        Ok(()) => {}
        Err(crate::stream::BeginError::Duplicate) => {
            return Err(Error::InvalidValue {
                key: "stream:id".into(),
                reason: format!("stream '{id}' is already open"),
            })
        }
        Err(crate::stream::BeginError::Full) => {
            return Ok(protocol::error_response(
                code::OVERLOADED,
                format!(
                    "stream sessions at capacity ({})",
                    crate::stream::MAX_SESSIONS
                ),
            ))
        }
    }
    // a fresh begin invalidates any stale journal for a reused id, then
    // durably records the session configuration for `stream.resume`
    if let Some(journal) = &state.journal {
        let begin_record = begin_journal_record(
            &id,
            &token,
            &scheme_name,
            &model_name,
            &comp_id,
            request,
            state,
        );
        let written = journal
            .reset(&id)
            .and_then(|()| journal.append(&id, &begin_record));
        if let Err(e) = written {
            state.journal_errors.fetch_add(1, Ordering::Relaxed);
            pressio_obs::add_counter("serve:journal.error", 1);
            pressio_obs::add_counter("serve:journal.begin_failed", 1);
            let _ = e;
        }
    }
    pressio_obs::add_counter("serve:stream.begin", 1);
    let mut resp = Options::new()
        .with("serve:type", "stream.begun")
        .with("stream:id", id)
        .with("serve:scheme", scheme_name)
        .with("stream:online", online)
        .with("stream:token", token)
        .with("stream:acked", 0u64);
    if !model_tag.is_empty() {
        resp.set("serve:model", model_tag);
    }
    Ok(resp)
}

/// The journal's first record: everything `stream.resume` needs to
/// rebuild the session shell (the chunk records then replay its state).
fn begin_journal_record(
    id: &str,
    token: &str,
    scheme_name: &str,
    model_name: &Option<String>,
    comp_id: &str,
    request: &Options,
    state: &ServerState,
) -> Options {
    let mut record = Options::new()
        .with("j:type", "begin")
        .with("j:id", id)
        .with("j:token", token)
        .with("j:scheme", scheme_name)
        .with("j:comp", comp_id)
        .with("j:online", state.config.online)
        .with("j:window", state.config.online_window as u64)
        .with("j:refit_every", state.config.online_refit_every as u64);
    if let Some(model) = model_name {
        record.set("j:model", model.as_str());
    }
    if let Ok(json) = request.to_json() {
        record.set("j:request", json);
    }
    record
}

/// Predict for one chunk of an open stream. The session's previous
/// trailing timestep feeds the `temporal:*` feature group; an unpinned
/// model reference is re-resolved per chunk so online refits (and
/// concurrent re-trains) take effect mid-stream. With `--online` and a
/// reported `stream:actual`, the observation feeds the session's rolling
/// window and may trigger a versioned model refit.
fn handle_stream_chunk(state: &ServerState, request: &Options) -> Result<Options> {
    state.sweep_sessions();
    // failpoint: the connection stalls mid-stream (client sees latency,
    // never corruption)
    if let Some(pressio_faults::FaultAction::Stall(ms) | pressio_faults::FaultAction::Delay(ms)) =
        pressio_faults::check("stream:conn.stall")
    {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let id = request.get_str("stream:id")?.to_string();
    // failpoint: the in-memory session vanishes (as a shard crash or
    // respawn would lose it) while the durable journal survives — the
    // client sees `not_found`, resumes, and the journal rehydrates
    if pressio_faults::check("stream:session.lost").is_some() {
        state.streams.end(&id);
        pressio_obs::add_counter("serve:session.lost_injected", 1);
    }
    // transient-overload failpoint: the chunk is rejected with a
    // retryable code, exactly like a full queue would answer `query` —
    // the resilient sender must retry it in place
    if pressio_faults::check("stream:chunk.overload").is_some() {
        return Ok(protocol::error_response(
            code::OVERLOADED,
            "stream chunk rejected (injected overload)",
        ));
    }
    let entry = state.streams.get(&id).ok_or_else(|| Error::UnknownPlugin {
        kind: "stream",
        name: id.clone(),
    })?;
    let mut guard = entry.lock().unwrap_or_else(|e| e.into_inner());
    let session = &mut *guard;
    // an explicit chunk sequence number makes replays idempotent: a seq
    // at or below the acked offset answers from the outcome cache without
    // re-feeding the learner; a seq past the next expected chunk is a
    // typed error (the client skipped ahead)
    if let Some(seq) = request.get_u64_opt("stream:seq")? {
        if seq == 0 {
            return Err(Error::InvalidValue {
                key: "stream:seq".into(),
                reason: "chunk sequence numbers are 1-based".into(),
            });
        }
        if seq <= session.chunks {
            let outcome = session
                .outcome(seq)
                .cloned()
                .ok_or_else(|| Error::InvalidValue {
                    key: "stream:seq".into(),
                    reason: format!("chunk {seq} is acked but has no cached outcome"),
                })?;
            session.last_active = Instant::now();
            state.stream_replays.fetch_add(1, Ordering::Relaxed);
            pressio_obs::add_counter("serve:stream.replay", 1);
            let mut resp = prediction_response(
                outcome.prediction,
                true,
                &session.scheme_name,
                &outcome.model_tag,
                state.config.shard_index,
            )
            .with("serve:type", "stream.prediction")
            .with("stream:id", id)
            .with("stream:seq", seq)
            .with("stream:replayed", true)
            .with("stream:acked", session.chunks)
            .with("stream:token", session.token.as_str());
            if let Some(err) = outcome.online_error {
                resp.set("stream:online.error", err);
            }
            if let Some(obs) = outcome.online_observations {
                resp.set("stream:online.observations", obs);
            }
            if let Some(version) = outcome.online_version {
                resp.set("stream:online.version", version);
            }
            return Ok(resp);
        }
        if seq != session.chunks + 1 {
            return Err(Error::InvalidValue {
                key: "stream:seq".into(),
                reason: format!(
                    "chunk {seq} skips ahead of the acked offset {} (next expected {})",
                    session.chunks,
                    session.chunks + 1
                ),
            });
        }
    }
    let data = protocol::data_from_request(request)?;
    let scheme = standard_schemes().build(&session.scheme_name)?;
    let mut comp = standard_compressors().build(&session.comp_id)?;
    comp.set_options(&session.codec_options)?;
    comp.set_options(request)?; // per-chunk overrides
    let mut features = scheme.error_agnostic_features(&data)?;
    features.merge_from(&scheme.error_dependent_features(&data, comp.as_ref())?);
    if let Some(prev) = &session.prev_last {
        features.merge_from(&pressio_predict::features::temporal_delta_features(
            prev, &data,
        ));
    }
    state.features_computed.fetch_add(2, Ordering::Relaxed);
    let (prediction, model_tag) = match &session.model_name {
        Some(model_ref) => {
            let model = state.resolve_model(model_ref)?;
            (
                model.predictor.predict(&features)?,
                format!("{}@{}", model.name, model.version),
            )
        }
        None => (scheme.make_predictor().predict(&features)?, String::new()),
    };
    state.predictions_served.fetch_add(1, Ordering::Relaxed);
    state.stream_chunks.fetch_add(1, Ordering::Relaxed);
    session.chunks += 1;
    let mut resp = prediction_response(
        prediction,
        false,
        &session.scheme_name,
        &model_tag,
        state.config.shard_index,
    )
    .with("serve:type", "stream.prediction")
    .with("stream:id", id.clone())
    .with("stream:seq", session.chunks);
    let mut outcome = crate::stream::ChunkOutcome {
        prediction,
        model_tag,
        online_error: None,
        online_observations: None,
        online_version: None,
        observed: false,
    };
    // the (features, actual) pair fed to the learner is also journaled so
    // rehydration can replay the observation stream exactly once
    let mut journaled_observation: Option<(String, f64)> = None;
    if let Some(learner) = &mut session.learner {
        if let Ok(Some(actual)) = request.get_f64_opt("stream:actual") {
            if actual.is_finite() && actual > 0.0 {
                let features_json = features.to_json().ok();
                let rolling = learner.observe(features, prediction, actual);
                resp.set("stream:online.error", rolling);
                resp.set("stream:online.observations", learner.observations() as u64);
                outcome.online_error = Some(rolling);
                outcome.online_observations = Some(learner.observations() as u64);
                outcome.observed = true;
                session.observed += 1;
                state.stream_observed.fetch_add(1, Ordering::Relaxed);
                if let Some(json) = features_json {
                    journaled_observation = Some((json, actual));
                }
                if learner.should_refit() {
                    if let Some(model_ref) = &session.model_name {
                        // best-effort: a failed refit keeps serving the
                        // current model version rather than failing the chunk
                        match refit_online(state, &session.scheme_name, model_ref, learner) {
                            Ok(version) => {
                                resp.set("stream:online.version", version);
                                outcome.online_version = Some(version);
                            }
                            Err(e) => {
                                pressio_obs::add_counter("serve:online.refit_failed", 1);
                                resp.set("stream:online.refit_error", e.to_string());
                            }
                        }
                    }
                }
            }
        }
    }
    session.prev_last = pressio_core::chunking::last_outer_slice(&data).ok();
    session.last_active = Instant::now();
    // journal before acking so an acked chunk is always rehydratable;
    // a failed append degrades durability, not availability
    if let Some(journal) = &state.journal {
        let mut record = Options::new()
            .with("j:type", "chunk")
            .with("j:seq", session.chunks)
            .with("j:prediction", outcome.prediction)
            .with("j:model", outcome.model_tag.as_str())
            .with("j:observed", outcome.observed);
        if let Some((features_json, actual)) = journaled_observation {
            record.set("j:features", features_json);
            record.set("j:actual", actual);
        }
        if let Some(err) = outcome.online_error {
            record.set("j:online.error", err);
        }
        if let Some(obs) = outcome.online_observations {
            record.set("j:online.observations", obs);
        }
        if let Some(version) = outcome.online_version {
            record.set("j:online.version", version);
        }
        if let Some(prev) = &session.prev_last {
            protocol::data_into_request(&mut record, prev);
        }
        if journal.append(&session.id, &record).is_err() {
            state.journal_errors.fetch_add(1, Ordering::Relaxed);
            pressio_obs::add_counter("serve:journal.error", 1);
        }
    }
    session.outcomes.push(outcome);
    resp.set("stream:acked", session.chunks);
    resp.set("stream:token", session.token.as_str());
    Ok(resp)
}

/// Refit the scheme's predictor on the learner's rolling window and
/// install the result as a new hot model version. The save goes through
/// the normal versioned store, so the refit is hot-reload safe and
/// survives a daemon restart; a version-pinned session keeps predicting
/// with its pinned version while the bump serves unpinned traffic.
fn refit_online(
    state: &ServerState,
    scheme_name: &str,
    model_ref: &str,
    learner: &mut crate::stream::OnlineLearner,
) -> Result<u64> {
    let (name, _) = parse_model_ref(model_ref)?;
    let (features, targets) = learner.window_snapshot();
    let scheme = standard_schemes().build(scheme_name)?;
    let mut predictor = scheme.make_predictor();
    let (fit_result, fit_ms) = time_ms(|| predictor.fit(&features, &targets));
    fit_result?;
    pressio_obs::record_ms("serve:online.fit", fit_ms);
    let predictor_state = predictor.state()?;
    let version = state.store.save(&name, scheme_name, &predictor_state)?;
    state.install_model(LoadedModel {
        name,
        version,
        scheme: scheme_name.to_string(),
        predictor,
    });
    state.online_refits.fetch_add(1, Ordering::Relaxed);
    pressio_obs::add_counter("serve:online.refit", 1);
    learner.mark_refit();
    Ok(version)
}

/// Close a streaming session and report its summary. The durable journal
/// is deleted — a completed stream is no longer resumable.
fn handle_stream_end(state: &ServerState, request: &Options) -> Result<Options> {
    state.sweep_sessions();
    let id = request.get_str("stream:id")?;
    let entry = state.streams.end(id).ok_or_else(|| Error::UnknownPlugin {
        kind: "stream",
        name: id.to_string(),
    })?;
    if let Some(journal) = &state.journal {
        if journal.remove(id).is_err() {
            state.journal_errors.fetch_add(1, Ordering::Relaxed);
            pressio_obs::add_counter("serve:journal.error", 1);
        }
    }
    let session = entry.lock().unwrap_or_else(|e| e.into_inner());
    let mut resp = Options::new()
        .with("serve:type", "stream.ended")
        .with("stream:id", id)
        .with("stream:chunks", session.chunks)
        .with("stream:observed", session.observed);
    if let Some(learner) = &session.learner {
        resp.set("stream:online.error", learner.rolling_error());
        resp.set("stream:online.refits", learner.refits());
    }
    pressio_obs::add_counter("serve:stream.end", 1);
    Ok(resp)
}

/// Rehydrate or re-attach a streaming session after a disconnect, crash,
/// or shard respawn. The client presents the stream id, its session
/// token, and its last-acked chunk offset; the server answers with the
/// *authoritative* acked offset (the client replays from there — replays
/// of already-acked chunks are idempotent). A session missing from memory
/// is rebuilt from the durable journal: configuration from the begin
/// record, then every chunk record replayed — carried trailing slice,
/// cached outcomes, and the online learner's window, each observation
/// exactly once.
fn handle_stream_resume(state: &ServerState, request: &Options) -> Result<Options> {
    state.sweep_sessions();
    // failpoint: the resume is refused with a retryable code (as a
    // rebalancing or mid-rehydration shard would); the resilient sender
    // backs off and retries
    if pressio_faults::check("stream:resume.reject").is_some() {
        return Ok(protocol::error_response(
            code::OVERLOADED,
            "stream resume rejected (injected)",
        ));
    }
    let id = request.get_str("stream:id")?.to_string();
    let token = request.get_str("stream:token")?.to_string();
    let client_acked = request.get_u64_opt("stream:acked")?.unwrap_or(0);
    let mut rehydrated = false;
    let entry = match state.streams.get(&id) {
        Some(entry) => entry,
        None => {
            let session = rehydrate_session(state, &id)?.ok_or_else(|| Error::UnknownPlugin {
                kind: "stream",
                name: id.clone(),
            })?;
            rehydrated = true;
            match state.streams.begin(session) {
                // a concurrent resume won the race: attach to its session
                Ok(()) | Err(crate::stream::BeginError::Duplicate) => {}
                Err(crate::stream::BeginError::Full) => {
                    return Ok(protocol::error_response(
                        code::OVERLOADED,
                        format!(
                            "stream sessions at capacity ({})",
                            crate::stream::MAX_SESSIONS
                        ),
                    ))
                }
            }
            state.streams.get(&id).ok_or_else(|| Error::UnknownPlugin {
                kind: "stream",
                name: id.clone(),
            })?
        }
    };
    let mut session = entry.lock().unwrap_or_else(|e| e.into_inner());
    if session.token != token {
        return Err(Error::InvalidValue {
            key: "stream:token".into(),
            reason: format!("token mismatch for stream '{id}'"),
        });
    }
    if client_acked > session.chunks {
        // past-end resume: typed rejection, session untouched. The
        // response carries the authoritative acked offset so a client
        // whose progress outran a torn journal tail can rewind to it and
        // re-resume instead of giving up.
        let mut resp = protocol::error_response(
            code::BAD_REQUEST,
            format!(
                "resume offset {client_acked} is past the acked offset {}",
                session.chunks
            ),
        );
        resp.set("stream:acked", session.chunks);
        return Ok(resp);
    }
    session.last_active = Instant::now();
    state.stream_resumes.fetch_add(1, Ordering::Relaxed);
    pressio_obs::add_counter("serve:stream.resume", 1);
    let mut resp = Options::new()
        .with("serve:type", "stream.resumed")
        .with("stream:id", id)
        .with("serve:scheme", session.scheme_name.as_str())
        .with("stream:token", session.token.as_str())
        .with("stream:acked", session.chunks)
        .with("stream:online", session.learner.is_some())
        .with("stream:rehydrated", rehydrated);
    if let Some(shard) = state.config.shard_index {
        resp.set("serve:shard", shard as u64);
    }
    Ok(resp)
}

/// Rebuild a [`crate::stream::StreamSession`] from its durable journal.
/// Returns `Ok(None)` when journaling is off, no journal exists, or the
/// journal has no usable begin record. Chunk records replay in sequence:
/// a gap or torn tail truncates the rebuild at the last contiguous record
/// (acked state is always a prefix).
fn rehydrate_session(
    state: &ServerState,
    id: &str,
) -> Result<Option<crate::stream::StreamSession>> {
    let journal = match &state.journal {
        Some(j) => j,
        None => return Ok(None),
    };
    let records = match journal.load(id)? {
        Some(r) if !r.is_empty() => r,
        _ => return Ok(None),
    };
    let begin = &records[0];
    if begin.get_str_opt("j:type").ok().flatten() != Some("begin")
        || begin.get_str_opt("j:id").ok().flatten() != Some(id)
    {
        return Ok(None);
    }
    let online = begin.get_bool_opt("j:online")?.unwrap_or(false);
    let window = begin
        .get_u64_opt("j:window")?
        .unwrap_or(state.config.online_window as u64) as usize;
    let refit_every = begin
        .get_u64_opt("j:refit_every")?
        .unwrap_or(state.config.online_refit_every as u64) as usize;
    let codec_options = match begin.get_str_opt("j:request")? {
        Some(json) => Options::from_json(json)?,
        None => Options::new(),
    };
    let mut session = crate::stream::StreamSession {
        id: id.to_string(),
        token: begin.get_str("j:token")?.to_string(),
        scheme_name: begin.get_str("j:scheme")?.to_string(),
        model_name: begin.get_str_opt("j:model")?.map(str::to_string),
        comp_id: begin.get_str("j:comp")?.to_string(),
        codec_options,
        prev_last: None,
        chunks: 0,
        observed: 0,
        outcomes: Vec::new(),
        last_active: Instant::now(),
        learner: online.then(|| crate::stream::OnlineLearner::new(window, refit_every)),
    };
    for record in &records[1..] {
        if record.get_str_opt("j:type").ok().flatten() != Some("chunk") {
            break;
        }
        let seq = match record.get_u64_opt("j:seq") {
            Ok(Some(seq)) if seq == session.chunks + 1 => seq,
            _ => break, // out-of-order or malformed: stop at the prefix
        };
        let prediction = match record.get_f64_opt("j:prediction") {
            Ok(Some(p)) => p,
            _ => break,
        };
        let observed = record
            .get_bool_opt("j:observed")
            .ok()
            .flatten()
            .unwrap_or(false);
        let online_version = record.get_u64_opt("j:online.version").ok().flatten();
        let outcome = crate::stream::ChunkOutcome {
            prediction,
            model_tag: record
                .get_str_opt("j:model")
                .ok()
                .flatten()
                .unwrap_or("")
                .to_string(),
            online_error: record.get_f64_opt("j:online.error").ok().flatten(),
            online_observations: record.get_u64_opt("j:online.observations").ok().flatten(),
            online_version,
            observed,
        };
        if observed {
            if let (Some(learner), Ok(Some(features_json)), Ok(Some(actual))) = (
                session.learner.as_mut(),
                record.get_str_opt("j:features"),
                record.get_f64_opt("j:actual"),
            ) {
                if let Ok(features) = Options::from_json(features_json) {
                    learner.observe(features, prediction, actual);
                    session.observed += 1;
                }
            }
        }
        if online_version.is_some() {
            // the refit itself is already persisted in the model store;
            // replaying only restores the learner's cadence counters
            if let Some(learner) = session.learner.as_mut() {
                learner.mark_refit();
            }
        }
        if let Ok(prev) = protocol::data_from_request(record) {
            session.prev_last = Some(prev);
        }
        session.chunks = seq;
        session.outcomes.push(outcome);
    }
    pressio_obs::add_counter("serve:stream.rehydrated", 1);
    Ok(Some(session))
}

/// Compute the batch key for a queued op, then submit and wait for the
/// worker's reply (or answer `overloaded` immediately).
fn submit_and_wait(
    state: &ServerState,
    pipeline: &Pipeline,
    seq: &AtomicU64,
    request: Options,
) -> Options {
    let op_name = request.get_str("serve:op").unwrap_or("").to_string();
    let batch_key = if op_name == op::SLEEP {
        // sleeps never batch together: each occupies a worker alone
        format!("sleep:{}", seq.fetch_add(1, Ordering::Relaxed))
    } else if let Ok(Some(model)) = request.get_str_opt("serve:model") {
        format!("model:{model}")
    } else if let Ok(Some(scheme)) = request.get_str_opt("serve:scheme") {
        format!("scheme:{scheme}")
    } else {
        return protocol::error_response(
            code::BAD_REQUEST,
            "predict needs serve:model or serve:scheme",
        );
    };
    let deadline_ms = request
        .get_u64_opt("serve:deadline_ms")
        .ok()
        .flatten()
        .unwrap_or(state.config.default_deadline_ms);
    // load shedding: while the breaker is open, reject before touching the
    // queue at all — sustained saturation must not cost queue churn
    if !state.breaker.allow() {
        pressio_obs::add_counter("serve:breaker.shed", 1);
        return protocol::error_response(
            code::OVERLOADED,
            "shedding load (circuit breaker open); retry later",
        );
    }
    let (reply, rx) = sync_channel(1);
    let item = WorkItem {
        batch_key,
        request,
        deadline: Instant::now() + Duration::from_millis(deadline_ms),
        reply,
    };
    match pipeline.submit(item) {
        Err(_) => {
            state.breaker.on_failure();
            pressio_obs::add_counter("serve:overloaded", 1);
            protocol::error_response(
                code::OVERLOADED,
                format!(
                    "queue at capacity ({}); retry later",
                    state.config.queue_capacity
                ),
            )
        }
        Ok(()) => {
            let resp = rx
                .recv_timeout(Duration::from_millis(deadline_ms) + Duration::from_secs(60))
                .unwrap_or_else(|_| {
                    protocol::error_response(code::INTERNAL, "worker dropped the request")
                });
            // overload-class outcomes feed the breaker; anything else
            // (success or a request-specific error) counts as capacity
            if protocol::is_error(&resp, code::OVERLOADED)
                || protocol::is_error(&resp, code::DEADLINE_EXCEEDED)
            {
                state.breaker.on_failure();
            } else {
                state.breaker.on_success();
            }
            resp
        }
    }
}

// ---- worker side -----------------------------------------------------------

fn handle_batch(state: &ServerState, batch: Vec<WorkItem>) {
    let op_name = batch[0]
        .request
        .get_str_opt("serve:op")
        .ok()
        .flatten()
        .unwrap_or("")
        .to_string();
    match op_name.as_str() {
        op::SLEEP => {
            for item in batch {
                let ms = item
                    .request
                    .get_u64_opt("serve:ms")
                    .ok()
                    .flatten()
                    .unwrap_or(100);
                std::thread::sleep(Duration::from_millis(ms));
                item.respond_checked(
                    Options::new()
                        .with("serve:type", "slept")
                        .with("serve:ms", ms),
                );
            }
        }
        _ => handle_predict_batch(state, batch),
    }
}

/// A request past the prediction-cache probe, waiting on features.
struct Prep {
    item: WorkItem,
    data: Data,
    comp_id: String,
    pred_key: String,
    agnostic_key: String,
    dependent_key: String,
    /// Cached error-agnostic features (`None` = must compute).
    agnostic: Option<Options>,
    /// Cached error-dependent features (`None` = must compute).
    dependent: Option<Options>,
}

fn prediction_response(
    value: f64,
    cached: bool,
    scheme: &str,
    model_tag: &str,
    shard: Option<usize>,
) -> Options {
    pressio_obs::add_counter("serve:prediction", 1);
    let mut resp = Options::new()
        .with("serve:type", "prediction")
        .with("serve:prediction", value)
        .with("serve:cached", cached)
        .with("serve:scheme", scheme);
    if !model_tag.is_empty() {
        resp = resp.with("serve:model", model_tag);
    }
    if let Some(shard) = shard {
        resp = resp.with("serve:shard", shard as u64);
    }
    resp
}

fn handle_predict_batch(state: &ServerState, batch: Vec<WorkItem>) {
    let _span = pressio_obs::span("serve:predict.batch");
    // Resolve the shared model/scheme once per batch (items share the
    // batch key by construction, so they share the model reference too).
    let first = &batch[0].request;
    let model = match first.get_str_opt("serve:model").ok().flatten() {
        Some(model_ref) => match state.resolve_model(model_ref) {
            Ok(m) => Some(m),
            Err(e) => {
                let resp = respond(Err(e));
                for item in batch {
                    item.respond(resp.clone());
                }
                return;
            }
        },
        None => None,
    };
    let scheme_name = match &model {
        Some(m) => m.scheme.clone(),
        None => match first.get_str_opt("serve:scheme").ok().flatten() {
            Some(s) => s.to_string(),
            None => {
                let resp = protocol::error_response(
                    code::BAD_REQUEST,
                    "predict needs serve:model or serve:scheme",
                );
                for item in batch {
                    item.respond(resp.clone());
                }
                return;
            }
        },
    };
    // A model-less request runs the scheme's untrained predictor; that only
    // works for analytic schemes whose predictor needs no fit.
    let direct_predictor: Option<Box<dyn Predictor>> = if model.is_none() {
        match standard_schemes().build(&scheme_name) {
            Ok(scheme) => {
                let p = scheme.make_predictor();
                if p.requires_training() {
                    let resp = protocol::error_response(
                        code::NOT_FOUND,
                        format!(
                            "scheme '{scheme_name}' needs a trained model; \
                             train one and pass serve:model"
                        ),
                    );
                    for item in batch {
                        item.respond(resp.clone());
                    }
                    return;
                }
                Some(p)
            }
            Err(e) => {
                let resp = respond(Err(e));
                for item in batch {
                    item.respond(resp.clone());
                }
                return;
            }
        }
    } else {
        None
    };
    let model_tag = model
        .as_ref()
        .map(|m| format!("{}@{}", m.name, m.version))
        .unwrap_or_default();

    // Serial prepare: decode, hash, probe caches. Prediction-cache hits
    // answer here and never reach feature extraction.
    struct MissPrep {
        data: Data,
        comp_id: String,
        pred_key: String,
        agnostic_key: String,
        dependent_key: String,
        agnostic: Option<Options>,
        dependent: Option<Options>,
    }
    enum PrepOutcome {
        CachedPrediction(f64),
        Miss(Box<MissPrep>),
    }
    let prepare = |request: &Options| -> Result<PrepOutcome> {
        let data = protocol::data_from_request(request)?;
        let data_sha = protocol::data_content_hash(request)?;
        let comp_id = request
            .get_str_opt("serve:compressor")?
            .unwrap_or("sz3")
            .to_string();
        let mut comp = standard_compressors().build(&comp_id)?;
        comp.set_options(request)?;
        let settings_key = CachedEvaluator::error_settings_key(comp.as_ref());
        let pred_key = format!("p:{scheme_name}:{model_tag}:{settings_key}:{data_sha}");
        if let Some(value) = state.prediction_cache.get(&pred_key) {
            return Ok(PrepOutcome::CachedPrediction(value));
        }
        let agnostic_key = format!("a:{scheme_name}:{data_sha}");
        let dependent_key = format!("d:{scheme_name}:{settings_key}:{data_sha}");
        Ok(PrepOutcome::Miss(Box::new(MissPrep {
            agnostic: state.feature_cache.get(&agnostic_key),
            dependent: state.feature_cache.get(&dependent_key),
            data,
            comp_id,
            pred_key,
            agnostic_key,
            dependent_key,
        })))
    };
    let mut preps: Vec<Prep> = Vec::new();
    for item in batch {
        match prepare(&item.request) {
            Err(e) => item.respond(respond(Err(e))),
            Ok(PrepOutcome::CachedPrediction(value)) => {
                state.predictions_served.fetch_add(1, Ordering::Relaxed);
                item.respond(prediction_response(
                    value,
                    true,
                    &scheme_name,
                    &model_tag,
                    state.config.shard_index,
                ));
            }
            Ok(PrepOutcome::Miss(miss)) => preps.push(Prep {
                item,
                data: miss.data,
                comp_id: miss.comp_id,
                pred_key: miss.pred_key,
                agnostic_key: miss.agnostic_key,
                dependent_key: miss.dependent_key,
                agnostic: miss.agnostic,
                dependent: miss.dependent,
            }),
        }
    }

    if preps.is_empty() {
        return;
    }

    // Coalesced parallel extraction: identical buffers submitted by
    // different connections in the same batch share a cache key, so each
    // unique (key → extraction) job runs exactly once regardless of how
    // many requests need it. The first prep needing a key owns the job.
    enum JobKind {
        Agnostic,
        Dependent,
    }
    let mut jobs: Vec<(String, usize, JobKind)> = Vec::new();
    let mut needed = 0u64;
    {
        let mut claimed: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for (i, p) in preps.iter().enumerate() {
            if p.agnostic.is_none() {
                needed += 1;
                if claimed.insert(&p.agnostic_key) {
                    jobs.push((p.agnostic_key.clone(), i, JobKind::Agnostic));
                }
            }
            if p.dependent.is_none() {
                needed += 1;
                if claimed.insert(&p.dependent_key) {
                    jobs.push((p.dependent_key.clone(), i, JobKind::Dependent));
                }
            }
        }
    }
    let coalesced = needed - jobs.len() as u64;
    if coalesced > 0 {
        state.coalesced.fetch_add(coalesced, Ordering::Relaxed);
        pressio_obs::add_counter("serve:coalesced", coalesced as i64);
    }
    // Scheme/compressor instances are rebuilt inside the closure (both are
    // cheap registry constructions) so the closure stays `Sync`.
    let nthreads = threads::resolve(None).min(jobs.len().max(1));
    let extracted: Vec<Result<Options>> = threads::par_map_indexed(nthreads, jobs.len(), |j| {
        let (_, i, kind) = &jobs[j];
        let p = &preps[*i];
        let scheme = standard_schemes().build(&scheme_name)?;
        match kind {
            JobKind::Agnostic => scheme.error_agnostic_features(&p.data),
            JobKind::Dependent => {
                let mut comp = standard_compressors().build(&p.comp_id)?;
                comp.set_options(&p.item.request)?;
                scheme.error_dependent_features(&p.data, comp.as_ref())
            }
        }
    });
    // key → features, errors pre-rendered to responses so one failed
    // extraction answers every request that coalesced onto it
    let mut computed: HashMap<String, std::result::Result<Options, Options>> = HashMap::new();
    let mut computed_count = 0u64;
    for ((key, _, _), result) in jobs.iter().zip(extracted) {
        match result {
            Ok(features) => {
                state.feature_cache.insert(key.clone(), features.clone());
                computed_count += 1;
                computed.insert(key.clone(), Ok(features));
            }
            Err(e) => {
                computed.insert(key.clone(), Err(respond(Err(e))));
            }
        }
    }
    if computed_count > 0 {
        state
            .features_computed
            .fetch_add(computed_count, Ordering::Relaxed);
    }

    // Serial finalize: assemble features, predict, reply.
    let predictor: &dyn Predictor = match &model {
        Some(m) => m.predictor.as_ref(),
        None => direct_predictor
            .as_deref()
            .expect("model-less batch built a direct predictor"),
    };
    let fetch = |cached: Option<Options>, key: &str| -> std::result::Result<Options, Options> {
        match cached {
            Some(f) => Ok(f),
            None => match computed.get(key) {
                Some(Ok(f)) => Ok(f.clone()),
                Some(Err(resp)) => Err(resp.clone()),
                None => Err(protocol::error_response(
                    code::INTERNAL,
                    format!("no extraction job produced feature key {key}"),
                )),
            },
        }
    };
    for prep in preps {
        let Prep {
            item,
            pred_key,
            agnostic_key,
            dependent_key,
            agnostic,
            dependent,
            ..
        } = prep;
        let response = (|| -> std::result::Result<Options, Options> {
            let agnostic = fetch(agnostic, &agnostic_key)?;
            let dependent = fetch(dependent, &dependent_key)?;
            let mut features = agnostic;
            features.merge_from(&dependent);
            let value = predictor.predict(&features).map_err(|e| respond(Err(e)))?;
            state.prediction_cache.insert(pred_key, value);
            state.predictions_served.fetch_add(1, Ordering::Relaxed);
            let mut resp = prediction_response(
                value,
                false,
                &scheme_name,
                &model_tag,
                state.config.shard_index,
            );
            if let Ok(Some(alpha)) = item.request.get_f64_opt("serve:alpha") {
                if let Some(interval) = predictor.predict_interval(&features, alpha) {
                    resp = resp
                        .with("serve:interval.lo", interval.lo)
                        .with("serve:interval.hi", interval.hi)
                        .with("serve:interval.coverage", interval.coverage);
                }
            }
            Ok(resp)
        })();
        // deadline re-check after compute: the client stopped waiting at
        // the deadline, so a slow extraction must not pretend to succeed
        item.respond_checked(response.unwrap_or_else(|error| error));
    }
}
