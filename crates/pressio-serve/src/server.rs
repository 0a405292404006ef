//! The `pressio-serve` daemon: configuration, shared state, lifecycle, and
//! the op table.
//!
//! Lifecycle: [`Server::start`] binds the endpoint, spawns the accept
//! loops (the `listen` module), and returns a [`ServerHandle`]. A `shutdown`
//! request (or [`ServerHandle::trigger_shutdown`]) raises the stop signal,
//! unblocks the accept loops, lets every connection finish its in-flight
//! request, drains the bounded pipeline queue, joins all threads, and
//! removes the Unix socket file — a graceful drain, never a drop.
//!
//! Request flow for `predict`: the connection thread resolves the target,
//! checks and hashes the buffer and probes the prediction cache once,
//! answering a hit or an error itself; a miss, decoded there, is submitted
//! typed to the [`Pipeline`], whose workers batch same-model misses and
//! answer them in the `predict` module. `train` and the `stream.*` ops
//! ([`crate::stream`]) run inline on the connection thread too, so long
//! fits never starve the prediction workers.

use crate::breaker::CircuitBreaker;
use crate::cache::ShardedLru;
use crate::listen::{self, StopSignal};
use crate::net::Endpoint;
use crate::pipeline::{self, Pipeline, WorkItem};
use crate::predict::{self, handle_predict_batch};
use crate::protocol::{self, code, op};
use crate::store::{parse_model_ref, ModelStore};
use crate::stream;
use pressio_core::error::{Error, Result};
use pressio_core::timing::time_ms;
use pressio_core::{threads, Options};
use pressio_dataset::{DatasetPlugin, TIMESTEPS};
use pressio_predict::features::{FeaturePass, FeatureRow};
use pressio_predict::{standard_schemes, Predictor, Scheme};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Default [`ServeConfig::cache_entries`] (and `pressio serve --cache`):
/// well over ten seconds of cold 1 MiB traffic from two callers (~250
/// req/s once buffers cross the wire raw). An entry is a 32-byte key and
/// a prediction, or a key and a row of a scheme's feature numbers.
pub const DEFAULT_CACHE_ENTRIES: usize = 16384;

/// Shard count of each of the feature and prediction caches.
const CACHE_SHARDS: usize = 16;

/// Server tunables.
#[derive(Debug, Clone, PartialEq)]
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
    /// Consecutive overload-class failures (queue full / deadline
    /// exceeded) before the load-shedding breaker opens; 0 disables it.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before probing with one request.
    pub breaker_cooldown_ms: u64,
    /// How long a resolved "latest version" for an unversioned model
    /// reference stays trusted before the store is asked again. Bounds the
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
    /// Streaming sessions idle longer than this many seconds are reaped
    /// by the sweep that runs on every stream op.
    pub stream_idle_secs: u64,
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
            breaker_threshold: 16,
            breaker_cooldown_ms: 1_000,
            latest_ttl_ms: 2_000,
            max_frame: protocol::MAX_FRAME,
            online: false,
            online_window: 64,
            online_refit_every: 8,
            stream_idle_secs: 300,
        }
    }
}

/// The daemon's own counters.
#[derive(Clone, Copy)]
pub(crate) enum Stat {
    /// Feature extractions actually executed (cache hits skip these).
    FeaturesComputed,
    PredictionsServed,
    /// `predict` buffers hashed: once per request that reached the probe.
    PredictHashes,
    /// Extractions avoided because an identical buffer was already being
    /// extracted in the same batch (cross-connection coalescing).
    Coalesced,
    /// `reload` ops handled.
    Reloads,
    /// `stream.chunk` ops handled.
    StreamChunks,
    /// Online-learning refits that produced a new model version.
    OnlineRefits,
    /// Idle sessions reaped by the per-op sweep.
    SessionsReaped,
    /// Already-acked chunks answered idempotently from the outcome cache.
    StreamReplays,
    /// `stream.resume` ops that successfully rehydrated or re-attached.
    StreamResumes,
    /// Chunk observations fed to online learners (exactly-once: replays
    /// never double-count).
    StreamObserved,
    /// Journal writes that failed (durability degraded, stream kept alive).
    JournalErrors,
}

/// Per [`Stat`], in declaration order: its `stats` response key, and the
/// trace counter bumped along with it when it has one.
const STATS: [(&str, Option<&str>); 12] = [
    ("serve:features.computed", None),
    ("serve:predictions.served", None),
    ("serve:predict.hashed", None),
    ("serve:coalesced", Some("serve:coalesced")),
    ("serve:reloads", Some("serve:reload")),
    ("serve:stream.chunks", None),
    ("serve:online.refits", Some("serve:online.refit")),
    ("serve:session.reaped", Some("serve:session.reaped")),
    ("serve:stream.replays", Some("serve:stream.replay")),
    ("serve:stream.resumes", Some("serve:stream.resume")),
    ("serve:stream.observed", None),
    ("serve:journal.errors", Some("serve:journal.error")),
];

/// A predictor resident in memory: a trained model, or (unnamed, never in
/// the catalog) a scheme's analytic predictor.
pub(crate) struct LoadedModel {
    /// `name@version` ("" for an analytic predictor).
    pub(crate) tag: String,
    pub(crate) name: String,
    pub(crate) version: u64,
    pub(crate) scheme: String,
    /// The scheme's `feature_keys()`: the numbers a cached feature row holds.
    pub(crate) keys: Vec<String>,
    pub(crate) predictor: Box<dyn Predictor>,
}

impl LoadedModel {
    /// What a cached prediction records of the model that made it.
    pub(crate) fn id(&self) -> u64 {
        pressio_core::hash::fnv1a64(self.tag.as_bytes())
    }
}

/// Shared server state.
pub(crate) struct ServerState {
    pub(crate) config: ServeConfig,
    pub(crate) store: ModelStore,
    /// The concrete primary endpoint (port-0 binds resolved).
    pub(crate) endpoint: Endpoint,
    pub(crate) catalog: RwLock<HashMap<(String, u64), Arc<LoadedModel>>>,
    /// name → (latest version, when the store told us so). Unversioned
    /// references trust this within `latest_ttl_ms`, so hot traffic does
    /// not pay a directory scan per request; `reload` clears it.
    pub(crate) latest: RwLock<HashMap<String, (u64, Instant)>>,
    pub(crate) feature_cache: ShardedLru<FeatureRow>,
    /// (prediction, [`LoadedModel::id`] of the model that made it).
    pub(crate) prediction_cache: ShardedLru<(f64, u64)>,
    pub(crate) breaker: CircuitBreaker,
    /// Open streaming sessions.
    pub(crate) streams: stream::SessionMap,
    /// Durable per-session stream journals under `<model_dir>/sessions/`
    /// (append + fsync per chunk): what `stream.resume` rehydrates from
    /// after a disconnect or a daemon restart.
    pub(crate) journal: crate::journal::SessionJournal,
    /// Indexed by [`Stat`].
    stats: [AtomicU64; STATS.len()],
}

impl ServerState {
    fn new(config: ServeConfig, endpoint: Endpoint) -> Result<ServerState> {
        let store = ModelStore::open(&config.model_dir)?;
        let journal = crate::journal::SessionJournal::open(&config.model_dir)?;
        let idle = Duration::from_secs(config.stream_idle_secs);
        Ok(ServerState {
            feature_cache: ShardedLru::new(
                "serve:cache.feature",
                CACHE_SHARDS,
                config.cache_entries,
            ),
            prediction_cache: ShardedLru::new(
                "serve:cache.prediction",
                CACHE_SHARDS,
                config.cache_entries,
            ),
            breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown_ms),
            config,
            store,
            endpoint,
            catalog: RwLock::new(HashMap::new()),
            latest: RwLock::new(HashMap::new()),
            streams: stream::SessionMap::new(idle),
            journal,
            stats: Default::default(),
        })
    }

    /// Reap idle sessions; runs on every stream op so abandoned sessions
    /// are collected even on an otherwise-quiet daemon. The durable
    /// journal outlives the reap, so a reaped session is still resumable.
    pub(crate) fn sweep_sessions(&self) {
        let reaped = self.streams.sweep();
        if reaped > 0 {
            self.count(Stat::SessionsReaped, reaped as u64);
        }
    }

    /// Add `n` to `stat` (and to its trace counter).
    pub(crate) fn count(&self, stat: Stat, n: u64) {
        self.stats[stat as usize].fetch_add(n, Ordering::Relaxed);
        if let Some(trace_name) = STATS[stat as usize].1 {
            pressio_obs::add_counter(trace_name, n as i64);
        }
    }

    /// The latest store version of `name`, via the TTL cache.
    fn latest_version(&self, name: &str) -> Result<u64> {
        let now = Instant::now();
        if let Some(&(version, fetched)) = read(&self.latest).get(name) {
            if now.duration_since(fetched) < Duration::from_millis(self.config.latest_ttl_ms) {
                return Ok(version);
            }
        }
        let version = self.store.latest(name)?;
        write(&self.latest).insert(name.to_string(), (version, now));
        Ok(version)
    }

    /// Resolve `name[@version]` to a resident model, loading (and
    /// verifying) the artifact on first use. An unversioned reference
    /// resolves the latest store version (through the TTL cache), so a
    /// model re-trained under the same name is picked up hot — and a
    /// corrupt latest artifact is quarantined with fallback to the
    /// previous version ([`ModelStore::load_resilient`]) instead of an
    /// outage.
    pub(crate) fn resolve_model(&self, model_ref: &str) -> Result<Arc<LoadedModel>> {
        let (name, version_req) = parse_model_ref(model_ref)?;
        let version = match version_req {
            Some(v) => v,
            None => self.latest_version(&name)?,
        };
        if let Some(model) = read(&self.catalog).get(&(name.clone(), version)) {
            return Ok(model.clone());
        }
        let artifact = self.store.load_resilient(&name, version_req)?;
        if version_req.is_none() && artifact.version != version {
            // quarantine fallback loaded an older version: the cached
            // "latest" points at a file that no longer exists
            write(&self.latest).insert(name.clone(), (artifact.version, Instant::now()));
        }
        let scheme = standard_schemes().build(&artifact.scheme)?;
        let mut predictor = scheme.make_predictor();
        predictor.load_state(&artifact.state)?;
        let model = Arc::new(LoadedModel {
            tag: format!("{}@{}", artifact.name, artifact.version),
            name: artifact.name,
            version: artifact.version,
            scheme: artifact.scheme,
            keys: scheme.feature_keys(),
            predictor,
        });
        // keyed by the version actually loaded: on quarantine fallback
        // that differs from the latest-version probe above
        write(&self.catalog).insert((model.name.clone(), model.version), model.clone());
        pressio_obs::add_counter("serve:model.loaded", 1);
        Ok(model)
    }

    /// Fit `scheme`'s predictor on `(features, targets)`, persist it as the
    /// next version of `name`, and make it hot. Returns the version and
    /// the fit time (also recorded under `timing`). The save goes through
    /// the versioned store, so the result survives a daemon restart.
    pub(crate) fn fit_and_install(
        &self,
        scheme: &dyn Scheme,
        scheme_name: &str,
        name: &str,
        features: &[Options],
        targets: &[f64],
        timing: &str,
    ) -> Result<(u64, f64)> {
        let mut predictor = scheme.make_predictor();
        let (fit_result, fit_ms) = time_ms(|| predictor.fit(features, targets));
        fit_result?;
        pressio_obs::record_ms(timing, fit_ms);
        let version = self.store.save(name, scheme_name, &predictor.state()?)?;
        // a freshly fitted version is the latest by construction; make it
        // visible without waiting out the TTL
        write(&self.latest).insert(name.to_string(), (version, Instant::now()));
        let model = LoadedModel {
            tag: format!("{name}@{version}"),
            name: name.to_string(),
            version,
            scheme: scheme_name.to_string(),
            keys: scheme.feature_keys(),
            predictor,
        };
        write(&self.catalog).insert((model.name.clone(), version), Arc::new(model));
        Ok((version, fit_ms))
    }

    /// Account for a journal write: a failure degrades durability (and is
    /// counted), never availability. Returns whether the write landed.
    pub(crate) fn journaled(&self, written: Result<()>) -> bool {
        if written.is_err() {
            self.count(Stat::JournalErrors, 1);
        }
        written.is_ok()
    }

    /// `reload`: forget every cached "latest version", re-resolve each
    /// resident model name against the store, drop catalog entries that
    /// are no longer the latest, and purge predictions cached under
    /// superseded versions. After this returns, no response can be served
    /// from state that predates the reload.
    fn reload(&self) -> Result<Options> {
        write(&self.latest).clear();
        let names: std::collections::BTreeSet<String> =
            read(&self.catalog).keys().map(|(n, _)| n.clone()).collect();
        let mut stale: Vec<u64> = Vec::new();
        let mut dropped = 0usize;
        for name in &names {
            // a name whose artifacts vanished entirely drops all versions
            let latest = self.store.versions(name)?.last().copied();
            write(&self.catalog).retain(|(n, v), model| {
                if n != name || Some(*v) == latest {
                    return true;
                }
                stale.push(model.id());
                dropped += 1;
                false
            });
        }
        let purged = self
            .prediction_cache
            .purge_where(|(_, model)| stale.contains(model));
        self.count(Stat::Reloads, 1);
        Ok(Options::new()
            .with("serve:type", "reloaded")
            .with("serve:models.dropped", dropped as u64)
            .with("serve:predictions.purged", purged as u64))
    }
}

/// A read guard that outlives a writer's panic: every update of the maps
/// behind these locks is a single insert, removal or clear.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// The write half of [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// The daemon as [`crate::listen`] serves it: the shared state, the
/// pipeline every connection feeds, and the stop signal.
pub(crate) struct Daemon {
    state: Arc<ServerState>,
    pipeline: Pipeline<Job>,
    pub(crate) stop: StopSignal,
    /// Numbers the `sleep` ops so none of them batch together.
    seq: AtomicU64,
}

/// A running server.
pub struct ServerHandle {
    daemon: Arc<Daemon>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The concrete endpoint (with a real port for `port 0` TCP binds).
    pub fn endpoint(&self) -> &Endpoint {
        &self.daemon.state.endpoint
    }

    /// Request a graceful shutdown without a client connection.
    pub fn trigger_shutdown(&self) {
        self.daemon.stop.raise();
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
    /// Bind the endpoint, spawn the accept loop, and return immediately.
    pub fn start(config: ServeConfig) -> Result<ServerHandle> {
        let listener = config.listen.bind()?;
        let endpoint = listener.local_endpoint()?;
        let state = Arc::new(ServerState::new(config, endpoint.clone())?);
        let worker_state = state.clone();
        let pipeline = Pipeline::start(
            state.config.queue_capacity,
            state.config.batch_max,
            state.config.workers,
            Arc::new(move |batch| handle_batch(&worker_state, batch)),
        );
        let daemon = Arc::new(Daemon {
            state,
            pipeline,
            stop: StopSignal::new(endpoint),
            seq: AtomicU64::new(0),
        });
        let accept_loop = listen::spawn_accept_loop(listener, daemon.clone())?;
        // coordinator: join the accept loop, then drain the pipeline
        // exactly once
        let coordinated = daemon.clone();
        let accept = std::thread::Builder::new()
            .name("pressio-serve-coord".into())
            .spawn(move || {
                let _ = accept_loop.join();
                coordinated.pipeline.shutdown();
                pressio_obs::flush();
            })
            .map_err(|e| Error::Io(format!("spawning coordinator thread: {e}")))?;
        Ok(ServerHandle {
            daemon,
            accept: Some(accept),
        })
    }
}

impl Daemon {
    /// Largest frame accepted from a peer (see [`ServeConfig::max_frame`]).
    pub(crate) fn max_frame(&self) -> usize {
        self.state.config.max_frame
    }

    /// The op table: answer one request; `shutdown` never reaches here.
    pub(crate) fn dispatch(&self, op_name: &str, request: Options) -> Options {
        let state = &*self.state;
        match op_name {
            op::PING => Options::new().with("serve:type", "pong"),
            op::STATS => stats_response(state, &self.pipeline),
            op::MODELS => models_response(state),
            op::LOAD => respond(handle_load(state, &request)),
            op::TRAIN => respond(handle_train(state, &request)),
            op::RELOAD => respond(state.reload()),
            op::STREAM_BEGIN => respond(stream::handle_begin(state, &request)),
            op::STREAM_CHUNK => respond(stream::handle_chunk(state, &request)),
            op::STREAM_END => respond(stream::handle_end(state, &request)),
            op::STREAM_RESUME => respond(stream::handle_resume(state, &request)),
            op::PREDICT | op::SLEEP => submit_and_wait(self, request),
            other => {
                protocol::error_response(code::BAD_REQUEST, format!("unknown serve:op '{other}'"))
            }
        }
    }
}

pub(crate) fn respond(result: Result<Options>) -> Options {
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

fn stats_response(state: &ServerState, pipeline: &Pipeline<Job>) -> Options {
    let f = state.feature_cache.stats();
    let p = state.prediction_cache.stats();
    let (queued, busy) = pipeline.load();
    let mut resp = Options::new()
        .with("serve:type", "stats")
        .with("serve:feature_cache.hits", f.hits)
        .with("serve:feature_cache.misses", f.misses)
        .with("serve:feature_cache.evictions", f.evictions)
        .with("serve:feature_cache.len", f.len as u64)
        .with(
            "serve:feature_cache.bytes",
            state.feature_cache.bytes(FeatureRow::heap_bytes),
        )
        .with("serve:prediction_cache.hits", p.hits)
        .with("serve:prediction_cache.misses", p.misses)
        .with("serve:prediction_cache.evictions", p.evictions)
        .with("serve:prediction_cache.len", p.len as u64)
        .with(
            "serve:prediction_cache.bytes",
            state.prediction_cache.bytes(|_| 0),
        )
        .with("serve:queue.depth", queued as u64)
        .with("serve:workers.busy", busy as u64)
        .with("serve:streams.active", state.streams.active() as u64)
        .with("serve:models.resident", read(&state.catalog).len() as u64)
        .with("serve:breaker.state", state.breaker.state_name())
        .with("serve:breaker.trips", state.breaker.trips())
        .with("serve:breaker.shed", state.breaker.shed());
    for ((key, _), value) in STATS.iter().zip(&state.stats) {
        resp.set(*key, value.load(Ordering::Relaxed));
    }
    // of a traced daemon: how much of what sz3 compressed here (training
    // truth, streamed chunks) the quantizer gave up on and stored verbatim,
    // and how sparse the same was to zfp and what a block cost it in planes
    if let Some(collector) = pressio_obs::global() {
        let counters = collector.report().counters;
        for key in [
            "sz3:elements",
            "sz3:escapes",
            "zfp:blocks",
            "zfp:blocks.zero",
            "zfp:blocks.raw",
            "zfp:planes",
        ] {
            resp.set(key, counters.get(key).copied().unwrap_or(0) as u64);
        }
    }
    resp
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
    let comp_id = predict::compressor_id(request)?;
    let invalid = |key: &str, reason: String| Error::InvalidValue {
        key: key.into(),
        reason,
    };
    let dims: Vec<usize> = match request.get_u64_slice("serve:dims") {
        Ok(d) if d.len() == 3 => d.iter().map(|&x| x as usize).collect(),
        Ok(_) => return Err(invalid("serve:dims", "need exactly 3 dims".into())),
        Err(_) => vec![16, 16, 8],
    };
    // the work is one field of `dims` x timesteps x 13 fields x bounds:
    // each factor is bounded before the first field is generated. A field
    // larger than the biggest buffer this daemon takes on the wire is
    // turned down before the generator tries to allocate it
    let max_frame = state.config.max_frame.min(protocol::MAX_FRAME);
    let bytes = dims.iter().try_fold(4usize, |n, &d| n.checked_mul(d));
    if bytes.is_none_or(|b| b > max_frame) {
        let reason = format!("{dims:?} f32 is larger than the {max_frame}-byte frame cap");
        return Err(invalid("serve:dims", reason));
    }
    let timesteps = request.get_u64_opt("serve:timesteps")?.unwrap_or(2);
    if timesteps > TIMESTEPS as u64 {
        let reason = format!("{timesteps} is more than the dataset's {TIMESTEPS}");
        return Err(invalid("serve:timesteps", reason));
    }
    let bounds: Vec<f64> = match request.get_f64_slice("serve:bounds") {
        Ok(b) if !b.is_empty() => b.to_vec(),
        _ => vec![1e-5, 1e-4, 1e-3],
    };
    if let Some(b) = bounds.iter().find(|b| !(b.is_finite() && **b > 0.0)) {
        let reason = format!("{b} is not a finite positive error bound");
        return Err(invalid("serve:bounds", reason));
    }
    let scheme = predict::scheme_for(&scheme_name, comp_id)?;
    let timesteps = (timesteps as usize).max(1);
    let mut hurricane = pressio_dataset::Hurricane::with_dims(dims[0], dims[1], dims[2], timesteps);
    let mut features = Vec::new();
    let mut targets = Vec::new();
    for i in 0..hurricane.len() {
        let data = hurricane.load_data(i)?;
        let pass = FeaturePass::new(&data);
        let agnostic = scheme.error_agnostic_from(&pass)?;
        for &abs in &bounds {
            // compressor knobs pass through from the request
            let bound = Options::new().with("pressio:abs", abs);
            let comp = predict::compressor(comp_id, &[request, &bound])?;
            let mut merged = agnostic.clone();
            merged.merge_from(&scheme.error_dependent_from(&pass, comp.as_ref())?);
            features.push(merged);
            targets.push(scheme.training_observation(&data, comp.as_ref())?);
        }
    }
    let (version, fit_ms) = state.fit_and_install(
        scheme.as_ref(),
        &scheme_name,
        &model_name,
        &features,
        &targets,
        "serve:train.fit",
    )?;
    Ok(Options::new()
        .with("serve:type", "trained")
        .with("serve:model", model_name)
        .with("serve:version", version)
        .with("serve:scheme", scheme_name)
        .with("serve:samples", features.len() as u64)
        .with("serve:fit_ms", fit_ms))
}

/// Answer a queued op: a `predict` its probe answers (a prediction-cache
/// hit, or the error it found) here, anything else by submitting it and
/// waiting for the worker's reply (or answering `overloaded` immediately).
fn submit_and_wait(daemon: &Daemon, request: Options) -> Options {
    let state = &*daemon.state;
    let predicting = protocol::op_name(&request) == op::PREDICT;
    if predicting {
        let target = |key| request.get_str_opt(key).ok().flatten().is_some();
        if !target("serve:model") && !target("serve:scheme") {
            return protocol::error_response(
                code::BAD_REQUEST,
                "predict needs serve:model or serve:scheme",
            );
        }
        if let Err(e) = predict::check_alpha(&request) {
            return respond(Err(e));
        }
    }
    let deadline_ms = request
        .get_u64_opt("serve:deadline_ms")
        .ok()
        .flatten()
        .unwrap_or(state.config.default_deadline_ms);
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    // load shedding: while the breaker is open, reject before touching the
    // cache or the queue — sustained saturation must not cost queue churn
    if !state.breaker.allow() {
        pressio_obs::add_counter("serve:breaker.shed", 1);
        return protocol::error_response(
            code::OVERLOADED,
            "shedding load (circuit breaker open); retry later",
        );
    }
    let (batch_key, job) = if predicting {
        match predict::probe(state, request) {
            Ok(miss) => (miss.batch_key(), Job::Predict(Box::new(miss))),
            Err(answer) => return settled(state, pipeline::checked(answer, deadline)),
        }
    } else {
        // sleeps never batch together: each occupies a worker alone
        let ms = request.get_u64_opt("serve:ms").ok().flatten();
        let seq = daemon.seq.fetch_add(1, Ordering::Relaxed);
        (format!("sleep:{seq}"), Job::Sleep(ms.unwrap_or(100)))
    };
    let (reply, rx) = sync_channel(1);
    let item = WorkItem {
        batch_key,
        request: job,
        deadline,
        reply,
    };
    if daemon.pipeline.submit(item).is_err() {
        pressio_obs::add_counter("serve:overloaded", 1);
        let capacity = state.config.queue_capacity;
        let message = format!("queue at capacity ({capacity}); retry later");
        return settled(state, protocol::error_response(code::OVERLOADED, message));
    }
    let resp = rx
        .recv_timeout(Duration::from_millis(deadline_ms) + Duration::from_secs(60))
        .unwrap_or_else(|_| protocol::error_response(code::INTERNAL, "worker dropped the request"));
    settled(state, resp)
}

/// Feed an answer's outcome to the breaker: overload-class outcomes count
/// as failures, anything else (success or a request-specific error) as
/// capacity.
fn settled(state: &ServerState, resp: Options) -> Options {
    if protocol::is_retryable(&resp) {
        state.breaker.on_failure();
    } else {
        state.breaker.on_success();
    }
    resp
}

// ---- worker side -----------------------------------------------------------

/// What the daemon queues for a worker.
pub(crate) enum Job {
    /// A `predict` that missed the prediction cache.
    Predict(Box<predict::Miss>),
    /// A `sleep` op: hold a worker this many milliseconds.
    Sleep(u64),
}

fn handle_batch(state: &ServerState, batch: Vec<WorkItem<Job>>) {
    let mut misses = Vec::with_capacity(batch.len());
    for WorkItem {
        batch_key,
        request,
        deadline,
        reply,
    } in batch
    {
        match request {
            Job::Predict(miss) => misses.push(WorkItem {
                batch_key,
                request: *miss,
                deadline,
                reply,
            }),
            Job::Sleep(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                let slept = Options::new()
                    .with("serve:type", "slept")
                    .with("serve:ms", ms);
                let _ = reply.send(pipeline::checked(slept, deadline));
            }
        }
    }
    if !misses.is_empty() {
        handle_predict_batch(state, misses);
    }
}
