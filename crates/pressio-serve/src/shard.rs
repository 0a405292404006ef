//! Multi-process scale-out: consistent-hash routing, the shard topology
//! file, and the acceptor/supervisor that keeps N shard servers running.
//!
//! Routing is rendezvous (highest-random-weight) hashing over the
//! request's *content hash* ([`crate::protocol::data_content_hash`]), the
//! same hash the per-shard LRUs are keyed by. Every buffer therefore has
//! exactly one home shard whose caches stay hot for it: hit rates are
//! additive across shards instead of diluted by spreading connections
//! arbitrarily. Rendezvous hashing also gives the two properties the
//! tests pin down: growing from N to N+1 shards moves only ~1/(N+1) of
//! the keys (each key moves only if the new shard wins its weight
//! contest), and the per-key weight ranking doubles as a deterministic
//! failover order when a shard dies.
//!
//! The [`Supervisor`] owns the *base* endpoint as control plane and
//! routing proxy — topology-unaware clients keep talking to the same
//! address they used for a single-process server — while each shard
//! listens on a private derived endpoint ([`shard_endpoint`]) that
//! topology-aware clients ([`crate::client::ShardedClient`]) hit
//! directly. Shards share one read-only model store; `train` is routed to
//! the model's home shard and followed by a `reload` broadcast so every
//! shard drops state cached under superseded model versions.

use crate::client::Client;
use crate::listen::{self, Service, StopSignal};
use crate::net::Endpoint;
use crate::protocol::{self, code, op};
use crate::route::ShardConns;
use crate::server::{ServeConfig, Server, ServerHandle};
use pressio_core::error::{Error, Result};
use pressio_core::hash::fnv1a64;
use pressio_core::Options;
use pressio_faults::splitmix64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---- rendezvous routing ----------------------------------------------------

/// The rendezvous weight of `key` on shard `shard`. Deterministic and
/// independent of the shard count, which is what makes the routing stable
/// under rebalancing.
pub fn shard_weight(key: &str, shard: usize) -> u64 {
    splitmix64(fnv1a64(key.as_bytes()) ^ splitmix64(shard as u64 + 1))
}

/// Shard indices ordered by descending weight for `key`: element 0 is the
/// home shard, the rest is the failover order.
pub fn rendezvous_order(key: &str, shards: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards).collect();
    order.sort_by_key(|&s| std::cmp::Reverse((shard_weight(key, s), s)));
    order
}

/// The home shard for `key` among `shards` shards.
pub fn route(key: &str, shards: usize) -> usize {
    (0..shards)
        .max_by_key(|&s| (shard_weight(key, s), s))
        .unwrap_or(0)
}

/// The routing key for a request: the stream id when one is present
/// (every chunk of a stream must land on the shard holding its session —
/// by convention the id is the stream's content hash), else the data
/// content hash when a buffer is embedded (cache affinity), else the
/// model/scheme reference (so `train` and `load` for one model always
/// land on the same shard), else `None` (caller picks any shard).
pub fn routing_key(request: &Options) -> Option<String> {
    if let Ok(Some(id)) = request.get_str_opt("stream:id") {
        return Some(format!("stream:{id}"));
    }
    if let Ok(hash) = protocol::data_content_hash(request) {
        return Some(hash);
    }
    if let Ok(Some(model)) = request.get_str_opt("serve:model") {
        return Some(format!("model:{model}"));
    }
    if let Ok(Some(scheme)) = request.get_str_opt("serve:scheme") {
        return Some(format!("scheme:{scheme}"));
    }
    None
}

// ---- shard endpoints & topology --------------------------------------------

/// The private routed endpoint of shard `index`, derived from the base
/// endpoint: `unix:<path>` → `unix:<path>.s<index>`; `tcp:host:port` →
/// `tcp:host:(port+1+index)` (or `host:0` when the base port is 0, each
/// shard then resolving its own ephemeral port).
pub fn shard_endpoint(base: &Endpoint, index: usize) -> Endpoint {
    match base {
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            Endpoint::Unix(PathBuf::from(format!("{}.s{index}", path.display())))
        }
        Endpoint::Tcp(addr) => {
            let (host, port) = match addr.rsplit_once(':') {
                Some((h, p)) => (h, p.parse::<u16>().unwrap_or(0)),
                None => (addr.as_str(), 0u16),
            };
            if port == 0 {
                Endpoint::Tcp(format!("{host}:0"))
            } else {
                Endpoint::Tcp(format!("{host}:{}", port as usize + 1 + index))
            }
        }
    }
}

/// The shard layout of a deployment, persisted as `.topology.json` next to
/// the model store so shards and clients can discover it.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Bumped every time a shard is (re)spawned; clients refetch when the
    /// generation changes.
    pub generation: u64,
    /// The supervisor's control-plane / proxy endpoint.
    pub base: Endpoint,
    /// Private routed endpoint of each shard, indexed by shard number.
    pub shards: Vec<Endpoint>,
}

impl Topology {
    /// A synthesized topology for a standalone single-process server.
    pub fn single(endpoint: Endpoint) -> Topology {
        Topology {
            generation: 0,
            base: endpoint.clone(),
            shards: vec![endpoint],
        }
    }

    /// Where the topology file lives for a model store rooted at `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(".topology.json")
    }

    /// Load the topology file, `Ok(None)` when none has been written.
    pub fn load(dir: &Path) -> Result<Option<Topology>> {
        let path = Topology::path(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Error::Io(format!("reading {}: {e}", path.display()))),
        };
        Topology::from_options(&Options::from_json(&text)?).map(Some)
    }

    /// Publish the topology file, creating `dir` (DESIGN.md, "Durable
    /// files").
    pub fn save(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        let json = self.to_options().to_json()?;
        pressio_core::fs::publish(&Topology::path(dir), |w| Ok(w.write_all(json.as_bytes())?))
    }

    /// The wire/JSON form (a `topology` response).
    pub fn to_options(&self) -> Options {
        Options::new()
            .with("serve:type", "topology")
            .with("topology:generation", self.generation)
            .with("topology:base", self.base.to_string())
            .with(
                "topology:shards",
                self.shards
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<String>>(),
            )
    }

    /// Parse the wire/JSON form back.
    pub fn from_options(msg: &Options) -> Result<Topology> {
        let mut shards = Vec::new();
        for spec in msg.get_str_slice("topology:shards")? {
            shards.push(Endpoint::parse(spec)?);
        }
        if shards.is_empty() {
            return Err(Error::InvalidValue {
                key: "topology:shards".into(),
                reason: "topology lists no shards".into(),
            });
        }
        Ok(Topology {
            generation: msg.get_u64_opt("topology:generation")?.unwrap_or(0),
            base: Endpoint::parse(msg.get_str("topology:base")?)?,
            shards,
        })
    }

    /// The home shard index for `key`.
    pub fn route(&self, key: &str) -> usize {
        route(key, self.shards.len())
    }

    /// Shard endpoints in failover order for `key` (home shard first).
    pub fn failover_order(&self, key: &str) -> Vec<(usize, Endpoint)> {
        rendezvous_order(key, self.shards.len())
            .into_iter()
            .map(|i| (i, self.shards[i].clone()))
            .collect()
    }
}

// ---- shard spawning --------------------------------------------------------

/// A running shard as the supervisor sees it.
pub trait ShardHandle: Send {
    /// The concrete routed endpoint (port-0 binds resolved).
    fn endpoint(&self) -> Endpoint;
    /// Whether the shard is still serving (`&mut` so process-backed
    /// handles can reap the child with `try_wait`).
    fn is_alive(&mut self) -> bool;
    /// Best-effort graceful shutdown (drain, then exit).
    fn shutdown(&mut self);
}

/// Starts shard servers. The supervisor is spawner-agnostic so the CLI can
/// back it with real child processes while tests use
/// [`InProcessSpawner`] threads — same routing, same topology file, same
/// restart logic.
pub trait ShardSpawner: Send + Sync {
    /// Start a shard with this fully-prepared config (`listen` and
    /// `shard_index` already set).
    fn spawn(&self, config: ServeConfig) -> Result<Box<dyn ShardHandle>>;
}

/// Runs each shard as an in-process [`Server`] (threads, not processes).
/// Process isolation is lost, but routing/failover/restart behave the
/// same, which is what the tests need.
pub struct InProcessSpawner;

struct InProcessShard {
    endpoint: Endpoint,
    handle: Option<ServerHandle>,
}

impl ShardHandle for InProcessShard {
    fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    fn is_alive(&mut self) -> bool {
        self.handle.as_ref().is_some_and(|h| h.is_running())
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.trigger_shutdown();
            let _ = handle.wait();
        }
    }
}

impl ShardSpawner for InProcessSpawner {
    fn spawn(&self, config: ServeConfig) -> Result<Box<dyn ShardHandle>> {
        let handle = Server::start(config)?;
        Ok(Box::new(InProcessShard {
            endpoint: handle.endpoint().clone(),
            handle: Some(handle),
        }))
    }
}

// ---- supervisor ------------------------------------------------------------

/// Supervisor tunables.
pub struct SupervisorConfig {
    /// The base (control-plane / proxy) endpoint.
    pub listen: Endpoint,
    /// How many shard servers to run.
    pub shards: usize,
    /// Restarts allowed per shard slot before it is left dead (requests
    /// then fail over to the surviving shards).
    pub restart_max: u32,
    /// Template for each shard's [`ServeConfig`] (`listen` and
    /// `shard_index` are overridden per shard).
    pub template: ServeConfig,
}

impl SupervisorConfig {
    /// Defaults: `shards` shard servers, 3 restarts.
    pub fn new(listen: Endpoint, template: ServeConfig, shards: usize) -> SupervisorConfig {
        SupervisorConfig {
            listen,
            shards: shards.max(1),
            restart_max: 3,
            template,
        }
    }
}

struct ShardSlot {
    handle: Box<dyn ShardHandle>,
    restarts: u32,
}

struct SupervisorState {
    config: SupervisorConfig,
    spawner: Arc<dyn ShardSpawner>,
    slots: Mutex<Vec<ShardSlot>>,
    generation: AtomicU64,
    base: Endpoint,
    stop: StopSignal,
    routed: AtomicU64,
    failovers: AtomicU64,
    restarts_total: AtomicU64,
    /// The proxy's cached shard connections.
    conns: ShardConns,
    conn_reuse: AtomicU64,
}

impl SupervisorState {
    fn shard_config(&self, index: usize) -> ServeConfig {
        let mut config = self.config.template.clone();
        config.listen = shard_endpoint(&self.config.listen, index);
        config.shard_index = Some(index);
        config
    }

    fn topology(&self) -> Topology {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        Topology {
            generation: self.generation.load(Ordering::Acquire),
            base: self.base.clone(),
            shards: slots.iter().map(|s| s.handle.endpoint()).collect(),
        }
    }

    /// Publish the topology at `generation` before it goes live, so whoever
    /// sees a generation finds it on disk (start-up, then the monitor only).
    fn advance_generation(&self, generation: u64) {
        let mut topology = self.topology();
        topology.generation = generation;
        let _ = topology.save(&self.config.template.model_dir);
        self.generation.store(generation, Ordering::Release);
    }

    fn count_reuse(&self, reused: bool) {
        if reused {
            self.conn_reuse.fetch_add(1, Ordering::Relaxed);
            pressio_obs::add_counter("proxy:conn.reuse", 1);
        }
    }

    /// Forward `request` to the home shard for `key`, walking the
    /// rendezvous failover order when shards are unreachable.
    fn forward(&self, key: &str, request: &Options) -> Options {
        self.routed.fetch_add(1, Ordering::Relaxed);
        match self.conns.call_routed(&self.topology(), key, request) {
            Ok(routed) => {
                self.count_reuse(routed.reused);
                if routed.hops > 0 {
                    self.failovers
                        .fetch_add(routed.hops as u64, Ordering::Relaxed);
                    pressio_obs::add_counter("serve:supervisor.failover", routed.hops as i64);
                }
                routed.response
            }
            Err(_) => protocol::error_response(code::INTERNAL, "no shard reachable for request"),
        }
    }

    /// Send `request` to every shard, returning per-shard success count.
    fn broadcast(&self, request: &Options) -> (usize, usize) {
        let shards = self.topology().shards;
        let mut ok = 0usize;
        for (index, endpoint) in shards.iter().enumerate() {
            if let Ok((_, reused)) = self.conns.call_shard(index, endpoint, request) {
                self.count_reuse(reused);
                ok += 1;
            }
        }
        (ok, shards.len())
    }

    fn shutdown_shards(&self) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        for slot in slots.iter_mut() {
            slot.handle.shutdown();
        }
    }
}

/// The acceptor/supervisor: spawns shards, restarts the ones that die,
/// publishes the topology, and proxies requests for topology-unaware
/// clients.
pub struct Supervisor;

/// A running supervisor.
pub struct SupervisorHandle {
    state: Arc<SupervisorState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl SupervisorHandle {
    /// The concrete base endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.state.base
    }

    /// The current topology (generation, shard endpoints).
    pub fn topology(&self) -> Topology {
        self.state.topology()
    }

    /// Request a full (shards + supervisor) graceful shutdown.
    pub fn trigger_shutdown(&self) {
        listen::shutdown(&*self.state);
    }

    /// Block until the supervisor has exited.
    pub fn wait(mut self) -> Result<()> {
        for t in self.threads.drain(..) {
            t.join()
                .map_err(|_| Error::TaskFailed("supervisor thread panicked".into()))?;
        }
        Ok(())
    }

    /// Kill shard `index` without draining (testing: simulates a crash the
    /// monitor must notice and restart).
    pub fn kill_shard(&self, index: usize) {
        let mut slots = self.state.slots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = slots.get_mut(index) {
            slot.handle.shutdown();
        }
    }
}

impl Supervisor {
    /// Spawn the shards, write the topology, and start the control plane.
    pub fn start(
        config: SupervisorConfig,
        spawner: Arc<dyn ShardSpawner>,
    ) -> Result<SupervisorHandle> {
        let listener = config.listen.bind()?;
        let base = listener.local_endpoint()?;
        let state = Arc::new(SupervisorState {
            slots: Mutex::new(Vec::new()),
            generation: AtomicU64::new(0),
            base: base.clone(),
            stop: StopSignal::new(base.clone()),
            routed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            restarts_total: AtomicU64::new(0),
            conns: ShardConns::default(),
            conn_reuse: AtomicU64::new(0),
            spawner,
            config,
        });
        {
            let mut slots = state.slots.lock().unwrap_or_else(|e| e.into_inner());
            for index in 0..state.config.shards {
                let handle = state.spawner.spawn(state.shard_config(index))?;
                slots.push(ShardSlot {
                    handle,
                    restarts: 0,
                });
            }
        }
        state.advance_generation(1);
        pressio_obs::add_counter("serve:supervisor.started", 1);

        let monitor_state = state.clone();
        let monitor = std::thread::Builder::new()
            .name("pressio-serve-monitor".into())
            .spawn(move || monitor_loop(&monitor_state))
            .map_err(|e| Error::Io(format!("spawning monitor thread: {e}")))?;
        let accept =
            listen::spawn_accept_loop(listener, state.clone(), "pressio-serve-sup".into())?;
        Ok(SupervisorHandle {
            state,
            threads: vec![accept, monitor],
        })
    }
}

/// Poll shard liveness; respawn dead shards (bumping the topology
/// generation) until their restart budget runs out.
fn monitor_loop(state: &SupervisorState) {
    while !state.stop.is_raised() {
        std::thread::sleep(Duration::from_millis(50));
        if state.stop.is_raised() {
            break;
        }
        let mut slots = state.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut changed = false;
        for (index, slot) in slots.iter_mut().enumerate() {
            if slot.handle.is_alive() || slot.restarts >= state.config.restart_max {
                continue;
            }
            match state.spawner.spawn(state.shard_config(index)) {
                Ok(handle) => {
                    slot.handle = handle;
                    slot.restarts += 1;
                    state.restarts_total.fetch_add(1, Ordering::Relaxed);
                    pressio_obs::add_counter("serve:supervisor.restart", 1);
                    changed = true;
                }
                Err(_) => {
                    // spawn failed: burn one restart so a persistent
                    // failure cannot loop forever
                    slot.restarts += 1;
                }
            }
        }
        drop(slots);
        if changed {
            state.advance_generation(state.generation.load(Ordering::Acquire) + 1);
        }
    }
}

/// The supervisor's op table: control-plane ops answered here, everything
/// that needs a model or a buffer proxied to its home shard.
impl Service for SupervisorState {
    fn stop(&self) -> &StopSignal {
        &self.stop
    }

    fn max_frame(&self) -> usize {
        self.config.template.max_frame
    }

    fn on_stop(&self) {
        self.shutdown_shards();
    }

    fn dispatch(&self, op_name: &str, request: Options) -> Options {
        match op_name {
            op::PING => Options::new()
                .with("serve:type", "pong")
                .with("serve:role", "supervisor"),
            op::TOPOLOGY => self.topology().to_options(),
            op::STATS => supervisor_stats(self),
            op::RELOAD => {
                let (ok, total) = self.broadcast(&request);
                Options::new()
                    .with("serve:type", "reloaded")
                    .with("serve:shards.reloaded", ok as u64)
                    .with("serve:shards.total", total as u64)
            }
            op::TRAIN => {
                // train on the model's home shard, then tell every other
                // shard to re-resolve so the new version is hot everywhere
                let key = routing_key(&request).unwrap_or_default();
                let resp = self.forward(&key, &request);
                if resp.get_str_opt("serve:type").ok().flatten() == Some("trained") {
                    let reload = Options::new().with("serve:op", op::RELOAD);
                    let _ = self.broadcast(&reload);
                }
                resp
            }
            op::PREDICT
            | op::LOAD
            | op::MODELS
            | op::SLEEP
            | op::STREAM_BEGIN
            | op::STREAM_CHUNK
            | op::STREAM_END
            | op::STREAM_RESUME => {
                let key = routing_key(&request).unwrap_or_else(|| {
                    // no routing affinity: spread by request counter
                    format!("rr:{}", self.routed.load(Ordering::Relaxed))
                });
                self.forward(&key, &request)
            }
            other => {
                protocol::error_response(code::BAD_REQUEST, format!("unknown serve:op '{other}'"))
            }
        }
    }
}

/// Aggregate stats across shards plus the supervisor's own counters.
fn supervisor_stats(state: &SupervisorState) -> Options {
    let endpoints = state.topology().shards;
    let summed = [
        "serve:feature_cache.hits",
        "serve:feature_cache.misses",
        "serve:prediction_cache.hits",
        "serve:prediction_cache.misses",
        "serve:feature_cache.bytes",
        "serve:prediction_cache.bytes",
        "serve:features.computed",
        "serve:predictions.served",
        "serve:coalesced",
        "serve:reloads",
    ];
    let mut totals = vec![0u64; summed.len()];
    let mut live = 0usize;
    for endpoint in &endpoints {
        let Ok(mut client) = Client::connect(endpoint) else {
            continue;
        };
        let Ok(stats) = client.stats() else {
            continue;
        };
        live += 1;
        for (slot, key) in totals.iter_mut().zip(summed.iter()) {
            *slot += stats.get_u64_opt(key).ok().flatten().unwrap_or(0);
        }
    }
    let mut resp = Options::new()
        .with("serve:type", "stats")
        .with("serve:role", "supervisor")
        .with("serve:shards.total", endpoints.len() as u64)
        .with("serve:shards.live", live as u64)
        .with("serve:generation", state.generation.load(Ordering::Acquire))
        .with("serve:routed", state.routed.load(Ordering::Relaxed))
        .with("serve:failovers", state.failovers.load(Ordering::Relaxed))
        .with(
            "serve:restarts",
            state.restarts_total.load(Ordering::Relaxed),
        )
        .with(
            "serve:proxy.conn_reuse",
            state.conn_reuse.load(Ordering::Relaxed),
        );
    for (total, key) in totals.iter().zip(summed.iter()) {
        resp.set(*key, *total);
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routing is an on-the-wire contract between supervisor, shards and
    /// topology-aware clients: these values were taken before the private
    /// FNV-1a/SplitMix64 copies were replaced by the shared ones.
    #[test]
    fn rendezvous_routing_golden_values() {
        // per key: weights on shards 0..4, then home shard and failover
        // order at 1, 3 and 4 shards
        let check = |key: &str, weights: [u64; 4], routes: [usize; 3], orders: [&[usize]; 3]| {
            for (shard, &want) in weights.iter().enumerate() {
                assert_eq!(shard_weight(key, shard), want, "{key} on shard {shard}");
            }
            for (i, shards) in [1usize, 3, 4].into_iter().enumerate() {
                assert_eq!(route(key, shards), routes[i], "{key} at {shards} shards");
                assert_eq!(
                    rendezvous_order(key, shards),
                    orders[i],
                    "{key} at {shards}"
                );
            }
        };
        check(
            "model:hurr",
            [
                0xa343_0107_c274_61a2,
                0xe958_dfeb_d4b9_5cef,
                0x93aa_8d1e_4049_9648,
                0x10b2_5fcc_12c0_407d,
            ],
            [0, 1, 1],
            [&[0], &[1, 0, 2], &[1, 0, 2, 3]],
        );
        check(
            "stream:kill",
            [
                0x4310_c3ab_6d15_6af0,
                0x1724_ca4d_c57b_1108,
                0x5556_f9c4_7456_3763,
                0xf132_22f9_97d6_0727,
            ],
            [0, 2, 3],
            [&[0], &[2, 0, 1], &[3, 2, 0, 1]],
        );
        // a content hash, the routing key of every `predict`
        check(
            "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
            [
                0x1b0e_f701_f77f_0b35,
                0x1b4e_f007_ba98_9d73,
                0x0562_7f6d_b89e_d7b9,
                0x93e1_8509_a555_b9b1,
            ],
            [0, 1, 3],
            [&[0], &[1, 0, 2], &[3, 1, 0, 2]],
        );
    }

    #[test]
    fn route_is_stable_and_in_range() {
        for shards in 1..=8 {
            for i in 0..64 {
                let key = format!("key-{i}");
                let a = route(&key, shards);
                let b = route(&key, shards);
                assert_eq!(a, b, "routing must be deterministic");
                assert!(a < shards);
            }
        }
    }

    #[test]
    fn rebalance_moves_about_one_over_n_keys() {
        // growing N → N+1 shards must move only the keys the new shard
        // wins: ~1/(N+1) of them, never a full reshuffle
        for n in 2..=6 {
            let keys: Vec<String> = (0..2000).map(|i| format!("buf-{i}")).collect();
            let moved = keys
                .iter()
                .filter(|k| route(k, n) != route(k, n + 1))
                .count();
            let expected = keys.len() / (n + 1);
            assert!(
                moved as f64 <= expected as f64 * 1.5,
                "{n}→{} shards moved {moved} keys (expected ≈{expected})",
                n + 1,
            );
            assert!(
                moved as f64 >= expected as f64 * 0.5,
                "{n}→{} shards moved only {moved} keys (expected ≈{expected})",
                n + 1,
            );
            // and every moved key lands on the *new* shard
            for k in &keys {
                if route(k, n) != route(k, n + 1) {
                    assert_eq!(route(k, n + 1), n, "moved keys must land on the new shard");
                }
            }
        }
    }

    #[test]
    fn rendezvous_order_is_a_permutation_with_route_first() {
        for shards in 1..=6 {
            for i in 0..32 {
                let key = format!("k{i}");
                let order = rendezvous_order(&key, shards);
                assert_eq!(order.len(), shards);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..shards).collect::<Vec<_>>());
                assert_eq!(order[0], route(&key, shards));
            }
        }
    }

    #[test]
    fn routing_spreads_keys_across_shards() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for i in 0..4000 {
            counts[route(&format!("data-{i}"), shards)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > 600 && count < 1400,
                "shard {shard} got {count}/4000 keys — routing is badly skewed"
            );
        }
    }

    #[test]
    fn shard_endpoint_derivation() {
        #[cfg(unix)]
        {
            let base = Endpoint::Unix(PathBuf::from("/tmp/s.sock"));
            assert_eq!(
                shard_endpoint(&base, 2),
                Endpoint::Unix(PathBuf::from("/tmp/s.sock.s2"))
            );
        }
        let tcp = Endpoint::Tcp("127.0.0.1:9000".into());
        assert_eq!(
            shard_endpoint(&tcp, 0),
            Endpoint::Tcp("127.0.0.1:9001".into())
        );
        assert_eq!(
            shard_endpoint(&tcp, 3),
            Endpoint::Tcp("127.0.0.1:9004".into())
        );
        // port 0 stays ephemeral per shard
        let any = Endpoint::Tcp("127.0.0.1:0".into());
        assert_eq!(shard_endpoint(&any, 5), Endpoint::Tcp("127.0.0.1:0".into()));
    }

    #[test]
    fn topology_round_trips_through_json_and_disk() {
        let dir = std::env::temp_dir().join(format!("pressio_topo_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let topo = Topology {
            generation: 7,
            base: Endpoint::Tcp("127.0.0.1:9000".into()),
            shards: vec![
                Endpoint::Tcp("127.0.0.1:9001".into()),
                Endpoint::Tcp("127.0.0.1:9002".into()),
            ],
        };
        let back = Topology::from_options(&topo.to_options()).unwrap();
        assert_eq!(back, topo);
        topo.save(&dir).unwrap();
        assert_eq!(Topology::load(&dir).unwrap(), Some(topo));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(Topology::load(&dir).unwrap(), None);
    }

    #[test]
    fn routing_key_prefers_content_hash() {
        let data = pressio_core::Data::from_f32(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
        let mut req = Options::new().with("serve:model", "m");
        assert_eq!(routing_key(&req), Some("model:m".into()));
        protocol::data_into_request(&mut req, &data);
        let key = routing_key(&req).unwrap();
        assert_eq!(key, protocol::data_content_hash(&req).unwrap());
        assert_eq!(routing_key(&Options::new()), None);
    }
}
