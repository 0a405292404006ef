//! Streaming prediction sessions and the rolling-window online learner.
//!
//! A client streaming a chunked field (see `pressio-stream`) opens a
//! session with `stream.begin`, sends each chunk through `stream.chunk`
//! for a per-chunk prediction, and closes with `stream.end`. The session
//! carries the previous chunk's trailing timestep so chunk features can
//! include the `temporal:*` group — the same previous-timestep boundary
//! the chained frame codec delta-codes against — without the client ever
//! buffering more than one chunk.
//!
//! When the daemon runs with `--online`, each `stream.chunk` may also
//! report the *observed* outcome (`stream:actual`, e.g. the achieved
//! compression ratio from the encoder's chunk record). The
//! [`OnlineLearner`] keeps a bounded rolling window of
//! `(features, actual)` pairs and, every `refit_every` observations,
//! refits the session's model on the window. Refits go through the
//! normal model store (`save` bumps the version, `install_model` makes it
//! hot), so online refinement is hot-reload safe: every response names
//! the exact `model@version` that produced it, concurrent `predict`
//! traffic picks the refreshed version up through the latest-version TTL
//! cache, and a daemon restart replays from the persisted artifacts.
//!
//! The session also owns its durable form: `StreamSession::begin_record`
//! and `ChunkRecord` are the only code that spells the journal's `j:*`
//! schema, in both directions. A live chunk and a replayed one enter the
//! session through the same `commit`; a fresh and a replayed answer leave
//! it through the same `chunk_response`. The four `stream.*` op handlers
//! live beside it in `stream/ops.rs`.

mod ops;

pub(crate) use ops::{handle_begin, handle_chunk, handle_end, handle_resume};

use crate::predict::prediction_response;
use crate::protocol;
use pressio_core::{Data, Options};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard bound on concurrently open stream sessions per daemon.
pub const MAX_SESSIONS: usize = 128;

/// Default idle expiry: sessions quiet longer than this are reaped by the
/// sweep that runs on every stream op (configurable via
/// `ServeConfig::stream_idle_secs`).
pub const DEFAULT_IDLE_EXPIRY: Duration = Duration::from_secs(300);

/// Mint a session token for `id`: a process-unique, hard-to-guess-enough
/// tag a resuming client must echo back so one stream cannot hijack
/// another's session. Derivation mixes the stream id, the process id, the
/// wall clock, and a process-global counter through fnv1a64.
pub fn mint_token(id: &str) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut seed = Vec::with_capacity(id.len() + 24);
    seed.extend_from_slice(id.as_bytes());
    seed.extend_from_slice(&std::process::id().to_le_bytes());
    seed.extend_from_slice(&nanos.to_le_bytes());
    seed.extend_from_slice(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    format!("{:016x}", pressio_core::hash::fnv1a64(&seed))
}

/// Rolling window of `(features, actual)` observations driving online
/// model refinement, plus the rolling prediction-error trajectory.
#[derive(Debug)]
pub struct OnlineLearner {
    window: VecDeque<(Options, f64)>,
    window_cap: usize,
    refit_every: usize,
    since_refit: usize,
    errors: VecDeque<f64>,
    refits: u64,
}

impl OnlineLearner {
    /// A learner keeping at most `window_cap` observations and refitting
    /// every `refit_every` of them. Both are clamped to at least 1.
    pub fn new(window_cap: usize, refit_every: usize) -> OnlineLearner {
        OnlineLearner {
            window: VecDeque::new(),
            window_cap: window_cap.max(1),
            refit_every: refit_every.max(1),
            since_refit: 0,
            errors: VecDeque::new(),
            refits: 0,
        }
    }

    /// Record one `(features, predicted, actual)` triple. Returns the
    /// rolling mean relative error after this observation.
    pub fn observe(&mut self, features: Options, predicted: f64, actual: f64) -> f64 {
        let rel = (predicted - actual).abs() / actual.abs().max(1e-12);
        self.errors.push_back(rel);
        while self.errors.len() > self.window_cap {
            self.errors.pop_front();
        }
        self.window.push_back((features, actual));
        while self.window.len() > self.window_cap {
            self.window.pop_front();
        }
        self.since_refit += 1;
        self.rolling_error()
    }

    /// Mean relative error over the rolling window (0 before any
    /// observation).
    pub fn rolling_error(&self) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        self.errors.iter().sum::<f64>() / self.errors.len() as f64
    }

    /// Whether enough observations accumulated since the last refit. A
    /// refit also needs at least 4 window samples so tiny windows never
    /// feed a degenerate fit.
    pub fn should_refit(&self) -> bool {
        self.since_refit >= self.refit_every && self.window.len() >= 4
    }

    /// Snapshot the window as parallel `(features, targets)` vectors for
    /// a predictor fit.
    pub fn window_snapshot(&self) -> (Vec<Options>, Vec<f64>) {
        let features = self.window.iter().map(|(f, _)| f.clone()).collect();
        let targets = self.window.iter().map(|(_, t)| *t).collect();
        (features, targets)
    }

    /// Reset the refit cadence counter after a successful refit.
    pub fn mark_refit(&mut self) {
        self.since_refit = 0;
        self.refits += 1;
    }

    /// The `(window, refit_every)` shape this learner was built with.
    fn shape(&self) -> (usize, usize) {
        (self.window_cap, self.refit_every)
    }

    /// Observations currently in the window.
    pub fn observations(&self) -> usize {
        self.window.len()
    }

    /// Successful refits so far.
    pub fn refits(&self) -> u64 {
        self.refits
    }
}

/// The cached outcome of one processed chunk: everything a replayed
/// `stream.chunk` (same `stream:seq`, already acked) needs to answer
/// idempotently — without recomputing features, re-predicting, or
/// re-feeding the online learner.
#[derive(Debug, Clone)]
pub(crate) struct ChunkOutcome {
    pub(crate) prediction: f64,
    /// `name@version` that produced the prediction ("" when model-less).
    pub(crate) model_tag: String,
    pub(crate) online_error: Option<f64>,
    pub(crate) online_observations: Option<u64>,
    pub(crate) online_version: Option<u64>,
    /// Whether this chunk fed the online learner (exactly-once replay
    /// protection: a replay of an observed chunk never observes again).
    pub(crate) observed: bool,
}

/// One acked chunk as journaled: the outcome a replay answers from, plus
/// what rehydration must put back — the learner's observation and the
/// trailing slice the next chunk's `temporal:*` features need.
pub(crate) struct ChunkRecord {
    /// 1-based chunk sequence number.
    pub(crate) seq: u64,
    pub(crate) outcome: ChunkOutcome,
    /// `(features as JSON, actual)` fed to the learner, when it was.
    pub(crate) observation: Option<(String, f64)>,
    pub(crate) prev_last: Option<Data>,
}

impl ChunkRecord {
    /// The journal record.
    pub(crate) fn to_options(&self) -> Options {
        let outcome = &self.outcome;
        let mut record = Options::new()
            .with("j:type", "chunk")
            .with("j:seq", self.seq)
            .with("j:prediction", outcome.prediction)
            .with("j:model", outcome.model_tag.as_str())
            .with("j:observed", outcome.observed);
        if let Some((features_json, actual)) = &self.observation {
            record.set("j:features", features_json.as_str());
            record.set("j:actual", *actual);
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
        if let Some(prev) = &self.prev_last {
            protocol::data_into_request(&mut record, prev);
        }
        record
    }

    /// Parse a journal record; `None` for anything that is not a
    /// well-formed chunk record.
    pub(crate) fn from_options(record: &Options) -> Option<ChunkRecord> {
        let str_of = |key| record.get_str_opt(key).ok().flatten();
        let f64_of = |key| record.get_f64_opt(key).ok().flatten();
        let u64_of = |key| record.get_u64_opt(key).ok().flatten();
        if str_of("j:type") != Some("chunk") {
            return None;
        }
        Some(ChunkRecord {
            seq: u64_of("j:seq")?,
            outcome: ChunkOutcome {
                prediction: f64_of("j:prediction")?,
                model_tag: str_of("j:model").unwrap_or("").to_string(),
                online_error: f64_of("j:online.error"),
                online_observations: u64_of("j:online.observations"),
                online_version: u64_of("j:online.version"),
                observed: record.get_bool_opt("j:observed").ok().flatten() == Some(true),
            },
            observation: str_of("j:features")
                .map(str::to_string)
                .zip(f64_of("j:actual")),
            prev_last: protocol::data_from_request(record).ok(),
        })
    }
}

/// One open streaming session.
pub(crate) struct StreamSession {
    /// Client-chosen identifier (by convention the stream's content
    /// hash).
    pub(crate) id: String,
    /// Session token: minted at `stream.begin` (client-supplied or
    /// server-minted) and required by `stream.resume`.
    pub(crate) token: String,
    pub(crate) scheme_name: String,
    /// Unversioned model name; `None` streams against the scheme's
    /// untrained (analytic) predictor.
    pub(crate) model_name: Option<String>,
    pub(crate) comp_id: String,
    /// Compressor knobs captured at `stream.begin`, re-applied per chunk.
    pub(crate) codec_options: Options,
    /// Trailing outer slice of the previous chunk — the carried state for
    /// `temporal:*` features.
    pub(crate) prev_last: Option<Data>,
    pub(crate) chunks: u64,
    /// Chunks that fed the online learner (exactly-once accounting).
    pub(crate) observed: u64,
    /// Per-chunk outcomes, indexed by `seq - 1`, serving idempotent
    /// replays of already-acked chunks.
    pub(crate) outcomes: Vec<ChunkOutcome>,
    pub(crate) last_active: Instant,
    pub(crate) learner: Option<OnlineLearner>,
}

impl StreamSession {
    /// The cached outcome for 1-based `seq`, when that chunk was acked.
    pub(crate) fn outcome(&self, seq: u64) -> Option<&ChunkOutcome> {
        if seq == 0 || seq > self.chunks {
            return None;
        }
        self.outcomes.get(seq as usize - 1)
    }

    /// The journal's first record: everything `stream.resume` needs to
    /// rebuild the session shell (the chunk records then replay its
    /// state). A session with no learner journals `offline_shape` (the
    /// daemon's configured window and refit cadence).
    pub(crate) fn begin_record(&self, offline_shape: (usize, usize)) -> Options {
        let (window, refit_every) = self
            .learner
            .as_ref()
            .map_or(offline_shape, OnlineLearner::shape);
        let mut record = Options::new()
            .with("j:type", "begin")
            .with("j:id", self.id.as_str())
            .with("j:token", self.token.as_str())
            .with("j:scheme", self.scheme_name.as_str())
            .with("j:comp", self.comp_id.as_str())
            .with("j:online", self.learner.is_some())
            .with("j:window", window as u64)
            .with("j:refit_every", refit_every as u64);
        if let Some(model) = &self.model_name {
            record.set("j:model", model.as_str());
        }
        if let Ok(json) = self.codec_options.to_json() {
            record.set("j:request", json);
        }
        record
    }

    /// Rebuild a session from its journal: the shell from the begin
    /// record, then every chunk record replayed in sequence. A gap,
    /// malformed record or torn tail ends the replay there (acked state
    /// is always a prefix). `Ok(None)` when `records` does not start with
    /// the begin record of stream `id`.
    pub(crate) fn from_records(
        id: &str,
        records: &[Options],
        offline_shape: (usize, usize),
    ) -> pressio_core::error::Result<Option<StreamSession>> {
        let Some((begin, chunks)) = records.split_first() else {
            return Ok(None);
        };
        if begin.get_str_opt("j:type").ok().flatten() != Some("begin")
            || begin.get_str_opt("j:id").ok().flatten() != Some(id)
        {
            return Ok(None);
        }
        let shape_of = |key, default: usize| -> pressio_core::error::Result<usize> {
            Ok(begin.get_u64_opt(key)?.map_or(default, |v| v as usize))
        };
        let window = shape_of("j:window", offline_shape.0)?;
        let refit_every = shape_of("j:refit_every", offline_shape.1)?;
        let mut session = StreamSession {
            id: id.to_string(),
            token: begin.get_str("j:token")?.to_string(),
            scheme_name: begin.get_str("j:scheme")?.to_string(),
            model_name: begin.get_str_opt("j:model")?.map(str::to_string),
            comp_id: begin.get_str("j:comp")?.to_string(),
            codec_options: match begin.get_str_opt("j:request")? {
                Some(json) => Options::from_json(json)?,
                None => Options::new(),
            },
            prev_last: None,
            chunks: 0,
            observed: 0,
            outcomes: Vec::new(),
            last_active: Instant::now(),
            learner: (begin.get_bool_opt("j:online")? == Some(true))
                .then(|| OnlineLearner::new(window, refit_every)),
        };
        for chunk in chunks.iter().map_while(ChunkRecord::from_options) {
            if chunk.seq != session.chunks + 1 {
                break;
            }
            session.replay(chunk);
        }
        Ok(Some(session))
    }

    /// Re-apply a journaled chunk: feed the learner the observation it
    /// saw (exactly once — this is the only place a replay observes),
    /// restore its refit cadence, then [`commit`](Self::commit).
    fn replay(&mut self, chunk: ChunkRecord) {
        if let Some(learner) = self.learner.as_mut() {
            let observation = chunk
                .observation
                .as_ref()
                .filter(|_| chunk.outcome.observed);
            if let Some((features_json, actual)) = observation {
                if let Ok(features) = Options::from_json(features_json) {
                    learner.observe(features, chunk.outcome.prediction, *actual);
                    self.observed += 1;
                }
            }
            if chunk.outcome.online_version.is_some() {
                // the refit itself is already persisted in the model
                // store; replaying only restores the cadence counters
                learner.mark_refit();
            }
        }
        self.commit(chunk);
    }

    /// Ack one chunk: the single way a chunk — live or replayed — becomes
    /// session state.
    pub(crate) fn commit(&mut self, chunk: ChunkRecord) {
        self.chunks = chunk.seq;
        self.prev_last = chunk.prev_last;
        self.outcomes.push(chunk.outcome);
        self.last_active = Instant::now();
    }

    /// The `stream.prediction` response for acked chunk `seq`, fresh or
    /// (`replayed`) served again from the outcome cache.
    pub(crate) fn chunk_response(&self, seq: u64, replayed: bool) -> Option<Options> {
        let outcome = self.outcome(seq)?;
        let mut resp = prediction_response(
            outcome.prediction,
            replayed,
            &self.scheme_name,
            &outcome.model_tag,
        )
        .with("serve:type", "stream.prediction")
        .with("stream:id", self.id.as_str())
        .with("stream:seq", seq)
        .with("stream:acked", self.chunks)
        .with("stream:token", self.token.as_str());
        if replayed {
            resp.set("stream:replayed", true);
        }
        if let Some(err) = outcome.online_error {
            resp.set("stream:online.error", err);
        }
        if let Some(obs) = outcome.online_observations {
            resp.set("stream:online.observations", obs);
        }
        if let Some(version) = outcome.online_version {
            resp.set("stream:online.version", version);
        }
        Some(resp)
    }
}

/// What `stream.resume` makes of a journal, in journal form: `records` →
/// the session they rebuild → the records that session journals. For a
/// journal the daemon wrote this is the identity (`tests/resume_prop.rs`),
/// which is what makes rehydration lossless.
#[doc(hidden)]
pub fn rejournal(
    id: &str,
    records: &[Options],
) -> pressio_core::error::Result<Option<Vec<Options>>> {
    // an offline session journals the daemon's shape: take it from the record
    let shape_of = |key| records.first().and_then(|r| r.get_u64(key).ok());
    let shape = (
        shape_of("j:window").unwrap_or(0) as usize,
        shape_of("j:refit_every").unwrap_or(0) as usize,
    );
    Ok(
        StreamSession::from_records(id, records, shape)?.map(|session| {
            let acked = records[1..=session.chunks as usize].iter();
            std::iter::once(session.begin_record(shape))
                .chain(acked.filter_map(|r| Some(ChunkRecord::from_options(r)?.to_options())))
                .collect()
        }),
    )
}

/// The daemon's registry of open sessions: bounded, idle-reaped, each
/// session under its own lock so long feature extractions never block
/// unrelated streams.
pub(crate) struct SessionMap {
    inner: Mutex<HashMap<String, Arc<Mutex<StreamSession>>>>,
    idle_expiry: Duration,
}

/// Why a `stream.begin` was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum BeginError {
    /// The id is already an open session.
    Duplicate,
    /// The registry is at [`MAX_SESSIONS`] even after reaping idle ones.
    Full,
}

impl SessionMap {
    pub(crate) fn new(idle_expiry: Duration) -> SessionMap {
        SessionMap {
            inner: Mutex::new(HashMap::new()),
            idle_expiry,
        }
    }

    /// Reap every session idle past the expiry. Runs on *every* stream op
    /// (not just a capacity-pressured `begin`), so abandoned sessions are
    /// collected even on a daemon that never fills up. Sessions whose lock
    /// is held (mid-chunk) are definitionally not idle. Returns the number
    /// reaped so the caller can bump the `serve:session.reaped` counter.
    pub(crate) fn sweep(&self) -> usize {
        self.reap(&mut self.inner.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn reap(&self, map: &mut HashMap<String, Arc<Mutex<StreamSession>>>) -> usize {
        let before = map.len();
        map.retain(|_, entry| match entry.try_lock() {
            Ok(s) => s.last_active.elapsed() < self.idle_expiry,
            Err(_) => true, // mid-chunk: definitionally not idle
        });
        before - map.len()
    }

    /// Open a session, reaping idle sessions first if at capacity.
    pub(crate) fn begin(&self, session: StreamSession) -> Result<(), BeginError> {
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(&session.id) {
            return Err(BeginError::Duplicate);
        }
        if map.len() >= MAX_SESSIONS && self.reap(&mut map) == 0 {
            return Err(BeginError::Full);
        }
        map.insert(session.id.clone(), Arc::new(Mutex::new(session)));
        Ok(())
    }

    pub(crate) fn get(&self, id: &str) -> Option<Arc<Mutex<StreamSession>>> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(id)
            .cloned()
    }

    /// Close and return a session.
    pub(crate) fn end(&self, id: &str) -> Option<Arc<Mutex<StreamSession>>> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(id)
    }

    pub(crate) fn active(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(id: &str) -> StreamSession {
        StreamSession {
            id: id.to_string(),
            token: mint_token(id),
            scheme_name: "rahman2023".into(),
            model_name: None,
            comp_id: "sz3".into(),
            codec_options: Options::new(),
            prev_last: None,
            chunks: 0,
            observed: 0,
            outcomes: Vec::new(),
            last_active: Instant::now(),
            learner: None,
        }
    }

    #[test]
    fn learner_rolls_its_window_and_error() {
        let mut learner = OnlineLearner::new(4, 2);
        // first observations: large error, then perfect predictions
        learner.observe(Options::new(), 2.0, 1.0); // rel 1.0
        assert!((learner.rolling_error() - 1.0).abs() < 1e-12);
        for _ in 0..4 {
            learner.observe(Options::new(), 1.0, 1.0);
        }
        // the bad first observation fell out of the window
        assert_eq!(learner.observations(), 4);
        assert_eq!(learner.rolling_error(), 0.0);
    }

    #[test]
    fn refit_cadence_requires_count_and_window() {
        let mut learner = OnlineLearner::new(16, 3);
        for _ in 0..3 {
            learner.observe(Options::new(), 1.0, 1.0);
        }
        // cadence reached but window < 4
        assert!(!learner.should_refit());
        learner.observe(Options::new(), 1.0, 1.0);
        assert!(learner.should_refit());
        learner.mark_refit();
        assert!(!learner.should_refit());
        assert_eq!(learner.refits(), 1);
        let (features, targets) = learner.window_snapshot();
        assert_eq!(features.len(), 4);
        assert_eq!(targets, vec![1.0; 4]);
    }

    #[test]
    fn tokens_are_unique_per_mint() {
        let a = mint_token("s");
        let b = mint_token("s");
        assert_ne!(a, b, "two mints for one id must differ");
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn sweep_reaps_idle_sessions_and_counts_them() {
        let map = SessionMap::new(Duration::from_millis(20));
        map.begin(session("idle")).unwrap();
        map.begin(session("busy")).unwrap();
        // nothing idle yet
        assert_eq!(map.sweep(), 0);
        let busy = map.get("busy").unwrap();
        let held = busy.lock().unwrap();
        std::thread::sleep(Duration::from_millis(40));
        // the idle session goes; the locked (mid-chunk) one survives
        assert_eq!(map.sweep(), 1);
        assert!(map.get("idle").is_none());
        assert!(map.get("busy").is_some());
        drop(held);
        assert_eq!(map.sweep(), 1);
        assert_eq!(map.active(), 0);
    }

    /// An active session is refreshed by its own traffic: a chunk committed
    /// to a session gone quiet past the expiry keeps it from the sweep,
    /// while an equally old session with no traffic goes. The clocks are
    /// set, not slept on.
    #[test]
    fn a_committed_chunk_refreshes_a_session_against_the_sweep() {
        let expiry = Duration::from_secs(60);
        let map = SessionMap::new(expiry);
        let stale = Instant::now().checked_sub(2 * expiry).unwrap();
        for id in ["quiet", "active"] {
            let mut s = session(id);
            s.last_active = stale;
            map.begin(s).unwrap();
        }
        let outcome = ChunkOutcome {
            prediction: 1.5,
            model_tag: String::new(),
            online_error: None,
            online_observations: None,
            online_version: None,
            observed: false,
        };
        map.get("active")
            .unwrap()
            .lock()
            .unwrap()
            .commit(ChunkRecord {
                seq: 1,
                outcome,
                observation: None,
                prev_last: None,
            });
        assert_eq!(map.sweep(), 1);
        assert!(map.get("quiet").is_none());
        assert_eq!(map.get("active").unwrap().lock().unwrap().chunks, 1);
    }

    #[test]
    fn outcome_lookup_respects_acked_window() {
        let mut s = session("s");
        s.chunks = 2;
        s.outcomes = vec![
            ChunkOutcome {
                prediction: 1.5,
                model_tag: "m@1".into(),
                online_error: None,
                online_observations: None,
                online_version: None,
                observed: false,
            };
            2
        ];
        assert!(s.outcome(0).is_none());
        assert_eq!(s.outcome(1).unwrap().prediction, 1.5);
        assert_eq!(s.outcome(2).unwrap().model_tag, "m@1");
        assert!(s.outcome(3).is_none(), "past-end seq has no cached outcome");
    }

    #[test]
    fn session_map_bounds_and_duplicates() {
        let map = SessionMap::new(DEFAULT_IDLE_EXPIRY);
        assert!(map.begin(session("a")).is_ok());
        assert_eq!(map.begin(session("a")), Err(BeginError::Duplicate));
        for i in 0..MAX_SESSIONS - 1 {
            assert!(map.begin(session(&format!("s{i}"))).is_ok());
        }
        // full, and nothing is idle yet
        assert_eq!(map.begin(session("overflow")), Err(BeginError::Full));
        assert_eq!(map.active(), MAX_SESSIONS);
        assert!(map.end("a").is_some());
        assert!(map.end("a").is_none());
        assert!(map.begin(session("overflow")).is_ok());
        assert!(map.get("overflow").is_some());
        assert!(map.get("missing").is_none());
    }
}
