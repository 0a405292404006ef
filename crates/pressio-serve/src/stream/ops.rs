//! The four `stream.*` op handlers. They run inline on the connection
//! thread: chunks of one stream are strictly ordered (carried state), so
//! routing them through the batching pipeline would buy nothing.

use super::{mint_token, BeginError, ChunkOutcome, ChunkRecord, OnlineLearner, StreamSession};
use super::{SessionMap, MAX_SESSIONS};
use crate::predict::{self, resolve_target};
use crate::protocol::{self, code};
use crate::server::{ServerState, Stat};
use pressio_core::error::{Error, Result};
use pressio_core::Options;
use pressio_predict::features::{temporal_delta_features, FeaturePass};
use pressio_predict::standard_schemes;
use std::time::{Duration, Instant};

fn unknown_stream(id: &str) -> Error {
    Error::UnknownPlugin {
        kind: "stream",
        name: id.to_string(),
    }
}

fn at_capacity() -> Options {
    protocol::error_response(
        code::OVERLOADED,
        format!("stream sessions at capacity ({MAX_SESSIONS})"),
    )
}

/// The window and refit cadence a session without a learner journals.
fn offline_shape(state: &ServerState) -> (usize, usize) {
    (state.config.online_window, state.config.online_refit_every)
}

/// Open a streaming session. A `serve:model` reference is resolved (and
/// loaded) now so a bad reference fails at `begin`, not mid-stream; a
/// model-less stream needs a scheme whose predictor works untrained.
/// Compressor knobs on the request are captured and re-applied per chunk.
pub(crate) fn handle_begin(state: &ServerState, request: &Options) -> Result<Options> {
    state.sweep_sessions();
    let id = request.get_str("stream:id")?.to_string();
    let model_name = request.get_str_opt("serve:model")?.map(str::to_string);
    let target = match resolve_target(
        state,
        model_name.as_deref(),
        request.get_str_opt("serve:scheme")?,
    ) {
        Ok(target) => target,
        Err(resp) => return Ok(resp),
    };
    let comp_id = predict::compressor_id(request)?.to_string();
    predict::scheme_for(&target.scheme, &comp_id)?;
    let session = StreamSession {
        id: id.clone(),
        // the session token: client-minted when supplied (so a client that
        // never saw the `stream.begun` response can still resume),
        // otherwise server-minted and echoed back
        token: match request.get_str_opt("stream:token")? {
            Some(t) if !t.is_empty() => t.to_string(),
            _ => mint_token(&id),
        },
        scheme_name: target.scheme.clone(),
        model_name,
        comp_id,
        codec_options: request.clone(),
        prev_last: None,
        chunks: 0,
        observed: 0,
        outcomes: Vec::new(),
        last_active: Instant::now(),
        learner: state.config.online.then(|| {
            OnlineLearner::new(state.config.online_window, state.config.online_refit_every)
        }),
    };
    let mut resp = Options::new()
        .with("serve:type", "stream.begun")
        .with("stream:id", id.as_str())
        .with("serve:scheme", session.scheme_name.as_str())
        .with("stream:online", state.config.online)
        .with("stream:token", session.token.as_str())
        .with("stream:acked", 0u64);
    if !target.tag.is_empty() {
        resp.set("serve:model", target.tag.as_str());
    }
    let begin_record = session.begin_record(offline_shape(state));
    match state.streams.begin(session) {
        Ok(()) => {}
        Err(BeginError::Duplicate) => {
            return Err(Error::InvalidValue {
                key: "stream:id".into(),
                reason: format!("stream '{id}' is already open"),
            })
        }
        Err(BeginError::Full) => return Ok(at_capacity()),
    }
    // a fresh begin invalidates any stale journal for a reused id, then
    // durably records the session configuration for `stream.resume`
    let written = state
        .journal
        .reset(&id)
        .and_then(|()| state.journal.append(&id, &begin_record));
    if !state.journaled(written) {
        pressio_obs::add_counter("serve:journal.begin_failed", 1);
    }
    pressio_obs::add_counter("serve:stream.begin", 1);
    Ok(resp)
}

/// An explicit sequence number makes replays idempotent: a seq at or
/// below the acked offset answers from the outcome cache without
/// re-feeding the learner (`Some`), the next expected seq proceeds
/// (`None`), a seq past it is a typed error (the client skipped ahead).
fn replayed_chunk(
    state: &ServerState,
    session: &mut StreamSession,
    seq: u64,
) -> Result<Option<Options>> {
    let invalid = |reason: String| Error::InvalidValue {
        key: "stream:seq".into(),
        reason,
    };
    if seq == 0 {
        return Err(invalid("chunk sequence numbers are 1-based".into()));
    }
    if seq == session.chunks + 1 {
        return Ok(None);
    }
    if seq > session.chunks {
        return Err(invalid(format!(
            "chunk {seq} skips ahead of the acked offset {} (next expected {})",
            session.chunks,
            session.chunks + 1
        )));
    }
    let resp = session
        .chunk_response(seq, true)
        .ok_or_else(|| invalid(format!("chunk {seq} is acked but has no cached outcome")))?;
    session.last_active = Instant::now();
    state.count(Stat::StreamReplays, 1);
    Ok(Some(resp))
}

/// The failpoints in front of a chunk; `Some` is the response to send
/// instead of processing it.
fn chunk_faults(sessions: &SessionMap, id: &str) -> Option<Options> {
    // the connection stalls mid-stream (client sees latency, never
    // corruption)
    if let Some(pressio_faults::FaultAction::Stall(ms) | pressio_faults::FaultAction::Delay(ms)) =
        pressio_faults::check("stream:conn.stall")
    {
        std::thread::sleep(Duration::from_millis(ms));
    }
    // the in-memory session vanishes (as a daemon restart would lose
    // it) while the durable journal survives — the client sees
    // `not_found`, resumes, and the journal rehydrates
    if pressio_faults::check("stream:session.lost").is_some() {
        sessions.end(id);
        pressio_obs::add_counter("serve:session.lost_injected", 1);
    }
    // transient overload: the chunk is rejected with a retryable code,
    // exactly like a full queue would answer `query` — the resilient
    // sender must retry it in place
    pressio_faults::check("stream:chunk.overload").map(|_| {
        protocol::error_response(
            code::OVERLOADED,
            "stream chunk rejected (injected overload)",
        )
    })
}

/// Predict for one chunk of an open stream. The session's previous
/// trailing timestep feeds the `temporal:*` feature group; an unpinned
/// model reference is re-resolved per chunk so online refits (and
/// concurrent re-trains) take effect mid-stream. With `--online` and a
/// reported `stream:actual`, the observation feeds the session's rolling
/// window and may trigger a versioned model refit.
pub(crate) fn handle_chunk(state: &ServerState, request: &Options) -> Result<Options> {
    state.sweep_sessions();
    let id = request.get_str("stream:id")?;
    if let Some(resp) = chunk_faults(&state.streams, id) {
        return Ok(resp);
    }
    let entry = state.streams.get(id).ok_or_else(|| unknown_stream(id))?;
    let mut guard = entry.lock().unwrap_or_else(|e| e.into_inner());
    let session = &mut *guard;
    if let Some(seq) = request.get_u64_opt("stream:seq")? {
        if let Some(resp) = replayed_chunk(state, session, seq)? {
            return Ok(resp);
        }
    }
    let data = protocol::data_from_request(request)?;
    let scheme = standard_schemes().build(&session.scheme_name)?;
    // the begin request's knobs, then per-chunk overrides
    let comp = predict::compressor(&session.comp_id, &[&session.codec_options, request])?;
    let pass = FeaturePass::new(&data);
    let mut features = scheme.features_from(&pass, comp.as_ref())?;
    if let Some(prev) = &session.prev_last {
        features.merge_from(&temporal_delta_features(&FeaturePass::new(prev), &pass));
    }
    state.count(Stat::FeaturesComputed, 2);
    let target = match resolve_target(
        state,
        session.model_name.as_deref(),
        Some(&session.scheme_name),
    ) {
        Ok(target) => target,
        Err(resp) => return Ok(resp),
    };
    let prediction = target.predictor.predict(&features)?;
    state.count(Stat::PredictionsServed, 1);
    state.count(Stat::StreamChunks, 1);
    let mut chunk = ChunkRecord {
        seq: session.chunks + 1,
        outcome: ChunkOutcome {
            prediction,
            model_tag: target.tag.clone(),
            online_error: None,
            online_observations: None,
            online_version: None,
            observed: false,
        },
        observation: None,
        prev_last: pressio_core::chunking::last_outer_slice(&data).ok(),
    };
    let actual = request.get_f64_opt("stream:actual").ok().flatten();
    let refit_error = match actual.filter(|a| a.is_finite() && *a > 0.0) {
        Some(actual) => observe(state, session, &mut chunk, features, actual),
        None => None,
    };
    // journal before acking so an acked chunk is always rehydratable;
    // a failed append degrades durability, not availability
    state.journaled(state.journal.append(&session.id, &chunk.to_options()));
    let seq = chunk.seq;
    session.commit(chunk);
    let mut resp = session
        .chunk_response(seq, false)
        .expect("the chunk just committed has an outcome");
    if let Some(e) = refit_error {
        resp.set("stream:online.refit_error", e.to_string());
    }
    Ok(resp)
}

/// Feed the session's learner (when it has one) the observed outcome of
/// `chunk`, recording in the chunk what the journal must replay, and
/// refit when the cadence says so. A failed refit's error is returned,
/// not raised: the chunk keeps its answer, the current version serves on.
fn observe(
    state: &ServerState,
    session: &mut StreamSession,
    chunk: &mut ChunkRecord,
    features: Options,
    actual: f64,
) -> Option<Error> {
    let learner = session.learner.as_mut()?;
    // the (features, actual) pair fed to the learner is also journaled so
    // rehydration can replay the observation stream exactly once
    chunk.observation = features.to_json().ok().map(|json| (json, actual));
    let rolling = learner.observe(features, chunk.outcome.prediction, actual);
    chunk.outcome.online_error = Some(rolling);
    chunk.outcome.online_observations = Some(learner.observations() as u64);
    chunk.outcome.observed = true;
    session.observed += 1;
    state.count(Stat::StreamObserved, 1);
    let model_ref = session
        .model_name
        .as_ref()
        .filter(|_| learner.should_refit())?;
    match refit_online(state, &session.scheme_name, model_ref, learner) {
        Ok(version) => {
            chunk.outcome.online_version = Some(version);
            None
        }
        Err(e) => {
            pressio_obs::add_counter("serve:online.refit_failed", 1);
            Some(e)
        }
    }
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
    learner: &mut OnlineLearner,
) -> Result<u64> {
    let (name, _) = crate::store::parse_model_ref(model_ref)?;
    let (features, targets) = learner.window_snapshot();
    let scheme = standard_schemes().build(scheme_name)?;
    let (version, _) = state.fit_and_install(
        scheme.as_ref(),
        scheme_name,
        &name,
        &features,
        &targets,
        "serve:online.fit",
    )?;
    state.count(Stat::OnlineRefits, 1);
    learner.mark_refit();
    Ok(version)
}

/// Close a streaming session and report its summary. The durable journal
/// is deleted — a completed stream is no longer resumable.
pub(crate) fn handle_end(state: &ServerState, request: &Options) -> Result<Options> {
    state.sweep_sessions();
    let id = request.get_str("stream:id")?;
    let entry = state.streams.end(id).ok_or_else(|| unknown_stream(id))?;
    state.journaled(state.journal.remove(id));
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

/// Rehydrate or re-attach a streaming session after a disconnect or a
/// daemon restart. The client presents the stream id, its session
/// token, and its last-acked chunk offset; the server answers with the
/// *authoritative* acked offset (the client replays from there — replays
/// of already-acked chunks are idempotent). A session missing from memory
/// is rebuilt from the durable journal ([`StreamSession::from_records`]).
pub(crate) fn handle_resume(state: &ServerState, request: &Options) -> Result<Options> {
    state.sweep_sessions();
    // failpoint: the resume is refused with a retryable code (as a
    // busy or mid-rehydration daemon would); the resilient sender
    // backs off and retries
    if pressio_faults::check("stream:resume.reject").is_some() {
        return Ok(protocol::error_response(
            code::OVERLOADED,
            "stream resume rejected (injected)",
        ));
    }
    let id = request.get_str("stream:id")?;
    let token = request.get_str("stream:token")?;
    let client_acked = request.get_u64_opt("stream:acked")?.unwrap_or(0);
    let mut rehydrated = false;
    let entry = match state.streams.get(id) {
        Some(entry) => entry,
        None => {
            let records = state.journal.load(id)?.unwrap_or_default();
            let session = StreamSession::from_records(id, &records, offline_shape(state))?
                .ok_or_else(|| unknown_stream(id))?;
            pressio_obs::add_counter("serve:stream.rehydrated", 1);
            rehydrated = true;
            match state.streams.begin(session) {
                // a concurrent resume won the race: attach to its session
                Ok(()) | Err(BeginError::Duplicate) => {}
                Err(BeginError::Full) => return Ok(at_capacity()),
            }
            state.streams.get(id).ok_or_else(|| unknown_stream(id))?
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
    state.count(Stat::StreamResumes, 1);
    Ok(Options::new()
        .with("serve:type", "stream.resumed")
        .with("stream:id", id)
        .with("serve:scheme", session.scheme_name.as_str())
        .with("stream:token", session.token.as_str())
        .with("stream:acked", session.chunks)
        .with("stream:online", session.learner.is_some())
        .with("stream:rehydrated", rehydrated))
}
