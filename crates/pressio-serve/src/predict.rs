//! The predict core — the paper's Fig. 4 flow (error-agnostic features →
//! error-dependent features → predictor), written once — and the batched
//! `predict` op built on it.
//!
//! Every op that predicts (`predict`, `stream.chunk`) or collects samples
//! to fit (`train`) resolves who answers through [`resolve_target`],
//! builds its compressor through [`compressor`] and reads both feature
//! stages of a buffer through one [`FeaturePass`].
//!
//! A `predict` is resolved, checked, hashed and looked up once, on the
//! connection thread that read it: [`probe`] answers a prediction-cache hit
//! or the error it found there, with no queue hand-off. A miss is decoded
//! and looks its features up there too, and goes to the pipeline as a typed
//! [`Miss`]; the batch handler runs a coalesced parallel **extract** and a
//! serial **finalize** (merge, predict, cache, reply) over the misses.

use crate::cache::CacheKey;
use crate::pipeline::WorkItem;
use crate::protocol::{self, code};
use crate::server::{respond, LoadedModel, ServerState, Stat};
use pressio_core::error::{Error, Result};
use pressio_core::{threads, Compressor, Data, Options};
use pressio_predict::evaluator::CachedEvaluator;
use pressio_predict::features::{with_chains_ahead, FeaturePass, FeatureRow};
use pressio_predict::{standard_compressors, standard_schemes, Predictor, Scheme};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Who answers a prediction: the resident trained model a `serve:model`
/// reference names (which wins), or the analytic predictor of a
/// `serve:scheme` that works untrained. An unversioned model reference
/// resolves the latest version, so callers that re-resolve per batch or
/// per chunk pick up retrains and online refits. Errors are rendered as
/// the response to send.
pub(crate) fn resolve_target(
    state: &ServerState,
    model_ref: Option<&str>,
    scheme_name: Option<&str>,
) -> std::result::Result<Arc<LoadedModel>, Options> {
    if let Some(model_ref) = model_ref {
        return state.resolve_model(model_ref).map_err(|e| respond(Err(e)));
    }
    let scheme_name = scheme_name.ok_or_else(|| {
        protocol::error_response(
            code::BAD_REQUEST,
            "request needs serve:model or serve:scheme",
        )
    })?;
    let scheme = standard_schemes()
        .build(scheme_name)
        .map_err(|e| respond(Err(e)))?;
    let predictor = scheme.make_predictor();
    if predictor.requires_training() {
        return Err(protocol::error_response(
            code::NOT_FOUND,
            format!(
                "scheme '{scheme_name}' needs a trained model; \
                 train one and pass serve:model"
            ),
        ));
    }
    Ok(Arc::new(LoadedModel {
        tag: String::new(),
        name: String::new(),
        version: 0,
        scheme: scheme_name.to_string(),
        keys: scheme.feature_keys(),
        predictor,
    }))
}

/// The compressor a request names: `serve:compressor`, sz3 when absent.
pub(crate) fn compressor_id(request: &Options) -> Result<&str> {
    Ok(request.get_str_opt("serve:compressor")?.unwrap_or("sz3"))
}

/// Build compressor `comp_id` and configure it from each options layer in
/// order (later layers override earlier ones).
pub(crate) fn compressor(comp_id: &str, layers: &[&Options]) -> Result<Box<dyn Compressor>> {
    let mut comp = standard_compressors().build(comp_id)?;
    for layer in layers {
        comp.set_options(layer)?;
    }
    Ok(comp)
}

/// Build scheme `scheme_name`, refusing a compressor it cannot model.
pub(crate) fn scheme_for(scheme_name: &str, comp_id: &str) -> Result<Box<dyn Scheme>> {
    let scheme = standard_schemes().build(scheme_name)?;
    if !scheme.supports(comp_id) {
        return Err(Error::Unsupported(format!(
            "scheme '{scheme_name}' does not support compressor '{comp_id}'"
        )));
    }
    Ok(scheme)
}

pub(crate) fn prediction_response(
    value: f64,
    cached: bool,
    scheme: &str,
    model_tag: &str,
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
    resp
}

fn prediction_key(target: &LoadedModel, settings: &[u8; 32], data_sha: &[u8; 32]) -> CacheKey {
    let (scheme, tag) = (target.scheme.as_bytes(), target.tag.as_bytes());
    CacheKey::of(&[b"p", scheme, tag, settings, data_sha])
}

/// A `predict` that missed the prediction cache, as its probe left it:
/// everything a worker needs, found once on the connection thread.
pub(crate) struct Miss {
    target: Arc<LoadedModel>,
    comp: Box<dyn Compressor>,
    data: Data,
    /// Content hash of `data`: misses with the same one share a pass.
    data_sha: [u8; 32],
    pred_key: CacheKey,
    agnostic_key: CacheKey,
    dependent_key: CacheKey,
    /// Cached error-agnostic features (`None` = must compute).
    agnostic: Option<Options>,
    /// Cached error-dependent features (`None` = must compute).
    dependent: Option<Options>,
    /// `serve:alpha`: the miscoverage the reply's interval is asked at.
    alpha: Option<f64>,
}

impl Miss {
    /// The pipeline batch key: the resolved model's tag, or the analytic
    /// scheme's name (a tag always holds an `@`, a scheme name never does),
    /// so one batch never mixes model versions.
    pub(crate) fn batch_key(&self) -> String {
        match self.target.tag.as_str() {
            "" => self.target.scheme.clone(),
            tag => tag.to_string(),
        }
    }
}

/// A `predict`'s one look at the prediction cache, on the connection thread
/// that read it: resolve who answers, check the buffer, build the compressor,
/// hash the buffer and probe. `Err` is the answer itself: a hit, which never
/// pays the copy of its payload into a [`Data`], or the error the probe
/// found. A miss is then decoded, looks both feature stages up and goes to
/// the pipeline typed, which does none of this again. The buffer check comes
/// before the hash, so a request that would not decode answers `bad request`
/// ahead of any cached answer.
pub(crate) fn probe(state: &ServerState, request: Options) -> std::result::Result<Miss, Options> {
    let started = Instant::now();
    let target = resolve_target(
        state,
        request.get_str_opt("serve:model").ok().flatten(),
        request.get_str_opt("serve:scheme").ok().flatten(),
    )?;
    let refused = |e: Error| respond(Err(e));
    protocol::check_data(&request).map_err(refused)?;
    let comp = compressor_id(&request)
        .and_then(|id| compressor(id, &[&request]))
        .map_err(refused)?;
    state.count(Stat::PredictHashes, 1);
    let data_sha = {
        let _span = pressio_obs::span("serve:predict.digest");
        protocol::data_content_digest(&request).map_err(refused)?
    };
    let settings = CachedEvaluator::error_settings_digest(comp.as_ref());
    let pred_key = prediction_key(&target, &settings, &data_sha);
    let alpha = request.get_f64_opt("serve:alpha").ok().flatten();
    if let Some((value, _)) = state.prediction_cache.get(pred_key) {
        state.count(Stat::PredictionsServed, 1);
        let resp = prediction_response(value, true, &target.scheme, &target.tag);
        pressio_obs::record_ms("serve:predict.hit", started.elapsed().as_secs_f64() * 1e3);
        return Err(with_interval(resp, target.predictor.as_ref(), value, alpha));
    }
    let data = {
        let _span = pressio_obs::span("serve:predict.decode");
        protocol::data_from_request(&request).map_err(refused)?
    };
    // from here on the miss holds the buffer once: the wire copy would sit
    // beside `data` in the queue and through the extraction
    drop(request);
    let scheme = target.scheme.as_bytes();
    let agnostic_key = CacheKey::of(&[b"a", scheme, &data_sha]);
    let dependent_key = CacheKey::of(&[b"d", scheme, &settings, &data_sha]);
    let (agnostic, dependent) = {
        let _span = pressio_obs::span("serve:predict.feature_cache");
        let cached = |key| Some(state.feature_cache.get(key)?.options(&target.keys));
        (cached(agnostic_key), cached(dependent_key))
    };
    Ok(Miss {
        target,
        comp,
        data,
        data_sha,
        pred_key,
        agnostic_key,
        dependent_key,
        agnostic,
        dependent,
        alpha,
    })
}

/// `serve:alpha` is the miscoverage an interval is asked for at: in (0, 1),
/// or the interval is a false one (coverage above 1 or below 0, or a finite
/// interval claiming all of it). Checked before the probe, so a hit and a
/// miss are turned down alike.
pub(crate) fn check_alpha(request: &Options) -> Result<()> {
    match request.get_f64_opt("serve:alpha")? {
        Some(alpha) if !(alpha > 0.0 && alpha < 1.0) => Err(Error::InvalidValue {
            key: "serve:alpha".into(),
            reason: format!("{alpha} is not a miscoverage rate in (0, 1)"),
        }),
        _ => Ok(()),
    }
}

/// Add the interval a `serve:alpha` request asks for around `value`, when
/// the predictor gives one. The interval reads nothing but the value, so a
/// prediction-cache hit carries the one its miss did.
fn with_interval(
    resp: Options,
    predictor: &dyn Predictor,
    value: f64,
    alpha: Option<f64>,
) -> Options {
    match alpha.and_then(|alpha| predictor.interval(value, alpha)) {
        Some(iv) => resp
            .with("serve:interval.lo", iv.lo)
            .with("serve:interval.hi", iv.hi)
            .with("serve:interval.coverage", iv.coverage),
        None => resp,
    }
}

/// Features by cache key, errors pre-rendered to responses so one failed
/// extraction answers every request that coalesced onto it.
type Extracted = HashMap<CacheKey, std::result::Result<Options, Options>>;

/// Answer a batch of misses: a coalesced parallel **extract**, then a
/// serial **finalize** (merge, predict, cache, reply) per miss. The misses
/// share a batch key, so one resolved model answers them all.
pub(crate) fn handle_predict_batch(state: &ServerState, batch: Vec<WorkItem<Miss>>) {
    let _span = pressio_obs::span("serve:predict.batch");
    let extracted = extract(state, &batch);
    for item in batch {
        finalize(state, &extracted, item);
    }
}

/// Coalesced parallel extraction: identical buffers submitted by
/// different connections in the same batch share a cache key, so each
/// unique (key → extraction) job runs exactly once regardless of how many
/// requests need it. The first miss needing a key owns the job. Every job
/// on a buffer — both stages, and the dependent stage at each distinct
/// bound — reads it through that buffer's one [`FeaturePass`], whose
/// independent chains the scheme reads are started side by side ahead of
/// the jobs.
fn extract(state: &ServerState, misses: &[WorkItem<Miss>]) -> Extracted {
    let target = &misses[0].request.target;
    let mut passes: HashMap<&[u8; 32], FeaturePass<'_>> = HashMap::new();
    // (cache key, buffer, the compressor when it is the error-dependent stage)
    let mut jobs: Vec<(CacheKey, &[u8; 32], Option<&dyn Compressor>)> = Vec::new();
    let mut needed = 0u64;
    let mut claimed: HashSet<CacheKey> = HashSet::new();
    for WorkItem { request: p, .. } in misses {
        for (cached, key, comp) in [
            (&p.agnostic, &p.agnostic_key, None),
            (&p.dependent, &p.dependent_key, Some(p.comp.as_ref())),
        ] {
            if cached.is_none() {
                needed += 1;
                if claimed.insert(*key) {
                    passes
                        .entry(&p.data_sha)
                        .or_insert_with(|| FeaturePass::new(&p.data));
                    jobs.push((*key, &p.data_sha, comp));
                }
            }
        }
    }
    let coalesced = needed - jobs.len() as u64;
    if coalesced > 0 {
        state.count(Stat::Coalesced, coalesced);
    }
    // The scheme is rebuilt inside the closure (a cheap registry
    // construction; schemes are not `Sync`) so the closure stays `Sync`.
    let scheme = standard_schemes().build(&target.scheme);
    let chains = scheme.map_or(&[][..], |scheme| scheme.pass_chains());
    let pool = threads::resolve(None);
    let nthreads = pool.min(jobs.len().max(1));
    let ahead: Vec<&FeaturePass<'_>> = passes.values().collect();
    let results: Vec<Result<Options>> = with_chains_ahead(&ahead, chains, pool, || {
        threads::par_map_indexed(nthreads, jobs.len(), |j| {
            let (_, data_sha, comp) = jobs[j];
            let scheme = standard_schemes().build(&target.scheme)?;
            match comp {
                Some(comp) => scheme.error_dependent_from(&passes[data_sha], comp),
                None => scheme.error_agnostic_from(&passes[data_sha]),
            }
        })
    });
    let mut extracted = Extracted::new();
    let mut computed = 0u64;
    for ((key, _, _), result) in jobs.into_iter().zip(results) {
        let entry = result.map_err(|e| respond(Err(e))).inspect(|features| {
            if let Some(row) = FeatureRow::of(features, &target.keys) {
                state.feature_cache.insert(key, row);
            }
            computed += 1;
        });
        extracted.insert(key, entry);
    }
    if computed > 0 {
        state.count(Stat::FeaturesComputed, computed);
    }
    extracted
}

/// Assemble one request's features, predict, cache and reply.
fn finalize(state: &ServerState, extracted: &Extracted, mut item: WorkItem<Miss>) {
    let miss = &mut item.request;
    let target = &miss.target;
    let fetch = |cached: Option<Options>, key: &CacheKey| match cached {
        Some(features) => Ok(features),
        None => extracted.get(key).cloned().unwrap_or_else(|| {
            Err(protocol::error_response(
                code::INTERNAL,
                format!("no extraction job produced feature key {key:?}"),
            ))
        }),
    };
    let predictor = target.predictor.as_ref();
    let response = (|| -> std::result::Result<Options, Options> {
        let mut features = fetch(miss.agnostic.take(), &miss.agnostic_key)?;
        features.merge_from(&fetch(miss.dependent.take(), &miss.dependent_key)?);
        let value = predictor.predict(&features).map_err(|e| respond(Err(e)))?;
        state
            .prediction_cache
            .insert(miss.pred_key, (value, target.id()));
        state.count(Stat::PredictionsServed, 1);
        let resp = prediction_response(value, false, &target.scheme, &target.tag);
        Ok(with_interval(resp, predictor, value, miss.alpha))
    })();
    // deadline re-check after compute: the client stopped waiting at the
    // deadline, so a slow extraction must not pretend to succeed
    item.respond_checked(response.unwrap_or_else(|error| error));
}
