//! The predict core — the paper's Fig. 4 flow (error-agnostic features →
//! error-dependent features → predictor), written once — and the batched
//! `predict` op built on it.
//!
//! Every op that predicts (`predict`, `stream.chunk`) or collects samples
//! to fit (`train`) resolves who answers through [`resolve_target`],
//! builds its compressor through [`compressor`] and reads both feature
//! stages of a buffer through one [`FeaturePass`].
//!
//! A `predict` is hashed and looked up once, on the connection thread that
//! read it: [`probe`] answers a prediction-cache hit there, with no queue
//! hand-off. A miss goes to the pipeline carrying its content hash, and
//! the batch handler runs three stages over the misses: a serial
//! **prepare** (decode, feature-cache probes), a coalesced parallel
//! **extract**, and a serial **finalize** (merge, predict, cache, reply).

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

/// Where a `predict` that missed the prediction cache carries its content
/// hash to the worker. [`probe`] strips it from every request first, so no
/// client can hand the worker a digest of its choosing.
const PROBED_DIGEST: &str = "serve:probed.digest";

/// Check the buffer, build the compressor the request names and hash the
/// buffer, unless `digest` already holds its hash. The check comes first, so
/// a request that would not decode answers `bad request` ahead of every
/// other error and of any cached answer.
fn keyed(
    state: &ServerState,
    request: &Options,
    digest: Option<[u8; 32]>,
) -> Result<(Box<dyn Compressor>, [u8; 32])> {
    protocol::check_data(request)?;
    let comp = compressor(compressor_id(request)?, &[request])?;
    let data_sha = match digest {
        Some(digest) => digest,
        None => {
            state.count(Stat::PredictHashes, 1);
            let _span = pressio_obs::span("serve:predict.digest");
            protocol::data_content_digest(request)?
        }
    };
    Ok((comp, data_sha))
}

fn prediction_key(target: &LoadedModel, settings: &[u8; 32], data_sha: &[u8; 32]) -> CacheKey {
    let (scheme, tag) = (target.scheme.as_bytes(), target.tag.as_bytes());
    CacheKey::of(&[b"p", scheme, tag, settings, data_sha])
}

/// A `predict`'s one look at the prediction cache, on the connection thread
/// ahead of the pipeline: resolve who answers, check and hash the buffer,
/// probe. A hit is the answer and never pays the copy of its payload into a
/// [`Data`]. Anything else returns `None` for the pipeline: a miss now
/// carries its hash, so the worker neither hashes nor probes it again, and
/// an error is found again and answered there.
pub(crate) fn probe(state: &ServerState, request: &mut Options) -> Option<Options> {
    request.remove(PROBED_DIGEST);
    let target = resolve_target(
        state,
        request.get_str_opt("serve:model").ok().flatten(),
        request.get_str_opt("serve:scheme").ok().flatten(),
    )
    .ok()?;
    let (comp, data_sha) = keyed(state, request, None).ok()?;
    let settings = CachedEvaluator::error_settings_digest(comp.as_ref());
    let Some((value, _)) = state
        .prediction_cache
        .get(prediction_key(&target, &settings, &data_sha))
    else {
        request.set(PROBED_DIGEST, data_sha.to_vec());
        return None;
    };
    state.count(Stat::PredictionsServed, 1);
    let resp = prediction_response(value, true, &target.scheme, &target.tag);
    Some(with_interval(
        resp,
        target.predictor.as_ref(),
        value,
        request,
    ))
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
    request: &Options,
) -> Options {
    let alpha = request.get_f64_opt("serve:alpha").ok().flatten();
    match alpha.and_then(|alpha| predictor.interval(value, alpha)) {
        Some(iv) => resp
            .with("serve:interval.lo", iv.lo)
            .with("serve:interval.hi", iv.hi)
            .with("serve:interval.coverage", iv.coverage),
        None => resp,
    }
}

/// A request that missed the prediction cache, waiting on features.
struct Prep {
    item: WorkItem,
    data: Data,
    comp: Box<dyn Compressor>,
    /// Content hash of `data`: requests with the same one share a pass.
    data_sha: [u8; 32],
    pred_key: CacheKey,
    agnostic_key: CacheKey,
    dependent_key: CacheKey,
    /// Cached error-agnostic features (`None` = must compute).
    agnostic: Option<Options>,
    /// Cached error-dependent features (`None` = must compute).
    dependent: Option<Options>,
}

/// Features by cache key, errors pre-rendered to responses so one failed
/// extraction answers every request that coalesced onto it.
type Extracted = HashMap<CacheKey, std::result::Result<Options, Options>>;

/// Answer a batch of `predict` requests. Items share the batch key by
/// construction, so the model/scheme is resolved once from the first.
pub(crate) fn handle_predict_batch(state: &ServerState, batch: Vec<WorkItem>) {
    let _span = pressio_obs::span("serve:predict.batch");
    let first = &batch[0].request;
    let target = match resolve_target(
        state,
        first.get_str_opt("serve:model").ok().flatten(),
        first.get_str_opt("serve:scheme").ok().flatten(),
    ) {
        Ok(target) => target,
        Err(resp) => {
            for item in batch {
                item.respond(resp.clone());
            }
            return;
        }
    };
    let preps: Vec<Prep> = batch
        .into_iter()
        .filter_map(|item| prepare(state, &target, item))
        .collect();
    if preps.is_empty() {
        return;
    }
    let extracted = extract(state, &target, &preps);
    for prep in preps {
        finalize(state, &target, &extracted, prep);
    }
}

/// Decode one request that missed the prediction cache and probe the
/// feature cache for both of its stages. A malformed request is answered
/// here and never reaches feature extraction.
fn prepare(state: &ServerState, target: &LoadedModel, mut item: WorkItem) -> Option<Prep> {
    let digest = item.request.remove(PROBED_DIGEST);
    let digest = digest.and_then(|sha| <[u8; 32]>::try_from(sha.as_bytes()?).ok());
    let request = &item.request;
    let decoded = keyed(state, request, digest)
        .and_then(|(comp, data_sha)| Ok((comp, data_sha, protocol::data_from_request(request)?)));
    let (comp, data_sha, data) = match decoded {
        Ok(decoded) => decoded,
        Err(e) => {
            item.respond(respond(Err(e)));
            return None;
        }
    };
    // from here on it holds the buffer once: the wire copy would sit
    // beside `data` through the extraction
    item.request.remove("data:bytes");
    let scheme = target.scheme.as_bytes();
    let settings = CachedEvaluator::error_settings_digest(comp.as_ref());
    let agnostic_key = CacheKey::of(&[b"a", scheme, &data_sha]);
    let dependent_key = CacheKey::of(&[b"d", scheme, &settings, &data_sha]);
    let cached = |key| Some(state.feature_cache.get(key)?.options(&target.keys));
    Some(Prep {
        agnostic: cached(agnostic_key),
        dependent: cached(dependent_key),
        pred_key: prediction_key(target, &settings, &data_sha),
        item,
        data,
        comp,
        data_sha,
        agnostic_key,
        dependent_key,
    })
}

/// Coalesced parallel extraction: identical buffers submitted by
/// different connections in the same batch share a cache key, so each
/// unique (key → extraction) job runs exactly once regardless of how many
/// requests need it. The first prep needing a key owns the job. Every job
/// on a buffer — both stages, and the dependent stage at each distinct
/// bound — reads it through that buffer's one [`FeaturePass`], whose
/// independent chains the scheme reads are started side by side ahead of
/// the jobs.
fn extract(state: &ServerState, target: &LoadedModel, preps: &[Prep]) -> Extracted {
    let mut passes: HashMap<&[u8; 32], FeaturePass<'_>> = HashMap::new();
    // (cache key, buffer, the compressor when it is the error-dependent stage)
    let mut jobs: Vec<(CacheKey, &[u8; 32], Option<&dyn Compressor>)> = Vec::new();
    let mut needed = 0u64;
    let mut claimed: HashSet<CacheKey> = HashSet::new();
    for p in preps {
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
fn finalize(state: &ServerState, target: &LoadedModel, extracted: &Extracted, prep: Prep) {
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
        let mut features = fetch(prep.agnostic, &prep.agnostic_key)?;
        features.merge_from(&fetch(prep.dependent, &prep.dependent_key)?);
        let value = predictor.predict(&features).map_err(|e| respond(Err(e)))?;
        state
            .prediction_cache
            .insert(prep.pred_key, (value, target.id()));
        state.count(Stat::PredictionsServed, 1);
        let resp = prediction_response(value, false, &target.scheme, &target.tag);
        Ok(with_interval(resp, predictor, value, &prep.item.request))
    })();
    // deadline re-check after compute: the client stopped waiting at the
    // deadline, so a slow extraction must not pretend to succeed
    prep.item
        .respond_checked(response.unwrap_or_else(|error| error));
}
