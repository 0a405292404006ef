//! `predict_cold_1m` and `predict_hot_8k`: a closed loop of
//! `Client::predict` calls against a real `pressio serve` child.
//!
//! The callers are HPC ranks that block on the answer before they choose a
//! compressor configuration, so each connection sends its next request only
//! when the previous reply has been decoded.

use super::codec::configured;
use super::{fastest_ms, timed, typical_ms, Ctx, Metrics, Op, Window, Workload, ABS};
use crate::daemon::Daemon;
use crate::inputs::{self, Generated, Rng};
use crate::stats::median;
use crate::trace::{Overhead, Recorder};
use pressio_core::{Compressor, Data, Options};
use pressio_predict::{standard_schemes, Predictor, Scheme};
use pressio_serve::{protocol, Client, ModelStore, ShardedLru};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

const DENSE_FIELDS: [&str; 6] = ["P", "QVAPOR", "TC", "U", "V", "W"];
const MODEL: &str = "bench";
const SCHEME: &str = "rahman2023";
/// Requests replayed after the window; each must answer bit-identically.
const REPLAYS: usize = 16;
/// Operations the traced pass replays at most.
const TRACED_OPS: usize = 64;

/// A request as it was first answered, kept for the determinism replay.
struct Answered {
    input: usize,
    salt: u32,
    value: f64,
}

/// What one connection saw.
#[derive(Default)]
struct Connection {
    ok: Vec<Op>,

    attempted: u64,
    failed: u64,
    first: Vec<Answered>,
}

pub struct Predict {
    /// Cold: every request is a buffer no cache has seen. Hot: every
    /// request is a prediction-cache hit.
    cold: bool,
    daemon: Daemon,
    inputs: Generated,
    extra: Options,
    connections: usize,
    next_salt: AtomicU32,
}

/// The value of a well-formed `prediction` reply whose `serve:cached` flag
/// is the one the workload expects.
fn prediction(reply: &Options, expect_cached: Option<bool>) -> Option<f64> {
    let value = reply.get_f64("serve:prediction").ok()?;
    let cached = reply.get_bool("serve:cached").ok()?;
    (reply.get_str("serve:type") == Ok("prediction")
        && value.is_finite()
        && value > 0.0
        && expect_cached.is_none_or(|e| e == cached))
    .then_some(value)
}

/// `[prediction hits, prediction misses, feature hits, feature misses,
/// features computed, coalesced]` from a `stats` reply.
fn cache_counters(client: &mut Client) -> Result<[u64; 6], String> {
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let mut counters = [0; 6];
    for (slot, key) in counters.iter_mut().zip([
        "serve:prediction_cache.hits",
        "serve:prediction_cache.misses",
        "serve:feature_cache.hits",
        "serve:feature_cache.misses",
        "serve:features.computed",
        "serve:coalesced",
    ]) {
        *slot = stats.get_u64(key).map_err(|e| format!("stats: {e}"))?;
    }
    Ok(counters)
}

impl Predict {
    pub fn setup(ctx: &Ctx, cold: bool) -> Result<Predict, String> {
        let mut rng = Rng::new(ctx.seed);
        // 1 MiB where the wire sets latency; 8 KiB where fixed per-request
        // overhead does
        // cold: all 13 fields at one timestep. hot: 64 buffers of the six
        // dense fields; at 8 KiB a sparse field is all zeros at many a
        // timestep, and a repeated buffer would be a hit while still warming
        let mut inputs = if cold {
            inputs::fields(&mut rng, [64, 64, 64], &pressio_dataset::FIELDS, 1)
        } else {
            inputs::fields(&mut rng, [16, 16, 8], &DENSE_FIELDS, 11)
        };
        inputs.fields.truncate(64);
        let dims = if cold { [64, 64, 64] } else { [16, 16, 8] };
        let daemon = Daemon::spawn(&ctx.dir)?;
        daemon.train(MODEL, SCHEME, dims, ABS)?;
        let workload = Predict {
            cold,
            daemon,
            inputs,
            extra: Options::new().with("pressio:abs", ABS),
            connections: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2),
            next_salt: AtomicU32::new(1 + rng.below(1 << 16) as u32),
        };
        if !cold {
            // the warming pass: afterwards every buffer is in the prediction cache
            let mut client = workload.daemon.client()?;
            for field in &workload.inputs.fields {
                let reply = client
                    .predict(MODEL, &field.data, &workload.extra)
                    .map_err(|e| format!("warming pass: {e}"))?;
                prediction(&reply, Some(false))
                    .ok_or_else(|| format!("warming pass: bad reply {reply:?}"))?;
            }
        }
        Ok(workload)
    }

    /// The buffer of request (`input`, `salt`).
    fn buffer(&self, input: usize, salt: u32) -> Cow<'_, Data> {
        let base = &self.inputs.fields[input].data;
        if self.cold {
            Cow::Owned(inputs::perturbed(base, salt))
        } else {
            Cow::Borrowed(base)
        }
    }

    /// One connection's closed loop until `deadline`.
    fn connection(&self, id: usize, deadline: Instant) -> Result<Connection, String> {
        let mut client = self.daemon.client()?;
        let mut seen = Connection::default();
        let mut n = id;
        while Instant::now() < deadline {
            let input = n % self.inputs.fields.len();
            let salt = self.next_salt.fetch_add(1, Ordering::Relaxed);
            // the buffer is made before the clock starts
            let data = self.buffer(input, salt);
            let (reply, ms) = timed(|| client.predict(MODEL, &data, &self.extra));
            seen.attempted += 1;
            match reply.ok().and_then(|r| prediction(&r, Some(!self.cold))) {
                Some(value) => {
                    seen.ok.push((input as u32, ms));
                    if seen.first.len() < REPLAYS {
                        seen.first.push(Answered { input, salt, value });
                    }
                }
                None => seen.failed += 1,
            }
            n += self.connections;
        }
        Ok(seen)
    }
}

impl Workload for Predict {
    fn min_ops(&self) -> usize {
        if self.cold {
            30
        } else {
            2000
        }
    }

    fn generate_ms_per_mib(&self) -> f64 {
        self.inputs.ms_per_mib
    }

    fn measure(&mut self, seconds: f64) -> Result<Window, String> {
        let mut control = self.daemon.client()?;
        let before = cache_counters(&mut control)?;
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let connections: Vec<Connection> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.connections)
                .map(|id| {
                    let this = &*self;
                    scope.spawn(move || this.connection(id, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a generator thread panicked"))
                .collect::<Result<_, _>>()
        })?;
        let wall_s = started.elapsed().as_secs_f64();
        let after = cache_counters(&mut control)?;

        let mut w = Window::default();
        for c in &connections {
            w.ops.extend(&c.ok);
            w.attempted += c.attempted;
            w.failed += c.failed;
        }

        // the proof the run is the workload it claims to be
        let delta: Vec<f64> = after
            .iter()
            .zip(before)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        let hit_share = delta[0] / (delta[0] + delta[1]).max(1.0);
        let expected = if self.cold { 0.0 } else { 1.0 };
        if hit_share != expected {
            return Err(format!(
                "cache.prediction_hit_share is {hit_share}, the workload needs exactly {expected}"
            ));
        }
        w.layers
            .insert("cache.prediction_hit_share".into(), hit_share);
        w.layers.insert(
            "cache.feature_hit_share".into(),
            delta[2] / (delta[2] + delta[3]).max(1.0),
        );
        w.layers.insert("cache.features_computed".into(), delta[4]);
        w.layers.insert("cache.coalesced".into(), delta[5]);
        w.layers
            .insert("predict.rps".into(), w.ops.len() as f64 / wall_s);

        // the determinism contract: the same buffer, the same bits. Every
        // replay is a cache hit, so on the cold workload its time against a
        // first request's is what the cache buys at this size.
        let mut replays = Vec::new();
        for first in connections.iter().flat_map(|c| &c.first).take(REPLAYS) {
            let data = self.buffer(first.input, first.salt);
            let (reply, ms) = timed(|| control.predict(MODEL, &data, &self.extra));
            replays.push((first.input as u32, ms));
            w.attempted += 1;
            let same = reply
                .ok()
                .and_then(|r| prediction(&r, Some(true)))
                .is_some_and(|v| v.to_bits() == first.value.to_bits());
            w.failed += u64::from(!same);
        }
        w.layers.insert(
            "predict.replay_over_op".into(),
            typical_ms(&replays) / typical_ms(&w.ops),
        );
        w.ratio = super::codec::ratio_of("sz3", self.inputs.fields.iter().map(|f| &f.data))?;
        Ok(w)
    }

    fn trace(
        &mut self,
        seconds: f64,
        op_ms: f64,
        rec: &mut Recorder,
        out: &mut Metrics,
    ) -> Result<(), String> {
        let err = |e: pressio_core::Error| e.to_string();
        let fields = &self.inputs.fields;
        let data_bytes = fields[0].data.size_in_bytes();

        // the daemon's own model, read back from its store
        let artifact = ModelStore::open(&self.daemon.model_dir)
            .and_then(|store| store.load(MODEL, None))
            .map_err(err)?;
        let scheme = standard_schemes().build(&artifact.scheme).map_err(err)?;
        let mut predictor = scheme.make_predictor();
        predictor.load_state(&artifact.state).map_err(err)?;
        let compressor = configured("sz3")?;

        // what the daemon answers for the unperturbed inputs, against what
        // sz3 really does to them
        let mut client = self.daemon.client()?;
        let mut answers = Vec::new();
        let (mut errors_pct, mut compress) = (Vec::new(), Vec::new());
        for (input, field) in fields.iter().enumerate() {
            let reply = client
                .predict(MODEL, &field.data, &self.extra)
                .map_err(err)?;
            let answer = prediction(&reply, None).ok_or_else(|| format!("bad reply {reply:?}"))?;
            let mut packed_bytes = 0;
            for _ in 0..2 {
                let (packed, ms) = timed(|| compressor.compress(&field.data));
                packed_bytes = packed.map_err(err)?.len();
                compress.push((input as u32, ms));
            }
            let actual = data_bytes as f64 / packed_bytes as f64;
            errors_pct.push((answer - actual).abs() / actual * 100.0);
            answers.push(answer);
        }
        out.insert("predict.medape_pct".into(), median(&errors_pct));
        // asking the daemon against compressing the same buffers in-process
        out.insert(
            "predict.over_compress".into(),
            typical_ms(&compress) / op_ms,
        );

        // in-process replay of the request path, spans around every layer
        let cache: ShardedLru<f64> = ShardedLru::new("bench", 16, 1024);
        let replay = Replay {
            cold: self.cold,
            extra: &self.extra,
            scheme: scheme.as_ref(),
            predictor: predictor.as_ref(),
            compressor: compressor.as_ref(),
            cache: &cache,
        };
        if !self.cold {
            for (field, &answer) in fields.iter().zip(&answers) {
                let request = Client::predict_request(MODEL, &field.data, &self.extra);
                cache.insert(protocol::data_content_hash(&request).map_err(err)?, answer);
            }
        }
        let started = Instant::now();
        let mut overhead = Overhead::default();
        // every input at least once each way, so the wire-byte count is exact
        let mut wire_bytes = vec![0; fields.len()];
        for n in 0..2 * TRACED_OPS.max(fields.len()) {
            if n >= 2 * fields.len() && started.elapsed().as_secs_f64() > seconds {
                break;
            }
            let traced = n % 2 == 0;
            rec.set_enabled(traced);
            let input = n / 2 % fields.len();
            let (answered, ms) = timed(|| replay.request(rec, input, &fields[input].data));
            let (value, bytes) = answered.map_err(err)?;
            if value.to_bits() != answers[input].to_bits() {
                return Err(format!(
                    "in-process replay of {} gave {value}, the daemon {}",
                    fields[input].name, answers[input]
                ));
            }
            wire_bytes[input] = bytes;
            overhead.push(traced, (input as u32, ms));
        }
        let layers = rec.layers();
        let self_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ms);
        out.insert(
            "hash.content_mb_s".into(),
            super::mb_s(data_bytes, self_ms("hash.content")),
        );
        out.insert(
            "protocol.wire_bytes_per_data_byte".into(),
            wire_bytes.iter().sum::<usize>() as f64 / (data_bytes * fields.len()) as f64,
        );
        out.insert("obs.trace_overhead_share".into(), overhead.share());

        // the socket, which a replay cannot reach: the smallest frame there
        // and back through a connection thread, no pipeline
        let ping_ms = fastest_ms(500, || client.ping());
        out.insert("net.ping_share".into(), ping_ms / op_ms);
        // what the outside view cannot name: scheduling, copies, queue wait
        let named: f64 = layers
            .iter()
            .filter(|(name, _)| **name != "request")
            .map(|(_, l)| l.self_ms)
            .sum();
        out.insert(
            "serve.unattributed_share".into(),
            1.0 - (named + ping_ms) / op_ms,
        );

        // the other schemes' error-dependent stage at this size
        for (name, metric) in [
            ("khan2023", "features.khan_dependent_over_compress"),
            ("jin2022", "features.jin_dependent_over_compress"),
        ] {
            let other = standard_schemes().build(name).map_err(err)?;
            let ms: Vec<Op> = (0..2)
                .flat_map(|_| fields.iter().enumerate())
                .map(|(input, f)| {
                    (
                        input as u32,
                        timed(|| other.error_dependent_features(&f.data, compressor.as_ref())).1,
                    )
                })
                .collect();
            out.insert(metric.into(), typical_ms(&ms) / typical_ms(&compress));
        }
        Ok(())
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        super::peak_rss_mb(self.daemon.pid())
    }

    fn finish(self: Box<Self>) {
        self.daemon.stop();
    }
}

/// What the in-process replay of one request needs.
struct Replay<'a> {
    cold: bool,
    extra: &'a Options,
    scheme: &'a dyn Scheme,
    predictor: &'a dyn Predictor,
    compressor: &'a dyn Compressor,
    cache: &'a ShardedLru<f64>,
}

impl Replay<'_> {
    /// One request through the layers the daemon runs it through, in the
    /// daemon's order: build → frame → unframe → decode the buffer → hash →
    /// cache → (features → infer) → reply frame → reply unframe. Returns the
    /// prediction and the bytes that would have crossed the wire.
    fn request(
        &self,
        rec: &mut Recorder,
        input: usize,
        data: &Data,
    ) -> pressio_core::Result<(f64, usize)> {
        rec.operation("request", input, |rec| {
            let request = rec.span("client.build_request", |_| {
                Client::predict_request(MODEL, data, self.extra)
            });
            let frame = rec.span("protocol.encode", |_| protocol::frame_bytes(&request))?;
            let received = rec
                .span("protocol.decode", |_| {
                    protocol::read_frame(&mut frame.as_slice())
                })?
                .expect("one whole frame");
            let buffer = rec.span("protocol.data_from_request", |_| {
                protocol::data_from_request(&received)
            })?;
            let key = rec.span("hash.content", |_| protocol::data_content_hash(&received))?;
            let cached = rec.span("cache.get", |_| self.cache.get(&key));
            let value = match cached {
                Some(value) if !self.cold => value,
                // cold: the daemon has never seen the buffer, so a hit on a
                // buffer this replay has already seen is not taken
                _ => {
                    let mut features = rec.span("features.agnostic", |_| {
                        self.scheme.error_agnostic_features(&buffer)
                    })?;
                    let dependent = rec.span("features.dependent", |_| {
                        self.scheme
                            .error_dependent_features(&buffer, self.compressor)
                    })?;
                    features.merge_from(&dependent);
                    let value =
                        rec.span("predictor.infer", |_| self.predictor.predict(&features))?;
                    rec.span("cache.insert", |_| self.cache.insert(key, value));
                    value
                }
            };
            let reply = Options::new()
                .with("serve:type", "prediction")
                .with("serve:prediction", value)
                .with("serve:cached", !self.cold)
                .with("serve:scheme", SCHEME)
                .with("serve:model", format!("{MODEL}@1"));
            let reply_frame = rec.span("protocol.encode", |_| protocol::frame_bytes(&reply))?;
            rec.span("protocol.decode", |_| {
                protocol::read_frame(&mut reply_frame.as_slice())
            })?;
            Ok((value, frame.len() + reply_frame.len()))
        })
    }
}
