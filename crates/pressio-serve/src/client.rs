//! Blocking client for the serve protocol, used by `pressio query`, the
//! end-to-end tests, and the serve benchmark.
//!
//! [`Client::call_resilient`] layers fault tolerance over the bare
//! [`Client::call`]: transport errors (dropped connection, torn frame)
//! trigger a reconnect, transient server errors (`overloaded`,
//! `deadline_exceeded` — see [`protocol::is_retryable`]) trigger a resend,
//! both under one [`RetryPolicy`] budget (the `retry` module). Fatal
//! server errors (`bad_request`, `not_found`, `internal`) return
//! immediately: resending those reproduces the same answer.

use crate::net::{Conn, Endpoint};
use crate::protocol::{self, op, read_frame, write_frame};
pub use crate::retry::RetryPolicy;
use crate::retry::{classify, Outcome, RetryBudget};
use pressio_core::error::{Error, Result};
use pressio_core::{Data, Options};

/// Bumped once per retry by [`Client::call_resilient`].
const RETRY_COUNTER: &str = "serve:client.retry";

/// One connection to a `pressio-serve` daemon; requests are strictly
/// serial per client (pipeline parallelism comes from multiple clients).
pub struct Client {
    conn: Conn,
    endpoint: Endpoint,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(endpoint: &Endpoint) -> Result<Client> {
        Ok(Client {
            conn: endpoint.connect()?,
            endpoint: endpoint.clone(),
        })
    }

    /// Send one request frame and wait for its response frame.
    ///
    /// Three client-side failpoints bracket the exchange so chaos tests
    /// can exercise every loss window the retry layer must cover:
    /// `serve:client.request` (the request never leaves the client),
    /// `serve:client.conn` (the connection dies with the response in
    /// flight), and `serve:client.response` (the response arrives torn
    /// and is discarded). All three surface as transport-class
    /// [`Error::Io`], which [`call_resilient`](Self::call_resilient)
    /// answers with reconnect + resend.
    pub fn call(&mut self, request: &Options) -> Result<Options> {
        pressio_faults::inject("serve:client.request")?;
        write_frame(&mut self.conn, request)?;
        if pressio_faults::check("serve:client.conn").is_some() {
            // the server may still process the request; only idempotent
            // ops are safe to resend through this window
            return Err(pressio_faults::injected_error("serve:client.conn"));
        }
        let response = read_frame(&mut self.conn)?
            .ok_or_else(|| Error::Io("server closed the connection before replying".into()))?;
        if pressio_faults::check("serve:client.response").is_some() {
            return Err(pressio_faults::injected_error("serve:client.response"));
        }
        Ok(response)
    }

    /// [`call`](Self::call) with retries: reconnects on transport errors,
    /// resends on retryable server errors, backs off deterministically
    /// between attempts. Returns the last outcome when the budget runs out.
    ///
    /// Only safe for idempotent requests (`predict`, `ping`, `stats`,
    /// `models`, `load`); a retried `train` would persist a second model
    /// version.
    pub fn call_resilient(&mut self, request: &Options, policy: &RetryPolicy) -> Result<Options> {
        let op_key = protocol::op_name(request);
        let mut budget = RetryBudget::new(policy, RETRY_COUNTER);
        let mut reconnect = false;
        loop {
            // a dead connection must be replaced before the next call;
            // failed reconnects burn attempts from the same budget
            let outcome = if reconnect {
                self.endpoint.connect().and_then(|conn| {
                    self.conn = conn;
                    self.call(request)
                })
            } else {
                self.call(request)
            };
            reconnect = match classify(&outcome) {
                Outcome::Done | Outcome::Fatal => return outcome,
                Outcome::Busy => false,
                Outcome::Broken => true,
            };
            if !budget.spend(op_key) {
                return outcome;
            }
        }
    }

    /// `ping` → expects `pong`.
    pub fn ping(&mut self) -> Result<Options> {
        self.call(&Options::new().with("serve:op", op::PING))
    }

    /// `stats` → cache/queue/model counters.
    pub fn stats(&mut self) -> Result<Options> {
        self.call(&Options::new().with("serve:op", op::STATS))
    }

    /// `models` → every persisted `name@version`.
    pub fn models(&mut self) -> Result<Options> {
        self.call(&Options::new().with("serve:op", op::MODELS))
    }

    /// `load` → make `name[@version]` resident.
    pub fn load(&mut self, model_ref: &str) -> Result<Options> {
        self.call(
            &Options::new()
                .with("serve:op", op::LOAD)
                .with("serve:model", model_ref),
        )
    }

    /// `shutdown` → graceful daemon drain; the `bye` response is the last
    /// frame the server sends.
    pub fn shutdown(&mut self) -> Result<Options> {
        self.call(&Options::new().with("serve:op", op::SHUTDOWN))
    }

    /// Build a `predict` request for `data` against a trained model. Extra
    /// compressor knobs (e.g. `pressio:abs`) ride along in `extra`.
    pub fn predict_request(model_ref: &str, data: &Data, extra: &Options) -> Options {
        let mut req = extra
            .clone()
            .with("serve:op", op::PREDICT)
            .with("serve:model", model_ref);
        protocol::data_into_request(&mut req, data);
        req
    }

    /// `predict` against a trained model; returns the full response (use
    /// `serve:prediction` / `serve:cached`).
    pub fn predict(&mut self, model_ref: &str, data: &Data, extra: &Options) -> Result<Options> {
        self.call(&Self::predict_request(model_ref, data, extra))
    }

    /// `stream.begin` → open a streaming session. `extra` carries the
    /// scheme/model reference and compressor knobs captured for the whole
    /// stream (e.g. `serve:model`, `serve:compressor`, `pressio:abs`).
    pub fn stream_begin(&mut self, stream_id: &str, extra: &Options) -> Result<Options> {
        self.call(
            &extra
                .clone()
                .with("serve:op", op::STREAM_BEGIN)
                .with("stream:id", stream_id),
        )
    }

    /// `stream.chunk` → per-chunk prediction for an open stream. Pass the
    /// observed outcome as `stream:actual` in `extra` to feed online
    /// learning on an `--online` daemon.
    pub fn stream_chunk(
        &mut self,
        stream_id: &str,
        chunk: &Data,
        extra: &Options,
    ) -> Result<Options> {
        let mut req = extra
            .clone()
            .with("serve:op", op::STREAM_CHUNK)
            .with("stream:id", stream_id);
        protocol::data_into_request(&mut req, chunk);
        self.call(&req)
    }

    /// `stream.end` → close a streaming session and get its summary.
    pub fn stream_end(&mut self, stream_id: &str) -> Result<Options> {
        self.call(
            &Options::new()
                .with("serve:op", op::STREAM_END)
                .with("stream:id", stream_id),
        )
    }

    /// Build a seq-tagged `stream.chunk` request. Tagging the 1-based
    /// `seq` makes the chunk idempotent: replaying a seq at or below the
    /// server's acked offset answers from the cached outcome without
    /// re-feeding the online learner.
    pub fn stream_chunk_request(
        stream_id: &str,
        seq: u64,
        chunk: &Data,
        extra: &Options,
    ) -> Options {
        let mut req = extra
            .clone()
            .with("serve:op", op::STREAM_CHUNK)
            .with("stream:id", stream_id)
            .with("stream:seq", seq);
        protocol::data_into_request(&mut req, chunk);
        req
    }

    /// Seq-tagged [`stream_chunk`](Self::stream_chunk): idempotent under
    /// replay (see [`stream_chunk_request`](Self::stream_chunk_request)).
    pub fn stream_chunk_at(
        &mut self,
        stream_id: &str,
        seq: u64,
        chunk: &Data,
        extra: &Options,
    ) -> Result<Options> {
        self.call(&Self::stream_chunk_request(stream_id, seq, chunk, extra))
    }

    /// `stream.resume` → rehydrate a session after a disconnect or crash.
    /// `token` is the session token from `stream.begun`; `acked` is the
    /// client's last-acked chunk offset. The `stream.resumed` response
    /// carries the server's authoritative `stream:acked` to replay from.
    pub fn stream_resume(&mut self, stream_id: &str, token: &str, acked: u64) -> Result<Options> {
        self.call(
            &Options::new()
                .with("serve:op", op::STREAM_RESUME)
                .with("stream:id", stream_id)
                .with("stream:token", token)
                .with("stream:acked", acked),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_request_embeds_data_and_model() {
        let data = Data::from_f32(vec![4, 4], (0..16).map(|i| i as f32).collect());
        let req = Client::predict_request("m@3", &data, &Options::new().with("pressio:abs", 1e-4));
        assert_eq!(req.get_str("serve:op").unwrap(), op::PREDICT);
        assert_eq!(req.get_str("serve:model").unwrap(), "m@3");
        assert_eq!(req.get_f64("pressio:abs").unwrap(), 1e-4);
        let back = protocol::data_from_request(&req).unwrap();
        assert_eq!(back.dims(), data.dims());
    }
}
