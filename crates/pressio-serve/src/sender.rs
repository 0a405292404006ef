//! A reconnecting, resuming stream client.
//!
//! [`ResilientStreamSender`] wraps the bare `stream.begin` /
//! `stream.chunk` / `stream.end` calls the way [`crate::Client::
//! call_resilient`] wraps `query`: transient server errors (`overloaded`,
//! `deadline_exceeded`) retry in place with deterministic seeded backoff
//! (the `retry` module), and transport failures (dropped
//! connection, torn frame, daemon crash) reconnect, `stream.resume` the
//! session with its token, and replay from the server's authoritative
//! acked chunk offset — all under one bounded [`RetryPolicy`] budget per
//! operation.
//!
//! The sender mints the session token itself and passes it to
//! `stream.begin`, so even a begin whose response is lost in a crash
//! window stays resumable. Progress tracking is explicit: the caller
//! drives a loop over [`ResilientStreamSender::next_seq`], which rewinds
//! when a resume reveals the server acked less than the client had sent
//! (e.g. a torn journal tail) — re-sent chunks at or below the server's
//! acked offset are answered idempotently from the outcome cache, so the
//! online learner sees every chunk exactly once no matter how many times
//! the stream is replayed.

use crate::client::Client;
use crate::net::Endpoint;
use crate::protocol::{self, code};
use crate::retry::{classify, Outcome, RetryBudget, RetryPolicy};
use pressio_core::error::{Error, Result};
use pressio_core::{Data, Options};

/// Bumped once per retry, whatever was retried.
const RETRY_COUNTER: &str = "serve:sender.retry";

/// The `serve:message` of an error response.
fn message(resp: &Options) -> String {
    let text = resp.get_str_opt("serve:message").ok().flatten();
    text.unwrap_or("").to_string()
}

/// A stream sender that survives disconnects, daemon crashes, and
/// transient overload. See the module docs for the protocol walkthrough.
pub struct ResilientStreamSender {
    endpoint: Endpoint,
    policy: RetryPolicy,
    stream_id: String,
    token: String,
    client: Option<Client>,
    /// Highest chunk seq whose response this sender has delivered to the
    /// caller. `next_seq` is `progress + 1`; a resume may rewind it.
    progress: u64,
    begun: bool,
    /// Whether the transport failed since the last successful call — the
    /// next call must reconnect and resume before sending.
    need_resume: bool,
    resumes: u64,
    replays: u64,
    retries: u64,
}

impl ResilientStreamSender {
    /// A sender for `stream_id` against `endpoint`. The session token is
    /// minted here, client-side, so the session is resumable even when
    /// the `stream.begun` response is lost.
    pub fn new(endpoint: Endpoint, stream_id: impl Into<String>, policy: RetryPolicy) -> Self {
        let stream_id = stream_id.into();
        let token = crate::stream::mint_token(&stream_id);
        ResilientStreamSender {
            endpoint,
            policy,
            stream_id,
            token,
            client: None,
            progress: 0,
            begun: false,
            need_resume: false,
            resumes: 0,
            replays: 0,
            retries: 0,
        }
    }

    /// The stream id this sender drives.
    pub fn stream_id(&self) -> &str {
        &self.stream_id
    }

    /// The session token (client-minted).
    pub fn token(&self) -> &str {
        &self.token
    }

    /// The next chunk seq (1-based) the caller should send. Rewinds after
    /// a resume that found the server behind the client.
    pub fn next_seq(&self) -> u64 {
        self.progress + 1
    }

    /// Successful `stream.resume` round trips performed.
    pub fn resumes(&self) -> u64 {
        self.resumes
    }

    /// Chunk responses answered from the server's idempotent replay cache.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Retries spent across all operations (transient errors, reconnects).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Spend one attempt of `budget` (see [`RetryBudget::spend`]), counting
    /// it towards [`retries`](Self::retries).
    fn spend(&mut self, budget: &mut RetryBudget, key: &str) -> bool {
        let spent = budget.spend(key);
        self.retries += spent as u64;
        spent
    }

    /// Ensure a live connection, resuming the session when the previous
    /// transport died mid-stream. Burns attempts from the shared budget.
    fn ensure_ready(&mut self, budget: &mut RetryBudget) -> Result<()> {
        loop {
            let Some(client) = self.client.as_mut() else {
                match Client::connect(&self.endpoint) {
                    Ok(client) => self.client = Some(client),
                    Err(e) => {
                        if !self.spend(budget, "stream.connect") {
                            return Err(e);
                        }
                    }
                }
                continue;
            };
            if !self.need_resume || !self.begun {
                self.need_resume = false;
                return Ok(());
            }
            let outcome = client.stream_resume(&self.stream_id, &self.token, self.progress);
            let resp = match classify(&outcome) {
                Outcome::Done => outcome?,
                Outcome::Fatal => return outcome.map(drop),
                Outcome::Busy => {
                    if !self.spend(budget, "stream.resume") {
                        return Err(Error::TaskFailed(format!(
                            "stream.resume still rejected after {} attempts: {}",
                            budget.attempt(),
                            outcome.as_ref().map_or_else(|e| e.to_string(), message)
                        )));
                    }
                    continue;
                }
                Outcome::Broken => {
                    self.client = None;
                    if !self.spend(budget, "stream.resume") {
                        return Err(Error::Io(format!(
                            "stream.resume transport failed after {} attempts",
                            budget.attempt()
                        )));
                    }
                    continue;
                }
            };
            let server_acked = resp.get_u64_opt("stream:acked").ok().flatten();
            if resp.get_str_opt("serve:type").ok().flatten() == Some("error") {
                // past-end rejection carrying the authoritative acked
                // offset: our progress outran the durable journal (torn
                // tail after a crash) — rewind to the server's offset and
                // re-resume; the gap chunks will simply be re-sent
                match server_acked.filter(|_| protocol::is_error(&resp, code::BAD_REQUEST)) {
                    Some(acked) if acked < self.progress && self.spend(budget, "stream.resume") => {
                        self.progress = acked;
                        continue;
                    }
                    _ => {
                        return Err(Error::TaskFailed(format!(
                            "stream.resume refused ({}): {}",
                            resp.get_str_opt("serve:code").ok().flatten().unwrap_or("?"),
                            message(&resp)
                        )))
                    }
                }
            }
            // the server may have durably acked less than we saw (torn
            // journal tail): rewind and re-send the gap so the learner
            // still observes every chunk
            self.progress = self.progress.min(server_acked.unwrap_or(0));
            self.resumes += 1;
            pressio_obs::add_counter("serve:sender.resume", 1);
            self.need_resume = false;
            return Ok(());
        }
    }

    /// One resilient request round trip: every reconnect, resume and
    /// resend draws on `budget`. A busy answer that outlasts the budget is
    /// returned as it is; a transport that does is an error.
    fn call_with_recovery(
        &mut self,
        budget: &mut RetryBudget,
        request: &Options,
        op_key: &str,
    ) -> Result<Options> {
        let is_chunk = op_key == "stream.chunk";
        loop {
            self.ensure_ready(budget)?;
            if let Some(seq) = request.get_u64_opt("stream:seq").ok().flatten() {
                if is_chunk && seq > self.progress + 1 {
                    // a resume rewound progress below this chunk (the
                    // durable journal acked less than we had sent): hand
                    // control back — the caller owns the chunk data and
                    // re-sends from next_seq()
                    return Ok(Options::new()
                        .with("serve:type", "stream.rewound")
                        .with("stream:id", self.stream_id.as_str())
                        .with("stream:acked", self.progress));
                }
            }
            let client = self.client.as_mut().expect("ensure_ready connected");
            let outcome = client.call(request);
            match classify(&outcome) {
                Outcome::Fatal => return outcome,
                Outcome::Busy => {
                    if !self.spend(budget, op_key) {
                        return outcome;
                    }
                }
                Outcome::Broken => {
                    self.client = None;
                    self.need_resume = true;
                    if !self.spend(budget, op_key) {
                        return Err(Error::Io(format!(
                            "{op_key} transport failed after {} attempts",
                            budget.attempt()
                        )));
                    }
                }
                Outcome::Done => {
                    // the in-memory session vanished (daemon restart or
                    // reap): resume — the journal rehydrates it — then
                    // retry
                    let lost = is_chunk
                        && self.begun
                        && outcome
                            .as_ref()
                            .is_ok_and(|resp| protocol::is_error(resp, code::NOT_FOUND));
                    if !(lost && self.spend(budget, op_key)) {
                        return outcome;
                    }
                    self.need_resume = true;
                }
            }
        }
    }

    /// Open the session. `extra` carries the scheme/model reference and
    /// compressor knobs, as for [`Client::stream_begin`]; the sender adds
    /// its client-minted token.
    pub fn begin(&mut self, extra: &Options) -> Result<Options> {
        let request = extra
            .clone()
            .with("serve:op", crate::protocol::op::STREAM_BEGIN)
            .with("stream:id", self.stream_id.as_str())
            .with("stream:token", self.token.as_str());
        let mut budget = RetryBudget::new(&self.policy, RETRY_COUNTER);
        let resp = self.call_with_recovery(&mut budget, &request, "stream.begin")?;
        // "already open" after a transport retry means our earlier begin
        // landed but its response was lost: resume instead
        if protocol::is_error(&resp, code::BAD_REQUEST) && message(&resp).contains("already open") {
            self.begun = true;
            self.need_resume = true;
            self.ensure_ready(&mut budget)?;
            return Ok(Options::new()
                .with("serve:type", "stream.begun")
                .with("stream:id", self.stream_id.as_str())
                .with("stream:token", self.token.as_str())
                .with("stream:acked", self.progress)
                .with("stream:resumed", true));
        }
        if resp.get_str_opt("serve:type").ok().flatten() == Some("stream.begun") {
            self.begun = true;
        }
        Ok(resp)
    }

    /// Send chunk `seq` (must equal [`next_seq`](Self::next_seq)). On
    /// success the sender's progress advances and the response is
    /// returned — possibly served from the server's idempotent replay
    /// cache (`stream:replayed = true`) when an earlier send of this seq
    /// was acked but its response lost.
    ///
    /// A response of `serve:type = "stream.rewound"` means a mid-send
    /// resume discovered the server durably acked less than this seq
    /// (torn journal tail after a crash): nothing was sent, progress has
    /// been rewound, and the caller should continue its send loop from
    /// the new [`next_seq`](Self::next_seq).
    pub fn send_chunk(&mut self, seq: u64, chunk: &Data, extra: &Options) -> Result<Options> {
        if seq != self.next_seq() {
            return Err(Error::InvalidValue {
                key: "stream:seq".into(),
                reason: format!("send_chunk({seq}) but next_seq is {}", self.next_seq()),
            });
        }
        let request = Client::stream_chunk_request(&self.stream_id, seq, chunk, extra);
        let mut budget = RetryBudget::new(&self.policy, RETRY_COUNTER);
        let resp = self.call_with_recovery(&mut budget, &request, "stream.chunk")?;
        if resp.get_str_opt("serve:type").ok().flatten() == Some("stream.prediction") {
            self.progress = self.progress.max(seq);
            if resp.get_bool_opt("stream:replayed").ok().flatten() == Some(true) {
                self.replays += 1;
                pressio_obs::add_counter("serve:sender.replay", 1);
            }
        }
        Ok(resp)
    }

    /// Close the session. A `not_found` answer after the sender had to
    /// reconnect is reported as-is — the caller decides whether the
    /// summary mattered.
    pub fn end(&mut self) -> Result<Options> {
        let request = Options::new()
            .with("serve:op", crate::protocol::op::STREAM_END)
            .with("stream:id", self.stream_id.as_str());
        let mut budget = RetryBudget::new(&self.policy, RETRY_COUNTER);
        self.call_with_recovery(&mut budget, &request, "stream.end")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_tracks_progress_and_validates_seq() {
        let sender = ResilientStreamSender::new(
            Endpoint::Tcp("127.0.0.1:1".into()),
            "s",
            RetryPolicy::default(),
        );
        assert_eq!(sender.next_seq(), 1);
        assert_eq!(sender.token().len(), 16);
        assert_eq!(sender.stream_id(), "s");
        assert_eq!(sender.resumes(), 0);
        assert_eq!(sender.replays(), 0);
    }
}
