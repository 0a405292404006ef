//! Wire protocol: versioned frames carrying [`Options`], byte buffers out
//! of band.
//!
//! Every message — request or response — is one [`Options`] structure.
//! A frame is
//!
//! ```text
//! "PSW2" | u32 BE header_len | u64 BE payload_len | header JSON | payload
//! ```
//!
//! where the header is `{"options": <Options JSON without its Bytes
//! entries>, "blobs": [[key, len], ...]}` (core's one JSON form of
//! [`Options`], `pressio_core::options::json`, plus the blob table) and the
//! payload is those byte values concatenated in table order — a buffer
//! costs one wire byte per data byte and is read straight into the
//! `Vec<u8>` that becomes its [`Value::Bytes`]. Reusing
//! `Options` as the envelope keeps the protocol self-describing the same
//! way every other LibPressio object is: no schema negotiation, unknown
//! keys are ignored. A peer whose first word
//! is not the magic (the v1 `[u32 len][JSON]` frame can never be: its top
//! byte is at most 0x04) is answered `bad_request` "unsupported wire
//! version" and disconnected.
//!
//! Requests carry a `serve:op` key naming the operation; responses carry a
//! `serve:type` key (`prediction`, `trained`, `stats`, `pong`, `bye`,
//! `slept`, `models`, or `error`). Errors additionally carry `serve:code`
//! — notably `overloaded` (bounded queue full; retry later) and
//! `deadline_exceeded` (the request waited past its deadline).

use pressio_core::error::{Error, Result};
use pressio_core::options::json::{self, Parsed, Reader};
use pressio_core::{Options, Value};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Largest accepted frame (header + payload, 128 MiB): bounds
/// per-connection memory so a lying length cannot trigger an unbounded
/// allocation, and admits the paper's 500×500×100 f32 field (100 MB).
pub const MAX_FRAME: usize = 128 << 20;

/// First word of every frame: Pressio Serve Wire, version 2.
pub const MAGIC: [u8; 4] = *b"PSW2";

/// Request operations (`serve:op` values).
pub mod op {
    /// Liveness check; responds `pong`.
    pub const PING: &str = "ping";
    /// Train a predictor on synthetic data, persist it, and hot-load it.
    pub const TRAIN: &str = "train";
    /// Load a persisted model into the hot catalog without predicting.
    pub const LOAD: &str = "load";
    /// Predict compression performance for an inline data buffer.
    pub const PREDICT: &str = "predict";
    /// Cache/queue/model statistics.
    pub const STATS: &str = "stats";
    /// List persisted models and versions.
    pub const MODELS: &str = "models";
    /// Graceful shutdown: drain in-flight requests, then exit.
    pub const SHUTDOWN: &str = "shutdown";
    /// Occupy a pipeline worker for `serve:ms` milliseconds (testing and
    /// backpressure demonstrations).
    pub const SLEEP: &str = "sleep";
    /// Describe the shard topology (multi-shard deployments): shard
    /// endpoints plus a generation counter that bumps on every restart.
    pub const TOPOLOGY: &str = "topology";
    /// Re-resolve models against the store and invalidate anything cached
    /// under a superseded version. Broadcast by the supervisor after a
    /// train so every shard picks the new version up immediately.
    pub const RELOAD: &str = "reload";
    /// Open a streaming prediction session (`stream:id`, scheme/model,
    /// compressor knobs). Chunks then flow through [`STREAM_CHUNK`].
    pub const STREAM_BEGIN: &str = "stream.begin";
    /// Predict for one chunk of an open stream; may carry the observed
    /// outcome (`stream:actual`) to drive online model refinement.
    pub const STREAM_CHUNK: &str = "stream.chunk";
    /// Close a streaming session and report its summary.
    pub const STREAM_END: &str = "stream.end";
    /// Rehydrate a streaming session after a disconnect or crash:
    /// `stream:id` + `stream:token` (echoed from `stream.begun`) +
    /// `stream:acked` (the client's last-acked chunk offset). The server
    /// answers `stream.resumed` with its authoritative acked offset; the
    /// client replays chunks from there, and replays of already-acked
    /// chunks are idempotent (cached prediction, no duplicate learner
    /// observation).
    pub const STREAM_RESUME: &str = "stream.resume";
}

/// Error codes (`serve:code` values on `serve:type = "error"` responses).
pub mod code {
    /// The bounded request queue is full; the request was rejected
    /// immediately instead of queueing unboundedly.
    pub const OVERLOADED: &str = "overloaded";
    /// The request sat past its deadline before a worker reached it.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The request was missing or had malformed fields.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The referenced model/scheme does not exist.
    pub const NOT_FOUND: &str = "not_found";
    /// The server failed internally while processing.
    pub const INTERNAL: &str = "internal";
}

/// Whether an error code marks a *transient* condition a client should
/// retry (with backoff) versus a fatal one where retrying is useless:
/// `overloaded` and `deadline_exceeded` pass — the server was healthy but
/// busy; `bad_request`/`not_found`/`internal` fail — resending the same
/// request reproduces the same answer.
pub fn is_retryable_code(error_code: &str) -> bool {
    matches!(error_code, code::OVERLOADED | code::DEADLINE_EXCEEDED)
}

/// Whether a response is an error a client should retry.
pub fn is_retryable(resp: &Options) -> bool {
    resp.get_str_opt("serve:type").ok().flatten() == Some("error")
        && resp
            .get_str_opt("serve:code")
            .ok()
            .flatten()
            .is_some_and(is_retryable_code)
}

/// The operation a request names (`serve:op`; "" when absent).
pub fn op_name(request: &Options) -> &str {
    request.get_str_opt("serve:op").ok().flatten().unwrap_or("")
}

/// Serialize one frame without writing it. A non-finite float has no
/// JSON form: it is refused as an [`Error::InvalidValue`] naming its key.
pub fn frame_bytes(msg: &Options) -> Result<Vec<u8>> {
    let blobs = || {
        msg.iter()
            .filter_map(|(key, value)| Some((key, value.as_bytes()?)))
    };
    let payload_len: usize = blobs().map(|(_, blob)| blob.len()).sum();
    let too_big = |body_len: usize| {
        Error::Serialization(format!(
            "frame of {body_len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        ))
    };
    if payload_len > MAX_FRAME {
        return Err(too_big(payload_len));
    }
    // one contiguous buffer: separate prefix and payload writes would
    // interact with Nagle + delayed ACK on TCP, stalling every frame ~40 ms.
    // The lengths are patched in once the header is written; 256 bytes hold
    // most headers, so the payload rarely moves the buffer.
    let mut frame = Vec::with_capacity(16 + 256 + payload_len);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&[0; 12]);
    frame.extend_from_slice(br#"{"options":"#);
    json::write(msg, &mut frame, false)?;
    frame.extend_from_slice(br#","blobs":["#);
    for (i, (key, blob)) in blobs().enumerate() {
        frame.extend_from_slice(if i > 0 { b",[" } else { b"[" });
        json::write_str(&mut frame, key);
        write!(frame, ",{}]", blob.len())?;
    }
    frame.extend_from_slice(b"]}");
    let header_len = frame.len() - 16;
    let body_len = header_len + payload_len;
    if body_len > MAX_FRAME {
        return Err(too_big(body_len));
    }
    frame[4..8].copy_from_slice(&(header_len as u32).to_be_bytes());
    frame[8..16].copy_from_slice(&(payload_len as u64).to_be_bytes());
    frame.reserve_exact(payload_len);
    for (_, blob) in blobs() {
        frame.extend_from_slice(blob);
    }
    Ok(frame)
}

/// The frame of a server's `response`, or — when it carries a value no
/// frame can (a non-finite float) — of an `internal` error saying which, so
/// the connection survives the answer it could not send.
pub fn response_frame(response: &Options) -> Vec<u8> {
    frame_bytes(response).unwrap_or_else(|e| {
        let error = error_response(code::INTERNAL, format!("unencodable response: {e}"));
        frame_bytes(&error).expect("an error response is always encodable")
    })
}

/// Write one frame in a single `write_all`.
pub fn write_frame(w: &mut impl Write, msg: &Options) -> Result<()> {
    w.write_all(&frame_bytes(msg)?)?;
    w.flush()?;
    Ok(())
}

/// Read one frame under the protocol-wide [`MAX_FRAME`]. Returns
/// `Ok(None)` on a clean EOF at a frame boundary (the peer closed the
/// connection); a mid-frame EOF is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Options>> {
    read_frame_polled(r, MAX_FRAME, None)
}

/// Fill `buf` from `r`. `Ok(false)` is a clean stop before the first byte
/// of a frame (`idle`): the peer closed, or a read timed out while `stop`
/// was raised. With a `stop` flag read timeouts are polls, not errors — a
/// frame already in flight keeps reading through them.
fn fill(r: &mut impl Read, buf: &mut [u8], stop: Option<&AtomicBool>, idle: bool) -> Result<bool> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if idle && got == 0 => return Ok(false),
            Ok(0) => return Err(Error::Io("connection closed mid-frame".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let Some(stop) = stop else {
                    return Err(e.into());
                };
                if idle && got == 0 && stop.load(Ordering::Acquire) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// The one frame reader. `max_frame` (clamped to [`MAX_FRAME`]) bounds
/// `header_len + payload_len`, checked *before* anything is allocated, so
/// a hostile prefix can never force an allocation larger than the
/// deployment's configured bound (`--max-frame-mb`). With `stop`, the
/// reader tolerates the socket's read timeout so an idle connection can
/// notice shutdown: it returns `Ok(None)` when the flag is up between
/// frames. Every protocol violation is a [`Error::CorruptStream`];
/// transport failures are [`Error::Io`].
pub fn read_frame_polled(
    r: &mut impl Read,
    max_frame: usize,
    stop: Option<&AtomicBool>,
) -> Result<Option<Options>> {
    let max_frame = max_frame.min(MAX_FRAME);
    // the magic alone first: a v1 peer is diagnosed from its first word,
    // however short the rest of what it sent
    let mut magic = [0u8; 4];
    if !fill(r, &mut magic, stop, true)? {
        return Ok(None);
    }
    if magic != MAGIC {
        return Err(Error::CorruptStream(format!(
            "unsupported wire version: frame starts {magic:02x?}, expected \"PSW2\""
        )));
    }
    let mut lens = [0u8; 12];
    fill(r, &mut lens, stop, false)?;
    let header_len = u32::from_be_bytes(lens[..4].try_into().expect("4 bytes")) as u64;
    let payload_len = u64::from_be_bytes(lens[4..].try_into().expect("8 bytes"));
    if header_len
        .checked_add(payload_len)
        .is_none_or(|total| total > max_frame as u64)
    {
        return Err(Error::CorruptStream(format!(
            "frame of {header_len} + {payload_len} bytes exceeds the frame cap ({max_frame})"
        )));
    }
    let mut header = vec![0u8; header_len as usize];
    fill(r, &mut header, stop, false)?;
    let (mut options, blobs) =
        read_header(&header).map_err(|e| Error::CorruptStream(format!("frame header: {e}")))?;
    if options.iter().any(|(_, v)| matches!(v, Value::Bytes(_))) {
        return Err(Error::CorruptStream(
            "frame header carries a byte value inline; bytes travel in the payload".into(),
        ));
    }
    let declared = blobs
        .iter()
        .try_fold(0u64, |sum, (_, len)| sum.checked_add(*len));
    if declared != Some(payload_len) {
        return Err(Error::CorruptStream(format!(
            "blob table does not sum to the payload length ({payload_len})"
        )));
    }
    for (key, len) in blobs {
        if options.contains(&key) {
            return Err(Error::CorruptStream(format!(
                "blob table names '{key}' twice or over a header entry"
            )));
        }
        // each value is read in place: these bytes are the Value::Bytes
        let mut bytes = vec![0u8; len as usize];
        fill(r, &mut bytes, stop, false)?;
        options.set(key, bytes);
    }
    Ok(Some(options))
}

/// Parse a header: the message without its byte values (inline `Bytes`
/// entries included, for the caller to refuse), and the blob table. The
/// members follow [`json`]'s rules.
fn read_header(header: &[u8]) -> std::result::Result<(Options, Vec<(String, u64)>), String> {
    let text = std::str::from_utf8(header).map_err(|e| format!("invalid UTF-8: {e}"))?;
    let mut p = Reader::new(text);
    let (mut options, mut blobs) = (None, None);
    let parsed = p
        .object(0, |p, key, depth| {
            match &*key {
                "options" => options = Some(p.field(depth, Reader::options)?),
                "blobs" => blobs = Some(p.field(depth, blob_table)?),
                _ => p.skip(depth)?,
            }
            Ok(())
        })
        .and_then(|()| p.end("trailing characters after the header"))
        .and_then(|()| {
            let options = options.ok_or_else(|| p.err("missing field `options`"))??;
            let blobs = blobs.ok_or_else(|| p.err("missing field `blobs`"))??;
            Ok((options, blobs))
        });
    parsed.map_err(|fault| fault.to_string())
}

/// `[[KEY, LENGTH], ...]`.
fn blob_table(p: &mut Reader, depth: usize) -> Parsed<Vec<(String, u64)>> {
    p.vec(depth, |p, depth| {
        let (mut key, mut len) = (None, None);
        p.array(depth, |p, depth| {
            if key.is_none() {
                key = Some(p.string(depth)?);
            } else if len.is_none() {
                len = Some(p.u64(depth)?);
            } else {
                return Err(p.err("a blob entry is [key, length]"));
            }
            Ok(())
        })?;
        key.zip(len)
            .ok_or_else(|| p.err("a blob entry is [key, length]"))
    })
}

/// A server connection's next request, or `None` when the connection is
/// over: the peer closed, `stop` went up while it was idle, the transport
/// failed, or the peer violated the protocol (wrong wire version, a
/// length over the cap, a malformed header) — which it is told, as a
/// `bad_request`, before the caller hangs up.
pub fn next_request(
    conn: &mut (impl Read + Write),
    max_frame: usize,
    stop: &AtomicBool,
) -> Option<Options> {
    match read_frame_polled(conn, max_frame, Some(stop)) {
        Ok(request) => request,
        Err(Error::CorruptStream(reason)) => {
            let _ = write_frame(conn, &error_response(code::BAD_REQUEST, reason));
            None
        }
        Err(_) => None,
    }
}

/// Build an error response.
pub fn error_response(error_code: &str, message: impl Into<String>) -> Options {
    Options::new()
        .with("serve:type", "error")
        .with("serve:code", error_code)
        .with("serve:message", message.into())
}

/// Whether a response is an error with the given code.
pub fn is_error(resp: &Options, error_code: &str) -> bool {
    resp.get_str_opt("serve:type").ok().flatten() == Some("error")
        && resp.get_str_opt("serve:code").ok().flatten() == Some(error_code)
}

/// Embed a data buffer into a request (`data:bytes`/`data:dims`/
/// `data:dtype`), the inverse of [`data_from_request`].
pub fn data_into_request(req: &mut Options, data: &pressio_core::Data) {
    req.set("data:bytes", data.to_le_bytes());
    req.set(
        "data:dims",
        data.dims().iter().map(|&d| d as u64).collect::<Vec<u64>>(),
    );
    req.set("data:dtype", data.dtype().name());
}

/// Stable content hash of the data buffer embedded in a request (dtype +
/// dims + raw bytes), as hex. This is the routing AND cache key root:
/// identical buffers sent by different clients share cache entries, and the
/// supervisor/sharded client route on the same hash the shard caches are
/// keyed by, so every buffer has exactly one home shard whose LRU stays
/// hot for it.
pub fn data_content_hash(req: &Options) -> Result<String> {
    Ok(pressio_core::hash::to_hex(&data_content_digest(req)?))
}

/// The raw digest [`data_content_hash`] renders: what cache keys are built
/// from.
pub fn data_content_digest(req: &Options) -> Result<[u8; 32]> {
    let bytes = req.get_bytes("data:bytes")?;
    let dims = req.get_u64_slice("data:dims")?;
    let dtype = req.get_str("data:dtype")?;
    let mut h = pressio_core::hash::Sha256::new();
    h.update(dtype.as_bytes());
    for d in dims {
        h.update(&d.to_le_bytes());
    }
    h.update(bytes);
    Ok(h.finalize())
}

/// The embedded buffer's dtype, dims and payload, checked to agree (a
/// known dtype; dims × element size = payload length) — everything that
/// can be wrong with it, found without copying it.
fn data_parts(req: &Options) -> Result<(pressio_core::Dtype, Vec<usize>, &[u8])> {
    let bytes = req.get_bytes("data:bytes")?;
    let dims: Vec<usize> = req
        .get_u64_slice("data:dims")?
        .iter()
        .map(|&d| d as usize)
        .collect();
    let dtype = pressio_core::Dtype::parse(req.get_str("data:dtype")?)?;
    pressio_core::Data::check_le_len(dtype, &dims, bytes.len())?;
    Ok((dtype, dims, bytes))
}

/// Fail exactly when [`data_from_request`] would, at no cost in the
/// payload's size: what a handler that may answer from the content hash
/// alone runs first, so a cached answer never stands in for `bad request`.
pub(crate) fn check_data(req: &Options) -> Result<()> {
    data_parts(req).map(drop)
}

/// Reconstruct the data buffer embedded in a request.
pub fn data_from_request(req: &Options) -> Result<pressio_core::Data> {
    let (dtype, dims, bytes) = data_parts(req)?;
    pressio_core::Data::from_le_bytes(dtype, dims, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Data;

    #[test]
    fn frames_round_trip() {
        let msg = Options::new()
            .with("serve:op", op::PREDICT)
            .with("pressio:abs", 1e-4)
            .with("data:bytes", vec![0u8, 1, 255]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, msg);
        // the next read sees a clean EOF
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn data_embedding_round_trips() {
        let data = Data::from_f32(vec![4, 3], (0..12).map(|i| i as f32 * 0.5).collect());
        let mut req = Options::new().with("serve:op", op::PREDICT);
        data_into_request(&mut req, &data);
        let back = data_from_request(&req).unwrap();
        assert_eq!(back.dims(), data.dims());
        assert_eq!(back.dtype(), data.dtype());
        assert_eq!(back.to_f64_vec(), data.to_f64_vec());
    }

    #[test]
    fn error_helpers_agree() {
        let resp = error_response(code::OVERLOADED, "queue full");
        assert!(is_error(&resp, code::OVERLOADED));
        assert!(!is_error(&resp, code::NOT_FOUND));
        assert!(!is_error(&Options::new(), code::OVERLOADED));
    }

    #[test]
    fn retryable_classification_separates_transient_from_fatal() {
        for c in [code::OVERLOADED, code::DEADLINE_EXCEEDED] {
            assert!(is_retryable_code(c), "{c}");
            assert!(is_retryable(&error_response(c, "busy")));
        }
        for c in [code::BAD_REQUEST, code::NOT_FOUND, code::INTERNAL] {
            assert!(!is_retryable_code(c), "{c}");
            assert!(!is_retryable(&error_response(c, "broken")));
        }
        // non-error responses are never "retryable"
        assert!(!is_retryable(&Options::new().with("serve:type", "pong")));
    }
}
