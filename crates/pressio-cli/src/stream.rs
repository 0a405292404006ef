//! `pressio stream <compress|decompress|info|send>`: PSTF chunked frames
//! (`pressio-stream`) on disk, or a field sent chunk-at-a-time to a live
//! daemon for per-chunk predictions.

use crate::args::{usage_error, Args};
use crate::codec::{check_output_shape, required};
use crate::query::server_error;
use pressio_core::chunking::{slice_outer, OuterChunks};
use pressio_core::error::{Error, Result};
use pressio_core::fs::publish;
use pressio_core::{Data, Options};
use pressio_dataset::io::read_raw;
use pressio_serve::{Endpoint, ResilientStreamSender, RetryPolicy};
use pressio_stream::{StreamEncoder, StreamHeader};
use std::io::Write;
use std::path::PathBuf;

/// The four `pressio stream` actions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamAction {
    /// Chunk a raw field along its outer axis into a PSTF stream file.
    Compress,
    /// Decode a PSTF stream back to a raw file (header-driven shape).
    Decompress,
    /// Print a stream's header and chunk structure without decoding.
    Info,
    /// Stream a raw field chunk-at-a-time to a daemon: open a session,
    /// get a prediction per chunk (reporting the locally-achieved ratio
    /// as `stream:actual` for online learning), and close it.
    Send,
}

/// Chunked streaming frames.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// What to do.
    pub action: StreamAction,
    /// Input file (raw for compress/send, PSTF stream otherwise).
    pub input: PathBuf,
    /// Output file (compress/decompress only).
    pub output: Option<PathBuf>,
    /// Chunk codec id (`sz3` or `zfp`).
    pub codec: String,
    /// Outer (slowest-axis) slices per chunk.
    pub chunk: usize,
    /// Chained mode: delta each chunk against the previous chunk's
    /// trailing timestep.
    pub chained: bool,
    /// Codec options (abs/rel/...).
    pub options: Options,
    /// Daemon endpoint (`send` only).
    pub endpoint: Option<Endpoint>,
    /// Model reference for `send`.
    pub model: Option<String>,
    /// Scheme name for model-less `send`.
    pub scheme: Option<String>,
}

/// One chunk as `send` addresses it: outer range, data, locally achieved
/// ratio.
type SentChunk = (usize, usize, Data, f64);

impl Stream {
    pub(crate) fn from_args(a: Args) -> Result<Stream> {
        let action = match a.action.as_deref() {
            Some("compress") => StreamAction::Compress,
            Some("decompress") => StreamAction::Decompress,
            Some("info") => StreamAction::Info,
            Some("send") => StreamAction::Send,
            other => {
                return Err(usage_error(&format!(
                    "stream needs an action <compress|decompress|info|send>, got {:?}",
                    other.unwrap_or("nothing")
                )))
            }
        };
        if matches!(action, StreamAction::Compress | StreamAction::Decompress) && a.output.is_none()
        {
            return Err(usage_error("stream compress/decompress require --output"));
        }
        if action == StreamAction::Send && a.endpoint.is_none() {
            return Err(usage_error("stream send requires --socket or --tcp"));
        }
        if a.chunk == 0 {
            return Err(usage_error("--chunk must be at least 1"));
        }
        Ok(Stream {
            action,
            input: required("stream", "input", a.input)?,
            output: a.output,
            codec: a.compressor,
            chunk: a.chunk,
            chained: a.chained,
            options: a.options,
            endpoint: a.endpoint,
            model: a.model,
            scheme: a.scheme,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        match self.action {
            StreamAction::Compress => self.compress(out),
            StreamAction::Decompress => self.decompress(out),
            StreamAction::Info => self.info(out),
            StreamAction::Send => self.send(out),
        }
    }

    fn output(&self) -> &PathBuf {
        self.output.as_ref().expect("parser enforces --output")
    }

    /// Frame header for streaming `data` along its outer (slowest) axis.
    fn header(&self, data: &Data) -> StreamHeader {
        let dims = data.dims();
        StreamHeader {
            codec: self.codec.clone(),
            dtype: data.dtype(),
            inner_dims: dims[..dims.len().saturating_sub(1)].to_vec(),
            chunk_outer: self.chunk,
            chained: self.chained,
            codec_options: self.options.clone(),
        }
    }

    fn compress(&self, out: &mut impl Write) -> Result<()> {
        let data = read_raw(&self.input)?;
        let bytes = pressio_stream::compress_stream(&data, self.header(&data))?;
        publish(self.output(), |w| Ok(w.write_all(&bytes)?))?;
        let outer = data.dims().last().copied().unwrap_or(1);
        writeln!(
            out,
            "{} -> {}: {} chunks ({} outer slices, {}), {} -> {} bytes (ratio {:.2})",
            self.input.display(),
            self.output().display(),
            outer.div_ceil(self.chunk),
            outer,
            if self.chained {
                "chained"
            } else {
                "independent"
            },
            data.size_in_bytes(),
            bytes.len(),
            data.size_in_bytes() as f64 / bytes.len().max(1) as f64
        )?;
        Ok(())
    }

    fn decompress(&self, out: &mut impl Write) -> Result<()> {
        let bytes = std::fs::read(&self.input)?;
        let data = pressio_stream::decompress_stream(&bytes)?;
        let output = self.output();
        check_output_shape(output, "stream:dims", "stream", data.dtype(), data.dims())?;
        publish(output, |w| Ok(w.write_all(&data.to_le_bytes())?))?;
        writeln!(
            out,
            "{} -> {} ({} values, dims {:?})",
            self.input.display(),
            output.display(),
            data.num_elements(),
            data.dims()
        )?;
        Ok(())
    }

    fn info(&self, out: &mut impl Write) -> Result<()> {
        let file = std::fs::File::open(&self.input)?;
        let summary = pressio_stream::scan_info(std::io::BufReader::new(file))?;
        let h = &summary.header;
        writeln!(
            out,
            "codec {} dtype {} inner dims {:?} chunk_outer {} mode {}",
            h.codec,
            h.dtype.name(),
            h.inner_dims,
            h.chunk_outer,
            if h.chained { "chained" } else { "independent" }
        )?;
        writeln!(
            out,
            "{} chunks, {} outer slices, {} raw -> {} compressed bytes (ratio {:.2})",
            summary.end.total_chunks,
            summary.end.total_outer,
            summary.raw_bytes,
            summary.compressed_bytes,
            summary.raw_bytes as f64 / summary.compressed_bytes.max(1) as f64
        )?;
        for (i, record) in summary.chunks.iter().enumerate() {
            writeln!(
                out,
                "chunk {i}: {} outer, {} -> {} bytes, checksum {:016x}",
                record.outer, record.raw_len, record.comp_len, record.checksum
            )?;
        }
        Ok(())
    }

    /// Every (chunk, achieved ratio) up front — the resilient sender may
    /// rewind and re-send any seq after a crash, so each chunk must be
    /// addressable by seq, not consumed from a forward-only iterator. The
    /// local encoder writes to a sink: per-chunk achieved ratios for
    /// `stream:actual` without buffering the compressed stream.
    fn encode_chunks(&self, data: &Data) -> Result<Vec<SentChunk>> {
        let outer = *data.dims().last().ok_or_else(|| Error::InvalidValue {
            key: "stream:dims".into(),
            reason: "streaming needs at least one dimension".into(),
        })?;
        let mut encoder = StreamEncoder::new(std::io::sink(), self.header(data))?;
        let mut chunks = Vec::new();
        for (start, count) in OuterChunks::new(outer, self.chunk)? {
            let chunk_data = slice_outer(data, start, count)?;
            let record = encoder.write_chunk(&chunk_data)?;
            let actual = record.raw_len as f64 / record.comp_len.max(1) as f64;
            chunks.push((start, count, chunk_data, actual));
        }
        Ok(chunks)
    }

    fn send(&self, out: &mut impl Write) -> Result<()> {
        let endpoint = self.endpoint.clone().expect("parser enforces endpoint");
        let data = read_raw(&self.input)?;
        let chunks = self.encode_chunks(&data)?;
        // the stream id is the field's content hash
        let stream_id = format!("{:016x}", pressio_core::hash::fnv1a64(&data.to_le_bytes()));
        let mut extra = self
            .options
            .clone()
            .with("serve:compressor", self.codec.as_str());
        if let Some(m) = &self.model {
            extra.set("serve:model", m.as_str());
        }
        if let Some(s) = &self.scheme {
            extra.set("serve:scheme", s.as_str());
        }
        // a daemon crash + respawn can take far longer than the default
        // client retry budget; give the interactive sender room to ride
        // it out
        let policy = RetryPolicy {
            max_attempts: 12,
            base_ms: 25,
            max_ms: 500,
        };
        let mut sender = ResilientStreamSender::new(endpoint, stream_id.clone(), policy);
        let begun = sender.begin(&extra)?;
        server_error(&begun)?;
        writeln!(
            out,
            "stream {stream_id}: {} chunks of {} outer slices, online={}",
            chunks.len(),
            self.chunk,
            begun.get_bool_opt("stream:online")?.unwrap_or(false)
        )?;
        while sender.next_seq() <= chunks.len() as u64 {
            let seq = sender.next_seq();
            let (start, count, chunk_data, actual) = &chunks[seq as usize - 1];
            let observed = Options::new().with("stream:actual", *actual);
            let resp = sender.send_chunk(seq, chunk_data, &observed)?;
            if resp.get_str_opt("serve:type")? == Some("stream.rewound") {
                // a crash tore the journal tail: the server acked
                // less than we sent, so replay from its offset
                writeln!(out, "rewound to chunk {}", sender.next_seq())?;
                continue;
            }
            server_error(&resp)?;
            write!(
                out,
                "chunk {} (outer {start}..{}): predicted {:.3}, actual {actual:.3}",
                resp.get_u64("stream:seq")?,
                start + count,
                resp.get_f64("serve:prediction")?,
            )?;
            if let Some(tag) = resp.get_str_opt("serve:model")? {
                write!(out, ", model {tag}")?;
            }
            if let Some(err) = resp.get_f64_opt("stream:online.error")? {
                write!(out, ", rolling error {err:.3}")?;
            }
            if resp.get_bool_opt("stream:replayed")?.unwrap_or(false) {
                write!(out, " (replayed)")?;
            }
            writeln!(out)?;
        }
        let ended = sender.end()?;
        server_error(&ended)?;
        report_end(out, &ended, &sender)
    }
}

/// The closing lines of `send`: the session's summary, and what the
/// sender recovered from on the way.
fn report_end(out: &mut impl Write, ended: &Options, sender: &ResilientStreamSender) -> Result<()> {
    write!(out, "ended: {} chunks", ended.get_u64("stream:chunks")?)?;
    if let Some(observed) = ended.get_u64_opt("stream:observed")? {
        write!(out, ", observed {observed}")?;
    }
    if let Some(refits) = ended.get_u64_opt("stream:online.refits")? {
        write!(out, ", {refits} online refits")?;
    }
    if let Some(err) = ended.get_f64_opt("stream:online.error")? {
        write!(out, ", final rolling error {err:.3}")?;
    }
    writeln!(out)?;
    if sender.resumes() > 0 || sender.replays() > 0 {
        writeln!(
            out,
            "recovered: resumes={} replays={} retries={}",
            sender.resumes(),
            sender.replays(),
            sender.retries()
        )?;
    }
    Ok(())
}
