//! `stream_sz3_256k`: the same SZ layer used chunk by chunk. Two stacks of
//! 256 KiB timesteps go through `StreamEncoder::write_chunk` (one timestep
//! per chunk, chained on the previous one) and back through
//! `StreamDecoder::next_chunk`.

use super::{mb_s, pass_ms, timed, Ctx, Metrics, Window, Workload, ABS};
use crate::inputs::{self, Field, Rng};
use crate::trace::{Overhead, Recorder};
use pressio_core::chunking::slice_outer;
use pressio_core::hash::Fnv1a64;
use pressio_core::{Data, Dtype, Options};
use pressio_stream::{StreamDecoder, StreamEncoder, StreamHeader};
use std::time::Instant;

/// 64×64×16 f32 = 256 KiB per timestep.
const INNER: [usize; 3] = [64, 64, 16];
/// 32 timesteps = 8 MiB per stack.
const TIMESTEPS: usize = 32;
/// One dense stack, one sparse.
const FIELDS: [&str; 2] = ["P", "PRECIP"];
/// The small-chunk case of `stream.ratio_8k`.
const SMALL_INNER: [usize; 3] = [16, 16, 8];

/// A stack cut into its timesteps ahead of the clock.
struct Stack {
    whole: Field,
    chunks: Vec<Data>,
}

impl Stack {
    fn new(whole: Field) -> Result<Stack, String> {
        let outer = *whole.data.dims().last().expect("a stack has dims");
        let chunks = (0..outer)
            .map(|t| slice_outer(&whole.data, t, 1).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Stack { whole, chunks })
    }
}

fn header(inner: [usize; 3]) -> StreamHeader {
    StreamHeader {
        codec: "sz3".into(),
        dtype: Dtype::F32,
        inner_dims: inner.to_vec(),
        chunk_outer: 1,
        chained: true,
        codec_options: Options::new().with("pressio:abs", ABS),
    }
}

/// What one encode → decode of a stack cost and whether it came back right.
struct Pass {
    /// Time in `write_chunk` + `finish`, and in `next_chunk`, summed.
    write_ms: f64,
    read_ms: f64,
    framed_bytes: usize,
    payload_bytes: usize,
    /// `max|x − x̂|` over the stack.
    worst_error: f64,
    ok: bool,
}

/// The chained-decode check. A chained chunk is rebuilt as `residual +
/// previous` in f32, which rounds once more after the codec has held `abs`
/// on the residual, so what the format can promise (and what this check
/// holds it to) is `abs` plus one unit in the last place of `x`. Whole-buffer
/// decodes are held to `abs` itself; `stream.worst_error_over_abs` says how
/// far a stream is from that. Returns the worst error, `None` on a miss.
fn within_chained_bound(original: &Data, decoded: &Data) -> Option<f64> {
    if decoded.dtype() != original.dtype() || decoded.dims() != original.dims() {
        return None;
    }
    let mut worst = 0.0f64;
    for (x, y) in original.as_f32().ok()?.iter().zip(decoded.as_f32().ok()?) {
        let error = (x - y).abs() as f64;
        let ulp = (f32::from_bits(x.abs().to_bits() + 1) - x.abs()) as f64;
        if error.is_nan() || error > ABS + ulp {
            return None;
        }
        worst = worst.max(error);
    }
    Some(worst)
}

/// Stream `stack` out and back in. Each decoded chunk is checked for dtype,
/// dims and the bound; the decoder must reach its verified end marker, and
/// that marker's running checksum must equal the harness's own FNV-1a over
/// every decoded byte. `rec` gets a span per chunk when it is on.
fn stream_pass(stack: &Stack, inner: [usize; 3], rec: &mut Recorder) -> Pass {
    let mut pass = Pass {
        write_ms: 0.0,
        read_ms: 0.0,
        framed_bytes: 0,
        payload_bytes: 0,
        worst_error: 0.0,
        ok: false,
    };
    let Ok(mut encoder) = StreamEncoder::new(Vec::new(), header(inner)) else {
        return pass;
    };
    for chunk in &stack.chunks {
        let (record, ms) = timed(|| rec.span("stream.write_chunk", |_| encoder.write_chunk(chunk)));
        let Ok(record) = record else { return pass };
        pass.write_ms += ms;
        pass.payload_bytes += record.comp_len as usize;
    }
    let (framed, ms) = timed(|| rec.span("stream.finish", |_| encoder.finish()));
    let Ok(framed) = framed else { return pass };
    pass.write_ms += ms;
    pass.framed_bytes = framed.len();

    let Ok(mut decoder) = StreamDecoder::new(std::io::Cursor::new(&framed)) else {
        return pass;
    };
    let mut running = Fnv1a64::new();
    let mut within = true;
    let mut seen = 0;
    loop {
        let (chunk, ms) = timed(|| rec.span("stream.next_chunk", |_| decoder.next_chunk()));
        match chunk {
            Ok(Some(decoded)) => {
                pass.read_ms += ms;
                // off the clock
                match stack
                    .chunks
                    .get(seen)
                    .and_then(|c| within_chained_bound(c, &decoded))
                {
                    Some(worst) => pass.worst_error = pass.worst_error.max(worst),
                    None => within = false,
                }
                running.update(&decoded.to_le_bytes());
                seen += 1;
            }
            Ok(None) => break,
            Err(_) => return pass,
        }
    }
    let marker = u64::from_le_bytes(framed[framed.len() - 8..].try_into().expect("8 bytes"));
    pass.ok =
        within && seen == stack.chunks.len() && decoder.finished() && marker == running.finish();
    pass
}

pub struct Stream {
    stacks: Vec<Stack>,
    generate_ms_per_mib: f64,
    rng: Rng,
}

impl Stream {
    pub fn setup(ctx: &Ctx) -> Result<Stream, String> {
        let mut rng = Rng::new(ctx.seed);
        let source = inputs::hurricane(&mut rng, INNER, TIMESTEPS);
        let mut names = FIELDS;
        rng.shuffle(&mut names);
        let (stacks, ms) = timed(|| {
            names
                .iter()
                .map(|name| Stack::new(inputs::stack(&source, name, TIMESTEPS)))
                .collect::<Result<Vec<_>, _>>()
        });
        let stacks = stacks?;
        let mib = stacks
            .iter()
            .map(|s| s.whole.data.size_in_bytes())
            .sum::<usize>() as f64
            / (1 << 20) as f64;
        Ok(Stream {
            stacks,
            generate_ms_per_mib: ms / mib,
            rng,
        })
    }

    fn pass_bytes(&self) -> usize {
        self.stacks
            .iter()
            .map(|s| s.whole.data.size_in_bytes())
            .sum()
    }
}

impl Workload for Stream {
    fn min_ops(&self) -> usize {
        3 * FIELDS.len()
    }

    fn generate_ms_per_mib(&self) -> f64 {
        self.generate_ms_per_mib
    }

    fn measure(&mut self, seconds: f64) -> Result<Window, String> {
        let mut w = Window::default();
        let mut off = Recorder::new();
        off.set_enabled(false);
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        let (mut raw, mut framed, mut payload, mut chunks) = (0usize, 0usize, 0usize, 0usize);
        let mut worst_error = 0.0f64;
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            for (input, stack) in self.stacks.iter().enumerate() {
                w.attempted += 1;
                let pass = stream_pass(stack, INNER, &mut off);
                if !pass.ok {
                    w.failed += 1;
                    continue;
                }
                w.ops.push((input as u32, pass.write_ms + pass.read_ms));
                writes.push((input as u32, pass.write_ms));
                reads.push((input as u32, pass.read_ms));
                raw += stack.whole.data.size_in_bytes();
                framed += pass.framed_bytes;
                payload += pass.payload_bytes;
                chunks += stack.chunks.len();
                worst_error = worst_error.max(pass.worst_error);
            }
        }
        w.ratio = raw as f64 / framed as f64;
        w.layers.insert(
            "codec.compress_mb_s".into(),
            mb_s(self.pass_bytes(), pass_ms(&writes)),
        );
        w.layers.insert(
            "codec.decompress_mb_s".into(),
            mb_s(self.pass_bytes(), pass_ms(&reads)),
        );
        w.layers
            .insert("stream.worst_error_over_abs".into(), worst_error / ABS);
        w.layers.insert(
            "stream.frame_overhead_bytes_per_chunk".into(),
            (framed - payload) as f64 / chunks as f64,
        );
        Ok(w)
    }

    fn trace(
        &mut self,
        seconds: f64,
        _op_ms: f64,
        rec: &mut Recorder,
        out: &mut Metrics,
    ) -> Result<(), String> {
        let started = Instant::now();
        let mut overhead = Overhead::default();
        let (mut streamed, mut whole) = (Vec::new(), Vec::new());
        let compressor = super::codec::configured("sz3")?;
        for pass in 0.. {
            if pass >= 2 && started.elapsed().as_secs_f64() > seconds {
                break;
            }
            rec.set_enabled(pass % 2 == 0);
            for (input, stack) in self.stacks.iter().enumerate() {
                let input_id = input as u32;
                let (streamed_pass, ms) = timed(|| {
                    rec.operation("stream.stack", input, |rec| stream_pass(stack, INNER, rec))
                });
                if !streamed_pass.ok {
                    return Err("a stream failed its checks in the traced pass".into());
                }
                overhead.push(pass % 2 == 0, (input_id, ms));
                streamed.push((input_id, streamed_pass.write_ms));
                // the same stack through one whole-buffer compress
                let (packed, ms) = timed(|| compressor.compress(&stack.whole.data));
                drop(std::hint::black_box(packed));
                whole.push((input_id, ms));
            }
        }
        out.insert("obs.trace_overhead_share".into(), overhead.share());
        out.insert(
            "stream.over_whole".into(),
            pass_ms(&whole) / pass_ms(&streamed),
        );

        // the small-chunk debt: 8 KiB chunks, framed
        let small = inputs::hurricane(&mut self.rng, SMALL_INNER, TIMESTEPS);
        let stack = Stack::new(inputs::stack(&small, FIELDS[0], TIMESTEPS))?;
        let mut off = Recorder::new();
        off.set_enabled(false);
        let pass = stream_pass(&stack, SMALL_INNER, &mut off);
        if !pass.ok {
            return Err("the 8 KiB-chunk stream failed its checks".into());
        }
        out.insert(
            "stream.ratio_8k".into(),
            stack.whole.data.size_in_bytes() as f64 / pass.framed_bytes as f64,
        );
        Ok(())
    }
}
