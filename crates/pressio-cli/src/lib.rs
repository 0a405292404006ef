//! # pressio-cli
//!
//! Command-line front end for the LibPressio-Predict reproduction — the
//! "embeddable, library-based" stack (paper §3) exposed as a tool a
//! downstream user can drive without writing Rust:
//!
//! ```text
//! pressio schemes                                   # list prediction schemes
//! pressio compressors                               # list compressors
//! pressio generate --out dir [--dims 64,64,32] [--timesteps 2]
//! pressio compress -i U_64x64x32.f32 -o U.szr -c sz3 --abs 1e-4
//! pressio decompress -i U.szr -o restored_64x64x32.f32 -c sz3
//! pressio predict -i U_64x64x32.f32 -c sz3 --scheme khan2023 --abs 1e-4
//! pressio bench --dims 32,32,16 --timesteps 2 --trace /tmp/bench.jsonl
//! pressio bench --ablation affinity --dims 16,16,8    # scheduling ablation
//! pressio bench --ablation checkpoint --dims 16,16,8  # restart-speedup ablation
//! pressio bench --ablation tao_sweep --dims 16,16,8 --timesteps 1   # also:
//!     # bandwidth, datasets, insample, invalidation, lossless, rahman
//! pressio bench --faults 'store:put.io=err,times=1'   # fault injection (pressio-faults)
//! pressio serve --socket /tmp/pressio.sock --models /tmp/models
//! pressio query --socket /tmp/pressio.sock --op ping
//! ```
//!
//! Raw files carry their shape in the filename (`NAME_NXxNY[...].f32`), so
//! decompression targets are self-describing.

#![warn(missing_docs)]

pub mod spawn;

use pressio_core::error::{Error, Result};
use pressio_core::{Compressor, Options};
use pressio_dataset::io::{parse_filename, read_raw};
use pressio_dataset::DatasetPlugin;
use pressio_predict::{standard_compressors, standard_schemes};
#[cfg(test)]
use std::path::Path;
use std::path::PathBuf;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List registered prediction schemes (with Table 1 metadata).
    Schemes,
    /// List registered compressors.
    Compressors,
    /// Generate synthetic hurricane fields as raw files.
    Generate {
        /// Output directory.
        out: PathBuf,
        /// Grid dims.
        dims: (usize, usize, usize),
        /// Timesteps.
        timesteps: usize,
        /// Stack all timesteps of each field into one 4-D raw file
        /// (`FIELD-stack_NXxNYxNZxT.f32`) instead of one file per
        /// timestep — the shape `pressio stream` chunks along its outer
        /// (timestep) axis.
        stack: bool,
    },
    /// Compress a raw file.
    Compress {
        /// Input raw file (shape-encoding name).
        input: PathBuf,
        /// Output stream path.
        output: PathBuf,
        /// Compressor id.
        compressor: String,
        /// Compressor options (abs/rel/predictor...).
        options: Options,
    },
    /// Decompress a stream back to a raw file.
    Decompress {
        /// Input stream path.
        input: PathBuf,
        /// Output raw file (shape-encoding name supplies dtype/dims).
        output: PathBuf,
        /// Compressor id.
        compressor: String,
    },
    /// Predict the compression ratio without compressing.
    Predict {
        /// Input raw file.
        input: PathBuf,
        /// Compressor id.
        compressor: String,
        /// Scheme name.
        scheme: String,
        /// Compressor options.
        options: Options,
        /// Optional trained-state file for trainable schemes.
        state: Option<PathBuf>,
        /// Also run the compressor and report the truth.
        verify: bool,
    },
    /// Run the Table-2 benchmark pipeline on a synthetic hurricane,
    /// optionally writing a structured JSONL trace — or one of the
    /// ablations via `--ablation`.
    Bench {
        /// Grid dims.
        dims: (usize, usize, usize),
        /// Timesteps.
        timesteps: usize,
        /// Worker threads for ground-truth collection.
        workers: usize,
        /// Observability trace output path.
        trace: Option<PathBuf>,
        /// Named ablation to run instead of the Table-2 pipeline
        /// (`affinity`, `checkpoint`, or any of
        /// `pressio_bench::ablations::NAMES`).
        ablation: Option<String>,
    },
    /// Run the online prediction daemon (single process, or a sharded
    /// supervisor with `--shards N`).
    Serve {
        /// Where to listen.
        endpoint: pressio_serve::Endpoint,
        /// Model store directory.
        models: PathBuf,
        /// Prediction worker threads.
        workers: usize,
        /// Bounded request-queue capacity.
        queue: usize,
        /// Largest same-model batch.
        batch: usize,
        /// Entry bound for each cache.
        cache: usize,
        /// Default per-request deadline in milliseconds.
        deadline_ms: u64,
        /// Observability trace output path.
        trace: Option<PathBuf>,
        /// Shard processes to supervise (0 = plain single-process server).
        shards: usize,
        /// Internal: which shard this child process is (set by the
        /// supervisor when it spawns shard workers).
        shard_index: Option<usize>,
        /// Shared `SO_REUSEPORT` TCP data address all shards also accept
        /// on (Linux only; needs a concrete port).
        shared_tcp: Option<String>,
        /// Enable rolling-window online learning for streaming sessions.
        online: bool,
        /// Online-learning window size (observations kept).
        online_window: usize,
        /// Refit the model every this many online observations.
        refit_every: usize,
        /// Declared-frame-length cap in MiB (0 = protocol default);
        /// oversized frames are rejected before allocation.
        max_frame_mb: usize,
        /// Reap streaming sessions idle longer than this many seconds.
        stream_idle_secs: u64,
        /// Journal streaming sessions for crash-safe `stream.resume`
        /// (`--no-stream-journal` disables it).
        stream_journal: bool,
    },
    /// Send one request to a running daemon and print the JSON response.
    Query {
        /// Daemon to talk to.
        endpoint: pressio_serve::Endpoint,
        /// Operation: ping, stats, models, load, train, predict, shutdown,
        /// topology, reload.
        op: String,
        /// Model reference `name[@version]` (load/train/predict).
        model: Option<String>,
        /// Scheme name (train, or model-less predict).
        scheme: Option<String>,
        /// Compressor id.
        compressor: String,
        /// Raw input file for predict.
        input: Option<PathBuf>,
        /// Compressor options (abs/rel/...) forwarded in the request.
        options: Options,
        /// Training grid dims.
        dims: (usize, usize, usize),
        /// Training timesteps.
        timesteps: usize,
        /// Route shard-aware: fetch the topology and send the request
        /// straight to its home shard (with failover) instead of through
        /// the supervisor proxy.
        route: bool,
    },
    /// Auto-select the compressor per buffer (`pressio-select` meta-codec):
    /// `pressio select <compress|decompress|explain>`.
    Select {
        /// What to do with the selected container.
        action: SelectAction,
        /// Input file (raw for compress, container otherwise).
        input: PathBuf,
        /// Output file (compress/decompress only).
        output: Option<PathBuf>,
        /// Consult mode: `trial` (in-process sampling, default), `remote`
        /// (query a serve daemon), or `static` (no prediction).
        consult: String,
        /// Daemon endpoint for remote consult.
        endpoint: Option<pressio_serve::Endpoint>,
        /// Model name prefix for remote consult (`<prefix>-<codec>`).
        model: Option<String>,
        /// Selection options (`select:psnr`, `select:bounds`, ...).
        options: Options,
        /// After compressing, decompress again and report the measured
        /// PSNR against the policy floor.
        verify: bool,
    },
    /// Chunked streaming frames (`pressio-stream`): turn a raw field into
    /// a PSTF stream (and back), inspect one, or send a field
    /// chunk-at-a-time to a live daemon for per-chunk predictions:
    /// `pressio stream <compress|decompress|info|send>`.
    Stream {
        /// What to do.
        action: StreamAction,
        /// Input file (raw for compress/send, PSTF stream otherwise).
        input: PathBuf,
        /// Output file (compress/decompress only).
        output: Option<PathBuf>,
        /// Chunk codec id (`sz3` or `zfp`).
        codec: String,
        /// Outer (slowest-axis) slices per chunk.
        chunk: usize,
        /// Chained mode: delta each chunk against the previous chunk's
        /// trailing timestep.
        chained: bool,
        /// Codec options (abs/rel/...).
        options: Options,
        /// Daemon endpoint (`send` only).
        endpoint: Option<pressio_serve::Endpoint>,
        /// Model reference for `send`.
        model: Option<String>,
        /// Scheme name for model-less `send`.
        scheme: Option<String>,
    },
}

/// The three `pressio select` actions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectAction {
    /// Consult, pick a winner, write a self-describing container.
    Compress,
    /// Header-driven decompression (no out-of-band shape needed).
    Decompress,
    /// Print the audited decision record of a container.
    Explain,
}

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

fn flag_value(args: &mut std::collections::VecDeque<String>, flag: &str) -> Result<String> {
    args.pop_front().ok_or_else(|| Error::InvalidValue {
        key: flag.to_string(),
        reason: "missing value".into(),
    })
}

/// Parse a command line (without the program name).
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Command> {
    let mut args: std::collections::VecDeque<String> = argv.into_iter().collect();
    let sub = args
        .pop_front()
        .ok_or_else(|| usage_error("no subcommand"))?;
    // `select` takes a positional action before its flags
    let select_action = if sub == "select" {
        match args.pop_front().as_deref() {
            Some("compress") => Some(SelectAction::Compress),
            Some("decompress") => Some(SelectAction::Decompress),
            Some("explain") => Some(SelectAction::Explain),
            other => {
                return Err(usage_error(&format!(
                    "select needs an action <compress|decompress|explain>, got {:?}",
                    other.unwrap_or("nothing")
                )))
            }
        }
    } else {
        None
    };
    // so does `stream`
    let stream_action = if sub == "stream" {
        match args.pop_front().as_deref() {
            Some("compress") => Some(StreamAction::Compress),
            Some("decompress") => Some(StreamAction::Decompress),
            Some("info") => Some(StreamAction::Info),
            Some("send") => Some(StreamAction::Send),
            other => {
                return Err(usage_error(&format!(
                    "stream needs an action <compress|decompress|info|send>, got {:?}",
                    other.unwrap_or("nothing")
                )))
            }
        }
    } else {
        None
    };
    let mut input: Option<PathBuf> = None;
    let mut output: Option<PathBuf> = None;
    let mut compressor = "sz3".to_string();
    let mut scheme = "khan2023".to_string();
    let mut state: Option<PathBuf> = None;
    let mut verify = false;
    let mut dims = (64usize, 64usize, 32usize);
    let mut timesteps = 1usize;
    let mut workers = 2usize;
    let mut trace: Option<PathBuf> = None;
    let mut options = Options::new();
    let mut ablation: Option<String> = None;
    let mut endpoint: Option<pressio_serve::Endpoint> = None;
    let mut models: Option<PathBuf> = None;
    let mut queue = 64usize;
    let mut batch = 8usize;
    let mut cache = pressio_serve::server::DEFAULT_CACHE_ENTRIES;
    let mut deadline_ms = 10_000u64;
    let mut op: Option<String> = None;
    let mut model: Option<String> = None;
    let mut scheme_given = false;
    let mut shards = 0usize;
    let mut shard_index: Option<usize> = None;
    let mut shared_tcp: Option<String> = None;
    let mut route = false;
    let mut consult = "trial".to_string();
    let mut chunk = 1usize;
    let mut chained = false;
    let mut stack = false;
    let mut online = false;
    let mut online_window = 64usize;
    let mut refit_every = 8usize;
    let mut max_frame_mb = 0usize;
    let mut stream_idle_secs = 300u64;
    let mut stream_journal = true;
    while let Some(arg) = args.pop_front() {
        match arg.as_str() {
            "-i" | "--input" => input = Some(PathBuf::from(flag_value(&mut args, &arg)?)),
            "-o" | "--output" | "--out" => {
                output = Some(PathBuf::from(flag_value(&mut args, &arg)?))
            }
            "-c" | "--compressor" | "--codec" => compressor = flag_value(&mut args, &arg)?,
            "--scheme" => {
                scheme = flag_value(&mut args, &arg)?;
                scheme_given = true;
            }
            "--state" => state = Some(PathBuf::from(flag_value(&mut args, &arg)?)),
            "--verify" => verify = true,
            "--abs" => {
                let v: f64 = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--abs needs a number"))?;
                options.set("pressio:abs", v);
            }
            "--rel" => {
                let v: f64 = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--rel needs a number"))?;
                options.set("pressio:rel", v);
            }
            "--predictor" => {
                let v = flag_value(&mut args, &arg)?;
                options.set("sz3:predictor", v);
            }
            "--mode" => {
                let v = flag_value(&mut args, &arg)?;
                options.set("zfp:mode", v);
            }
            "--rate" => {
                let v: f64 = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--rate needs a number"))?;
                options.set("zfp:rate", v);
            }
            "--dims" => {
                let spec = flag_value(&mut args, &arg)?;
                let parts: Vec<usize> = spec.split(',').filter_map(|p| p.parse().ok()).collect();
                if parts.len() != 3 {
                    return Err(usage_error("--dims needs NX,NY,NZ"));
                }
                dims = (parts[0], parts[1], parts[2]);
            }
            "--timesteps" => {
                timesteps = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--timesteps needs a number"))?;
            }
            "--workers" => {
                workers = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--workers needs a number"))?;
            }
            "--trace" => trace = Some(PathBuf::from(flag_value(&mut args, &arg)?)),
            "--ablation" => ablation = Some(flag_value(&mut args, &arg)?),
            "--socket" => {
                #[cfg(unix)]
                {
                    endpoint = Some(pressio_serve::Endpoint::Unix(PathBuf::from(flag_value(
                        &mut args, &arg,
                    )?)));
                }
                #[cfg(not(unix))]
                return Err(usage_error("--socket needs a Unix platform; use --tcp"));
            }
            "--tcp" => endpoint = Some(pressio_serve::Endpoint::Tcp(flag_value(&mut args, &arg)?)),
            "--models" => models = Some(PathBuf::from(flag_value(&mut args, &arg)?)),
            "--queue" => {
                queue = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--queue needs a number"))?;
            }
            "--batch" => {
                batch = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--batch needs a number"))?;
            }
            "--cache" => {
                cache = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--cache needs a number"))?;
            }
            "--deadline" => {
                deadline_ms = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--deadline needs milliseconds"))?;
            }
            "--op" => op = Some(flag_value(&mut args, &arg)?),
            "--model" => model = Some(flag_value(&mut args, &arg)?),
            "--shards" => {
                shards = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--shards needs a number"))?;
            }
            "--shard-index" => {
                shard_index = Some(
                    flag_value(&mut args, &arg)?
                        .parse()
                        .map_err(|_| usage_error("--shard-index needs a number"))?,
                );
            }
            "--shared-tcp" => shared_tcp = Some(flag_value(&mut args, &arg)?),
            "--route" => route = true,
            "--consult" => consult = flag_value(&mut args, &arg)?,
            "--chunk" => {
                chunk = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--chunk needs a number of outer slices"))?;
            }
            "--chained" => chained = true,
            "--stack" => stack = true,
            "--online" => online = true,
            "--online-window" => {
                online_window = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--online-window needs a number"))?;
            }
            "--refit-every" => {
                refit_every = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--refit-every needs a number"))?;
            }
            "--max-frame-mb" => {
                max_frame_mb = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--max-frame-mb needs a number of MiB"))?;
            }
            "--stream-idle-secs" => {
                stream_idle_secs = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--stream-idle-secs needs a number of seconds"))?;
            }
            "--no-stream-journal" => stream_journal = false,
            "--psnr" => {
                let v: f64 = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--psnr needs a number (dB)"))?;
                options.set("select:psnr", v);
            }
            "--bounds" => {
                let spec = flag_value(&mut args, &arg)?;
                let bounds: Vec<f64> = spec
                    .split(',')
                    .map(|p| {
                        p.parse()
                            .map_err(|_| usage_error("--bounds needs B1,B2,..."))
                    })
                    .collect::<Result<_>>()?;
                options.set("select:bounds", bounds);
            }
            "--faults" => {
                // fault-injection schedule (see pressio-faults), activated
                // process-wide at parse time like --threads; also exported
                // to PRESSIO_FAULTS-style option plumbing via configure
                let spec = flag_value(&mut args, &arg)?;
                pressio_faults::configure(&spec)?;
            }
            "--threads" => {
                let v: usize = flag_value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| usage_error("--threads needs a number"))?;
                // one knob everywhere: the per-compressor option plus the
                // process-wide override (feature extraction, bulk dataset
                // loads). 0 restores auto-detection.
                options.set("pressio:nthreads", v as u64);
                pressio_core::threads::set_global_threads(v);
            }
            other => return Err(usage_error(&format!("unknown flag '{other}'"))),
        }
    }
    let need_input = |what: &str, v: Option<PathBuf>| {
        v.ok_or_else(|| usage_error(&format!("{what} requires --input")))
    };
    match sub.as_str() {
        "schemes" => Ok(Command::Schemes),
        "compressors" => Ok(Command::Compressors),
        "generate" => Ok(Command::Generate {
            out: output.ok_or_else(|| usage_error("generate requires --out"))?,
            dims,
            timesteps,
            stack,
        }),
        "compress" => Ok(Command::Compress {
            input: need_input("compress", input)?,
            output: output.ok_or_else(|| usage_error("compress requires --output"))?,
            compressor,
            options,
        }),
        "decompress" => Ok(Command::Decompress {
            input: need_input("decompress", input)?,
            output: output.ok_or_else(|| usage_error("decompress requires --output"))?,
            compressor,
        }),
        "predict" => Ok(Command::Predict {
            input: need_input("predict", input)?,
            compressor,
            scheme,
            options,
            state,
            verify,
        }),
        "bench" => Ok(Command::Bench {
            dims,
            timesteps,
            workers,
            trace,
            ablation,
        }),
        "serve" => Ok(Command::Serve {
            endpoint: endpoint.ok_or_else(|| usage_error("serve requires --socket or --tcp"))?,
            models: models.ok_or_else(|| usage_error("serve requires --models <dir>"))?,
            workers,
            queue,
            batch,
            cache,
            deadline_ms,
            trace,
            shards,
            shard_index,
            shared_tcp,
            online,
            online_window,
            refit_every,
            max_frame_mb,
            stream_idle_secs,
            stream_journal,
        }),
        "query" => Ok(Command::Query {
            endpoint: endpoint.ok_or_else(|| usage_error("query requires --socket or --tcp"))?,
            op: op.ok_or_else(|| usage_error("query requires --op <operation>"))?,
            model,
            scheme: scheme_given.then_some(scheme),
            compressor,
            input,
            options,
            dims,
            timesteps,
            route,
        }),
        "select" => {
            let action = select_action.expect("select always parses an action first");
            if matches!(action, SelectAction::Compress | SelectAction::Decompress)
                && output.is_none()
            {
                return Err(usage_error("select compress/decompress require --output"));
            }
            if consult == "remote" && endpoint.is_none() {
                return Err(usage_error(
                    "select --consult remote requires --socket or --tcp",
                ));
            }
            Ok(Command::Select {
                action,
                input: need_input("select", input)?,
                output,
                consult,
                endpoint,
                model,
                options,
                verify,
            })
        }
        "stream" => {
            let action = stream_action.expect("stream always parses an action first");
            if matches!(action, StreamAction::Compress | StreamAction::Decompress)
                && output.is_none()
            {
                return Err(usage_error("stream compress/decompress require --output"));
            }
            if action == StreamAction::Send && endpoint.is_none() {
                return Err(usage_error("stream send requires --socket or --tcp"));
            }
            if chunk == 0 {
                return Err(usage_error("--chunk must be at least 1"));
            }
            Ok(Command::Stream {
                action,
                input: need_input("stream", input)?,
                output,
                codec: compressor,
                chunk,
                chained,
                options,
                endpoint,
                model,
                scheme: scheme_given.then_some(scheme),
            })
        }
        other => Err(usage_error(&format!("unknown subcommand '{other}'"))),
    }
}

fn usage_error(msg: &str) -> Error {
    Error::InvalidValue {
        key: "cli".into(),
        reason: format!(
            "{msg}\nusage: pressio <schemes|compressors|generate|compress|decompress|predict|bench|serve|query|select|stream> [flags]"
        ),
    }
}

fn build_compressor(name: &str, options: &Options) -> Result<Box<dyn Compressor>> {
    let mut comp = standard_compressors().build(name)?;
    comp.set_options(options)?;
    Ok(comp)
}

/// Execute a parsed command, writing human output to `out`.
pub fn run(cmd: Command, out: &mut impl std::io::Write) -> Result<()> {
    match cmd {
        Command::Schemes => {
            let registry = standard_schemes();
            for name in registry.names() {
                let s = registry.build(name)?;
                let i = s.info();
                writeln!(
                    out,
                    "{name:16} {:9} training={} sampling={} approach={}",
                    i.goal,
                    if i.training { "yes" } else { "no " },
                    if i.sampling { "yes" } else { "no " },
                    i.approach
                )?;
            }
            Ok(())
        }
        Command::Compressors => {
            let registry = standard_compressors();
            for name in registry.names() {
                let c = registry.build(name)?;
                writeln!(out, "{name}: {}", c.get_options())?;
            }
            Ok(())
        }
        Command::Generate {
            out: dir,
            dims,
            timesteps,
            stack,
        } => {
            let mut h = pressio_dataset::Hurricane::with_dims(dims.0, dims.1, dims.2, timesteps);
            if stack {
                // one 4-D file per field, timesteps stacked along the
                // outer (slowest) axis — the shape `pressio stream`
                // chunks without ever materializing more than one chunk
                let fields: Vec<String> = h.fields().to_vec();
                for (f, field) in fields.iter().enumerate() {
                    let mut bytes = Vec::new();
                    let mut dtype = pressio_core::Dtype::F32;
                    for t in 0..timesteps {
                        let data = h.load_data(t * fields.len() + f)?;
                        dtype = data.dtype();
                        bytes.extend_from_slice(&data.to_le_bytes());
                    }
                    let stacked = pressio_core::Data::from_le_bytes(
                        dtype,
                        vec![dims.0, dims.1, dims.2, timesteps],
                        &bytes,
                    )?;
                    let path =
                        pressio_dataset::io::write_raw(&dir, &format!("{field}-stack"), &stacked)?;
                    writeln!(out, "wrote {}", path.display())?;
                }
                return Ok(());
            }
            for i in 0..h.len() {
                let meta = h.load_metadata(i)?;
                let data = h.load_data(i)?;
                let path =
                    pressio_dataset::io::write_raw(&dir, &meta.name.replace('@', "-"), &data)?;
                writeln!(out, "wrote {}", path.display())?;
            }
            Ok(())
        }
        Command::Compress {
            input,
            output,
            compressor,
            options,
        } => {
            let data = read_raw(&input)?;
            let comp = build_compressor(&compressor, &options)?;
            let stream = comp.compress(&data)?;
            std::fs::write(&output, &stream)?;
            writeln!(
                out,
                "{} -> {}: {} -> {} bytes (ratio {:.2})",
                input.display(),
                output.display(),
                data.size_in_bytes(),
                stream.len(),
                data.size_in_bytes() as f64 / stream.len().max(1) as f64
            )?;
            Ok(())
        }
        Command::Decompress {
            input,
            output,
            compressor,
        } => {
            let (_, dims, dtype) = parse_filename(&output)?;
            let stream = std::fs::read(&input)?;
            let comp = build_compressor(&compressor, &Options::new())?;
            let data = comp.decompress(&stream, dtype, &dims)?;
            std::fs::write(&output, data.to_le_bytes())?;
            writeln!(
                out,
                "{} -> {} ({} values)",
                input.display(),
                output.display(),
                data.num_elements()
            )?;
            Ok(())
        }
        Command::Predict {
            input,
            compressor,
            scheme,
            options,
            state,
            verify,
        } => {
            let data = read_raw(&input)?;
            let comp = build_compressor(&compressor, &options)?;
            let sch = standard_schemes().build(&scheme)?;
            if !sch.supports(comp.id()) {
                return Err(Error::Unsupported(format!(
                    "scheme '{scheme}' does not support compressor '{compressor}'"
                )));
            }
            let mut features = sch.error_agnostic_features(&data)?;
            features.merge_from(&sch.error_dependent_features(&data, comp.as_ref())?);
            let mut predictor = sch.make_predictor();
            if let Some(path) = state {
                predictor.load_state(&std::fs::read(&path)?)?;
            } else if predictor.requires_training() {
                return Err(Error::NotFitted(format!(
                    "scheme '{scheme}' needs --state <trained-state-file>"
                )));
            }
            let predicted = predictor.predict(&features)?;
            writeln!(out, "predicted compression ratio: {predicted:.3}")?;
            if verify {
                let stream = comp.compress(&data)?;
                let actual = data.size_in_bytes() as f64 / stream.len().max(1) as f64;
                writeln!(out, "actual    compression ratio: {actual:.3}")?;
                writeln!(
                    out,
                    "absolute percentage error:   {:.1}%",
                    ((predicted - actual) / actual).abs() * 100.0
                )?;
            }
            Ok(())
        }
        Command::Bench {
            dims,
            timesteps,
            workers,
            trace,
            ablation,
        } => {
            if let Some(name) = &ablation {
                return match name.as_str() {
                    "affinity" => {
                        let report = pressio_bench_infra::affinity::run_affinity_ablation(
                            &pressio_bench_infra::affinity::AffinityConfig {
                                dims,
                                workers,
                                quick: timesteps <= 1,
                            },
                        )?;
                        write!(
                            out,
                            "{}",
                            pressio_bench_infra::affinity::format_affinity(&report)
                        )?;
                        Ok(())
                    }
                    "checkpoint" => {
                        let report = pressio_bench_infra::restart::run_checkpoint_ablation(
                            &pressio_bench_infra::restart::RestartConfig {
                                dims,
                                workers,
                                quick: timesteps <= 1,
                                checkpoint: None,
                            },
                        )?;
                        write!(
                            out,
                            "{}",
                            pressio_bench_infra::restart::format_checkpoint(&report)
                        )?;
                        Ok(())
                    }
                    // the remaining ablations live in pressio-bench's
                    // library; the CLI's --timesteps 1 default maps to
                    // quick mode
                    name if pressio_bench::ablations::NAMES.contains(&name) => {
                        let bench_args = pressio_bench::BenchArgs {
                            dims,
                            timesteps,
                            quick: timesteps <= 1,
                            workers,
                            ..Default::default()
                        };
                        pressio_bench::ablations::run(name, &bench_args, out)?;
                        Ok(())
                    }
                    other => Err(usage_error(&format!(
                        "unknown ablation '{other}' (available: affinity, checkpoint, {})",
                        pressio_bench::ablations::NAMES.join(", ")
                    ))),
                };
            }
            let collector = match &trace {
                Some(path) => {
                    let sink = pressio_obs::JsonlSink::create(path)?;
                    let c = std::sync::Arc::new(pressio_obs::Collector::with_sink(Box::new(sink)));
                    pressio_obs::install(c.clone());
                    Some(c)
                }
                None => None,
            };
            let mut hurricane =
                pressio_dataset::Hurricane::with_dims(dims.0, dims.1, dims.2, timesteps);
            let cfg = pressio_bench_infra::experiment::Table2Config {
                workers,
                checkpoint: None,
                ..Default::default()
            };
            let result = pressio_bench_infra::experiment::run_table2(&mut hurricane, &cfg);
            // always tear down the global collector, even on error
            if collector.is_some() {
                let _ = pressio_obs::uninstall();
            }
            let table = result?;
            write!(
                out,
                "{}",
                pressio_bench_infra::experiment::format_table2(&table)
            )?;
            if let Some(c) = collector {
                c.flush();
                writeln!(out, "\n## Observability report\n")?;
                write!(out, "{}", c.report().format())?;
                if let Some(path) = &trace {
                    writeln!(out, "\ntrace written to {}", path.display())?;
                }
            }
            Ok(())
        }
        Command::Serve {
            endpoint,
            models,
            workers,
            queue,
            batch,
            cache,
            deadline_ms,
            trace,
            shards,
            shard_index,
            shared_tcp,
            online,
            online_window,
            refit_every,
            max_frame_mb,
            stream_idle_secs,
            stream_journal,
        } => {
            let collector = match &trace {
                Some(path) => {
                    let sink = pressio_obs::JsonlSink::create(path)?;
                    let c = std::sync::Arc::new(pressio_obs::Collector::with_sink(Box::new(sink)));
                    pressio_obs::install(c.clone());
                    Some(c)
                }
                None => None,
            };
            let mut config = pressio_serve::ServeConfig::new(endpoint, models);
            config.workers = workers;
            config.queue_capacity = queue;
            config.batch_max = batch;
            config.cache_entries = cache;
            config.default_deadline_ms = deadline_ms;
            config.shard_index = shard_index;
            config.online = online;
            config.online_window = online_window;
            config.online_refit_every = refit_every;
            config.stream_idle_secs = stream_idle_secs;
            config.stream_journal = stream_journal;
            if max_frame_mb > 0 {
                config.max_frame = max_frame_mb << 20;
            }
            if let Some(addr) = &shared_tcp {
                config.extra_listeners.push(pressio_serve::ExtraListener {
                    endpoint: pressio_serve::Endpoint::Tcp(addr.clone()),
                    reuseport: true,
                });
            }
            let result = if shards > 0 {
                // supervisor mode: re-execute this binary as N shard
                // workers and run the control plane / routing proxy here
                let exe = std::env::current_exe()
                    .map_err(|e| Error::Io(format!("resolving current executable: {e}")))?;
                let base = config.listen.clone();
                let mut sup = pressio_serve::SupervisorConfig::new(base, config, shards);
                sup.shared_data_addr = shared_tcp;
                let spawner = std::sync::Arc::new(spawn::ProcessSpawner {
                    exe,
                    trace: trace.clone(),
                });
                let handle = pressio_serve::Supervisor::start(sup, spawner)?;
                writeln!(out, "pressio-serve listening on {}", handle.endpoint())?;
                let topology = handle.topology();
                for (i, shard) in topology.shards.iter().enumerate() {
                    writeln!(out, "pressio-serve shard {i} on {shard}")?;
                }
                out.flush()?;
                handle.wait()
            } else {
                let handle = pressio_serve::Server::start(config)?;
                writeln!(out, "pressio-serve listening on {}", handle.endpoint())?;
                out.flush()?;
                handle.wait()
            };
            if let Some(c) = collector {
                c.flush();
                let _ = pressio_obs::uninstall();
            }
            result?;
            writeln!(out, "pressio-serve drained and exited")?;
            Ok(())
        }
        Command::Query {
            endpoint,
            op,
            model,
            scheme,
            compressor,
            input,
            options,
            dims,
            timesteps,
            route,
        } => {
            let mut request = options
                .clone()
                .with("serve:op", op.as_str())
                .with("serve:compressor", compressor.as_str());
            if let Some(model) = &model {
                request.set("serve:model", model.as_str());
            }
            if let Some(scheme) = &scheme {
                request.set("serve:scheme", scheme.as_str());
            }
            match op.as_str() {
                "train" => {
                    request.set(
                        "serve:dims",
                        vec![dims.0 as u64, dims.1 as u64, dims.2 as u64],
                    );
                    request.set("serve:timesteps", timesteps as u64);
                }
                "predict" => {
                    let input =
                        input.ok_or_else(|| usage_error("query --op predict requires --input"))?;
                    let data = read_raw(&input)?;
                    pressio_serve::protocol::data_into_request(&mut request, &data);
                }
                _ => {}
            }
            let response = if route {
                // topology-aware: fetch the shard layout from the base
                // endpoint and send straight to the home shard
                let mut client = pressio_serve::ShardedClient::connect(&endpoint)?;
                client.call(&request)?
            } else {
                let mut client = pressio_serve::Client::connect(&endpoint)?;
                client.call(&request)?
            };
            writeln!(out, "{}", response.to_json()?)?;
            if response.get_str_opt("serve:type")? == Some("error") {
                return Err(Error::TaskFailed(format!(
                    "server answered {}: {}",
                    response.get_str_opt("serve:code")?.unwrap_or("error"),
                    response.get_str_opt("serve:message")?.unwrap_or("")
                )));
            }
            Ok(())
        }
        Command::Select {
            action,
            input,
            output,
            consult,
            endpoint,
            model,
            options,
            verify,
        } => match action {
            SelectAction::Compress => {
                let data = read_raw(&input)?;
                let mut codec = pressio_select::SelectCodec::new();
                let mut opts = options.clone().with("select:consult", consult.as_str());
                if let Some(ep) = &endpoint {
                    opts.set("select:endpoint", ep.to_string());
                }
                if let Some(model) = &model {
                    opts.set("select:model", model.as_str());
                }
                codec.set_options(&opts)?;
                let container = codec.compress(&data)?;
                let output = output.expect("parser enforces --output");
                std::fs::write(&output, &container)?;
                let (record, _) = pressio_select::decode_header(&container)?;
                writeln!(
                    out,
                    "selected {} @ abs {:e} via {} consult{} ({} -> {} bytes, ratio {:.2})",
                    record.codec,
                    record.abs,
                    record.consult,
                    if record.fallback { " [fallback]" } else { "" },
                    data.size_in_bytes(),
                    container.len(),
                    data.size_in_bytes() as f64 / container.len().max(1) as f64
                )?;
                if verify {
                    let restored = codec.decompress(&container, record.dtype, &[])?;
                    let original = data.to_f64_vec();
                    let decoded = restored.to_f64_vec();
                    let (mut lo, mut hi, mut se) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
                    for (&x, &y) in original.iter().zip(&decoded) {
                        lo = lo.min(x);
                        hi = hi.max(x);
                        se += (x - y) * (x - y);
                    }
                    let mse = se / original.len().max(1) as f64;
                    let psnr = if mse <= 0.0 {
                        f64::INFINITY
                    } else {
                        10.0 * ((hi - lo).powi(2) / mse).log10()
                    };
                    writeln!(
                        out,
                        "measured psnr: {psnr:.1} dB (policy {})",
                        record.policy
                    )?;
                }
                Ok(())
            }
            SelectAction::Decompress => {
                let container = std::fs::read(&input)?;
                let (record, _) = pressio_select::decode_header(&container)?;
                let codec = pressio_select::SelectCodec::new();
                let data = codec.decompress(&container, record.dtype, &[])?;
                let output = output.expect("parser enforces --output");
                // the header is authoritative; if the output filename also
                // encodes a shape, it must agree rather than silently lie
                if let Ok((_, dims, dtype)) = parse_filename(&output) {
                    if dims != record.dims || dtype != record.dtype {
                        return Err(Error::InvalidValue {
                            key: "select:dims".into(),
                            reason: format!(
                                "output name implies {dtype:?} {dims:?} but the container \
                                 records {:?} {:?}",
                                record.dtype, record.dims
                            ),
                        });
                    }
                }
                std::fs::write(&output, data.to_le_bytes())?;
                writeln!(
                    out,
                    "{} -> {} ({} values, {} @ abs {:e})",
                    input.display(),
                    output.display(),
                    data.num_elements(),
                    record.codec,
                    record.abs
                )?;
                Ok(())
            }
            SelectAction::Explain => {
                let container = std::fs::read(&input)?;
                let (record, offset) = pressio_select::decode_header(&container)?;
                writeln!(out, "{}", record.to_options().to_json()?)?;
                writeln!(
                    out,
                    "header {} bytes, compressed payload {} bytes",
                    offset,
                    container.len() - offset
                )?;
                Ok(())
            }
        },
        Command::Stream {
            action,
            input,
            output,
            codec,
            chunk,
            chained,
            options,
            endpoint,
            model,
            scheme,
        } => match action {
            StreamAction::Compress => {
                let data = read_raw(&input)?;
                let header = stream_header(&data, &codec, chunk, chained, &options);
                let bytes = pressio_stream::compress_stream(&data, header)?;
                let output = output.expect("parser enforces --output");
                std::fs::write(&output, &bytes)?;
                let outer = data.dims().last().copied().unwrap_or(1);
                writeln!(
                    out,
                    "{} -> {}: {} chunks ({} outer slices, {}), {} -> {} bytes (ratio {:.2})",
                    input.display(),
                    output.display(),
                    outer.div_ceil(chunk),
                    outer,
                    if chained { "chained" } else { "independent" },
                    data.size_in_bytes(),
                    bytes.len(),
                    data.size_in_bytes() as f64 / bytes.len().max(1) as f64
                )?;
                Ok(())
            }
            StreamAction::Decompress => {
                let bytes = std::fs::read(&input)?;
                let data = pressio_stream::decompress_stream(&bytes)?;
                let output = output.expect("parser enforces --output");
                // the frame header is authoritative; a shape-encoding
                // output name must agree rather than silently lie
                if let Ok((_, dims, dtype)) = parse_filename(&output) {
                    if dims != data.dims() || dtype != data.dtype() {
                        return Err(Error::InvalidValue {
                            key: "stream:dims".into(),
                            reason: format!(
                                "output name implies {dtype:?} {dims:?} but the stream \
                                 records {:?} {:?}",
                                data.dtype(),
                                data.dims()
                            ),
                        });
                    }
                }
                std::fs::write(&output, data.to_le_bytes())?;
                writeln!(
                    out,
                    "{} -> {} ({} values, dims {:?})",
                    input.display(),
                    output.display(),
                    data.num_elements(),
                    data.dims()
                )?;
                Ok(())
            }
            StreamAction::Info => {
                let file = std::fs::File::open(&input)?;
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
            StreamAction::Send => {
                let endpoint = endpoint.expect("parser enforces endpoint");
                let data = read_raw(&input)?;
                let header = stream_header(&data, &codec, chunk, chained, &options);
                let outer = *data.dims().last().ok_or_else(|| Error::InvalidValue {
                    key: "stream:dims".into(),
                    reason: "streaming needs at least one dimension".into(),
                })?;
                // the stream id is the field's content hash: chunk ops
                // carrying it all route to the same shard
                let stream_id =
                    format!("{:016x}", pressio_core::hash::fnv1a64(&data.to_le_bytes()));
                let fail = |resp: &Options| -> Result<()> {
                    if resp.get_str_opt("serve:type").ok().flatten() == Some("error") {
                        return Err(Error::TaskFailed(format!(
                            "server answered {}: {}",
                            resp.get_str_opt("serve:code").ok().flatten().unwrap_or("?"),
                            resp.get_str_opt("serve:message")
                                .ok()
                                .flatten()
                                .unwrap_or("")
                        )));
                    }
                    Ok(())
                };
                let mut extra = options.clone().with("serve:compressor", codec.as_str());
                if let Some(m) = &model {
                    extra.set("serve:model", m.as_str());
                }
                if let Some(s) = &scheme {
                    extra.set("serve:scheme", s.as_str());
                }
                // precompute every (chunk, achieved ratio) up front — the
                // resilient sender may rewind and re-send any seq after a
                // crash, so each chunk must be addressable by seq, not
                // consumed from a forward-only iterator. The local encoder
                // writes to a sink: per-chunk achieved ratios for
                // stream:actual without buffering the compressed stream.
                let mut encoder = pressio_stream::StreamEncoder::new(std::io::sink(), header)?;
                let mut chunks = Vec::new();
                for (start, count) in pressio_core::chunking::OuterChunks::new(outer, chunk)? {
                    let chunk_data = pressio_core::chunking::slice_outer(&data, start, count)?;
                    let record = encoder.write_chunk(&chunk_data)?;
                    let actual = record.raw_len as f64 / record.comp_len.max(1) as f64;
                    chunks.push((start, count, chunk_data, actual));
                }
                // a daemon crash + respawn (or a supervisor failover) can
                // take far longer than the default client retry budget;
                // give the interactive sender room to ride it out
                let mut sender = pressio_serve::ResilientStreamSender::new(
                    endpoint,
                    stream_id.clone(),
                    pressio_serve::RetryPolicy {
                        max_attempts: 12,
                        base_ms: 25,
                        max_ms: 500,
                    },
                );
                let begun = sender.begin(&extra)?;
                fail(&begun)?;
                writeln!(
                    out,
                    "stream {stream_id}: {} chunks of {} outer slices, online={}",
                    chunks.len(),
                    chunk,
                    begun.get_bool_opt("stream:online")?.unwrap_or(false)
                )?;
                while sender.next_seq() <= chunks.len() as u64 {
                    let seq = sender.next_seq();
                    let (start, count, chunk_data, actual) = &chunks[seq as usize - 1];
                    let resp = sender.send_chunk(
                        seq,
                        chunk_data,
                        &Options::new().with("stream:actual", *actual),
                    )?;
                    if resp.get_str_opt("serve:type")? == Some("stream.rewound") {
                        // a crash tore the journal tail: the server acked
                        // less than we sent, so replay from its offset
                        writeln!(out, "rewound to chunk {}", sender.next_seq())?;
                        continue;
                    }
                    fail(&resp)?;
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
                fail(&ended)?;
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
        },
    }
}

/// Frame header for streaming `data` along its outer (slowest) axis.
fn stream_header(
    data: &pressio_core::Data,
    codec: &str,
    chunk: usize,
    chained: bool,
    options: &Options,
) -> pressio_stream::StreamHeader {
    let dims = data.dims();
    let inner = &dims[..dims.len().saturating_sub(1)];
    pressio_stream::StreamHeader {
        codec: codec.to_string(),
        dtype: data.dtype(),
        inner_dims: inner.to_vec(),
        chunk_outer: chunk,
        chained,
        codec_options: options.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Command> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_compress() {
        let cmd = parse(&[
            "compress",
            "-i",
            "U_4x4.f32",
            "-o",
            "U.szr",
            "-c",
            "sz3",
            "--abs",
            "1e-3",
            "--predictor",
            "hybrid",
        ])
        .unwrap();
        match cmd {
            Command::Compress {
                input,
                output,
                compressor,
                options,
            } => {
                assert_eq!(input, Path::new("U_4x4.f32"));
                assert_eq!(output, Path::new("U.szr"));
                assert_eq!(compressor, "sz3");
                assert_eq!(options.get_f64("pressio:abs").unwrap(), 1e-3);
                assert_eq!(options.get_str("sz3:predictor").unwrap(), "hybrid");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["compress", "-o", "x"]).is_err()); // no input
        assert!(parse(&["compress", "-i", "x"]).is_err()); // no output
        assert!(parse(&["predict", "-i", "x", "--abs", "nope"]).is_err());
        assert!(parse(&["compress", "-i"]).is_err()); // dangling flag
    }

    #[test]
    fn listing_commands_run() {
        let mut buf = Vec::new();
        run(Command::Schemes, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("rahman2023"));
        assert!(text.contains("deep learning"));
        let mut buf = Vec::new();
        run(Command::Compressors, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("sz3"));
        assert!(text.contains("zfp"));
    }

    #[test]
    fn faults_flag_activates_the_registry_and_rejects_bad_specs() {
        // a site no real code path hits, so concurrent tests are unaffected
        let cmd = parse(&["bench", "--faults", "clitest:site=err,times=1"]).unwrap();
        assert!(matches!(cmd, Command::Bench { .. }));
        assert!(pressio_faults::enabled());
        assert!(pressio_faults::inject("clitest:site").is_err());
        pressio_faults::clear();
        assert!(parse(&["bench", "--faults", "not a valid spec"]).is_err());
        assert!(parse(&["bench", "--faults"]).is_err(), "missing value");
    }

    #[test]
    fn threads_flag_sets_option_and_global_override() {
        let cmd = parse(&[
            "compress",
            "-i",
            "U_4x4.f32",
            "-o",
            "U.szr",
            "--threads",
            "3",
        ])
        .unwrap();
        match cmd {
            Command::Compress { options, .. } => {
                assert_eq!(options.get_u64("pressio:nthreads").unwrap(), 3);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(pressio_core::threads::resolve(None), 3);
        pressio_core::threads::set_global_threads(0);
        assert!(parse(&["bench", "--threads", "none"]).is_err());
    }

    #[test]
    fn parses_bench_with_trace() {
        let cmd = parse(&[
            "bench",
            "--dims",
            "8,8,4",
            "--timesteps",
            "2",
            "--workers",
            "3",
            "--trace",
            "/tmp/t.jsonl",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                dims: (8, 8, 4),
                timesteps: 2,
                workers: 3,
                trace: Some(PathBuf::from("/tmp/t.jsonl")),
                ablation: None,
            }
        );
    }

    #[test]
    fn parses_bench_ablation_and_serve_and_query() {
        let cmd = parse(&["bench", "--ablation", "affinity", "--workers", "4"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Bench { ablation: Some(ref a), workers: 4, .. } if a == "affinity"
        ));
        let cmd = parse(&["bench", "--ablation", "checkpoint"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Bench { ablation: Some(ref a), .. } if a == "checkpoint"
        ));
        let cmd = parse(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--models",
            "/tmp/m",
            "--queue",
            "16",
        ])
        .unwrap();
        match cmd {
            Command::Serve {
                endpoint,
                models,
                queue,
                ..
            } => {
                assert_eq!(endpoint, pressio_serve::Endpoint::Tcp("127.0.0.1:0".into()));
                assert_eq!(models, PathBuf::from("/tmp/m"));
                assert_eq!(queue, 16);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "query",
            "--tcp",
            "127.0.0.1:9",
            "--op",
            "predict",
            "--model",
            "m@1",
            "-i",
            "U_4x4.f32",
            "--abs",
            "1e-3",
        ])
        .unwrap();
        match cmd {
            Command::Query {
                op,
                model,
                scheme,
                input,
                options,
                ..
            } => {
                assert_eq!(op, "predict");
                assert_eq!(model.as_deref(), Some("m@1"));
                assert_eq!(scheme, None, "scheme must be None unless given");
                assert_eq!(input, Some(PathBuf::from("U_4x4.f32")));
                assert_eq!(options.get_f64("pressio:abs").unwrap(), 1e-3);
            }
            other => panic!("{other:?}"),
        }
        // serve/query without an endpoint is a usage error
        assert!(parse(&["serve", "--models", "/tmp/m"]).is_err());
        assert!(parse(&["query", "--op", "ping"]).is_err());
    }

    #[test]
    fn parses_shard_flags() {
        let cmd = parse(&[
            "serve",
            "--tcp",
            "127.0.0.1:9000",
            "--models",
            "/tmp/m",
            "--shards",
            "3",
            "--shared-tcp",
            "127.0.0.1:9100",
        ])
        .unwrap();
        match cmd {
            Command::Serve {
                shards,
                shard_index,
                shared_tcp,
                ..
            } => {
                assert_eq!(shards, 3);
                assert_eq!(shard_index, None);
                assert_eq!(shared_tcp.as_deref(), Some("127.0.0.1:9100"));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--models",
            "/tmp/m",
            "--shard-index",
            "2",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                shards: 0,
                shard_index: Some(2),
                ..
            }
        ));
        let cmd = parse(&[
            "query",
            "--tcp",
            "127.0.0.1:9",
            "--op",
            "topology",
            "--route",
        ])
        .unwrap();
        assert!(matches!(cmd, Command::Query { route: true, .. }));
        assert!(parse(&["serve", "--tcp", "x:1", "--models", "m", "--shards", "no"]).is_err());
    }

    #[test]
    fn bench_emits_table_and_trace() {
        let dir = std::env::temp_dir().join("pressio_cli_bench");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("bench.jsonl");
        let mut buf = Vec::new();
        run(
            Command::Bench {
                dims: (12, 12, 6),
                timesteps: 1,
                workers: 2,
                trace: Some(trace.clone()),
                ablation: None,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("MedAPE"), "table missing:\n{text}");
        assert!(text.contains("## Observability report"));
        assert!(text.contains("sz3:compress"));
        let (events, skipped) = pressio_obs::read_trace(&trace).unwrap();
        assert_eq!(skipped, 0, "trace must be valid JSONL");
        assert!(events.iter().any(|e| e.name() == "queue:task"));
        assert!(events.iter().any(|e| e.name() == "table2:sz3:compress_ms"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_lossless_ablation_prints_the_payoff_table() {
        let mut buf = Vec::new();
        run(
            Command::Bench {
                dims: (12, 12, 6),
                timesteps: 1,
                workers: 1,
                trace: None,
                ablation: Some("lossless".into()),
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        // 13 fields at each of the four quick (size, bound) pairs
        assert_eq!(
            text.lines().filter(|l| l.contains("×")).count(),
            52,
            "{text}"
        );
        assert!(text.contains("| PRECIP | 16×16×8 | 1e-4 |"), "{text}");
        assert!(text.contains(" 0 where the trial skipped a pass that would have won"));
    }

    #[test]
    fn end_to_end_generate_compress_decompress_predict() {
        let dir = std::env::temp_dir().join("pressio_cli_e2e");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // generate a small hurricane
        let mut buf = Vec::new();
        run(
            Command::Generate {
                out: dir.join("raw"),
                dims: (16, 16, 8),
                timesteps: 1,
                stack: false,
            },
            &mut buf,
        )
        .unwrap();
        let input = dir.join("raw").join("TC-t00_16x16x8.f32");
        assert!(input.is_file(), "expected generated file at {input:?}");
        // compress
        let stream = dir.join("TC.szr");
        let mut buf = Vec::new();
        run(
            parse(&[
                "compress",
                "-i",
                input.to_str().unwrap(),
                "-o",
                stream.to_str().unwrap(),
                "-c",
                "sz3",
                "--abs",
                "1e-3",
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("ratio"));
        // decompress and check the bound
        let restored = dir.join("restored_16x16x8.f32");
        run(
            parse(&[
                "decompress",
                "-i",
                stream.to_str().unwrap(),
                "-o",
                restored.to_str().unwrap(),
                "-c",
                "sz3",
            ])
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let original = read_raw(&input).unwrap();
        let back = read_raw(&restored).unwrap();
        for (a, b) in original.to_f64_vec().iter().zip(back.to_f64_vec()) {
            assert!((a - b).abs() <= 1e-3);
        }
        // predict with a calculation scheme (no training state needed)
        let mut buf = Vec::new();
        run(
            parse(&[
                "predict",
                "-i",
                input.to_str().unwrap(),
                "-c",
                "sz3",
                "--scheme",
                "khan2023",
                "--abs",
                "1e-3",
                "--verify",
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("predicted compression ratio"));
        assert!(text.contains("actual"));
        // trainable scheme without state is a clear error
        let err = run(
            parse(&[
                "predict",
                "-i",
                input.to_str().unwrap(),
                "--scheme",
                "rahman2023",
            ])
            .unwrap(),
            &mut Vec::new(),
        );
        assert!(matches!(err, Err(Error::NotFitted(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_select() {
        let cmd = parse(&[
            "select",
            "compress",
            "-i",
            "U_4x4.f32",
            "-o",
            "U.psel",
            "--psnr",
            "50",
            "--bounds",
            "1e-4,1e-3",
            "--verify",
        ])
        .unwrap();
        match cmd {
            Command::Select {
                action,
                input,
                output,
                consult,
                verify,
                options,
                ..
            } => {
                assert_eq!(action, SelectAction::Compress);
                assert_eq!(input, Path::new("U_4x4.f32"));
                assert_eq!(output.as_deref(), Some(Path::new("U.psel")));
                assert_eq!(consult, "trial");
                assert!(verify);
                assert_eq!(options.get_f64("select:psnr").unwrap(), 50.0);
            }
            other => panic!("{other:?}"),
        }
        // the action is positional and mandatory
        assert!(parse(&["select"]).is_err());
        assert!(parse(&["select", "frobnicate", "-i", "x"]).is_err());
        // compress/decompress need an output, explain does not
        assert!(parse(&["select", "compress", "-i", "x"]).is_err());
        assert!(parse(&["select", "explain", "-i", "x.psel"]).is_ok());
        // remote consult needs an endpoint
        assert!(parse(&[
            "select",
            "compress",
            "-i",
            "x",
            "-o",
            "y",
            "--consult",
            "remote"
        ])
        .is_err());
        assert!(parse(&["select", "compress", "-i", "x", "--psnr", "sixty"]).is_err());
        assert!(parse(&["select", "compress", "-i", "x", "--bounds", "1e-4;1e-3"]).is_err());
    }

    #[test]
    fn select_compress_explain_decompress_roundtrip() {
        let dir = std::env::temp_dir().join("pressio_cli_select");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        run(
            Command::Generate {
                out: dir.join("raw"),
                dims: (12, 12, 6),
                timesteps: 1,
                stack: false,
            },
            &mut Vec::new(),
        )
        .unwrap();
        let input = dir.join("raw").join("TC-t00_12x12x6.f32");
        let container = dir.join("TC.psel");
        let mut buf = Vec::new();
        run(
            parse(&[
                "select",
                "compress",
                "-i",
                input.to_str().unwrap(),
                "-o",
                container.to_str().unwrap(),
                "--psnr",
                "60",
                "--verify",
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("selected"), "{text}");
        assert!(text.contains("via trial consult"), "{text}");
        assert!(text.contains("measured psnr"), "{text}");
        // explain prints the audited decision record
        let mut buf = Vec::new();
        run(
            parse(&["select", "explain", "-i", container.to_str().unwrap()]).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("select:codec"), "{text}");
        assert!(text.contains("select:policy"), "{text}");
        // header-driven decompression: no codec, dtype, or dims supplied
        let restored = dir.join("restored_12x12x6.f32");
        run(
            parse(&[
                "select",
                "decompress",
                "-i",
                container.to_str().unwrap(),
                "-o",
                restored.to_str().unwrap(),
            ])
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let original = read_raw(&input).unwrap();
        let back = read_raw(&restored).unwrap();
        assert_eq!(original.dims(), back.dims());
        // an output name that contradicts the header is rejected
        let lying = dir.join("restored_9x9x9.f32");
        let err = run(
            parse(&[
                "select",
                "decompress",
                "-i",
                container.to_str().unwrap(),
                "-o",
                lying.to_str().unwrap(),
            ])
            .unwrap(),
            &mut Vec::new(),
        );
        assert!(err.is_err(), "shape-lying output name must be rejected");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_stream_generate_stack_and_serve_online_flags() {
        let cmd = parse(&[
            "stream",
            "compress",
            "-i",
            "TC-stack_8x8x4x6.f32",
            "-o",
            "tc.pstf",
            "--codec",
            "zfp",
            "--chunk",
            "2",
            "--chained",
            "--abs",
            "1e-3",
        ])
        .unwrap();
        match cmd {
            Command::Stream {
                action,
                codec,
                chunk,
                chained,
                options,
                ..
            } => {
                assert_eq!(action, StreamAction::Compress);
                assert_eq!(codec, "zfp");
                assert_eq!(chunk, 2);
                assert!(chained);
                assert_eq!(options.get_f64("pressio:abs").unwrap(), 1e-3);
            }
            other => panic!("{other:?}"),
        }
        // structural requirements
        assert!(parse(&["stream", "compress", "-i", "x.f32"]).is_err());
        assert!(parse(&["stream", "send", "-i", "x.f32"]).is_err());
        assert!(parse(&["stream", "wat"]).is_err());
        assert!(parse(&["stream"]).is_err());
        assert!(parse(&["stream", "compress", "-i", "x.f32", "-o", "y", "--chunk", "0"]).is_err());
        let cmd = parse(&[
            "stream", "send", "-i", "x.f32", "--tcp", "h:1", "--model", "m", "--chunk", "3",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Stream {
                action: StreamAction::Send,
                chunk: 3,
                model: Some(ref m),
                ..
            } if m == "m"
        ));
        let cmd = parse(&["generate", "--out", "d", "--stack", "--timesteps", "4"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Generate {
                stack: true,
                timesteps: 4,
                ..
            }
        ));
        let cmd = parse(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--models",
            "/tmp/m",
            "--online",
            "--online-window",
            "16",
            "--refit-every",
            "2",
            "--max-frame-mb",
            "4",
        ])
        .unwrap();
        match cmd {
            Command::Serve {
                online,
                online_window,
                refit_every,
                max_frame_mb,
                ..
            } => {
                assert!(online);
                assert_eq!(online_window, 16);
                assert_eq!(refit_every, 2);
                assert_eq!(max_frame_mb, 4);
            }
            other => panic!("{other:?}"),
        }
        // defaults: online off, protocol-default frame cap, journaled
        // sessions reaped after five idle minutes
        let cmd = parse(&["serve", "--tcp", "127.0.0.1:0", "--models", "/tmp/m"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                online: false,
                max_frame_mb: 0,
                stream_idle_secs: 300,
                stream_journal: true,
                ..
            }
        ));
        // resume/reap knobs
        let cmd = parse(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--models",
            "/tmp/m",
            "--stream-idle-secs",
            "7",
            "--no-stream-journal",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                stream_idle_secs: 7,
                stream_journal: false,
                ..
            }
        ));
        let err = parse(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--models",
            "/tmp/m",
            "--stream-idle-secs",
            "soon",
        ]);
        assert!(err.is_err(), "--stream-idle-secs must be numeric");
    }

    #[test]
    fn stream_compress_info_decompress_roundtrip() {
        let dir = std::env::temp_dir().join("pressio_cli_stream");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // a stacked 4-D time series: 5 timesteps along the outer axis
        run(
            Command::Generate {
                out: dir.join("raw"),
                dims: (6, 6, 2),
                timesteps: 5,
                stack: true,
            },
            &mut Vec::new(),
        )
        .unwrap();
        let input = dir.join("raw").join("TC-stack_6x6x2x5.f32");
        assert!(input.is_file(), "expected stacked field at {input:?}");

        let stream = dir.join("TC.pstf");
        let mut buf = Vec::new();
        run(
            parse(&[
                "stream",
                "compress",
                "-i",
                input.to_str().unwrap(),
                "-o",
                stream.to_str().unwrap(),
                "--chunk",
                "2",
                "--abs",
                "1e-4",
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("3 chunks"), "{text}");

        let mut buf = Vec::new();
        run(
            parse(&["stream", "info", "-i", stream.to_str().unwrap()]).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("codec sz3"), "{text}");
        assert!(text.contains("3 chunks, 5 outer slices"), "{text}");

        let restored = dir.join("TC-restored_6x6x2x5.f32");
        run(
            parse(&[
                "stream",
                "decompress",
                "-i",
                stream.to_str().unwrap(),
                "-o",
                restored.to_str().unwrap(),
            ])
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let original = read_raw(&input).unwrap();
        let back = read_raw(&restored).unwrap();
        assert_eq!(original.dims(), back.dims());
        let (o, b) = (original.to_f64_vec(), back.to_f64_vec());
        let worst = o
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= 1e-4 * 1.01 + 2e-3, "bound violated: {worst}");

        // an output name that contradicts the frame header is rejected
        let lying = dir.join("TC-bad_9x9x9.f32");
        let err = run(
            parse(&[
                "stream",
                "decompress",
                "-i",
                stream.to_str().unwrap(),
                "-o",
                lying.to_str().unwrap(),
            ])
            .unwrap(),
            &mut Vec::new(),
        );
        assert!(err.is_err(), "shape-lying output name must be rejected");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_send_runs_against_a_live_online_daemon() {
        let dir = std::env::temp_dir().join("pressio_cli_stream_send");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        run(
            Command::Generate {
                out: dir.join("raw"),
                dims: (8, 8, 2),
                timesteps: 8,
                stack: true,
            },
            &mut Vec::new(),
        )
        .unwrap();
        let input = dir.join("raw").join("TC-stack_8x8x2x8.f32");

        let mut config = pressio_serve::ServeConfig::new(
            pressio_serve::Endpoint::Tcp("127.0.0.1:0".into()),
            dir.join("models"),
        );
        config.online = true;
        config.online_refit_every = 3;
        let handle = pressio_serve::Server::start(config).unwrap();
        let addr = match handle.endpoint() {
            pressio_serve::Endpoint::Tcp(a) => a.clone(),
            other => panic!("expected a TCP endpoint, got {other}"),
        };
        let mut client = pressio_serve::Client::connect(handle.endpoint()).unwrap();
        let trained = client
            .call(
                &Options::new()
                    .with("serve:op", "train")
                    .with("serve:model", "hurr")
                    .with("serve:scheme", "rahman2023")
                    .with("serve:dims", vec![8u64, 8, 2])
                    .with("serve:timesteps", 1u64)
                    .with("serve:bounds", vec![1e-4]),
            )
            .unwrap();
        assert_eq!(trained.get_str("serve:type").unwrap(), "trained");

        let mut buf = Vec::new();
        run(
            parse(&[
                "stream",
                "send",
                "-i",
                input.to_str().unwrap(),
                "--tcp",
                &addr,
                "--model",
                "hurr",
                "--chunk",
                "1",
                "--abs",
                "1e-4",
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("online=true"), "{text}");
        assert!(text.contains("chunk 1 "), "{text}");
        assert!(text.contains("chunk 8 "), "{text}");
        assert!(text.contains("rolling error"), "{text}");
        assert!(text.contains("ended: 8 chunks"), "{text}");
        assert!(text.contains("online refits"), "{text}");

        client.shutdown().unwrap();
        handle.wait().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
