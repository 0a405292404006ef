//! The flag table. Every `pressio` flag is one row of [`FLAGS`]: its
//! spellings, the verbs that read it, what its value must be, where the
//! value lands in [`Args`] and — for the rows a shard child must inherit —
//! how to say it back ([`Flag::show`], walked by [`crate::spawn`]).
//! [`parse`] is a walk over the table; nothing else in the crate names a
//! flag, so an option is spelled once.

use crate::serve::Serve as ServeCommand;
use pressio_core::error::{Error, Result};
use pressio_core::Options;
use pressio_serve::{Endpoint, ServeConfig};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::str::FromStr;

/// The subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verb {
    Schemes,
    Compressors,
    Generate,
    Compress,
    Decompress,
    Predict,
    Bench,
    Serve,
    Query,
    Select,
    Stream,
}
use Verb::*;

/// Every verb, under the name it is typed as.
pub(crate) const VERBS: [(&str, Verb); 11] = [
    ("schemes", Schemes),
    ("compressors", Compressors),
    ("generate", Generate),
    ("compress", Compress),
    ("decompress", Decompress),
    ("predict", Predict),
    ("bench", Bench),
    ("serve", Serve),
    ("query", Query),
    ("select", Select),
    ("stream", Stream),
];

impl Verb {
    pub(crate) fn name(self) -> &'static str {
        let (name, _) = VERBS.iter().find(|(_, v)| *v == self).expect("every verb");
        name
    }
}

/// Where flag values land, at their defaults until a flag says otherwise;
/// each verb's constructor takes the fields its rows write.
pub(crate) struct Args {
    /// The positional action of `select` and `stream`.
    pub action: Option<String>,
    pub input: Option<PathBuf>,
    pub output: Option<PathBuf>,
    pub compressor: String,
    pub scheme: Option<String>,
    pub state: Option<PathBuf>,
    pub verify: bool,
    /// Compressor and selection options (`pressio:abs`, `select:psnr`, …).
    pub options: Options,
    pub dims: (usize, usize, usize),
    pub timesteps: usize,
    /// `bench`: Table 2 keeps `workers + 1` threads busy on one pool of
    /// truth, feature and fold tasks; `serve`: pipeline workers.
    pub workers: usize,
    pub trace: Option<PathBuf>,
    pub ablation: Option<String>,
    pub endpoint: Option<Endpoint>,
    pub op: Option<String>,
    pub model: Option<String>,
    pub shards: usize,
    pub route: bool,
    pub consult: String,
    pub chunk: usize,
    pub chained: bool,
    pub stack: bool,
    /// Fault-injection schedule (see pressio-faults), activated
    /// process-wide once the walk is over.
    faults: Option<String>,
    /// The daemon's tunables. The serve constructor fills `listen` and
    /// `workers` in from `endpoint` and `workers` above; an empty
    /// `model_dir` means `--models` was not given.
    pub serve: ServeConfig,
}

impl Args {
    fn new() -> Args {
        Args {
            action: None,
            input: None,
            output: None,
            compressor: "sz3".into(),
            scheme: None,
            state: None,
            verify: false,
            options: Options::new(),
            dims: (64, 64, 32),
            timesteps: 1,
            workers: 2,
            trace: None,
            ablation: None,
            endpoint: None,
            op: None,
            model: None,
            shards: 0,
            route: false,
            consult: "trial".into(),
            chunk: 1,
            chained: false,
            stack: false,
            faults: None,
            serve: ServeConfig::new(Endpoint::Tcp(String::new()), PathBuf::new()),
        }
    }
}

type Verbs = &'static [Verb];

/// One row of the table.
pub(crate) struct Flag {
    /// Every spelling; the first is the one usage text and shard argv use.
    pub names: &'static [&'static str],
    /// The verbs that read it (any other verb rejects it); empty for the
    /// two that act process-wide, which every verb accepts.
    verbs: Verbs,
    /// What the value must be, as in "`--abs` needs a number"; empty for a
    /// switch, which takes none.
    pub needs: &'static str,
    /// Put the value where it lands; `None` if it is not what `needs` says.
    set: fn(&mut Args, &str) -> Option<()>,
    /// How a shard child is told: `None` from the function leaves the flag
    /// off, `Some` is its value (ignored for a switch). Rows without one
    /// are not a shard's business.
    pub show: Option<fn(&ServeCommand) -> Option<String>>,
}

impl Flag {
    const fn shown(mut self, show: fn(&ServeCommand) -> Option<String>) -> Flag {
        self.show = Some(show);
        self
    }

    pub(crate) fn read_by(&self, verb: Verb) -> bool {
        self.verbs.is_empty() || self.verbs.contains(&verb)
    }
}

const fn flag(
    names: &'static [&'static str],
    verbs: Verbs,
    needs: &'static str,
    set: fn(&mut Args, &str) -> Option<()>,
) -> Flag {
    let show = None;
    Flag {
        names,
        verbs,
        needs,
        set,
        show,
    }
}

fn to<T: FromStr>(slot: &mut T, text: &str) -> Option<()> {
    *slot = text.parse().ok()?;
    Some(())
}

fn put<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    *slot = Some(value);
    Some(())
}

fn some<T: FromStr>(slot: &mut Option<T>, text: &str) -> Option<()> {
    put(slot, text.parse().ok()?)
}

fn on(slot: &mut bool) -> Option<()> {
    *slot = true;
    Some(())
}

fn list<T: FromStr>(text: &str) -> Option<Vec<T>> {
    text.split(',').map(|part| part.parse().ok()).collect()
}

/// Land in `a.options` under `key`.
fn option(a: &mut Args, key: &str, value: Option<impl Into<pressio_core::Value>>) -> Option<()> {
    a.options.set(key, value?);
    Some(())
}

fn real(text: &str) -> Option<f64> {
    text.parse().ok()
}

fn say(value: impl ToString) -> Option<String> {
    Some(value.to_string())
}

fn set_dims(a: &mut Args, text: &str) -> Option<()> {
    let [x, y, z] = list(text)?[..] else {
        return None;
    };
    a.dims = (x, y, z);
    Some(())
}

/// One knob everywhere: the per-compressor option plus the process-wide
/// override (feature extraction, bulk dataset loads). 0 restores
/// auto-detection.
fn set_threads(a: &mut Args, text: &str) -> Option<()> {
    let threads: usize = text.parse().ok()?;
    pressio_core::threads::set_global_threads(threads);
    option(a, "pressio:nthreads", Some(threads as u64))
}

/// A whole number of MiB; 0 keeps the protocol default.
fn set_max_frame(a: &mut Args, text: &str) -> Option<()> {
    let mib: usize = text.parse().ok()?;
    if mib > 0 {
        a.serve.max_frame = mib << 20;
    }
    Some(())
}

fn set_socket(a: &mut Args, text: &str) -> Option<()> {
    #[cfg(unix)]
    return put(&mut a.endpoint, Endpoint::Unix(text.into()));
    #[cfg(not(unix))]
    None
}

fn show_socket(s: &ServeCommand) -> Option<String> {
    match &s.config.listen {
        #[cfg(unix)]
        Endpoint::Unix(path) => say(path.display()),
        Endpoint::Tcp(_) => None,
    }
}

fn show_tcp(s: &ServeCommand) -> Option<String> {
    match &s.config.listen {
        Endpoint::Tcp(addr) => say(addr),
        #[cfg(unix)]
        Endpoint::Unix(_) => None,
    }
}

const PATH: &str = "a path";
const NAME: &str = "a name";
const NUM: &str = "a number";
const READS_INPUT: Verbs = &[Compress, Decompress, Predict, Query, Select, Stream];
const WRITES_OUTPUT: Verbs = &[Generate, Compress, Decompress, Select, Stream];
const NAMES_CODEC: Verbs = &[Compress, Decompress, Predict, Query, Stream];
const TUNES_CODEC: Verbs = &[Compress, Predict, Query, Stream];
const GRID: Verbs = &[Generate, Bench, Query];
const DIALS: Verbs = &[Serve, Query, Select, Stream];
const SERVE: Verbs = &[Serve];

/// The table (laid out by hand: a row is a line, or two when it has a
/// `shown` half). That half must undo the row's setter — `spawn`'s
/// round-trip test holds every one of them to it.
#[rustfmt::skip]
pub(crate) static FLAGS: [Flag; 41] = [
    flag(&["-i", "--input"], READS_INPUT, PATH, |a, v| some(&mut a.input, v)),
    flag(&["-o", "--output", "--out"], WRITES_OUTPUT, PATH, |a, v| some(&mut a.output, v)),
    flag(&["-c", "--compressor", "--codec"], NAMES_CODEC, NAME, |a, v| to(&mut a.compressor, v)),
    flag(&["--scheme"], &[Predict, Bench, Query, Stream], NAME, |a, v| some(&mut a.scheme, v)),
    flag(&["--state"], &[Predict], PATH, |a, v| some(&mut a.state, v)),
    flag(&["--verify"], &[Predict, Select], "", |a, _| on(&mut a.verify)),
    flag(&["--abs"], TUNES_CODEC, NUM, |a, v| option(a, "pressio:abs", real(v))),
    flag(&["--rel"], TUNES_CODEC, NUM, |a, v| option(a, "pressio:rel", real(v))),
    flag(&["--predictor"], TUNES_CODEC, NAME, |a, v| option(a, "sz3:predictor", Some(v))),
    flag(&["--mode"], TUNES_CODEC, NAME, |a, v| option(a, "zfp:mode", Some(v))),
    flag(&["--rate"], TUNES_CODEC, NUM, |a, v| option(a, "zfp:rate", real(v))),
    flag(&["--dims"], GRID, "NX,NY,NZ", set_dims),
    flag(&["--timesteps"], GRID, NUM, |a, v| to(&mut a.timesteps, v)),
    flag(&["--ablation"], &[Bench], NAME, |a, v| some(&mut a.ablation, v)),
    flag(&["--op"], &[Query], "an operation", |a, v| some(&mut a.op, v)),
    flag(&["--model"], &[Query, Select, Stream], "a model reference", |a, v| some(&mut a.model, v)),
    flag(&["--route"], &[Query], "", |a, _| on(&mut a.route)),
    flag(&["--consult"], &[Select], "trial, remote or static", |a, v| to(&mut a.consult, v)),
    flag(&["--psnr"], &[Select], "a number (dB)", |a, v| option(a, "select:psnr", real(v))),
    flag(&["--bounds"], &[Select], "B1,B2,...", |a, v| option(a, "select:bounds", list::<f64>(v))),
    flag(&["--chunk"], &[Stream], "a number of outer slices", |a, v| to(&mut a.chunk, v)),
    flag(&["--chained"], &[Stream], "", |a, _| on(&mut a.chained)),
    flag(&["--stack"], &[Generate], "", |a, _| on(&mut a.stack)),
    flag(&["--threads"], &[], NUM, set_threads),
    flag(&["--faults"], &[], "a fault schedule", |a, v| some(&mut a.faults, v)),
    // what `serve` reads, each with the way a shard child is told
    flag(&["--socket"], DIALS, "a socket path, on a Unix platform", set_socket).shown(show_socket),
    flag(&["--tcp"], DIALS, "host:port", |a, v| put(&mut a.endpoint, Endpoint::Tcp(v.into())))
        .shown(show_tcp),
    flag(&["--models"], SERVE, PATH, |a, v| to(&mut a.serve.model_dir, v))
        .shown(|s| say(s.config.model_dir.display())),
    flag(&["--workers"], &[Bench, Serve], NUM, |a, v| to(&mut a.workers, v))
        .shown(|s| say(s.config.workers)),
    flag(&["--queue"], SERVE, NUM, |a, v| to(&mut a.serve.queue_capacity, v))
        .shown(|s| say(s.config.queue_capacity)),
    flag(&["--batch"], SERVE, NUM, |a, v| to(&mut a.serve.batch_max, v))
        .shown(|s| say(s.config.batch_max)),
    flag(&["--cache"], SERVE, NUM, |a, v| to(&mut a.serve.cache_entries, v))
        .shown(|s| say(s.config.cache_entries)),
    flag(&["--deadline"], SERVE, "milliseconds", |a, v| to(&mut a.serve.default_deadline_ms, v))
        .shown(|s| say(s.config.default_deadline_ms)),
    flag(&["--trace"], &[Bench, Serve], PATH, |a, v| some(&mut a.trace, v))
        .shown(|s| say(s.trace.as_ref()?.display())),
    flag(&["--shards"], SERVE, NUM, |a, v| to(&mut a.shards, v))
        .shown(|s| (s.shards > 0).then(|| s.shards.to_string())),
    flag(&["--shard-index"], SERVE, NUM, |a, v| some(&mut a.serve.shard_index, v))
        .shown(|s| say(s.config.shard_index?)),
    flag(&["--online"], SERVE, "", |a, _| on(&mut a.serve.online))
        .shown(|s| s.config.online.then(String::new)),
    flag(&["--online-window"], SERVE, NUM, |a, v| to(&mut a.serve.online_window, v))
        .shown(|s| say(s.config.online_window)),
    flag(&["--refit-every"], SERVE, NUM, |a, v| to(&mut a.serve.online_refit_every, v))
        .shown(|s| say(s.config.online_refit_every)),
    flag(&["--max-frame-mb"], SERVE, "a number of MiB", set_max_frame)
        .shown(|s| say(s.config.max_frame >> 20)),
    flag(&["--stream-idle-secs"], SERVE, "seconds", |a, v| to(&mut a.serve.stream_idle_secs, v))
        .shown(|s| say(s.config.stream_idle_secs)),
];

/// Walk `argv` (the words after the verb) into an [`Args`]: every word is
/// a flag `verb` reads, followed by its value unless it is a switch.
pub(crate) fn parse(verb: Verb, mut argv: VecDeque<String>) -> Result<Args> {
    let mut args = Args::new();
    if matches!(verb, Select | Stream) {
        args.action = argv.pop_front();
    }
    while let Some(word) = argv.pop_front() {
        let flag = FLAGS
            .iter()
            .find(|flag| flag.names.contains(&word.as_str()))
            .ok_or_else(|| usage_error(&format!("unknown flag '{word}'")))?;
        if !flag.read_by(verb) {
            let read = FLAGS.iter().filter(|flag| flag.read_by(verb));
            let spelled: Vec<String> = read.map(|flag| flag.names.join("|")).collect();
            return Err(usage_error(&format!(
                "{} does not read {word}; its flags: {}",
                verb.name(),
                spelled.join(", ")
            )));
        }
        let value = match flag.needs {
            "" => String::new(),
            _ => argv.pop_front().ok_or_else(|| Error::InvalidValue {
                key: word.clone(),
                reason: "missing value".into(),
            })?,
        };
        (flag.set)(&mut args, &value)
            .ok_or_else(|| usage_error(&format!("{} needs {}", flag.names[0], flag.needs)))?;
    }
    if let Some(spec) = &args.faults {
        pressio_faults::configure(spec)?;
    }
    Ok(args)
}

/// A usage error: `msg`, then the verbs there are.
pub(crate) fn usage_error(msg: &str) -> Error {
    let verbs: Vec<&str> = VERBS.iter().map(|(name, _)| *name).collect();
    Error::InvalidValue {
        key: "cli".into(),
        reason: format!("{msg}\nusage: pressio <{}> [flags]", verbs.join("|")),
    }
}
