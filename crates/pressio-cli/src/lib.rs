//! # pressio-cli
//!
//! Command-line front end for the LibPressio-Predict reproduction — the
//! "embeddable, library-based" stack (paper §3) exposed as a tool a
//! downstream user can drive without writing Rust:
//!
//! ```text
//! pressio schemes                                   # Table 1: the schemes' taxonomy
//! pressio compressors                               # list compressors
//! pressio generate --out dir [--dims 64,64,32] [--timesteps 2]
//! pressio compress -i U_64x64x32.f32 -o U.szr -c sz3 --abs 1e-4
//! pressio decompress -i U.szr -o restored_64x64x32.f32 -c sz3
//! pressio predict -i U_64x64x32.f32 -c sz3 --scheme khan2023 --abs 1e-4
//! pressio bench --dims 32,32,16 --timesteps 6 --trace /tmp/bench.jsonl   # Table 2
//! pressio bench --scheme all --dims 16,16,8         # Table 2 with every scheme
//! pressio bench --ablation fig2 --dims 16,16,8      # Figure 2: the loader pipeline
//! pressio bench --ablation checkpoint --dims 16,16,8  # restart-speedup ablation
//! pressio bench --ablation tao_sweep --dims 16,16,8 --timesteps 1   # also: affinity,
//!     # bandwidth, datasets, insample, invalidation, lorenzo, lossless, rahman
//! pressio bench --faults 'store:put.io=err,times=1'   # fault injection (pressio-faults)
//! pressio serve --socket /tmp/pressio.sock --models /tmp/models
//! pressio query --socket /tmp/pressio.sock --op ping
//! ```
//!
//! Raw files carry their shape in the filename (`NAME_NXxNY[...].f32`), so
//! decompression targets are self-describing.
//!
//! Layout: `args` holds the one flag table (a row per flag: spellings,
//! value, the verbs that read it, where it lands) and the walk over it;
//! each verb's module — [`codec`] (compress / decompress / predict and the
//! two listings), [`generate`], [`bench`] (with [`studies`], the paper's
//! experiments beside Table 2), [`serve`], [`query`], [`select`],
//! [`stream`] — holds the constructor that turns the walked
//! arguments into its [`Command`] and the function that runs it. This file
//! is [`Command`], [`parse_args`] and the [`run`] dispatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// keeps a verb a reader can hold in their head (default limit: 100 lines)
#![warn(clippy::too_many_lines)]

mod args;
pub mod bench;
pub mod codec;
pub mod generate;
pub mod query;
pub mod select;
pub mod serve;
pub mod stream;
pub mod studies;
#[cfg(test)]
mod tests;

use args::{usage_error, Verb, VERBS};
use pressio_core::error::Result;
pub use select::SelectAction;
pub use stream::StreamAction;

/// A parsed command line: the verb, carrying what its module's
/// constructor made of the flags.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print Table 1 of the paper from the registered schemes' metadata.
    Schemes,
    /// List registered compressors.
    Compressors,
    /// Generate synthetic hurricane fields as raw files.
    Generate(generate::Generate),
    /// Compress a raw file.
    Compress(codec::Compress),
    /// Decompress a stream back to a raw file.
    Decompress(codec::Decompress),
    /// Predict the compression ratio without compressing.
    Predict(codec::Predict),
    /// Run Table 2 of the paper on a synthetic hurricane, or one of the
    /// paper's other studies via `--ablation`, optionally writing a
    /// structured JSONL trace.
    Bench(bench::Bench),
    /// Run the online prediction daemon.
    Serve(serve::Serve),
    /// Send one request to a running daemon and print the JSON response.
    Query(query::Query),
    /// Auto-select the compressor per buffer (`pressio-select` meta-codec):
    /// `pressio select <compress|decompress|explain>`.
    Select(select::Select),
    /// Chunked streaming frames (`pressio-stream`): turn a raw field into
    /// a PSTF stream (and back), inspect one, or send a field
    /// chunk-at-a-time to a live daemon for per-chunk predictions:
    /// `pressio stream <compress|decompress|info|send>`.
    Stream(stream::Stream),
}

/// Parse a command line (without the program name): the verb, then a walk
/// of the flag table, then the verb's constructor.
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Command> {
    let mut argv: std::collections::VecDeque<String> = argv.into_iter().collect();
    let name = argv
        .pop_front()
        .ok_or_else(|| usage_error("no subcommand"))?;
    let (_, verb) = VERBS
        .into_iter()
        .find(|(typed, _)| *typed == name)
        .ok_or_else(|| usage_error(&format!("unknown subcommand '{name}'")))?;
    let args = args::parse(verb, argv)?;
    Ok(match verb {
        Verb::Schemes => Command::Schemes,
        Verb::Compressors => Command::Compressors,
        Verb::Generate => Command::Generate(generate::Generate::from_args(args)?),
        Verb::Compress => Command::Compress(codec::Compress::from_args(args)?),
        Verb::Decompress => Command::Decompress(codec::Decompress::from_args(args)?),
        Verb::Predict => Command::Predict(codec::Predict::from_args(args)?),
        Verb::Bench => Command::Bench(bench::Bench::from_args(args)?),
        Verb::Serve => Command::Serve(serve::Serve::from_args(args)?),
        Verb::Query => Command::Query(query::Query::from_args(args)?),
        Verb::Select => Command::Select(select::Select::from_args(args)?),
        Verb::Stream => Command::Stream(stream::Stream::from_args(args)?),
    })
}

/// Execute a parsed command, writing human output to `out`.
pub fn run(cmd: Command, out: &mut impl std::io::Write) -> Result<()> {
    match cmd {
        Command::Schemes => codec::list_schemes(out),
        Command::Compressors => codec::list_compressors(out),
        Command::Generate(cmd) => cmd.run(out),
        Command::Compress(cmd) => cmd.run(out),
        Command::Decompress(cmd) => cmd.run(out),
        Command::Predict(cmd) => cmd.run(out),
        Command::Bench(cmd) => cmd.run(out),
        Command::Serve(cmd) => cmd.run(out),
        Command::Query(cmd) => cmd.run(out),
        Command::Select(cmd) => cmd.run(out),
        Command::Stream(cmd) => cmd.run(out),
    }
}
