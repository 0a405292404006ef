//! The CLI's tests, grouped by verb. (They stay in one `tests` module so
//! their names in the suite do not move.)

use super::*;
use pressio_core::error::Error;
use pressio_core::Options;
use pressio_dataset::io::read_raw;
use std::path::{Path, PathBuf};

/// `line` is a command line without the program name, split on whitespace.
fn parse(line: &str) -> Result<Command> {
    parse_args(line.split_whitespace().map(String::from))
}

/// Parse and run `line`, returning what it printed.
fn run_line(line: &str) -> Result<String> {
    let mut buf = Vec::new();
    run(parse(line)?, &mut buf)?;
    Ok(String::from_utf8(buf).unwrap())
}

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn worst_error(a: &Path, b: &Path) -> f64 {
    let (a, b) = (read_raw(a).unwrap(), read_raw(b).unwrap());
    assert_eq!(a.dims(), b.dims());
    let pairs = a.to_f64_vec().into_iter().zip(b.to_f64_vec());
    pairs.map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// The fault schedule is process-wide; the tests that set it take turns.
static FAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

// ---- every verb ------------------------------------------------------------

#[test]
fn rejects_bad_input() {
    assert!(parse("").is_err());
    assert!(parse("frobnicate").is_err());
    assert!(parse("compress -o x").is_err()); // no input
    assert!(parse("compress -i x").is_err()); // no output
    assert!(parse("predict -i x --abs nope").is_err());
    assert!(parse("compress -i").is_err()); // dangling flag
}

#[test]
fn listing_commands_run() {
    let text = run_line("schemes").unwrap();
    assert!(text.contains("rahman2023"));
    assert!(text.contains("deep learning"));
    let text = run_line("compressors").unwrap();
    assert!(text.contains("sz3"));
    assert!(text.contains("zfp"));
}

#[test]
fn faults_flag_activates_the_registry_and_rejects_bad_specs() {
    let _turn = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    // a site no real code path hits, so concurrent tests are unaffected
    let cmd = parse("bench --faults clitest:site=err,times=1").unwrap();
    assert!(matches!(cmd, Command::Bench(_)));
    assert!(pressio_faults::enabled());
    assert!(pressio_faults::inject("clitest:site").is_err());
    pressio_faults::clear();
    assert!(parse_args(["bench", "--faults", "not a valid spec"].map(String::from)).is_err());
    assert!(parse("bench --faults").is_err(), "missing value");
}

#[test]
fn threads_flag_sets_option_and_global_override() {
    let Command::Compress(cmd) = parse("compress -i U_4x4.f32 -o U.szr --threads 3").unwrap()
    else {
        panic!("not a compress");
    };
    assert_eq!(cmd.options.get_u64("pressio:nthreads").unwrap(), 3);
    assert_eq!(pressio_core::threads::resolve(None), 3);
    pressio_core::threads::set_global_threads(0);
    assert!(parse("bench --threads none").is_err());
}

/// Flags belong to verbs: each verb's walk takes every flag the table
/// says it reads, and turns every other flag down by name.
#[test]
fn every_verb_reads_its_own_flags_and_no_others() {
    for (name, verb) in args::VERBS {
        for flag in &args::FLAGS {
            let process_wide = args::VERBS.iter().all(|(_, v)| flag.read_by(*v));
            if process_wide {
                continue; // would act on this process; they have their own tests
            }
            let value = if flag.needs.contains(',') {
                "4,4,2"
            } else {
                "3"
            };
            for spelling in flag.names {
                let mut argv = vec!["act", spelling];
                if !flag.needs.is_empty() {
                    argv.push(value);
                }
                let takes_action = matches!(verb, Verb::Select | Verb::Stream);
                let words = argv[usize::from(!takes_action)..].iter();
                let walked = args::parse(verb, words.map(|w| w.to_string()).collect());
                match (flag.read_by(verb), walked) {
                    (true, Ok(_)) => {}
                    (true, Err(e)) => panic!("{name} must read {spelling}: {e}"),
                    (false, Ok(_)) => panic!("{name} must not take {spelling}"),
                    (false, Err(e)) => {
                        let text = e.to_string();
                        assert!(text.contains(&format!("{name} does not read {spelling}")));
                        assert!(text.contains("its flags:"), "{text}");
                        assert!(text.contains("usage: pressio <schemes|"), "{text}");
                    }
                }
            }
        }
    }
    // the case that ran, and ignored three flags, at the parent
    let err = parse("generate --out d --queue 3 --online --psnr 50").unwrap_err();
    assert!(err.to_string().contains("generate does not read --queue"));
    assert!(err.to_string().contains("--stack"), "{err}");
}

/// Every `pressio …` line of the crate-level doc block is a command line
/// the parser takes.
#[test]
fn every_documented_command_line_parses() {
    let _turn = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let doc_lines = include_str!("../lib.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//! pressio "));
    let mut seen = 0;
    for line in doc_lines {
        let line = line.split(" #").next().unwrap();
        let words = line.split_whitespace().map(|word| match word {
            "[--dims" | "[--timesteps" => word[1..].to_string(),
            "64,64,32]" | "2]" => word[..word.len() - 1].to_string(),
            // the schedule is process-wide: keep the flag, aim it at a
            // site nothing hits
            "'store:put.io=err,times=1'" => "clitest:doc=err,times=1".to_string(),
            _ => word.to_string(),
        });
        parse_args(words).unwrap_or_else(|e| panic!("`pressio {line}`: {e}"));
        pressio_faults::clear();
        seen += 1;
    }
    assert_eq!(seen, 14, "the doc block's command lines");
}

// ---- compress / decompress / predict ---------------------------------------

#[test]
fn parses_compress() {
    let line = "compress -i U_4x4.f32 -o U.szr -c sz3 --abs 1e-3 --predictor hybrid";
    let Command::Compress(cmd) = parse(line).unwrap() else {
        panic!("not a compress");
    };
    assert_eq!(cmd.input, Path::new("U_4x4.f32"));
    assert_eq!(cmd.output, Path::new("U.szr"));
    assert_eq!(cmd.compressor, "sz3");
    assert_eq!(cmd.options.get_f64("pressio:abs").unwrap(), 1e-3);
    assert_eq!(cmd.options.get_str("sz3:predictor").unwrap(), "hybrid");
}

#[test]
fn end_to_end_generate_compress_decompress_predict() {
    let dir = scratch("pressio_cli_e2e");
    // generate a small hurricane
    let raw = dir.join("raw");
    run_line(&format!("generate --out {} --dims 16,16,8", raw.display())).unwrap();
    let input = raw.join("TC-t00_16x16x8.f32");
    assert!(input.is_file(), "expected generated file at {input:?}");
    let input_arg = input.display();
    // compress
    let stream = dir.join("TC.szr");
    let stream_arg = stream.display();
    let text = run_line(&format!(
        "compress -i {input_arg} -o {stream_arg} -c sz3 --abs 1e-3"
    ))
    .unwrap();
    assert!(text.contains("ratio"));
    // decompress and check the bound
    let restored = dir.join("restored_16x16x8.f32");
    run_line(&format!(
        "decompress -i {stream_arg} -o {} -c sz3",
        restored.display()
    ))
    .unwrap();
    assert!(worst_error(&input, &restored) <= 1e-3);
    // predict with a calculation scheme (no training state needed)
    let text = run_line(&format!(
        "predict -i {input_arg} -c sz3 --scheme khan2023 --abs 1e-3 --verify"
    ))
    .unwrap();
    assert!(text.contains("predicted compression ratio"));
    assert!(text.contains("actual"));
    // trainable scheme without state is a clear error
    let err = run_line(&format!("predict -i {input_arg} --scheme rahman2023"));
    assert!(matches!(err, Err(Error::NotFitted(_))));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- bench ----------------------------------------------------------------

/// The trace collector is process-wide; the tests that install it take turns.
static TRACE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn bench(line: &str) -> bench::Bench {
    match parse(line).unwrap() {
        Command::Bench(cmd) => cmd,
        other => panic!("not a bench: {other:?}"),
    }
}

#[test]
fn parses_bench_with_trace() {
    let cmd = parse("bench --dims 8,8,4 --timesteps 2 --workers 3 --trace /tmp/t.jsonl").unwrap();
    assert_eq!(
        cmd,
        Command::Bench(bench::Bench {
            study: studies::Study {
                dims: (8, 8, 4),
                timesteps: 2,
                workers: 3,
                quick: false,
            },
            schemes: vec!["khan2023".into(), "jin2022".into(), "rahman2023".into()],
            trace: Some(PathBuf::from("/tmp/t.jsonl")),
            ablation: None,
        })
    );
}

#[test]
fn dims_and_timesteps_parse() {
    let study = bench("bench --dims 10,20,30 --timesteps 5 --workers 2").study;
    assert_eq!(
        (study.dims, study.timesteps, study.workers),
        ((10, 20, 30), 5, 2)
    );
    assert!(!study.quick);
    // `--timesteps 1`, the default, is each study's quick preset
    assert!(bench("bench --dims 10,20,30").study.quick);
    // a word that is not a number is refused, not dropped
    assert!(parse("bench --dims 8,x,4").is_err());
    assert!(parse("bench --dims 8,4").is_err());
}

#[test]
fn all_schemes_expands_list() {
    let registry = pressio_predict::standard_schemes();
    assert_eq!(bench("bench --scheme all").schemes, registry.names());
    assert_eq!(
        bench("bench --scheme khan2023,rahman2023").schemes,
        ["khan2023", "rahman2023"]
    );
    assert_eq!(
        bench("bench").schemes,
        ["khan2023", "jin2022", "rahman2023"]
    );
    let err = parse("bench --scheme khan2023,nope").unwrap_err();
    assert!(err.to_string().contains("unknown scheme 'nope'"), "{err}");
}

#[test]
fn bench_emits_table_and_trace() {
    let _turn = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("pressio_cli_bench");
    let trace = dir.join("bench.jsonl");
    let text = run_line(&format!(
        "bench --dims 12,12,6 --workers 2 --trace {}",
        trace.display()
    ))
    .unwrap();
    assert!(text.contains("MedAPE"), "table missing:\n{text}");
    assert!(text.contains("## Observability report"));
    assert!(text.contains("sz3:compress"));
    let (events, skipped) = pressio_obs::read_trace(&trace).unwrap();
    assert_eq!(skipped, 0, "trace must be valid JSONL");
    assert!(events.iter().any(|e| e.name() == "queue:task"));
    assert!(events.iter().any(|e| e.name() == "table2:sz3:compress_ms"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A study's run is traced and reported as Table 2's is.
#[test]
fn trace_flag_parses_and_round_trips() {
    let _turn = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("pressio_cli_study_trace");
    let trace = dir.join("study.jsonl");
    let line = format!(
        "bench --ablation checkpoint --dims 8,8,4 --workers 1 --trace {}",
        trace.display()
    );
    assert_eq!(bench(&line).trace.as_deref(), Some(trace.as_path()));
    let text = run_line(&line).unwrap();
    assert!(
        text.starts_with("# Ablation: checkpointed restart"),
        "{text}"
    );
    assert!(text.contains("## Observability report"), "{text}");
    assert!(text.contains("table2:checkpoint.hit"), "{text}");
    let (events, skipped) = pressio_obs::read_trace(&trace).unwrap();
    assert_eq!(skipped, 0, "trace must be valid JSONL");
    assert!(events.iter().any(|e| e.name() == "table2:checkpoint.hit"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_trace_flag_disables_tracing() {
    let cmd = bench("bench --ablation affinity --dims 8,8,4");
    assert!(cmd.trace.is_none());
    assert!(bench::install_trace(None).unwrap().is_none());
    let mut buf = Vec::new();
    run(Command::Bench(cmd), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.starts_with("# Ablation: data-affinity"), "{text}");
    assert!(!text.contains("## Observability report"), "{text}");
}

/// Every study runs through `bench --ablation` at the smallest size and
/// prints its heading; an unknown name is answered with all of them.
/// `lorenzo` and `lossless` ignore `--dims` (their shapes are their rows)
/// and take 14 s and 3.5 s in a debug build, so they run in release only
/// (`lossless` also has its own test below).
#[test]
fn every_study_runs_and_prints_its_heading() {
    const HEADINGS: [(&str, &str); 11] = [
        (
            "affinity",
            "# Ablation: data-affinity vs round-robin scheduling",
        ),
        ("bandwidth", "# Bandwidth prediction (sz3 @1e-4"),
        (
            "checkpoint",
            "# Ablation: checkpointed restart vs recompute-all",
        ),
        ("datasets", "# Non-weather dataset study"),
        (
            "fig2",
            "# Figure 2 pipeline: folder_loader -> local_cache -> sampler",
        ),
        ("insample", "# In-sample (best case) vs out-of-sample"),
        ("invalidation", "# Ablation: error-agnostic metric reuse"),
        (
            "lorenzo",
            "# Ablation: Lorenzo one row at a time vs the band sweep",
        ),
        ("lossless", "# Ablation: what LZSS buys after Huffman"),
        (
            "rahman",
            "# Ablation: rahman2023 sparsity correction x data augmentation",
        ),
        (
            "tao_sweep",
            "# Ablation: tao2019 block-size / block-count sweep",
        ),
    ];
    let names = studies::NAMES.map(|(name, _)| name);
    assert_eq!(names, HEADINGS.map(|(name, _)| name));
    for (name, heading) in HEADINGS {
        if cfg!(debug_assertions) && matches!(name, "lorenzo" | "lossless") {
            continue;
        }
        let line = format!("bench --ablation {name} --dims 8,8,4 --timesteps 1 --workers 1");
        let text = run_line(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        assert!(text.starts_with(heading), "`{line}`:\n{text}");
    }
    let err = run_line("bench --ablation nope").unwrap_err().to_string();
    assert!(err.contains("unknown ablation 'nope'"), "{err}");
    assert!(names.iter().all(|name| err.contains(name)), "{err}");
}

/// Every number the cross-validating studies print, against a digest taken
/// before their fold loops and feature merges moved into `pressio-predict`
/// (`STUDIES_GOLDEN_DUMP=1` prints the reports).
#[test]
fn cross_validated_studies_match_their_digest() {
    let reports: String = ["datasets", "insample", "rahman"]
        .iter()
        .map(|name| {
            run_line(&format!(
                "bench --ablation {name} --dims 8,8,4 --timesteps 1 --workers 1"
            ))
            .unwrap()
        })
        .collect();
    if std::env::var_os("STUDIES_GOLDEN_DUMP").is_some() {
        println!("{reports}");
    }
    let digest = pressio_core::hash::fnv1a64(reports.as_bytes());
    assert_eq!(
        digest, 0xcea12b6261bcbd5f,
        "study reports moved: digest {digest:#018x}\n{reports}"
    );
}

#[test]
fn bench_lossless_ablation_prints_the_payoff_table() {
    let text = run_line("bench --dims 12,12,6 --workers 1 --ablation lossless").unwrap();
    // 13 fields at each of the four quick (size, bound) pairs
    assert_eq!(
        text.lines().filter(|l| l.contains("×")).count(),
        52,
        "{text}"
    );
    assert!(text.contains("| PRECIP | 16×16×8 | 1e-4 |"), "{text}");
    assert!(text.contains(" 0 where the trial skipped a pass that would have won"));
}

// ---- serve / query ---------------------------------------------------------

#[test]
fn parses_bench_ablation_and_serve_and_query() {
    let cmd = bench("bench --ablation affinity --workers 4");
    assert_eq!(
        (cmd.ablation.as_deref(), cmd.study.workers),
        (Some("affinity"), 4)
    );
    let cmd = bench("bench --ablation checkpoint");
    assert_eq!(cmd.ablation.as_deref(), Some("checkpoint"));
    let Command::Serve(cmd) = parse("serve --tcp 127.0.0.1:0 --models /tmp/m --queue 16").unwrap()
    else {
        panic!("not a serve");
    };
    let tcp = pressio_serve::Endpoint::Tcp("127.0.0.1:0".into());
    assert_eq!(cmd.config.listen, tcp);
    assert_eq!(cmd.config.model_dir, PathBuf::from("/tmp/m"));
    assert_eq!(cmd.config.queue_capacity, 16);
    let line = "query --tcp 127.0.0.1:9 --op predict --model m@1 -i U_4x4.f32 --abs 1e-3";
    let Command::Query(cmd) = parse(line).unwrap() else {
        panic!("not a query");
    };
    assert_eq!(cmd.op, "predict");
    assert_eq!(cmd.model.as_deref(), Some("m@1"));
    assert_eq!(cmd.scheme, None, "scheme must be None unless given");
    assert_eq!(cmd.input, Some(PathBuf::from("U_4x4.f32")));
    assert_eq!(cmd.options.get_f64("pressio:abs").unwrap(), 1e-3);
    // serve/query without an endpoint is a usage error
    assert!(parse("serve --models /tmp/m").is_err());
    assert!(parse("query --op ping").is_err());
}

/// `serve` runs one daemon process: the flags of a sharded deployment
/// are usage errors that name the flag.
#[test]
fn the_shard_flags_are_usage_errors() {
    let serve = "serve --socket /tmp/s.sock --models /tmp/m";
    for line in [
        format!("{serve} --shards 2"),
        format!("{serve} --shard-index 0"),
        "query --socket /tmp/s.sock --op ping --route".to_string(),
    ] {
        let err = parse(&line).unwrap_err().to_string();
        let flag = line.split(' ').rev().find(|w| w.starts_with("--")).unwrap();
        assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        assert!(err.contains("usage: pressio <"), "{err}");
    }
}

// ---- select ----------------------------------------------------------------

#[test]
fn parses_select() {
    let line = "select compress -i U_4x4.f32 -o U.psel --psnr 50 --bounds 1e-4,1e-3 --verify";
    let Command::Select(cmd) = parse(line).unwrap() else {
        panic!("not a select");
    };
    assert_eq!(cmd.action, SelectAction::Compress);
    assert_eq!(cmd.input, Path::new("U_4x4.f32"));
    assert_eq!(cmd.output.as_deref(), Some(Path::new("U.psel")));
    assert_eq!(cmd.consult, "trial");
    assert!(cmd.verify);
    assert_eq!(cmd.options.get_f64("select:psnr").unwrap(), 50.0);
    // the action is positional and mandatory
    assert!(parse("select").is_err());
    assert!(parse("select frobnicate -i x").is_err());
    // compress/decompress need an output, explain does not
    assert!(parse("select compress -i x").is_err());
    assert!(parse("select explain -i x.psel").is_ok());
    // remote consult needs an endpoint
    assert!(parse("select compress -i x -o y --consult remote").is_err());
    assert!(parse("select compress -i x --psnr sixty").is_err());
    assert!(parse("select compress -i x --bounds 1e-4;1e-3").is_err());
}

#[test]
fn select_compress_explain_decompress_roundtrip() {
    let dir = scratch("pressio_cli_select");
    let raw = dir.join("raw");
    run_line(&format!("generate --out {} --dims 12,12,6", raw.display())).unwrap();
    let input = raw.join("TC-t00_12x12x6.f32");
    let container = dir.join("TC.psel");
    let container_arg = container.display();
    let text = run_line(&format!(
        "select compress -i {} -o {container_arg} --psnr 60 --verify",
        input.display()
    ))
    .unwrap();
    assert!(text.contains("selected"), "{text}");
    assert!(text.contains("via trial consult"), "{text}");
    assert!(text.contains("measured psnr"), "{text}");
    // explain prints the audited decision record
    let text = run_line(&format!("select explain -i {container_arg}")).unwrap();
    assert!(text.contains("select:codec"), "{text}");
    assert!(text.contains("select:policy"), "{text}");
    // header-driven decompression: no codec, dtype, or dims supplied
    let restored = dir.join("restored_12x12x6.f32");
    run_line(&format!(
        "select decompress -i {container_arg} -o {}",
        restored.display()
    ))
    .unwrap();
    let original = read_raw(&input).unwrap();
    let back = read_raw(&restored).unwrap();
    assert_eq!(original.dims(), back.dims());
    // an output name that contradicts the header is rejected
    let lying = dir.join("restored_9x9x9.f32");
    let err = run_line(&format!(
        "select decompress -i {container_arg} -o {}",
        lying.display()
    ));
    assert!(err.is_err(), "shape-lying output name must be rejected");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- stream (and generate --stack, and serve's stream knobs) ----------------

#[test]
fn parses_stream_generate_stack_and_serve_online_flags() {
    let line = "stream compress -i TC-stack_8x8x4x6.f32 -o tc.pstf --codec zfp --chunk 2 \
                --chained --abs 1e-3";
    let Command::Stream(cmd) = parse(line).unwrap() else {
        panic!("not a stream");
    };
    assert_eq!(cmd.action, StreamAction::Compress);
    assert_eq!(
        (cmd.codec.as_str(), cmd.chunk, cmd.chained),
        ("zfp", 2, true)
    );
    assert_eq!(cmd.options.get_f64("pressio:abs").unwrap(), 1e-3);
    // structural requirements
    assert!(parse("stream compress -i x.f32").is_err());
    assert!(parse("stream send -i x.f32").is_err());
    assert!(parse("stream wat").is_err());
    assert!(parse("stream").is_err());
    assert!(parse("stream compress -i x.f32 -o y --chunk 0").is_err());
    let Command::Stream(cmd) = parse("stream send -i x.f32 --tcp h:1 --model m --chunk 3").unwrap()
    else {
        panic!("not a stream");
    };
    assert_eq!(cmd.action, StreamAction::Send);
    assert_eq!((cmd.chunk, cmd.model.as_deref()), (3, Some("m")));
    let Command::Generate(cmd) = parse("generate --out d --stack --timesteps 4").unwrap() else {
        panic!("not a generate");
    };
    assert!(cmd.stack);
    assert_eq!(cmd.timesteps, 4);
    let serve = "serve --tcp 127.0.0.1:0 --models /tmp/m";
    let line = format!("{serve} --online --online-window 16 --refit-every 2 --max-frame-mb 4");
    let Command::Serve(cmd) = parse(&line).unwrap() else {
        panic!("not a serve");
    };
    assert!(cmd.config.online);
    assert_eq!(cmd.config.online_window, 16);
    assert_eq!(cmd.config.online_refit_every, 2);
    assert_eq!(cmd.config.max_frame, 4 << 20);
    // defaults: online off, protocol-default frame cap, sessions reaped
    // after five idle minutes
    let Command::Serve(cmd) = parse(serve).unwrap() else {
        panic!("not a serve");
    };
    assert!(!cmd.config.online);
    assert_eq!(cmd.config.max_frame, pressio_serve::protocol::MAX_FRAME);
    assert_eq!(cmd.config.stream_idle_secs, 300);
    // the reap knob
    let Command::Serve(cmd) = parse(&format!("{serve} --stream-idle-secs 7")).unwrap() else {
        panic!("not a serve");
    };
    assert_eq!(cmd.config.stream_idle_secs, 7);
    let err = parse(&format!("{serve} --stream-idle-secs soon"));
    assert!(err.is_err(), "--stream-idle-secs must be numeric");
}

/// `generate --stack` writes each timestep's bytes straight to the file:
/// every stacked file matches a digest taken when it still gathered the
/// whole stack in memory first, and no temp file is left behind.
#[test]
fn generate_stack_writes_the_bytes_it_wrote_when_it_held_the_stack() {
    use pressio_core::hash::fnv1a64;
    use std::fmt::Write;
    let dir = scratch("pressio_cli_generate_stack");
    run_line(&format!(
        "generate --out {} --dims 7,5,3 --timesteps 4 --stack",
        dir.display()
    ))
    .unwrap();
    let mut lines = String::new();
    for field in pressio_dataset::FIELDS {
        let bytes = std::fs::read(dir.join(format!("{field}-stack_7x5x3x4.f32"))).unwrap();
        writeln!(lines, "{field} {} {:016x}", bytes.len(), fnv1a64(&bytes)).unwrap();
    }
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(
        files,
        pressio_dataset::FIELDS.len(),
        "a temp file was left behind"
    );
    let digest = fnv1a64(lines.as_bytes());
    assert_eq!(
        digest, 0xddfa5d240c1cb33e,
        "stacked bytes moved: digest {digest:#018x}\n{lines}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stream_compress_info_decompress_roundtrip() {
    let dir = scratch("pressio_cli_stream");
    // a stacked 4-D time series: 5 timesteps along the outer axis
    let raw = dir.join("raw");
    run_line(&format!(
        "generate --out {} --dims 6,6,2 --timesteps 5 --stack",
        raw.display()
    ))
    .unwrap();
    let input = raw.join("TC-stack_6x6x2x5.f32");
    assert!(input.is_file(), "expected stacked field at {input:?}");

    let stream = dir.join("TC.pstf");
    let stream_arg = stream.display();
    let text = run_line(&format!(
        "stream compress -i {} -o {stream_arg} --chunk 2 --abs 1e-4",
        input.display()
    ))
    .unwrap();
    assert!(text.contains("3 chunks"), "{text}");

    let text = run_line(&format!("stream info -i {stream_arg}")).unwrap();
    assert!(text.contains("codec sz3"), "{text}");
    assert!(text.contains("3 chunks, 5 outer slices"), "{text}");

    let restored = dir.join("TC-restored_6x6x2x5.f32");
    run_line(&format!(
        "stream decompress -i {stream_arg} -o {}",
        restored.display()
    ))
    .unwrap();
    let worst = worst_error(&input, &restored);
    assert!(worst <= 1e-4 * 1.01 + 2e-3, "bound violated: {worst}");

    // an output name that contradicts the frame header is rejected
    let lying = dir.join("TC-bad_9x9x9.f32");
    let err = run_line(&format!(
        "stream decompress -i {stream_arg} -o {}",
        lying.display()
    ));
    assert!(err.is_err(), "shape-lying output name must be rejected");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stream_send_runs_against_a_live_online_daemon() {
    let dir = scratch("pressio_cli_stream_send");
    let raw = dir.join("raw");
    run_line(&format!(
        "generate --out {} --dims 8,8,2 --timesteps 8 --stack",
        raw.display()
    ))
    .unwrap();
    let input = raw.join("TC-stack_8x8x2x8.f32");

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

    let text = run_line(&format!(
        "stream send -i {} --tcp {addr} --model hurr --chunk 1 --abs 1e-4",
        input.display()
    ))
    .unwrap();
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
