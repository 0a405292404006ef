//! `Options::to_json` / `from_json` against the serde derive `Options` had
//! before the tree kept one JSON codec (the mirror in pressio-serve's
//! `tests/reference/`): the bytes written for any finite option structure,
//! and what is read from texts no writer produces — a fixed corpus of
//! number forms, escapes and member rules, then seeded mutations of real
//! texts (`PRESSIO_FUZZ_ITERS` deepens the run).

#[path = "../../pressio-serve/tests/reference/mirror.rs"]
mod mirror;

use pressio_core::fuzz::{Fuzzer, Rng};
use pressio_core::{Options, Value};
use proptest::prelude::*;

/// Half from the pool of values a float printer gets wrong, half any
/// finite bit pattern.
fn float(rng: &mut Rng) -> f64 {
    const POOL: [f64; 14] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        -4.9e-320,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1,
        1.0,
        1e15,
        1e16,
        1e22,
    ];
    if rng.below(2) == 0 {
        return POOL[rng.below(POOL.len())];
    }
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

/// Text with every character class the writer escapes or passes raw.
fn text(rng: &mut Rng) -> String {
    const CHARS: [char; 20] = [
        'a', 'Z', '0', ':', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{00}',
        '\u{1f}', '\u{7f}', 'é', '漢', '😀', '\u{2028}',
    ];
    (0..rng.below(10))
        .map(|_| CHARS[rng.below(CHARS.len())])
        .collect()
}

fn value(rng: &mut Rng) -> Value {
    let len = rng.below(5);
    let int = |rng: &mut Rng| match rng.below(2) {
        0 => [0, 1, u64::MAX, i64::MAX as u64, 1 << 63][rng.below(5)],
        _ => rng.next_u64(),
    };
    match rng.below(10) {
        0 => Value::Bool(rng.below(2) == 1),
        1 => Value::I64(int(rng) as i64),
        2 => Value::U64(int(rng)),
        3 => Value::F64(float(rng)),
        4 => Value::Str(text(rng)),
        5 => Value::F64Vec((0..len).map(|_| float(rng)).collect()),
        6 => Value::U64Vec((0..len).map(|_| int(rng)).collect()),
        7 => Value::StrVec((0..len).map(|_| text(rng)).collect()),
        8 => Value::Bytes((0..len).map(|_| rng.byte()).collect()),
        _ => Value::Opaque(text(rng)),
    }
}

/// Any finite option structure: every variant, escaped and non-ASCII keys.
fn options(seed: u64) -> Options {
    let mut rng = Rng::new(seed);
    (0..rng.below(9))
        .map(|_| (text(&mut rng), value(&mut rng)))
        .collect()
}

/// Whether `from_json` and the mirror agree on `text`: both refuse it, or
/// both read the same structure bit for bit (`Debug` tells `-0.0` from
/// `0.0`, which `==` does not).
fn disagreement(text: &str) -> Option<String> {
    match (Options::from_json(text), mirror::from_json(text)) {
        (Ok(direct), Ok(serde)) if format!("{direct:?}") == format!("{serde:?}") => None,
        (Err(_), Err(_)) => None,
        (direct, serde) => Some(format!("{text:?}: direct {direct:?}, serde {serde:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_finite_options_are_written_as_the_derive_wrote_them(seed in any::<u64>()) {
        let options = options(seed);
        let json = options.to_json().unwrap();
        prop_assert!(json == mirror::to_json(&options), "seed {seed}: {json}");
        let back = Options::from_json(&json).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{options:?}"));
        prop_assert_eq!(disagreement(&json), None);
    }
}

/// Texts no writer in this tree produces, each read by both readers.
const NON_CANONICAL: &[&str] = &[
    " {\t\"entries\" :\n{ \"k\" : { \"F64\" : 1.5 } } }\r\n",
    "\u{feff}{\"entries\":{}}",
    "{\"entries\":{}}\u{0b}",
    r#"{"entries":{"k":{"F64":1}}}"#,
    r#"{"entries":{"k":{"F64":-0}}}"#,
    r#"{"entries":{"k":{"F64":1e999}}}"#,
    r#"{"entries":{"k":{"F64":-.5}}}"#,
    r#"{"entries":{"k":{"F64":+1}}}"#,
    r#"{"entries":{"k":{"F64":1e}}}"#,
    r#"{"entries":{"k":{"F64":NaN}}}"#,
    r#"{"entries":{"k":{"F64":null}}}"#,
    r#"{"entries":{"k":{"U64":1e3}}}"#,
    r#"{"entries":{"k":{"U64":-0.0}}}"#,
    r#"{"entries":{"k":{"U64":18446744073709551616}}}"#,
    r#"{"entries":{"k":{"I64":-9223372036854775808.0}}}"#,
    r#"{"entries":{"k":{"I64":9223372036854775808}}}"#,
    r#"{"entries":{"k":{"Bytes":[0,255]}}}"#,
    r#"{"entries":{"k":{"Bytes":[256]}}}"#,
    r#"{"entries":{"k":{"Bytes":[1.0,-0]}}}"#,
    r#"{"entries":{"k":{"Bool":1}}}"#,
    r#"{"entries":{"kA\/":{"Str":"\"\\\/\b\f\n\r\té漢😀"}}}"#,
    r#"{"entries":{"k":{"Str":"\ud83d"}}}"#,
    r#"{"entries":{"k":{"Str":"\x41"}}}"#,
    "{\"entries\":{\"k\":{\"Str\":\"raw\u{1}\"}}}",
    r#"{"entries":{"k":"Str"}}"#,
    r#"{"entries":{"k":{}}}"#,
    r#"{"entries":{"k":{"F64":1.0,"F64":2.0}}}"#,
    r#"{"entries":{"k":{"F32":1.0}}}"#,
    r#"{"v":2,"entries":{"k":{"Bool":true}},"t":[{"a":null},1.5e3,"s",false]}"#,
    r#"{"entries":{},"t":[1,}"#,
    r#"{"entries":[1],"entries":{"k":{"I64":2}}}"#,
    r#"{"entries":{"k":{"I64":1}},"entries":7}"#,
    r#"{"entries":{"k":{"U64":-1},"k":{"U64":1}}}"#,
    r#"{"entries":{}}x"#,
    r#"{"entries":{}"#,
    r#"{}"#,
    r#"{"entries":null}"#,
    r#"[{"entries":{}}]"#,
    "",
];

#[test]
fn non_canonical_texts_read_as_the_derive_read_them() {
    let mut texts: Vec<String> = NON_CANONICAL.iter().map(|t| t.to_string()).collect();
    for depth in [127, 128, 129, 200] {
        let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        texts.push(format!(r#"{{"entries":{{}},"t":{nested}}}"#));
    }
    let disagreements: Vec<String> = texts.iter().filter_map(|t| disagreement(t)).collect();
    assert!(disagreements.is_empty(), "{disagreements:#?}");
    let accepted = texts
        .iter()
        .filter(|t| mirror::from_json(t).is_ok())
        .count();
    // both sides of the line are exercised
    assert!(accepted > 10 && accepted + 10 < texts.len(), "{accepted}");
}

#[test]
fn mutated_texts_read_as_the_derive_read_them() {
    let corpus: Vec<Vec<u8>> = (0..16)
        .map(|seed| options(seed).to_json().unwrap().into_bytes())
        .collect();
    Fuzzer::from_env(2000).run(&corpus, |case| {
        if let Some(disagreement) = std::str::from_utf8(case).ok().and_then(disagreement) {
            panic!("{disagreement}");
        }
    });
}
