#![allow(dead_code)] // each test target uses its own part of the mirror

//! [`Options`] as the serde derive wrote and read it, before the tree had
//! one direct JSON codec: a test-local mirror with `Options`' one field
//! and an enum with `Value`'s ten variant names. The derive's output
//! depends on nothing else, so the mirror writes the bytes, and reads the
//! texts, that the derive on `Options` did. Other test targets include
//! this file with `#[path]`; it needs only `pressio_core`, `serde` and
//! `serde_json`.

use pressio_core::{Options, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// `Options` with the derive it had.
#[derive(Serialize, Deserialize)]
pub struct Mirror {
    entries: BTreeMap<String, V>,
}

/// `Value` with the derive it had: the same ten variants, in order.
#[derive(Serialize, Deserialize)]
enum V {
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    F64Vec(Vec<f64>),
    U64Vec(Vec<u64>),
    StrVec(Vec<String>),
    Bytes(Vec<u8>),
    Opaque(String),
}

impl From<&Options> for Mirror {
    fn from(options: &Options) -> Mirror {
        let entries = options.iter().map(|(key, value)| {
            let v = match value.clone() {
                Value::Bool(v) => V::Bool(v),
                Value::I64(v) => V::I64(v),
                Value::U64(v) => V::U64(v),
                Value::F64(v) => V::F64(v),
                Value::Str(v) => V::Str(v),
                Value::F64Vec(v) => V::F64Vec(v),
                Value::U64Vec(v) => V::U64Vec(v),
                Value::StrVec(v) => V::StrVec(v),
                Value::Bytes(v) => V::Bytes(v),
                Value::Opaque(v) => V::Opaque(v),
            };
            (key.to_string(), v)
        });
        Mirror {
            entries: entries.collect(),
        }
    }
}

impl From<Mirror> for Options {
    fn from(mirror: Mirror) -> Options {
        let entries = mirror.entries.into_iter().map(|(key, v)| {
            let value = match v {
                V::Bool(v) => Value::Bool(v),
                V::I64(v) => Value::I64(v),
                V::U64(v) => Value::U64(v),
                V::F64(v) => Value::F64(v),
                V::Str(v) => Value::Str(v),
                V::F64Vec(v) => Value::F64Vec(v),
                V::U64Vec(v) => Value::U64Vec(v),
                V::StrVec(v) => Value::StrVec(v),
                V::Bytes(v) => Value::Bytes(v),
                V::Opaque(v) => Value::Opaque(v),
            };
            (key, value)
        });
        entries.collect()
    }
}

/// The JSON the serde derive wrote for `options`.
pub fn to_json(options: &Options) -> String {
    serde_json::to_string(&Mirror::from(options)).expect("the serde writer cannot fail")
}

/// What the serde derive read from `text`.
pub fn from_json(text: &str) -> Result<Options, String> {
    serde_json::from_str::<Mirror>(text)
        .map(Options::from)
        .map_err(|e| e.to_string())
}
