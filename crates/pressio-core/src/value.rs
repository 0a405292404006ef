//! Typed option values, mirroring `pressio_option` from LibPressio.

use std::fmt;

/// A dynamically-typed configuration value.
///
/// LibPressio options hold one of a small set of types; plugins introspect and
/// cast them. `Opaque` mirrors LibPressio's `void*` entries (CUDA streams,
/// `MPI_Comm`, ...): it carries only a label, participates in equality by
/// label, and is deliberately **excluded from option hashing** (see
/// [`crate::hash::hash_options`]) exactly as the paper's Section 4.3 footnote
/// requires.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Signed 64-bit integer (covers i8..=i64 settings).
    I64(i64),
    /// Unsigned 64-bit integer (sizes, counts, seeds).
    U64(u64),
    /// Double-precision float (error bounds, rates, tolerances).
    F64(f64),
    /// String setting (mode names, paths, patterns).
    Str(String),
    /// Vector of doubles (feature vectors, per-dimension settings).
    F64Vec(Vec<f64>),
    /// Vector of unsigned integers (shapes, block sizes).
    U64Vec(Vec<u64>),
    /// Vector of strings (field lists, metric id lists).
    StrVec(Vec<String>),
    /// Raw bytes (serialized predictor state).
    Bytes(Vec<u8>),
    /// Label-only stand-in for non-serializable runtime handles.
    Opaque(String),
}

impl Value {
    /// Static name of the stored type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::I64(_) => "i64",
            Value::U64(_) => "u64",
            Value::F64(_) => "f64",
            Value::Str(_) => "string",
            Value::F64Vec(_) => "f64vec",
            Value::U64Vec(_) => "u64vec",
            Value::StrVec(_) => "strvec",
            Value::Bytes(_) => "bytes",
            Value::Opaque(_) => "opaque",
        }
    }

    /// Lossless-or-widening numeric view as `f64`.
    ///
    /// Integral values convert; strings and aggregates do not. This mirrors
    /// LibPressio's `pressio_option_cast` with *implicit* conversion level.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Numeric view as `i64` when the value is integral (or an integral
    /// float).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            Value::F64(v) if v.fract() == 0.0 && v.abs() < 2f64.powi(63) => Some(*v as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Numeric view as `u64` when the value is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            Value::F64(v) if v.fract() == 0.0 && *v >= 0.0 && *v < 2f64.powi(64) => Some(*v as u64),
            Value::Bool(b) => Some(*b as u64),
            _ => None,
        }
    }

    /// Boolean view; integers are truthy when nonzero.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::I64(v) => Some(*v != 0),
            Value::U64(v) => Some(*v != 0),
            _ => None,
        }
    }

    /// String view (no numeric stringification — that would hide typos in
    /// option names).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Slice view of an `F64Vec`.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            Value::F64Vec(v) => Some(v),
            _ => None,
        }
    }

    /// Slice view of a `U64Vec`.
    pub fn as_u64_slice(&self) -> Option<&[u64]> {
        match self {
            Value::U64Vec(v) => Some(v),
            _ => None,
        }
    }

    /// Slice view of a `StrVec`.
    pub fn as_str_slice(&self) -> Option<&[String]> {
        match self {
            Value::StrVec(v) => Some(v),
            _ => None,
        }
    }

    /// Byte view of a `Bytes` value.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this value participates in deterministic option hashing.
    ///
    /// `Opaque` values are skipped, matching LibPressio's exclusion of
    /// `void*` entries from its stable cryptographic hash.
    pub fn is_hashable(&self) -> bool {
        !matches!(self, Value::Opaque(_))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::F64Vec(v) => write!(f, "{v:?}"),
            Value::U64Vec(v) => write!(f, "{v:?}"),
            Value::StrVec(v) => write!(f, "{v:?}"),
            Value::Bytes(v) => write!(f, "<{} bytes>", v.len()),
            Value::Opaque(label) => write!(f, "<opaque:{label}>"),
        }
    }
}

macro_rules! impl_from {
    ($($ty:ty => $variant:ident via $conv:expr),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Self {
                #[allow(clippy::redundant_closure_call)]
                Value::$variant(($conv)(v))
            }
        })*
    };
}

impl_from! {
    bool => Bool via |v| v,
    i32 => I64 via |v| v as i64,
    i64 => I64 via |v| v,
    u32 => U64 via |v| v as u64,
    u64 => U64 via |v| v,
    usize => U64 via |v| v as u64,
    f32 => F64 via |v| v as f64,
    f64 => F64 via |v| v,
    String => Str via |v| v,
    Vec<f64> => F64Vec via |v| v,
    Vec<u64> => U64Vec via |v| v,
    Vec<String> => StrVec via |v| v,
    Vec<u8> => Bytes via |v| v,
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<&[u64]> for Value {
    fn from(v: &[u64]) -> Self {
        Value::U64Vec(v.to_vec())
    }
}

impl From<&[f64]> for Value {
    fn from(v: &[f64]) -> Self {
        Value::F64Vec(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_casts_widen() {
        assert_eq!(Value::from(3i32).as_f64(), Some(3.0));
        assert_eq!(Value::from(3u32).as_i64(), Some(3));
        assert_eq!(Value::from(3.0f64).as_u64(), Some(3));
        assert_eq!(Value::from(true).as_f64(), Some(1.0));
    }

    #[test]
    fn non_integral_float_does_not_cast_to_int() {
        assert_eq!(Value::F64(1.5).as_i64(), None);
        assert_eq!(Value::F64(1.5).as_u64(), None);
    }

    #[test]
    fn negative_does_not_cast_to_u64() {
        assert_eq!(Value::I64(-1).as_u64(), None);
        assert_eq!(Value::F64(-1.0).as_u64(), None);
    }

    #[test]
    fn strings_do_not_cast_numerically() {
        assert_eq!(Value::from("3").as_f64(), None);
        assert_eq!(Value::from(3i64).as_str(), None);
    }

    #[test]
    fn opaque_is_not_hashable() {
        assert!(!Value::Opaque("mpi_comm".into()).is_hashable());
        assert!(Value::F64(1.0).is_hashable());
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::F64(0.5).to_string(), "0.5");
        assert_eq!(Value::from("abs").to_string(), "abs");
        assert_eq!(Value::Bytes(vec![1, 2, 3]).to_string(), "<3 bytes>");
    }

    #[test]
    fn json_round_trip_of_each_variant() {
        let values = [
            Value::Bool(true),
            Value::I64(i64::MIN),
            Value::U64(u64::MAX),
            Value::F64(-0.0),
            Value::Str("a\"b\n\u{1}é".into()),
            Value::F64Vec(vec![1.0, 2.5, 5e-324, f64::MAX]),
            Value::U64Vec(vec![0, 7]),
            Value::StrVec(vec![String::new(), "x".into()]),
            Value::Bytes(vec![0, 128, 255]),
            Value::Opaque("mpi_comm".into()),
        ];
        for v in values {
            let options = crate::Options::new().with("k", v.clone());
            let back = crate::Options::from_json(&options.to_json().unwrap()).unwrap();
            // `Debug` tells -0.0 from 0.0, which `==` does not
            assert_eq!(format!("{:?}", back.get("k")), format!("{:?}", Some(&v)));
        }
    }
}
