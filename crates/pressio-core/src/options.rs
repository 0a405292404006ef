//! Option structures: ordered string → [`Value`] maps with typed accessors.
//!
//! Mirrors `pressio_options`. Keys are conventionally namespaced
//! (`pressio:abs`, `sz3:predictor`, `predictors:invalidate`, ...). The map is
//! a `BTreeMap` so iteration order is deterministic — a requirement for the
//! stable option hashing that indexes the checkpoint database (paper §4.3).

use crate::error::{Error, Result};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An ordered, typed option map.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Options {
    entries: BTreeMap<String, Value>,
}

impl Options {
    /// Create an empty option structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the structure holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Set `key` to `value`, replacing any previous entry.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        self.entries.insert(key.into(), value.into());
        self
    }

    /// Builder-style `set`.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Remove an entry, returning it if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.entries.remove(key)
    }

    /// Raw value lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Iterate entries in deterministic (sorted-key) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate the keys in deterministic order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        expected: &'static str,
        cast: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T> {
        match self.entries.get(key) {
            None => Err(Error::MissingOption(key.to_string())),
            Some(v) => cast(v).ok_or_else(|| Error::TypeMismatch {
                key: key.to_string(),
                expected,
                found: v.type_name(),
            }),
        }
    }

    /// Required typed getters. Each returns [`Error::MissingOption`] when the
    /// key is absent and [`Error::TypeMismatch`] when it cannot cast.
    pub fn get_f64(&self, key: &str) -> Result<f64> {
        self.typed(key, "f64", Value::as_f64)
    }

    /// See [`Options::get_f64`].
    pub fn get_u64(&self, key: &str) -> Result<u64> {
        self.typed(key, "u64", Value::as_u64)
    }

    /// See [`Options::get_f64`].
    pub fn get_usize(&self, key: &str) -> Result<usize> {
        self.get_u64(key).map(|v| v as usize)
    }

    /// See [`Options::get_f64`].
    pub fn get_bool(&self, key: &str) -> Result<bool> {
        self.typed(key, "bool", Value::as_bool)
    }

    /// See [`Options::get_f64`].
    pub fn get_str(&self, key: &str) -> Result<&str> {
        self.typed(key, "string", |v| v.as_str())
    }

    /// See [`Options::get_f64`].
    pub fn get_f64_slice(&self, key: &str) -> Result<&[f64]> {
        self.typed(key, "f64vec", |v| v.as_f64_slice())
    }

    /// See [`Options::get_f64`].
    pub fn get_u64_slice(&self, key: &str) -> Result<&[u64]> {
        self.typed(key, "u64vec", |v| v.as_u64_slice())
    }

    /// See [`Options::get_f64`].
    pub fn get_str_slice(&self, key: &str) -> Result<&[String]> {
        self.typed(key, "strvec", |v| v.as_str_slice())
    }

    /// See [`Options::get_f64`].
    pub fn get_bytes(&self, key: &str) -> Result<&[u8]> {
        self.typed(key, "bytes", |v| v.as_bytes())
    }

    /// Optional typed getter: `Ok(None)` when absent, `Err` on wrong type.
    pub fn get_f64_opt(&self, key: &str) -> Result<Option<f64>> {
        self.opt(key, "f64", Value::as_f64)
    }

    /// See [`Options::get_f64_opt`].
    pub fn get_u64_opt(&self, key: &str) -> Result<Option<u64>> {
        self.opt(key, "u64", Value::as_u64)
    }

    /// See [`Options::get_f64_opt`].
    pub fn get_str_opt(&self, key: &str) -> Result<Option<&str>> {
        self.opt(key, "string", |v| v.as_str())
    }

    /// See [`Options::get_f64_opt`].
    pub fn get_bool_opt(&self, key: &str) -> Result<Option<bool>> {
        self.opt(key, "bool", Value::as_bool)
    }

    fn opt<'a, T>(
        &'a self,
        key: &str,
        expected: &'static str,
        cast: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<Option<T>> {
        match self.entries.get(key) {
            None => Ok(None),
            Some(v) => cast(v).map(Some).ok_or_else(|| Error::TypeMismatch {
                key: key.to_string(),
                expected,
                found: v.type_name(),
            }),
        }
    }

    /// Overlay `other` onto `self`: entries in `other` win.
    pub fn merge_from(&mut self, other: &Options) {
        for (k, v) in other.iter() {
            self.entries.insert(k.to_string(), v.clone());
        }
    }

    /// Sub-structure of all entries whose key starts with `prefix`.
    ///
    /// Used to route a combined configuration to the plugin that owns the
    /// namespace (e.g. everything under `sz3:` to the SZ compressor).
    pub fn with_prefix(&self, prefix: &str) -> Options {
        let entries = self
            .entries
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Options { entries }
    }

    /// Keep only entries whose keys are in `keys` (exact match).
    pub fn extract(&self, keys: &[&str]) -> Options {
        let entries = self
            .entries
            .iter()
            .filter(|(k, _)| keys.contains(&k.as_str()))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Options { entries }
    }

    /// Serialize to a canonical JSON string (sorted keys by construction).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(&self).map_err(|e| Error::Serialization(e.to_string()))
    }

    /// Parse from the JSON produced by [`Options::to_json`].
    pub fn from_json(s: &str) -> Result<Options> {
        serde_json::from_str(s).map_err(|e| Error::Serialization(e.to_string()))
    }
}

impl fmt::Display for Options {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

impl FromIterator<(String, Value)> for Options {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Options {
            entries: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Options {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Options {
        Options::new()
            .with("pressio:abs", 1e-6)
            .with("sz3:predictor", "lorenzo")
            .with("sz3:block_size", 6u64)
            .with("app:fields", vec!["U".to_string(), "V".to_string()])
    }

    #[test]
    fn typed_get_success() {
        let o = sample();
        assert_eq!(o.get_f64("pressio:abs").unwrap(), 1e-6);
        assert_eq!(o.get_str("sz3:predictor").unwrap(), "lorenzo");
        assert_eq!(o.get_u64("sz3:block_size").unwrap(), 6);
        assert_eq!(o.get_str_slice("app:fields").unwrap().len(), 2);
    }

    #[test]
    fn missing_and_mismatch_errors() {
        let o = sample();
        assert!(matches!(
            o.get_f64("nope"),
            Err(Error::MissingOption(k)) if k == "nope"
        ));
        assert!(matches!(
            o.get_f64("sz3:predictor"),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn optional_getters() {
        let o = sample();
        assert_eq!(o.get_f64_opt("pressio:abs").unwrap(), Some(1e-6));
        assert_eq!(o.get_f64_opt("nope").unwrap(), None);
        assert!(o.get_f64_opt("sz3:predictor").is_err());
    }

    #[test]
    fn integer_widening_through_getters() {
        let o = Options::new().with("n", 5i32);
        assert_eq!(o.get_f64("n").unwrap(), 5.0);
        assert_eq!(o.get_usize("n").unwrap(), 5);
    }

    #[test]
    fn prefix_filtering() {
        let o = sample();
        let sz = o.with_prefix("sz3:");
        assert_eq!(sz.len(), 2);
        assert!(sz.contains("sz3:predictor"));
        assert!(!sz.contains("pressio:abs"));
    }

    #[test]
    fn extract_exact_keys() {
        let o = sample();
        let e = o.extract(&["pressio:abs", "missing"]);
        assert_eq!(e.len(), 1);
        assert!(e.contains("pressio:abs"));
    }

    #[test]
    fn merge_overwrites() {
        let mut a = sample();
        let b = Options::new().with("pressio:abs", 1e-4).with("new", true);
        a.merge_from(&b);
        assert_eq!(a.get_f64("pressio:abs").unwrap(), 1e-4);
        assert!(a.get_bool("new").unwrap());
    }

    #[test]
    fn iteration_is_sorted() {
        let o = sample();
        let keys: Vec<_> = o.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn json_round_trip() {
        let o = sample();
        let s = o.to_json().unwrap();
        let back = Options::from_json(&s).unwrap();
        assert_eq!(o, back);
    }
}
