//! Versioned, checksummed model store.
//!
//! Trained predictor state is persisted as one artifact file per version
//! under `<root>/<model-name>/<version>.pmodel`. The on-disk format is:
//!
//! ```text
//! "PSRV" magic (4 bytes) | format version (1 byte, = 2)
//! header length (u32 BE) | header JSON
//! predictor state bytes
//! SHA-256 of everything above (32 bytes)
//! ```
//!
//! The header records the model name, version, scheme, state length, and a
//! SHA-256 of the state bytes; the whole-file checksum trailer detects
//! corruption anywhere, including the header. Any other format version
//! (format 1 had no trailer; no such artifact was ever deployed) is a
//! typed `CorruptStream`. Artifacts are published (DESIGN.md, "Durable
//! files"); loads verify the magic, length, and checksums, so a corrupted
//! artifact is a clear error rather than a silently wrong model. Version
//! listing skips unparseable file names (including leftover temp files and
//! `.quarantined` artifacts).
//!
//! [`load_resilient`](ModelStore::load_resilient) adds quarantine: a
//! corrupt artifact is moved aside (never deleted, so an operator can
//! inspect it) and, for unpinned references, the previous version is
//! tried — a corrupted latest model degrades to the last good one instead
//! of an outage.
//!
//! Failpoints (see `pressio-faults`): `serve:store.save` (save IO error),
//! `serve:store.load` (load IO error), `serve:store.load.corrupt`
//! (artifact bytes corrupted after read, exercising the checksum path).

use pressio_core::error::{Error, Result};
use pressio_core::fs::{publish, quarantine};
use pressio_core::hash::{to_hex, Sha256};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"PSRV";
const FORMAT_VERSION: u8 = 2;
/// Prologue: magic + format byte + header length.
const PROLOGUE: usize = 4 + 1 + 4;
/// Length of the whole-file checksum trailer.
const TRAILER: usize = 32;

/// A persisted (or to-be-persisted) trained model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelArtifact {
    /// Store name (directory component; `[A-Za-z0-9._-]+`).
    pub name: String,
    /// Monotonically increasing version within the name.
    pub version: u64,
    /// Registry name of the scheme whose predictor produced the state.
    pub scheme: String,
    /// Serialized predictor state (`Predictor::state`).
    pub state: Vec<u8>,
}

#[derive(Serialize, Deserialize)]
struct Header {
    name: String,
    version: u64,
    scheme: String,
    state_len: u64,
    state_sha256: String,
}

/// Directory-backed store of model artifacts.
pub struct ModelStore {
    root: PathBuf,
}

/// Split a `name[@version]` model reference.
pub fn parse_model_ref(spec: &str) -> Result<(String, Option<u64>)> {
    match spec.split_once('@') {
        None => Ok((spec.to_string(), None)),
        Some((name, ver)) => {
            let version = ver.parse::<u64>().map_err(|_| Error::InvalidValue {
                key: "serve:model".into(),
                reason: format!("version in '{spec}' must be an integer"),
            })?;
            Ok((name.to_string(), Some(version)))
        }
    }
}

fn validate_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(Error::InvalidValue {
            key: "serve:model".into(),
            reason: format!("model name '{name}' must match [A-Za-z0-9._-]+ (no leading dot)"),
        })
    }
}

impl ModelStore {
    /// Open (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<ModelStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(ModelStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn artifact_path(&self, name: &str, version: u64) -> PathBuf {
        self.root.join(name).join(format!("{version:06}.pmodel"))
    }

    /// Publish `state` as the next version of `name`, returning that
    /// version (DESIGN.md, "Durable files").
    pub fn save(&self, name: &str, scheme: &str, state: &[u8]) -> Result<u64> {
        pressio_faults::inject("serve:store.save")?;
        validate_name(name)?;
        std::fs::create_dir_all(self.root.join(name))?;
        let version = self.versions(name)?.last().copied().unwrap_or(0) + 1;
        let header = Header {
            name: name.to_string(),
            version,
            scheme: scheme.to_string(),
            state_len: state.len() as u64,
            state_sha256: to_hex(&Sha256::digest(state)),
        };
        let header_json =
            serde_json::to_vec(&header).map_err(|e| Error::Serialization(e.to_string()))?;
        let mut body = Vec::with_capacity(PROLOGUE + header_json.len() + state.len() + TRAILER);
        body.extend_from_slice(MAGIC);
        body.push(FORMAT_VERSION);
        body.extend_from_slice(&(header_json.len() as u32).to_be_bytes());
        body.extend_from_slice(&header_json);
        body.extend_from_slice(state);
        let file_sha = Sha256::digest(&body);
        body.extend_from_slice(&file_sha);
        let path = self.artifact_path(name, version);
        publish(&path, |w| Ok(w.write_all(&body)?))?;
        Ok(version)
    }

    /// Load `name` at `version`, or the latest version when `None`.
    pub fn load(&self, name: &str, version: Option<u64>) -> Result<ModelArtifact> {
        pressio_faults::inject("serve:store.load")?;
        validate_name(name)?;
        let version = match version {
            Some(v) => v,
            None => self.latest(name)?,
        };
        let path = self.artifact_path(name, version);
        let mut bytes = std::fs::read(&path).map_err(|e| {
            Error::Io(format!(
                "model '{name}@{version}' ({}): {e}",
                path.display()
            ))
        })?;
        if pressio_faults::check("serve:store.load.corrupt").is_some() {
            if let Some(b) = bytes.last_mut() {
                *b ^= 0xff;
            }
        }
        let corrupt =
            |why: &str| Error::CorruptStream(format!("model artifact {}: {why}", path.display()));
        if bytes.len() < PROLOGUE || &bytes[..4] != MAGIC {
            return Err(corrupt("bad magic or truncated prologue"));
        }
        let format = bytes[4];
        if format != FORMAT_VERSION {
            return Err(corrupt(&format!("unsupported format version {format}")));
        }
        // the trailer checksums everything before it, header included
        let Some(body_end) = bytes.len().checked_sub(TRAILER).filter(|&e| e >= PROLOGUE) else {
            return Err(corrupt("truncated checksum trailer"));
        };
        if Sha256::digest(&bytes[..body_end])[..] != bytes[body_end..] {
            return Err(corrupt("whole-file checksum mismatch"));
        }
        let header_len = u32::from_be_bytes(bytes[5..9].try_into().unwrap()) as usize;
        let Some(state_off) = PROLOGUE.checked_add(header_len).filter(|&o| o <= body_end) else {
            return Err(corrupt("truncated header"));
        };
        let header: Header = serde_json::from_slice(&bytes[PROLOGUE..state_off])
            .map_err(|_| corrupt("unparseable header"))?;
        let state = &bytes[state_off..body_end];
        if state.len() as u64 != header.state_len {
            return Err(corrupt(&format!(
                "state length {} != header {}",
                state.len(),
                header.state_len
            )));
        }
        if to_hex(&Sha256::digest(state)) != header.state_sha256 {
            return Err(corrupt("state checksum mismatch"));
        }
        Ok(ModelArtifact {
            name: header.name,
            version: header.version,
            scheme: header.scheme,
            state: state.to_vec(),
        })
    }

    /// Like [`load`](Self::load), but corrupt artifacts are quarantined
    /// instead of left in place. For a pinned `name@version` reference the
    /// corruption is still an error (silently serving a different version
    /// than the caller pinned would be worse); for an unpinned reference
    /// the next-newest version is tried until one loads or none remain.
    pub fn load_resilient(&self, name: &str, version: Option<u64>) -> Result<ModelArtifact> {
        loop {
            let candidate = match version {
                Some(v) => v,
                None => self.latest(name)?,
            };
            match self.load(name, Some(candidate)) {
                Err(e @ Error::CorruptStream(_)) => {
                    let dest = quarantine(&self.artifact_path(name, candidate))?;
                    pressio_obs::add_counter("serve:model.quarantined", 1);
                    eprintln!(
                        "warning: quarantined corrupt model '{name}@{candidate}' to {} ({e})",
                        dest.display()
                    );
                    if version.is_some() {
                        return Err(e);
                    }
                    // unpinned: fall back to the previous version
                }
                other => return other,
            }
        }
    }

    /// Sorted versions persisted for `name` (empty if none).
    pub fn versions(&self, name: &str) -> Result<Vec<u64>> {
        validate_name(name)?;
        let dir = self.root.join(name);
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let mut versions = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let file_name = entry?.file_name();
            let Some(s) = file_name.to_str() else {
                continue;
            };
            // ignore temp files and anything not NNNNNN.pmodel
            if let Some(stem) = s.strip_suffix(".pmodel") {
                if let Ok(v) = stem.parse::<u64>() {
                    versions.push(v);
                }
            }
        }
        versions.sort_unstable();
        Ok(versions)
    }

    /// The newest version persisted for `name`; a name with none is an
    /// unknown model.
    pub fn latest(&self, name: &str) -> Result<u64> {
        let newest = self.versions(name)?.last().copied();
        newest.ok_or_else(|| Error::UnknownPlugin {
            kind: "model",
            name: name.to_string(),
        })
    }

    /// All model names with their versions, sorted by name.
    pub fn models(&self) -> Result<Vec<(String, Vec<u64>)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Some(name) = entry.file_name().to_str().map(String::from) else {
                continue;
            };
            if validate_name(&name).is_err() {
                continue;
            }
            let versions = self.versions(&name)?;
            if !versions.is_empty() {
                out.push((name, versions));
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> ModelStore {
        let dir = std::env::temp_dir()
            .join("pressio_model_store_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        ModelStore::open(dir).unwrap()
    }

    #[test]
    fn save_load_round_trip_and_versioning() {
        let s = temp_store("roundtrip");
        let v1 = s.save("m", "rahman2023", b"state-one").unwrap();
        let v2 = s.save("m", "rahman2023", b"state-two").unwrap();
        assert_eq!((v1, v2), (1, 2));
        let latest = s.load("m", None).unwrap();
        assert_eq!(latest.version, 2);
        assert_eq!(latest.state, b"state-two");
        assert_eq!(latest.scheme, "rahman2023");
        let pinned = s.load("m", Some(1)).unwrap();
        assert_eq!(pinned.state, b"state-one");
    }

    #[test]
    fn missing_model_is_a_clear_error() {
        let s = temp_store("missing");
        assert!(matches!(
            s.load("nope", None),
            Err(Error::UnknownPlugin { kind: "model", .. })
        ));
        assert!(s.load("nope", Some(3)).is_err());
    }

    #[test]
    fn corrupted_state_fails_checksum() {
        let s = temp_store("corrupt");
        s.save("m", "lu2018", b"good state bytes").unwrap();
        let path = s.root().join("m").join("000001.pmodel");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = s.load("m", None).unwrap_err();
        assert!(matches!(err, Error::CorruptStream(_)), "{err}");
    }

    #[test]
    fn truncated_artifact_is_rejected() {
        let s = temp_store("truncated");
        s.save("m", "lu2018", b"0123456789").unwrap();
        let path = s.root().join("m").join("000001.pmodel");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(s.load("m", None).is_err());
    }

    #[test]
    fn temp_files_invisible_to_version_listing() {
        let s = temp_store("tempfiles");
        s.save("m", "lu2018", b"x").unwrap();
        std::fs::write(s.root().join("m").join(".tmp-000002-99"), b"partial").unwrap();
        std::fs::write(s.root().join("m").join("junk.txt"), b"?").unwrap();
        assert_eq!(s.versions("m").unwrap(), vec![1]);
        assert_eq!(s.models().unwrap(), vec![("m".to_string(), vec![1])]);
    }

    #[test]
    fn names_are_validated() {
        let s = temp_store("names");
        assert!(s.save("../evil", "x", b"s").is_err());
        assert!(s.save("a/b", "x", b"s").is_err());
        assert!(s.save("", "x", b"s").is_err());
        assert!(s.save(".hidden", "x", b"s").is_err());
        assert!(s.save("ok-name_1.2", "x", b"s").is_ok());
    }

    #[test]
    fn format_1_artifacts_are_a_typed_corrupt_stream() {
        let s = temp_store("v1retired");
        let dir = s.root().join("m");
        std::fs::create_dir_all(&dir).unwrap();
        // the retired trailer-less layout: magic, format byte 1, empty header
        std::fs::write(dir.join("000001.pmodel"), b"PSRV\x01\x00\x00\x00\x00").unwrap();
        let err = s.load("m", None).unwrap_err();
        assert!(
            matches!(&err, Error::CorruptStream(why) if why.ends_with("unsupported format version 1")),
            "{err}"
        );
    }

    #[test]
    fn header_corruption_is_detected_by_the_trailer() {
        let s = temp_store("headercorrupt");
        s.save("m", "lu2018", b"some state").unwrap();
        let path = s.root().join("m").join("000001.pmodel");
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a byte inside the header JSON: only the trailer covers it
        bytes[PROLOGUE + 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = s.load("m", None).unwrap_err();
        assert!(matches!(err, Error::CorruptStream(_)), "{err}");
    }

    #[test]
    fn load_resilient_quarantines_and_falls_back_to_previous_version() {
        let s = temp_store("fallback");
        s.save("m", "lu2018", b"good v1").unwrap();
        s.save("m", "lu2018", b"bad v2").unwrap();
        let path = s.root().join("m").join("000002.pmodel");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // unpinned: corrupt latest is quarantined, previous version served
        let art = s.load_resilient("m", None).unwrap();
        assert_eq!(art.version, 1);
        assert_eq!(art.state, b"good v1");
        assert_eq!(s.versions("m").unwrap(), vec![1]);
        assert!(s
            .root()
            .join("m")
            .join("000002.pmodel.quarantined")
            .exists());
        // the quarantined file no longer blocks a fresh save of version 2
        assert_eq!(s.save("m", "lu2018", b"fresh v2").unwrap(), 2);
    }

    #[test]
    fn load_resilient_pinned_version_errors_but_still_quarantines() {
        let s = temp_store("pinned");
        s.save("m", "lu2018", b"v1").unwrap();
        let path = s.root().join("m").join("000001.pmodel");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.load_resilient("m", Some(1)).is_err());
        assert!(s
            .root()
            .join("m")
            .join("000001.pmodel.quarantined")
            .exists());
        assert!(s.versions("m").unwrap().is_empty());
    }

    #[test]
    fn model_refs_parse() {
        assert_eq!(parse_model_ref("m").unwrap(), ("m".to_string(), None));
        assert_eq!(parse_model_ref("m@7").unwrap(), ("m".to_string(), Some(7)));
        assert!(parse_model_ref("m@x").is_err());
    }
}
