//! How a file becomes visible and durable: [`publish`] replaces a file
//! whole or not at all, [`quarantine`] moves a damaged one aside. The
//! protocol and its callers are in DESIGN.md, "Durable files".

use crate::error::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Replace `path` with the bytes `fill` writes. They go to a uniquely named
/// hidden sibling (`.<file>.<pid>-<n>.tmp`), which is flushed, fsynced and
/// renamed over `path`; then the directory is fsynced (`.` for a bare
/// name), so the rename survives power loss. If `fill` or any step before
/// the rename fails, the temp file is removed and `path` keeps its old
/// bytes. The directory must exist. A device or pipe (`-o /dev/null`) has
/// no bytes to keep and must not be renamed over, so it is written in place.
pub fn publish(path: &Path, fill: impl FnOnce(&mut dyn Write) -> Result<()>) -> Result<()> {
    if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
        return fill(&mut OpenOptions::new().write(true).open(path)?);
    }
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| Error::Io(format!("no file name in {}", path.display())))?;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let (name, pid) = (name.to_string_lossy(), std::process::id());
    let (tmp, file) = loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{name}.{pid}-{n}.tmp"));
        match OpenOptions::new().write(true).create_new(true).open(&tmp) {
            Ok(file) => break (tmp, file),
            // a live writer elsewhere (another pid namespace) or a dead one's leftover
            Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e.into()),
        }
    };
    let written: Result<()> = (|| {
        let mut w = BufWriter::new(file);
        fill(&mut w)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(std::fs::rename(&tmp, path)?)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Rename a damaged file to the first free `<file>.quarantined`,
/// `<file>.quarantined.1`, `<file>.quarantined.2`, … beside it, keeping
/// its bytes for inspection; returns where it went.
pub fn quarantine(path: &Path) -> Result<PathBuf> {
    let sibling = |suffix: String| {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(suffix);
        path.with_file_name(name)
    };
    let dest = std::iter::once(sibling(".quarantined".into()))
        .chain((1u32..).map(|n| sibling(format!(".quarantined.{n}"))))
        .find(|p| !p.exists())
        .expect("some quarantine suffix is free");
    std::fs::rename(path, &dest)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pressio_core_fs").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_failing_fill_leaves_the_old_bytes_and_no_temp_file() {
        let dir = temp_dir("failing_fill");
        let path = dir.join("model.bin");
        std::fs::write(&path, b"old bytes").unwrap();
        let err = publish(&path, |w| {
            w.write_all(&[7u8; 100_000])?;
            Err(Error::Io("disk gone".into()))
        })
        .unwrap_err();
        assert_eq!(err, Error::Io("disk gone".into()));
        assert_eq!(std::fs::read(&path).unwrap(), b"old bytes");
        assert_eq!(names(&dir), vec!["model.bin"]);
    }

    #[test]
    fn a_publish_replaces_the_file_whole() {
        let dir = temp_dir("replace");
        let path = dir.join("log.jsonl");
        std::fs::write(&path, vec![b'x'; 50_000]).unwrap();
        publish(&path, |w| {
            w.write_all(b"first ")?;
            Ok(w.write_all(b"second\n")?)
        })
        .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first second\n");
        // a file that did not exist is created the same way
        let fresh = dir.join("fresh");
        publish(&fresh, |w| Ok(w.write_all(b"new")?)).unwrap();
        assert_eq!(std::fs::read(&fresh).unwrap(), b"new");
        assert_eq!(names(&dir), vec!["fresh", "log.jsonl"]);
    }

    #[test]
    fn a_missing_directory_is_an_error_and_creates_nothing() {
        let dir = temp_dir("missing_dir");
        let path = dir.join("absent").join("out.bin");
        assert!(publish(&path, |w| Ok(w.write_all(b"x")?)).is_err());
        assert!(names(&dir).is_empty());
    }

    #[test]
    fn a_device_is_written_through_not_renamed_over() {
        let dir = temp_dir("device");
        let link = dir.join("out.bin");
        std::os::unix::fs::symlink("/dev/null", &link).unwrap();
        publish(&link, |w| Ok(w.write_all(b"discarded")?)).unwrap();
        assert!(link.symlink_metadata().unwrap().file_type().is_symlink());
        assert_eq!(names(&dir), vec!["out.bin"]);
    }

    #[test]
    fn repeated_quarantines_take_the_next_free_suffix() {
        let dir = temp_dir("quarantine");
        let path = dir.join("000002.pmodel");
        let mut dests = Vec::new();
        for round in 0..3u8 {
            std::fs::write(&path, [round]).unwrap();
            let dest = quarantine(&path).unwrap();
            assert_eq!(std::fs::read(&dest).unwrap(), [round]);
            dests.push(dest.file_name().unwrap().to_string_lossy().into_owned());
        }
        assert_eq!(
            dests,
            [
                "000002.pmodel.quarantined",
                "000002.pmodel.quarantined.1",
                "000002.pmodel.quarantined.2"
            ]
        );
        assert!(!path.exists());
        assert!(quarantine(&path).is_err());
    }
}
