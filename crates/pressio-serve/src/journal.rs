//! Crash-safe per-session stream journals.
//!
//! Every streaming session journals its begin configuration and each
//! processed chunk to an append-only file under `<model_dir>/sessions/`,
//! so a respawned daemon — or the rendezvous-failover shard sharing the
//! same model store — can rehydrate the session on `stream.resume`: the
//! carried trailing slice, the acked chunk offset, the cached per-chunk
//! predictions (idempotent replay), and the online learner's window all
//! come back.
//!
//! The format follows the store's durability discipline adapted to an
//! append log: each record is `[u32 BE payload length][u64 LE fnv1a64 of
//! payload][payload JSON]`, appended then `fsync`ed before the chunk is
//! acked. A torn tail (crash or the `stream:journal.torn` failpoint mid-
//! append) is detected by the length/checksum framing and the journal
//! loads cleanly up to the last complete record — an ack never names
//! state the journal might not have.

use pressio_core::error::{Error, Result};
use pressio_core::Options;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Cap on one journal record (a record embeds at most one trailing outer
/// slice of a chunk, far below the chunk's own wire frame).
const MAX_RECORD: usize = 64 << 20;

/// The journal directory for a model store rooted at `model_dir`.
pub fn journal_dir(model_dir: &Path) -> PathBuf {
    model_dir.join("sessions")
}

/// Append-only, fsync'd journals for streaming sessions, one file per
/// stream id under `<model_dir>/sessions/`.
#[derive(Debug)]
pub struct SessionJournal {
    dir: PathBuf,
}

impl SessionJournal {
    /// Open (creating if needed) the journal directory for a model store.
    pub fn open(model_dir: &Path) -> Result<SessionJournal> {
        let dir = journal_dir(model_dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Io(format!("creating session journal dir: {e}")))?;
        Ok(SessionJournal { dir })
    }

    /// The journal file for a stream id. The id is hashed so a hostile id
    /// can never escape the journal directory or collide with a path
    /// separator — the id itself is stored inside the begin record.
    pub fn path(&self, id: &str) -> PathBuf {
        self.dir.join(format!(
            "{:016x}.psj",
            pressio_core::hash::fnv1a64(id.as_bytes())
        ))
    }

    /// Truncate (or create) the journal for `id` — called at
    /// `stream.begin` so a reused id never resumes against a stale log.
    pub fn reset(&self, id: &str) -> Result<()> {
        std::fs::File::create(self.path(id))
            .map_err(|e| Error::Io(format!("resetting session journal: {e}")))?;
        Ok(())
    }

    /// Append one record and fsync. Under the `stream:journal.torn`
    /// failpoint only a prefix of the record reaches the file (simulating
    /// a crash mid-append); the loader stops at the torn tail.
    pub fn append(&self, id: &str, record: &Options) -> Result<()> {
        let json = record.to_json()?;
        let payload = json.as_bytes();
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&pressio_core::hash::fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if matches!(
            pressio_faults::check("stream:journal.torn"),
            Some(pressio_faults::FaultAction::Torn)
        ) {
            frame.truncate(frame.len() / 2);
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(id))
            .map_err(|e| Error::Io(format!("opening session journal: {e}")))?;
        file.write_all(&frame)
            .map_err(|e| Error::Io(format!("appending session journal: {e}")))?;
        file.sync_all()
            .map_err(|e| Error::Io(format!("fsyncing session journal: {e}")))?;
        Ok(())
    }

    /// Load every complete record for `id`, stopping cleanly at a torn or
    /// corrupt tail (the crash window of an interrupted append). Returns
    /// `None` when no journal exists for the id.
    pub fn load(&self, id: &str) -> Result<Option<Vec<Options>>> {
        let bytes = match std::fs::read(self.path(id)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Error::Io(format!("reading session journal: {e}"))),
        };
        let mut cursor = std::io::Cursor::new(&bytes);
        let mut records = Vec::new();
        loop {
            let mut len_buf = [0u8; 4];
            match cursor.read_exact(&mut len_buf) {
                Ok(()) => {}
                Err(_) => break, // clean EOF or torn length prefix
            }
            let len = u32::from_be_bytes(len_buf) as usize;
            if len > MAX_RECORD {
                break; // corrupt prefix: trust nothing past it
            }
            let mut sum_buf = [0u8; 8];
            if cursor.read_exact(&mut sum_buf).is_err() {
                break;
            }
            let mut payload = vec![0u8; len];
            if cursor.read_exact(&mut payload).is_err() {
                break; // torn tail: the record was never fully appended
            }
            if pressio_core::hash::fnv1a64(&payload) != u64::from_le_bytes(sum_buf) {
                break; // checksum mismatch: stop at the last good record
            }
            let text = match std::str::from_utf8(&payload) {
                Ok(t) => t,
                Err(_) => break,
            };
            match Options::from_json(text) {
                Ok(record) => records.push(record),
                Err(_) => break,
            }
        }
        Ok(Some(records))
    }

    /// Delete the journal for `id` (at `stream.end`); missing is fine.
    pub fn remove(&self, id: &str) -> Result<()> {
        match std::fs::remove_file(self.path(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Error::Io(format!("removing session journal: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("pressio_journal_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(seq: u64) -> Options {
        Options::new()
            .with("j:type", "chunk")
            .with("j:seq", seq)
            .with("j:prediction", seq as f64 * 1.5)
    }

    #[test]
    fn append_and_load_round_trip() {
        let dir = temp_store("roundtrip");
        let journal = SessionJournal::open(&dir).unwrap();
        assert!(journal.load("s").unwrap().is_none(), "no journal yet");
        journal.reset("s").unwrap();
        for seq in 1..=3 {
            journal.append("s", &record(seq)).unwrap();
        }
        let records = journal.load("s").unwrap().unwrap();
        assert_eq!(records.len(), 3);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.get_u64("j:seq").unwrap(), i as u64 + 1);
        }
        journal.remove("s").unwrap();
        assert!(journal.load("s").unwrap().is_none());
        journal.remove("s").unwrap(); // idempotent
    }

    #[test]
    fn torn_tail_loads_up_to_last_complete_record() {
        let dir = temp_store("torn");
        let journal = SessionJournal::open(&dir).unwrap();
        journal.reset("s").unwrap();
        journal.append("s", &record(1)).unwrap();
        journal.append("s", &record(2)).unwrap();
        // tear the file mid-record, as a crash mid-append would
        let path = journal.path("s");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let records = journal.load("s").unwrap().unwrap();
        assert_eq!(records.len(), 1, "torn record must not surface");
        assert_eq!(records[0].get_u64("j:seq").unwrap(), 1);
        // appends continue after the tear is truncated away by reset
        journal.reset("s").unwrap();
        journal.append("s", &record(9)).unwrap();
        assert_eq!(journal.load("s").unwrap().unwrap().len(), 1);
    }

    #[test]
    fn corrupt_checksum_stops_the_load_cleanly() {
        let dir = temp_store("corrupt");
        let journal = SessionJournal::open(&dir).unwrap();
        journal.reset("s").unwrap();
        journal.append("s", &record(1)).unwrap();
        journal.append("s", &record(2)).unwrap();
        let path = journal.path("s");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x5a; // flip a payload byte of record 2
        std::fs::write(&path, &bytes).unwrap();
        let records = journal.load("s").unwrap().unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn torn_failpoint_tears_the_append() {
        let dir = temp_store("failpoint");
        let journal = SessionJournal::open(&dir).unwrap();
        journal.reset("s").unwrap();
        journal.append("s", &record(1)).unwrap();
        pressio_faults::configure("stream:journal.torn=torn,times=1").unwrap();
        journal.append("s", &record(2)).unwrap();
        pressio_faults::clear();
        assert_eq!(
            journal.load("s").unwrap().unwrap().len(),
            1,
            "the torn append must not count as durable"
        );
        // the next good append lands after the torn tail is ignored...
        journal.append("s", &record(3)).unwrap();
        // ...but the loader cannot resync past garbage: records after a
        // tear stay invisible until the journal is reset. That is the
        // conservative contract: acked state is a prefix.
        assert_eq!(journal.load("s").unwrap().unwrap().len(), 1);
    }

    #[test]
    fn hostile_ids_stay_inside_the_journal_dir() {
        let dir = temp_store("hostile");
        let journal = SessionJournal::open(&dir).unwrap();
        for id in ["../escape", "a/b", "", "..", "\0nul"] {
            let path = journal.path(id);
            assert!(path.starts_with(journal_dir(&dir)), "{id} -> {path:?}");
            journal.reset(id).unwrap();
            journal.append(id, &record(1)).unwrap();
            assert_eq!(journal.load(id).unwrap().unwrap().len(), 1);
            journal.remove(id).unwrap();
        }
    }

    /// A record holding a NaN is refused by key before the file is
    /// touched, so the records appended after it still load.
    #[test]
    fn a_non_finite_record_is_refused_and_the_journal_stays_readable() {
        let dir = temp_store("non_finite");
        let journal = SessionJournal::open(&dir).unwrap();
        journal.reset("s").unwrap();
        journal.append("s", &record(1)).unwrap();
        let before = std::fs::read(journal.path("s")).unwrap();
        match journal.append("s", &record(2).with("j:prediction", f64::NAN)) {
            Err(Error::InvalidValue { key, .. }) => assert_eq!(key, "j:prediction"),
            other => panic!("{other:?}"),
        }
        assert_eq!(std::fs::read(journal.path("s")).unwrap(), before);
        journal.append("s", &record(3)).unwrap();
        let seqs: Vec<u64> = journal
            .load("s")
            .unwrap()
            .unwrap()
            .iter()
            .map(|r| r.get_u64("j:seq").unwrap())
            .collect();
        assert_eq!(seqs, [1, 3]);
    }
}
