//! Embedded checkpoint store (paper §4.3).
//!
//! LibPressio-Predict-Bench checkpoints through SQLite for two properties:
//! atomicity (a crash never leaves a partial result) and queryable partial
//! state (restore exactly the metrics results that finished). This store
//! provides both with an append-only JSON-lines log: every record is one
//! line, appends are flushed, and a torn trailing line (the only artifact a
//! crash can produce) is detected and ignored on open. Corruption *beyond*
//! a torn tail — a bad line with good records after it, which no crash of
//! ours produces — quarantines the damaged log and publishes a clean one
//! from the records that survived (DESIGN.md, "Durable files"), so a flaky
//! disk degrades a campaign instead of aborting it. Records are keyed by
//! the stable SHA-256 option hash from `pressio-core`, so restarted jobs
//! find their results across executions.
//!
//! Failpoints: `store:open.io`, `store:put.io`, `store:put.torn`,
//! `store:sync.io`, `store:compact.io`, and `store:compact.crash` (dies
//! after writing the temp file, before the rename — the log must survive
//! untouched).

use pressio_core::error::Result;
use pressio_core::fs::{publish, quarantine};
use pressio_core::options::json::{self, Reader};
use pressio_core::Options;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Append-only, crash-safe key → [`Options`] store.
pub struct CheckpointStore {
    path: PathBuf,
    file: std::fs::File,
    index: HashMap<String, Options>,
    /// Records skipped at open because they were torn or malformed.
    recovered_torn: usize,
    /// Where the damaged log went if open() quarantined it.
    quarantined: Option<PathBuf>,
    /// A previous append ended mid-line (torn write); heal before the
    /// next append so records never merge.
    tail_dirty: bool,
    /// Puts acknowledged since the last `sync_data`.
    unsynced: usize,
    /// Fsync after this many puts (1 = every put is durable on return).
    sync_every: usize,
}

/// One record's line, newline included: `{"key":KEY,"value":OPTIONS}` in
/// core's JSON form, which refuses a non-finite float before a byte is out.
fn record_line(key: &str, value: &Options) -> Result<Vec<u8>> {
    let mut line = b"{\"key\":".to_vec();
    json::write_str(&mut line, key);
    line.extend_from_slice(b",\"value\":");
    json::write(value, &mut line, true)?;
    line.extend_from_slice(b"}\n");
    Ok(line)
}

/// The record a line holds, or `None` for a torn or malformed one.
fn parse_record(line: &str) -> Option<(String, Options)> {
    let mut p = Reader::new(line);
    let (mut key, mut value) = (None, None);
    p.object(0, |p, name, depth| {
        match &*name {
            "key" => key = Some(p.field(depth, Reader::string)?),
            "value" => value = Some(p.field(depth, Reader::options)?),
            _ => p.skip(depth)?,
        }
        Ok(())
    })
    .and_then(|()| p.end("trailing characters after the record"))
    .ok()?;
    Some((key?.ok()?, value?.ok()?))
}

/// One line per record of `index`, sorted by key (deterministic).
fn write_records(w: &mut dyn Write, index: &HashMap<String, Options>) -> Result<()> {
    let mut keys: Vec<&String> = index.keys().collect();
    keys.sort();
    for key in keys {
        w.write_all(&record_line(key, &index[key])?)?;
    }
    Ok(())
}

impl CheckpointStore {
    /// Open (or create) the store at `path`, replaying the log. A torn
    /// *trailing* line (the one artifact our own crash can produce) is
    /// skipped; damage anywhere else means the log was corrupted under us,
    /// so the file is quarantined and rewritten from the surviving records.
    pub fn open(path: &Path) -> Result<CheckpointStore> {
        pressio_faults::inject("store:open.io")?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut index = HashMap::new();
        let (mut bad_lines, mut trailing_bad) = (0usize, false); // was the *last* bad?
        if path.is_file() {
            for line in BufReader::new(std::fs::File::open(path)?).lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let record = parse_record(&line);
                trailing_bad = record.is_none();
                bad_lines += usize::from(trailing_bad);
                index.extend(record);
            }
        }
        let mut quarantined = None;
        if bad_lines > 1 || (bad_lines == 1 && !trailing_bad) {
            // mid-file corruption: preserve the damaged log for forensics
            // and rewrite a clean one from the records that parsed
            let dest = quarantine(path)?;
            publish(path, |w| write_records(w, &index))?;
            pressio_obs::add_counter("store:quarantined", 1);
            quarantined = Some(dest);
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(CheckpointStore {
            path: path.to_path_buf(),
            file,
            index,
            recovered_torn: bad_lines,
            quarantined,
            tail_dirty: false,
            unsynced: 0,
            sync_every: 1,
        })
    }

    /// Batch fsyncs: make every `n`-th put pay the `sync_data` cost instead
    /// of every put. A crash can then lose at most the last `n - 1`
    /// acknowledged records — acceptable for checkpoint data that is merely
    /// expensive (not impossible) to recompute. `n` is clamped to ≥ 1.
    pub fn with_sync_every(mut self, n: usize) -> CheckpointStore {
        self.sync_every = n.max(1);
        self
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Torn/corrupt lines skipped during the last open (0 on clean logs).
    pub fn recovered_torn(&self) -> usize {
        self.recovered_torn
    }

    /// Where open() moved a mid-file-corrupted log, if it had to.
    pub fn quarantined(&self) -> Option<&Path> {
        self.quarantined.as_deref()
    }

    /// Whether `key` has a committed result.
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Fetch a committed result.
    pub fn get(&self, key: &str) -> Option<&Options> {
        self.index.get(key)
    }

    /// Commit a result: append one line, flush, and `sync_data` (subject to
    /// [`with_sync_every`](Self::with_sync_every) batching) before updating
    /// the in-memory index, so a reader never sees an acknowledged-but-lost
    /// record. Flushing alone only reaches the OS page cache — a power loss
    /// could still drop the record; the fsync closes that gap.
    pub fn put(&mut self, key: impl Into<String>, value: Options) -> Result<()> {
        let key = key.into();
        let line = record_line(&key, &value)?;
        pressio_faults::inject("store:put.io")?;
        if self.tail_dirty {
            // a previous append failed mid-line; terminate that fragment
            // so it parses as one bad line instead of merging with ours
            self.file.write_all(b"\n")?;
            self.tail_dirty = false;
        }
        if pressio_faults::check("store:put.torn").is_some() {
            // persist only a prefix, as a crash mid-append would
            self.file.write_all(&line[..line.len() / 2])?;
            self.file.flush()?;
            self.tail_dirty = true;
            return Err(pressio_faults::injected_error("store:put.torn"));
        }
        if let Err(e) = self.file.write_all(&line) {
            self.tail_dirty = true; // unknown how much hit the file
            return Err(e.into());
        }
        self.file.flush()?;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        self.index.insert(key, value);
        Ok(())
    }

    /// Force any batched appends down to stable storage now.
    pub fn sync(&mut self) -> Result<()> {
        pressio_faults::inject("store:sync.io")?;
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Rewrite the log with only the live records, published over the
    /// old log (DESIGN.md, "Durable files"): a crash at any point leaves
    /// either the complete old log or the complete new one.
    pub fn compact(&mut self) -> Result<()> {
        pressio_faults::inject("store:compact.io")?;
        publish(&self.path, |w| {
            write_records(w, &self.index)?;
            w.flush()?;
            // dying between temp write and rename: the log stays whole
            pressio_faults::inject("store:compact.crash")
        })?;
        self.file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        self.unsynced = 0;
        self.tail_dirty = false;
        Ok(())
    }

    /// All keys with a given prefix — the "query the partial state" use the
    /// paper chose a database for.
    pub fn keys_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.index
            .keys()
            .filter(move |k| k.starts_with(prefix))
            .map(String::as_str)
    }
}

impl Drop for CheckpointStore {
    fn drop(&mut self) {
        // flush any batched-but-unsynced appends; best effort only
        if self.unsynced > 0 {
            let _ = self.file.sync_data();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pressio_store_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn put_get_round_trip() {
        let path = temp("basic.jsonl");
        let mut s = CheckpointStore::open(&path).unwrap();
        assert!(s.is_empty());
        s.put("k1", Options::new().with("ratio", 12.5)).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.contains("k1"));
        assert_eq!(s.get("k1").unwrap().get_f64("ratio").unwrap(), 12.5);
        assert!(s.get("k2").is_none());
    }

    #[test]
    fn reopen_restores_state() {
        let path = temp("reopen.jsonl");
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.put("a", Options::new().with("v", 1.0)).unwrap();
            s.put("b", Options::new().with("v", 2.0)).unwrap();
        }
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get("b").unwrap().get_f64("v").unwrap(), 2.0);
        assert_eq!(s.recovered_torn(), 0);
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let path = temp("torn.jsonl");
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.put("good", Options::new().with("v", 1.0)).unwrap();
        }
        // simulate a crash mid-append
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"key\":\"half...").unwrap();
        }
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.contains("good"));
        assert_eq!(s.recovered_torn(), 1);
    }

    #[test]
    fn overwrites_keep_latest_and_compact_shrinks() {
        let path = temp("compact.jsonl");
        let mut s = CheckpointStore::open(&path).unwrap();
        for i in 0..50 {
            s.put("same", Options::new().with("v", i as f64)).unwrap();
        }
        assert_eq!(s.get("same").unwrap().get_f64("v").unwrap(), 49.0);
        let before = std::fs::metadata(&path).unwrap().len();
        s.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before / 10, "{after} vs {before}");
        // still readable after compaction + reopen
        drop(s);
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.get("same").unwrap().get_f64("v").unwrap(), 49.0);
    }

    #[test]
    fn writes_after_compact_persist() {
        let path = temp("compact_write.jsonl");
        let mut s = CheckpointStore::open(&path).unwrap();
        s.put("a", Options::new().with("v", 1.0)).unwrap();
        s.compact().unwrap();
        s.put("b", Options::new().with("v", 2.0)).unwrap();
        drop(s);
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn batched_sync_store_survives_torn_write_and_reopen() {
        let path = temp("batched_sync.jsonl");
        {
            let mut s = CheckpointStore::open(&path).unwrap().with_sync_every(4);
            for i in 0..7 {
                s.put(format!("k{i}"), Options::new().with("v", i as f64))
                    .unwrap();
            }
            // simulate a crash: skip Drop (no final sync) — the flushed
            // lines are still visible to this process through the page
            // cache, which is exactly what a torn-write recovery sees
            std::mem::forget(s);
        }
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"key\":\"torn").unwrap();
        }
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.len(), 7, "all acknowledged puts must be served");
        for i in 0..7 {
            assert_eq!(
                s.get(&format!("k{i}")).unwrap().get_f64("v").unwrap(),
                i as f64
            );
        }
        assert_eq!(s.recovered_torn(), 1);
    }

    #[test]
    fn explicit_sync_resets_batch_counter() {
        let path = temp("explicit_sync.jsonl");
        let mut s = CheckpointStore::open(&path).unwrap().with_sync_every(100);
        s.put("a", Options::new().with("v", 1.0)).unwrap();
        s.sync().unwrap();
        s.put("b", Options::new().with("v", 2.0)).unwrap();
        drop(s);
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn prefix_queries() {
        let path = temp("prefix.jsonl");
        let mut s = CheckpointStore::open(&path).unwrap();
        s.put("sz3/f1", Options::new()).unwrap();
        s.put("sz3/f2", Options::new()).unwrap();
        s.put("zfp/f1", Options::new()).unwrap();
        let mut sz: Vec<&str> = s.keys_with_prefix("sz3/").collect();
        sz.sort_unstable();
        assert_eq!(sz, vec!["sz3/f1", "sz3/f2"]);
    }

    #[test]
    fn mid_file_corruption_is_quarantined_with_good_records_kept() {
        let path = temp("quarantine.jsonl");
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.put("a", Options::new().with("v", 1.0)).unwrap();
            s.put("b", Options::new().with("v", 2.0)).unwrap();
            s.put("c", Options::new().with("v", 3.0)).unwrap();
        }
        // corrupt the middle record (bit rot, not a torn tail)
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"key\":\"b\",GARBAGE";
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let s = CheckpointStore::open(&path).unwrap();
        let qpath = s.quarantined().expect("must quarantine").to_path_buf();
        assert!(qpath.exists(), "damaged log preserved at {qpath:?}");
        assert!(qpath.to_str().unwrap().contains(".quarantined"));
        assert_eq!(s.len(), 2, "good records survive");
        assert!(s.contains("a") && s.contains("c"));
        assert_eq!(s.recovered_torn(), 1);
        drop(s);
        // the rewritten log is clean on the next open
        let s = CheckpointStore::open(&path).unwrap();
        assert!(s.quarantined().is_none());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn repeated_quarantines_get_distinct_names() {
        let path = temp("quarantine_twice.jsonl");
        // drop quarantined leftovers from earlier runs; temp() only
        // removes the log itself
        for entry in std::fs::read_dir(path.parent().unwrap()).unwrap() {
            let entry = entry.unwrap();
            if entry
                .file_name()
                .to_str()
                .unwrap()
                .starts_with("quarantine_twice.jsonl.quarantined")
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        for round in 0..2 {
            {
                let mut s = CheckpointStore::open(&path).unwrap();
                s.put(format!("k{round}"), Options::new().with("v", round as f64))
                    .unwrap();
                s.put("tail", Options::new()).unwrap();
            }
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, format!("BROKEN\n{text}")).unwrap();
            let s = CheckpointStore::open(&path).unwrap();
            assert!(s.quarantined().is_some(), "round {round}");
        }
        let dir = path.parent().unwrap();
        let quarantined = std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .unwrap()
                    .starts_with("quarantine_twice.jsonl.quarantined")
            })
            .count();
        assert_eq!(quarantined, 2);
    }

    #[test]
    fn complex_options_round_trip() {
        let path = temp("complex.jsonl");
        let value = Options::new()
            .with("f", 1.25e-7)
            .with("s", "text with \"quotes\" and \n newline")
            .with("vec", vec![1.0f64, 2.5, -3.0])
            .with("bytes", vec![0u8, 255, 10]);
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.put("k", value.clone()).unwrap();
        }
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.get("k").unwrap(), &value);
    }

    /// A result holding a NaN is refused by key before the log is
    /// touched: a good record after it does not make the next open
    /// quarantine the log.
    #[test]
    fn a_non_finite_result_is_refused_and_the_log_stays_clean() {
        let path = temp("non_finite.jsonl");
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            match s.put("nan", Options::new().with("ratio", f64::NAN)) {
                Err(pressio_core::Error::InvalidValue { key, .. }) => assert_eq!(key, "ratio"),
                other => panic!("{other:?}"),
            }
            assert!(!s.contains("nan"));
            s.put("good", Options::new().with("ratio", 2.0)).unwrap();
        }
        let s = CheckpointStore::open(&path).unwrap();
        assert!(s.quarantined().is_none());
        assert_eq!(s.recovered_torn(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("good").unwrap().get_f64("ratio").unwrap(), 2.0);
    }
}
