//! `local_cache`: a stacking plugin that spills loaded datasets to local
//! storage (the node-local SSD tier of Figure 2) so that restarted or
//! repeated jobs reload at local-disk speed instead of re-running the
//! upstream loader.
//!
//! Cache entries are keyed by the SHA-256 of the upstream plugin's options
//! plus the dataset index — the same stable-hash discipline the checkpoint
//! database uses (§4.3) — so a configuration change automatically misses.

use crate::io::{read_raw, write_raw};
use crate::plugin::{DatasetMeta, DatasetPlugin};
use pressio_core::error::Result;
use pressio_core::hash::hash_options_hex;
use pressio_core::{Data, Options};
use std::path::{Path, PathBuf};

/// Caching wrapper around another [`DatasetPlugin`].
pub struct LocalCache {
    inner: Box<dyn DatasetPlugin>,
    dir: PathBuf,
    hits: u64,
    misses: u64,
}

impl LocalCache {
    /// Wrap `inner`, caching payloads under `dir`.
    pub fn new(inner: Box<dyn DatasetPlugin>, dir: &Path) -> Result<LocalCache> {
        std::fs::create_dir_all(dir)?;
        Ok(LocalCache {
            inner,
            dir: dir.to_path_buf(),
            hits: 0,
            misses: 0,
        })
    }

    fn key(&self, index: usize) -> String {
        let opts = self
            .inner
            .get_options()
            .with("cache:index", index as u64)
            .with("cache:upstream", self.inner.id());
        hash_options_hex(&opts)
    }

    fn cached_path(&self, index: usize, meta: &DatasetMeta) -> PathBuf {
        let key = self.key(index);
        self.dir.join(crate::io::format_filename(
            &key[..32],
            &meta.dims,
            meta.dtype,
        ))
    }

    /// (hits, misses) observed so far — the cache's effectiveness, which
    /// `pressio bench --ablation fig2` shows as cold against warm loads.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl DatasetPlugin for LocalCache {
    fn id(&self) -> &'static str {
        "local_cache"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn load_metadata(&mut self, index: usize) -> Result<DatasetMeta> {
        self.inner.load_metadata(index)
    }

    fn load_data(&mut self, index: usize) -> Result<Data> {
        let meta = self.inner.load_metadata(index)?;
        let path = self.cached_path(index, &meta);
        if path.is_file() {
            if let Ok(data) = read_raw(&path) {
                self.hits += 1;
                return Ok(data);
            }
            // torn/corrupt cache entry: fall through to reload
            let _ = std::fs::remove_file(&path);
        }
        self.misses += 1;
        let data = self.inner.load_data(index)?;
        let key = self.key(index);
        // best-effort spill; a full disk must not fail the load
        let _ = write_raw(&self.dir, &key[..32], &data);
        Ok(data)
    }

    fn set_options(&mut self, opts: &Options) -> Result<()> {
        self.inner.set_options(opts)
    }

    fn get_options(&self) -> Options {
        let mut o = self.inner.get_options();
        o.set("local_cache:dir", self.dir.display().to_string());
        o
    }

    fn get_configuration(&self) -> Options {
        let mut o = self.inner.get_configuration();
        o.set("local_cache:hits", self.hits);
        o.set("local_cache:misses", self.misses);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::MemoryDataset;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Wraps MemoryDataset, counting upstream loads.
    struct CountingSource {
        inner: MemoryDataset,
        loads: Arc<AtomicU64>,
    }

    impl DatasetPlugin for CountingSource {
        fn id(&self) -> &'static str {
            "counting"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn load_metadata(&mut self, index: usize) -> Result<DatasetMeta> {
            self.inner.load_metadata(index)
        }
        fn load_data(&mut self, index: usize) -> Result<Data> {
            self.loads.fetch_add(1, Ordering::SeqCst);
            self.inner.load_data(index)
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_load_hits_cache() {
        let dir = temp_dir("pressio_cache_test");
        let loads = Arc::new(AtomicU64::new(0));
        let src = CountingSource {
            inner: MemoryDataset::new(vec![(
                "a".into(),
                Data::from_f32(vec![8], (0..8).map(|i| i as f32).collect()),
            )]),
            loads: loads.clone(),
        };
        let mut cache = LocalCache::new(Box::new(src), &dir).unwrap();
        let d1 = cache.load_data(0).unwrap();
        let d2 = cache.load_data(0).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(loads.load(Ordering::SeqCst), 1, "upstream loaded twice");
        assert_eq!(cache.stats(), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_survives_plugin_restart() {
        let dir = temp_dir("pressio_cache_restart_test");
        let make = |loads: Arc<AtomicU64>| CountingSource {
            inner: MemoryDataset::new(vec![(
                "a".into(),
                Data::from_f64(vec![4], vec![1.0, 2.0, 3.0, 4.0]),
            )]),
            loads,
        };
        let loads = Arc::new(AtomicU64::new(0));
        {
            let mut cache = LocalCache::new(Box::new(make(loads.clone())), &dir).unwrap();
            cache.load_data(0).unwrap();
        }
        // "restart": a new cache instance over the same directory
        let mut cache2 = LocalCache::new(Box::new(make(loads.clone())), &dir).unwrap();
        let d = cache2.load_data(0).unwrap();
        assert_eq!(d.as_f64().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            loads.load(Ordering::SeqCst),
            1,
            "cache missed after restart"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cache_entry_recovers() {
        let dir = temp_dir("pressio_cache_corrupt_test");
        let loads = Arc::new(AtomicU64::new(0));
        let src = CountingSource {
            inner: MemoryDataset::new(vec![(
                "a".into(),
                Data::from_f32(vec![8], (0..8).map(|i| i as f32).collect()),
            )]),
            loads: loads.clone(),
        };
        let mut cache = LocalCache::new(Box::new(src), &dir).unwrap();
        cache.load_data(0).unwrap();
        // truncate the cached file
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        std::fs::write(&entry, [0u8; 3]).unwrap();
        let d = cache.load_data(0).unwrap();
        assert_eq!(d.num_elements(), 8);
        assert_eq!(loads.load(Ordering::SeqCst), 2, "should reload upstream");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metadata_never_touches_cache() {
        let dir = temp_dir("pressio_cache_meta_test");
        let loads = Arc::new(AtomicU64::new(0));
        let src = CountingSource {
            inner: MemoryDataset::new(vec![("a".into(), Data::from_f32(vec![2], vec![0.0, 1.0]))]),
            loads: loads.clone(),
        };
        let mut cache = LocalCache::new(Box::new(src), &dir).unwrap();
        let _ = cache.load_metadata(0).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 0);
        assert_eq!(cache.stats(), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
