//! The on-disk site store: a directory of snapshot files with crash-safe
//! writes, corruption-quarantining hydration, and a write-behind queue.
//!
//! File naming inside the store directory:
//!
//! * `<cache-key-hex>.pvsnap` — a committed snapshot (the only pattern
//!   hydration reads);
//! * `<cache-key-hex>.pvsnap.tmp<seq>` — an in-flight write (the sequence
//!   number keeps concurrent writers off each other's file); a crash
//!   between create and rename leaves one behind and it is ignored
//!   forever, so a partial write is invisible on restart;
//! * `<cache-key-hex>.pvsnap.quarantined` — a snapshot that failed to
//!   decode, moved aside so it is never retried (and kept for forensics).

use crate::snapshot::{encode_site, SiteSnapshot, SnapshotMeta};
use crate::StoreError;
use pv_floorplan::SuitabilityMap;
use pv_gis::SolarDataset;
use pv_runtime::{Runtime, WorkerPool};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Extension of committed snapshot files.
pub const SNAPSHOT_EXT: &str = "pvsnap";
/// Suffix appended to a snapshot that failed to decode.
pub const QUARANTINE_SUFFIX: &str = ".quarantined";
/// Suffix of in-flight (not yet committed) writes.
pub const TMP_SUFFIX: &str = ".tmp";

/// Bounded depth of the write-behind queue; a burst of cold misses beyond
/// this back-pressures the submitting request thread briefly rather than
/// growing without bound.
const WRITE_QUEUE_CAPACITY: usize = 16;

/// Monotonic counters describing a store's life so far. Shared with
/// write-behind jobs, surfaced in `/v1/stats`.
#[derive(Debug, Default)]
pub struct StoreCounters {
    hydrated: AtomicU64,
    quarantined: AtomicU64,
    skipped: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
}

impl StoreCounters {
    /// Snapshots successfully decoded during hydration.
    pub fn hydrated(&self) -> u64 {
        self.hydrated.load(Ordering::Relaxed)
    }

    /// Files quarantined (decode failures) during hydration.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Valid snapshots skipped by the consumer (e.g. extraction-config
    /// mismatch with the serving configuration).
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Snapshots committed to disk.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Write attempts that failed with an I/O error.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Marks one valid-but-unusable snapshot as skipped.
    pub fn note_skipped(&self) {
        self.skipped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Subdirectory of `root` holding shard `index`'s partition of a
/// sharded store (`shard-000`, `shard-001`, …).
///
/// The zero-padded name is part of the on-disk layout contract: the
/// router derives worker `--store-dir` arguments from it, and
/// [`SiteStore::open_shard`] opens the same path, so both sides agree
/// without passing paths over the wire.
#[must_use]
pub fn shard_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:03}"))
}

/// A directory of per-site snapshots keyed by the serving cache key.
///
/// All mutating paths are total: a damaged file is quarantined and
/// reported through [`StoreCounters`], never propagated as a panic.
pub struct SiteStore {
    dir: PathBuf,
    counters: Arc<StoreCounters>,
    /// Single-worker write-behind queue. `None` after [`drain`](Self::drain).
    writer: Mutex<Option<WorkerPool>>,
}

impl std::fmt::Debug for SiteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteStore")
            .field("dir", &self.dir)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl SiteStore {
    /// Opens (creating if needed) a snapshot store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            counters: Arc::new(StoreCounters::default()),
            writer: Mutex::new(Some(WorkerPool::new(
                Runtime::sequential(),
                WRITE_QUEUE_CAPACITY,
            ))),
        })
    }

    /// Opens (creating if needed) shard `index`'s partition of a sharded
    /// store rooted at `root` — the on-disk contract behind
    /// `pvplan route`: shard `i` hydrates from and writes to
    /// [`shard_dir`]`(root, i)` and nothing else, so one site's snapshot
    /// lives on exactly one shard and a restarted worker rehydrates only
    /// its own partition.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn open_shard(root: impl AsRef<Path>, index: usize) -> Result<Self, StoreError> {
        Self::open(shard_dir(root.as_ref(), index))
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's counters (shared with in-flight write jobs).
    #[must_use]
    pub fn counters(&self) -> &StoreCounters {
        &self.counters
    }

    /// Path a snapshot for `key` is committed to.
    #[must_use]
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{SNAPSHOT_EXT}"))
    }

    /// Whether a committed snapshot for `key` exists.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.path_for(key).is_file()
    }

    /// Encodes and commits a snapshot for `key` synchronously: write to
    /// `*.tmp`, flush + fsync, atomic rename, fsync the directory. A crash
    /// at any point leaves either the old state or the new state visible,
    /// never a torn file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure (the `*.tmp` file may
    /// remain; it is ignored by hydration).
    pub fn save(
        &self,
        key: u64,
        meta: &SnapshotMeta,
        dataset: &SolarDataset,
        map: &SuitabilityMap,
    ) -> Result<(), StoreError> {
        let bytes = encode_site(meta, dataset, map);
        let result = write_atomic(&self.dir, key, &bytes);
        match &result {
            Ok(()) => self.counters.writes.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.counters.write_errors.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Queues a snapshot write on the store's single writer thread and
    /// returns immediately. Returns `false` (and does nothing) if a
    /// committed snapshot for `key` already exists or the store has been
    /// drained. Errors inside the job are counted, not propagated — the
    /// serving path never blocks on, or fails because of, persistence.
    pub fn save_behind(
        &self,
        key: u64,
        meta: SnapshotMeta,
        dataset: Arc<SolarDataset>,
        map: Arc<SuitabilityMap>,
    ) -> bool {
        if self.contains(key) {
            return false;
        }
        let dir = self.dir.clone();
        let counters = Arc::clone(&self.counters);
        let Ok(writer) = self.writer.lock() else {
            return false;
        };
        let Some(pool) = writer.as_ref() else {
            return false;
        };
        pool.submit(move || {
            // Re-check at run time: a synchronous `save` (pre-warming) may
            // have committed this site while the job sat queued; its bytes
            // are the same, so skip the second write.
            if dir.join(format!("{key:016x}.{SNAPSHOT_EXT}")).is_file() {
                return;
            }
            let bytes = encode_site(&meta, &dataset, &map);
            match write_atomic(&dir, key, &bytes) {
                Ok(()) => counters.writes.fetch_add(1, Ordering::Relaxed),
                Err(_) => counters.write_errors.fetch_add(1, Ordering::Relaxed),
            };
        })
    }

    /// Shuts down the write-behind queue, running every queued write to
    /// completion first. Idempotent; called on server shutdown so accepted
    /// write-behinds are durable before exit.
    pub fn drain(&self) {
        let pool = match self.writer.lock() {
            Ok(mut writer) => writer.take(),
            Err(_) => None,
        };
        if let Some(pool) = pool {
            pool.shutdown();
        }
    }

    /// Reads and decodes every committed snapshot in the store, in
    /// deterministic (filename) order. Files that fail to decode are
    /// quarantined and counted; `*.tmp` leftovers and already-quarantined
    /// files are ignored.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only if the directory itself cannot be listed;
    /// per-file problems never fail the scan.
    pub fn hydrate(&self) -> Result<Vec<SiteSnapshot>, StoreError> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == SNAPSHOT_EXT) && p.is_file())
            .collect();
        paths.sort();
        let mut snapshots = Vec::with_capacity(paths.len());
        for path in paths {
            match fs::read(&path).map_err(StoreError::from) {
                Ok(bytes) => match SiteSnapshot::decode(&bytes) {
                    Ok(snapshot) => {
                        self.counters.hydrated.fetch_add(1, Ordering::Relaxed);
                        snapshots.push(snapshot);
                    }
                    Err(_) => self.quarantine(&path),
                },
                // An unreadable file is as unusable as a corrupt one: move
                // it aside (best effort) so it is not retried every start.
                Err(_) => self.quarantine(&path),
            }
        }
        Ok(snapshots)
    }

    /// Moves a damaged snapshot aside as `<name>.quarantined` (best
    /// effort — a failed rename is still counted so stats reflect the
    /// damaged file either way).
    fn quarantine(&self, path: &Path) {
        let mut target = path.as_os_str().to_os_string();
        target.push(QUARANTINE_SUFFIX);
        let _ = fs::rename(path, PathBuf::from(target));
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for SiteStore {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The crash-safe commit: `*.tmp<seq>` → flush → fsync → rename →
/// fsync(dir). The process-wide sequence number gives every in-flight
/// write its own scratch file, so a synchronous writer racing the
/// write-behind worker for the same key can never tear each other's
/// bytes — the rename stays the single atomic commit point.
fn write_atomic(dir: &Path, key: u64, bytes: &[u8]) -> Result<(), StoreError> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let final_path = dir.join(format!("{key:016x}.{SNAPSHOT_EXT}"));
    let tmp_path = dir.join(format!("{key:016x}.{SNAPSHOT_EXT}{TMP_SUFFIX}{seq}"));
    let mut file = fs::File::create(&tmp_path)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp_path, &final_path)?;
    // Make the rename itself durable. Directory fsync is best effort on
    // platforms where directories cannot be opened.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests_support::sample_snapshot;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pvstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_partitions_are_disjoint_and_round_trip() {
        let root = scratch_dir("shards");
        assert_eq!(
            shard_dir(&root, 7).file_name().and_then(|n| n.to_str()),
            Some("shard-007")
        );

        // A snapshot written to shard 0 hydrates from shard 0 and is
        // invisible to shard 1 — the partitioning contract the router's
        // per-worker `--store-dir` relies on.
        let shard0 = SiteStore::open_shard(&root, 0).unwrap();
        let snap = sample_snapshot();
        shard0
            .save(0xabc, &snap.meta, &snap.dataset, &snap.map)
            .unwrap();

        let rehydrated = SiteStore::open_shard(&root, 0).unwrap().hydrate().unwrap();
        assert_eq!(rehydrated.len(), 1);
        assert!(SiteStore::open_shard(&root, 1)
            .unwrap()
            .hydrate()
            .unwrap()
            .is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn save_hydrate_round_trip() {
        let dir = scratch_dir("roundtrip");
        let store = SiteStore::open(&dir).unwrap();
        let snap = sample_snapshot();
        store
            .save(0xfeed, &snap.meta, &snap.dataset, &snap.map)
            .unwrap();
        assert!(store.contains(0xfeed));
        assert_eq!(store.counters().writes(), 1);

        let hydrated = store.hydrate().unwrap();
        assert_eq!(hydrated.len(), 1);
        assert_eq!(hydrated[0].meta, snap.meta);
        assert_eq!(store.counters().hydrated(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_quarantined_not_fatal() {
        let dir = scratch_dir("quarantine");
        let store = SiteStore::open(&dir).unwrap();
        let snap = sample_snapshot();
        store.save(1, &snap.meta, &snap.dataset, &snap.map).unwrap();
        store.save(2, &snap.meta, &snap.dataset, &snap.map).unwrap();
        // Flip one byte in the middle of snapshot 1.
        let victim = store.path_for(1);
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();

        let hydrated = store.hydrate().unwrap();
        assert_eq!(hydrated.len(), 1, "the intact snapshot still loads");
        assert_eq!(store.counters().quarantined(), 1);
        assert!(!victim.exists(), "damaged file moved aside");
        let mut quarantined = victim.into_os_string();
        quarantined.push(QUARANTINE_SUFFIX);
        assert!(PathBuf::from(quarantined).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_leftovers_are_invisible() {
        let dir = scratch_dir("torn");
        let store = SiteStore::open(&dir).unwrap();
        let snap = sample_snapshot();
        let bytes = snap.encode();
        // Simulate a crash mid-write: a torn tmp file, never renamed.
        fs::write(
            dir.join(format!("00000000000000aa.{SNAPSHOT_EXT}{TMP_SUFFIX}")),
            &bytes[..bytes.len() / 3],
        )
        .unwrap();
        assert!(store.hydrate().unwrap().is_empty());
        assert_eq!(store.counters().quarantined(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_behind_commits_after_drain_and_skips_existing() {
        let dir = scratch_dir("behind");
        let store = SiteStore::open(&dir).unwrap();
        let snap = sample_snapshot();
        let dataset = Arc::new(snap.dataset);
        let map = Arc::new(snap.map);
        assert!(store.save_behind(7, snap.meta.clone(), Arc::clone(&dataset), Arc::clone(&map)));
        store.drain();
        assert!(store.contains(7));
        assert_eq!(store.counters().writes(), 1);
        // Already present → refused. Drained → refused.
        assert!(!store.save_behind(7, snap.meta.clone(), Arc::clone(&dataset), Arc::clone(&map)));
        assert!(!store.save_behind(8, snap.meta, dataset, map));
        let _ = fs::remove_dir_all(&dir);
    }
}
