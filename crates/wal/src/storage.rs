//! Pluggable segment storage: where log bytes actually live.
//!
//! [`SegmentStore`] is the narrow media interface the appender and the
//! recovery pass share: numbered append-only segments with an explicit
//! `sync` barrier. Three implementations:
//!
//! * [`FileStore`] — one file per segment under a directory, `sync` is
//!   `fdatasync`. The production store.
//! * [`MemStore`] — shared in-memory segments with an explicit
//!   durable/pending split: appends land in `pending`, `sync` promotes
//!   them to `durable`, and reads see both (matching the OS page cache,
//!   where un-fsynced writes are visible to readers but lost on power
//!   failure). Cloning shares the same segments, so a bench or test can
//!   keep a handle while the server owns the store. Counts syncs.
//! * `MemStore` doubles as the ks-dst crash store: [`MemStore::crash`]
//!   keeps `durable` plus a salt-deterministic *torn prefix* of each
//!   segment's pending bytes (modelling a partial final write), drops
//!   the rest, and silences all further appends/syncs until
//!   [`MemStore::revive`] — so a graceful shutdown path running after
//!   the simulated power cut cannot retroactively save the log.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Numbered append-only segments with a durability barrier.
///
/// Contract: `append(id, …)` extends segment `id`; `sync(id)` makes
/// every byte appended to `id` so far durable; `read(id)` returns the
/// segment's current contents (durable and pending — what a reader of
/// the same media would see); `list` returns existing segment ids in
/// ascending order.
pub trait SegmentStore: Send {
    /// Create an empty segment `id` (truncating any existing one).
    fn create(&mut self, id: u64) -> io::Result<()>;
    /// Append bytes to segment `id`.
    fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()>;
    /// Durability barrier for segment `id` (fsync).
    fn sync(&mut self, id: u64) -> io::Result<()>;
    /// Existing segment ids, ascending.
    fn list(&self) -> io::Result<Vec<u64>>;
    /// Current length of segment `id` in bytes.
    fn len(&self, id: u64) -> io::Result<u64>;
    /// Current contents of segment `id`.
    fn read(&self, id: u64) -> io::Result<Vec<u8>>;
    /// Delete segment `id` (segment GC after a checkpoint fence).
    fn remove(&mut self, id: u64) -> io::Result<()>;
}

impl SegmentStore for Box<dyn SegmentStore> {
    fn create(&mut self, id: u64) -> io::Result<()> {
        (**self).create(id)
    }
    fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        (**self).append(id, bytes)
    }
    fn sync(&mut self, id: u64) -> io::Result<()> {
        (**self).sync(id)
    }
    fn list(&self) -> io::Result<Vec<u64>> {
        (**self).list()
    }
    fn len(&self, id: u64) -> io::Result<u64> {
        (**self).len(id)
    }
    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        (**self).read(id)
    }
    fn remove(&mut self, id: u64) -> io::Result<()> {
        (**self).remove(id)
    }
}

/// File-per-segment store under one directory; `sync` is `fdatasync`.
pub struct FileStore {
    dir: PathBuf,
    handles: BTreeMap<u64, File>,
}

impl FileStore {
    /// Open (creating if needed) the segment directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<FileStore> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(FileStore {
            dir: dir.as_ref().to_path_buf(),
            handles: BTreeMap::new(),
        })
    }

    fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("wal-{id:08}.seg"))
    }

    fn handle(&mut self, id: u64) -> io::Result<&mut File> {
        if !self.handles.contains_key(&id) {
            let file = OpenOptions::new().append(true).open(self.path(id))?;
            self.handles.insert(id, file);
        }
        Ok(self.handles.get_mut(&id).unwrap())
    }
}

impl SegmentStore for FileStore {
    fn create(&mut self, id: u64) -> io::Result<()> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.path(id))?;
        self.handles.insert(id, file);
        Ok(())
    }

    fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        self.handle(id)?.write_all(bytes)
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        self.handle(id)?.sync_data()
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn len(&self, id: u64) -> io::Result<u64> {
        Ok(std::fs::metadata(self.path(id))?.len())
    }

    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(id))
    }

    fn remove(&mut self, id: u64) -> io::Result<()> {
        self.handles.remove(&id);
        std::fs::remove_file(self.path(id))
    }
}

/// One in-memory segment: synced bytes and not-yet-synced bytes.
#[derive(Default, Clone)]
struct MemSegment {
    durable: Vec<u8>,
    pending: Vec<u8>,
}

#[derive(Default)]
struct MemInner {
    segments: BTreeMap<u64, MemSegment>,
    syncs: u64,
    crashed: bool,
}

/// Shared in-memory segment store with crash simulation (see module
/// docs). `Clone` shares the underlying segments.
#[derive(Clone, Default)]
pub struct MemStore {
    inner: Arc<Mutex<MemInner>>,
}

/// `splitmix64`: the per-segment torn-prefix length must be a pure
/// function of `(salt, segment id)` so a dst seed replays byte-for-byte.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl MemStore {
    /// Fresh empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Total `sync` calls that reached the media (crash-silenced syncs
    /// don't count) — the fsync meter the group-commit bench gates on.
    pub fn sync_count(&self) -> u64 {
        self.inner.lock().unwrap().syncs
    }

    /// Simulate a power cut: every segment keeps its durable bytes plus
    /// a salt-deterministic prefix of its pending bytes (the torn final
    /// write), the rest of pending is lost, and the store goes dead —
    /// appends and syncs are silently dropped until [`MemStore::revive`].
    pub fn crash(&self, torn_salt: u64) {
        let mut inner = self.inner.lock().unwrap();
        for (id, seg) in inner.segments.iter_mut() {
            let keep = if seg.pending.is_empty() {
                0
            } else {
                (mix(torn_salt ^ id.wrapping_mul(0xA24B_AED4_963E_E407))
                    % (seg.pending.len() as u64 + 1)) as usize
            };
            seg.durable.extend_from_slice(&seg.pending[..keep]);
            seg.pending.clear();
        }
        inner.crashed = true;
    }

    /// Bring the media back after a crash; durable contents intact.
    pub fn revive(&self) {
        self.inner.lock().unwrap().crashed = false;
    }

    /// Is the store currently dead (between `crash` and `revive`)?
    pub fn crashed(&self) -> bool {
        self.inner.lock().unwrap().crashed
    }
}

impl SegmentStore for MemStore {
    fn create(&mut self, id: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.crashed {
            return Ok(());
        }
        inner.segments.insert(id, MemSegment::default());
        Ok(())
    }

    fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.crashed {
            return Ok(());
        }
        inner
            .segments
            .entry(id)
            .or_default()
            .pending
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.crashed {
            return Ok(());
        }
        if let Some(seg) = inner.segments.get_mut(&id) {
            let pending = std::mem::take(&mut seg.pending);
            seg.durable.extend_from_slice(&pending);
        }
        inner.syncs += 1;
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        Ok(self
            .inner
            .lock()
            .unwrap()
            .segments
            .keys()
            .copied()
            .collect())
    }

    fn len(&self, id: u64) -> io::Result<u64> {
        let inner = self.inner.lock().unwrap();
        let seg = inner
            .segments
            .get(&id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("segment {id}")))?;
        Ok((seg.durable.len() + seg.pending.len()) as u64)
    }

    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        let inner = self.inner.lock().unwrap();
        let seg = inner
            .segments
            .get(&id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("segment {id}")))?;
        let mut out = seg.durable.clone();
        out.extend_from_slice(&seg.pending);
        Ok(out)
    }

    fn remove(&mut self, id: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.crashed {
            return Ok(());
        }
        inner.segments.remove(&id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_durable_pending_split() {
        let mut store = MemStore::new();
        store.create(0).unwrap();
        store.append(0, b"abc").unwrap();
        // Readers see pending bytes (page-cache semantics)…
        assert_eq!(store.read(0).unwrap(), b"abc");
        // …but a crash before sync loses the un-torn remainder.
        assert_eq!(store.sync_count(), 0);
        store.sync(0).unwrap();
        assert_eq!(store.sync_count(), 1);
        store.append(0, b"def").unwrap();
        store.crash(0); // salt 0: torn length is deterministic
        let durable = store.read(0).unwrap();
        assert!(durable.starts_with(b"abc"));
        assert!(durable.len() <= 6);
    }

    #[test]
    fn crashed_store_ignores_writes_until_revive() {
        let mut store = MemStore::new();
        store.create(0).unwrap();
        store.append(0, b"keep").unwrap();
        store.sync(0).unwrap();
        store.crash(7);
        store.append(0, b"lost").unwrap();
        store.sync(0).unwrap();
        store.remove(0).unwrap();
        assert_eq!(store.read(0).unwrap(), b"keep");
        assert_eq!(store.sync_count(), 1);
        store.revive();
        store.append(0, b"!").unwrap();
        store.sync(0).unwrap();
        assert_eq!(store.read(0).unwrap(), b"keep!");
    }

    #[test]
    fn torn_prefix_is_salt_deterministic() {
        let lengths: Vec<usize> = (0..2)
            .map(|_| {
                let mut store = MemStore::new();
                store.create(3).unwrap();
                store.append(3, &[7u8; 100]).unwrap();
                store.crash(42);
                store.read(3).unwrap().len()
            })
            .collect();
        assert_eq!(lengths[0], lengths[1]);
        // A different salt should (for this choice) tear differently.
        let mut other = MemStore::new();
        other.create(3).unwrap();
        other.append(3, &[7u8; 100]).unwrap();
        other.crash(43);
        assert_ne!(other.read(3).unwrap().len(), lengths[0]);
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("ks-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = FileStore::open(&dir).unwrap();
        store.create(0).unwrap();
        store.create(1).unwrap();
        store.append(0, b"hello ").unwrap();
        store.append(0, b"wal").unwrap();
        store.sync(0).unwrap();
        assert_eq!(store.list().unwrap(), vec![0, 1]);
        assert_eq!(store.read(0).unwrap(), b"hello wal");
        assert_eq!(store.len(0).unwrap(), 9);
        store.remove(0).unwrap();
        assert_eq!(store.list().unwrap(), vec![1]);
        // Re-open sees the surviving segment.
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.list().unwrap(), vec![1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
