//! Pluggable segment storage: the media that hold the log's bytes.
//!
//! [`SegmentStore`] is a byte store; the log's layout on it belongs to
//! [`wal`](crate::wal) and [`recover`](mod@crate::recover). Two media:
//!
//! * [`FileStore`] — a file per segment; `sync` is `fdatasync`, and
//!   `create` and `remove` sync the directory, so a segment's name is as
//!   durable as the bytes synced into it.
//! * [`MemStore`] — shared in-memory segments whose changes are visible
//!   at once (as in the page cache) and durable after `sync`. It counts
//!   syncs, can run a hook before each ([`MemStore::on_sync`]), and is
//!   the ks-dst crash media: [`MemStore::crash`] keeps a salt-chosen
//!   prefix of each segment's unsynced changes, the last one torn, and
//!   drops every later change until [`MemStore::revive`], so a shutdown
//!   after the simulated power cut cannot save the log.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Numbered byte segments with a durability barrier.
///
/// `write_at` and `truncate` are visible to every reader at once and
/// durable after `sync(id)`; `create` and `remove` are durable when they
/// return. Writing past a segment's end fills the gap with zeroes.
pub trait SegmentStore: Send {
    /// Create an empty segment `id` (truncating any existing one).
    fn create(&mut self, id: u64) -> io::Result<()>;
    /// Write `bytes` into segment `id` at byte `offset`.
    fn write_at(&mut self, id: u64, offset: u64, bytes: &[u8]) -> io::Result<()>;
    /// Set segment `id`'s length to `len` bytes.
    fn truncate(&mut self, id: u64, len: u64) -> io::Result<()>;
    /// Durability barrier for segment `id` (fsync).
    fn sync(&mut self, id: u64) -> io::Result<()>;
    /// Existing segment ids, ascending.
    fn list(&self) -> io::Result<Vec<u64>>;
    /// Current raw bytes of segment `id`.
    fn read(&self, id: u64) -> io::Result<Vec<u8>>;
    /// Delete segment `id` (segment GC after a checkpoint fence).
    fn remove(&mut self, id: u64) -> io::Result<()>;
}

impl<S: SegmentStore + ?Sized> SegmentStore for Box<S> {
    fn create(&mut self, id: u64) -> io::Result<()> {
        (**self).create(id)
    }
    fn write_at(&mut self, id: u64, offset: u64, bytes: &[u8]) -> io::Result<()> {
        (**self).write_at(id, offset, bytes)
    }
    fn truncate(&mut self, id: u64, len: u64) -> io::Result<()> {
        (**self).truncate(id, len)
    }
    fn sync(&mut self, id: u64) -> io::Result<()> {
        (**self).sync(id)
    }
    fn list(&self) -> io::Result<Vec<u64>> {
        (**self).list()
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
    /// The directory itself, for syncing its entries.
    dir_file: File,
    /// Segments opened for writing so far.
    files: BTreeMap<u64, File>,
}

impl FileStore {
    /// Open (creating if needed) the segment directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<FileStore> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(FileStore {
            dir: dir.as_ref().to_path_buf(),
            dir_file: File::open(dir.as_ref())?,
            files: BTreeMap::new(),
        })
    }

    fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("wal-{id:08}.seg"))
    }

    /// Segment `id`'s file, opened for writing on first use.
    fn file(&mut self, id: u64) -> io::Result<&File> {
        if !self.files.contains_key(&id) {
            let file = OpenOptions::new().write(true).open(self.path(id))?;
            self.files.insert(id, file);
        }
        Ok(&self.files[&id])
    }
}

impl SegmentStore for FileStore {
    fn create(&mut self, id: u64) -> io::Result<()> {
        let file = File::create(self.path(id))?;
        self.dir_file.sync_all()?;
        self.files.insert(id, file);
        Ok(())
    }

    fn write_at(&mut self, id: u64, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.file(id)?.write_all_at(bytes, offset)
    }

    fn truncate(&mut self, id: u64, len: u64) -> io::Result<()> {
        self.file(id)?.set_len(len)
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        self.file(id)?.sync_data()
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let id = name
                .to_str()
                .and_then(|n| n.strip_prefix("wal-")?.strip_suffix(".seg"));
            ids.extend(id.and_then(|id| id.parse::<u64>().ok()));
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(id))
    }

    fn remove(&mut self, id: u64) -> io::Result<()> {
        self.files.remove(&id);
        std::fs::remove_file(self.path(id))?;
        self.dir_file.sync_all()
    }
}

/// A change to a segment that no `sync` has covered yet.
enum Unsynced {
    Write(usize, Vec<u8>),
    Truncate(usize),
}

impl Unsynced {
    /// Apply the change to `segment`; of a write, its first `keep` bytes.
    fn apply(&self, segment: &mut Vec<u8>, keep: usize) {
        match self {
            Unsynced::Write(at, bytes) => {
                let bytes = &bytes[..keep.min(bytes.len())];
                let end = at + bytes.len();
                if segment.len() < end {
                    segment.resize(end, 0);
                }
                segment[*at..end].copy_from_slice(bytes);
            }
            Unsynced::Truncate(len) => segment.resize(*len, 0),
        }
    }
}

/// One in-memory segment: synced bytes and the changes since.
#[derive(Default)]
struct MemSegment {
    durable: Vec<u8>,
    unsynced: Vec<Unsynced>,
}

#[derive(Default)]
struct MemInner {
    segments: BTreeMap<u64, MemSegment>,
    syncs: u64,
    crashed: bool,
}

impl MemInner {
    fn segment(&mut self, id: u64) -> io::Result<&mut MemSegment> {
        let missing = || io::Error::new(io::ErrorKind::NotFound, format!("segment {id}"));
        self.segments.get_mut(&id).ok_or_else(missing)
    }
}

/// What a [`MemStore`] handle runs before each `sync`.
type BeforeSync = Arc<dyn Fn() -> io::Result<()> + Send + Sync>;

/// Shared in-memory segment store with crash simulation (see module
/// docs). `Clone` shares the underlying segments.
#[derive(Clone, Default)]
pub struct MemStore {
    inner: Arc<Mutex<MemInner>>,
    before_sync: Option<BeforeSync>,
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

    /// A handle on the same media whose every `sync` first runs `hook`,
    /// which may sleep (a slow disk), park (a sync held in flight) or
    /// fail the sync: its error is returned and nothing is synced.
    pub fn on_sync(&self, hook: impl Fn() -> io::Result<()> + Send + Sync + 'static) -> MemStore {
        MemStore {
            inner: Arc::clone(&self.inner),
            before_sync: Some(Arc::new(hook)),
        }
    }

    /// Total `sync` calls that reached the media (crash-silenced syncs
    /// don't count) — the fsync meter the group-commit bench gates on.
    pub fn sync_count(&self) -> u64 {
        self.inner.lock().unwrap().syncs
    }

    /// Simulate a power cut. Every segment keeps its durable bytes plus a
    /// salt-deterministic prefix of its unsynced changes, in issue order:
    /// a budget drawn from `0..=` their total weight (a write's bytes, one
    /// unit per truncation, which lands whole or not at all) is spent on
    /// them in turn, and the write it runs out in lands torn, as a prefix
    /// of its bytes. The rest is lost and the store goes dead: changes and
    /// syncs are silently dropped until [`MemStore::revive`].
    pub fn crash(&self, torn_salt: u64) {
        let weight = |op: &Unsynced| match op {
            Unsynced::Write(_, bytes) => bytes.len(),
            Unsynced::Truncate(_) => 1,
        };
        let mut inner = self.inner.lock().unwrap();
        for (id, seg) in inner.segments.iter_mut() {
            let total: usize = seg.unsynced.iter().map(weight).sum();
            let mut budget = (mix(torn_salt ^ id.wrapping_mul(0xA24B_AED4_963E_E407))
                % (total as u64 + 1)) as usize;
            for op in std::mem::take(&mut seg.unsynced) {
                if budget == 0 {
                    break;
                }
                op.apply(&mut seg.durable, budget);
                budget = budget.saturating_sub(weight(&op));
            }
        }
        inner.crashed = true;
    }

    /// Bring the media back after a crash; durable contents intact.
    pub fn revive(&self) {
        self.inner.lock().unwrap().crashed = false;
    }

    /// The media, or `None` while dead: every change is then dropped.
    fn live(&self) -> Option<MutexGuard<'_, MemInner>> {
        let inner = self.inner.lock().unwrap();
        (!inner.crashed).then_some(inner)
    }

    /// Queue an unsynced change to segment `id`.
    fn change(&self, id: u64, op: Unsynced) -> io::Result<()> {
        if let Some(mut inner) = self.live() {
            inner.segment(id)?.unsynced.push(op);
        }
        Ok(())
    }
}

impl SegmentStore for MemStore {
    fn create(&mut self, id: u64) -> io::Result<()> {
        if let Some(mut inner) = self.live() {
            inner.segments.insert(id, MemSegment::default());
        }
        Ok(())
    }

    fn write_at(&mut self, id: u64, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.change(id, Unsynced::Write(offset as usize, bytes.to_vec()))
    }

    fn truncate(&mut self, id: u64, len: u64) -> io::Result<()> {
        self.change(id, Unsynced::Truncate(len as usize))
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        if let Some(hook) = &self.before_sync {
            hook()?;
        }
        if let Some(mut inner) = self.live() {
            let seg = inner.segment(id)?;
            for op in std::mem::take(&mut seg.unsynced) {
                op.apply(&mut seg.durable, usize::MAX);
            }
            inner.syncs += 1;
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        let inner = self.inner.lock().unwrap();
        Ok(inner.segments.keys().copied().collect())
    }

    /// The durable bytes with every unsynced change applied: what a
    /// reader of the page cache sees.
    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        let mut inner = self.inner.lock().unwrap();
        let seg = inner.segment(id)?;
        let mut bytes = seg.durable.clone();
        for op in &seg.unsynced {
            op.apply(&mut bytes, usize::MAX);
        }
        Ok(bytes)
    }

    fn remove(&mut self, id: u64) -> io::Result<()> {
        if let Some(mut inner) = self.live() {
            inner.segments.remove(&id);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Wal, WalConfig, WalRecord};

    #[test]
    fn mem_store_durable_pending_split() {
        let mut store = MemStore::new();
        store.create(0).unwrap();
        store.write_at(0, 0, b"abc").unwrap();
        // Readers see unsynced bytes (page-cache semantics)…
        assert_eq!(store.read(0).unwrap(), b"abc");
        // …but a crash before sync loses the un-torn remainder.
        assert_eq!(store.sync_count(), 0);
        store.sync(0).unwrap();
        assert_eq!(store.sync_count(), 1);
        store.write_at(0, 3, b"def").unwrap();
        store.crash(0); // salt 0: torn length is deterministic
        let durable = store.read(0).unwrap();
        assert!(durable.starts_with(b"abc"));
        assert!(durable.len() <= 6);
    }

    #[test]
    fn positional_writes_overwrite_and_fill_gaps_with_zeroes() {
        let mut store = MemStore::new();
        store.create(0).unwrap();
        store.write_at(0, 2, b"xy").unwrap();
        assert_eq!(store.read(0).unwrap(), b"\0\0xy");
        store.write_at(0, 1, b"ab").unwrap();
        assert_eq!(store.read(0).unwrap(), b"\0aby");
        store.truncate(0, 2).unwrap();
        store.sync(0).unwrap();
        assert_eq!(store.read(0).unwrap(), b"\0a");
        assert!(store.write_at(9, 0, b"?").is_err(), "no segment 9");
    }

    #[test]
    fn crashed_store_ignores_writes_until_revive() {
        let mut store = MemStore::new();
        store.create(0).unwrap();
        store.write_at(0, 0, b"keep").unwrap();
        store.sync(0).unwrap();
        store.crash(7);
        store.write_at(0, 4, b"lost").unwrap();
        store.truncate(0, 0).unwrap();
        store.sync(0).unwrap();
        store.remove(0).unwrap();
        assert_eq!(store.read(0).unwrap(), b"keep");
        assert_eq!(store.sync_count(), 1);
        store.revive();
        store.write_at(0, 4, b"!").unwrap();
        store.sync(0).unwrap();
        assert_eq!(store.read(0).unwrap(), b"keep!");
    }

    /// A power cut keeps a prefix of the unsynced changes in issue order:
    /// whole changes, then one torn write, then nothing.
    #[test]
    fn a_power_cut_keeps_an_ordered_prefix_with_the_last_write_torn() {
        let images: std::collections::BTreeSet<Vec<u8>> = (0..200)
            .map(|salt| {
                let mut store = MemStore::new();
                store.create(0).unwrap();
                store.write_at(0, 0, b"aaaa").unwrap();
                store.sync(0).unwrap();
                store.write_at(0, 0, b"bb").unwrap();
                store.truncate(0, 3).unwrap();
                store.write_at(0, 3, b"cc").unwrap();
                store.crash(salt);
                store.read(0).unwrap()
            })
            .collect();
        let allowed: Vec<&[u8]> = vec![b"aaaa", b"baaa", b"bbaa", b"bba", b"bbac", b"bbacc"];
        assert_eq!(
            images.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            {
                let mut sorted = allowed.clone();
                sorted.sort();
                sorted
            },
            "every ordered prefix, and only those"
        );
    }

    #[test]
    fn torn_prefix_is_salt_deterministic() {
        let torn = |salt| {
            let mut store = MemStore::new();
            store.create(3).unwrap();
            store.write_at(3, 0, &[7u8; 100]).unwrap();
            store.crash(salt);
            store.read(3).unwrap().len()
        };
        assert_eq!(torn(42), torn(42));
        // A different salt should (for this choice) tear differently.
        assert_ne!(torn(43), torn(42));
    }

    #[test]
    fn an_on_sync_hook_runs_before_each_sync_and_can_fail_it() {
        let calls = Arc::new(Mutex::new(0));
        let seen = Arc::clone(&calls);
        let mem = MemStore::new();
        let mut store = mem.on_sync(move || {
            let mut calls = seen.lock().unwrap();
            *calls += 1;
            match *calls {
                1 => Ok(()),
                _ => Err(io::Error::other("injected")),
            }
        });
        store.create(0).unwrap();
        store.write_at(0, 0, b"ab").unwrap();
        store.sync(0).unwrap();
        assert!(store.sync(0).is_err());
        assert_eq!((*calls.lock().unwrap(), mem.sync_count()), (2, 1));
        assert_eq!(mem.read(0).unwrap(), b"ab", "the handles share the media");
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "ks-wal-{}-file_store_round_trip",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = FileStore::open(&dir).unwrap();
        store.create(0).unwrap();
        store.create(1).unwrap();
        store.write_at(0, 2, b"xy").unwrap();
        store.write_at(0, 1, b"ab").unwrap();
        store.sync(0).unwrap();
        assert_eq!(store.list().unwrap(), vec![0, 1]);
        assert_eq!(store.read(0).unwrap(), b"\0aby");
        assert_eq!(store.read(1).unwrap(), b"", "a created segment is empty");
        store.truncate(0, 2).unwrap();
        store.sync(0).unwrap();
        assert_eq!(FileStore::open(&dir).unwrap().read(0).unwrap(), b"\0a");
        store.remove(0).unwrap();
        assert_eq!(store.list().unwrap(), vec![1]);
        // Re-open sees the surviving segment.
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.list().unwrap(), vec![1]);
        store.remove(1).unwrap();

        // The log's layout on these files: the first run wrote zeroes
        // ahead, the second landed on them in place, and recovery sees
        // the frames and not the zeroes.
        let first = WalRecord::Begin { shard: 0, txn: 1 };
        let second = [
            WalRecord::Write {
                shard: 0,
                txn: 1,
                entity: 2,
                value: 9,
            },
            WalRecord::Commit { shard: 0, txn: 1 },
        ];
        let mut wal = Wal::open(FileStore::open(&dir).unwrap(), WalConfig::default()).unwrap();
        wal.append(&first).unwrap();
        wal.append_all(&second).unwrap();
        wal.sync().unwrap();
        let on_disk = std::fs::metadata(dir.join("wal-00000000.seg"))
            .unwrap()
            .len();
        assert_eq!(on_disk, (first.frame_len() + crate::wal::ZERO_AHEAD) as u64);
        let r = crate::recover(&FileStore::open(&dir).unwrap()).unwrap();
        assert_eq!((r.records, r.torn), (3, None));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
