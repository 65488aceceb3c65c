//! Pluggable segment storage: where log bytes actually live.
//!
//! [`SegmentStore`] is the narrow media interface the appender and the
//! recovery pass share: numbered append-only segments with an explicit
//! `sync` barrier. Three implementations:
//!
//! * [`FileStore`] — one file per segment under a directory, `sync` is
//!   `fdatasync`. The production store. It writes each segment in place
//!   over zeroes it wrote ahead of the segment's end, so a commit's
//!   `fdatasync` flushes the commit's bytes and, but for about one flush
//!   in 320, no change of file size: on ext4 a probe put `fdatasync` at
//!   p50 76 µs after an appending write and 61 µs after an in-place one.
//!   The zeroes end the segment: its logical end is the first frame
//!   header whose `len` is 0, and `read` returns only the bytes before
//!   it.
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

use crate::record::FRAME_HEADER;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
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
    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        (**self).read(id)
    }
    fn remove(&mut self, id: u64) -> io::Result<()> {
        (**self).remove(id)
    }
}

/// Zero bytes a [`FileStore`] keeps written ahead of a segment's logical
/// end. A frame lands on space that is already allocated and synced, so
/// its `fdatasync` flushes data and no inode size; only the append that
/// reaches the edge extends the file, by this much (about one flush in
/// 320 at the ≈ 200 bytes a served commit logs).
const ZERO_AHEAD: usize = 64 << 10;

/// File-per-segment store under one directory; `sync` is `fdatasync`.
///
/// Each segment is written in place: frames go at the segment's logical
/// end with positional writes, over zeroes written earlier. The logical
/// end is the first frame header whose `len` is 0 (no legal frame has an
/// empty payload: the tag byte is always there), found by walking headers
/// without checking CRCs, so a torn frame stays in the segment for
/// recovery to report. `read` returns the logical segment only.
/// `create` and `remove` sync the directory, so a segment's name is as
/// durable as the bytes synced into it.
pub struct FileStore {
    dir: PathBuf,
    /// The directory itself, for syncing its entries.
    dir_file: File,
    segments: BTreeMap<u64, Segment>,
}

/// A segment this store has opened for writing.
struct Segment {
    file: File,
    /// Logical end: where the next frame goes.
    end: u64,
    /// File length; every byte in `end..zeroed` is zero.
    zeroed: u64,
}

/// The logical end of segment bytes (see [`FileStore`]): the offset of
/// the first header whose `len` is 0, or the end of `bytes` when a frame
/// or a `len` word runs past it.
fn logical_end(bytes: &[u8]) -> usize {
    let mut at = 0;
    while let Some(word) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes(word.try_into().unwrap()) as usize;
        if len == 0 {
            return at;
        }
        at += FRAME_HEADER + len;
    }
    bytes.len()
}

impl FileStore {
    /// Open (creating if needed) the segment directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<FileStore> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(FileStore {
            dir: dir.as_ref().to_path_buf(),
            dir_file: File::open(dir.as_ref())?,
            segments: BTreeMap::new(),
        })
    }

    fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("wal-{id:08}.seg"))
    }

    /// Segment `id`, opened for writing on first use. A power cut can
    /// land a later page of a write without the page holding the header
    /// in front of it, leaving bytes past the logical end; those are cut
    /// off, durably, before a frame can be written in front of them.
    fn segment(&mut self, id: u64) -> io::Result<&mut Segment> {
        if !self.segments.contains_key(&id) {
            let path = self.path(id);
            let file = OpenOptions::new().write(true).open(&path)?;
            let bytes = std::fs::read(&path)?;
            let end = logical_end(&bytes);
            let mut zeroed = bytes.len();
            if bytes[end..].iter().any(|&b| b != 0) {
                file.set_len(end as u64)?;
                file.sync_data()?;
                zeroed = end;
            }
            let segment = Segment {
                file,
                end: end as u64,
                zeroed: zeroed as u64,
            };
            self.segments.insert(id, segment);
        }
        Ok(self.segments.get_mut(&id).unwrap())
    }
}

impl SegmentStore for FileStore {
    fn create(&mut self, id: u64) -> io::Result<()> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.path(id))?;
        self.dir_file.sync_all()?;
        self.segments.insert(
            id,
            Segment {
                file,
                end: 0,
                zeroed: 0,
            },
        );
        Ok(())
    }

    fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        let seg = self.segment(id)?;
        let end = seg.end + bytes.len() as u64;
        if end + FRAME_HEADER as u64 <= seg.zeroed {
            seg.file.write_all_at(bytes, seg.end)?;
        } else {
            // Too few zeroes would be left to end the segment: this
            // write carries the next `ZERO_AHEAD` of them.
            let mut run = Vec::with_capacity(bytes.len() + ZERO_AHEAD);
            run.extend_from_slice(bytes);
            run.resize(bytes.len() + ZERO_AHEAD, 0);
            seg.file.write_all_at(&run, seg.end)?;
            seg.zeroed = end + ZERO_AHEAD as u64;
        }
        seg.end = end;
        Ok(())
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        self.segment(id)?.file.sync_data()
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

    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        let mut bytes = std::fs::read(self.path(id))?;
        bytes.truncate(logical_end(&bytes));
        Ok(bytes)
    }

    fn remove(&mut self, id: u64) -> io::Result<()> {
        self.segments.remove(&id);
        std::fs::remove_file(self.path(id))?;
        self.dir_file.sync_all()
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
    use crate::record::WalRecord;

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
        let dir = std::env::temp_dir().join(format!(
            "ks-wal-{}-file_store_round_trip",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let frames = |records: &[WalRecord]| {
            let mut bytes = Vec::new();
            for r in records {
                r.encode(&mut bytes);
            }
            bytes
        };
        let first = frames(&[WalRecord::Begin { shard: 0, txn: 1 }]);
        let second = frames(&[
            WalRecord::Write {
                shard: 0,
                txn: 1,
                entity: 2,
                value: 9,
            },
            WalRecord::Commit { shard: 0, txn: 1 },
        ]);
        let mut store = FileStore::open(&dir).unwrap();
        store.create(0).unwrap();
        store.create(1).unwrap();
        store.append(0, &first).unwrap();
        store.append(0, &second).unwrap();
        store.sync(0).unwrap();
        let extended_by_first = (first.len() + ZERO_AHEAD) as u64;
        let whole = [first, second].concat();
        assert_eq!(store.list().unwrap(), vec![0, 1]);
        assert_eq!(store.read(0).unwrap(), whole);
        assert_eq!(store.read(1).unwrap(), b"", "a created segment is empty");
        // The first append wrote zeroes ahead, the second landed on them
        // in place; a reopen sees the frames and not the zeroes.
        let on_disk = std::fs::metadata(store.path(0)).unwrap().len();
        assert_eq!(on_disk, extended_by_first);
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.read(0).unwrap(), whole);
        store.remove(0).unwrap();
        assert_eq!(store.list().unwrap(), vec![1]);
        // Re-open sees the surviving segment.
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.list().unwrap(), vec![1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn logical_end_walks_headers() {
        let mut bytes = Vec::new();
        WalRecord::Commit { shard: 0, txn: 1 }.encode(&mut bytes);
        let frame = bytes.len();
        assert_eq!(logical_end(&bytes), frame, "no zeroes: the file's end");
        bytes.resize(frame + 64, 0);
        assert_eq!(logical_end(&bytes), frame, "the first zero `len`");
        // A torn frame (its header landed, its payload did not) stays
        // inside the segment for recovery to report.
        bytes[frame] = 40;
        assert_eq!(logical_end(&bytes), frame + FRAME_HEADER + 40);
        bytes[frame] = 200;
        assert_eq!(logical_end(&bytes), bytes.len(), "runs past the file");
        assert_eq!(logical_end(&bytes[..frame + 3]), frame + 3, "torn `len`");
    }
}
