//! The appender: segment rotation and the prefix-durability contract.

use crate::record::{decode_stream, WalRecord};
use crate::storage::SegmentStore;
use std::io;

/// Appender tuning.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one would exceed this
    /// many bytes (records never span segments). Rotation syncs the
    /// outgoing segment first, so `sync` on the active segment always
    /// means "everything appended so far is durable".
    pub segment_bytes: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 1 << 20,
        }
    }
}

/// Running appender counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended over the log's lifetime.
    pub records: u64,
    /// Bytes appended (frame bytes, including headers).
    pub bytes: u64,
    /// Durability barriers issued (`sync` calls plus rotation syncs).
    pub syncs: u64,
    /// Records appended since the last barrier — the flush queue depth.
    pub pending_records: u64,
}

/// An append-only segmented write-ahead log over any [`SegmentStore`].
///
/// Single-writer by design: the server buffers every shard's records in
/// one tail and a group-commit leader hands the tail over with
/// [`Wal::append_all`] (shard records interleave, which is fine —
/// recovery keys every record by `(shard, txn)`).
pub struct Wal<S: SegmentStore> {
    store: S,
    config: WalConfig,
    active: u64,
    active_len: u64,
    stats: WalStats,
    scratch: Vec<u8>,
}

impl<S: SegmentStore> Wal<S> {
    /// Open the log: resume the highest existing segment, or create
    /// segment 0 on fresh media.
    ///
    /// A segment whose tail a crash tore is not resumed: recovery stops
    /// at the tear, so a record appended after it would never be read.
    /// Its clean prefix is copied into a fresh segment, synced, and the
    /// torn segment removed; the log resumes in the copy.
    pub fn open(store: S, config: WalConfig) -> io::Result<Wal<S>> {
        let mut store = store;
        let ids = store.list()?;
        let (active, active_len) = match ids.last() {
            Some(&id) => {
                let bytes = store.read(id)?;
                let scan = decode_stream(&bytes);
                if scan.torn.is_none() {
                    (id, bytes.len() as u64)
                } else {
                    store.create(id + 1)?;
                    store.append(id + 1, &bytes[..scan.clean_len])?;
                    store.sync(id + 1)?;
                    store.remove(id)?;
                    (id + 1, scan.clean_len as u64)
                }
            }
            None => {
                store.create(0)?;
                (0, 0)
            }
        };
        Ok(Wal {
            store,
            config,
            active,
            active_len,
            stats: WalStats::default(),
            scratch: Vec::with_capacity(64),
        })
    }

    /// Append one record (rotating first if it would overflow the active
    /// segment). Not durable until the next [`Wal::sync`].
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Append `records` in order with one store write per segment run:
    /// a record that would overflow the active segment first seals it
    /// (writing the run so far, then syncing and rotating), so records
    /// never span segments. Not durable until the next [`Wal::sync`].
    pub fn append_all(&mut self, records: &[WalRecord]) -> io::Result<()> {
        // `scratch` holds the run: bytes of the active segment that are
        // counted in `active_len` but not yet in the store.
        self.scratch.clear();
        for record in records {
            let start = self.scratch.len();
            record.encode(&mut self.scratch);
            let frame = (self.scratch.len() - start) as u64;
            if self.active_len > 0 && self.active_len + frame > self.config.segment_bytes as u64 {
                if start > 0 {
                    self.store.append(self.active, &self.scratch[..start])?;
                    self.scratch.drain(..start);
                }
                self.rotate()?;
            }
            self.active_len += frame;
            self.stats.records += 1;
            self.stats.bytes += frame;
            self.stats.pending_records += 1;
        }
        if !self.scratch.is_empty() {
            self.store.append(self.active, &self.scratch)?;
        }
        Ok(())
    }

    /// Durability barrier: everything appended so far is durable when
    /// this returns. Returns the number of records the barrier covered
    /// (the flush queue depth it drained).
    pub fn sync(&mut self) -> io::Result<u64> {
        self.store.sync(self.active)?;
        self.stats.syncs += 1;
        Ok(std::mem::take(&mut self.stats.pending_records))
    }

    /// Seal the active segment (syncing it) and start a fresh one.
    /// Returns the new active segment id — used as the GC fence when a
    /// checkpoint is about to be written.
    pub fn rotate(&mut self) -> io::Result<u64> {
        self.store.sync(self.active)?;
        self.stats.syncs += 1;
        self.stats.pending_records = 0;
        self.active += 1;
        self.store.create(self.active)?;
        self.active_len = 0;
        Ok(self.active)
    }

    /// Remove every segment below `fence` (they are fully superseded by
    /// a checkpoint at or after `fence`). Returns how many were removed.
    pub fn gc_before(&mut self, fence: u64) -> io::Result<usize> {
        let mut removed = 0;
        for id in self.store.list()? {
            if id < fence {
                self.store.remove(id)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The active segment id.
    pub fn active_segment(&self) -> u64 {
        self.active
    }

    /// Borrow the underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStore;

    fn rec(txn: u64) -> WalRecord {
        WalRecord::Commit { shard: 0, txn }
    }

    #[test]
    fn append_sync_read_back() {
        let store = MemStore::new();
        let mut wal = Wal::open(store.clone(), WalConfig::default()).unwrap();
        for t in 0..5 {
            wal.append(&rec(t)).unwrap();
        }
        assert_eq!(wal.stats().pending_records, 5);
        assert_eq!(wal.sync().unwrap(), 5);
        assert_eq!(wal.stats().pending_records, 0);
        let scan = decode_stream(&store.read(0).unwrap());
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.torn, None);
    }

    #[test]
    fn rotation_preserves_order_and_syncs_outgoing_segment() {
        let store = MemStore::new();
        let frame = rec(0).frame_len();
        let config = WalConfig {
            segment_bytes: frame * 3, // three records per segment
        };
        let mut wal = Wal::open(store.clone(), config).unwrap();
        for t in 0..8 {
            wal.append(&rec(t)).unwrap();
        }
        // Two rotations happened (after records 3 and 6); the sealed
        // segments are durable even though we never called sync().
        let ids = store.list().unwrap();
        assert_eq!(ids, vec![0, 1, 2]);
        store.crash(1); // lose pending bytes of the active segment only
        let mut bytes = Vec::new();
        for id in [0u64, 1] {
            bytes.extend_from_slice(&store.read(id).unwrap());
        }
        let scan = decode_stream(&bytes);
        assert_eq!(
            scan.records,
            (0..6).map(rec).collect::<Vec<_>>(),
            "sealed segments hold the first six records"
        );
    }

    /// Counts store calls per segment: appends, and syncs.
    #[derive(Clone, Default)]
    struct Counting {
        mem: MemStore,
        appends: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
        syncs: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl SegmentStore for Counting {
        fn create(&mut self, id: u64) -> io::Result<()> {
            self.mem.create(id)
        }
        fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
            self.appends.lock().unwrap().push(id);
            self.mem.append(id, bytes)
        }
        fn sync(&mut self, id: u64) -> io::Result<()> {
            self.syncs.lock().unwrap().push(id);
            self.mem.sync(id)
        }
        fn list(&self) -> io::Result<Vec<u64>> {
            self.mem.list()
        }
        fn read(&self, id: u64) -> io::Result<Vec<u8>> {
            self.mem.read(id)
        }
        fn remove(&mut self, id: u64) -> io::Result<()> {
            self.mem.remove(id)
        }
    }

    #[test]
    fn append_all_writes_one_run_per_segment_and_rotates_between_records() {
        let store = Counting::default();
        let frame = rec(0).frame_len();
        let config = WalConfig {
            segment_bytes: frame * 3, // three records per segment
        };
        let mut wal = Wal::open(store.clone(), config).unwrap();
        wal.append(&rec(100)).unwrap(); // segment 0 already holds one
        store.appends.lock().unwrap().clear();
        let batch: Vec<WalRecord> = (0..7).map(rec).collect();
        wal.append_all(&batch).unwrap();

        // Runs: 2 records fill segment 0, then 3 in segment 1, 2 in 2.
        assert_eq!(
            *store.appends.lock().unwrap(),
            vec![0, 1, 2],
            "one append per run"
        );
        assert_eq!(
            *store.syncs.lock().unwrap(),
            vec![0, 1],
            "each outgoing segment is synced at rotation"
        );
        // Sealed segments are durable, and each holds whole records only.
        store.mem.crash(0);
        let mut records = Vec::new();
        for id in [0u64, 1] {
            let scan = decode_stream(&store.mem.read(id).unwrap());
            assert_eq!(scan.torn, None, "segment {id} ends on a record boundary");
            records.extend(scan.records);
        }
        let mut expected = vec![rec(100)];
        expected.extend((0..5).map(rec));
        assert_eq!(records, expected, "order survives the rotation");
        assert_eq!(wal.stats().records, 8);
        assert_eq!(wal.stats().pending_records, 2, "the open run awaits a sync");
    }

    #[test]
    fn append_all_of_nothing_touches_no_media() {
        let store = Counting::default();
        let mut wal = Wal::open(store.clone(), WalConfig::default()).unwrap();
        wal.append_all(&[]).unwrap();
        assert!(store.appends.lock().unwrap().is_empty());
        assert_eq!(wal.stats(), WalStats::default());
    }

    #[test]
    fn reopen_resumes_highest_segment() {
        let store = MemStore::new();
        {
            let mut wal = Wal::open(store.clone(), WalConfig::default()).unwrap();
            wal.append(&rec(1)).unwrap();
            wal.rotate().unwrap();
            wal.append(&rec(2)).unwrap();
            wal.sync().unwrap();
        }
        let mut wal = Wal::open(store.clone(), WalConfig::default()).unwrap();
        assert_eq!(wal.active_segment(), 1);
        wal.append(&rec(3)).unwrap();
        wal.sync().unwrap();
        let scan = decode_stream(&store.read(1).unwrap());
        assert_eq!(scan.records, vec![rec(2), rec(3)]);
    }

    #[test]
    fn gc_removes_only_segments_below_fence() {
        let store = MemStore::new();
        let mut wal = Wal::open(store.clone(), WalConfig::default()).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.rotate().unwrap();
        wal.append(&rec(2)).unwrap();
        let fence = wal.rotate().unwrap();
        assert_eq!(fence, 2);
        assert_eq!(wal.gc_before(fence).unwrap(), 2);
        assert_eq!(store.list().unwrap(), vec![2]);
    }
}
