//! The log over real files and over simulated media: what a reopen and
//! a recovery see after clean shutdowns, torn tails, and bytes a crash
//! left past a segment's end.
//!
//! Each file test runs in its own directory, named after the test, so
//! tests running in parallel never share one.

use ks_wal::{
    decode_stream, recover, FileStore, MemStore, SegmentStore, Wal, WalConfig, WalRecord,
};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// A directory for one test, removed when the test ends.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("ks-wal-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn store(&self) -> FileStore {
        FileStore::open(&self.0).unwrap()
    }

    fn segment_file(&self, id: u64) -> PathBuf {
        self.0.join(format!("wal-{id:08}.seg"))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn txn(txn: u64, value: i64) -> [WalRecord; 3] {
    [
        WalRecord::Begin { shard: 0, txn },
        WalRecord::Write {
            shard: 0,
            txn,
            entity: 0,
            value,
        },
        WalRecord::Commit { shard: 0, txn },
    ]
}

fn frames(records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for r in records {
        r.encode(&mut bytes);
    }
    bytes
}

fn append_synced<S: SegmentStore>(store: S, records: &[WalRecord]) {
    let mut wal = Wal::open(store, WalConfig::default()).unwrap();
    wal.append_all(records).unwrap();
    wal.sync().unwrap();
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// A frame whose payload ends in zero bytes is still one frame: the end
/// is found by `len` words, not by trailing zeroes.
#[test]
fn a_frame_ending_in_zero_bytes_survives_a_reopen() {
    let dir = TempDir::new("a_frame_ending_in_zero_bytes_survives_a_reopen");
    let write = WalRecord::Write {
        shard: 0,
        txn: 1,
        entity: 0,
        value: 0,
    };
    append_synced(dir.store(), std::slice::from_ref(&write));
    let bytes = dir.store().read(0).unwrap();
    assert!(bytes.ends_with(&[0; 8]), "the frame ends in `value: 0`");
    assert_eq!(decode_stream(&bytes).records, vec![write.clone()]);

    append_synced(dir.store(), &[WalRecord::Commit { shard: 0, txn: 1 }]);
    let scan = decode_stream(&dir.store().read(0).unwrap());
    assert_eq!(
        scan.records,
        vec![write, WalRecord::Commit { shard: 0, txn: 1 }]
    );
    assert_eq!(scan.torn, None);
}

/// A crash can land a write's later bytes without its header. A reopen
/// ends the segment where the header should be, and a frame written
/// there is not followed by the stray bytes.
#[test]
fn reopen_after_a_headerless_write_into_the_zero_tail_finds_the_end() {
    let dir = TempDir::new("reopen_after_a_headerless_write_into_the_zero_tail_finds_the_end");
    append_synced(dir.store(), &txn(1, 10));
    let end = dir.store().read(0).unwrap().len() as u64;
    assert!(
        file_len(&dir.segment_file(0)) > end,
        "zeroes follow the frames"
    );

    // The payload of a frame whose header never reached the media.
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.segment_file(0))
        .unwrap();
    file.write_all_at(&[0xAB; 100], end + 8).unwrap();
    drop(file);
    assert_eq!(dir.store().read(0).unwrap().len() as u64, end);
    assert_eq!(dir.store().read(0).unwrap(), frames(&txn(1, 10)));

    append_synced(dir.store(), &[WalRecord::Begin { shard: 0, txn: 2 }]);
    let r = recover(&dir.store()).unwrap();
    assert_eq!(r.torn, None, "no stray byte follows the new frame");
    assert_eq!(r.records, 4);
    assert_eq!(r.committed, vec![(0, 1)]);
}

#[test]
fn recovery_after_a_clean_shutdown_reports_no_tear() {
    let dir = TempDir::new("recovery_after_a_clean_shutdown_reports_no_tear");
    let mut records = vec![WalRecord::Checkpoint {
        shards: vec![vec![0, 0]],
    }];
    records.extend(txn(1, 7));
    records.extend(txn(2, 0));
    append_synced(dir.store(), &records);
    let r = recover(&dir.store()).unwrap();
    assert_eq!(r.torn, None);
    assert_eq!(r.records, records.len());
    assert_eq!(r.committed, vec![(0, 1), (0, 2)]);
    assert_eq!(r.states, Some(vec![vec![0, 0]]), "txn 2 wrote 0 last");
}

#[test]
fn sealed_segments_with_zero_tails_concatenate_in_recovery() {
    let dir = TempDir::new("sealed_segments_with_zero_tails_concatenate_in_recovery");
    let per_txn = frames(&txn(0, 0)).len();
    let mut wal = Wal::open(
        dir.store(),
        WalConfig {
            segment_bytes: per_txn * 2,
        },
    )
    .unwrap();
    wal.append(&WalRecord::Checkpoint {
        shards: vec![vec![0]],
    })
    .unwrap();
    for t in 1..=10 {
        wal.append_all(&txn(t, t as i64)).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    let store = dir.store();
    let ids = store.list().unwrap();
    assert!(ids.len() > 3, "the log rotated: {ids:?}");
    for &id in &ids {
        assert!(
            file_len(&dir.segment_file(id)) > store.read(id).unwrap().len() as u64,
            "segment {id} has a zero tail"
        );
    }
    let r = recover(&store).unwrap();
    assert_eq!(r.torn, None);
    assert_eq!(r.records, 31);
    assert_eq!(r.committed, (1..=10).map(|t| (0, t)).collect::<Vec<_>>());
    assert_eq!(r.states, Some(vec![vec![10]]));
}

/// Commit txn 1, tear the tail with `tear`, then reopen the log and
/// commit txn 2: recovery must see both. `open` opens the media afresh.
fn later_commits_survive_a_torn_tail<S: SegmentStore>(open: impl Fn() -> S, tear: impl FnOnce()) {
    append_synced(open(), &txn(1, 1));
    tear();
    let torn = recover(&open()).unwrap();
    assert!(torn.torn.is_some(), "the tear is visible to recovery");
    assert_eq!(torn.committed, vec![(0, 1)]);

    append_synced(
        open(),
        &[
            WalRecord::Begin { shard: 0, txn: 2 },
            WalRecord::Commit { shard: 0, txn: 2 },
        ],
    );
    let r = recover(&open()).unwrap();
    assert_eq!(r.torn, None, "the torn segment is gone");
    assert_eq!(r.committed, vec![(0, 1), (0, 2)]);
    assert_eq!(open().list().unwrap(), vec![1], "the log resumed in a copy");
}

#[test]
fn wal_open_over_a_torn_mem_tail_keeps_later_commits() {
    let store = MemStore::new();
    let frame = frames(&[WalRecord::Begin { shard: 0, txn: 9 }]);
    // A salt whose power cut keeps part of the frame, found on a scratch
    // store: the torn length depends only on the salt, the segment id
    // and the pending length.
    let salt = (0..)
        .find(|&salt| {
            let mut scratch = MemStore::new();
            scratch.append(0, &frame).unwrap();
            scratch.crash(salt);
            (1..frame.len()).contains(&scratch.read(0).unwrap().len())
        })
        .unwrap();
    let media = store.clone();
    later_commits_survive_a_torn_tail(
        || store.clone(),
        move || {
            let mut media = media;
            media.append(0, &frame).unwrap();
            media.crash(salt);
            media.revive();
        },
    );
}

#[test]
fn wal_open_over_a_torn_file_tail_keeps_later_commits() {
    let dir = TempDir::new("wal_open_over_a_torn_file_tail_keeps_later_commits");
    // No byte of the payload is zero, so a tear changes it.
    let frame = frames(&[WalRecord::Begin {
        shard: 0,
        txn: u64::MAX,
    }]);
    later_commits_survive_a_torn_tail(
        || dir.store(),
        || {
            // The frame's header and the start of its payload landed.
            let mut store = dir.store();
            store.append(0, &frame[..frame.len() - 3]).unwrap();
            store.sync(0).unwrap();
        },
    );
}
