//! The log over both media: what a reopen and a recovery see after clean
//! shutdowns, torn tails, bytes a crash left past a segment's end, and
//! crashes in the middle of a repair.
//!
//! Each layout case runs on a [`FileStore`] and on a [`MemStore`] from one
//! body ([`on_both_media`]); the file runs use a directory named after the
//! test, so tests running in parallel never share one. The repair cases
//! build their crash images through the [`SegmentStore`] trait, on a
//! `MemStore` whose power cut leaves unsynced changes half done, and cut
//! the power again before each step of the reopen's own repair
//! ([`every_cut_of_the_repair`]).

use ks_wal::{
    decode_stream, recover, FileStore, MemStore, SegmentStore, Wal, WalConfig, WalRecord,
};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// A directory for one test, removed when the test ends.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("ks-wal-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Opens the media under test afresh: a new handle on the same bytes.
type Open<'a> = &'a dyn Fn() -> Box<dyn SegmentStore>;

/// Run `case` on a fresh file directory, then on a fresh `MemStore`.
fn on_both_media(test: &str, case: impl Fn(Open)) {
    let dir = TempDir::new(test);
    eprintln!("-- {test} on a FileStore");
    case(&|| Box::new(FileStore::open(&dir.0).unwrap()));
    let mem = MemStore::new();
    eprintln!("-- {test} on a MemStore");
    case(&|| Box::new(mem.clone()));
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

/// A frame whose payload ends in zero bytes is still one frame: the end
/// is found by `len` words, not by trailing zeroes.
#[test]
fn a_frame_ending_in_zero_bytes_survives_a_reopen() {
    on_both_media("a_frame_ending_in_zero_bytes_survives_a_reopen", |open| {
        let write = WalRecord::Write {
            shard: 0,
            txn: 1,
            entity: 0,
            value: 0,
        };
        append_synced(open(), std::slice::from_ref(&write));
        let r = recover(&open()).unwrap();
        let bytes = open().read(0).unwrap();
        let frame = &bytes[..r.clean_bytes];
        assert!(frame.ends_with(&[0; 8]), "the frame ends in `value: 0`");
        assert_eq!(decode_stream(frame).records, vec![write.clone()]);

        append_synced(open(), &[WalRecord::Commit { shard: 0, txn: 1 }]);
        let r = recover(&open()).unwrap();
        let bytes = open().read(0).unwrap();
        assert_eq!(
            decode_stream(&bytes[..r.clean_bytes]).records,
            vec![write, WalRecord::Commit { shard: 0, txn: 1 }]
        );
        assert_eq!(r.torn, None);
    });
}

/// A crash can land a write's later bytes without its header. Recovery
/// ends the segment where the header should be, and a reopen cuts the
/// stray bytes, so a frame written there is not followed by them.
#[test]
fn reopen_after_a_headerless_write_into_the_zero_tail_finds_the_end() {
    let test = "reopen_after_a_headerless_write_into_the_zero_tail_finds_the_end";
    on_both_media(test, |open| {
        append_synced(open(), &txn(1, 10));
        let end = recover(&open()).unwrap().clean_bytes;
        assert!(
            open().read(0).unwrap().len() > end,
            "zeroes follow the frames"
        );

        // The payload of a frame whose header never reached the media.
        let mut media = open();
        media.write_at(0, end as u64 + 8, &[0xAB; 100]).unwrap();
        media.sync(0).unwrap();
        let r = recover(&open()).unwrap();
        assert_eq!((r.clean_bytes, r.records, r.torn), (end, 3, None));

        append_synced(open(), &[WalRecord::Begin { shard: 0, txn: 2 }]);
        let r = recover(&open()).unwrap();
        assert_eq!(r.torn, None, "no stray byte follows the new frame");
        assert_eq!(r.records, 4);
        assert_eq!(r.committed, vec![(0, 1)]);
        assert!(
            !open().read(0).unwrap().contains(&0xAB),
            "the reopen cut them"
        );
    });
}

#[test]
fn recovery_after_a_clean_shutdown_reports_no_tear() {
    on_both_media("recovery_after_a_clean_shutdown_reports_no_tear", |open| {
        let mut records = vec![WalRecord::Checkpoint {
            shards: vec![vec![0, 0]],
        }];
        records.extend(txn(1, 7));
        records.extend(txn(2, 0));
        append_synced(open(), &records);
        let r = recover(&open()).unwrap();
        assert_eq!(r.torn, None);
        assert_eq!(r.records, records.len());
        assert_eq!(r.committed, vec![(0, 1), (0, 2)]);
        assert_eq!(r.states, Some(vec![vec![0, 0]]), "txn 2 wrote 0 last");
    });
}

#[test]
fn sealed_segments_with_zero_tails_concatenate_in_recovery() {
    let test = "sealed_segments_with_zero_tails_concatenate_in_recovery";
    on_both_media(test, |open| {
        let per_txn = frames(&txn(0, 0)).len();
        let mut wal = Wal::open(
            open(),
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

        let store = open();
        let ids = store.list().unwrap();
        assert!(ids.len() > 3, "the log rotated: {ids:?}");
        for &id in &ids {
            let bytes = store.read(id).unwrap();
            assert!(bytes.ends_with(&[0; 8]), "segment {id} has a zero tail");
        }
        let r = recover(&store).unwrap();
        assert_eq!(r.torn, None);
        assert_eq!(r.records, 31);
        assert_eq!(r.committed, (1..=10).map(|t| (0, t)).collect::<Vec<_>>());
        assert_eq!(r.states, Some(vec![vec![10]]));
    });
}

/// A frame none of whose payload bytes is zero, so a tear changes it.
fn tearable_frame() -> Vec<u8> {
    frames(&[WalRecord::Begin {
        shard: 0,
        txn: u64::MAX,
    }])
}

/// Segment 0 holds txn 1's commit and then, synced, a frame whose last
/// three bytes never landed. Returns the segment's clean prefix.
fn torn_segment_zero(open: Open) -> Vec<u8> {
    append_synced(open(), &txn(1, 1));
    let mut media = open();
    let clean = recover(&*media).unwrap().clean_bytes;
    let frame = tearable_frame();
    media
        .write_at(0, clean as u64, &frame[..frame.len() - 3])
        .unwrap();
    media.sync(0).unwrap();
    let torn = recover(&open()).unwrap();
    assert_eq!(torn.torn.as_deref(), Some("payload CRC mismatch"));
    media.read(0).unwrap()[..clean].to_vec()
}

/// Over any crash image whose clean prefix ends in segment 0 with txn 1
/// committed: a reopen, a commit of txn 2 and a sync leave a log that
/// recovers both commits, with no tear, resumed in segment 0 at its
/// clean end.
fn later_commits_survive_a_torn_tail(open: Open, clean: &[u8]) {
    let before = recover(&open()).unwrap();
    assert_eq!(
        before.committed,
        vec![(0, 1)],
        "nothing before the tear is lost"
    );

    let later = [
        WalRecord::Begin { shard: 0, txn: 2 },
        WalRecord::Commit { shard: 0, txn: 2 },
    ];
    append_synced(open(), &later);
    let r = recover(&open()).unwrap();
    assert_eq!(r.torn, None, "the tear is gone");
    assert_eq!(
        r.committed,
        vec![(0, 1), (0, 2)],
        "the later commit survives"
    );
    assert_eq!(
        open().list().unwrap(),
        vec![0],
        "the log resumed in segment 0"
    );
    let segment = open().read(0).unwrap();
    assert_eq!(
        segment[..r.clean_bytes],
        [clean, &frames(&later)].concat(),
        "cut at its clean end"
    );
}

#[test]
fn wal_open_over_a_torn_tail_keeps_later_commits() {
    on_both_media("wal_open_over_a_torn_tail_keeps_later_commits", |open| {
        let clean = torn_segment_zero(open);
        later_commits_survive_a_torn_tail(open, &clean);
    });
}

/// A tear left by a power cut in the middle of a write: the frame's
/// header and a salt-chosen prefix of its payload landed.
#[test]
fn wal_open_over_a_torn_mem_tail_keeps_later_commits() {
    let frame = tearable_frame();
    let mut torn = 0;
    for salt in 0..16 {
        let mem = MemStore::new();
        let open = || Box::new(mem.clone()) as Box<dyn SegmentStore>;
        append_synced(open(), &txn(1, 1));
        let clean = recover(&mem).unwrap().clean_bytes;
        open().write_at(0, clean as u64, &frame).unwrap();
        mem.crash(salt);
        mem.revive();
        if recover(&mem).unwrap().torn.is_none() {
            continue; // the whole frame landed, or none of it
        }
        torn += 1;
        let clean = mem.read(0).unwrap()[..clean].to_vec();
        later_commits_survive_a_torn_tail(&open, &clean);
    }
    assert!(torn > 0, "no salt tore the frame");
}

/// Media whose power is cut just before the change (a create, write,
/// truncate, sync or remove) that finds `left` at zero.
struct PowerCut {
    mem: MemStore,
    left: Arc<AtomicUsize>,
    salt: u64,
}

impl PowerCut {
    fn change(&mut self) -> &mut MemStore {
        if self.left.fetch_sub(1, Relaxed) == 0 {
            self.mem.crash(self.salt);
        }
        &mut self.mem
    }
}

impl SegmentStore for PowerCut {
    fn create(&mut self, id: u64) -> io::Result<()> {
        self.change().create(id)
    }
    fn write_at(&mut self, id: u64, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.change().write_at(id, offset, bytes)
    }
    fn truncate(&mut self, id: u64, len: u64) -> io::Result<()> {
        self.change().truncate(id, len)
    }
    fn sync(&mut self, id: u64) -> io::Result<()> {
        self.change().sync(id)
    }
    fn list(&self) -> io::Result<Vec<u64>> {
        self.mem.list()
    }
    fn read(&self, id: u64) -> io::Result<Vec<u8>> {
        self.mem.read(id)
    }
    fn remove(&mut self, id: u64) -> io::Result<()> {
        self.change().remove(id)
    }
}

/// Builds a crash image on a `MemStore` with `image` (which returns
/// segment 0's clean prefix), then, for each step of the reopen's repair and each of a few
/// salts, reopens it with the power cut before that step, and checks the
/// log the cut leaves with [`later_commits_survive_a_torn_tail`]. The
/// last round cuts nothing: the repair runs whole.
fn every_cut_of_the_repair(image: impl Fn(Open, &MemStore) -> Vec<u8>) {
    for salt in 0..4 {
        for step in 0.. {
            let mem = MemStore::new();
            let open = || Box::new(mem.clone()) as Box<dyn SegmentStore>;
            let clean = image(&open, &mem);
            let left = Arc::new(AtomicUsize::new(step));
            let media = PowerCut {
                mem: mem.clone(),
                left: Arc::clone(&left),
                salt,
            };
            Wal::open(media, WalConfig::default()).unwrap();
            mem.revive();
            later_commits_survive_a_torn_tail(&open, &clean);
            if left.load(Relaxed) <= step {
                break; // the power was never cut
            }
        }
    }
}

#[test]
fn a_crash_during_the_repair_of_a_torn_tail_loses_no_later_commit() {
    every_cut_of_the_repair(|open, _| torn_segment_zero(open));
}

/// Before this repair, a reopen copied a torn segment's clean prefix into
/// segment `id + 1`, synced it, then removed the torn one. A power cut
/// before the remove left a synced copy behind the torn segment: reopen
/// resumed in the copy, behind a tear recovery stops at, and commits
/// synced there were lost.
#[test]
fn a_crash_after_an_old_repair_synced_its_copy_loses_no_later_commit() {
    every_cut_of_the_repair(|open, _| {
        let clean = torn_segment_zero(open);
        let mut media = open();
        media.create(1).unwrap();
        media.write_at(1, 0, &clean).unwrap();
        media.sync(1).unwrap();
        clean
    });
}

/// The same old repair, cut by a power cut after the copy's write and
/// before its sync: segment 1 holds some prefix of the copy. Were the
/// torn segment cut before segment 1 is removed, a power cut between the
/// two would leave the cut segment with that prefix behind it, where a
/// copied `Begin` revokes txn 1's commit; no reopen can mend that image,
/// so the repair removes first.
#[test]
fn a_crash_before_an_old_repair_synced_its_copy_loses_no_later_commit() {
    for salt in 0..8 {
        every_cut_of_the_repair(|open, mem| {
            let clean = torn_segment_zero(open);
            let mut media = open();
            media.create(1).unwrap();
            media.write_at(1, 0, &clean).unwrap();
            mem.crash(salt);
            mem.revive();
            assert_eq!(mem.list().unwrap(), vec![0, 1]);
            clean
        });
    }
}

/// A sealed segment damaged after it was synced, with a later segment
/// holding the commit of the transaction torn there: the repair must not
/// let recovery read across the damage, applying the commit without the
/// records it follows.
#[test]
fn a_crash_during_the_repair_of_a_damaged_sealed_segment_loses_no_later_commit() {
    every_cut_of_the_repair(|open, _| {
        let clean = torn_segment_zero(open);
        let mut media = open();
        media.create(1).unwrap();
        let commit = WalRecord::Commit {
            shard: 0,
            txn: u64::MAX,
        };
        media.write_at(1, 0, &frames(&[commit])).unwrap();
        media.sync(1).unwrap();
        clean
    });
}

/// A power cut during the repair itself, with the cut not yet synced: the
/// media holds either the old image or the cut one, and a reopen of
/// either loses nothing.
#[test]
fn a_crash_before_the_cut_is_synced_loses_no_later_commit() {
    let (mut old, mut cut) = (0, 0);
    for salt in 0..16 {
        let mem = MemStore::new();
        let open = || Box::new(mem.clone()) as Box<dyn SegmentStore>;
        let clean = torn_segment_zero(&open);
        open().truncate(0, clean.len() as u64).unwrap();
        mem.crash(salt);
        mem.revive();
        match recover(&mem).unwrap().torn {
            Some(_) => old += 1,
            None => cut += 1,
        }
        later_commits_survive_a_torn_tail(&open, &clean);
    }
    assert!(old > 0 && cut > 0, "both images: {old} old, {cut} cut");
}
