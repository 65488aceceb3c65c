//! The redo pass: rebuild server state from whatever the media holds.
//!
//! Recovery is a pure function of the log's clean prefix:
//!
//! 1. Decode every segment in id order, each up to its logical end (see
//!    [`wal`](crate::wal): the zeroes written ahead of a segment's frames
//!    are not log), and take the longest clean prefix: [`decode_stream`]
//!    stops at the first torn or corrupt frame, and no later segment is
//!    read (crash damage can only truncate history, never alter it).
//! 2. The **last** [`WalRecord::Checkpoint`] is the base state; it also
//!    fences epochs (records before it belong to dead incarnations
//!    whose shard-local txn ids may have been reused).
//! 3. Replay the records after the checkpoint: a transaction is
//!    *finally committed* iff its last fate record in the prefix is a
//!    `Commit` (a later `Abort` revokes it: the server no longer writes
//!    one, but logs from servers that could cascade-undo a committed
//!    sibling hold them). Writes of finally-committed
//!    transactions apply to the base state in log order, so last-write-
//!    wins per entity matches the MvStore's latest-live-version rule.
//!
//! The result is exactly the state the server's committed-effects
//! semantics prescribe: a commit survives iff its commit record was
//! durable and un-revoked at the instant of the crash.

use crate::record::{decode_stream, WalRecord};
use crate::storage::SegmentStore;
use crate::wal::logical_end;
use std::collections::BTreeMap;
use std::io;

/// Per-shard replay counters, for `RecoveryReplay` observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReplay {
    /// The shard.
    pub shard: u32,
    /// Committed writes applied to the shard's base state.
    pub writes: u32,
    /// Finally-committed transactions recovered on the shard.
    pub committed: u32,
}

/// What the log said.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Recovered per-shard entity values (`[shard][entity]`), or `None`
    /// when the clean prefix holds no checkpoint (fresh media — start
    /// from the configured initial state).
    pub states: Option<Vec<Vec<i64>>>,
    /// Finally-committed transactions since the last checkpoint,
    /// ascending `(shard, txn)`.
    pub committed: Vec<(u32, u64)>,
    /// Per-shard replay counters (only shards with activity appear).
    pub replay: Vec<ShardReplay>,
    /// Records in the clean prefix (including checkpoints).
    pub records: usize,
    /// Byte length of the clean prefix across all segments.
    pub clean_bytes: usize,
    /// Why the scan stopped early, if it did (torn tail ⇒ expected
    /// after a crash; `None` ⇒ the log ended at a frame boundary).
    pub torn: Option<String>,
}

/// Shard `shard`'s replay counters, starting from zero.
fn counters(replay: &mut BTreeMap<u32, ShardReplay>, shard: u32) -> &mut ShardReplay {
    let zero = ShardReplay {
        shard,
        writes: 0,
        committed: 0,
    };
    replay.entry(shard).or_insert(zero)
}

/// Run recovery against a store (see module docs).
pub fn recover<S: SegmentStore + ?Sized>(store: &S) -> io::Result<Recovery> {
    Ok(recover_at(store)?.0)
}

/// Where recovery's clean prefix stops: the last segment read (the first
/// torn one, else the last), its clean and raw lengths, and whether any
/// byte past its clean prefix is not zero.
pub(crate) type Stop = (u64, u64, u64, bool);

/// [`recover`], and the [`Stop`] of its clean prefix.
pub(crate) fn recover_at<S>(store: &S) -> io::Result<(Recovery, Option<Stop>)>
where
    S: SegmentStore + ?Sized,
{
    let (mut records, mut clean_bytes, mut torn, mut stop) = (Vec::new(), 0, None, None);
    for id in store.list()? {
        let bytes = store.read(id)?;
        let scan = decode_stream(&bytes[..logical_end(&bytes)]);
        let stray = bytes[scan.clean_len..].iter().any(|&b| b != 0);
        stop = Some((id, scan.clean_len as u64, bytes.len() as u64, stray));
        (clean_bytes, torn) = (clean_bytes + scan.clean_len, scan.torn);
        records.extend(scan.records);
        if torn.is_some() {
            break;
        }
    }

    // Locate the last checkpoint; everything before it is a dead epoch.
    let mut base: Option<Vec<Vec<i64>>> = None;
    let mut tail_from = 0usize;
    for (i, record) in records.iter().enumerate() {
        if let WalRecord::Checkpoint { shards } = record {
            base = Some(shards.clone());
            tail_from = i + 1;
        }
    }

    // Fates (whether a transaction's last fate record is a `Commit`) and
    // writes of the live epoch, in log order.
    let mut fates: BTreeMap<(u32, u64), bool> = BTreeMap::new();
    let mut writes: Vec<(u32, u64, u32, i64)> = Vec::new();
    for record in &records[tail_from..] {
        match *record {
            WalRecord::Begin { shard, txn } | WalRecord::Abort { shard, txn } => {
                fates.insert((shard, txn), false);
            }
            WalRecord::Write {
                shard,
                txn,
                entity,
                value,
            } => writes.push((shard, txn, entity, value)),
            WalRecord::Commit { shard, txn } => {
                fates.insert((shard, txn), true);
            }
            WalRecord::Checkpoint { .. } => unreachable!("tail starts after last checkpoint"),
        }
    }

    let committed: Vec<(u32, u64)> = fates
        .iter()
        .filter(|(_, &committed)| committed)
        .map(|(&k, _)| k)
        .collect();

    let mut replay: BTreeMap<u32, ShardReplay> = BTreeMap::new();
    for &(shard, _) in &committed {
        counters(&mut replay, shard).committed += 1;
    }

    let states = base.map(|mut states| {
        for &(shard, txn, entity, value) in &writes {
            if fates.get(&(shard, txn)) != Some(&true) {
                continue;
            }
            if let Some(slot) = states
                .get_mut(shard as usize)
                .and_then(|s| s.get_mut(entity as usize))
            {
                *slot = value;
                counters(&mut replay, shard).writes += 1;
            }
        }
        states
    });

    let recovery = Recovery {
        states,
        committed,
        replay: replay.into_values().collect(),
        records: records.len(),
        clean_bytes,
        torn,
    };
    Ok((recovery, stop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MemStore, SegmentStore};
    use crate::wal::{Wal, WalConfig};

    fn wal_over(store: &MemStore) -> Wal<MemStore> {
        Wal::open(store.clone(), WalConfig::default()).unwrap()
    }

    #[test]
    fn commit_survives_iff_record_is_durable() {
        let store = MemStore::new();
        let mut wal = wal_over(&store);
        wal.append(&WalRecord::Checkpoint {
            shards: vec![vec![0, 0]],
        })
        .unwrap();
        wal.append(&WalRecord::Begin { shard: 0, txn: 1 }).unwrap();
        wal.append(&WalRecord::Write {
            shard: 0,
            txn: 1,
            entity: 0,
            value: 7,
        })
        .unwrap();
        wal.append(&WalRecord::Commit { shard: 0, txn: 1 }).unwrap();
        wal.sync().unwrap();
        // Txn 2 commits but the commit record never reaches the media.
        wal.append(&WalRecord::Begin { shard: 0, txn: 2 }).unwrap();
        wal.append(&WalRecord::Write {
            shard: 0,
            txn: 2,
            entity: 1,
            value: 9,
        })
        .unwrap();
        store.crash(0); // salt 0 tears deterministically
        let r = recover(&store).unwrap();
        assert_eq!(r.committed, vec![(0, 1)]);
        let states = r.states.unwrap();
        assert_eq!(states[0][0], 7, "durable commit replays");
        assert_eq!(states[0][1], 0, "unacknowledged txn leaves no trace");
    }

    #[test]
    fn abort_after_commit_revokes_it() {
        // Servers that could cascade-undo a committed sibling logged
        // that as Commit then Abort for the same txn.
        let store = MemStore::new();
        let mut wal = wal_over(&store);
        wal.append(&WalRecord::Checkpoint {
            shards: vec![vec![5]],
        })
        .unwrap();
        for rec in [
            WalRecord::Begin { shard: 0, txn: 3 },
            WalRecord::Write {
                shard: 0,
                txn: 3,
                entity: 0,
                value: 11,
            },
            WalRecord::Commit { shard: 0, txn: 3 },
            WalRecord::Abort { shard: 0, txn: 3 },
        ] {
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        let r = recover(&store).unwrap();
        assert!(r.committed.is_empty());
        assert_eq!(r.states.unwrap(), vec![vec![5]]);
    }

    #[test]
    fn last_checkpoint_fences_reused_txn_ids() {
        // Epoch 1 commits txn 1 writing 100; the restart checkpoint
        // captures it; epoch 2 reuses txn id 1 and aborts. The abort
        // must not revoke the *old* txn 1's effect.
        let store = MemStore::new();
        let mut wal = wal_over(&store);
        wal.append(&WalRecord::Checkpoint {
            shards: vec![vec![0]],
        })
        .unwrap();
        for rec in [
            WalRecord::Begin { shard: 0, txn: 1 },
            WalRecord::Write {
                shard: 0,
                txn: 1,
                entity: 0,
                value: 100,
            },
            WalRecord::Commit { shard: 0, txn: 1 },
            WalRecord::Checkpoint {
                shards: vec![vec![100]],
            },
            WalRecord::Begin { shard: 0, txn: 1 },
            WalRecord::Abort { shard: 0, txn: 1 },
        ] {
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        let r = recover(&store).unwrap();
        assert!(r.committed.is_empty(), "epoch-2 txn 1 aborted");
        assert_eq!(r.states.unwrap(), vec![vec![100]], "epoch-1 commit kept");
    }

    #[test]
    fn replay_spans_segments_and_last_write_wins() {
        let store = MemStore::new();
        let frame = WalRecord::Commit { shard: 0, txn: 0 }.frame_len();
        let mut wal = Wal::open(
            store.clone(),
            WalConfig {
                segment_bytes: frame * 2,
            },
        )
        .unwrap();
        wal.append(&WalRecord::Checkpoint {
            shards: vec![vec![0], vec![0, 0]],
        })
        .unwrap();
        for (txn, value) in [(1u64, 1i64), (2, 2), (3, 3)] {
            wal.append(&WalRecord::Begin { shard: 1, txn }).unwrap();
            wal.append(&WalRecord::Write {
                shard: 1,
                txn,
                entity: 1,
                value,
            })
            .unwrap();
            wal.append(&WalRecord::Commit { shard: 1, txn }).unwrap();
        }
        wal.sync().unwrap();
        assert!(store.list().unwrap().len() > 1, "log spans segments");
        let r = recover(&store).unwrap();
        assert_eq!(r.committed, vec![(1, 1), (1, 2), (1, 3)]);
        assert_eq!(r.states.unwrap(), vec![vec![0], vec![0, 3]]);
        let shard1 = r.replay.iter().find(|s| s.shard == 1).unwrap();
        assert_eq!((shard1.writes, shard1.committed), (3, 3));
    }

    #[test]
    fn fresh_media_recovers_to_nothing() {
        let store = MemStore::new();
        let r = recover(&store).unwrap();
        assert_eq!(r, Recovery::default());
    }
}
