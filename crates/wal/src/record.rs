//! WAL record kinds and their CRC-framed wire encoding.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [len: u32][crc: u32][payload: len bytes]
//! payload = [tag: u8][fields...]
//! ```
//!
//! `crc` is the CRC-32 of the payload alone, so a frame is valid iff the
//! header is intact *and* every payload byte survived. Decoding a stream
//! ([`decode_stream`]) walks frames until the first one that is
//! truncated, oversized, checksum-corrupt, or undecodable, and reports
//! the byte length of the clean prefix — the recovery contract is "the
//! log is its longest clean prefix", which is exactly what an
//! append-only log with torn final writes guarantees physically.

use crate::crc::crc32;

/// Upper bound on a single payload; anything larger in a length header
/// is treated as corruption (a torn length field can claim 4 GiB).
pub const MAX_PAYLOAD: usize = 1 << 26;

/// Byte overhead of the frame header (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// One durable log record. `shard`/`txn` identify a transaction in the
/// server's shard-local id space; `entity` is the shard-local entity
/// index and `value` the written domain value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction was defined on `shard`.
    Begin {
        /// Owning shard.
        shard: u32,
        /// Shard-local transaction id.
        txn: u64,
    },
    /// A write was applied to the shard's multiversion store.
    Write {
        /// Owning shard.
        shard: u32,
        /// Shard-local transaction id.
        txn: u64,
        /// Shard-local entity index.
        entity: u32,
        /// Written value.
        value: i64,
    },
    /// The transaction committed. A commit is visible after recovery iff
    /// this record is in the durable clean prefix.
    Commit {
        /// Owning shard.
        shard: u32,
        /// Shard-local transaction id.
        txn: u64,
    },
    /// The transaction aborted — explicitly, by re-eval, or by a cascade.
    /// The server writes it only for transactions that have not
    /// committed; an `Abort` *after* a `Commit` for the same transaction
    /// (written by servers that could cascade-undo a committed sibling)
    /// revokes it.
    Abort {
        /// Owning shard.
        shard: u32,
        /// Shard-local transaction id.
        txn: u64,
    },
    /// Full materialized state of every shard, written (and synced)
    /// at service startup before any transaction of the new incarnation.
    /// Doubles as an epoch fence: recovery replays only records after
    /// the last checkpoint, so shard-local txn ids reused across
    /// restarts can never collide.
    Checkpoint {
        /// Per-shard entity values, indexed `[shard][entity]`.
        shards: Vec<Vec<i64>>,
    },
}

const TAG_BEGIN: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;

impl WalRecord {
    /// Encode as one frame, appended to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::with_capacity(32);
        match self {
            WalRecord::Begin { shard, txn }
            | WalRecord::Commit { shard, txn }
            | WalRecord::Abort { shard, txn } => {
                payload.push(match self {
                    WalRecord::Begin { .. } => TAG_BEGIN,
                    WalRecord::Commit { .. } => TAG_COMMIT,
                    _ => TAG_ABORT,
                });
                payload.extend_from_slice(&shard.to_le_bytes());
                payload.extend_from_slice(&txn.to_le_bytes());
            }
            WalRecord::Write {
                shard,
                txn,
                entity,
                value,
            } => {
                payload.push(TAG_WRITE);
                payload.extend_from_slice(&shard.to_le_bytes());
                payload.extend_from_slice(&txn.to_le_bytes());
                payload.extend_from_slice(&entity.to_le_bytes());
                payload.extend_from_slice(&value.to_le_bytes());
            }
            WalRecord::Checkpoint { shards } => {
                payload.push(TAG_CHECKPOINT);
                payload.extend_from_slice(&(shards.len() as u32).to_le_bytes());
                for entities in shards {
                    payload.extend_from_slice(&(entities.len() as u32).to_le_bytes());
                    for v in entities {
                        payload.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }

    /// Encoded frame length in bytes.
    pub fn frame_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Decode one payload (the bytes after the frame header). `None` on
    /// unknown tag, short fields, or trailing garbage — a payload must
    /// be consumed exactly.
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = payload.split_first()?;
        let mut cur = Cursor(rest);
        let record = match tag {
            TAG_BEGIN | TAG_COMMIT | TAG_ABORT => {
                let shard = cur.u32()?;
                let txn = cur.u64()?;
                match tag {
                    TAG_BEGIN => WalRecord::Begin { shard, txn },
                    TAG_COMMIT => WalRecord::Commit { shard, txn },
                    _ => WalRecord::Abort { shard, txn },
                }
            }
            TAG_WRITE => WalRecord::Write {
                shard: cur.u32()?,
                txn: cur.u64()?,
                entity: cur.u32()?,
                value: cur.u64()? as i64,
            },
            TAG_CHECKPOINT => {
                let nshards = cur.u32()? as usize;
                // Arity sanity: each shard needs at least its length word.
                if nshards > payload.len() {
                    return None;
                }
                let mut shards = Vec::with_capacity(nshards);
                for _ in 0..nshards {
                    let n = cur.u32()? as usize;
                    if n.checked_mul(8)? > cur.0.len() {
                        return None;
                    }
                    let mut entities = Vec::with_capacity(n);
                    for _ in 0..n {
                        entities.push(cur.u64()? as i64);
                    }
                    shards.push(entities);
                }
                WalRecord::Checkpoint { shards }
            }
            _ => return None,
        };
        if cur.0.is_empty() {
            Some(record)
        } else {
            None
        }
    }
}

/// Little-endian field reader over a payload tail.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn u32(&mut self) -> Option<u32> {
        let (head, tail) = self.0.split_first_chunk::<4>()?;
        self.0 = tail;
        Some(u32::from_le_bytes(*head))
    }

    fn u64(&mut self) -> Option<u64> {
        let (head, tail) = self.0.split_first_chunk::<8>()?;
        self.0 = tail;
        Some(u64::from_le_bytes(*head))
    }
}

/// Result of scanning a byte stream: the records of the clean prefix,
/// its byte length, and — when the stream did not end exactly at a frame
/// boundary — why the scan stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamScan {
    /// Every record decoded from the clean prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the clean prefix (`bytes[..clean_len]` re-decodes
    /// to exactly `records`).
    pub clean_len: usize,
    /// `None` when the stream ends at a frame boundary; otherwise a
    /// human-readable reason the tail was discarded (torn header, torn
    /// payload, CRC mismatch, undecodable payload, oversized length).
    pub torn: Option<String>,
}

/// Scan `bytes` as a sequence of frames, stopping at the first damage.
///
/// This is total: any byte string yields a (possibly empty) clean prefix
/// and never panics, which is what lets recovery treat "whatever the
/// disk has" as input.
pub fn decode_stream(bytes: &[u8]) -> StreamScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    let torn = loop {
        if at == bytes.len() {
            break None;
        }
        let rest = &bytes[at..];
        if rest.len() < FRAME_HEADER {
            break Some(format!("torn frame header: {} trailing bytes", rest.len()));
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len > MAX_PAYLOAD {
            break Some(format!("oversized payload length {len}"));
        }
        if rest.len() < FRAME_HEADER + len {
            break Some(format!(
                "torn payload: header claims {len} bytes, {} present",
                rest.len() - FRAME_HEADER
            ));
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        if crc32(payload) != crc {
            break Some("payload CRC mismatch".to_string());
        }
        match WalRecord::decode_payload(payload) {
            Some(record) => records.push(record),
            None => break Some("undecodable payload".to_string()),
        }
        at += FRAME_HEADER + len;
    };
    StreamScan {
        records,
        clean_len: at,
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { shard: 0, txn: 1 },
            WalRecord::Write {
                shard: 0,
                txn: 1,
                entity: 3,
                value: -42,
            },
            WalRecord::Commit { shard: 0, txn: 1 },
            WalRecord::Abort { shard: 2, txn: 9 },
            WalRecord::Checkpoint {
                shards: vec![vec![1, 2, 3], vec![], vec![i64::MIN, i64::MAX]],
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut bytes = Vec::new();
        for r in sample() {
            r.encode(&mut bytes);
        }
        let scan = decode_stream(&bytes);
        assert_eq!(scan.records, sample());
        assert_eq!(scan.clean_len, bytes.len());
        assert_eq!(scan.torn, None);
    }

    #[test]
    fn truncated_tail_yields_clean_prefix() {
        let mut bytes = Vec::new();
        for r in sample() {
            r.encode(&mut bytes);
        }
        let full = bytes.len();
        // Chop every possible number of trailing bytes; the scan must
        // never panic and the clean prefix must re-decode exactly.
        for keep in 0..full {
            let scan = decode_stream(&bytes[..keep]);
            assert!(scan.clean_len <= keep);
            let again = decode_stream(&bytes[..scan.clean_len]);
            assert_eq!(again.records, scan.records);
            assert_eq!(again.torn, None);
            if keep != scan.clean_len {
                assert!(scan.torn.is_some(), "keep={keep}");
            }
        }
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut bytes = Vec::new();
        WalRecord::Commit { shard: 1, txn: 7 }.encode(&mut bytes);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            // A flip in the length header desyncs the frame, a flip in
            // the crc or payload fails the checksum: the record must
            // never silently change, so nothing decodes.
            let scan = decode_stream(&bad);
            assert!(scan.records.is_empty(), "corrupted byte {i} still decoded");
            assert!(scan.torn.is_some(), "byte {i}");
        }
    }

    #[test]
    fn oversized_length_header_is_corruption() {
        let mut bytes = ((MAX_PAYLOAD + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 12]);
        let scan = decode_stream(&bytes);
        assert_eq!(scan.clean_len, 0);
        assert!(scan.torn.unwrap().contains("oversized"));
    }

    #[test]
    fn trailing_garbage_in_payload_fails_closed() {
        let mut payload = vec![TAG_COMMIT];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0xEE); // one extra byte
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let scan = decode_stream(&bytes);
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn.as_deref(), Some("undecodable payload"));
    }
}
