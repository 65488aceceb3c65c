//! ks-wal: write-ahead logging and crash recovery for the KS server.
//!
//! The paper's correctness model treats a committed transaction's
//! versions as permanent; this crate makes that true across process
//! death. It is deliberately small and dependency-free:
//!
//! * [`record`] — the five record kinds (`Begin`/`Write`/`Commit`/
//!   `Abort`/`Checkpoint`) and their CRC-framed wire encoding. Decoding
//!   a byte stream stops at the first torn or corrupt frame and reports
//!   the clean prefix, so a crash mid-append never poisons recovery.
//! * [`storage`] — the [`SegmentStore`] byte store and its two media:
//!   [`FileStore`] (files, `fdatasync`, directory syncs) and [`MemStore`]
//!   (shared in-memory segments with a durable/unsynced split, sync
//!   counting and a hook before each sync, and salt-deterministic power
//!   cuts for ks-dst). Both carry the same on-media layout.
//! * [`wal`] — the appender and the layout: frames written in place over
//!   zeroes written ahead, a segment ending at the first zero `len`
//!   header, rotation at record boundaries, and the prefix-durability
//!   contract (rotation syncs the outgoing segment first). A reopen cuts
//!   a torn tail in place and never writes behind one.
//! * [`recover`](mod@recover) — the redo pass: last durable [`Checkpoint`]
//!   as base state, then the writes of finally-committed transactions in
//!   log order. A transaction is recovered iff its commit record is in
//!   the clean prefix and no later abort record undid it (the server no
//!   longer writes `Abort` after `Commit`; the rule keeps logs written
//!   before that change recovering as they were written).
//!
//! Group commit lives in `ks-server`; this crate promises that one
//! `sync` covers every record appended before it, and writes a batch
//! with one store write per segment run ([`Wal::append_all`]).
//!
//! [`Checkpoint`]: record::WalRecord::Checkpoint
//! [`FileStore`]: storage::FileStore
//! [`MemStore`]: storage::MemStore
//! [`SegmentStore`]: storage::SegmentStore

pub mod record;
pub mod recover;
pub mod storage;
pub mod wal;

pub use record::{decode_stream, StreamScan, WalRecord};
pub use recover::{recover, Recovery, ShardReplay};
pub use storage::{FileStore, MemStore, SegmentStore};
pub use wal::{Wal, WalConfig, WalStats};

mod crc;
pub use crc::crc32;
