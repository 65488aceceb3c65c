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
//! * [`storage`] — the [`SegmentStore`] trait separating log logic from
//!   bytes-on-media: [`FileStore`] (real files + `fdatasync`),
//!   [`MemStore`] (shared in-memory segments with an explicit
//!   durable/pending split, fsync counting, and salt-deterministic
//!   torn-write crash injection for ks-dst). `FileStore` writes frames
//!   in place over zeroes it wrote ahead of them, so a commit's
//!   `fdatasync` flushes data and not the file's size; a segment ends at
//!   the first frame header whose `len` is 0.
//! * [`wal`] — the appender: segment rotation at record boundaries and
//!   the prefix-durability contract (`sync` makes everything appended so
//!   far durable, because rotation syncs the outgoing segment first). A
//!   reopen never writes after a torn tail: it resumes in a fresh copy
//!   of the clean prefix.
//! * [`recover`](mod@recover) — the redo pass: last durable [`Checkpoint`] as base
//!   state, then replay the writes of finally-committed transactions in
//!   log order. A transaction is recovered iff its commit record is in
//!   the clean prefix and no later abort record undid it. The server no
//!   longer writes `Abort` after `Commit` (a served commit is final: it
//!   waits for the authors of its inputs, so no cascade reaches it); the
//!   rule stays so logs written before that change recover as they
//!   were written.
//!
//! Group commit lives in `ks-server` (the committing threads elect a
//! leader); this crate only promises that one `sync` covers every
//! record appended before it, which is what makes batching fsyncs safe,
//! and writes a batch with one store write per segment run
//! ([`Wal::append_all`]).
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
