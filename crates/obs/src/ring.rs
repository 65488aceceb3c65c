//! The flight recorder: lock-free per-emitter ring buffers.
//!
//! Each emitter (a shard, written under its lock; a service's sessions
//! and WAL flusher; a simulator) owns an [`ObsSink`] backed by its own
//! [`Ring`]; a [`Recorder`] is the registry that hands out sinks and
//! drains every ring into one time-ordered stream. The rings are bounded (memory never grows) and overwrite the
//! oldest events when full, counting every overwrite in a drop counter —
//! an always-on flight recorder, not a lossless log.
//!
//! ## Lock-freedom without `unsafe`
//!
//! A slot is a seqlock over plain atomics: the writer claims an index with
//! `fetch_add` on the ring head, marks the slot's sequence odd (write in
//! progress), stores the five payload words, then marks the sequence even
//! with the slot's generation. Readers load the sequence before and after
//! copying the words and discard the slot on any mismatch — a torn read is
//! *skipped*, never observed. Writers never wait, readers never block
//! writers, and the whole structure is `#![forbid(unsafe_code)]`-clean.

use crate::event::{ObsEvent, ObsKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Words per packed event (see [`ObsEvent::pack`]).
const WORDS: usize = 5;

/// Default events per ring. At 48 bytes/slot this is ~200 KiB per
/// emitting thread — cheap enough to leave on.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

struct Slot {
    /// 0 = never written; odd = write in progress; even `2(g+1)` = holds
    /// an event of generation `g`.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One bounded, lock-free event ring (single logical writer, any number
/// of concurrent readers; concurrent writers are safe but may skip slots).
pub struct Ring {
    slots: Box<[Slot]>,
    /// Total events ever pushed (monotone; `head - capacity` of them have
    /// been overwritten once `head > capacity`).
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        Ring {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Push one event (never blocks; overwrites the oldest when full).
    pub fn push(&self, ev: &ObsEvent) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let n = self.slots.len() as u64;
        let slot = &self.slots[(i % n) as usize];
        let generation = i / n;
        slot.seq.store(generation * 2 + 1, Ordering::Release);
        for (w, v) in slot.words.iter().zip(ev.pack()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(generation * 2 + 2, Ordering::Release);
    }

    /// Events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events overwritten (lost to the bounded capacity).
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// Snapshot the currently retained events, oldest first. Slots being
    /// written concurrently are skipped, never torn.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let mut words = [0u64; WORDS];
            for (w, a) in words.iter_mut().zip(&slot.words) {
                // Acquire keeps the re-check of `seq` below ordered after
                // these loads — the safe-Rust seqlock discipline.
                *w = a.load(Ordering::Acquire);
            }
            if slot.seq.load(Ordering::Acquire) != before {
                continue;
            }
            if let Some(ev) = ObsEvent::unpack(words) {
                out.push(ev);
            }
        }
        out.sort_by_key(|e| e.ts);
        out
    }
}

struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
}

/// The recorder registry: hands out per-thread [`ObsSink`]s and merges
/// their rings on demand. Cloning shares the registry.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("rings", &self.inner.rings.lock().unwrap().len())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_RING_CAPACITY)
    }
}

impl Recorder {
    /// An enabled recorder whose rings hold `capacity` events each.
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                epoch: Instant::now(),
                capacity,
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A recorder whose sinks drop everything (for overhead A/B runs: the
    /// instrumentation call sites stay identical, only the flag differs).
    pub fn disabled() -> Recorder {
        let r = Recorder::default();
        r.inner.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off (all sinks observe the flag).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Register a new ring and return a sink writing to it, stamped with
    /// `shard` (use `u32::MAX` for unsharded emitters).
    pub fn sink(&self, shard: u32) -> ObsSink {
        let ring = Arc::new(Ring::new(self.inner.capacity));
        self.inner.rings.lock().unwrap().push(Arc::clone(&ring));
        ObsSink {
            ring,
            inner: Arc::clone(&self.inner),
            shard,
        }
    }

    /// Merge every ring's retained events into one stream, ordered by
    /// timestamp (stable across rings).
    pub fn drain(&self) -> Vec<ObsEvent> {
        let rings = self.inner.rings.lock().unwrap().clone();
        let mut out: Vec<ObsEvent> = rings.iter().flat_map(|r| r.snapshot()).collect();
        out.sort_by_key(|e| e.ts);
        out
    }

    /// Snapshot every ring separately, in ring-registration order.
    ///
    /// [`Recorder::drain`] merges rings by wall-clock timestamp, which is
    /// racy across concurrently emitting threads (two rings' clocks can
    /// interleave either way between runs). Deterministic consumers — the
    /// `ks-dst` seed-determinism oracle above all — need the per-ring
    /// streams, whose *within-ring* order is the emitter's program order
    /// and therefore reproducible.
    pub fn drain_rings(&self) -> Vec<Vec<ObsEvent>> {
        let rings = self.inner.rings.lock().unwrap().clone();
        rings.iter().map(|r| r.snapshot()).collect()
    }

    /// Total events ever recorded across all rings.
    pub fn recorded(&self) -> u64 {
        self.inner
            .rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.pushed())
            .sum()
    }

    /// Total events lost to ring overwrites across all rings.
    pub fn dropped(&self) -> u64 {
        self.inner
            .rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.dropped())
            .sum()
    }
}

/// A cheap, `Send + Sync` handle one thread uses to emit events. Carries
/// its shard stamp; the timestamp comes from the parent recorder's epoch.
#[derive(Clone)]
pub struct ObsSink {
    ring: Arc<Ring>,
    inner: Arc<Inner>,
    shard: u32,
}

impl std::fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSink")
            .field("shard", &self.shard)
            .finish()
    }
}

impl ObsSink {
    /// The shard this sink stamps onto events.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Is the parent recorder enabled? (One relaxed load.)
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the parent recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Emit with the sink's shard stamp and the current time.
    #[inline]
    pub fn emit(&self, txn: u32, kind: ObsKind) {
        if !self.is_enabled() {
            return;
        }
        self.push(self.now_ns(), self.shard, txn, kind);
    }

    /// Emit for an explicit shard (session-side sinks route per call).
    #[inline]
    pub fn emit_for(&self, shard: u32, txn: u32, kind: ObsKind) {
        if !self.is_enabled() {
            return;
        }
        self.push(self.now_ns(), shard, txn, kind);
    }

    /// Emit with an explicit timestamp (deterministic simulation: `ts` is
    /// the simulated clock, not wall time).
    #[inline]
    pub fn emit_at(&self, ts: u64, txn: u32, kind: ObsKind) {
        if !self.is_enabled() {
            return;
        }
        self.push(ts, self.shard, txn, kind);
    }

    fn push(&self, ts: u64, shard: u32, txn: u32, kind: ObsKind) {
        self.ring.push(&ObsEvent {
            ts,
            shard,
            txn,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_TXN;

    #[test]
    fn rings_retain_the_newest_and_count_drops() {
        let rec = Recorder::new(8);
        let sink = rec.sink(0);
        for i in 0..20 {
            sink.emit_at(i, i as u32, ObsKind::TxnBegin);
        }
        let events = rec.drain();
        assert_eq!(events.len(), 8);
        // Oldest retained is event 12 (20 pushed, 8 kept).
        assert_eq!(events.first().unwrap().ts, 12);
        assert_eq!(events.last().unwrap().ts, 19);
        assert_eq!(rec.recorded(), 20);
        assert_eq!(rec.dropped(), 12);
    }

    #[test]
    fn disabled_recorder_drops_everything_cheaply() {
        let rec = Recorder::disabled();
        let sink = rec.sink(0);
        sink.emit(NO_TXN, ObsKind::SessionAdmit);
        assert_eq!(rec.recorded(), 0);
        rec.set_enabled(true);
        sink.emit(NO_TXN, ObsKind::SessionAdmit);
        assert_eq!(rec.recorded(), 1);
    }

    #[test]
    fn drain_merges_rings_in_time_order() {
        let rec = Recorder::new(16);
        let a = rec.sink(0);
        let b = rec.sink(1);
        a.emit_at(5, 0, ObsKind::TxnBegin);
        b.emit_at(3, 0, ObsKind::TxnBegin);
        a.emit_at(9, 0, ObsKind::TxnCommitted);
        b.emit_at(7, 0, ObsKind::TxnAborted);
        let ts: Vec<u64> = rec.drain().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![3, 5, 7, 9]);
    }

    #[test]
    fn concurrent_writers_and_reader_never_tear() {
        let rec = Recorder::new(64);
        let sinks: Vec<ObsSink> = (0..4).map(|s| rec.sink(s)).collect();
        std::thread::scope(|scope| {
            for (i, sink) in sinks.iter().enumerate() {
                scope.spawn(move || {
                    for k in 0..10_000u64 {
                        sink.emit_at(
                            k,
                            i as u32,
                            ObsKind::CandidatesConsidered {
                                entity: i as u32,
                                count: k as u32,
                            },
                        );
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..200 {
                    for ev in rec.drain() {
                        // Any event that decodes must be self-consistent:
                        // the payload the writer of that shard wrote.
                        match ev.kind {
                            ObsKind::CandidatesConsidered { entity, .. } => {
                                assert_eq!(entity, ev.shard)
                            }
                            other => panic!("alien event {other:?}"),
                        }
                    }
                }
            });
        });
        assert_eq!(rec.recorded(), 40_000);
        assert_eq!(rec.dropped(), 40_000 - 4 * 64);
    }
}
