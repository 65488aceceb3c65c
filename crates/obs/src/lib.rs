//! # ks-obs
//!
//! First-class observability for the KS stack: *verdicts with witnesses*.
//!
//! The protocol's whole value claim is that it admits non-serializable
//! executions that are still provably correct — but a bare "violation:
//! yes/no" after a model check is nearly useless for debugging a
//! weak-consistency system. This crate records **why** each decision was
//! taken, cheaply enough to leave on in production:
//!
//! * [`event`] — a typed, allocation-free event model ([`ObsEvent`]):
//!   request lifecycle (enqueue → execute → reply), protocol decisions
//!   (candidates considered, version assigned, re-eval triggered,
//!   re-assign, re-eval abort, cascade edge, the clause that made a
//!   validation unsatisfiable), and transaction lifecycle (begin,
//!   validated, committed, aborted). Every event packs into five `u64`
//!   words.
//! * [`ring`] — an always-on **flight recorder**: per-thread lock-free
//!   ring buffers (seqlock slots over atomics, no `unsafe`) with bounded
//!   memory and a drop counter; a [`Recorder`] registry drains all rings
//!   into one time-ordered stream.
//! * [`json`] — JSONL serialization, hand-written and dependency-free
//!   (no `serde_json`): one event per line, exact round-trip.
//! * [`timeline`] — causal stitching: group a drained stream into
//!   per-transaction timelines, the artifact a dump-on-violation hands
//!   to a human.
//! * [`trace`] — distributed request tracing: `SpanStart`/`SpanEnd`
//!   breadcrumbs emitted at every pipeline hop (client send, connection
//!   handler, shard queue, worker execute, certifier decision, WAL group
//!   commit) stitch into end-to-end [`trace::TraceTree`]s with per-hop
//!   latency attribution.
//! * [`telemetry`] — the one latency histogram type
//!   ([`LatencyHistogram`], one bucket function, one quantile walk) and
//!   time-series SLO telemetry: windowed latency
//!   histograms, throughput/abort-rate/queue-depth/flush-group series,
//!   incremental [`telemetry::TelemetryDelta`] export, and the
//!   declarative [`telemetry::SloSpec`] check
//!   (`p99 ≤ X over any Y-second window`).
//!
//! Emission cost when a recorder is attached is a timestamp read plus a
//! handful of relaxed atomic stores; when detached (the default), a single
//! branch on an `Option`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod ring;
pub mod telemetry;
pub mod timeline;
pub mod trace;

pub use event::{ObsEvent, ObsKind, OpCode, SpanHop, NO_TXN};
pub use json::{event_from_json, event_to_json, from_jsonl, to_jsonl, JsonError};
pub use ring::{ObsSink, Recorder, Ring};
pub use telemetry::{
    LatencyHistogram, SloBreach, SloQuantile, SloSpec, TelemetryDelta, TelemetrySeries,
    WindowSnapshot, LATENCY_BUCKETS,
};
pub use timeline::{stitch, TxnTimeline};
pub use trace::{derive_trace_id, stitch_traces, trace_sampled, HopLatency, TraceSpan, TraceTree};
