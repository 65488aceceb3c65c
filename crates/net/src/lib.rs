//! # ks-net — the networked front end for the KS transaction service
//!
//! This crate puts [`TxnService`](ks_server::TxnService) behind a TCP
//! socket without changing what a client program looks like. The same
//! [`Client`](ks_server::Client) trait that in-process
//! [`Session`](ks_server::Session)s implement is implemented here by
//! [`RemoteSession`], so a workload written once runs over either
//! transport — the loopback integration tests and the `exp_net_load`
//! experiment drive both from a single generic function.
//!
//! Five layers:
//!
//! * [`wire`] — the protocol itself: length-prefixed, versioned binary
//!   frames covering the full session surface (hello / open / validate /
//!   read / write / commit / abort / metrics / telemetry / trace export /
//!   shutdown), each carrying a correlation id **and a trace id** so
//!   replies can be matched to their requests and distributed-trace
//!   spans can be stitched across the client/server boundary, plus
//!   `Batch` frames packing a burst of reads/writes with per-op
//!   results. Specifications are encoded structurally and errors as
//!   typed `(code, detail)` pairs that round-trip losslessly into
//!   [`ServerError`](ks_server::ServerError). Documented normatively in
//!   `docs/wire.md`.
//! * [`transport`] — [`Transport`]: the byte-stream abstraction under
//!   the client (an ordered reliable stream with read deadlines).
//!   [`TcpTransport`] is the production implementation; the
//!   deterministic simulation harness (`ks-dst`) substitutes an
//!   in-memory link with seeded fault injection.
//! * [`conn`] — [`ConnCore`]: the transport-agnostic
//!   per-connection request executor (id table, commit/abort id
//!   lifecycle, batch coalescing into per-transaction runs,
//!   abort-on-disconnect sweep) shared by the TCP server and the
//!   simulator, so both drive identical server-side logic.
//! * [`poll`] — the readiness plumbing under the server: a small epoll
//!   wrapper (a one-shot `Poller` many threads wait on, an eventfd
//!   `Waker`), the bounded frame-decode `BufferPool`, and the `/proc`
//!   probes the connection-scale gates measure with.
//! * [`server`] — [`NetServer`]: one pool of threads on a single poller
//!   embedding a `TxnService`. Every connection is registered one-shot,
//!   so the thread a readiness event lands on owns the connection: it
//!   decodes frames incrementally into pooled buffers, runs each request
//!   and writes the reply itself (requests on one connection are
//!   answered in arrival order, echoing each request's correlation id),
//!   and reads nothing while a reply is unflushed, so a peer that does
//!   not read meets TCP backpressure. A graceful drain shutdown hands
//!   back the shard certifiers for model-checking. Scales to 10k+
//!   mostly-idle connections per process.
//! * [`client`] — [`RemoteSession`]: connect timeouts, per-request
//!   deadlines, bounded jittered retry/backoff on transient errors,
//!   fail-fast poisoning after transport faults, and one request in
//!   flight per connection, matched to its reply by correlation id
//!   ([`Client::run_batch`](ks_server::Client::run_batch) bursts go out
//!   as `Batch` frames, one exchange each); generic over [`Transport`]
//!   via [`RemoteSession::over`].
//!
//! The design stance matches the rest of the repo: the network may delay,
//! sever, or refuse, but it must never *invent* an outcome — every
//! failure surfaces as a typed [`ServerError`](ks_server::ServerError),
//! and the serializability-free correctness argument still rests on the
//! embedded service's protocol managers, which `NetServer::shutdown`
//! returns for verification exactly like the in-process path.

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod poll;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{NetClientConfig, RemoteSession, RemoteTxn};
pub use conn::{ConnAction, ConnCore, ConnHost};
pub use server::{NetConfig, NetServer};
pub use transport::{TcpTransport, Transport};
pub use wire::{
    peek_corr, Request, Response, WireError, WireMetrics, MAX_BATCH_OPS, MAX_FRAME,
    MAX_TRACE_EVENTS, PROTOCOL_VERSION,
};
