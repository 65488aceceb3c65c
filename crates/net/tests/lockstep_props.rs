//! The lock-step client contract over an in-memory mock transport: a
//! session keeps one request in flight, matches each reply to its
//! request by correlation id, drops any other frame it reads on the
//! way, serialises concurrent callers, and sends a burst as
//! ⌈n / `MAX_BATCH_OPS`⌉ `Batch` frames with per-op results in op order.

use ks_kernel::EntityId;
use ks_net::wire::{self, Request, Response, MAX_BATCH_OPS};
use ks_net::{NetClientConfig, RemoteSession, RemoteTxn, Transport};
use ks_obs::{ObsKind, Recorder};
use ks_server::{BatchOp, BatchReply, Client};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// What the mock saw, readable after the session took the mock over.
#[derive(Default)]
struct Stats {
    /// `Batch` request frames received.
    batch_frames: AtomicUsize,
    /// Duplicate and unknown-`corr` frames injected ahead of replies.
    noise_frames: AtomicUsize,
    /// Requests that arrived while an earlier reply was still unread: a
    /// client that pipelines, which a lock-step one never does.
    overlapped: AtomicUsize,
}

/// An in-memory "server" that answers every request frame as soon as it
/// is written. With `noisy` set, every reply after the handshake is
/// preceded by a duplicate of the previous reply and a frame whose
/// `corr` no request ever carried.
struct MockTransport {
    /// Request bytes accumulated until a whole frame is present.
    partial: Vec<u8>,
    /// Reply bytes the client has yet to read.
    replies: VecDeque<u8>,
    last_reply: Option<Vec<u8>>,
    noisy: bool,
    opened: u64,
    stats: Arc<Stats>,
}

impl MockTransport {
    fn new(noisy: bool) -> (Self, Arc<Stats>) {
        let stats = Arc::new(Stats::default());
        let mock = MockTransport {
            partial: Vec::new(),
            replies: VecDeque::new(),
            last_reply: None,
            noisy,
            opened: 0,
            stats: Arc::clone(&stats),
        };
        (mock, stats)
    }

    /// Answer one request with a value that encodes which request it
    /// answers, so a reply handed to the wrong caller is detectable.
    fn answer(&mut self, payload: &[u8]) {
        let (corr, _trace, req) = wire::decode_request(payload).expect("client sends valid frames");
        if !self.replies.is_empty() {
            self.stats.overlapped.fetch_add(1, Ordering::Relaxed);
        }
        let resp = match req {
            Request::Hello { .. } => Response::HelloOk {
                shards: 1,
                backend: ks_server::Backend::Cpc,
            },
            Request::Open { .. } => {
                self.opened += 1;
                Response::Opened { txn: self.opened }
            }
            Request::Read { txn, entity } => Response::Value {
                value: read_value(txn, entity),
            },
            Request::Batch { ops } => {
                self.stats.batch_frames.fetch_add(1, Ordering::Relaxed);
                let results = ops
                    .iter()
                    .map(|&(txn, op)| match op {
                        BatchOp::Read(e) => Ok(BatchReply::Value(read_value(txn, e))),
                        BatchOp::Write(..) => Ok(BatchReply::Done),
                    })
                    .collect();
                Response::Batch { results }
            }
            Request::Shutdown => Response::Bye,
            _ => Response::Done,
        };
        let reply = frame(corr, &resp);
        if self.noisy {
            if let Some(previous) = self.last_reply.take() {
                self.replies.extend(previous);
                self.replies
                    .extend(frame(corr ^ (1 << 63), &Response::Value { value: -1 }));
                self.stats.noise_frames.fetch_add(2, Ordering::Relaxed);
            }
        }
        self.replies.extend(reply.iter().copied());
        self.last_reply = Some(reply);
    }
}

fn read_value(txn: u64, entity: EntityId) -> i64 {
    i64::from(entity.0) * 1000 + txn as i64
}

fn frame(corr: u64, resp: &Response) -> Vec<u8> {
    let payload = wire::encode_response(corr, 0, resp);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

impl Write for MockTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.partial.extend_from_slice(buf);
        while self.partial.len() >= 4 {
            let len = u32::from_le_bytes(self.partial[..4].try_into().unwrap()) as usize;
            if self.partial.len() < 4 + len {
                break;
            }
            let payload: Vec<u8> = self.partial.drain(..4 + len).skip(4).collect();
            self.answer(&payload);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for MockTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.replies.is_empty() {
            // Every request is answered on write, so nothing to read means
            // the client awaits a reply that will never come.
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "no reply"));
        }
        self.replies.read(buf)
    }
}

impl Transport for MockTransport {
    fn set_read_deadline(&mut self, _deadline: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
}

fn session(mock: MockTransport, recorder: Option<Recorder>) -> RemoteSession<MockTransport> {
    let config = NetClientConfig {
        recorder,
        ..NetClientConfig::default()
    };
    RemoteSession::over(mock, config).expect("handshake")
}

fn open(session: &RemoteSession<MockTransport>) -> RemoteTxn {
    let spec = ks_core::Specification::new(ks_predicate::Cnf::truth(), ks_predicate::Cnf::truth());
    session
        .open(ks_server::TxnBuilder::new(spec))
        .expect("open")
}

#[test]
fn remote_sessions_are_send_and_sync() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<RemoteSession>();
    send_sync::<RemoteSession<MockTransport>>();
}

proptest! {
    /// Ahead of every reply sits a stale duplicate of the previous reply
    /// and a frame with an unknown `corr`. Each call must still return
    /// its own reply, and dropping the noise must never poison.
    #[test]
    fn stale_and_unknown_frames_are_dropped(entities in prop::collection::vec(0u32..1000, 1..12)) {
        let (mock, stats) = MockTransport::new(true);
        let session = session(mock, None);
        let txn = open(&session);
        for &e in &entities {
            let value = session.read(txn, EntityId(e)).expect("read survives the noise");
            prop_assert_eq!(value, read_value(txn.0, EntityId(e)), "entity {} got another reply", e);
        }
        let ops: Vec<BatchOp> = entities.iter().map(|&e| BatchOp::Read(EntityId(e))).collect();
        let results = session.run_batch(txn, &ops).expect("batch survives the noise");
        for (&e, r) in entities.iter().zip(&results) {
            prop_assert_eq!(r.as_ref().ok(), Some(&BatchReply::Value(read_value(txn.0, EntityId(e)))));
        }
        prop_assert!(!session.is_poisoned());
        // Open, every read and the batch each got two noise frames.
        prop_assert_eq!(stats.noise_frames.load(Ordering::Relaxed), 2 * (entities.len() + 2));
        session.close().expect("orderly goodbye through the noise");
    }

    /// N threads share one session and start their reads together, each
    /// reading its own entity. Every thread must get the value derived
    /// from its own request, and no request may reach the mock while
    /// another's reply is unread.
    #[test]
    fn concurrent_callers_serialise_on_one_session(n in 2usize..6, reads in 1usize..8, offset in 0u32..1000) {
        let (mock, stats) = MockTransport::new(false);
        let session = session(mock, None);
        let txn = open(&session);
        let start = Barrier::new(n);
        std::thread::scope(|scope| {
            let (session, start) = (&session, &start);
            for i in 0..n as u32 {
                let entity = EntityId(offset + i);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..reads {
                        let value = session.read(txn, entity).expect("read");
                        assert_eq!(value, read_value(txn.0, entity), "entity {} got another reply", entity.0);
                    }
                });
            }
        });
        prop_assert_eq!(stats.overlapped.load(Ordering::Relaxed), 0);
        prop_assert!(!session.is_poisoned());
    }

    /// A burst one frame's worth plus `k` ops long goes out as exactly
    /// two `Batch` frames, with one `NetBatch` event per frame and the
    /// per-op results in op order.
    #[test]
    fn an_oversized_burst_takes_two_frames(k in 1usize..64) {
        let recorder = Recorder::new(1024);
        let (mock, stats) = MockTransport::new(false);
        let session = session(mock, Some(recorder.clone()));
        let txn = open(&session);
        let ops: Vec<BatchOp> = (0..(MAX_BATCH_OPS + k) as u32)
            .map(|i| if i % 3 == 0 { BatchOp::Write(EntityId(i), 1) } else { BatchOp::Read(EntityId(i)) })
            .collect();
        let results = session.run_batch(txn, &ops).expect("burst");
        prop_assert_eq!(results.len(), ops.len());
        for (op, r) in ops.iter().zip(&results) {
            let want = match *op {
                BatchOp::Read(e) => BatchReply::Value(read_value(txn.0, e)),
                BatchOp::Write(..) => BatchReply::Done,
            };
            prop_assert_eq!(r.as_ref().ok(), Some(&want), "{:?} out of order", op);
        }
        prop_assert_eq!(stats.batch_frames.load(Ordering::Relaxed), 2);
        let batch_events: Vec<usize> = recorder
            .drain()
            .into_iter()
            .filter_map(|e| match e.kind {
                ObsKind::NetBatch { ops } => Some(ops as usize),
                _ => None,
            })
            .collect();
        prop_assert_eq!(batch_events, vec![MAX_BATCH_OPS, k]);
    }
}
