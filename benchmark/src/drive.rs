//! The closed-loop client: one blocking [`Client`] per thread, next request
//! only after the previous reply. Written against the transport-generic
//! trait, so the in-process and loopback workloads run the same code.

use crate::gen::{ClientGen, Op, TxnPlan, Workload};
use ks_kernel::Value;
use ks_server::{Backoff, Client, ServerError, TxnBuilder};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Transient-error retries one transaction may spend before it counts as
/// failed (retry-budget exhaustion is a failure, not a pause).
const RETRY_BUDGET: u32 = 10_000;

/// The client-boundary calls, in the order a transaction makes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Open,
    Validate,
    Read,
    Write,
    Commit,
}

impl Call {
    pub const ALL: [Call; 5] = [
        Call::Open,
        Call::Validate,
        Call::Read,
        Call::Write,
        Call::Commit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Open => "open",
            Call::Validate => "validate",
            Call::Read => "read",
            Call::Write => "write",
            Call::Commit => "commit",
        }
    }
}

/// One call into the client, traced runs only. Times are ns since the
/// phase's epoch; the parent is the transaction span with the same `txn`.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    pub txn: u32,
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One attempted transaction: `open` call to `commit` ack (or to the error).
#[derive(Debug, Clone, Copy)]
pub struct TxnSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time slept between retried calls inside this transaction.
    pub backoff_ns: u64,
    pub committed: bool,
    pub long: bool,
}

/// What one client did in one phase (warm-up or measured window).
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Every attempted transaction in order; index = the spans' `txn`.
    pub txns: Vec<TxnSpan>,
    pub retries: u64,
    /// Traced runs only.
    pub calls: Vec<CallSpan>,
    pub first_error: Option<String>,
}

/// A client's state across phases: its plan stream, backoff schedule, and
/// what the service has acknowledged to it.
pub struct ClientState {
    gen: ClientGen,
    backoff: Backoff,
    /// Value of the last acknowledged write per entity index.
    pub last_write: BTreeMap<usize, Value>,
    pub committed: u64,
}

impl ClientState {
    pub fn new(workload: Workload, seed: u64, client: usize) -> ClientState {
        ClientState {
            gen: ClientGen::new(workload, seed, client),
            backoff: Backoff::new(
                Duration::from_micros(5),
                Duration::from_micros(500),
                seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            last_write: BTreeMap::new(),
            committed: 0,
        }
    }
}

/// When a phase stops starting transactions.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many attempts (warm-up: identical history run to run).
    Count(u64),
    /// Once this much time has passed since the start barrier; the
    /// transaction in flight completes and counts.
    Elapsed(Duration),
}

/// Run every client's closed loop on its own thread, released together.
/// Returns the logs plus the process's `(user, system)` CPU seconds between
/// the release and the last client's finish.
pub fn run_phase<C: Client + Send>(
    sessions: &mut [C],
    states: &mut [ClientState],
    until: Until,
    epoch: Instant,
    trace: bool,
) -> (Vec<ClientLog>, (f64, f64)) {
    let barrier = Barrier::new(sessions.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(states.iter_mut())
            .map(|(session, state)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    run_client(&*session, state, until, epoch, trace)
                })
            })
            .collect();
        let cpu0 = crate::stats::cpu_seconds();
        barrier.wait();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let cpu1 = crate::stats::cpu_seconds();
        (logs, (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1))
    })
}

fn run_client<C: Client>(
    client: &C,
    state: &mut ClientState,
    until: Until,
    epoch: Instant,
    trace: bool,
) -> ClientLog {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut log = ClientLog::default();
    let started = now();
    let mut last_end = started;
    loop {
        match until {
            Until::Count(n) if log.txns.len() as u64 >= n => break,
            Until::Elapsed(d) if last_end - started >= d.as_nanos() as u64 => break,
            _ => {}
        }
        let plan = state.gen.next_plan();
        let builder = TxnBuilder::new(plan.spec());
        let mut caller = Caller {
            backoff: &mut state.backoff,
            txn: log.txns.len() as u32,
            log: &mut log,
            epoch,
            trace,
            budget: RETRY_BUDGET,
            backoff_ns: 0,
        };
        let start_ns = now();
        let result = run_txn(client, &plan, builder, &mut caller);
        last_end = now();
        let backoff_ns = caller.backoff_ns;
        let committed = match result {
            Ok(()) => {
                for op in &plan.ops {
                    if let Op::Write(e, v) = *op {
                        state.last_write.insert(e.index(), v);
                    }
                }
                state.committed += 1;
                true
            }
            Err(e) => {
                log.first_error.get_or_insert_with(|| e.to_string());
                false
            }
        };
        log.txns.push(TxnSpan {
            start_ns,
            end_ns: last_end,
            backoff_ns,
            committed,
            long: plan.long,
        });
    }
    log
}

/// One transaction's calls: the retry loop and the span bookkeeping.
struct Caller<'a> {
    backoff: &'a mut Backoff,
    log: &'a mut ClientLog,
    epoch: Instant,
    trace: bool,
    txn: u32,
    /// Retries the transaction may still spend.
    budget: u32,
    backoff_ns: u64,
}

impl Caller<'_> {
    /// Make one call, retrying transient outcomes (`Busy`, `Backpressure`,
    /// `Timeout`) with the shared jittered backoff; every attempt is its own
    /// call span.
    fn call<T>(
        &mut self,
        kind: Call,
        mut attempt: impl FnMut() -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let epoch = self.epoch;
        let now = || epoch.elapsed().as_nanos() as u64;
        loop {
            let start_ns = if self.trace { now() } else { 0 };
            let result = attempt();
            if self.trace {
                self.log.calls.push(CallSpan {
                    txn: self.txn,
                    call: kind,
                    start_ns,
                    end_ns: now(),
                });
            }
            match result {
                Err(e) if e.is_retryable() && self.budget > 0 => {
                    self.budget -= 1;
                    self.log.retries += 1;
                    let slept = Instant::now();
                    self.backoff.snooze();
                    self.backoff_ns += slept.elapsed().as_nanos() as u64;
                }
                other => {
                    self.backoff.reset();
                    return other;
                }
            }
        }
    }
}

/// One transaction, per-op calls. Any terminal error aborts it (best
/// effort) and is returned: the caller counts the transaction as failed.
fn run_txn<C: Client>(
    client: &C,
    plan: &TxnPlan,
    builder: TxnBuilder<C::Handle>,
    caller: &mut Caller,
) -> Result<(), ServerError> {
    let handle = caller.call(Call::Open, || client.open(builder.clone()))?;
    let body = (|| {
        caller.call(Call::Validate, || client.validate(handle))?;
        for op in &plan.ops {
            match *op {
                Op::Read(e) => caller.call(Call::Read, || client.read(handle, e).map(drop))?,
                Op::Write(e, v) => caller.call(Call::Write, || client.write(handle, e, v))?,
            }
        }
        caller.call(Call::Commit, || client.commit(handle))
    })();
    if body.is_err() {
        let _ = client.abort(handle);
    }
    body
}
