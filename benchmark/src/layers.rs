//! The traced run: the same workload once without and once with tracing,
//! then each layer on the serving path driven alone, from this crate's own
//! code around the layer's public functions. Produces every per-layer
//! metric; the difference between the two windows is the tracing overhead.
//!
//! Layer replays use a fixed number of transactions of the seeded stream
//! and one thread, so their counts repeat exactly for a given seed.

use crate::deploy::{backend_of, schema_of, wal_dir, Deployment};
use crate::drive::{Call, ClientLog};
use crate::e2e::{measure, recover, stop_and_check, verify, Window};
use crate::gen::{ClientGen, Op, TxnPlan, Workload, CLIENTS};
use crate::stats::{self, median_us};
use crate::{Check, Report};
use ks_core::Specification;
use ks_mvstore::{AuthorId, MvStore};
use ks_net::wire::{self, Request, Response};
use ks_obs::{stitch_traces, Recorder, SpanHop};
use ks_predicate::Strategy;
use ks_protocol::{
    Backend, Certifier, CommitOutcome, ProtocolManager, ReadOutcome, SsiCertifier, TplCertifier,
    Txn, ValidationOutcome,
};
use ks_server::ShardMap;
use ks_wal::{FileStore, Wal, WalConfig, WalRecord};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Transactions per client the single-threaded layer replays cover. Sized
/// so the CPC replays stay under ten seconds at the merge commit.
fn replay_txns(workload: Workload, client: usize) -> u64 {
    match (workload, client) {
        (Workload::CpcShort, _) => 800,
        (Workload::CpcLong, 0) => 60,
        (Workload::CpcLong, _) => 500,
        _ => 4000,
    }
}

/// Commits the bare-WAL replay appends and syncs one by one.
const WAL_REPLAY_COMMITS: u64 = 200;
/// Metrics round trips timed for `net.rtt_us`.
const RTT_SAMPLES: usize = 2000;

pub fn run(workload: Workload, seed: u64, seconds: Duration, out: &Path, report: &mut Report) {
    let mut check = Check::default();
    let loopback = workload == Workload::TplNet;

    // A: the untraced reference window.
    let mut plain = Deployment::new(workload, seed, out, false, loopback);
    let mut rtt = plain.rtt_ns(RTT_SAMPLES);
    let (untraced, _) = measure(&mut plain, seconds, false);
    stop_and_check(plain, &mut check);
    for (name, q) in [("client.txn_p50_us", 0.5), ("client.txn_p99_us", 0.99)] {
        let ns = stats::percentile(&untraced.latencies, q);
        report.metric(name, ns as f64 / 1e3);
    }

    // B: the traced window — recorder attached, every request sampled,
    // client-boundary spans kept in memory.
    let mut traced_dep = Deployment::new(workload, seed, out, true, loopback);
    let recorder = traced_dep.recorder.clone().expect("traced deployment");
    let (traced, logs) = measure(&mut traced_dep, seconds, true);
    let (view, certifiers, clients) = stop_and_check(traced_dep, &mut check);
    let history: u64 = clients.iter().map(|c| c.committed).sum();
    let (verify_s, _) = verify(&certifiers, &mut check);
    check.that(traced.attempted == traced.committed, || {
        format!("traced window: {:?}", traced.first_error)
    });

    write_spans(&out.join(format!("{}.spans.jsonl", workload.name())), &logs)
        .expect("write span file");
    client_boundary(&logs, &traced, &mut check, report);
    let read_us = read_call_us(&logs);
    obs_layer(&recorder, history, &untraced, &traced, report);

    // ks-wal: the service's own counters, recovery of the log it left, and
    // a bare log fed the same records.
    if workload == Workload::SsiWalWrite {
        let wal = view.wal.expect("WAL workload reports WAL stats");
        let commits = history.max(1) as f64;
        report.metric("wal.syncs_per_commit", wal.syncs as f64 / commits);
        report.metric("wal.bytes_per_commit", wal.bytes as f64 / commits);
        report.metric("wal.records_per_commit", wal.records as f64 / commits);
        let t = Instant::now();
        let scan = ks_wal::recover(&FileStore::open(wal_dir(out)).expect("open used log"))
            .expect("recover used log");
        report.metric(
            "wal.recover_us_per_record",
            t.elapsed().as_secs_f64() * 1e6 / scan.records.max(1) as f64,
        );
        report.metric(
            "wal.recovery_s",
            recover(workload, out, history, &certifiers, &mut check),
        );
        wal_replay(workload, seed, out, report);
    } else {
        report.not_applicable("wal.");
    }
    drop(certifiers);

    // ks-protocol and ks-mvstore alone.
    let direct_read_us = certifier_replay(workload, seed, report);
    mvstore_replay(workload, seed, report);

    // ks-server (and ks-net): what a call costs above the layer below it.
    let server_view = if loopback {
        // Same stream, same tracing, no sockets: the in-process reference.
        let mut inproc = Deployment::new(workload, seed, out, true, false);
        let (_, logs) = measure(&mut inproc, seconds / 3, true);
        let inproc_read_us = read_call_us(&logs);
        let (view, _, _) = stop_and_check(inproc, &mut check);
        report.metric("net.self_us_per_call", read_us - inproc_read_us);
        report.metric("net.rtt_us", median_us(&mut rtt));
        report.metric("server.self_us_per_call", inproc_read_us - direct_read_us);
        wire_codec(workload, seed, report);
        view
    } else {
        report.not_applicable("net.");
        report.not_applicable("wire.");
        report.metric("server.self_us_per_call", read_us - direct_read_us);
        view
    };
    let m = server_view.metrics.expect("in-process deployment");
    let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e6);
    report.metric("server.queue_wait_p50_us", us(m.queue_wait_p50));
    report.metric("server.exec_p50_us", us(m.exec_p50));
    report.metric("server.backpressure", m.backpressure as f64);
    report.metric("server.timeouts", m.timeouts as f64);

    report.metric("verify.txns_per_s", history as f64 / verify_s);
    report.metric("untraced.txn_per_s", untraced.txn_per_s());
    report.metric("traced.txn_per_s", traced.txn_per_s());
    report.attempted = traced.attempted;
    report.failed = traced.attempted - traced.committed;
    report.absorb(check);
}

// ------------------------------------------------------- client boundary

/// Median `read` call of a window. A read does the least certifier work of
/// any call and that work does not grow with history, so the difference
/// between its median at two boundaries is the cost of the layer between.
fn read_call_us(logs: &[ClientLog]) -> f64 {
    let mut reads: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.calls.iter())
        .filter(|c| c.call == Call::Read)
        .map(|c| c.end_ns - c.start_ns)
        .collect();
    median_us(&mut reads)
}

/// `call.*`: median per call kind and its share of transaction time, plus
/// the span accounting check — per transaction, calls + backoff + the
/// generator's own gaps must add up to the transaction span within 2 %.
fn client_boundary(logs: &[ClientLog], window: &Window, check: &mut Check, report: &mut Report) {
    let mut by_kind: [Vec<u64>; 5] = Default::default();
    let (mut txn_ns, mut gap_ns, mut unaccounted) = (0u64, 0u64, 0usize);
    let mut txns = 0usize;
    for log in logs {
        let mut calls = log.calls.iter().peekable();
        for (id, txn) in log.txns.iter().enumerate() {
            let span = txn.end_ns - txn.start_ns;
            let (mut busy, mut gaps, mut cursor) = (0u64, 0u64, txn.start_ns);
            while let Some(c) = calls.next_if(|c| c.txn as usize == id) {
                by_kind[c.call as usize].push(c.end_ns - c.start_ns);
                busy += c.end_ns - c.start_ns;
                gaps += c.start_ns.saturating_sub(cursor);
                cursor = c.end_ns;
            }
            gaps += txn.end_ns.saturating_sub(cursor);
            // Backoff sleeps sit in the gaps between retried calls.
            let own_gap = gaps.saturating_sub(txn.backoff_ns);
            let sum = busy + txn.backoff_ns + own_gap;
            if sum.abs_diff(span) * 50 > span {
                unaccounted += 1;
            }
            txn_ns += span;
            gap_ns += own_gap;
            txns += 1;
        }
    }
    check.that(unaccounted == 0, || {
        format!("{unaccounted} of {txns} transaction spans not accounted for within 2 %")
    });
    for call in Call::ALL {
        let samples = &mut by_kind[call as usize];
        let total: u64 = samples.iter().sum();
        if let Some(t) = stats::Timing::of(samples) {
            report.note(format!("call.{}: {}", call.name(), t.render_us()));
        }
        report.metric(format!("call.{}_us", call.name()), median_us(samples));
        report.metric(
            format!("call.{}_share", call.name()),
            total as f64 / txn_ns.max(1) as f64,
        );
    }
    report.metric("call.retries", window.retries as f64);
    report.metric("call.backoff_ms", window.backoff_ns as f64 / 1e6);
    report.metric("client.gap_share", gap_ns as f64 / txn_ns.max(1) as f64);
}

/// One JSON object per span: `trace` is the transaction (client and index),
/// `parent` the transaction span for calls and null for the transaction.
fn write_spans(path: &Path, logs: &[ClientLog]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, log) in logs.iter().enumerate() {
        let mut calls = log.calls.iter().peekable();
        for (id, txn) in log.txns.iter().enumerate() {
            writeln!(
                w,
                "{{\"trace\":\"c{client}-{id}\",\"name\":\"txn\",\"parent\":null,\"start_ns\":{},\"end_ns\":{},\"backoff_ns\":{},\"committed\":{}}}",
                txn.start_ns, txn.end_ns, txn.backoff_ns, txn.committed
            )?;
            while let Some(c) = calls.next_if(|c| c.txn as usize == id) {
                writeln!(
                    w,
                    "{{\"trace\":\"c{client}-{id}\",\"name\":\"call.{}\",\"parent\":\"txn\",\"start_ns\":{},\"end_ns\":{}}}",
                    c.call.name(), c.start_ns, c.end_ns
                )?;
            }
        }
    }
    w.flush()
}

// ---------------------------------------------------------------- ks-obs

/// `obs.*` and `hop.*` from the spans the server already emits. Rings keep
/// the newest events only, so hop times cover the retained tail of the run
/// and only trees that are well formed.
fn obs_layer(
    recorder: &Recorder,
    history: u64,
    untraced: &Window,
    traced: &Window,
    report: &mut Report,
) {
    report.metric(
        "obs.overhead_share",
        1.0 - traced.txn_per_s() / untraced.txn_per_s(),
    );
    report.metric(
        "obs.events_per_txn",
        recorder.recorded() as f64 / history.max(1) as f64,
    );
    report.metric("obs.dropped", recorder.dropped() as f64);

    // A trace that began before the youngest ring's oldest event may have
    // lost spans to overwriting; only later ones can be judged.
    let rings = recorder.drain_rings();
    let cut = rings
        .iter()
        .filter_map(|r| r.first().map(|e| e.ts))
        .max()
        .unwrap_or(0);
    let events: Vec<_> = rings.into_iter().flatten().collect();
    let trees = stitch_traces(&events);
    let mut judged = 0usize;
    let mut well_formed = 0usize;
    let mut self_ns: [Vec<u64>; 8] = Default::default();
    for tree in &trees {
        if tree.spans.iter().any(|s| s.start_ns < cut) {
            continue;
        }
        judged += 1;
        if !tree.is_well_formed() {
            continue;
        }
        well_formed += 1;
        for hop in tree.hop_latencies() {
            self_ns[hop.hop.code() as usize].push(hop.self_ns);
        }
    }
    report.note(format!(
        "obs: {} traces stitched, {judged} inside the retained tail, {well_formed} well formed",
        trees.len()
    ));
    report.metric(
        "hop.wellformed_share",
        well_formed as f64 / judged.max(1) as f64,
    );
    for hop in SpanHop::all() {
        let name = match hop {
            SpanHop::Request => "hop.request_self_us",
            SpanHop::ConnHandle => "hop.connhandle_self_us",
            SpanHop::Queue => "hop.queue_self_us",
            SpanHop::Exec => "hop.exec_self_us",
            SpanHop::Certify => "hop.certify_self_us",
            SpanHop::WalEnqueue => "hop.walenqueue_self_us",
            SpanHop::WalBarrier => "hop.walbarrier_self_us",
            SpanHop::WalFsync => "hop.walfsync_self_us",
        };
        report.metric(name, median_us(&mut self_ns[hop.code() as usize]));
    }
}

// ----------------------------------------------------------- ks-protocol

fn certifier(workload: Workload, map: &ShardMap, shard: usize) -> Box<dyn Certifier> {
    let (_, initial) = schema_of(workload);
    let sub = map.sub_schema(shard).clone();
    let sub_initial = map.sub_initial(shard, &initial);
    match backend_of(workload) {
        Backend::Cpc => Box::new(ProtocolManager::new(
            sub,
            &sub_initial,
            Specification::trivial(),
        )),
        Backend::Ssi => Box::new(SsiCertifier::new(sub, &sub_initial)),
        Backend::TwoPl => Box::new(TplCertifier::new(sub, &sub_initial)),
    }
}

/// Run `f`, adding its duration in nanoseconds to `samples`.
fn time<T>(samples: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_nanos() as u64);
    out
}

/// One client's position in the call-by-call replay.
struct Cursor {
    gen: ClientGen,
    left: u64,
    plan: Option<(TxnPlan, Txn, usize)>,
}

/// The seeded stream straight into one `Box<dyn Certifier>` per shard, one
/// thread, clients taking turns call by call (the interleaving a closed
/// loop on one shard produces). Returns the median `read` call time.
fn certifier_replay(workload: Workload, seed: u64, report: &mut Report) -> f64 {
    let (schema, _) = schema_of(workload);
    let map = ShardMap::new(&schema, workload.shards());
    let mut certs: Vec<Box<dyn Certifier>> = (0..map.shards())
        .map(|s| certifier(workload, &map, s))
        .collect();
    let mut cursors: Vec<Cursor> = (0..CLIENTS)
        .map(|c| Cursor {
            gen: ClientGen::new(workload, seed, c),
            left: replay_txns(workload, c),
            plan: None,
        })
        .collect();
    let mut by_kind: [Vec<u64>; 5] = Default::default();
    let mut failed = 0u64;
    let mut txns = 0u64;
    while cursors.iter().any(|c| c.left > 0 || c.plan.is_some()) {
        for cur in &mut cursors {
            match cur.plan.take() {
                None if cur.left == 0 => {}
                None => {
                    let plan = cur.gen.next_plan();
                    cur.left -= 1;
                    let shard = map.shard_of(plan.entities[0]);
                    let spec = map.localize_spec(shard, &plan.spec());
                    let samples = &mut by_kind[Call::Open as usize];
                    match time(samples, || certs[shard].open(spec, &[], &[])) {
                        Ok(txn) => cur.plan = Some((plan, txn, 0)),
                        Err(_) => failed += 1,
                    }
                }
                Some((plan, txn, step)) => {
                    let cert = &mut certs[map.shard_of(plan.entities[0])];
                    // Step 0 validates, 1..=ops run the ops, ops+1 commits.
                    let ok = if step == 0 {
                        let samples = &mut by_kind[Call::Validate as usize];
                        let outcome = time(samples, || cert.validate(txn, Strategy::Backtracking));
                        matches!(outcome, Ok(ValidationOutcome::Validated))
                    } else if let Some(&op) = plan.ops.get(step - 1) {
                        match op {
                            Op::Read(e) => {
                                let samples = &mut by_kind[Call::Read as usize];
                                let outcome = time(samples, || cert.read(txn, map.to_local(e)));
                                matches!(outcome, Ok(ReadOutcome::Value(_)))
                            }
                            Op::Write(e, v) => {
                                let samples = &mut by_kind[Call::Write as usize];
                                time(samples, || cert.write(txn, map.to_local(e), v)).is_ok()
                            }
                        }
                    } else {
                        let samples = &mut by_kind[Call::Commit as usize];
                        let outcome = time(samples, || cert.commit(txn));
                        matches!(outcome, Ok(CommitOutcome::Committed))
                    };
                    if !ok {
                        let _ = cert.abort(txn);
                        failed += 1;
                    } else if step <= plan.ops.len() {
                        cur.plan = Some((plan, txn, step + 1));
                    } else {
                        txns += 1;
                    }
                }
            }
        }
    }

    // Growth of validation cost with history: last quarter over first.
    let v = &by_kind[Call::Validate as usize];
    let q = (v.len() / 4).max(1);
    let growth = median_us(&mut v[v.len() - q..].to_vec()) / median_us(&mut v[..q].to_vec());
    let busy: u64 = by_kind.iter().flatten().sum();
    for call in Call::ALL {
        report.metric(
            format!("certifier.{}_us", call.name()),
            median_us(&mut by_kind[call as usize]),
        );
    }
    report.metric("certifier.busy_s", busy as f64 / 1e9);
    report.metric("certifier.validate_growth", growth);
    let mut total = ks_protocol::manager::ProtocolStats::default();
    for s in certs.iter().map(|c| c.stats()) {
        total.re_evals += s.re_evals;
        total.re_assigns += s.re_assigns;
        total.reeval_aborts += s.reeval_aborts;
        total.validation_failures += s.validation_failures;
        total.cascade_aborts += s.cascade_aborts;
    }
    report.metric("certifier.re_evals", total.re_evals as f64);
    report.metric("certifier.re_assigns", total.re_assigns as f64);
    report.metric("certifier.reeval_aborts", total.reeval_aborts as f64);
    report.metric(
        "certifier.validation_failures",
        total.validation_failures as f64,
    );
    report.metric("certifier.cascade_aborts", total.cascade_aborts as f64);
    report.note(format!(
        "certifier replay: {txns} txns committed, {failed} failed, single thread"
    ));
    median_us(&mut by_kind[Call::Read as usize])
}

// ------------------------------------------------------------ ks-mvstore

/// The stream's writes and reads against a bare `MvStore`, then
/// `candidate_values` at the chain lengths the replay reached.
fn mvstore_replay(workload: Workload, seed: u64, report: &mut Report) {
    let (schema, initial) = schema_of(workload);
    let store = MvStore::new(schema.clone(), &initial);
    let mut latest: Vec<_> = schema
        .entity_ids()
        .map(|e| store.latest(e).expect("initial version").id)
        .collect();
    let (mut writes, mut reads, mut touched) = (Vec::new(), Vec::new(), Vec::new());
    for client in 0..CLIENTS {
        let mut gen = ClientGen::new(workload, seed, client);
        for n in 0..replay_txns(workload, client) {
            for op in gen.next_plan().ops {
                let t = Instant::now();
                match op {
                    Op::Write(e, v) => {
                        let author = AuthorId((client as u64) << 32 | (n + 1));
                        latest[e.index()] = store.write(e, v, author).expect("in-domain write");
                        writes.push(t.elapsed().as_nanos() as u64);
                    }
                    Op::Read(e) => {
                        std::hint::black_box(store.read(latest[e.index()]).expect("known version"));
                        reads.push(t.elapsed().as_nanos() as u64);
                    }
                }
                touched.push(op.entity());
            }
        }
    }
    let mut candidates: Vec<u64> = touched
        .iter()
        .rev()
        .take(4000)
        .map(|&e| {
            let t = Instant::now();
            std::hint::black_box(store.candidate_values(e).expect("known entity"));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let chain_max = schema
        .entity_ids()
        .map(|e| store.chain_len(e).expect("known entity"))
        .max()
        .unwrap_or(0);
    report.metric("mvstore.write_us", median_us(&mut writes));
    report.metric("mvstore.read_us", median_us(&mut reads));
    report.metric("mvstore.candidates_us", median_us(&mut candidates));
    report.metric("mvstore.chain_len_max", chain_max as f64);
}

// ---------------------------------------------------------------- ks-net

/// The `ks_net::wire` codec over the frames the workload's transactions
/// actually produce. Single frames take tens of nanoseconds, below what a
/// clock read resolves, so each direction is timed over the whole batch.
fn wire_codec(workload: Workload, seed: u64, report: &mut Report) {
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    let mut txns = 0u64;
    for client in 0..CLIENTS {
        let mut gen = ClientGen::new(workload, seed, client);
        for n in 0..replay_txns(workload, client) {
            let plan = gen.next_plan();
            let txn = n + 1;
            requests.push(Request::Open {
                spec: plan.spec(),
                after: Vec::new(),
                before: Vec::new(),
                strategy: None,
                backend: None,
            });
            responses.push(Response::Opened { txn });
            requests.push(Request::Validate { txn });
            responses.push(Response::Done);
            for op in &plan.ops {
                match *op {
                    Op::Read(entity) => {
                        requests.push(Request::Read { txn, entity });
                        responses.push(Response::Value { value: txn as i64 });
                    }
                    Op::Write(entity, value) => {
                        requests.push(Request::Write { txn, entity, value });
                        responses.push(Response::Done);
                    }
                }
            }
            requests.push(Request::Commit { txn });
            responses.push(Response::Done);
            txns += 1;
        }
    }
    let frames = (requests.len() + responses.len()) as f64;
    let per_frame_us = |t: Instant, n: usize| t.elapsed().as_secs_f64() * 1e6 / n as f64;

    let mut buf = Vec::with_capacity(256);
    let mut req_bytes: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    let t = Instant::now();
    for (corr, r) in requests.iter().enumerate() {
        wire::encode_request_into(&mut buf, corr as u64, 0, r);
        std::hint::black_box(&buf);
    }
    report.metric("wire.encode_req_us", per_frame_us(t, requests.len()));
    for (corr, r) in requests.iter().enumerate() {
        req_bytes.push(wire::encode_request(corr as u64, 0, r));
    }
    let t = Instant::now();
    for b in &req_bytes {
        std::hint::black_box(wire::decode_request(b).expect("own frame decodes"));
    }
    report.metric("wire.decode_req_us", per_frame_us(t, req_bytes.len()));

    let mut resp_bytes: Vec<Vec<u8>> = Vec::with_capacity(responses.len());
    let t = Instant::now();
    for (corr, r) in responses.iter().enumerate() {
        wire::encode_response_into(&mut buf, corr as u64, 0, r);
        std::hint::black_box(&buf);
    }
    report.metric("wire.encode_resp_us", per_frame_us(t, responses.len()));
    for (corr, r) in responses.iter().enumerate() {
        resp_bytes.push(wire::encode_response(corr as u64, 0, r));
    }
    let t = Instant::now();
    for b in &resp_bytes {
        std::hint::black_box(wire::decode_response(b).expect("own frame decodes"));
    }
    report.metric("wire.decode_resp_us", per_frame_us(t, resp_bytes.len()));

    // Payload plus the 4-byte length prefix of every frame.
    let bytes: usize = req_bytes
        .iter()
        .chain(&resp_bytes)
        .map(|b| b.len() + 4)
        .sum();
    report.metric("wire.bytes_per_txn", bytes as f64 / txns as f64);
    report.metric("wire.frames_per_txn", frames / txns as f64);
}

// ---------------------------------------------------------------- ks-wal

/// The records the workload's first commits log, appended to a bare
/// `Wal<FileStore>` with one sync per commit: the cost of the log alone,
/// without group commit or the service around it.
fn wal_replay(workload: Workload, seed: u64, out: &Path, report: &mut Report) {
    let dir = out.join("wal_replay");
    let _ = std::fs::remove_dir_all(&dir);
    let store = FileStore::open(&dir).expect("open replay WAL directory");
    let mut wal = Wal::open(store, WalConfig::default()).expect("open replay WAL");
    let (schema, _) = schema_of(workload);
    let map = ShardMap::new(&schema, workload.shards());
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    let mut gen = ClientGen::new(workload, seed, 0);
    for txn in 1..=WAL_REPLAY_COMMITS {
        let plan = gen.next_plan();
        let shard = map.shard_of(plan.entities[0]) as u32;
        let mut records = vec![WalRecord::Begin { shard, txn }];
        records.extend(plan.ops.iter().filter_map(|op| match *op {
            Op::Write(e, value) => Some(WalRecord::Write {
                shard,
                txn,
                entity: map.to_local(e).0,
                value,
            }),
            Op::Read(_) => None,
        }));
        records.push(WalRecord::Commit { shard, txn });
        for r in &records {
            let t = Instant::now();
            wal.append(r).expect("append");
            appends.push(t.elapsed().as_nanos() as u64);
        }
        let t = Instant::now();
        wal.sync().expect("sync");
        syncs.push(t.elapsed().as_nanos() as u64);
    }
    report.metric("wal.append_us", median_us(&mut appends));
    report.metric("wal.sync_us", median_us(&mut syncs));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}
