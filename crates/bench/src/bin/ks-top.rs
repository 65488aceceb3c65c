//! `ks-top`: a live text dashboard over a running `TxnService`.
//!
//! Embeds a sharded service plus a handful of closed-loop load threads,
//! then renders a refreshing terminal view the way `top(1)` does: one
//! frame per interval showing throughput, the shared [`MetricsSnapshot`]
//! row, per-shard latency quantiles and queue depths, flight-recorder
//! volume, WAL health (append/fsync counters, flush queue depth, the
//! group-commit size histogram, and what recovery replayed at boot),
//! and the most recent protocol *decision* events (version assignments,
//! re-evals, cascade edges) drained from the rings. The embedded
//! service runs with the write-ahead log on (in-memory media, group
//! commit), so the durability pipeline is always on screen.
//!
//! Live mode additions: every frame pulls the service's windowed
//! telemetry *incrementally* (`TxnService::telemetry`, the same delta
//! stream a remote poller gets over the wire), renders a p99-over-time
//! sparkline against a declarative SLO (`--slo p99<=800us@3s`), a
//! per-shard latency heat column, and the slowest sampled traces with
//! their per-hop latency breakdown (the service runs at a 5% trace
//! sampling rate).
//!
//! `--backend cpc|ssi|2pl` picks the certification backend the embedded
//! service runs; the certifier panel charts its abort rate over the
//! same telemetry windows, so the backends' contention behavior can be
//! eyeballed side by side under the identical closed-loop workload.
//!
//! The run is finite — `--frames N` frames at `--interval-ms M` — so the
//! binary doubles as a smoke test: after the last frame the load stops,
//! the service shuts down, and every shard manager is model-checked.
//! `--plain` suppresses the ANSI clear-screen for logs and CI.
//! `--no-wal` runs without durability: the WAL panel degrades to a
//! placeholder line, never a panic.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_obs::{
    event_to_json, stitch_traces, ObsEvent, ObsKind, Recorder, SloSpec, TraceTree, WindowSnapshot,
};
use ks_predicate::Strategy;
use ks_server::metrics::fmt_duration;
use ks_server::{
    verify_certifiers_with_dump, Backend, Client, Durability, MetricsSnapshot, ServerConfig,
    ServerError, TxnBuilder, TxnService, WalOptions,
};
use ks_wal::{MemStore, SegmentStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 6;
const SHARDS: usize = 4;
const ENTITIES: usize = 32;
const RING_CAPACITY: usize = 1 << 14;
/// Decision events kept for the "recent decisions" panel.
const RECENT: usize = 8;
/// Service-originated trace sampling rate for the slowest-traces panel.
const TRACE_SAMPLE: f64 = 0.05;

struct Options {
    frames: usize,
    interval: Duration,
    plain: bool,
    /// Run without durability; the WAL panel becomes a placeholder.
    no_wal: bool,
    /// Declarative latency objective checked against the live telemetry.
    slo: SloSpec,
    slo_raw: String,
    /// Which certification backend the embedded service runs.
    backend: Backend,
}

fn parse_options() -> Options {
    let mut opts = Options {
        frames: 10,
        interval: Duration::from_millis(500),
        plain: false,
        no_wal: false,
        slo: SloSpec::parse("p99<=50ms@3s").expect("default SLO parses"),
        slo_raw: "p99<=50ms@3s".to_string(),
        backend: Backend::Cpc,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--frames" => opts.frames = number("--frames") as usize,
            "--interval-ms" => opts.interval = Duration::from_millis(number("--interval-ms")),
            "--plain" => opts.plain = true,
            "--no-wal" => opts.no_wal = true,
            "--slo" => {
                let raw = args.next().expect("--slo needs a spec like p99<=800us@3s");
                opts.slo = SloSpec::parse(&raw).unwrap_or_else(|e| panic!("{e}"));
                opts.slo_raw = raw;
            }
            "--backend" => {
                let raw = args.next().expect("--backend needs cpc, ssi, or 2pl");
                opts.backend = Backend::all()
                    .into_iter()
                    .find(|b| b.name() == raw)
                    .unwrap_or_else(|| panic!("unknown backend {raw} (try cpc, ssi, or 2pl)"));
            }
            other => panic!(
                "unknown flag {other} \
                 (try --frames N --interval-ms M --plain --no-wal \
                 --slo p99<=800us@3s --backend cpc|ssi|2pl)"
            ),
        }
    }
    opts
}

/// One closed-loop client: read-modify-write over its home shard's
/// entities until `stop` flips. Greedy assignment plus shared entities
/// keep the decision panels busy (re-evals, re-assigns, aborts).
fn run_client(svc: &TxnService, client: usize, stop: &AtomicBool) {
    let Ok(session) = svc.session() else { return };
    let home = client % SHARDS;
    let entities: Vec<EntityId> = (0..ENTITIES / SHARDS)
        .map(|i| EntityId((i * SHARDS + home) as u32))
        .collect();
    let mut round = 0usize;
    while !stop.load(Ordering::Relaxed) {
        round += 1;
        // Two entities per txn: a hot one (contended with the other
        // client on this shard) and a rotating cold one.
        let hot = entities[0];
        let cold = entities[1 + round % (entities.len() - 1)];
        let spec = Specification::unconstrained(&[hot, cold]);
        let txn = match session.open(TxnBuilder::new(spec)) {
            Ok(t) => t,
            Err(ServerError::Busy) | Err(ServerError::Backpressure) => {
                std::thread::yield_now();
                continue;
            }
            Err(_) => return,
        };
        let step = || -> Result<(), ServerError> {
            loop {
                match session.validate(txn) {
                    Ok(()) => break,
                    Err(ServerError::Busy) | Err(ServerError::Backpressure) => {
                        if stop.load(Ordering::Relaxed) {
                            return Err(ServerError::Shutdown);
                        }
                        std::thread::yield_now();
                    }
                    Err(e) => return Err(e),
                }
            }
            session.read(txn, hot)?;
            session.write(txn, cold, (client * 1000 + round) as i64)?;
            loop {
                match session.commit(txn) {
                    Ok(()) => return Ok(()),
                    Err(ServerError::Busy) | Err(ServerError::Backpressure) => {
                        if stop.load(Ordering::Relaxed) {
                            return Err(ServerError::Shutdown);
                        }
                        std::thread::yield_now();
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        match step() {
            Ok(()) => {}
            Err(ServerError::Shutdown) => {
                let _ = session.abort(txn);
                return;
            }
            Err(_) => {
                let _ = session.abort(txn);
            }
        }
    }
}

fn is_decision(kind: &ObsKind) -> bool {
    matches!(
        kind,
        ObsKind::VersionAssigned { .. }
            | ObsKind::ValidationUnsat { .. }
            | ObsKind::ReEvalTriggered { .. }
            | ObsKind::ReAssigned { .. }
            | ObsKind::ReEvalAbort { .. }
            | ObsKind::ReassignFailed { .. }
            | ObsKind::CascadeEdge { .. }
    )
}

/// Group-commit size histogram buckets: 1, 2, 3–4, 5–8, 9+.
const GROUP_BUCKETS: [&str; 5] = ["1", "2", "3-4", "5-8", "9+"];

fn group_bucket(n: u32) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        _ => 4,
    }
}

struct FrameState {
    last: Instant,
    last_committed: u64,
    last_events: u64,
    /// Ring drains are non-destructive snapshots, so each frame re-sees
    /// retained events; only events newer than this watermark are folded
    /// into the accumulating panels.
    seen_ts: u64,
    recent: Vec<ObsEvent>,
    /// Group-commit batch sizes seen so far, bucketed.
    group_hist: [u64; GROUP_BUCKETS.len()],
    /// Total group-commit flushes and commits they covered (for the
    /// running mean batch size).
    group_flushes: u64,
    group_commits: u64,
    /// Span events accumulated for the slowest-traces panel (bounded).
    spans: Vec<ObsEvent>,
    /// Incremental-telemetry cursor (`TxnService::telemetry`).
    telemetry_cursor: u64,
    /// Closed telemetry windows pulled so far (bounded), oldest first.
    series: Vec<WindowSnapshot>,
}

/// Eight-level bar: `scale` maps to the top character.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn spark(value: u64, scale: u64) -> char {
    let level = (value as f64 / scale.max(1) as f64 * (SPARK.len() - 1) as f64).round() as usize;
    SPARK[level.min(SPARK.len() - 1)]
}

/// One compact line per trace: end-to-end total plus per-hop self times.
fn trace_line(t: &TraceTree) -> String {
    let hops = t
        .hop_latencies()
        .iter()
        .map(|h| {
            format!(
                "{} {}",
                h.hop.name(),
                fmt_duration(Some(Duration::from_nanos(h.self_ns)))
            )
        })
        .collect::<Vec<_>>()
        .join(" + ");
    format!(
        "  {:#018x} {:>9} = {hops}",
        t.trace,
        fmt_duration(Some(Duration::from_nanos(t.total_ns())))
    )
}

fn render(
    frame: usize,
    opts: &Options,
    svc: &TxnService,
    snap: &MetricsSnapshot,
    recorder: &Recorder,
    state: &mut FrameState,
) {
    let now = Instant::now();
    let dt = now.duration_since(state.last).as_secs_f64().max(1e-9);
    let recorded = recorder.recorded();
    let throughput = (snap.committed - state.last_committed) as f64 / dt;
    let event_rate = (recorded - state.last_events) as f64 / dt;
    state.last = now;
    state.last_committed = snap.committed;
    state.last_events = recorded;

    // Fold freshly drained events into the accumulating panels. Drains
    // are non-destructive ring snapshots, so the watermark keeps a
    // retained event from being counted once per frame.
    let mut newest = state.seen_ts;
    for ev in recorder.drain() {
        if ev.ts <= state.seen_ts {
            continue;
        }
        newest = newest.max(ev.ts);
        if let ObsKind::GroupCommit { n } = ev.kind {
            state.group_hist[group_bucket(n)] += 1;
            state.group_flushes += 1;
            state.group_commits += u64::from(n);
        }
        if matches!(ev.kind, ObsKind::SpanStart { .. } | ObsKind::SpanEnd { .. }) {
            state.spans.push(ev);
        }
        if is_decision(&ev.kind) {
            state.recent.push(ev);
        }
    }
    state.seen_ts = newest;
    let overflow = state.recent.len().saturating_sub(RECENT);
    state.recent.drain(..overflow);
    let span_overflow = state.spans.len().saturating_sub(4096);
    state.spans.drain(..span_overflow);

    // Pull the windowed telemetry incrementally — the identical delta
    // stream a remote `Request::Telemetry` poller reconstructs from.
    let delta = svc.telemetry(state.telemetry_cursor);
    state.telemetry_cursor = delta.next_seq;
    state.series.extend(delta.windows);
    let series_overflow = state.series.len().saturating_sub(64);
    state.series.drain(..series_overflow);

    if !opts.plain {
        print!("\x1b[2J\x1b[H");
    }
    println!(
        "ks-top — frame {}/{} — {CLIENTS} clients, {SHARDS} shards, {ENTITIES} entities, \
         certifier {}",
        frame + 1,
        opts.frames,
        opts.backend
    );
    println!(
        "throughput {throughput:>8.0} txn/s    events {event_rate:>8.0}/s    \
         recorded {recorded}    dropped {}",
        recorder.dropped()
    );
    println!();
    println!("{}", MetricsSnapshot::header());
    println!("{snap}");
    println!();
    // Per-shard heat: each shard's p99 scaled against the hottest shard.
    let hottest = snap
        .shard_p99
        .iter()
        .filter_map(|d| *d)
        .max()
        .map_or(1, |d| d.as_nanos() as u64);
    println!(
        "{:>6} {:>10} {:>10} {:>7} {:>5}",
        "shard", "p50", "p99", "queue", "heat"
    );
    for shard in 0..snap.shard_p50.len() {
        println!(
            "{:>6} {:>10} {:>10} {:>7} {:>5}",
            shard,
            fmt_duration(snap.shard_p50[shard]),
            fmt_duration(snap.shard_p99[shard]),
            snap.queue_depths.get(shard).copied().unwrap_or(0),
            spark(
                snap.shard_p99[shard].map_or(0, |d| d.as_nanos() as u64),
                hottest
            ),
        );
    }
    println!();

    // SLO panel: p99 over time from the pulled windows, the SLO limit at
    // half scale so a breach is visibly above the midline.
    let breaches = opts.slo.check(&state.series);
    let line: String = state
        .series
        .iter()
        .map(|w| spark(w.p99_ns().unwrap_or(0), opts.slo.limit_ns.saturating_mul(2)))
        .collect();
    println!(
        "slo {} — {} window(s) pulled, {} breach(es){}   p99/s [{}]",
        opts.slo_raw,
        state.series.len(),
        breaches.len(),
        match breaches.last() {
            Some(b) => format!(
                " (last: {} at window {})",
                fmt_duration(Some(Duration::from_nanos(b.value_ns))),
                b.start_seq
            ),
            None => String::new(),
        },
        line,
    );
    // Certifier panel: the backend's abort rate per telemetry window —
    // the live counterpart of the `exp_certifier` shootout's curves.
    let aborts: String = state
        .series
        .iter()
        .map(|w| spark((w.abort_rate() * 100.0).round() as u64, 100))
        .collect();
    let (committed, aborted) = state
        .series
        .iter()
        .fold((0u64, 0u64), |(c, a), w| (c + w.committed, a + w.aborted));
    println!(
        "certifier {} — abort rate {:5.1}% ({aborted} aborted / {} decided)   rate/s [{aborts}]",
        opts.backend,
        if committed + aborted == 0 {
            0.0
        } else {
            aborted as f64 / (committed + aborted) as f64 * 100.0
        },
        committed + aborted,
    );
    println!();

    // Slowest sampled traces, with per-hop self-time attribution.
    let mut trees: Vec<TraceTree> = stitch_traces(&state.spans)
        .into_iter()
        .filter(TraceTree::is_well_formed)
        .collect();
    trees.sort_by_key(|t| std::cmp::Reverse(t.total_ns()));
    println!("slowest traces (sampled at {TRACE_SAMPLE}):");
    if trees.is_empty() {
        println!("  (none sampled yet)");
    }
    for t in trees.iter().take(3) {
        println!("{}", trace_line(t));
    }
    println!();
    if let Some(wal) = svc.wal_stats() {
        println!(
            "wal: {} records, {} bytes, {} fsyncs, flush queue {}",
            wal.records, wal.bytes, wal.syncs, wal.pending_records
        );
        let mean = state.group_commits as f64 / state.group_flushes.max(1) as f64;
        let hist = GROUP_BUCKETS
            .iter()
            .zip(state.group_hist)
            .map(|(label, n)| format!("{label}:{n}"))
            .collect::<Vec<_>>()
            .join("  ");
        println!("group sizes: {hist}   (mean {mean:.1}/flush)");
        match svc.recovery_report() {
            Some(r) => println!(
                "recovery at boot: {} records scanned, {} writes replayed, {} commits recovered",
                r.records,
                r.replay.iter().map(|s| s.writes as usize).sum::<usize>(),
                r.committed.len()
            ),
            None => println!("recovery at boot: (none)"),
        }
        println!();
    } else {
        // No durability configured (`--no-wal`): keep the panel slot so
        // the layout is stable, and never panic on the absent stats.
        println!("wal: (off — running without durability)");
        println!();
    }
    println!("recent protocol decisions:");
    if state.recent.is_empty() {
        println!("  (none yet)");
    }
    for ev in &state.recent {
        println!("  {}", event_to_json(ev));
    }
}

fn main() {
    let opts = parse_options();
    let schema = Schema::uniform(
        (0..ENTITIES).map(|i| format!("d{i}")),
        Domain::Range {
            min: i64::MIN / 2,
            max: i64::MAX / 2,
        },
    );
    let initial = UniqueState::constant(ENTITIES, 0);
    let recorder = Recorder::new(RING_CAPACITY);
    // Durable dashboard: the WAL runs over in-memory media, so the
    // wal/group-size panels show a live durability pipeline without
    // touching the filesystem.
    // `--no-wal` drops durability entirely; the WAL panel degrades to a
    // placeholder.
    let durability = if opts.no_wal {
        Durability::None
    } else {
        let media = MemStore::new();
        Durability::Wal(WalOptions::new(Arc::new(move || {
            Box::new(media.clone()) as Box<dyn SegmentStore>
        })))
    };
    let svc = TxnService::new(
        schema,
        &initial,
        ServerConfig {
            shards: SHARDS,
            max_sessions: CLIENTS,
            backend: opts.backend,
            strategy: Strategy::GreedyLatest,
            recorder: Some(recorder.clone()),
            durability,
            trace_sample: TRACE_SAMPLE,
            ..ServerConfig::default()
        },
    );
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (svc, stop) = (&svc, &stop);
            scope.spawn(move || run_client(svc, client, stop));
        }
        let mut state = FrameState {
            last: Instant::now(),
            last_committed: 0,
            last_events: 0,
            seen_ts: 0,
            recent: Vec::new(),
            group_hist: [0; GROUP_BUCKETS.len()],
            group_flushes: 0,
            group_commits: 0,
            spans: Vec::new(),
            telemetry_cursor: 0,
            series: Vec::new(),
        };
        for frame in 0..opts.frames {
            std::thread::sleep(opts.interval);
            let snap = svc.metrics();
            render(frame, &opts, &svc, &snap, &recorder, &mut state);
        }
        stop.store(true, Ordering::Relaxed);
    });

    let certifiers = svc.shutdown();
    let (report, dump) = verify_certifiers_with_dump(&certifiers, &recorder);
    println!();
    if report.is_correct() {
        println!(
            "shutdown clean: {} committed transactions pass the {} history check",
            report.committed, opts.backend
        );
    } else {
        if let Some(dump) = dump {
            eprintln!("{}", dump.summary);
        }
        eprintln!("model check FAILED: {} violations", report.violations.len());
        std::process::exit(1);
    }
}
