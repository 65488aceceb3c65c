//! The benchmark's contract in one place: metric names, units, directions
//! and regression bounds, and the `BENCHMARK.json` text generated from
//! them (`run.sh --manifest`). Runs are checked against these lists, so a
//! metric cannot be printed without being declared or the other way round.

use crate::gen::Workload;

/// Seconds one run's measured window lasts.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the system sees. Bounds come from the measured
/// run-to-run spread on the 2-core box (README, "First numbers").
pub const END_TO_END: &[Metric] = &[
    e2e("txn_per_s", "txn/s", Higher, 0.25),
    e2e("txn_p90_us", "us", Lower, 0.25),
    e2e("flatness", "ratio", Higher, 0.25),
    e2e("cpu_ms_per_txn", "ms", Lower, 0.25),
    e2e("rss_kib_per_txn", "KiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One number per layer boundary, from the traced run. No bounds.
pub const PER_LAYER: &[Metric] = &[
    // Client boundary: median per call, share of transaction time.
    layer("call.open_us", "us", Lower),
    layer("call.open_share", "ratio", Lower),
    layer("call.validate_us", "us", Lower),
    layer("call.validate_share", "ratio", Lower),
    layer("call.read_us", "us", Lower),
    layer("call.read_share", "ratio", Lower),
    layer("call.write_us", "us", Lower),
    layer("call.write_share", "ratio", Lower),
    layer("call.commit_us", "us", Lower),
    layer("call.commit_share", "ratio", Lower),
    layer("call.retries", "count", Lower),
    layer("call.backoff_ms", "ms", Lower),
    layer("client.gap_share", "ratio", Lower),
    // Latency percentiles that do not repeat well enough to carry a bound,
    // from the traced run's untraced window.
    layer("client.txn_p50_us", "us", Lower),
    layer("client.txn_p99_us", "us", Lower),
    // ks-protocol: the stream replayed into a bare certifier.
    layer("certifier.open_us", "us", Lower),
    layer("certifier.validate_us", "us", Lower),
    layer("certifier.read_us", "us", Lower),
    layer("certifier.write_us", "us", Lower),
    layer("certifier.commit_us", "us", Lower),
    layer("certifier.busy_s", "s", Lower),
    layer("certifier.validate_growth", "ratio", Lower),
    layer("certifier.re_evals", "count", Lower),
    layer("certifier.re_assigns", "count", Lower),
    layer("certifier.reeval_aborts", "count", Lower),
    layer("certifier.validation_failures", "count", Lower),
    layer("certifier.cascade_aborts", "count", Lower),
    // ks-mvstore: the stream's writes applied to a bare store.
    layer("mvstore.write_us", "us", Lower),
    layer("mvstore.read_us", "us", Lower),
    layer("mvstore.candidates_us", "us", Lower),
    layer("mvstore.chain_len_max", "count", Lower),
    // ks-server.
    layer("server.self_us_per_call", "us", Lower),
    layer("server.queue_wait_p50_us", "us", Lower),
    layer("server.exec_p50_us", "us", Lower),
    layer("server.backpressure", "count", Lower),
    layer("server.timeouts", "count", Lower),
    // ks-net (2pl_net; 0 elsewhere).
    layer("net.self_us_per_call", "us", Lower),
    layer("net.rtt_us", "us", Lower),
    layer("wire.encode_req_us", "us", Lower),
    layer("wire.decode_req_us", "us", Lower),
    layer("wire.encode_resp_us", "us", Lower),
    layer("wire.decode_resp_us", "us", Lower),
    layer("wire.bytes_per_txn", "count", Lower),
    layer("wire.frames_per_txn", "count", Lower),
    // ks-wal (ssi_wal_write; 0 elsewhere).
    layer("wal.syncs_per_commit", "ratio", Lower),
    layer("wal.bytes_per_commit", "count", Lower),
    layer("wal.records_per_commit", "count", Lower),
    layer("wal.append_us", "us", Lower),
    layer("wal.sync_us", "us", Lower),
    layer("wal.recover_us_per_record", "us", Lower),
    layer("wal.recovery_s", "s", Lower),
    // ks-obs: the spans the server already emits.
    layer("obs.overhead_share", "ratio", Lower),
    layer("obs.events_per_txn", "count", Lower),
    layer("obs.dropped", "count", Lower),
    layer("hop.wellformed_share", "ratio", Higher),
    layer("hop.request_self_us", "us", Lower),
    layer("hop.connhandle_self_us", "us", Lower),
    layer("hop.queue_self_us", "us", Lower),
    layer("hop.exec_self_us", "us", Lower),
    layer("hop.certify_self_us", "us", Lower),
    layer("hop.walenqueue_self_us", "us", Lower),
    layer("hop.walbarrier_self_us", "us", Lower),
    layer("hop.walfsync_self_us", "us", Lower),
    // History check and the two windows of the traced run.
    layer("verify.txns_per_s", "txn/s", Higher),
    layer("untraced.txn_per_s", "txn/s", Higher),
    layer("traced.txn_per_s", "txn/s", Higher),
];

pub fn metrics_of(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's limits on names, units, bounds and counts.
    #[test]
    fn manifest_respects_the_contract_limits() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() < 64 * 1024);
    }

    /// `BENCHMARK.json` at the repo root is this crate's `--manifest`.
    #[test]
    fn committed_manifest_is_current() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with run.sh --manifest");
    }
}
