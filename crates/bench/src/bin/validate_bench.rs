//! `validate_bench`: the machine-readable bench gate.
//!
//! Parses the `BENCH_*.json` reports the load experiments emit and
//! fails (exit 1) unless every file satisfies the schema and carries
//! zero correctness violations:
//!
//! * top level: `bench` (string), `runs` (non-empty array), and
//!   `total_violations == 0`; a report that says `"smoke": true` is
//!   accepted only from a path under `target/` — the tracked root files
//!   must be full-size runs;
//! * every run: numeric `throughput_txn_s` (> 0 when anything
//!   committed), numeric `p50_us`/`p99_us`, and `violations == 0`;
//! * `net_load` reports additionally: a `ratio` object whose
//!   `loopback_over_in_process` is a positive number — and if the run
//!   was full-size (it recorded a `pass` verdict against the gate),
//!   that verdict must be `true`;
//! * `wal` reports additionally: a `gate` object with numeric
//!   `lone_fsync_per_commit`, `lone_commit_p50_us` and
//!   `shared_over_lone_fsync_per_commit`, and a mandatory `pass` verdict
//!   (the injected sync latency dwarfs scheduling noise, so smoke runs
//!   carry it too); the retired naive-vs-group report, which has a
//!   `ratio` object instead, fails here;
//! * `obs` reports additionally: an `overhead` object with a numeric
//!   `value` and a mandatory `pass` verdict against the tracing-overhead
//!   budget (best-of-alternating-rounds absorbs CI timing noise);
//! * `certifier` reports additionally: runs for all three backends
//!   (`cpc`, `ssi`, `2pl`) and a `gate` object whose mandatory `pass`
//!   verdict asserts SSI's long-transaction abort rate exceeds CPC's by
//!   the margin (abort rates are certification logic, not wall-clock,
//!   so smoke runs carry the verdict too);
//! * `conn_scale` reports additionally: a positive `idle_connections`
//!   count, a `gate` object with a positive `p99_ratio` (full-size runs
//!   record a `pass` verdict against the idle-horde latency gate that
//!   must then be `true`), and a `mem` object with the RSS-delta fields
//!   and a mandatory `pass` verdict against the per-connection memory
//!   budget (RSS accounting is not wall-clock noise, so smoke runs
//!   carry it too).
//!
//! Usage: `validate_bench BENCH_net.json [target/bench/BENCH_wal.json ...]`

use ks_bench::report::Json;
use std::path::Path;

/// Collects everything wrong with one report file; `name` is the path
/// it was read from.
fn validate(name: &str, doc: &Json, errors: &mut Vec<String>) {
    let mut err = |msg: String| errors.push(format!("{name}: {msg}"));

    let Some(bench) = doc.get("bench").and_then(Json::as_str) else {
        err("missing string field \"bench\"".to_string());
        return;
    };
    let scratch = Path::new(name)
        .components()
        .any(|c| c.as_os_str() == "target");
    if doc.get("smoke").and_then(Json::as_bool) == Some(true) && !scratch {
        err(
            "a smoke report outside target/ (tracked artifacts must be full-size runs)".to_string(),
        );
    }
    match doc.get("total_violations").and_then(Json::as_f64) {
        Some(0.0) => {}
        Some(n) => err(format!("total_violations = {n} (must be 0)")),
        None => err("missing numeric field \"total_violations\"".to_string()),
    }
    let Some(runs) = doc.get("runs").and_then(Json::as_array) else {
        err("missing array field \"runs\"".to_string());
        return;
    };
    if runs.is_empty() {
        err("\"runs\" is empty".to_string());
    }
    for (i, run) in runs.iter().enumerate() {
        let field = |key: &str| run.get(key).and_then(Json::as_f64);
        match field("violations") {
            Some(0.0) => {}
            Some(n) => err(format!("runs[{i}]: violations = {n} (must be 0)")),
            None => err(format!("runs[{i}]: missing numeric \"violations\"")),
        }
        for key in ["p50_us", "p99_us"] {
            if field(key).is_none() {
                err(format!("runs[{i}]: missing numeric \"{key}\""));
            }
        }
        match (field("throughput_txn_s"), field("committed")) {
            (None, _) => err(format!("runs[{i}]: missing numeric \"throughput_txn_s\"")),
            (Some(t), Some(c)) if c > 0.0 && t <= 0.0 => err(format!(
                "runs[{i}]: committed {c} transactions at non-positive throughput {t}"
            )),
            _ => {}
        }
    }
    if bench == "net_load" {
        let Some(ratio) = doc.get("ratio") else {
            err("net_load report missing \"ratio\" object".to_string());
            return;
        };
        match ratio.get("loopback_over_in_process").and_then(Json::as_f64) {
            Some(r) if r > 0.0 => {}
            Some(r) => err(format!(
                "ratio.loopback_over_in_process = {r} (must be > 0)"
            )),
            None => err("ratio missing numeric \"loopback_over_in_process\"".to_string()),
        }
        // A full-size run records its verdict against the throughput
        // gate; smoke runs omit it (CI timing proves nothing).
        if let Some(pass) = ratio.get("pass").and_then(Json::as_bool) {
            if !pass {
                let r = ratio
                    .get("loopback_over_in_process")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let gate = ratio.get("gate").and_then(Json::as_f64).unwrap_or(f64::NAN);
                err(format!("throughput ratio {r:.2} is below the {gate} gate"));
            }
        }
    }
    if bench == "conn_scale" {
        match doc.get("idle_connections").and_then(Json::as_f64) {
            Some(n) if n > 0.0 => {}
            Some(n) => err(format!("idle_connections = {n} (must be > 0)")),
            None => err("missing numeric \"idle_connections\"".to_string()),
        }
        let Some(gate) = doc.get("gate") else {
            err("conn_scale report missing \"gate\" object".to_string());
            return;
        };
        let ratio = gate.get("p99_ratio").and_then(Json::as_f64);
        match ratio {
            Some(r) if r > 0.0 => {}
            Some(r) => err(format!("gate.p99_ratio = {r} (must be > 0)")),
            None => err("gate missing numeric \"p99_ratio\"".to_string()),
        }
        // Full-size runs record the latency verdict; smoke runs omit it
        // (CI timing proves nothing).
        if let Some(pass) = gate.get("pass").and_then(Json::as_bool) {
            if !pass {
                let g = gate
                    .get("p99_ratio_gate")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                err(format!(
                    "idle-horde p99 ratio {:.2} exceeds the {g} gate",
                    ratio.unwrap_or(f64::NAN)
                ));
            }
        }
        let Some(mem) = doc.get("mem") else {
            err("conn_scale report missing \"mem\" object".to_string());
            return;
        };
        for key in ["rss_delta_bytes", "per_conn_bytes", "budget_bytes"] {
            if mem.get(key).and_then(Json::as_f64).is_none() {
                err(format!("mem missing numeric \"{key}\""));
            }
        }
        // Memory accounting is not wall-clock noise, so the verdict is
        // mandatory — smoke runs included.
        match mem.get("pass").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => err(format!(
                "idle-horde RSS delta {} exceeds the {} budget",
                mem.get("rss_delta_bytes")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                mem.get("budget_bytes")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            )),
            None => err("mem missing boolean \"pass\"".to_string()),
        }
    }
    if bench == "obs" {
        let Some(overhead) = doc.get("overhead") else {
            err("obs report missing \"overhead\" object".to_string());
            return;
        };
        let value = overhead.get("value").and_then(Json::as_f64);
        if value.is_none() {
            err("overhead missing numeric \"value\"".to_string());
        }
        let gate = overhead
            .get("gate")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        // The tracing-overhead verdict is mandatory — smoke runs
        // included: best-of-alternating-rounds absorbs CI timing noise,
        // and a silent overhead regression defeats the point of a
        // sampling knob.
        match overhead.get("pass").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => err(format!(
                "tracing overhead {:.3} exceeds the {gate} budget",
                value.unwrap_or(f64::NAN)
            )),
            None => err("overhead missing boolean \"pass\"".to_string()),
        }
    }
    if bench == "certifier" {
        // Every backend must appear: a shootout missing a contender
        // proves nothing.
        for want in ["cpc", "ssi", "2pl"] {
            if !runs
                .iter()
                .any(|r| r.get("backend").and_then(Json::as_str) == Some(want))
            {
                err(format!(
                    "certifier report has no run for backend \"{want}\""
                ));
            }
        }
        let Some(gate) = doc.get("gate") else {
            err("certifier report missing \"gate\" object".to_string());
            return;
        };
        let cpc = gate.get("cpc_long_abort_rate").and_then(Json::as_f64);
        let ssi = gate.get("ssi_long_abort_rate").and_then(Json::as_f64);
        if cpc.is_none() || ssi.is_none() {
            err("gate missing numeric \"cpc_long_abort_rate\"/\"ssi_long_abort_rate\"".to_string());
        }
        // The paper's headline claim is directional logic, not timing —
        // the verdict is mandatory, smoke runs included.
        match gate.get("pass").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => err(format!(
                "long-txn abort rates: ssi {:.2} does not exceed cpc {:.2} by the {} margin",
                ssi.unwrap_or(f64::NAN),
                cpc.unwrap_or(f64::NAN),
                gate.get("margin")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            )),
            None => err("gate missing boolean \"pass\"".to_string()),
        }
    }
    if bench == "wal" {
        let Some(gate) = doc.get("gate") else {
            err("wal report missing \"gate\" object (a naive-vs-group report?)".to_string());
            return;
        };
        let num = |key: &str| gate.get(key).and_then(Json::as_f64);
        let (Some(lone), Some(p50), Some(shared)) = (
            num("lone_fsync_per_commit"),
            num("lone_commit_p50_us"),
            num("shared_over_lone_fsync_per_commit"),
        ) else {
            err("gate missing a numeric lone/shared figure".to_string());
            return;
        };
        match gate.get("pass").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => err(format!(
                "commit-path gate failed: lone {lone:.4} fsync/commit at p50 {p50:.0} us, \
                 shared {shared:.4}x the lone figure"
            )),
            None => err("gate missing boolean \"pass\"".to_string()),
        }
    }
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_bench BENCH_net.json [target/bench/BENCH_wal.json ...]");
        std::process::exit(2);
    }
    let mut errors = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                errors.push(format!("{path}: unreadable: {e}"));
                continue;
            }
        };
        match Json::parse(&text) {
            Ok(doc) => {
                let before = errors.len();
                validate(path, &doc, &mut errors);
                if errors.len() == before {
                    let runs = doc
                        .get("runs")
                        .and_then(Json::as_array)
                        .map_or(0, <[Json]>::len);
                    println!("{path}: ok ({runs} runs, 0 violations)");
                }
            }
            Err(e) => errors.push(format!("{path}: malformed JSON: {e}")),
        }
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("FAIL {e}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn errors_for(path: &str, doc: &Json) -> Vec<String> {
        let mut errors = Vec::new();
        validate(path, doc, &mut errors);
        errors
    }

    fn wal_report(smoke: bool, gate_key: &'static str) -> Json {
        let run = Json::obj([
            ("committed", Json::Num(8.0)),
            ("throughput_txn_s", Json::Num(100.0)),
            ("p50_us", Json::Num(2200.0)),
            ("p99_us", Json::Num(2400.0)),
            ("violations", Json::Num(0.0)),
        ]);
        let gate = Json::obj([
            ("lone_fsync_per_commit", Json::Num(1.0)),
            ("lone_commit_p50_us", Json::Num(2200.0)),
            ("shared_over_lone_fsync_per_commit", Json::Num(0.15)),
            ("group_over_naive_fsync_per_commit", Json::Num(0.13)),
            ("pass", Json::Bool(true)),
        ]);
        Json::obj([
            ("bench", Json::Str("wal".into())),
            ("smoke", Json::Bool(smoke)),
            ("runs", Json::Arr(vec![run])),
            (gate_key, gate),
            ("total_violations", Json::Num(0.0)),
        ])
    }

    #[test]
    fn a_smoke_report_is_accepted_only_under_target() {
        let smoke = wal_report(true, "gate");
        assert_eq!(
            errors_for("target/bench/BENCH_wal.json", &smoke),
            Vec::<String>::new()
        );
        assert_eq!(
            errors_for("/repo/target/bench/BENCH_wal.json", &smoke),
            Vec::<String>::new()
        );
        let tracked = errors_for("BENCH_wal.json", &smoke);
        assert!(
            tracked.len() == 1 && tracked[0].contains("smoke report outside target/"),
            "{tracked:?}"
        );
        // The same numbers from a full-size run are fine anywhere.
        assert_eq!(
            errors_for("BENCH_wal.json", &wal_report(false, "gate")),
            Vec::<String>::new()
        );
    }

    #[test]
    fn the_retired_naive_vs_group_wal_shape_still_fails() {
        let errors = errors_for("BENCH_wal.json", &wal_report(false, "ratio"));
        assert!(
            errors.iter().any(|e| e.contains("missing \"gate\" object")),
            "{errors:?}"
        );
    }

    #[test]
    fn every_tracked_artifact_validates() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for name in ["net", "wal", "obs", "certifier", "conn"] {
            let file = format!("BENCH_{name}.json");
            let text = std::fs::read_to_string(root.join(&file)).expect("tracked artifact exists");
            let doc = Json::parse(&text).expect("tracked artifact parses");
            assert_eq!(errors_for(&file, &doc), Vec::<String>::new());
        }
    }
}
