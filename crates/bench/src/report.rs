//! Machine-readable bench reports.
//!
//! The load experiments emit `BENCH_*.json` files so the acceptance
//! gates' numbers (throughput, latency percentiles, each verdict and the
//! correctness-violation count) are diffable artifacts, not scraped
//! stdout tables. Each experiment decides its own verdicts and exits 1
//! on a failed one; the report records what it decided. The repo vendors
//! no JSON crate, so this is a deliberately small value tree with a
//! stable, diff-friendly writer — enough for flat report objects, not a
//! general JSON library.
//!
//! Only a full-size run may touch the tracked `BENCH_<name>.json` at the
//! repository root; a `--smoke` run lands under `target/bench/`, so the
//! gate script never rewrites a committed artifact ([`write_report`]).

use std::fmt::Write as _;
use std::path::PathBuf;

/// Where `BENCH_<name>.json` goes, relative to the working directory:
/// the tracked root file for a full-size run, `target/bench/` for smoke.
pub fn report_path(name: &str, smoke: bool) -> PathBuf {
    let file = format!("BENCH_{name}.json");
    if smoke {
        PathBuf::from("target").join("bench").join(file)
    } else {
        PathBuf::from(file)
    }
}

/// Write a report to its [`report_path`] and say where it went.
pub fn write_report(name: &str, smoke: bool, doc: &Json) {
    let path = report_path(name, smoke);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the smoke report directory");
    }
    std::fs::write(&path, doc.render()).expect("write the bench report");
    println!("wrote {}", path.display());
}

/// A JSON value. Objects keep insertion order (reports are diffable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers render without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                }
                let _ = write!(out, "\n{close}]");
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                let _ = write!(out, "\n{close}}}");
            }
        }
    }
}

/// Integers render as integers so reports stay diff-friendly; anything
/// fractional gets enough digits to round-trip.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:.4}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("bench", Json::Str("net_load".into())),
            ("smoke", Json::Bool(true)),
            (
                "runs",
                Json::Arr(vec![Json::obj([
                    ("shards", Json::Num(4.0)),
                    ("throughput_txn_s", Json::Num(1234.5678)),
                    ("violations", Json::Num(0.0)),
                ])]),
            ),
            ("note", Json::Str("a \"quoted\" name\n".into())),
            ("total_violations", Json::Num(0.0)),
        ])
    }

    #[test]
    fn render_indents_and_escapes() {
        let want = r#"{
  "bench": "net_load",
  "smoke": true,
  "runs": [
    {
      "shards": 4,
      "throughput_txn_s": 1234.5678,
      "violations": 0
    }
  ],
  "note": "a \"quoted\" name\n",
  "total_violations": 0
}
"#;
        assert_eq!(sample().render(), want);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42\n");
        assert_eq!(Json::Num(0.25).render(), "0.2500\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
    }

    #[test]
    fn smoke_reports_go_under_target_and_full_runs_to_the_tracked_file() {
        assert_eq!(
            report_path("wal", true),
            PathBuf::from("target/bench/BENCH_wal.json")
        );
        assert_eq!(report_path("wal", false), PathBuf::from("BENCH_wal.json"));
    }

    /// The tracked artifacts are full-size runs that passed. Each
    /// experiment exits 1 on a failed verdict after writing its report;
    /// this keeps such a report, a smoke one or a hand edit from being
    /// committed.
    #[test]
    fn every_tracked_artifact_is_a_passing_full_size_run() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for name in ["net", "wal", "obs", "certifier", "conn"] {
            let path = root.join(report_path(name, false));
            let text = std::fs::read_to_string(&path).expect("tracked artifact exists");
            let has = |field: &str| {
                text.lines()
                    .any(|l| l.trim().trim_end_matches(',') == field)
            };
            let file = path.display();
            assert!(has("\"smoke\": false"), "{file}: not a full-size run");
            assert!(has("\"total_violations\": 0"), "{file}: violations");
            assert!(!has("\"pass\": false"), "{file}: a failed verdict");
        }
    }
}
