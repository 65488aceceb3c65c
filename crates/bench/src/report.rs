//! Machine-readable bench reports.
//!
//! The load experiments emit `BENCH_*.json` files so CI (and the
//! acceptance gates) can check throughput, latency percentiles, and the
//! correctness-violation count without scraping stdout tables. The repo
//! vendors no JSON crate, so this is a deliberately small value tree
//! with a stable writer and a strict recursive-descent parser — enough
//! for flat report objects, not a general JSON library. The
//! `validate_bench` binary parses the emitted files back through the
//! same module, so writer and parser cannot drift apart.
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
    /// `null`.
    Null,
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

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
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
            Json::Null => out.push_str("null"),
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

    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {}, found {:?}",
            what as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    other => {
                        return Err(format!("expected ',' or '}}' in object, found {other:?}"))
                    }
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while bytes
                .get(*pos)
                .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("malformed number at byte {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?} at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
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
    fn render_parse_round_trip() {
        let v = sample();
        let text = v.render();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(back, v);
    }

    #[test]
    fn lookups_navigate_the_tree() {
        let v = sample();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("net_load"));
        assert_eq!(v.get("smoke").and_then(Json::as_bool), Some(true));
        let runs = v.get("runs").and_then(Json::as_array).unwrap();
        assert_eq!(
            runs[0].get("throughput_txn_s").and_then(Json::as_f64),
            Some(1234.5678)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42\n");
        assert_eq!(Json::Num(0.25).render(), "0.2500\n");
    }

    #[test]
    fn smoke_reports_go_under_target_and_full_runs_to_the_tracked_file() {
        assert_eq!(
            report_path("wal", true),
            PathBuf::from("target/bench/BENCH_wal.json")
        );
        assert_eq!(report_path("wal", false), PathBuf::from("BENCH_wal.json"));
    }

    #[test]
    fn every_tracked_artifact_round_trips() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for name in ["net", "wal", "obs", "certifier", "conn"] {
            let path = root.join(report_path(name, false));
            let text = std::fs::read_to_string(&path).expect("tracked artifact exists");
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(doc.render(), text, "{}", path.display());
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "12 34", "{\"a\":1}x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
