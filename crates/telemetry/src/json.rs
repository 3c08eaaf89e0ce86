//! The workspace's JSON writer and validator, and the `BENCH_<name>.json`
//! artifacts built on them.
//!
//! Every headline harness (the `headline_claims` bin, the
//! `parallel_scaling` bench, the lint gate) writes its measured numbers as
//! a small JSON document so the perf trajectory can be tracked across PRs
//! without scraping stdout:
//!
//! ```json
//! {
//!   "bench": "parallel_scaling",
//!   "seed_commit": "413702c...",
//!   "metrics": [
//!     { "name": "parallel_speedup_8_workers", "value": 1.62, "units": "x" }
//!   ]
//! }
//! ```
//!
//! The workspace is dependency-free offline (the vendored `serde` stub is a
//! no-op), so JSON is hand-written from two primitives, [`escape`] and
//! [`number`], which the Chrome trace [`export`](crate::export) uses too.
//! [`fn@write`] reads every artifact back through the recursive-descent
//! [`validate`] parser before reporting success. CI re-checks the files
//! with `python3 -m json.tool`, so `validate` follows the same grammar: it
//! rejects leading zeros and raw control characters inside strings too.

use std::fmt::Write as _;
use std::path::PathBuf;

/// One measured number: name, value and units.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Metric identifier, stable across PRs (e.g. `single_scene_speedup`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Units label (e.g. `x`, `frames/s`, `KFPS/W`, `%`).
    pub units: String,
}

impl BenchMetric {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, value: f64, units: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            units: units.to_string(),
        }
    }
}

/// The commit the numbers were measured against: `LIGHTATOR_SEED_COMMIT`
/// when set (CI exports it), otherwise `git rev-parse HEAD`, otherwise
/// `"unknown"`.
#[must_use]
pub fn seed_commit() -> String {
    if let Ok(commit) = std::env::var("LIGHTATOR_SEED_COMMIT") {
        if !commit.trim().is_empty() {
            return commit.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes a string for the inside of a JSON string literal: quotes,
/// backslashes and every character below U+0020.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number: finite values in Rust's `{}` form,
/// plain decimal digits that always parse as JSON, and anything else as
/// `null`.
#[must_use]
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Renders the `BENCH_*.json` document.
#[must_use]
pub fn render(bench: &str, seed_commit: &str, metrics: &[BenchMetric]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"{}\",", escape(bench));
    let _ = writeln!(out, "  \"seed_commit\": \"{}\",", escape(seed_commit));
    let _ = writeln!(out, "  \"metrics\": [");
    for (i, metric) in metrics.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"name\": \"{}\", \"value\": {}, \"units\": \"{}\" }}{}",
            escape(&metric.name),
            number(metric.value),
            escape(&metric.units),
            if i + 1 < metrics.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

/// Renders the metrics with [`render`] and writes them with [`fn@write`].
///
/// # Errors
///
/// As [`fn@write`].
pub fn emit(bench: &str, metrics: &[BenchMetric]) -> std::io::Result<PathBuf> {
    write(bench, &render(bench, &seed_commit(), metrics))
}

/// Writes `body` as `BENCH_<bench>.json` into `LIGHTATOR_BENCH_DIR` (or the
/// current directory), validates the bytes read back from the file, and
/// returns the path.
///
/// # Errors
///
/// Propagates I/O errors; a body that does not parse (a bug in its
/// renderer) is reported as [`std::io::ErrorKind::InvalidData`].
pub fn write(bench: &str, body: &str) -> std::io::Result<PathBuf> {
    let dir = std::env::var("LIGHTATOR_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = PathBuf::from(dir).join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, body)?;
    let written = std::fs::read_to_string(&path)?;
    validate(&written).map_err(|reason| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("emitted {} does not parse: {reason}", path.display()),
        )
    })?;
    Ok(path)
}

/// Minimal JSON well-formedness check (objects, arrays, strings, numbers,
/// literals): returns the parsed metric-name strings on success.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn validate(json: &str) -> Result<Vec<String>, String> {
    let mut parser = Parser {
        bytes: json.as_bytes(),
        pos: 0,
        metric_names: Vec::new(),
    };
    parser.skip_ws();
    parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes at offset {}", parser.pos));
    }
    Ok(parser.metric_names)
}

/// Recursive-descent JSON scanner behind [`validate`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    metric_names: Vec<String>,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected byte `{}` at offset {}",
                c as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            if key == "name" && self.peek() == Some(b'"') {
                let name = self.string()?;
                self.metric_names.push(name);
            } else {
                self.value()?;
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(String::from_utf8_lossy(&out).into_owned());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0C),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => {
                                        return Err(format!(
                                            "bad \\u escape at offset {}",
                                            self.pos
                                        ))
                                    }
                                }
                            }
                            // Content of the escape is not reconstructed;
                            // well-formedness is all validate() promises.
                            out.push(b'?');
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!(
                        "unescaped control character in string at offset {}",
                        self.pos
                    ))
                }
                Some(c) => {
                    // Multi-byte UTF-8 passes through byte-wise: the input
                    // is a &str, so it is valid UTF-8 by construction.
                    out.push(c);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let int_digits = &self.bytes[int_start..self.pos];
        if int_digits.is_empty() {
            return Err(format!("bad number at offset {start}"));
        }
        if int_digits.len() > 1 && int_digits[0] == b'0' {
            return Err(format!("leading zero in number at offset {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0usize;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("bad fraction at offset {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0usize;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("bad exponent at offset {start}"));
            }
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<BenchMetric> {
        vec![
            BenchMetric::new("single_scene_speedup", 1.62, "x"),
            BenchMetric::new("cached_throughput", 123.456, "frames/s"),
        ]
    }

    #[test]
    fn rendered_documents_parse_and_carry_the_metric_names() {
        let mut metrics = metrics();
        metrics.push(BenchMetric::new("overflowed", f64::NAN, "x"));
        let json = render("parallel_scaling", "abc123", &metrics);
        assert_eq!(
            json,
            r#"{
  "bench": "parallel_scaling",
  "seed_commit": "abc123",
  "metrics": [
    { "name": "single_scene_speedup", "value": 1.62, "units": "x" },
    { "name": "cached_throughput", "value": 123.456, "units": "frames/s" },
    { "name": "overflowed", "value": null, "units": "x" }
  ]
}"#
        );
        let names = validate(&json).expect("valid JSON");
        assert_eq!(
            names,
            vec!["single_scene_speedup", "cached_throughput", "overflowed"]
        );
    }

    #[test]
    fn non_finite_values_render_as_null() {
        let json = render("edge", "c", &[BenchMetric::new("bad", f64::INFINITY, "x")]);
        validate(&json).expect("null is valid JSON");
        assert!(json.contains("\"value\": null"));
    }

    #[test]
    fn strings_are_escaped() {
        let json = render("quo\"te", "a\\b", &[BenchMetric::new("n\new", 1.0, "x")]);
        validate(&json).expect("escaped JSON parses");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("{").is_err());
        assert!(validate("{\"a\": }").is_err());
        assert!(validate("[1, 2,]").is_err());
        assert!(validate("{\"a\": 1} trailing").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("01abc").is_err());
        // Leading zeros and raw control characters in strings, which
        // `python3 -m json.tool` rejects too.
        for bad in ["01", "-01", "[00.5]", "\"a\nb\"", "\"a\tb\"", "\"a\u{1}b\""] {
            assert!(validate(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn validator_accepts_plain_values() {
        assert!(validate("null").is_ok());
        assert!(validate("[1, -2.5, 3e-4, true, \"x\"]").is_ok());
        assert!(validate("[0, -0, 0.5, -0.25, 0e1, 10]").is_ok());
    }

    #[test]
    fn emit_writes_and_validates_a_file() {
        let dir = std::env::temp_dir().join("lightator-bench-emit-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::env::set_var("LIGHTATOR_BENCH_DIR", &dir);
        let path = emit("emit_unit_test", &metrics()).expect("emitted");
        std::env::remove_var("LIGHTATOR_BENCH_DIR");
        assert!(path.ends_with("BENCH_emit_unit_test.json"));
        let body = std::fs::read_to_string(&path).expect("readable");
        let names = validate(&body).expect("parses");
        assert_eq!(names.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
