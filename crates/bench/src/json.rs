//! Machine-readable bench output.
//!
//! Every bench target accepts `--json PATH` (or `--json=PATH`) and, when
//! given, writes its headline measurements as a JSON document alongside
//! the human-readable tables — so the perf trajectory can be recorded
//! across PRs (`BENCH_*.json`):
//!
//! ```sh
//! cargo bench --bench fig5_end_to_end -- --json BENCH_fig5.json
//! ```
//!
//! The document shape is deliberately flat and append-friendly:
//!
//! ```json
//! {
//!   "bench": "fig5_end_to_end",
//!   "results": [
//!     {"metric": "p99_overhead", "value": 0.072,
//!      "tags": {"system": "tally", "infer": "bert"}},
//!     …
//!   ]
//! }
//! ```
//!
//! The writer is hand-rolled (the build environment is offline, so no
//! serde); only strings and finite floats are emitted, with full string
//! escaping.

use std::path::PathBuf;

/// Collects measurements and writes them as JSON on [`JsonSink::finish`].
#[derive(Debug)]
pub struct JsonSink {
    path: Option<PathBuf>,
    bench: String,
    rows: Vec<String>,
}

impl JsonSink {
    /// A sink for the named bench, parsing `--json PATH` / `--json=PATH`
    /// from the process arguments. Without the flag the sink is disabled
    /// and every call is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `--json` is given without a path (results asked for must
    /// never be silently dropped).
    pub fn from_args(bench: &str) -> Self {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(a) = args.next() {
            if a == "--json" {
                match args.next() {
                    Some(p) if !p.starts_with('-') => path = Some(PathBuf::from(p)),
                    _ => panic!("--json requires a path argument"),
                }
            } else if let Some(p) = a.strip_prefix("--json=") {
                path = Some(PathBuf::from(p));
            }
        }
        Self::to_path(bench, path)
    }

    /// A sink writing to an explicit path (`None` disables it).
    pub fn to_path(bench: &str, path: Option<PathBuf>) -> Self {
        JsonSink {
            path,
            bench: bench.to_string(),
            rows: Vec::new(),
        }
    }

    /// Whether a `--json` destination was given.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Records one measurement with optional string tags. Non-finite
    /// values are recorded as `null`.
    pub fn record(&mut self, metric: &str, value: f64, tags: &[(&str, &str)]) {
        if self.path.is_none() {
            return;
        }
        let mut row = format!("{{\"metric\": {}, \"value\": {}", quote(metric), num(value));
        if !tags.is_empty() {
            row.push_str(", \"tags\": {");
            for (i, (k, v)) in tags.iter().enumerate() {
                if i > 0 {
                    row.push_str(", ");
                }
                row.push_str(&format!("{}: {}", quote(k), quote(v)));
            }
            row.push('}');
        }
        row.push('}');
        self.rows.push(row);
    }

    /// The collected document as JSON text (what [`JsonSink::finish`]
    /// writes).
    pub fn render(&self) -> String {
        let mut doc = format!(
            "{{\n  \"bench\": {},\n  \"results\": [\n",
            quote(&self.bench)
        );
        for (i, row) in self.rows.iter().enumerate() {
            doc.push_str("    ");
            doc.push_str(row);
            doc.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        doc.push_str("  ]\n}\n");
        doc
    }

    /// Writes the collected document, if a path was given.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written — a bench run asked to record
    /// results must not lose them silently.
    pub fn finish(self) {
        let Some(path) = &self.path else {
            return;
        };
        std::fs::write(path, self.render())
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        eprintln!("wrote {} results to {}", self.rows.len(), path.display());
    }
}

/// JSON string literal with escaping.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal (`null` for non-finite values).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_no_op() {
        let mut sink = JsonSink::to_path("t", None);
        assert!(!sink.enabled());
        sink.record("x", 1.0, &[]);
        sink.finish(); // must not panic or write anything
    }

    #[test]
    fn writes_valid_document() {
        let path = std::env::temp_dir().join("tally_bench_json_test.json");
        let mut sink = JsonSink::to_path("smoke", Some(path.clone()));
        assert!(sink.enabled());
        sink.record(
            "p99_ms",
            1.25,
            &[("system", "tally"), ("note", "a \"quoted\" tag")],
        );
        sink.record("bad", f64::NAN, &[]);
        sink.finish();
        let doc = std::fs::read_to_string(&path).expect("written");
        std::fs::remove_file(&path).ok();
        assert!(doc.contains("\"bench\": \"smoke\""));
        assert!(doc.contains("\"metric\": \"p99_ms\", \"value\": 1.25"));
        assert!(doc.contains("\\\"quoted\\\""));
        assert!(doc.contains("\"value\": null"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(quote("a\nb"), "\"a\\nb\"");
        assert_eq!(quote("tab\there"), "\"tab\\there\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }
}
