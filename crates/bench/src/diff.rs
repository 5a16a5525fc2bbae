//! Perf-trajectory comparison: diff two directories of `BENCH_*.json`
//! documents (as written by [`JsonSink`](crate::JsonSink) /
//! `bench_suite`) and flag regressions.
//!
//! A measurement is identified by `(file, metric, tags)`. Whether a change
//! is a regression depends on the metric's direction, inferred from its
//! name ([`metric_direction`]): throughput-like metrics regress when they
//! *drop*, latency-like metrics when they *rise*, both beyond a relative
//! threshold (default 10%). Metrics with no recognizable direction are
//! reported but never gate. A measurement present in the old document but
//! missing from the new one is always a regression — a silently truncated
//! trajectory must not read as "no change".
//!
//! Used by `bench_suite --diff OLD_DIR NEW_DIR [--threshold 0.1]`, which
//! exits non-zero when anything regressed — the comparison half of the CI
//! `bench-trajectory` gate.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The default regression threshold (relative change).
pub const DEFAULT_THRESHOLD: f64 = 0.10;

// ---------------------------------------------------------------------
// Minimal JSON reader (offline build: no serde). Full enough for the
// documents `JsonSink` emits; strict about everything else.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered by key).
    Obj(BTreeMap<String, Json>),
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == b => {
                self.i += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.i,
                other.map(|c| c as char)
            )),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                let mut obj = BTreeMap::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(obj));
                }
                loop {
                    let key = match self.value()? {
                        Json::Str(s) => s,
                        other => return Err(format!("non-string object key: {other:?}")),
                    };
                    self.expect(b':')?;
                    obj.insert(key, self.value()?);
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(obj));
                        }
                        other => return Err(format!("bad object separator: {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut arr = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(arr));
                }
                loop {
                    arr.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(arr));
                        }
                        other => return Err(format!("bad array separator: {other:?}")),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        Some(b'\\') => {
                            self.i += 1;
                            match self.s.get(self.i) {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'/') => out.push('/'),
                                Some(b'n') => out.push('\n'),
                                Some(b'r') => out.push('\r'),
                                Some(b't') => out.push('\t'),
                                Some(b'u') => {
                                    let hex = self
                                        .s
                                        .get(self.i + 1..self.i + 5)
                                        .ok_or("truncated \\u escape")?;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                        16,
                                    )
                                    .map_err(|e| e.to_string())?;
                                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                                    self.i += 4;
                                }
                                other => return Err(format!("bad escape: {other:?}")),
                            }
                            self.i += 1;
                        }
                        Some(&b) => {
                            // Multi-byte UTF-8: copy the full code point.
                            let start = self.i;
                            let len = match b {
                                _ if b < 0x80 => 1,
                                _ if b >> 5 == 0b110 => 2,
                                _ if b >> 4 == 0b1110 => 3,
                                _ => 4,
                            };
                            let chunk = self
                                .s
                                .get(start..start + len)
                                .ok_or("truncated UTF-8 sequence")?;
                            out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                            self.i += len;
                        }
                    }
                }
            }
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                self.i += 1;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|&c| c.is_ascii_digit() || b".eE+-".contains(&c))
                {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| format!("bad number `{text}`: {e}"))
            }
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.i
            )),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
}

/// Parses a JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut r = Reader {
        s: text.as_bytes(),
        i: 0,
    };
    let v = r.value()?;
    r.ws();
    if r.i != r.s.len() {
        return Err(format!("trailing garbage at byte {}", r.i));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Bench documents
// ---------------------------------------------------------------------

/// One measurement row of a bench document.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric name.
    pub metric: String,
    /// Measured value (`None` when recorded as `null`).
    pub value: Option<f64>,
    /// String tags qualifying the measurement.
    pub tags: BTreeMap<String, String>,
}

impl Row {
    /// The identity of this measurement within its document.
    pub fn key(&self) -> String {
        let mut k = self.metric.clone();
        for (t, v) in &self.tags {
            k.push_str(&format!(" {t}={v}"));
        }
        k
    }
}

/// A parsed `BENCH_*.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchDoc {
    /// The bench name recorded in the document.
    pub bench: String,
    /// The measurements, in recording order.
    pub rows: Vec<Row>,
}

/// Parses a bench document as written by `JsonSink`.
pub fn parse_document(text: &str) -> Result<BenchDoc, String> {
    let Json::Obj(top) = parse_json(text)? else {
        return Err("document is not an object".into());
    };
    let Some(Json::Str(bench)) = top.get("bench") else {
        return Err("missing `bench` string".into());
    };
    let Some(Json::Arr(results)) = top.get("results") else {
        return Err("missing `results` array".into());
    };
    let mut rows = Vec::with_capacity(results.len());
    for r in results {
        let Json::Obj(o) = r else {
            return Err("non-object result row".into());
        };
        let Some(Json::Str(metric)) = o.get("metric") else {
            return Err("row missing `metric`".into());
        };
        let value = match o.get("value") {
            Some(Json::Num(v)) => Some(*v),
            Some(Json::Null) | None => None,
            other => return Err(format!("bad `value`: {other:?}")),
        };
        let mut tags = BTreeMap::new();
        if let Some(Json::Obj(t)) = o.get("tags") {
            for (k, v) in t {
                let Json::Str(v) = v else {
                    return Err(format!("non-string tag `{k}`"));
                };
                tags.insert(k.clone(), v.clone());
            }
        }
        rows.push(Row {
            metric: metric.clone(),
            value,
            tags,
        });
    }
    Ok(BenchDoc {
        bench: bench.clone(),
        rows,
    })
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// Which way a metric is allowed to move.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Dropping is a regression (throughput, scaling, fractions-kept).
    HigherIsBetter,
    /// Rising is a regression (latencies, overheads).
    LowerIsBetter,
    /// Reported, never gated (counters, configuration echoes).
    Informational,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::HigherIsBetter => "higher-better",
            Direction::LowerIsBetter => "lower-better",
            Direction::Informational => "info",
        })
    }
}

/// Infers a metric's direction from its name.
///
/// A `host_` prefix marks wall-clock measured on whatever machine ran the
/// bench: tracked, never gated (CI runners and dev boxes differ by far
/// more than any sane threshold). A `peak_` prefix marks a deterministic
/// high-water mark of retained state (e.g. `peak_live_launches`) and a
/// `work_` prefix a deterministic count of simulator work (e.g.
/// `work_system_polls`); both are lower-is-better. Otherwise, latency-flavored names
/// (`p99`, `latency`, `overhead`, `turnaround`, `ns_per`, and
/// `_ms`/`_us`/`_ns` suffixes) are lower-is-better; throughput-flavored
/// names (`throughput`, `req_per`, `iterations`, `speedup`, `fraction`,
/// `scaling`) are higher-is-better; anything else is informational.
/// Latency wins when both match (e.g. `throughput_p99_ms`).
pub fn metric_direction(name: &str) -> Direction {
    let n = name.to_ascii_lowercase();
    if n.starts_with("host_") {
        return Direction::Informational;
    }
    let lower = n.starts_with("peak_")
        || n.starts_with("work_")
        || ["p99", "p50", "latency", "overhead", "turnaround", "ns_per"]
            .iter()
            .any(|p| n.contains(p))
        || n.ends_with("_ms")
        || n.ends_with("_us")
        || n.ends_with("_ns");
    if lower {
        return Direction::LowerIsBetter;
    }
    let higher = [
        "throughput",
        "req_per",
        "iterations",
        "speedup",
        "fraction",
        "scaling",
        "norm",
    ]
    .iter()
    .any(|p| n.contains(p));
    if higher {
        return Direction::HigherIsBetter;
    }
    Direction::Informational
}

/// One compared measurement.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Source file name (e.g. `BENCH_fig5.json`).
    pub file: String,
    /// Measurement identity: metric plus rendered tags.
    pub key: String,
    /// Old value, if present and finite.
    pub old: Option<f64>,
    /// New value, if present and finite.
    pub new: Option<f64>,
    /// Gating direction.
    pub direction: Direction,
    /// Relative change `(new - old) / |old|`, when both sides exist and
    /// `old != 0`.
    pub rel: Option<f64>,
    /// Whether this measurement regressed beyond the threshold.
    pub regressed: bool,
}

/// Compares two documents row-by-row. `file` labels the deltas.
pub fn diff_docs(file: &str, old: &BenchDoc, new: &BenchDoc, threshold: f64) -> Vec<Delta> {
    let new_by_key: BTreeMap<String, &Row> = new.rows.iter().map(|r| (r.key(), r)).collect();
    let old_keys: std::collections::BTreeSet<String> = old.rows.iter().map(|r| r.key()).collect();
    let mut out = Vec::new();
    for row in &old.rows {
        let key = row.key();
        let direction = metric_direction(&row.metric);
        let newr = new_by_key.get(&key);
        let old_v = row.value;
        let new_v = newr.and_then(|r| r.value);
        let rel = match (old_v, new_v) {
            (Some(o), Some(n)) if o != 0.0 => Some((n - o) / o.abs()),
            _ => None,
        };
        let regressed = match (old_v, new_v) {
            // A measurement that disappeared always fails: silent
            // truncation must not read as "no change".
            (Some(_), None) => true,
            (None, _) => false,
            (Some(o), Some(n)) => match direction {
                Direction::Informational => false,
                Direction::HigherIsBetter => rel.is_some_and(|r| r < -threshold),
                // A perfect old value of exactly 0 (e.g. zero overhead)
                // has no relative scale: any rise off it regresses.
                Direction::LowerIsBetter => {
                    rel.is_some_and(|r| r > threshold) || (o == 0.0 && n > 0.0)
                }
            },
        };
        out.push(Delta {
            file: file.to_string(),
            key,
            old: old_v,
            new: new_v,
            direction,
            rel,
            regressed,
        });
    }
    // Brand-new measurements are fine — report them as informational.
    for row in &new.rows {
        let key = row.key();
        if !old_keys.contains(&key) {
            out.push(Delta {
                file: file.to_string(),
                key,
                old: None,
                new: row.value,
                direction: metric_direction(&row.metric),
                rel: None,
                regressed: false,
            });
        }
    }
    out
}

/// Compares every `BENCH_*.json` in `old_dir` against its counterpart in
/// `new_dir`. A document missing from `new_dir` fails (one synthetic
/// all-regressed delta); extra documents in `new_dir` are ignored (they
/// join the trajectory once committed).
pub fn diff_dirs(old_dir: &Path, new_dir: &Path, threshold: f64) -> Result<Vec<Delta>, String> {
    let mut names: Vec<String> = std::fs::read_dir(old_dir)
        .map_err(|e| format!("reading {}: {e}", old_dir.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json documents in {}",
            old_dir.display()
        ));
    }
    let mut out = Vec::new();
    for name in names {
        let old_text = std::fs::read_to_string(old_dir.join(&name))
            .map_err(|e| format!("reading {name}: {e}"))?;
        let old_doc = parse_document(&old_text).map_err(|e| format!("{name} (old): {e}"))?;
        let new_path = new_dir.join(&name);
        if !new_path.exists() {
            out.push(Delta {
                file: name.clone(),
                key: "<document>".into(),
                old: Some(old_doc.rows.len() as f64),
                new: None,
                direction: Direction::Informational,
                rel: None,
                regressed: true,
            });
            continue;
        }
        let new_text =
            std::fs::read_to_string(&new_path).map_err(|e| format!("reading {name}: {e}"))?;
        let new_doc = parse_document(&new_text).map_err(|e| format!("{name} (new): {e}"))?;
        out.extend(diff_docs(&name, &old_doc, &new_doc, threshold));
    }
    Ok(out)
}

/// Renders the delta table and verdict to stdout; returns whether any
/// measurement regressed.
pub fn print_report(deltas: &[Delta], threshold: f64) -> bool {
    println!(
        "{:<22} {:<46} {:>12} {:>12} {:>8}  verdict",
        "file", "measurement", "old", "new", "delta"
    );
    let mut regressions = 0usize;
    for d in deltas {
        let fmt_v = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.4}"));
        let rel = d
            .rel
            .map_or("-".to_string(), |r| format!("{:+.1}%", r * 100.0));
        let verdict = if d.regressed {
            regressions += 1;
            "REGRESSED"
        } else if d.rel.is_some_and(|r| {
            (d.direction == Direction::HigherIsBetter && r > threshold)
                || (d.direction == Direction::LowerIsBetter && r < -threshold)
        }) {
            "improved"
        } else {
            "ok"
        };
        println!(
            "{:<22} {:<46} {:>12} {:>12} {:>8}  {}",
            d.file,
            d.key,
            fmt_v(d.old),
            fmt_v(d.new),
            rel,
            verdict
        );
    }
    println!(
        "\n{} measurement(s), {} regression(s) beyond {:.0}%",
        deltas.len(),
        regressions,
        threshold * 100.0
    );
    regressions > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonSink;

    type RowSpec<'a> = (&'a str, f64, &'a [(&'a str, &'a str)]);

    fn doc(rows: &[RowSpec<'_>]) -> BenchDoc {
        // Render through the real sink and parse back, so the format stays
        // covered end to end. The path only enables the sink; nothing is
        // written.
        let mut sink = JsonSink::to_path("t", Some("unused.json".into()));
        for (m, v, tags) in rows {
            sink.record(m, *v, tags);
        }
        parse_document(&sink.render()).expect("parses")
    }

    /// Every metric name in the committed trajectory, with the direction
    /// the gate reads it in. A naming rule change must not silently flip
    /// (or ungate) a committed row; a new metric joins this table.
    #[test]
    fn committed_metrics_keep_their_direction() {
        use Direction::{HigherIsBetter as H, Informational as I, LowerIsBetter as L};
        let expected: BTreeMap<&str, Direction> = [
            ("admission_hp_p99_ms", L),
            ("admission_hp_run_p99_ms", L),
            ("admission_shed_count", I),
            ("be_norm_avg", H),
            ("completed_req_per_s", H),
            ("fleet_norm_throughput", H),
            ("hetero_blind_over_cost_p99", L),
            ("hetero_migration_stall_ms", L),
            ("hetero_migrations", I),
            ("hetero_victim_p99_ms", L),
            ("host_fleet_advance_ns", I),
            ("host_fleet_barriers", I),
            ("host_hub_events_per_s", I),
            ("host_ns_per_iter", I),
            ("host_threads", I),
            ("inference_time_ms", L),
            ("intercept_total_cost_us", L),
            ("ll_over_rr_worst_client", I),
            ("local_fraction", H),
            ("migrations", I),
            ("online_p99_ms", L),
            ("p99_ms", L),
            ("p99_overhead", L),
            ("p99_overhead_avg", L),
            ("peak_live_launches", L),
            ("phase_hp_p90_latency_ms", L),
            ("phase_ll_over_la_p90", I),
            ("phase_migrations", I),
            ("phase_p99_ms", L),
            ("phase_trainer_throughput", H),
            ("profile_cache_hit_ratio", I),
            ("profile_measurements", I),
            ("ptb_overhead_avg", L),
            ("retained_training_throughput", H),
            ("scaling_x", H),
            ("solo_latency_ms", L),
            ("solo_throughput_it_per_s", H),
            ("system_throughput", H),
            ("system_throughput_avg", H),
            ("total_req_per_min", H),
            ("trainer_attachments", I),
            ("trainer_iterations", H),
            ("trainer_throughput", H),
            ("turnaround_ms", L),
            ("virtualization_overhead", L),
            ("virtualization_overhead_avg", L),
            ("whole_run_p99_ms", L),
            ("work_engine_advances", L),
            ("work_fleet_barriers", L),
            ("work_observations_delivered", L),
            ("work_settle_passes", L),
            ("work_system_polls", L),
            ("work_timer_queries", L),
            ("worst_client_norm", H),
        ]
        .into_iter()
        .collect();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = 0;
        for entry in std::fs::read_dir(&root).expect("repository root") {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_string_lossy();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(root.join(&*name)).expect("readable");
            let doc = parse_document(&text).expect("committed document parses");
            for metric in doc.rows.iter().map(|r| r.metric.as_str()) {
                let want = expected
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name}: `{metric}` is not in the table"));
                assert_eq!(metric_direction(metric), *want, "{name}: {metric}");
            }
        }
        assert!(files > 0, "no committed BENCH_*.json found");
    }

    #[test]
    fn parses_sink_output() {
        let d = doc(&[
            ("p99_ms", 1.5, &[("system", "tally")]),
            ("throughput", 10.0, &[]),
        ]);
        assert_eq!(d.bench, "t");
        assert_eq!(d.rows.len(), 2);
        assert_eq!(d.rows[0].metric, "p99_ms");
        assert_eq!(d.rows[0].tags["system"], "tally");
        assert_eq!(d.rows[1].value, Some(10.0));
    }

    #[test]
    fn direction_inference() {
        assert_eq!(metric_direction("p99_ms"), Direction::LowerIsBetter);
        assert_eq!(metric_direction("phase_p99_ms"), Direction::LowerIsBetter);
        assert_eq!(metric_direction("p99_overhead"), Direction::LowerIsBetter);
        assert_eq!(
            metric_direction("fleet_throughput"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            metric_direction("total_req_per_min"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            metric_direction("trainer_iterations"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            metric_direction("trainer_attachments"),
            Direction::Informational
        );
        assert_eq!(
            metric_direction("work_system_polls"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            metric_direction("work_iterations"),
            Direction::LowerIsBetter,
            "the work_ prefix wins over a throughput-flavoured name"
        );
    }

    #[test]
    fn identical_documents_pass() {
        let a = doc(&[("throughput", 10.0, &[("s", "x")]), ("p99_ms", 2.0, &[])]);
        let deltas = diff_docs("f", &a, &a, DEFAULT_THRESHOLD);
        assert!(deltas.iter().all(|d| !d.regressed));
    }

    #[test]
    fn throughput_drop_regresses() {
        let old = doc(&[("throughput", 10.0, &[])]);
        let new = doc(&[("throughput", 8.0, &[])]); // -20%
        let deltas = diff_docs("f", &old, &new, DEFAULT_THRESHOLD);
        assert!(deltas.iter().any(|d| d.regressed), "{deltas:?}");
        // …but a 20% drop is fine under a 30% threshold.
        let deltas = diff_docs("f", &old, &new, 0.30);
        assert!(deltas.iter().all(|d| !d.regressed));
    }

    #[test]
    fn p99_rise_regresses_and_drop_improves() {
        let old = doc(&[("p99_ms", 2.0, &[])]);
        let worse = doc(&[("p99_ms", 2.5, &[])]); // +25%
        let better = doc(&[("p99_ms", 1.0, &[])]);
        assert!(diff_docs("f", &old, &worse, DEFAULT_THRESHOLD)
            .iter()
            .any(|d| d.regressed));
        assert!(diff_docs("f", &old, &better, DEFAULT_THRESHOLD)
            .iter()
            .all(|d| !d.regressed));
    }

    #[test]
    fn missing_measurement_regresses_but_new_ones_pass() {
        let old = doc(&[("throughput", 10.0, &[("s", "a")])]);
        let new = doc(&[("throughput", 10.0, &[("s", "b")])]);
        let deltas = diff_docs("f", &old, &new, DEFAULT_THRESHOLD);
        let dropped = deltas.iter().find(|d| d.key.contains("s=a")).unwrap();
        assert!(dropped.regressed, "dropped measurement must fail");
        let added = deltas.iter().find(|d| d.key.contains("s=b")).unwrap();
        assert!(!added.regressed, "new measurement must not fail");
    }

    #[test]
    fn sim_timings_gate_but_host_timings_do_not() {
        // Simulated-time metrics gate as lower-is-better…
        assert_eq!(metric_direction("ns_per_iter"), Direction::LowerIsBetter);
        let old = doc(&[("ns_per_iter", 1000.0, &[])]);
        let new = doc(&[("ns_per_iter", 1200.0, &[])]); // +20%
        assert!(diff_docs("f", &old, &new, DEFAULT_THRESHOLD)
            .iter()
            .any(|d| d.regressed));
        // …but host wall-clock is machine-dependent noise: never gated.
        assert_eq!(
            metric_direction("host_ns_per_iter"),
            Direction::Informational
        );
        let old = doc(&[("host_ns_per_iter", 1000.0, &[])]);
        let new = doc(&[("host_ns_per_iter", 5000.0, &[])]);
        assert!(diff_docs("f", &old, &new, DEFAULT_THRESHOLD)
            .iter()
            .all(|d| !d.regressed));
    }

    #[test]
    fn rise_off_a_zero_baseline_regresses_lower_is_better() {
        let old = doc(&[("virtualization_overhead", 0.0, &[])]);
        let worse = doc(&[("virtualization_overhead", 0.05, &[])]);
        assert!(diff_docs("f", &old, &worse, DEFAULT_THRESHOLD)
            .iter()
            .any(|d| d.regressed));
        // Staying at zero is fine.
        assert!(diff_docs("f", &old, &old, DEFAULT_THRESHOLD)
            .iter()
            .all(|d| !d.regressed));
    }

    #[test]
    fn informational_metrics_never_gate() {
        let old = doc(&[("trainer_attachments", 10.0, &[])]);
        let new = doc(&[("trainer_attachments", 1.0, &[])]);
        assert!(diff_docs("f", &old, &new, DEFAULT_THRESHOLD)
            .iter()
            .all(|d| !d.regressed));
    }

    #[test]
    fn json_reader_handles_escapes_and_nulls() {
        let v = parse_json(r#"{"a": "x\n\"y\"", "b": null, "c": [1, -2.5e1]}"#).unwrap();
        let Json::Obj(o) = v else { panic!() };
        assert_eq!(o["a"], Json::Str("x\n\"y\"".into()));
        assert_eq!(o["b"], Json::Null);
        assert_eq!(o["c"], Json::Arr(vec![Json::Num(1.0), Json::Num(-25.0)]));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} garbage").is_err());
    }
}
