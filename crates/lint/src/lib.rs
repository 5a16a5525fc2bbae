//! `tally_lint` — workspace-aware static analysis for the determinism
//! and layering contract.
//!
//! `docs/ARCHITECTURE.md` promises that every report, observer stream,
//! and telemetry export is byte-identical across runs, machines, and
//! worker-thread counts. That promise is easy to state and easy to
//! erode: one `HashMap` iteration in a scheduler, one `Instant::now()`
//! feeding a metric, one `thread_local` cache, and replay silently
//! breaks — usually long after the commit that broke it. This crate
//! turns the contract's clauses into mechanically-checked rules and runs
//! as a CI gate (warnings are errors there):
//!
//! | rule | enforces |
//! |------|----------|
//! | `D1-float-schedule`    | floats enter sim time only via reasoned sites |
//! | `D2-unordered-iter`    | no hash-ordered containers in sim crates |
//! | `D3-wall-clock`        | wall clock only inside `host_*` scopes |
//! | `D4-thread-identity`   | no thread identity in sim paths |
//! | `D5-entropy`           | all randomness from seeded `tally_gpu::rng` |
//! | `D6-debug-fingerprint` | no interior mutability behind derived `Debug` |
//! | `D7-global-state`      | no interior-mutable `static`s in sim crates |
//! | `L1-layering`          | crate imports follow the architecture DAG |
//!
//! False positives are acknowledged, not silenced: a finding is
//! suppressed by an inline comment on the same or preceding line —
//!
//! ```text
//! // tally-lint: allow(D2-unordered-iter) -- pure id->slot lookup, never iterated
//! ```
//!
//! — and the `--` reason is mandatory (a bare allow is finding
//! `A0-allow-without-reason`; naming a nonexistent rule is
//! `A1-unknown-rule`). Every suppression in the tree is listed in the
//! report's summary table, so the full set of granted exceptions is one
//! `tally_lint --workspace` away at all times.
//!
//! The analysis is token-level by design — see [`rules`] for the
//! trade-offs — which keeps this crate std-only, offline, and fast
//! enough (single-digit milliseconds for the whole workspace) that
//! there is no reason not to run it on every build.

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use engine::{lint_source, scan_workspace};

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`D2-unordered-iter`, ..., or the meta rules
    /// `A0-allow-without-reason` / `A1-unknown-rule`).
    pub rule: String,
    /// Repo-relative `/`-separated path.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description of the violation and the fix.
    pub message: String,
    /// Link into the documentation for the contract clause.
    pub doc: String,
}

impl Finding {
    pub fn new(rule: &str, file: &str, line: u32, message: String, doc: &str) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message,
            doc: doc.to_string(),
        }
    }
}

/// One well-formed `tally-lint: allow(...)` directive found in source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    pub file: String,
    /// 1-based line where the allow directive starts.
    pub line: u32,
    /// Last line of the comment block: a directive may wrap over
    /// several consecutive `//` lines (rustfmt does this), and the
    /// continuation lines extend both the reason text and the coverage.
    /// The allow covers findings of `rule` on lines
    /// `line ..= end_line + 1`.
    pub end_line: u32,
    pub rule: String,
    /// The mandatory justification after `--`.
    pub reason: String,
    /// Whether the allow actually suppressed a finding in this run.
    /// Unused suppressions are surfaced in the summary table but are
    /// not errors.
    pub used: bool,
}

/// Lint result for a single file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that no suppression covered.
    pub findings: Vec<Finding>,
    /// Every well-formed suppression in the file, used or not.
    pub suppressions: Vec<Suppression>,
}

/// Aggregated result of a workspace scan.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of `.rs` files lexed and checked.
    pub files_scanned: usize,
    /// All unsuppressed findings, in (path, line) order.
    pub findings: Vec<Finding>,
    /// All suppressions, in (path, line) order.
    pub suppressions: Vec<Suppression>,
}

impl LintReport {
    /// The gate CI enforces: no unsuppressed findings anywhere.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}
