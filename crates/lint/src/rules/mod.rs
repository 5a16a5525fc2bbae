//! The rule set.
//!
//! Every rule is *lexical*: it matches token shapes, not resolved types.
//! That is a deliberate trade — the determinism contract in
//! `docs/ARCHITECTURE.md` was written so that each clause has a
//! recognizable source-level fingerprint (a constructor name, a container
//! name, a `::now` call, a crate path), which keeps the analyzer
//! dependency-free, fast, and auditable. The cost is that a rule can be
//! fooled by shadowing (`type HashMap = BTreeMap<...>`); the suppression
//! mechanism exists for exactly those cases, and every suppression must
//! carry a human-readable justification.

use crate::lexer::{Tok, TokKind};
use crate::Finding;

pub mod d1_float;
pub mod d2_iter;
pub mod d3_wallclock;
pub mod d4_thread;
pub mod d5_entropy;
pub mod d6_debug;
pub mod l1_layering;

/// Which workspace unit a file belongs to, derived from its
/// repo-relative path. Units are the granularity at which rules scope
/// themselves and at which the layering DAG is expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// `crates/gpu-sim` — `tally_gpu`, the leaf device model.
    Gpu,
    /// `crates/ptx` — `tally_ptx`, the leaf kernel-IR passes.
    Ptx,
    /// `crates/core` — `tally_core`, scheduler and cluster.
    Core,
    /// `crates/workloads` — `tally_workloads`.
    Workloads,
    /// `crates/baselines` — `tally_baselines`.
    Baselines,
    /// `crates/bench` — `tally_bench`, harness + reporting.
    Bench,
    /// `crates/lint` — this crate.
    Lint,
    /// `src/` — the root `tally` facade crate.
    Facade,
    /// Root `tests/` and `examples/`: the integration surface, free to
    /// use every crate.
    Integration,
}

impl Unit {
    /// Classifies a repo-relative path (always `/`-separated).
    pub fn from_rel_path(rel: &str) -> Unit {
        if rel.starts_with("crates/gpu-sim/") {
            Unit::Gpu
        } else if rel.starts_with("crates/ptx/") {
            Unit::Ptx
        } else if rel.starts_with("crates/core/") {
            Unit::Core
        } else if rel.starts_with("crates/workloads/") {
            Unit::Workloads
        } else if rel.starts_with("crates/baselines/") {
            Unit::Baselines
        } else if rel.starts_with("crates/bench/") {
            Unit::Bench
        } else if rel.starts_with("crates/lint/") {
            Unit::Lint
        } else if rel.starts_with("src/") {
            Unit::Facade
        } else {
            Unit::Integration
        }
    }

    /// Whether simulation state is reachable from this unit — the scope
    /// of the determinism-critical rules D1/D2/D4/D6. The bench harness,
    /// facade, and integration tests *observe* the simulation through
    /// its deterministic report surface; they hold no sim state of their
    /// own, so hash-ordered scratch maps there cannot perturb outputs.
    pub fn is_sim(self) -> bool {
        matches!(
            self,
            Unit::Gpu | Unit::Core | Unit::Workloads | Unit::Baselines
        )
    }

    /// The unit's own crate identifier as it appears in paths.
    pub fn crate_ident(self) -> &'static str {
        match self {
            Unit::Gpu => "tally_gpu",
            Unit::Ptx => "tally_ptx",
            Unit::Core => "tally_core",
            Unit::Workloads => "tally_workloads",
            Unit::Baselines => "tally_baselines",
            Unit::Bench => "tally_bench",
            Unit::Lint => "tally_lint",
            Unit::Facade => "tally",
            Unit::Integration => "",
        }
    }

    /// Workspace crates this unit may name in paths, per the crate DAG in
    /// `docs/ARCHITECTURE.md#crate-map`. The unit's own ident is always
    /// implicitly allowed.
    pub fn allowed_deps(self) -> &'static [&'static str] {
        match self {
            Unit::Gpu | Unit::Ptx => &[],
            Unit::Core => &["tally_gpu"],
            Unit::Workloads | Unit::Baselines => &["tally_gpu", "tally_core"],
            Unit::Bench => &[
                "tally_gpu",
                "tally_ptx",
                "tally_core",
                "tally_workloads",
                "tally_baselines",
            ],
            // The analyzer links only the reporting surface of the
            // harness; depending on simulation crates would make the
            // linter part of the thing it checks.
            Unit::Lint => &["tally_bench"],
            // The facade re-exports the five library crates and uses the
            // harness from dev-dependencies (doc tests).
            Unit::Facade => &[
                "tally_gpu",
                "tally_ptx",
                "tally_core",
                "tally_workloads",
                "tally_baselines",
                "tally_bench",
            ],
            Unit::Integration => &[
                "tally",
                "tally_gpu",
                "tally_ptx",
                "tally_core",
                "tally_workloads",
                "tally_baselines",
                "tally_bench",
                "tally_lint",
            ],
        }
    }
}

/// Everything a rule gets to look at for one file.
pub struct FileCtx<'a> {
    /// Repo-relative `/`-separated path.
    pub rel_path: &'a str,
    /// The unit the file belongs to.
    pub unit: Unit,
    /// The code tokens (comments and string contents already stripped).
    pub toks: &'a [Tok],
    /// Token-index ranges `[start, end)` covering `use`/`extern crate`
    /// statements, including the closing `;`.
    pub use_spans: Vec<(usize, usize)>,
    /// Inclusive line ranges of function bodies whose names start with
    /// `host_` — the sanctioned wall-clock instrumentation scopes.
    pub host_scopes: Vec<(u32, u32)>,
}

impl<'a> FileCtx<'a> {
    pub fn new(rel_path: &'a str, toks: &'a [Tok]) -> FileCtx<'a> {
        FileCtx {
            rel_path,
            unit: Unit::from_rel_path(rel_path),
            use_spans: use_spans(toks),
            host_scopes: host_scopes(toks),
            toks,
        }
    }

    /// Whether token index `i` falls inside a `use`/`extern crate` span.
    pub fn in_use(&self, i: usize) -> bool {
        self.use_spans.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Whether a source line is inside a `host_*` function body.
    pub fn in_host_scope(&self, line: u32) -> bool {
        self.host_scopes
            .iter()
            .any(|&(s, e)| line >= s && line <= e)
    }
}

/// One named rule. `check` pushes raw findings; the engine applies
/// suppressions afterwards.
pub trait Rule {
    /// Stable identifier, e.g. `D2-unordered-iter`. This is what allow
    /// comments name.
    fn id(&self) -> &'static str;
    /// Anchor into `docs/ARCHITECTURE.md` documenting the contract
    /// clause this rule enforces.
    fn doc_anchor(&self) -> &'static str;
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>);
}

/// The full rule set, in report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(d1_float::D1Float),
        Box::new(d2_iter::D2UnorderedIter),
        Box::new(d3_wallclock::D3WallClock),
        Box::new(d4_thread::D4ThreadIdentity),
        Box::new(d5_entropy::D5Entropy),
        Box::new(d6_debug::D6DebugFingerprint),
        Box::new(l1_layering::L1Layering),
    ]
}

/// True if `id` names a rule in [`all_rules`]. Used to reject allow
/// comments that name rules which don't exist (finding `A1`).
pub fn is_known_rule(id: &str) -> bool {
    all_rules().iter().any(|r| r.id() == id)
}

/// Computes the token spans of `use ...;` and `extern crate ...;`
/// statements. Statement position is approximated as "`use` not preceded
/// by `.` or `::`", which is exact for rustc-accepted code (there is no
/// `.use` and `::use` is not a path segment).
fn use_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let starts = t.kind == TokKind::Ident
            && (t.text == "use" || (t.text == "extern" && next_is(toks, i + 1, "crate")))
            && !prev_is_path(toks, i);
        if starts {
            let mut j = i + 1;
            while j < toks.len() && toks[j].text != ";" {
                j += 1;
            }
            spans.push((i, (j + 1).min(toks.len())));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

fn next_is(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

pub(crate) fn prev_is_path(toks: &[Tok], i: usize) -> bool {
    i > 0 && matches!(toks[i - 1].text.as_str(), "." | "::")
}

/// Finds `fn host_*` bodies and returns their inclusive line ranges.
///
/// The `host_` name prefix is the repo's marker for machine-dependent
/// instrumentation (ARCHITECTURE rule D3): wall-clock reads are legal
/// only inside these scopes, and whatever they feed must itself be a
/// `host_*`-named metric, which the bench regression gates already skip.
fn host_scopes(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut scopes = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "fn"
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("host_"))
        {
            // Skip to the body's opening brace. Signatures contain no
            // `{`, so the first one after the name is the body.
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "{" {
                let start_line = toks[i].line;
                let mut depth = 0i32;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let end_line = toks.get(j).map_or(start_line, |t| t.line);
                scopes.push((start_line, end_line));
                i = j;
            }
        }
        i += 1;
    }
    scopes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn unit_classification() {
        assert_eq!(Unit::from_rel_path("crates/core/src/sched.rs"), Unit::Core);
        assert_eq!(Unit::from_rel_path("src/lib.rs"), Unit::Facade);
        assert_eq!(
            Unit::from_rel_path("tests/parallel_determinism.rs"),
            Unit::Integration
        );
        assert_eq!(
            Unit::from_rel_path("examples/quickstart.rs"),
            Unit::Integration
        );
        assert!(Unit::Core.is_sim());
        assert!(!Unit::Bench.is_sim());
    }

    #[test]
    fn use_spans_cover_whole_statements() {
        let (toks, _) = lex("use std::collections::BTreeMap;\nfn f() { a.use_count(); }");
        let ctx = FileCtx::new("src/x.rs", &toks);
        assert_eq!(ctx.use_spans.len(), 1);
        // `use_count` must not open a span: the method call is not a use.
        let (s, e) = ctx.use_spans[0];
        assert_eq!(toks[s].text, "use");
        assert_eq!(toks[e - 1].text, ";");
    }

    #[test]
    fn host_scope_lines() {
        let src = "fn host_now() -> Instant {\n    Instant::now()\n}\nfn other() {}\n";
        let (toks, _) = lex(src);
        let ctx = FileCtx::new("src/x.rs", &toks);
        assert_eq!(ctx.host_scopes, vec![(1, 3)]);
        assert!(ctx.in_host_scope(2));
        assert!(!ctx.in_host_scope(4));
    }
}
