//! `D3-wall-clock` — the host clock must stay inside `host_*`
//! instrumentation scopes (ARCHITECTURE rule D3).
//!
//! `Instant::now()` / `SystemTime::now()` readings differ run to run, so
//! the moment one leaks into anything sim-observable, replay breaks.
//! They are still legitimate for measuring the *host* — wall-time
//! budgets in smoke tests, `host_*` throughput counters — so the rule
//! carves out exactly one shape of exemption: calls lexically inside a
//! function whose name starts with `host_`. That prefix is the same
//! marker the bench regression gates use to skip machine-dependent
//! metrics, which keeps "what the linter exempts" and "what CI ignores"
//! the same set by construction.
//!
//! This rule runs workspace-wide (not just sim crates): a wall-clock
//! read in the bench harness that feeds a non-`host_` metric is just as
//! much a reproducibility bug as one in the scheduler.

use super::{FileCtx, Rule};
use crate::lexer::TokKind;
use crate::Finding;

pub struct D3WallClock;

impl Rule for D3WallClock {
    fn id(&self) -> &'static str {
        "D3-wall-clock"
    }

    fn doc_anchor(&self) -> &'static str {
        "docs/ARCHITECTURE.md#determinism-rules"
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        let toks = ctx.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            // `Instant::now(` / `SystemTime::now(` call shapes. Matching
            // the full shape (rather than the bare type name) keeps
            // innocents like an enum variant named `Instant` or
            // `fn host_now() -> Instant` signatures out of scope.
            let is_clock_call = (t.text == "Instant" || t.text == "SystemTime")
                && toks.get(i + 1).is_some_and(|t| t.text == "::")
                && toks.get(i + 2).is_some_and(|t| t.text == "now");
            // `SystemTime` in a use statement is flagged even without a
            // call: there is no deterministic use of calendar time here.
            let is_systemtime_import = t.text == "SystemTime" && ctx.in_use(i);
            if (is_clock_call || is_systemtime_import) && !ctx.in_host_scope(t.line) {
                out.push(Finding::new(
                    self.id(),
                    ctx.rel_path,
                    t.line,
                    format!(
                        "`{}` outside a `host_*` function: wall-clock \
                         readings are machine state; wrap the read in a \
                         `host_*`-named scope feeding only host metrics",
                        t.text
                    ),
                    self.doc_anchor(),
                ));
            }
        }
    }
}
