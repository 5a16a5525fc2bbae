//! `D7-global-state` — no process-global mutable state in simulation
//! crates (ARCHITECTURE rule D7: a run depends only on what it builds).
//!
//! A `static` holding an atomic, a lock or a cell carries state from one
//! run into the next: a counter that numbers objects makes the second
//! build of a workload differ from the first, and a lazily filled cache
//! makes a result depend on what ran before it in the process. The rule
//! flags every `static` item in a simulation crate whose type names one
//! of D6's interior-mutability types. Per-run state belongs in the
//! structs a run builds.

use super::d6_debug::INTERIOR_MUT;
use super::{FileCtx, Rule};
use crate::lexer::TokKind;
use crate::Finding;

pub struct D7GlobalState;

impl Rule for D7GlobalState {
    fn id(&self) -> &'static str {
        "D7-global-state"
    }

    fn doc_anchor(&self) -> &'static str {
        "docs/ARCHITECTURE.md#determinism-rules"
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !ctx.unit.is_sim() {
            return;
        }
        let toks = ctx.toks;
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            i += 1;
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text == "thread_local" {
                // Per-thread statics are D4's finding: skip the macro body.
                i = past_group(toks, i);
                continue;
            }
            if t.text != "static" {
                continue;
            }
            // The type runs from the item's `:` to its `=` or `;`.
            let Some(colon) = (i..toks.len()).find(|&j| toks[j].text == ":") else {
                continue;
            };
            let bad = toks[colon + 1..]
                .iter()
                .take_while(|t| t.text != "=" && t.text != ";")
                .find(|t| t.kind == TokKind::Ident && INTERIOR_MUT.contains(&t.text.as_str()));
            if let Some(bad) = bad {
                out.push(Finding::new(
                    self.id(),
                    ctx.rel_path,
                    t.line,
                    format!(
                        "`static` of interior-mutable `{}` is process-global \
                         state; keep it in the structs a run builds",
                        bad.text
                    ),
                    self.doc_anchor(),
                ));
            }
        }
    }
}

/// The index just past the first bracketed group at or after `i`.
fn past_group(toks: &[crate::lexer::Tok], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}
