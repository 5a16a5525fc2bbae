//! `D2-unordered-iter` — no hash-ordered containers where iteration
//! order is observable (ARCHITECTURE rule D2: ordered containers).
//!
//! `HashMap`/`HashSet` iterate in an order that depends on the process's
//! hash seed, so any iteration that reaches scheduling decisions,
//! reports, or telemetry destroys byte-identical replay. Rather than
//! trying to prove which maps are iterated (a whole-program analysis),
//! the rule bans the types outright in simulation crates: `BTreeMap` /
//! `BTreeSet` are drop-in for the access patterns this codebase uses.
//! A genuinely lookup-only map may carry an allow, but its reason must
//! argue exactly that: every access is a keyed get/insert/remove and
//! nothing ever iterates the map. The workspace has no such site today.

use super::{FileCtx, Rule};
use crate::lexer::TokKind;
use crate::Finding;

pub struct D2UnorderedIter;

impl Rule for D2UnorderedIter {
    fn id(&self) -> &'static str {
        "D2-unordered-iter"
    }

    fn doc_anchor(&self) -> &'static str {
        "docs/ARCHITECTURE.md#determinism-rules"
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !ctx.unit.is_sim() {
            return;
        }
        for t in ctx.toks {
            if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                out.push(Finding::new(
                    self.id(),
                    ctx.rel_path,
                    t.line,
                    format!(
                        "`{}` in a simulation crate: iteration order is \
                         hash-seeded; use the BTree equivalent, or allow \
                         with a reason proving keyed access only",
                        t.text
                    ),
                    self.doc_anchor(),
                ));
            }
        }
    }
}
