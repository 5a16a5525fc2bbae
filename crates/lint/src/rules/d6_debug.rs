//! `D6-debug-fingerprint` — derived `Debug` must not expose interior
//! mutability (ARCHITECTURE rule D6: stable Debug fingerprints).
//!
//! Observer streams and telemetry exports format simulation structs with
//! `Debug`, and those strings are part of the byte-identical contract. A
//! `#[derive(Debug)]` on a struct holding a `Cell`/`RefCell`/atomic
//! cache prints whatever the cache happens to contain — memoized values
//! that depend on call history, or under parallel advancement on worker
//! timing. The fix is a manual `Debug` impl that prints the logical
//! state and skips the cache; the rule flags every derived-Debug item in
//! a simulation crate whose body names an interior-mutability type.

use super::{FileCtx, Rule};
use crate::lexer::{Tok, TokKind};
use crate::Finding;

pub struct D6DebugFingerprint;

pub(super) const INTERIOR_MUT: &[&str] = &[
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "OnceLock",
    "LazyLock",
    "Mutex",
    "RwLock",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
];

impl Rule for D6DebugFingerprint {
    fn id(&self) -> &'static str {
        "D6-debug-fingerprint"
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
            if let Some((derives_debug, after_attr)) = parse_derive(toks, i) {
                if derives_debug {
                    if let Some(bad) = item_names_interior_mut(toks, after_attr) {
                        out.push(Finding::new(
                            self.id(),
                            ctx.rel_path,
                            bad.line,
                            format!(
                                "derived `Debug` would print interior-mutable \
                                 `{}` state; implement `Debug` by hand and \
                                 format only logical fields",
                                bad.text
                            ),
                            self.doc_anchor(),
                        ));
                    }
                }
                i = after_attr;
            } else {
                i += 1;
            }
        }
    }
}

/// If `toks[i..]` starts a `#[derive(...)]` attribute, returns
/// (contains `Debug`, index just past the attribute).
fn parse_derive(toks: &[Tok], i: usize) -> Option<(bool, usize)> {
    if toks.get(i)?.text != "#" || toks.get(i + 1)?.text != "[" {
        return None;
    }
    if toks.get(i + 2)?.text != "derive" || toks.get(i + 3)?.text != "(" {
        return None;
    }
    let mut j = i + 4;
    let mut debug = false;
    let mut depth = 1i32;
    while j < toks.len() && depth > 0 {
        match toks[j].text.as_str() {
            "(" => depth += 1,
            ")" => depth -= 1,
            "Debug" if toks[j].kind == TokKind::Ident => debug = true,
            _ => {}
        }
        j += 1;
    }
    // Expect the attribute's closing `]`.
    if toks.get(j).is_some_and(|t| t.text == "]") {
        j += 1;
    }
    Some((debug, j))
}

/// Scans the item that follows an attribute (skipping further
/// attributes and visibility) and returns the first interior-mutability
/// type named inside its body, if any.
fn item_names_interior_mut(toks: &[Tok], mut i: usize) -> Option<Tok> {
    // Skip subsequent attributes `#[...]` and `pub`/`pub(crate)`.
    loop {
        match toks.get(i).map(|t| t.text.as_str()) {
            Some("#") if toks.get(i + 1).is_some_and(|t| t.text == "[") => {
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
            }
            Some("pub") => {
                i += 1;
                if toks.get(i).is_some_and(|t| t.text == "(") {
                    while i < toks.len() && toks[i].text != ")" {
                        i += 1;
                    }
                    i += 1;
                }
            }
            _ => break,
        }
    }
    // Only struct/enum/union bodies can hold fields.
    if !matches!(
        toks.get(i).map(|t| t.text.as_str()),
        Some("struct") | Some("enum") | Some("union")
    ) {
        return None;
    }
    // Find the body: the first `{` or `(` at generic-depth 0; a plain
    // `;` first means a unit struct (no fields, nothing to flag).
    let mut j = i + 1;
    let mut generics = 0i32;
    let (open, close) = loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "<" => generics += 1,
            ">" => generics -= 1,
            "{" if generics == 0 => break ("{", "}"),
            "(" if generics == 0 => break ("(", ")"),
            ";" if generics == 0 => return None,
            _ => {}
        }
        j += 1;
    };
    // Walk the body looking for interior-mutability type names.
    let mut depth = 0i32;
    let mut found: Option<Tok> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident
            && found.is_none()
            && INTERIOR_MUT.contains(&t.text.as_str())
        {
            found = Some(t.clone());
        }
        j += 1;
    }
    found
}
