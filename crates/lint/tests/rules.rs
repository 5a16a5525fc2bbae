//! Fixture tests: every rule must fire on its known-bad fixture and
//! stay quiet on the known-good twin, under the unit scoping the rule
//! declares. Fixtures live in `tests/fixtures/` — a directory the
//! workspace scanner skips by name, since the corpus is deliberately
//! full of violations.

use tally_lint::lint_source;

/// Lints fixture text as if it lived at `rel_path`.
fn lint(rel_path: &str, src: &str) -> tally_lint::FileReport {
    lint_source(rel_path, src)
}

/// Rule IDs of the unsuppressed findings, deduplicated in order.
fn rules_hit(report: &tally_lint::FileReport) -> Vec<&str> {
    let mut seen = Vec::new();
    for f in &report.findings {
        if !seen.contains(&f.rule.as_str()) {
            seen.push(f.rule.as_str());
        }
    }
    seen
}

const SIM_PATH: &str = "crates/core/src/fixture.rs";

#[test]
fn d1_fires_on_float_schedule_and_not_on_integral() {
    let bad = lint(SIM_PATH, include_str!("fixtures/d1_bad.rs"));
    assert_eq!(rules_hit(&bad), ["D1-float-schedule"]);
    assert_eq!(bad.findings[0].line, 5);
    assert!(bad.findings[0].doc.contains("#determinism-rules"));

    let good = lint(SIM_PATH, include_str!("fixtures/d1_good.rs"));
    assert!(good.findings.is_empty(), "{:?}", good.findings);
}

#[test]
fn d2_fires_on_hash_containers_and_not_on_btree() {
    let bad = lint(SIM_PATH, include_str!("fixtures/d2_bad.rs"));
    assert_eq!(rules_hit(&bad), ["D2-unordered-iter"]);
    // Both the import and the field type are flagged.
    assert!(bad.findings.len() >= 2, "{:?}", bad.findings);

    let good = lint(SIM_PATH, include_str!("fixtures/d2_good.rs"));
    assert!(good.findings.is_empty(), "{:?}", good.findings);
}

#[test]
fn d2_is_scoped_to_sim_crates() {
    // The same hash-container code is legal in the bench harness and on
    // the integration surface: no sim state is reachable from there.
    for path in ["crates/bench/src/fixture.rs", "tests/fixture.rs"] {
        let r = lint(path, include_str!("fixtures/d2_bad.rs"));
        assert!(r.findings.is_empty(), "{path}: {:?}", r.findings);
    }
}

#[test]
fn d3_fires_outside_host_scopes_only() {
    // D3 is workspace-wide: the bench harness is in scope too.
    let bad = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/d3_bad.rs"),
    );
    assert_eq!(rules_hit(&bad), ["D3-wall-clock"]);

    // The identical body inside `fn host_latency_ns` is the sanctioned
    // instrumentation shape.
    let good = lint(SIM_PATH, include_str!("fixtures/d3_good.rs"));
    assert!(good.findings.is_empty(), "{:?}", good.findings);
}

#[test]
fn d4_fires_on_thread_identity_and_not_on_scoped_parallelism() {
    let bad = lint(SIM_PATH, include_str!("fixtures/d4_bad.rs"));
    assert_eq!(rules_hit(&bad), ["D4-thread-identity"]);
    // Both the thread_local! storage and thread::current() are hits.
    assert!(bad.findings.len() >= 2, "{:?}", bad.findings);

    let good = lint(SIM_PATH, include_str!("fixtures/d4_good.rs"));
    assert!(good.findings.is_empty(), "{:?}", good.findings);
}

#[test]
fn d5_fires_on_ambient_entropy_and_not_on_seeded_rng() {
    let bad = lint(SIM_PATH, include_str!("fixtures/d5_bad.rs"));
    assert_eq!(rules_hit(&bad), ["D5-entropy"]);
    // RandomState (twice), rand::, thread_rng.
    assert!(bad.findings.len() >= 3, "{:?}", bad.findings);

    let good = lint(SIM_PATH, include_str!("fixtures/d5_good.rs"));
    assert!(good.findings.is_empty(), "{:?}", good.findings);
}

#[test]
fn d6_fires_on_derived_debug_over_interior_mutability() {
    let bad = lint(SIM_PATH, include_str!("fixtures/d6_bad.rs"));
    assert_eq!(rules_hit(&bad), ["D6-debug-fingerprint"]);

    // Same fields, manual Debug impl printing logical state: clean.
    let good = lint(SIM_PATH, include_str!("fixtures/d6_good.rs"));
    assert!(good.findings.is_empty(), "{:?}", good.findings);
}

#[test]
fn d7_fires_on_interior_mutable_statics_and_not_on_plain_ones() {
    let bad = lint(SIM_PATH, include_str!("fixtures/d7_bad.rs"));
    assert_eq!(rules_hit(&bad), ["D7-global-state"]);
    // The counter and the cache, each at its `static`.
    let lines: Vec<u32> = bad.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [7, 9], "{:?}", bad.findings);

    let good = lint(SIM_PATH, include_str!("fixtures/d7_good.rs"));
    assert!(good.findings.is_empty(), "{:?}", good.findings);

    // Outside the simulation crates a global holds no sim state.
    let bench = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/d7_bad.rs"),
    );
    assert!(bench.findings.is_empty(), "{:?}", bench.findings);
}

#[test]
fn l1_fires_on_dag_inversions_and_not_on_legal_edges() {
    let bad = lint(SIM_PATH, include_str!("fixtures/l1_bad.rs"));
    assert_eq!(rules_hit(&bad), ["L1-layering"]);
    // use tally_bench, use tally_ptx, use tally_workloads, and the
    // inline path root.
    assert!(bad.findings.len() >= 4, "{:?}", bad.findings);

    let good = lint(SIM_PATH, include_str!("fixtures/l1_good.rs"));
    assert!(good.findings.is_empty(), "{:?}", good.findings);
}

#[test]
fn l1_allows_everything_on_the_integration_surface() {
    let r = lint("tests/fixture.rs", include_str!("fixtures/l1_bad.rs"));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn reasoned_allow_suppresses_and_is_marked_used() {
    let r = lint(SIM_PATH, include_str!("fixtures/allow_reasoned.rs"));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressions.len(), 1);
    let s = &r.suppressions[0];
    assert!(s.used);
    assert_eq!(s.rule, "D2-unordered-iter");
    // The wrapped continuation line is part of the reason.
    assert!(s.reason.contains("hash order is unobservable"));
    assert!(s.end_line > s.line);
}

#[test]
fn bare_allow_is_a_finding_and_suppresses_nothing() {
    let r = lint(SIM_PATH, include_str!("fixtures/allow_bare.rs"));
    let rules = rules_hit(&r);
    assert!(rules.contains(&"A0-allow-without-reason"), "{rules:?}");
    assert!(rules.contains(&"D2-unordered-iter"), "{rules:?}");
    // Neither malformed directive registers as a suppression.
    assert!(r.suppressions.is_empty(), "{:?}", r.suppressions);
}

#[test]
fn unknown_rule_in_allow_is_a_finding() {
    let r = lint(SIM_PATH, include_str!("fixtures/allow_unknown.rs"));
    let rules = rules_hit(&r);
    assert!(rules.contains(&"A1-unknown-rule"), "{rules:?}");
    assert!(rules.contains(&"D2-unordered-iter"), "{rules:?}");
}

#[test]
fn allows_in_doc_comments_grant_nothing() {
    let src = "\
/// tally-lint: allow(D2-unordered-iter) -- doc comments don't count.
use std::collections::HashMap;
pub type T = HashMap<u64, u64>;
";
    let r = lint(SIM_PATH, src);
    assert_eq!(rules_hit(&r), ["D2-unordered-iter"]);
    assert!(r.suppressions.is_empty());
}

#[test]
fn rule_names_in_strings_and_comments_do_not_fire() {
    let src = "\
// A comment mentioning HashMap and Instant::now is not code.
pub fn describe() -> &'static str {
    \"uses HashMap, SystemTime::now, thread_rng internally (not really)\"
}
";
    let r = lint(SIM_PATH, src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn unused_allow_is_reported_but_not_an_error() {
    let src = "\
// tally-lint: allow(D2-unordered-iter) -- stale: the map became a BTreeMap.
use std::collections::BTreeMap;
pub type T = BTreeMap<u64, u64>;
";
    let r = lint(SIM_PATH, src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressions.len(), 1);
    assert!(!r.suppressions[0].used);
}
