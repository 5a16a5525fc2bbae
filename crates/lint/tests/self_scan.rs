//! The linter eating its own dog food: the workspace this crate lives
//! in must scan clean. This is the same gate CI runs via the
//! `tally_lint` binary, expressed as a test so `cargo test` alone
//! catches a regression — a new HashMap in a scheduler, a wall-clock
//! read outside a `host_*` scope, a bare allow — without needing the
//! CI wiring.

use std::path::Path;

use tally_lint::scan_workspace;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
}

#[test]
fn workspace_scans_clean() {
    let report = scan_workspace(workspace_root()).expect("scan");

    // Sanity: the scan actually covered the tree (the workspace has
    // ~95 Rust files today and only ever grows).
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );

    assert!(
        report.findings.is_empty(),
        "unsuppressed findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{}: {}: {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_suppression_is_reasoned_and_used() {
    let report = scan_workspace(workspace_root()).expect("scan");

    // The engine refuses reasonless allows (they become findings), so
    // this is a belt-and-suspenders assertion on the records themselves.
    for s in &report.suppressions {
        assert!(
            !s.reason.is_empty(),
            "{}:{}: allow({}) without a reason",
            s.file,
            s.line,
            s.rule
        );
        // A suppression that stops matching anything is stale; keeping
        // the tree free of them is part of the gate in-repo (the CLI
        // only warns, so out-of-tree users can stage refactors).
        assert!(
            s.used,
            "{}:{}: allow({}) no longer suppresses anything — delete it",
            s.file, s.line, s.rule
        );
    }

    // The audit trail: the D1 exceptions documented in ARCHITECTURE.md
    // are present and accounted for, and no simulation crate carries a
    // hash container at all (the allow mechanism itself is covered by
    // the `allow_reasoned.rs` fixture).
    let d1 = report
        .suppressions
        .iter()
        .filter(|s| s.rule == "D1-float-schedule")
        .count();
    let d2 = report
        .suppressions
        .iter()
        .filter(|s| s.rule == "D2-unordered-iter")
        .count();
    assert!(d1 >= 1, "expected at least one reasoned D1 site");
    assert_eq!(d2, 0, "expected no D2 allows: use an ordered container");
}
