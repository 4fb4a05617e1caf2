//! Golden tests for `xtask analyze` (L8–L11).
//!
//! Two layers: the checked-in workspace must analyze clean with the
//! checked-in waiver file (the live gate), and each seeded-violation
//! fixture under `crates/xtask/fixtures/` must fire exactly its lint while
//! the `clean` fixture stays quiet. The fixtures are what CI runs the
//! release binary against, so a resolution regression that silently stops
//! finding violations fails here first.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run_fixture(name: &str) -> xtask::Report {
    let root = repo_root().join("crates/xtask/fixtures").join(name);
    let waivers = root.join("waivers.toml");
    xtask::run_analyze(&root, &waivers).unwrap_or_else(|e| panic!("fixture {name} must run: {e}"))
}

fn rendered(report: &xtask::Report) -> Vec<String> {
    report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.lint, f.message))
        .collect()
}

#[test]
fn workspace_analyzes_clean_with_checked_in_waivers() {
    let root = repo_root();
    let waivers = root.join("crates/xtask/lint-waivers.toml");
    let report = xtask::run_analyze(&root, &waivers).expect("analyze run must not error");

    assert!(
        report.waiver_errors.is_empty(),
        "waiver file problems:\n{}",
        report.waiver_errors.join("\n")
    );
    let lines = rendered(&report);
    assert!(
        lines.is_empty(),
        "xtask analyze found {} unwaived finding(s) on the current tree:\n{}",
        lines.len(),
        lines.join("\n")
    );
    // The relaxed-RMW metric sites are waiver-only debt; if this drops to
    // zero the waiver file and this floor should shrink together.
    assert!(report.waived >= 8, "expected the waived RMW sites, saw {}", report.waived);
    assert!(report.files_scanned > 50, "walker saw only {} files", report.files_scanned);
}

#[test]
fn clean_fixture_is_quiet() {
    let report = run_fixture("clean");
    assert!(report.clean(), "clean fixture must pass:\n{}", rendered(&report).join("\n"));
    assert_eq!(report.findings.len(), 0);
    assert_eq!(report.waiver_errors.len(), 0);
}

#[test]
fn l8_fixture_fires_both_directions() {
    let report = run_fixture("l8");
    let lines = rendered(&report);
    assert!(!report.clean());
    assert!(
        lines.iter().any(|l| l.contains("[L8]") && l.contains("demo.recrods")),
        "unregistered mint not reported:\n{}",
        lines.join("\n")
    );
    assert!(
        lines.iter().any(|l| l.contains("[L8]") && l.contains("never created")),
        "unused registry entry not reported:\n{}",
        lines.join("\n")
    );
    assert!(lines.iter().all(|l| l.contains("[L8]")), "only L8 may fire:\n{}", lines.join("\n"));
}

#[test]
fn l9_fixture_fires_on_relaxed_rmw() {
    let report = run_fixture("l9");
    let lines = rendered(&report);
    assert_eq!(lines.len(), 1, "{}", lines.join("\n"));
    assert!(lines[0].contains("[L9]"));
    assert!(lines[0].contains("fetch_add"));
}

#[test]
fn l10_fixture_reports_the_full_allocation_path() {
    let report = run_fixture("l10");
    let lines = rendered(&report);
    assert_eq!(lines.len(), 1, "{}", lines.join("\n"));
    assert!(lines[0].contains("[L10]"));
    assert!(lines[0].contains("Kern::step → relay → describe"), "path missing from: {}", lines[0]);
    assert!(lines[0].contains("format!"));
}

#[test]
fn l11_fixture_reports_the_full_panic_path() {
    let report = run_fixture("l11");
    let lines = rendered(&report);
    assert_eq!(lines.len(), 1, "{}", lines.join("\n"));
    assert!(lines[0].contains("[L11]"));
    assert!(lines[0].contains("Kern::step → relay → pick"), "path missing from: {}", lines[0]);
    assert!(lines[0].contains(".unwrap()"));
}
