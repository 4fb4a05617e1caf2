//! `xtask` — the workspace's static-analysis gate.
//!
//! Run as `cargo run -p xtask -- lint` (token-level lints L1–L7) and
//! `cargo run -p xtask -- analyze` (cross-function analyses L8–L11). Zero
//! external dependencies by design: the build environment is offline, and
//! the gate must never be the thing that fails to build.
//!
//! Lints (`lint`):
//!
//! | id | scope | rule |
//! |----|-------|------|
//! | L1 | all crate `src/` | NaN-unsafe `==`/`!=` against float literals/consts; `partial_cmp(..).unwrap()` |
//! | L2 | numeric crates' `src/` | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` outside tests |
//! | L3 | `hot_kernels` files | narrowing `as` casts |
//! | L4 | detector/kernel registries | factory, proptest, bench completeness |
//! | L5 | all scanned files | stale or unjustified `#[allow]` attributes |
//! | L6 | `hot_kernels` files | unchecked slice indexing |
//! | L7 | library `src/` (not cli/xtask/obs or `src/bin/`) | raw `print!`/`println!`/`eprint!`/`eprintln!` — route through `navarchos-obs` |
//!
//! Analyses (`analyze`, see [`analyses`]):
//!
//! | id  | scope | rule |
//! |-----|-------|------|
//! | L8  | all crate `src/` | metric/span names ↔ registry file, both directions |
//! | L9  | all crate `src/` | `Ordering::*` justification; Relaxed RMW is waiver-only |
//! | L10 | `kernel_roots` call graph | no allocation reachable from a registered kernel |
//! | L11 | `kernel_roots` call graph | no panic path reachable from a registered kernel |
//!
//! Findings are suppressed only by per-site entries in
//! `crates/xtask/lint-waivers.toml`; unused waivers are themselves errors,
//! and the `[[budget]]` ratchet makes the waiver count auditable, so the
//! debt ratchets down.

pub mod analyses;
pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod registry;
pub mod symbols;
pub mod waivers;

use std::path::{Path, PathBuf};

use lints::Finding;

/// Crates whose library code must hold the no-panic policy (L2): they run
/// inside long fleet-scoring loops where one poisoned sample must not abort
/// the whole experiment. `obs` is instrumentation on those same loops, so a
/// panic there would be just as fatal.
pub const NUMERIC_CRATES: &[&str] =
    &["stat", "tsframe", "neighbors", "core", "gbdt", "nnet", "obs"];

/// Lint ids adjudicated by `lint` (waivers for other ids are left to
/// `analyze` and vice versa, so each command judges staleness only for the
/// findings it can actually produce).
const LINT_IDS: &[&str] = &["L1", "L2", "L3", "L4", "L5", "L6", "L7"];
/// Lint ids adjudicated by `analyze`.
const ANALYZE_IDS: &[&str] = &["L8", "L9", "L10", "L11"];

/// Outcome of a full lint or analyze run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by a waiver, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Number of findings silenced by waivers.
    pub waived: usize,
    /// Errors about the waiver file itself (stale entries, parse problems,
    /// budget-ratchet violations).
    pub waiver_errors: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the gate passes.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.waiver_errors.is_empty()
    }
}

/// One source file, read and lexed exactly once per run and shared by every
/// lint and analysis (the lexer is the dominant per-file cost).
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Full token stream + comments.
    pub lexed: lexer::Lexed,
    /// Token stream with `#[cfg(test)]`/`#[test]` items removed.
    pub lib_toks: Vec<lexer::Tok>,
}

/// Every `.rs` file under `<root>/crates`, loaded once.
#[derive(Debug)]
pub struct Workspace {
    /// Loaded files in deterministic (sorted-walk) order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Reads and lexes the workspace rooted at `root`.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut paths = Vec::new();
        rust_files(&root.join("crates"), &mut paths);
        let mut files = Vec::with_capacity(paths.len());
        for path in &paths {
            let rel = rel(root, path);
            let src = std::fs::read_to_string(path).map_err(|e| format!("{rel}: {e}"))?;
            let lexed = lexer::lex(&src);
            let lib_toks = lints::strip_test_code(&lexed.toks);
            files.push(SourceFile { rel, lexed, lib_toks });
        }
        Ok(Workspace { files })
    }

    /// The file at a workspace-relative path, if loaded.
    pub fn get(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Collects every `.rs` file under `dir`, recursively, sorted for
/// deterministic output. Directories named `target` (build artifacts) and
/// `fixtures` (seeded-violation trees for the analyze golden tests) are
/// not part of the workspace.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = rd.flatten().collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "fixtures" {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative `/`-separated path.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The crate a `crates/<name>/...` path belongs to, if any.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/").and_then(|r| r.split('/').next())
}

/// True for library/binary source (as opposed to `tests/`, `benches/`,
/// `examples/` trees) — the scope of the metric-registry analysis and the
/// symbol index.
pub(crate) fn in_src(rel: &str) -> bool {
    rel.contains("/src/")
}

/// Applies the waivers whose lint id is in `scope` to `raw`, judging
/// staleness only inside that scope, and enforces the `[[budget]]` ratchet.
fn apply_waivers(
    raw: Vec<Finding>,
    waiver_file: &waivers::WaiverFile,
    scope: &[&str],
    report: &mut Report,
) {
    for w in &waiver_file.waivers {
        if !LINT_IDS.contains(&w.lint.as_str()) && !ANALYZE_IDS.contains(&w.lint.as_str()) {
            report.waiver_errors.push(format!(
                "waiver at lint-waivers.toml:{} names unknown lint `{}`",
                w.at_line, w.lint
            ));
        }
    }
    for f in raw {
        let waiver = waiver_file
            .waivers
            .iter()
            .find(|w| w.lint == f.lint && w.file == f.file && w.line == f.line);
        match waiver {
            Some(w) => {
                w.used.set(true);
                report.waived += 1;
            }
            None => report.findings.push(f),
        }
    }
    for w in &waiver_file.waivers {
        if scope.contains(&w.lint.as_str()) && !w.used.get() {
            report.waiver_errors.push(format!(
                "stale waiver at lint-waivers.toml:{} ({} {}:{}) — the finding no longer \
                 fires; delete the entry",
                w.at_line, w.lint, w.file, w.line
            ));
        }
    }

    // Waiver-count ratchet: the last [[budget]] entry must match the current
    // waiver population exactly, so adding (or removing) a waiver forces an
    // appended, justified budget line — the count cannot drift silently.
    let count = waiver_file.waivers.len();
    match waiver_file.budgets.last() {
        Some(b) if b.total as usize == count => {}
        Some(b) => report.waiver_errors.push(format!(
            "waiver budget out of date: {} waiver(s) present but the last [[budget]] entry \
             (lint-waivers.toml:{}) says {} — append a new [[budget]] with `total = {}` and a \
             reason for the change",
            count, b.at_line, b.total, count
        )),
        None if count > 0 => report.waiver_errors.push(format!(
            "{count} waiver(s) present but no [[budget]] entry — append one with \
             `total = {count}` and a reason justifying the debt"
        )),
        None => {}
    }

    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
}

/// Runs the token-level lints (L1–L7) over the workspace rooted at `root`,
/// applying the waiver file at `waiver_path`.
pub fn run_lint(root: &Path, waiver_path: &Path) -> Result<Report, String> {
    let mut report = Report::default();

    let waiver_text = std::fs::read_to_string(waiver_path)
        .map_err(|e| format!("{}: {e}", waiver_path.display()))?;
    let waiver_file = waivers::parse(&waiver_text).map_err(|e| e.to_string())?;
    let hot: Vec<&str> = waiver_file.config.hot_kernels.iter().map(String::as_str).collect();
    for h in &hot {
        if !root.join(h).is_file() {
            report
                .waiver_errors
                .push(format!("[config] hot_kernels lists `{h}` which does not exist"));
        }
    }

    let ws = Workspace::load(root)?;
    report.files_scanned = ws.files.len();

    let mut raw: Vec<Finding> = Vec::new();
    for file in &ws.files {
        let rel_path = &file.rel;
        let Some(krate) = crate_of(rel_path) else {
            continue;
        };
        let in_src = in_src(rel_path);
        let lib_toks = &file.lib_toks;

        let mut file_findings: Vec<Finding> = Vec::new();
        let mut scoped: Vec<&str> = Vec::new();
        if in_src {
            scoped.push("L1");
            file_findings.extend(lints::lint_float_cmp(rel_path, lib_toks));
        }
        if in_src && NUMERIC_CRATES.contains(&krate) {
            scoped.push("L2");
            file_findings.extend(lints::lint_panic_family(rel_path, lib_toks));
        }
        if hot.contains(&rel_path.as_str()) {
            scoped.push("L3");
            scoped.push("L6");
            file_findings.extend(lints::lint_lossy_casts(rel_path, lib_toks));
            file_findings.extend(lints::lint_unchecked_index(rel_path, lib_toks));
        }
        // L7: library code must not print; the user-facing binaries (cli,
        // per-crate `src/bin/` tools, xtask itself) and the obs sinks are
        // the only sanctioned writers of stdout/stderr.
        if in_src && !matches!(krate, "cli" | "xtask" | "obs") && !rel_path.contains("/src/bin/") {
            scoped.push("L7");
            file_findings.extend(lints::lint_print_macros(rel_path, lib_toks));
        }
        // L5 last: staleness is judged against this file's other findings.
        file_findings.extend(lints::lint_allow_audit(
            rel_path,
            &file.lexed,
            &file_findings,
            &scoped,
        ));
        raw.extend(file_findings);
    }

    raw.extend(registry::check(&ws));

    apply_waivers(raw, &waiver_file, LINT_IDS, &mut report);
    Ok(report)
}

/// Runs the cross-function analyses (L8–L11) over the workspace rooted at
/// `root`, applying the waiver file at `waiver_path`.
pub fn run_analyze(root: &Path, waiver_path: &Path) -> Result<Report, String> {
    let mut report = Report::default();

    let waiver_text = std::fs::read_to_string(waiver_path)
        .map_err(|e| format!("{}: {e}", waiver_path.display()))?;
    let waiver_file = waivers::parse(&waiver_text).map_err(|e| e.to_string())?;

    let ws = Workspace::load(root)?;
    report.files_scanned = ws.files.len();

    let mut raw: Vec<Finding> = Vec::new();

    // L8 — metric registry, both directions.
    match &waiver_file.config.metric_registry {
        None => report.waiver_errors.push(
            "[config] analyze requires `metric_registry = \"<path>\"` naming the metric \
             registry file"
                .to_string(),
        ),
        Some(reg_rel) => match std::fs::read_to_string(root.join(reg_rel)) {
            Err(e) => report.waiver_errors.push(format!("[config] metric_registry {reg_rel}: {e}")),
            Ok(text) => match analyses::parse_registry(&text) {
                Err(e) => report.waiver_errors.push(format!("{reg_rel}: {e}")),
                Ok(entries) => {
                    raw.extend(analyses::check_metric_registry(&ws.files, reg_rel, &entries));
                }
            },
        },
    }

    // L9 — atomic-ordering audit.
    for file in &ws.files {
        if in_src(&file.rel) {
            raw.extend(analyses::check_atomic_orderings(file));
        }
    }

    // L10/L11 — call-graph reachability from the registered kernel roots.
    // The symbol index covers library/binary source only: test helpers may
    // panic freely and must not shadow workspace names.
    let parsed: Vec<Vec<parser::FnItem>> = ws
        .files
        .iter()
        .map(|f| if in_src(&f.rel) { parser::parse_file(&f.lexed.toks) } else { Vec::new() })
        .collect();
    let idx = symbols::SymbolIndex::build(&parsed);
    let graph = callgraph::build(&idx, &parsed);
    let (kernel_findings, kernel_errors) = analyses::check_kernel_paths(
        &ws.files,
        &parsed,
        &idx,
        &graph,
        &waiver_file.config.kernel_roots,
    );
    raw.extend(kernel_findings);
    report.waiver_errors.extend(kernel_errors);

    apply_waivers(raw, &waiver_file, ANALYZE_IDS, &mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_parses_paths() {
        assert_eq!(crate_of("crates/stat/src/lib.rs"), Some("stat"));
        assert_eq!(crate_of("examples/src/main.rs"), None);
    }

    #[test]
    fn budget_ratchet_enforced() {
        let waiver_file = waivers::parse(
            "[[waiver]]\nlint = \"L9\"\nfile = \"a.rs\"\nline = 1\nreason = \"valid reason text\"\n",
        )
        .expect("parses");
        let raw = vec![Finding { lint: "L9", file: "a.rs".into(), line: 1, message: "m".into() }];
        let mut report = Report::default();
        apply_waivers(raw, &waiver_file, ANALYZE_IDS, &mut report);
        assert_eq!(report.waived, 1);
        assert_eq!(report.waiver_errors.len(), 1, "{:?}", report.waiver_errors);
        assert!(report.waiver_errors[0].contains("no [[budget]] entry"));
    }

    #[test]
    fn waivers_outside_scope_are_not_stale() {
        let waiver_file = waivers::parse(
            "[[waiver]]\nlint = \"L9\"\nfile = \"a.rs\"\nline = 1\nreason = \"valid reason text\"\n\
             [[budget]]\ntotal = 1\nreason = \"one waived L9 site\"\n",
        )
        .expect("parses");
        let mut report = Report::default();
        // Lint scope: the (unused) L9 waiver belongs to analyze, not lint.
        apply_waivers(Vec::new(), &waiver_file, LINT_IDS, &mut report);
        assert!(report.waiver_errors.is_empty(), "{:?}", report.waiver_errors);
        // Analyze scope with no matching finding: now it is stale.
        let mut report = Report::default();
        apply_waivers(Vec::new(), &waiver_file, ANALYZE_IDS, &mut report);
        assert_eq!(report.waiver_errors.len(), 1);
        assert!(report.waiver_errors[0].contains("stale waiver"));
    }

    #[test]
    fn unknown_lint_ids_in_waivers_error() {
        let waiver_file = waivers::parse(
            "[[waiver]]\nlint = \"L99\"\nfile = \"a.rs\"\nline = 1\nreason = \"valid reason text\"\n\
             [[budget]]\ntotal = 1\nreason = \"bogus id should error\"\n",
        )
        .expect("parses");
        let mut report = Report::default();
        apply_waivers(Vec::new(), &waiver_file, LINT_IDS, &mut report);
        assert!(report.waiver_errors.iter().any(|e| e.contains("unknown lint `L99`")));
    }
}
