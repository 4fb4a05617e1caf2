//! L4 — registry completeness. Cross-references the filesystem against the
//! detector factory, the property-test suite and the benchmark suite, so a
//! new detector or hot kernel cannot quietly ship half-wired.

use std::collections::BTreeSet;

use crate::lexer::{Tok, TokKind};
use crate::lints::Finding;
use crate::Workspace;

const DETECTOR_DIR: &str = "crates/core/src/detectors";
const DETECTOR_MOD: &str = "crates/core/src/detectors/mod.rs";
const PROPS: &str = "crates/core/tests/props.rs";
const BENCHES: &str = "crates/bench/benches/detectors.rs";

/// Performance-critical kernels that must stay covered by both a
/// property-test suite (equivalence with their batch reference) and a
/// criterion benchmark: `(identifier, declaring file, props file, bench
/// file)`. Presence is checked at the token level in all three files.
const KERNELS: &[(&str, &str, &str, &str)] = &[
    (
        "IncrementalPearson",
        "crates/stat/src/incremental.rs",
        "crates/stat/tests/props.rs",
        "crates/bench/benches/transforms.rs",
    ),
    (
        "IncrementalMean",
        "crates/stat/src/incremental.rs",
        "crates/stat/tests/props.rs",
        "crates/bench/benches/transforms.rs",
    ),
    (
        "WindowCadence",
        "crates/tsframe/src/transform.rs",
        "crates/tsframe/tests/props.rs",
        "crates/bench/benches/transforms.rs",
    ),
    (
        "par_map",
        "crates/core/src/par.rs",
        "crates/core/tests/props.rs",
        "crates/bench/benches/substrates.rs",
    ),
    (
        "Histogram",
        "crates/obs/src/metrics.rs",
        "crates/obs/tests/props.rs",
        "crates/bench/benches/substrates.rs",
    ),
    (
        "encode_ndjson",
        "crates/obs/src/event.rs",
        "crates/obs/tests/props.rs",
        "crates/bench/benches/substrates.rs",
    ),
    (
        "BatchedRecorder",
        "crates/obs/src/metrics.rs",
        "crates/obs/tests/props.rs",
        "crates/bench/benches/substrates.rs",
    ),
    (
        "fold_spans",
        "crates/obs/src/flame.rs",
        "crates/obs/tests/props.rs",
        "crates/bench/benches/substrates.rs",
    ),
    (
        "ReorderBuffer",
        "crates/ingest/src/reorder.rs",
        "crates/ingest/tests/props.rs",
        "crates/bench/benches/substrates.rs",
    ),
    (
        "ShardRouter",
        "crates/ingest/src/router.rs",
        "crates/ingest/tests/props.rs",
        "crates/bench/benches/substrates.rs",
    ),
];

fn finding(file: &str, line: u32, message: impl Into<String>) -> Finding {
    Finding { lint: "L4", file: file.to_string(), line, message: message.into() }
}

/// The (already lexed) tokens of a required workspace file.
fn toks<'a>(ws: &'a Workspace, rel: &str) -> Result<&'a [Tok], Finding> {
    ws.get(rel)
        .map(|f| f.lexed.toks.as_slice())
        .ok_or_else(|| finding(rel, 1, "required file is missing from the workspace"))
}

/// Stems of the `.rs` files directly inside `dir` (no recursion), from the
/// already-walked workspace file list.
fn dir_stems(ws: &Workspace, dir: &str) -> BTreeSet<String> {
    let prefix = format!("{dir}/");
    ws.files
        .iter()
        .filter_map(|f| f.rel.strip_prefix(&prefix))
        .filter(|rest| !rest.contains('/'))
        .filter_map(|name| name.strip_suffix(".rs"))
        .map(str::to_string)
        .collect()
}

/// All identifier texts in a token stream.
fn idents(toks: &[Tok]) -> BTreeSet<String> {
    toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone()).collect()
}

/// `mod name;` declarations with their lines.
fn mod_decls(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for w in toks.windows(3) {
        if w[0].is_ident("mod") && w[1].kind == TokKind::Ident && w[2].is_punct(";") {
            out.push((w[1].text.clone(), w[0].line));
        }
    }
    out
}

/// `pub struct <X>Detector` declarations with their lines.
fn detector_structs(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for w in toks.windows(3) {
        if w[0].is_ident("pub")
            && w[1].is_ident("struct")
            && w[2].kind == TokKind::Ident
            && w[2].text.ends_with("Detector")
        {
            out.push((w[2].text.clone(), w[2].line));
        }
    }
    out
}

/// The token range of `fn build`'s body in `mod.rs` (factory match).
fn build_body(toks: &[Tok]) -> Option<&[Tok]> {
    let start = toks.windows(2).position(|w| w[0].is_ident("fn") && w[1].is_ident("build"))?;
    let open = (start..toks.len()).find(|&i| toks[i].is_punct("{"))?;
    let mut depth = 0i32;
    for i in open..toks.len() {
        if toks[i].is_punct("{") {
            depth += 1;
        } else if toks[i].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(&toks[open..=i]);
            }
        }
    }
    None
}

/// Runs the registry-completeness checks over the loaded workspace.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();

    let mod_toks = match toks(ws, DETECTOR_MOD) {
        Ok(t) => t,
        Err(f) => return vec![f],
    };
    let declared: Vec<(String, u32)> = mod_decls(mod_toks);

    // 1. Filesystem <-> `mod` declarations, both directions.
    let mut files = dir_stems(ws, DETECTOR_DIR);
    files.remove("mod");
    if files.is_empty() {
        return vec![finding(DETECTOR_DIR, 1, "no detector modules found")];
    }
    for stem in &files {
        if !declared.iter().any(|(m, _)| m == stem) {
            out.push(finding(
                DETECTOR_MOD,
                1,
                format!("detector module `{stem}.rs` exists on disk but is not declared — add `mod {stem};`"),
            ));
        }
    }
    for (m, line) in &declared {
        if !files.contains(m) {
            out.push(finding(
                DETECTOR_MOD,
                *line,
                format!("`mod {m};` declared but `{m}.rs` is missing from {DETECTOR_DIR}"),
            ));
        }
    }

    // 2. Every detector type must be constructible from the factory and
    //    covered by the proptest + benchmark suites.
    let mut types: Vec<(String, String, u32)> = Vec::new(); // (type, decl file, line)
    for stem in &files {
        let rel = format!("{DETECTOR_DIR}/{stem}.rs");
        let file_toks = match toks(ws, &rel) {
            Ok(t) => t,
            Err(f) => {
                out.push(f);
                continue;
            }
        };
        let found = detector_structs(file_toks);
        if found.is_empty() {
            out.push(finding(
                &rel,
                1,
                "detector module defines no `pub struct *Detector` — either add one or move \
                 the helpers into the module that uses them",
            ));
        }
        for (name, line) in found {
            types.push((name, rel.clone(), line));
        }
    }

    let factory = build_body(mod_toks).map(idents).unwrap_or_default();
    if factory.is_empty() {
        out.push(finding(DETECTOR_MOD, 1, "no `fn build` factory found"));
    }
    let props = toks(ws, PROPS).map(idents).unwrap_or_default();
    let benches = toks(ws, BENCHES).map(idents).unwrap_or_default();

    for (ty, rel, line) in &types {
        if !factory.is_empty() && !factory.contains(ty) {
            out.push(finding(
                rel,
                *line,
                format!("`{ty}` is not constructed by `DetectorKind::build` in {DETECTOR_MOD} — every detector must be reachable from the factory"),
            ));
        }
        if !props.contains(ty) {
            out.push(finding(
                rel,
                *line,
                format!("`{ty}` has no property-test coverage in {PROPS}"),
            ));
        }
        if !benches.contains(ty) {
            out.push(finding(rel, *line, format!("`{ty}` is not benchmarked in {BENCHES}")));
        }
    }

    // 3. Every registered hot kernel must exist where declared and be
    //    referenced by its property-test and benchmark suites.
    for &(ident, decl, props_file, bench_file) in KERNELS {
        let declared_here = toks(ws, decl).map(|t| idents(t).contains(ident)).unwrap_or(false);
        if !declared_here {
            out.push(finding(
                decl,
                1,
                format!("registered kernel `{ident}` not found in {decl} — update the KERNELS registry in xtask"),
            ));
            continue;
        }
        for (rel, role) in [(props_file, "property-test"), (bench_file, "benchmark")] {
            let covered = toks(ws, rel).map(|t| idents(t).contains(ident)).unwrap_or(false);
            if !covered {
                out.push(finding(
                    decl,
                    1,
                    format!("kernel `{ident}` has no {role} coverage in {rel}"),
                ));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn extracts_mod_decls_and_detector_structs() {
        let toks = lex("mod kde;\npub mod x;\npub struct KdeDetector { }\nstruct Private;").toks;
        let mods: Vec<String> = mod_decls(&toks).into_iter().map(|(m, _)| m).collect();
        assert_eq!(mods, ["kde", "x"]);
        let structs: Vec<String> = detector_structs(&toks).into_iter().map(|(s, _)| s).collect();
        assert_eq!(structs, ["KdeDetector"]);
    }

    #[test]
    fn finds_build_body_only() {
        let src = "fn other() { A } impl K { pub fn build(&self) -> B { Box::new(KdeDetector::new()) } } fn after() { C }";
        let body = idents(build_body(&lex(src).toks).expect("has build"));
        assert!(body.contains("KdeDetector"));
        assert!(!body.contains("A"));
        assert!(!body.contains("C"));
    }

    #[test]
    fn live_tree_passes() {
        // The repo this xtask ships in must itself satisfy L4.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::load(&root).expect("workspace loads");
        let findings = check(&ws);
        assert!(
            findings.is_empty(),
            "registry drift:\n{}",
            findings
                .iter()
                .map(|f| format!("  {}:{} {}", f.file, f.line, f.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
