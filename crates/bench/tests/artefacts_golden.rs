//! Golden test: every committed artefact under `results/` that does not
//! need the technique × transformation grid is regenerated in-process from
//! one paper fleet and compared byte for byte with the committed file.
//!
//! The grid artefacts (Figures 4–7, Table 1) take minutes, mostly TranAD;
//! CI's `artefacts` job covers them by running `reproduce_all` and diffing
//! `results/`. After an intended change to a paper output, regenerate with
//! `cargo run --release -p navarchos-bench --bin reproduce_all` and commit
//! the new files.

use std::path::Path;

use navarchos_bench::artefacts::{Inputs, ARTEFACTS};
use navarchos_bench::experiments::paper_fleet;

/// The first line at which `committed` and `regenerated` differ, rendered
/// for a failure message.
fn first_difference(committed: &str, regenerated: &str) -> String {
    let mut want = committed.lines();
    let mut got = regenerated.lines();
    for n in 1.. {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (None, None) => break,
            (w, g) => {
                return format!(
                    "line {n}:\n    committed:   {}\n    regenerated: {}",
                    w.unwrap_or("<end of file>"),
                    g.unwrap_or("<end of file>")
                )
            }
        }
    }
    "same lines; the trailing newline differs".to_string()
}

#[test]
fn committed_artefacts_match_the_code() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let fleet = paper_fleet();
    let inputs = Inputs::new(&fleet);
    let mut failures = Vec::new();
    for artefact in ARTEFACTS.iter().filter(|a| !a.grid) {
        let path = results.join(artefact.file);
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let regenerated = artefact.render(&inputs);
        if committed != regenerated {
            failures.push(format!(
                "results/{} differs from `reproduce_all {}` at {}",
                artefact.file,
                artefact.name,
                first_difference(&committed, &regenerated)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} artefact(s) out of date:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn first_difference_names_the_line() {
    assert!(first_difference("a\nb\nc\n", "a\nx\nc\n").starts_with("line 2:"));
    assert!(first_difference("a\n", "a\nb\n").contains("<end of file>"));
    assert!(first_difference("a\n", "a").contains("trailing newline"));
}
