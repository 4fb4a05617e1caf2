//! Experiment harness: shared machinery for `reproduce_all`, which
//! regenerates every table and figure of the paper (see DESIGN.md's
//! per-experiment index), and for the Criterion micro-benchmarks.

pub mod artefacts;
pub mod baseline;
pub mod experiments;
pub mod exploration;
pub mod grid;
pub mod report;

pub use grid::{fleet_scores, repairs_for, Cell, GridOutcome};

/// Standard observability bring-up for the experiment binaries: honour
/// `NAVARCHOS_LOG` / `NAVARCHOS_METRICS` and say on stderr what came on.
/// Call first thing in `main`; a no-op when neither variable is set.
pub fn init_obs() {
    if let Some(enabled) = navarchos_obs::init_from_env() {
        use std::io::Write;
        let stderr = std::io::stderr();
        let mut err = stderr.lock();
        let _ = writeln!(err, "[obs] {enabled}");
    }
}
