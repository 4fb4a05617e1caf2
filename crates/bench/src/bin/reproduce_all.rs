//! Regenerates the paper's tables and figures, and the repository's
//! ablations, under `results/` in the current directory.
//!
//! ```text
//! reproduce_all [NAME ...]
//! ```
//!
//! Each NAME selects one output file (`fig1`, `table2`, `ablations`, …);
//! with none, every file is written. The paper fleet is built once, and
//! the technique × transformation grid behind Figures 4–7 and Table 1 runs
//! only when one of those files is requested. An unknown NAME exits with
//! status 2 and lists the valid ones.
use navarchos_bench::artefacts::{find, Inputs, ARTEFACTS};
use navarchos_bench::experiments::{dataset_summary, paper_fleet};
use navarchos_bench::report::emit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<_> = if args.is_empty() {
        ARTEFACTS.iter().collect()
    } else {
        let unknown: Vec<&String> = args.iter().filter(|a| find(a).is_none()).collect();
        if !unknown.is_empty() {
            let valid: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
            eprintln!(
                "reproduce_all: unknown artefact(s): {}\nvalid names: {}",
                unknown.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", "),
                valid.join(", ")
            );
            std::process::exit(2);
        }
        ARTEFACTS.iter().filter(|a| args.iter().any(|n| n == a.name)).collect()
    };

    navarchos_bench::init_obs();
    let started = std::time::Instant::now();
    let fleet = paper_fleet();
    eprintln!("{}", dataset_summary(&fleet));
    let inputs = Inputs::new(&fleet);
    for artefact in selected {
        emit(artefact.file, &artefact.render(&inputs));
    }
    eprintln!("reproduce_all finished in {:.0}s", started.elapsed().as_secs_f64());
}
