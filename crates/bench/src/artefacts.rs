//! The files `reproduce_all` writes under `results/`: one short name per
//! file, each rendered on demand from one shared paper fleet. The
//! technique × transformation grid and the Table 2 scores are computed at
//! most once, and only when an artefact that needs them is rendered.

use std::cell::OnceCell;

use crate::experiments::*;
use crate::grid::GridOutcome;
use navarchos_fleetsim::FleetData;

/// One output file of `reproduce_all`.
#[derive(Debug, Clone, Copy)]
pub struct Artefact {
    /// Short name selecting the file on the `reproduce_all` command line.
    pub name: &'static str,
    /// File name under `results/`.
    pub file: &'static str,
    /// Whether rendering needs the full grid (Figures 4–7, Table 1); the
    /// grid's TranAD cells make these the expensive artefacts.
    pub grid: bool,
    render: fn(&Inputs<'_>) -> String,
}

impl Artefact {
    /// Renders this artefact's file content.
    pub fn render(&self, inputs: &Inputs<'_>) -> String {
        (self.render)(inputs)
    }
}

/// Every artefact, in the order `reproduce_all` writes them.
pub const ARTEFACTS: [Artefact; 14] = [
    Artefact {
        name: "fig1",
        file: "fig1_event_timelines.txt",
        grid: false,
        render: |i| format!("{}\n{}", dataset_summary(i.fleet), figure1(i.fleet)),
    },
    Artefact {
        name: "fig2",
        file: "fig2_exploration.txt",
        grid: false,
        render: |i| figure2(i.fleet),
    },
    Artefact {
        name: "fig4",
        file: "fig4_grid_setting40.txt",
        grid: true,
        render: |i| figure_grid(i.grid(), "setting40", 4),
    },
    Artefact {
        name: "fig5",
        file: "fig5_grid_setting26.txt",
        grid: true,
        render: |i| figure_grid(i.grid(), "setting26", 5),
    },
    Artefact {
        name: "fig6",
        file: "fig6_transform_ranking.txt",
        grid: true,
        render: |i| figure6(i.grid()),
    },
    Artefact {
        name: "fig7",
        file: "fig7_technique_ranking.txt",
        grid: true,
        render: |i| figure7(i.grid()),
    },
    Artefact {
        name: "table1",
        file: "table1_execution_time.txt",
        grid: true,
        render: |i| table1(i.grid()),
    },
    Artefact {
        name: "table2",
        file: "table2_best_configuration.txt",
        grid: false,
        render: |i| i.table2().0.clone(),
    },
    Artefact {
        name: "table3",
        file: "table3_no_service_reset.txt",
        grid: false,
        render: |i| table3(i.fleet),
    },
    Artefact {
        name: "fig8",
        file: "fig8_vehicle_trace.txt",
        grid: false,
        render: |i| {
            let outcome = &i.table2().1;
            let (factor, _) = outcome.evaluate(i.fleet, &i.fleet.setting26(), 30);
            figure8(i.fleet, outcome, factor)
        },
    },
    Artefact {
        name: "ablations",
        file: "ablations.txt",
        grid: false,
        render: |i| format!("{}\n{}", grand_ncm_ablation(i.fleet), window_ablation(i.fleet)),
    },
    Artefact {
        name: "scenarios",
        file: "scenario_robustness.txt",
        grid: false,
        render: |_| scenario_robustness(),
    },
    Artefact {
        name: "dtc",
        file: "baseline_dtc.txt",
        grid: false,
        render: |i| dtc_baseline(i.fleet),
    },
    Artefact {
        name: "seasonal",
        file: "ablation_seasonal.txt",
        grid: false,
        render: |_| seasonal_ablation(),
    },
];

/// Looks up an artefact by its short name.
pub fn find(name: &str) -> Option<&'static Artefact> {
    ARTEFACTS.iter().find(|a| a.name == name)
}

/// What the artefacts are rendered from: the paper fleet, plus the grid
/// and the Table 2 scores, each computed on first use.
#[derive(Debug)]
pub struct Inputs<'a> {
    fleet: &'a FleetData,
    grid: OnceCell<Vec<CellResult>>,
    table2: OnceCell<(String, GridOutcome)>,
}

impl<'a> Inputs<'a> {
    /// Inputs over `fleet` (normally [`paper_fleet`]).
    pub fn new(fleet: &'a FleetData) -> Self {
        Inputs { fleet, grid: OnceCell::new(), table2: OnceCell::new() }
    }

    fn grid(&self) -> &[CellResult] {
        self.grid.get_or_init(|| run_grid(self.fleet))
    }

    fn table2(&self) -> &(String, GridOutcome) {
        self.table2.get_or_init(|| table2(self.fleet))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_files_are_unique() {
        for (i, a) in ARTEFACTS.iter().enumerate() {
            for b in &ARTEFACTS[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.file, b.file);
            }
            assert_eq!(find(a.name).map(|f| f.file), Some(a.file));
        }
        assert!(find("extensions").is_none());
    }
}
