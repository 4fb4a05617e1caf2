//! The paper's offline protocol (`eval-batch`): score every vehicle for
//! six grid cells with the batch runner, then sweep the threshold grids
//! on both settings and both prediction horizons.

use std::time::Instant;

use crate::adapter::{self, Loaded, CELLS};

/// The two settings × two PHs every cell is swept on.
pub const SWEEPS: [(bool, i64); 4] = [(true, 15), (true, 30), (false, 15), (false, 30)];

/// What one protocol pass measured.
#[derive(Debug)]
pub struct Pass {
    pub start: Instant,
    pub end: Instant,
    /// Loaded frames to complete result.
    pub eval_s: f64,
    /// Per cell: start and end of the runner fan-out.
    pub cell_spans: Vec<(Instant, Instant)>,
    /// Per cell: each vehicle's runner seconds.
    pub vehicle_s: Vec<Vec<f64>>,
    /// Per cell: start and end of its four sweeps.
    pub sweep_spans: Vec<(Instant, Instant)>,
    /// Per cell: detector fits (reference profiles filled) over the fleet.
    pub fits: Vec<usize>,
    /// Per cell and sweep: `(best parameter, F0.5)` bit patterns, for the
    /// repeatability check.
    pub results: Vec<(u64, u64)>,
    /// Closest-pair on correlation data, setting26, PH 30 days, at the
    /// sweep's best factor (Table 2's headline).
    pub headline_f05: f64,
}

pub fn run(loaded: &Loaded) -> Pass {
    let start = Instant::now();
    let mut pass = Pass {
        start,
        end: start,
        eval_s: 0.0,
        cell_spans: Vec::new(),
        vehicle_s: Vec::new(),
        sweep_spans: Vec::new(),
        fits: Vec::new(),
        results: Vec::new(),
        headline_f05: f64::NAN,
    };
    for cell in CELLS {
        let t = Instant::now();
        let (scores, secs) = adapter::score_cell(loaded, cell);
        pass.cell_spans.push((t, Instant::now()));
        pass.vehicle_s.push(secs);
        pass.fits.push(scores.fits());
        let t = Instant::now();
        for (setting26, ph) in SWEEPS {
            let (param, q) = adapter::sweep(loaded, &scores, setting26, ph);
            pass.results.push((param.to_bits(), q.f05.to_bits()));
            if cell.name == "cp_corr" && setting26 && ph == 30 {
                pass.headline_f05 = q.f05;
            }
        }
        pass.sweep_spans.push((t, Instant::now()));
    }
    pass.end = Instant::now();
    pass.eval_s = (pass.end - start).as_secs_f64();
    pass
}

impl Pass {
    /// The pass's wall time split into its timed parts: each cell's
    /// runner fan-out and sweeps, then the rest.
    pub fn components(&self) -> Vec<f64> {
        let mut parts: Vec<f64> = self
            .cell_spans
            .iter()
            .zip(&self.sweep_spans)
            .flat_map(|((a, b), (c, d))| [(*b - *a).as_secs_f64(), (*d - *c).as_secs_f64()])
            .collect();
        let covered: f64 = parts.iter().sum();
        parts.push((self.eval_s - covered).max(0.0));
        parts
    }
}
