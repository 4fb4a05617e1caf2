//! The technique × transformation grid behind Figures 4–7 and Tables 1–3:
//! per-vehicle score traces are computed once per (transformation,
//! technique) cell, then evaluated for both settings, both prediction
//! horizons and the full threshold sweep without re-scoring.

use navarchos_core::detectors::DetectorKind;
use navarchos_core::evaluation::{
    constant_grid, factor_grid, sweep, sweep_best, EvalCounts, EvalParams,
};
use navarchos_core::runner::{run_vehicle, RunnerParams, VehicleScores};
use navarchos_core::ResetPolicy;
use navarchos_fleetsim::FleetData;
use navarchos_tsframe::TransformKind;
use std::time::Instant;

/// One grid cell: a transformation/technique pair.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Step-1 transformation.
    pub transform: TransformKind,
    /// Step-3 technique.
    pub detector: DetectorKind,
}

/// Scores and metadata of one evaluated grid cell.
#[derive(Debug)]
pub struct GridOutcome {
    /// The cell.
    pub cell: Cell,
    /// Per-vehicle score traces (fleet order).
    pub scores: Vec<VehicleScores>,
    /// Wall-clock seconds spent scoring the whole fleet (Table 1).
    pub scoring_seconds: f64,
}

/// Recorded repair timestamps per vehicle, restricted to `subset`.
pub fn repairs_for(fleet: &FleetData, subset: &[usize]) -> Vec<Vec<i64>> {
    subset.iter().map(|&v| fleet.vehicles[v].recorded_repairs()).collect()
}

/// Recorded maintenance `(time, is_repair)` pairs of one vehicle — the
/// reset triggers visible to the pipeline.
pub fn maintenance_of(fleet: &FleetData, v: usize) -> Vec<(i64, bool)> {
    fleet.vehicles[v].maintenance_log()
}

/// Computes score traces for every vehicle of the fleet under one cell,
/// in parallel across vehicles. Returns the outcome with the total
/// scoring wall-clock (single-threaded sum, for Table 1 comparability).
pub fn fleet_scores(fleet: &FleetData, cell: Cell, policy: ResetPolicy) -> GridOutcome {
    let mut params = RunnerParams::paper_default(cell.transform, cell.detector);
    params.pipeline.reset_policy = policy;
    fleet_scores_with(fleet, params)
}

/// Like [`fleet_scores`] but with fully explicit runner parameters (used by
/// the ablation experiments).
pub fn fleet_scores_with(fleet: &FleetData, params: RunnerParams) -> GridOutcome {
    let cell = Cell { transform: params.pipeline.transform, detector: params.pipeline.detector };

    // One task per vehicle, fanned out over scoped threads; results come
    // back in fleet order with their per-vehicle CPU seconds.
    let results: Vec<(VehicleScores, f64)> = navarchos_core::par_map(&fleet.vehicles, |v, vd| {
        let started = Instant::now();
        let maint = maintenance_of(fleet, v);
        let trace = run_vehicle(&vd.frame, &maint, &params);
        (trace, started.elapsed().as_secs_f64())
    });

    let scoring_seconds = results.iter().map(|&(_, s)| s).sum();
    GridOutcome { cell, scores: results.into_iter().map(|(t, _)| t).collect(), scoring_seconds }
}

impl GridOutcome {
    /// The score traces of a vehicle subset and their recorded repairs,
    /// index-aligned as [`sweep`] takes them.
    fn traces(&self, fleet: &FleetData, subset: &[usize]) -> (Vec<&VehicleScores>, Vec<Vec<i64>>) {
        (subset.iter().map(|&v| &self.scores[v]).collect(), repairs_for(fleet, subset))
    }

    /// Evaluates the cell on a vehicle subset and PH, sweeping the
    /// threshold grid and returning `(best_threshold_param, counts)`.
    pub fn evaluate(&self, fleet: &FleetData, subset: &[usize], ph_days: i64) -> (f64, EvalCounts) {
        let (traces, repairs) = self.traces(fleet, subset);
        let grid = if self.scores.first().map(|s| s.constant_threshold).unwrap_or(false) {
            constant_grid()
        } else {
            factor_grid()
        };
        sweep_best(&traces, &repairs, &grid, EvalParams::days(ph_days))
    }

    /// Evaluates the cell at one fixed threshold parameter: a [`sweep`]
    /// of that one candidate.
    pub fn evaluate_at(
        &self,
        fleet: &FleetData,
        subset: &[usize],
        ph_days: i64,
        param: f64,
    ) -> EvalCounts {
        let (traces, repairs) = self.traces(fleet, subset);
        sweep(&traces, &repairs, &[param], EvalParams::days(ph_days)).pop().unwrap_or_default()
    }
}

/// The paper's four techniques in presentation order (Grand uses the LOF
/// non-conformity measure, its strongest variant in the original work).
pub fn techniques() -> [DetectorKind; 4] {
    DetectorKind::all()
}

/// The paper's four transformations in presentation order.
pub fn transformations() -> [TransformKind; 4] {
    TransformKind::all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use navarchos_fleetsim::FleetConfig;

    #[test]
    fn fleet_scores_cover_every_vehicle() {
        let fleet = FleetConfig::small(21).generate();
        let outcome = fleet_scores(
            &fleet,
            Cell { transform: TransformKind::Correlation, detector: DetectorKind::ClosestPair },
            ResetPolicy::OnServiceOrRepair,
        );
        assert_eq!(outcome.scores.len(), fleet.vehicles.len());
        assert!(outcome.scoring_seconds >= 0.0);
        // Evaluation runs end to end on both settings.
        let (_, counts) = outcome.evaluate(&fleet, &fleet.setting26(), 30);
        assert_eq!(counts.tp + counts.fn_, fleet.recorded_repair_count());
    }

    #[test]
    fn maintenance_of_is_sorted_and_recorded_only() {
        let fleet = FleetConfig::small(21).generate();
        for v in 0..fleet.vehicles.len() {
            let m = maintenance_of(&fleet, v);
            assert!(m.windows(2).all(|w| w[0].0 <= w[1].0));
            if !fleet.vehicles[v].recorded {
                assert!(m.is_empty(), "unrecorded vehicles expose no maintenance");
            }
        }
    }

    #[test]
    fn evaluate_at_matches_manual_instancing() {
        let fleet = FleetConfig::small(21).generate();
        let outcome = fleet_scores(
            &fleet,
            Cell { transform: TransformKind::Correlation, detector: DetectorKind::ClosestPair },
            ResetPolicy::OnServiceOrRepair,
        );
        let subset = fleet.setting26();
        let counts = outcome.evaluate_at(&fleet, &subset, 30, 4.0);
        assert_eq!(counts.tp + counts.fn_, fleet.recorded_repair_count());
    }
}
