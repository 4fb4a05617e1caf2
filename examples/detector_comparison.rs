//! Detector comparison: run all four of the paper's techniques
//! (Closest-pair, Grand, TranAD, XGBoost) over the same small fleet with
//! the correlation transformation and compare their best F0.5, echoing the
//! exploratory comparison of the paper's Section 4.
//!
//! Run with:
//! ```text
//! cargo run --release -p navarchos-examples --bin detector_comparison
//! ```

use navarchos_core::detectors::{DetectorKind, GrandNcm};
use navarchos_core::evaluation::{
    constant_grid, evaluate_vehicle_instances, factor_grid, EvalCounts, EvalParams,
};
use navarchos_core::runner::{run_vehicle, RunnerParams};
use navarchos_core::TransformKind;
use navarchos_fleetsim::FleetConfig;
use std::time::Instant;

fn main() {
    let mut cfg = FleetConfig::navarchos();
    cfg.n_vehicles = 10;
    cfg.n_recorded = 8;
    cfg.n_failures = 3;
    cfg.n_days = 250;
    let fleet = cfg.generate();
    println!(
        "fleet: {} vehicles / {} records / {} failures\n",
        fleet.vehicles.len(),
        fleet.total_records(),
        fleet.recorded_repair_count()
    );

    let eval = EvalParams::days(30);
    println!(
        "{:14} {:>8} {:>6} {:>6} {:>6} {:>8}",
        "technique", "best th", "F0.5", "prec", "recall", "time"
    );
    for detector in [
        DetectorKind::ClosestPair,
        DetectorKind::Grand(GrandNcm::Lof),
        DetectorKind::TranAd,
        DetectorKind::Xgboost,
    ] {
        let params = RunnerParams::paper_default(TransformKind::Correlation, detector);
        let started = Instant::now();
        let traces: Vec<_> = fleet
            .vehicles
            .iter()
            .map(|vd| run_vehicle(&vd.frame, &vd.maintenance_log(), &params))
            .collect();
        let elapsed = started.elapsed();

        // Sweep the appropriate threshold grid, keep the best F0.5.
        let grid = if traces.first().map(|t| t.constant_threshold).unwrap_or(false) {
            constant_grid()
        } else {
            factor_grid()
        };
        let mut best = (f64::NAN, EvalCounts::default(), -1.0);
        for param in grid {
            let mut counts = EvalCounts::default();
            for (vd, vs) in fleet.vehicles.iter().zip(&traces) {
                let instances = vs.alarm_instances(param, &eval);
                counts.merge(&evaluate_vehicle_instances(&instances, &vd.recorded_repairs(), eval));
            }
            if counts.f05() > best.2 {
                best = (param, counts, counts.f05());
            }
        }
        println!(
            "{:14} {:>8.2} {:>6.2} {:>6.2} {:>6.2} {:>7.1}s",
            detector.label(),
            best.0,
            best.1.f05(),
            best.1.precision(),
            best.1.recall(),
            elapsed.as_secs_f64()
        );
    }
    println!(
        "\nExpected shape (paper): Closest-pair leads on correlation data and is\n\
         the fastest by an order of magnitude; Grand trails the field."
    );
}
