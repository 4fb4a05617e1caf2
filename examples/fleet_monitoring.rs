//! Fleet-scale monitoring: run the complete solution over every vehicle of
//! a mid-size fleet in batch mode, sweep the self-tuning threshold factor,
//! and report fleet-level precision / recall / F0.5 under the paper's
//! prediction-horizon protocol.
//!
//! Run with:
//! ```text
//! cargo run --release -p navarchos-examples --bin fleet_monitoring
//! ```

use navarchos_core::detectors::DetectorKind;
use navarchos_core::evaluation::{best_of, factor_grid, sweep, EvalParams};
use navarchos_core::runner::{run_vehicle, RunnerParams};
use navarchos_core::TransformKind;
use navarchos_fleetsim::{FleetConfig, START_EPOCH};

fn main() {
    let mut cfg = FleetConfig::navarchos();
    cfg.n_vehicles = 16;
    cfg.n_recorded = 12;
    cfg.n_failures = 4;
    let fleet = cfg.generate();
    println!(
        "fleet: {} vehicles / {} records / {} failures",
        fleet.vehicles.len(),
        fleet.total_records(),
        fleet.recorded_repair_count()
    );
    for w in &fleet.faults {
        println!(
            "  ground truth: {} on {} (repair day {})",
            w.kind.label(),
            fleet.vehicles[w.vehicle].id,
            (w.repair - START_EPOCH) / 86_400
        );
    }

    // Score every vehicle once; thresholds are swept afterwards for free.
    let params = RunnerParams::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair);
    let traces: Vec<_> = fleet
        .vehicles
        .iter()
        .map(|vd| run_vehicle(&vd.frame, &vd.maintenance_log(), &params))
        .collect();

    println!("\nthreshold-factor sweep (PH = 30 days):");
    let eval = EvalParams::days(30);
    let grid = factor_grid();
    let trace_refs: Vec<_> = traces.iter().collect();
    let repairs: Vec<Vec<i64>> = fleet.vehicles.iter().map(|vd| vd.recorded_repairs()).collect();
    let swept = sweep(&trace_refs, &repairs, &grid, eval);
    for (factor, counts) in grid.iter().zip(&swept) {
        println!(
            "  factor {factor:5.2}: precision {:.2}  recall {:.2}  F0.5 {:.2}  (tp {} / fp {} / fn {})",
            counts.precision(),
            counts.recall(),
            counts.f05(),
            counts.tp,
            counts.fp,
            counts.fn_
        );
    }
    let (factor, counts) = best_of(&grid, &swept);
    println!(
        "\nbest operating point: factor {factor} → F0.5 {:.2} (precision {:.2}, recall {:.2})",
        counts.f05(),
        counts.precision(),
        counts.recall()
    );

    // Show which vehicles alarm at the chosen factor.
    println!("\nalarm instances at the best factor:");
    for ((vd, vs), repairs) in fleet.vehicles.iter().zip(&traces).zip(&repairs) {
        let instances = vs.alarm_instances(factor, &eval);
        if instances.is_empty() {
            continue;
        }
        let days: Vec<i64> = instances.iter().map(|t| (t - START_EPOCH) / 86_400).collect();
        let marks: Vec<String> = instances
            .iter()
            .zip(&days)
            .map(|(&t, d)| {
                let hit = repairs.iter().any(|&r| t >= r - eval.ph_seconds && t < r);
                format!("{d}{}", if hit { "✓" } else { "" })
            })
            .collect();
        println!("  {}: days {}", vd.id, marks.join(", "));
    }
}
