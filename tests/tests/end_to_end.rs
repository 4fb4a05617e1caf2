//! End-to-end integration: simulated fleet → framework → evaluation.

use navarchos_core::detectors::DetectorKind;
use navarchos_core::evaluation::{evaluate_vehicle_instances, factor_grid, EvalCounts, EvalParams};
use navarchos_core::runner::{run_vehicle, RunnerParams, VehicleScores};
use navarchos_core::TransformKind;
use navarchos_fleetsim::{FleetConfig, FleetData};

fn demo_fleet() -> FleetData {
    // The paper's full fleet: results below mirror Tables 2/3 of
    // EXPERIMENTS.md.
    FleetConfig::navarchos().generate()
}

fn score_fleet(fleet: &FleetData, params: &RunnerParams) -> Vec<VehicleScores> {
    fleet.vehicles.iter().map(|vd| run_vehicle(&vd.frame, &vd.maintenance_log(), params)).collect()
}

fn best_f05(fleet: &FleetData, traces: &[VehicleScores]) -> (f64, EvalCounts) {
    let eval = EvalParams::days(30);
    let mut best = (0.0, EvalCounts::default(), -1.0);
    for factor in factor_grid() {
        let mut counts = EvalCounts::default();
        for (vd, vs) in fleet.vehicles.iter().zip(traces) {
            let instances = vs.alarm_instances(factor, &eval);
            counts.merge(&evaluate_vehicle_instances(&instances, &vd.recorded_repairs(), eval));
        }
        if counts.f05() > best.2 {
            best = (factor, counts, counts.f05());
        }
    }
    (best.0, best.1)
}

#[test]
fn complete_solution_detects_failures_with_high_precision() {
    let fleet = demo_fleet();
    assert_eq!(fleet.recorded_repair_count(), 9);

    let params = RunnerParams::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair);
    let traces = score_fleet(&fleet, &params);
    let (_, counts) = best_f05(&fleet, &traces);

    assert!(counts.tp >= 2, "at least half the failures detected, got {counts:?}");
    assert!(counts.precision() >= 0.5, "precision ≥ 0.5, got {counts:?}");
    assert!(counts.f05() >= 0.4, "F0.5 ≥ 0.4, got {counts:?}");
}

#[test]
fn correlation_transformation_beats_raw_for_similarity_detection() {
    let fleet = demo_fleet();
    let corr = {
        let p = RunnerParams::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair);
        let traces = score_fleet(&fleet, &p);
        best_f05(&fleet, &traces).1
    };
    let raw = {
        let p = RunnerParams::paper_default(TransformKind::Raw, DetectorKind::ClosestPair);
        let traces = score_fleet(&fleet, &p);
        best_f05(&fleet, &traces).1
    };
    assert!(
        corr.f05() > raw.f05(),
        "paper's core finding: correlation ({:.2}) > raw ({:.2}) for Closest-pair",
        corr.f05(),
        raw.f05()
    );
}

#[test]
fn service_resets_outperform_repair_only_resets() {
    let fleet = demo_fleet();
    let with_services = {
        let p = RunnerParams::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair);
        let traces = score_fleet(&fleet, &p);
        best_f05(&fleet, &traces).1
    };
    let repair_only = {
        let mut p =
            RunnerParams::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair);
        p.pipeline.reset_policy = navarchos_core::ResetPolicy::OnRepairOnly;
        let traces = score_fleet(&fleet, &p);
        best_f05(&fleet, &traces).1
    };
    // Table 3's qualitative claim: ignoring service resets does not help.
    assert!(
        with_services.f05() >= repair_only.f05() - 1e-9,
        "services {:.2} vs repair-only {:.2}",
        with_services.f05(),
        repair_only.f05()
    );
}
