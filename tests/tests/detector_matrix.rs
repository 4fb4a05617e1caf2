//! Integration: every registered detector kind runs end to end on
//! simulator data through the batch runner without panicking, producing
//! structurally valid score traces. The matrix iterates the registries
//! themselves, so a kind cannot be added or removed without running here.

use navarchos_core::detectors::{DetectorKind, GrandNcm};
use navarchos_core::runner::{run_vehicle, RunnerParams};
use navarchos_core::TransformKind;
use navarchos_fleetsim::FleetConfig;

#[test]
fn every_detector_scores_the_simulator() {
    let mut cfg = FleetConfig::small(9);
    cfg.n_days = 60;
    let fleet = cfg.generate();
    // A vehicle with enough data.
    let vd = fleet.vehicles.iter().max_by_key(|v| v.frame.len()).expect("non-empty fleet");

    // The four paper techniques (Grand with LOF), plus Grand's other two
    // non-conformity measures, which the Grand ablation evaluates.
    let detectors = DetectorKind::all()
        .into_iter()
        .chain([DetectorKind::Grand(GrandNcm::Median), DetectorKind::Grand(GrandNcm::Knn)]);
    for detector in detectors {
        let mut params = RunnerParams::paper_default(TransformKind::Correlation, detector);
        // Keep learned detectors quick.
        params.pipeline.detector_params.xgb_rounds = 10;
        let vs = run_vehicle(&vd.frame, &[], &params);
        assert!(!vs.timestamps.is_empty(), "{detector:?} produced no scored samples");
        assert_eq!(vs.scores.len(), vs.timestamps.len() * vs.n_channels);
        let finite = vs.scores.iter().filter(|s| s.is_finite()).count();
        assert!(finite * 2 >= vs.scores.len(), "{detector:?}: most scores must be finite");
        // Alarm extraction runs for an arbitrary parameter.
        let _ = vs.alarms(4.0);
    }
}

#[test]
fn every_transform_feeds_closest_pair() {
    let mut cfg = FleetConfig::small(9);
    cfg.n_days = 60;
    let fleet = cfg.generate();
    let vd = fleet.vehicles.iter().max_by_key(|v| v.frame.len()).expect("non-empty fleet");

    for transform in TransformKind::all() {
        let params = RunnerParams::paper_default(transform, DetectorKind::ClosestPair);
        let vs = run_vehicle(&vd.frame, &[], &params);
        assert!(!vs.timestamps.is_empty(), "{} produced no scored samples", transform.label());
        assert!(vs.n_channels > 0);
    }
}
