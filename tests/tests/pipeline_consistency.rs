//! The served pipeline (Algorithm 1) and the batch runner drive one
//! scoring core, so both tune their thresholds on the same holdout scores,
//! pushed in the same order. The one difference is the batch runner's std
//! floors (the reference-spread floor on each channel's std). Without them
//! the two paths must raise exactly the same `(timestamp, channel)` alarms.
//! With them a threshold can only rise, so the batch alarms are a subset of
//! the served ones.

use std::collections::BTreeSet;

use navarchos_core::detectors::{DetectorKind, DetectorParams};
use navarchos_core::runner::{run_vehicle, RunnerParams};
use navarchos_core::{replay_stream, PipelineConfig, ResetPolicy, TransformKind};
use navarchos_fleetsim::FleetConfig;
use navarchos_tsframe::FilterSpec;

fn config(factor: f64) -> PipelineConfig {
    PipelineConfig {
        transform: TransformKind::Correlation,
        window: 45,
        stride: 3,
        detector: DetectorKind::ClosestPair,
        detector_params: DetectorParams::default(),
        profile_length: 100,
        holdout: 60,
        threshold_factor: factor,
        constant_threshold: 0.5,
        reset_policy: ResetPolicy::OnServiceOrRepair,
        filter: FilterSpec::navarchos_default(),
    }
}

#[test]
fn streaming_pipeline_matches_batch_runner() {
    let fleet = FleetConfig::small(3).generate();
    let mut scoring = 0;
    let mut alarming = 0;
    for vd in &fleet.vehicles {
        let log = vd.maintenance_log();
        // The runner ignores the factor and scores once for every factor;
        // without daily aggregation it keeps one score per transformed
        // sample, as the served pipeline does.
        let params = RunnerParams { pipeline: config(2.0), daily_median: false, holdout_days: 0 };
        let with_floors = run_vehicle(&vd.frame, &log, &params);
        let mut no_floors = with_floors.clone();
        for ctx in &mut no_floors.contexts {
            ctx.std_floors.clear();
        }
        if !with_floors.segments.is_empty() {
            scoring += 1;
        }
        for factor in [2.0, 6.0] {
            let served: Vec<(i64, usize)> = replay_stream(&vd.frame, &log, config(factor))
                .iter()
                .map(|a| (a.timestamp, a.channel))
                .collect();
            assert_eq!(
                served,
                no_floors.attributed_alarms(factor),
                "vehicle {} at factor {factor}: served and batch alarms differ",
                vd.id.0
            );
            let served: BTreeSet<(i64, usize)> = served.into_iter().collect();
            let floored = with_floors.attributed_alarms(factor);
            assert!(
                floored.iter().all(|a| served.contains(a)),
                "vehicle {} at factor {factor}: a floor lowered a threshold",
                vd.id.0
            );
            if !served.is_empty() {
                alarming += 1;
            }
        }
    }
    assert!(scoring > 0, "no vehicle filled a reference");
    assert!(alarming > 0, "no vehicle alarmed");
}
