//! The streaming pipeline (Algorithm 1) and the batch runner must agree:
//! same transform, same reference construction, same detector, same
//! thresholds ⇒ same per-sample violations.

use navarchos_core::detectors::{DetectorKind, DetectorParams};
use navarchos_core::runner::{run_vehicle, RunnerParams};
use navarchos_core::{PipelineConfig, ResetPolicy, StreamingPipeline, TransformKind};
use navarchos_fleetsim::{EventKind, FleetConfig};
use navarchos_tsframe::FilterSpec;

#[test]
fn streaming_pipeline_matches_batch_runner() {
    let fleet = FleetConfig::small(3).generate();
    let vd = &fleet.vehicles[0];
    let factor = 6.0;

    // One configuration for both paths.
    let cfg = PipelineConfig {
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
    };
    // Batch runner without daily aggregation (per-sample scores).
    let params = RunnerParams { pipeline: cfg.clone(), daily_median: false, holdout_days: 10 };
    let maintenance: Vec<(i64, bool)> = vd
        .events
        .iter()
        .filter(|e| e.recorded && e.kind.is_maintenance())
        .map(|e| (e.timestamp, e.kind == EventKind::Repair))
        .collect();
    let vs = run_vehicle(&vd.frame, &maintenance, &params);
    let batch_alarms: Vec<i64> = vs.alarms(factor);

    // Streaming pipeline with the same configuration.
    let mut pipeline = StreamingPipeline::new(vd.frame.names(), cfg);
    let mut events = maintenance.iter().peekable();
    let mut stream_alarms: Vec<i64> = Vec::new();
    let mut row = Vec::new();
    for i in 0..vd.frame.len() {
        let t = vd.frame.timestamps()[i];
        while let Some(&&(mt, is_repair)) = events.peek() {
            if mt > t {
                break;
            }
            pipeline.process_event(is_repair);
            events.next();
        }
        vd.frame.row_into(i, &mut row);
        for a in pipeline.process_record(t, &row) {
            stream_alarms.push(a.timestamp);
        }
    }
    stream_alarms.dedup();
    let mut batch_dedup = batch_alarms.clone();
    batch_dedup.dedup();

    // Both paths must fire on the same set of sample timestamps. The
    // streaming pipeline uses streaming Welford statistics while the batch
    // path recomputes from stored scores, so tiny borderline differences
    // are tolerated (≤ 2 % of alarms).
    let diff = stream_alarms.iter().filter(|t| !batch_dedup.contains(t)).count()
        + batch_dedup.iter().filter(|t| !stream_alarms.contains(t)).count();
    let total = stream_alarms.len().max(batch_dedup.len()).max(1);
    assert!(
        diff as f64 / total as f64 <= 0.02,
        "paths disagree on {diff}/{total} alarms\nstream: {stream_alarms:?}\nbatch: {batch_dedup:?}"
    );
}
