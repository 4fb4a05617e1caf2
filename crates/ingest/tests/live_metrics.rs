//! With metrics on, the engine's histograms are live: alarm latency,
//! queue depth and the scoring core's sampled stage clocks carry samples
//! while the stream is still being served, before `finish()`, so a scrape,
//! `navarchos top` or the `alarm_latency` burn-rate policy sees them. After
//! `finish()` their counts follow the stream exactly.
//!
//! Its own test binary: the metric registry is process-global, and exact
//! counts need no other test recording into it.

use navarchos_fleetsim::{StreamBody, StreamItem};
use navarchos_ingest::{IngestConfig, ShardedIngest};
use navarchos_obs as obs;

const VEHICLES: u32 = 3;
const RECORDS_PER_VEHICLE: usize = 800;

/// Interleaved records of three vehicles with two signals each; from two
/// thirds of the way in, vehicles 1 and 2 break the relationship between
/// their signals, so the pipeline alarms.
fn items() -> Vec<StreamItem> {
    let mut out = Vec::new();
    for i in 0..RECORDS_PER_VEHICLE {
        for vehicle in 0..VEHICLES {
            let x = (i as f64 * 0.31 + f64::from(vehicle)).sin() * 2.0 + 10.0;
            let y = if vehicle == 0 || i < 2 * RECORDS_PER_VEHICLE / 3 {
                2.0 * x + 1.0
            } else {
                21.0 - (i as f64 * 0.77).cos() * 2.0
            };
            out.push(StreamItem {
                vehicle,
                timestamp: i as i64 * 60,
                body: StreamBody::Record(vec![x, y]),
            });
        }
    }
    out
}

fn histogram_count(name: &str) -> u64 {
    obs::histogram(name).snapshot().count
}

#[test]
fn histograms_are_live_before_finish_and_exact_after() {
    obs::set_metrics_enabled(true);
    let mut cfg = IngestConfig::paper_default(1);
    cfg.pipeline.window = 8;
    cfg.pipeline.stride = 2;
    cfg.pipeline.profile_length = 6;
    cfg.pipeline.holdout = 4;
    cfg.pipeline.filter = navarchos_tsframe::FilterSpec::default();
    cfg.horizon_s = 300;
    let mut engine = ShardedIngest::new(&["a", "b"], cfg);

    let items = items();
    let n_items = items.len() as u64;
    let served = engine.ingest_batch(items);
    engine.observe_health();
    assert!(!served.is_empty(), "the relationship break must alarm while serving");

    // Live: nothing has been finished or flushed yet.
    assert_eq!(
        histogram_count("alarm.latency_ns"),
        served.len() as u64,
        "one latency sample per served alarm"
    );
    assert_eq!(
        histogram_count("ingest.shard00.queue_depth"),
        n_items,
        "one queue-depth sample per record"
    );
    let released = engine.stats().released;
    assert!(released < n_items, "records wait in the reorder buffers");
    let live_stage = histogram_count("pipeline.stage.filter_ns");
    assert!(live_stage > 0, "the sampled stage clocks are live ({released} records released)");

    let tail = engine.finish();
    let alarms = served.len() + tail.len();
    assert_eq!(histogram_count("alarm.latency_ns"), alarms as u64);
    assert_eq!(histogram_count("ingest.shard00.queue_depth"), n_items);
    // Each vehicle's scoring core clocks its 64th, 128th, … record.
    let sampled = u64::from(VEHICLES) * (RECORDS_PER_VEHICLE as u64 / 64);
    assert_eq!(histogram_count("pipeline.stage.filter_ns"), sampled);
    assert_eq!(histogram_count("pipeline.stage.transform_ns"), sampled);
    assert!(live_stage <= sampled);
}
