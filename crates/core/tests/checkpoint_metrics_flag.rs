//! A pipeline checkpoint is state, not telemetry: the same stream cut at
//! the same record must write the same bytes whether metrics are on or
//! off. This binary holds one test so that nothing else flips the global
//! metrics flag while it runs.

use navarchos_core::pipeline::{PipelineConfig, StreamingPipeline};
use navarchos_core::{DetectorKind, TransformKind};
use navarchos_stat::Snapshot;
use navarchos_tsframe::FilterSpec;

/// A record, or a maintenance event (`is_repair`).
enum Item {
    Record(i64, [f64; 2]),
    Event(bool),
}

/// Healthy records (b tracks a), a service, healthy records again, then
/// the relationship flips: two fills, two tunes, a reset and alarms.
fn stream() -> Vec<Item> {
    let mut items = Vec::new();
    for i in 0..420usize {
        if i == 200 {
            items.push(Item::Event(false));
        }
        let a = (i as f64 * 0.7).sin() * 10.0 + 20.0;
        let b = if i < 380 { 2.0 * a + 1.0 } else { -2.0 * a + 90.0 };
        items.push(Item::Record(i as i64 * 60, [a, b]));
    }
    items
}

fn pipeline() -> StreamingPipeline {
    let cfg = PipelineConfig {
        window: 8,
        stride: 2,
        profile_length: 12,
        holdout: 6,
        threshold_factor: 4.0,
        filter: FilterSpec::default(),
        ..PipelineConfig::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair)
    };
    StreamingPipeline::new(&["a", "b"], cfg)
}

/// Checkpoint bytes after the first `cut` items.
fn bytes_at(items: &[Item], cut: usize) -> Vec<u8> {
    let mut p = pipeline();
    for item in &items[..cut] {
        match item {
            Item::Record(t, row) => {
                p.process_record(*t, row);
            }
            Item::Event(is_repair) => p.process_event(*is_repair),
        }
    }
    p.state_bytes()
}

#[test]
fn checkpoint_bytes_do_not_depend_on_the_metrics_flag() {
    let items = stream();
    // Filling, past the first tune, after the service (refilling), past
    // the second tune, and among the alarms.
    let cuts = [10, 150, 230, 330, items.len()];
    navarchos_obs::set_metrics_enabled(false);
    let off: Vec<Vec<u8>> = cuts.iter().map(|&k| bytes_at(&items, k)).collect();
    navarchos_obs::set_metrics_enabled(true);
    let on: Vec<Vec<u8>> = cuts.iter().map(|&k| bytes_at(&items, k)).collect();
    navarchos_obs::set_metrics_enabled(false);
    for ((k, off), on) in cuts.iter().zip(&off).zip(&on) {
        assert!(off == on, "cut at item {k}: checkpoint bytes differ with metrics on");
    }
}
