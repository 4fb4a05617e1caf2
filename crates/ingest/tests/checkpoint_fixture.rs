//! A committed `navarchos-checkpoint/v1` file, written by an earlier build
//! of the engine, must keep restoring: the format is a contract with every
//! checkpoint already on disk, not with the current writer.
//!
//! `tests/fixtures/checkpoint-v1.bin` holds a two-shard engine cut
//! mid-stream over three vehicles: reorder buffers with items in flight,
//! frozen quality references, one maintenance event behind the cut and
//! alarms on both sides of it. The test restores it, checks that
//! re-snapshotting gives back the file's exact bytes, and resumes the rest
//! of the stream to the sorted-replay oracle, scores and thresholds
//! compared by `f64::to_bits`.
//!
//! The stream is built from integer arithmetic and exact float operations
//! only (no `sin`, no platform libm), so it is the same stream on every
//! platform the fixture is checked on.

use std::collections::BTreeMap;

use navarchos_core::pipeline::{PipelineConfig, StreamingPipeline};
use navarchos_core::{DetectorKind, TransformKind};
use navarchos_fleetsim::{StreamBody, StreamItem};
use navarchos_ingest::{
    read_checkpoint, write_checkpoint, FleetAlarm, IngestConfig, QualityConfig, Sequenced,
    ShardedIngest,
};
use navarchos_tsframe::FilterSpec;

const NAMES: [&str; 2] = ["a", "b"];
const VEHICLES: [u32; 3] = [2, 5, 9];
const RECORDS: usize = 160;
const STEP: i64 = 60;
/// Stream items consumed when the fixture was cut.
const CUT: usize = 300;

fn fixture_path() -> String {
    format!("{}/tests/fixtures/checkpoint-v1.bin", env!("CARGO_MANIFEST_DIR"))
}

fn config() -> IngestConfig {
    let mut cfg = IngestConfig::paper_default(2);
    cfg.horizon_s = 300;
    cfg.pipeline = PipelineConfig {
        window: 8,
        stride: 2,
        profile_length: 6,
        holdout: 4,
        filter: FilterSpec::default(),
        ..PipelineConfig::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair)
    };
    cfg.quality = QualityConfig { reference_len: 16, window: 8, ..QualityConfig::default() };
    cfg
}

/// Uniform in [0, 1) from a 64-bit mix of `seed`: exact on every platform.
fn unit(seed: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Record `i` of `vehicle`: `b` tracks a triangle wave in `a` until the
/// vehicle's break, then wanders off on its own.
fn row(vehicle: u32, i: usize) -> Vec<f64> {
    let phase = (i + vehicle as usize * 3) % 12;
    let tri = if phase < 6 { phase as f64 } else { (12 - phase) as f64 };
    let a = 10.0 + tri + 0.25 * unit(u64::from(vehicle) << 32 | i as u64);
    let break_at = [70, 200, 120][VEHICLES.iter().position(|&v| v == vehicle).unwrap_or(0)];
    let b = if i < break_at {
        2.0 * a + 1.0
    } else {
        21.0 + 4.0 * unit((u64::from(vehicle) << 32 | i as u64) ^ 0xABCD)
    };
    vec![a, b]
}

/// The arrival order: every record, a service on vehicle 5, a short NaN
/// burst (dead-lettered, and flagged by the quality monitor) and
/// duplicates, each displaced by less than the
/// horizon and stable-sorted by arrival time.
fn stream() -> Vec<StreamItem> {
    let mut keyed: Vec<(i64, usize, StreamItem)> = Vec::new();
    let mut push = |arrival: i64, item: StreamItem| {
        let seq = keyed.len();
        keyed.push((arrival, seq, item));
    };
    for &v in &VEHICLES {
        for i in 0..RECORDS {
            let t = i as i64 * STEP;
            let body = if v == 9 && (40..43).contains(&i) {
                StreamBody::Record(vec![f64::NAN, f64::NAN])
            } else {
                StreamBody::Record(row(v, i))
            };
            let item = StreamItem { vehicle: v, timestamp: t, body };
            let jitter = ((i * 37 + v as usize * 11) % 5) as i64 * STEP;
            if i % 23 == 7 {
                push(t + 2 * STEP, item.clone());
            }
            push(t + jitter, item);
        }
    }
    push(
        50 * STEP,
        StreamItem {
            vehicle: 5,
            timestamp: 50 * STEP,
            body: StreamBody::Maintenance { is_repair: false },
        },
    );
    keyed.sort_by_key(|&(arrival, seq, _)| (arrival, seq));
    keyed.into_iter().map(|(_, _, item)| item).collect()
}

type AlarmBits = (i64, usize, String, u64, u64);

fn by_vehicle(alarms: &[FleetAlarm]) -> BTreeMap<u32, Vec<AlarmBits>> {
    let mut out: BTreeMap<u32, Vec<AlarmBits>> = BTreeMap::new();
    for fa in alarms {
        let a = &fa.alarm;
        out.entry(fa.vehicle).or_default().push((
            a.timestamp,
            a.channel,
            a.channel_name.clone(),
            a.score.to_bits(),
            a.threshold.to_bits(),
        ));
    }
    out
}

/// What every vehicle must have served: its valid items, first copy of
/// each duplicate, in canonical order through a fresh pipeline.
fn oracle() -> BTreeMap<u32, Vec<AlarmBits>> {
    let mut items: Vec<StreamItem> = stream()
        .into_iter()
        .filter(|it| match &it.body {
            StreamBody::Record(r) => r.iter().all(|v| v.is_finite()),
            StreamBody::Maintenance { .. } => true,
        })
        .collect();
    items.sort_by_key(|it| (it.vehicle, it.key()));
    items.dedup_by(|a, b| a.vehicle == b.vehicle && a.key() == b.key());
    let mut alarms = Vec::new();
    for &v in &VEHICLES {
        let mut p = StreamingPipeline::new(&NAMES, config().pipeline);
        for it in items.iter().filter(|it| it.vehicle == v) {
            match &it.body {
                StreamBody::Record(r) => alarms.extend(
                    p.process_record(it.timestamp, r)
                        .into_iter()
                        .map(|alarm| FleetAlarm { vehicle: v, alarm }),
                ),
                StreamBody::Maintenance { is_repair } => p.process_event(*is_repair),
            }
        }
    }
    by_vehicle(&alarms)
}

#[test]
fn v1_fixture_restores_resnapshots_and_resumes_to_the_oracle() {
    let fixture = std::fs::read(fixture_path()).expect("the committed fixture");
    let restored = read_checkpoint(&NAMES, config(), &fixture).expect("a v1 checkpoint restores");
    assert_eq!(restored.cursor, CUT as u64);
    let again = write_checkpoint(&restored.engine, restored.cursor, &restored.prior_alarms);
    assert!(again == fixture, "re-snapshotting must give the fixture's exact bytes");

    let stream = stream();
    let mut engine = restored.engine;
    let mut alarms = restored.prior_alarms;
    assert!(!alarms.is_empty(), "the fixture carries alarms from before the cut");
    let mut resumed = engine.ingest_batch(stream[CUT..].to_vec());
    resumed.extend(engine.finish());
    assert!(!resumed.is_empty(), "and raises more after it");
    alarms.extend(resumed);
    assert_eq!(by_vehicle(&alarms), oracle());
    assert!(engine.stats().dead_letter >= 1 && engine.stats().duplicates >= 1);
}

/// The fixture's cut still has what makes it a hard case, and today's
/// writer lays the same state out in the same number of bytes (only the
/// in-flight arrival stamps, clock readings, may differ).
#[test]
fn v1_fixture_cut_is_mid_stream_and_layout_matches_todays_writer() {
    let fixture = std::fs::read(fixture_path()).expect("the committed fixture");
    let restored = read_checkpoint(&NAMES, config(), &fixture).expect("a v1 checkpoint restores");
    let stats = restored.engine.stats();
    assert!(stats.released < stats.records + stats.maintenance, "items in flight at the cut");
    assert!(stats.maintenance == 1 && stats.quality_flagged >= 1);
    let quality = restored.engine.quality_snapshots();
    assert_eq!(quality.len(), VEHICLES.len());
    assert!(quality.iter().all(|(_, q)| q.reference_frozen), "references frozen at the cut");

    let mut today = ShardedIngest::new(&NAMES, config());
    let prior = today.ingest_batch(stream()[..CUT].to_vec());
    assert_eq!(by_vehicle(&prior), by_vehicle(&restored.prior_alarms));
    assert_eq!(today.stats(), stats);
    assert_eq!(write_checkpoint(&today, CUT as u64, &prior).len(), fixture.len());
}

/// Writes the fixture with this build's writer. Run it only for a
/// deliberate format change, which also bumps `CHECKPOINT_VERSION`:
/// `cargo test -p navarchos-ingest --test checkpoint_fixture -- --ignored`.
#[test]
#[ignore]
fn write_v1_fixture() {
    let mut engine = ShardedIngest::new(&NAMES, config());
    let prior = engine.ingest_batch(stream()[..CUT].to_vec());
    let bytes = write_checkpoint(&engine, CUT as u64, &prior);
    std::fs::create_dir_all(format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR")))
        .expect("fixture dir");
    std::fs::write(fixture_path(), bytes).expect("fixture written");
}
