//! Property-based proof of the checkpoint/restore headline contract:
//! checkpoint the sharded engine at an **arbitrary** record `k` of a
//! dirty stream, restore into a fresh engine, feed the remainder — the
//! combined alarms must be byte-identical (`f64::to_bits` on scores and
//! thresholds) to the uninterrupted run. The cut point, the dirt (jitter
//! + duplicates, same displacement-below-horizon scheme as
//! `tests/props.rs`), and the shard count are all drawn by proptest, so
//! every case is a different mid-stream wound.
//!
//! Also proven here: snapshot → restore → snapshot is byte-stable, and
//! truncated or corrupted checkpoint bytes are a [`SnapError`] — never a
//! panic, never a silently wrong engine (a CRC-32 trailer catches byte
//! flips that the structural validators cannot).

use std::collections::BTreeMap;

use navarchos_core::pipeline::{Alarm, PipelineConfig};
use navarchos_core::{DetectorKind, TransformKind};
use navarchos_fleetsim::{StreamBody, StreamItem};
use navarchos_ingest::{
    read_checkpoint, write_checkpoint, FleetAlarm, IngestConfig, ShardedIngest, SnapError,
};
use navarchos_tsframe::FilterSpec;
use proptest::prelude::*;

const HORIZON: i64 = 600;
const STEP: i64 = 60;
const NAMES: [&str; 2] = ["a", "b"];

fn tiny_config(n_shards: usize) -> IngestConfig {
    let mut cfg = IngestConfig::paper_default(n_shards);
    cfg.horizon_s = HORIZON;
    cfg.pipeline = PipelineConfig {
        window: 8,
        stride: 2,
        profile_length: 10,
        holdout: 8,
        filter: FilterSpec::default(),
        ..PipelineConfig::paper_default(TransformKind::Correlation, DetectorKind::ClosestPair)
    };
    cfg
}

/// Three synthetic vehicles, two correlated signals each, a correlation
/// break in the last third (so alarms fire and the equivalence check
/// bites) and one maintenance event — then jittered and duplicated into
/// a dirty arrival order, every displacement strictly below the horizon.
fn dirty_stream(
    phase: f64,
    amp: f64,
    jitters: &[i64],
    dup_jitters: &[i64],
    dup_marks: &[u8],
) -> Vec<StreamItem> {
    let mut items = Vec::new();
    for v in [3u32, 7, 11] {
        for i in 0..200usize {
            let t = i as i64 * STEP;
            let x = (i as f64 * 0.31 + phase + f64::from(v)).sin() * amp + 10.0;
            let y = if i < 130 { 2.0 * x + 1.0 } else { 21.0 - (i as f64 * 0.77).cos() * amp };
            items.push(StreamItem {
                vehicle: v,
                timestamp: t,
                body: StreamBody::Record(vec![x, y]),
            });
        }
        items.push(StreamItem {
            vehicle: v,
            timestamp: 40 * STEP,
            body: StreamBody::Maintenance { is_repair: false },
        });
    }
    items.sort_by_key(|i| (i.timestamp, i.body.rank()));

    let mut keyed: Vec<(i64, usize, StreamItem)> = Vec::new();
    let mut seq = 0usize;
    for (i, item) in items.iter().enumerate() {
        keyed.push((item.timestamp + jitters[i % jitters.len()], seq, item.clone()));
        seq += 1;
        if dup_marks[i % dup_marks.len()] < 25 {
            keyed.push((item.timestamp + dup_jitters[i % dup_jitters.len()], seq, item.clone()));
            seq += 1;
        }
    }
    keyed.sort_by_key(|&(k, s, _)| (k, s));
    keyed.into_iter().map(|(_, _, it)| it).collect()
}

/// Bit-exact view of an alarm list, grouped per vehicle, each channel
/// named by index from the engine's channel table. Grouping is necessary
/// because batch boundaries reorder alarms *across* vehicles (shard
/// emission order) while preserving order *within* each vehicle.
fn by_vehicle_bits(alarms: &[FleetAlarm]) -> BTreeMap<u32, Vec<(i64, usize, String, u64, u64)>> {
    let engine = ShardedIngest::new(&NAMES, tiny_config(1));
    let mut map: BTreeMap<u32, Vec<_>> = BTreeMap::new();
    for fa in alarms {
        let Alarm { timestamp, channel, score, threshold } = fa.alarm;
        map.entry(fa.vehicle).or_default().push((
            timestamp,
            channel,
            engine.channel_names()[channel].clone(),
            score.to_bits(),
            threshold.to_bits(),
        ));
    }
    map
}

proptest! {
    // 96 cases ≥ the 64 random cut points the acceptance criteria demand,
    // with headroom; each case is two full engine runs plus a round trip.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline contract, end to end.
    #[test]
    fn checkpoint_at_any_cut_point_resumes_byte_identical(
        phase in 0.0f64..3.0,
        amp in 1.0f64..4.0,
        jitters in prop::collection::vec(0i64..HORIZON, 64),
        dup_jitters in prop::collection::vec(0i64..HORIZON, 64),
        dup_marks in prop::collection::vec(0u8..100, 64),
        cut_sel in 0usize..1_000_000,
        n_shards in 1usize..4,
    ) {
        let stream = dirty_stream(phase, amp, &jitters, &dup_jitters, &dup_marks);
        let cut = cut_sel % (stream.len() + 1);

        // Oracle: the uninterrupted run.
        let mut oracle = ShardedIngest::new(&NAMES, tiny_config(n_shards));
        let mut oracle_alarms = oracle.ingest_batch(stream.clone());
        oracle_alarms.extend(oracle.finish());
        prop_assert!(!oracle_alarms.is_empty(), "the synthetic break must raise alarms");

        // Wounded run: ingest up to the cut, checkpoint, restore into a
        // fresh engine, feed the remainder.
        let mut first = ShardedIngest::new(&NAMES, tiny_config(n_shards));
        let prior = first.ingest_batch(stream[..cut].to_vec());
        let bytes = write_checkpoint(&first, cut as u64, &prior);
        drop(first);

        let restored = read_checkpoint(&NAMES, tiny_config(n_shards), &bytes)
            .expect("a pristine checkpoint must restore");
        prop_assert_eq!(restored.cursor, cut as u64);

        // Snapshot → restore → snapshot is byte-stable.
        let again = write_checkpoint(&restored.engine, restored.cursor, &restored.prior_alarms);
        prop_assert_eq!(&bytes, &again, "re-snapshot of a restored engine must be byte-identical");

        let mut engine = restored.engine;
        let mut alarms = restored.prior_alarms;
        alarms.extend(engine.ingest_batch(stream[cut..].to_vec()));
        alarms.extend(engine.finish());

        prop_assert_eq!(
            by_vehicle_bits(&alarms),
            by_vehicle_bits(&oracle_alarms),
            "restored run diverged from the uninterrupted run at cut {}",
            cut
        );
        prop_assert_eq!(engine.stats(), oracle.stats(), "cumulative counters must survive the cut");
    }

    /// Every truncation of a checkpoint is an error; every single-byte
    /// corruption is an error; neither ever panics.
    #[test]
    fn truncated_or_corrupted_checkpoint_is_an_error_never_a_panic(
        trunc_sel in 0usize..1_000_000,
        flip_sel in 0usize..1_000_000,
        flip_mask in 1u8..=255,
    ) {
        // One deterministic warmed engine per case keeps this cheap; the
        // drawn values choose where to wound the bytes.
        let mut engine = ShardedIngest::new(&NAMES, tiny_config(2));
        let alarms: Vec<FleetAlarm> = engine.ingest_batch(
            (0..120usize)
                .map(|i| {
                    let x = (i as f64 * 0.37).sin() * 3.0 + 10.0;
                    StreamItem {
                        vehicle: i as u32 % 2,
                        timestamp: (i as i64 / 2) * STEP,
                        body: StreamBody::Record(vec![x, 2.0 * x + 1.0]),
                    }
                })
                .collect(),
        );
        let bytes = write_checkpoint(&engine, 120, &alarms);

        let trunc_at = trunc_sel % bytes.len();
        let err = read_checkpoint(&NAMES, tiny_config(2), &bytes[..trunc_at])
            .expect_err("a truncated checkpoint must be refused");
        prop_assert!(
            !matches!(err, SnapError::VersionMismatch { .. }),
            "truncation must not masquerade as a version skew"
        );

        let mut flipped = bytes.clone();
        let flip_at = flip_sel % flipped.len();
        flipped[flip_at] ^= flip_mask;
        read_checkpoint(&NAMES, tiny_config(2), &flipped)
            .expect_err("a corrupted checkpoint must be refused");
    }
}
