//! Checkpoint/restore for the sharded ingest engine: the
//! `navarchos-checkpoint/v1` snapshot format.
//!
//! A checkpoint captures **every piece of per-vehicle mutable state** the
//! engine owns — incremental transform accumulators, window cadence,
//! reference profiles and tuned thresholds, detector streaming state,
//! data-quality monitors, per-shard reorder buffers with their in-flight
//! records and watermarks — plus per-shard counters, routing overrides
//! from migrations, and two pieces of replay context supplied by the
//! caller: the **cursor** (stream items consumed so far) and the **alarm
//! ledger** (alarms already emitted), so a restored run can resume a
//! deterministic stream mid-way and still verify its total output against
//! a full-stream oracle.
//!
//! # The headline contract
//!
//! Checkpoint at an arbitrary record `k`, restore into a fresh engine,
//! feed the remainder of the stream: the alarms are **byte-identical** to
//! the uninterrupted run — scores and thresholds compare equal by
//! `f64::to_bits`. `tests/checkpoint_props.rs` proves this over random
//! cut points and dirty streams; `tests/golden.rs` pins it end-to-end on
//! a seeded fleet, including a migration under load.
//!
//! # Format
//!
//! Hand-rolled framed binary (`navarchos_stat::snapshot`), zero-dep:
//! little-endian fixed-width integers, `f64` by bit pattern, length
//! prefixes validated against remaining bytes before any allocation.
//! Layout: magic, version (`u32`, currently 1 — any other value is
//! [`SnapError::VersionMismatch`]), a config fingerprint (signal names
//! plus the scalars that shape serialised state; mismatch is refused as
//! corrupt rather than misinterpreted), then cursor, alarm ledger, the
//! engine frame, and a trailing CRC-32 over everything before it. Magic
//! and version are checked *before* the checksum so a future-format file
//! is still reported as a version mismatch; any other byte flip fails
//! the checksum. Truncated or corrupted bytes return [`SnapError`],
//! never panic.
//!
//! Not captured: health-FSM trackers (wall-clock-rate ops telemetry,
//! re-armed on the first `observe_health` tick after restore) and obs
//! counter handles (global registry state, re-resolved on construction).

use navarchos_core::pipeline::Alarm;
use navarchos_obs as obs;
use navarchos_stat::{SnapError, SnapReader, SnapWriter};

use crate::engine::{FleetAlarm, IngestConfig, ShardedIngest};

/// Leading magic of every checkpoint. The version rides separately so a
/// future-format file is reported as a version mismatch, not bad magic.
pub const CHECKPOINT_MAGIC: &[u8] = b"navarchos-checkpoint";

/// Current snapshot format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// CRC-32 (IEEE 802.3, reflected) — the integrity trailer. Bitwise, no
/// table: checkpoints are written once per N thousand records, so the
/// ~8 cycles/byte cost is irrelevant next to the serialisation itself.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Everything [`read_checkpoint`] recovers.
#[derive(Debug)]
pub struct RestoredEngine {
    /// The engine, state-identical to the one checkpointed.
    pub engine: ShardedIngest,
    /// Stream items the checkpointed run had consumed — the restorer
    /// skips this many items of the deterministically regenerated stream.
    pub cursor: u64,
    /// Alarms the checkpointed run had already emitted, in emission
    /// order; prepend to the resumed run's alarms to compare against a
    /// full-stream oracle.
    pub prior_alarms: Vec<FleetAlarm>,
}

fn write_fleet_alarm(w: &mut SnapWriter, fa: &FleetAlarm) {
    w.put_u32(fa.vehicle);
    w.put_i64(fa.alarm.timestamp);
    w.put_usize(fa.alarm.channel);
    w.put_str(&fa.alarm.channel_name);
    w.put_f64(fa.alarm.score);
    w.put_f64(fa.alarm.threshold);
}

fn read_fleet_alarm(r: &mut SnapReader<'_>) -> Result<FleetAlarm, SnapError> {
    Ok(FleetAlarm {
        vehicle: r.get_u32()?,
        alarm: Alarm {
            timestamp: r.get_i64()?,
            channel: r.get_usize()?,
            channel_name: r.get_str()?,
            score: r.get_f64()?,
            threshold: r.get_f64()?,
        },
    })
}

/// The config scalars that shape serialised state. Restoring under a
/// different value of any of these would silently misinterpret ring
/// bounds and watermarks, so they are pinned into the checkpoint.
fn write_fingerprint(w: &mut SnapWriter, names: &[String], cfg: &IngestConfig) {
    w.put_usize(names.len());
    for n in names {
        w.put_str(n);
    }
    w.put_usize(cfg.n_shards);
    w.put_i64(cfg.horizon_s);
    w.put_usize(cfg.reorder_capacity);
    w.put_usize(cfg.max_dead_letters_kept);
    w.put_usize(cfg.pipeline.window);
    w.put_usize(cfg.pipeline.stride);
    w.put_usize(cfg.pipeline.profile_length);
    w.put_usize(cfg.pipeline.holdout);
    w.put_usize(cfg.quality.reference_len);
    w.put_usize(cfg.quality.window);
}

fn check_fingerprint(
    r: &mut SnapReader<'_>,
    names: &[String],
    cfg: &IngestConfig,
) -> Result<(), SnapError> {
    let n_names = r.get_len(1)?;
    if n_names != names.len() {
        return Err(SnapError::Corrupt("checkpoint signal-name count mismatch"));
    }
    for expected in names {
        if r.get_str()? != *expected {
            return Err(SnapError::Corrupt("checkpoint signal-name mismatch"));
        }
    }
    let same = r.get_usize()? == cfg.n_shards
        && r.get_i64()? == cfg.horizon_s
        && r.get_usize()? == cfg.reorder_capacity
        && r.get_usize()? == cfg.max_dead_letters_kept
        && r.get_usize()? == cfg.pipeline.window
        && r.get_usize()? == cfg.pipeline.stride
        && r.get_usize()? == cfg.pipeline.profile_length
        && r.get_usize()? == cfg.pipeline.holdout
        && r.get_usize()? == cfg.quality.reference_len
        && r.get_usize()? == cfg.quality.window;
    if same {
        Ok(())
    } else {
        Err(SnapError::Corrupt("checkpoint config fingerprint mismatch"))
    }
}

/// Serialises the engine plus replay context into a `v1` checkpoint.
/// Updates the `ingest.checkpoint.{writes,bytes,write_us}` metrics when
/// metrics are on.
pub fn write_checkpoint(
    engine: &ShardedIngest,
    cursor: u64,
    prior_alarms: &[FleetAlarm],
) -> Vec<u8> {
    let t0 = obs::elapsed_ns();
    let mut w = SnapWriter::new();
    w.put_bytes(CHECKPOINT_MAGIC);
    w.put_u32(CHECKPOINT_VERSION);
    w.put_frame(|w| write_fingerprint(w, engine.signal_names(), engine.config()));
    w.put_u64(cursor);
    w.put_usize(prior_alarms.len());
    for fa in prior_alarms {
        write_fleet_alarm(&mut w, fa);
    }
    w.put_frame(|w| engine.write_engine_state(w));
    let mut bytes = w.into_bytes();
    let sum = crc32(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    if obs::metrics_enabled() {
        obs::counter("ingest.checkpoint.writes").incr();
        obs::gauge("ingest.checkpoint.bytes").set(bytes.len() as u64);
        obs::gauge("ingest.checkpoint.write_us").set(obs::elapsed_ns().saturating_sub(t0) / 1000);
    }
    bytes
}

/// Restores a checkpoint into a fresh engine built from `names`/`cfg`,
/// which must match the checkpointed run's (the fingerprint is checked).
/// A wrong version is [`SnapError::VersionMismatch`]; truncated or
/// corrupted bytes are an error, never a panic. Updates the
/// `ingest.checkpoint.{restores,restore_us}` metrics when metrics are on.
pub fn read_checkpoint<S: AsRef<str>>(
    names: &[S],
    cfg: IngestConfig,
    bytes: &[u8],
) -> Result<RestoredEngine, SnapError> {
    let t0 = obs::elapsed_ns();
    let names: Vec<String> = names.iter().map(|s| s.as_ref().to_string()).collect();
    if bytes.len() < 4 {
        return Err(SnapError::UnexpectedEof);
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 4);
    let mut r = SnapReader::new(payload);
    if r.get_bytes()? != CHECKPOINT_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(SnapError::VersionMismatch { found: version, expected: CHECKPOINT_VERSION });
    }
    let stored = u32::from_le_bytes(tail.try_into().expect("split_at keeps 4 bytes"));
    if crc32(payload) != stored {
        return Err(SnapError::Corrupt("checkpoint checksum mismatch"));
    }
    let mut frame = r.get_frame()?;
    check_fingerprint(&mut frame, &names, &cfg)?;
    frame.finish()?;
    let cursor = r.get_u64()?;
    let n_alarms = r.get_len(1)?;
    let mut prior_alarms = Vec::with_capacity(n_alarms);
    for _ in 0..n_alarms {
        prior_alarms.push(read_fleet_alarm(&mut r)?);
    }
    let mut engine = ShardedIngest::new(&names, cfg);
    let mut frame = r.get_frame()?;
    engine.read_engine_state(&mut frame)?;
    frame.finish()?;
    r.finish()?;
    if obs::metrics_enabled() {
        obs::counter("ingest.checkpoint.restores").incr();
        obs::gauge("ingest.checkpoint.restore_us").set(obs::elapsed_ns().saturating_sub(t0) / 1000);
    }
    Ok(RestoredEngine { engine, cursor, prior_alarms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use navarchos_fleetsim::{StreamBody, StreamItem};

    fn tiny_config(n_shards: usize) -> IngestConfig {
        let mut cfg = IngestConfig::paper_default(n_shards);
        cfg.pipeline.window = 8;
        cfg.pipeline.stride = 2;
        cfg.pipeline.profile_length = 6;
        cfg.pipeline.holdout = 4;
        cfg.pipeline.filter = navarchos_tsframe::FilterSpec::default();
        cfg.horizon_s = 300;
        cfg
    }

    fn items(n: usize, vehicles: u32) -> Vec<StreamItem> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 3.0 + 10.0;
                StreamItem {
                    vehicle: i as u32 % vehicles,
                    timestamp: (i as i64 / vehicles as i64) * 60,
                    body: StreamBody::Record(vec![x, 2.0 * x + 1.0]),
                }
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_counters_and_context() {
        let names = ["a", "b"];
        let mut engine = ShardedIngest::new(&names, tiny_config(2));
        let alarms: Vec<FleetAlarm> = engine.ingest_batch(items(300, 3));
        let stats = engine.stats();
        let bytes = write_checkpoint(&engine, 300, &alarms);
        let restored = read_checkpoint(&names, tiny_config(2), &bytes).expect("restore");
        assert_eq!(restored.cursor, 300);
        assert_eq!(restored.prior_alarms, alarms);
        assert_eq!(restored.engine.stats(), stats);
        assert_eq!(restored.engine.vehicles_per_shard(), engine.vehicles_per_shard());
        // A snapshot of the restored engine is byte-identical.
        let again = write_checkpoint(&restored.engine, 300, &alarms);
        assert_eq!(bytes, again, "snapshot → restore → snapshot is byte-stable");
    }

    #[test]
    fn version_mismatch_is_a_named_error() {
        let names = ["a", "b"];
        let engine = ShardedIngest::new(&names, tiny_config(1));
        let mut bytes = write_checkpoint(&engine, 0, &[]);
        // The version u32 sits right after the length-prefixed magic.
        let at = 8 + CHECKPOINT_MAGIC.len();
        bytes[at] = 9;
        match read_checkpoint(&names, tiny_config(1), &bytes) {
            Err(SnapError::VersionMismatch { found: 9, expected: 1 }) => {}
            other => panic!("expected a version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_and_fingerprint_are_refused() {
        let names = ["a", "b"];
        let engine = ShardedIngest::new(&names, tiny_config(2));
        let bytes = write_checkpoint(&engine, 0, &[]);
        let mut wrong = bytes.clone();
        wrong[8] ^= 0xFF;
        assert!(matches!(
            read_checkpoint(&names, tiny_config(2), &wrong),
            Err(SnapError::BadMagic)
        ));
        // Same bytes, different shard count: fingerprint mismatch.
        assert!(read_checkpoint(&names, tiny_config(3), &bytes).is_err());
        // Different signal names: fingerprint mismatch.
        assert!(read_checkpoint(&["a", "c"], tiny_config(2), &bytes).is_err());
    }

    #[test]
    fn migrated_vehicle_stays_migrated_after_restore() {
        let names = ["a", "b"];
        let mut engine = ShardedIngest::new(&names, tiny_config(4));
        let _ = engine.ingest_batch(items(200, 2));
        let v = 1u32;
        let home = engine.shard_of(v);
        let target = (home + 1) % 4;
        assert!(engine.migrate_vehicle(v, target));
        assert_eq!(engine.shard_of(v), target);
        assert_eq!(engine.migration_stats().moves, 1);
        let bytes = write_checkpoint(&engine, 200, &[]);
        let restored = read_checkpoint(&names, tiny_config(4), &bytes).expect("restore");
        assert_eq!(restored.engine.shard_of(v), target, "override survives the checkpoint");
        assert_eq!(restored.engine.migration_stats().moves, 1);
    }
}
