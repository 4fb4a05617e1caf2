//! Checkpoint/restore for the sharded ingest engine: the
//! `navarchos-checkpoint/v1` snapshot format.
//!
//! A checkpoint captures **every piece of per-vehicle mutable state** the
//! engine owns — incremental transform accumulators, window cadence,
//! reference profiles and tuned thresholds, detector streaming state,
//! data-quality monitors, per-shard reorder buffers with their in-flight
//! records and watermarks — plus per-shard counters and two pieces of
//! replay context supplied by the caller: the **cursor** (stream items
//! consumed so far) and the **alarm ledger** (alarms already emitted), so
//! a restored run can resume a deterministic stream mid-way and still
//! verify its total output against a full-stream oracle.
//!
//! # The headline contract
//!
//! Checkpoint at an arbitrary record `k`, restore into a fresh engine,
//! feed the remainder of the stream: the alarms are **byte-identical** to
//! the uninterrupted run — scores and thresholds compare equal by
//! `f64::to_bits`. `tests/checkpoint_props.rs` proves this over random
//! cut points and dirty streams; `tests/golden.rs` pins it end-to-end on
//! a seeded fleet at three cut depths, and `tests/checkpoint_fixture.rs`
//! keeps a committed v1 file restoring byte for byte.
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
//! engine frame, and a trailing CRC-32 ([`crc32`], IEEE 802.3) over
//! everything before it. Magic and version are checked *before* the
//! checksum so a future-format file is still reported as a version
//! mismatch; any other byte flip fails the checksum. Truncated or
//! corrupted bytes return [`SnapError`], never panic.
//!
//! Each ledger entry stores its alarm's channel as an index *and* a name.
//! The writer takes the name from the engine's channel table
//! ([`ShardedIngest::channel_names`]); the reader checks both against the
//! restoring engine's table and refuses a mismatch as corrupt, so a ledger
//! never restores an alarm the engine could not have raised. The engine
//! frame keeps three v1 slots that items routed by hash alone leave zero
//! (once a per-vehicle shard table and two move counters); the reader
//! refuses any other value.
//!
//! Not captured: health-FSM trackers (wall-clock-rate ops telemetry,
//! re-armed on the first `observe_health` tick after restore) and obs
//! counter handles (global registry state, re-resolved on construction).

use navarchos_core::pipeline::Alarm;
use navarchos_obs as obs;
use navarchos_stat::snapshot::crc32;
use navarchos_stat::{SnapError, SnapReader, SnapWriter};

use crate::engine::{FleetAlarm, IngestConfig, ShardedIngest};

/// Leading magic of every checkpoint. The version rides separately so a
/// future-format file is reported as a version mismatch, not bad magic.
pub const CHECKPOINT_MAGIC: &[u8] = b"navarchos-checkpoint";

/// Current snapshot format version.
pub const CHECKPOINT_VERSION: u32 = 1;

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

/// Writes one ledger entry, its channel named from `channels`.
///
/// # Panics
/// Panics if the alarm's channel is outside `channels`: the ledger holds
/// only alarms this engine's configuration can raise.
fn write_fleet_alarm(w: &mut SnapWriter, fa: &FleetAlarm, channels: &[String]) {
    w.put_u32(fa.vehicle);
    w.put_i64(fa.alarm.timestamp);
    w.put_usize(fa.alarm.channel);
    w.put_str(&channels[fa.alarm.channel]);
    w.put_f64(fa.alarm.score);
    w.put_f64(fa.alarm.threshold);
}

fn read_fleet_alarm(r: &mut SnapReader<'_>, channels: &[String]) -> Result<FleetAlarm, SnapError> {
    let vehicle = r.get_u32()?;
    let timestamp = r.get_i64()?;
    let channel = r.get_usize()?;
    let Some(name) = channels.get(channel) else {
        return Err(SnapError::Corrupt("ledger alarm on a channel the engine does not have"));
    };
    if r.get_bytes()? != name.as_bytes() {
        return Err(SnapError::Corrupt("ledger alarm channel name differs from the engine's"));
    }
    let alarm = Alarm { timestamp, channel, score: r.get_f64()?, threshold: r.get_f64()? };
    Ok(FleetAlarm { vehicle, alarm })
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
///
/// # Panics
/// Panics if a ledger alarm's channel is outside
/// [`ShardedIngest::channel_names`].
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
        write_fleet_alarm(&mut w, fa, engine.channel_names());
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
    let mut engine = ShardedIngest::new(&names, cfg);
    let n_alarms = r.get_len(1)?;
    let mut prior_alarms = Vec::with_capacity(n_alarms);
    for _ in 0..n_alarms {
        prior_alarms.push(read_fleet_alarm(&mut r, engine.channel_names())?);
    }
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

    /// `bytes` with `edit` applied to the payload and the CRC-32 trailer
    /// recomputed, so the edit reaches the structural checks.
    fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = bytes[..bytes.len() - 4].to_vec();
        edit(&mut payload);
        let sum = crc32(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        payload
    }

    /// Offset just past the ledger's length prefix.
    fn ledger_at(bytes: &[u8]) -> usize {
        let mut r = SnapReader::new(bytes);
        r.get_bytes().unwrap();
        r.get_u32().unwrap();
        r.get_frame().unwrap();
        r.get_u64().unwrap();
        r.get_usize().unwrap();
        bytes.len() - r.remaining()
    }

    fn corrupt_reason<T: std::fmt::Debug>(result: Result<T, SnapError>) -> &'static str {
        match result {
            Err(SnapError::Corrupt(why)) => why,
            other => panic!("expected a named corruption, got {other:?}"),
        }
    }

    #[test]
    fn ledger_channels_are_checked_against_the_engine() {
        let names = ["a", "b"];
        let engine = ShardedIngest::new(&names, tiny_config(1));
        assert_eq!(engine.channel_names(), ["a~b"]);
        let alarm = Alarm { timestamp: 60, channel: 0, score: 2.0, threshold: 1.0 };
        let bytes = write_checkpoint(&engine, 1, &[FleetAlarm { vehicle: 4, alarm }]);
        let restored = read_checkpoint(&names, tiny_config(1), &bytes).expect("restore");
        assert_eq!(restored.prior_alarms, [FleetAlarm { vehicle: 4, alarm }]);

        // Entry layout: vehicle u32, timestamp i64, channel, name, score…
        let channel_at = ledger_at(&bytes) + 4 + 8;
        let out_of_range = resealed(&bytes, |p| p[channel_at] = 1);
        assert_eq!(
            corrupt_reason(read_checkpoint(&names, tiny_config(1), &out_of_range)),
            "ledger alarm on a channel the engine does not have"
        );
        let name_at = channel_at + 8 + 8;
        assert_eq!(&bytes[name_at..name_at + 3], b"a~b");
        let renamed = resealed(&bytes, |p| p[name_at + 2] = b'c');
        assert_eq!(
            corrupt_reason(read_checkpoint(&names, tiny_config(1), &renamed)),
            "ledger alarm channel name differs from the engine's"
        );
    }

    #[test]
    fn engine_frame_with_off_hash_routes_is_refused() {
        let names = ["a", "b"];
        let mut engine = ShardedIngest::new(&names, tiny_config(4));
        let _ = engine.ingest_batch(items(200, 2));
        let bytes = write_checkpoint(&engine, 200, &[]);
        // The engine frame's length prefix, then `finished`, then the
        // three slots that must stay zero: a (vehicle u32, shard usize)
        // table's length and two move counters.
        let frame_at = ledger_at(&bytes);
        let table_at = frame_at + 8 + 1;
        let one_route = resealed(&bytes, |p| {
            let len = u64::from_le_bytes(p[frame_at..frame_at + 8].try_into().unwrap());
            p[frame_at..frame_at + 8].copy_from_slice(&(len + 12).to_le_bytes());
            p[table_at] = 1;
            let entry: Vec<u8> = 1u32.to_le_bytes().into_iter().chain(2u64.to_le_bytes()).collect();
            p.splice(table_at + 8..table_at + 8, entry);
        });
        assert_eq!(
            corrupt_reason(read_checkpoint(&names, tiny_config(4), &one_route)),
            "checkpoint routes vehicles off their hash shard"
        );
        for counter in [table_at + 8, table_at + 16] {
            let moved = resealed(&bytes, |p| p[counter] = 1);
            assert_eq!(
                corrupt_reason(read_checkpoint(&names, tiny_config(4), &moved)),
                "checkpoint counts vehicle moves between shards"
            );
        }
    }
}
