//! Fleet stream construction: interleaving per-vehicle histories into one
//! tagged event stream, and a deterministic dirty-stream adapter that
//! injects the faults real telematics feeds carry.
//!
//! The simulator's native output is per-vehicle (one [`Frame`] plus an
//! event log each); a serving-path ingest engine instead consumes a single
//! multiplexed feed. [`interleave_fleet`] produces that feed in canonical
//! (clean) order; [`dirty_stream`] then perturbs it — out-of-order
//! arrivals bounded by a horizon, exact duplicates, gaps, corrupted
//! records — reproducibly from a seed, so the engine's tolerance
//! guarantees can be tested against a known ground truth.

use navarchos_tsframe::Frame;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fleet::FleetData;

/// One element of a multiplexed fleet feed, tagged with its vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamItem {
    /// Source vehicle id (the wire-level tag, not a fleet index).
    pub vehicle: u32,
    /// Event time in epoch seconds.
    pub timestamp: i64,
    /// Telemetry record or maintenance marker.
    pub body: StreamBody,
}

/// Payload of a [`StreamItem`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamBody {
    /// One telemetry record: the vehicle's signal values at the timestamp.
    Record(Vec<f64>),
    /// A maintenance-log entry (service or repair).
    Maintenance {
        /// True for repairs (component replacements), false for services.
        is_repair: bool,
    },
}

impl StreamBody {
    /// Canonical ordering rank at equal timestamps: maintenance sorts
    /// before records, matching `replay_stream`'s "process events with
    /// `mt <= t` before the record at `t`" contract.
    pub fn rank(&self) -> u8 {
        match self {
            StreamBody::Maintenance { .. } => 0,
            StreamBody::Record(_) => 1,
        }
    }
}

/// Interleaves per-vehicle `(frame, maintenance)` histories into one
/// clean stream, sorted by `(timestamp, vehicle, rank)` — so each
/// vehicle's subsequence is its sorted history with maintenance markers
/// preceding same-timestamp records.
pub fn interleave_streams(vehicles: &[(u32, &Frame, &[(i64, bool)])]) -> Vec<StreamItem> {
    let total: usize = vehicles.iter().map(|(_, f, m)| f.len() + m.len()).sum();
    let mut out = Vec::with_capacity(total);
    for &(vehicle, frame, maintenance) in vehicles {
        let mut row = Vec::with_capacity(frame.width());
        for i in 0..frame.len() {
            frame.row_into(i, &mut row);
            out.push(StreamItem {
                vehicle,
                timestamp: frame.timestamps()[i],
                body: StreamBody::Record(row.clone()),
            });
        }
        for &(timestamp, is_repair) in maintenance {
            out.push(StreamItem {
                vehicle,
                timestamp,
                body: StreamBody::Maintenance { is_repair },
            });
        }
    }
    out.sort_by(|a, b| {
        (a.timestamp, a.vehicle, a.body.rank()).cmp(&(b.timestamp, b.vehicle, b.body.rank()))
    });
    out
}

/// Interleaves a simulated fleet into one clean stream (every vehicle's
/// records plus its *recorded* maintenance events — the partial-information
/// log, exactly what a live feed would carry).
pub fn interleave_fleet(fleet: &FleetData) -> Vec<StreamItem> {
    let logs: Vec<Vec<(i64, bool)>> =
        fleet.vehicles.iter().map(|vd| vd.maintenance_log()).collect();
    let refs: Vec<_> = fleet
        .vehicles
        .iter()
        .zip(&logs)
        .map(|(vd, log)| (vd.id.0, &vd.frame, log.as_slice()))
        .collect();
    interleave_streams(&refs)
}

/// Fault-injection knobs for [`dirty_stream`]. All draws come from one
/// `StdRng` seeded with `seed`, so a config is a complete description of
/// the dirt: same config + same clean stream = same dirty stream.
#[derive(Debug, Clone)]
pub struct DirtyConfig {
    /// Seed for the fault RNG.
    pub seed: u64,
    /// Probability an item is delayed (arrives out of order).
    pub reorder_prob: f64,
    /// Maximum arrival delay in seconds, **exclusive**: delays are drawn
    /// from `[0, reorder_horizon_s)`, so an ingest reorder buffer with a
    /// lateness horizon `>= reorder_horizon_s` provably never drops a
    /// delayed original.
    pub reorder_horizon_s: i64,
    /// Probability an item is followed by an exact duplicate (the copy
    /// gets its own independent arrival delay).
    pub dup_prob: f64,
    /// Probability an item is silently dropped (a feed gap).
    pub drop_prob: f64,
    /// Probability a record's payload is corrupted (non-finite value,
    /// truncated row, or emptied row — all malformed on the wire).
    pub corrupt_prob: f64,
    /// Optional targeted fault: one chosen vehicle's records are
    /// deterministically corrupted from an onset point onward, modelling a
    /// single failing sensor head rather than fleet-wide wire noise. Does
    /// not consume RNG draws, so enabling it never perturbs the background
    /// dirt drawn from `seed`.
    pub targeted: Option<TargetedCorruption>,
}

/// A deterministic per-vehicle corruption campaign for [`DirtyConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct TargetedCorruption {
    /// Vehicle whose records are corrupted.
    pub vehicle: u32,
    /// Fraction of the clean stream (by index, `0.0..=1.0`) after which
    /// the corruption switches on; records before the onset pass clean.
    pub onset: f64,
    /// What the corruption does to each record past the onset.
    pub mode: CorruptionMode,
}

/// Payload transform applied by [`TargetedCorruption`].
#[derive(Debug, Clone, PartialEq)]
pub enum CorruptionMode {
    /// Every signal value becomes NaN — the record is malformed on the
    /// wire (dead-letters downstream) and drives NaN-fraction monitors.
    NanBurst,
    /// Every signal value gains a constant additive bias — records stay
    /// finite and well-formed, so only distribution-drift monitors see it.
    Bias(f64),
}

impl DirtyConfig {
    /// Lossless dirt: reorder + duplicate faults only. Under this config
    /// the dirty stream carries exactly the clean stream's information, so
    /// engine alarms must match sorted replay byte-for-byte.
    pub fn reorder_and_dup(seed: u64) -> Self {
        DirtyConfig {
            seed,
            reorder_prob: 0.3,
            reorder_horizon_s: 1800,
            dup_prob: 0.02,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            targeted: None,
        }
    }

    /// Lossy dirt: everything in [`DirtyConfig::reorder_and_dup`] plus
    /// gaps and corrupted records. Equivalence with clean replay no longer
    /// holds; this config exercises graceful degradation instead.
    pub fn lossy(seed: u64) -> Self {
        DirtyConfig { drop_prob: 0.01, corrupt_prob: 0.005, ..DirtyConfig::reorder_and_dup(seed) }
    }

    /// Adds a targeted corruption campaign on top of the existing dirt.
    /// Background faults are unchanged (targeting spends no RNG draws).
    pub fn with_target(mut self, vehicle: u32, onset: f64, mode: CorruptionMode) -> Self {
        self.targeted = Some(TargetedCorruption { vehicle, onset, mode });
        self
    }
}

/// Applies [`DirtyConfig`] faults to a clean stream, returning the items
/// in *arrival* order (event timestamps untouched; arrival position is
/// event time plus the drawn delay, stably sorted so undelayed items keep
/// their relative order).
pub fn dirty_stream(clean: &[StreamItem], cfg: &DirtyConfig) -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut keyed: Vec<(i64, usize, StreamItem)> = Vec::with_capacity(clean.len());
    let mut seq = 0usize;
    let mut push = |keyed: &mut Vec<(i64, usize, StreamItem)>, arrival: i64, item: StreamItem| {
        keyed.push((arrival, seq, item));
        seq += 1;
    };
    let onset_index =
        cfg.targeted.as_ref().map(|t| (t.onset.clamp(0.0, 1.0) * clean.len() as f64) as usize);
    for (index, item) in clean.iter().enumerate() {
        if cfg.drop_prob > 0.0 && rng.gen_bool(cfg.drop_prob) {
            continue;
        }
        let mut it = item.clone();
        if let (Some(t), Some(onset)) = (cfg.targeted.as_ref(), onset_index) {
            if it.vehicle == t.vehicle && index >= onset {
                corrupt_targeted(&mut it, &t.mode);
            }
        }
        if cfg.corrupt_prob > 0.0 && rng.gen_bool(cfg.corrupt_prob) {
            corrupt(&mut it, &mut rng);
        }
        let delay = |rng: &mut StdRng| {
            if cfg.reorder_horizon_s > 0 {
                rng.gen_range(0..cfg.reorder_horizon_s)
            } else {
                0
            }
        };
        let jitter = if cfg.reorder_prob > 0.0 && rng.gen_bool(cfg.reorder_prob) {
            delay(&mut rng)
        } else {
            0
        };
        // Duplicate the post-corruption item: the copy must be an *exact*
        // duplicate of what actually arrived, corrupted or not.
        let dup = if cfg.dup_prob > 0.0 && rng.gen_bool(cfg.dup_prob) {
            Some((it.timestamp + delay(&mut rng), it.clone()))
        } else {
            None
        };
        push(&mut keyed, it.timestamp + jitter, it);
        if let Some((arrival, copy)) = dup {
            push(&mut keyed, arrival, copy);
        }
    }
    keyed.sort_by_key(|&(arrival, seq, _)| (arrival, seq));
    keyed.into_iter().map(|(_, _, item)| item).collect()
}

/// Applies a [`CorruptionMode`] to a record payload. Maintenance markers
/// pass through untouched.
fn corrupt_targeted(item: &mut StreamItem, mode: &CorruptionMode) {
    let StreamBody::Record(row) = &mut item.body else {
        return;
    };
    match mode {
        CorruptionMode::NanBurst => row.iter_mut().for_each(|v| *v = f64::NAN),
        CorruptionMode::Bias(b) => row.iter_mut().for_each(|v| *v += b),
    }
}

/// Mangles a record payload in one of three wire-plausible ways. Leaves
/// maintenance markers alone (they carry no payload to corrupt).
fn corrupt(item: &mut StreamItem, rng: &mut StdRng) {
    let StreamBody::Record(row) = &mut item.body else {
        return;
    };
    match rng.gen_range(0..3u32) {
        0 if !row.is_empty() => {
            let i = rng.gen_range(0..row.len());
            row[i] = f64::NAN;
        }
        1 if !row.is_empty() => {
            row.truncate(row.len() - 1);
        }
        _ => row.clear(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;

    fn tiny_fleet() -> FleetData {
        FleetConfig {
            n_vehicles: 3,
            n_days: 4,
            n_recorded: 3,
            n_failures: 1,
            ..FleetConfig::small(7)
        }
        .generate()
    }

    #[test]
    fn interleave_is_sorted_and_complete() {
        let fleet = tiny_fleet();
        let stream = interleave_fleet(&fleet);
        let n_records: usize = fleet.vehicles.iter().map(|v| v.frame.len()).sum();
        let n_maint: usize = fleet.vehicles.iter().map(|v| v.maintenance_log().len()).sum();
        assert_eq!(stream.len(), n_records + n_maint);
        for w in stream.windows(2) {
            let ka = (w[0].timestamp, w[0].vehicle, w[0].body.rank());
            let kb = (w[1].timestamp, w[1].vehicle, w[1].body.rank());
            assert!(ka <= kb, "stream must be sorted: {ka:?} then {kb:?}");
        }
    }

    #[test]
    fn per_vehicle_subsequence_is_the_vehicle_history() {
        let fleet = tiny_fleet();
        let stream = interleave_fleet(&fleet);
        for vd in &fleet.vehicles {
            let records: Vec<i64> = stream
                .iter()
                .filter(|i| i.vehicle == vd.id.0 && matches!(i.body, StreamBody::Record(_)))
                .map(|i| i.timestamp)
                .collect();
            assert_eq!(records, vd.frame.timestamps(), "vehicle {}", vd.id);
        }
    }

    #[test]
    fn dirty_stream_is_deterministic_and_bounded() {
        let fleet = tiny_fleet();
        let clean = interleave_fleet(&fleet);
        let cfg = DirtyConfig::reorder_and_dup(99);
        let a = dirty_stream(&clean, &cfg);
        let b = dirty_stream(&clean, &cfg);
        assert_eq!(a, b, "same seed, same dirt");
        assert!(a.len() >= clean.len(), "lossless dirt only adds duplicates");
        // Every clean item survives (drop_prob = 0) and duplicates exist
        // at this stream length with dup_prob = 0.02.
        assert!(a.len() > clean.len(), "expected at least one duplicate");
    }

    #[test]
    fn lossless_dirt_preserves_multiset_of_items() {
        let fleet = tiny_fleet();
        let clean = interleave_fleet(&fleet);
        let dirty = dirty_stream(&clean, &DirtyConfig::reorder_and_dup(5));
        // Dedup exact copies, then sort by canonical key: must equal clean.
        let mut seen = clean.clone();
        let mut recovered: Vec<StreamItem> = Vec::new();
        for item in &dirty {
            if let Some(pos) = seen.iter().position(|c| c == item) {
                seen.remove(pos);
                recovered.push(item.clone());
            }
        }
        assert!(seen.is_empty(), "every clean item must appear in the dirty stream");
        assert_eq!(recovered.len(), clean.len());
    }

    #[test]
    fn lossy_dirt_corrupts_and_drops() {
        let fleet =
            FleetConfig { n_vehicles: 4, n_days: 10, n_recorded: 4, ..FleetConfig::small(3) }
                .generate();
        let clean = interleave_fleet(&fleet);
        let dirty = dirty_stream(&clean, &DirtyConfig::lossy(11));
        let malformed = dirty
            .iter()
            .filter(|i| match &i.body {
                StreamBody::Record(row) => {
                    row.len() != fleet.vehicles[0].frame.width()
                        || row.iter().any(|v| !v.is_finite())
                }
                StreamBody::Maintenance { .. } => false,
            })
            .count();
        assert!(malformed > 0, "corrupt_prob must produce malformed records");
        assert!(dirty.len() < clean.len() + clean.len() / 50, "drops offset dups");
    }

    #[test]
    fn targeting_never_perturbs_the_background_dirt() {
        let fleet = tiny_fleet();
        let clean = interleave_fleet(&fleet);
        let base = dirty_stream(&clean, &DirtyConfig::reorder_and_dup(99));
        let targeted = dirty_stream(
            &clean,
            &DirtyConfig::reorder_and_dup(99).with_target(u32::MAX, 0.5, CorruptionMode::NanBurst),
        );
        // Target vehicle doesn't exist, so the streams must be identical:
        // enabling targeting spends no RNG draws.
        assert_eq!(base, targeted);
    }

    #[test]
    fn nan_burst_corrupts_only_the_target_after_onset() {
        let fleet = tiny_fleet();
        let clean = interleave_fleet(&fleet);
        let victim = fleet.vehicles[0].id.0;
        let cfg =
            DirtyConfig::reorder_and_dup(42).with_target(victim, 0.5, CorruptionMode::NanBurst);
        let dirty = dirty_stream(&clean, &cfg);
        let is_nan_row = |i: &StreamItem| match &i.body {
            StreamBody::Record(row) => !row.is_empty() && row.iter().all(|v| v.is_nan()),
            StreamBody::Maintenance { .. } => false,
        };
        assert!(dirty.iter().any(|i| i.vehicle == victim && is_nan_row(i)));
        assert!(
            dirty.iter().filter(|i| i.vehicle != victim).all(|i| !is_nan_row(i)),
            "bystander vehicles must stay clean (corrupt_prob is 0 here)"
        );
        // Records before the onset index pass clean: the victim still has
        // well-formed records somewhere in the dirty stream.
        assert!(dirty.iter().any(|i| i.vehicle == victim
            && matches!(&i.body, StreamBody::Record(row) if row.iter().all(|v| v.is_finite()))));
    }

    #[test]
    fn bias_mode_keeps_rows_finite_but_shifted() {
        let fleet = tiny_fleet();
        let clean = interleave_fleet(&fleet);
        let victim = fleet.vehicles[0].id.0;
        let cfg =
            DirtyConfig { reorder_prob: 0.0, dup_prob: 0.0, ..DirtyConfig::reorder_and_dup(7) }
                .with_target(victim, 0.0, CorruptionMode::Bias(1e6));
        let dirty = dirty_stream(&clean, &cfg);
        let mut shifted = 0usize;
        for (c, d) in clean.iter().zip(&dirty) {
            if let (StreamBody::Record(a), StreamBody::Record(b)) = (&c.body, &d.body) {
                assert!(b.iter().all(|v| v.is_finite()), "bias must keep rows finite");
                if c.vehicle == victim {
                    assert!(a.iter().zip(b).all(|(x, y)| (y - x - 1e6).abs() < 1e-6));
                    shifted += 1;
                } else {
                    assert_eq!(a, b);
                }
            }
        }
        assert!(shifted > 0, "onset 0.0 must shift every victim record");
    }
}
