//! Deterministic golden end-to-end test: a seeded fleetsim fleet,
//! interleaved into one stream and salted with lossless dirt (within-
//! horizon reordering + exact duplicates), must produce **byte-identical**
//! per-vehicle alarms through the sharded ingest engine as through sorted
//! single-vehicle replay (`replay_interleaved`).
//!
//! Everything is pinned: the fleet seed, the dirt seed, the shard counts.
//! No clocks, no test-local RNG — a failure here is a real equivalence
//! break, never flake.

use std::collections::BTreeMap;

use navarchos_core::pipeline::{replay_interleaved, Alarm};
use navarchos_fleetsim::{
    dirty_stream, interleave_fleet, DirtyConfig, FleetConfig, FleetData, StreamItem,
};
use navarchos_ingest::{read_checkpoint, write_checkpoint, IngestConfig, ShardedIngest};

/// The committed scenario seeds.
const FLEET_SEED: u64 = 42;
const DIRT_SEED: u64 = 1234;

fn fleet() -> FleetData {
    FleetConfig::small(FLEET_SEED).generate()
}

/// Per-vehicle maintenance logs in `replay_stream`'s `(timestamp,
/// is_repair)` shape.
fn maintenance_logs(fleet: &FleetData) -> Vec<Vec<(i64, bool)>> {
    fleet.vehicles.iter().map(|vd| vd.maintenance_log()).collect()
}

/// Sorted replay oracle: vehicle id → alarms.
fn oracle(fleet: &FleetData, cfg: &IngestConfig) -> BTreeMap<u32, Vec<Alarm>> {
    let logs = maintenance_logs(fleet);
    let vehicles: Vec<_> =
        fleet.vehicles.iter().zip(&logs).map(|(vd, log)| (vd.frame.clone(), log.clone())).collect();
    let per_vehicle = replay_interleaved(&vehicles, &cfg.pipeline);
    fleet
        .vehicles
        .iter()
        .map(|vd| vd.id.0)
        .zip(per_vehicle)
        .filter(|(_, alarms)| !alarms.is_empty())
        .collect()
}

/// Engine run: vehicle id → alarms, plus the engine for stats assertions.
fn engine_run(
    fleet: &FleetData,
    stream: Vec<StreamItem>,
    cfg: &IngestConfig,
) -> (BTreeMap<u32, Vec<Alarm>>, ShardedIngest) {
    let names = fleet.vehicles[0].frame.names().to_vec();
    let mut engine = ShardedIngest::new(&names, cfg.clone());
    let mut alarms = engine.ingest_batch(stream);
    alarms.extend(engine.finish());
    let mut by_vehicle: BTreeMap<u32, Vec<Alarm>> = BTreeMap::new();
    for fa in alarms {
        by_vehicle.entry(fa.vehicle).or_default().push(fa.alarm);
    }
    (by_vehicle, engine)
}

#[test]
fn clean_stream_matches_sorted_replay() {
    let fleet = fleet();
    let cfg = IngestConfig::paper_default(3);
    let expected = oracle(&fleet, &cfg);
    let (got, engine) = engine_run(&fleet, interleave_fleet(&fleet), &cfg);
    assert_eq!(got, expected, "clean interleaved stream must reproduce per-vehicle replay");
    let stats = engine.stats();
    assert_eq!(stats.dead_letter, 0);
    assert_eq!(stats.duplicates, 0);
    assert_eq!(stats.late_dropped, 0);
    assert_eq!(stats.forced_releases, 0);
    assert!(stats.alarms > 0, "the seeded fleet must raise alarms for the test to bite");
}

#[test]
fn dirty_stream_matches_sorted_replay_byte_identical() {
    let fleet = fleet();
    let clean = interleave_fleet(&fleet);
    let dirt = DirtyConfig::reorder_and_dup(DIRT_SEED);
    assert!(dirt.reorder_horizon_s <= IngestConfig::paper_default(1).horizon_s);
    let dirty = dirty_stream(&clean, &dirt);
    assert!(dirty.len() > clean.len(), "dirt must actually add duplicates");

    for n_shards in [1usize, 4] {
        let cfg = IngestConfig::paper_default(n_shards);
        let expected = oracle(&fleet, &cfg);
        let (got, engine) = engine_run(&fleet, dirty.clone(), &cfg);
        assert_eq!(
            got, expected,
            "dirty stream through {n_shards} shard(s) must match sorted replay"
        );
        let stats = engine.stats();
        assert!(stats.reordered > 0, "dirt must actually reorder");
        assert!(stats.duplicates + stats.late_dropped > 0, "duplicates must be dropped");
        assert_eq!(stats.dead_letter, 0, "lossless dirt produces no dead letters");
        assert_eq!(stats.forced_releases, 0, "horizon fits in capacity");
    }
}

#[test]
fn lossy_stream_degrades_gracefully() {
    // Gaps + corruption break equivalence by construction; the contract
    // here is weaker and different: nothing panics, malformed records are
    // counted into the dead-letter sink, and the engine still raises
    // alarms from the surviving data.
    let fleet = fleet();
    let clean = interleave_fleet(&fleet);
    let dirty = dirty_stream(&clean, &DirtyConfig::lossy(DIRT_SEED));
    let cfg = IngestConfig::paper_default(2);
    let (got, engine) = engine_run(&fleet, dirty, &cfg);
    let stats = engine.stats();
    assert!(stats.dead_letter > 0, "corruption must be observed");
    assert!(!engine.dead_letters().is_empty(), "samples are retained");
    assert!(stats.alarms > 0 && !got.is_empty(), "pipelines keep working around the dirt");
}

#[test]
fn beyond_horizon_straggler_never_corrupts_window_state() {
    // Clean stream plus one injected far-late record: the engine must
    // count it in late_dropped and produce alarms identical to the clean
    // run — the straggler cannot perturb any pipeline's window.
    let fleet = fleet();
    let cfg = IngestConfig::paper_default(2);
    let expected = oracle(&fleet, &cfg);

    let clean = interleave_fleet(&fleet);
    let victim = fleet.vehicles[0].id.0;
    // A duplicate of the vehicle's first record, re-arriving mid-stream —
    // days past the horizon. Place it after enough traffic that the
    // vehicle's watermark has long moved on.
    let first = clean.iter().find(|i| i.vehicle == victim).expect("vehicle 0 has records").clone();
    let mut salted = clean.clone();
    let insert_at = salted.len() / 2;
    let mut straggler = first;
    straggler.timestamp += 1; // never-seen timestamp → genuinely late, not a duplicate
    salted.insert(insert_at, straggler);

    let (got, engine) = engine_run(&fleet, salted, &cfg);
    assert_eq!(got, expected, "straggler must not change a single alarm");
    assert_eq!(engine.stats().late_dropped, 1, "straggler is counted");
}

/// Groups a flat fleet-alarm list per vehicle, preserving emission order
/// within each vehicle (batch boundaries permute alarms only *across*
/// vehicles, by shard emission order).
fn group(alarms: Vec<navarchos_ingest::FleetAlarm>) -> BTreeMap<u32, Vec<Alarm>> {
    let mut by_vehicle: BTreeMap<u32, Vec<Alarm>> = BTreeMap::new();
    for fa in alarms {
        by_vehicle.entry(fa.vehicle).or_default().push(fa.alarm);
    }
    by_vehicle
}

/// Bit-exact equality: `Alarm`'s `PartialEq` compares `f64`s by value,
/// which conflates `0.0`/`-0.0`; the checkpoint contract is stronger.
fn assert_bit_identical(got: &BTreeMap<u32, Vec<Alarm>>, expected: &BTreeMap<u32, Vec<Alarm>>) {
    assert_eq!(got, expected);
    for (v, alarms) in got {
        for (a, b) in alarms.iter().zip(&expected[v]) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "score bits diverge on vehicle {v}");
            assert_eq!(
                a.threshold.to_bits(),
                b.threshold.to_bits(),
                "threshold bits diverge on vehicle {v}"
            );
        }
    }
}

#[test]
fn checkpoint_mid_replay_resumes_byte_identical_to_oracle() {
    // The committed-seed dirty stream, wounded at three different depths:
    // early (reference windows still filling), midway, and late (most
    // alarms already emitted). Each wound: checkpoint → fresh engine →
    // restore → feed the remainder. Total alarms must equal the sorted-
    // replay oracle bit for bit, and cumulative counters must match the
    // uninterrupted engine's.
    let fleet = fleet();
    let clean = interleave_fleet(&fleet);
    let dirty = dirty_stream(&clean, &DirtyConfig::reorder_and_dup(DIRT_SEED));
    let cfg = IngestConfig::paper_default(3);
    let expected = oracle(&fleet, &cfg);
    let (_, uninterrupted) = engine_run(&fleet, dirty.clone(), &cfg);
    let names = fleet.vehicles[0].frame.names().to_vec();

    for cut in [dirty.len() / 8, dirty.len() / 2, dirty.len() * 7 / 8] {
        let mut first = ShardedIngest::new(&names, cfg.clone());
        let prior = first.ingest_batch(dirty[..cut].to_vec());
        let bytes = write_checkpoint(&first, cut as u64, &prior);
        drop(first);

        let restored =
            read_checkpoint(&names, cfg.clone(), &bytes).expect("golden checkpoint restores");
        assert_eq!(restored.cursor, cut as u64);
        let mut engine = restored.engine;
        let mut alarms = restored.prior_alarms;
        alarms.extend(engine.ingest_batch(dirty[cut..].to_vec()));
        alarms.extend(engine.finish());

        assert_bit_identical(&group(alarms), &expected);
        assert_eq!(engine.stats(), uninterrupted.stats(), "counters must survive the cut at {cut}");
    }
}
