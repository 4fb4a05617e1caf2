//! The sharded fleet ingest engine.
//!
//! One engine owns N [`Shard`]s; a [`ShardRouter`] fans the interleaved
//! fleet stream out by vehicle hash, so each vehicle's state — a bounded
//! [`ReorderBuffer`] plus a [`StreamingPipeline`] — lives on exactly one
//! shard and batches can be processed with one worker per shard
//! ([`ShardedIngest::ingest_batch`] via `par_map_mut`). Malformed records
//! (wrong arity, non-finite values) and same-timestamp conflicts go to a
//! counted dead-letter sink; arrivals beyond the lateness horizon are
//! counted and skipped. Nothing panics on dirty input and no path grows
//! without bound.
//!
//! # Observability
//!
//! Each shard keeps plain `u64` stats that are always on (they cost an
//! increment) and mirrors them into the global `ingest.*` counters when
//! metrics are enabled, resolving the `Arc` handles once at construction
//! — the same discipline as `PipelineStats`. The reorder-buffer depth
//! after each buffered record or maintenance event is recorded into a
//! per-shard `ingest.shardNN.queue_depth` histogram as it happens, so a
//! live scrape sees it.
//!
//! The live ops plane adds two always-available facets: a per-shard
//! `ingest.shardNN.records` counter (so scrape deltas yield per-shard
//! throughput) and a per-shard `ingest.shardNN.health` gauge driven by the
//! [`crate::health`] state machine via [`ShardedIngest::observe_health`].
//!
//! Alarm provenance is journal-only. After [`ShardedIngest::set_provenance`]
//! opts in, every arrival is stamped with the monotonic clock and every
//! emitted alarm leaves an [`AlarmProvenance`] entry (arrival/release/
//! emission stamps + release watermark), drained through
//! [`ShardedIngest::drain_provenance`] into the CLI's NDJSON journal.
//! Without the opt-in the per-record path reads no clock, in-flight items
//! carry arrival stamp 0 and the engine holds no provenance at all.

use std::sync::Arc;

use navarchos_core::pipeline::{Alarm, PipelineConfig, StreamingPipeline};
use navarchos_core::{par_map_mut, DetectorKind, TransformKind};
use navarchos_fleetsim::{StreamBody, StreamItem};
use navarchos_obs as obs;
use navarchos_stat::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::health::{HealthPolicy, HealthSample, HealthState, HealthTransition, ShardHealth};
use crate::quality::{QualityConfig, QualityMonitor, QualitySnapshot};
use crate::reorder::{PushOutcome, ReorderBuffer, SeqKey, Sequenced};
use crate::router::ShardRouter;

/// A stream item plus the wall-clock (monotonic) moment the engine first
/// saw it (0 unless provenance is on). The arrival stamp rides through
/// the reorder buffer so alarm provenance can attribute latency to
/// buffering vs. pipeline work; it is deliberately ignored by
/// [`Sequenced::identical`] — a duplicate is a duplicate no matter when
/// its copies arrived.
#[derive(Debug, Clone)]
struct Arrival {
    item: StreamItem,
    arrival_ns: u64,
}

impl Sequenced for Arrival {
    fn key(&self) -> SeqKey {
        self.item.key()
    }

    fn identical(&self, other: &Self) -> bool {
        self.item.identical(&other.item)
    }
}

/// Serialises one in-flight arrival for checkpoints. The
/// arrival stamp travels too (0 when provenance was off; the layout is the
/// same): [`AlarmProvenance`] subtracts stamps with `saturating_sub`, so a
/// stamp from a previous process (a different monotonic epoch) degrades a
/// latency reading, never an alarm.
fn write_arrival(w: &mut SnapWriter, a: &Arrival) {
    w.put_u32(a.item.vehicle);
    w.put_i64(a.item.timestamp);
    match &a.item.body {
        StreamBody::Record(row) => {
            w.put_u8(0);
            w.put_f64_slice(row);
        }
        StreamBody::Maintenance { is_repair } => {
            w.put_u8(1);
            w.put_bool(*is_repair);
        }
    }
    w.put_u64(a.arrival_ns);
}

/// Counterpart of [`write_arrival`] for an engine whose records carry
/// `n_signals` values. Validation dead-letters every record of another
/// arity or with a non-finite value before it is buffered, so no real
/// checkpoint holds one in flight; such a record is refused as corrupt
/// rather than handed to a pipeline that cannot take it.
fn read_arrival(r: &mut SnapReader<'_>, n_signals: usize) -> Result<Arrival, SnapError> {
    let vehicle = r.get_u32()?;
    let timestamp = r.get_i64()?;
    let body = match r.get_u8()? {
        0 => {
            let row = r.get_f64_iter()?;
            if row.len() != n_signals {
                return Err(SnapError::Corrupt("in-flight record of the wrong arity"));
            }
            let row: Vec<f64> = row.collect();
            if row.iter().any(|v| !v.is_finite()) {
                return Err(SnapError::Corrupt("in-flight record with a non-finite value"));
            }
            StreamBody::Record(row)
        }
        1 => StreamBody::Maintenance { is_repair: r.get_bool()? },
        _ => return Err(SnapError::Corrupt("unknown stream-body tag")),
    };
    let arrival_ns = r.get_u64()?;
    Ok(Arrival { item: StreamItem { vehicle, timestamp, body }, arrival_ns })
}

impl Sequenced for StreamItem {
    fn key(&self) -> SeqKey {
        SeqKey { timestamp: self.timestamp, rank: self.body.rank() }
    }

    fn identical(&self, other: &Self) -> bool {
        if self.vehicle != other.vehicle || self.timestamp != other.timestamp {
            return false;
        }
        match (&self.body, &other.body) {
            (StreamBody::Record(a), StreamBody::Record(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (
                StreamBody::Maintenance { is_repair: a },
                StreamBody::Maintenance { is_repair: b },
            ) => a == b,
            _ => false,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of shards (≥ 1).
    pub n_shards: usize,
    /// Lateness horizon in seconds: an arrival is re-sequenced as long as
    /// it is delayed by strictly less than this. Must be at least the
    /// feed's worst-case delay for the equivalence guarantee to hold.
    pub horizon_s: i64,
    /// Per-vehicle reorder-buffer capacity (items).
    pub reorder_capacity: usize,
    /// Dead letters retained for inspection (the count is unbounded, the
    /// stored samples are capped).
    pub max_dead_letters_kept: usize,
    /// Per-vehicle pipeline instantiation.
    pub pipeline: PipelineConfig,
    /// Per-shard health thresholds and hysteresis (see [`crate::health`]).
    pub health: HealthPolicy,
    /// Per-vehicle data-quality monitor thresholds (see
    /// [`crate::quality`]).
    pub quality: QualityConfig,
}

impl IngestConfig {
    /// The paper's main pipeline (correlation transformation + closest
    /// pair) behind an ingest front with a 30-minute lateness horizon.
    pub fn paper_default(n_shards: usize) -> Self {
        IngestConfig {
            n_shards,
            horizon_s: 1800,
            reorder_capacity: 256,
            max_dead_letters_kept: 32,
            pipeline: PipelineConfig::paper_default(
                TransformKind::Correlation,
                DetectorKind::ClosestPair,
            ),
            health: HealthPolicy::default(),
            quality: QualityConfig::default(),
        }
    }
}

/// Where an alarm's latency went: one journal entry per alarm emitted by
/// the engine, linking event time (the alarm's timestamp and the release
/// watermark, both epoch seconds) with processing time (monotonic
/// nanoseconds at arrival, release and emission). Collected only after
/// [`ShardedIngest::set_provenance`] opts in — alarms are not rare (about
/// one per ten records on a dirty fleet stream), and stamping costs two
/// clock reads per record plus a channel-name clone per alarm — and
/// drained via [`ShardedIngest::drain_provenance`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmProvenance {
    /// Vehicle whose pipeline raised the alarm.
    pub vehicle: u32,
    /// Shard the vehicle is routed to.
    pub shard: usize,
    /// The alarm's event timestamp (epoch seconds).
    pub alarm_timestamp: i64,
    /// The violating channel's name (the alarm carries only its index).
    pub channel_name: String,
    /// The release watermark (epoch seconds) when the triggering record
    /// left the reorder buffer.
    pub watermark_ts: i64,
    /// Monotonic ns when the triggering record arrived at the engine.
    pub arrival_ns: u64,
    /// Monotonic ns when the reorder buffer released it to the pipeline.
    pub release_ns: u64,
    /// Monotonic ns when the pipeline returned the alarm.
    pub emit_ns: u64,
}

impl AlarmProvenance {
    /// Time the triggering record sat in the reorder buffer.
    pub fn buffer_wait_ns(&self) -> u64 {
        self.release_ns.saturating_sub(self.arrival_ns)
    }

    /// Time the pipeline spent on the record that raised the alarm.
    pub fn pipeline_ns(&self) -> u64 {
        self.emit_ns.saturating_sub(self.release_ns)
    }

    /// Arrival-to-emission latency.
    pub fn total_ns(&self) -> u64 {
        self.emit_ns.saturating_sub(self.arrival_ns)
    }
}

/// An alarm raised by some vehicle's pipeline, tagged with the vehicle.
/// Its channel indexes [`ShardedIngest::channel_names`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetAlarm {
    /// The vehicle whose pipeline raised the alarm.
    pub vehicle: u32,
    /// The alarm itself.
    pub alarm: Alarm,
}

/// Why an item was dead-lettered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadLetterReason {
    /// Record row had the wrong number of values.
    WrongArity {
        /// Values present on the wire.
        got: usize,
        /// Values the pipeline expects.
        expected: usize,
    },
    /// Record row contained a NaN or infinity.
    NonFinite,
    /// Same canonical key as a buffered item, different payload.
    Conflict,
}

/// A rejected item, kept (up to a cap) for post-mortem inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// Source vehicle.
    pub vehicle: u32,
    /// Event timestamp of the rejected item.
    pub timestamp: i64,
    /// Classification.
    pub reason: DeadLetterReason,
}

/// Aggregated engine counters (always on; cheap `u64` increments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Telemetry records offered to the engine.
    pub records: u64,
    /// Maintenance markers offered to the engine.
    pub maintenance: u64,
    /// Items released through reorder buffers into pipelines.
    pub released: u64,
    /// Accepted arrivals that were out of order.
    pub reordered: u64,
    /// Exact duplicates dropped.
    pub duplicates: u64,
    /// Arrivals beyond the lateness horizon, counted and skipped.
    pub late_dropped: u64,
    /// Malformed or conflicting items routed to the dead-letter sink.
    pub dead_letter: u64,
    /// Early releases forced by reorder-buffer capacity.
    pub forced_releases: u64,
    /// Alarms raised across all vehicles.
    pub alarms: u64,
    /// Highest reorder-buffer depth observed on any vehicle.
    pub peak_queue_depth: u64,
    /// Records flagged by the per-vehicle data-quality monitors.
    pub quality_flagged: u64,
}

impl IngestStats {
    fn merge(&mut self, other: &IngestStats) {
        self.records += other.records;
        self.maintenance += other.maintenance;
        self.released += other.released;
        self.reordered += other.reordered;
        self.duplicates += other.duplicates;
        self.late_dropped += other.late_dropped;
        self.dead_letter += other.dead_letter;
        self.forced_releases += other.forced_releases;
        self.alarms += other.alarms;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.quality_flagged += other.quality_flagged;
    }

    fn write_state(&self, w: &mut SnapWriter) {
        for v in [
            self.records,
            self.maintenance,
            self.released,
            self.reordered,
            self.duplicates,
            self.late_dropped,
            self.dead_letter,
            self.forced_releases,
            self.alarms,
            self.peak_queue_depth,
            self.quality_flagged,
        ] {
            w.put_u64(v);
        }
    }

    fn read_state(r: &mut SnapReader<'_>) -> Result<IngestStats, SnapError> {
        Ok(IngestStats {
            records: r.get_u64()?,
            maintenance: r.get_u64()?,
            released: r.get_u64()?,
            reordered: r.get_u64()?,
            duplicates: r.get_u64()?,
            late_dropped: r.get_u64()?,
            dead_letter: r.get_u64()?,
            forced_releases: r.get_u64()?,
            alarms: r.get_u64()?,
            peak_queue_depth: r.get_u64()?,
            quality_flagged: r.get_u64()?,
        })
    }
}

fn write_dead_letter(w: &mut SnapWriter, d: &DeadLetter) {
    w.put_u32(d.vehicle);
    w.put_i64(d.timestamp);
    match d.reason {
        DeadLetterReason::WrongArity { got, expected } => {
            w.put_u8(0);
            w.put_usize(got);
            w.put_usize(expected);
        }
        DeadLetterReason::NonFinite => w.put_u8(1),
        DeadLetterReason::Conflict => w.put_u8(2),
    }
}

fn read_dead_letter(r: &mut SnapReader<'_>) -> Result<DeadLetter, SnapError> {
    let vehicle = r.get_u32()?;
    let timestamp = r.get_i64()?;
    let reason = match r.get_u8()? {
        0 => DeadLetterReason::WrongArity { got: r.get_usize()?, expected: r.get_usize()? },
        1 => DeadLetterReason::NonFinite,
        2 => DeadLetterReason::Conflict,
        _ => return Err(SnapError::Corrupt("unknown dead-letter reason tag")),
    };
    Ok(DeadLetter { vehicle, timestamp, reason })
}

/// Global-counter handles, resolved once per shard.
#[derive(Debug)]
struct ShardObs {
    records: std::sync::Arc<obs::Counter>,
    reordered: std::sync::Arc<obs::Counter>,
    duplicates: std::sync::Arc<obs::Counter>,
    late_dropped: std::sync::Arc<obs::Counter>,
    dead_letter: std::sync::Arc<obs::Counter>,
    alarms: std::sync::Arc<obs::Counter>,
    /// Fleet-wide count of quality-flagged records (the burn-rate
    /// evaluator's `quality` policy numerator).
    quality_flagged: std::sync::Arc<obs::Counter>,
    /// Per-shard record count — the `top` client derives records/s per
    /// shard from scrape deltas of this family.
    shard_records: std::sync::Arc<obs::Counter>,
    /// Live health state (0 = Ok, 1 = Degraded, 2 = Stalled).
    health: std::sync::Arc<obs::Gauge>,
    queue_depth: std::sync::Arc<obs::Histogram>,
}

impl ShardObs {
    fn new(shard: usize) -> Self {
        ShardObs {
            records: obs::counter("ingest.records"),
            reordered: obs::counter("ingest.reordered"),
            duplicates: obs::counter("ingest.duplicates"),
            late_dropped: obs::counter("ingest.late_dropped"),
            dead_letter: obs::counter("ingest.dead_letter"),
            alarms: obs::counter("ingest.alarms"),
            quality_flagged: obs::counter("ingest.quality.flagged"),
            shard_records: obs::counter(&format!("ingest.shard{shard:02}.records")),
            health: obs::gauge(&format!("ingest.shard{shard:02}.health")),
            queue_depth: obs::histogram(&format!("ingest.shard{shard:02}.queue_depth")),
        }
    }
}

/// One vehicle's state on its owning shard.
#[derive(Debug)]
struct Lane {
    vehicle: u32,
    buffer: ReorderBuffer<Arrival>,
    pipeline: StreamingPipeline,
}

/// One vehicle's data-quality monitor plus its cached gauge handles.
/// Kept separate from [`Lane`]: monitors observe raw arrivals *before*
/// validation, so a vehicle that only ever sends garbage (and therefore
/// never grows a lane) is still watched.
#[derive(Debug)]
struct QualityLane {
    vehicle: u32,
    monitor: QualityMonitor,
    nan_bp: std::sync::Arc<obs::Gauge>,
    gap_bp: std::sync::Arc<obs::Gauge>,
    drift_mz: std::sync::Arc<obs::Gauge>,
}

impl QualityLane {
    fn new(vehicle: u32, n_channels: usize, cfg: QualityConfig) -> Self {
        QualityLane {
            vehicle,
            monitor: QualityMonitor::new(n_channels, cfg),
            nan_bp: obs::gauge(&format!("ingest.quality.v{vehicle:02}.nan_bp")),
            gap_bp: obs::gauge(&format!("ingest.quality.v{vehicle:02}.gap_bp")),
            drift_mz: obs::gauge(&format!("ingest.quality.v{vehicle:02}.drift_mz")),
        }
    }
}

/// Fraction (0..1) as basis points on a gauge, saturated at 10 000.
fn fraction_to_bp(f: f64) -> u64 {
    if !f.is_finite() || f <= 0.0 {
        0
    } else {
        ((f * 10_000.0).round() as u64).min(10_000)
    }
}

/// A z-score (or similar unbounded positive reading) in milli-units.
fn to_milli(v: f64) -> u64 {
    if !v.is_finite() || v <= 0.0 {
        0
    } else {
        (v * 1000.0).min(u64::MAX as f64 / 2.0).round() as u64
    }
}

/// One shard: the lanes of the vehicles that hash to it.
#[derive(Debug)]
struct Shard {
    index: usize,
    names: Vec<String>,
    /// The engine's score-channel table, shared with every lane.
    channel_names: Arc<[String]>,
    cfg: IngestConfig,
    /// Lanes sorted by vehicle id for binary-search lookup.
    lanes: Vec<Lane>,
    /// Quality monitors, sorted by vehicle id like `lanes`.
    quality: Vec<QualityLane>,
    stats: IngestStats,
    dead: Vec<DeadLetter>,
    obs: ShardObs,
    /// Whether arrivals are stamped and alarms leave provenance (see
    /// [`ShardedIngest::set_provenance`]).
    provenance_on: bool,
    /// Provenance of every alarm this shard emitted, pending drain.
    provenance: Vec<AlarmProvenance>,
    /// Scratch for reorder-buffer releases, reused across items.
    released: Vec<Arrival>,
}

impl Shard {
    fn new(
        index: usize,
        names: Vec<String>,
        channel_names: Arc<[String]>,
        cfg: IngestConfig,
    ) -> Self {
        Shard {
            index,
            names,
            channel_names,
            cfg,
            lanes: Vec::new(),
            quality: Vec::new(),
            stats: IngestStats::default(),
            dead: Vec::new(),
            obs: ShardObs::new(index),
            provenance_on: false,
            provenance: Vec::new(),
            released: Vec::new(),
        }
    }

    /// A fresh lane for `vehicle`, built from this shard's config.
    fn new_lane(&self, vehicle: u32) -> Lane {
        Lane {
            vehicle,
            buffer: ReorderBuffer::new(self.cfg.horizon_s, self.cfg.reorder_capacity),
            pipeline: StreamingPipeline::new_scoped(
                &self.names,
                self.cfg.pipeline.clone(),
                Some(&format!("v{vehicle:02}")),
                Arc::clone(&self.channel_names),
            ),
        }
    }

    fn lane_index(&mut self, vehicle: u32) -> usize {
        match self.lanes.binary_search_by_key(&vehicle, |l| l.vehicle) {
            Ok(i) => i,
            Err(i) => {
                let lane = self.new_lane(vehicle);
                self.lanes.insert(i, lane);
                i
            }
        }
    }

    /// Routes one raw record through the vehicle's quality monitor,
    /// creating it on first sight. Returns true when the record flags.
    fn quality_observe(&mut self, vehicle: u32, timestamp: i64, row: &[f64]) -> bool {
        let i = match self.quality.binary_search_by_key(&vehicle, |q| q.vehicle) {
            Ok(i) => i,
            Err(i) => {
                self.quality
                    .insert(i, QualityLane::new(vehicle, self.names.len(), self.cfg.quality));
                i
            }
        };
        self.quality[i].monitor.observe(timestamp, row)
    }

    fn dead_letter(&mut self, vehicle: u32, timestamp: i64, reason: DeadLetterReason) {
        self.stats.dead_letter += 1;
        if obs::metrics_enabled() {
            self.obs.dead_letter.incr();
        }
        if self.dead.len() < self.cfg.max_dead_letters_kept {
            self.dead.push(DeadLetter { vehicle, timestamp, reason });
        }
    }

    fn process(&mut self, item: StreamItem, alarms: &mut Vec<FleetAlarm>) {
        let metrics_on = obs::metrics_enabled();
        let arrival_ns = if self.provenance_on { obs::elapsed_ns() } else { 0 };
        match &item.body {
            StreamBody::Record(row) => {
                self.stats.records += 1;
                if metrics_on {
                    self.obs.records.incr();
                    self.obs.shard_records.incr();
                }
                // Quality monitors see the raw row *before* validation:
                // the NaN bursts that dead-letter just below are exactly
                // what they exist to measure.
                if self.quality_observe(item.vehicle, item.timestamp, row) {
                    self.stats.quality_flagged += 1;
                    if metrics_on {
                        self.obs.quality_flagged.incr();
                    }
                }
                let expected = self.names.len();
                if row.len() != expected {
                    self.dead_letter(
                        item.vehicle,
                        item.timestamp,
                        DeadLetterReason::WrongArity { got: row.len(), expected },
                    );
                    return;
                }
                if row.iter().any(|v| !v.is_finite()) {
                    self.dead_letter(item.vehicle, item.timestamp, DeadLetterReason::NonFinite);
                    return;
                }
            }
            StreamBody::Maintenance { .. } => {
                self.stats.maintenance += 1;
            }
        }
        let (vehicle, timestamp) = (item.vehicle, item.timestamp);
        let lane_i = self.lane_index(vehicle);
        self.released.clear();
        let outcome = {
            let lane = &mut self.lanes[lane_i];
            lane.buffer.push(Arrival { item, arrival_ns }, &mut self.released)
        };
        match outcome {
            PushOutcome::Accepted { reordered } => {
                if reordered {
                    self.stats.reordered += 1;
                    if metrics_on {
                        self.obs.reordered.incr();
                    }
                }
            }
            PushOutcome::Duplicate => {
                self.stats.duplicates += 1;
                if metrics_on {
                    self.obs.duplicates.incr();
                }
            }
            PushOutcome::LateDropped => {
                self.stats.late_dropped += 1;
                if metrics_on {
                    self.obs.late_dropped.incr();
                }
            }
            PushOutcome::Conflict => {
                self.dead_letter(vehicle, timestamp, DeadLetterReason::Conflict);
            }
        }
        let depth = self.lanes[lane_i].buffer.len() as u64;
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(depth);
        if metrics_on {
            self.obs.queue_depth.record(depth);
        }
        // Feed whatever the watermark released, in canonical order.
        let released = std::mem::take(&mut self.released);
        for rel in &released {
            self.feed(lane_i, rel, alarms);
        }
        self.released = released;
    }

    fn feed(&mut self, lane_i: usize, arrival: &Arrival, alarms: &mut Vec<FleetAlarm>) {
        let lane = &mut self.lanes[lane_i];
        self.stats.released += 1;
        let item = &arrival.item;
        match &item.body {
            StreamBody::Maintenance { is_repair } => lane.pipeline.process_event(*is_repair),
            StreamBody::Record(row) => {
                let release_ns = if self.provenance_on { obs::elapsed_ns() } else { 0 };
                let raised = lane.pipeline.process_record(item.timestamp, row);
                if !raised.is_empty() {
                    self.stats.alarms += raised.len() as u64;
                    if obs::metrics_enabled() {
                        self.obs.alarms.add(raised.len() as u64);
                    }
                    if self.provenance_on {
                        let emit_ns = obs::elapsed_ns();
                        let watermark_ts = lane.buffer.watermark().unwrap_or(item.timestamp);
                        for alarm in &raised {
                            self.provenance.push(AlarmProvenance {
                                vehicle: lane.vehicle,
                                shard: self.index,
                                alarm_timestamp: alarm.timestamp,
                                channel_name: lane.pipeline.channel_names()[alarm.channel].clone(),
                                watermark_ts,
                                arrival_ns: arrival.arrival_ns,
                                release_ns,
                                emit_ns,
                            });
                        }
                    }
                    alarms.extend(
                        raised.into_iter().map(|alarm| FleetAlarm { vehicle: lane.vehicle, alarm }),
                    );
                }
            }
        }
    }

    /// Serialises one vehicle's lane (reorder buffer + pipeline) as a
    /// self-contained checkpoint frame.
    fn write_lane(lane: &Lane, w: &mut SnapWriter) {
        w.put_u32(lane.vehicle);
        w.put_frame(|w| lane.buffer.write_state_with(w, write_arrival));
        w.put_frame(|w| lane.pipeline.write_state(w));
    }

    /// Reconstructs a lane from [`Shard::write_lane`] bytes and inserts it
    /// in vehicle order. The lane is built once from this shard's config,
    /// and the serialised state is read into it in place.
    fn read_lane(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let vehicle = r.get_u32()?;
        let Err(i) = self.lanes.binary_search_by_key(&vehicle, |l| l.vehicle) else {
            return Err(SnapError::Corrupt("duplicate lane for one vehicle"));
        };
        let mut lane = self.new_lane(vehicle);
        let n_signals = self.names.len();
        let mut frame = r.get_frame()?;
        lane.buffer.read_state_with(&mut frame, |r| read_arrival(r, n_signals))?;
        frame.finish()?;
        let mut frame = r.get_frame()?;
        lane.pipeline.read_state(&mut frame)?;
        frame.finish()?;
        self.lanes.insert(i, lane);
        Ok(())
    }

    fn write_quality(q: &QualityLane, w: &mut SnapWriter) {
        w.put_u32(q.vehicle);
        w.put_frame(|w| q.monitor.write_state(w));
    }

    fn read_quality(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let vehicle = r.get_u32()?;
        let mut lane = QualityLane::new(vehicle, self.names.len(), self.cfg.quality);
        let mut frame = r.get_frame()?;
        lane.monitor.read_state(&mut frame)?;
        frame.finish()?;
        match self.quality.binary_search_by_key(&vehicle, |q| q.vehicle) {
            Ok(_) => Err(SnapError::Corrupt("duplicate quality lane for one vehicle")),
            Err(i) => {
                self.quality.insert(i, lane);
                Ok(())
            }
        }
    }

    /// Full shard state: counters, retained dead letters, every lane and
    /// every quality monitor. Config (names, horizon, pipeline…) is not
    /// written — the restoring engine is constructed from its own config
    /// and the checkpoint fingerprint guards against mismatch.
    fn write_state(&self, w: &mut SnapWriter) {
        self.stats.write_state(w);
        w.put_usize(self.dead.len());
        for d in &self.dead {
            write_dead_letter(w, d);
        }
        w.put_usize(self.lanes.len());
        for lane in &self.lanes {
            w.put_frame(|w| Shard::write_lane(lane, w));
        }
        w.put_usize(self.quality.len());
        for q in &self.quality {
            w.put_frame(|w| Shard::write_quality(q, w));
        }
    }

    /// Counterpart of [`Shard::write_state`], on a freshly built shard.
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = IngestStats::read_state(r)?;
        let n_dead = r.get_len(13)?;
        if n_dead > self.cfg.max_dead_letters_kept {
            return Err(SnapError::Corrupt("more dead letters than the retention cap"));
        }
        self.dead.clear();
        for _ in 0..n_dead {
            let d = read_dead_letter(r)?;
            self.dead.push(d);
        }
        let n_lanes = r.get_len(1)?;
        for _ in 0..n_lanes {
            let mut frame = r.get_frame()?;
            self.read_lane(&mut frame)?;
            frame.finish()?;
        }
        let n_quality = r.get_len(1)?;
        for _ in 0..n_quality {
            let mut frame = r.get_frame()?;
            self.read_quality(&mut frame)?;
            frame.finish()?;
        }
        Ok(())
    }

    fn finish(&mut self, alarms: &mut Vec<FleetAlarm>) {
        for lane_i in 0..self.lanes.len() {
            self.released.clear();
            self.lanes[lane_i].buffer.flush_into(&mut self.released);
            let released = std::mem::take(&mut self.released);
            for rel in &released {
                self.feed(lane_i, rel, alarms);
            }
            self.released = released;
        }
        for lane in &mut self.lanes {
            let b = lane.buffer.stats();
            self.stats.forced_releases += b.forced_releases;
            lane.pipeline.flush_obs();
        }
    }
}

/// The engine: router + shards. See the module docs.
#[derive(Debug)]
pub struct ShardedIngest {
    router: ShardRouter,
    shards: Vec<Shard>,
    health: Vec<ShardHealth>,
    /// The score-channel names every lane's pipeline attributes alarms
    /// to, built once from the config and shared with every lane.
    channel_names: Arc<[String]>,
    /// Fleet-level worst per-vehicle drift, in milli-z.
    worst_drift: std::sync::Arc<obs::Gauge>,
    finished: bool,
}

impl ShardedIngest {
    /// Creates an engine whose per-vehicle pipelines read records with the
    /// given signal `names` (arity validation uses their count).
    pub fn new<S: AsRef<str>>(names: &[S], cfg: IngestConfig) -> Self {
        let names: Vec<String> = names.iter().map(|s| s.as_ref().to_string()).collect();
        let router = ShardRouter::new(cfg.n_shards);
        let health = (0..cfg.n_shards).map(|_| ShardHealth::new(cfg.health)).collect();
        let channel_names: Arc<[String]> = cfg.pipeline.channel_names(&names).into();
        let shards = (0..cfg.n_shards)
            .map(|i| Shard::new(i, names.clone(), Arc::clone(&channel_names), cfg.clone()))
            .collect();
        ShardedIngest {
            router,
            shards,
            health,
            channel_names,
            worst_drift: obs::gauge("ingest.quality.worst_drift_mz"),
            finished: false,
        }
    }

    /// The signal names per-vehicle pipelines read records with (arity
    /// validation uses their count).
    pub fn signal_names(&self) -> &[String] {
        &self.shards[0].names
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.shards[0].cfg
    }

    /// The score-channel names [`FleetAlarm`]s' channels index.
    pub fn channel_names(&self) -> &[String] {
        &self.channel_names
    }

    /// Ingests one item inline (no fan-out). Returns any alarms raised by
    /// records this arrival released.
    pub fn ingest(&mut self, item: StreamItem) -> Vec<FleetAlarm> {
        let mut alarms = Vec::new();
        let shard = self.router.route(item.vehicle);
        self.shards[shard].process(item, &mut alarms);
        alarms
    }

    /// Ingests a batch: items are bucketed per shard in arrival order,
    /// then the shards run in parallel (one worker per shard). Returned
    /// alarms are grouped by shard, per-vehicle order preserved.
    pub fn ingest_batch(&mut self, items: Vec<StreamItem>) -> Vec<FleetAlarm> {
        let _span = obs::span("ingest_batch");
        let n = self.shards.len();
        let mut buckets: Vec<Vec<StreamItem>> = (0..n).map(|_| Vec::new()).collect();
        for item in items {
            buckets[self.router.route(item.vehicle)].push(item);
        }
        let mut tasks: Vec<(&mut Shard, Vec<StreamItem>)> =
            self.shards.iter_mut().zip(buckets).collect();
        let per_shard = par_map_mut(&mut tasks, |_, (shard, bucket)| {
            let mut alarms = Vec::new();
            for item in std::mem::take(bucket) {
                shard.process(item, &mut alarms);
            }
            alarms
        });
        per_shard.into_iter().flatten().collect()
    }

    /// Ends the stream: flushes every reorder buffer through its pipeline
    /// and merges each pipeline's buffered score samples into the shared
    /// sketches. Idempotent.
    pub fn finish(&mut self) -> Vec<FleetAlarm> {
        let mut alarms = Vec::new();
        if !self.finished {
            self.finished = true;
            for shard in &mut self.shards {
                shard.finish(&mut alarms);
            }
        }
        alarms
    }

    /// Aggregated counters across all shards.
    pub fn stats(&self) -> IngestStats {
        let mut total = IngestStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats);
        }
        total
    }

    /// Per-shard counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<IngestStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Retained dead letters across all shards (counts are in
    /// [`IngestStats::dead_letter`]; retention is capped per shard).
    pub fn dead_letters(&self) -> Vec<&DeadLetter> {
        self.shards.iter().flat_map(|s| &s.dead).collect()
    }

    /// Number of vehicles with live state, per shard.
    pub fn vehicles_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lanes.len()).collect()
    }

    /// Ticks every shard's health state machine against its current queue
    /// depth and cumulative drop/quality counters (the tracker deltas
    /// internally — see [`crate::health`]). Call between batches at the
    /// snapshot cadence. Updates the `ingest.shardNN.health` and
    /// `ingest.quality.*` gauges when metrics are on, emits one structured
    /// `ingest.health` event per transition when events are on, and
    /// returns the transitions.
    pub fn observe_health(&mut self) -> Vec<HealthTransition> {
        let t_ns = obs::elapsed_ns();
        let metrics_on = obs::metrics_enabled();
        let mut transitions = Vec::new();
        let mut worst_drift = 0u64;
        for (shard, tracker) in self.shards.iter_mut().zip(self.health.iter_mut()) {
            let queue_depth: u64 = shard.lanes.iter().map(|l| l.buffer.len() as u64).sum();
            let sample = HealthSample {
                t_ns,
                queue_depth,
                records: shard.stats.records,
                late_dropped: shard.stats.late_dropped,
                dead_letter: shard.stats.dead_letter,
                quality_flagged: shard.stats.quality_flagged,
            };
            if let Some((from, to)) = tracker.observe(sample) {
                transitions.push(HealthTransition { shard: shard.index, from, to });
            }
            if metrics_on {
                shard.obs.health.set(tracker.state().gauge_value());
            }
            for q in &shard.quality {
                let snap = q.monitor.snapshot();
                let drift = to_milli(snap.max_drift_z);
                worst_drift = worst_drift.max(drift);
                if metrics_on {
                    q.nan_bp.set(fraction_to_bp(snap.nan_fraction));
                    q.gap_bp.set(fraction_to_bp(snap.gap_fraction));
                    q.drift_mz.set(drift);
                }
            }
        }
        if metrics_on {
            self.worst_drift.set(worst_drift);
        }
        if obs::events_enabled() {
            for tr in &transitions {
                obs::emit(
                    &obs::Event::new("ingest.health")
                        .field("shard", tr.shard as u64)
                        .field("from", tr.from.as_str())
                        .field("to", tr.to.as_str()),
                );
            }
        }
        transitions
    }

    /// Current health state per shard (what the gauges show).
    pub fn health_states(&self) -> Vec<HealthState> {
        self.health.iter().map(|h| h.state()).collect()
    }

    /// Current per-vehicle quality readings, sorted by vehicle id (what
    /// the `ingest.quality.v*` gauges show after the next health tick).
    pub fn quality_snapshots(&self) -> Vec<(u32, QualitySnapshot)> {
        let mut out: Vec<(u32, QualitySnapshot)> = self
            .shards
            .iter()
            .flat_map(|s| s.quality.iter().map(|q| (q.vehicle, q.monitor.snapshot())))
            .collect();
        out.sort_by_key(|(v, _)| *v);
        out
    }

    /// Opts alarm provenance in or out (off on a new or restored engine).
    /// On, every arrival is stamped with the monotonic clock and every
    /// alarm leaves an [`AlarmProvenance`] entry until the next
    /// [`ShardedIngest::drain_provenance`]; this is what
    /// `serve-replay --journal` turns on. Off, the engine reads no clock
    /// per record and holds no provenance. Items already in flight keep
    /// the stamps they arrived with (0 if they arrived with provenance
    /// off), so their entries overstate buffer wait: a latency reading
    /// degrades, never an alarm.
    pub fn set_provenance(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.provenance_on = on;
        }
    }

    /// Takes the provenance of every alarm emitted since the last drain
    /// (arrival order within each shard, shards concatenated in index
    /// order). Empty unless [`ShardedIngest::set_provenance`] opted in.
    pub fn drain_provenance(&mut self) -> Vec<AlarmProvenance> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.append(&mut shard.provenance);
        }
        out
    }

    /// Serialises the engine's full mutable state: every shard. Health-FSM
    /// trackers are deliberately excluded: they are wall-clock-rate ops
    /// telemetry, re-armed on the next [`ShardedIngest::observe_health`]
    /// tick after a restore. Items route by hash alone, so the three v1
    /// slots that once held a per-vehicle shard table and two move counters
    /// are written as zeros.
    pub(crate) fn write_engine_state(&self, w: &mut SnapWriter) {
        w.put_bool(self.finished);
        w.put_usize(0);
        w.put_u64(0);
        w.put_u64(0);
        w.put_usize(self.shards.len());
        for shard in &self.shards {
            w.put_frame(|w| shard.write_state(w));
        }
    }

    /// Counterpart of [`ShardedIngest::write_engine_state`], on a freshly
    /// constructed engine with the same config.
    pub(crate) fn read_engine_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let finished = r.get_bool()?;
        // A vehicle routed anywhere but its hash shard would be served by
        // a lane that never sees its items: refuse rather than misroute.
        if r.get_usize()? != 0 {
            return Err(SnapError::Corrupt("checkpoint routes vehicles off their hash shard"));
        }
        if r.get_u64()? != 0 || r.get_u64()? != 0 {
            return Err(SnapError::Corrupt("checkpoint counts vehicle moves between shards"));
        }
        let n_shards = r.get_usize()?;
        if n_shards != self.shards.len() {
            return Err(SnapError::Corrupt("shard-count mismatch"));
        }
        for shard in &mut self.shards {
            let mut frame = r.get_frame()?;
            shard.read_state(&mut frame)?;
            frame.finish()?;
        }
        self.finished = finished;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_items(n: usize) -> Vec<StreamItem> {
        // Two correlated signals; enough records to pass reference +
        // holdout so the pipeline reaches Detecting.
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 3.0 + 10.0;
                StreamItem {
                    vehicle: 1,
                    timestamp: i as i64 * 60,
                    body: StreamBody::Record(vec![x, 2.0 * x + 1.0]),
                }
            })
            .collect()
    }

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

    #[test]
    fn clean_stream_counts_and_no_dead_letters() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(2));
        let items = synthetic_items(200);
        let _ = engine.ingest_batch(items);
        let _ = engine.finish();
        let stats = engine.stats();
        assert_eq!(stats.records, 200);
        assert_eq!(stats.dead_letter, 0);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.late_dropped, 0);
        assert_eq!(stats.released, 200);
    }

    #[test]
    fn malformed_records_go_to_dead_letter_not_panic() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let mut items = synthetic_items(50);
        items[10].body = StreamBody::Record(vec![1.0]); // wrong arity
        items[20].body = StreamBody::Record(vec![f64::NAN, 1.0]); // non-finite
        items[30].body = StreamBody::Record(vec![]); // empty row
        let _ = engine.ingest_batch(items);
        let _ = engine.finish();
        let stats = engine.stats();
        assert_eq!(stats.dead_letter, 3);
        assert_eq!(stats.released, 47, "malformed items never reach the pipeline");
        let reasons: Vec<DeadLetterReason> =
            engine.dead_letters().iter().map(|d| d.reason).collect();
        assert!(reasons.contains(&DeadLetterReason::NonFinite));
        assert!(reasons
            .iter()
            .any(|r| matches!(r, DeadLetterReason::WrongArity { got: 1, expected: 2 })));
    }

    #[test]
    fn single_item_ingest_matches_batch() {
        let items = synthetic_items(200);
        let mut batch = ShardedIngest::new(&["a", "b"], tiny_config(2));
        let mut one = ShardedIngest::new(&["a", "b"], tiny_config(2));
        let mut a1 = batch.ingest_batch(items.clone());
        a1.extend(batch.finish());
        let mut a2 = Vec::new();
        for item in items {
            a2.extend(one.ingest(item));
        }
        a2.extend(one.finish());
        assert_eq!(a1, a2);
        assert_eq!(batch.stats(), one.stats());
    }

    #[test]
    fn finish_is_idempotent() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let _ = engine.ingest_batch(synthetic_items(30));
        let first = engine.finish();
        let second = engine.finish();
        assert!(second.is_empty(), "second finish must be a no-op, got {first:?}{second:?}");
    }

    /// One vehicle, two signals whose correlation breaks mid-stream so the
    /// tiny pipeline must raise alarms.
    fn breaking_items(n: usize) -> Vec<StreamItem> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.31).sin() * 2.0 + 10.0;
                let y = if i < 2 * n / 3 {
                    2.0 * x + 1.0
                } else {
                    21.0 - (i as f64 * 0.77).cos() * 2.0
                };
                StreamItem {
                    vehicle: 1,
                    timestamp: i as i64 * 60,
                    body: StreamBody::Record(vec![x, y]),
                }
            })
            .collect()
    }

    #[test]
    fn every_alarm_carries_provenance() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(1));
        engine.set_provenance(true);
        let mut alarms = engine.ingest_batch(breaking_items(240));
        alarms.extend(engine.finish());
        assert!(!alarms.is_empty(), "the correlation break must alarm");
        let prov = engine.drain_provenance();
        assert_eq!(prov.len(), alarms.len(), "one provenance entry per alarm");
        for (p, fa) in prov.iter().zip(&alarms) {
            assert_eq!(p.vehicle, fa.vehicle);
            assert_eq!(p.alarm_timestamp, fa.alarm.timestamp);
            assert_eq!(p.channel_name, engine.channel_names()[fa.alarm.channel]);
            assert_eq!(p.shard, 0);
            assert!(p.release_ns >= p.arrival_ns, "buffer wait cannot be negative");
            assert!(p.emit_ns >= p.release_ns, "pipeline time cannot be negative");
            assert_eq!(p.total_ns(), p.buffer_wait_ns() + p.pipeline_ns());
        }
        assert!(engine.drain_provenance().is_empty(), "drain takes everything");
    }

    #[test]
    fn provenance_is_identical_with_metrics_off_and_on() {
        // Provenance rides on its own opt-in, not on metrics; flipping
        // metrics must not change what the journal sees (timestamps
        // differ, shape and counts do not).
        let was = obs::metrics_enabled();
        obs::set_metrics_enabled(false);
        let mut off = ShardedIngest::new(&["a", "b"], tiny_config(1));
        off.set_provenance(true);
        let _ = off.ingest_batch(breaking_items(240));
        let _ = off.finish();
        obs::set_metrics_enabled(true);
        let mut on = ShardedIngest::new(&["a", "b"], tiny_config(1));
        on.set_provenance(true);
        let _ = on.ingest_batch(breaking_items(240));
        let _ = on.finish();
        obs::set_metrics_enabled(was);
        let (a, b) = (off.drain_provenance(), on.drain_provenance());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.vehicle, x.alarm_timestamp), (y.vehicle, y.alarm_timestamp));
        }
    }

    #[test]
    fn provenance_is_journal_only() {
        // Without the opt-in the engine keeps no provenance, whatever the
        // alarm volume, and serves exactly the same alarms.
        let mut plain = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let mut served = plain.ingest_batch(breaking_items(240));
        served.extend(plain.finish());
        assert!(!served.is_empty(), "the correlation break must alarm");
        assert!(plain.drain_provenance().is_empty(), "no opt-in, no provenance");
        let mut journaled = ShardedIngest::new(&["a", "b"], tiny_config(1));
        journaled.set_provenance(true);
        let mut again = journaled.ingest_batch(breaking_items(240));
        again.extend(journaled.finish());
        assert_eq!(served, again, "provenance never changes what is served");
        assert_eq!(journaled.drain_provenance().len(), again.len());
        // Switching back off stops the bookkeeping.
        let mut toggled = ShardedIngest::new(&["a", "b"], tiny_config(1));
        toggled.set_provenance(true);
        toggled.set_provenance(false);
        assert!(!toggled.ingest_batch(breaking_items(240)).is_empty());
        assert!(toggled.drain_provenance().is_empty());
    }

    #[test]
    fn clean_stream_health_stays_ok() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(2));
        assert!(engine.observe_health().is_empty(), "arming tick");
        let _ = engine.ingest_batch(synthetic_items(200));
        assert!(engine.observe_health().is_empty());
        let _ = engine.finish();
        assert!(engine.observe_health().is_empty());
        assert!(engine.health_states().iter().all(|s| *s == HealthState::Ok));
    }

    #[test]
    fn late_drop_flood_escalates_one_level_at_a_time() {
        let mut cfg = tiny_config(1);
        cfg.health.worsen_ticks = 1;
        cfg.health.improve_ticks = 1;
        let mut engine = ShardedIngest::new(&["a", "b"], cfg);
        // Drive the watermark far enough that t=400000 is *released* (the
        // flood below must arrive behind the last released key), then arm
        // the health tracker.
        for t in [0i64, 400_000, 800_000] {
            let _ = engine.ingest(StreamItem {
                vehicle: 1,
                timestamp: t,
                body: StreamBody::Record(vec![1.0, 2.0]),
            });
        }
        assert!(engine.observe_health().is_empty());
        let flood = |engine: &mut ShardedIngest| {
            for i in 0..200i64 {
                // Far behind the watermark → every one is late-dropped at
                // an enormous instantaneous rate.
                let _ = engine.ingest(StreamItem {
                    vehicle: 1,
                    timestamp: 1 + i,
                    body: StreamBody::Record(vec![1.0, 2.0]),
                });
            }
        };
        flood(&mut engine);
        assert_eq!(
            engine.observe_health(),
            vec![HealthTransition { shard: 0, from: HealthState::Ok, to: HealthState::Degraded }],
            "first escalation stops at Degraded even though the rate is stalled-level"
        );
        flood(&mut engine);
        assert_eq!(
            engine.observe_health(),
            vec![HealthTransition {
                shard: 0,
                from: HealthState::Degraded,
                to: HealthState::Stalled
            }]
        );
        // Quiet interval → recovery, again one level per tick.
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            engine.observe_health(),
            vec![HealthTransition {
                shard: 0,
                from: HealthState::Stalled,
                to: HealthState::Degraded
            }]
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            engine.observe_health(),
            vec![HealthTransition { shard: 0, from: HealthState::Degraded, to: HealthState::Ok }]
        );
        assert!(engine.stats().late_dropped >= 400, "the floods really were late-dropped");
    }

    #[test]
    fn nan_burst_flags_quality_and_degrades_the_shard() {
        let mut cfg = tiny_config(1);
        cfg.health.worsen_ticks = 1;
        cfg.quality.reference_len = 16;
        cfg.quality.window = 8;
        let mut engine = ShardedIngest::new(&["a", "b"], cfg);
        let _ = engine.ingest_batch(synthetic_items(100));
        assert!(engine.observe_health().is_empty(), "clean warm-up arms the tracker");
        assert_eq!(engine.stats().quality_flagged, 0, "clean stream never flags");
        // One vehicle's channels go NaN: dead-lettered by validation, but
        // the quality monitor saw the raw rows and flags the stream.
        let bad: Vec<StreamItem> = (100..160)
            .map(|i| StreamItem {
                vehicle: 1,
                timestamp: i as i64 * 60,
                body: StreamBody::Record(vec![f64::NAN, f64::NAN]),
            })
            .collect();
        let _ = engine.ingest_batch(bad);
        let stats = engine.stats();
        assert!(stats.quality_flagged > 0, "NaN burst must flag");
        let transitions = engine.observe_health();
        assert_eq!(
            transitions,
            vec![HealthTransition { shard: 0, from: HealthState::Ok, to: HealthState::Degraded }],
            "quality flags alone must move the shard off Ok"
        );
        let quality = engine.quality_snapshots();
        assert_eq!(quality.len(), 1);
        assert!(quality[0].1.nan_fraction > 0.9, "window is all NaN");
    }

    #[test]
    fn drifting_channel_raises_drift_z_without_dead_letters() {
        let mut cfg = tiny_config(1);
        cfg.quality.reference_len = 32;
        cfg.quality.window = 8;
        let mut engine = ShardedIngest::new(&["a", "b"], cfg);
        let _ = engine.ingest_batch(synthetic_items(100));
        // Finite but wildly out-of-range values: validation accepts them,
        // only the drift monitor complains.
        let drifted: Vec<StreamItem> = (100..140)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 3.0 + 500.0;
                StreamItem {
                    vehicle: 1,
                    timestamp: i as i64 * 60,
                    body: StreamBody::Record(vec![x, 2.0 * x + 1.0]),
                }
            })
            .collect();
        let _ = engine.ingest_batch(drifted);
        assert_eq!(engine.stats().dead_letter, 0);
        assert!(engine.stats().quality_flagged > 0, "drift must flag");
        let (_, snap) = engine.quality_snapshots()[0];
        assert!(snap.max_drift_z > 4.0, "drift z {}", snap.max_drift_z);
    }

    /// A checkpoint may not hold an in-flight record that validation
    /// would have dead-lettered. Restored, one value too many would reach
    /// the raw transform's row copy at the next `finish` and panic there.
    #[test]
    fn impossible_in_flight_records_are_refused_on_restore() {
        use crate::checkpoint::{read_checkpoint, write_checkpoint};
        let mut cfg = tiny_config(1);
        cfg.pipeline.transform = TransformKind::Raw;
        cfg.pipeline.window = 1;
        cfg.pipeline.stride = 1;
        for (row, why) in [
            (vec![1.0, 2.0, 3.0], "in-flight record of the wrong arity"),
            (vec![f64::NAN, 2.0], "in-flight record with a non-finite value"),
        ] {
            let mut engine = ShardedIngest::new(&["a", "b"], cfg.clone());
            let _ = engine.ingest(StreamItem {
                vehicle: 1,
                timestamp: 0,
                body: StreamBody::Record(vec![1.0, 2.0]),
            });
            // Buffered behind validation's back, as a corrupt file would.
            let item = StreamItem { vehicle: 1, timestamp: 60, body: StreamBody::Record(row) };
            let mut released = Vec::new();
            let lane = &mut engine.shards[0].lanes[0];
            let _ = lane.buffer.push(Arrival { item, arrival_ns: 0 }, &mut released);
            assert!(released.is_empty() && lane.buffer.len() == 2, "both records in flight");
            let bytes = write_checkpoint(&engine, 2, &[]);
            match read_checkpoint(&["a", "b"], cfg.clone(), &bytes) {
                Err(SnapError::Corrupt(got)) => assert_eq!(got, why),
                Err(other) => panic!("expected {why:?}, got {other:?}"),
                Ok(mut restored) => {
                    let _ = restored.engine.finish();
                    panic!("restored a checkpoint holding an {why}");
                }
            }
        }
    }

    #[test]
    fn vehicles_land_on_their_routed_shard_only() {
        let cfg = tiny_config(3);
        let mut engine = ShardedIngest::new(&["a", "b"], cfg);
        let mut items = Vec::new();
        for v in 0..9u32 {
            for i in 0..5usize {
                items.push(StreamItem {
                    vehicle: v,
                    timestamp: i as i64 * 60,
                    body: StreamBody::Record(vec![1.0, 2.0]),
                });
            }
        }
        let _ = engine.ingest_batch(items);
        let per_shard = engine.vehicles_per_shard();
        assert_eq!(per_shard.iter().sum::<usize>(), 9, "every vehicle exactly once");
    }
}
