//! The one adapter between the benchmark and the program's API.
//!
//! Every call into the workspace crates lives here, so a change that
//! reshapes `Alarm`, the batch input or the checkpoint ledger only has to
//! touch this file. The rest of the benchmark sees flat columns
//! ([`FlatStream`]), opaque engine/ledger handles and plain numbers.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use navarchos_core::detectors::GrandNcm;
use navarchos_core::evaluation::{
    alarm_instances, constant_grid, evaluate_vehicle_instances, factor_grid, sweep_best,
    EvalCounts, EvalParams,
};
use navarchos_core::{
    par_map, run_vehicle, DetectorKind, PipelineConfig, RunnerParams, StreamingPipeline,
    VehicleScores,
};
pub use navarchos_fleetsim::FleetData;
use navarchos_fleetsim::{
    dirty_stream, interleave_fleet, CorruptionMode, DirtyConfig, FleetConfig, StreamBody,
    StreamItem, PID_NAMES,
};
use navarchos_ingest::{
    read_checkpoint, write_checkpoint, FleetAlarm, IngestConfig, QualityMonitor, ReorderBuffer,
    ShardRouter, ShardedIngest,
};
use navarchos_tsframe::csv::{read_csv_file, write_csv_file};
use navarchos_tsframe::{FilterSpec, Frame, Transform, TransformKind};

use crate::flat::{FlatStream, Kind};

/// Turns obs metrics and events off, whatever `NAVARCHOS_METRICS` or
/// `NAVARCHOS_LOG` say: the benchmark measures the system as deployed
/// without a scrape endpoint or a trace sink.
pub fn force_obs_off() {
    navarchos_obs::set_metrics_enabled(false);
    navarchos_obs::set_events_enabled(false);
}

/// The telemetry schema every pipeline reads.
pub fn signal_names() -> Vec<String> {
    PID_NAMES.iter().map(|s| s.to_string()).collect()
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The paper fleet's shape (40 vehicles × 365 days) under `seed`.
pub fn paper_fleet(seed: u64) -> FleetData {
    FleetConfig { seed, ..FleetConfig::navarchos() }.generate()
}

/// The simulator's scaled-down fleet (6 vehicles × 100 days) under `seed`.
pub fn small_fleet(seed: u64) -> FleetData {
    FleetConfig::small(seed).generate()
}

/// Five times the vehicles over a fifth of the days, with the recorded
/// vehicles and failures scaled alike.
pub fn wide_fleet(seed: u64) -> FleetData {
    let paper = FleetConfig::navarchos();
    FleetConfig {
        seed,
        n_vehicles: paper.n_vehicles * 5,
        n_days: paper.n_days / 5,
        n_recorded: paper.n_recorded * 5,
        n_failures: paper.n_failures * 5,
        ..paper
    }
    .generate()
}

/// What the evaluation needs to know about a fleet, by vehicle id.
#[derive(Debug, Clone)]
pub struct Truth {
    /// Recorded repair timestamps.
    pub repairs: BTreeMap<u32, Vec<i64>>,
    /// Vehicles with at least one recorded event (the paper's setting26).
    pub setting26: Vec<u32>,
}

pub fn truth_of(fleet: &FleetData) -> Truth {
    let repairs = fleet.vehicles.iter().map(|v| (v.id.0, v.recorded_repairs())).collect();
    let setting26 = fleet.setting26().into_iter().map(|i| fleet.vehicles[i].id.0).collect();
    Truth { repairs, setting26 }
}

fn flatten(items: &[StreamItem], width: usize) -> FlatStream {
    let mut flat = FlatStream::with_capacity(items.len(), width);
    for it in items {
        match &it.body {
            StreamBody::Record(row) => flat.push(it.vehicle, it.timestamp, Kind::Record, row),
            StreamBody::Maintenance { is_repair } => {
                flat.push(it.vehicle, it.timestamp, Kind::Maintenance(*is_repair), &[])
            }
        }
    }
    flat
}

/// The fleet's canonical interleaved feed: every record plus the recorded
/// maintenance, no dirt.
pub fn clean_stream(fleet: &FleetData) -> FlatStream {
    flatten(&interleave_fleet(fleet), PID_NAMES.len())
}

/// The fleet's feed under `DirtyConfig::lossy(seed)` plus a NaN burst on
/// `victim` from the middle of the stream on, in arrival order.
pub fn lossy_stream(fleet: &FleetData, seed: u64, victim: u32) -> FlatStream {
    let clean = interleave_fleet(fleet);
    let cfg = DirtyConfig::lossy(seed).with_target(victim, 0.5, CorruptionMode::NanBurst);
    let dirty = dirty_stream(&clean, &cfg);
    drop(clean);
    flatten(&dirty, PID_NAMES.len())
}

/// Builds the engine's input type for item `i`. Called inside the timed
/// region: the per-record `Vec<f64>` is part of what the engine costs.
#[inline]
fn item(s: &FlatStream, i: usize) -> StreamItem {
    let body = match s.kinds[i] {
        Kind::Record => StreamBody::Record(s.row(i).to_vec()),
        Kind::Maintenance(is_repair) => StreamBody::Maintenance { is_repair },
    };
    StreamItem { vehicle: s.vehicles[i], timestamp: s.timestamps[i], body }
}

// ---------------------------------------------------------------------------
// The served path
// ---------------------------------------------------------------------------

fn ingest_config(shards: usize) -> IngestConfig {
    IngestConfig::paper_default(shards)
}

/// Alarms as the engine returned them, in emission order.
#[derive(Debug, Default)]
pub struct Ledger(Vec<FleetAlarm>);

impl Ledger {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn append(&mut self, mut more: Ledger) {
        self.0.append(&mut more.0);
    }

    /// Bit-exact identity of every alarm, grouped by vehicle in emission
    /// order.
    pub fn by_vehicle(&self) -> BTreeMap<u32, Vec<AlarmKey>> {
        let mut out: BTreeMap<u32, Vec<AlarmKey>> = BTreeMap::new();
        for fa in &self.0 {
            out.entry(fa.vehicle).or_default().push(AlarmKey::of(fa.vehicle, &fa.alarm));
        }
        out
    }
}

/// An alarm reduced to the fields the reference check compares, floats by
/// bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlarmKey {
    pub vehicle: u32,
    pub timestamp: i64,
    pub channel: usize,
    pub score_bits: u64,
    pub threshold_bits: u64,
}

impl AlarmKey {
    fn of(vehicle: u32, a: &navarchos_core::Alarm) -> Self {
        AlarmKey {
            vehicle,
            timestamp: a.timestamp,
            channel: a.channel,
            score_bits: a.score.to_bits(),
            threshold_bits: a.threshold.to_bits(),
        }
    }
}

/// Engine counters, summed over shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub records: u64,
    pub maintenance: u64,
    pub released: u64,
    pub reordered: u64,
    pub duplicates: u64,
    pub late_dropped: u64,
    pub dead_letter: u64,
    pub peak_depth: u64,
    pub quality_flagged: u64,
}

/// The sharded ingest engine.
#[derive(Debug)]
pub struct Engine(ShardedIngest);

impl Engine {
    pub fn new(shards: usize) -> Self {
        Engine(ShardedIngest::new(&signal_names(), ingest_config(shards)))
    }

    /// One item, inline.
    #[inline]
    pub fn ingest_one(&mut self, s: &FlatStream, i: usize) -> Ledger {
        Ledger(self.0.ingest(item(s, i)))
    }

    /// Items `range` as one batch, fanned out over the shards.
    pub fn ingest_batch(&mut self, s: &FlatStream, range: std::ops::Range<usize>) -> Ledger {
        let batch: Vec<StreamItem> = range.map(|i| item(s, i)).collect();
        Ledger(self.0.ingest_batch(batch))
    }

    pub fn finish(&mut self) -> Ledger {
        Ledger(self.0.finish())
    }

    pub fn checkpoint(&self, cursor: u64, ledger: &Ledger) -> Vec<u8> {
        write_checkpoint(&self.0, cursor, &ledger.0)
    }

    /// A checkpoint without the alarm ledger: the engine state alone.
    pub fn state_bytes(&self, cursor: u64) -> usize {
        write_checkpoint(&self.0, cursor, &[]).len()
    }

    /// Restores an engine from checkpoint bytes; returns the cursor and
    /// the restored ledger.
    pub fn restore(shards: usize, bytes: &[u8]) -> Result<(Engine, u64, Ledger), String> {
        let r = read_checkpoint(&signal_names(), ingest_config(shards), bytes)
            .map_err(|e| format!("restore: {e}"))?;
        Ok((Engine(r.engine), r.cursor, Ledger(r.prior_alarms)))
    }

    pub fn counts(&self) -> Counts {
        let s = self.0.stats();
        Counts {
            records: s.records,
            maintenance: s.maintenance,
            released: s.released,
            reordered: s.reordered,
            duplicates: s.duplicates,
            late_dropped: s.late_dropped,
            dead_letter: s.dead_letter,
            peak_depth: s.peak_queue_depth,
            quality_flagged: s.quality_flagged,
        }
    }

    /// Items offered to each shard.
    pub fn shard_items(&self) -> Vec<u64> {
        self.0.shard_stats().iter().map(|s| s.records + s.maintenance).collect()
    }

    /// Bytes of alarm provenance the engine holds undrained, then drains it.
    pub fn take_provenance_bytes(&mut self) -> usize {
        self.0
            .drain_provenance()
            .iter()
            .map(|p| std::mem::size_of_val(p) + p.channel_name.capacity())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Reference computations
// ---------------------------------------------------------------------------

/// What the served alarms must equal, vehicle by vehicle: the items that
/// pass validation, first copy of each exact duplicate kept, sorted into
/// canonical order and replayed through a fresh `StreamingPipeline`. This
/// is the `serve-replay --verify` oracle extended to lossy input.
pub fn replay_oracle(s: &FlatStream) -> BTreeMap<u32, Vec<AlarmKey>> {
    let lanes = s.canonical_order(PID_NAMES.len());
    let alarms = par_map(&lanes, |_, (vehicle, idx)| {
        let mut p = StreamingPipeline::new(&signal_names(), ingest_config(1).pipeline);
        let mut out = Vec::new();
        for &i in idx {
            match s.kinds[i] {
                Kind::Maintenance(is_repair) => p.process_event(is_repair),
                Kind::Record => out.extend(
                    p.process_record(s.timestamps[i], s.row(i))
                        .iter()
                        .map(|a| AlarmKey::of(*vehicle, a)),
                ),
            }
        }
        out
    });
    lanes.iter().map(|(v, _)| *v).zip(alarms).collect()
}

/// Detection quality of served alarms under the paper's protocol: per
/// vehicle of setting26, violations grouped into alarm instances and
/// scored against recorded repairs at PH 30 days.
pub fn served_quality(served: &BTreeMap<u32, Vec<AlarmKey>>, truth: &Truth) -> Quality {
    let eval = EvalParams::days(30);
    let mut counts = EvalCounts::default();
    let none = Vec::new();
    for v in &truth.setting26 {
        let events: Vec<(i64, usize)> = served
            .get(v)
            .map(|a| a.iter().map(|k| (k.timestamp, k.channel)).collect())
            .unwrap_or_default();
        let instances = alarm_instances(
            &events,
            eval.dedup_seconds,
            eval.min_instance_violations,
            eval.min_distinct_channels,
        );
        let repairs = truth.repairs.get(v).unwrap_or(&none);
        counts.merge(&evaluate_vehicle_instances(&instances, repairs, eval));
    }
    Quality::of(&counts)
}

/// F0.5 with the counts behind it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub f05: f64,
    pub tp: usize,
    pub fp: usize,
}

impl Quality {
    fn of(c: &EvalCounts) -> Self {
        Quality { f05: c.f05(), tp: c.tp, fp: c.fp }
    }
}

// ---------------------------------------------------------------------------
// Single layers, for the traced decomposition of the served path
// ---------------------------------------------------------------------------

/// The engine's input type, opaque to the rest of the benchmark.
pub type Item = StreamItem;

#[inline]
pub fn build_item(s: &FlatStream, i: usize) -> Item {
    item(s, i)
}

/// One vehicle's layers, as the engine stacks them.
#[derive(Debug)]
struct Lane {
    quality: QualityMonitor,
    buffer: ReorderBuffer<StreamItem>,
    pipeline: StreamingPipeline,
}

/// The engine's layers driven one by one, in the engine's order, by the
/// benchmark: router → quality monitor → reorder buffer → pipeline. Lanes
/// are addressed by a dense index the caller resolves once per item.
#[derive(Debug)]
pub struct Layers {
    names: Vec<String>,
    cfg: IngestConfig,
    router: ShardRouter,
    /// Vehicle id → lane index + 1 (0: no lane yet).
    lane_of: Vec<usize>,
    lanes: Vec<Lane>,
}

impl Layers {
    pub fn new(shards: usize) -> Self {
        Layers {
            names: signal_names(),
            cfg: ingest_config(shards),
            router: ShardRouter::new(shards),
            lane_of: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// The vehicle's lane, created on first sight (the engine's own glue).
    #[inline]
    pub fn lane(&mut self, vehicle: u32) -> usize {
        let v = vehicle as usize;
        if v >= self.lane_of.len() {
            self.lane_of.resize(v + 1, 0);
        }
        if self.lane_of[v] == 0 {
            self.lanes.push(Lane {
                quality: QualityMonitor::new(self.names.len(), self.cfg.quality),
                buffer: ReorderBuffer::new(self.cfg.horizon_s, self.cfg.reorder_capacity),
                pipeline: StreamingPipeline::new(&self.names, self.cfg.pipeline.clone()),
            });
            self.lane_of[v] = self.lanes.len();
        }
        self.lane_of[v] - 1
    }

    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    #[inline]
    pub fn route(&self, it: &Item) -> usize {
        self.router.route(it.vehicle)
    }

    /// Records only; maintenance markers skip the monitor, as in the engine.
    #[inline]
    pub fn quality(&mut self, lane: usize, it: &Item) -> bool {
        match &it.body {
            StreamBody::Record(row) => self.lanes[lane].quality.observe(it.timestamp, row),
            StreamBody::Maintenance { .. } => false,
        }
    }

    /// The engine's validation: arity and finiteness of records.
    #[inline]
    pub fn valid(&self, it: &Item) -> bool {
        match &it.body {
            StreamBody::Record(row) => {
                row.len() == self.names.len() && row.iter().all(|v| v.is_finite())
            }
            StreamBody::Maintenance { .. } => true,
        }
    }

    /// Offers one arrival; what it releases lands in `out`.
    #[inline]
    pub fn reorder(&mut self, lane: usize, it: Item, out: &mut Vec<Item>) {
        self.lanes[lane].buffer.push(it, out);
    }

    pub fn flush(&mut self, lane: usize, out: &mut Vec<Item>) {
        self.lanes[lane].buffer.flush_into(out);
    }

    /// Feeds one released item to the lane's pipeline; returns the number
    /// of alarms raised.
    #[inline]
    pub fn pipeline(&mut self, lane: usize, it: &Item) -> usize {
        let p = &mut self.lanes[lane].pipeline;
        match &it.body {
            StreamBody::Record(row) => p.process_record(it.timestamp, row).len(),
            StreamBody::Maintenance { is_repair } => {
                p.process_event(*is_repair);
                0
            }
        }
    }

    /// True while the lane's pipeline is filling its reference profile; a
    /// detector fit follows when the profile fills.
    pub fn filling(&self, lane: usize) -> bool {
        self.lanes[lane].pipeline.phase_name() == "filling-reference"
    }
}

pub fn is_record(it: &Item) -> bool {
    matches!(it.body, StreamBody::Record(_))
}

pub fn vehicle_of(it: &Item) -> u32 {
    it.vehicle
}

/// The paper's record filter (`FilterSpec::navarchos_default`).
#[derive(Debug)]
pub struct Filter {
    spec: FilterSpec,
    names: Vec<String>,
}

impl Filter {
    pub fn paper() -> Self {
        Filter { spec: FilterSpec::navarchos_default(), names: signal_names() }
    }

    #[inline]
    pub fn keep(&self, row: &[f64]) -> bool {
        self.spec.keep_row(&self.names, row)
    }
}

/// The step-1 transformations of the measured cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformId {
    Raw,
    Delta,
    Mean,
    Correlation,
}

impl TransformId {
    fn kind(self) -> TransformKind {
        match self {
            TransformId::Raw => TransformKind::Raw,
            TransformId::Delta => TransformKind::Delta,
            TransformId::Mean => TransformKind::Mean,
            TransformId::Correlation => TransformKind::Correlation,
        }
    }
}

/// One streaming transformation with the pipeline's paper parameters
/// (the correlation transform differenced, as the pipeline builds it).
#[derive(Debug)]
pub struct Transformer {
    inner: Box<dyn Transform>,
    out: Vec<f64>,
}

impl Transformer {
    pub fn new(id: TransformId) -> Self {
        let names = signal_names();
        let cfg = PipelineConfig::paper_default(id.kind(), DetectorKind::ClosestPair);
        let inner: Box<dyn Transform> = match id {
            TransformId::Correlation => Box::new(
                navarchos_tsframe::CorrelationTransform::new(&names, cfg.window, cfg.stride)
                    .with_differencing(),
            ),
            _ => id.kind().build(&names, cfg.window, cfg.stride),
        };
        let out = vec![0.0; inner.output_dim()];
        Transformer { inner, out }
    }

    /// Feeds one kept record; true when a transformed sample is emitted.
    #[inline]
    pub fn push(&mut self, timestamp: i64, row: &[f64]) -> bool {
        self.inner.push_into(timestamp, row, &mut self.out).is_some()
    }
}

// ---------------------------------------------------------------------------
// The paper's offline protocol
// ---------------------------------------------------------------------------

/// One measured Figure 4–5 cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub name: &'static str,
    pub transform: TransformId,
    grand: bool,
}

/// The six cells that finish in seconds: Closest-pair on every
/// transformation, Grand(LOF) on the windowed ones.
pub const CELLS: [Cell; 6] = [
    Cell { name: "cp_raw", transform: TransformId::Raw, grand: false },
    Cell { name: "cp_delta", transform: TransformId::Delta, grand: false },
    Cell { name: "cp_mean", transform: TransformId::Mean, grand: false },
    Cell { name: "cp_corr", transform: TransformId::Correlation, grand: false },
    Cell { name: "grand_mean", transform: TransformId::Mean, grand: true },
    Cell { name: "grand_corr", transform: TransformId::Correlation, grand: true },
];

impl Cell {
    fn params(&self) -> RunnerParams {
        let detector =
            if self.grand { DetectorKind::Grand(GrandNcm::Lof) } else { DetectorKind::ClosestPair };
        RunnerParams::paper_default(self.transform.kind(), detector)
    }
}

/// A fleet as `navarchos evaluate --dir` loads it.
#[derive(Debug)]
pub struct Loaded {
    /// Vehicle ids, ascending.
    pub ids: Vec<u32>,
    frames: Vec<Frame>,
    maintenance: Vec<Vec<(i64, bool)>>,
    repairs: Vec<Vec<i64>>,
    /// Whether each vehicle has any recorded event (setting26).
    recorded: Vec<bool>,
}

impl Loaded {
    pub fn records(&self) -> usize {
        self.frames.iter().map(|f| f.len()).sum()
    }

    /// Every vehicle's records as one flat stream, vehicle by vehicle in
    /// time order.
    pub fn flat(&self) -> FlatStream {
        let mut s = FlatStream::with_capacity(self.records(), PID_NAMES.len());
        let mut row = Vec::with_capacity(PID_NAMES.len());
        for (v, f) in self.frames.iter().enumerate() {
            for i in 0..f.len() {
                f.row_into(i, &mut row);
                s.push(self.ids[v], f.timestamps()[i], Kind::Record, &row);
            }
        }
        s
    }
}

/// Writes the fleet as `navarchos simulate` does: one `vehicle-NN.csv`
/// per vehicle plus `events.csv` with every recorded event.
pub fn write_fleet_csv(fleet: &FleetData, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for vd in &fleet.vehicles {
        write_csv_file(&vd.frame, &dir.join(format!("{}.csv", vd.id)))
            .map_err(|e| e.to_string())?;
    }
    let mut events = String::from("vehicle,timestamp,kind\n");
    for vd in &fleet.vehicles {
        for e in vd.recorded_events() {
            events.push_str(&format!("{},{},{}\n", e.vehicle, e.timestamp, e.kind.label()));
        }
    }
    std::fs::write(dir.join("events.csv"), events).map_err(|e| e.to_string())
}

/// One vehicle's recorded events, as `navarchos evaluate` reads them.
#[derive(Debug, Default)]
struct VehicleEvents {
    /// Services and repairs, `(timestamp, is_repair)`, sorted.
    maintenance: Vec<(i64, bool)>,
    /// Repair timestamps, sorted.
    repairs: Vec<i64>,
}

/// Parses events.csv as the CLI does. Every vehicle with any recorded
/// event (inspections and DTCs included) gets an entry: that is setting26.
fn load_events(path: &Path) -> Result<BTreeMap<u32, VehicleEvents>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: BTreeMap<u32, VehicleEvents> = BTreeMap::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != 3 {
            return Err(format!("{}: line {} malformed", path.display(), i + 1));
        }
        let v: u32 = cells[0].trim().parse().map_err(|e| format!("bad vehicle: {e}"))?;
        let t: i64 = cells[1].trim().parse().map_err(|e| format!("bad timestamp: {e}"))?;
        let entry = out.entry(v).or_default();
        match cells[2].trim() {
            "service" => entry.maintenance.push((t, false)),
            "repair" => {
                entry.maintenance.push((t, true));
                entry.repairs.push(t);
            }
            _ => {}
        }
    }
    for e in out.values_mut() {
        e.maintenance.sort();
        e.repairs.sort();
    }
    Ok(out)
}

/// One file read of [`load_fleet_csv`].
#[derive(Debug, Clone, Copy)]
pub struct Read {
    pub start: Instant,
    pub end: Instant,
    /// The reading thread's CPU seconds, stolen time left out.
    pub cpu_s: f64,
}

/// Times `read`, one file read.
fn timed<T>(read: impl FnOnce() -> T, on_read: &mut impl FnMut(Read)) -> T {
    let (start, cpu) = (Instant::now(), crate::host::thread_cpu_s());
    let out = read();
    on_read(Read { start, end: Instant::now(), cpu_s: crate::host::thread_cpu_s() - cpu });
    out
}

/// Loads `n` vehicles' CSVs and the event log from `dir`. `on_read` sees
/// each file read.
pub fn load_fleet_csv(
    dir: &Path,
    n: usize,
    mut on_read: impl FnMut(Read),
) -> Result<Loaded, String> {
    let mut loaded = Loaded {
        ids: Vec::with_capacity(n),
        frames: Vec::with_capacity(n),
        maintenance: Vec::with_capacity(n),
        repairs: Vec::with_capacity(n),
        recorded: Vec::with_capacity(n),
    };
    for v in 0..n {
        let path = dir.join(format!("vehicle-{v:02}.csv"));
        let frame = timed(|| read_csv_file(&path), &mut on_read)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        loaded.ids.push(v as u32);
        loaded.frames.push(frame);
    }
    let mut events = timed(|| load_events(&dir.join("events.csv")), &mut on_read)?;
    for v in &loaded.ids {
        let e = events.remove(v);
        loaded.recorded.push(e.is_some());
        let e = e.unwrap_or_default();
        loaded.maintenance.push(e.maintenance);
        loaded.repairs.push(e.repairs);
    }
    Ok(loaded)
}

/// Per generated vehicle: whether its loaded frame is bit-identical to
/// the generated one (names, timestamps and every value by `to_bits`).
pub fn frames_identical(fleet: &FleetData, loaded: &Loaded) -> Vec<bool> {
    fleet
        .vehicles
        .iter()
        .enumerate()
        .map(|(i, vd)| {
            let (Some(f), g) = (loaded.frames.get(i), &vd.frame) else {
                return false;
            };
            f.names() == g.names()
                && f.timestamps() == g.timestamps()
                && (0..g.width()).all(|c| {
                    f.column(c)
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(g.column(c).iter().map(|x| x.to_bits()))
                })
        })
        .collect()
}

/// One cell's per-vehicle score traces.
#[derive(Debug)]
pub struct CellScores {
    scores: Vec<VehicleScores>,
}

impl CellScores {
    /// Detector fits over the fleet: one per detection segment.
    pub fn fits(&self) -> usize {
        self.scores.iter().map(|s| s.segments.len()).sum()
    }
}

/// Scores every vehicle under `cell` with the batch runner, fanned out
/// over vehicles. Returns the traces and each vehicle's seconds.
pub fn score_cell(loaded: &Loaded, cell: Cell) -> (CellScores, Vec<f64>) {
    let params = cell.params();
    let idx: Vec<usize> = (0..loaded.frames.len()).collect();
    let results = par_map(&idx, |_, &v| {
        let t0 = Instant::now();
        let s = run_vehicle(&loaded.frames[v], &loaded.maintenance[v], &params);
        (s, t0.elapsed().as_secs_f64())
    });
    let (scores, secs) = results.into_iter().unzip();
    (CellScores { scores }, secs)
}

/// The paper's threshold sweep for one setting and PH: the best factor
/// (or constant) by F0.5, with its quality.
pub fn sweep(loaded: &Loaded, cs: &CellScores, setting26: bool, ph_days: i64) -> (f64, Quality) {
    let subset: Vec<usize> =
        (0..loaded.frames.len()).filter(|&v| !setting26 || loaded.recorded[v]).collect();
    let traces: Vec<&VehicleScores> = subset.iter().map(|&v| &cs.scores[v]).collect();
    let repairs: Vec<Vec<i64>> = subset.iter().map(|&v| loaded.repairs[v].clone()).collect();
    let grid = if cs.scores.first().is_some_and(|s| s.constant_threshold) {
        constant_grid()
    } else {
        factor_grid()
    };
    let (param, counts) = sweep_best(&traces, &repairs, &grid, EvalParams::days(ph_days));
    (param, Quality::of(&counts))
}
