//! The streaming loop of the paper's Algorithm 1: events that reset the
//! reference profile, records that flow through filtering and
//! transformation, a reference profile that fills and fits the detector,
//! a healthy holdout that tunes the threshold, and alarms with feature
//! attribution.
//!
//! `Scorer` is the loop's one implementation up to the scores: the
//! served [`StreamingPipeline`] adds the self-tuning threshold and alarm
//! formation on top of it, and the batch runner
//! ([`crate::runner::run_vehicle`]) records its scores and segments.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::detectors::{Detector, DetectorKind, DetectorParams};
use crate::reference::{ReferenceProfile, ResetPolicy};
use crate::threshold::SelfTuningThreshold;
use navarchos_obs as obs;
use navarchos_stat::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use navarchos_tsframe::{FilterSpec, Frame, RowFilter, Transform, TransformKind};

/// Pipeline configuration (one vehicle's instantiation of the framework).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Step-1 data transformation.
    pub transform: TransformKind,
    /// Sliding-window length (records) for the windowed transformations.
    pub window: usize,
    /// Emission stride (records) for the windowed transformations.
    pub stride: usize,
    /// Step-3 detector.
    pub detector: DetectorKind,
    /// Detector tuning knobs.
    pub detector_params: DetectorParams,
    /// Reference profile length (transformed samples).
    pub profile_length: usize,
    /// Healthy samples scored to tune the threshold after each fit.
    pub holdout: usize,
    /// Self-tuning threshold factor (mean + factor · std).
    pub threshold_factor: f64,
    /// Constant threshold for detectors with calibrated [0, 1] scores
    /// (Grand).
    pub constant_threshold: f64,
    /// When the reference profile resets.
    pub reset_policy: ResetPolicy,
    /// Record filter applied before transformation.
    pub filter: FilterSpec,
}

impl PipelineConfig {
    /// The paper's main configuration for a transformation/detector pair:
    /// hour-long windows emitted every 10 minutes for the windowed
    /// transformations, and profile/holdout sizes scaled to the
    /// transformation's emission rate.
    pub fn paper_default(transform: TransformKind, detector: DetectorKind) -> Self {
        let (window, stride, profile_length, holdout) = match transform {
            TransformKind::Raw | TransformKind::Delta => (1, 1, 1200, 1500),
            TransformKind::Mean | TransformKind::Correlation => (45, 3, 80, 50),
        };
        PipelineConfig {
            transform,
            window,
            stride,
            detector,
            detector_params: DetectorParams::default(),
            profile_length,
            holdout,
            threshold_factor: 3.0,
            constant_threshold: 0.5,
            reset_policy: ResetPolicy::OnServiceOrRepair,
            filter: FilterSpec::navarchos_default(),
        }
    }

    /// The score-channel names (feature or feature-pair labels) that a
    /// pipeline of this configuration attributes its alarms to, for records
    /// with the given column names: what [`Alarm::channel`] indexes.
    pub fn channel_names(&self, input_names: &[String]) -> Vec<String> {
        let transform = self.transform.build(input_names, self.window, self.stride);
        self.detector.channel_names(&transform.output_names())
    }
}

/// One raised alarm, attributed to the score channel that violated its
/// threshold (the paper's "description with the feature that triggered
/// it"). The channel is an index; its name is resolved where it is shown,
/// from [`StreamingPipeline::channel_names`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// Timestamp of the transformed sample that alarmed.
    pub timestamp: i64,
    /// Violating score channel.
    pub channel: usize,
    /// The anomaly score.
    pub score: f64,
    /// The threshold it exceeded.
    pub threshold: f64,
}

/// Scoring phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Collecting transformed samples into the reference profile.
    FillingReference,
    /// Scoring presumed-healthy samples to tune the threshold.
    Holdout(usize),
    /// Scoring samples that may alarm.
    Detecting,
}

/// What one record did in the [`Scorer`].
#[derive(Debug)]
pub(crate) enum Step {
    /// Filtered out, or absorbed by a windowed transformation.
    Skipped,
    /// The sample emitted at `t` went into the reference profile;
    /// `fitted` when it completed the profile and the detector was fit.
    Reference { t: i64, fitted: bool },
    /// The sample emitted at `t` was scored as a healthy holdout sample;
    /// `last` when it completed the holdout.
    Holdout { t: i64, scores: Vec<f64>, last: bool },
    /// The sample emitted at `t` was scored after the holdout.
    Detect { t: i64, scores: Vec<f64> },
}

/// Records, emissions, reference resets and detector fits of a [`Scorer`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counts {
    pub(crate) records: u64,
    pub(crate) emissions: u64,
    pub(crate) resets: u64,
    pub(crate) refits: u64,
}

/// The `pipeline.stage.*_ns` histograms that sampled stage durations go
/// into.
#[derive(Debug)]
struct StageHistograms {
    filter_ns: Arc<obs::Histogram>,
    transform_ns: Arc<obs::Histogram>,
    score_ns: Arc<obs::Histogram>,
}

/// The stage histograms, resolved once per process, at the first sampled
/// record.
fn stage_histograms() -> &'static StageHistograms {
    static STAGES: OnceLock<StageHistograms> = OnceLock::new();
    STAGES.get_or_init(|| StageHistograms {
        filter_ns: obs::histogram("pipeline.stage.filter_ns"),
        transform_ns: obs::histogram("pipeline.stage.transform_ns"),
        score_ns: obs::histogram("pipeline.stage.score_ns"),
    })
}

/// Nanoseconds since `t`, saturating.
pub(crate) fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The scoring core of Algorithm 1 for one vehicle: the resolved record
/// filter, the transformation, the reference fill and detector fit, the
/// scoring of every later sample with the holdout count, and the
/// maintenance reset under the [`ResetPolicy`].
///
/// With metrics on, the stage clocks are read on one record in
/// 2^k ([`obs::probe_sample_mask`]): each sampled record's filter,
/// transform and score durations are recorded into `pipeline.stage.*_ns`
/// as they are taken, so a live scrape sees them. The sampling gate counts
/// records, independent of the filter and emission cadence, so the
/// sampled sums scale to the stream's stage split.
#[derive(Debug)]
pub(crate) struct Scorer {
    pub(crate) cfg: PipelineConfig,
    /// `cfg.filter` resolved against the input names.
    row_filter: RowFilter,
    transform: Box<dyn Transform>,
    pub(crate) detector: Box<dyn Detector>,
    pub(crate) profile: ReferenceProfile,
    phase: Phase,
    /// Reused output buffer for the transform's allocation-free fast path.
    feat: Vec<f64>,
    pub(crate) counts: Counts,
    probe_mask: u64,
}

impl Scorer {
    /// Builds the core for records with the given column names.
    pub(crate) fn new(input_names: &[String], cfg: PipelineConfig) -> Scorer {
        let transform = cfg.transform.build(input_names, cfg.window, cfg.stride);
        let dim = transform.output_dim();
        let detector = cfg.detector.build(dim, &cfg.detector_params);
        Scorer {
            row_filter: cfg.filter.resolve(input_names),
            profile: ReferenceProfile::new(dim, cfg.profile_length),
            transform,
            detector,
            cfg,
            phase: Phase::FillingReference,
            feat: vec![0.0; dim],
            counts: Counts::default(),
            probe_mask: obs::probe_sample_mask(),
        }
    }

    /// Handles a maintenance event; returns whether the policy reset the
    /// reference (profile, detector and transformation state).
    pub(crate) fn event(&mut self, is_repair: bool) -> bool {
        if !self.cfg.reset_policy.resets_on(is_repair) {
            return false;
        }
        self.profile.clear();
        self.detector.reset();
        self.transform.reset();
        self.phase = Phase::FillingReference;
        self.counts.resets += 1;
        true
    }

    /// Handles one raw record.
    pub(crate) fn push(&mut self, timestamp: i64, row: &[f64]) -> Step {
        self.counts.records += 1;
        let mut clock = (self.counts.records & self.probe_mask == 0 && obs::metrics_enabled())
            .then(|| (stage_histograms(), Instant::now()));
        let kept = self.row_filter.keep(row);
        if let Some((stages, t0)) = &mut clock {
            stages.filter_ns.record(ns_since(*t0));
            *t0 = Instant::now();
        }
        if !kept {
            return Step::Skipped;
        }
        let emitted = self.transform.push_into(timestamp, row, &mut self.feat);
        if let Some((stages, t0)) = &mut clock {
            stages.transform_ns.record(ns_since(*t0));
            *t0 = Instant::now();
        }
        let Some(t) = emitted else {
            return Step::Skipped;
        };
        self.counts.emissions += 1;
        let step = match self.phase {
            Phase::FillingReference => {
                let fitted = self.profile.push(&self.feat);
                if fitted {
                    self.detector.fit(&self.profile);
                    self.phase = Phase::Holdout(0);
                    self.counts.refits += 1;
                }
                Step::Reference { t, fitted }
            }
            Phase::Holdout(seen) => {
                let scores = self.detector.score(&self.feat);
                let last = seen + 1 >= self.cfg.holdout;
                self.phase = if last { Phase::Detecting } else { Phase::Holdout(seen + 1) };
                Step::Holdout { t, scores, last }
            }
            Phase::Detecting => Step::Detect { t, scores: self.detector.score(&self.feat) },
        };
        if let Some((stages, t0)) = clock {
            stages.score_ns.record(ns_since(t0));
        }
        step
    }
}

/// One item of a vehicle's history in time order.
#[derive(Debug)]
pub enum Walked<'a> {
    /// A maintenance event `(time, is_repair)`.
    Event(i64, bool),
    /// A record `(time, row)`.
    Record(i64, &'a [f64]),
}

/// Walks one vehicle's frame in time order, interleaving the time-sorted
/// maintenance log so that the events at or before a record's time come
/// before it. The served replay, the batch runner and the CLI's `monitor`
/// all walk a vehicle's history through this one loop.
pub fn walk(frame: &Frame, maintenance: &[(i64, bool)], mut visit: impl FnMut(Walked<'_>)) {
    let mut events = maintenance.iter().peekable();
    let mut row = Vec::with_capacity(frame.width());
    for (i, &t) in frame.timestamps().iter().enumerate() {
        while let Some(&(mt, is_repair)) = events.next_if(|&&(mt, _)| mt <= t) {
            visit(Walked::Event(mt, is_repair));
        }
        frame.row_into(i, &mut row);
        visit(Walked::Record(t, &row));
    }
}

/// Cached metric handles for the served path: resolved once at
/// construction so `process_record` never touches the registry mutex.
/// Alarm latencies are recorded into the shared histogram as each alarm
/// is raised. Score samples buffer in a local [`obs::QuantileSketch`] and
/// merge into the shared registry sketches on
/// [`StreamingPipeline::flush_obs`] or drop, because the fleet sketch is
/// one mutex that every shard thread shares.
#[derive(Debug)]
struct PipelineStats {
    records: Arc<obs::Counter>,
    emissions: Arc<obs::Counter>,
    resets: Arc<obs::Counter>,
    refits: Arc<obs::Counter>,
    alarms: Arc<obs::Counter>,
    alarm_latency_ns: Arc<obs::Histogram>,
    /// Fleet-wide score distribution; every pipeline merges into it.
    fleet_scores: Arc<obs::Sketch>,
    /// Per-vehicle score distribution when the pipeline is scoped.
    scoped_scores: Option<Arc<obs::Sketch>>,
    /// Unsynchronised local buffer of per-emission max channel scores,
    /// merged into the shared sketches on flush/drop.
    pending_scores: obs::QuantileSketch,
    /// This pipeline's own cumulative score distribution (what the
    /// headroom gauge ranks the threshold against).
    cumulative_scores: obs::QuantileSketch,
    /// % of observed scores safely below the lowest active threshold.
    threshold_headroom: Arc<obs::Gauge>,
    /// Emissions since the detector last fit — reference staleness.
    profile_age: Arc<obs::Gauge>,
    /// |relative change| of the mean tuned threshold at the last refit,
    /// in basis points — how much a retune actually moved the bar.
    retune_delta: Arc<obs::Gauge>,
}

impl PipelineStats {
    fn new(scope: Option<&str>) -> PipelineStats {
        let (fleet_scores, scoped_scores, headroom, age, retune) = match scope {
            // Scoped pipelines (one per vehicle in the ingest engine) keep
            // per-vehicle gauges/sketches and still merge into the fleet
            // sketch; unscoped ones (single-vehicle replay) own the plain
            // names so gauges aren't clobbered across vehicles.
            Some(scope) => (
                obs::sketch("pipeline.score"),
                Some(obs::sketch(&format!("pipeline.{scope}.score"))),
                obs::gauge(&format!("pipeline.{scope}.threshold_headroom_pct")),
                obs::gauge(&format!("pipeline.{scope}.profile_age_emissions")),
                obs::gauge(&format!("pipeline.{scope}.retune_delta_bp")),
            ),
            None => (
                obs::sketch("pipeline.score"),
                None,
                obs::gauge("pipeline.threshold_headroom_pct"),
                obs::gauge("pipeline.profile_age_emissions"),
                obs::gauge("pipeline.retune_delta_bp"),
            ),
        };
        PipelineStats {
            records: obs::counter("pipeline.records"),
            emissions: obs::counter("pipeline.emissions"),
            resets: obs::counter("pipeline.resets"),
            refits: obs::counter("pipeline.refits"),
            alarms: obs::counter("pipeline.alarms"),
            alarm_latency_ns: obs::histogram("alarm.latency_ns"),
            fleet_scores,
            scoped_scores,
            pending_scores: obs::QuantileSketch::default(),
            cumulative_scores: obs::QuantileSketch::default(),
            threshold_headroom: headroom,
            profile_age: age,
            retune_delta: retune,
        }
    }

    /// Buffers the emission's max finite channel score.
    fn observe_scores(&mut self, scores: &[f64]) {
        let max =
            scores.iter().copied().filter(|s| s.is_finite()).fold(f64::NEG_INFINITY, f64::max);
        if max.is_finite() {
            self.pending_scores.record(max);
        }
    }

    /// Merges buffered score samples into the shared registry sketches.
    fn merge_scores(&mut self) {
        if self.pending_scores.is_empty() {
            return;
        }
        self.cumulative_scores.merge(&self.pending_scores);
        self.fleet_scores.merge_from(&self.pending_scores);
        if let Some(s) = &self.scoped_scores {
            s.merge_from(&self.pending_scores);
        }
        self.pending_scores = obs::QuantileSketch::default();
    }
}

impl Drop for PipelineStats {
    fn drop(&mut self) {
        // Buffered score samples would otherwise vanish with the tail of
        // a run.
        self.merge_scores();
    }
}

/// The streaming pipeline of Algorithm 1 for a single vehicle: the
/// `Scorer` plus the self-tuning threshold, alarm formation and the
/// model-quality gauges.
#[derive(Debug)]
pub struct StreamingPipeline {
    core: Scorer,
    threshold: SelfTuningThreshold,
    /// What [`Alarm::channel`] indexes: one table, shared by every lane of
    /// an ingest engine.
    channel_names: Arc<[String]>,
    /// Emissions since the detector last fit (the profile-age gauge).
    emissions_since_refit: u64,
    /// Mean tuned threshold of the reference the last reset discarded,
    /// until the next tune measures its retune delta against it.
    prior_threshold_mean: Option<f64>,
    stats: PipelineStats,
}

impl StreamingPipeline {
    /// Creates the pipeline for records with the given column names.
    pub fn new<S: AsRef<str>>(input_names: &[S], cfg: PipelineConfig) -> Self {
        let input_names: Vec<String> = input_names.iter().map(|s| s.as_ref().to_string()).collect();
        let channel_names = cfg.channel_names(&input_names).into();
        Self::new_scoped(&input_names, cfg, None, channel_names)
    }

    /// Like [`StreamingPipeline::new`], but telemetry that is meaningless
    /// when aggregated across vehicles (score sketch, threshold-headroom /
    /// profile-age / retune gauges) is minted under
    /// `pipeline.<scope>.<metric>` instead of the plain names. The ingest
    /// engine passes the vehicle label here so fleet dashboards get one
    /// gauge family per vehicle, and every lane shares the one
    /// `channel_names` table ([`PipelineConfig::channel_names`]) that the
    /// engine builds.
    ///
    /// # Panics
    /// Panics if `channel_names` does not name every score channel.
    pub fn new_scoped(
        input_names: &[String],
        cfg: PipelineConfig,
        scope: Option<&str>,
        channel_names: Arc<[String]>,
    ) -> Self {
        let factor = cfg.threshold_factor;
        let core = Scorer::new(input_names, cfg);
        let n_channels = core.detector.n_channels();
        assert_eq!(channel_names.len(), n_channels, "channel table does not fit the detector");
        StreamingPipeline {
            threshold: SelfTuningThreshold::new(n_channels, factor),
            channel_names,
            core,
            emissions_since_refit: 0,
            prior_threshold_mean: None,
            stats: PipelineStats::new(scope),
        }
    }

    /// Current phase name (for dashboards / examples).
    pub fn phase_name(&self) -> &'static str {
        match self.core.phase {
            Phase::FillingReference => "filling-reference",
            Phase::Holdout(_) => "threshold-holdout",
            Phase::Detecting => "detecting",
        }
    }

    /// Score-channel names (feature or feature-pair labels), aligned with
    /// [`Alarm::channel`].
    pub fn channel_names(&self) -> &[String] {
        &self.channel_names
    }

    /// Handles a maintenance event; resets the reference profile when the
    /// policy says so.
    pub fn process_event(&mut self, is_repair: bool) {
        if self.core.event(is_repair) {
            if let Some(mean) = self.tuned_mean() {
                self.prior_threshold_mean = Some(mean);
            }
            self.threshold.reset();
            self.emissions_since_refit = 0;
            if obs::metrics_enabled() {
                self.stats.resets.incr();
            }
            if obs::events_enabled() {
                obs::emit(&obs::Event::new("pipeline.reset").field("is_repair", is_repair));
            }
        }
    }

    /// Merges buffered score samples into the shared sketches, then
    /// refreshes the model-quality gauges (threshold headroom,
    /// reference-profile age). The merge runs automatically when the
    /// pipeline drops; call this before snapshotting sketches or gauges
    /// from a still-live pipeline (the `monitor` loop, dashboards).
    /// Histograms need no flush: their samples are recorded as taken.
    pub fn flush_obs(&mut self) {
        self.stats.merge_scores();
        if !obs::metrics_enabled() {
            return;
        }
        self.stats.profile_age.set(self.emissions_since_refit);
        if self.core.phase == Phase::Detecting && !self.stats.cumulative_scores.is_empty() {
            let thr = if self.core.detector.uses_constant_threshold() {
                self.core.cfg.constant_threshold
            } else {
                self.threshold
                    .thresholds()
                    .iter()
                    .copied()
                    .filter(|t| t.is_finite())
                    .fold(f64::INFINITY, f64::min)
            };
            if thr.is_finite() {
                // 100 = every observed score sits below the lowest active
                // threshold; eroding toward 0 as scores crowd past it.
                let headroom = self.stats.cumulative_scores.rank(thr) * 100.0;
                self.stats.threshold_headroom.set(headroom.round() as u64);
            }
        }
    }

    /// Mean of the finite tuned thresholds; `None` before a tune.
    fn tuned_mean(&self) -> Option<f64> {
        let finite: Vec<f64> =
            self.threshold.thresholds().iter().copied().filter(|t| t.is_finite()).collect();
        (!finite.is_empty()).then(|| finite.iter().sum::<f64>() / finite.len() as f64)
    }

    /// After a tune: how far it moved the mean bar from the reference the
    /// last reset discarded, in basis points, into the retune-delta gauge
    /// (written only with metrics on). A first tune has no baseline.
    fn observe_retune(&mut self, on: bool) {
        let (Some(prev), Some(mean)) = (self.prior_threshold_mean.take(), self.tuned_mean()) else {
            return;
        };
        if on {
            let delta_bp = ((mean - prev).abs() / prev.abs().max(1e-12)) * 10_000.0;
            self.stats.retune_delta.set(delta_bp.min(u64::MAX as f64 / 2.0).round() as u64);
        }
    }

    /// Handles one raw record; returns any alarms raised.
    ///
    /// With metrics enabled, the scoring core's sampled stage clocks feed
    /// the `pipeline.stage.*_ns` histograms and every raised alarm
    /// records `alarm.latency_ns` — the wall-clock delay from this
    /// record's arrival (entry into this call) to the alarm's emission,
    /// i.e. how long the triggering observation took to become an alarm.
    /// Disabled, the probe cost is one relaxed atomic load.
    pub fn process_record(&mut self, timestamp: i64, row: &[f64]) -> Vec<Alarm> {
        let on = obs::metrics_enabled();
        let events_on = obs::events_enabled();
        // Arrival timestamp of the triggering record, for alarm latency.
        let arrival = (on || events_on).then(Instant::now);
        if on {
            self.stats.records.incr();
        }
        let step = self.core.push(timestamp, row);
        if let Step::Skipped = step {
            return Vec::new();
        }
        self.emissions_since_refit += 1;
        if on {
            self.stats.emissions.incr();
        }
        let (t, scores) = match step {
            Step::Skipped | Step::Reference { fitted: false, .. } => return Vec::new(),
            Step::Reference { t, fitted: true } => {
                self.emissions_since_refit = 0;
                if on {
                    self.stats.refits.incr();
                }
                if events_on {
                    obs::emit(
                        &obs::Event::new("pipeline.refit")
                            .field("timestamp", t)
                            .field("profile_len", self.core.profile.len()),
                    );
                }
                return Vec::new();
            }
            Step::Holdout { scores, last, .. } => {
                if on {
                    self.stats.observe_scores(&scores);
                }
                self.threshold.observe(&scores);
                if last {
                    self.threshold.fit();
                    self.observe_retune(on);
                }
                return Vec::new();
            }
            Step::Detect { t, scores } => (t, scores),
        };
        if on {
            self.stats.observe_scores(&scores);
        }
        let constant = self.core.detector.uses_constant_threshold();
        let violations: Vec<usize> = if constant {
            scores
                .iter()
                .enumerate()
                .filter(|(_, &s)| s.is_finite() && s > self.core.cfg.constant_threshold)
                .map(|(i, _)| i)
                .collect()
        } else {
            self.threshold.violations(&scores)
        };
        let alarms: Vec<Alarm> = violations
            .into_iter()
            .map(|c| Alarm {
                timestamp: t,
                channel: c,
                score: scores[c],
                threshold: if constant {
                    self.core.cfg.constant_threshold
                } else {
                    self.threshold.thresholds()[c]
                },
            })
            .collect();
        if !alarms.is_empty() {
            let latency_ns = arrival.map(ns_since);
            if on {
                self.stats.alarms.add(alarms.len() as u64);
                if let Some(l) = latency_ns {
                    // One latency sample per alarm, so the histogram count
                    // stays aligned with the `pipeline.alarms` counter.
                    for _ in 0..alarms.len() {
                        self.stats.alarm_latency_ns.record(l);
                    }
                }
            }
            if events_on {
                for a in &alarms {
                    let mut e = obs::Event::new("pipeline.alarm")
                        .field("timestamp", a.timestamp)
                        .field("channel", a.channel)
                        .field("feature", self.channel_names[a.channel].as_str())
                        .field("score", a.score)
                        .field("threshold", a.threshold);
                    if let Some(l) = latency_ns {
                        e = e.field("latency_ns", l);
                    }
                    obs::emit(&e);
                }
            }
        }
        alarms
    }
}

// The pipeline's mutable state, in processing order: phase, transform
// buffers, reference profile, tuned threshold, detector streaming state,
// plus the model-quality telemetry needed for gauge continuity. The fitted
// detector model itself is NOT serialised — `fit` is deterministic given
// the profile and seeded params, so `read_state` re-fits from the restored
// profile (the profile data is retained after fitting exactly so this is
// possible) and then restores the detector's evolved streaming state.
impl Snapshot for StreamingPipeline {
    fn write_state(&self, w: &mut SnapWriter) {
        match self.core.phase {
            Phase::FillingReference => w.put_u8(0),
            Phase::Holdout(seen) => {
                w.put_u8(1);
                w.put_usize(seen);
            }
            Phase::Detecting => w.put_u8(2),
        }
        self.core.transform.write_state(w);
        self.core.profile.write_state(w);
        self.threshold.write_state(w);
        self.core.detector.write_state(w);
        w.put_u64(self.emissions_since_refit);
        w.put_opt_f64(self.prior_threshold_mean);
    }
}

impl Restore for StreamingPipeline {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let phase = match r.get_u8()? {
            0 => Phase::FillingReference,
            1 => Phase::Holdout(r.get_usize()?),
            2 => Phase::Detecting,
            _ => return Err(SnapError::Corrupt("pipeline phase tag out of range")),
        };
        let core = &mut self.core;
        core.transform.read_state(r)?;
        core.profile.read_state(r)?;
        self.threshold.read_state(r)?;
        if phase != Phase::FillingReference {
            // Past the filling phase the profile must be complete, or the
            // deterministic re-fit below could panic on a short profile.
            if !core.profile.is_full() {
                return Err(SnapError::Corrupt("pipeline phase past an unfilled profile"));
            }
            core.detector.fit(&core.profile);
        }
        core.detector.read_state(r)?;
        core.phase = phase;
        self.emissions_since_refit = r.get_u64()?;
        self.prior_threshold_mean = r.get_opt_f64()?;
        Ok(())
    }
}

/// Streams one vehicle's full history through a fresh
/// [`StreamingPipeline`], interleaving maintenance events at their
/// recorded times — the measurement pass behind `alarm.latency_ns`: the
/// batch runner scores retrospectively and never raises runtime alarms,
/// so `evaluate --metrics` replays the stream through the online path to
/// observe real emission latencies. Returns every alarm raised.
pub fn replay_stream(
    frame: &Frame,
    maintenance: &[(i64, bool)],
    cfg: PipelineConfig,
) -> Vec<Alarm> {
    let _span = obs::span("replay_stream");
    let mut pipeline = StreamingPipeline::new(frame.names(), cfg);
    let mut alarms = Vec::new();
    walk(frame, maintenance, |item| match item {
        Walked::Event(_, is_repair) => pipeline.process_event(is_repair),
        Walked::Record(t, row) => alarms.extend(pipeline.process_record(t, row)),
    });
    alarms
}

/// Replays a whole fleet per-vehicle through [`replay_stream`], one fresh
/// pipeline per vehicle, in parallel. Returns one alarm vector per input
/// vehicle, in input order.
///
/// This is the equivalence oracle for the sharded ingest engine: an
/// interleaved fleet stream is correct exactly when the engine's
/// per-vehicle alarms match this sorted single-vehicle replay. Each entry
/// pairs the vehicle's frame with its maintenance log as `(timestamp,
/// is_repair)` tuples sorted ascending.
pub fn replay_interleaved(
    vehicles: &[(Frame, Vec<(i64, bool)>)],
    cfg: &PipelineConfig,
) -> Vec<Vec<Alarm>> {
    let _span = obs::span("replay_interleaved");
    crate::par::par_map(vehicles, |_, (frame, maintenance)| {
        replay_stream(frame, maintenance, cfg.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use navarchos_tsframe::FilterSpec;

    /// A tiny two-signal pipeline: correlation transform + closest pair.
    fn tiny_pipeline() -> StreamingPipeline {
        let cfg = PipelineConfig {
            transform: TransformKind::Correlation,
            window: 8,
            stride: 2,
            detector: DetectorKind::ClosestPair,
            detector_params: DetectorParams::default(),
            profile_length: 12,
            holdout: 6,
            threshold_factor: 4.0,
            constant_threshold: 0.5,
            reset_policy: ResetPolicy::OnServiceOrRepair,
            filter: FilterSpec::default(),
        };
        StreamingPipeline::new(&["a", "b"], cfg)
    }

    /// Feeds `n` correlated records (b tracks a) starting at time `t0`.
    fn feed_healthy(p: &mut StreamingPipeline, t0: i64, n: usize) -> Vec<Alarm> {
        let mut alarms = Vec::new();
        for i in 0..n {
            let t = t0 + i as i64 * 60;
            let a = (i as f64 * 0.7).sin() * 10.0 + 20.0;
            alarms.extend(p.process_record(t, &[a, 2.0 * a + 1.0]));
        }
        alarms
    }

    #[test]
    fn phases_progress_and_healthy_data_is_quiet() {
        let mut p = tiny_pipeline();
        assert_eq!(p.phase_name(), "filling-reference");
        let alarms = feed_healthy(&mut p, 0, 200);
        assert_eq!(p.phase_name(), "detecting");
        assert!(alarms.is_empty(), "healthy stream raised {alarms:?}");
    }

    #[test]
    fn relationship_flip_raises_attributed_alarm() {
        let mut p = tiny_pipeline();
        feed_healthy(&mut p, 0, 200);
        // Flip the relationship: b now anti-tracks a.
        let mut alarms = Vec::new();
        for i in 0..60 {
            let t = 200 * 60 + i as i64 * 60;
            let a = (i as f64 * 0.7).sin() * 10.0 + 20.0;
            alarms.extend(p.process_record(t, &[a, -2.0 * a + 90.0]));
        }
        assert!(!alarms.is_empty(), "flip not detected");
        assert_eq!(p.channel_names()[alarms[0].channel], "a~b");
        assert!(alarms[0].score > alarms[0].threshold);
    }

    #[test]
    fn maintenance_event_resets_reference() {
        let mut p = tiny_pipeline();
        feed_healthy(&mut p, 0, 200);
        assert_eq!(p.phase_name(), "detecting");
        p.process_event(false); // service
        assert_eq!(p.phase_name(), "filling-reference");
        // Refills and returns to detection.
        feed_healthy(&mut p, 200 * 60, 200);
        assert_eq!(p.phase_name(), "detecting");
    }

    #[test]
    fn repair_only_policy_ignores_services() {
        let mut cfgp = tiny_pipeline();
        cfgp.core.cfg.reset_policy = ResetPolicy::OnRepairOnly;
        feed_healthy(&mut cfgp, 0, 200);
        cfgp.process_event(false);
        assert_eq!(cfgp.phase_name(), "detecting", "service ignored");
        cfgp.process_event(true);
        assert_eq!(cfgp.phase_name(), "filling-reference", "repair resets");
    }

    #[test]
    fn grand_uses_constant_threshold_in_streaming() {
        use crate::detectors::GrandNcm;
        let cfg = PipelineConfig {
            transform: TransformKind::Raw,
            window: 1,
            stride: 1,
            detector: DetectorKind::Grand(GrandNcm::Knn),
            detector_params: DetectorParams { grand_k: 3, ..Default::default() },
            profile_length: 40,
            holdout: 10,
            threshold_factor: 3.0,
            constant_threshold: 0.6,
            reset_policy: ResetPolicy::OnServiceOrRepair,
            filter: FilterSpec::default(),
        };
        let mut p = StreamingPipeline::new(&["a", "b"], cfg);
        // Healthy 2-D cloud.
        for i in 0..80 {
            let x = (i % 7) as f64 * 0.1;
            let y = (i % 5) as f64 * 0.1;
            let alarms = p.process_record(i as i64 * 60, &[x, y]);
            assert!(alarms.is_empty(), "healthy phase quiet");
        }
        assert_eq!(p.phase_name(), "detecting");
        // Persistent far-out stream must saturate the martingale and cross
        // the constant threshold.
        let mut fired = false;
        for i in 80..200 {
            let alarms = p.process_record(i as i64 * 60, &[9.0, 9.0]);
            if !alarms.is_empty() {
                assert!(alarms[0].score > 0.6, "deviation beyond the constant threshold");
                assert_eq!(alarms[0].threshold, 0.6);
                fired = true;
                break;
            }
        }
        assert!(fired, "Grand never alarmed on a persistent anomaly");
    }

    /// Feeds a healthy stream then a flipped one through `cfg`'s pipeline
    /// shape, returning the alarms from the flipped phase.
    fn flip_alarms(p: &mut StreamingPipeline) -> Vec<Alarm> {
        feed_healthy(p, 0, 200);
        let mut alarms = Vec::new();
        for i in 0..60 {
            let t = 200 * 60 + i as i64 * 60;
            let a = (i as f64 * 0.7).sin() * 10.0 + 20.0;
            alarms.extend(p.process_record(t, &[a, -2.0 * a + 90.0]));
        }
        alarms
    }

    #[test]
    fn alarm_latency_histogram_records_when_metrics_on() {
        obs::set_metrics_enabled(true);
        let before = obs::histogram("alarm.latency_ns").snapshot().count;
        let mut p = tiny_pipeline();
        let alarms = flip_alarms(&mut p);
        assert!(!alarms.is_empty());
        // Read from the live pipeline: no flush stands between an alarm
        // and its latency sample.
        let after = obs::histogram("alarm.latency_ns").snapshot().count;
        assert!(
            after >= before + alarms.len() as u64,
            "latency samples {before} -> {after} for {} alarms",
            alarms.len()
        );
        // Deliberately not restoring the global flag: concurrent tests in
        // this binary also enable metrics, and a mid-test disable from
        // here would race their histogram-count assertions.
    }

    #[test]
    fn score_sketch_and_quality_gauges_populate() {
        obs::set_metrics_enabled(true);
        let before = obs::sketch("pipeline.score").snapshot().count();
        let mut p = tiny_pipeline();
        feed_healthy(&mut p, 0, 200);
        p.flush_obs();
        let after = obs::sketch("pipeline.score").snapshot().count();
        assert!(after > before, "score sketch grew {before} -> {after}");
        // Healthy stream in detection: scores sit below the tuned bar, so
        // headroom reads high (shared gauge — another unscoped pipeline in
        // this binary may also have written a plausible value; range only).
        let headroom = obs::gauge("pipeline.threshold_headroom_pct").get();
        assert!(headroom <= 100, "headroom is a percentage, got {headroom}");
        // The reference fit recently; age counts emissions since then.
        assert!(obs::gauge("pipeline.profile_age_emissions").get() > 0);
    }

    #[test]
    fn scoped_pipeline_keeps_per_vehicle_sketch_and_gauges() {
        obs::set_metrics_enabled(true);
        let cfg = tiny_pipeline().core.cfg;
        let names = ["a".to_string(), "b".to_string()];
        let channels = cfg.channel_names(&names).into();
        let mut p = StreamingPipeline::new_scoped(&names, cfg, Some("v99"), channels);
        feed_healthy(&mut p, 0, 200);
        p.flush_obs();
        let scoped = obs::sketch("pipeline.v99.score").snapshot();
        assert!(!scoped.is_empty(), "scoped sketch populated");
        assert!(obs::gauge("pipeline.v99.profile_age_emissions").get() > 0);
        // Scoped scores also fold into the fleet sketch.
        assert!(obs::sketch("pipeline.score").snapshot().count() >= scoped.count());
    }

    #[test]
    fn retune_delta_measures_against_the_discarded_reference() {
        obs::set_metrics_enabled(true);
        let cfg = tiny_pipeline().core.cfg;
        let names = ["a".to_string(), "b".to_string()];
        let channels = cfg.channel_names(&names).into();
        let mut p = StreamingPipeline::new_scoped(&names, cfg, Some("v98"), channels);
        feed_healthy(&mut p, 0, 200);
        p.process_event(false);
        // A noisier relationship after the service tunes a different bar.
        for i in 0..200usize {
            let a = (i as f64 * 0.7).sin() * 10.0 + 20.0;
            let noise = ((i * 7919) % 13) as f64 - 6.0;
            p.process_record((200 + i) as i64 * 60, &[a, 2.0 * a + 1.0 + noise]);
        }
        assert_eq!(p.phase_name(), "detecting");
        assert!(
            obs::gauge("pipeline.v98.retune_delta_bp").get() > 0,
            "the second tune moved the bar"
        );
    }

    #[test]
    fn replay_stream_matches_streaming_pipeline() {
        // Same records fed directly and via replay must raise identical
        // alarms (replay is just the loop, not a different pipeline).
        let mut frame = Frame::new(&["a", "b"]);
        for i in 0..260 {
            let a = (i as f64 * 0.7).sin() * 10.0 + 20.0;
            let b = if i < 200 { 2.0 * a + 1.0 } else { -2.0 * a + 90.0 };
            frame.push_row(i as i64 * 60, &[a, b]);
        }
        let mut direct = tiny_pipeline();
        let mut expected = Vec::new();
        for i in 0..frame.len() {
            let mut row = Vec::new();
            frame.row_into(i, &mut row);
            expected.extend(direct.process_record(frame.timestamps()[i], &row));
        }
        let cfg = tiny_pipeline().core.cfg;
        let replayed = replay_stream(&frame, &[], cfg);
        assert_eq!(replayed, expected);
        assert!(!replayed.is_empty(), "flip must alarm through replay too");
    }

    /// Checkpoint at cut point `k` of a 260-record flip stream, restore
    /// into a fresh pipeline, feed the remainder: alarms must be
    /// byte-identical to the uninterrupted run (scores compared by bits,
    /// not approximately).
    #[test]
    fn checkpoint_restore_resumes_byte_identical() {
        let records: Vec<(i64, [f64; 2])> = (0..260)
            .map(|i| {
                let a = (i as f64 * 0.7).sin() * 10.0 + 20.0;
                let b = if i < 200 { 2.0 * a + 1.0 } else { -2.0 * a + 90.0 };
                (i as i64 * 60, [a, b])
            })
            .collect();
        let mut oracle = tiny_pipeline();
        let mut expected = Vec::new();
        for &(t, row) in &records {
            expected.extend(oracle.process_record(t, &row));
        }
        assert!(!expected.is_empty(), "the flip must alarm");
        for k in [3usize, 47, 120, 199, 205, 259] {
            let mut first = tiny_pipeline();
            for &(t, row) in &records[..k] {
                first.process_record(t, &row);
            }
            let bytes = first.state_bytes();
            let mut resumed = tiny_pipeline();
            {
                let mut r = navarchos_stat::SnapReader::new(&bytes);
                Restore::read_state(&mut resumed, &mut r).unwrap();
                r.finish().unwrap();
            }
            let mut got = Vec::new();
            let mut baseline = tiny_pipeline();
            for &(t, row) in &records[..k] {
                baseline.process_record(t, &row);
            }
            for &(t, row) in &records[k..] {
                got.extend(resumed.process_record(t, &row));
                baseline.process_record(t, &row);
            }
            let tail: Vec<&Alarm> =
                expected.iter().filter(|a| a.timestamp >= k as i64 * 60).collect();
            assert_eq!(got.len(), tail.len(), "cut at {k}: alarm count");
            for (g, e) in got.iter().zip(&tail) {
                assert_eq!(g.timestamp, e.timestamp, "cut at {k}");
                assert_eq!(g.channel, e.channel, "cut at {k}");
                assert_eq!(g.score.to_bits(), e.score.to_bits(), "cut at {k}: score bits");
                assert_eq!(
                    g.threshold.to_bits(),
                    e.threshold.to_bits(),
                    "cut at {k}: threshold bits"
                );
            }
            // snapshot → restore → snapshot is byte-stable.
            assert_eq!(bytes, {
                let mut again = tiny_pipeline();
                let mut r = navarchos_stat::SnapReader::new(&bytes);
                Restore::read_state(&mut again, &mut r).unwrap();
                again.state_bytes()
            });
        }
    }

    /// Truncating the snapshot at every byte boundary must error, never
    /// panic (L11 panic-freedom).
    #[test]
    fn truncated_pipeline_snapshot_errors() {
        let mut p = tiny_pipeline();
        feed_healthy(&mut p, 0, 120);
        let bytes = p.state_bytes();
        for cut in 0..bytes.len() {
            let mut target = tiny_pipeline();
            let mut r = navarchos_stat::SnapReader::new(&bytes[..cut]);
            assert!(
                Restore::read_state(&mut target, &mut r).is_err() || !r.is_at_end(),
                "cut at {cut} silently succeeded"
            );
        }
    }

    #[test]
    fn paper_default_configs_build() {
        for t in TransformKind::all() {
            for d in [DetectorKind::ClosestPair, DetectorKind::Xgboost] {
                let cfg = PipelineConfig::paper_default(t, d);
                let p = StreamingPipeline::new(
                    &["rpm", "speed", "coolantTemp", "intakeTemp", "mapIntake", "mafAirFlowRate"],
                    cfg,
                );
                assert_eq!(p.phase_name(), "filling-reference");
            }
        }
    }
}
