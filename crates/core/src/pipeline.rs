//! The streaming loop of the paper's Algorithm 1: events that reset the
//! reference profile, records that flow through filtering and
//! transformation, a reference profile that fills and fits the detector,
//! a healthy holdout that tunes the threshold, and alarms with feature
//! attribution.

use std::sync::Arc;
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
    /// Dynamics floors for the correlation transformation (None = no
    /// gating).
    pub corr_floors: Option<Vec<f64>>,
}

/// The paper's sizes for a transformation, as `(window, stride,
/// profile_length, holdout)`: the one table behind both
/// [`PipelineConfig::paper_default`] and
/// [`crate::runner::RunnerParams::paper_default`].
pub(crate) fn paper_sizes(transform: TransformKind) -> (usize, usize, usize, usize) {
    match transform {
        TransformKind::Raw | TransformKind::Delta => (1, 1, 1200, 1500),
        TransformKind::Mean | TransformKind::Correlation => (45, 3, 80, 50),
    }
}

impl PipelineConfig {
    /// The paper's main configuration for a transformation/detector pair:
    /// hour-long windows emitted every 10 minutes for the windowed
    /// transformations, and profile/holdout sizes scaled to the
    /// transformation's emission rate.
    pub fn paper_default(transform: TransformKind, detector: DetectorKind) -> Self {
        let (window, stride, profile_length, holdout) = paper_sizes(transform);
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
            corr_floors: None,
        }
    }
}

/// One raised alarm, attributed to the score channel that violated its
/// threshold (the paper's "description with the feature that triggered
/// it").
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// Timestamp of the transformed sample that alarmed.
    pub timestamp: i64,
    /// Violating score channel.
    pub channel: usize,
    /// Channel name (feature or feature pair).
    pub channel_name: String,
    /// The anomaly score.
    pub score: f64,
    /// The threshold it exceeded.
    pub threshold: f64,
}

/// Pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Collecting transformed samples into the reference profile.
    FillingReference,
    /// Scoring presumed-healthy samples to tune the threshold.
    Holdout(usize),
    /// Producing alarms.
    Detecting,
}

/// Cached metric handles for the pipeline's hot path: resolved once at
/// construction so `process_record` never touches the registry mutex.
/// Stage timings go through [`obs::BatchedRecorder`]s — plain local
/// buffers, no atomics per record — flushed into the shared histograms on
/// drop or via [`StreamingPipeline::flush_obs`]. Score samples likewise
/// buffer in a local [`obs::QuantileSketch`] and merge into the shared
/// registry sketches on flush, so the hot path never takes the sketch
/// mutex either.
#[derive(Debug)]
struct PipelineStats {
    records: Arc<obs::Counter>,
    emissions: Arc<obs::Counter>,
    resets: Arc<obs::Counter>,
    refits: Arc<obs::Counter>,
    alarms: Arc<obs::Counter>,
    filter_ns: obs::BatchedRecorder,
    transform_ns: obs::BatchedRecorder,
    score_ns: obs::BatchedRecorder,
    alarm_latency_ns: obs::BatchedRecorder,
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
    emissions_since_refit: u64,
    last_threshold_mean: Option<f64>,
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
            filter_ns: obs::BatchedRecorder::new(obs::histogram("pipeline.stage.filter_ns")),
            transform_ns: obs::BatchedRecorder::new(obs::histogram("pipeline.stage.transform_ns")),
            score_ns: obs::BatchedRecorder::new(obs::histogram("pipeline.stage.score_ns")),
            alarm_latency_ns: obs::BatchedRecorder::new(obs::histogram("alarm.latency_ns")),
            fleet_scores,
            scoped_scores,
            pending_scores: obs::QuantileSketch::default(),
            cumulative_scores: obs::QuantileSketch::default(),
            threshold_headroom: headroom,
            profile_age: age,
            retune_delta: retune,
            emissions_since_refit: 0,
            last_threshold_mean: None,
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

    fn flush(&mut self) {
        self.filter_ns.flush();
        self.transform_ns.flush();
        self.score_ns.flush();
        self.alarm_latency_ns.flush();
        self.merge_scores();
    }
}

impl Drop for PipelineStats {
    fn drop(&mut self) {
        // The recorders flush themselves on drop; buffered score samples
        // need the same courtesy or the tail of a run vanishes.
        self.merge_scores();
    }
}

/// Nanoseconds since `t`, saturating.
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The streaming pipeline of Algorithm 1 for a single vehicle.
#[derive(Debug)]
pub struct StreamingPipeline {
    cfg: PipelineConfig,
    /// `cfg.filter` resolved against the input names at construction.
    row_filter: RowFilter,
    transform: Box<dyn Transform>,
    detector: Box<dyn Detector>,
    profile: ReferenceProfile,
    threshold: SelfTuningThreshold,
    channel_names: Vec<String>,
    phase: Phase,
    /// Reused output buffer for the transform's allocation-free fast path.
    feat: Vec<f64>,
    stats: PipelineStats,
}

impl StreamingPipeline {
    /// Creates the pipeline for records with the given column names.
    pub fn new<S: AsRef<str>>(input_names: &[S], cfg: PipelineConfig) -> Self {
        Self::new_scoped(input_names, cfg, None)
    }

    /// Like [`StreamingPipeline::new`], but telemetry that is meaningless
    /// when aggregated across vehicles (score sketch, threshold-headroom /
    /// profile-age / retune gauges) is minted under
    /// `pipeline.<scope>.<metric>` instead of the plain names. The ingest
    /// engine passes the vehicle label here so fleet dashboards get one
    /// gauge family per vehicle.
    pub fn new_scoped<S: AsRef<str>>(
        input_names: &[S],
        cfg: PipelineConfig,
        scope: Option<&str>,
    ) -> Self {
        let input_names: Vec<String> = input_names.iter().map(|s| s.as_ref().to_string()).collect();
        let transform = crate::runner::build_transform(
            cfg.transform,
            &input_names,
            cfg.window,
            cfg.stride,
            &cfg.corr_floors,
        );
        let dim = transform.output_dim();
        let names = transform.output_names();
        let detector = cfg.detector.build(dim, &names, &cfg.detector_params);
        let channels = detector.n_channels();
        let channel_names = detector.channel_names();
        StreamingPipeline {
            profile: ReferenceProfile::new(dim, cfg.profile_length),
            threshold: SelfTuningThreshold::new(channels, cfg.threshold_factor),
            transform,
            detector,
            row_filter: cfg.filter.resolve(&input_names),
            cfg,
            channel_names,
            phase: Phase::FillingReference,
            feat: vec![0.0; dim],
            stats: PipelineStats::new(scope),
        }
    }

    /// Current phase name (for dashboards / examples).
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
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
        if self.cfg.reset_policy.resets_on(is_repair) {
            self.profile.clear();
            self.detector.reset();
            self.threshold.reset();
            self.transform.reset();
            self.phase = Phase::FillingReference;
            self.stats.emissions_since_refit = 0;
            // A fresh reference means the next threshold fit is a first
            // tune, not a retune — there is no previous bar to delta.
            self.stats.last_threshold_mean = None;
            if obs::metrics_enabled() {
                self.stats.resets.incr();
            }
            if obs::events_enabled() {
                obs::emit(&obs::Event::new("pipeline.reset").field("is_repair", is_repair));
            }
        }
    }

    /// Flushes the batched stage/latency recorders into the shared
    /// histograms and buffered score samples into the shared sketches,
    /// then refreshes the model-quality gauges (threshold headroom,
    /// reference-profile age). Runs automatically when the pipeline drops;
    /// call it explicitly before snapshotting metrics from a still-live
    /// pipeline (the `monitor` loop, dashboards).
    pub fn flush_obs(&mut self) {
        self.stats.flush();
        if !obs::metrics_enabled() {
            return;
        }
        self.stats.profile_age.set(self.stats.emissions_since_refit);
        if self.phase == Phase::Detecting && !self.stats.cumulative_scores.is_empty() {
            let thr = if self.detector.uses_constant_threshold() {
                self.cfg.constant_threshold
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

    /// Records how far a threshold (re)tune moved the mean bar, in basis
    /// points relative to the previous tune. The first tune after a reset
    /// only seeds the baseline.
    fn observe_retune(&mut self) {
        let finite: Vec<f64> =
            self.threshold.thresholds().iter().copied().filter(|t| t.is_finite()).collect();
        if finite.is_empty() {
            return;
        }
        let mean = finite.iter().sum::<f64>() / finite.len() as f64;
        if let Some(prev) = self.stats.last_threshold_mean {
            let delta_bp = ((mean - prev).abs() / prev.abs().max(1e-12)) * 10_000.0;
            self.stats.retune_delta.set(delta_bp.min(u64::MAX as f64 / 2.0).round() as u64);
        }
        self.stats.last_threshold_mean = Some(mean);
    }

    /// Handles one raw record; returns any alarms raised.
    ///
    /// With metrics enabled, the filter → transform → score stages are
    /// timed into `pipeline.stage.*_ns` histograms and every raised alarm
    /// records `alarm.latency_ns` — the wall-clock delay from this
    /// record's arrival (entry into this call) to the alarm's emission,
    /// i.e. how long the triggering observation took to become an alarm.
    /// Disabled, the probe cost is one relaxed atomic load.
    pub fn process_record(&mut self, timestamp: i64, row: &[f64]) -> Vec<Alarm> {
        let on = obs::metrics_enabled();
        let events_on = obs::events_enabled();
        // Arrival timestamp of the triggering record, for alarm latency.
        let arrival = (on || events_on).then(Instant::now);
        let mut clock = if on {
            self.stats.records.incr();
            Some(Instant::now())
        } else {
            None
        };
        let kept = self.row_filter.keep(row);
        if let Some(t0) = clock {
            self.stats.filter_ns.record(ns_since(t0));
            clock = Some(Instant::now());
        }
        if !kept {
            return Vec::new();
        }
        let emitted = self.transform.push_into(timestamp, row, &mut self.feat);
        if let Some(t0) = clock {
            self.stats.transform_ns.record(ns_since(t0));
            clock = Some(Instant::now());
        }
        let Some(t) = emitted else {
            return Vec::new();
        };
        if on {
            self.stats.emissions.incr();
            self.stats.emissions_since_refit += 1;
        }
        let alarms = match self.phase {
            Phase::FillingReference => {
                if self.profile.push(&self.feat) {
                    self.detector.fit(&self.profile);
                    self.phase = Phase::Holdout(0);
                    if on {
                        self.stats.refits.incr();
                        self.stats.emissions_since_refit = 0;
                    }
                    if obs::events_enabled() {
                        obs::emit(
                            &obs::Event::new("pipeline.refit")
                                .field("timestamp", t)
                                .field("profile_len", self.profile.len()),
                        );
                    }
                }
                Vec::new()
            }
            Phase::Holdout(seen) => {
                let scores = self.detector.score(&self.feat);
                if on {
                    self.stats.observe_scores(&scores);
                }
                self.threshold.observe(&scores);
                let seen = seen + 1;
                if seen >= self.cfg.holdout {
                    self.threshold.fit();
                    self.phase = Phase::Detecting;
                    if on {
                        self.observe_retune();
                    }
                } else {
                    self.phase = Phase::Holdout(seen);
                }
                Vec::new()
            }
            Phase::Detecting => {
                let scores = self.detector.score(&self.feat);
                if on {
                    self.stats.observe_scores(&scores);
                }
                let violations: Vec<usize> = if self.detector.uses_constant_threshold() {
                    scores
                        .iter()
                        .enumerate()
                        .filter(|(_, &s)| s.is_finite() && s > self.cfg.constant_threshold)
                        .map(|(i, _)| i)
                        .collect()
                } else {
                    self.threshold.violations(&scores)
                };
                violations
                    .into_iter()
                    .map(|c| Alarm {
                        timestamp: t,
                        channel: c,
                        channel_name: self.channel_names[c].clone(),
                        score: scores[c],
                        threshold: if self.detector.uses_constant_threshold() {
                            self.cfg.constant_threshold
                        } else {
                            self.threshold.thresholds()[c]
                        },
                    })
                    .collect()
            }
        };
        if let Some(t0) = clock {
            self.stats.score_ns.record(ns_since(t0));
        }
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
                        .field("feature", a.channel_name.as_str())
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
        match self.phase {
            Phase::FillingReference => w.put_u8(0),
            Phase::Holdout(seen) => {
                w.put_u8(1);
                w.put_usize(seen);
            }
            Phase::Detecting => w.put_u8(2),
        }
        self.transform.write_state(w);
        self.profile.write_state(w);
        self.threshold.write_state(w);
        self.detector.write_state(w);
        w.put_u64(self.stats.emissions_since_refit);
        w.put_opt_f64(self.stats.last_threshold_mean);
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
        self.transform.read_state(r)?;
        self.profile.read_state(r)?;
        self.threshold.read_state(r)?;
        if phase != Phase::FillingReference {
            // Past the filling phase the profile must be complete, or the
            // deterministic re-fit below could panic on a short profile.
            if !self.profile.is_full() {
                return Err(SnapError::Corrupt("pipeline phase past an unfilled profile"));
            }
            self.detector.fit(&self.profile);
        }
        self.detector.read_state(r)?;
        self.phase = phase;
        self.stats.emissions_since_refit = r.get_u64()?;
        self.stats.last_threshold_mean = r.get_opt_f64()?;
        Ok(())
    }
}

/// Streams one vehicle's full history through a fresh
/// [`StreamingPipeline`], interleaving maintenance events at their
/// recorded times — the measurement pass behind `alarm.latency_ns`: the
/// batch runner scores retrospectively and never raises runtime alarms,
/// so `evaluate --metrics` and `bench_baseline` replay the stream through
/// the online path to observe real emission latencies. Returns every
/// alarm raised.
pub fn replay_stream(
    frame: &Frame,
    maintenance: &[(i64, bool)],
    cfg: PipelineConfig,
) -> Vec<Alarm> {
    let _span = obs::span("replay_stream");
    let mut pipeline = StreamingPipeline::new(frame.names(), cfg);
    let mut events = maintenance.iter().peekable();
    let mut row = Vec::with_capacity(frame.width());
    let mut alarms = Vec::new();
    for i in 0..frame.len() {
        let t = frame.timestamps()[i];
        while let Some(&&(mt, is_repair)) = events.peek() {
            if mt > t {
                break;
            }
            events.next();
            pipeline.process_event(is_repair);
        }
        frame.row_into(i, &mut row);
        alarms.extend(pipeline.process_record(t, &row));
    }
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
            corr_floors: None,
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
        assert_eq!(alarms[0].channel_name, "a~b");
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
        cfgp.cfg.reset_policy = ResetPolicy::OnRepairOnly;
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
            corr_floors: None,
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
        p.flush_obs();
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
        let cfg = tiny_pipeline().cfg;
        let mut p = StreamingPipeline::new_scoped(&["a", "b"], cfg, Some("v99"));
        feed_healthy(&mut p, 0, 200);
        p.flush_obs();
        let scoped = obs::sketch("pipeline.v99.score").snapshot();
        assert!(!scoped.is_empty(), "scoped sketch populated");
        assert!(obs::gauge("pipeline.v99.profile_age_emissions").get() > 0);
        // Scoped scores also fold into the fleet sketch.
        assert!(obs::sketch("pipeline.score").snapshot().count() >= scoped.count());
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
        let cfg = tiny_pipeline().cfg;
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
