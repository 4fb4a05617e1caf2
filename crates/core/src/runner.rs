//! Batch scorer used by the experiments: runs the framework over one
//! vehicle's full history and records every score with its timestamp and
//! segment structure, so that threshold sweeps (the paper evaluates
//! "multiple factors") never require re-scoring.

use std::time::Instant;

use crate::detectors::{DetectorKind, DetectorParams};
use crate::reference::{ReferenceProfile, ResetPolicy};
use crate::threshold::batch_thresholds;
use navarchos_obs as obs;
use navarchos_tsframe::{FilterSpec, Frame, TransformKind};

/// Parameters of a batch run (mirrors
/// [`crate::pipeline::PipelineConfig`], minus the threshold which is swept
/// afterwards).
#[derive(Debug, Clone)]
pub struct RunnerParams {
    /// Step-1 transformation.
    pub transform: TransformKind,
    /// Window length (records) for windowed transformations.
    pub window: usize,
    /// Emission stride (records).
    pub stride: usize,
    /// Step-3 detector.
    pub detector: DetectorKind,
    /// Detector tuning knobs.
    pub detector_params: DetectorParams,
    /// Reference length in transformed samples.
    pub profile_length: usize,
    /// Healthy holdout samples per segment.
    pub holdout: usize,
    /// Reference reset policy.
    pub reset_policy: ResetPolicy,
    /// Record filter.
    pub filter: FilterSpec,
    /// Dynamics floors for the correlation transformation (None = no
    /// gating).
    pub corr_floors: Option<Vec<f64>>,
    /// Aggregate per-sample scores into per-day channel upper quantiles
    /// (q = 0.8) before thresholding. A developing fault perturbs a large
    /// fraction of each day's windows (intermittent symptoms recur all
    /// day), lifting the day's upper quantile; healthy statistical churn
    /// hits isolated windows (a few percent), which an 80th percentile
    /// ignores. Daily aggregation therefore separates persistent
    /// degradation from noise far better than per-sample scores.
    pub daily_median: bool,
    /// Holdout length in days when `daily_median` is on.
    pub holdout_days: usize,
}

impl RunnerParams {
    /// Paper-default parameters for a transformation/detector pair (same
    /// scaling as [`crate::pipeline::PipelineConfig::paper_default`]).
    pub fn paper_default(transform: TransformKind, detector: DetectorKind) -> Self {
        let (window, stride, profile_length, holdout) = crate::pipeline::paper_sizes(transform);
        RunnerParams {
            transform,
            window,
            stride,
            detector,
            detector_params: DetectorParams::default(),
            profile_length,
            holdout,
            reset_policy: ResetPolicy::OnServiceOrRepair,
            filter: FilterSpec::navarchos_default(),
            corr_floors: None,
            daily_median: true,
            holdout_days: 8,
        }
    }
}

/// Builds the step-1 transformation with the correlation dynamics floors
/// applied when configured.
pub(crate) fn build_transform(
    kind: TransformKind,
    input_names: &[String],
    window: usize,
    stride: usize,
    corr_floors: &Option<Vec<f64>>,
) -> Box<dyn navarchos_tsframe::Transform> {
    match (kind, corr_floors) {
        (TransformKind::Correlation, Some(floors)) if floors.len() == input_names.len() => {
            Box::new(
                navarchos_tsframe::CorrelationTransform::new(input_names, window, stride)
                    .with_min_std(floors.clone())
                    .with_differencing(),
            )
        }
        (TransformKind::Correlation, None) => Box::new(
            navarchos_tsframe::CorrelationTransform::new(input_names, window, stride)
                .with_differencing(),
        ),
        _ => kind.build(input_names, window, stride),
    }
}

/// One detection segment: the scored samples between two reference
/// rebuilds.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Index of the first scored sample of the segment (the start of the
    /// threshold holdout).
    pub start: usize,
    /// Index one past the last holdout sample; detection alarms only from
    /// here on.
    pub detect_from: usize,
    /// Index one past the segment's last sample.
    pub end: usize,
}

/// Per-segment threshold context: std floors derived from the reference
/// profile's per-channel value spread (empty when not applicable).
#[derive(Debug, Clone, Default)]
pub struct SegmentContext {
    /// Std floor per score channel (5 % of the reference value spread for
    /// per-feature detectors; empty otherwise).
    pub std_floors: Vec<f64>,
}

/// Full score traces of one vehicle.
#[derive(Debug, Clone)]
pub struct VehicleScores {
    /// Timestamp of each scored sample.
    pub timestamps: Vec<i64>,
    /// Per-sample score vectors (`n_samples × n_channels`, row-major).
    pub scores: Vec<f64>,
    /// Channels per sample.
    pub n_channels: usize,
    /// Channel names.
    pub channel_names: Vec<String>,
    /// Segment structure.
    pub segments: Vec<Segment>,
    /// Per-segment threshold context, aligned with `segments`.
    pub contexts: Vec<SegmentContext>,
    /// Whether thresholds are constant (Grand) rather than self-tuned.
    pub constant_threshold: bool,
}

impl VehicleScores {
    /// Score of sample `i` on channel `c`.
    pub fn score(&self, i: usize, c: usize) -> f64 {
        self.scores[i * self.n_channels + c]
    }

    /// Thresholds of one segment for a given parameter.
    fn thresholds_for(&self, seg_idx: usize, threshold_param: f64) -> Vec<f64> {
        let seg = &self.segments[seg_idx];
        if self.constant_threshold {
            return vec![threshold_param; self.n_channels];
        }
        let holdout: Vec<Vec<f64>> = (0..self.n_channels)
            .map(|c| (seg.start..seg.detect_from).map(|i| self.score(i, c)).collect())
            .collect();
        let floors = self.contexts.get(seg_idx).map(|c| c.std_floors.as_slice());
        let floors = floors.filter(|f| f.len() == self.n_channels);
        batch_thresholds(&holdout, threshold_param, floors)
    }

    /// Alarm timestamps for a threshold parameter: the self-tuning factor
    /// for most detectors, the constant threshold for Grand. Each scored
    /// sample with any violating channel contributes one alarm timestamp.
    pub fn alarms(&self, threshold_param: f64) -> Vec<i64> {
        let mut out = Vec::new();
        for (si, seg) in self.segments.iter().enumerate() {
            let thresholds = self.thresholds_for(si, threshold_param);
            for i in seg.detect_from..seg.end {
                let violated = (0..self.n_channels).any(|c| {
                    let s = self.score(i, c);
                    s.is_finite() && s > thresholds[c]
                });
                if violated {
                    out.push(self.timestamps[i]);
                }
            }
        }
        out
    }

    /// Per-channel alarm attribution for a threshold parameter:
    /// `(timestamp, channel)` pairs (used by the Figure 8 experiment).
    pub fn attributed_alarms(&self, threshold_param: f64) -> Vec<(i64, usize)> {
        let mut out = Vec::new();
        for (si, seg) in self.segments.iter().enumerate() {
            let thresholds = self.thresholds_for(si, threshold_param);
            for i in seg.detect_from..seg.end {
                for (c, &th) in thresholds.iter().enumerate() {
                    let s = self.score(i, c);
                    if s.is_finite() && s > th {
                        out.push((self.timestamps[i], c));
                    }
                }
            }
        }
        out
    }

    /// Alarm *instances* under the evaluation protocol's grouping rules:
    /// channel-attributed violations grouped by `eval.dedup_seconds`,
    /// requiring `eval.min_instance_violations` violations on at least
    /// `min(eval.min_distinct_channels, n_channels)` distinct channels.
    pub fn alarm_instances(
        &self,
        threshold_param: f64,
        eval: &crate::evaluation::EvalParams,
    ) -> Vec<i64> {
        let events = self.attributed_alarms(threshold_param);
        // Cap the persistence requirement by what the trace can physically
        // deliver: daily-aggregated single-channel detectors emit at most
        // one violation per channel per day.
        let days = (eval.dedup_seconds / 86_400).max(1) as usize;
        let max_possible = self.n_channels * days;
        crate::evaluation::alarm_instances(
            &events,
            eval.dedup_seconds,
            eval.min_instance_violations.min(max_possible),
            eval.min_distinct_channels.min(self.n_channels),
        )
    }

    /// Per-segment thresholds for a given parameter (Figure 8 rendering).
    pub fn segment_thresholds(&self, threshold_param: f64) -> Vec<Vec<f64>> {
        (0..self.segments.len()).map(|si| self.thresholds_for(si, threshold_param)).collect()
    }
}

/// Runs the framework over one vehicle's telemetry, resetting the
/// reference at the recorded maintenance times in `reset_times`
/// (time-sorted; already filtered to the reset policy's event kinds by
/// the caller via [`ResetPolicy`] is *not* required — the policy in
/// `params` is applied here given `(time, is_repair)` pairs).
/// Per-vehicle observability accumulators: cheap locals bumped inside the
/// scoring loop (no atomics), flushed to the global registry once per
/// vehicle. With metrics disabled the loop pays one branch per record.
///
/// Stage clocks are read only on a 1-in-2^k sampled subset of records
/// (see [`obs::probe_sample_mask`]) — the dominant metrics-on cost was
/// three `Instant::now()` reads per record, not the accumulation — and
/// the sampled sums are scaled back to full-stream estimates at flush.
#[derive(Debug, Default, Clone, Copy)]
struct VehicleObs {
    records: u64,
    emissions: u64,
    resets: u64,
    refits: u64,
    /// Records whose stage clocks were actually read.
    sampled: u64,
    filter_ns: u64,
    transform_ns: u64,
    score_ns: u64,
}

impl VehicleObs {
    fn flush(self, wall_ns: u64) {
        obs::counter("runner.records").add(self.records);
        obs::counter("runner.emissions").add(self.emissions);
        obs::counter("runner.resets").add(self.resets);
        obs::counter("runner.refits").add(self.refits);
        // Scale the sampled stage sums up to the full record stream. The
        // sampling gate fires on a fixed record-count period, which is
        // independent of the filter/emission cadence, so the subset is an
        // unbiased estimator of the per-stage totals.
        let scale = if self.sampled > 0 { self.records as f64 / self.sampled as f64 } else { 0.0 };
        let scaled = |sum: u64| (sum as f64 * scale) as u64;
        obs::histogram("runner.vehicle_ns").record(wall_ns);
        obs::histogram("runner.stage.filter_ns").record(scaled(self.filter_ns));
        obs::histogram("runner.stage.transform_ns").record(scaled(self.transform_ns));
        obs::histogram("runner.stage.score_ns").record(scaled(self.score_ns));
    }
}

pub fn run_vehicle(
    frame: &Frame,
    maintenance: &[(i64, bool)],
    params: &RunnerParams,
) -> VehicleScores {
    let _span = obs::span("run_vehicle");
    let obs_on = obs::metrics_enabled();
    let started = obs_on.then(Instant::now);
    // Loaded once per vehicle: the power-of-two sampling gate for the
    // per-record stage clocks (mask 0 = every record).
    let probe_mask = obs::probe_sample_mask();
    let mut vobs = VehicleObs::default();
    let input_names = frame.names();
    let row_filter = params.filter.resolve(input_names);
    let mut transform = build_transform(
        params.transform,
        input_names,
        params.window,
        params.stride,
        &params.corr_floors,
    );
    let dim = transform.output_dim();
    let names = transform.output_names();
    let mut detector = params.detector.build(dim, &names, &params.detector_params);
    let n_channels = detector.n_channels();
    let channel_names = detector.channel_names();
    let constant_threshold = detector.uses_constant_threshold();

    let mut profile = ReferenceProfile::new(dim, params.profile_length);
    let mut timestamps: Vec<i64> = Vec::new();
    let mut scores: Vec<f64> = Vec::new();
    let mut segments: Vec<Segment> = Vec::new();
    let mut contexts: Vec<SegmentContext> = Vec::new();
    let mut pending_context = SegmentContext::default();
    // Currently open segment: (start, detect_from if holdout complete).
    let mut open: Option<(usize, Option<usize>)> = None;
    let mut fitted = false;

    let mut reset_iter = maintenance.iter().peekable();
    let mut row_buf = Vec::with_capacity(frame.width());
    // Reused output buffer for the transform's allocation-free fast path.
    let mut feat = vec![0.0; dim];

    let close_segment = |open: &mut Option<(usize, Option<usize>)>,
                         segments: &mut Vec<Segment>,
                         contexts: &mut Vec<SegmentContext>,
                         context: &SegmentContext,
                         end: usize| {
        if let Some((start, detect_from)) = open.take() {
            let detect_from = detect_from.unwrap_or(end);
            if end > detect_from {
                segments.push(Segment { start, detect_from, end });
                contexts.push(context.clone());
            }
        }
    };

    // Std floor per channel: 5 % of the reference profile's per-channel
    // value spread, applicable when score channels correspond one-to-one
    // to transformed features (Closest-pair, XGBoost).
    let spread_floors = |profile: &ReferenceProfile| -> Vec<f64> {
        if n_channels != profile.dim() {
            return Vec::new();
        }
        (0..profile.dim())
            .map(|c| {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for i in 0..profile.len() {
                    let v = profile.sample(i)[c];
                    if v.is_finite() {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                if hi > lo {
                    0.05 * (hi - lo)
                } else {
                    0.0
                }
            })
            .collect()
    };

    for i in 0..frame.len() {
        let t = frame.timestamps()[i];

        // Apply any maintenance events that occurred before this record.
        while let Some(&&(mt, is_repair)) = reset_iter.peek() {
            if mt > t {
                break;
            }
            reset_iter.next();
            if params.reset_policy.resets_on(is_repair) {
                close_segment(
                    &mut open,
                    &mut segments,
                    &mut contexts,
                    &pending_context,
                    timestamps.len(),
                );
                profile.clear();
                detector.reset();
                transform.reset();
                fitted = false;
                vobs.resets += 1;
                if obs::events_enabled() {
                    obs::emit(
                        &obs::Event::new("runner.reset")
                            .field("timestamp", mt)
                            .field("is_repair", is_repair),
                    );
                }
            }
        }

        let mut clock = if obs_on {
            vobs.records += 1;
            if vobs.records & probe_mask == 0 {
                vobs.sampled += 1;
                Some(Instant::now())
            } else {
                None
            }
        } else {
            None
        };
        frame.row_into(i, &mut row_buf);
        let kept = row_filter.keep(&row_buf);
        if let Some(t0) = clock {
            vobs.filter_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0);
            clock = Some(Instant::now());
        }
        if !kept {
            continue;
        }
        let emitted = transform.push_into(t, &row_buf, &mut feat);
        if let Some(t0) = clock {
            vobs.transform_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0);
            clock = Some(Instant::now());
        }
        let Some(ts) = emitted else {
            continue;
        };
        vobs.emissions += 1;

        if !fitted {
            if profile.push(&feat) {
                detector.fit(&profile);
                pending_context = SegmentContext { std_floors: spread_floors(&profile) };
                fitted = true;
                open = Some((timestamps.len(), None));
                vobs.refits += 1;
            }
            continue;
        }

        // Score the sample and record it.
        let s = detector.score(&feat);
        if let Some(t0) = clock {
            vobs.score_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0);
        }
        timestamps.push(ts);
        scores.extend_from_slice(&s);
        if let Some((start, detect_from @ None)) = &mut open {
            if timestamps.len() - *start >= params.holdout {
                *detect_from = Some(timestamps.len());
            }
        }
    }
    close_segment(&mut open, &mut segments, &mut contexts, &pending_context, timestamps.len());

    if obs_on {
        let wall_ns = started.map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(0));
        vobs.flush(wall_ns.unwrap_or(0));
    }
    if obs::events_enabled() {
        obs::emit(
            &obs::Event::new("runner.vehicle")
                .field("records", vobs.records)
                .field("emissions", vobs.emissions)
                .field("resets", vobs.resets)
                .field("refits", vobs.refits)
                .field("segments", segments.len()),
        );
    }

    let vs = VehicleScores {
        timestamps,
        scores,
        n_channels,
        channel_names,
        segments,
        contexts,
        constant_threshold,
    };
    if params.daily_median {
        to_daily_median(vs, params.holdout_days)
    } else {
        vs
    }
}

/// Compresses per-sample score traces into per-day channel medians,
/// rebuilding the segment structure so that each segment's holdout covers
/// its first `holdout_days` aggregated days.
fn to_daily_median(vs: VehicleScores, holdout_days: usize) -> VehicleScores {
    const DAY: i64 = 86_400;
    let mut timestamps = Vec::new();
    let mut scores = Vec::new();
    let mut segments = Vec::new();
    let mut contexts = Vec::new();

    let mut column = Vec::new();
    for (si, seg) in vs.segments.iter().enumerate() {
        let seg_start_out = timestamps.len();
        let mut i = seg.start;
        while i < seg.end {
            let day = vs.timestamps[i].div_euclid(DAY);
            let mut j = i;
            while j < seg.end && vs.timestamps[j].div_euclid(DAY) == day {
                j += 1;
            }
            timestamps.push(day * DAY);
            for c in 0..vs.n_channels {
                column.clear();
                column.extend((i..j).map(|k| vs.score(k, c)).filter(|v| v.is_finite()));
                column.sort_by(|a, b| a.total_cmp(b));
                scores.push(navarchos_stat::descriptive::quantile_sorted(&column, 0.85));
            }
            i = j;
        }
        let n_days = timestamps.len() - seg_start_out;
        if n_days > holdout_days {
            segments.push(Segment {
                start: seg_start_out,
                detect_from: seg_start_out + holdout_days,
                end: timestamps.len(),
            });
            contexts.push(vs.contexts.get(si).cloned().unwrap_or_default());
        }
    }

    VehicleScores {
        timestamps,
        scores,
        n_channels: vs.n_channels,
        channel_names: vs.channel_names,
        segments,
        contexts,
        constant_threshold: vs.constant_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic two-signal frame: healthy (b = 2a) for the first
    /// `flip_at` minutes, then the relationship flips.
    fn synthetic_frame(n: usize, flip_at: usize) -> Frame {
        let mut f = Frame::new(&["a", "b"]);
        for i in 0..n {
            let a = (i as f64 * 0.7).sin() * 10.0 + 20.0;
            let b = if i < flip_at { 2.0 * a } else { -2.0 * a + 80.0 };
            f.push_row(i as i64 * 60, &[a, b]);
        }
        f
    }

    fn quick_params() -> RunnerParams {
        RunnerParams {
            transform: TransformKind::Correlation,
            window: 8,
            stride: 2,
            detector: DetectorKind::ClosestPair,
            detector_params: DetectorParams::default(),
            profile_length: 15,
            holdout: 10,
            reset_policy: ResetPolicy::OnServiceOrRepair,
            filter: FilterSpec::default(),
            corr_floors: None,
            daily_median: false,
            holdout_days: 8,
        }
    }

    #[test]
    fn detects_flip_and_not_healthy() {
        let frame = synthetic_frame(600, 400);
        let vs = run_vehicle(&frame, &[], &quick_params());
        assert_eq!(vs.segments.len(), 1);
        assert_eq!(vs.n_channels, 1);
        let alarms = vs.alarms(4.0);
        assert!(!alarms.is_empty(), "flip missed");
        // All alarms after the flip time.
        let flip_t = 400 * 60;
        assert!(alarms.iter().all(|&t| t >= flip_t - 8 * 60), "false alarms: {alarms:?}");
    }

    #[test]
    fn maintenance_splits_segments() {
        let frame = synthetic_frame(800, 10_000); // all healthy
        let maintenance = vec![(400 * 60, false)];
        let vs = run_vehicle(&frame, &maintenance, &quick_params());
        assert_eq!(vs.segments.len(), 2, "service creates a second segment");
        // Segments do not overlap and are ordered.
        assert!(vs.segments[0].end <= vs.segments[1].start);
    }

    #[test]
    fn repair_only_policy_keeps_one_segment() {
        let frame = synthetic_frame(800, 10_000);
        let maintenance = vec![(400 * 60, false)]; // a service
        let mut p = quick_params();
        p.reset_policy = ResetPolicy::OnRepairOnly;
        let vs = run_vehicle(&frame, &maintenance, &p);
        assert_eq!(vs.segments.len(), 1, "service ignored under OnRepairOnly");
    }

    #[test]
    fn higher_factor_fewer_alarms() {
        let frame = synthetic_frame(600, 350);
        let vs = run_vehicle(&frame, &[], &quick_params());
        let low = vs.alarms(1.0).len();
        let high = vs.alarms(8.0).len();
        assert!(low >= high, "alarms must shrink with the factor: {low} vs {high}");
    }

    #[test]
    fn attributed_alarms_name_the_channel() {
        let frame = synthetic_frame(600, 350);
        let vs = run_vehicle(&frame, &[], &quick_params());
        let attr = vs.attributed_alarms(4.0);
        assert!(!attr.is_empty());
        assert!(attr.iter().all(|&(_, c)| c == 0));
        assert_eq!(vs.channel_names[0], "a~b");
    }

    #[test]
    fn daily_aggregation_compresses_to_days() {
        let frame = synthetic_frame(3000, 10_000); // ~2 days of minutes
        let mut p = quick_params();
        p.daily_median = true;
        p.holdout_days = 1;
        let vs = run_vehicle(&frame, &[], &p);
        // All timestamps are midnight-aligned day starts.
        assert!(vs.timestamps.iter().all(|t| t % 86_400 == 0));
        // Strictly increasing (one sample per day).
        assert!(vs.timestamps.windows(2).all(|w| w[0] < w[1]));
        // Daily values summarise per-sample scores: finite, non-negative.
        for i in 0..vs.timestamps.len() {
            let s = vs.score(i, 0);
            assert!(s.is_finite() && s >= 0.0);
        }
    }

    #[test]
    fn daily_aggregation_drops_short_segments() {
        let frame = synthetic_frame(600, 10_000);
        let mut p = quick_params();
        p.daily_median = true;
        p.holdout_days = 30; // longer than the data
        let vs = run_vehicle(&frame, &[], &p);
        assert!(vs.segments.is_empty(), "segments shorter than the holdout are dropped");
    }

    #[test]
    fn too_short_history_yields_no_segments() {
        let frame = synthetic_frame(30, 10_000);
        let vs = run_vehicle(&frame, &[], &quick_params());
        assert!(vs.segments.is_empty());
        assert!(vs.alarms(2.0).is_empty());
    }
}
