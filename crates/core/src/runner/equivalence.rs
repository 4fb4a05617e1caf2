//! `run_vehicle` on the shared scoring core against a stand-alone copy of
//! the batch loop it replaced (its own filter, transform, reference fill,
//! fit and segment bookkeeping, observability stripped): same timestamps,
//! score bits, segments, std-floor bits and channel names on random
//! frames, transformations, detectors, reset policies, maintenance logs,
//! holdouts and daily aggregation.

use proptest::prelude::*;

use super::*;
use crate::detectors::{DetectorParams, GrandNcm};
use crate::reference::ResetPolicy;
use navarchos_tsframe::FilterSpec;

/// The stand-alone batch loop.
fn standalone_run(
    frame: &Frame,
    maintenance: &[(i64, bool)],
    params: &RunnerParams,
) -> VehicleScores {
    let cfg = &params.pipeline;
    let input_names = frame.names();
    let row_filter = cfg.filter.resolve(input_names);
    let mut transform = cfg.transform.build(input_names, cfg.window, cfg.stride);
    let dim = transform.output_dim();
    let mut detector = cfg.detector.build(dim, &cfg.detector_params);
    let n_channels = detector.n_channels();
    let channel_names = cfg.detector.channel_names(&transform.output_names());
    let constant_threshold = detector.uses_constant_threshold();

    let mut profile = ReferenceProfile::new(dim, cfg.profile_length);
    let mut timestamps: Vec<i64> = Vec::new();
    let mut scores: Vec<f64> = Vec::new();
    let mut segments: Vec<Segment> = Vec::new();
    let mut contexts: Vec<SegmentContext> = Vec::new();
    let mut pending_context = SegmentContext::default();
    let mut open: Option<(usize, Option<usize>)> = None;
    let mut fitted = false;

    let mut reset_iter = maintenance.iter().peekable();
    let mut row_buf = Vec::with_capacity(frame.width());
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

    for i in 0..frame.len() {
        let t = frame.timestamps()[i];
        while let Some(&&(mt, is_repair)) = reset_iter.peek() {
            if mt > t {
                break;
            }
            reset_iter.next();
            if cfg.reset_policy.resets_on(is_repair) {
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
            }
        }
        frame.row_into(i, &mut row_buf);
        if !row_filter.keep(&row_buf) {
            continue;
        }
        let Some(ts) = transform.push_into(t, &row_buf, &mut feat) else {
            continue;
        };
        if !fitted {
            if profile.push(&feat) {
                detector.fit(&profile);
                pending_context =
                    SegmentContext { std_floors: standalone_floors(&profile, n_channels) };
                fitted = true;
                open = Some((timestamps.len(), None));
            }
            continue;
        }
        let s = detector.score(&feat);
        timestamps.push(ts);
        scores.extend_from_slice(&s);
        if let Some((start, detect_from @ None)) = &mut open {
            if timestamps.len() - *start >= cfg.holdout {
                *detect_from = Some(timestamps.len());
            }
        }
    }
    close_segment(&mut open, &mut segments, &mut contexts, &pending_context, timestamps.len());

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
        to_daily_quantile(vs, params.holdout_days)
    } else {
        vs
    }
}

/// The stand-alone loop's std floors: 5 % of the reference's per-channel
/// value spread when channels map one-to-one to features.
fn standalone_floors(profile: &ReferenceProfile, n_channels: usize) -> Vec<f64> {
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
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn segment_triples(vs: &VehicleScores) -> Vec<(usize, usize, usize)> {
    vs.segments.iter().map(|s| (s.start, s.detect_from, s.end)).collect()
}

/// A frame of engine-like records at irregular steps (a minute to two
/// hours, so daily aggregation sees several days), some of which the
/// default record filter drops (idle, cold or non-finite).
fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop::collection::vec(
        (0usize..3, 800.0f64..3000.0, 0.0f64..100.0, 60.0f64..100.0, 0u8..40),
        0..360,
    )
    .prop_map(|rows| {
        let mut frame = Frame::new(&["rpm", "speed", "coolantTemp"]);
        let mut t = 0i64;
        for (step, rpm, speed, coolant, nan) in rows {
            t += [60, 900, 7200][step];
            let speed = if nan == 0 { f64::NAN } else { speed };
            frame.push_row(t, &[rpm, speed, coolant]);
        }
        frame
    })
}

fn params_strategy() -> impl Strategy<Value = RunnerParams> {
    ((0usize..4, 0usize..3, 0usize..3, 0usize..3), (0u8..2, 4usize..12, 1usize..3, 0usize..3))
        .prop_map(|((t, d, policy, h), (daily, profile_length, stride, holdout_days))| {
            let transform = TransformKind::all()[t];
            let detector = [
                DetectorKind::ClosestPair,
                DetectorKind::Grand(GrandNcm::Knn),
                DetectorKind::Grand(GrandNcm::Lof),
            ][d];
            let windowed = matches!(transform, TransformKind::Mean | TransformKind::Correlation);
            RunnerParams {
                pipeline: PipelineConfig {
                    window: if windowed { 5 } else { 1 },
                    stride: if windowed { stride } else { 1 },
                    detector_params: DetectorParams {
                        grand_k: 3,
                        grand_martingale_window: 8,
                        ..DetectorParams::default()
                    },
                    profile_length,
                    holdout: [0, 1, 5][h],
                    reset_policy: [
                        ResetPolicy::OnServiceOrRepair,
                        ResetPolicy::OnRepairOnly,
                        ResetPolicy::Never,
                    ][policy],
                    filter: FilterSpec::navarchos_default(),
                    ..PipelineConfig::paper_default(transform, detector)
                },
                daily_median: daily == 1,
                holdout_days,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn run_vehicle_matches_the_standalone_loop(
        frame in frame_strategy(),
        params in params_strategy(),
        log in prop::collection::vec((0i64..3_000_000, 0u8..2), 0..8),
    ) {
        let mut maintenance: Vec<(i64, bool)> =
            log.into_iter().map(|(t, repair)| (t, repair == 1)).collect();
        maintenance.sort();
        let got = run_vehicle(&frame, &maintenance, &params);
        let want = standalone_run(&frame, &maintenance, &params);
        prop_assert_eq!(&got.timestamps, &want.timestamps);
        prop_assert_eq!(bits(&got.scores), bits(&want.scores));
        prop_assert_eq!(got.n_channels, want.n_channels);
        prop_assert_eq!(&got.channel_names, &want.channel_names);
        prop_assert_eq!(segment_triples(&got), segment_triples(&want));
        let floors = |vs: &VehicleScores| -> Vec<Vec<u64>> {
            vs.contexts.iter().map(|c| bits(&c.std_floors)).collect()
        };
        prop_assert_eq!(floors(&got), floors(&want));
        prop_assert_eq!(got.constant_threshold, want.constant_threshold);
    }
}
