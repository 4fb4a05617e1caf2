//! Property-based tests for the framework layer.

use navarchos_core::evaluation::{
    alarm_instances, constant_grid, dedup_alarms, evaluate_vehicle_instances, factor_grid,
    sweep_best, EvalCounts, EvalParams,
};
use navarchos_core::reference::ReferenceProfile;
use navarchos_core::runner::{Segment, SegmentContext, VehicleScores};
use navarchos_core::threshold::{batch_thresholds, SelfTuningThreshold};
use proptest::prelude::*;

/// A stand-alone batch grouper: violations join the open group while
/// `t - start < window`; a group counts once complete if it holds at least
/// `min_violations` violations on at least `min_channels` distinct
/// channels. The oracle for the fold over `AlarmAggregator`.
fn batch_instances(
    events: &[(i64, usize)],
    window: i64,
    min_violations: usize,
    min_channels: usize,
) -> Vec<i64> {
    let mut out: Vec<i64> = Vec::new();
    let mut group_start: Option<i64> = None;
    let mut count = 0usize;
    let mut channels: Vec<usize> = Vec::new();
    let flush =
        |start: Option<i64>, count: usize, channels: &mut Vec<usize>, out: &mut Vec<i64>| {
            if let Some(s) = start {
                channels.sort_unstable();
                channels.dedup();
                if count >= min_violations && channels.len() >= min_channels {
                    out.push(s);
                }
            }
            channels.clear();
        };
    for &(t, c) in events {
        match group_start {
            Some(start) if t - start < window => {
                count += 1;
                channels.push(c);
            }
            _ => {
                flush(group_start, count, &mut channels, &mut out);
                group_start = Some(t);
                count = 1;
                channels.push(c);
            }
        }
    }
    flush(group_start, count, &mut channels, &mut out);
    out
}

proptest! {
    #[test]
    fn threshold_monotone_in_factor(
        scores in prop::collection::vec(0.0f64..100.0, 3..64),
        f1 in 0.0f64..10.0,
        f2 in 0.0f64..10.0,
    ) {
        let holdout = vec![scores];
        let (a, b) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let ta = batch_thresholds(&holdout, a, None)[0];
        let tb = batch_thresholds(&holdout, b, None)[0];
        prop_assert!(ta <= tb + 1e-9);
    }

    #[test]
    fn violations_shrink_with_factor(
        healthy in prop::collection::vec(0.0f64..10.0, 4..32),
        queries in prop::collection::vec(0.0f64..50.0, 1..32),
    ) {
        let mut th_low = SelfTuningThreshold::new(1, 1.0);
        let mut th_high = SelfTuningThreshold::new(1, 5.0);
        for &s in &healthy {
            th_low.observe(&[s]);
            th_high.observe(&[s]);
        }
        th_low.fit();
        th_high.fit();
        let v_low: usize = queries.iter().map(|&q| th_low.violations(&[q]).len()).sum();
        let v_high: usize = queries.iter().map(|&q| th_high.violations(&[q]).len()).sum();
        prop_assert!(v_high <= v_low);
    }

    #[test]
    fn dedup_never_increases_count(
        mut alarms in prop::collection::vec(0i64..10_000_000, 0..64),
        window in 1i64..1_000_000,
        min_v in 1usize..4,
    ) {
        alarms.sort_unstable();
        let d = dedup_alarms(&alarms, window, min_v);
        prop_assert!(d.len() <= alarms.len());
        // Outputs are a subset of group-start times, strictly spaced.
        for w in d.windows(2) {
            prop_assert!(w[1] - w[0] >= window);
        }
    }

    #[test]
    fn instance_channels_rule(
        events in prop::collection::vec((0i64..100i64, 0usize..4), 0..64),
        min_channels in 1usize..4,
    ) {
        let mut evs = events.clone();
        evs.sort();
        let inst = alarm_instances(&evs, 10, 1, min_channels);
        let lenient = alarm_instances(&evs, 10, 1, 1);
        prop_assert!(inst.len() <= lenient.len(), "stricter channel rule cannot add instances");
    }

    #[test]
    fn alarm_instances_fold_matches_the_batch_grouper(
        events in prop::collection::vec((0i64..400, 0usize..5), 0..80),
        window in 0i64..60,
        min_violations in 0usize..6,
        min_channels in 0usize..4,
        sorted in 0u8..4,
    ) {
        let mut events = events;
        // Mostly time-sorted input, as the protocol feeds it; sometimes not.
        if sorted > 0 {
            events.sort();
        }
        prop_assert_eq!(
            alarm_instances(&events, window, min_violations, min_channels),
            batch_instances(&events, window, min_violations, min_channels)
        );
    }

    #[test]
    fn evaluation_counts_consistent(
        mut alarms in prop::collection::vec(0i64..(365 * 86_400i64), 0..32),
        mut repairs in prop::collection::vec(0i64..(365 * 86_400i64), 0..6),
    ) {
        alarms.sort_unstable();
        repairs.sort_unstable();
        repairs.dedup();
        let params = EvalParams { min_instance_violations: 1, ..EvalParams::days(30) };
        let instances = dedup_alarms(&alarms, params.dedup_seconds, 1);
        let c = evaluate_vehicle_instances(&instances, &repairs, params);
        prop_assert_eq!(c.tp + c.fn_, repairs.len(), "every failure is hit or missed");
        prop_assert!(c.tp + c.fp <= instances.len() + repairs.len());
    }

    #[test]
    fn fbeta_bounded(tp in 0usize..20, fp in 0usize..20, fn_ in 0usize..20, beta in 0.1f64..4.0) {
        let c = EvalCounts { tp, fp, fn_ };
        let f = c.f_beta(beta);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!((0.0..=1.0).contains(&c.precision()));
        prop_assert!((0.0..=1.0).contains(&c.recall()));
    }

    #[test]
    fn reference_profile_capacity_respected(
        dim in 1usize..6,
        capacity in 1usize..32,
        extra in 0usize..16,
    ) {
        let mut p = ReferenceProfile::new(dim, capacity);
        let sample: Vec<f64> = (0..dim).map(|i| i as f64).collect();
        let mut completed = 0;
        for _ in 0..(capacity + extra) {
            if p.push(&sample) {
                completed += 1;
            }
        }
        prop_assert_eq!(p.len(), capacity);
        prop_assert_eq!(completed, 1, "exactly one completing push");
    }
}

mod detector_props {
    use navarchos_core::detectors::{
        ClosestPairDetector, Detector, DetectorParams, GrandDetector, GrandNcm, TranAdDetector,
        XgboostDetector,
    };
    use navarchos_core::reference::ReferenceProfile;
    use proptest::prelude::*;

    fn profile_from(rows: &[(f64, f64, f64)]) -> ReferenceProfile {
        let mut p = ReferenceProfile::new(3, rows.len());
        for &(a, b, c) in rows {
            p.push(&[a, b, c]);
        }
        p
    }

    proptest! {
        #[test]
        fn closest_pair_scores_are_finite_and_non_negative(
            rows in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0), 4..48),
            query in (-80.0f64..80.0, -80.0f64..80.0, -80.0f64..80.0),
        ) {
            let mut d = ClosestPairDetector::new(3);
            prop_assert!(d.score(&[query.0, query.1, query.2]).iter().all(|v| v.is_nan()));
            d.fit(&profile_from(&rows));
            let s = d.score(&[query.0, query.1, query.2]);
            prop_assert_eq!(s.len(), d.n_channels());
            prop_assert!(s.iter().all(|v| v.is_finite() && *v >= 0.0), "{:?}", s);
            // A reference member has a zero-distance closest pair in every
            // channel.
            let (a, b, c) = rows[0];
            prop_assert!(d.score(&[a, b, c]).iter().all(|&v| v == 0.0));
        }

        #[test]
        fn grand_deviation_stays_in_unit_interval(
            rows in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0), 8..32),
            queries in prop::collection::vec((-8.0f64..8.0, -8.0f64..8.0, -8.0f64..8.0), 1..16),
            ncm_i in 0usize..3,
        ) {
            let ncm = [GrandNcm::Median, GrandNcm::Knn, GrandNcm::Lof][ncm_i];
            let mut d = GrandDetector::new(3, ncm, 3, 20);
            d.fit(&profile_from(&rows));
            for q in &queries {
                let s = d.score(&[q.0, q.1, q.2]);
                prop_assert_eq!(s.len(), 1);
                prop_assert!((0.0..=1.0).contains(&s[0]), "deviation {} for {:?}", s[0], ncm);
            }
        }
    }

    // The trained detectors (gradient boosting / neural nets) pay a real
    // fit cost per case, so they run with a reduced case budget.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn xgboost_errors_are_finite_and_non_negative(
            rows in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0), 8..24),
            query in (-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0),
        ) {
            let mut d = XgboostDetector::new(3, &DetectorParams::default());
            d.fit(&profile_from(&rows));
            let s = d.score(&[query.0, query.1, query.2]);
            prop_assert_eq!(s.len(), 3);
            prop_assert!(s.iter().all(|v| v.is_finite() && *v >= 0.0), "{:?}", s);
        }

        #[test]
        fn tranad_scores_finite_through_warmup(
            rows in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0), 10..20),
            queries in prop::collection::vec((-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0), 1..12),
        ) {
            let mut d = TranAdDetector::new(3, &DetectorParams::default());
            d.fit(&profile_from(&rows));
            // Scores must be finite both before the rolling window fills
            // (training-mean fallback) and after (real reconstructions).
            for q in &queries {
                let s = d.score(&[q.0, q.1, q.2]);
                prop_assert_eq!(s.len(), 1);
                prop_assert!(s[0].is_finite() && s[0] >= 0.0, "score {}", s[0]);
            }
        }
    }
}

proptest! {
    #[test]
    fn par_map_equals_serial_map(
        items in prop::collection::vec(prop::collection::vec(-1e3f64..1e3, 0..32), 0..48),
    ) {
        // The scoped fork-join helper must be a drop-in for the serial
        // loop: same results, original order, every index visited once.
        let par = navarchos_core::par_map(&items, |i, v: &Vec<f64>| (i, v.iter().sum::<f64>()));
        let serial: Vec<(usize, f64)> =
            items.iter().enumerate().map(|(i, v)| (i, v.iter().sum::<f64>())).collect();
        prop_assert_eq!(par, serial);
    }
}

/// Spins for `cost` rounds: a task whose run time the test controls.
fn spin(i: usize, cost: u64) -> (usize, u64) {
    let mut x = i as u64;
    for _ in 0..cost * 64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    (i, x)
}

proptest! {
    #[test]
    fn par_map_keeps_order_and_propagates_panics_under_skewed_costs(
        costs in prop::collection::vec(
            (0u8..12).prop_map(|c| if c == 0 { 4_000u64 } else { u64::from(c) }),
            1..40,
        ),
        panic_at in 0usize..80,
    ) {
        // A few items cost ~1000x the rest, so workers claiming from the
        // shared cursor finish items far out of input order.
        let par = navarchos_core::par_map(&costs, |i, &c| spin(i, c));
        let serial: Vec<(usize, u64)> = costs.iter().enumerate().map(|(i, &c)| spin(i, c)).collect();
        prop_assert_eq!(par, serial);
        // A panic in any one item crosses the scope, wherever it falls.
        if panic_at < costs.len() {
            let result = std::panic::catch_unwind(|| {
                navarchos_core::par_map(&costs, |i, &c| {
                    assert!(i != panic_at, "boom");
                    spin(i, c)
                })
            });
            prop_assert!(result.is_err(), "the panic at item {} was lost", panic_at);
        }
    }
}

/// One vehicle's daily score trace with a single detection segment, and
/// its repair days: what `sweep_best` folds over.
fn vehicle_trace() -> impl Strategy<Value = (VehicleScores, Vec<i64>)> {
    (1usize..4, 12usize..60, 0u8..2).prop_flat_map(|(n_channels, days, floors)| {
        (
            prop::collection::vec(0.0f64..4.0, n_channels * days),
            prop::collection::vec(0i64..days as i64 + 30, 0..3),
        )
            .prop_map(move |(scores, repair_days)| {
                let vs = VehicleScores {
                    timestamps: (0..days as i64).map(|d| d * 86_400).collect(),
                    scores,
                    n_channels,
                    channel_names: (0..n_channels).map(|c| format!("c{c}")).collect(),
                    segments: vec![Segment { start: 0, detect_from: 8, end: days }],
                    contexts: vec![SegmentContext {
                        std_floors: if floors == 1 { vec![0.05; n_channels] } else { Vec::new() },
                    }],
                    constant_threshold: false,
                };
                let mut repairs: Vec<i64> = repair_days.iter().map(|d| d * 86_400).collect();
                repairs.sort_unstable();
                (vs, repairs)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sweep_best_equals_a_serial_fold(
        fleet in prop::collection::vec(vehicle_trace(), 1..12),
        constant in 0u8..2,
        ph_days in 15i64..31,
    ) {
        // The fanned-out sweep must pick what a serial fold over the grid
        // picks: the first candidate with the strictly highest F0.5.
        let constant = constant == 1;
        let traces: Vec<VehicleScores> = fleet
            .iter()
            .map(|(vs, _)| {
                let mut vs = vs.clone();
                if constant {
                    // Grand's deviation levels live in [0, 1].
                    vs.scores.iter_mut().for_each(|s| *s /= 4.0);
                    vs.constant_threshold = true;
                }
                vs
            })
            .collect();
        let refs: Vec<&VehicleScores> = traces.iter().collect();
        let repairs: Vec<Vec<i64>> = fleet.iter().map(|(_, r)| r.clone()).collect();
        let grid = if constant { constant_grid() } else { factor_grid() };
        let params = EvalParams::days(ph_days);

        let mut want = (grid[0], EvalCounts::default());
        let mut best_f = -1.0;
        for &cand in &grid {
            let mut counts = EvalCounts::default();
            for (vs, reps) in refs.iter().zip(&repairs) {
                let instances = vs.alarm_instances(cand, &params);
                counts.merge(&evaluate_vehicle_instances(&instances, reps, params));
            }
            if counts.f05() > best_f {
                best_f = counts.f05();
                want = (cand, counts);
            }
        }
        let got = sweep_best(&refs, &repairs, &grid, params);
        prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
        prop_assert_eq!(got.1, want.1);
    }
}

/// Spans opened inside `par_map` workers nest per worker thread: every
/// task-level span parents onto nothing from another thread (the workers
/// have no enclosing frame), ids stay unique, and the caller's own span
/// stack is untouched by the fan-out — no interleaving corruption.
#[test]
fn par_map_span_nesting_is_isolated() {
    navarchos_obs::set_metrics_enabled(true);
    let caller_span = navarchos_obs::span("props.caller");
    let caller_id = caller_span.id().expect("enabled span has an id");
    let items: Vec<usize> = (0..64).collect();
    let spans: Vec<(Option<u64>, Option<u64>, usize)> = navarchos_core::par_map(&items, |_, _| {
        // The worker's own `par_map.worker` span is already on this
        // thread's stack; task spans nest under it, never under the
        // caller's frame or another worker's.
        let worker_id = navarchos_obs::current_span_id();
        let outer = navarchos_obs::span("props.task");
        let inner = navarchos_obs::span("props.task.inner");
        assert_eq!(outer.parent(), worker_id, "outer nests under this worker's span");
        assert_eq!(inner.parent(), outer.id(), "inner nests under this worker's outer");
        (outer.id(), outer.parent(), navarchos_obs::span::current_depth())
    });
    // The caller's stack is still intact after the scope joins.
    assert_eq!(navarchos_obs::current_span_id(), Some(caller_id));
    let mut ids = Vec::new();
    for (id, parent, depth) in spans {
        let id = id.expect("worker spans are live while metrics are on");
        assert_ne!(Some(id), Some(caller_id));
        assert_ne!(parent, Some(caller_id), "worker spans must not adopt the caller's frame");
        assert_eq!(depth, 3, "worker + outer + inner on the worker's own stack");
        ids.push(id);
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), items.len(), "span ids are globally unique across workers");
}
