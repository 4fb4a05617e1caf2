//! Property-based tests for frames, filters and transformations.

use navarchos_tsframe::aggregate::{daily_aggregate, SECONDS_PER_DAY};
use navarchos_tsframe::{
    resample, CorrelationTransform, DeltaTransform, FillMethod, FilterSpec, Frame, MeanTransform,
    RawTransform, ResampleSpec, RollingExtrema, RollingStats, Transform, ValidRange,
};
use proptest::prelude::*;

/// Builds a time-ordered 2-signal frame with 1-minute cadence.
fn frame_2(values: &[(f64, f64)]) -> Frame {
    let mut f = Frame::new(&["a", "b"]);
    for (i, &(a, b)) in values.iter().enumerate() {
        f.push_row(i as i64 * 60, &[a, b]);
    }
    f
}

proptest! {
    #[test]
    fn raw_transform_is_identity(vals in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..64)) {
        let f = frame_2(&vals);
        let mut t = RawTransform::new(f.names());
        let g = t.apply(&f);
        prop_assert_eq!(g.len(), f.len());
        prop_assert_eq!(g.column(0), f.column(0));
        prop_assert_eq!(g.column(1), f.column(1));
    }

    #[test]
    fn delta_telescopes(vals in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..64)) {
        let f = frame_2(&vals);
        let mut t = DeltaTransform::new(f.names());
        let g = t.apply(&f);
        prop_assert_eq!(g.len(), f.len() - 1);
        // Telescoping sum: Σ deltas = last − first.
        let sum: f64 = g.column(0).iter().sum();
        let expected = vals.last().unwrap().0 - vals.first().unwrap().0;
        prop_assert!((sum - expected).abs() < 1e-6);
    }

    #[test]
    fn mean_transform_within_minmax(vals in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 8..80)) {
        let f = frame_2(&vals);
        let mut t = MeanTransform::new(f.names(), 6, 2);
        let g = t.apply(&f);
        let lo = vals.iter().map(|v| v.0).fold(f64::INFINITY, f64::min);
        let hi = vals.iter().map(|v| v.0).fold(f64::NEG_INFINITY, f64::max);
        for &m in g.column(0) {
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }

    #[test]
    fn correlation_features_bounded(vals in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 10..100)) {
        let f = frame_2(&vals);
        let mut t = CorrelationTransform::new(f.names(), 8, 2);
        let g = t.apply(&f);
        prop_assert_eq!(g.width(), 1);
        for &c in g.column(0) {
            prop_assert!(c.is_nan() || (-1.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn windowed_emission_count(n in 10usize..200, window in 2usize..12, stride in 1usize..6) {
        prop_assume!(window <= n);
        let vals: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, (i * 2) as f64)).collect();
        let f = frame_2(&vals);
        let mut t = MeanTransform::new(f.names(), window, stride);
        let g = t.apply(&f);
        // First emission when the window fills, then every `stride`.
        let expected = 1 + (n - window) / stride;
        prop_assert_eq!(g.len(), expected);
    }

    #[test]
    fn daily_aggregate_partitions_rows(
        counts in prop::collection::vec(1usize..50, 1..6),
    ) {
        // `counts[d]` rows on day d.
        let mut f = Frame::new(&["x"]);
        let mut total = 0usize;
        for (d, &c) in counts.iter().enumerate() {
            for i in 0..c {
                f.push_row(d as i64 * SECONDS_PER_DAY + i as i64 * 60, &[i as f64]);
            }
            total += c;
        }
        let aggs = daily_aggregate(&f, SECONDS_PER_DAY, 1);
        prop_assert_eq!(aggs.len(), counts.len());
        prop_assert_eq!(aggs.iter().map(|a| a.count).sum::<usize>(), total);
    }

    #[test]
    fn frame_slice_time_partition(
        n in 2usize..64,
        split_frac in 0.1f64..0.9,
    ) {
        let vals: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, -(i as f64))).collect();
        let f = frame_2(&vals);
        let split = (n as f64 * split_frac) as i64 * 60;
        let left = f.slice_time(i64::MIN, split);
        let right = f.slice_time(split, i64::MAX);
        prop_assert_eq!(left.len() + right.len(), n);
    }
}

proptest! {
    #[test]
    fn resample_grid_is_regular_and_within_range(
        gaps in prop::collection::vec(1i64..400, 2..64),
        period in 1i64..120,
    ) {
        let mut f = Frame::new(&["x"]);
        let mut t = 0i64;
        for (i, &g) in gaps.iter().enumerate() {
            f.push_row(t, &[i as f64]);
            t += g;
        }
        let spec = ResampleSpec { period, max_gap: 500, method: FillMethod::Linear };
        let r = resample(&f, spec);
        let first = f.timestamps()[0];
        let last = *f.timestamps().last().unwrap();
        for w in r.timestamps().windows(2) {
            prop_assert!(w[1] > w[0], "strictly increasing");
            prop_assert_eq!((w[1] - w[0]) % period, 0, "grid-aligned spacing");
        }
        for &gt in r.timestamps() {
            prop_assert!(gt >= first && gt <= last, "inside the observed range");
            prop_assert_eq!(gt.rem_euclid(period), 0, "on the global grid");
        }
    }

    #[test]
    fn linear_resample_values_within_neighbour_hull(
        vals in prop::collection::vec(-100.0f64..100.0, 2..64),
        period in 1i64..90,
    ) {
        let mut f = Frame::new(&["x"]);
        for (i, &v) in vals.iter().enumerate() {
            f.push_row(i as i64 * 60, &[v]);
        }
        let r = resample(&f, ResampleSpec { period, max_gap: 3_600, method: FillMethod::Linear });
        for (i, &gt) in r.timestamps().iter().enumerate() {
            // Locate the bracketing input samples.
            let hi = f.timestamps().iter().position(|&t| t >= gt).unwrap();
            let lo = if f.timestamps()[hi] == gt { hi } else { hi - 1 };
            let (a, b) = (f.column(0)[lo], f.column(0)[hi]);
            let (min, max) = (a.min(b), a.max(b));
            let v = r.column(0)[i];
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9, "{v} outside [{min}, {max}]");
        }
    }

    #[test]
    fn previous_hold_reproduces_observed_values(
        vals in prop::collection::vec(-100.0f64..100.0, 2..64),
        period in 1i64..90,
    ) {
        let mut f = Frame::new(&["x"]);
        for (i, &v) in vals.iter().enumerate() {
            f.push_row(i as i64 * 60 + 7, &[v]);
        }
        let r = resample(&f, ResampleSpec { period, max_gap: 3_600, method: FillMethod::Previous });
        for (i, &gt) in r.timestamps().iter().enumerate() {
            let v = r.column(0)[i];
            prop_assert!(
                f.timestamps().iter().zip(f.column(0)).any(|(&t, &x)| t <= gt && x == v),
                "held value {v} was never observed at or before {gt}"
            );
        }
    }
}

/// Random `(gap_seconds, a, b)` stream: gaps up to 8 hours exercise both
/// the ≤120 s differencing guard and the 6 h window reset.
fn gapped_stream() -> impl Strategy<Value = Vec<(i64, f64, f64)>> {
    prop::collection::vec((1i64..28_800, -500.0f64..500.0, -500.0f64..500.0), 12..150)
}

proptest! {
    #[test]
    fn push_into_matches_push_for_all_transforms(
        stream in gapped_stream(),
        window in 2usize..12,
        stride in 1usize..5,
    ) {
        // The allocating and buffer-reusing entry points must be
        // indistinguishable: same emission cadence, same values.
        let names = ["a".to_string(), "b".to_string()];
        let mut push_t = CorrelationTransform::new(&names, window, stride)
            .with_differencing()
            .with_min_std(vec![0.05, 0.05]);
        let mut into_t = push_t.clone();
        let mut mean_push = MeanTransform::new(&names, window, stride);
        let mut mean_into = mean_push.clone();
        let mut t = 0i64;
        let mut corr_out = vec![0.0; push_t.output_dim()];
        let mut mean_out = vec![0.0; mean_push.output_dim()];
        for &(gap, a, b) in &stream {
            t += gap;
            let row = [a, b];
            let by_push = push_t.push(t, &row);
            let by_into = into_t.push_into(t, &row, &mut corr_out);
            prop_assert_eq!(by_push.is_some(), by_into.is_some());
            if let (Some((pt, pv)), Some(it)) = (by_push, by_into) {
                prop_assert_eq!(pt, it);
                for (&x, &y) in pv.iter().zip(&corr_out) {
                    prop_assert!(x.is_nan() && y.is_nan() || x == y, "{x} vs {y}");
                }
            }
            let by_push = mean_push.push(t, &row);
            let by_into = mean_into.push_into(t, &row, &mut mean_out);
            prop_assert_eq!(by_push.is_some(), by_into.is_some());
            if let (Some((pt, pv)), Some(it)) = (by_push, by_into) {
                prop_assert_eq!(pt, it);
                for (&x, &y) in pv.iter().zip(&mean_out) {
                    prop_assert!(x.is_nan() && y.is_nan() || x == y, "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn correlation_long_gap_equals_fresh_transform(
        prefix in gapped_stream(),
        suffix in prop::collection::vec((1i64..100, -500.0f64..500.0, -500.0f64..500.0), 12..80),
        window in 2usize..10,
    ) {
        // Whatever state the transform is in, a > 6 h silence must make it
        // behave exactly like a newly constructed one on the suffix.
        let names = ["a".to_string(), "b".to_string()];
        let mut resumed = CorrelationTransform::new(&names, window, 1)
            .with_differencing()
            .with_min_std(vec![0.05, 0.05]);
        let mut t = 0i64;
        for &(gap, a, b) in &prefix {
            t += gap;
            let _ = resumed.push(t, &[a, b]);
        }
        t += 7 * 3600; // the long gap
        let mut fresh = CorrelationTransform::new(&names, window, 1)
            .with_differencing()
            .with_min_std(vec![0.05, 0.05]);
        for &(gap, a, b) in &suffix {
            t += gap;
            let row = [a, b];
            let r = resumed.push(t, &row);
            let f = fresh.push(t, &row);
            prop_assert_eq!(r.is_some(), f.is_some(), "cadence diverged at {}", t);
            if let (Some((_, rv)), Some((_, fv))) = (r, f) {
                for (&x, &y) in rv.iter().zip(&fv) {
                    prop_assert!(x.is_nan() && y.is_nan() || x == y, "{x} vs {y}");
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn rolling_stats_match_recomputation(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        window in 1usize..24,
    ) {
        let mut acc = RollingStats::new(window);
        for (i, &x) in xs.iter().enumerate() {
            acc.push(x);
            let lo = (i + 1).saturating_sub(window);
            let win = &xs[lo..=i];
            let mean = win.iter().sum::<f64>() / win.len() as f64;
            prop_assert!((acc.mean().unwrap() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            if win.len() >= 2 {
                let var = win.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                    / (win.len() - 1) as f64;
                prop_assert!(
                    (acc.variance().unwrap() - var).abs() < 1e-6 * (1.0 + var),
                    "{} vs {var}", acc.variance().unwrap()
                );
            }
        }
    }

    #[test]
    fn rolling_extrema_match_recomputation(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        window in 1usize..24,
    ) {
        let mut acc = RollingExtrema::new(window);
        for (i, &x) in xs.iter().enumerate() {
            acc.push(x);
            let lo = (i + 1).saturating_sub(window);
            let win = &xs[lo..=i];
            let lo_v = win.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi_v = win.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(acc.min(), Some(lo_v));
            prop_assert_eq!(acc.max(), Some(hi_v));
        }
    }
}

// ---- WindowCadence checkpoint round-trip (xtask L4 kernel) --------------

use navarchos_stat::{Restore, SnapReader, SnapWriter, Snapshot};
use navarchos_tsframe::WindowCadence;

proptest! {
    /// Checkpoint contract for [`WindowCadence`]: cut the record sequence
    /// anywhere, round-trip the cadence through its snapshot, and the
    /// restored cadence makes **identical** gap-reset and emission
    /// decisions on the whole remainder — and re-snapshots stay
    /// byte-identical. The drawn inter-record gaps straddle the 6-hour
    /// ride boundary so both the reset and the no-reset paths are hit.
    #[test]
    fn window_cadence_snapshot_round_trip_is_decision_identical(
        gaps in prop::collection::vec(1i64..30_000, 4..120),
        window in 2usize..12,
        stride in 1usize..5,
        cut in 0usize..120,
    ) {
        let cut = cut.min(gaps.len());
        let mut ts = Vec::with_capacity(gaps.len());
        let mut t = 0i64;
        for &g in &gaps {
            t += g;
            ts.push(t);
        }

        let mut live = WindowCadence::new(window, stride);
        for &t in &ts[..cut] {
            let _ = live.gap_reset(t);
            let _ = live.note_push();
        }

        let mut w = SnapWriter::new();
        live.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = WindowCadence::new(window, stride);
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r).expect("cadence snapshot must restore");
        r.finish().expect("cadence snapshot must have no trailing bytes");
        prop_assert_eq!(restored.len(), live.len());
        prop_assert_eq!(restored.full(), live.full());

        for &t in &ts[cut..] {
            prop_assert_eq!(restored.gap_reset(t), live.gap_reset(t), "gap decision diverged");
            prop_assert_eq!(restored.note_push(), live.note_push(), "emission decision diverged");
            prop_assert_eq!(restored.len(), live.len());
        }

        let mut wa = SnapWriter::new();
        live.write_state(&mut wa);
        let mut wb = SnapWriter::new();
        restored.write_state(&mut wb);
        prop_assert_eq!(wa.into_bytes(), wb.into_bytes(), "re-snapshot must be byte-identical");
    }

    /// A cadence snapshot claiming more buffered records than the window
    /// holds is refused — the validator, not the caller, guards the
    /// invariant.
    #[test]
    fn window_cadence_overfull_snapshot_is_refused(window in 2usize..12, stride in 1usize..5) {
        let mut big = WindowCadence::new(window + 1, stride);
        for i in 0..=window {
            let _ = big.gap_reset(i as i64 * 60);
            let _ = big.note_push();
        }
        let mut w = SnapWriter::new();
        big.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut small = WindowCadence::new(window, stride);
        let mut r = SnapReader::new(&bytes);
        prop_assert!(small.read_state(&mut r).is_err(), "len > window must be corrupt");
    }
}

// ---------------------------------------------------------------------------
// Record filter: the resolved row predicate, the per-call `keep_row` and the
// column-wise `mask` agree row by row.
// ---------------------------------------------------------------------------

/// The next float above `x` (`f64::next_up`, which postdates the MSRV).
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Every bound of the Navarchos filter (ranges, stationary thresholds,
/// warm-up minimum) with the floats on either side of it, plus the
/// non-finite values.
fn filter_edge_values() -> Vec<f64> {
    let bounds = [-40.0, 0.0, 3.0, 5.0, 72.0, 120.0, 135.0, 220.0, 255.0, 650.0, 950.0, 8000.0];
    let mut out = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for b in bounds {
        out.extend([-next_up(-b), b, next_up(b)]);
    }
    out
}

/// A cell: a filter edge value half the time, else anywhere in the range
/// the six signals span.
fn filter_cell() -> impl Strategy<Value = f64> {
    let edges = filter_edge_values();
    (0usize..2 * edges.len(), -100.0f64..9000.0)
        .prop_map(move |(i, x)| edges.get(i).copied().unwrap_or(x))
}

/// The Navarchos schema with each column kept or omitted, an optional
/// column the filter never reads, in a random order.
fn filter_schema() -> impl Strategy<Value = Vec<String>> {
    (prop::collection::vec(0u8..4, 7), prop::collection::vec(0u32..1000, 7)).prop_map(
        |(keep, order)| {
            let all =
                ["rpm", "speed", "coolantTemp", "intakeTemp", "mapIntake", "mafAirFlowRate", "x"];
            let mut cols: Vec<(u32, String)> = all
                .iter()
                .zip(keep.iter().zip(&order))
                .filter(|(_, (k, _))| **k > 0)
                .map(|(n, (_, o))| (*o, n.to_string()))
                .collect();
            cols.sort();
            cols.into_iter().map(|(_, n)| n).collect()
        },
    )
}

/// The paper's filter, the empty filter, and a variant with no stationary
/// check and two ranges on one column.
fn filter_spec(which: usize) -> FilterSpec {
    match which {
        0 => FilterSpec::navarchos_default(),
        1 => FilterSpec::default(),
        _ => {
            let mut spec = FilterSpec::navarchos_default();
            spec.rpm_column = None;
            spec.valid_ranges.push(ValidRange::new("speed", 3.0, 120.0));
            spec
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn resolved_filter_keep_row_and_mask_agree(
        (names, rows) in filter_schema().prop_flat_map(|names| {
            let width = names.len();
            (Just(names), prop::collection::vec(prop::collection::vec(filter_cell(), width), 1..24))
        }),
        which in 0usize..3,
    ) {
        let spec = filter_spec(which);
        let mut frame = Frame::new(&names);
        for (i, row) in rows.iter().enumerate() {
            frame.push_row(i as i64 * 60, row);
        }
        let mask = spec.mask(&frame);
        let resolved = spec.resolve(&names);
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(resolved.keep(row), mask[i], "row {} {:?} of {:?}", i, row, names);
            prop_assert_eq!(spec.keep_row(&names, row), mask[i], "row {} {:?} of {:?}", i, row, names);
        }
    }
}
