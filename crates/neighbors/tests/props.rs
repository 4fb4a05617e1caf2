//! Property-based tests for the nearest-neighbour machinery.

use navarchos_neighbors::{euclidean, KnnIndex, LofModel, Metric, SortedNeighbors};
use proptest::prelude::*;

fn points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, dim..=dim), n)
}

/// A coordinate that is mostly one of four grid values, so duplicate
/// points and tied distances are common, else a finite draw.
fn grid_or_finite() -> impl Strategy<Value = f64> {
    (0u8..6, -3.0f64..3.0).prop_map(|(pick, x)| match pick {
        0 => -1.0,
        1 => 0.0,
        2 => 1.0,
        3 => 2.0,
        _ => x,
    })
}

/// A reference coordinate: as [`grid_or_finite`], plus `±inf` (infinite
/// distances, tied at infinity) and NaN (NaN distances) now and then.
fn reference_coord() -> impl Strategy<Value = f64> {
    (0u8..40, grid_or_finite()).prop_map(|(pick, x)| match pick {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => f64::NAN,
        _ => x,
    })
}

/// The linear scan `KnnIndex::nearest` ran before its blocked kernel, kept
/// verbatim as the reference: every point in index order into a sorted
/// insertion buffer.
fn reference_nearest(
    points: &[Vec<f64>],
    query: &[f64],
    k: usize,
    exclude: Option<usize>,
) -> Vec<(usize, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
    for (i, p) in points.iter().enumerate() {
        if exclude == Some(i) {
            continue;
        }
        let d = euclidean(query, p);
        if best.len() < k || best.last().is_some_and(|&(_, worst)| d < worst) {
            let pos = best.partition_point(|&(_, bd)| bd <= d);
            best.insert(pos, (i, d));
            if best.len() > k {
                best.pop();
            }
        }
    }
    best
}

/// Indices and distance bits, for a readable failure message.
fn bits(nn: &[(usize, f64)]) -> Vec<(usize, u64)> {
    nn.iter().map(|&(i, d)| (i, d.to_bits())).collect()
}

/// `(points, query, k, exclude)`: `k` may exceed `n`, and `exclude` may be
/// `None`, a member, or an index past the end.
fn knn_case<S: Strategy<Value = f64>>(
    dims: std::ops::Range<usize>,
    n: std::ops::Range<usize>,
    coord: fn() -> S,
) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, usize, Option<usize>)> {
    (dims, n).prop_flat_map(move |(dim, n)| {
        (
            prop::collection::vec(prop::collection::vec(coord(), dim), n),
            prop::collection::vec(grid_or_finite(), dim),
            0usize..n + 4,
            (0usize..n + 2).prop_map(move |e| (e <= n).then_some(e)),
        )
    })
}

/// A reference value that is often special: NaN, a signed zero, an
/// infinity or one of two repeated values, else a finite draw.
fn special_or_finite() -> impl Strategy<Value = f64> {
    (0u8..10, -1000.0f64..1000.0).prop_map(|(pick, x)| match pick {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => 7.5,
        6 => -7.5,
        _ => x,
    })
}

proptest! {
    #[test]
    fn sorted_1d_from_vec_matches_new_bit_for_bit(
        reference in prop::collection::vec(special_or_finite(), 0..256),
    ) {
        let built = SortedNeighbors::new(&reference);
        let owned = SortedNeighbors::from_vec(reference);
        let bits = |s: &SortedNeighbors| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&owned), bits(&built));
    }

    #[test]
    fn sorted_1d_matches_linear_scan(
        reference in prop::collection::vec(-1000.0f64..1000.0, 1..128),
        queries in prop::collection::vec(-1000.0f64..1000.0, 1..16),
    ) {
        let s = SortedNeighbors::new(&reference);
        for &q in &queries {
            let brute = reference.iter().map(|&v| (v - q).abs()).fold(f64::INFINITY, f64::min);
            let fast = s.nearest_distance(q);
            prop_assert!((fast - brute).abs() < 1e-9, "q={q}: {fast} vs {brute}");
        }
    }

    #[test]
    fn knn_matches_brute_force(pts in points(3, 4..48), query in prop::collection::vec(-100.0f64..100.0, 3)) {
        let idx = KnnIndex::new(&pts, 3, Metric::Euclidean);
        let k = 3;
        let nn = idx.nearest(&query, k, None);
        // Brute force.
        let mut dists: Vec<f64> = pts.iter().map(|p| euclidean(p, &query)).collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(nn.len(), k.min(pts.len()));
        for (i, &(_, d)) in nn.iter().enumerate() {
            prop_assert!((d - dists[i]).abs() < 1e-9, "rank {i}: {d} vs {}", dists[i]);
        }
    }

    #[test]
    fn knn_distances_are_sorted(pts in points(2, 5..32), query in prop::collection::vec(-100.0f64..100.0, 2)) {
        let idx = KnnIndex::new(&pts, 2, Metric::Euclidean);
        let nn = idx.nearest(&query, 5, None);
        for w in nn.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn metrics_satisfy_triangle_inequality(
        a in prop::collection::vec(-50.0f64..50.0, 4),
        b in prop::collection::vec(-50.0f64..50.0, 4),
        c in prop::collection::vec(-50.0f64..50.0, 4),
    ) {
        for m in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            let ab = m.eval(&a, &b);
            let bc = m.eval(&b, &c);
            let ac = m.eval(&a, &c);
            prop_assert!(ac <= ab + bc + 1e-9, "{m:?} violates triangle inequality");
        }
    }

    #[test]
    fn lof_scores_positive_and_finite_for_spread_points(pts in points(2, 8..40)) {
        // Deduplicate near-identical points to avoid the degenerate
        // infinite-density case (covered by unit tests).
        let mut uniq: Vec<Vec<f64>> = Vec::new();
        for p in pts {
            if uniq.iter().all(|q| euclidean(q, &p) > 1e-6) {
                uniq.push(p);
            }
        }
        prop_assume!(uniq.len() > 4);
        let model = LofModel::fit(&uniq, 2, 3, Metric::Euclidean);
        for &s in model.reference_scores() {
            prop_assert!(s > 0.0);
            prop_assert!(s.is_finite());
        }
    }

    #[test]
    fn median_point_is_componentwise(pts in points(3, 3..32)) {
        let idx = KnnIndex::new(&pts, 3, Metric::Euclidean);
        let med = idx.median_point();
        for c in 0..3 {
            let mut col: Vec<f64> = pts.iter().map(|p| p[c]).collect();
            col.sort_by(|a, b| a.total_cmp(b));
            let expected = navarchos_stat::descriptive::quantile_sorted(&col, 0.5);
            prop_assert!((med[c] - expected).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn knn_kernel_equals_reference_scan(
        (pts, query, k, exclude) in knn_case(1..8, 0..60, reference_coord),
    ) {
        // Duplicates, ties, `exclude`, k ≥ n, n off the block size, and
        // infinite and NaN distances: indices and distance bits must match.
        let dim = query.len();
        let idx = KnnIndex::new(&pts, dim, Metric::Euclidean);
        let got = idx.nearest(&query, k, exclude);
        let want = reference_nearest(&pts, &query, k, exclude);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn knn_kernel_equals_reference_scan_on_raw_profiles(
        (pts, query, _, exclude) in knn_case(6..7, 1200..1201, grid_or_finite),
    ) {
        // The raw/delta cells' reference profiles: 1,200 points of the six
        // signals, queried with k = 10 as Grand does.
        let idx = KnnIndex::new(&pts, 6, Metric::Euclidean);
        for k in [1, 10] {
            let got = idx.nearest(&query, k, exclude);
            prop_assert_eq!(bits(&got), bits(&reference_nearest(&pts, &query, k, exclude)));
        }
    }
}

/// Infinite query coordinates make `inf - inf` NaN distances. `nearest`
/// debug-asserts finite queries, so this runs in release builds only
/// (`cargo test --release -p navarchos-neighbors`), where such a query is
/// answered and must match the scan.
#[cfg(not(debug_assertions))]
mod infinite_queries {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn knn_kernel_equals_reference_scan_for_infinite_queries(
            (pts, query, k, exclude) in knn_case(1..5, 0..40, reference_coord),
            inf_at in 0usize..5,
        ) {
            let mut query = query;
            let dim = query.len();
            if let Some(q) = query.get_mut(inf_at % dim) {
                *q = if inf_at % 2 == 0 { f64::INFINITY } else { f64::NEG_INFINITY };
            }
            let idx = KnnIndex::new(&pts, dim, Metric::Euclidean);
            let got = idx.nearest(&query, k, exclude);
            prop_assert_eq!(bits(&got), bits(&reference_nearest(&pts, &query, k, exclude)));
        }
    }
}
