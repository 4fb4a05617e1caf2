//! Property-based tests for the nearest-neighbour machinery.

use navarchos_neighbors::{euclidean, KnnIndex, LofModel, Metric, SortedNeighbors};
use proptest::prelude::*;

fn points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, dim..=dim), n)
}

proptest! {
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
