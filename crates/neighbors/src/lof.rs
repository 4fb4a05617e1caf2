//! Local Outlier Factor (Breunig et al., SIGMOD 2000).
//!
//! Fitted on a reference set, the model can score both its own members
//! (used to pick the top-1 % outliers of the data exploration in Section 2
//! of the paper) and unseen queries (Grand's `Lof` non-conformity measure).
//! A score ≈ 1 means the point sits in a region of density comparable to
//! its neighbours; scores well above 1 flag local outliers.

use crate::distance::Metric;
use crate::knn::KnnIndex;

/// A fitted LOF model.
#[derive(Debug, Clone)]
pub struct LofModel {
    index: KnnIndex,
    k: usize,
    /// k-distance of every reference point (distance to its k-th neighbour,
    /// self excluded).
    k_distance: Vec<f64>,
    /// Local reachability density of every reference point.
    lrd: Vec<f64>,
    /// LOF score of every reference point (leave-one-out).
    lof: Vec<f64>,
}

impl LofModel {
    /// Fits LOF with neighbourhood size `k` on the reference points.
    ///
    /// # Panics
    /// If fewer than `k + 1` points are provided (every point needs `k`
    /// neighbours besides itself) or `k == 0`.
    // needless_range_loop: `i` is simultaneously the query index and the
    // self-exclusion id passed to `nearest`, so a plain loop is clearer.
    #[allow(clippy::needless_range_loop)]
    pub fn fit(points: &[Vec<f64>], dim: usize, k: usize, metric: Metric) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(points.len() > k, "LOF needs more than k points");
        let index = KnnIndex::new(points, dim, metric);
        let n = index.len();

        // Pass 1: neighbours and k-distances.
        let mut neighbors: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut k_distance = Vec::with_capacity(n);
        for i in 0..n {
            let nn = index.nearest(index.point(i), k, Some(i));
            k_distance.push(nn.last().map(|&(_, d)| d).unwrap_or(f64::NAN));
            neighbors.push(nn);
        }

        // Pass 2: local reachability densities.
        let mut lrd = Vec::with_capacity(n);
        for i in 0..n {
            lrd.push(Self::lrd_from(&neighbors[i], &k_distance));
        }

        // Pass 3: LOF scores of the reference members.
        let mut lof = Vec::with_capacity(n);
        for i in 0..n {
            lof.push(Self::lof_from(&neighbors[i], lrd[i], &lrd));
        }

        LofModel { index, k, k_distance, lrd, lof }
    }

    fn lrd_from(neighbors: &[(usize, f64)], k_distance: &[f64]) -> f64 {
        let mut sum = 0.0;
        for &(o, d) in neighbors {
            sum += d.max(k_distance[o]);
        }
        if sum > 0.0 {
            neighbors.len() as f64 / sum
        } else {
            // All neighbours are duplicates: infinite density.
            f64::INFINITY
        }
    }

    fn lof_from(neighbors: &[(usize, f64)], own_lrd: f64, lrd: &[f64]) -> f64 {
        if neighbors.is_empty() {
            return f64::NAN;
        }
        if own_lrd.is_infinite() {
            // Duplicate-dense point: by convention not an outlier.
            return 1.0;
        }
        let mean_neighbor_lrd: f64 =
            neighbors.iter().map(|&(o, _)| lrd[o]).sum::<f64>() / neighbors.len() as f64;
        if mean_neighbor_lrd.is_infinite() {
            // Neighbours are infinitely dense but the point is not:
            // maximally outlying neighbourhood contrast.
            return f64::INFINITY;
        }
        mean_neighbor_lrd / own_lrd
    }

    /// Neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// LOF scores of the reference points themselves (leave-one-out).
    pub fn reference_scores(&self) -> &[f64] {
        &self.lof
    }

    /// Scores an unseen query against the reference set.
    pub fn score(&self, query: &[f64]) -> f64 {
        let neighbors = self.index.nearest(query, self.k, None);
        let q_lrd = Self::lrd_from(&neighbors, &self.k_distance);
        Self::lof_from(&neighbors, q_lrd, &self.lrd)
    }

    /// Indices of the `top` highest-LOF reference points, descending —
    /// the "top 1 % of outliers" selection of the paper's Section 2.
    pub fn top_outliers(&self, top: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.lof.len()).collect();
        idx.sort_by(|&a, &b| self.lof[b].total_cmp(&self.lof[a]));
        idx.truncate(top);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tight cluster plus one far point: the far point must get the top
    /// LOF score, well above 1; cluster members stay near 1.
    fn cluster_with_outlier() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..2 {
                pts.push(vec![i as f64 * 0.1, j as f64 * 0.1]);
            }
        }
        pts.push(vec![10.0, 10.0]);
        pts
    }

    #[test]
    fn detects_isolated_point() {
        let pts = cluster_with_outlier();
        let model = LofModel::fit(&pts, 2, 3, Metric::Euclidean);
        let scores = model.reference_scores();
        let outlier = pts.len() - 1;
        assert!(scores[outlier] > 5.0, "outlier LOF = {}", scores[outlier]);
        for (i, &s) in scores.iter().enumerate() {
            if i != outlier {
                assert!(s < 2.0, "inlier {i} LOF = {s}");
            }
        }
        assert_eq!(model.top_outliers(1), vec![outlier]);
    }

    #[test]
    fn uniform_grid_scores_near_one() {
        let mut pts = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                pts.push(vec![i as f64, j as f64]);
            }
        }
        let model = LofModel::fit(&pts, 2, 4, Metric::Euclidean);
        for &s in model.reference_scores() {
            assert!(s > 0.7 && s < 1.6, "grid LOF = {s}");
        }
    }

    #[test]
    fn query_scoring_consistent_with_reference() {
        let pts = cluster_with_outlier();
        let model = LofModel::fit(&pts, 2, 3, Metric::Euclidean);
        // A query inside the cluster scores low; a remote one scores high.
        let inlier = model.score(&[0.45, 0.05]);
        let outlier = model.score(&[-8.0, 9.0]);
        assert!(inlier < 2.0, "inlier query LOF = {inlier}");
        assert!(outlier > 5.0, "outlier query LOF = {outlier}");
    }

    #[test]
    fn duplicates_do_not_poison_scores() {
        let mut pts = vec![vec![1.0, 1.0]; 6];
        pts.push(vec![1.1, 1.0]);
        pts.push(vec![5.0, 5.0]);
        let model = LofModel::fit(&pts, 2, 3, Metric::Euclidean);
        let scores = model.reference_scores();
        // Duplicate points score exactly 1 by convention.
        for &s in &scores[..6] {
            assert_eq!(s, 1.0);
        }
        // The remote point is flagged (possibly infinitely contrasted).
        assert!(scores[7] > 2.0 || scores[7].is_infinite());
    }

    #[test]
    fn top_outliers_ordering() {
        let pts = cluster_with_outlier();
        let model = LofModel::fit(&pts, 2, 3, Metric::Euclidean);
        let top = model.top_outliers(3);
        assert_eq!(top.len(), 3);
        let s = model.reference_scores();
        assert!(s[top[0]] >= s[top[1]] && s[top[1]] >= s[top[2]]);
    }

    #[test]
    #[should_panic]
    fn too_few_points_panics() {
        LofModel::fit(&[vec![0.0], vec![1.0]], 1, 2, Metric::Euclidean);
    }
}
