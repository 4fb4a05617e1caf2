//! Brute-force k-nearest-neighbour index over a fixed reference set.
//!
//! Reference profiles in this workload are small (tens to a few thousand
//! vectors of ≤ 15 features), where a cache-friendly linear scan beats
//! tree structures. Euclidean queries run a blocked kernel over a
//! column-major copy of the points; other metrics scan the row-major
//! buffer one point at a time.

use crate::distance::Metric;

/// Rows per block of the Euclidean kernel: the distances of a block's rows
/// are summed in independent accumulators, one lane per row.
const BLOCK: usize = 8;

/// A k-NN index over a fixed set of equally-long feature vectors.
#[derive(Debug, Clone)]
pub struct KnnIndex {
    dim: usize,
    /// Row-major point buffer, `len = n * dim`.
    data: Vec<f64>,
    /// Euclidean only: the points column-major in blocks of [`BLOCK`] rows.
    /// Entry `b * dim + j` holds coordinate `j` of rows `b * BLOCK ..`; the
    /// last block is padded with zeros, which no query reads.
    blocks: Vec<[f64; BLOCK]>,
    metric: Metric,
}

impl KnnIndex {
    /// Builds an index from vectors of dimension `dim`.
    ///
    /// # Panics
    /// If any point's length differs from `dim` or `dim == 0`.
    pub fn new(points: &[Vec<f64>], dim: usize, metric: Metric) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let mut data = Vec::with_capacity(points.len() * dim);
        for p in points {
            assert_eq!(p.len(), dim, "point dimension mismatch");
            data.extend_from_slice(p);
        }
        let mut blocks = Vec::new();
        if metric == Metric::Euclidean {
            for rows in data.chunks(BLOCK * dim) {
                let first = blocks.len();
                blocks.resize(first + dim, [0.0; BLOCK]);
                for (r, row) in rows.chunks_exact(dim).enumerate() {
                    for (lanes, &v) in blocks.iter_mut().skip(first).zip(row) {
                        if let Some(slot) = lanes.get_mut(r) {
                            *slot = v;
                        }
                    }
                }
            }
        }
        KnnIndex { dim, data, blocks, metric }
    }

    /// Number of reference points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Reference point `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The `k` nearest reference points to `query`, as `(index, distance)`
    /// sorted by increasing distance, ties by index: the first `k` of a
    /// stable sort of all points by distance. Returns fewer than `k` pairs
    /// when the index holds fewer points. `exclude` (if given) skips one
    /// reference index — used for leave-one-out queries on the reference
    /// itself.
    pub fn nearest(&self, query: &[f64], k: usize, exclude: Option<usize>) -> Vec<(usize, f64)> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        debug_assert!(
            query.iter().all(|v| v.is_finite()),
            "kNN queries expect finite coordinates (filter upstream)"
        );
        if k == 0 {
            return Vec::new();
        }
        if self.metric == Metric::Euclidean {
            if let Some(best) = self.nearest_blocked(query, k, exclude) {
                return best;
            }
        }
        self.nearest_scan(query, k, exclude)
    }

    /// The Euclidean kernel. Each row's squared distance is summed over the
    /// dimensions in order, exactly as [`crate::squared_euclidean`] sums it,
    /// so every distance is bit-identical to the scan's. `None` when a
    /// distance is NaN: the scan defines where a NaN ranks.
    fn nearest_blocked(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Option<Vec<(usize, f64)>> {
        let n = self.len();
        // Sorted by distance, ties by index; never holds a NaN.
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k.min(n));
        for (first, block) in (0..n).step_by(BLOCK).zip(self.blocks.chunks_exact(self.dim)) {
            let mut dist = [0.0f64; BLOCK];
            for (lanes, &q) in block.iter().zip(query) {
                for (acc, &p) in dist.iter_mut().zip(lanes) {
                    let diff = q - p;
                    *acc += diff * diff;
                }
            }
            for d in &mut dist {
                *d = d.sqrt();
            }
            // Any NaN lane sends the query to the scan, which is exact either
            // way; a padding lane is NaN only when every row is.
            if dist.iter().any(|d| d.is_nan()) {
                return None;
            }
            // `zip` stops at `n`, so the last block's padding is never read.
            for (i, &d) in (first..n).zip(&dist) {
                let full = best.len() == k;
                if exclude == Some(i) || full && best.last().is_some_and(|&(_, worst)| d >= worst) {
                    continue;
                }
                // Every entry farther than `d` moves one slot down and the
                // pair takes the first freed slot, so it lands after every
                // entry at most `d` away (the scan's stable order); a full
                // list carries its old worst out of the end. Either way the
                // slot keeps the nearer distance and the carry the farther
                // (the list is sorted, NaN-free and never holds −0.0), so
                // `min`/`max` move the distances without a branch.
                let mut carry = (i, d);
                for slot in &mut best {
                    let (kept, passed) =
                        if d < slot.1 { (carry.0, slot.0) } else { (slot.0, carry.0) };
                    let (near, far) = (carry.1.min(slot.1), carry.1.max(slot.1));
                    *slot = (kept, near);
                    carry = (passed, far);
                }
                if !full {
                    best.push(carry);
                }
            }
        }
        Some(best)
    }

    /// The reference scan: one metric evaluation per point, kept in a
    /// sorted insertion buffer (k is small, ≤ 20 in every caller).
    fn nearest_scan(&self, query: &[f64], k: usize, exclude: Option<usize>) -> Vec<(usize, f64)> {
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k.min(self.len()) + 1);
        for (i, point) in self.data.chunks_exact(self.dim).enumerate() {
            if exclude == Some(i) {
                continue;
            }
            let d = self.metric.eval(query, point);
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

    /// Average distance to the k nearest neighbours — Grand's kNN
    /// non-conformity measure. Returns `NaN` on an empty index.
    pub fn knn_score(&self, query: &[f64], k: usize, exclude: Option<usize>) -> f64 {
        let nn = self.nearest(query, k, exclude);
        if nn.is_empty() {
            return f64::NAN;
        }
        nn.iter().map(|&(_, d)| d).sum::<f64>() / nn.len() as f64
    }

    /// Component-wise median of the reference set — the "most central
    /// pattern" used by Grand's `Median` non-conformity measure.
    pub fn median_point(&self) -> Vec<f64> {
        let mut column = Vec::with_capacity(self.len());
        (0..self.dim)
            .map(|j| {
                column.clear();
                column.extend(self.data.iter().skip(j).step_by(self.dim).copied());
                navarchos_stat::descriptive::quantile_in_place(&mut column, 0.5)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_index() -> KnnIndex {
        // 0..10 on a line.
        let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        KnnIndex::new(&pts, 1, Metric::Euclidean)
    }

    #[test]
    fn nearest_returns_sorted_distances() {
        let idx = grid_index();
        let nn = idx.nearest(&[3.2], 3, None);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].0, 3);
        assert!((nn[0].1 - 0.2).abs() < 1e-12);
        assert!(nn[0].1 <= nn[1].1 && nn[1].1 <= nn[2].1);
    }

    #[test]
    fn nearest_with_exclusion() {
        let idx = grid_index();
        let nn = idx.nearest(&[3.0], 1, Some(3));
        assert_ne!(nn[0].0, 3);
        assert!((nn[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_index() {
        let idx = grid_index();
        let nn = idx.nearest(&[0.0], 100, None);
        assert_eq!(nn.len(), 10);
    }

    #[test]
    fn knn_score_is_average() {
        let idx = grid_index();
        // 2 nearest of 4.5 are 4 and 5, both at distance 0.5.
        assert!((idx.knn_score(&[4.5], 2, None) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_distance_zero_on_member() {
        let idx = grid_index();
        assert_eq!(idx.nearest(&[7.0], 1, None), vec![(7, 0.0)]);
    }

    #[test]
    fn median_point_componentwise() {
        let pts = vec![vec![1.0, 10.0], vec![2.0, 30.0], vec![3.0, 20.0]];
        let idx = KnnIndex::new(&pts, 2, Metric::Euclidean);
        assert_eq!(idx.median_point(), vec![2.0, 20.0]);
    }

    #[test]
    fn empty_index_scores_nan() {
        let idx = KnnIndex::new(&[], 2, Metric::Euclidean);
        assert!(idx.nearest(&[0.0, 0.0], 1, None).is_empty());
        assert!(idx.knn_score(&[0.0, 0.0], 3, None).is_nan());
        assert!(idx.median_point().iter().all(|m| m.is_nan()));
        assert!(idx.is_empty());
    }

    #[test]
    fn ties_keep_index_order_across_blocks() {
        // 20 points at distance 1 on either side of the query, spanning
        // three blocks: the k best are the lowest indices.
        let pts: Vec<Vec<f64>> =
            (0..20).map(|i| vec![if i % 2 == 0 { -1.0 } else { 1.0 }]).collect();
        let idx = KnnIndex::new(&pts, 1, Metric::Euclidean);
        let nn = idx.nearest(&[0.0], 5, Some(2));
        assert_eq!(nn, vec![(0, 1.0), (1, 1.0), (3, 1.0), (4, 1.0), (5, 1.0)]);
    }

    #[test]
    fn manhattan_metric_keeps_the_scan() {
        let idx = KnnIndex::new(&[vec![1.0, 2.0], vec![3.0, 4.0]], 2, Metric::Manhattan);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.point(1), &[3.0, 4.0]);
        assert_eq!(idx.nearest(&[3.0, 3.0], 2, None), vec![(1, 1.0), (0, 3.0)]);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        KnnIndex::new(&[vec![1.0, 2.0]], 3, Metric::Euclidean);
    }
}
