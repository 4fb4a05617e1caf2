//! A k-d tree for exact Euclidean nearest-neighbour queries.
//!
//! The brute-force [`crate::knn::KnnIndex`] is O(n) per query, which is
//! fine at the paper's reference-profile sizes (~10²) but dominates once
//! a query runs against thousands of samples, such as a fleet's pooled
//! peer days. This tree answers exact k-NN queries in O(log n) expected
//! time for the low-dimensional (≤ ~20-D) feature spaces this workspace
//! produces.
//!
//! Implementation notes: the tree is built once over an immutable point
//! set (median split on the widest-spread dimension, sliding-midpoint
//! style), stored as a flat `Vec` of nodes for cache friendliness, and
//! queried with a bounded max-heap plus hyperplane pruning. Ties and
//! duplicates are handled exactly like brute force: the same distances
//! come back, though possibly in a different order among equals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Leaf size below which nodes store points directly and scan linearly.
const LEAF_SIZE: usize = 16;

#[derive(Debug)]
enum Node {
    /// Internal split: dimension, threshold, children indices.
    Split { dim: usize, value: f64, left: usize, right: usize },
    /// Leaf: range into the permuted point order.
    Leaf { start: usize, end: usize },
}

/// An immutable k-d tree over `dim`-dimensional points with Euclidean
/// queries.
///
/// ```
/// use navarchos_neighbors::KdTree;
///
/// let tree = KdTree::new(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![9.0, 9.0]], 2);
/// let nn = tree.nearest(&[3.0, 3.0], 1, None);
/// assert_eq!(nn[0].0, 1); // (3, 4) is closest
/// assert!((nn[0].1 - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct KdTree {
    data: Vec<f64>,
    dim: usize,
    /// Permutation: `order[slot]` = original point index.
    order: Vec<usize>,
    nodes: Vec<Node>,
    root: usize,
}

/// Max-heap entry for the running k-best set.
struct Candidate {
    dist2: f64,
    index: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2.total_cmp(&other.dist2)
    }
}

impl KdTree {
    /// Builds a tree over a flat row-major point matrix.
    ///
    /// # Panics
    /// Panics if `dim` is zero, `data` is not a multiple of `dim`, or any
    /// coordinate is non-finite.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
        assert!(data.iter().all(|v| v.is_finite()), "coordinates must be finite");
        let n = data.len() / dim;
        let mut tree =
            KdTree { data, dim, order: (0..n).collect(), nodes: Vec::new(), root: usize::MAX };
        if n > 0 {
            tree.root = tree.build(0, n);
        }
        tree
    }

    /// Builds a tree over a slice of points.
    pub fn new(points: &[Vec<f64>], dim: usize) -> Self {
        let mut data = Vec::with_capacity(points.len() * dim);
        for p in points {
            assert_eq!(p.len(), dim, "point width mismatch");
            data.extend_from_slice(p);
        }
        Self::from_flat(data, dim)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn coord(&self, point: usize, d: usize) -> f64 {
        self.data[point * self.dim + d]
    }

    /// Recursively builds the subtree over `order[start..end]`; returns
    /// the node index.
    fn build(&mut self, start: usize, end: usize) -> usize {
        if end - start <= LEAF_SIZE {
            self.nodes.push(Node::Leaf { start, end });
            return self.nodes.len() - 1;
        }
        // Split on the dimension with the widest spread in this cell.
        let mut split_dim = 0;
        let mut best_spread = f64::NEG_INFINITY;
        for d in 0..self.dim {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &p in &self.order[start..end] {
                let v = self.coord(p, d);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                split_dim = d;
            }
        }
        if best_spread <= 0.0 {
            // All points identical in every dimension: cannot split.
            self.nodes.push(Node::Leaf { start, end });
            return self.nodes.len() - 1;
        }
        // Median split via select_nth on the chosen dimension.
        let mid = (start + end) / 2;
        let (dim_, data_) = (self.dim, &self.data);
        self.order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
            data_[a * dim_ + split_dim].total_cmp(&data_[b * dim_ + split_dim])
        });
        let value = self.coord(self.order[mid], split_dim);
        let left = self.build(start, mid);
        let right = self.build(mid, end);
        self.nodes.push(Node::Split { dim: split_dim, value, left, right });
        self.nodes.len() - 1
    }

    fn dist2(&self, point: usize, query: &[f64]) -> f64 {
        self.data[point * self.dim..(point + 1) * self.dim]
            .iter()
            .zip(query)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// The `k` nearest points to `query` as `(original index, Euclidean
    /// distance)` pairs, closest first. `exclude` removes one index
    /// (leave-one-out queries). Returns fewer than `k` entries when the
    /// tree is smaller.
    ///
    /// # Panics
    /// Panics if the query width differs from the tree's dimension.
    pub fn nearest(&self, query: &[f64], k: usize, exclude: Option<usize>) -> Vec<(usize, f64)> {
        assert_eq!(query.len(), self.dim, "query width mismatch");
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
        self.search(self.root, query, k, exclude, &mut heap);
        let mut out: Vec<(usize, f64)> =
            heap.into_iter().map(|c| (c.index, c.dist2.sqrt())).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Distance to the single nearest neighbour (∞ for an empty tree or
    /// when everything is excluded).
    pub fn nearest_distance(&self, query: &[f64], exclude: Option<usize>) -> f64 {
        self.nearest(query, 1, exclude).first().map(|&(_, d)| d).unwrap_or(f64::INFINITY)
    }

    /// Mean distance to the `k` nearest neighbours — the kNN
    /// non-conformity measure, identical to
    /// [`crate::knn::KnnIndex::knn_score`].
    pub fn knn_score(&self, query: &[f64], k: usize, exclude: Option<usize>) -> f64 {
        let nn = self.nearest(query, k, exclude);
        if nn.is_empty() {
            return f64::INFINITY;
        }
        nn.iter().map(|&(_, d)| d).sum::<f64>() / nn.len() as f64
    }

    fn search(
        &self,
        node: usize,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
        heap: &mut BinaryHeap<Candidate>,
    ) {
        match self.nodes[node] {
            Node::Leaf { start, end } => {
                for &p in &self.order[start..end] {
                    if Some(p) == exclude {
                        continue;
                    }
                    let d2 = self.dist2(p, query);
                    if heap.len() < k {
                        heap.push(Candidate { dist2: d2, index: p });
                    } else if heap.peek().is_some_and(|c| d2 < c.dist2) {
                        // `is_some_and` keeps k = 0 a no-op instead of a
                        // panic on the empty heap.
                        heap.pop();
                        heap.push(Candidate { dist2: d2, index: p });
                    }
                }
            }
            Node::Split { dim, value, left, right } => {
                let delta = query[dim] - value;
                let (near, far) = if delta < 0.0 { (left, right) } else { (right, left) };
                self.search(near, query, k, exclude, heap);
                // Prune the far side unless the splitting hyperplane is
                // closer than the current k-th best.
                let worst = if heap.len() < k {
                    f64::INFINITY
                } else {
                    heap.peek().map_or(f64::INFINITY, |c| c.dist2)
                };
                if delta * delta < worst {
                    self.search(far, query, k, exclude, heap);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnIndex;
    use crate::Metric;

    /// Deterministic pseudo-random points.
    fn cloud(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.max(1);
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
        };
        (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
    }

    #[test]
    fn matches_brute_force_exactly() {
        for dim in [1, 2, 5, 9] {
            let pts = cloud(300, dim, 42 + dim as u64);
            let tree = KdTree::new(&pts, dim);
            let brute = KnnIndex::new(&pts, dim, Metric::Euclidean);
            for q in cloud(40, dim, 7) {
                for k in [1, 3, 10] {
                    let a = tree.nearest(&q, k, None);
                    let b = brute.nearest(&q, k, None);
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(&b) {
                        assert!((x.1 - y.1).abs() < 1e-9, "dim {dim} k {k}: {:?} vs {:?}", x, y);
                    }
                }
            }
        }
    }

    #[test]
    fn exclusion_respected() {
        let pts = cloud(100, 3, 5);
        let tree = KdTree::new(&pts, 3);
        // Query at an indexed point: nearest is itself at distance 0
        // unless excluded.
        assert!(tree.nearest_distance(&pts[17], None) < 1e-12);
        let d = tree.nearest_distance(&pts[17], Some(17));
        assert!(d > 0.0);
        assert!(!tree.nearest(&pts[17], 5, Some(17)).iter().any(|&(i, _)| i == 17));
    }

    #[test]
    fn duplicate_points_supported() {
        let mut pts = vec![vec![1.0, 1.0]; 40];
        pts.push(vec![5.0, 5.0]);
        let tree = KdTree::new(&pts, 2);
        let nn = tree.nearest(&[1.0, 1.0], 3, None);
        assert_eq!(nn.len(), 3);
        assert!(nn.iter().all(|&(_, d)| d < 1e-12));
        assert!((tree.nearest_distance(&[5.0, 5.1], None) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_tree_returns_everything() {
        let pts = cloud(7, 2, 9);
        let tree = KdTree::new(&pts, 2);
        let nn = tree.nearest(&[0.0, 0.0], 50, None);
        assert_eq!(nn.len(), 7);
        // Sorted ascending.
        assert!(nn.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn knn_score_matches_brute_force() {
        let pts = cloud(200, 4, 11);
        let tree = KdTree::new(&pts, 4);
        let brute = KnnIndex::new(&pts, 4, Metric::Euclidean);
        for q in cloud(20, 4, 3) {
            let a = tree.knn_score(&q, 8, None);
            let b = brute.knn_score(&q, 8, None);
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let tree = KdTree::from_flat(Vec::new(), 3);
        assert!(tree.is_empty());
        assert!(tree.nearest(&[0.0; 3], 2, None).is_empty());
        assert_eq!(tree.nearest_distance(&[0.0; 3], None), f64::INFINITY);

        let one = KdTree::new(&[vec![2.0]], 1);
        assert_eq!(one.len(), 1);
        assert!((one.nearest_distance(&[0.0], None) - 2.0).abs() < 1e-12);
        assert_eq!(one.nearest_distance(&[0.0], Some(0)), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn ragged_data_rejected() {
        let _ = KdTree::from_flat(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rejected() {
        let _ = KdTree::from_flat(vec![1.0, f64::NAN], 2);
    }
}
