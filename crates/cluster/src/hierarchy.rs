//! Nearest-neighbour-chain agglomerative clustering with Lance–Williams
//! updates, plus dendrogram cutting utilities.

/// Linkage criterion. All four are *reducible*, which the NN-chain
/// algorithm requires for exactness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Linkage {
    /// Minimum pairwise distance between members.
    Single,
    /// Maximum pairwise distance between members.
    Complete,
    /// Unweighted average of pairwise distances (UPGMA) — the paper's
    /// "average linkage agglomerative hierarchical clustering".
    #[default]
    Average,
    /// Weighted average (WPGMA).
    Weighted,
}

impl Linkage {
    /// Lance–Williams update: distance from the merged cluster (i ∪ j) to
    /// another cluster k, given the previous distances and cluster sizes.
    fn update(&self, d_ik: f64, d_jk: f64, n_i: f64, n_j: f64) -> f64 {
        match self {
            Linkage::Single => d_ik.min(d_jk),
            Linkage::Complete => d_ik.max(d_jk),
            Linkage::Average => (n_i * d_ik + n_j * d_jk) / (n_i + n_j),
            Linkage::Weighted => 0.5 * (d_ik + d_jk),
        }
    }
}

/// One merge step of the dendrogram: clusters `a` and `b` (dendrogram ids:
/// 0..n are leaves, n+t is the cluster created by merge t) joined at height
/// `distance` into a cluster of `size` leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First child's dendrogram id.
    pub a: usize,
    /// Second child's dendrogram id.
    pub b: usize,
    /// Cophenetic distance of the merge.
    pub distance: f64,
    /// Number of leaves under the merged cluster.
    pub size: usize,
}

/// A complete hierarchical clustering of `n` observations (n − 1 merges,
/// sorted by increasing merge distance — the scipy `Z` matrix layout).
///
/// ```
/// use navarchos_cluster::{linkage, Linkage};
///
/// // Two obvious 1-D groups.
/// let points = [0.0, 0.1, 0.2, 10.0, 10.1];
/// let labels = linkage(&points, 1, Linkage::Average).cut_k(2);
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[0], labels[3]);
/// ```
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of clustered observations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dendrogram is trivial (0 or 1 observations).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The merge sequence, sorted by increasing distance.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Flat cluster labels for exactly `k` clusters (1 ≤ k ≤ n). Labels are
    /// renumbered 0..k−1 in order of first appearance.
    pub fn cut_k(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n.max(1), "k must be in 1..=n");
        self.cut_merges(self.n - k)
    }

    /// Applies the first `applied` merges through a union-find and extracts
    /// labels.
    // needless_range_loop: `i` is the leaf id being labelled, not a mere
    // subscript — an enumerate() would obscure the union-find lookup.
    #[allow(clippy::needless_range_loop)]
    fn cut_merges(&self, applied: usize) -> Vec<usize> {
        let total = self.n + self.merges.len();
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (t, m) in self.merges.iter().take(applied).enumerate() {
            let new_id = self.n + t;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = new_id;
            parent[rb] = new_id;
        }
        let mut labels = vec![usize::MAX; self.n];
        let mut next = 0;
        let mut map: Vec<(usize, usize)> = Vec::new();
        for i in 0..self.n {
            let root = find(&mut parent, i);
            let label = match map.iter().find(|&&(r, _)| r == root) {
                Some(&(_, l)) => l,
                None => {
                    map.push((root, next));
                    next += 1;
                    next - 1
                }
            };
            labels[i] = label;
        }
        labels
    }

    /// Sizes of the clusters produced by [`Dendrogram::cut_k`].
    pub fn cluster_sizes(&self, k: usize) -> Vec<usize> {
        let labels = self.cut_k(k);
        let mut sizes = vec![0usize; k];
        for &l in &labels {
            sizes[l] += 1;
        }
        sizes
    }
}

/// Computes the hierarchical clustering of row-major `points` (`n × dim`)
/// under the Euclidean metric with the given linkage.
///
/// # Panics
/// If the buffer length is not a multiple of `dim`, or `dim == 0`.
// float_cmp: `d == best_d` is an exact tie-break between two entries of the
// same distance matrix — equality means "same stored value", never "close".
#[allow(clippy::float_cmp)]
pub fn linkage(points: &[f64], dim: usize, method: Linkage) -> Dendrogram {
    assert!(dim > 0, "dim must be positive");
    assert!(points.len() % dim == 0, "points buffer is not n × dim");
    let n = points.len() / dim;
    if n <= 1 {
        return Dendrogram { n, merges: Vec::new() };
    }

    // Condensed distance handling: full symmetric matrix for O(1) updates.
    let mut dist = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let mut s = 0.0;
            for t in 0..dim {
                let d = points[i * dim + t] - points[j * dim + t];
                s += d * d;
            }
            let d = s.sqrt();
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }

    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<f64> = vec![1.0; n];
    // Dendrogram id currently represented by matrix row i.
    let mut dendro_id: Vec<usize> = (0..n).collect();

    let mut raw_merges: Vec<Merge> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    for step in 0..(n - 1) {
        if chain.is_empty() {
            let start = active.iter().position(|&a| a).expect("an active cluster exists");
            chain.push(start);
        }
        // Grow the chain until a reciprocal nearest-neighbour pair appears.
        loop {
            let top = *chain.last().expect("chain non-empty");
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for j in 0..n {
                if j != top && active[j] {
                    let d = dist[top * n + j];
                    // Tie-break deterministically on index.
                    if d < best_d || (d == best_d && j < best) {
                        best_d = d;
                        best = j;
                    }
                }
            }
            debug_assert!(best != usize::MAX);
            if chain.len() >= 2 && chain[chain.len() - 2] == best {
                // Reciprocal pair (top, best): merge.
                chain.pop();
                chain.pop();
                let (i, j) = if top < best { (top, best) } else { (best, top) };
                let d_ij = dist[i * n + j];
                let (n_i, n_j) = (size[i], size[j]);
                raw_merges.push(Merge {
                    a: dendro_id[i],
                    b: dendro_id[j],
                    distance: d_ij,
                    size: (n_i + n_j) as usize,
                });
                // Merge j into i; i represents the new cluster.
                for k in 0..n {
                    if active[k] && k != i && k != j {
                        let nd = method.update(dist[i * n + k], dist[j * n + k], n_i, n_j);
                        dist[i * n + k] = nd;
                        dist[k * n + i] = nd;
                    }
                }
                active[j] = false;
                size[i] = n_i + n_j;
                dendro_id[i] = n + step; // provisional id, re-mapped after sorting
                break;
            }
            chain.push(best);
        }
    }

    // NN-chain emits merges in non-sorted order; sort by height and remap
    // the provisional internal ids to the sorted positions.
    let mut order: Vec<usize> = (0..raw_merges.len()).collect();
    order.sort_by(|&a, &b| {
        raw_merges[a].distance.total_cmp(&raw_merges[b].distance).then(a.cmp(&b))
    });
    let mut id_map = vec![0usize; raw_merges.len()];
    for (new_pos, &old_pos) in order.iter().enumerate() {
        id_map[old_pos] = new_pos;
    }
    let remap = |id: usize| if id < n { id } else { n + id_map[id - n] };
    let mut merges: Vec<Merge> = order
        .iter()
        .map(|&old| {
            let m = raw_merges[old];
            Merge { a: remap(m.a), b: remap(m.b), distance: m.distance, size: m.size }
        })
        .collect();
    // Children must refer to earlier ids; NN-chain with a reducible linkage
    // guarantees this after sorting.
    debug_assert!(merges.iter().enumerate().all(|(t, m)| m.a < n + t && m.b < n + t));
    // Normalise child order for reproducibility.
    for m in &mut merges {
        if m.a > m.b {
            std::mem::swap(&mut m.a, &mut m.b);
        }
    }
    Dendrogram { n, merges }
}

/// Convenience wrapper: flat labels for `k` clusters over row-major
/// points under the given linkage.
pub fn agglomerative_labels(points: &[f64], dim: usize, k: usize, method: Linkage) -> Vec<usize> {
    linkage(points, dim, method).cut_k(k)
}

/// Mean silhouette coefficient of a flat clustering over row-major
/// `points` (Euclidean): for each point, `(b − a) / max(a, b)` where `a`
/// is its mean intra-cluster distance and `b` the smallest mean distance
/// to another cluster. Singleton clusters contribute 0 (the standard
/// convention). Returns `NaN` when fewer than 2 clusters exist.
pub fn silhouette_score(points: &[f64], dim: usize, labels: &[usize]) -> f64 {
    assert!(dim > 0 && points.len() == labels.len() * dim, "shape mismatch");
    let n = labels.len();
    let k = labels.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    if k < 2 || n < 2 {
        return f64::NAN;
    }
    let dist = |i: usize, j: usize| -> f64 {
        let mut s = 0.0;
        for t in 0..dim {
            let d = points[i * dim + t] - points[j * dim + t];
            s += d * d;
        }
        s.sqrt()
    };
    let mut total = 0.0;
    for i in 0..n {
        // Mean distance to every cluster.
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for j in 0..n {
            if i != j {
                sums[labels[j]] += dist(i, j);
                counts[labels[j]] += 1;
            }
        }
        let own = labels[i];
        if counts[own] == 0 {
            continue; // singleton: contributes 0
        }
        let a = sums[own] / counts[own] as f64;
        let b = (0..k)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs on a line.
    fn three_blobs() -> (Vec<f64>, usize) {
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(0.0 + i as f64 * 0.1);
        }
        for i in 0..5 {
            pts.push(10.0 + i as f64 * 0.1);
        }
        for i in 0..5 {
            pts.push(25.0 + i as f64 * 0.1);
        }
        (pts, 1)
    }

    #[test]
    fn three_blobs_recovered() {
        let (pts, dim) = three_blobs();
        for method in [Linkage::Single, Linkage::Complete, Linkage::Average, Linkage::Weighted] {
            let labels = agglomerative_labels(&pts, dim, 3, method);
            assert_eq!(labels.len(), 15);
            // Each blob must be pure.
            for blob in 0..3 {
                let l0 = labels[blob * 5];
                for i in 0..5 {
                    assert_eq!(labels[blob * 5 + i], l0, "method {method:?}");
                }
            }
            // And the blobs distinct.
            assert_ne!(labels[0], labels[5]);
            assert_ne!(labels[5], labels[10]);
        }
    }

    #[test]
    fn merge_count_and_sizes() {
        let (pts, dim) = three_blobs();
        let dend = linkage(&pts, dim, Linkage::Average);
        assert_eq!(dend.merges().len(), 14);
        assert_eq!(dend.merges().last().unwrap().size, 15);
        // Distances sorted ascending.
        let ds: Vec<f64> = dend.merges().iter().map(|m| m.distance).collect();
        assert!(ds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cut_k_extremes() {
        let (pts, dim) = three_blobs();
        let dend = linkage(&pts, dim, Linkage::Average);
        let all_one = dend.cut_k(1);
        assert!(all_one.iter().all(|&l| l == 0));
        let singletons = dend.cut_k(15);
        let mut sorted = singletons.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 15, "15 distinct singleton labels");
    }

    #[test]
    fn average_linkage_merge_height_is_mean_distance() {
        // Two pairs: (0, 1) at distance 1, (10, 12) at distance 2; the final
        // average-linkage merge height is the mean of all cross distances.
        let pts = vec![0.0, 1.0, 10.0, 12.0];
        let dend = linkage(&pts, 1, Linkage::Average);
        let last = dend.merges().last().unwrap();
        // Cross distances: |0-10|, |0-12|, |1-10|, |1-12| = 10, 12, 9, 11 → mean 10.5
        assert!((last.distance - 10.5).abs() < 1e-9, "got {}", last.distance);
    }

    #[test]
    fn single_vs_complete_heights() {
        let pts = vec![0.0, 1.0, 10.0, 12.0];
        let single = linkage(&pts, 1, Linkage::Single);
        let complete = linkage(&pts, 1, Linkage::Complete);
        assert!((single.merges().last().unwrap().distance - 9.0).abs() < 1e-9);
        assert!((complete.merges().last().unwrap().distance - 12.0).abs() < 1e-9);
    }

    #[test]
    fn trivial_inputs() {
        let d0 = linkage(&[], 2, Linkage::Average);
        assert!(d0.is_empty());
        let d1 = linkage(&[1.0, 2.0], 2, Linkage::Average);
        assert_eq!(d1.len(), 1);
        assert_eq!(d1.cut_k(1), vec![0]);
    }

    #[test]
    fn cluster_sizes_sum_to_n() {
        let (pts, dim) = three_blobs();
        let dend = linkage(&pts, dim, Linkage::Average);
        for k in 1..=15 {
            let sizes = dend.cluster_sizes(k);
            assert_eq!(sizes.len(), k);
            assert_eq!(sizes.iter().sum::<usize>(), 15);
        }
    }

    #[test]
    fn silhouette_high_for_separated_blobs() {
        let (pts, dim) = three_blobs();
        let labels = agglomerative_labels(&pts, dim, 3, Linkage::Average);
        let s = silhouette_score(&pts, dim, &labels);
        assert!(s > 0.9, "well-separated blobs: silhouette {s}");
        // A deliberately bad clustering scores much lower.
        let bad: Vec<usize> = (0..15).map(|i| i % 3).collect();
        let s_bad = silhouette_score(&pts, dim, &bad);
        assert!(s_bad < s - 0.5, "bad labels {s_bad} vs good {s}");
    }

    #[test]
    fn silhouette_degenerate_cases() {
        assert!(silhouette_score(&[1.0, 2.0], 1, &[0, 0]).is_nan(), "one cluster");
        let s = silhouette_score(&[0.0, 10.0], 1, &[0, 1]);
        assert_eq!(s, 0.0, "two singletons contribute 0 each");
    }

    #[test]
    fn deterministic_output() {
        let (pts, dim) = three_blobs();
        let a = linkage(&pts, dim, Linkage::Average);
        let b = linkage(&pts, dim, Linkage::Average);
        assert_eq!(a.merges(), b.merges());
    }
}
