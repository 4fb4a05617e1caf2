//! A single regression tree grown with the XGBoost split criterion.

/// One tree node: either an internal split or a leaf weight.
#[derive(Debug, Clone)]
pub enum Node {
    /// Internal split: rows with `feature < threshold` go left.
    Split {
        /// Feature index tested by the split.
        feature: usize,
        /// Split threshold (midpoint between adjacent sorted values).
        threshold: f64,
        /// Index of the left child in the tree's node arena.
        left: usize,
        /// Index of the right child in the tree's node arena.
        right: usize,
    },
    /// Leaf with an output weight (already includes no shrinkage; the
    /// booster scales by the learning rate).
    Leaf {
        /// Output value of the leaf: −G / (H + λ).
        weight: f64,
    },
}

/// A regression tree stored as a node arena (index 0 is the root).
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
}

/// Growth hyper-parameters passed down from the booster.
#[derive(Debug, Clone, Copy)]
pub struct GrowParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// L2 regularisation λ on leaf weights.
    pub lambda: f64,
    /// Minimum gain γ required to keep a split.
    pub gamma: f64,
    /// Minimum sum of hessians per child.
    pub min_child_weight: f64,
}

struct Builder<'a> {
    x: &'a [f64],
    dim: usize,
    grad: &'a [f64],
    hess: &'a [f64],
    params: GrowParams,
    nodes: Vec<Node>,
}

impl Tree {
    /// Grows a tree on the given rows (indices into the row-major matrix
    /// `x`), fitting the gradient/hessian statistics. `features` restricts
    /// the columns considered (column subsampling).
    pub fn grow(
        x: &[f64],
        dim: usize,
        grad: &[f64],
        hess: &[f64],
        rows: &[u32],
        features: &[usize],
        params: GrowParams,
    ) -> Tree {
        debug_assert_eq!(grad.len(), hess.len());
        let mut b = Builder { x, dim, grad, hess, params, nodes: Vec::new() };
        let mut rows = rows.to_vec();
        b.build_node(&mut rows, features, 0);
        Tree { nodes: b.nodes }
    }

    /// Predicted weight for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { weight } => return *weight,
                Node::Split { feature, threshold, left, right } => {
                    // NaN features follow the right branch (missing-value
                    // default direction).
                    i = if row[*feature] < *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of leaves in the tree.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// The node arena (root at index 0).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

impl Builder<'_> {
    /// Recursively builds the subtree for `rows`, returning its node index.
    /// (`&mut Vec` rather than `&mut [_]`: children receive freshly
    /// partitioned ownership-local vectors.)
    // float_cmp: equal adjacent values in a sorted column mean "no split
    // point exists between them" — an exact duplicate test, not a tolerance.
    #[allow(clippy::float_cmp)]
    // ptr_arg: recursion hands each child a freshly partitioned, ownership-
    // local Vec (truncate + extend), which a `&mut [_]` cannot express.
    #[allow(clippy::ptr_arg)]
    fn build_node(&mut self, rows: &mut Vec<u32>, features: &[usize], depth: usize) -> usize {
        let (g_sum, h_sum) = rows
            .iter()
            .fold((0.0, 0.0), |(g, h), &r| (g + self.grad[r as usize], h + self.hess[r as usize]));

        let leaf_weight = -g_sum / (h_sum + self.params.lambda);
        if depth >= self.params.max_depth || rows.len() < 2 {
            return self.push_leaf(leaf_weight);
        }

        // Exact greedy split search over the allowed features.
        let mut best_gain = self.params.gamma;
        let mut best: Option<(usize, f64)> = None;
        let parent_score = g_sum * g_sum / (h_sum + self.params.lambda);
        let mut sorted: Vec<(f64, f64, f64)> = Vec::with_capacity(rows.len());
        for &f in features {
            sorted.clear();
            sorted.extend(rows.iter().map(|&r| {
                let r = r as usize;
                (self.x[r * self.dim + f], self.grad[r], self.hess[r])
            }));
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut gl = 0.0;
            let mut hl = 0.0;
            for w in 0..sorted.len() - 1 {
                gl += sorted[w].1;
                hl += sorted[w].2;
                if sorted[w].0 == sorted[w + 1].0 {
                    continue; // can't split between equal values
                }
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + self.params.lambda) + gr * gr / (hr + self.params.lambda)
                        - parent_score);
                if gain > best_gain {
                    best_gain = gain;
                    best = Some((f, (sorted[w].0 + sorted[w + 1].0) / 2.0));
                }
            }
        }

        let Some((feature, threshold)) = best else {
            return self.push_leaf(leaf_weight);
        };

        let mut left_rows: Vec<u32> = Vec::with_capacity(rows.len() / 2);
        let mut right_rows: Vec<u32> = Vec::with_capacity(rows.len() / 2);
        for &r in rows.iter() {
            if self.x[r as usize * self.dim + feature] < threshold {
                left_rows.push(r);
            } else {
                right_rows.push(r);
            }
        }
        debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());

        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: 0.0 }); // placeholder
        let left = self.build_node(&mut left_rows, features, depth + 1);
        let right = self.build_node(&mut right_rows, features, depth + 1);
        self.nodes[idx] = Node::Split { feature, threshold, left, right };
        idx
    }

    fn push_leaf(&mut self, weight: f64) -> usize {
        self.nodes.push(Node::Leaf { weight });
        self.nodes.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARAMS: GrowParams =
        GrowParams { max_depth: 4, lambda: 1.0, gamma: 0.0, min_child_weight: 1.0 };

    /// Squared-loss stats around prediction 0: grad = −y, hess = 1.
    fn stats(y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (y.iter().map(|v| -v).collect(), vec![1.0; y.len()])
    }

    #[test]
    fn step_function_is_learned() {
        // y = 10 for x < 0.5, y = -10 otherwise.
        let x: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| if v < 0.5 { 10.0 } else { -10.0 }).collect();
        let (g, h) = stats(&y);
        let rows: Vec<u32> = (0..20).collect();
        let tree = Tree::grow(&x, 1, &g, &h, &rows, &[0], PARAMS);
        // Regularised leaves shrink slightly toward zero (λ = 1, n = 10).
        assert!((tree.predict_row(&[0.2]) - 10.0 * 10.0 / 11.0).abs() < 1e-9);
        assert!((tree.predict_row(&[0.9]) + 10.0 * 10.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_single_leaf() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y = vec![3.0; 10];
        let (g, h) = stats(&y);
        let rows: Vec<u32> = (0..10).collect();
        let tree = Tree::grow(&x, 1, &g, &h, &rows, &[0], PARAMS);
        assert_eq!(tree.n_leaves(), 1, "no gain anywhere → single leaf");
        assert!((tree.predict_row(&[5.0]) - 3.0 * 10.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn max_depth_respected() {
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..64).map(|i| (i as f64).sin() * 5.0).collect();
        let (g, h) = stats(&y);
        let rows: Vec<u32> = (0..64).collect();
        for d in 1..5 {
            let tree =
                Tree::grow(&x, 1, &g, &h, &rows, &[0], GrowParams { max_depth: d, ..PARAMS });
            assert!(tree.depth() <= d, "depth {} > requested {d}", tree.depth());
            assert!(tree.n_leaves() <= 1 << d);
        }
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        // Tiny signal: values ±0.01.
        let y: Vec<f64> = x.iter().map(|&v| if v < 8.0 { 0.01 } else { -0.01 }).collect();
        let (g, h) = stats(&y);
        let rows: Vec<u32> = (0..16).collect();
        let strict = Tree::grow(&x, 1, &g, &h, &rows, &[0], GrowParams { gamma: 1.0, ..PARAMS });
        assert_eq!(strict.n_leaves(), 1, "gamma suppresses the weak split");
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let x = vec![0.0, 1.0, 2.0, 3.0];
        let y = vec![5.0, 0.0, 0.0, 0.0];
        let (g, h) = stats(&y);
        let rows: Vec<u32> = (0..4).collect();
        let tree =
            Tree::grow(&x, 1, &g, &h, &rows, &[0], GrowParams { min_child_weight: 2.0, ..PARAMS });
        // The best cut (isolating row 0) is forbidden; only the 2/2 cut
        // remains admissible.
        for n in tree.nodes() {
            if let Node::Split { threshold, .. } = n {
                assert!((*threshold - 1.5).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn two_dimensional_split() {
        // y depends only on feature 1.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            x.push((i % 5) as f64); // feature 0: noise
            x.push(i as f64); // feature 1: informative
            y.push(if i < 10 { 1.0 } else { -1.0 });
        }
        let (g, h) = stats(&y);
        let rows: Vec<u32> = (0..20).collect();
        let tree = Tree::grow(&x, 2, &g, &h, &rows, &[0, 1], PARAMS);
        if let Node::Split { feature, .. } = &tree.nodes()[0] {
            assert_eq!(*feature, 1, "root splits on the informative feature");
        } else {
            panic!("expected a split at the root");
        }
    }

    #[test]
    fn nan_goes_right() {
        let x = vec![0.0, 1.0, 2.0, 3.0];
        let y = vec![4.0, 4.0, -4.0, -4.0];
        let (g, h) = stats(&y);
        let rows: Vec<u32> = (0..4).collect();
        let tree = Tree::grow(&x, 1, &g, &h, &rows, &[0], PARAMS);
        let on_nan = tree.predict_row(&[f64::NAN]);
        let on_right = tree.predict_row(&[100.0]);
        assert_eq!(on_nan, on_right);
    }
}
