//! The boosting loop: additive training of regression trees on the
//! squared-error objective with shrinkage and row/column subsampling.

use crate::tree::{GrowParams, Tree};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters of the boosted regressor. Defaults mirror XGBoost's.
#[derive(Debug, Clone, Copy)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Learning rate η (shrinkage on each tree's contribution).
    pub learning_rate: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// L2 regularisation λ on leaf weights.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Row subsample fraction per tree in (0, 1].
    pub subsample: f64,
    /// Column subsample fraction per tree in (0, 1].
    pub colsample: f64,
    /// RNG seed for the subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 60,
            learning_rate: 0.3,
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample: 1.0,
            seed: 0,
        }
    }
}

/// A fitted gradient-boosted regressor.
///
/// ```
/// use navarchos_gbdt::{GbdtParams, GbdtRegressor};
///
/// // y = 2·x over x in 0..32
/// let x: Vec<f64> = (0..32).map(|i| i as f64).collect();
/// let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
/// let model = GbdtRegressor::fit(&x, 1, &y, &GbdtParams::default());
/// assert!((model.predict(&[10.0]) - 20.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct GbdtRegressor {
    base_score: f64,
    learning_rate: f64,
    trees: Vec<Tree>,
    dim: usize,
}

impl GbdtRegressor {
    /// Fits the regressor on row-major features `x` (`n × dim`) and
    /// targets `y`.
    ///
    /// # Panics
    /// If shapes disagree, the dataset is empty, or parameters are out of
    /// range.
    pub fn fit(x: &[f64], dim: usize, y: &[f64], params: &GbdtParams) -> Self {
        assert!(dim > 0 && x.len() == y.len() * dim, "shape mismatch");
        assert!(!y.is_empty(), "empty dataset");
        assert!(params.learning_rate > 0.0 && params.learning_rate <= 1.0);
        assert!(params.subsample > 0.0 && params.subsample <= 1.0);
        assert!(params.colsample > 0.0 && params.colsample <= 1.0);
        let n = y.len();
        let base_score = y.iter().sum::<f64>() / n as f64;

        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut pred = vec![base_score; n];
        let mut grad = vec![0.0; n];
        let hess = vec![1.0; n]; // squared loss
        let grow = GrowParams {
            max_depth: params.max_depth,
            lambda: params.lambda,
            gamma: params.gamma,
            min_child_weight: params.min_child_weight,
        };

        let all_rows: Vec<u32> = (0..n as u32).collect();
        let all_features: Vec<usize> = (0..dim).collect();
        let n_sub = ((n as f64 * params.subsample).round() as usize).clamp(2, n);
        let n_col = ((dim as f64 * params.colsample).round() as usize).clamp(1, dim);

        let mut trees = Vec::with_capacity(params.n_rounds);
        for _ in 0..params.n_rounds {
            for i in 0..n {
                grad[i] = pred[i] - y[i];
            }
            let rows: Vec<u32> = if n_sub < n {
                let mut r = all_rows.clone();
                r.shuffle(&mut rng);
                r.truncate(n_sub);
                r
            } else {
                all_rows.clone()
            };
            let features: Vec<usize> = if n_col < dim {
                let mut f = all_features.clone();
                f.shuffle(&mut rng);
                f.truncate(n_col);
                f.sort_unstable();
                f
            } else {
                all_features.clone()
            };
            let tree = Tree::grow(x, dim, &grad, &hess, &rows, &features, grow);
            for i in 0..n {
                pred[i] += params.learning_rate * tree.predict_row(&x[i * dim..(i + 1) * dim]);
            }
            trees.push(tree);
        }

        GbdtRegressor { base_score, learning_rate: params.learning_rate, trees, dim }
    }

    /// Predicts the target for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.dim);
        self.base_score
            + self.learning_rate * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Predicts a whole row-major matrix.
    pub fn predict_batch(&self, x: &[f64]) -> Vec<f64> {
        assert!(x.len() % self.dim == 0);
        x.chunks_exact(self.dim).map(|r| self.predict(r)).collect()
    }

    /// Mean squared error on a dataset.
    pub fn mse(&self, x: &[f64], y: &[f64]) -> f64 {
        let p = self.predict_batch(x);
        p.iter().zip(y).map(|(&a, &b)| (a - b) * (a - b)).sum::<f64>() / y.len() as f64
    }

    /// Feature dimension expected by `predict`.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream for test data.
    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*seed >> 11) as f64 / (1u64 << 53) as f64
    }

    fn friedman_like(n: usize) -> (Vec<f64>, Vec<f64>) {
        // y = 10 sin(x0 x1 π) + 20 (x2 − .5)² + 10 x3 + 5 x4
        let mut s = 42u64;
        let mut x = Vec::with_capacity(n * 5);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..5).map(|_| lcg(&mut s)).collect();
            y.push(
                10.0 * (std::f64::consts::PI * row[0] * row[1]).sin()
                    + 20.0 * (row[2] - 0.5) * (row[2] - 0.5)
                    + 10.0 * row[3]
                    + 5.0 * row[4],
            );
            x.extend(row);
        }
        (x, y)
    }

    #[test]
    fn fits_linear_function() {
        let n = 200;
        let mut s = 7u64;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = lcg(&mut s);
            let b = lcg(&mut s);
            x.push(a);
            x.push(b);
            y.push(3.0 * a - 2.0 * b + 1.0);
        }
        let model = GbdtRegressor::fit(&x, 2, &y, &GbdtParams::default());
        let mse = model.mse(&x, &y);
        assert!(mse < 0.05, "training MSE {mse}");
    }

    #[test]
    fn training_loss_decreases_with_rounds() {
        let (x, y) = friedman_like(300);
        let mut last = f64::INFINITY;
        for rounds in [5, 20, 80] {
            let model = GbdtRegressor::fit(
                &x,
                5,
                &y,
                &GbdtParams { n_rounds: rounds, ..Default::default() },
            );
            let mse = model.mse(&x, &y);
            assert!(mse < last, "rounds={rounds} mse={mse} last={last}");
            last = mse;
        }
        assert!(last < 1.0, "final training MSE {last}");
    }

    #[test]
    fn generalizes_to_holdout() {
        let (x, y) = friedman_like(600);
        let (x_tr, x_te) = x.split_at(400 * 5);
        let (y_tr, y_te) = y.split_at(400);
        let model = GbdtRegressor::fit(
            x_tr,
            5,
            y_tr,
            &GbdtParams { n_rounds: 120, learning_rate: 0.15, ..Default::default() },
        );
        let mse = model.mse(x_te, y_te);
        // Target variance is ≈ 24; a useful model must beat it comfortably.
        assert!(mse < 6.0, "holdout MSE {mse}");
    }

    #[test]
    fn higher_loss_on_shifted_distribution() {
        // The anomaly-detection property the paper relies on: a regressor
        // trained on healthy data yields larger errors when the
        // relationship between features changes.
        let n = 400;
        let mut s = 11u64;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = lcg(&mut s);
            let b = a * 0.8 + 0.2 * lcg(&mut s); // b correlated with a
            x.push(a);
            x.push(b);
            y.push(2.0 * a + 3.0 * b);
        }
        let model = GbdtRegressor::fit(&x, 2, &y, &GbdtParams::default());
        // Healthy holdout drawn from the same joint distribution.
        let mut healthy_err = 0.0;
        let mut shifted_err = 0.0;
        let m = 200;
        for _ in 0..m {
            let a = lcg(&mut s);
            let b = a * 0.8 + 0.2 * lcg(&mut s);
            let p = model.predict(&[a, b]);
            healthy_err += (p - (2.0 * a + 3.0 * b)).abs();
            // Shifted: the a↔b relationship breaks (b independent).
            let b2 = lcg(&mut s);
            let p2 = model.predict(&[a, b2]);
            shifted_err += (p2 - (2.0 * a + 3.0 * b2)).abs();
        }
        assert!(shifted_err > 1.5 * healthy_err, "shifted {shifted_err} vs healthy {healthy_err}");
    }

    #[test]
    fn subsampling_is_deterministic_given_seed() {
        let (x, y) = friedman_like(200);
        let p = GbdtParams { subsample: 0.7, colsample: 0.6, seed: 5, ..Default::default() };
        let a = GbdtRegressor::fit(&x, 5, &y, &p);
        let b = GbdtRegressor::fit(&x, 5, &y, &p);
        let probe = &x[..5];
        assert_eq!(a.predict(probe), b.predict(probe));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y = vec![7.5; 40];
        let model = GbdtRegressor::fit(&x, 1, &y, &GbdtParams::default());
        assert!((model.predict(&[3.0]) - 7.5).abs() < 1e-9);
        assert!((model.predict(&[1000.0]) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (x, y) = friedman_like(50);
        let model =
            GbdtRegressor::fit(&x, 5, &y, &GbdtParams { n_rounds: 10, ..Default::default() });
        let batch = model.predict_batch(&x);
        for i in 0..50 {
            assert_eq!(batch[i], model.predict(&x[i * 5..(i + 1) * 5]));
        }
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        GbdtRegressor::fit(&[1.0, 2.0, 3.0], 2, &[1.0], &GbdtParams::default());
    }
}
