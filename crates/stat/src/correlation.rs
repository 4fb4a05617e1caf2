//! Correlation measures. The paper's best data transformation computes the
//! Pearson correlation of every pair of PID signals inside a sliding window,
//! producing a condensed vector of f·(f−1)/2 features per window
//! ([`CorrelationPairs`]).

use crate::descriptive::mean;

/// Pearson product-moment correlation of two equally-long slices.
///
/// ```
/// use navarchos_stat::correlation::pearson;
///
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
/// ```
///
/// Returns 0.0 when either signal is (numerically) constant inside the
/// window: a constant signal carries no co-movement information, and 0 keeps
/// the transformed feature well-defined instead of propagating NaNs through
/// the detectors. Returns `NaN` for mismatched or < 2-element inputs.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    if x.len() != y.len() || x.len() < 2 {
        return f64::NAN;
    }
    debug_assert!(
        x.iter().chain(y).all(|v| v.is_finite()),
        "pearson expects finite inputs (filter upstream)"
    );
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= f64::EPSILON * x.len() as f64 * mx.abs().max(1.0)
        || syy <= f64::EPSILON * y.len() as f64 * my.abs().max(1.0)
    {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// Enumerates the strict upper triangle of an `n × n` pair matrix in row
/// order: (0,1), (0,2), …, (0,n−1), (1,2), … This is the canonical feature
/// ordering of the correlation transformation; detectors report alarms per
/// condensed index and use [`CorrelationPairs::pair_name`] to attribute them
/// back to a signal pair.
#[derive(Debug, Clone)]
pub struct CorrelationPairs {
    names: Vec<String>,
}

impl CorrelationPairs {
    /// Builds the pair enumeration for the given signal names.
    pub fn new<S: AsRef<str>>(signal_names: &[S]) -> Self {
        CorrelationPairs { names: signal_names.iter().map(|s| s.as_ref().to_string()).collect() }
    }

    /// Number of underlying signals f.
    pub fn n_signals(&self) -> usize {
        self.names.len()
    }

    /// Number of condensed features: f·(f−1)/2.
    pub fn n_pairs(&self) -> usize {
        let f = self.names.len();
        f * (f.saturating_sub(1)) / 2
    }

    /// The (i, j) signal indices of condensed feature `k`.
    pub fn pair_indices(&self, k: usize) -> (usize, usize) {
        let n = self.names.len();
        debug_assert!(k < self.n_pairs());
        let mut k = k;
        for i in 0..n {
            let row = n - i - 1;
            if k < row {
                return (i, i + 1 + k);
            }
            k -= row;
        }
        // Out-of-range `k` is caught by the debug_assert above; in release
        // the last valid pair is a harmless clamp for a read-only lookup.
        (n.saturating_sub(2), n.saturating_sub(1))
    }

    /// Condensed feature index of signal pair (i, j) with i < j.
    pub fn condensed_index(&self, i: usize, j: usize) -> usize {
        let n = self.names.len();
        assert!(i < j && j < n, "invalid pair ({i}, {j}) for {n} signals");
        // Elements before row i: sum_{r<i} (n-1-r) = i(n-1) - i(i-1)/2
        i * (2 * n - i - 1) / 2 + (j - i - 1)
    }

    /// Human-readable name "a~b" of condensed feature `k`, used for alarm
    /// explanations.
    pub fn pair_name(&self, k: usize) -> String {
        let (i, j) = self.pair_indices(k);
        format!("{}~{}", self.names[i], self.names[j])
    }

    /// All condensed feature names in order.
    pub fn names(&self) -> Vec<String> {
        (0..self.n_pairs()).map(|k| self.pair_name(k)).collect()
    }

    /// Computes the condensed pairwise Pearson vector over parallel signal
    /// windows: `signals[i]` is the window of signal i; all windows must
    /// have the same length.
    pub fn condensed_pearson(&self, signals: &[&[f64]]) -> Vec<f64> {
        assert_eq!(signals.len(), self.names.len(), "signal count mismatch");
        let mut out = Vec::with_capacity(self.n_pairs());
        for (i, a) in signals.iter().enumerate() {
            for b in signals.iter().skip(i + 1) {
                out.push(pearson(a, b));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_signal_is_zero() {
        let x = [3.0, 3.0, 3.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(pearson(&x, &y), 0.0);
        assert_eq!(pearson(&y, &x), 0.0);
    }

    #[test]
    fn pearson_invalid_inputs() {
        assert!(pearson(&[1.0], &[2.0]).is_nan());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_nan());
    }

    #[test]
    fn pearson_symmetry() {
        let x = [1.0, -2.0, 4.5, 3.3, 0.0];
        let y = [0.5, 1.5, -2.0, 3.0, 2.0];
        assert!((pearson(&x, &y) - pearson(&y, &x)).abs() < 1e-15);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed small example.
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 2.0];
        assert!((pearson(&x, &y) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn condensed_index_roundtrip() {
        let pairs = CorrelationPairs::new(&["a", "b", "c", "d", "e", "f"]);
        assert_eq!(pairs.n_pairs(), 15);
        for k in 0..pairs.n_pairs() {
            let (i, j) = pairs.pair_indices(k);
            assert!(i < j);
            assert_eq!(pairs.condensed_index(i, j), k, "k={k} i={i} j={j}");
        }
    }

    #[test]
    fn pair_names() {
        let pairs = CorrelationPairs::new(&["rpm", "speed", "coolantTemp"]);
        assert_eq!(pairs.n_pairs(), 3);
        assert_eq!(pairs.pair_name(0), "rpm~speed");
        assert_eq!(pairs.pair_name(1), "rpm~coolantTemp");
        assert_eq!(pairs.pair_name(2), "speed~coolantTemp");
    }

    #[test]
    fn condensed_pearson_matches_scalar() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        let c = [1.0, 3.0, 2.0, 4.0];
        let pairs = CorrelationPairs::new(&["a", "b", "c"]);
        let v = pairs.condensed_pearson(&[&a, &b, &c]);
        assert_eq!(v.len(), 3);
        assert!((v[0] - pearson(&a, &b)).abs() < 1e-15);
        assert!((v[1] - pearson(&a, &c)).abs() < 1e-15);
        assert!((v[2] - pearson(&b, &c)).abs() < 1e-15);
    }

    #[test]
    fn single_signal_has_no_pairs() {
        let pairs = CorrelationPairs::new(&["only"]);
        assert_eq!(pairs.n_pairs(), 0);
        assert!(pairs.names().is_empty());
    }
}
