//! Probability distributions used by the hypothesis tests: the upper
//! tails of the standard normal and the chi-squared family.

use crate::special::{erfc, gamma_q};

/// Standard normal survival function (1 − CDF), computed through `erfc` for
/// accuracy in the upper tail.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Chi-squared survival function (upper-tail p-value) with `k` degrees of
/// freedom — this is the p-value of the Friedman statistic.
pub fn chi_squared_sf(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(k / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_sf_complements_cdf() {
        // CDF(x) = SF(−x), so SF(x) + CDF(x) = SF(x) + SF(−x) = 1.
        for &x in &[-3.0, -1.0, 0.0, 0.5, 2.7] {
            assert!((normal_sf(x) + normal_sf(-x) - 1.0).abs() < 1e-10);
        }
        assert!((normal_sf(1.959_963_985) - 0.025).abs() < 1e-6);
    }

    #[test]
    fn chi_squared_known_values() {
        // Chi-squared with k=2 is Exp(1/2): SF(x) = exp(-x/2).
        for &x in &[0.5, 1.0, 3.0, 10.0] {
            assert!((chi_squared_sf(x, 2.0) - (-x / 2.0f64).exp()).abs() < 1e-10);
        }
        // 95th percentile of chi2(3) is about 7.8147.
        assert!((chi_squared_sf(7.8147, 3.0) - 0.05).abs() < 1e-4);
    }

    #[test]
    fn chi_squared_edges() {
        assert_eq!(chi_squared_sf(0.0, 4.0), 1.0);
        assert_eq!(chi_squared_sf(-1.0, 4.0), 1.0);
    }
}
