//! Order statistics over measured samples.

/// Linear-interpolated quantile `q` (0..=1) of `v`; NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Sum over components of each component's `q`-quantile across repeats:
/// `rows[r][k]` is component `k` of repeat `r`. Repeats disturbed in one
/// component are outvoted there by the others.
pub fn sum_of_quantiles(rows: &[Vec<f64>], q: f64) -> f64 {
    let width = rows.iter().map(Vec::len).max().unwrap_or(0);
    (0..width)
        .map(|k| quantile(&rows.iter().filter_map(|r| r.get(k).copied()).collect::<Vec<_>>(), q))
        .sum()
}

pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::max)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn sum_of_quantiles_outvotes_one_disturbed_component() {
        let rows = vec![vec![1.0, 2.0], vec![1.0, 9.0], vec![1.0, 2.0]];
        assert_eq!(sum_of_quantiles(&rows, 0.5), 3.0);
    }
}
