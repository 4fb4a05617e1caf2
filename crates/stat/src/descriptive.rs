//! Descriptive statistics: batch helpers plus an incremental (Welford)
//! accumulator used throughout the pipeline for thresholding and aggregation.

/// Arithmetic mean of a slice. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n − 1 denominator). Returns `NaN` for fewer than
/// two observations.
pub fn sample_var(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Unbiased sample standard deviation.
pub fn sample_std(xs: &[f64]) -> f64 {
    sample_var(xs).sqrt()
}

/// Median of a slice (average of the two central order statistics for even
/// lengths). Returns `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (the "linear" method of NumPy), `q` in
/// [0, 1]. Returns `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    quantile_in_place(&mut xs.to_vec(), q)
}

/// The floor and ceiling ranks of quantile `q` over `n > 0` sorted values
/// and the interpolation weight of the ceiling one.
fn quantile_rank(n: usize, q: f64) -> (usize, usize, f64) {
    let q = q.clamp(0.0, 1.0);
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// Quantile of an already-sorted slice; avoids the copy in [`quantile`].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let (lo, hi, frac) = quantile_rank(sorted.len(), q);
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Quantile of an unsorted slice by selection, reordering `values` in
/// place: O(n) instead of a sort. Bit for bit equal to [`quantile_sorted`]
/// of `values` sorted by `f64::total_cmp` (NaNs included), because both
/// read the same two order statistics and interpolate them with the same
/// expression. Returns `NaN` for an empty slice.
pub fn quantile_in_place(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let (lo, hi, frac) = quantile_rank(values.len(), q);
    let (_, &mut low, above) = values.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return low;
    }
    // `hi == lo + 1`, so the ceiling order statistic is the least value
    // selected above the floor one (`above` is never empty here).
    let high = above.iter().copied().min_by(f64::total_cmp).unwrap_or(low);
    low * (1.0 - frac) + high * frac
}

/// Numerically stable streaming mean/variance accumulator (Welford's
/// algorithm). Used by the self-tuning threshold and the day-level
/// aggregation so that a single pass over the data suffices.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`NaN` while empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` below two observations).
    pub fn sample_var(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std(&self) -> f64 {
        self.sample_var().sqrt()
    }

    /// Smallest observation so far (`NaN` while empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation so far (`NaN` while empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford update).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl crate::snapshot::Snapshot for RunningStats {
    fn write_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_u64(self.n);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_f64(self.min);
        w.put_f64(self.max);
    }
}

impl crate::snapshot::Restore for RunningStats {
    fn read_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        self.n = r.get_u64()?;
        self.mean = r.get_f64()?;
        self.m2 = r.get_f64()?;
        self.min = r.get_f64()?;
        self.max = r.get_f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn var_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // Known example: sample variance 32/7.
        assert!((sample_var(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((sample_std(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(sample_var(&[1.0]).is_nan());
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 40.0);
        assert!((quantile(&xs, 1.0 / 3.0) - 20.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -1.0), 1.0);
        assert_eq!(quantile(&xs, 2.0), 2.0);
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [1.5, -2.0, 3.25, 0.0, 10.0, -7.5];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.sample_var() - sample_var(&xs)).abs() < 1e-12);
        assert_eq!(rs.min(), -7.5);
        assert_eq!(rs.max(), 10.0);
        assert_eq!(rs.count(), 6);
    }

    #[test]
    fn running_stats_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        let mut full = RunningStats::new();
        for &x in &xs {
            full.push(x);
        }
        assert!((a.mean() - full.mean()).abs() < 1e-10);
        assert!((a.sample_var() - full.sample_var()).abs() < 1e-10);
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = (a.mean(), a.sample_var(), a.count());
        a.merge(&RunningStats::new());
        assert_eq!(before, (a.mean(), a.sample_var(), a.count()));

        let mut e = RunningStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 1.5).abs() < 1e-12);
    }
}
