//! Streaming rolling-window statistics: mean/variance over a sliding
//! window and monotonic-deque min/max, all O(1) amortised per sample.
//!
//! The windowing transforms of [`crate::transform`] recompute their
//! statistic per emission, which is the right trade-off at the paper's
//! stride of 3. A statistic per *sample* over a long window would make
//! recomputation quadratic — these accumulators close that gap.

use std::collections::VecDeque;

/// Sliding-window mean and variance.
///
/// Keeps the window contents plus running first and second moments of the
/// *pivot-shifted* samples `x − pivot` (the pivot is a recent sample, so
/// shifted values are small and the classic catastrophic cancellation of
/// sum-of-squares at large offsets cannot occur). The moments are rebuilt
/// from scratch — with a fresh pivot — every `2 × window` evictions so
/// floating-point drift cannot accumulate without bound.
///
/// ```
/// use navarchos_tsframe::RollingStats;
///
/// let mut acc = RollingStats::new(3);
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.mean(), Some(3.0)); // window is [2, 3, 4]
/// assert_eq!(acc.variance(), Some(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct RollingStats {
    window: usize,
    buf: VecDeque<f64>,
    pivot: f64,
    sum: f64,
    sum_sq: f64,
    evictions: usize,
}

impl RollingStats {
    /// Creates an accumulator over the given window length.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        RollingStats {
            window,
            buf: VecDeque::with_capacity(window + 1),
            pivot: 0.0,
            sum: 0.0,
            sum_sq: 0.0,
            evictions: 0,
        }
    }

    fn rebuild(&mut self) {
        self.evictions = 0;
        self.pivot = self.buf.front().copied().unwrap_or(0.0);
        self.sum = self.buf.iter().map(|v| v - self.pivot).sum();
        self.sum_sq = self.buf.iter().map(|v| (v - self.pivot) * (v - self.pivot)).sum();
    }

    /// Absorbs one sample, evicting the oldest once the window is full.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "rolling stats expect finite samples (filter upstream)");
        debug_assert!(self.window > 0, "window invariant violated");
        if self.buf.is_empty() {
            self.pivot = x;
        }
        self.buf.push_back(x);
        let d = x - self.pivot;
        self.sum += d;
        self.sum_sq += d * d;
        if self.buf.len() > self.window {
            if let Some(front) = self.buf.pop_front() {
                let old = front - self.pivot;
                self.sum -= old;
                self.sum_sq -= old * old;
                self.evictions += 1;
            }
            if self.evictions >= 2 * self.window {
                self.rebuild();
            }
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no samples have been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the window has filled to its nominal length.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.window
    }

    /// Mean of the current window contents (`None` while empty).
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.pivot + self.sum / self.buf.len() as f64)
        }
    }

    /// Sample variance of the current window contents (`None` with fewer
    /// than two samples). Clamped at zero against rounding.
    pub fn variance(&self) -> Option<f64> {
        let n = self.buf.len();
        if n < 2 {
            return None;
        }
        let shifted_mean = self.sum / n as f64;
        Some(((self.sum_sq - self.sum * shifted_mean) / (n - 1) as f64).max(0.0))
    }

    /// Sample standard deviation (`None` with fewer than two samples).
    pub fn std(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.pivot = 0.0;
        self.sum = 0.0;
        self.sum_sq = 0.0;
        self.evictions = 0;
    }
}

/// Sliding-window minimum and maximum via a pair of monotonic deques —
/// O(1) amortised per sample regardless of window length.
#[derive(Debug, Clone)]
pub struct RollingExtrema {
    window: usize,
    /// Sample counter; used as the deque entries' positions.
    count: usize,
    /// Increasing values: front is the window minimum.
    min_q: VecDeque<(usize, f64)>,
    /// Decreasing values: front is the window maximum.
    max_q: VecDeque<(usize, f64)>,
}

impl RollingExtrema {
    /// Creates an accumulator over the given window length.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        RollingExtrema { window, count: 0, min_q: VecDeque::new(), max_q: VecDeque::new() }
    }

    /// Absorbs one sample.
    pub fn push(&mut self, x: f64) {
        while self.min_q.back().is_some_and(|&(_, v)| v >= x) {
            self.min_q.pop_back();
        }
        self.min_q.push_back((self.count, x));
        while self.max_q.back().is_some_and(|&(_, v)| v <= x) {
            self.max_q.pop_back();
        }
        self.max_q.push_back((self.count, x));
        self.count += 1;
        let cutoff = self.count.saturating_sub(self.window);
        while self.min_q.front().is_some_and(|&(i, _)| i < cutoff) {
            self.min_q.pop_front();
        }
        while self.max_q.front().is_some_and(|&(i, _)| i < cutoff) {
            self.max_q.pop_front();
        }
    }

    /// Minimum of the current window (`None` before any sample).
    pub fn min(&self) -> Option<f64> {
        self.min_q.front().map(|&(_, v)| v)
    }

    /// Maximum of the current window (`None` before any sample).
    pub fn max(&self) -> Option<f64> {
        self.max_q.front().map(|&(_, v)| v)
    }

    /// `max − min` of the current window (`None` before any sample).
    pub fn range(&self) -> Option<f64> {
        match (self.max(), self.min()) {
            (Some(hi), Some(lo)) => Some(hi - lo),
            _ => None,
        }
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.count = 0;
        self.min_q.clear();
        self.max_q.clear();
    }
}

/// Rolling mean over a slice: entry `i` is the mean of the window ending
/// at `i` (shorter at the start while the window fills).
pub fn rolling_mean(xs: &[f64], window: usize) -> Vec<f64> {
    let mut acc = RollingStats::new(window);
    xs.iter()
        .map(|&x| {
            acc.push(x);
            // Non-empty after a push; NaN marks the impossible case.
            acc.mean().unwrap_or(f64::NAN)
        })
        .collect()
}

/// Rolling sample standard deviation over a slice; entries before the
/// second sample are 0.
pub fn rolling_std(xs: &[f64], window: usize) -> Vec<f64> {
    let mut acc = RollingStats::new(window);
    xs.iter()
        .map(|&x| {
            acc.push(x);
            acc.std().unwrap_or(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_match_direct_computation() {
        let xs: Vec<f64> = (0..50).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let w = 7;
        let mut acc = RollingStats::new(w);
        for (i, &x) in xs.iter().enumerate() {
            acc.push(x);
            let lo = (i + 1).saturating_sub(w);
            let win = &xs[lo..=i];
            let mean = win.iter().sum::<f64>() / win.len() as f64;
            assert!((acc.mean().unwrap() - mean).abs() < 1e-9, "at {i}");
            if win.len() >= 2 {
                let var = win.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                    / (win.len() - 1) as f64;
                assert!((acc.variance().unwrap() - var).abs() < 1e-9, "at {i}");
            } else {
                assert!(acc.variance().is_none());
            }
        }
    }

    #[test]
    fn stats_drift_rebuild_keeps_precision() {
        // A large offset makes naive sliding sums drift; the periodic
        // rebuild must keep the variance honest over a long stream.
        let mut acc = RollingStats::new(16);
        for i in 0..100_000 {
            acc.push(1e9 + (i % 7) as f64);
        }
        let v = acc.variance().unwrap();
        // True variance of {0..6} cycle in any 16-window is ~4.1-4.4.
        assert!((2.0..8.0).contains(&v), "variance drifted to {v}");
    }

    #[test]
    fn stats_reset_and_emptiness() {
        let mut acc = RollingStats::new(4);
        assert!(acc.is_empty());
        assert!(acc.mean().is_none());
        acc.push(3.0);
        assert_eq!(acc.mean(), Some(3.0));
        assert!(!acc.is_full());
        for _ in 0..5 {
            acc.push(1.0);
        }
        assert!(acc.is_full());
        acc.reset();
        assert!(acc.is_empty());
    }

    #[test]
    fn extrema_match_direct_computation() {
        let xs: Vec<f64> = (0..80).map(|i| (((i * 53) % 17) as f64).sin() * 10.0).collect();
        let w = 9;
        let mut acc = RollingExtrema::new(w);
        for (i, &x) in xs.iter().enumerate() {
            acc.push(x);
            let lo = (i + 1).saturating_sub(w);
            let win = &xs[lo..=i];
            let lo_v = win.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi_v = win.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(acc.min(), Some(lo_v), "min at {i}");
            assert_eq!(acc.max(), Some(hi_v), "max at {i}");
            assert_eq!(acc.range(), Some(hi_v - lo_v));
        }
    }

    #[test]
    fn extrema_handle_monotone_streams() {
        let mut acc = RollingExtrema::new(3);
        for i in 0..10 {
            acc.push(i as f64);
        }
        assert_eq!(acc.min(), Some(7.0));
        assert_eq!(acc.max(), Some(9.0));
        acc.reset();
        for i in (0..10).rev() {
            acc.push(i as f64);
        }
        assert_eq!(acc.min(), Some(0.0));
        assert_eq!(acc.max(), Some(2.0));
    }

    #[test]
    fn slice_helpers_align_with_input() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let m = rolling_mean(&xs, 2);
        assert_eq!(m, vec![1.0, 1.5, 2.5, 3.5]);
        let s = rolling_std(&xs, 2);
        assert_eq!(s[0], 0.0);
        assert!((s[1] - (0.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = RollingStats::new(0);
    }
}
