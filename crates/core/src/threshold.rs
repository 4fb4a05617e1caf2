//! The self-tuning threshold of Giannoulidis et al. (SIGKDD Explorations
//! 2022), adopted by the paper for every detector except Grand: for each
//! score channel, `threshold = mean + factor · std` computed over the
//! anomaly scores of a small portion of presumed-healthy data, so each
//! vehicle (and each reference rebuild) tunes itself with one shared
//! `factor` parameter.

use navarchos_stat::descriptive::RunningStats;
use navarchos_stat::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

/// Per-channel self-tuning threshold state.
#[derive(Debug, Clone)]
pub struct SelfTuningThreshold {
    factor: f64,
    stats: Vec<RunningStats>,
    thresholds: Vec<f64>,
    fitted: bool,
}

impl SelfTuningThreshold {
    /// Creates a threshold over `channels` score channels with the given
    /// factor.
    pub fn new(channels: usize, factor: f64) -> Self {
        assert!(channels > 0, "at least one score channel required");
        SelfTuningThreshold {
            factor,
            stats: vec![RunningStats::new(); channels],
            thresholds: vec![f64::INFINITY; channels],
            fitted: false,
        }
    }

    /// Feeds one healthy score vector (one value per channel). Non-finite
    /// scores are skipped.
    pub fn observe(&mut self, scores: &[f64]) {
        assert_eq!(scores.len(), self.stats.len(), "channel count mismatch");
        for (st, &s) in self.stats.iter_mut().zip(scores) {
            if s.is_finite() {
                st.push(s);
            }
        }
    }

    /// Number of healthy observations seen on the first channel.
    pub fn observed(&self) -> u64 {
        self.stats.first().map(|s| s.count()).unwrap_or(0)
    }

    /// Freezes the thresholds from the collected statistics. Channels with
    /// fewer than two observations keep an infinite threshold (they can
    /// never alarm), which is the safe behaviour for dead channels.
    pub fn fit(&mut self) {
        for (th, st) in self.thresholds.iter_mut().zip(&self.stats) {
            *th = if st.count() >= 2 {
                threshold_value(st.mean(), st.sample_std(), self.factor)
            } else {
                f64::INFINITY
            };
        }
        self.fitted = true;
        // Retune telemetry: rare (once per reference rebuild), so the
        // registry lookup is fine here; sweep paths use
        // `batch_thresholds`, which stays untouched.
        if navarchos_obs::metrics_enabled() {
            navarchos_obs::counter("threshold.retunes").incr();
        }
        if navarchos_obs::events_enabled() {
            navarchos_obs::emit(
                &navarchos_obs::Event::new("threshold.retune")
                    .field("factor", self.factor)
                    .field("channels", self.stats.len())
                    .field("observed", self.observed()),
            );
        }
    }

    /// Whether `fit` has been called.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// The per-channel thresholds (infinite before `fit`).
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Indices of channels whose score exceeds its threshold.
    pub fn violations(&self, scores: &[f64]) -> Vec<usize> {
        scores
            .iter()
            .zip(&self.thresholds)
            .enumerate()
            .filter(|(_, (&s, &t))| s.is_finite() && s > t)
            .map(|(i, _)| i)
            .collect()
    }

    /// Resets all state (new reference profile).
    pub fn reset(&mut self) {
        for st in &mut self.stats {
            *st = RunningStats::new();
        }
        self.thresholds.iter_mut().for_each(|t| *t = f64::INFINITY);
        self.fitted = false;
    }
}

// State restores field-direct rather than via `fit()`: a re-fit on restore
// would bump the `threshold.retunes` counter and re-emit the retune event,
// making a restart visible in telemetry that should only count genuine
// retunes.
impl Snapshot for SelfTuningThreshold {
    fn write_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.stats.len());
        for st in &self.stats {
            st.write_state(w);
        }
        w.put_f64_slice(&self.thresholds);
        w.put_bool(self.fitted);
    }
}

impl Restore for SelfTuningThreshold {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let channels = r.get_len(8)?;
        if channels != self.stats.len() {
            return Err(SnapError::Corrupt("SelfTuningThreshold channel count mismatch"));
        }
        for st in &mut self.stats {
            st.read_state(r)?;
        }
        r.get_f64_exact(&mut self.thresholds, "SelfTuningThreshold threshold count mismatch")?;
        self.fitted = r.get_bool()?;
        Ok(())
    }
}

/// `mean + factor · std`, floored by a relative epsilon so a zero-variance
/// holdout (e.g. perfectly correlated signals) cannot alarm on floating-
/// point noise.
fn threshold_value(mean: f64, std: f64, factor: f64) -> f64 {
    mean + factor * std + 1e-9 * (1.0 + mean.abs())
}

/// Computes `mean + factor · std` thresholds for a batch of per-channel
/// healthy scores (`holdout[i]` = scores of channel `i`). `std_floors`
/// (if given, one per channel) bound each channel's std from below: a
/// holdout that happened to be quiet must not produce a threshold tighter
/// than the channel's intrinsic resolution — the runner passes 5 % of the
/// reference profile's per-channel value spread.
pub fn batch_thresholds(holdout: &[Vec<f64>], factor: f64, std_floors: Option<&[f64]>) -> Vec<f64> {
    holdout
        .iter()
        .enumerate()
        .map(|(c, scores)| {
            let mut st = RunningStats::new();
            for &s in scores {
                if s.is_finite() {
                    st.push(s);
                }
            }
            if st.count() >= 2 {
                let floor = std_floors.and_then(|f| f.get(c)).copied().unwrap_or(0.0);
                threshold_value(st.mean(), st.sample_std().max(floor), factor)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_mean_plus_factor_std() {
        let mut th = SelfTuningThreshold::new(1, 2.0);
        for s in [1.0, 2.0, 3.0] {
            th.observe(&[s]);
        }
        th.fit();
        // mean 2, sample std 1 → threshold 4.
        assert!((th.thresholds()[0] - 4.0).abs() < 1e-7);
        assert!(th.violations(&[4.1]) == vec![0]);
        assert!(th.violations(&[3.9]).is_empty());
    }

    #[test]
    fn before_fit_nothing_alarm() {
        let th = SelfTuningThreshold::new(3, 1.0);
        assert!(th.violations(&[1e9, 1e9, 1e9]).is_empty());
        assert!(!th.is_fitted());
    }

    #[test]
    fn nan_scores_are_skipped() {
        let mut th = SelfTuningThreshold::new(1, 1.0);
        th.observe(&[f64::NAN]);
        th.observe(&[1.0]);
        th.observe(&[3.0]);
        th.fit();
        assert_eq!(th.observed(), 2);
        assert!(th.thresholds()[0].is_finite());
        assert!(th.violations(&[f64::NAN]).is_empty(), "NaN never alarms");
    }

    #[test]
    fn channels_independent() {
        let mut th = SelfTuningThreshold::new(2, 0.0);
        th.observe(&[1.0, 10.0]);
        th.observe(&[3.0, 30.0]);
        th.fit();
        assert!((th.thresholds()[0] - 2.0).abs() < 1e-7);
        assert!((th.thresholds()[1] - 20.0).abs() < 1e-7);
        assert_eq!(th.violations(&[5.0, 5.0]), vec![0]);
    }

    #[test]
    fn factor_monotonicity() {
        let holdout = vec![vec![1.0, 5.0, 2.0, 4.0, 3.0]];
        let mut last = f64::NEG_INFINITY;
        for f in [0.0, 0.5, 1.0, 2.0, 4.0] {
            let t = batch_thresholds(&holdout, f, None)[0];
            assert!(t > last, "threshold grows with factor");
            last = t;
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut th = SelfTuningThreshold::new(1, 1.0);
        th.observe(&[1.0]);
        th.observe(&[2.0]);
        th.fit();
        th.reset();
        assert!(!th.is_fitted());
        assert_eq!(th.observed(), 0);
        assert!(th.thresholds()[0].is_infinite());
    }

    #[test]
    fn batch_matches_streaming() {
        let scores = vec![vec![1.0, 2.0, 3.0, 4.0]];
        let batch = batch_thresholds(&scores, 1.5, None);
        let mut th = SelfTuningThreshold::new(1, 1.5);
        for &s in &scores[0] {
            th.observe(&[s]);
        }
        th.fit();
        assert!((batch[0] - th.thresholds()[0]).abs() < 1e-12);
    }

    #[test]
    fn degenerate_channel_never_alarms() {
        let mut th = SelfTuningThreshold::new(1, 1.0);
        th.observe(&[2.0]);
        th.fit();
        assert!(th.thresholds()[0].is_infinite());
        assert!(th.violations(&[1e12]).is_empty());
    }
}
