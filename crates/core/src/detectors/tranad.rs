//! TranAD as a framework detector (Section 3.5): the transformer
//! reconstruction model from `navarchos-nnet`, trained on each reference
//! profile, scoring a rolling window of the most recent transformed
//! samples.

use super::{Detector, DetectorParams};
use crate::reference::ReferenceProfile;
use navarchos_nnet::{Matrix, TranAd, TranAdConfig};

/// Reconstruction-error detector backed by TranAD.
#[derive(Debug)]
pub struct TranAdDetector {
    dim: usize,
    cfg: TranAdConfig,
    model: Option<TranAd>,
    /// Rolling buffer of the most recent `window` samples (row-major).
    buffer: Vec<f64>,
}

impl TranAdDetector {
    /// Creates an unfitted detector for `dim`-dimensional samples.
    pub fn new(dim: usize, params: &DetectorParams) -> Self {
        let cfg = TranAdConfig {
            window: params.tranad_window,
            epochs: params.tranad_epochs,
            max_windows: params.tranad_max_windows,
            seed: params.seed,
            ..TranAdConfig::for_features(dim)
        };
        TranAdDetector { dim, cfg, model: None, buffer: Vec::new() }
    }
}

impl Detector for TranAdDetector {
    fn n_channels(&self) -> usize {
        1
    }

    fn fit(&mut self, reference: &ReferenceProfile) {
        assert_eq!(reference.dim(), self.dim, "profile width mismatch");
        assert!(reference.len() >= self.cfg.window, "reference shorter than the TranAD window");
        let series = Matrix::from_vec(reference.len(), self.dim, reference.data().to_vec());
        self.model = Some(TranAd::fit(&series, self.cfg));
        self.buffer.clear();
    }

    fn score(&mut self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.dim);
        let Some(model) = &self.model else {
            return vec![f64::NAN; self.n_channels()];
        };
        self.buffer.extend_from_slice(x);
        let w = self.cfg.window * self.dim;
        if self.buffer.len() > w {
            self.buffer.drain(..self.buffer.len() - w);
        }
        if self.buffer.len() < w {
            // Window not yet full: report the training-score scale so early
            // samples neither alarm nor distort holdout statistics.
            return vec![model.train_score_mean(); self.n_channels()];
        }
        let window = Matrix::from_vec(self.cfg.window, self.dim, self.buffer.clone());
        vec![model.score_raw_window(&window)]
    }

    fn is_fitted(&self) -> bool {
        self.model.is_some()
    }

    fn reset(&mut self) {
        self.model = None;
        self.buffer.clear();
    }

    // `fit` is deterministic (seeded) from the reference profile; the
    // rolling window of recent samples is the only evolved state.
    fn write_state(&self, w: &mut navarchos_stat::SnapWriter) {
        w.put_f64_slice(&self.buffer);
    }

    fn read_state(
        &mut self,
        r: &mut navarchos_stat::SnapReader<'_>,
    ) -> Result<(), navarchos_stat::SnapError> {
        let buffer = r.get_f64_iter()?;
        if buffer.len() % self.dim != 0 || buffer.len() > self.cfg.window * self.dim {
            return Err(navarchos_stat::SnapError::Corrupt("TranAdDetector buffer mismatch"));
        }
        self.buffer.clear();
        self.buffer.extend(buffer);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> DetectorParams {
        DetectorParams {
            tranad_window: 6,
            tranad_epochs: 4,
            tranad_max_windows: 120,
            ..Default::default()
        }
    }

    /// Structured 2-feature reference: f1 tracks f0.
    fn structured_profile(n: usize) -> ReferenceProfile {
        let mut p = ReferenceProfile::new(2, n);
        for i in 0..n {
            let t = i as f64 * 0.3;
            p.push(&[t.sin(), 0.9 * t.sin()]);
        }
        p
    }

    #[test]
    fn scores_rise_when_structure_breaks() {
        let mut d = TranAdDetector::new(2, &quick_params());
        d.fit(&structured_profile(150));
        // Healthy continuation.
        let mut healthy_max = 0.0f64;
        for i in 0..40 {
            let t = i as f64 * 0.3 + 1.0;
            healthy_max = healthy_max.max(d.score(&[t.sin(), 0.9 * t.sin()])[0]);
        }
        // Broken relationship.
        let mut broken_sum = 0.0;
        for i in 0..40 {
            let t = i as f64 * 0.3 + 1.0;
            broken_sum += d.score(&[t.sin(), -0.9 * t.sin()])[0];
        }
        let broken_mean = broken_sum / 40.0;
        assert!(
            broken_mean > healthy_max,
            "broken mean {broken_mean} vs healthy max {healthy_max}"
        );
    }

    #[test]
    fn warmup_returns_training_scale() {
        let mut d = TranAdDetector::new(2, &quick_params());
        d.fit(&structured_profile(100));
        let first = d.score(&[0.0, 0.0])[0];
        assert!(first.is_finite());
        // Before the rolling window fills, the score equals the training
        // mean exactly.
        let model_mean = first;
        let second = d.score(&[0.1, 0.09])[0];
        assert_eq!(second, model_mean);
    }

    #[test]
    fn unfitted_returns_nan_and_reset_unfits() {
        let mut d = TranAdDetector::new(2, &quick_params());
        assert!(d.score(&[0.0, 0.0])[0].is_nan());
        d.fit(&structured_profile(100));
        assert!(d.is_fitted());
        d.reset();
        assert!(!d.is_fitted());
        assert!(d.score(&[0.0, 0.0])[0].is_nan());
    }
}
