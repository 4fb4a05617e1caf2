//! XGBoost regression as a framework detector (Section 3.6): one boosted
//! regressor per feature, each trained on the reference profile to predict
//! its target feature from the remaining ones; the absolute prediction
//! error is the per-feature anomaly score, which makes alarms directly
//! attributable to the feature whose relationship broke.

use super::{Detector, DetectorParams};
use crate::reference::ReferenceProfile;
use navarchos_gbdt::{GbdtParams, GbdtRegressor};

/// Per-feature regression-loss detector.
#[derive(Debug)]
pub struct XgboostDetector {
    dim: usize,
    params: GbdtParams,
    /// `models[j]` predicts feature j from the remaining features.
    models: Vec<GbdtRegressor>,
    scratch: Vec<f64>,
}

impl XgboostDetector {
    /// Creates an unfitted detector for `dim` features.
    pub fn new(dim: usize, params: &DetectorParams) -> Self {
        assert!(dim >= 2, "per-feature regression needs at least 2 features");
        XgboostDetector {
            dim,
            params: GbdtParams {
                n_rounds: params.xgb_rounds,
                max_depth: params.xgb_depth,
                seed: params.seed,
                ..GbdtParams::default()
            },
            models: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Copies every feature except `j` from `x` into the scratch buffer.
    fn inputs_without(&mut self, x: &[f64], j: usize) {
        self.scratch.clear();
        self.scratch.extend(x.iter().enumerate().filter(|&(i, _)| i != j).map(|(_, &v)| v));
    }
}

impl Detector for XgboostDetector {
    fn n_channels(&self) -> usize {
        self.dim
    }

    fn fit(&mut self, reference: &ReferenceProfile) {
        let f = self.dim;
        assert_eq!(reference.dim(), f, "profile width mismatch");
        assert!(reference.len() >= 4, "reference too small for regression");
        let n = reference.len();
        self.models.clear();
        let mut x = Vec::with_capacity(n * (f - 1));
        let mut y = Vec::with_capacity(n);
        for j in 0..f {
            x.clear();
            y.clear();
            for i in 0..n {
                let row = reference.sample(i);
                y.push(row[j]);
                x.extend(row.iter().enumerate().filter(|&(c, _)| c != j).map(|(_, &v)| v));
            }
            self.models.push(GbdtRegressor::fit(&x, f - 1, &y, &self.params));
        }
    }

    fn score(&mut self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.dim);
        if self.models.is_empty() {
            return vec![f64::NAN; self.dim];
        }
        let mut out = Vec::with_capacity(self.dim);
        for j in 0..self.dim {
            self.inputs_without(x, j);
            let model = &self.models[j];
            out.push((model.predict(&self.scratch) - x[j]).abs());
        }
        out
    }

    fn is_fitted(&self) -> bool {
        !self.models.is_empty()
    }

    fn reset(&mut self) {
        self.models.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::DetectorKind;

    /// Reference with exact structure: b = 2a, c = a + 1.
    fn structured_profile(n: usize) -> ReferenceProfile {
        let mut p = ReferenceProfile::new(3, n);
        for i in 0..n {
            let a = (i as f64 * 0.37).sin() * 3.0;
            p.push(&[a, 2.0 * a, a + 1.0]);
        }
        p
    }

    fn quick() -> XgboostDetector {
        let mut d = XgboostDetector::new(3, &DetectorParams::default());
        d.fit(&structured_profile(200));
        d
    }

    #[test]
    fn low_error_on_consistent_samples() {
        let mut d = quick();
        let s = d.score(&[1.5, 3.0, 2.5]);
        assert!(s.iter().all(|&v| v < 0.3), "scores {s:?}");
    }

    #[test]
    fn broken_relationship_blames_the_right_feature() {
        let mut d = quick();
        // b decouples from a: the b-model's error explodes; the a and c
        // models also degrade (b is one of their inputs) but less.
        let s = d.score(&[1.5, -3.0, 2.5]);
        assert!(s[1] > 2.0, "b channel score {s:?}");
        assert!(s[1] > s[2], "b blamed more than c: {s:?}");
    }

    #[test]
    fn unfitted_and_reset() {
        let mut d = XgboostDetector::new(3, &DetectorParams::default());
        assert!(!d.is_fitted());
        assert!(d.score(&[0.0; 3]).iter().all(|v| v.is_nan()));
        d.fit(&structured_profile(50));
        assert!(d.is_fitted());
        d.reset();
        assert!(!d.is_fitted());
    }

    #[test]
    fn channels_match_features() {
        let features = ["x".to_string(), "y".to_string(), "z".to_string()];
        assert_eq!(DetectorKind::Xgboost.channel_names(&features), features);
        assert_eq!(XgboostDetector::new(3, &DetectorParams::default()).n_channels(), 3);
    }

    #[test]
    #[should_panic]
    fn single_feature_panics() {
        XgboostDetector::new(1, &DetectorParams::default());
    }
}
