//! Closest-pair detection (Section 3.3): each feature is monitored
//! separately, the anomaly score being the distance from the new sample's
//! value to its closest neighbour in the reference profile. Per-feature
//! sorted arrays make every query a binary search — the source of the
//! order-of-magnitude speed advantage in Table 1 of the paper.

use super::Detector;
use crate::reference::ReferenceProfile;
use navarchos_neighbors::SortedNeighbors;

/// Per-feature nearest-neighbour distance detector.
#[derive(Debug, Clone)]
pub struct ClosestPairDetector {
    dim: usize,
    per_feature: Vec<SortedNeighbors>,
}

impl ClosestPairDetector {
    /// Creates an unfitted detector for `dim` features.
    pub fn new(dim: usize) -> Self {
        ClosestPairDetector { dim, per_feature: Vec::new() }
    }
}

impl Detector for ClosestPairDetector {
    fn n_channels(&self) -> usize {
        self.dim
    }

    fn fit(&mut self, reference: &ReferenceProfile) {
        assert_eq!(reference.dim(), self.dim, "profile width mismatch");
        assert!(!reference.is_empty(), "empty reference profile");
        let dim = reference.dim();
        self.per_feature.clear();
        for j in 0..dim {
            // Each feature's column, gathered into the buffer it is sorted in.
            let column = reference.data().iter().skip(j).step_by(dim).copied().collect();
            self.per_feature.push(SortedNeighbors::from_vec(column));
        }
    }

    fn score(&mut self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.dim);
        if self.per_feature.is_empty() {
            return vec![f64::NAN; self.dim];
        }
        self.per_feature.iter().zip(x).map(|(nn, &v)| nn.nearest_distance(v)).collect()
    }

    fn is_fitted(&self) -> bool {
        !self.per_feature.is_empty()
    }

    fn reset(&mut self) {
        self.per_feature.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::DetectorKind;

    fn fitted() -> ClosestPairDetector {
        let mut d = ClosestPairDetector::new(2);
        let mut p = ReferenceProfile::new(2, 3);
        p.push(&[1.0, 10.0]);
        p.push(&[2.0, 20.0]);
        p.push(&[3.0, 30.0]);
        d.fit(&p);
        d
    }

    #[test]
    fn scores_are_per_feature_nn_distances() {
        let mut d = fitted();
        let s = d.score(&[2.4, 5.0]);
        assert!((s[0] - 0.4).abs() < 1e-12);
        assert!((s[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn member_scores_zero() {
        let mut d = fitted();
        let s = d.score(&[2.0, 20.0]);
        assert_eq!(s, vec![0.0, 0.0]);
    }

    #[test]
    fn unfitted_returns_nan() {
        let mut d = ClosestPairDetector::new(2);
        assert!(!d.is_fitted());
        assert!(d.score(&[1.0, 2.0]).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn reset_unfits() {
        let mut d = fitted();
        assert!(d.is_fitted());
        d.reset();
        assert!(!d.is_fitted());
    }

    #[test]
    fn channel_names_match_features() {
        let features = ["x~y".to_string(), "x~z".to_string()];
        assert_eq!(DetectorKind::ClosestPair.channel_names(&features), features);
        assert_eq!(ClosestPairDetector::new(2).n_channels(), 2);
    }

    #[test]
    fn fit_keeps_each_column_sorted_and_finite() {
        let mut d = ClosestPairDetector::new(2);
        let mut p = ReferenceProfile::new(2, 4);
        for row in [[3.0, f64::NAN], [1.0, -0.0], [2.0, 0.0], [1.0, f64::INFINITY]] {
            p.push(&row);
        }
        d.fit(&p);
        assert_eq!(d.per_feature[0].values(), [1.0, 1.0, 2.0, 3.0]);
        let second: Vec<u64> = d.per_feature[1].values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(second, [(-0.0f64).to_bits(), 0.0f64.to_bits()]);
    }

    #[test]
    fn feature_independence() {
        // A sample far in one feature only alarms that channel.
        let mut d = fitted();
        let s = d.score(&[1000.0, 20.0]);
        assert!(s[0] > 900.0);
        assert_eq!(s[1], 0.0);
    }
}
