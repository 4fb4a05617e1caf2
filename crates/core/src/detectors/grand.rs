//! The Grand inductive detector (Section 3.4; Rögnvaldsson et al., DMKD
//! 2018): a non-conformity measure against the vehicle's own reference
//! profile, conformal p-values, and a power-martingale exchangeability
//! test whose deviation level in [0, 1] is thresholded with constant
//! values.

use super::Detector;
use crate::reference::ReferenceProfile;
use navarchos_neighbors::{KnnIndex, LofModel, Metric};
use navarchos_stat::martingale::{conformal_pvalue, PowerMartingale};

/// Grand's non-conformity measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrandNcm {
    /// Distance from the component-wise median of the reference.
    Median,
    /// Average distance to the k nearest reference samples.
    Knn,
    /// Local outlier factor against the reference.
    Lof,
}

impl GrandNcm {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            GrandNcm::Median => "median",
            GrandNcm::Knn => "knn",
            GrandNcm::Lof => "lof",
        }
    }
}

#[derive(Debug)]
enum FittedNcm {
    Median { median: Vec<f64> },
    Knn { index: KnnIndex, k: usize },
    Lof { model: LofModel },
}

impl FittedNcm {
    fn score(&self, x: &[f64]) -> f64 {
        match self {
            FittedNcm::Median { median } => navarchos_neighbors::euclidean(x, median),
            FittedNcm::Knn { index, k } => index.knn_score(x, *k, None),
            FittedNcm::Lof { model } => model.score(x),
        }
    }
}

/// The Grand inductive detector.
#[derive(Debug)]
pub struct GrandDetector {
    dim: usize,
    ncm_kind: GrandNcm,
    k: usize,
    martingale_window: usize,
    fitted: Option<FittedNcm>,
    /// Leave-one-out non-conformity scores of the reference members — the
    /// calibration set for conformal p-values.
    calibration: Vec<f64>,
    martingale: PowerMartingale,
}

impl GrandDetector {
    /// Creates an unfitted detector for `dim`-dimensional samples.
    pub fn new(dim: usize, ncm: GrandNcm, k: usize, martingale_window: usize) -> Self {
        assert!(dim > 0 && k > 0 && martingale_window > 0);
        GrandDetector {
            dim,
            ncm_kind: ncm,
            k,
            martingale_window,
            fitted: None,
            calibration: Vec::new(),
            martingale: PowerMartingale::default().with_window(martingale_window),
        }
    }

    /// The configured non-conformity measure.
    pub fn ncm(&self) -> GrandNcm {
        self.ncm_kind
    }
}

impl Detector for GrandDetector {
    fn n_channels(&self) -> usize {
        1
    }

    fn fit(&mut self, reference: &ReferenceProfile) {
        assert_eq!(reference.dim(), self.dim, "profile width mismatch");
        let n = reference.len();
        assert!(n > self.k, "reference smaller than the neighbourhood size");
        let rows = reference.rows();

        // Calibration scores are leave-one-out so reference members do not
        // score themselves as their own neighbours.
        let mut calibration = Vec::with_capacity(n);
        let fitted = match self.ncm_kind {
            GrandNcm::Median => {
                let median = KnnIndex::new(&rows, self.dim, Metric::Euclidean).median_point();
                for row in &rows {
                    calibration.push(navarchos_neighbors::euclidean(row, &median));
                }
                FittedNcm::Median { median }
            }
            GrandNcm::Knn => {
                let index = KnnIndex::new(&rows, self.dim, Metric::Euclidean);
                for i in 0..n {
                    calibration.push(index.knn_score(index.point(i), self.k, Some(i)));
                }
                FittedNcm::Knn { index, k: self.k }
            }
            GrandNcm::Lof => {
                let model = LofModel::fit(&rows, self.dim, self.k, Metric::Euclidean);
                calibration.extend_from_slice(model.reference_scores());
                FittedNcm::Lof { model }
            }
        };

        self.fitted = Some(fitted);
        self.calibration = calibration;
        self.martingale = PowerMartingale::default().with_window(self.martingale_window);
    }

    fn score(&mut self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.dim);
        let Some(ncm) = &self.fitted else {
            return vec![f64::NAN];
        };
        let s = ncm.score(x);
        // Deterministic mid-p conformal p-value (θ = 0.5).
        let p = conformal_pvalue(&self.calibration, s, 0.5);
        vec![self.martingale.update(p)]
    }

    fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    fn reset(&mut self) {
        self.fitted = None;
        self.calibration.clear();
        self.martingale.reset();
    }

    fn uses_constant_threshold(&self) -> bool {
        true
    }

    // `fit` deterministically rebuilds the NCM index and calibration set
    // from the restored reference profile (and resets the martingale), so
    // only the martingale's evolved state needs to travel.
    fn write_state(&self, w: &mut navarchos_stat::SnapWriter) {
        navarchos_stat::Snapshot::write_state(&self.martingale, w);
    }

    fn read_state(
        &mut self,
        r: &mut navarchos_stat::SnapReader<'_>,
    ) -> Result<(), navarchos_stat::SnapError> {
        navarchos_stat::Restore::read_state(&mut self.martingale, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reference profile of 2-D points on a small grid.
    fn grid_profile() -> ReferenceProfile {
        let mut p = ReferenceProfile::new(2, 36);
        for i in 0..6 {
            for j in 0..6 {
                p.push(&[i as f64 * 0.1, j as f64 * 0.1]);
            }
        }
        p
    }

    fn run_stream(d: &mut GrandDetector, samples: &[[f64; 2]]) -> f64 {
        let mut last = 0.0;
        for s in samples {
            last = d.score(s)[0];
        }
        last
    }

    #[test]
    fn deviation_rises_under_persistent_strangeness() {
        for ncm in [GrandNcm::Median, GrandNcm::Knn, GrandNcm::Lof] {
            let mut d = GrandDetector::new(2, ncm, 5, 40);
            d.fit(&grid_profile());
            // Healthy stream: points inside the grid.
            let healthy: Vec<[f64; 2]> =
                (0..60).map(|i| [(i % 6) as f64 * 0.1, ((i / 6) % 6) as f64 * 0.1]).collect();
            let dev_healthy = run_stream(&mut d, &healthy);
            // Anomalous stream: far outside.
            let anomalous: Vec<[f64; 2]> = (0..60).map(|i| [5.0 + i as f64 * 0.01, 5.0]).collect();
            let dev_anom = run_stream(&mut d, &anomalous);
            assert!(
                dev_anom > dev_healthy + 0.3,
                "{ncm:?}: anomalous {dev_anom} vs healthy {dev_healthy}"
            );
            assert!((0.0..=1.0).contains(&dev_anom));
        }
    }

    #[test]
    fn healthy_stream_stays_low() {
        let mut d = GrandDetector::new(2, GrandNcm::Knn, 5, 40);
        d.fit(&grid_profile());
        let mut max_dev = 0.0f64;
        for i in 0..300 {
            // Points jittered inside the grid (deterministic pattern).
            let x = [
                (i % 6) as f64 * 0.1 + 0.01 * ((i * 7 % 10) as f64 - 5.0) / 5.0,
                ((i / 6) % 6) as f64 * 0.1,
            ];
            max_dev = max_dev.max(d.score(&x)[0]);
        }
        assert!(max_dev < 0.9, "healthy max deviation {max_dev}");
    }

    #[test]
    fn constant_threshold_flag() {
        let d = GrandDetector::new(2, GrandNcm::Lof, 3, 10);
        assert!(d.uses_constant_threshold());
        assert_eq!(d.n_channels(), 1);
    }

    #[test]
    fn reset_clears_model_and_martingale() {
        let mut d = GrandDetector::new(2, GrandNcm::Median, 3, 10);
        d.fit(&grid_profile());
        for _ in 0..20 {
            d.score(&[9.0, 9.0]);
        }
        d.reset();
        assert!(!d.is_fitted());
        assert!(d.score(&[0.0, 0.0])[0].is_nan());
    }

    #[test]
    #[should_panic]
    fn tiny_reference_panics() {
        let mut p = ReferenceProfile::new(2, 3);
        p.push(&[0.0, 0.0]);
        p.push(&[1.0, 1.0]);
        p.push(&[2.0, 2.0]);
        let mut d = GrandDetector::new(2, GrandNcm::Knn, 5, 10);
        d.fit(&p);
    }
}
