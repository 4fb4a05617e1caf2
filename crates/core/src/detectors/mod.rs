//! Framework step 3: the four unsupervised anomaly scorers compared by the
//! paper, behind one [`Detector`] trait.
//!
//! A detector is fitted on a full reference profile, then scores incoming
//! transformed samples one at a time. Scores are raw (unthresholded):
//! thresholding lives in [`crate::threshold`] so factor sweeps never
//! require re-scoring.

mod closest_pair;
mod grand;
mod tranad;
mod xgboost;

pub use closest_pair::ClosestPairDetector;
pub use grand::{GrandDetector, GrandNcm};
pub use tranad::TranAdDetector;
pub use xgboost::XgboostDetector;

use crate::reference::ReferenceProfile;

/// An unsupervised anomaly scorer.
///
/// `Debug` is a supertrait so boxed detectors stay inspectable inside the
/// pipeline/runner structs (workspace lint: `missing_debug_implementations`).
/// `Send` is a supertrait so a boxed detector — and any pipeline holding
/// one — can move to a shard worker thread in the fleet ingest engine.
pub trait Detector: std::fmt::Debug + Send {
    /// Number of score channels emitted per sample (per-feature detectors
    /// emit one channel per input feature; Grand and TranAD emit one).
    fn n_channels(&self) -> usize;

    /// Fits the detector on a completed reference profile.
    ///
    /// # Panics
    /// Implementations panic if the profile is empty or its width differs
    /// from the detector's input dimension.
    fn fit(&mut self, reference: &ReferenceProfile);

    /// Scores one transformed sample. Returns one value per channel;
    /// higher = more anomalous. Stateful detectors (TranAD's rolling
    /// window, Grand's martingale) update their internal state.
    fn score(&mut self, x: &[f64]) -> Vec<f64>;

    /// Whether the detector has been fitted.
    fn is_fitted(&self) -> bool;

    /// Drops the fitted model and any streaming state (a reference reset).
    fn reset(&mut self);

    /// Grand produces calibrated deviation levels in [0, 1] and is
    /// thresholded with constant values; everything else uses the
    /// self-tuning threshold (Section 4 of the paper).
    fn uses_constant_threshold(&self) -> bool {
        false
    }

    /// Appends the detector's mutable *streaming* state to a checkpoint
    /// writer. Fitted models themselves are not serialised: `fit` is
    /// deterministic given the reference profile and seeded params, so the
    /// restoring pipeline re-fits from the restored profile and then calls
    /// [`Detector::read_state`] to recover what a re-fit cannot — the
    /// rolling windows and martingale state that evolved after fitting.
    /// The default writes nothing, which is correct for the stateless
    /// scorers (closest-pair, XGBoost).
    fn write_state(&self, w: &mut navarchos_stat::SnapWriter) {
        let _ = w;
    }

    /// Overwrites the detector's mutable streaming state from a checkpoint
    /// reader (counterpart of [`Detector::write_state`]; called after
    /// re-fitting).
    fn read_state(
        &mut self,
        r: &mut navarchos_stat::SnapReader<'_>,
    ) -> Result<(), navarchos_stat::SnapError> {
        let _ = r;
        Ok(())
    }
}

/// Identifies a detector choice; used by experiment grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// Per-feature 1-NN distance to the reference (Section 3.3).
    ClosestPair,
    /// Conformal anomaly detection with a martingale deviation level
    /// (Section 3.4), with the given non-conformity measure.
    Grand(GrandNcm),
    /// Transformer reconstruction error (Section 3.5).
    TranAd,
    /// Per-feature gradient-boosted regression loss (Section 3.6).
    Xgboost,
}

/// Tuning knobs shared by the detector factory. Defaults follow the
/// evaluation setup of Section 4 scaled to this repository's simulator.
#[derive(Debug, Clone, Copy)]
pub struct DetectorParams {
    /// Neighbourhood size for Grand's kNN/LOF measures.
    pub grand_k: usize,
    /// Martingale sliding memory (updates).
    pub grand_martingale_window: usize,
    /// TranAD window length.
    pub tranad_window: usize,
    /// TranAD training epochs.
    pub tranad_epochs: usize,
    /// TranAD training-window cap.
    pub tranad_max_windows: usize,
    /// XGBoost boosting rounds.
    pub xgb_rounds: usize,
    /// XGBoost tree depth.
    pub xgb_depth: usize,
    /// Seed for the learned detectors.
    pub seed: u64,
}

impl Default for DetectorParams {
    fn default() -> Self {
        DetectorParams {
            grand_k: 10,
            grand_martingale_window: 60,
            tranad_window: 8,
            tranad_epochs: 6,
            tranad_max_windows: 600,
            xgb_rounds: 50,
            xgb_depth: 4,
            seed: 42,
        }
    }
}

impl DetectorKind {
    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            DetectorKind::ClosestPair => "Closest-pair",
            DetectorKind::Grand(_) => "Grand",
            DetectorKind::TranAd => "TranAD",
            DetectorKind::Xgboost => "XGBoost",
        }
    }

    /// The four techniques in the paper's presentation order.
    pub fn all() -> [DetectorKind; 4] {
        [
            DetectorKind::Grand(GrandNcm::Lof),
            DetectorKind::ClosestPair,
            DetectorKind::TranAd,
            DetectorKind::Xgboost,
        ]
    }

    /// Builds the detector for inputs of width `dim`.
    pub fn build(&self, dim: usize, params: &DetectorParams) -> Box<dyn Detector> {
        match self {
            DetectorKind::ClosestPair => Box::new(ClosestPairDetector::new(dim)),
            DetectorKind::Grand(ncm) => Box::new(GrandDetector::new(
                dim,
                *ncm,
                params.grand_k,
                params.grand_martingale_window,
            )),
            DetectorKind::TranAd => Box::new(TranAdDetector::new(dim, params)),
            DetectorKind::Xgboost => Box::new(XgboostDetector::new(dim, params)),
        }
    }

    /// Human-readable names of the score channels this detector emits for
    /// inputs with the given feature names, for alarm attribution:
    /// per-feature detectors name each channel after its feature, Grand
    /// and TranAD emit one named channel.
    pub fn channel_names(&self, features: &[String]) -> Vec<String> {
        match self {
            DetectorKind::ClosestPair | DetectorKind::Xgboost => features.to_vec(),
            DetectorKind::Grand(ncm) => vec![format!("grand-{}", ncm.label())],
            DetectorKind::TranAd => vec!["tranad-reconstruction".to_string()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_names_match_the_built_channels() {
        let features = ["x~y".to_string(), "x~z".to_string(), "y~z".to_string()];
        let params = DetectorParams::default();
        for kind in DetectorKind::all() {
            let names = kind.channel_names(&features);
            assert_eq!(names.len(), kind.build(features.len(), &params).n_channels(), "{kind:?}");
        }
        assert_eq!(DetectorKind::ClosestPair.channel_names(&features), features);
        assert_eq!(DetectorKind::Xgboost.channel_names(&features), features);
        assert_eq!(DetectorKind::Grand(GrandNcm::Lof).channel_names(&features), ["grand-lof"]);
        assert_eq!(DetectorKind::TranAd.channel_names(&features), ["tranad-reconstruction"]);
    }
}
