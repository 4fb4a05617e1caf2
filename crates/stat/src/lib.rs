//! Statistical foundation for the Navarchos PdM workspace.
//!
//! This crate provides every piece of statistics the paper's pipeline and
//! evaluation rely on:
//!
//! * [`descriptive`] — means, variances, medians, quantiles and incremental
//!   (Welford) accumulators used by thresholding and aggregation.
//! * [`correlation`] — Pearson / Spearman correlation and condensed pairwise
//!   correlation vectors (the paper's *correlation transformation*).
//! * [`incremental`] — incremental sliding-window kernels (condensed-pair
//!   Pearson, windowed mean) with O(f²)/O(f) push-evict, behind the
//!   streaming transformations' hot path.
//! * [`special`] — log-gamma, error function and regularised incomplete gamma
//!   used by the distributions.
//! * [`dist`] — normal and chi-squared distributions for hypothesis tests.
//! * [`ranking`] — Friedman test, Wilcoxon signed-rank test, Holm correction
//!   and the average-rank "critical diagram" analysis used in Figures 6 and 7
//!   of the paper (the `autorank` procedure).
//! * [`martingale`] — conformal p-values and the power-martingale
//!   exchangeability test (Dai & Bouguelia) behind the Grand detector.
//! * [`drift`] — sequential change detectors (CUSUM, Page–Hinkley, EWMA
//!   chart) for the *unrecorded* baseline shifts the paper's discussion
//!   section blames for most of the task's difficulty. Neither the
//!   pipeline nor an experiment runs them.
//! * [`snapshot`] — the framed-binary checkpoint codec and the
//!   [`Snapshot`]/[`Restore`] traits every stateful kernel implements so
//!   serving processes can checkpoint and resume byte-identically.

pub mod correlation;
pub mod descriptive;
pub mod dist;
pub mod drift;
pub mod incremental;
pub mod martingale;
pub mod ranking;
pub mod snapshot;
pub mod special;

pub use correlation::{pearson, spearman, CorrelationPairs};
pub use descriptive::{mean, median, quantile, sample_std, sample_var, RunningStats};
pub use dist::{chi_squared_sf, normal_cdf, normal_quantile, normal_sf};
pub use drift::{Cusum, EwmaChart, PageHinkley, ShiftDirection, TwoSidedCusum};
pub use incremental::{IncrementalMean, IncrementalPearson};
pub use martingale::{conformal_pvalue, PowerMartingale};
pub use ranking::{
    average_ranks, friedman_test, holm_correction, wilcoxon_signed_rank, RankAnalysis,
};
pub use snapshot::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
