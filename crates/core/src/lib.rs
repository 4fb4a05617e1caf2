//! The Navarchos PdM framework — the paper's primary contribution.
//!
//! The framework detects behavioural changes of fleet vehicles that
//! precede failures, from six OBD-II PID signals and a *partial* event
//! log, with three pluggable steps (Section 3 of the paper):
//!
//! 1. **Data transformation** (re-exported from `navarchos-tsframe`):
//!    raw, delta, windowed mean, or windowed pairwise correlation.
//! 2. **Reference profile** ([`crate::reference`]): a dynamic "healthy" dataset
//!    `Ref`, rebuilt after each recorded maintenance event under a
//!    configurable [`reference::ResetPolicy`].
//! 3. **Unsupervised scoring** ([`detectors`]): Closest-pair, Grand
//!    inductive, TranAD, or per-feature XGBoost regression, behind one
//!    [`detectors::Detector`] trait.
//!
//! [`threshold`] implements the self-tuning threshold (mean + factor·std
//! on held-out healthy scores), [`pipeline`] the streaming loop of the
//! paper's Algorithm 1, [`runner`] the batch scorer used by experiments,
//! [`evaluation`] the PH-based precision/recall/F-score protocol, and
//! [`par`] the scoped fork-join helper behind every fleet-parallel loop.

pub mod aggregator;
pub mod detectors;
pub mod evaluation;
pub mod par;
pub mod pipeline;
pub mod prelude;
pub mod reference;
pub mod runner;
pub mod threshold;

pub use aggregator::{AlarmAggregator, AlarmInstance};
pub use detectors::{Detector, DetectorKind};
pub use evaluation::{evaluate, sweep_best, EvalCounts, EvalParams};
pub use par::{par_map, par_map_mut};
pub use pipeline::{replay_interleaved, replay_stream, Alarm, PipelineConfig, StreamingPipeline};
pub use reference::ResetPolicy;
pub use runner::{run_vehicle, RunnerParams, VehicleScores};
pub use threshold::SelfTuningThreshold;

// Re-export the transformation layer so downstream users need only this
// crate for the full framework.
pub use navarchos_tsframe::{
    CorrelationTransform, DeltaTransform, Frame, MeanTransform, RawTransform, Transform,
    TransformKind,
};
