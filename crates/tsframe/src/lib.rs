//! Columnar time-series substrate for the Navarchos PdM workspace.
//!
//! * [`frame`] — a lightweight columnar frame of timestamped multivariate
//!   samples (one column per PID signal).
//! * [`filter`] — the pre-transformation record filters the paper applies:
//!   dropping stationary-vehicle records and out-of-range (faulty sensor)
//!   records.
//! * [`aggregate`] — calendar-day aggregation (mean + standard deviation
//!   per signal) feeding the clustering exploration of Section 2.
//! * [`transform`] — the four data transformations of framework step 1
//!   (raw, delta, mean aggregation, correlation) behind a common streaming
//!   [`transform::Transform`] trait matching Algorithm 1's
//!   `collect`/`ready`/`transform` protocol.
//! * [`mod@resample`] — gap-aware resampling of the irregular OBD-II cadence
//!   onto a regular grid (linear or previous-value fill).
//! * [`rolling`] — O(1)-per-sample rolling mean/variance and monotonic
//!   min/max accumulators.
//! * [`sax`] — Symbolic Aggregate approXimation of a window, the building
//!   block of the paper's future-work direction of artificial events.

pub mod aggregate;
pub mod csv;
pub mod filter;
pub mod frame;
pub mod resample;
pub mod rolling;
pub mod sax;
pub mod transform;

pub use aggregate::{daily_aggregate, DailyAggregate};
pub use filter::{FilterSpec, RowFilter, ValidRange};
pub use frame::Frame;
pub use resample::{resample, FillMethod, ResampleSpec};
pub use rolling::{rolling_mean, rolling_std, RollingExtrema, RollingStats};
pub use transform::{
    CorrelationTransform, DeltaTransform, MeanTransform, RawTransform, Transform, TransformKind,
    WindowCadence,
};
