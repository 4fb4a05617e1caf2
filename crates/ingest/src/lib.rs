//! `navarchos-ingest` — the sharded fleet ingest engine: the serving seam
//! between a single interleaved telematics feed and the per-vehicle
//! streaming pipelines of the paper's framework.
//!
//! The paper's deployment consumes one FMS record per vehicle per minute;
//! a fleet of hundreds multiplexes those into one tagged stream that
//! carries everything real feeds carry — out-of-order arrivals,
//! duplicates, gaps, malformed records. This crate fans that stream out
//! to N shards by vehicle hash ([`ShardRouter`]), re-sequences each
//! vehicle's arrivals through a bounded [`ReorderBuffer`] with a
//! configurable lateness horizon, and feeds the result into per-vehicle
//! `StreamingPipeline`s ([`ShardedIngest`]). Malformed input is counted
//! into a dead-letter sink, never panicked on; arrivals beyond the
//! horizon are counted and skipped, never allowed to corrupt window
//! state.
//!
//! # The headline contract
//!
//! For any clean stream permuted within the lateness horizon and salted
//! with exact duplicates, the engine's alarms are **byte-identical** to
//! sorted single-vehicle replay (`navarchos_core::replay_interleaved`).
//! `tests/golden.rs` pins this end-to-end on a seeded fleetsim fleet and
//! `tests/props.rs` proves the reorder-buffer half property-based; the
//! release-rule argument itself is in the [`reorder`] module docs.

pub mod checkpoint;
pub mod engine;
pub mod health;
pub mod quality;
pub mod reorder;
pub mod router;

pub use checkpoint::{
    read_checkpoint, write_checkpoint, RestoredEngine, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use engine::{
    AlarmProvenance, DeadLetter, DeadLetterReason, FleetAlarm, IngestConfig, IngestStats,
    ShardedIngest,
};
pub use health::{
    HealthFsm, HealthPolicy, HealthRates, HealthSample, HealthState, HealthThresholds,
    HealthTransition, ShardHealth,
};
pub use quality::{QualityConfig, QualityMonitor, QualitySnapshot};
pub use reorder::{PushOutcome, ReorderBuffer, ReorderStats, SeqKey, Sequenced};
pub use router::ShardRouter;

// The stream item types live in `navarchos-fleetsim` (the feed substrate);
// re-exported here so engine users need only this crate. `SnapError` is
// re-exported so checkpoint callers (the CLI) can match restore failures
// without depending on `navarchos-stat` directly.
pub use navarchos_fleetsim::{StreamBody, StreamItem};
pub use navarchos_stat::SnapError;
