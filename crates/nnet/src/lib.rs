//! A small, self-contained neural-network substrate with manual
//! backpropagation, built to host the TranAD reconstruction detector of
//! the paper's framework step 3 (Tuli et al., VLDB 2022).
//!
//! * [`matrix`] — dense row-major `f64` matrix kernel.
//! * [`layers`] — linear, layer-norm and GELU modules with explicit
//!   forward caches and gradient accumulation, plus the Adam optimiser.
//! * [`attention`] — multi-head self-attention with full backward pass.
//! * [`encoder`] — a pre-norm transformer encoder block.
//! * [`tranad`] — the TranAD-style two-decoder reconstruction model with
//!   self-conditioning and a two-phase loss schedule.
//!
//! Everything is deterministic given a seed; no threads, no BLAS — the
//! matrices involved (window length ≤ 16, model width ≤ 64) are far below
//! the sizes where either would pay off.

pub mod attention;
pub mod encoder;
pub mod layers;
pub mod matrix;
pub mod tranad;

pub use layers::{Adam, Gelu, LayerNorm, Linear};
pub use matrix::Matrix;
pub use tranad::{TranAd, TranAdConfig};
