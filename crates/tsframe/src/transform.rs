//! The four data transformations of framework step 1 (Section 3.2 of the
//! paper), behind one streaming [`Transform`] trait that mirrors
//! Algorithm 1's `collect` / `ready` / `transform` protocol: raw samples go
//! in one at a time, transformed feature vectors come out whenever the
//! transformation's internal buffer allows.
//!
//! The windowed transformations (mean, correlation) run on the incremental
//! sliding-window kernels from [`navarchos_stat::incremental`]: instead of
//! recomputing O(window · f²) sums on every emission, each record updates
//! condensed-pair accumulators in O(f²) on push and evict, which is what
//! makes the paper-scale grid (window 45, stride 3, six signals, hundreds
//! of thousands of records per vehicle) cheap to score.

use crate::frame::Frame;
use navarchos_stat::correlation::CorrelationPairs;
use navarchos_stat::snapshot::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use navarchos_stat::{IncrementalMean, IncrementalPearson};
use std::collections::VecDeque;

/// A streaming data transformation.
///
/// `push` feeds one raw record and returns the transformed sample it
/// completes, if any (windowed transformations emit every `stride` records
/// once their buffer is full). `push_into` is the allocation-free variant
/// used by the scoring hot loops; the two defaults are defined in terms of
/// each other, so an implementor must override at least one.
/// `Debug` is a supertrait so boxed transforms stay inspectable inside the
/// pipeline/runner structs (workspace lint: `missing_debug_implementations`).
/// `Send` is a supertrait so a boxed transform — and any pipeline holding
/// one — can move to a shard worker thread in the fleet ingest engine.
pub trait Transform: std::fmt::Debug + Send {
    /// Number of output features.
    fn output_dim(&self) -> usize;

    /// Names of the output features (for alarm attribution).
    fn output_names(&self) -> Vec<String>;

    /// Feeds one raw record; returns a transformed `(timestamp, features)`
    /// sample when one is completed.
    fn push(&mut self, timestamp: i64, row: &[f64]) -> Option<(i64, Vec<f64>)> {
        let mut out = vec![0.0; self.output_dim()];
        let t = self.push_into(timestamp, row, &mut out)?;
        Some((t, out))
    }

    /// Allocation-free variant of [`Transform::push`]: writes the completed
    /// sample into `out` (which must have length [`Transform::output_dim`])
    /// and returns its timestamp. When no sample is completed, `out` is
    /// left in an unspecified state.
    fn push_into(&mut self, timestamp: i64, row: &[f64], out: &mut [f64]) -> Option<i64> {
        let (t, x) = self.push(timestamp, row)?;
        out.copy_from_slice(&x);
        Some(t)
    }

    /// Clears all buffered state (used when the reference profile resets).
    fn reset(&mut self);

    /// Appends the transform's mutable streaming state to a checkpoint
    /// writer. The default writes nothing — correct for stateless
    /// transforms ([`RawTransform`]); every stateful transform overrides
    /// both this and [`Transform::read_state`] so a restored pipeline
    /// resumes byte-identically.
    fn write_state(&self, w: &mut SnapWriter) {
        let _ = w;
    }

    /// Overwrites the transform's mutable streaming state from a
    /// checkpoint reader (counterpart of [`Transform::write_state`]).
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let _ = r;
        Ok(())
    }

    /// Applies the transformation to a whole frame, returning the
    /// transformed frame. The streaming state is reset before and after.
    fn apply(&mut self, frame: &Frame) -> Frame
    where
        Self: Sized,
    {
        self.reset();
        let names = self.output_names();
        let mut out = Frame::new(&names);
        let mut buf = Vec::with_capacity(frame.width());
        let mut feat = vec![0.0; self.output_dim()];
        for i in 0..frame.len() {
            frame.row_into(i, &mut buf);
            if let Some(t) = self.push_into(frame.timestamps()[i], &buf, &mut feat) {
                out.push_row(t, &feat);
            }
        }
        self.reset();
        out
    }
}

/// Identifies a transformation choice; used by experiment grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// Raw sensor records, unchanged.
    Raw,
    /// First differences between consecutive records.
    Delta,
    /// Windowed mean of each signal.
    Mean,
    /// Windowed pairwise Pearson correlations.
    Correlation,
}

impl TransformKind {
    /// Paper-style short label.
    pub fn label(&self) -> &'static str {
        match self {
            TransformKind::Raw => "raw",
            TransformKind::Delta => "delta",
            TransformKind::Mean => "mean agr.",
            TransformKind::Correlation => "correlation",
        }
    }

    /// Builds the transformation with the given input schema and window
    /// parameters (`window`/`stride` are ignored by raw and delta).
    pub fn build(
        &self,
        input_names: &[String],
        window: usize,
        stride: usize,
    ) -> Box<dyn Transform> {
        match self {
            TransformKind::Raw => Box::new(RawTransform::new(input_names)),
            TransformKind::Delta => Box::new(DeltaTransform::new(input_names)),
            TransformKind::Mean => Box::new(MeanTransform::new(input_names, window, stride)),
            TransformKind::Correlation => {
                Box::new(CorrelationTransform::new(input_names, window, stride))
            }
        }
    }

    /// All four choices, in the paper's presentation order.
    pub fn all() -> [TransformKind; 4] {
        [TransformKind::Raw, TransformKind::Delta, TransformKind::Mean, TransformKind::Correlation]
    }
}

/// Per-signal dynamics floors for the six Navarchos PID signals (same
/// order as the canonical schema): within-window standard deviations below
/// these are sensor noise / regulation residue, not vehicle dynamics.
pub fn navarchos_corr_floors() -> Vec<f64> {
    // Scales for *differenced* signals: roughly 2× the per-minute sensor
    // noise of each PID, so windows whose changes are noise-dominated
    // shrink toward 0.
    vec![25.0, 1.2, 1.0, 1.0, 2.5, 1.8]
}

/// Identity transformation: every record is emitted unchanged.
#[derive(Debug, Clone)]
pub struct RawTransform {
    names: Vec<String>,
}

impl RawTransform {
    /// Creates the transformation for the given input schema.
    pub fn new(input_names: &[String]) -> Self {
        RawTransform { names: input_names.to_vec() }
    }
}

impl Transform for RawTransform {
    fn output_dim(&self) -> usize {
        self.names.len()
    }

    fn output_names(&self) -> Vec<String> {
        self.names.clone()
    }

    fn push_into(&mut self, timestamp: i64, row: &[f64], out: &mut [f64]) -> Option<i64> {
        debug_assert_eq!(row.len(), self.names.len());
        out.copy_from_slice(row);
        Some(timestamp)
    }

    fn reset(&mut self) {}
}

/// First-difference ("delta") transformation: emits `x_t − x_{t−1}` from
/// the second record on — a discrete derivative of each signal
/// (Giobergia et al., DSAA 2018).
#[derive(Debug, Clone)]
pub struct DeltaTransform {
    names: Vec<String>,
    prev_t: Option<i64>,
    prev: Vec<f64>,
    /// Records further apart than this (seconds) are not differenced —
    /// a delta across a parked gap is not a derivative.
    max_gap: i64,
}

impl DeltaTransform {
    /// Creates the transformation for the given input schema.
    pub fn new(input_names: &[String]) -> Self {
        DeltaTransform {
            names: input_names.to_vec(),
            prev_t: None,
            prev: Vec::with_capacity(input_names.len()),
            max_gap: 30 * 60,
        }
    }
}

impl Transform for DeltaTransform {
    fn output_dim(&self) -> usize {
        self.names.len()
    }

    fn output_names(&self) -> Vec<String> {
        self.names.iter().map(|n| format!("d_{n}")).collect()
    }

    fn push_into(&mut self, timestamp: i64, row: &[f64], out: &mut [f64]) -> Option<i64> {
        debug_assert_eq!(row.len(), self.names.len());
        let emit = match self.prev_t {
            Some(pt) if timestamp - pt <= self.max_gap => {
                for ((o, &a), &b) in out.iter_mut().zip(row).zip(&self.prev) {
                    *o = a - b;
                }
                true
            }
            _ => false,
        };
        self.prev_t = Some(timestamp);
        self.prev.clear();
        self.prev.extend_from_slice(row);
        emit.then_some(timestamp)
    }

    fn reset(&mut self) {
        self.prev_t = None;
        self.prev.clear();
    }

    fn write_state(&self, w: &mut SnapWriter) {
        w.put_opt_i64(self.prev_t);
        w.put_f64_slice(&self.prev);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let prev_t = r.get_opt_i64()?;
        let prev = r.get_f64_vec()?;
        if !prev.is_empty() && prev.len() != self.names.len() {
            return Err(SnapError::Corrupt("DeltaTransform prev width mismatch"));
        }
        self.prev_t = prev_t;
        self.prev = prev;
        Ok(())
    }
}

/// Emission cadence shared by the windowed transformations: tracks how
/// many records are buffered, when the window first fills, and the stride
/// between emissions. Holds no sample storage — the incremental kernels
/// own the window contents.
///
/// Public because the checkpoint subsystem treats it as a first-class
/// stateful kernel (xtask L4 registry): its mutable state round-trips
/// through [`Snapshot`]/[`Restore`] alongside the incremental kernels.
#[derive(Debug, Clone)]
pub struct WindowCadence {
    window: usize,
    stride: usize,
    /// Maximum gap between consecutive records (seconds); a larger gap
    /// (the vehicle was parked) clears the window so it never spans ride
    /// boundaries, where cross-signal co-movement is meaningless.
    max_gap: i64,
    last_t: Option<i64>,
    /// Records currently buffered (saturates at `window`).
    len: usize,
    since_emit: usize,
    full_once: bool,
}

impl WindowCadence {
    /// Default operational-gap limit: windows may span parking gaps within
    /// a day (mixing ride regimes inside one window covers the vehicle's
    /// full dynamic range and *stabilises* the correlation estimates), but
    /// an overnight gap starts a fresh window.
    const DEFAULT_MAX_GAP: i64 = 6 * 3600;

    /// Creates the cadence for the given window length and stride
    /// (both in records).
    ///
    /// # Panics
    /// Panics if `window < 2` or `stride < 1`.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(window >= 2, "window must hold at least 2 records");
        assert!(stride >= 1, "stride must be at least 1");
        WindowCadence {
            window,
            stride,
            max_gap: Self::DEFAULT_MAX_GAP,
            last_t: None,
            len: 0,
            since_emit: 0,
            full_once: false,
        }
    }

    /// Whether the window is at capacity (the caller must evict one
    /// record before pushing the next).
    pub fn full(&self) -> bool {
        self.len == self.window
    }

    /// Records currently counted in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no records are counted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers a record at time `t`. Returns true when the gap since the
    /// previous record exceeds `max_gap`, in which case the cadence has
    /// been reset and the caller must clear its kernel state too.
    pub fn gap_reset(&mut self, t: i64) -> bool {
        let stale = matches!(self.last_t, Some(last) if t - last > self.max_gap);
        if stale {
            self.reset();
        }
        self.last_t = Some(t);
        stale
    }

    /// Notes that one record entered the window (after any eviction);
    /// returns true when a transformed sample should be emitted.
    pub fn note_push(&mut self) -> bool {
        if self.len < self.window {
            self.len += 1;
        }
        if self.len < self.window {
            return false;
        }
        if !self.full_once {
            // Emit immediately the first time the window fills.
            self.full_once = true;
            self.since_emit = 0;
            return true;
        }
        self.since_emit += 1;
        if self.since_emit >= self.stride {
            self.since_emit = 0;
            true
        } else {
            false
        }
    }

    /// Clears the cadence back to an empty window.
    pub fn reset(&mut self) {
        self.last_t = None;
        self.len = 0;
        self.since_emit = 0;
        self.full_once = false;
    }
}

impl Snapshot for WindowCadence {
    fn write_state(&self, w: &mut SnapWriter) {
        w.put_opt_i64(self.last_t);
        w.put_usize(self.len);
        w.put_usize(self.since_emit);
        w.put_bool(self.full_once);
    }
}

impl Restore for WindowCadence {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let last_t = r.get_opt_i64()?;
        let len = r.get_usize()?;
        let since_emit = r.get_usize()?;
        let full_once = r.get_bool()?;
        if len > self.window {
            return Err(SnapError::Corrupt("WindowCadence len exceeds window"));
        }
        self.last_t = last_t;
        self.len = len;
        self.since_emit = since_emit;
        self.full_once = full_once;
        Ok(())
    }
}

/// Windowed mean transformation: every `stride` records (once `window`
/// records are buffered) emits the mean of each signal over the window.
/// Backed by [`IncrementalMean`], so each record costs O(f) regardless of
/// the window length.
#[derive(Debug, Clone)]
pub struct MeanTransform {
    names: Vec<String>,
    cadence: WindowCadence,
    kernel: IncrementalMean,
}

impl MeanTransform {
    /// Creates the transformation with the given window length and stride
    /// (both in records).
    pub fn new(input_names: &[String], window: usize, stride: usize) -> Self {
        MeanTransform {
            names: input_names.to_vec(),
            cadence: WindowCadence::new(window, stride),
            kernel: IncrementalMean::new(input_names.len()),
        }
    }
}

impl Transform for MeanTransform {
    fn output_dim(&self) -> usize {
        self.names.len()
    }

    fn output_names(&self) -> Vec<String> {
        self.names.iter().map(|n| format!("mean_{n}")).collect()
    }

    fn push_into(&mut self, timestamp: i64, row: &[f64], out: &mut [f64]) -> Option<i64> {
        debug_assert_eq!(row.len(), self.names.len());
        if self.cadence.gap_reset(timestamp) {
            self.kernel.reset();
        }
        if self.cadence.full() {
            self.kernel.pop_front();
        }
        self.kernel.push(row);
        if !self.cadence.note_push() {
            return None;
        }
        self.kernel.means_into(out);
        Some(timestamp)
    }

    fn reset(&mut self) {
        self.cadence.reset();
        self.kernel.reset();
    }

    fn write_state(&self, w: &mut SnapWriter) {
        self.cadence.write_state(w);
        self.kernel.write_state(w);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cadence.read_state(r)?;
        self.kernel.read_state(r)
    }
}

/// Correlation transformation — the paper's best-performing choice: every
/// `stride` records (once `window` records are buffered) emits the
/// pairwise Pearson correlation of all signals over the window, condensed
/// to f·(f−1)/2 features. Backed by [`IncrementalPearson`], so each
/// record costs O(f²) on push and evict instead of O(window · f²) per
/// emission.
#[derive(Debug, Clone)]
pub struct CorrelationTransform {
    pairs: CorrelationPairs,
    cadence: WindowCadence,
    kernel: IncrementalPearson,
    /// Per-signal dynamics scales. A quasi-constant signal (cruising at
    /// fixed speed, coolant pinned at the thermostat point) makes its
    /// pairwise correlations noise-dominated, so each pair's correlation
    /// is shrunk by smooth per-signal weights `std² / (std² + scale²)`:
    /// fully-dynamic windows keep their correlation, quasi-static ones
    /// fade continuously toward 0 (avoiding a bimodal feature that a hard
    /// gate would create).
    min_std: Option<Vec<f64>>,
    /// Correlate first differences of the signals instead of their levels.
    /// Windowed level series are non-stationary (regime trends dominate),
    /// which makes level correlations composition-dependent — the classic
    /// spurious-correlation problem; differencing isolates the instant
    /// signal-to-signal coupling, which is both stable across usage
    /// regimes and exactly what a developing fault perturbs. Differences
    /// are only taken between records ≤ 2 minutes apart.
    difference: bool,
    /// Previous record (timestamp + values) for the differencing path.
    prev_t: Option<i64>,
    prev_row: Vec<f64>,
    /// One flag per record in the window: true iff the difference between
    /// the record and its predecessor entered the kernel. The kernel's
    /// window is *derived* — evicting the oldest record removes at most
    /// one difference (the one to the new front), so the front flag is
    /// always false.
    diff_flags: VecDeque<bool>,
    diff_scratch: Vec<f64>,
    weights: Vec<f64>,
}

impl CorrelationTransform {
    /// Differences are only taken between records at most this many
    /// seconds apart; a larger gap breaks the derivative interpretation.
    const MAX_DIFF_GAP: i64 = 120;

    /// Creates the transformation with the given window length and stride
    /// (both in records).
    pub fn new(input_names: &[String], window: usize, stride: usize) -> Self {
        CorrelationTransform {
            pairs: CorrelationPairs::new(input_names),
            cadence: WindowCadence::new(window, stride),
            kernel: IncrementalPearson::new(input_names.len()),
            min_std: None,
            difference: false,
            prev_t: None,
            prev_row: Vec::with_capacity(input_names.len()),
            diff_flags: VecDeque::with_capacity(window + 1),
            diff_scratch: Vec::with_capacity(input_names.len()),
            weights: Vec::with_capacity(input_names.len()),
        }
    }

    /// Enables first-difference correlation (see the `difference` field).
    pub fn with_differencing(mut self) -> Self {
        self.difference = true;
        self
    }

    /// Sets the per-signal dynamics floors (one per input signal).
    pub fn with_min_std(mut self, floors: Vec<f64>) -> Self {
        assert_eq!(floors.len(), self.pairs.n_signals(), "one floor per signal");
        self.min_std = Some(floors);
        self
    }

    /// The pair enumeration (for attributing condensed features back to
    /// signal pairs).
    pub fn pairs(&self) -> &CorrelationPairs {
        &self.pairs
    }

    /// Minimum number of differences required before a window may emit;
    /// fewer contiguous pairs cannot estimate anything.
    fn min_diffs(&self) -> usize {
        (self.cadence.window / 2).max(4)
    }
}

impl Transform for CorrelationTransform {
    fn output_dim(&self) -> usize {
        self.pairs.n_pairs()
    }

    fn output_names(&self) -> Vec<String> {
        self.pairs.names()
    }

    fn push_into(&mut self, timestamp: i64, row: &[f64], out: &mut [f64]) -> Option<i64> {
        debug_assert_eq!(row.len(), self.pairs.n_signals());
        debug_assert_eq!(out.len(), self.pairs.n_pairs());
        if self.cadence.gap_reset(timestamp) {
            self.kernel.reset();
            self.diff_flags.clear();
            self.prev_t = None;
            self.prev_row.clear();
        }
        if self.difference {
            if self.cadence.full() {
                // Evict the oldest record; with it goes the difference to
                // the record that now becomes the front (if it was taken).
                self.diff_flags.pop_front();
                if let Some(f) = self.diff_flags.front_mut() {
                    if *f {
                        self.kernel.pop_front();
                        *f = false;
                    }
                }
            }
            let has_diff = match self.prev_t {
                Some(pt) if timestamp - pt <= Self::MAX_DIFF_GAP => {
                    self.diff_scratch.clear();
                    self.diff_scratch.extend(row.iter().zip(&self.prev_row).map(|(&a, &b)| a - b));
                    self.kernel.push(&self.diff_scratch);
                    true
                }
                _ => false,
            };
            self.diff_flags.push_back(has_diff);
            self.prev_t = Some(timestamp);
            self.prev_row.clear();
            self.prev_row.extend_from_slice(row);
        } else {
            if self.cadence.full() {
                self.kernel.pop_front();
            }
            self.kernel.push(row);
        }
        if !self.cadence.note_push() {
            return None;
        }
        if self.difference && self.kernel.len() < self.min_diffs() {
            // Too few contiguous pairs to estimate anything.
            return None;
        }
        self.kernel.corr_into(out);
        if let Some(scales) = &self.min_std {
            self.weights.clear();
            self.weights.extend(self.kernel.sample_vars().zip(scales).map(|(var, &scale)| {
                if var.is_finite() {
                    var / (var + scale * scale)
                } else {
                    0.0
                }
            }));
            for (k, v) in out.iter_mut().enumerate() {
                let (i, j) = self.pairs.pair_indices(k);
                *v *= self.weights[i] * self.weights[j];
            }
        }
        Some(timestamp)
    }

    fn reset(&mut self) {
        self.cadence.reset();
        self.kernel.reset();
        self.diff_flags.clear();
        self.prev_t = None;
        self.prev_row.clear();
    }

    fn write_state(&self, w: &mut SnapWriter) {
        self.cadence.write_state(w);
        self.kernel.write_state(w);
        w.put_opt_i64(self.prev_t);
        w.put_f64_slice(&self.prev_row);
        w.put_usize(self.diff_flags.len());
        for &f in &self.diff_flags {
            w.put_bool(f);
        }
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cadence.read_state(r)?;
        self.kernel.read_state(r)?;
        let prev_t = r.get_opt_i64()?;
        let prev_row = r.get_f64_vec()?;
        if !prev_row.is_empty() && prev_row.len() != self.pairs.n_signals() {
            return Err(SnapError::Corrupt("CorrelationTransform prev_row width mismatch"));
        }
        let n_flags = r.get_len(1)?;
        let mut flags = VecDeque::with_capacity(n_flags);
        for _ in 0..n_flags {
            flags.push_back(r.get_bool()?);
        }
        self.prev_t = prev_t;
        self.prev_row = prev_row;
        self.diff_flags = flags;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn toy_frame() -> Frame {
        let mut f = Frame::new(&["x", "y"]);
        for i in 0..10 {
            f.push_row(i as i64 * 60, &[i as f64, 2.0 * i as f64 + 1.0]);
        }
        f
    }

    #[test]
    fn raw_is_identity() {
        let mut t = RawTransform::new(&names(&["x", "y"]));
        let f = toy_frame();
        let g = t.apply(&f);
        assert_eq!(g.len(), f.len());
        assert_eq!(g.column(0), f.column(0));
        assert_eq!(g.names(), f.names());
    }

    #[test]
    fn delta_first_differences() {
        let mut t = DeltaTransform::new(&names(&["x", "y"]));
        let f = toy_frame();
        let g = t.apply(&f);
        assert_eq!(g.len(), f.len() - 1, "first record has no predecessor");
        assert!(g.column(0).iter().all(|&d| (d - 1.0).abs() < 1e-12));
        assert!(g.column(1).iter().all(|&d| (d - 2.0).abs() < 1e-12));
        assert_eq!(g.names()[0], "d_x");
    }

    #[test]
    fn delta_reset_clears_prev() {
        let mut t = DeltaTransform::new(&names(&["x"]));
        assert!(t.push(0, &[1.0]).is_none());
        assert!(t.push(1, &[2.0]).is_some());
        t.reset();
        assert!(t.push(2, &[5.0]).is_none(), "reset forgets the previous record");
    }

    #[test]
    fn mean_windows_and_stride() {
        let mut t = MeanTransform::new(&names(&["x", "y"]), 4, 2);
        let f = toy_frame();
        let g = t.apply(&f);
        // Window fills at record 4 (x values 0..3, mean 1.5), then every 2.
        assert_eq!(g.len(), 4);
        assert!((g.column(0)[0] - 1.5).abs() < 1e-12);
        assert!((g.column(0)[1] - 3.5).abs() < 1e-12);
        assert_eq!(g.names()[1], "mean_y");
    }

    #[test]
    fn correlation_perfectly_linear_signals() {
        let mut t = CorrelationTransform::new(&names(&["x", "y"]), 5, 1);
        let f = toy_frame();
        let g = t.apply(&f);
        assert_eq!(g.width(), 1);
        assert_eq!(g.names()[0], "x~y");
        // y = 2x + 1 → correlation exactly 1 in every window.
        for &c in g.column(0) {
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn correlation_detects_relationship_flip() {
        let names2 = names(&["a", "b"]);
        let mut t = CorrelationTransform::new(&names2, 4, 4);
        let mut out = Vec::new();
        // First regime: b = a.
        for i in 0..8 {
            if let Some((_, x)) = t.push(i, &[i as f64, i as f64]) {
                out.push(x[0]);
            }
        }
        // Second regime: b = -a (relationship flip, as a fault would cause).
        for i in 8..16 {
            if let Some((_, x)) = t.push(i, &[i as f64, -(i as f64)]) {
                out.push(x[0]);
            }
        }
        assert!((out[0] - 1.0).abs() < 1e-9);
        assert!(*out.last().unwrap() < 0.0, "flip visible in correlation space");
    }

    #[test]
    fn transform_kind_builds_expected_dims() {
        let n = names(&["a", "b", "c"]);
        assert_eq!(TransformKind::Raw.build(&n, 8, 4).output_dim(), 3);
        assert_eq!(TransformKind::Delta.build(&n, 8, 4).output_dim(), 3);
        assert_eq!(TransformKind::Mean.build(&n, 8, 4).output_dim(), 3);
        assert_eq!(TransformKind::Correlation.build(&n, 8, 4).output_dim(), 3);
        let n6 = names(&["a", "b", "c", "d", "e", "f"]);
        assert_eq!(TransformKind::Correlation.build(&n6, 8, 4).output_dim(), 15);
    }

    #[test]
    fn window_emits_immediately_when_full_then_strides() {
        let mut t = MeanTransform::new(&names(&["x"]), 3, 5);
        let mut emitted = Vec::new();
        for i in 0..20 {
            if t.push(i, &[i as f64]).is_some() {
                emitted.push(i);
            }
        }
        assert_eq!(emitted[0], 2, "first emit when the window fills");
        assert_eq!(emitted[1], 7, "then every `stride` records");
        assert_eq!(emitted[2], 12);
    }

    #[test]
    fn push_into_matches_push() {
        let n = names(&["a", "b", "c"]);
        let mut by_push = CorrelationTransform::new(&n, 6, 2)
            .with_differencing()
            .with_min_std(vec![1.0, 2.0, 0.5]);
        let mut by_into = CorrelationTransform::new(&n, 6, 2)
            .with_differencing()
            .with_min_std(vec![1.0, 2.0, 0.5]);
        let mut out = vec![0.0; by_into.output_dim()];
        for i in 0..200i64 {
            // A parked gap every 37 records exercises the reset path; a
            // slow drift plus harmonics keeps the signals non-degenerate.
            let t = i * 60 + (i / 37) * 8 * 3600;
            let x = (i as f64 * 0.37).sin() * 4.0 + i as f64 * 0.01;
            let row = [x, 2.0 * x - (i as f64 * 0.11).cos(), x * x * 0.05];
            let a = by_push.push(t, &row);
            let b = by_into.push_into(t, &row, &mut out);
            assert_eq!(a.as_ref().map(|(at, _)| *at), b, "emission cadence must agree at i={i}");
            if let Some((_, av)) = a {
                for (p, q) in av.iter().zip(&out) {
                    assert!((p - q).abs() < 1e-12, "values must agree at i={i}");
                }
            }
        }
    }

    #[test]
    fn correlation_gap_starts_fresh_window() {
        let n = names(&["x", "y"]);
        let mut t = CorrelationTransform::new(&n, 3, 1);
        assert!(t.push(0, &[1.0, 2.0]).is_none());
        assert!(t.push(60, &[2.0, 1.0]).is_none());
        assert!(t.push(120, &[3.0, 5.0]).is_some(), "window full");
        // An overnight gap clears the buffer: three more records needed.
        assert!(t.push(120 + 12 * 3600, &[1.0, 2.0]).is_none());
        assert!(t.push(120 + 12 * 3600 + 60, &[2.0, 1.0]).is_none());
        assert!(t.push(120 + 12 * 3600 + 120, &[3.0, 5.0]).is_some());
    }

    #[test]
    #[should_panic]
    fn window_of_one_panics() {
        MeanTransform::new(&names(&["x"]), 1, 1);
    }
}
