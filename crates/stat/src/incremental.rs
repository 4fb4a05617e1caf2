//! Incremental sliding-window kernels behind the streaming transformations.
//!
//! The paper's correlation transformation emits the condensed pairwise
//! Pearson vector of a sliding window every `stride` records. Recomputing
//! the full window per emission costs O(window · f²) per stride;
//! [`IncrementalPearson`] maintains running sums (Σx, Σx² per signal and
//! Σxy per pair) so that absorbing or evicting one record is O(f²) and an
//! emission is O(f²) regardless of the window length. [`IncrementalMean`]
//! is the analogous O(f) accumulator for the windowed-mean transformation.
//!
//! Both kernels use a pivot-shift + periodic-rebuild anti-drift pattern:
//! samples are accumulated as
//! `x − pivot` with a recent sample as the pivot (so the catastrophic
//! cancellation of naive sliding sums at large offsets cannot occur), and
//! all sums are rebuilt from the buffered rows — with a fresh pivot —
//! after a bounded number of evictions, so floating-point drift cannot
//! accumulate without bound.
//!
//! Eviction is explicit (`pop_front`) rather than capacity-driven because
//! the differenced correlation transform slides a *derived* window: one
//! evicted telemetry record removes at most one difference row, and only
//! the caller knows which.

use std::collections::VecDeque;

use crate::snapshot::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

/// Minimum eviction count between two rebuilds, so near-empty windows do
/// not rebuild on every eviction.
const MIN_REBUILD_PERIOD: usize = 16;

/// An accumulator-derived centered Σd² is trusted only when it is at least
/// this fraction of the signal's absorbed *energy* (the monotone Σd² over
/// every row pushed or evicted since the last rebuild). The running sums
/// carry a cancellation residue of roughly `ops · ε · energy` — comparing
/// against the current Σd² would be circular, since after a varying
/// prefix leaves a now-constant window the current sums are themselves
/// pure residue. Requiring `sxx > 1e-4 · energy` keeps the relative error
/// of a trusted value below ~1e-9; below the threshold the per-signal
/// stats are re-derived from storage with a fresh pivot.
const ACCUMULATOR_TRUST: f64 = 1e-4;

/// Incremental windowed mean over multi-signal rows: O(f) push/evict,
/// O(f) mean extraction.
///
/// ```
/// use navarchos_stat::incremental::IncrementalMean;
///
/// let mut acc = IncrementalMean::new(2);
/// acc.push(&[1.0, 10.0]);
/// acc.push(&[3.0, 30.0]);
/// let mut out = [0.0; 2];
/// acc.means_into(&mut out);
/// assert_eq!(out, [2.0, 20.0]);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalMean {
    width: usize,
    /// Flat row-major raw sample storage (`len · width` values).
    rows: VecDeque<f64>,
    pivot: Vec<f64>,
    /// Σ(x − pivot) per signal.
    sum: Vec<f64>,
    evictions: usize,
    /// Scratch for the evicted row.
    scratch: Vec<f64>,
}

impl IncrementalMean {
    /// Creates the accumulator for rows of `width` signals.
    ///
    /// # Panics
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        IncrementalMean {
            width,
            rows: VecDeque::new(),
            pivot: vec![0.0; width],
            sum: vec![0.0; width],
            evictions: 0,
            scratch: Vec::with_capacity(width),
        }
    }

    /// Number of rows currently buffered.
    pub fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    /// Whether no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Absorbs one row.
    ///
    /// # Panics
    /// Panics if `row.len() != width`.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        debug_assert!(
            row.iter().all(|v| v.is_finite()),
            "incremental kernels expect finite samples (filter upstream)"
        );
        if self.rows.is_empty() {
            self.pivot.clear();
            self.pivot.extend_from_slice(row);
        }
        for ((s, &x), &p) in self.sum.iter_mut().zip(row).zip(&self.pivot) {
            *s += x - p;
        }
        self.rows.extend(row.iter().copied());
    }

    /// Evicts the oldest row (no-op while empty).
    pub fn pop_front(&mut self) {
        if self.rows.len() < self.width {
            return;
        }
        self.scratch.clear();
        let width = self.width;
        self.scratch.extend(self.rows.drain(..width));
        for ((s, &x), &p) in self.sum.iter_mut().zip(&self.scratch).zip(&self.pivot) {
            *s -= x - p;
        }
        self.evictions += 1;
        if self.evictions >= (2 * self.len()).max(MIN_REBUILD_PERIOD) {
            self.rebuild();
        }
    }

    /// Re-derives the pivot and sums from the buffered rows (anti-drift).
    fn rebuild(&mut self) {
        self.evictions = 0;
        let width = self.width;
        let slice = self.rows.make_contiguous();
        let mut chunks = slice.chunks_exact(width);
        self.pivot.clear();
        match chunks.next() {
            Some(front) => self.pivot.extend_from_slice(front),
            None => self.pivot.resize(width, 0.0),
        }
        self.sum.fill(0.0);
        for row in slice.chunks_exact(width) {
            for ((s, &x), &p) in self.sum.iter_mut().zip(row).zip(&self.pivot) {
                *s += x - p;
            }
        }
    }

    /// Writes the per-signal means of the buffered rows into `out`
    /// (`NaN` everywhere while empty).
    ///
    /// # Panics
    /// Panics if `out.len() != width`.
    pub fn means_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.width, "output width mismatch");
        let n = self.len();
        if n == 0 {
            out.fill(f64::NAN);
            return;
        }
        let nf = n as f64;
        for ((o, &s), &p) in out.iter_mut().zip(&self.sum).zip(&self.pivot) {
            *o = p + s / nf;
        }
    }

    /// Clears all buffered state.
    pub fn reset(&mut self) {
        self.rows.clear();
        self.pivot.fill(0.0);
        self.sum.fill(0.0);
        self.evictions = 0;
    }
}

// The accumulators are serialised verbatim — rows, pivot, sums and the
// eviction counter — rather than rebuilt from the rows on restore. A
// rebuild would re-pivot at the current front row, changing the residues
// carried in `sum`, and the eviction counter schedules the *next* rebuild;
// either difference can flip low-order bits of a downstream score, which
// the checkpoint contract (byte-identical alarms) forbids.
impl Snapshot for IncrementalMean {
    fn write_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.width);
        w.put_f64_seq(self.rows.len(), self.rows.iter().copied());
        w.put_f64_slice(&self.pivot);
        w.put_f64_slice(&self.sum);
        w.put_usize(self.evictions);
    }
}

impl Restore for IncrementalMean {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let width = r.get_usize()?;
        if width != self.width {
            return Err(SnapError::Corrupt("IncrementalMean width mismatch"));
        }
        let shape = "IncrementalMean state shape mismatch";
        let rows = r.get_f64_iter()?;
        if rows.len() % width != 0 {
            return Err(SnapError::Corrupt(shape));
        }
        self.rows.clear();
        self.rows.extend(rows);
        r.get_f64_exact(&mut self.pivot, shape)?;
        r.get_f64_exact(&mut self.sum, shape)?;
        self.evictions = r.get_usize()?;
        Ok(())
    }
}

impl Snapshot for IncrementalPearson {
    fn write_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.n_signals);
        w.put_f64_seq(self.rows.len(), self.rows.iter().copied());
        w.put_f64_slice(&self.pivot);
        w.put_f64_slice(&self.sum);
        w.put_f64_slice(&self.sum_sq);
        w.put_f64_slice(&self.sum_xy);
        w.put_f64_slice(&self.energy);
        w.put_usize(self.evictions);
    }
}

impl Restore for IncrementalPearson {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n_signals = r.get_usize()?;
        if n_signals != self.n_signals {
            return Err(SnapError::Corrupt("IncrementalPearson width mismatch"));
        }
        let shape = "IncrementalPearson state shape mismatch";
        let rows = r.get_f64_iter()?;
        if rows.len() % n_signals != 0 {
            return Err(SnapError::Corrupt(shape));
        }
        self.rows.clear();
        self.rows.extend(rows);
        r.get_f64_exact(&mut self.pivot, shape)?;
        r.get_f64_exact(&mut self.sum, shape)?;
        r.get_f64_exact(&mut self.sum_sq, shape)?;
        r.get_f64_exact(&mut self.sum_xy, shape)?;
        r.get_f64_exact(&mut self.energy, shape)?;
        self.evictions = r.get_usize()?;
        Ok(())
    }
}

/// Incremental condensed pairwise Pearson over multi-signal rows:
/// O(f²) push/evict, O(f²) correlation extraction — independent of the
/// window length, where the batch recomputation is O(window · f²).
///
/// Produces the same values as
/// [`crate::correlation::CorrelationPairs::condensed_pearson`] over the
/// buffered rows (up to floating-point rounding, bounded by the periodic
/// rebuild), in the same canonical pair order (0,1), (0,2), … and with the
/// same degenerate-signal contract: a (numerically) constant signal zeroes
/// every correlation it participates in, and fewer than two rows yield
/// `NaN`.
#[derive(Debug, Clone)]
pub struct IncrementalPearson {
    n_signals: usize,
    n_pairs: usize,
    /// Flat row-major raw sample storage (`len · n_signals` values).
    rows: VecDeque<f64>,
    pivot: Vec<f64>,
    /// Σ(x − pivot) per signal.
    sum: Vec<f64>,
    /// Σ(x − pivot)² per signal.
    sum_sq: Vec<f64>,
    /// Σ(x − pivot_i)(y − pivot_j) per condensed pair, canonical order.
    sum_xy: Vec<f64>,
    /// Monotone Σ(x − pivot)² over every row absorbed *or* evicted since
    /// the last rebuild: the scale against which cancellation residue in
    /// `sum`/`sum_sq` is bounded (see [`ACCUMULATOR_TRUST`]).
    energy: Vec<f64>,
    evictions: usize,
    /// Scratch: the pivot-shifted row being absorbed or evicted.
    shifted: Vec<f64>,
    /// Scratch: per-signal (sum, centered Σ², degenerate) at extraction.
    stats: Vec<(f64, f64, bool)>,
    /// Scratch: front-pivoted per-signal Σd and Σd², re-derived from the
    /// buffered rows at extraction time (see `fresh_signal_stats`).
    fresh_sum: Vec<f64>,
    fresh_sq: Vec<f64>,
}

impl IncrementalPearson {
    /// Creates the accumulator for rows of `n_signals` signals.
    ///
    /// # Panics
    /// Panics if `n_signals < 2` (no pairs exist below two signals).
    pub fn new(n_signals: usize) -> Self {
        assert!(n_signals >= 2, "pairwise correlation needs at least 2 signals");
        let n_pairs = n_signals * (n_signals - 1) / 2;
        IncrementalPearson {
            n_signals,
            n_pairs,
            rows: VecDeque::new(),
            pivot: vec![0.0; n_signals],
            sum: vec![0.0; n_signals],
            sum_sq: vec![0.0; n_signals],
            sum_xy: vec![0.0; n_pairs],
            energy: vec![0.0; n_signals],
            evictions: 0,
            shifted: Vec::with_capacity(n_signals),
            stats: Vec::with_capacity(n_signals),
            fresh_sum: Vec::with_capacity(n_signals),
            fresh_sq: Vec::with_capacity(n_signals),
        }
    }

    /// Number of underlying signals f.
    pub fn n_signals(&self) -> usize {
        self.n_signals
    }

    /// Number of condensed features f·(f−1)/2.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of rows currently buffered.
    pub fn len(&self) -> usize {
        self.rows.len() / self.n_signals
    }

    /// Whether no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Applies the pivot-shifted row in `self.shifted` to the sums with
    /// sign `dir` (+1 absorb, −1 evict).
    fn apply_shifted(&mut self, dir: f64) {
        for (((s, q), e), &d) in self
            .sum
            .iter_mut()
            .zip(self.sum_sq.iter_mut())
            .zip(self.energy.iter_mut())
            .zip(&self.shifted)
        {
            *s += dir * d;
            *q += dir * d * d;
            *e += d * d;
        }
        let mut xy = self.sum_xy.iter_mut();
        for (i, &di) in self.shifted.iter().enumerate() {
            for &dj in self.shifted.iter().skip(i + 1) {
                if let Some(s) = xy.next() {
                    *s += dir * di * dj;
                }
            }
        }
    }

    /// Absorbs one row.
    ///
    /// # Panics
    /// Panics if `row.len() != n_signals`.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.n_signals, "row width mismatch");
        debug_assert!(
            row.iter().all(|v| v.is_finite()),
            "incremental kernels expect finite samples (filter upstream)"
        );
        if self.rows.is_empty() {
            self.pivot.clear();
            self.pivot.extend_from_slice(row);
        }
        self.shifted.clear();
        self.shifted.extend(row.iter().zip(&self.pivot).map(|(&x, &p)| x - p));
        self.apply_shifted(1.0);
        self.rows.extend(row.iter().copied());
    }

    /// Evicts the oldest row (no-op while empty).
    pub fn pop_front(&mut self) {
        if self.rows.len() < self.n_signals {
            return;
        }
        let width = self.n_signals;
        self.shifted.clear();
        // Drain the raw front row, shifting it by the *current* pivot — the
        // same frame every still-buffered row is accumulated in.
        let pivot = std::mem::take(&mut self.pivot);
        self.shifted.extend(self.rows.drain(..width).zip(&pivot).map(|(x, &p)| x - p));
        self.pivot = pivot;
        self.apply_shifted(-1.0);
        self.evictions += 1;
        if self.evictions >= (2 * self.len()).max(MIN_REBUILD_PERIOD) {
            self.rebuild();
        }
    }

    /// Re-derives the pivot and all sums from the buffered rows
    /// (anti-drift).
    fn rebuild(&mut self) {
        self.evictions = 0;
        let width = self.n_signals;
        // Move the storage out so `apply_shifted` can borrow `self`.
        let mut rows = std::mem::take(&mut self.rows);
        let slice = rows.make_contiguous();
        let mut chunks = slice.chunks_exact(width);
        self.pivot.clear();
        match chunks.next() {
            Some(front) => self.pivot.extend_from_slice(front),
            None => self.pivot.resize(width, 0.0),
        }
        self.sum.fill(0.0);
        self.sum_sq.fill(0.0);
        self.sum_xy.fill(0.0);
        self.energy.fill(0.0);
        for row in slice.chunks_exact(width) {
            self.shifted.clear();
            self.shifted.extend(row.iter().zip(&self.pivot).map(|(&x, &p)| x - p));
            self.apply_shifted(1.0);
        }
        self.rows = rows;
    }

    /// Re-derives the per-signal Σd and Σd² from the buffered rows with
    /// the *front* row as pivot, into `shifted` (the pivot) and
    /// `fresh_sum`/`fresh_sq`.
    ///
    /// The accumulated `sum_sq` is pivoted at a possibly stale row; a
    /// window that has become constant then carries an O(ε·n²·M²)
    /// cancellation residue that can exceed the batch `pearson` degeneracy
    /// threshold (which is first-order in the signal magnitude M) and turn
    /// an exactly-zero variance into correlation noise. Re-deriving the
    /// *per-signal* sums from storage is O(len·f) — amortised once per
    /// stride against the O(f²)-per-record pair updates — and makes a
    /// constant signal's variance exactly zero, so the degeneracy contract
    /// matches the batch kernel regardless of pivot staleness.
    fn fresh_signal_stats(&mut self) {
        let width = self.n_signals;
        self.shifted.clear();
        self.shifted.extend(self.rows.iter().take(width).copied());
        self.fresh_sum.clear();
        self.fresh_sum.resize(width, 0.0);
        self.fresh_sq.clear();
        self.fresh_sq.resize(width, 0.0);
        let mut iter = self.rows.iter();
        while iter.len() != 0 {
            for ((s, q), &p) in
                self.fresh_sum.iter_mut().zip(self.fresh_sq.iter_mut()).zip(&self.shifted)
            {
                if let Some(&x) = iter.next() {
                    let d = x - p;
                    *s += d;
                    *q += d * d;
                }
            }
        }
    }

    /// Whether every accumulator-derived centered Σd² dominates its
    /// cancellation residue (see [`ACCUMULATOR_TRUST`]).
    fn accumulators_trusted(&self, nf: f64) -> bool {
        self.sum_sq
            .iter()
            .zip(&self.sum)
            .zip(&self.energy)
            .all(|((&q, &s), &e)| (q - s * s / nf).max(0.0) > ACCUMULATOR_TRUST * e)
    }

    /// Refreshes the per-signal extraction scratch: (accumulator-pivot Σd
    /// for the covariance numerator, centered Σd², degenerate flag
    /// mirroring `correlation::pearson`'s constant-signal contract).
    ///
    /// Fast path: the running sums, O(f). When any signal is close enough
    /// to constant that cancellation could defeat the degeneracy test, the
    /// per-signal stats are re-derived from storage with a fresh pivot
    /// (O(len·f), amortised once per stride).
    fn refresh_stats(&mut self, nf: f64) {
        self.stats.clear();
        if self.accumulators_trusted(nf) {
            for ((&s, &q), &p) in self.sum.iter().zip(&self.sum_sq).zip(&self.pivot) {
                let sxx = (q - s * s / nf).max(0.0);
                let mx = p + s / nf;
                let degenerate = sxx <= f64::EPSILON * nf * mx.abs().max(1.0);
                self.stats.push((s, sxx, degenerate));
            }
        } else {
            self.fresh_signal_stats();
            for (((&s_acc, &fs), &fq), &p) in
                self.sum.iter().zip(&self.fresh_sum).zip(&self.fresh_sq).zip(&self.shifted)
            {
                let sxx = (fq - fs * fs / nf).max(0.0);
                let mx = p + fs / nf;
                let degenerate = sxx <= f64::EPSILON * nf * mx.abs().max(1.0);
                self.stats.push((s_acc, sxx, degenerate));
            }
        }
    }

    /// Writes the condensed pairwise Pearson vector of the buffered rows
    /// into `out` (canonical pair order). With fewer than two rows every
    /// entry is `NaN`; pairs touching a degenerate signal are 0.
    ///
    /// # Panics
    /// Panics if `out.len() != n_pairs`.
    pub fn corr_into(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_pairs, "output width mismatch");
        let n = self.len();
        if n < 2 {
            out.fill(f64::NAN);
            return;
        }
        let nf = n as f64;
        self.refresh_stats(nf);
        let mut xy = self.sum_xy.iter();
        let mut slots = out.iter_mut();
        for (i, &(si, sxx_i, deg_i)) in self.stats.iter().enumerate() {
            for &(sj, sxx_j, deg_j) in self.stats.iter().skip(i + 1) {
                if let (Some(&sum_xy), Some(slot)) = (xy.next(), slots.next()) {
                    *slot = if deg_i || deg_j {
                        0.0
                    } else {
                        let sxy = sum_xy - si * sj / nf;
                        (sxy / (sxx_i.sqrt() * sxx_j.sqrt())).clamp(-1.0, 1.0)
                    };
                }
            }
        }
    }

    /// Clears all buffered state.
    pub fn reset(&mut self) {
        self.rows.clear();
        self.pivot.fill(0.0);
        self.sum.fill(0.0);
        self.sum_sq.fill(0.0);
        self.sum_xy.fill(0.0);
        self.energy.fill(0.0);
        self.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::CorrelationPairs;

    /// Deterministic pseudo-random stream (no external RNG in unit tests).
    fn stream(n: usize, width: usize, scale: f64) -> Vec<Vec<f64>> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
                    })
                    .collect()
            })
            .collect()
    }

    fn window_of(rows: &[Vec<f64>], end: usize, window: usize) -> Vec<Vec<f64>> {
        let lo = end.saturating_sub(window);
        let width = rows[0].len();
        (0..width).map(|c| rows[lo..end].iter().map(|r| r[c]).collect()).collect()
    }

    #[test]
    fn pearson_matches_batch_over_sliding_window() {
        let rows = stream(200, 4, 10.0);
        let pairs = CorrelationPairs::new(&["a", "b", "c", "d"]);
        let window = 13;
        let mut acc = IncrementalPearson::new(4);
        let mut out = vec![0.0; 6];
        for (i, row) in rows.iter().enumerate() {
            if acc.len() == window {
                acc.pop_front();
            }
            acc.push(row);
            if acc.len() < 2 {
                continue;
            }
            acc.corr_into(&mut out);
            let win = window_of(&rows, i + 1, window);
            let views: Vec<&[f64]> = win.iter().map(|c| c.as_slice()).collect();
            let reference = pairs.condensed_pearson(&views);
            for (k, (&got, &want)) in out.iter().zip(&reference).enumerate() {
                assert!((got - want).abs() < 1e-9, "pair {k} at {i}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn pearson_constant_signal_zeroes_its_pairs() {
        let mut acc = IncrementalPearson::new(3);
        for i in 0..10 {
            acc.push(&[5.0, i as f64, (i as f64).sin()]);
        }
        let mut out = vec![f64::NAN; 3];
        acc.corr_into(&mut out);
        assert_eq!(out[0], 0.0, "constant~linear");
        assert_eq!(out[1], 0.0, "constant~sin");
        assert!(out[2].abs() <= 1.0 && !out[2].is_nan());
    }

    #[test]
    fn pearson_window_turning_constant_degenerates_cleanly() {
        // A signal that is varying when the pivot is taken and then goes
        // constant at a large magnitude: the stale-pivot accumulator keeps
        // an O(ε·n²·M²) residue in Σd² that would defeat the first-order
        // degeneracy threshold. The fresh front-pivot pass must report the
        // variance as exactly zero, matching the batch kernel.
        let window = 12;
        let mut acc = IncrementalPearson::new(3);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..200 {
            let x = if i < window { (i as f64).sin() * 1e7 } else { 1e7 / 3.0 };
            rows.push(vec![x, (i as f64 * 0.37).cos() * 1e7, i as f64]);
        }
        let pairs = CorrelationPairs::new(&["a", "b", "c"]);
        let mut out = vec![0.0; 3];
        for (i, row) in rows.iter().enumerate() {
            if acc.len() == window {
                acc.pop_front();
            }
            acc.push(row);
            if acc.len() < 2 {
                continue;
            }
            acc.corr_into(&mut out);
            let win = window_of(&rows, i + 1, window);
            let views: Vec<&[f64]> = win.iter().map(|c| c.as_slice()).collect();
            let reference = pairs.condensed_pearson(&views);
            for (k, (&got, &want)) in out.iter().zip(&reference).enumerate() {
                assert!((got - want).abs() < 1e-9, "pair {k} at {i}: {got} vs {want}");
            }
        }
        // The last windows are fully constant in signal 0: its pairs are 0.
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn pearson_underfilled_is_nan() {
        let mut acc = IncrementalPearson::new(2);
        let mut out = [0.0];
        acc.corr_into(&mut out);
        assert!(out[0].is_nan());
        acc.push(&[1.0, 2.0]);
        acc.corr_into(&mut out);
        assert!(out[0].is_nan(), "single row has no correlation");
    }

    #[test]
    fn pearson_drift_rebuild_keeps_precision() {
        // Large-offset stream over many evictions: without the periodic
        // rebuild the naive sliding sums drift visibly.
        let rows = stream(50_000, 2, 3.0);
        let mut acc = IncrementalPearson::new(2);
        let mut out = [0.0];
        for row in &rows {
            let shifted: Vec<f64> = row.iter().map(|v| v + 1e9).collect();
            if acc.len() == 20 {
                acc.pop_front();
            }
            acc.push(&shifted);
        }
        acc.corr_into(&mut out);
        assert!(out[0].is_finite() && out[0].abs() <= 1.0);
    }

    #[test]
    fn pearson_pop_to_empty_then_refill() {
        let mut acc = IncrementalPearson::new(2);
        for i in 0..5 {
            acc.push(&[i as f64, -(i as f64)]);
        }
        for _ in 0..5 {
            acc.pop_front();
        }
        assert!(acc.is_empty());
        acc.pop_front(); // no-op on empty
        for i in 0..4 {
            acc.push(&[i as f64, 2.0 * i as f64]);
        }
        let mut out = [0.0];
        acc.corr_into(&mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_matches_batch_over_sliding_window() {
        let rows = stream(120, 3, 50.0);
        let window = 7;
        let mut acc = IncrementalMean::new(3);
        let mut out = vec![0.0; 3];
        for (i, row) in rows.iter().enumerate() {
            if acc.len() == window {
                acc.pop_front();
            }
            acc.push(row);
            acc.means_into(&mut out);
            let win = window_of(&rows, i + 1, window);
            for (c, (&got, col)) in out.iter().zip(&win).enumerate() {
                let want = crate::descriptive::mean(col);
                assert!((got - want).abs() < 1e-9, "signal {c} at {i}");
            }
        }
    }

    #[test]
    fn mean_empty_is_nan_and_reset_clears() {
        let mut acc = IncrementalMean::new(2);
        let mut out = [0.0, 0.0];
        acc.means_into(&mut out);
        assert!(out.iter().all(|v| v.is_nan()));
        acc.push(&[1.0, 2.0]);
        acc.reset();
        assert!(acc.is_empty());
        acc.means_into(&mut out);
        assert!(out.iter().all(|v| v.is_nan()));
    }

    #[test]
    #[should_panic(expected = "at least 2 signals")]
    fn pearson_rejects_single_signal() {
        let _ = IncrementalPearson::new(1);
    }
}
