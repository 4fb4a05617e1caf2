//! Per-vehicle data-quality monitors: NaN/missing fraction, cadence-gap
//! rate, and value-range drift against a frozen reference window.
//!
//! The monitors watch the *raw* stream — rows exactly as they arrive,
//! before arity/finiteness validation dead-letters them — because the
//! question they answer ("is this vehicle's feed going bad?") is about
//! what the wire carries, not about what survives validation. A channel
//! that starts streaming NaNs is invisible to the pipelines (the engine
//! rejects those rows) but very visible here.
//!
//! Three signals per vehicle, each over a rolling window of the last
//! [`QualityConfig::window`] records:
//!
//! * **NaN/missing fraction** — non-finite or absent cells as a fraction
//!   of all cells in the window (a truncated row's missing tail counts as
//!   missing).
//! * **Cadence-gap rate** — fraction of inter-record gaps exceeding
//!   [`QualityConfig::cadence_gap_factor`] × the vehicle's median cadence,
//!   learned during the reference phase. Non-positive gaps (reordered
//!   arrivals) are skipped: reordering is the reorder buffer's problem.
//! * **Value-range drift** — per channel, `|rolling mean − reference
//!   mean| / reference std`, against mean/std/min/max frozen from the
//!   first [`QualityConfig::reference_len`] finite samples. The max across
//!   channels is the vehicle's drift score.
//!
//! A record is **flagged** when the NaN or gap fraction crosses its
//! threshold (once the window has filled), or when drift crosses its
//! z-threshold (once the reference is frozen). The drift flag has a
//! second gate: the rolling mean must also sit
//! [`QualityConfig::drift_range_factor`] × the reference's observed
//! *range* away from the reference mean. Vehicle telemetry is regime-
//! structured (urban vs highway days shift every signal's mean by many
//! reference stds), so a z-score alone pages on normal driving; a shift
//! beyond anything the reference ever saw does not. Flag counts feed the
//! shard-health state machine via `HealthSample::quality_flagged`; the
//! engine exports the rolling fractions as `ingest.quality.v*.{nan_bp,
//! gap_bp,drift_mz}` gauges.
//!
//! Memory is bounded and sized once, at construction: a `window ×
//! channels` slab of raw cells and a `window`-long gap ring per vehicle,
//! both FIFO rings addressed by a head index. The drift gates'
//! denominators (reference std and range) are computed once, when the
//! reference freezes, so a record costs one pass over its cells plus a
//! few counter updates.

use navarchos_stat::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

/// Thresholds and window lengths for one vehicle's monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityConfig {
    /// Finite samples per channel frozen into the reference mean/std.
    pub reference_len: usize,
    /// Rolling window length, in records.
    pub window: usize,
    /// Rolling NaN/missing cell fraction at which records flag.
    pub nan_fraction_flag: f64,
    /// A gap counts when `dt > cadence_gap_factor × median cadence`.
    pub cadence_gap_factor: f64,
    /// Rolling gap fraction at which records flag.
    pub gap_fraction_flag: f64,
    /// Drift z-score (per channel, vs the frozen reference) at which
    /// records flag.
    pub drift_z_flag: f64,
    /// Second gate on the drift flag: the rolling mean must also sit this
    /// many reference *ranges* (`ref_max − ref_min`) away from the
    /// reference mean. Regime changes in normal driving routinely exceed
    /// any z-threshold (the reference std is tiny next to an urban→highway
    /// shift); a shift beyond everything the reference ever saw is the
    /// part that means sensor fault rather than different road.
    pub drift_range_factor: f64,
}

impl Default for QualityConfig {
    fn default() -> QualityConfig {
        QualityConfig {
            // Long enough to span several rides/regimes: a one-ride
            // reference makes every later regime look like drift (an
            // urban-only hour caps `speed`'s range at city speeds).
            reference_len: 256,
            window: 32,
            nan_fraction_flag: 0.25,
            cadence_gap_factor: 8.0,
            // Ride boundaries park the vehicle for hours — long gaps are
            // the normal shape of telematics, so only a majority-gap
            // window flags.
            gap_fraction_flag: 0.5,
            drift_z_flag: 4.0,
            // Calibrated against seeded clean fleets: with a 256-sample
            // reference the worst clean-stream excursion stays under
            // ~1.7 ranges, so 2.5 leaves ~1.5x headroom while still
            // catching any genuine sensor fault (stuck, bias, unit slip
            // — all land tens of ranges out).
            drift_range_factor: 2.5,
        }
    }
}

/// Point-in-time view of a monitor, for gauge export and dashboards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualitySnapshot {
    /// Non-finite/missing cells over the rolling window, 0..1.
    pub nan_fraction: f64,
    /// Cadence gaps over the rolling window, 0..1.
    pub gap_fraction: f64,
    /// Max per-channel drift z-score (0 until the reference freezes).
    pub max_drift_z: f64,
    /// True once every channel's reference mean/std is frozen.
    pub reference_frozen: bool,
    /// Records observed so far.
    pub records: u64,
}

/// Head/length bookkeeping of a fixed-capacity FIFO laid out in a slab:
/// entry `k` (0 = oldest) lives in slot `(head + k) % capacity`.
#[derive(Debug, Clone, Copy)]
struct RingIndex {
    capacity: usize,
    head: usize,
    len: usize,
}

impl RingIndex {
    /// `capacity` slots holding `len` entries, the oldest in slot 0: an
    /// empty ring, or a freshly restored one.
    fn new(capacity: usize, len: usize) -> RingIndex {
        RingIndex { capacity, head: 0, len }
    }

    /// The slot the next push writes and whether that evicts the oldest
    /// entry; `None` for a zero-capacity ring, which evicts every push at
    /// once.
    fn next_slot(&self) -> Option<(usize, bool)> {
        if self.capacity == 0 {
            None
        } else if self.len == self.capacity {
            Some((self.head, true))
        } else {
            let slot = self.head + self.len;
            Some((if slot >= self.capacity { slot - self.capacity } else { slot }, false))
        }
    }

    /// Records the push [`RingIndex::next_slot`] described.
    fn advance(&mut self) {
        if self.len < self.capacity {
            self.len += 1;
        } else if self.capacity > 0 {
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Occupied slots, oldest first.
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).map(move |k| (self.head + k) % self.capacity)
    }
}

/// One channel's reference statistics plus the finite cells of its
/// column of the window.
#[derive(Debug, Clone)]
struct ChannelQuality {
    // Welford accumulator until `reference_len` finite samples, then
    // frozen.
    ref_count: usize,
    ref_mean: f64,
    ref_m2: f64,
    ref_min: f64,
    ref_max: f64,
    frozen: bool,
    // The drift gates' denominators, cached by `freeze`.
    z_denom: f64,
    range: f64,
    finite_sum: f64,
    finite_count: usize,
}

impl ChannelQuality {
    fn new() -> ChannelQuality {
        ChannelQuality {
            ref_count: 0,
            ref_mean: 0.0,
            ref_m2: 0.0,
            ref_min: f64::INFINITY,
            ref_max: f64::NEG_INFINITY,
            frozen: false,
            z_denom: 0.0,
            range: 0.0,
            finite_sum: 0.0,
            finite_count: 0,
        }
    }

    /// Folds a cell into the reference until it freezes; true when this
    /// cell froze it.
    fn absorb(&mut self, v: f64, reference_len: usize) -> bool {
        if self.frozen || !v.is_finite() {
            return false;
        }
        self.ref_count += 1;
        let delta = v - self.ref_mean;
        self.ref_mean += delta / self.ref_count as f64;
        self.ref_m2 += delta * (v - self.ref_mean);
        self.ref_min = self.ref_min.min(v);
        self.ref_max = self.ref_max.max(v);
        if self.ref_count >= reference_len {
            self.freeze();
        }
        self.frozen
    }

    /// Freezes the reference and caches the drift gates' denominators
    /// from the accumulators (restore calls it too, so a restored
    /// monitor's gates are bit-identical). The floors keep a
    /// constant-valued reference channel from turning any wiggle into an
    /// infinite z, and from making the range gate unpassable — any real
    /// shift off a constant clears it.
    fn freeze(&mut self) {
        self.frozen = true;
        let std = if self.ref_count < 2 {
            0.0
        } else {
            (self.ref_m2 / (self.ref_count - 1) as f64).sqrt()
        };
        let floor = 1e-9 * self.ref_mean.abs().max(1.0);
        self.z_denom = std.max(floor);
        self.range = (self.ref_max - self.ref_min).max(floor);
    }

    /// A cell entering the window; true when it is missing (non-finite).
    fn enter(&mut self, v: f64) -> bool {
        if v.is_finite() {
            self.finite_sum += v;
            self.finite_count += 1;
            false
        } else {
            true
        }
    }

    /// A cell leaving the window; true when it was missing.
    fn leave(&mut self, v: f64) -> bool {
        if v.is_finite() {
            self.finite_sum -= v;
            self.finite_count -= 1;
            false
        } else {
            true
        }
    }

    /// Rolling mean minus reference mean; `None` until both the reference
    /// and enough of the window are in.
    fn deviation(&self, min_window: usize) -> Option<f64> {
        if !self.frozen || self.finite_count < min_window {
            return None;
        }
        Some(self.finite_sum / self.finite_count as f64 - self.ref_mean)
    }

    /// Drift z-score of the rolling mean vs the frozen reference (0 until
    /// [`ChannelQuality::deviation`] exists).
    fn drift_z(&self, min_window: usize) -> f64 {
        self.deviation(min_window).map_or(0.0, |d| (d / self.z_denom).abs())
    }

    /// Both drift gates: the rolling mean sits `range_factor` reference
    /// ranges away from the reference mean (checked first: no division)
    /// and at least `z_flag` reference stds.
    fn drifted(&self, min_window: usize, z_flag: f64, range_factor: f64) -> bool {
        self.deviation(min_window).is_some_and(|d| {
            d.abs() > range_factor * self.range && (d / self.z_denom).abs() >= z_flag
        })
    }
}

/// One vehicle's monitor: per-channel stats, the window's cells and the
/// cadence tracker.
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    cfg: QualityConfig,
    channels: Vec<ChannelQuality>,
    /// The window's raw cells (NaN kept — it is the signal): one row of
    /// `channels.len()` cells per record, in the slots `rows` addresses.
    cells: Vec<f64>,
    rows: RingIndex,
    /// Non-finite or missing cells in the window, over all channels.
    missing: usize,
    /// Channels whose reference is frozen.
    frozen: usize,
    records: u64,
    // Cadence: inter-record gaps collected during warm-up, median frozen.
    last_ts: Option<i64>,
    /// Reserved for the whole warm-up (`reference_len` gaps, at least the
    /// one pushed before the length check) so `observe` never grows it.
    warmup_dts: Vec<i64>,
    median_dt: Option<i64>,
    gaps: Vec<bool>,
    gap_slots: RingIndex,
    gap_count: usize,
}

impl QualityMonitor {
    /// A monitor for rows of `n_channels` values.
    pub fn new(n_channels: usize, cfg: QualityConfig) -> QualityMonitor {
        QualityMonitor {
            cfg,
            channels: (0..n_channels).map(|_| ChannelQuality::new()).collect(),
            cells: vec![0.0; cfg.window * n_channels],
            rows: RingIndex::new(cfg.window, 0),
            missing: 0,
            frozen: 0,
            records: 0,
            last_ts: None,
            warmup_dts: Vec::with_capacity(cfg.reference_len.max(1)),
            median_dt: None,
            gaps: vec![false; cfg.window],
            gap_slots: RingIndex::new(cfg.window, 0),
            gap_count: 0,
        }
    }

    /// Observes one raw record (pre-validation). Cells beyond the row's
    /// length count as missing. Returns true when the record is flagged
    /// under the config's thresholds.
    pub fn observe(&mut self, timestamp: i64, row: &[f64]) -> bool {
        self.records += 1;
        let width = self.channels.len();
        let slot = self.rows.next_slot();
        let evicting = slot.is_some_and(|(_, full)| full);
        let mut cells = slot
            .and_then(|(s, _)| self.cells.get_mut(s * width..(s + 1) * width))
            .unwrap_or_default()
            .iter_mut();
        for (c, ch) in self.channels.iter_mut().enumerate() {
            let v = row.get(c).copied().unwrap_or(f64::NAN);
            if ch.absorb(v, self.cfg.reference_len) {
                self.frozen += 1;
            }
            self.missing += usize::from(ch.enter(v));
            // The cell leaving the window: the oldest row's, or this one
            // at once when the window has no room at all.
            let left = match cells.next() {
                Some(cell) => Some(std::mem::replace(cell, v)).filter(|_| evicting),
                None => Some(v),
            };
            if let Some(old) = left {
                self.missing -= usize::from(ch.leave(old));
            }
        }
        self.rows.advance();
        self.observe_cadence(timestamp);
        self.flagged()
    }

    fn observe_cadence(&mut self, timestamp: i64) {
        let prev = self.last_ts.replace(timestamp);
        let Some(prev) = prev else { return };
        let dt = timestamp.saturating_sub(prev);
        if dt <= 0 {
            // Reordered arrival: sequencing trouble, not a cadence gap.
            return;
        }
        match self.median_dt {
            None => {
                self.warmup_dts.push(dt);
                if self.warmup_dts.len() >= self.cfg.reference_len {
                    self.warmup_dts.sort_unstable();
                    let median = self.warmup_dts.get(self.warmup_dts.len() / 2).copied();
                    self.median_dt = Some(median.unwrap_or(1).max(1));
                    // Warm-up is over: hand its buffer back. `mem::take`
                    // is the same operation as assigning `Vec::new()`: it
                    // frees the buffer and allocates nothing.
                    drop(std::mem::take(&mut self.warmup_dts));
                }
            }
            Some(median) => {
                let is_gap = dt as f64 > self.cfg.cadence_gap_factor * median as f64;
                self.gap_count += usize::from(is_gap);
                let left = match self.gap_slots.next_slot() {
                    Some((s, evicting)) => self
                        .gaps
                        .get_mut(s)
                        .map(|g| std::mem::replace(g, is_gap))
                        .filter(|_| evicting),
                    None => Some(is_gap),
                };
                self.gap_count -= usize::from(left.unwrap_or(false));
                self.gap_slots.advance();
            }
        }
    }

    fn min_window(&self) -> usize {
        (self.cfg.window / 4).max(4)
    }

    fn nan_fraction(&self) -> f64 {
        let cells = self.rows.len * self.channels.len();
        if cells == 0 {
            return 0.0;
        }
        self.missing as f64 / cells as f64
    }

    fn gap_fraction(&self) -> f64 {
        if self.gap_slots.len == 0 {
            return 0.0;
        }
        self.gap_count as f64 / self.gap_slots.len as f64
    }

    fn max_drift_z(&self) -> f64 {
        let min_window = self.min_window();
        self.channels.iter().map(|c| c.drift_z(min_window)).fold(0.0, f64::max)
    }

    fn flagged(&self) -> bool {
        let windowed = self.records >= self.cfg.window as u64;
        if windowed && self.nan_fraction() >= self.cfg.nan_fraction_flag {
            return true;
        }
        // The gap ring only starts filling once the cadence median is
        // frozen, so gate on *its* fill — right after freeze, one gap in
        // a two-entry ring would otherwise read as "half the window".
        if self.gap_slots.len >= self.cfg.window
            && self.gap_fraction() >= self.cfg.gap_fraction_flag
        {
            return true;
        }
        if !self.reference_frozen() {
            return false;
        }
        let min_window = self.min_window();
        // Both gates on the same channel: statistically impossible under
        // the reference (z) AND outside everything it ever saw (range).
        self.channels
            .iter()
            .any(|c| c.drifted(min_window, self.cfg.drift_z_flag, self.cfg.drift_range_factor))
    }

    /// True once every channel's reference is frozen.
    pub fn reference_frozen(&self) -> bool {
        !self.channels.is_empty() && self.frozen == self.channels.len()
    }

    /// Current rolling fractions and drift, for gauge export.
    pub fn snapshot(&self) -> QualitySnapshot {
        QualitySnapshot {
            nan_fraction: self.nan_fraction(),
            gap_fraction: self.gap_fraction(),
            max_drift_z: self.max_drift_z(),
            reference_frozen: self.reference_frozen(),
            records: self.records,
        }
    }
}

// Everything outside `cfg` is evolved state: reference accumulators (the
// freeze threshold may not be reached yet), rolling rings, and the cadence
// tracker including its warm-up gap collection. The layout is per channel
// — accumulators, then that channel's window cells oldest first and their
// finite/missing counts — then the cadence tracker.
impl Snapshot for QualityMonitor {
    fn write_state(&self, w: &mut SnapWriter) {
        let width = self.channels.len();
        w.put_usize(width);
        for (c, ch) in self.channels.iter().enumerate() {
            w.put_usize(ch.ref_count);
            w.put_f64(ch.ref_mean);
            w.put_f64(ch.ref_m2);
            w.put_f64(ch.ref_min);
            w.put_f64(ch.ref_max);
            w.put_bool(ch.frozen);
            w.put_f64_seq(self.rows.len, self.rows.slots().map(|s| self.cells[s * width + c]));
            w.put_f64(ch.finite_sum);
            w.put_usize(ch.finite_count);
            w.put_usize(self.rows.len - ch.finite_count);
        }
        w.put_u64(self.records);
        w.put_opt_i64(self.last_ts);
        w.put_usize(self.warmup_dts.len());
        for dt in &self.warmup_dts {
            w.put_i64(*dt);
        }
        w.put_opt_i64(self.median_dt);
        w.put_usize(self.gap_slots.len);
        for s in self.gap_slots.slots() {
            w.put_bool(self.gaps[s]);
        }
        w.put_usize(self.gap_count);
    }
}

impl Restore for QualityMonitor {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let width = r.get_usize()?;
        if width != self.channels.len() {
            return Err(SnapError::Corrupt("quality monitor channel-count mismatch"));
        }
        let window = self.cfg.window;
        let mut channels = Vec::with_capacity(width);
        let mut cells = vec![0.0; window * width];
        let mut rows = None;
        let mut missing = 0;
        for c in 0..width {
            let mut ch = ChannelQuality::new();
            ch.ref_count = r.get_usize()?;
            ch.ref_mean = r.get_f64()?;
            ch.ref_m2 = r.get_f64()?;
            ch.ref_min = r.get_f64()?;
            ch.ref_max = r.get_f64()?;
            let frozen = r.get_bool()?;
            let column = r.get_f64_vec()?;
            if column.len() > window {
                return Err(SnapError::Corrupt("quality ring larger than the window"));
            }
            // Every record lands in every channel's ring, so the rings
            // are one window of rows; unequal lengths are no real state.
            if *rows.get_or_insert(column.len()) != column.len() {
                return Err(SnapError::Corrupt("quality rings of unequal length"));
            }
            ch.finite_sum = r.get_f64()?;
            ch.finite_count = r.get_usize()?;
            let nan_count = r.get_usize()?;
            if ch.finite_count.checked_add(nan_count) != Some(column.len()) {
                return Err(SnapError::Corrupt("quality ring counts disagree with its length"));
            }
            if column.iter().filter(|v| !v.is_finite()).count() != nan_count {
                return Err(SnapError::Corrupt("quality ring counts disagree with its cells"));
            }
            for (k, v) in column.into_iter().enumerate() {
                cells[k * width + c] = v;
            }
            if frozen {
                ch.freeze();
            }
            missing += nan_count;
            channels.push(ch);
        }
        let records = r.get_u64()?;
        let last_ts = r.get_opt_i64()?;
        let n_warmup = r.get_len(8)?;
        if n_warmup > self.cfg.reference_len {
            return Err(SnapError::Corrupt("cadence warm-up larger than the reference"));
        }
        let mut warmup_dts = Vec::with_capacity(n_warmup);
        for _ in 0..n_warmup {
            warmup_dts.push(r.get_i64()?);
        }
        let median_dt = r.get_opt_i64()?;
        if median_dt.is_none() {
            // Room for the rest of the warm-up, as `new` reserves it.
            warmup_dts.reserve_exact(self.cfg.reference_len.max(1) - n_warmup);
        }
        let n_gaps = r.get_len(1)?;
        if n_gaps > window {
            return Err(SnapError::Corrupt("gap ring larger than the window"));
        }
        let mut gaps = vec![false; window];
        for g in gaps.iter_mut().take(n_gaps) {
            *g = r.get_bool()?;
        }
        let gap_count = r.get_usize()?;
        if gap_count != gaps.iter().filter(|g| **g).count() {
            return Err(SnapError::Corrupt("gap count disagrees with the gap ring"));
        }
        self.frozen = channels.iter().filter(|c| c.frozen).count();
        self.channels = channels;
        self.cells = cells;
        self.rows = RingIndex::new(window, rows.unwrap_or(0));
        self.missing = missing;
        self.records = records;
        self.last_ts = last_ts;
        self.warmup_dts = warmup_dts;
        self.median_dt = median_dt;
        self.gaps = gaps;
        self.gap_slots = RingIndex::new(window, n_gaps);
        self.gap_count = gap_count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> QualityConfig {
        QualityConfig { reference_len: 16, window: 8, ..QualityConfig::default() }
    }

    /// Feeds `n` clean records at a steady cadence starting at `t0`. The
    /// signals cycle fast relative to `reference_len` so the frozen
    /// reference sees full periods, not a biased partial phase.
    fn feed_clean(m: &mut QualityMonitor, t0: i64, n: usize) -> bool {
        let mut any = false;
        for i in 0..n {
            let t = t0 + i as i64 * 60;
            let x = (i as f64 * 0.9).sin() + 10.0;
            any |= m.observe(t, &[x, 20.0 + (i as f64 * 1.1).cos()]);
        }
        any
    }

    #[test]
    fn clean_stream_never_flags() {
        let mut m = QualityMonitor::new(2, tiny_cfg());
        assert!(!feed_clean(&mut m, 0, 200), "clean feed flagged");
        let s = m.snapshot();
        assert!(s.reference_frozen);
        assert_eq!(s.nan_fraction, 0.0);
        assert_eq!(s.gap_fraction, 0.0);
        assert!(s.max_drift_z < 4.0, "healthy drift {}", s.max_drift_z);
    }

    #[test]
    fn nan_burst_flags_and_fraction_rises() {
        let mut m = QualityMonitor::new(2, tiny_cfg());
        feed_clean(&mut m, 0, 100);
        let mut flagged = false;
        for i in 100..108 {
            flagged |= m.observe(i * 60, &[f64::NAN, f64::NAN]);
        }
        assert!(flagged, "an all-NaN window must flag");
        assert!(m.snapshot().nan_fraction >= 0.9);
        // The window slides: once it refills with clean records the flag
        // clears (transition records while NaNs drain out may still flag).
        let mut tail_flagged = false;
        for i in 108..160i64 {
            let x = (i as f64 * 0.9).sin() + 10.0;
            let f = m.observe(i * 60, &[x, 20.0 + (i as f64 * 1.1).cos()]);
            if i >= 120 {
                tail_flagged |= f;
            }
        }
        assert!(!tail_flagged, "a refilled clean window must not flag");
        assert_eq!(m.snapshot().nan_fraction, 0.0);
    }

    #[test]
    fn truncated_rows_count_as_missing() {
        let mut m = QualityMonitor::new(4, tiny_cfg());
        for i in 0..40 {
            // Half the cells missing on every record.
            m.observe(i * 60, &[1.0, 2.0]);
        }
        assert!((m.snapshot().nan_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_shift_drives_drift_z_past_threshold() {
        let mut m = QualityMonitor::new(2, tiny_cfg());
        feed_clean(&mut m, 0, 100);
        assert!(m.snapshot().max_drift_z < 4.0);
        // Channel 0 jumps far outside its reference range.
        let mut flagged = false;
        for i in 0..16 {
            let t = 100 * 60 + i * 60;
            flagged |= m.observe(t, &[500.0 + (i as f64 * 0.3).sin(), 20.0]);
        }
        assert!(flagged, "a gross mean shift must flag");
        assert!(m.snapshot().max_drift_z >= 4.0, "z {}", m.snapshot().max_drift_z);
    }

    #[test]
    fn cadence_gaps_are_measured_against_learned_median() {
        let mut m = QualityMonitor::new(1, tiny_cfg());
        // Learn a 60 s cadence.
        for i in 0..30 {
            m.observe(i * 60, &[1.0]);
        }
        assert_eq!(m.snapshot().gap_fraction, 0.0);
        // Then the feed goes sparse: hour-long holes.
        let mut t = 30 * 60;
        let mut flagged = false;
        for _ in 0..8 {
            t += 3600;
            flagged |= m.observe(t, &[1.0]);
        }
        assert!(flagged, "sustained cadence gaps must flag");
        assert!(m.snapshot().gap_fraction > 0.5);
    }

    #[test]
    fn reordered_arrivals_are_not_gaps() {
        let mut m = QualityMonitor::new(1, tiny_cfg());
        for i in 0..30 {
            m.observe(i * 60, &[1.0]);
        }
        // A burst of out-of-order timestamps: dt <= 0 is skipped entirely.
        for i in 0..8 {
            m.observe(29 * 60 - i * 60, &[1.0]);
        }
        assert_eq!(m.snapshot().gap_fraction, 0.0);
    }

    #[test]
    fn memory_is_bounded_by_the_window() {
        let mut m = QualityMonitor::new(3, tiny_cfg());
        for i in 0..10_000 {
            m.observe(i * 60, &[1.0, 2.0, f64::NAN]);
        }
        assert_eq!(m.cells.len(), m.cfg.window * 3, "the cell slab never grows");
        assert!(m.rows.len <= m.cfg.window);
        assert_eq!(m.gaps.len(), m.cfg.window, "the gap ring never grows");
        assert!(m.gap_slots.len <= m.cfg.window);
        assert!(m.warmup_dts.is_empty(), "warm-up buffer is released after freeze");
        assert_eq!(m.warmup_dts.capacity(), 0, "and its allocation handed back");
    }

    #[test]
    fn warm_up_never_reallocates() {
        // The buffer is reserved up front, fresh and after a restore
        // mid-warm-up, so no cadence push in `observe` can grow it.
        let cfg = tiny_cfg();
        let mut m = QualityMonitor::new(1, cfg);
        let cap = m.warmup_dts.capacity();
        assert!(cap >= cfg.reference_len);
        for i in 0..cfg.reference_len / 2 {
            m.observe(i as i64 * 60, &[1.0]);
        }
        assert_eq!(m.warmup_dts.capacity(), cap, "fresh warm-up stays in its buffer");
        let mut w = SnapWriter::new();
        m.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = QualityMonitor::new(1, cfg);
        restored.read_state(&mut SnapReader::new(&bytes)).unwrap();
        assert!(restored.median_dt.is_none() && !restored.warmup_dts.is_empty());
        let cap = restored.warmup_dts.capacity();
        assert!(cap >= cfg.reference_len);
        let mut t = cfg.reference_len as i64 * 60;
        while restored.median_dt.is_none() {
            assert_eq!(restored.warmup_dts.capacity(), cap, "restored warm-up stays in its buffer");
            restored.observe(t, &[1.0]);
            t += 60;
        }
        // A zero-length reference still pushes one gap before freezing.
        let zero = QualityMonitor::new(1, QualityConfig { reference_len: 0, ..cfg });
        assert!(zero.warmup_dts.capacity() >= 1);
    }
}
