//! The flat-ring `QualityMonitor` against the monitor it replaced.
//!
//! `RefMonitor` below is the previous implementation, kept verbatim as a
//! test-only reference: one `VecDeque` ring per channel, a `VecDeque` gap
//! ring and the reference std recomputed on every read. Both are driven
//! with the same random rows — NaN and ±inf cells, short and over-long
//! rows, repeated and backwards timestamps, windows of 0–8 records and
//! short references — and must agree after every step on the flag, the
//! snapshot (by bits) and every byte of the written state. State written
//! by either side must restore into the other and carry on identically.

use std::collections::VecDeque;

use navarchos_ingest::{QualityConfig, QualityMonitor, QualitySnapshot};
use navarchos_stat::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use proptest::prelude::*;

/// One channel's reference statistics plus rolling-window state.
#[derive(Debug, Clone)]
struct ChannelQuality {
    // Welford accumulator until `reference_len` finite samples, then
    // frozen into (ref_mean, ref_std).
    ref_count: usize,
    ref_mean: f64,
    ref_m2: f64,
    ref_min: f64,
    ref_max: f64,
    frozen: bool,
    // Rolling window of raw cell values (NaN kept — it is the signal).
    ring: VecDeque<f64>,
    finite_sum: f64,
    finite_count: usize,
    nan_count: usize,
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
            ring: VecDeque::new(),
            finite_sum: 0.0,
            finite_count: 0,
            nan_count: 0,
        }
    }

    fn push(&mut self, v: f64, reference_len: usize, window: usize) {
        if !self.frozen && v.is_finite() {
            self.ref_count += 1;
            let delta = v - self.ref_mean;
            self.ref_mean += delta / self.ref_count as f64;
            self.ref_m2 += delta * (v - self.ref_mean);
            self.ref_min = self.ref_min.min(v);
            self.ref_max = self.ref_max.max(v);
            if self.ref_count >= reference_len {
                self.frozen = true;
            }
        }
        self.ring.push_back(v);
        if v.is_finite() {
            self.finite_sum += v;
            self.finite_count += 1;
        } else {
            self.nan_count += 1;
        }
        if self.ring.len() > window {
            let old = self.ring.pop_front().unwrap_or(f64::NAN);
            if old.is_finite() {
                self.finite_sum -= old;
                self.finite_count -= 1;
            } else {
                self.nan_count -= 1;
            }
        }
    }

    fn ref_std(&self) -> f64 {
        if self.ref_count < 2 {
            return 0.0;
        }
        (self.ref_m2 / (self.ref_count - 1) as f64).sqrt()
    }

    /// Drift z-score of the rolling mean vs the frozen reference; 0 until
    /// both the reference and enough of the window are in. The std floor
    /// keeps a constant-valued reference channel from turning any wiggle
    /// into an infinite z.
    fn drift_z(&self, min_window: usize) -> f64 {
        if !self.frozen || self.finite_count < min_window {
            return 0.0;
        }
        let roll_mean = self.finite_sum / self.finite_count as f64;
        let denom = self.ref_std().max(1e-9 * self.ref_mean.abs().max(1.0));
        ((roll_mean - self.ref_mean) / denom).abs()
    }

    /// The range gate: true when the rolling mean sits `range_factor`
    /// reference ranges away from the reference mean. The floor keeps a
    /// constant-valued reference (zero range) from making the gate
    /// unpassable — any real shift off a constant clears it.
    fn drift_beyond_range(&self, min_window: usize, range_factor: f64) -> bool {
        if !self.frozen || self.finite_count < min_window {
            return false;
        }
        let roll_mean = self.finite_sum / self.finite_count as f64;
        let range = (self.ref_max - self.ref_min).max(1e-9 * self.ref_mean.abs().max(1.0));
        (roll_mean - self.ref_mean).abs() > range_factor * range
    }
}

impl ChannelQuality {
    fn write_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.ref_count);
        w.put_f64(self.ref_mean);
        w.put_f64(self.ref_m2);
        w.put_f64(self.ref_min);
        w.put_f64(self.ref_max);
        w.put_bool(self.frozen);
        w.put_f64_seq(self.ring.len(), self.ring.iter().copied());
        w.put_f64(self.finite_sum);
        w.put_usize(self.finite_count);
        w.put_usize(self.nan_count);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>, window: usize) -> Result<(), SnapError> {
        let ref_count = r.get_usize()?;
        let ref_mean = r.get_f64()?;
        let ref_m2 = r.get_f64()?;
        let ref_min = r.get_f64()?;
        let ref_max = r.get_f64()?;
        let frozen = r.get_bool()?;
        let ring = r.get_f64_vec()?;
        if ring.len() > window {
            return Err(SnapError::Corrupt("quality ring larger than the window"));
        }
        let finite_sum = r.get_f64()?;
        let finite_count = r.get_usize()?;
        let nan_count = r.get_usize()?;
        if finite_count + nan_count != ring.len() {
            return Err(SnapError::Corrupt("quality ring counts disagree with its length"));
        }
        self.ref_count = ref_count;
        self.ref_mean = ref_mean;
        self.ref_m2 = ref_m2;
        self.ref_min = ref_min;
        self.ref_max = ref_max;
        self.frozen = frozen;
        self.ring = ring.into();
        self.finite_sum = finite_sum;
        self.finite_count = finite_count;
        self.nan_count = nan_count;
        Ok(())
    }
}

/// The monitor as it was before the flat ring: one `VecDeque` per
/// channel, the reference std recomputed on every read.
#[derive(Debug, Clone)]
pub struct RefMonitor {
    cfg: QualityConfig,
    channels: Vec<ChannelQuality>,
    records: u64,
    // Cadence: inter-record gaps collected during warm-up, median frozen.
    last_ts: Option<i64>,
    warmup_dts: Vec<i64>,
    median_dt: Option<i64>,
    gap_ring: VecDeque<bool>,
    gap_count: usize,
}

impl RefMonitor {
    /// A monitor for rows of `n_channels` values.
    pub fn new(n_channels: usize, cfg: QualityConfig) -> RefMonitor {
        RefMonitor {
            cfg,
            channels: (0..n_channels).map(|_| ChannelQuality::new()).collect(),
            records: 0,
            last_ts: None,
            warmup_dts: Vec::new(),
            median_dt: None,
            gap_ring: VecDeque::new(),
            gap_count: 0,
        }
    }

    /// Observes one raw record (pre-validation). Cells beyond the row's
    /// length count as missing. Returns true when the record is flagged
    /// under the config's thresholds.
    pub fn observe(&mut self, timestamp: i64, row: &[f64]) -> bool {
        self.records += 1;
        for (i, ch) in self.channels.iter_mut().enumerate() {
            let v = row.get(i).copied().unwrap_or(f64::NAN);
            ch.push(v, self.cfg.reference_len, self.cfg.window);
        }
        self.observe_cadence(timestamp);
        self.flagged()
    }

    fn observe_cadence(&mut self, timestamp: i64) {
        let prev = self.last_ts.replace(timestamp);
        let Some(prev) = prev else { return };
        let dt = timestamp - prev;
        if dt <= 0 {
            // Reordered arrival: sequencing trouble, not a cadence gap.
            return;
        }
        match self.median_dt {
            None => {
                self.warmup_dts.push(dt);
                if self.warmup_dts.len() >= self.cfg.reference_len {
                    self.warmup_dts.sort_unstable();
                    self.median_dt = Some(self.warmup_dts[self.warmup_dts.len() / 2].max(1));
                    self.warmup_dts = Vec::new();
                }
            }
            Some(median) => {
                let is_gap = dt as f64 > self.cfg.cadence_gap_factor * median as f64;
                self.gap_ring.push_back(is_gap);
                self.gap_count += usize::from(is_gap);
                if self.gap_ring.len() > self.cfg.window {
                    let old = self.gap_ring.pop_front().unwrap_or(false);
                    self.gap_count -= usize::from(old);
                }
            }
        }
    }

    fn min_window(&self) -> usize {
        (self.cfg.window / 4).max(4)
    }

    fn nan_fraction(&self) -> f64 {
        let cells: usize = self.channels.iter().map(|c| c.ring.len()).sum();
        if cells == 0 {
            return 0.0;
        }
        let nan: usize = self.channels.iter().map(|c| c.nan_count).sum();
        nan as f64 / cells as f64
    }

    fn gap_fraction(&self) -> f64 {
        if self.gap_ring.is_empty() {
            return 0.0;
        }
        self.gap_count as f64 / self.gap_ring.len() as f64
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
        if self.gap_ring.len() >= self.cfg.window
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
        self.channels.iter().any(|c| {
            c.drift_z(min_window) >= self.cfg.drift_z_flag
                && c.drift_beyond_range(min_window, self.cfg.drift_range_factor)
        })
    }

    /// True once every channel's reference is frozen.
    pub fn reference_frozen(&self) -> bool {
        !self.channels.is_empty() && self.channels.iter().all(|c| c.frozen)
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
// tracker including its warm-up gap collection.
impl Snapshot for RefMonitor {
    fn write_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.channels.len());
        for ch in &self.channels {
            ch.write_state(w);
        }
        w.put_u64(self.records);
        w.put_opt_i64(self.last_ts);
        w.put_usize(self.warmup_dts.len());
        for dt in &self.warmup_dts {
            w.put_i64(*dt);
        }
        w.put_opt_i64(self.median_dt);
        w.put_usize(self.gap_ring.len());
        for g in &self.gap_ring {
            w.put_bool(*g);
        }
        w.put_usize(self.gap_count);
    }
}

impl Restore for RefMonitor {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n_channels = r.get_usize()?;
        if n_channels != self.channels.len() {
            return Err(SnapError::Corrupt("quality monitor channel-count mismatch"));
        }
        let mut channels: Vec<ChannelQuality> =
            (0..n_channels).map(|_| ChannelQuality::new()).collect();
        for ch in &mut channels {
            ch.read_state(r, self.cfg.window)?;
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
        let n_gaps = r.get_len(1)?;
        if n_gaps > self.cfg.window {
            return Err(SnapError::Corrupt("gap ring larger than the window"));
        }
        let mut gap_ring = VecDeque::with_capacity(n_gaps);
        for _ in 0..n_gaps {
            gap_ring.push_back(r.get_bool()?);
        }
        let gap_count = r.get_usize()?;
        if gap_count != gap_ring.iter().filter(|g| **g).count() {
            return Err(SnapError::Corrupt("gap count disagrees with the gap ring"));
        }
        self.channels = channels;
        self.records = records;
        self.last_ts = last_ts;
        self.warmup_dts = warmup_dts;
        self.median_dt = median_dt;
        self.gap_ring = gap_ring;
        self.gap_count = gap_count;
        Ok(())
    }
}

/// A snapshot's fields by bit pattern.
fn bits(s: &QualitySnapshot) -> (u64, u64, u64, bool, u64) {
    (
        s.nan_fraction.to_bits(),
        s.gap_fraction.to_bits(),
        s.max_drift_z.to_bits(),
        s.reference_frozen,
        s.records,
    )
}

fn restored<M: Restore>(mut target: M, bytes: &[u8]) -> M {
    let mut r = SnapReader::new(bytes);
    target.read_state(&mut r).expect("state written by a monitor restores");
    r.finish().expect("restore consumes the whole state");
    target
}

/// One cell: mostly finite values around a level whose spread varies by
/// three orders of magnitude (so references freeze and the drift gates
/// both pass and fail), sometimes a constant, NaN or an infinity.
fn cell() -> impl Strategy<Value = f64> {
    (0u8..10, -4.0f64..4.0, 0usize..3).prop_map(|(kind, x, scale)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 5.0,
        _ => 10.0 + x * [1.0, 10.0, 1000.0][scale],
    })
}

/// One step: the timestamp delta from the previous record (repeats and
/// backwards steps included) and a row of 0..=channels+2 cells.
fn step(channels: usize) -> impl Strategy<Value = (i64, Vec<f64>)> {
    (
        (0usize..8).prop_map(|i| [-120i64, 0, 60, 60, 60, 61, 600, 3600][i]),
        prop::collection::vec(cell(), 0..=channels + 2),
    )
}

/// Short references, windows of 0–8 records, and thresholds drawn so
/// every flag branch both fires and stays quiet.
fn config() -> impl Strategy<Value = QualityConfig> {
    ((0usize..=6, 0usize..=8), (0usize..3, 0usize..2, 0usize..2, 0usize..2, 0usize..2)).prop_map(
        |((reference_len, window), (nan, cadence, gap, z, range))| QualityConfig {
            reference_len,
            window,
            nan_fraction_flag: [0.0, 0.25, 1.0][nan],
            cadence_gap_factor: [1.0, 8.0][cadence],
            gap_fraction_flag: [0.0, 0.5][gap],
            drift_z_flag: [0.5, 4.0][z],
            drift_range_factor: [0.0, 2.5][range],
        },
    )
}

/// A config, a channel count, the steps and the step at which each side
/// is also restored from the other's state.
fn case() -> impl Strategy<Value = (QualityConfig, usize, Vec<(i64, Vec<f64>)>, usize)> {
    (config(), 0usize..=4).prop_flat_map(|(cfg, channels)| {
        (Just(cfg), Just(channels), prop::collection::vec(step(channels), 1..80), 0usize..80)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flat_ring_monitor_equals_the_vecdeque_reference((cfg, channels, steps, cut) in case()) {
        let mut new = QualityMonitor::new(channels, cfg);
        let mut old = RefMonitor::new(channels, cfg);
        // After the cut, each side also carries on from the other's state.
        let mut crossed: Option<(QualityMonitor, RefMonitor)> = None;
        let mut t = 1_000_000i64;
        for (k, (dt, row)) in steps.iter().enumerate() {
            if k == cut.min(steps.len() - 1) {
                let from_old = restored(QualityMonitor::new(channels, cfg), &old.state_bytes());
                let from_new = restored(RefMonitor::new(channels, cfg), &new.state_bytes());
                prop_assert_eq!(from_old.state_bytes(), old.state_bytes());
                prop_assert_eq!(from_new.state_bytes(), new.state_bytes());
                crossed = Some((from_old, from_new));
            }
            t += dt;
            let flag = new.observe(t, row);
            prop_assert_eq!(flag, old.observe(t, row), "flag at step {}", k);
            prop_assert_eq!(bits(&new.snapshot()), bits(&old.snapshot()), "snapshot at step {}", k);
            let bytes = new.state_bytes();
            prop_assert_eq!(&bytes, &old.state_bytes(), "state bytes at step {}", k);
            if let Some((from_old, from_new)) = crossed.as_mut() {
                prop_assert_eq!(from_old.observe(t, row), flag, "restored-from-reference flag at step {}", k);
                prop_assert_eq!(from_new.observe(t, row), flag, "reference restored-from-flat flag at step {}", k);
                prop_assert_eq!(&from_old.state_bytes(), &bytes);
                prop_assert_eq!(&from_new.state_bytes(), &bytes);
            }
        }
    }
}

/// Per-channel rings of unequal length are a state no monitor can reach
/// (every record lands in every channel's ring). The reference accepted
/// it; the flat ring, which has no way to represent it, refuses it.
#[test]
fn unequal_channel_rings_are_refused() {
    let cfg = QualityConfig { reference_len: 4, window: 4, ..QualityConfig::default() };
    let mut w = SnapWriter::new();
    w.put_usize(2);
    for ring in [vec![1.0], vec![1.0, 2.0]] {
        w.put_usize(0); // ref_count
        w.put_f64(0.0); // ref_mean
        w.put_f64(0.0); // ref_m2
        w.put_f64(f64::INFINITY); // ref_min
        w.put_f64(f64::NEG_INFINITY); // ref_max
        w.put_bool(false); // frozen
        w.put_f64_slice(&ring);
        w.put_f64(ring.iter().sum()); // finite_sum
        w.put_usize(ring.len()); // finite_count
        w.put_usize(0); // nan_count
    }
    w.put_u64(2); // records
    w.put_opt_i64(None); // last_ts
    w.put_usize(0); // warm-up gaps
    w.put_opt_i64(None); // median cadence
    w.put_usize(0); // gap ring
    w.put_usize(0); // gap count
    let bytes = w.into_bytes();

    let mut old = RefMonitor::new(2, cfg);
    assert!(old.read_state(&mut SnapReader::new(&bytes)).is_ok(), "the reference took it");
    let mut new = QualityMonitor::new(2, cfg);
    match new.read_state(&mut SnapReader::new(&bytes)) {
        Err(SnapError::Corrupt(why)) => assert!(why.contains("unequal"), "{why}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
}

/// Counts that disagree with the cells they count are refused too: carrying
/// them forward would underflow a counter once those cells leave the window.
#[test]
fn counts_that_disagree_with_the_cells_are_refused() {
    let cfg = QualityConfig { reference_len: 4, window: 4, ..QualityConfig::default() };
    let mut w = SnapWriter::new();
    w.put_usize(1);
    w.put_usize(0);
    w.put_f64(0.0);
    w.put_f64(0.0);
    w.put_f64(f64::INFINITY);
    w.put_f64(f64::NEG_INFINITY);
    w.put_bool(false);
    w.put_f64_slice(&[1.0, f64::NAN]);
    w.put_f64(1.0);
    w.put_usize(2); // claims both cells finite
    w.put_usize(0);
    w.put_u64(2);
    w.put_opt_i64(None);
    w.put_usize(0);
    w.put_opt_i64(None);
    w.put_usize(0);
    w.put_usize(0);
    let bytes = w.into_bytes();
    let mut new = QualityMonitor::new(1, cfg);
    assert!(matches!(new.read_state(&mut SnapReader::new(&bytes)), Err(SnapError::Corrupt(_))));
}
