//! Sequential change/drift detectors: CUSUM, Page–Hinkley and the EWMA
//! control chart.
//!
//! The paper's discussion section attributes most of the framework's
//! difficulty to *concept drift*: services and repairs shift a vehicle's
//! operating baseline, and unrecorded events shift it silently. The
//! framework answers drift by resetting the reference profile on recorded
//! events; these classical sequential tests are the complementary tool for
//! detecting the *unrecorded* shifts. `tests/tests/drift_integration.rs`
//! runs them against the simulator's seasonal cycle and service
//! re-baselining.
//!
//! All three detectors share the same contract: feed observations one at a
//! time with `update`, which returns `true` on the step where a change is
//! declared. After an alarm the statistic resets so the detector can be
//! left running.

/// One-sided CUSUM (cumulative sum) change detector.
///
/// Tracks `S_t = max(0, S_{t-1} + (x_t - target - slack))` and alarms when
/// `S_t` exceeds `threshold`. With `target` set to the in-control mean and
/// `slack` to half the shift magnitude worth detecting (both in the units
/// of the observations), this is the classical Page CUSUM for an upward
/// mean shift. Wrap observations in a sign flip to watch for downward
/// shifts, or run a [`TwoSidedCusum`].
///
/// ```
/// use navarchos_stat::drift::Cusum;
///
/// let mut cusum = Cusum::new(0.0, 0.5, 4.0);
/// // In control: nothing accumulates.
/// assert!((0..100).all(|i| !cusum.update(if i % 2 == 0 { 0.4 } else { -0.4 })));
/// // A persistent +2 shift alarms within a few samples.
/// assert!((0..10).any(|_| cusum.update(2.0)));
/// ```
#[derive(Debug, Clone)]
pub struct Cusum {
    target: f64,
    slack: f64,
    threshold: f64,
    statistic: f64,
}

impl Cusum {
    /// Creates a detector for upward shifts away from `target`.
    ///
    /// # Panics
    /// Panics if `slack` is negative or `threshold` is not positive.
    pub fn new(target: f64, slack: f64, threshold: f64) -> Self {
        assert!(slack >= 0.0, "slack must be non-negative");
        assert!(threshold > 0.0, "threshold must be positive");
        Cusum { target, slack, threshold, statistic: 0.0 }
    }

    /// Feeds one observation; returns `true` if a change is declared.
    /// The statistic resets to zero after an alarm.
    pub fn update(&mut self, x: f64) -> bool {
        self.statistic = (self.statistic + x - self.target - self.slack).max(0.0);
        if self.statistic > self.threshold {
            self.statistic = 0.0;
            true
        } else {
            false
        }
    }

    /// Current value of the cumulative-sum statistic.
    pub fn statistic(&self) -> f64 {
        self.statistic
    }

    /// Resets the statistic without changing the configuration.
    pub fn reset(&mut self) {
        self.statistic = 0.0;
    }
}

/// Two-sided CUSUM: a pair of one-sided detectors watching for shifts in
/// either direction.
#[derive(Debug, Clone)]
pub struct TwoSidedCusum {
    up: Cusum,
    down: Cusum,
}

/// Which direction a [`TwoSidedCusum`] alarm fired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftDirection {
    /// The mean shifted upward.
    Up,
    /// The mean shifted downward.
    Down,
}

impl TwoSidedCusum {
    /// Creates a symmetric two-sided detector around `target`.
    pub fn new(target: f64, slack: f64, threshold: f64) -> Self {
        TwoSidedCusum {
            up: Cusum::new(target, slack, threshold),
            down: Cusum::new(-target, slack, threshold),
        }
    }

    /// Feeds one observation; reports the direction if either side alarms.
    /// Both sides reset after any alarm so a step change is reported once.
    pub fn update(&mut self, x: f64) -> Option<ShiftDirection> {
        let up = self.up.update(x);
        let down = self.down.update(-x);
        let hit = if up {
            Some(ShiftDirection::Up)
        } else if down {
            Some(ShiftDirection::Down)
        } else {
            None
        };
        if hit.is_some() {
            self.up.reset();
            self.down.reset();
        }
        hit
    }

    /// The larger of the two one-sided statistics.
    pub fn statistic(&self) -> f64 {
        self.up.statistic().max(self.down.statistic())
    }
}

/// Page–Hinkley test for an upward mean shift with an adaptive baseline.
///
/// Unlike [`Cusum`], the in-control mean is estimated online (the running
/// mean of everything seen so far), so no target has to be supplied — the
/// standard formulation used in the data-stream literature. Alarms when
/// `m_t - min(m_t) > lambda` where `m_t = Σ (x_i - mean_i - delta)`.
#[derive(Debug, Clone)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    count: u64,
    mean: f64,
    cumulative: f64,
    minimum: f64,
}

impl PageHinkley {
    /// Creates a detector with magnitude tolerance `delta` and alarm
    /// threshold `lambda` (both in observation units).
    ///
    /// # Panics
    /// Panics if `delta` is negative or `lambda` is not positive.
    pub fn new(delta: f64, lambda: f64) -> Self {
        assert!(delta >= 0.0, "delta must be non-negative");
        assert!(lambda > 0.0, "lambda must be positive");
        PageHinkley { delta, lambda, count: 0, mean: 0.0, cumulative: 0.0, minimum: 0.0 }
    }

    /// Feeds one observation; returns `true` if drift is declared. All
    /// state (including the learned baseline) resets after an alarm.
    pub fn update(&mut self, x: f64) -> bool {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.cumulative += x - self.mean - self.delta;
        self.minimum = self.minimum.min(self.cumulative);
        if self.cumulative - self.minimum > self.lambda {
            *self = PageHinkley::new(self.delta, self.lambda);
            true
        } else {
            false
        }
    }

    /// Current test statistic `m_t - min(m_t)`.
    pub fn statistic(&self) -> f64 {
        self.cumulative - self.minimum
    }

    /// Number of observations absorbed since the last reset.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been absorbed since the last reset.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// EWMA (exponentially weighted moving average) control chart.
///
/// Maintains `z_t = (1-lambda)·z_{t-1} + lambda·x_t` and alarms when `z_t`
/// leaves the band `mu ± width·sigma·sqrt(lambda/(2-lambda))`, the
/// steady-state control limits of the classical chart. `mu` and `sigma`
/// describe the in-control distribution (take them from a reference
/// profile's holdout, exactly like the framework's self-tuning threshold).
#[derive(Debug, Clone)]
pub struct EwmaChart {
    mu: f64,
    limit: f64,
    lambda: f64,
    z: f64,
    started: bool,
}

impl EwmaChart {
    /// Creates a chart for an in-control N(`mu`, `sigma`²) signal with
    /// smoothing `lambda` ∈ (0, 1] and control-limit width `width` (in
    /// steady-state standard deviations; 3 is the textbook default).
    ///
    /// # Panics
    /// Panics if `lambda` is outside (0, 1], or `sigma`/`width` are not
    /// positive.
    pub fn new(mu: f64, sigma: f64, lambda: f64, width: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0, 1]");
        assert!(sigma > 0.0, "sigma must be positive");
        assert!(width > 0.0, "width must be positive");
        let limit = width * sigma * (lambda / (2.0 - lambda)).sqrt();
        EwmaChart { mu, limit, lambda, z: mu, started: false }
    }

    /// Feeds one observation; returns `true` while the smoothed statistic
    /// is outside the control band. The statistic is *not* reset on alarm:
    /// an EWMA chart stays out of control until the process returns, which
    /// is the behaviour operators expect from a monitoring chart.
    pub fn update(&mut self, x: f64) -> bool {
        if self.started {
            self.z += self.lambda * (x - self.z);
        } else {
            // Seed with the first observation so a chart started mid-shift
            // converges from data rather than from the nominal mean.
            self.z = self.mu + self.lambda * (x - self.mu);
            self.started = true;
        }
        (self.z - self.mu).abs() > self.limit
    }

    /// Current smoothed statistic `z_t`.
    pub fn statistic(&self) -> f64 {
        self.z
    }

    /// Distance of the control limits from the centre line.
    pub fn control_limit(&self) -> f64 {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic MINSTD Lehmer generator for noise, as elsewhere in
    /// the workspace's tests.
    struct Lehmer(u64);
    impl Lehmer {
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(48_271) % 0x7FFF_FFFF;
            self.0 as f64 / 0x7FFF_FFFF as f64
        }
        /// Approximately N(0,1) via the sum of 12 uniforms.
        fn next_gauss(&mut self) -> f64 {
            (0..12).map(|_| self.next_f64()).sum::<f64>() - 6.0
        }
    }

    #[test]
    fn cusum_ignores_in_control_noise() {
        let mut rng = Lehmer(7);
        let mut c = Cusum::new(0.0, 0.5, 8.0);
        for _ in 0..2_000 {
            assert!(!c.update(rng.next_gauss()), "false alarm in control");
        }
    }

    #[test]
    fn cusum_detects_upward_shift_quickly() {
        let mut rng = Lehmer(11);
        let mut c = Cusum::new(0.0, 0.5, 8.0);
        for _ in 0..200 {
            c.update(rng.next_gauss());
        }
        // Shift of +2 sigma: should alarm within a handful of samples.
        let mut delay = None;
        for i in 0..100 {
            if c.update(rng.next_gauss() + 2.0) {
                delay = Some(i);
                break;
            }
        }
        let delay = delay.expect("shift detected");
        assert!(delay < 20, "detection delay {delay} too long");
    }

    #[test]
    fn cusum_statistic_resets_after_alarm() {
        let mut c = Cusum::new(0.0, 0.0, 5.0);
        assert!(!c.update(4.0));
        assert!(c.update(4.0), "8 > 5 alarms");
        assert_eq!(c.statistic(), 0.0, "reset after alarm");
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn cusum_rejects_non_positive_threshold() {
        let _ = Cusum::new(0.0, 0.5, 0.0);
    }

    #[test]
    fn two_sided_cusum_reports_direction() {
        let mut rng = Lehmer(3);
        let mut c = TwoSidedCusum::new(0.0, 0.5, 8.0);
        for _ in 0..300 {
            assert_eq!(c.update(rng.next_gauss()), None);
        }
        let mut hit = None;
        for _ in 0..100 {
            if let Some(d) = c.update(rng.next_gauss() - 2.0) {
                hit = Some(d);
                break;
            }
        }
        assert_eq!(hit, Some(ShiftDirection::Down));
    }

    #[test]
    fn page_hinkley_adapts_then_detects() {
        let mut rng = Lehmer(19);
        let mut ph = PageHinkley::new(0.2, 15.0);
        // In-control stream at a non-zero mean the detector must learn.
        for _ in 0..1_500 {
            assert!(!ph.update(5.0 + rng.next_gauss()), "false alarm");
        }
        let mut detected = false;
        for _ in 0..300 {
            if ph.update(7.0 + rng.next_gauss()) {
                detected = true;
                break;
            }
        }
        assert!(detected, "Page–Hinkley missed a +2 shift");
        assert!(ph.is_empty(), "state reset after alarm");
    }

    #[test]
    fn ewma_chart_flags_and_recovers() {
        let mut rng = Lehmer(23);
        // Width 4: the textbook 3-sigma chart has an in-control ARL of
        // only ~500 samples, which would make this test flaky by design.
        let mut chart = EwmaChart::new(0.0, 1.0, 0.2, 4.0);
        for _ in 0..1_000 {
            assert!(!chart.update(rng.next_gauss() * 0.9), "false alarm");
        }
        // Sustained +2 sigma shift: the smoothed statistic crosses the band.
        let mut out = 0;
        for _ in 0..60 {
            if chart.update(2.0 + rng.next_gauss() * 0.9) {
                out += 1;
            }
        }
        assert!(out > 30, "chart flagged only {out}/60 shifted samples");
        // Process returns: the chart re-enters control.
        let mut back_in = false;
        for _ in 0..60 {
            if !chart.update(rng.next_gauss() * 0.9) {
                back_in = true;
            }
        }
        assert!(back_in, "chart never recovered");
    }

    #[test]
    fn ewma_limit_formula() {
        let chart = EwmaChart::new(0.0, 2.0, 0.25, 3.0);
        let expected = 3.0 * 2.0 * (0.25f64 / 1.75).sqrt();
        assert!((chart.control_limit() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be in (0, 1]")]
    fn ewma_rejects_bad_lambda() {
        let _ = EwmaChart::new(0.0, 1.0, 0.0, 3.0);
    }
}
