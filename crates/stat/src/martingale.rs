//! Conformal p-values and the power-martingale exchangeability test of
//! Dai & Bouguelia ("Testing exchangeability with martingale for
//! change-point detection"), the statistical engine behind the Grand
//! inductive detector (Section 3.4 of the paper).
//!
//! The pipeline is: non-conformity score → conformal p-value against the
//! reference scores → multiplicative martingale update with the power
//! betting function ε·p^(ε−1) → a deviation level in [0, 1] that a constant
//! threshold is applied to.

/// Smoothed conformal p-value of a new score `s` against reference scores.
///
/// `p = (#{s_i > s} + θ · (#{s_i = s} + 1)) / (n + 1)` with θ drawn by the
/// caller in [0, 1] (pass 0.5 for the deterministic mid-p variant). Larger
/// scores (stranger samples) yield smaller p-values.
// float_cmp: the smoothed p-value's `#{s_i = s}` term is defined on exact
// equality of stored scores; a tolerance would change the distribution.
#[allow(clippy::float_cmp)]
pub fn conformal_pvalue(reference: &[f64], s: f64, theta: f64) -> f64 {
    let n = reference.len();
    let mut greater = 0usize;
    let mut equal = 0usize;
    for &r in reference {
        if r > s {
            greater += 1;
        } else if r == s {
            equal += 1;
        }
    }
    (greater as f64 + theta.clamp(0.0, 1.0) * (equal as f64 + 1.0)) / (n as f64 + 1.0)
}

/// Power martingale over a stream of conformal p-values.
///
/// Under exchangeability (healthy operation) p-values are ~Uniform(0, 1) and
/// the martingale stays near 1; a run of small p-values (consistent
/// strangeness) makes it grow geometrically. We track `log M` for numerical
/// stability and expose a clamped deviation level in [0, 1] suitable for
/// constant thresholding, exactly how Grand consumes it.
#[derive(Debug, Clone)]
pub struct PowerMartingale {
    epsilon: f64,
    log_m: f64,
    /// log-martingale value at which the deviation level saturates at 1.
    log_saturation: f64,
    /// Sliding memory: with `Some(w)`, the martingale forgets contributions
    /// older than `w` updates, preventing permanent saturation after a
    /// transient change (Grand's "incremental" behaviour).
    window: Option<usize>,
    history: Vec<f64>,
}

impl PowerMartingale {
    /// Default betting exponent. Smaller exponents give the log-martingale
    /// a stronger negative drift under exchangeability (ln ε − (ε − 1) =
    /// −0.023 for ε = 0.8 versus −0.003 for the often-quoted 0.92), which
    /// keeps false saturation rare on long healthy streams while still
    /// growing by ≈ +1.2 per update when p-values collapse to 1e-3.
    pub const DEFAULT_EPSILON: f64 = 0.8;

    /// Creates a martingale with betting exponent `epsilon` in (0, 1).
    ///
    /// The deviation level saturates when the martingale reaches 100 (a
    /// conventional "strong evidence" level: by Ville's inequality the
    /// probability of ever exceeding 100 under exchangeability is ≤ 1 %).
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0,1)");
        PowerMartingale {
            epsilon,
            log_m: 0.0,
            log_saturation: 100.0f64.ln(),
            window: None,
            history: Vec::new(),
        }
    }

    /// Restricts the martingale to the most recent `window` updates.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.window = Some(window);
        self
    }

    /// Feeds one p-value and returns the updated deviation level.
    pub fn update(&mut self, p: f64) -> f64 {
        let p = p.clamp(1e-12, 1.0);
        let increment = self.epsilon.ln() + (self.epsilon - 1.0) * p.ln();
        self.log_m += increment;
        if let Some(w) = self.window {
            self.history.push(increment);
            if self.history.len() > w {
                let old = self.history.remove(0);
                self.log_m -= old;
            }
        }
        // Standard "restart at 1" floor: without it a long healthy prefix
        // builds unbounded negative debt that masks a genuine later change.
        if self.window.is_none() && self.log_m < 0.0 {
            self.log_m = 0.0;
        }
        self.deviation_level()
    }

    /// Current log-martingale value.
    pub fn log_martingale(&self) -> f64 {
        self.log_m
    }

    /// Deviation level in [0, 1]: `clamp(log M / log 100, 0, 1)`.
    pub fn deviation_level(&self) -> f64 {
        (self.log_m / self.log_saturation).clamp(0.0, 1.0)
    }

    /// Resets the martingale to its initial state (used when the reference
    /// profile is rebuilt after a maintenance event).
    pub fn reset(&mut self) {
        self.log_m = 0.0;
        self.history.clear();
    }
}

impl Default for PowerMartingale {
    fn default() -> Self {
        PowerMartingale::new(Self::DEFAULT_EPSILON)
    }
}

// epsilon / window / log_saturation are configuration (rebuilt by the
// restoring side); log_m and the windowed increment history are the
// streaming state.
impl crate::snapshot::Snapshot for PowerMartingale {
    fn write_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_f64(self.log_m);
        w.put_f64_slice(&self.history);
    }
}

impl crate::snapshot::Restore for PowerMartingale {
    fn read_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        let log_m = r.get_f64()?;
        let history = r.get_f64_iter()?;
        if let Some(w) = self.window {
            if history.len() > w {
                return Err(crate::snapshot::SnapError::Corrupt(
                    "PowerMartingale history exceeds window",
                ));
            }
        } else if history.len() != 0 {
            return Err(crate::snapshot::SnapError::Corrupt(
                "PowerMartingale history without a window",
            ));
        }
        self.log_m = log_m;
        self.history.clear();
        self.history.extend(history);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pvalue_extremes() {
        let reference = [1.0, 2.0, 3.0, 4.0];
        // Far stranger than everything: p = θ·1/(n+1), small.
        let p_hi = conformal_pvalue(&reference, 100.0, 0.5);
        assert!((p_hi - 0.5 / 5.0).abs() < 1e-12);
        // Weaker than everything: p = (4 + 0.5)/5, large.
        let p_lo = conformal_pvalue(&reference, -100.0, 0.5);
        assert!((p_lo - 4.5 / 5.0).abs() < 1e-12);
        assert!(p_hi < p_lo);
    }

    #[test]
    fn pvalue_handles_ties() {
        let reference = [2.0, 2.0, 2.0];
        // greater=0, equal=3 → p = θ·4/4 = θ.
        assert!((conformal_pvalue(&reference, 2.0, 0.5) - 0.5).abs() < 1e-12);
        assert!((conformal_pvalue(&reference, 2.0, 0.0) - 0.0).abs() < 1e-12);
        assert!((conformal_pvalue(&reference, 2.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pvalue_in_unit_interval() {
        let reference: Vec<f64> = (0..50).map(|i| i as f64).collect();
        for s in [-5.0, 0.0, 12.5, 49.0, 80.0] {
            for theta in [0.0, 0.3, 1.0] {
                let p = conformal_pvalue(&reference, s, theta);
                assert!((0.0..=1.0).contains(&p), "p={p}");
            }
        }
    }

    #[test]
    fn martingale_grows_on_small_pvalues() {
        let mut m = PowerMartingale::default();
        let mut dev = 0.0;
        for _ in 0..50 {
            dev = m.update(0.01);
        }
        assert!((dev - 1.0).abs() < 1e-12, "saturates under persistent strangeness");
        assert!(m.log_martingale() > 0.0);
    }

    #[test]
    fn martingale_stays_low_on_uniform_pvalues() {
        let mut m = PowerMartingale::default();
        // Deterministic pseudo-uniform sequence (Lehmer / MINSTD generator).
        let mut x: u64 = 123_456_789;
        let mut max_dev = 0.0f64;
        for _ in 0..2000 {
            x = x.wrapping_mul(48_271) % 0x7fff_ffff;
            let p = x as f64 / 0x7fff_ffff as f64;
            max_dev = max_dev.max(m.update(p.clamp(1e-6, 1.0)));
        }
        assert!(max_dev < 0.8, "max deviation {max_dev} under exchangeability");
    }

    #[test]
    fn martingale_reset_clears_state() {
        let mut m = PowerMartingale::default();
        for _ in 0..30 {
            m.update(0.01);
        }
        assert!(m.deviation_level() > 0.5);
        m.reset();
        assert_eq!(m.deviation_level(), 0.0);
        assert_eq!(m.log_martingale(), 0.0);
    }

    #[test]
    fn windowed_martingale_recovers_after_transient() {
        let mut m = PowerMartingale::default().with_window(20);
        for _ in 0..40 {
            m.update(0.001);
        }
        assert!(m.deviation_level() > 0.9);
        for _ in 0..60 {
            m.update(0.9);
        }
        assert!(m.deviation_level() < 0.2, "window lets the martingale decay");
    }

    #[test]
    #[should_panic]
    fn invalid_epsilon_panics() {
        PowerMartingale::new(1.5);
    }
}
