//! Gap-aware resampling of irregular telemetry onto a regular grid.
//!
//! OBD-II loggers sample opportunistically: the cadence varies with bus
//! load and drops out entirely between rides. Some consumers want a
//! regular grid instead: exported CSVs are easier to join downstream, and
//! frequency-domain analysis assumes uniform spacing. This module resamples
//! a [`Frame`] onto a fixed period using linear interpolation (or
//! previous-value hold), and refuses to bridge gaps longer than `max_gap`
//! so rides are never interpolated across parking time — the same
//! gap-awareness the windowing transforms apply.

use crate::frame::Frame;

/// How values between observed samples are filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillMethod {
    /// Linear interpolation between the neighbouring observations.
    Linear,
    /// Previous-value hold (step function).
    Previous,
}

/// Resampling specification.
#[derive(Debug, Clone, Copy)]
pub struct ResampleSpec {
    /// Output grid period in seconds.
    pub period: i64,
    /// Longest input gap (seconds) the resampler will fill across. Grid
    /// points falling inside a longer gap are dropped, splitting the
    /// output exactly where [`Frame::split_by_gap`] would.
    pub max_gap: i64,
    /// Interpolation method.
    pub method: FillMethod,
}

impl ResampleSpec {
    /// A spec matching the workspace's windowing defaults: the requested
    /// period, linear fill, and the transforms' 6-hour gap limit.
    pub fn linear(period: i64) -> Self {
        ResampleSpec { period, max_gap: 6 * 3_600, method: FillMethod::Linear }
    }

    /// Previous-value-hold variant of [`ResampleSpec::linear`].
    pub fn previous(period: i64) -> Self {
        ResampleSpec { method: FillMethod::Previous, ..ResampleSpec::linear(period) }
    }
}

/// Resamples `frame` onto the regular grid `t0, t0+period, …` where `t0`
/// is the first timestamp rounded *up* to a multiple of the period. Grid
/// points outside the observed range, or inside a gap longer than
/// `spec.max_gap`, are omitted.
///
/// ```
/// use navarchos_tsframe::{resample, Frame, ResampleSpec};
///
/// let mut f = Frame::new(&["rpm"]);
/// f.push_row(0, &[1000.0]);
/// f.push_row(90, &[1900.0]);
/// let g = resample(&f, ResampleSpec::linear(30));
/// assert_eq!(g.timestamps(), &[0, 30, 60, 90]);
/// assert_eq!(g.column(0), &[1000.0, 1300.0, 1600.0, 1900.0]);
/// ```
///
/// # Panics
/// Panics if `spec.period` or `spec.max_gap` is not positive, or if the
/// frame's timestamps are not non-decreasing (frames built through
/// [`Frame::push_row`] always are).
pub fn resample(frame: &Frame, spec: ResampleSpec) -> Frame {
    assert!(spec.period > 0, "period must be positive");
    assert!(spec.max_gap > 0, "max_gap must be positive");
    let mut out = Frame::new(frame.names());
    if frame.is_empty() {
        return out;
    }
    let ts = frame.timestamps();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be sorted");

    let (Some(&first), Some(&last)) = (ts.first(), ts.last()) else {
        return out;
    };
    let t0 = first.div_euclid(spec.period) * spec.period;
    let t0 = if t0 < first { t0 + spec.period } else { t0 };

    // `hi` tracks the first observation at or after the grid point; both
    // cursors only move forward, so the whole pass is O(n + grid points).
    let mut hi = 0usize;
    let mut row = vec![0.0; frame.width()];
    let mut t = t0;
    while t <= last {
        while ts[hi] < t {
            hi += 1;
        }
        if ts[hi] == t {
            frame.row_into(hi, &mut row);
            out.push_row(t, &row);
        } else {
            // Strictly between observations hi-1 and hi. t > first implies
            // hi > 0 here.
            let lo = hi - 1;
            if ts[hi] - ts[lo] <= spec.max_gap {
                match spec.method {
                    FillMethod::Previous => frame.row_into(lo, &mut row),
                    FillMethod::Linear => {
                        let w = (t - ts[lo]) as f64 / (ts[hi] - ts[lo]) as f64;
                        for (c, slot) in row.iter_mut().enumerate() {
                            let a = frame.column(c)[lo];
                            let b = frame.column(c)[hi];
                            *slot = a + w * (b - a);
                        }
                    }
                }
                out.push_row(t, &row);
            }
        }
        t += spec.period;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_frame(times: &[i64]) -> Frame {
        let mut f = Frame::new(&["a", "b"]);
        for &t in times {
            f.push_row(t, &[t as f64, -2.0 * t as f64]);
        }
        f
    }

    #[test]
    fn linear_interpolation_is_exact_on_a_ramp() {
        let f = ramp_frame(&[0, 7, 13, 20, 31]);
        let r = resample(&f, ResampleSpec::linear(5));
        assert_eq!(r.timestamps(), &[0, 5, 10, 15, 20, 25, 30]);
        for (i, &t) in r.timestamps().iter().enumerate() {
            assert!((r.column(0)[i] - t as f64).abs() < 1e-12, "linear in t");
            assert!((r.column(1)[i] + 2.0 * t as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn previous_hold_uses_left_neighbour() {
        let f = ramp_frame(&[0, 7, 13]);
        let r = resample(&f, ResampleSpec::previous(5));
        assert_eq!(r.timestamps(), &[0, 5, 10]);
        assert_eq!(r.column(0), &[0.0, 0.0, 7.0]);
    }

    #[test]
    fn grid_starts_at_next_period_multiple() {
        let f = ramp_frame(&[3, 8, 14]);
        let r = resample(&f, ResampleSpec::linear(5));
        assert_eq!(r.timestamps(), &[5, 10], "4 is before the data, 15 after");
    }

    #[test]
    fn long_gaps_are_not_bridged() {
        // Two rides separated by 8 hours; max_gap 6 h.
        let mut times: Vec<i64> = (0..10).map(|i| i * 60).collect();
        let resume = 9 * 60 + 8 * 3_600;
        times.extend((0..10).map(|i| resume + i * 60));
        let f = ramp_frame(&times);
        let r = resample(&f, ResampleSpec::linear(300));
        for &t in r.timestamps() {
            let in_ride1 = t <= 9 * 60;
            let in_ride2 = t >= resume;
            assert!(in_ride1 || in_ride2, "grid point {t} inside the gap");
        }
        // Both rides still contribute points.
        assert!(r.timestamps().iter().any(|&t| t <= 9 * 60));
        assert!(r.timestamps().iter().any(|&t| t >= resume));
    }

    #[test]
    fn exact_hits_pass_through_unchanged() {
        let f = ramp_frame(&[0, 5, 10]);
        let r = resample(&f, ResampleSpec::linear(5));
        assert_eq!(r.timestamps(), f.timestamps());
        assert_eq!(r.column(0), f.column(0));
    }

    #[test]
    fn empty_frame_resamples_to_empty() {
        let f = Frame::new(&["a"]);
        let r = resample(&f, ResampleSpec::linear(5));
        assert!(r.is_empty());
        assert_eq!(r.width(), 1);
    }

    #[test]
    fn single_sample_on_grid_survives() {
        let mut f = Frame::new(&["a"]);
        f.push_row(10, &[3.0]);
        let r = resample(&f, ResampleSpec::linear(5));
        assert_eq!(r.timestamps(), &[10]);
        assert_eq!(r.column(0), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let f = ramp_frame(&[0, 5]);
        let _ = resample(&f, ResampleSpec { period: 0, max_gap: 10, method: FillMethod::Linear });
    }
}
