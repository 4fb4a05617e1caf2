//! The paper's evaluation protocol (Section 4): a *prediction horizon*
//! (PH) ending at each repair event; one or more alarms inside a PH count
//! as a single true positive, every alarm outside any PH counts as a
//! false positive, and the headline metric is F0.5 (precision-weighted).

use crate::aggregator::AlarmAggregator;
use crate::runner::VehicleScores;

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalParams {
    /// Prediction-horizon length in seconds (the paper uses 15 and 30
    /// days).
    pub ph_seconds: i64,
    /// Alarms closer than this are merged into one alarm instance before
    /// counting (one alarm per day by default — per-minute scoring would
    /// otherwise turn one bad afternoon into hundreds of false positives).
    pub dedup_seconds: i64,
    /// Minimum threshold violations within one merged group for it to
    /// count as an alarm instance. Genuine degradation violates
    /// persistently (many windows per day); isolated single-sample tail
    /// events do not constitute an actionable alarm.
    pub min_instance_violations: usize,
    /// Minimum number of *distinct* score channels violating within one
    /// group (capped at the detector's channel count, so single-channel
    /// detectors are unaffected). A real component fault perturbs several
    /// signal relationships at once; a single channel's statistical tail
    /// does not.
    pub min_distinct_channels: usize,
}

impl EvalParams {
    /// PH of `days` days, tuned for daily-median score traces: an alarm
    /// instance is at least two violating days within a three-day span,
    /// on at least two distinct channels.
    pub fn days(days: i64) -> Self {
        EvalParams {
            ph_seconds: days * 86_400,
            dedup_seconds: 3 * 86_400,
            min_instance_violations: 6,
            min_distinct_channels: 2,
        }
    }
}

/// Confusion counts under the PH protocol.
///
/// ```
/// use navarchos_core::EvalCounts;
///
/// // 4 failures detected, 1 false alarm, 5 failures missed — the paper's
/// // headline shape.
/// let counts = EvalCounts { tp: 4, fp: 1, fn_: 5 };
/// assert!((counts.precision() - 0.8).abs() < 1e-12);
/// assert!(counts.f05() > counts.f1(), "F0.5 rewards precision");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalCounts {
    /// Failures with at least one alarm inside their PH.
    pub tp: usize,
    /// Alarm instances outside every PH.
    pub fp: usize,
    /// Failures with no alarm inside their PH.
    pub fn_: usize,
}

impl EvalCounts {
    /// Precision: TP / (TP + FP); 0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall: TP / (TP + FN); 0 when there were no failures.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// Fβ score.
    pub fn f_beta(&self, beta: f64) -> f64 {
        let p = self.precision();
        let r = self.recall();
        let b2 = beta * beta;
        // p, r >= 0, so the denominator vanishes exactly when both are 0;
        // `> 0.0` also routes a NaN score to the defined-zero branch.
        let denom = b2 * p + r;
        if denom > 0.0 {
            (1.0 + b2) * p * r / denom
        } else {
            0.0
        }
    }

    /// F0.5 — the paper's headline metric (precision weighs more).
    pub fn f05(&self) -> f64 {
        self.f_beta(0.5)
    }

    /// F1.
    pub fn f1(&self) -> f64 {
        self.f_beta(1.0)
    }

    /// Merges counts from another vehicle.
    pub fn merge(&mut self, other: &EvalCounts) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

/// Deduplicates sorted alarm timestamps: alarms within `window` seconds of
/// the group's first alarm are merged; groups with fewer than
/// `min_violations` members are dropped. Each surviving group is
/// represented by its first timestamp.
pub fn dedup_alarms(alarms: &[i64], window: i64, min_violations: usize) -> Vec<i64> {
    let events: Vec<(i64, usize)> = alarms.iter().map(|&t| (t, 0)).collect();
    alarm_instances(&events, window, min_violations, 1)
}

/// Groups channel-attributed violations `(timestamp, channel)` (sorted by
/// time) into alarm instances: a group spans `window` seconds from its
/// first violation and must contain at least `min_violations` violations
/// on at least `min_channels` distinct channels. Returns the start
/// timestamp of each qualifying group. A fold over [`AlarmAggregator`],
/// the grouper that serves operator alarms.
pub fn alarm_instances(
    events: &[(i64, usize)],
    window: i64,
    min_violations: usize,
    min_channels: usize,
) -> Vec<i64> {
    let mut grouper = AlarmAggregator::with_rules(window, min_violations, min_channels);
    events.iter().filter_map(|&(t, c)| grouper.push(t, c)).map(|i| i.start).collect()
}

/// Evaluates pre-grouped alarm instances against repair times (no further
/// deduplication).
pub fn evaluate_vehicle_instances(
    instances: &[i64],
    repairs: &[i64],
    params: EvalParams,
) -> EvalCounts {
    let mut counts = EvalCounts::default();
    for &r in repairs {
        let hit = instances.iter().any(|&a| a >= r - params.ph_seconds && a < r);
        if hit {
            counts.tp += 1;
        } else {
            counts.fn_ += 1;
        }
    }
    for &a in instances {
        let inside = repairs.iter().any(|&r| a >= r - params.ph_seconds && a < r);
        if !inside {
            counts.fp += 1;
        }
    }
    counts
}

/// Evaluates every threshold parameter in `candidates` over pre-computed
/// score traces and returns each one's fleet counts, in grid order.
/// `scores[v]` and `repairs[v]` are index-aligned per vehicle; candidates
/// are evaluated in parallel.
pub fn sweep(
    scores: &[&VehicleScores],
    repairs: &[Vec<i64>],
    candidates: &[f64],
    params: EvalParams,
) -> Vec<EvalCounts> {
    assert_eq!(scores.len(), repairs.len());
    crate::par::par_map(candidates, |_, &cand| {
        let mut counts = EvalCounts::default();
        for (vs, reps) in scores.iter().zip(repairs) {
            let instances = vs.alarm_instances(cand, &params);
            counts.merge(&evaluate_vehicle_instances(&instances, reps, params));
        }
        counts
    })
}

/// The best of a [`sweep`] by F0.5 — the paper's "multiple factors"
/// protocol: `(best_parameter, best_counts)`, a tie going to the earlier
/// candidate.
pub fn best_of(candidates: &[f64], counts: &[EvalCounts]) -> (f64, EvalCounts) {
    assert!(!candidates.is_empty());
    let mut best = (candidates[0], EvalCounts::default());
    let mut best_f = -1.0;
    for (&cand, &counts) in candidates.iter().zip(counts) {
        let f = counts.f05();
        if f > best_f {
            best_f = f;
            best = (cand, counts);
        }
    }
    best
}

/// Sweeps a threshold parameter over pre-computed score traces and returns
/// `(best_parameter, best_counts)` by F0.5: [`best_of`] a [`sweep`].
pub fn sweep_best(
    scores: &[&VehicleScores],
    repairs: &[Vec<i64>],
    candidates: &[f64],
    params: EvalParams,
) -> (f64, EvalCounts) {
    best_of(candidates, &sweep(scores, repairs, candidates, params))
}

/// Vehicle-level bootstrap confidence interval for F0.5: vehicles are
/// resampled with replacement `n_boot` times, and the (lo, hi) quantiles
/// of the resulting F0.5 distribution returned. With 9 failures on 26
/// vehicles, point estimates are fragile — the paper reports none of this
/// uncertainty; we surface it.
pub fn bootstrap_f05_ci(
    instances: &[Vec<i64>],
    repairs: &[Vec<i64>],
    params: EvalParams,
    n_boot: usize,
    seed: u64,
) -> (f64, f64) {
    assert_eq!(instances.len(), repairs.len(), "vehicle count mismatch");
    assert!(n_boot > 0);
    let n = instances.len();
    // Minimal xorshift generator: rand is not a dependency of this crate's
    // public evaluation layer, and statistical-grade randomness is not
    // required for resampling indices.
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut f05s = Vec::with_capacity(n_boot);
    for _ in 0..n_boot {
        let mut counts = EvalCounts::default();
        for _ in 0..n {
            let v = (next() % n as u64) as usize;
            counts.merge(&evaluate_vehicle_instances(&instances[v], &repairs[v], params));
        }
        f05s.push(counts.f05());
    }
    f05s.sort_by(|a, b| a.total_cmp(b));
    let q = |f: f64| f05s[((f05s.len() - 1) as f64 * f) as usize];
    (q(0.05), q(0.95))
}

/// The self-tuning factor grid used by the experiments.
pub fn factor_grid() -> Vec<f64> {
    vec![
        0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0, 32.0, 48.0,
        64.0, 96.0,
    ]
}

/// The constant-threshold grid used for Grand.
pub fn constant_grid() -> Vec<f64> {
    vec![0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99]
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: i64 = 86_400;

    #[test]
    fn dedup_merges_close_alarms() {
        let alarms = vec![0, 100, 3600, DAY, DAY + 50, 3 * DAY];
        let d = dedup_alarms(&alarms, DAY, 1);
        assert_eq!(d, vec![0, DAY, 3 * DAY]);
        assert_eq!(dedup_alarms(&[], DAY, 1), Vec::<i64>::new());
    }

    #[test]
    fn dedup_persistence_filters_isolated_alarms() {
        // Group at day 0 has 3 violations, day 5 has 1: only the first
        // survives a min of 2.
        let alarms = vec![0, 100, 200, 5 * DAY];
        let d = dedup_alarms(&alarms, DAY, 2);
        assert_eq!(d, vec![0]);
        // A trailing group that qualifies is kept.
        let alarms = vec![0, 5 * DAY, 5 * DAY + 10, 5 * DAY + 20];
        let d = dedup_alarms(&alarms, DAY, 2);
        assert_eq!(d, vec![5 * DAY]);
    }

    fn lenient(days: i64) -> EvalParams {
        EvalParams { min_instance_violations: 1, ..EvalParams::days(days) }
    }

    /// Raw violation timestamps grouped into instances, then counted.
    fn evaluate_raw(alarms: &[i64], repairs: &[i64], params: EvalParams) -> EvalCounts {
        let instances = dedup_alarms(alarms, params.dedup_seconds, params.min_instance_violations);
        evaluate_vehicle_instances(&instances, repairs, params)
    }

    #[test]
    fn alarm_inside_ph_is_tp() {
        let repairs = vec![30 * DAY];
        let alarms = vec![20 * DAY];
        let c = evaluate_raw(&alarms, &repairs, lenient(15));
        assert_eq!(c, EvalCounts { tp: 1, fp: 0, fn_: 0 });
    }

    #[test]
    fn alarm_outside_ph_is_fp_and_failure_missed() {
        let repairs = vec![30 * DAY];
        let alarms = vec![5 * DAY];
        let c = evaluate_raw(&alarms, &repairs, lenient(15));
        assert_eq!(c, EvalCounts { tp: 0, fp: 1, fn_: 1 });
    }

    #[test]
    fn multiple_alarms_in_ph_count_once() {
        let repairs = vec![30 * DAY];
        let alarms = vec![20 * DAY, 22 * DAY, 25 * DAY];
        let c = evaluate_raw(&alarms, &repairs, lenient(15));
        assert_eq!(c.tp, 1);
        assert_eq!(c.fp, 0);
    }

    #[test]
    fn alarm_at_repair_time_does_not_count() {
        // PH ends *with* the repair: an alarm at the repair instant is not
        // a prediction.
        let repairs = vec![30 * DAY];
        let alarms = vec![30 * DAY];
        let c = evaluate_raw(&alarms, &repairs, lenient(15));
        assert_eq!(c, EvalCounts { tp: 0, fp: 1, fn_: 1 });
    }

    #[test]
    fn metrics_known_values() {
        // The paper's headline row: precision 0.78, recall 0.44 → F0.5 ≈ 0.68.
        let c = EvalCounts { tp: 4, fp: 1, fn_: 5 };
        assert!((c.precision() - 0.8).abs() < 1e-12);
        assert!((c.recall() - 4.0 / 9.0).abs() < 1e-12);
        let f05 = c.f05();
        assert!(f05 > c.f1(), "F0.5 favours precision here");
        // Degenerate counts.
        let z = EvalCounts::default();
        assert_eq!(z.precision(), 0.0);
        assert_eq!(z.recall(), 0.0);
        assert_eq!(z.f05(), 0.0);
    }

    #[test]
    fn fleet_evaluation_merges() {
        let repairs = [vec![30 * DAY], vec![]];
        let alarms = [vec![25 * DAY], vec![2 * DAY]];
        let mut c = EvalCounts::default();
        for (a, r) in alarms.iter().zip(&repairs) {
            c.merge(&evaluate_raw(a, r, lenient(15)));
        }
        assert_eq!(c, EvalCounts { tp: 1, fp: 1, fn_: 0 });
    }

    #[test]
    fn f_beta_extremes() {
        let c = EvalCounts { tp: 1, fp: 0, fn_: 9 };
        // precision 1, recall 0.1.
        assert!(c.f_beta(0.25) > c.f_beta(4.0), "small beta weighs precision");
    }

    #[test]
    fn bootstrap_ci_brackets_point_estimate() {
        let params = EvalParams { min_instance_violations: 1, ..EvalParams::days(30) };
        // 6 vehicles: 3 clean detections, 3 with an FP each.
        let mut instances = Vec::new();
        let mut repairs = Vec::new();
        for v in 0..6i64 {
            if v < 3 {
                instances.push(vec![25 * DAY]);
                repairs.push(vec![30 * DAY]);
            } else {
                instances.push(vec![100 * DAY]);
                repairs.push(vec![]);
            }
        }
        let (lo, hi) = bootstrap_f05_ci(&instances, &repairs, params, 500, 7);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        assert!(lo <= hi);
        // Point estimate: tp 3, fp 3 → P 0.5, R 1 → F0.5 ≈ 0.556.
        let mut point = EvalCounts::default();
        for (i, r) in instances.iter().zip(&repairs) {
            point.merge(&evaluate_vehicle_instances(i, r, params));
        }
        assert!(
            lo <= point.f05() + 1e-9 && point.f05() <= hi + 1e-9,
            "[{lo},{hi}] vs {}",
            point.f05()
        );
    }

    #[test]
    fn bootstrap_ci_deterministic() {
        let params = EvalParams { min_instance_violations: 1, ..EvalParams::days(30) };
        let instances = vec![vec![25 * DAY], vec![]];
        let repairs = vec![vec![30 * DAY], vec![]];
        let a = bootstrap_f05_ci(&instances, &repairs, params, 100, 3);
        let b = bootstrap_f05_ci(&instances, &repairs, params, 100, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn grids_are_sorted_and_positive() {
        assert!(factor_grid().windows(2).all(|w| w[0] < w[1]));
        assert!(constant_grid().iter().all(|&c| (0.0..=1.0).contains(&c)));
    }
}
