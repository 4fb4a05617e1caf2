//! Alarm aggregation: turns channel-attributed threshold violations into
//! *alarm instances* (violations grouped over a time window, requiring
//! persistence and multi-channel agreement). The one grouping rule behind
//! both the operator alarms of a deployed pipeline and the batch
//! evaluation protocol ([`crate::evaluation::alarm_instances`] is a fold
//! over it), so served alarms carry exactly the semantics the experiments
//! validated.

use crate::evaluation::EvalParams;

/// An operator-facing alarm instance: a persistent multi-channel cluster
/// of threshold violations.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmInstance {
    /// Timestamp of the first violation in the group.
    pub start: i64,
    /// Number of violations in the group.
    pub violations: usize,
    /// Distinct channels that violated, sorted.
    pub channels: Vec<usize>,
}

/// Streaming grouper applying the evaluation protocol's instance rules.
#[derive(Debug, Clone)]
pub struct AlarmAggregator {
    window: i64,
    min_violations: usize,
    min_channels: usize,
    group_start: Option<i64>,
    count: usize,
    channels: Vec<usize>,
    emitted_current: bool,
}

impl AlarmAggregator {
    /// Creates an aggregator with the evaluation protocol's parameters
    /// (dedup window, persistence and channel requirements); the distinct-
    /// channel requirement is capped by `n_channels` so single-channel
    /// detectors stay usable. (Unlike the daily-aggregated batch path, the
    /// per-sample stream can deliver many violations per channel per day,
    /// so the persistence requirement is not capped.)
    pub fn new(eval: &EvalParams, n_channels: usize) -> Self {
        Self::with_rules(
            eval.dedup_seconds,
            eval.min_instance_violations,
            eval.min_distinct_channels.min(n_channels.max(1)),
        )
    }

    /// An aggregator with exactly these rules: groups span `window`
    /// seconds from their first violation and qualify with at least
    /// `min_violations` violations on at least `min_channels` distinct
    /// channels.
    pub(crate) fn with_rules(window: i64, min_violations: usize, min_channels: usize) -> Self {
        AlarmAggregator {
            window,
            min_violations,
            min_channels,
            group_start: None,
            count: 0,
            channels: Vec::new(),
            emitted_current: false,
        }
    }

    /// Feeds one violation of `channel` at `timestamp`; returns an
    /// instance the moment the current group first satisfies the rules (at
    /// most one instance per group). Counts and distinct channels only
    /// grow within a group, so the groups it returns are exactly those
    /// that satisfy the rules once complete.
    pub fn push(&mut self, timestamp: i64, channel: usize) -> Option<AlarmInstance> {
        match self.group_start {
            Some(start) if timestamp - start < self.window => {
                self.count += 1;
                if !self.channels.contains(&channel) {
                    self.channels.push(channel);
                }
            }
            _ => {
                self.group_start = Some(timestamp);
                self.count = 1;
                self.channels.clear();
                self.channels.push(channel);
                self.emitted_current = false;
            }
        }
        if !self.emitted_current
            && self.count >= self.min_violations
            && self.channels.len() >= self.min_channels
        {
            // `count >= 1` implies an open group; checked rather than
            // asserted so a bookkeeping bug degrades to a missed alarm
            // instead of aborting the run.
            let start = self.group_start?;
            self.emitted_current = true;
            let mut channels = self.channels.clone();
            channels.sort_unstable();
            Some(AlarmInstance { start, violations: self.count, channels })
        } else {
            None
        }
    }

    /// Clears the open group (call on reference resets).
    pub fn reset(&mut self) {
        self.group_start = None;
        self.count = 0;
        self.channels.clear();
        self.emitted_current = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aggregator(min_violations: usize, min_channels: usize) -> AlarmAggregator {
        let eval = EvalParams {
            ph_seconds: 30 * 86_400,
            dedup_seconds: 86_400,
            min_instance_violations: min_violations,
            min_distinct_channels: min_channels,
        };
        AlarmAggregator::new(&eval, 15)
    }

    #[test]
    fn emits_once_when_rules_met() {
        let mut agg = aggregator(3, 2);
        assert!(agg.push(0, 0).is_none());
        assert!(agg.push(100, 0).is_none(), "persistence not yet met");
        let inst = agg.push(200, 1).expect("3 violations on 2 channels");
        assert_eq!(inst.start, 0);
        assert_eq!(inst.violations, 3);
        assert_eq!(inst.channels, vec![0, 1]);
        // Further violations in the same group do not re-emit.
        assert!(agg.push(300, 2).is_none());
    }

    #[test]
    fn single_channel_groups_filtered() {
        let mut agg = aggregator(3, 2);
        for i in 0..10 {
            assert!(agg.push(i * 60, 0).is_none(), "one channel never qualifies");
        }
    }

    #[test]
    fn groups_split_after_window() {
        let mut agg = aggregator(2, 1);
        assert!(agg.push(0, 0).is_none());
        assert!(agg.push(10, 1).is_some());
        // Two days later: a fresh group must re-qualify from scratch.
        assert!(agg.push(2 * 86_400, 0).is_none());
        assert!(agg.push(2 * 86_400 + 60, 1).is_some());
    }

    #[test]
    fn requirements_capped_by_channel_count() {
        // A single-channel detector cannot satisfy min 2 distinct channels:
        // the cap reduces it to 1.
        let eval = EvalParams {
            ph_seconds: 30 * 86_400,
            dedup_seconds: 86_400,
            min_instance_violations: 2,
            min_distinct_channels: 2,
        };
        let mut agg = AlarmAggregator::new(&eval, 1);
        assert!(agg.push(0, 0).is_none(), "persistence still required");
        assert!(agg.push(60, 0).is_some(), "channel requirement capped to 1");
    }

    #[test]
    fn reset_clears_group() {
        let mut agg = aggregator(2, 1);
        agg.push(0, 0);
        agg.reset();
        assert!(agg.push(10, 1).is_none(), "count restarted");
    }
}
