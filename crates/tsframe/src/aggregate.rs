//! Calendar-bucket aggregation. The paper's data exploration (Section 2)
//! aggregates each vehicle-day to the mean and standard deviation of every
//! PID signal before clustering; [`daily_aggregate`] reproduces that.

use crate::frame::Frame;
use navarchos_stat::descriptive::RunningStats;

/// Seconds per day — the default aggregation bucket.
pub const SECONDS_PER_DAY: i64 = 86_400;

/// One aggregated bucket: the day index plus per-signal mean and standard
/// deviation.
#[derive(Debug, Clone)]
pub struct DailyAggregate {
    /// Bucket start timestamp (inclusive).
    pub bucket_start: i64,
    /// Number of raw records in the bucket.
    pub count: usize,
    /// Per-signal means, in frame column order.
    pub means: Vec<f64>,
    /// Per-signal sample standard deviations (0 when a single record).
    pub stds: Vec<f64>,
}

impl DailyAggregate {
    /// Concatenated feature vector `[mean_0, …, mean_f, std_0, …, std_f]` —
    /// the exploration's clustering space.
    pub fn feature_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.means.len() * 2);
        v.extend_from_slice(&self.means);
        v.extend_from_slice(&self.stds);
        v
    }
}

/// Aggregates a time-ordered frame into fixed-width buckets (default: one
/// day). Buckets with fewer than `min_records` rows are skipped — a day
/// with a handful of samples produces meaningless standard deviations.
// needless_range_loop: the column index drives parallel reads from the
// frame and writes into per-column accumulators.
#[allow(clippy::needless_range_loop)]
pub fn daily_aggregate(
    frame: &Frame,
    bucket_seconds: i64,
    min_records: usize,
) -> Vec<DailyAggregate> {
    assert!(bucket_seconds > 0, "bucket width must be positive");
    let mut out = Vec::new();
    if frame.is_empty() {
        return out;
    }
    let ts = frame.timestamps();
    // Frame::push_row enforces this; the bucket sweep silently corrupts if
    // it ever stops holding, so re-check in debug builds.
    debug_assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "bucket aggregation needs monotone timestamps"
    );
    let width = frame.width();
    let mut stats: Vec<RunningStats> = vec![RunningStats::new(); width];
    let mut bucket = ts[0].div_euclid(bucket_seconds);
    let mut count = 0usize;

    let flush = |bucket: i64,
                 count: usize,
                 stats: &mut Vec<RunningStats>,
                 out: &mut Vec<DailyAggregate>| {
        if count >= min_records.max(1) {
            out.push(DailyAggregate {
                bucket_start: bucket * bucket_seconds,
                count,
                means: stats.iter().map(|s| s.mean()).collect(),
                stds: stats
                    .iter()
                    .map(|s| if s.count() < 2 { 0.0 } else { s.sample_std() })
                    .collect(),
            });
        }
        for s in stats.iter_mut() {
            *s = RunningStats::new();
        }
    };

    for i in 0..frame.len() {
        let b = ts[i].div_euclid(bucket_seconds);
        if b != bucket {
            flush(bucket, count, &mut stats, &mut out);
            bucket = b;
            count = 0;
        }
        for (s, c) in stats.iter_mut().zip(0..width) {
            s.push(frame.column(c)[i]);
        }
        count += 1;
    }
    flush(bucket, count, &mut stats, &mut out);
    out
}

/// Z-normalises each column of a row-major matrix in place (mean 0, std 1;
/// constant columns become 0). Clustering Euclidean distances are otherwise
/// dominated by the large-magnitude signals (rpm vs. correlations).
pub fn znormalize_columns(buf: &mut [f64], dim: usize) {
    if dim == 0 || buf.is_empty() {
        return;
    }
    let n = buf.len() / dim;
    for j in 0..dim {
        let mut st = RunningStats::new();
        for i in 0..n {
            st.push(buf[i * dim + j]);
        }
        let m = st.mean();
        let s = if st.count() < 2 { 0.0 } else { st.sample_std() };
        for i in 0..n {
            let v = &mut buf[i * dim + j];
            *v = if s > 0.0 { (*v - m) / s } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_day_frame() -> Frame {
        let mut f = Frame::new(&["a", "b"]);
        // Day 0: three records.
        f.push_row(0, &[1.0, 10.0]);
        f.push_row(3600, &[2.0, 20.0]);
        f.push_row(7200, &[3.0, 30.0]);
        // Day 1: two records.
        f.push_row(SECONDS_PER_DAY + 100, &[10.0, 100.0]);
        f.push_row(SECONDS_PER_DAY + 200, &[20.0, 200.0]);
        f
    }

    #[test]
    fn buckets_and_means() {
        let aggs = daily_aggregate(&two_day_frame(), SECONDS_PER_DAY, 1);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].count, 3);
        assert_eq!(aggs[0].means, vec![2.0, 20.0]);
        assert_eq!(aggs[1].count, 2);
        assert_eq!(aggs[1].means, vec![15.0, 150.0]);
        assert_eq!(aggs[0].bucket_start, 0);
        assert_eq!(aggs[1].bucket_start, SECONDS_PER_DAY);
    }

    #[test]
    fn std_is_sample_std() {
        let aggs = daily_aggregate(&two_day_frame(), SECONDS_PER_DAY, 1);
        assert!((aggs[0].stds[0] - 1.0).abs() < 1e-12);
        // Two points 10, 20 → sample std = sqrt(50) ≈ 7.071.
        assert!((aggs[1].stds[0] - 50.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_records_skips_thin_buckets() {
        let aggs = daily_aggregate(&two_day_frame(), SECONDS_PER_DAY, 3);
        assert_eq!(aggs.len(), 1, "day with two records is skipped");
    }

    #[test]
    fn negative_timestamps_bucket_correctly() {
        let mut f = Frame::new(&["a"]);
        f.push_row(-100, &[1.0]);
        f.push_row(50, &[2.0]);
        let aggs = daily_aggregate(&f, SECONDS_PER_DAY, 1);
        assert_eq!(aggs.len(), 2, "div_euclid keeps pre-epoch rows in their own day");
        assert_eq!(aggs[0].bucket_start, -SECONDS_PER_DAY);
    }

    #[test]
    fn feature_vector_concatenates() {
        let aggs = daily_aggregate(&two_day_frame(), SECONDS_PER_DAY, 1);
        let v = aggs[0].feature_vector();
        assert_eq!(v.len(), 4);
        assert_eq!(&v[..2], &[2.0, 20.0]);
    }

    #[test]
    fn matrix_and_normalization() {
        let aggs = daily_aggregate(&two_day_frame(), SECONDS_PER_DAY, 1);
        let mut buf: Vec<f64> = aggs.iter().flat_map(|a| a.feature_vector()).collect();
        let dim = 4;
        assert_eq!(buf.len(), 8);
        znormalize_columns(&mut buf, dim);
        // Each column now has mean 0.
        for j in 0..dim {
            let col_mean = (buf[j] + buf[dim + j]) / 2.0;
            assert!(col_mean.abs() < 1e-12);
        }
    }

    #[test]
    fn empty_frame_yields_nothing() {
        let f = Frame::new(&["a"]);
        assert!(daily_aggregate(&f, SECONDS_PER_DAY, 1).is_empty());
    }
}
