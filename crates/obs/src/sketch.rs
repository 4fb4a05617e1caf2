//! A mergeable streaming quantile sketch — the fourth first-class metric
//! kind beside `Counter`, `Gauge` and `Histogram`.
//!
//! The `Histogram` answers "how long did things take" over `u64`
//! nanoseconds with fixed log-linear buckets; detection-quality telemetry
//! needs quantiles over `f64` *scores* whose scale is unknown up front
//! (anomaly scores, drift statistics, threshold headroom), so bucketing is
//! not an option. [`QuantileSketch`] is a deterministic KLL-style
//! compactor hierarchy: level `l` holds items of weight `2^l`; when a
//! level outgrows its capacity `k` it is sorted and every other item is
//! promoted to the next level, alternating which parity survives so
//! successive compactions bias in opposite directions.
//!
//! # Rank-error bound
//!
//! For a sketch (or any merge of sketches) holding `n` samples with level
//! capacity `k`, every quantile query is within normalized rank error
//!
//! ```text
//! eps(n, k) = (ceil(log2(2n/k)) + 4) / (2k)       (n > k; exact below)
//! ```
//!
//! of the true empirical quantile. Sketches with fewer than `k` samples
//! are exact. The bound follows from weight accounting: a compaction at
//! level `l` perturbs any fixed rank by at most `2^l`, at most
//! `n / (k * 2^l)` compactions can happen at level `l` (each promotes
//! `k/2 * 2^(l+1)` stream weight), and parity alternation halves the
//! worst-case sum per level. `tests/props.rs` checks the bound against
//! exact quantiles, including merge associativity.
//!
//! # Memory
//!
//! `O(k * log2(n / k))` `f64`s — with the default `k = 256`, a billion
//! samples fit in ~24 levels ≈ 6k floats. Memory is bounded for any
//! fixed stream length and grows only logarithmically.
//!
//! Non-finite samples are ignored (recorded nowhere, counted nowhere):
//! quality monitors count NaNs separately, and a NaN inside the compactor
//! would poison every sort.

use std::sync::Mutex;

/// Default per-level capacity (see the module docs for the error bound).
pub const DEFAULT_SKETCH_K: usize = 256;

/// The minimum level capacity accepted; below this the error bound is
/// meaningless.
const MIN_K: usize = 8;

/// The mergeable compactor hierarchy. Plain data, no interior mutability
/// — thread-safe registry access goes through [`Sketch`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Per-level capacity.
    k: usize,
    /// `levels[l]` holds items of weight `2^l`, unsorted between
    /// compactions.
    levels: Vec<Vec<f64>>,
    /// Per-level compaction parity: which offset survives next.
    parities: Vec<bool>,
    /// Total finite samples observed (stream weight).
    count: u64,
    /// Sum of finite samples (exact, for the mean).
    sum: f64,
    /// Smallest finite sample, `+inf` when empty.
    min: f64,
    /// Largest finite sample, `-inf` when empty.
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new(DEFAULT_SKETCH_K)
    }
}

impl QuantileSketch {
    /// An empty sketch with per-level capacity `k` (clamped to ≥ 8).
    pub fn new(k: usize) -> QuantileSketch {
        QuantileSketch {
            k: k.max(MIN_K),
            levels: vec![Vec::new()],
            parities: vec![false],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Per-level capacity this sketch was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Finite samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no finite sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of the samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample; 0 when empty (mirrors `HistogramSnapshot`).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Items currently retained across all levels (memory diagnostics).
    pub fn retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// The documented worst-case normalized rank error for this sketch at
    /// its current count (see the module docs).
    pub fn rank_error_bound(&self) -> f64 {
        rank_error_bound(self.count, self.k)
    }

    /// Records one sample; non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.levels[0].push(v);
        if self.levels[0].len() >= self.k {
            self.compact_from(0);
        }
    }

    /// Compacts every level from `start` upward that exceeds capacity:
    /// sort, keep every other item (alternating parity), promote the
    /// survivors one level up at doubled weight.
    fn compact_from(&mut self, start: usize) {
        let mut l = start;
        while l < self.levels.len() {
            if self.levels[l].len() < self.k {
                l += 1;
                continue;
            }
            if l + 1 == self.levels.len() {
                self.levels.push(Vec::new());
                self.parities.push(false);
            }
            let mut buf = std::mem::take(&mut self.levels[l]);
            // Total order: NaNs never enter (record/merge filter them).
            buf.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let offset = usize::from(self.parities[l]);
            self.parities[l] = !self.parities[l];
            let survivors = buf.iter().copied().skip(offset).step_by(2);
            self.levels[l + 1].extend(survivors);
            l += 1;
        }
    }

    /// Folds `other` into `self`: level-wise concatenation followed by
    /// compaction, so the merged sketch obeys the same error bound at the
    /// combined count. The per-level capacity of `self` wins.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
            self.parities.push(false);
        }
        for (l, items) in other.levels.iter().enumerate() {
            self.levels[l].extend(items.iter().copied().filter(|v| v.is_finite()));
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.compact_from(0);
    }

    /// All retained `(value, weight)` pairs, sorted by value.
    fn weighted(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        for (l, items) in self.levels.iter().enumerate() {
            let w = 1u64 << l.min(63);
            out.extend(items.iter().map(|&v| (v, w)));
        }
        out.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// The approximate `q`-quantile (`q` clamped to `[0, 1]`); 0 when
    /// empty. Accurate to the documented rank-error bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (v, w) in self.weighted() {
            seen += w;
            if seen >= target {
                return v.clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// The approximate fraction of samples strictly below `v` (`0..=1`);
    /// 0 when empty. The inverse view of [`QuantileSketch::quantile`],
    /// used for threshold-headroom gauges.
    pub fn rank(&self, v: f64) -> f64 {
        if self.count == 0 || !v.is_finite() {
            return 0.0;
        }
        let below: u64 = self
            .levels
            .iter()
            .enumerate()
            .map(|(l, items)| {
                let w = 1u64 << l.min(63);
                w * items.iter().filter(|&&x| x < v).count() as u64
            })
            .sum();
        (below as f64 / self.count as f64).clamp(0.0, 1.0)
    }
}

/// The documented worst-case normalized rank error for a sketch holding
/// `n` samples at level capacity `k`: exact below `k`, otherwise
/// `(ceil(log2(2n/k)) + 4) / (2k)` (module docs derive it).
pub fn rank_error_bound(n: u64, k: usize) -> f64 {
    let k = k.max(MIN_K);
    if n <= k as u64 {
        return 0.0;
    }
    let levels = (2.0 * n as f64 / k as f64).log2().ceil().max(1.0);
    (levels + 4.0) / (2.0 * k as f64)
}

/// The registry-resident, thread-safe sketch: a [`QuantileSketch`] behind
/// a `Mutex`. Recording locks, and one fleet sketch is shared by every
/// shard thread, so hot loops accumulate into a local [`QuantileSketch`]
/// and [`Sketch::merge_from`] it at flush time. This is where the sketch
/// differs from a [`crate::Histogram`], whose sharded atomics take every
/// sample where it happens.
#[derive(Debug, Default)]
pub struct Sketch {
    inner: Mutex<QuantileSketch>,
}

fn recover<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    // The compactor is structurally sound between method calls and none of
    // its methods panic mid-update on valid (finite-filtered) data, so
    // poisoning carries no signal — same policy as the registry maps.
    r.unwrap_or_else(|p| p.into_inner())
}

impl Sketch {
    /// Records one sample (non-finite values ignored).
    pub fn record(&self, v: f64) {
        recover(self.inner.lock()).record(v);
    }

    /// Folds a locally accumulated sketch into this one.
    pub fn merge_from(&self, local: &QuantileSketch) {
        recover(self.inner.lock()).merge(local);
    }

    /// A point-in-time copy for quantile queries, export and manifests.
    pub fn snapshot(&self) -> QuantileSketch {
        recover(self.inner.lock()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    fn assert_within_bound(sketch: &QuantileSketch, mut data: Vec<f64>) {
        data.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        let eps = sketch.rank_error_bound();
        let n = data.len() as f64;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let got = sketch.quantile(q);
            // Normalized rank of the returned value in the exact data.
            let below = data.iter().filter(|&&x| x < got).count() as f64 / n;
            let at_most = data.iter().filter(|&&x| x <= got).count() as f64 / n;
            assert!(
                below - eps <= q && q <= at_most + eps,
                "q={q}: got {got} with rank [{below}, {at_most}], eps={eps}"
            );
        }
    }

    #[test]
    fn small_sketches_are_exact() {
        let mut s = QuantileSketch::new(64);
        let data: Vec<f64> = (0..50).map(|i| (i * 37 % 50) as f64).collect();
        for &v in &data {
            s.record(v);
        }
        let mut sorted = data.clone();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(s.count(), 50);
        assert_eq!(s.rank_error_bound(), 0.0, "below k the sketch is exact");
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(s.quantile(q), exact_quantile(&sorted, q), "q={q}");
        }
    }

    #[test]
    fn sorted_adversarial_input_respects_the_bound() {
        // Ascending input is the classic worst case for a fixed-parity
        // compactor; the alternating parity must hold the bound.
        let mut s = QuantileSketch::new(64);
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        for &v in &data {
            s.record(v);
        }
        assert_within_bound(&s, data);
    }

    #[test]
    fn memory_stays_logarithmic() {
        let mut s = QuantileSketch::new(64);
        for i in 0..100_000 {
            s.record((i % 977) as f64);
        }
        // 64 * (log2(2*100000/64) ≈ 12) ≈ 768; leave generous slack.
        assert!(s.retained() <= 64 * 16, "retained {} items", s.retained());
        assert_eq!(s.count(), 100_000);
    }

    #[test]
    fn merge_matches_bound_at_combined_count() {
        let mut a = QuantileSketch::new(64);
        let mut b = QuantileSketch::new(64);
        let mut data = Vec::new();
        for i in 0..5000 {
            let v = (i as f64 * 0.37).sin() * 100.0;
            a.record(v);
            data.push(v);
        }
        for i in 0..3000 {
            let v = 500.0 + i as f64;
            b.record(v);
            data.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 8000);
        assert_within_bound(&a, data);
    }

    #[test]
    fn merging_an_empty_sketch_is_identity() {
        let mut a = QuantileSketch::new(32);
        for i in 0..100 {
            a.record(i as f64);
        }
        let before = a.clone();
        a.merge(&QuantileSketch::new(32));
        assert_eq!(a, before);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut s = QuantileSketch::default();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(f64::NEG_INFINITY);
        assert!(s.is_empty());
        s.record(1.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.5), 1.5);
        assert_eq!(s.min(), 1.5);
        assert_eq!(s.max(), 1.5);
    }

    #[test]
    fn rank_is_the_inverse_view() {
        let mut s = QuantileSketch::new(256);
        for i in 0..200 {
            s.record(i as f64);
        }
        assert!((s.rank(100.0) - 0.5).abs() < 0.01, "rank(100) = {}", s.rank(100.0));
        assert_eq!(s.rank(-1.0), 0.0);
        assert_eq!(s.rank(1e9), 1.0);
        assert_eq!(s.rank(f64::NAN), 0.0);
    }

    #[test]
    fn shared_sketch_is_thread_safe_and_snapshots() {
        let s = std::sync::Arc::new(Sketch::default());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        s.record((t * 1000 + i) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder thread");
        }
        let snap = s.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(snap.min(), 0.0);
        assert_eq!(snap.max(), 3999.0);
    }

    #[test]
    fn error_bound_is_monotone_in_n_and_shrinks_with_k() {
        assert_eq!(rank_error_bound(10, 256), 0.0);
        assert!(rank_error_bound(1_000_000, 256) < 0.04);
        assert!(rank_error_bound(1_000_000, 64) > rank_error_bound(1_000_000, 256));
        assert!(rank_error_bound(1 << 30, 256) >= rank_error_bound(1 << 20, 256));
    }
}
