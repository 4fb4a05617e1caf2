//! Counters and log-linear histograms behind a global registry.
//!
//! The recording fast path is lock-free: a [`Counter`] is one relaxed
//! `fetch_add`; a [`Histogram`] shards its bucket arrays so `par_map`
//! workers on different threads land on different cache lines (each thread
//! is pinned to a shard on first use). The registry mutex is touched only
//! on handle creation — call sites cache the returned `Arc` — and on
//! snapshot.
//!
//! Bucket layout (HdrHistogram-coarse): values below 16 get exact unit
//! buckets; above, each power-of-two octave is split into 8 linear
//! sub-buckets, so relative error is bounded by 12.5% across the full
//! `u64` range with [`BUCKETS`] = 496 slots total.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::sketch::{QuantileSketch, Sketch};

/// Exact unit buckets below this value.
const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per octave above the linear cutoff (2^3).
const SUB_BITS: u32 = 3;
/// Total bucket count: 16 exact + (63-4+1) octaves x 8 sub-buckets.
pub const BUCKETS: usize = 496;
/// Shard count — enough that a typical worker pool (≤ core count) rarely
/// collides; excess threads wrap around.
const SHARDS: usize = 16;

/// Probe sampling shift for per-record hot-path timing: instrumented loops
/// clock only every `2^shift`-th record and scale the accumulated sums back
/// up at flush time. 6 (1 in 64) cuts the metrics-on fleet-scoring
/// overhead from ~30 % to a few percent while leaving the per-vehicle
/// stage estimates within sampling noise (each vehicle still contributes
/// hundreds of clocked records).
const PROBE_SAMPLE_SHIFT: u32 = 6;

/// The probe sampling mask: a record index `i` is clocked when
/// `i & mask == 0`.
#[inline]
pub fn probe_sample_mask() -> u64 {
    (1u64 << PROBE_SAMPLE_SHIFT) - 1
}

/// Maps a value to its bucket index. Total over `u64`, monotone.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) & 7;
    (LINEAR_CUTOFF as usize) + ((msb - 4) as usize) * 8 + sub as usize
}

/// The smallest value that lands in bucket `index` (the inverse of
/// [`bucket_index`] on bucket boundaries). Indices past the table clamp to
/// the last bucket's lower bound.
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index < LINEAR_CUTOFF as usize {
        return index as u64;
    }
    let k = (index - LINEAR_CUTOFF as usize).min(BUCKETS - 1 - LINEAR_CUTOFF as usize);
    let msb = 4 + (k / 8) as u32;
    let sub = (k % 8) as u64;
    (1u64 << msb) + (sub << (msb - SUB_BITS))
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // Relaxed: a point-in-time read of a monotone count; readers make
        // no cross-counter consistency claim.
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous reading (health states, queue levels).
/// Unlike a [`Counter`] the value may move in either direction, so deltas
/// between snapshots of a gauge carry no monotonicity guarantee.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Replaces the reading.
    #[inline]
    pub fn set(&self, v: u64) {
        // Relaxed: a standalone last-value slot; nothing is published
        // through it and readers tolerate a stale reading by design.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current reading.
    pub fn get(&self) -> u64 {
        // Relaxed: point-in-time read of an independent slot.
        self.value.load(Ordering::Relaxed)
    }
}

/// One shard of a histogram. `min` starts at `u64::MAX` so the first
/// recorded value wins `fetch_min` unconditionally.
#[derive(Debug)]
struct Shard {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

// Each thread records into one shard, assigned round-robin on first use.
thread_local! {
    static MY_SHARD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS
    };
}

/// A sharded log-linear histogram of `u64` samples (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    shards: Vec<Shard>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { shards: (0..SHARDS).map(|_| Shard::new()).collect() }
    }

    /// Records one sample. Relaxed atomics on the thread's own shard.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = MY_SHARD.with(|&s| s);
        if let Some(shard) = self.shards.get(s) {
            if let Some(slot) = shard.counts.get(bucket_index(v)) {
                slot.fetch_add(1, Ordering::Relaxed);
            }
            shard.sum.fetch_add(v, Ordering::Relaxed);
            shard.min.fetch_min(v, Ordering::Relaxed);
            shard.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Folds a pre-aggregated batch of samples into this thread's shard in
    /// one pass: `counts` is a per-bucket count array (indexed by
    /// [`bucket_index`], longer inputs ignored), `sum`/`min`/`max` summarise
    /// the same samples. The [`BatchedRecorder`] flush path — equivalent to
    /// calling [`Histogram::record`] once per sample, but with one atomic
    /// op per *touched bucket* instead of four per sample.
    pub fn merge_counts(&self, counts: &[u64], sum: u64, min: u64, max: u64) {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return;
        }
        let s = MY_SHARD.with(|&s| s);
        if let Some(shard) = self.shards.get(s) {
            for (slot, &c) in shard.counts.iter().zip(counts) {
                if c > 0 {
                    slot.fetch_add(c, Ordering::Relaxed);
                }
            }
            shard.sum.fetch_add(sum, Ordering::Relaxed);
            shard.min.fetch_min(min, Ordering::Relaxed);
            shard.max.fetch_max(max, Ordering::Relaxed);
        }
    }

    /// Merges all shards into one consistent-enough snapshot (concurrent
    /// recorders may be mid-flight; each shard is read once).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for shard in &self.shards {
            let mut shard_snap = HistogramSnapshot::empty();
            for (i, slot) in shard.counts.iter().enumerate() {
                // Relaxed: the snapshot is documented as tolerant of
                // mid-flight recorders; each cell is read exactly once.
                let c = slot.load(Ordering::Relaxed);
                if c > 0 {
                    if let Some(b) = shard_snap.counts.get_mut(i) {
                        *b = c;
                    }
                    shard_snap.count += c;
                }
            }
            shard_snap.sum = shard.sum.load(Ordering::Relaxed); // Relaxed: same single-read snapshot contract
            shard_snap.min = shard.min.load(Ordering::Relaxed); // Relaxed: same single-read snapshot contract
            shard_snap.max = shard.max.load(Ordering::Relaxed); // Relaxed: same single-read snapshot contract
            snap.merge(&shard_snap);
        }
        snap
    }
}

/// A task-local histogram accumulator: [`record`](BatchedRecorder::record)
/// bumps plain (non-atomic) locals, and [`flush`](BatchedRecorder::flush)
/// folds the whole batch into the shared [`Histogram`] via
/// [`Histogram::merge_counts`]. Hot loops that record per item — `par_map`
/// task timing, the streaming pipeline's per-record stage probes — hold one
/// recorder per task/worker so the shared shards see one atomic pass per
/// flush instead of four atomic ops per sample. Dropping the recorder
/// flushes whatever is pending.
#[derive(Debug)]
pub struct BatchedRecorder {
    target: Arc<Histogram>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl BatchedRecorder {
    /// A recorder that flushes into `target`.
    pub fn new(target: Arc<Histogram>) -> BatchedRecorder {
        BatchedRecorder {
            target,
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample locally (no atomics).
    #[inline]
    pub fn record(&mut self, v: u64) {
        if let Some(slot) = self.counts.get_mut(bucket_index(v)) {
            *slot += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded since the last flush.
    pub fn pending(&self) -> u64 {
        self.count
    }

    /// Folds the pending batch into the shared histogram and resets the
    /// locals. A no-op when nothing is pending.
    pub fn flush(&mut self) {
        if self.count == 0 {
            return;
        }
        self.target.merge_counts(&self.counts, self.sum, self.min, self.max);
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl Drop for BatchedRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A point-in-time copy of a histogram; merging snapshots is exact (bucket
/// counts add, min/max combine) — the unit tests pin this down.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, indexed by [`bucket_index`].
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (exact, not bucketed).
    pub sum: u64,
    /// Smallest sample, `u64::MAX` when empty.
    pub min: u64,
    /// Largest sample, 0 when empty.
    pub max: u64,
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { counts: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean sample value; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The lower bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`); 0 when empty. Bucketed, so accurate to the 12.5%
    /// bucket width — plenty for timing summaries.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        if rank >= self.count as f64 {
            return self.max;
        }
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c as f64;
            if seen >= rank {
                return bucket_lower_bound(i).max(self.min).min(self.max);
            }
        }
        self.max
    }
}

/// The global metric registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    sketches: Mutex<BTreeMap<String, Arc<Sketch>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn recover<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    // Registry maps are only inserted into; a panic mid-insert leaves them
    // structurally sound, so poisoning carries no information here.
    r.unwrap_or_else(|p| p.into_inner())
}

/// The handle registered under `name`, registering a fresh one on first
/// use. Looks the name up before inserting, so only a first use copies it
/// into an owned key.
fn get_or_register<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = recover(map.lock());
    if let Some(handle) = map.get(name) {
        return Arc::clone(handle);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// Returns (creating on first use) the counter named `name`. Cache the
/// handle at call sites on hot paths.
pub fn counter(name: &str) -> Arc<Counter> {
    get_or_register(&registry().counters, name)
}

/// Returns (creating on first use) the gauge named `name`. Cache the
/// handle at call sites on hot paths.
pub fn gauge(name: &str) -> Arc<Gauge> {
    get_or_register(&registry().gauges, name)
}

/// Returns (creating on first use) the histogram named `name`. Cache the
/// handle at call sites on hot paths.
pub fn histogram(name: &str) -> Arc<Histogram> {
    get_or_register(&registry().histograms, name)
}

/// Returns (creating on first use) the quantile sketch named `name`.
/// Cache the handle at call sites; hot loops should accumulate into a
/// local [`QuantileSketch`] and [`Sketch::merge_from`] it at flush time.
pub fn sketch(name: &str) -> Arc<Sketch> {
    get_or_register(&registry().sketches, name)
}

/// Point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge readings by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Quantile-sketch snapshots by name.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

/// Snapshots the whole registry (counters with value 0 included —
/// a zero reset count is information).
pub fn snapshot() -> RegistrySnapshot {
    let counters =
        recover(registry().counters.lock()).iter().map(|(k, v)| (k.clone(), v.get())).collect();
    let gauges =
        recover(registry().gauges.lock()).iter().map(|(k, v)| (k.clone(), v.get())).collect();
    let histograms = recover(registry().histograms.lock())
        .iter()
        .map(|(k, v)| (k.clone(), v.snapshot()))
        .collect();
    let sketches = recover(registry().sketches.lock())
        .iter()
        .map(|(k, v)| (k.clone(), v.snapshot()))
        .collect();
    RegistrySnapshot { counters, gauges, histograms, sketches }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut samples: Vec<u64> = Vec::new();
        for shift in 0..60u32 {
            for off in [0u64, 1, 3] {
                samples.push((1u64 << shift).saturating_add(off << shift.saturating_sub(3)));
            }
        }
        samples.sort_unstable();
        let mut prev = 0usize;
        for v in samples {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(i >= prev, "bucket index must be monotone (value {v})");
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn lower_bound_inverts_index_on_boundaries() {
        for i in 0..BUCKETS {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "bucket {i} lower bound {lb}");
        }
    }

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 26.5).abs() < 1e-12);
        assert_eq!(s.quantile(0.5), 2);
        assert_eq!(s.quantile(1.0), 100);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(HistogramSnapshot::empty().quantile(0.99), 0);
    }

    #[test]
    fn batched_recorder_matches_direct_recording() {
        let direct = Histogram::new();
        let shared = Arc::new(Histogram::new());
        let mut batched = BatchedRecorder::new(Arc::clone(&shared));
        for v in [0u64, 1, 15, 16, 17, 1000, 123_456_789] {
            direct.record(v);
            batched.record(v);
        }
        assert_eq!(batched.pending(), 7);
        batched.flush();
        assert_eq!(batched.pending(), 0);
        assert_eq!(shared.snapshot(), direct.snapshot());
        // Flushing again adds nothing.
        batched.flush();
        assert_eq!(shared.snapshot(), direct.snapshot());
    }

    #[test]
    fn batched_recorder_flushes_on_drop() {
        let shared = Arc::new(Histogram::new());
        {
            let mut batched = BatchedRecorder::new(Arc::clone(&shared));
            batched.record(42);
        }
        let snap = shared.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 42);
    }

    #[test]
    fn probe_sample_shift_controls_the_mask() {
        assert_eq!(probe_sample_mask(), 63, "one record in 64 is clocked");
        assert_eq!((0..640u64).filter(|i| i & probe_sample_mask() == 0).count(), 10);
    }

    #[test]
    fn registry_returns_same_handle() {
        let a = counter("test.metrics.registry_same");
        let b = counter("test.metrics.registry_same");
        a.incr();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn registry_miss_registers_the_metric() {
        let before = snapshot();
        assert!(!before.counters.contains_key("test.metrics.miss_counter"));
        assert!(!before.gauges.contains_key("test.metrics.miss_gauge"));
        assert!(!before.histograms.contains_key("test.metrics.miss_hist"));
        assert!(!before.sketches.contains_key("test.metrics.miss_sketch"));
        counter("test.metrics.miss_counter").add(2);
        gauge("test.metrics.miss_gauge").set(5);
        histogram("test.metrics.miss_hist").record(9);
        sketch("test.metrics.miss_sketch").record(1.5);
        let after = snapshot();
        assert_eq!(after.counters.get("test.metrics.miss_counter"), Some(&2));
        assert_eq!(after.gauges.get("test.metrics.miss_gauge"), Some(&5));
        assert_eq!(after.histograms.get("test.metrics.miss_hist").map(|h| h.count), Some(1));
        assert_eq!(after.sketches.get("test.metrics.miss_sketch").map(|s| s.count()), Some(1));
    }

    #[test]
    fn snapshot_sees_registered_metrics() {
        counter("test.metrics.snap_counter").add(3);
        histogram("test.metrics.snap_hist").record(7);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.metrics.snap_counter"), Some(&3));
        let h = snap.histograms.get("test.metrics.snap_hist").expect("registered");
        assert!(h.count >= 1);
    }

    #[test]
    fn sketch_is_registered_and_snapshotted() {
        let s = sketch("test.metrics.snap_sketch");
        for i in 0..100 {
            s.record(i as f64);
        }
        let snap = snapshot();
        let got = snap.sketches.get("test.metrics.snap_sketch").expect("registered");
        assert_eq!(got.count(), 100);
        assert_eq!(got.quantile(1.0), 99.0);
        assert!(Arc::ptr_eq(&s, &sketch("test.metrics.snap_sketch")));
    }

    #[test]
    fn gauge_is_last_value_wins_and_snapshotted() {
        let g = gauge("test.metrics.snap_gauge");
        g.set(7);
        g.set(2); // moves down, unlike a counter
        assert_eq!(g.get(), 2);
        let snap = snapshot();
        assert_eq!(snap.gauges.get("test.metrics.snap_gauge"), Some(&2));
        assert!(Arc::ptr_eq(&g, &gauge("test.metrics.snap_gauge")));
    }
}
