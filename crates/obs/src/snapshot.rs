//! Periodic full-registry snapshots with delta/rate computation — the live
//! half of the ops plane.
//!
//! A [`MetricsSnapshot`] is everything the registry knows (counters, gauges,
//! histogram snapshots) stamped with a monotonic timestamp from
//! [`crate::elapsed_ns`]. Snapshots accumulate in a bounded [`SnapshotRing`];
//! [`delta`] computes what happened *between* two snapshots — counter deltas
//! with per-second rates, bucket-wise histogram deltas whose quantiles
//! describe only the interval — which is what health policies and the `top`
//! client consume. A background [`start_sampler`] thread owned by an RAII
//! [`SamplerGuard`] feeds the ring at a fixed cadence and is completely
//! inert (no thread spawned) when metrics are off.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{self, Counter, HistogramSnapshot};
use crate::sketch::QuantileSketch;

/// A timestamped point-in-time copy of the whole metric registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic nanoseconds since the process obs epoch ([`crate::elapsed_ns`]).
    pub t_ns: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge readings by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Quantile-sketch snapshots by name.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

/// Takes one snapshot of the registry, stamped before the registry walk so
/// `t_ns` never post-dates any contained value by more than the walk itself.
pub fn take_snapshot() -> MetricsSnapshot {
    let t_ns = crate::elapsed_ns();
    static TAKEN: OnceLock<Arc<Counter>> = OnceLock::new();
    TAKEN.get_or_init(|| metrics::counter("obs.snapshots")).incr();
    let reg = metrics::snapshot();
    MetricsSnapshot {
        t_ns,
        counters: reg.counters,
        gauges: reg.gauges,
        histograms: reg.histograms,
        sketches: reg.sketches,
    }
}

/// What one counter did between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterDelta {
    /// Increase over the interval. Saturating: counters are monotone, so a
    /// negative raw difference can only mean the older snapshot is not
    /// actually older (or the process restarted) — reported as 0 rather
    /// than a nonsense wrap. The proptests pin non-negativity down.
    pub delta: u64,
    /// `delta` scaled to events per second over the interval; 0 when the
    /// interval is empty.
    pub rate_per_s: f64,
}

/// Everything that happened between two snapshots.
#[derive(Debug, Clone, Default)]
pub struct SnapshotDelta {
    /// Interval length in nanoseconds (saturating, like the counters).
    pub dt_ns: u64,
    /// Per-counter deltas for every counter in the *newer* snapshot.
    pub counters: BTreeMap<String, CounterDelta>,
    /// Gauges are instantaneous, not cumulative: the newer reading wins.
    pub gauges: BTreeMap<String, u64>,
    /// Bucket-wise histogram deltas — quantiles over these describe only
    /// the interval. `min`/`max` are taken from the newer snapshot (the
    /// registry does not keep per-interval extrema), so they bound the
    /// whole run, not the interval; quantile clamping stays conservative.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Sketches summarise a cumulative distribution whose compacted items
    /// cannot be subtracted, so — like gauges — the newer snapshot wins;
    /// quantiles over these describe the run so far, not the interval.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

impl SnapshotDelta {
    /// Interval length in (fractional) seconds.
    pub fn dt_s(&self) -> f64 {
        self.dt_ns as f64 / 1e9
    }

    /// Convenience: the delta for one counter, 0 if absent.
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.delta)
    }

    /// Convenience: the rate for one counter, 0.0 if absent.
    pub fn counter_rate(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |c| c.rate_per_s)
    }
}

/// Computes the delta from `older` to `newer`. Metrics present only in the
/// older snapshot are dropped (they no longer exist as far as the live view
/// is concerned); metrics new in `newer` delta against an implicit 0.
pub fn delta(older: &MetricsSnapshot, newer: &MetricsSnapshot) -> SnapshotDelta {
    let dt_ns = newer.t_ns.saturating_sub(older.t_ns);
    let dt_s = dt_ns as f64 / 1e9;
    let counters = newer
        .counters
        .iter()
        .map(|(name, &now)| {
            let before = older.counters.get(name).copied().unwrap_or(0);
            let d = now.saturating_sub(before);
            let rate = if dt_ns == 0 { 0.0 } else { d as f64 / dt_s };
            (name.clone(), CounterDelta { delta: d, rate_per_s: rate })
        })
        .collect();
    let histograms = newer
        .histograms
        .iter()
        .map(|(name, now)| {
            let mut d = now.clone();
            if let Some(before) = older.histograms.get(name) {
                for (a, b) in d.counts.iter_mut().zip(&before.counts) {
                    *a = a.saturating_sub(*b);
                }
                d.count = d.count.saturating_sub(before.count);
                d.sum = d.sum.saturating_sub(before.sum);
            }
            (name.clone(), d)
        })
        .collect();
    SnapshotDelta {
        dt_ns,
        counters,
        gauges: newer.gauges.clone(),
        histograms,
        sketches: newer.sketches.clone(),
    }
}

/// A bounded ring of snapshots, shareable across the sampler thread, the
/// scrape server and in-process consumers. Pushing past capacity evicts the
/// oldest snapshot.
#[derive(Debug)]
pub struct SnapshotRing {
    cap: usize,
    ring: Mutex<VecDeque<Arc<MetricsSnapshot>>>,
}

fn recover<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    // The ring only ever holds complete Arc'd snapshots; a panicking reader
    // cannot leave it structurally broken, so poisoning carries no signal.
    r.unwrap_or_else(|p| p.into_inner())
}

impl SnapshotRing {
    /// A ring holding at most `cap` snapshots (minimum 2, so a delta
    /// between the two most recent is always possible once warm).
    pub fn new(cap: usize) -> SnapshotRing {
        SnapshotRing { cap: cap.max(2), ring: Mutex::new(VecDeque::new()) }
    }

    /// Capacity the ring was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends a snapshot, evicting the oldest when full.
    pub fn push(&self, snap: MetricsSnapshot) {
        let mut ring = recover(self.ring.lock());
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(Arc::new(snap));
    }

    /// Snapshots currently held.
    pub fn len(&self) -> usize {
        recover(self.ring.lock()).len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<Arc<MetricsSnapshot>> {
        recover(self.ring.lock()).back().cloned()
    }

    /// The two most recent snapshots as `(older, newer)`, if at least two
    /// have been pushed.
    pub fn latest_pair(&self) -> Option<(Arc<MetricsSnapshot>, Arc<MetricsSnapshot>)> {
        let ring = recover(self.ring.lock());
        let n = ring.len();
        if n < 2 {
            return None;
        }
        Some((Arc::clone(&ring[n - 2]), Arc::clone(&ring[n - 1])))
    }

    /// The newest held snapshot stamped at or before `t_ns`, falling back
    /// to the oldest held one — burn-rate windows degrade gracefully to
    /// the span the ring actually covers while it warms up.
    pub fn at_or_before(&self, t_ns: u64) -> Option<Arc<MetricsSnapshot>> {
        let ring = recover(self.ring.lock());
        ring.iter().rev().find(|s| s.t_ns <= t_ns).cloned().or_else(|| ring.front().cloned())
    }
}

/// RAII owner of the background sampler thread. Dropping the guard stops
/// and joins the thread; a guard created while metrics are off owns no
/// thread at all and dropping it is a no-op.
#[derive(Debug)]
pub struct SamplerGuard {
    stop: Option<Arc<AtomicBool>>,
    handle: Option<JoinHandle<()>>,
}

impl SamplerGuard {
    /// True when a sampler thread is actually running.
    pub fn is_active(&self) -> bool {
        self.handle.is_some()
    }
}

impl Drop for SamplerGuard {
    fn drop(&mut self) {
        if let Some(stop) = self.stop.take() {
            // Relaxed: a standalone stop flag; the join below is the
            // synchronisation point that makes the shutdown visible.
            stop.store(true, Ordering::Relaxed);
        }
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Starts a background thread pushing [`take_snapshot`] into `ring` every
/// `period` (an immediate first sample, then the cadence). Returns an inert
/// guard without spawning anything when metrics are disabled — the ops
/// plane costs nothing unless it was asked for.
pub fn start_sampler(period: Duration, ring: Arc<SnapshotRing>) -> SamplerGuard {
    if !crate::metrics_enabled() {
        return SamplerGuard { stop: None, handle: None };
    }
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let spawned =
        std::thread::Builder::new().name("obs-snapshot-sampler".into()).spawn(move || {
            // Relaxed: stop is a standalone flag; a stale read only delays
            // shutdown by at most one period, and Drop joins regardless.
            while !thread_stop.load(Ordering::Relaxed) {
                ring.push(take_snapshot());
                std::thread::park_timeout(period);
            }
        });
    match spawned {
        Ok(handle) => SamplerGuard { stop: Some(stop), handle: Some(handle) },
        // Thread spawn can only fail under resource exhaustion; degrade to
        // an inert guard rather than taking the run down.
        Err(_) => SamplerGuard { stop: None, handle: None },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_at(t_ns: u64, counters: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            t_ns,
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn sketch_delta_is_newer_wins() {
        let mut older = snap_at(0, &[]);
        let mut s0 = QuantileSketch::default();
        s0.record(1.0);
        older.sketches.insert("s".into(), s0);
        let mut newer = snap_at(1_000_000_000, &[]);
        let mut s1 = QuantileSketch::default();
        for v in [1.0, 2.0, 3.0] {
            s1.record(v);
        }
        newer.sketches.insert("s".into(), s1.clone());
        let d = delta(&older, &newer);
        assert_eq!(d.sketches.get("s"), Some(&s1), "sketches carry the cumulative view");
    }

    #[test]
    fn counter_deltas_and_rates() {
        let a = snap_at(0, &[("x", 10), ("gone", 5)]);
        let b = snap_at(2_000_000_000, &[("x", 30), ("new", 4)]);
        let d = delta(&a, &b);
        assert_eq!(d.dt_ns, 2_000_000_000);
        assert_eq!(d.counter_delta("x"), 20);
        assert!((d.counter_rate("x") - 10.0).abs() < 1e-9);
        // New counters delta against 0; vanished counters are dropped.
        assert_eq!(d.counter_delta("new"), 4);
        assert!(!d.counters.contains_key("gone"));
    }

    #[test]
    fn reversed_order_saturates_to_zero() {
        let a = snap_at(0, &[("x", 100)]);
        let b = snap_at(1, &[("x", 40)]);
        let d = delta(&a, &b);
        assert_eq!(d.counter_delta("x"), 0, "monotone counters never report negative deltas");
    }

    #[test]
    fn histogram_delta_is_bucketwise() {
        let mut older = MetricsSnapshot { t_ns: 0, ..Default::default() };
        let mut newer = MetricsSnapshot { t_ns: 1_000_000_000, ..Default::default() };
        let mut h0 = HistogramSnapshot::empty();
        for v in [1u64, 1, 5] {
            if let Some(slot) = h0.counts.get_mut(metrics::bucket_index(v)) {
                *slot += 1;
            }
            h0.count += 1;
            h0.sum += v;
        }
        let mut h1 = h0.clone();
        for v in [5u64, 9] {
            if let Some(slot) = h1.counts.get_mut(metrics::bucket_index(v)) {
                *slot += 1;
            }
            h1.count += 1;
            h1.sum += v;
        }
        older.histograms.insert("h".into(), h0);
        newer.histograms.insert("h".into(), h1);
        let d = delta(&older, &newer);
        let dh = d.histograms.get("h").expect("histogram present");
        assert_eq!(dh.count, 2, "only the interval's samples remain");
        assert_eq!(dh.sum, 14);
        assert_eq!(dh.counts[metrics::bucket_index(9)], 1);
        assert_eq!(dh.counts[metrics::bucket_index(1)], 0, "pre-interval samples cancel");
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let ring = SnapshotRing::new(3);
        assert!(ring.latest_pair().is_none());
        for t in 0..10u64 {
            ring.push(snap_at(t, &[("x", t * 2)]));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.latest().expect("non-empty").t_ns, 9);
        let (older, newer) = ring.latest_pair().expect("two snapshots");
        assert_eq!((older.t_ns, newer.t_ns), (8, 9));
        assert_eq!(delta(&older, &newer).counter_delta("x"), 2);
    }

    #[test]
    fn sampler_is_inert_when_metrics_off() {
        crate::set_metrics_enabled(false);
        let ring = Arc::new(SnapshotRing::new(4));
        let guard = start_sampler(Duration::from_millis(1), Arc::clone(&ring));
        assert!(!guard.is_active());
        drop(guard);
        assert!(ring.is_empty(), "inert sampler must not touch the ring");
    }

    #[test]
    fn sampler_fills_the_ring_and_stops_on_drop() {
        crate::set_metrics_enabled(true);
        metrics::counter("test.snapshot.sampled").incr();
        let ring = Arc::new(SnapshotRing::new(8));
        let guard = start_sampler(Duration::from_millis(2), Arc::clone(&ring));
        assert!(guard.is_active());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ring.len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(guard); // joins: no further pushes after this point
        crate::set_metrics_enabled(false);
        let n = ring.len();
        assert!(n >= 2, "sampler should have taken at least two snapshots");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(ring.len(), n, "a dropped sampler takes no more snapshots");
        let latest = ring.latest().expect("non-empty");
        assert!(latest.counters.contains_key("test.snapshot.sampled"));
    }
}
