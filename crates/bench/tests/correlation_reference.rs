//! The streaming correlation transformation against a from-scratch
//! recompute, on a simulated fleet.
//!
//! [`BatchCorrelation`] is the straightforward form of the transformation
//! the pipeline and the batch runner score: per-signal ring buffers, and on
//! every emission the window's first differences, their means and every
//! pair's Pearson sums computed again from the buffered records, in
//! O(window · f²). The shipping transform gets the same numbers from
//! incremental condensed-pair kernels in O(f²) per record. Both stream
//! every vehicle of the small fleet through the paper's record filter at
//! the paper's window (45 records) and stride (3); they must emit on the
//! same records and agree to 1e-9 on every output.

use navarchos_fleetsim::FleetConfig;
use navarchos_stat::correlation::CorrelationPairs;
use navarchos_tsframe::{FilterSpec, Frame, TransformKind};

const WINDOW: usize = 45;
const STRIDE: usize = 3;

/// The differenced correlation transformation, recomputed from the
/// buffered window on every emission.
struct BatchCorrelation {
    pairs: CorrelationPairs,
    window: usize,
    stride: usize,
    max_gap: i64,
    last_t: Option<i64>,
    cols: Vec<Vec<f64>>,
    times: Vec<i64>,
    since_emit: usize,
    full_once: bool,
}

impl BatchCorrelation {
    fn new(input_names: &[String], window: usize, stride: usize) -> Self {
        BatchCorrelation {
            pairs: CorrelationPairs::new(input_names),
            window,
            stride,
            max_gap: 6 * 3600,
            last_t: None,
            cols: vec![Vec::with_capacity(window + 1); input_names.len()],
            times: Vec::with_capacity(window + 1),
            since_emit: 0,
            full_once: false,
        }
    }

    fn reset(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.times.clear();
        self.since_emit = 0;
        self.full_once = false;
        self.last_t = None;
    }

    fn push(&mut self, t: i64, row: &[f64]) -> Option<Vec<f64>> {
        if let Some(last) = self.last_t {
            if t - last > self.max_gap {
                self.reset();
            }
        }
        self.last_t = Some(t);
        self.times.push(t);
        if self.times.len() > self.window {
            self.times.remove(0);
        }
        for (c, &v) in self.cols.iter_mut().zip(row) {
            c.push(v);
            if c.len() > self.window {
                c.remove(0);
            }
        }
        if self.cols[0].len() < self.window {
            return None;
        }
        let emit = if !self.full_once {
            self.full_once = true;
            self.since_emit = 0;
            true
        } else {
            self.since_emit += 1;
            if self.since_emit >= self.stride {
                self.since_emit = 0;
                true
            } else {
                false
            }
        };
        if !emit {
            return None;
        }
        // Full recompute over the window: differences, then every pair's
        // Pearson correlation from scratch.
        let times = &self.times;
        let diff_storage: Vec<Vec<f64>> = self
            .cols
            .iter()
            .map(|col| {
                let mut d = Vec::with_capacity(col.len().saturating_sub(1));
                for i in 1..col.len() {
                    if times[i] - times[i - 1] <= 120 {
                        d.push(col[i] - col[i - 1]);
                    }
                }
                d
            })
            .collect();
        if diff_storage[0].len() < (self.window / 2).max(4) {
            return None;
        }
        let views: Vec<&[f64]> = diff_storage.iter().map(|c| c.as_slice()).collect();
        Some(self.pairs.condensed_pearson(&views))
    }
}

/// Filtered `(timestamp, row)` stream of one vehicle, as the runner sees it.
fn filtered_stream(frame: &Frame, names: &[String], filter: &FilterSpec) -> Vec<(i64, Vec<f64>)> {
    let mut buf = Vec::with_capacity(frame.width());
    let mut out = Vec::with_capacity(frame.len());
    for i in 0..frame.len() {
        frame.row_into(i, &mut buf);
        if filter.keep_row(names, &buf) {
            out.push((frame.timestamps()[i], buf.clone()));
        }
    }
    out
}

#[test]
fn streaming_correlation_matches_batch_recompute_on_the_small_fleet() {
    let fleet = FleetConfig::small(42).generate();
    let filter = FilterSpec::navarchos_default();
    let mut emissions = 0usize;
    let mut max_diff = 0.0f64;
    for vd in &fleet.vehicles {
        let names = vd.frame.names().to_vec();
        let mut batch = BatchCorrelation::new(&names, WINDOW, STRIDE);
        let mut incr = TransformKind::Correlation.build(&names, WINDOW, STRIDE);
        let mut out = vec![0.0; incr.output_dim()];
        for (t, row) in filtered_stream(&vd.frame, &names, &filter) {
            let a = batch.push(t, &row);
            let b = incr.push_into(t, &row, &mut out);
            assert_eq!(a.is_some(), b.is_some(), "{}: emission cadence diverged at t={t}", vd.id);
            if let Some(av) = a {
                emissions += 1;
                assert_eq!(av.len(), out.len());
                for (p, q) in av.iter().zip(&out) {
                    let d = (p - q).abs();
                    assert!(d <= 1e-9, "{}: output diverged at t={t}: {p} vs {q}", vd.id);
                    max_diff = max_diff.max(d);
                }
            }
        }
    }
    // The comparison must have covered real work: every vehicle of the
    // small fleet emits thousands of correlation samples.
    assert!(emissions > 1_000, "only {emissions} emissions compared");
    assert!(max_diff <= 1e-9);
}
