//! Property-based tests for the statistical foundation.

use navarchos_stat::correlation::{pearson, CorrelationPairs};
use navarchos_stat::descriptive::{
    mean, quantile, quantile_in_place, quantile_sorted, sample_std, RunningStats,
};
use navarchos_stat::dist::{chi_squared_cdf, normal_cdf, normal_quantile};
use navarchos_stat::martingale::{conformal_pvalue, PowerMartingale};
use navarchos_stat::ranking::{average_ranks, holm_correction, wilcoxon_signed_rank};
use navarchos_stat::snapshot::crc32;
use navarchos_stat::{
    IncrementalMean, IncrementalPearson, Restore, SnapReader, SnapWriter, Snapshot,
};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

/// Mostly a handful of values (so duplicates and `±0.0` pairs are common),
/// with `±inf` and NaN among them, else a finite draw.
fn edge_or_finite() -> impl Strategy<Value = f64> {
    (0u8..12, -1e3f64..1e3).prop_map(|(pick, x)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => -1.0,
        4 => 2.5,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7 => f64::NAN,
        _ => x,
    })
}

proptest! {
    #[test]
    fn pearson_is_bounded_and_symmetric(
        xs in finite_vec(2..64),
        ys in finite_vec(2..64),
    ) {
        let n = xs.len().min(ys.len());
        let (x, y) = (&xs[..n], &ys[..n]);
        let r = pearson(x, y);
        prop_assert!(r.is_nan() || (-1.0..=1.0).contains(&r));
        let r2 = pearson(y, x);
        if r.is_finite() && r2.is_finite() {
            prop_assert!((r - r2).abs() < 1e-9);
        }
    }

    #[test]
    fn pearson_shift_scale_invariant(
        xs in finite_vec(4..32),
        a in 0.1f64..10.0,
        b in -100.0f64..100.0,
    ) {
        // Use a co-varying second signal so the correlation is non-trivial.
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, &v)| v + i as f64).collect();
        let r1 = pearson(&xs, &ys);
        let scaled: Vec<f64> = xs.iter().map(|&v| a * v + b).collect();
        let r2 = pearson(&scaled, &ys);
        if r1.is_finite() && r2.is_finite() && r1 != 0.0 && r2 != 0.0 {
            prop_assert!((r1 - r2).abs() < 1e-6, "{r1} vs {r2}");
        }
    }

    #[test]
    fn running_stats_match_batch(xs in finite_vec(2..128)) {
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        prop_assert!((rs.mean() - mean(&xs)).abs() < 1e-6 * (1.0 + mean(&xs).abs()));
        let batch = sample_std(&xs);
        if batch.is_finite() {
            prop_assert!((rs.sample_std() - batch).abs() < 1e-6 * (1.0 + batch));
        }
    }

    #[test]
    fn quantile_within_range_and_monotone(xs in finite_vec(1..64), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let v1 = quantile(&xs, q1);
        prop_assert!(v1 >= lo - 1e-9 && v1 <= hi + 1e-9);
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&xs, qa) <= quantile(&xs, qb) + 1e-12);
    }

    #[test]
    fn ranks_are_a_permutation_statistic(xs in finite_vec(1..64)) {
        let ranks = average_ranks(&xs);
        let n = xs.len() as f64;
        let sum: f64 = ranks.iter().sum();
        // Rank sum is invariant: n(n+1)/2.
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        prop_assert!(ranks.iter().all(|&r| r >= 1.0 && r <= n));
    }

    #[test]
    fn holm_adjusted_pvalues_dominate_raw(ps in prop::collection::vec(0.0f64..1.0, 1..16)) {
        let adj = holm_correction(&ps);
        prop_assert_eq!(adj.len(), ps.len());
        for (a, p) in adj.iter().zip(&ps) {
            prop_assert!(*a >= *p - 1e-12, "adjusted below raw");
            prop_assert!(*a <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn wilcoxon_pvalue_valid(
        xs in finite_vec(2..26),
    ) {
        let ys: Vec<f64> = xs.iter().map(|&v| v + 1.0).collect();
        let r = wilcoxon_signed_rank(&xs, &ys);
        prop_assert!((0.0..=1.0).contains(&r.p_value));
        // All differences are −1: fully one-sided.
        prop_assert_eq!(r.w_plus, 0.0);
    }

    #[test]
    fn normal_quantile_round_trips(p in 0.001f64..0.999) {
        let x = normal_quantile(p);
        prop_assert!((normal_cdf(x) - p).abs() < 1e-6);
    }

    #[test]
    fn chi_squared_cdf_monotone(x1 in 0.0f64..50.0, x2 in 0.0f64..50.0, k in 1.0f64..20.0) {
        let (a, b) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(chi_squared_cdf(a, k) <= chi_squared_cdf(b, k) + 1e-9);
    }

    #[test]
    fn conformal_pvalue_in_unit_interval(
        reference in finite_vec(1..64),
        s in -1e6f64..1e6,
        theta in 0.0f64..1.0,
    ) {
        let p = conformal_pvalue(&reference, s, theta);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn martingale_deviation_bounded(ps in prop::collection::vec(0.001f64..1.0, 1..256)) {
        let mut m = PowerMartingale::default();
        for &p in &ps {
            let dev = m.update(p);
            prop_assert!((0.0..=1.0).contains(&dev));
        }
    }

    #[test]
    fn condensed_index_bijective(n in 2usize..12) {
        let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let pairs = CorrelationPairs::new(&names);
        let mut seen = vec![false; pairs.n_pairs()];
        for i in 0..n {
            for j in (i + 1)..n {
                let k = pairs.condensed_index(i, j);
                prop_assert!(!seen[k], "index collision");
                seen[k] = true;
                prop_assert_eq!(pairs.pair_indices(k), (i, j));
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }
}

/// Random multi-signal stream: `width` signals, rows in ±1e3, with signal 0
/// optionally pinned to a constant from `const_from` onward (exercising the
/// degenerate-signal contract once the sliding window fills with it).
fn row_stream() -> impl Strategy<Value = (Vec<Vec<f64>>, usize, usize)> {
    (2usize..5).prop_flat_map(|width| {
        (
            prop::collection::vec(prop::collection::vec(-1e3f64..1e3, width), 8..80),
            2usize..16,
            // `const_from ≥ rows.len()` (common, since rows are 8..80) means
            // no pinning — the strategy mixes varying and degenerate cases.
            0usize..120,
        )
            .prop_map(move |(mut rows, window, const_from)| {
                let pin = rows.first().map_or(0.0, |r| r[0]);
                for row in rows.iter_mut().skip(const_from.max(1)) {
                    row[0] = pin;
                }
                (rows, width, window)
            })
    })
}

/// Column-major view of the last `window` rows ending at `end` (exclusive).
fn columns_of(rows: &[Vec<f64>], end: usize, window: usize) -> Vec<Vec<f64>> {
    let lo = end.saturating_sub(window);
    let width = rows[0].len();
    (0..width).map(|c| rows[lo..end].iter().map(|r| r[c]).collect()).collect()
}

proptest! {
    #[test]
    fn incremental_pearson_matches_batch_on_every_slide(
        (rows, width, window) in row_stream(),
    ) {
        let names: Vec<String> = (0..width).map(|i| format!("s{i}")).collect();
        let pairs = CorrelationPairs::new(&names);
        let mut acc = IncrementalPearson::new(width);
        let mut out = vec![0.0; pairs.n_pairs()];
        for (i, row) in rows.iter().enumerate() {
            if acc.len() == window {
                acc.pop_front();
            }
            acc.push(row);
            acc.corr_into(&mut out);
            let cols = columns_of(&rows, i + 1, window);
            let views: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
            let reference = pairs.condensed_pearson(&views);
            for (k, (&got, &want)) in out.iter().zip(&reference).enumerate() {
                if want.is_nan() {
                    prop_assert!(got.is_nan(), "pair {k} at {i}: {got} vs NaN");
                } else {
                    prop_assert!((got - want).abs() <= 1e-9, "pair {k} at {i}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn incremental_pearson_reset_equals_fresh(
        (rows, width, window) in row_stream(),
        cut in 1usize..79,
    ) {
        // Streaming with a mid-stream reset must agree with a kernel that
        // only ever saw the post-reset suffix — the transform relies on
        // this for its long-gap resets.
        let cut = cut.min(rows.len() - 1);
        let mut resumed = IncrementalPearson::new(width);
        for row in &rows[..cut] {
            if resumed.len() == window {
                resumed.pop_front();
            }
            resumed.push(row);
        }
        resumed.reset();
        let mut fresh = IncrementalPearson::new(width);
        let mut a = vec![0.0; resumed.n_pairs()];
        let mut b = vec![0.0; fresh.n_pairs()];
        for row in &rows[cut..] {
            if resumed.len() == window {
                resumed.pop_front();
            }
            resumed.push(row);
            if fresh.len() == window {
                fresh.pop_front();
            }
            fresh.push(row);
            resumed.corr_into(&mut a);
            fresh.corr_into(&mut b);
            for (&x, &y) in a.iter().zip(&b) {
                prop_assert!(x.is_nan() && y.is_nan() || (x - y).abs() <= 1e-12, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn incremental_mean_matches_batch_on_every_slide(
        (rows, width, window) in row_stream(),
    ) {
        let mut acc = IncrementalMean::new(width);
        let mut out = vec![0.0; width];
        for (i, row) in rows.iter().enumerate() {
            if acc.len() == window {
                acc.pop_front();
            }
            acc.push(row);
            acc.means_into(&mut out);
            let cols = columns_of(&rows, i + 1, window);
            for (c, (&got, col)) in out.iter().zip(&cols).enumerate() {
                let want = mean(col);
                prop_assert!((got - want).abs() <= 1e-9, "signal {c} at {i}: {got} vs {want}");
            }
        }
    }
}

/// Snapshot → fresh kernel → restore; returns the restored kernel. Also
/// asserts the reader consumed the bytes exactly.
fn round_trip<K: Snapshot + Restore>(live: &K, mut fresh: K) -> K {
    let mut w = SnapWriter::new();
    live.write_state(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    fresh.read_state(&mut r).expect("kernel snapshot must restore into a same-shape kernel");
    r.finish().expect("kernel snapshot must have no trailing bytes");
    fresh
}

fn snapshot_bytes<K: Snapshot>(k: &K) -> Vec<u8> {
    let mut w = SnapWriter::new();
    k.write_state(&mut w);
    w.into_bytes()
}

proptest! {
    /// Checkpoint contract for the [`IncrementalPearson`] kernel: cut the
    /// stream anywhere, round-trip the accumulator through its snapshot,
    /// and the restored kernel's outputs stay **bit-identical** to the
    /// uninterrupted one on the whole remainder — and re-snapshots stay
    /// byte-identical, so nothing was silently rebuilt.
    #[test]
    fn incremental_pearson_snapshot_round_trip_is_bit_exact(
        (rows, width, window) in row_stream(),
        cut in 0usize..80,
    ) {
        let cut = cut.min(rows.len());
        let mut live = IncrementalPearson::new(width);
        for row in &rows[..cut] {
            if live.len() == window {
                live.pop_front();
            }
            live.push(row);
        }
        let mut restored = round_trip(&live, IncrementalPearson::new(width));
        let mut a = vec![0.0; live.n_pairs()];
        let mut b = vec![0.0; live.n_pairs()];
        for row in &rows[cut..] {
            if live.len() == window {
                live.pop_front();
            }
            live.push(row);
            if restored.len() == window {
                restored.pop_front();
            }
            restored.push(row);
            live.corr_into(&mut a);
            restored.corr_into(&mut b);
            for (&x, &y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
            }
        }
        prop_assert_eq!(snapshot_bytes(&live), snapshot_bytes(&restored));
    }

    /// Same contract for [`IncrementalMean`].
    #[test]
    fn incremental_mean_snapshot_round_trip_is_bit_exact(
        (rows, width, window) in row_stream(),
        cut in 0usize..80,
    ) {
        let cut = cut.min(rows.len());
        let mut live = IncrementalMean::new(width);
        for row in &rows[..cut] {
            if live.len() == window {
                live.pop_front();
            }
            live.push(row);
        }
        let mut restored = round_trip(&live, IncrementalMean::new(width));
        let mut a = vec![0.0; width];
        let mut b = vec![0.0; width];
        for row in &rows[cut..] {
            if live.len() == window {
                live.pop_front();
            }
            live.push(row);
            if restored.len() == window {
                restored.pop_front();
            }
            restored.push(row);
            live.means_into(&mut a);
            restored.means_into(&mut b);
            for (&x, &y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
            }
        }
        prop_assert_eq!(snapshot_bytes(&live), snapshot_bytes(&restored));
    }

    /// Truncated kernel snapshots are an error, never a panic.
    #[test]
    fn kernel_snapshot_truncation_is_an_error(
        (rows, width, window) in row_stream(),
        trunc_sel in 0usize..1_000_000,
    ) {
        let mut live = IncrementalPearson::new(width);
        for row in &rows {
            if live.len() == window {
                live.pop_front();
            }
            live.push(row);
        }
        let bytes = snapshot_bytes(&live);
        let trunc_at = trunc_sel % bytes.len();
        let mut fresh = IncrementalPearson::new(width);
        let mut r = SnapReader::new(&bytes[..trunc_at]);
        prop_assert!(
            fresh.read_state(&mut r).and_then(|()| r.finish()).is_err(),
            "a truncated kernel snapshot must be refused"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn quantile_in_place_equals_sort_then_quantile_sorted(
        xs in prop::collection::vec(edge_or_finite(), 1..24),
        q in (0u8..4, 0.0f64..=1.0).prop_map(|(pick, q)| match pick {
            0 => 0.0,
            1 => 0.85,
            2 => 1.0,
            _ => q,
        }),
    ) {
        // The selection helper reads the same order statistics as a full
        // `total_cmp` sort, so the result must match bit for bit.
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let want = quantile_sorted(&sorted, q);
        let got = quantile_in_place(&mut xs.clone(), q);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "q {} over {:?}", q, xs);
        prop_assert_eq!(quantile(&xs, q).to_bits(), want.to_bits());
    }
}

/// The bitwise CRC-32 loop that `snapshot::crc32` replaced, kept as the
/// reference the table-driven kernel must match on every input.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[test]
fn crc32_check_value() {
    // The published check value of CRC-32/ISO-HDLC, the IEEE 802.3 CRC.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(&[]), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every start offset mod 16 puts a different split between the
    /// 16-byte blocks and the byte-at-a-time tail.
    #[test]
    fn crc32_matches_the_bitwise_loop(bytes in prop::collection::vec(0u8..=255, 0..=2048)) {
        for start in 0..16 {
            let tail = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(tail), crc32_bitwise(tail), "start {} of {}", start, bytes.len());
        }
    }
}

/// One write of a random snapshot layout: a scalar, a length-prefixed
/// string or byte run, or a nested frame.
#[derive(Debug, Clone)]
enum Node {
    U8(u8),
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
    Bytes(Vec<u8>),
    Frame(Vec<Node>),
}

/// Random layouts of up to six writes per level, frames nested at most
/// `depth` deep; empty frames and empty strings and byte runs are common.
struct Layouts {
    depth: u32,
}

impl Strategy for Layouts {
    type Value = Vec<Node>;

    fn generate(&self, rng: &mut TestRng) -> Vec<Node> {
        let kinds = if self.depth == 0 { 6 } else { 8 };
        (0..rng.below(7))
            .map(|_| match rng.below(kinds) {
                0 => Node::U8(rng.next_u64() as u8),
                1 => Node::Bool(rng.below(2) == 1),
                2 => Node::U64(rng.next_u64()),
                3 => Node::F64(f64::from_bits(rng.next_u64())),
                4 => Node::Str("é".repeat(rng.below(4) as usize)),
                5 => Node::Bytes((0..rng.below(24)).map(|b| b as u8).collect()),
                _ => Node::Frame(Layouts { depth: self.depth - 1 }.generate(rng)),
            })
            .collect()
    }
}

fn write_scalar(w: &mut SnapWriter, node: &Node) {
    match node {
        Node::U8(v) => w.put_u8(*v),
        Node::Bool(v) => w.put_bool(*v),
        Node::U64(v) => w.put_u64(*v),
        Node::F64(v) => w.put_f64(*v),
        Node::Str(v) => w.put_str(v),
        Node::Bytes(v) => w.put_bytes(v),
        Node::Frame(_) => unreachable!("frames are written by the callers"),
    }
}

fn write_layout(w: &mut SnapWriter, layout: &[Node]) {
    for node in layout {
        match node {
            Node::Frame(body) => w.put_frame(|w| write_layout(w, body)),
            scalar => write_scalar(w, scalar),
        }
    }
}

/// The buffered `put_frame` that in-place frames replaced: each body is
/// built in a writer of its own and copied into its parent with a length
/// prefix, at every level.
fn write_layout_buffered(layout: &[Node]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    for node in layout {
        match node {
            Node::Frame(body) => w.put_bytes(&write_layout_buffered(body)),
            scalar => write_scalar(&mut w, scalar),
        }
    }
    w.into_bytes()
}

fn read_layout(r: &mut SnapReader<'_>, layout: &[Node]) -> Result<(), TestCaseError> {
    for node in layout {
        match node {
            Node::U8(v) => prop_assert_eq!(r.get_u8(), Ok(*v)),
            Node::Bool(v) => prop_assert_eq!(r.get_bool(), Ok(*v)),
            Node::U64(v) => prop_assert_eq!(r.get_u64(), Ok(*v)),
            Node::F64(v) => prop_assert_eq!(r.get_f64().map(f64::to_bits), Ok(v.to_bits())),
            Node::Str(v) => prop_assert_eq!(r.get_str(), Ok(v.clone())),
            Node::Bytes(v) => prop_assert_eq!(r.get_bytes(), Ok(v.as_slice())),
            Node::Frame(body) => {
                let mut frame = r.get_frame().map_err(|e| TestCaseError::Fail(e.to_string()))?;
                read_layout(&mut frame, body)?;
                prop_assert_eq!(frame.finish(), Ok(()));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// In-place frames emit the bytes of buffered ones, and `get_frame`
    /// reads every layout back.
    #[test]
    fn in_place_frames_match_buffered_frames(layout in Layouts { depth: 4 }) {
        let mut w = SnapWriter::new();
        write_layout(&mut w, &layout);
        let bytes = w.into_bytes();
        prop_assert_eq!(&bytes, &write_layout_buffered(&layout));
        let mut r = SnapReader::new(&bytes);
        read_layout(&mut r, &layout)?;
        prop_assert_eq!(r.finish(), Ok(()));
    }
}
