//! Property-based tests for frames, filters and transformations.

use navarchos_tsframe::aggregate::{daily_aggregate, SECONDS_PER_DAY};
use navarchos_tsframe::csv::{read_csv, write_csv, CsvError};
use navarchos_tsframe::{
    resample, CorrelationTransform, DeltaTransform, FillMethod, FilterSpec, Frame, MeanTransform,
    RawTransform, ResampleSpec, Transform, ValidRange,
};
use proptest::prelude::*;

/// Builds a time-ordered 2-signal frame with 1-minute cadence.
fn frame_2(values: &[(f64, f64)]) -> Frame {
    let mut f = Frame::new(&["a", "b"]);
    for (i, &(a, b)) in values.iter().enumerate() {
        f.push_row(i as i64 * 60, &[a, b]);
    }
    f
}

proptest! {
    #[test]
    fn raw_transform_is_identity(vals in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..64)) {
        let f = frame_2(&vals);
        let mut t = RawTransform::new(f.names());
        let g = t.apply(&f);
        prop_assert_eq!(g.len(), f.len());
        prop_assert_eq!(g.column(0), f.column(0));
        prop_assert_eq!(g.column(1), f.column(1));
    }

    #[test]
    fn delta_telescopes(vals in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..64)) {
        let f = frame_2(&vals);
        let mut t = DeltaTransform::new(f.names());
        let g = t.apply(&f);
        prop_assert_eq!(g.len(), f.len() - 1);
        // Telescoping sum: Σ deltas = last − first.
        let sum: f64 = g.column(0).iter().sum();
        let expected = vals.last().unwrap().0 - vals.first().unwrap().0;
        prop_assert!((sum - expected).abs() < 1e-6);
    }

    #[test]
    fn mean_transform_within_minmax(vals in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 8..80)) {
        let f = frame_2(&vals);
        let mut t = MeanTransform::new(f.names(), 6, 2);
        let g = t.apply(&f);
        let lo = vals.iter().map(|v| v.0).fold(f64::INFINITY, f64::min);
        let hi = vals.iter().map(|v| v.0).fold(f64::NEG_INFINITY, f64::max);
        for &m in g.column(0) {
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }

    #[test]
    fn correlation_features_bounded(vals in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 10..100)) {
        let f = frame_2(&vals);
        let mut t = CorrelationTransform::new(f.names(), 8, 2);
        let g = t.apply(&f);
        prop_assert_eq!(g.width(), 1);
        for &c in g.column(0) {
            prop_assert!(c.is_nan() || (-1.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn windowed_emission_count(n in 10usize..200, window in 2usize..12, stride in 1usize..6) {
        prop_assume!(window <= n);
        let vals: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, (i * 2) as f64)).collect();
        let f = frame_2(&vals);
        let mut t = MeanTransform::new(f.names(), window, stride);
        let g = t.apply(&f);
        // First emission when the window fills, then every `stride`.
        let expected = 1 + (n - window) / stride;
        prop_assert_eq!(g.len(), expected);
    }

    #[test]
    fn daily_aggregate_partitions_rows(
        counts in prop::collection::vec(1usize..50, 1..6),
    ) {
        // `counts[d]` rows on day d.
        let mut f = Frame::new(&["x"]);
        let mut total = 0usize;
        for (d, &c) in counts.iter().enumerate() {
            for i in 0..c {
                f.push_row(d as i64 * SECONDS_PER_DAY + i as i64 * 60, &[i as f64]);
            }
            total += c;
        }
        let aggs = daily_aggregate(&f, SECONDS_PER_DAY, 1);
        prop_assert_eq!(aggs.len(), counts.len());
        prop_assert_eq!(aggs.iter().map(|a| a.count).sum::<usize>(), total);
    }

    #[test]
    fn frame_slice_time_partition(
        n in 2usize..64,
        split_frac in 0.1f64..0.9,
    ) {
        let vals: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, -(i as f64))).collect();
        let f = frame_2(&vals);
        let split = (n as f64 * split_frac) as i64 * 60;
        let left = f.slice_time(i64::MIN, split);
        let right = f.slice_time(split, i64::MAX);
        prop_assert_eq!(left.len() + right.len(), n);
    }
}

proptest! {
    #[test]
    fn resample_grid_is_regular_and_within_range(
        gaps in prop::collection::vec(1i64..400, 2..64),
        period in 1i64..120,
    ) {
        let mut f = Frame::new(&["x"]);
        let mut t = 0i64;
        for (i, &g) in gaps.iter().enumerate() {
            f.push_row(t, &[i as f64]);
            t += g;
        }
        let spec = ResampleSpec { period, max_gap: 500, method: FillMethod::Linear };
        let r = resample(&f, spec);
        let first = f.timestamps()[0];
        let last = *f.timestamps().last().unwrap();
        for w in r.timestamps().windows(2) {
            prop_assert!(w[1] > w[0], "strictly increasing");
            prop_assert_eq!((w[1] - w[0]) % period, 0, "grid-aligned spacing");
        }
        for &gt in r.timestamps() {
            prop_assert!(gt >= first && gt <= last, "inside the observed range");
            prop_assert_eq!(gt.rem_euclid(period), 0, "on the global grid");
        }
    }

    #[test]
    fn linear_resample_values_within_neighbour_hull(
        vals in prop::collection::vec(-100.0f64..100.0, 2..64),
        period in 1i64..90,
    ) {
        let mut f = Frame::new(&["x"]);
        for (i, &v) in vals.iter().enumerate() {
            f.push_row(i as i64 * 60, &[v]);
        }
        let r = resample(&f, ResampleSpec { period, max_gap: 3_600, method: FillMethod::Linear });
        for (i, &gt) in r.timestamps().iter().enumerate() {
            // Locate the bracketing input samples.
            let hi = f.timestamps().iter().position(|&t| t >= gt).unwrap();
            let lo = if f.timestamps()[hi] == gt { hi } else { hi - 1 };
            let (a, b) = (f.column(0)[lo], f.column(0)[hi]);
            let (min, max) = (a.min(b), a.max(b));
            let v = r.column(0)[i];
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9, "{v} outside [{min}, {max}]");
        }
    }

    #[test]
    fn previous_hold_reproduces_observed_values(
        vals in prop::collection::vec(-100.0f64..100.0, 2..64),
        period in 1i64..90,
    ) {
        let mut f = Frame::new(&["x"]);
        for (i, &v) in vals.iter().enumerate() {
            f.push_row(i as i64 * 60 + 7, &[v]);
        }
        let r = resample(&f, ResampleSpec { period, max_gap: 3_600, method: FillMethod::Previous });
        for (i, &gt) in r.timestamps().iter().enumerate() {
            let v = r.column(0)[i];
            prop_assert!(
                f.timestamps().iter().zip(f.column(0)).any(|(&t, &x)| t <= gt && x == v),
                "held value {v} was never observed at or before {gt}"
            );
        }
    }
}

/// Random `(gap_seconds, a, b)` stream: gaps up to 8 hours exercise both
/// the ≤120 s differencing guard and the 6 h window reset.
fn gapped_stream() -> impl Strategy<Value = Vec<(i64, f64, f64)>> {
    prop::collection::vec((1i64..28_800, -500.0f64..500.0, -500.0f64..500.0), 12..150)
}

proptest! {
    #[test]
    fn correlation_long_gap_equals_fresh_transform(
        prefix in gapped_stream(),
        suffix in prop::collection::vec((1i64..100, -500.0f64..500.0, -500.0f64..500.0), 12..80),
        window in 2usize..10,
    ) {
        // Whatever state the transform is in, a > 6 h silence must make it
        // behave exactly like a newly constructed one on the suffix.
        let names = ["a".to_string(), "b".to_string()];
        let mut resumed = CorrelationTransform::new(&names, window, 1).with_differencing();
        let (mut rv, mut fv) = ([0.0], [0.0]);
        let mut t = 0i64;
        for &(gap, a, b) in &prefix {
            t += gap;
            let _ = resumed.push_into(t, &[a, b], &mut rv);
        }
        t += 7 * 3600; // the long gap
        let mut fresh = CorrelationTransform::new(&names, window, 1).with_differencing();
        for &(gap, a, b) in &suffix {
            t += gap;
            let row = [a, b];
            let r = resumed.push_into(t, &row, &mut rv);
            let f = fresh.push_into(t, &row, &mut fv);
            prop_assert_eq!(r, f, "cadence diverged at {}", t);
            if r.is_some() {
                for (&x, &y) in rv.iter().zip(&fv) {
                    prop_assert!(x.is_nan() && y.is_nan() || x == y, "{x} vs {y}");
                }
            }
        }
    }
}

// ---- WindowCadence checkpoint round-trip (xtask L4 kernel) --------------

use navarchos_stat::{Restore, SnapReader, SnapWriter, Snapshot};
use navarchos_tsframe::WindowCadence;

proptest! {
    /// Checkpoint contract for [`WindowCadence`]: cut the record sequence
    /// anywhere, round-trip the cadence through its snapshot, and the
    /// restored cadence makes **identical** gap-reset and emission
    /// decisions on the whole remainder — and re-snapshots stay
    /// byte-identical. The drawn inter-record gaps straddle the 6-hour
    /// ride boundary so both the reset and the no-reset paths are hit.
    #[test]
    fn window_cadence_snapshot_round_trip_is_decision_identical(
        gaps in prop::collection::vec(1i64..30_000, 4..120),
        window in 2usize..12,
        stride in 1usize..5,
        cut in 0usize..120,
    ) {
        let cut = cut.min(gaps.len());
        let mut ts = Vec::with_capacity(gaps.len());
        let mut t = 0i64;
        for &g in &gaps {
            t += g;
            ts.push(t);
        }

        let mut live = WindowCadence::new(window, stride);
        for &t in &ts[..cut] {
            let _ = live.gap_reset(t);
            let _ = live.note_push();
        }

        let mut w = SnapWriter::new();
        live.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = WindowCadence::new(window, stride);
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r).expect("cadence snapshot must restore");
        r.finish().expect("cadence snapshot must have no trailing bytes");
        prop_assert_eq!(restored.len(), live.len());
        prop_assert_eq!(restored.full(), live.full());

        for &t in &ts[cut..] {
            prop_assert_eq!(restored.gap_reset(t), live.gap_reset(t), "gap decision diverged");
            prop_assert_eq!(restored.note_push(), live.note_push(), "emission decision diverged");
            prop_assert_eq!(restored.len(), live.len());
        }

        let mut wa = SnapWriter::new();
        live.write_state(&mut wa);
        let mut wb = SnapWriter::new();
        restored.write_state(&mut wb);
        prop_assert_eq!(wa.into_bytes(), wb.into_bytes(), "re-snapshot must be byte-identical");
    }

    /// A cadence snapshot claiming more buffered records than the window
    /// holds is refused — the validator, not the caller, guards the
    /// invariant.
    #[test]
    fn window_cadence_overfull_snapshot_is_refused(window in 2usize..12, stride in 1usize..5) {
        let mut big = WindowCadence::new(window + 1, stride);
        for i in 0..=window {
            let _ = big.gap_reset(i as i64 * 60);
            let _ = big.note_push();
        }
        let mut w = SnapWriter::new();
        big.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut small = WindowCadence::new(window, stride);
        let mut r = SnapReader::new(&bytes);
        prop_assert!(small.read_state(&mut r).is_err(), "len > window must be corrupt");
    }
}

// ---------------------------------------------------------------------------
// Record filter: the resolved row predicate, the per-call `keep_row` and the
// column-wise `mask` agree row by row.
// ---------------------------------------------------------------------------

/// The next float above `x` (`f64::next_up`, which postdates the MSRV).
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Every bound of the Navarchos filter (ranges, stationary thresholds,
/// warm-up minimum) with the floats on either side of it, plus the
/// non-finite values.
fn filter_edge_values() -> Vec<f64> {
    let bounds = [-40.0, 0.0, 3.0, 5.0, 72.0, 120.0, 135.0, 220.0, 255.0, 650.0, 950.0, 8000.0];
    let mut out = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for b in bounds {
        out.extend([-next_up(-b), b, next_up(b)]);
    }
    out
}

/// A cell: a filter edge value half the time, else anywhere in the range
/// the six signals span.
fn filter_cell() -> impl Strategy<Value = f64> {
    let edges = filter_edge_values();
    (0usize..2 * edges.len(), -100.0f64..9000.0)
        .prop_map(move |(i, x)| edges.get(i).copied().unwrap_or(x))
}

/// The Navarchos schema with each column kept or omitted, an optional
/// column the filter never reads, in a random order.
fn filter_schema() -> impl Strategy<Value = Vec<String>> {
    (prop::collection::vec(0u8..4, 7), prop::collection::vec(0u32..1000, 7)).prop_map(
        |(keep, order)| {
            let all =
                ["rpm", "speed", "coolantTemp", "intakeTemp", "mapIntake", "mafAirFlowRate", "x"];
            let mut cols: Vec<(u32, String)> = all
                .iter()
                .zip(keep.iter().zip(&order))
                .filter(|(_, (k, _))| **k > 0)
                .map(|(n, (_, o))| (*o, n.to_string()))
                .collect();
            cols.sort();
            cols.into_iter().map(|(_, n)| n).collect()
        },
    )
}

/// The paper's filter, the empty filter, and a variant with no stationary
/// check and two ranges on one column.
fn filter_spec(which: usize) -> FilterSpec {
    match which {
        0 => FilterSpec::navarchos_default(),
        1 => FilterSpec::default(),
        _ => {
            let mut spec = FilterSpec::navarchos_default();
            spec.rpm_column = None;
            spec.valid_ranges.push(ValidRange::new("speed", 3.0, 120.0));
            spec
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn resolved_filter_keep_row_and_mask_agree(
        (names, rows) in filter_schema().prop_flat_map(|names| {
            let width = names.len();
            (Just(names), prop::collection::vec(prop::collection::vec(filter_cell(), width), 1..24))
        }),
        which in 0usize..3,
    ) {
        let spec = filter_spec(which);
        let mut frame = Frame::new(&names);
        for (i, row) in rows.iter().enumerate() {
            frame.push_row(i as i64 * 60, row);
        }
        let mask = spec.mask(&frame);
        let resolved = spec.resolve(&names);
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(resolved.keep(row), mask[i], "row {} {:?} of {:?}", i, row, names);
            prop_assert_eq!(spec.keep_row(&names, row), mask[i], "row {} {:?} of {:?}", i, row, names);
        }
    }
}

/// The reader `read_csv` replaced, kept as the reference: one `String` per
/// line through `BufRead::lines`, cells split and parsed into a row buffer,
/// plus the schema rule the new reader adds at line 1.
fn read_csv_by_lines(reader: impl std::io::Read) -> Result<Frame, CsvError> {
    use std::io::BufRead;
    let parse_error = |line: usize, message: String| CsvError::Parse { line, message };
    let mut lines = std::io::BufReader::new(reader).lines();
    let header = lines.next().ok_or(parse_error(1, "empty file".into()))??;
    let mut cols = header.split(',');
    let first = cols.next().unwrap_or_default().trim();
    if !first.eq_ignore_ascii_case("timestamp") {
        return Err(parse_error(1, format!("first column must be 'timestamp', got '{first}'")));
    }
    let names: Vec<String> = cols.map(|c| c.trim().to_string()).collect();
    if names.is_empty() {
        return Err(parse_error(1, "no signal columns".into()));
    }
    for (j, name) in names.iter().enumerate() {
        let reason = if name.is_empty() {
            "is empty"
        } else if name.contains('\r') {
            "contains ',', '\\n' or '\\r'"
        } else if names[..j].contains(name) {
            "is a duplicate"
        } else {
            continue;
        };
        return Err(parse_error(1, format!("signal name '{name}' in column {} {reason}", j + 2)));
    }

    let mut frame = Frame::new(&names);
    let mut row = Vec::with_capacity(names.len());
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut cells = line.split(',');
        let ts: i64 = cells
            .next()
            .unwrap_or_default()
            .trim()
            .parse()
            .map_err(|e| parse_error(line_no, format!("bad timestamp: {e}")))?;
        row.clear();
        for cell in cells {
            let v: f64 = cell
                .trim()
                .parse()
                .map_err(|e| parse_error(line_no, format!("bad value '{}': {e}", cell.trim())))?;
            row.push(v);
        }
        if row.len() != names.len() {
            return Err(parse_error(
                line_no,
                format!("expected {} values, got {}", names.len(), row.len()),
            ));
        }
        if let Some(&last) = frame.timestamps().last() {
            if ts < last {
                return Err(parse_error(
                    line_no,
                    format!("timestamps must be non-decreasing ({ts} after {last})"),
                ));
            }
        }
        frame.push_row(ts, &row);
    }
    Ok(frame)
}

/// What a read gives, comparable bit for bit.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Names, timestamps and every value's bits, column by column.
    Frame(Vec<String>, Vec<i64>, Vec<Vec<u64>>),
    Parse(usize, String),
    Io(std::io::ErrorKind, String),
    Name(String),
}

fn outcome(read: Result<Frame, CsvError>) -> Outcome {
    match read {
        Ok(f) => Outcome::Frame(
            f.names().to_vec(),
            f.timestamps().to_vec(),
            (0..f.width()).map(|c| f.column(c).iter().map(|v| v.to_bits()).collect()).collect(),
        ),
        Err(CsvError::Parse { line, message }) => Outcome::Parse(line, message),
        Err(CsvError::Io(e)) => Outcome::Io(e.kind(), e.to_string()),
        Err(e @ CsvError::Name { .. }) => Outcome::Name(e.to_string()),
    }
}

/// A value the round trip must carry: NaN, ±inf, −0.0, subnormals,
/// extremes, any bit pattern, or an ordinary reading.
fn csv_value(rng: &mut TestRng) -> f64 {
    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    match rng.below(9) {
        0 => f64::NAN,
        1 => sign * f64::INFINITY,
        2 => -0.0,
        3 => sign * f64::from_bits(1 + rng.below((1 << 52) - 1)),
        4 => sign * [f64::MAX, f64::MIN_POSITIVE, f64::EPSILON][rng.below(3) as usize],
        5 => f64::from_bits(rng.next_u64()),
        6 => (rng.below(20_000) as f64 - 10_000.0) / 8.0,
        _ => sign * rng.unit_f64() * 10f64.powi(rng.below(12) as i32 - 4),
    }
}

/// `write_csv` output of a random frame, as lines without their `\n`.
fn csv_lines(rng: &mut TestRng) -> Vec<Vec<u8>> {
    let width = 1 + rng.below(6) as usize;
    let names: Vec<String> = (0..width)
        .map(|j| format!("{}{j}", ["rpm", "speed", "Coolant_T", "s"][rng.below(4) as usize]))
        .collect();
    let mut frame = Frame::new(&names);
    let mut ts = [i64::MIN, -86_400, 0, 1_600_000_000, i64::MAX - 2_000][rng.below(5) as usize];
    let mut row = vec![0.0; width];
    for _ in 0..rng.below(24) {
        row.iter_mut().for_each(|v| *v = csv_value(rng));
        frame.push_row(ts, &row);
        ts = ts.saturating_add(rng.below(90) as i64);
    }
    let mut buf = Vec::new();
    write_csv(&frame, &mut buf).expect("valid names are written");
    buf.split(|&b| b == b'\n').map(<[u8]>::to_vec).filter(|l| !l.is_empty()).collect()
}

/// Applies one text perturbation to a random line (or to the file's end).
fn perturb(lines: &mut Vec<Vec<u8>>, crlf: &mut bool, final_newline: &mut bool, rng: &mut TestRng) {
    let at = rng.below(lines.len() as u64) as usize;
    let line = &mut lines[at];
    let commas = |line: &[u8]| -> Vec<usize> {
        line.iter().enumerate().filter(|(_, &b)| b == b',').map(|(i, _)| i).collect()
    };
    match rng.below(11) {
        0 => {
            let blank: &[u8] =
                [&b""[..], b"  ", b" \t ", "\u{a0}".as_bytes()][rng.below(4) as usize];
            lines.insert(at, blank.to_vec());
        }
        1 => *crlf = !*crlf,
        2 => *final_newline = !*final_newline,
        3 => {
            let spaced: Vec<u8> = line
                .iter()
                .flat_map(|&b| if b == b',' { b" , ".to_vec() } else { vec![b] })
                .collect();
            *line = [&b" "[..], &spaced, b"\t"].concat();
        }
        4 => {
            if let Some(&last) = commas(line).last() {
                line.truncate(last);
            }
        }
        5 => line.extend_from_slice(b",1.5"),
        6 => line.push(b','),
        7 => {
            let cuts = commas(line);
            let garbage: &[u8] = [&b"x1"[..], b"1.0.0", b"", b"0x10", b"1e"][rng.below(5) as usize];
            let k = rng.below(cuts.len() as u64 + 1) as usize;
            let start = if k == 0 { 0 } else { cuts[k - 1] + 1 };
            let end = cuts.get(k).copied().unwrap_or(line.len());
            line.splice(start..end, garbage.iter().copied());
        }
        8 => {
            if at > 0 && at + 1 < lines.len() {
                lines.swap(at, at + 1);
            }
        }
        9 => {
            let bad: &[u8] =
                [&b"\xff"[..], b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"][rng.below(4) as usize];
            let pos = rng.below(line.len() as u64 + 1) as usize;
            line.splice(pos..pos, bad.iter().copied());
        }
        _ => {
            let end = commas(line).first().copied().unwrap_or(line.len());
            line.splice(0..end, b"-9223372036854775808".iter().copied());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn read_csv_equals_the_line_by_line_reader(seed in 0u64..u64::MAX, faults in 0usize..4) {
        let mut rng = TestRng::for_case(seed);
        let mut lines = csv_lines(&mut rng);
        let (mut crlf, mut final_newline) = (false, true);
        for _ in 0..faults {
            perturb(&mut lines, &mut crlf, &mut final_newline, &mut rng);
        }
        let eol: &[u8] = if crlf { b"\r\n" } else { b"\n" };
        let mut text = lines.join(eol);
        if final_newline {
            text.extend_from_slice(eol);
        }
        prop_assert_eq!(
            outcome(read_csv(text.as_slice())),
            outcome(read_csv_by_lines(text.as_slice())),
            "{:?}",
            String::from_utf8_lossy(&text)
        );
    }
}
