//! A lightweight columnar frame of timestamped multivariate samples.
//!
//! Rows are timestamped with Unix seconds (`i64`); columns are named `f64`
//! signals. The layout is column-major so per-signal scans (transformations,
//! aggregation) stream contiguously.

/// Columnar frame: parallel `timestamps` and per-signal columns.
///
/// ```
/// use navarchos_tsframe::Frame;
///
/// let mut frame = Frame::new(&["rpm", "speed"]);
/// frame.push_row(0, &[900.0, 0.0]);
/// frame.push_row(60, &[2100.0, 42.0]);
///
/// assert_eq!(frame.len(), 2);
/// assert_eq!(frame.column_by_name("speed"), Some(&[0.0, 42.0][..]));
/// assert_eq!(frame.row(1), vec![2100.0, 42.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frame {
    names: Vec<String>,
    timestamps: Vec<i64>,
    columns: Vec<Vec<f64>>,
}

impl Frame {
    /// Creates an empty frame with the given column names.
    pub fn new<S: AsRef<str>>(names: &[S]) -> Self {
        Frame {
            names: names.iter().map(|s| s.as_ref().to_string()).collect(),
            timestamps: Vec::new(),
            columns: vec![Vec::new(); names.len()],
        }
    }

    /// Creates a frame with pre-allocated row capacity.
    pub fn with_capacity<S: AsRef<str>>(names: &[S], capacity: usize) -> Self {
        Frame {
            names: names.iter().map(|s| s.as_ref().to_string()).collect(),
            timestamps: Vec::with_capacity(capacity),
            // One `with_capacity` per column: `vec![v; n]` clones `v`, and a
            // clone of an empty `Vec` reserves nothing.
            columns: (0..names.len()).map(|_| Vec::with_capacity(capacity)).collect(),
        }
    }

    /// Assembles a frame from whole columns, as the CSV reader builds them.
    pub(crate) fn from_columns(
        names: Vec<String>,
        timestamps: Vec<i64>,
        columns: Vec<Vec<f64>>,
    ) -> Self {
        debug_assert_eq!(names.len(), columns.len(), "one column per name");
        debug_assert!(columns.iter().all(|c| c.len() == timestamps.len()), "ragged columns");
        debug_assert!(timestamps.windows(2).all(|w| w[0] <= w[1]), "time-ordered rows");
        Frame { names, timestamps, columns }
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Appends one row.
    ///
    /// # Panics
    /// If `row.len()` differs from the column count, or the timestamp is
    /// older than the last row (frames are append-only and time-ordered).
    pub fn push_row(&mut self, timestamp: i64, row: &[f64]) {
        assert_eq!(row.len(), self.names.len(), "row width mismatch");
        if let Some(&last) = self.timestamps.last() {
            assert!(timestamp >= last, "timestamps must be non-decreasing");
        }
        self.timestamps.push(timestamp);
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Row timestamps.
    pub fn timestamps(&self) -> &[i64] {
        &self.timestamps
    }

    /// Column by index.
    pub fn column(&self, i: usize) -> &[f64] {
        &self.columns[i]
    }

    /// Column by name, if present.
    pub fn column_by_name(&self, name: &str) -> Option<&[f64]> {
        self.column_index(name).map(|i| self.columns[i].as_slice())
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Copies row `i` into a fresh vector.
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.columns.iter().map(|c| c[i]).collect()
    }

    /// Copies row `i` into `out` (allocation-free hot path).
    pub fn row_into(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.columns.iter().map(|c| c[i]));
    }

    /// New frame keeping only rows where `mask` is true.
    ///
    /// # Panics
    /// If the mask length differs from the row count.
    pub fn filter_rows(&self, mask: &[bool]) -> Frame {
        assert_eq!(mask.len(), self.len(), "mask length mismatch");
        let keep = mask.iter().filter(|&&b| b).count();
        let mut out = Frame::with_capacity(&self.names, keep);
        out.timestamps
            .extend(self.timestamps.iter().zip(mask).filter(|&(_, &m)| m).map(|(&t, _)| t));
        for (dst, src) in out.columns.iter_mut().zip(&self.columns) {
            dst.extend(src.iter().zip(mask).filter(|&(_, &m)| m).map(|(&v, _)| v));
        }
        out
    }

    /// New frame with rows whose timestamps fall in `[start, end)`.
    pub fn slice_time(&self, start: i64, end: i64) -> Frame {
        let lo = self.timestamps.partition_point(|&t| t < start);
        let hi = self.timestamps.partition_point(|&t| t < end);
        let mut out = Frame::with_capacity(&self.names, hi - lo);
        out.timestamps.extend_from_slice(&self.timestamps[lo..hi]);
        for (dst, src) in out.columns.iter_mut().zip(&self.columns) {
            dst.extend_from_slice(&src[lo..hi]);
        }
        out
    }

    /// Splits the frame into maximal runs of records whose consecutive
    /// timestamps are at most `max_gap` seconds apart — for telemetry,
    /// these are the individual rides.
    pub fn split_by_gap(&self, max_gap: i64) -> Vec<Frame> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let ts = self.timestamps();
        let mut start = 0;
        for i in 1..=self.len() {
            let boundary = i == self.len() || ts[i] - ts[i - 1] > max_gap;
            if boundary {
                let mut piece = Frame::with_capacity(&self.names, i - start);
                piece.timestamps.extend_from_slice(&ts[start..i]);
                for (dst, src) in piece.columns.iter_mut().zip(&self.columns) {
                    dst.extend_from_slice(&src[start..i]);
                }
                out.push(piece);
                start = i;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Frame {
        let mut f = Frame::new(&["a", "b"]);
        f.push_row(10, &[1.0, 10.0]);
        f.push_row(20, &[2.0, 20.0]);
        f.push_row(30, &[3.0, 30.0]);
        f
    }

    #[test]
    fn push_and_access() {
        let f = sample_frame();
        assert_eq!(f.len(), 3);
        assert_eq!(f.width(), 2);
        assert_eq!(f.column(0), &[1.0, 2.0, 3.0]);
        assert_eq!(f.column_by_name("b").unwrap(), &[10.0, 20.0, 30.0]);
        assert!(f.column_by_name("zzz").is_none());
        assert_eq!(f.row(1), vec![2.0, 20.0]);
    }

    #[test]
    fn row_into_reuses_buffer() {
        let f = sample_frame();
        let mut buf = Vec::new();
        f.row_into(2, &mut buf);
        assert_eq!(buf, vec![3.0, 30.0]);
        f.row_into(0, &mut buf);
        assert_eq!(buf, vec![1.0, 10.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_unordered_timestamps() {
        let mut f = Frame::new(&["a"]);
        f.push_row(10, &[1.0]);
        f.push_row(5, &[2.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_width() {
        let mut f = Frame::new(&["a", "b"]);
        f.push_row(0, &[1.0]);
    }

    #[test]
    fn filter_rows_by_mask() {
        let f = sample_frame();
        let g = f.filter_rows(&[true, false, true]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.timestamps(), &[10, 30]);
        assert_eq!(g.column(0), &[1.0, 3.0]);
    }

    #[test]
    fn slice_time_half_open() {
        let f = sample_frame();
        let g = f.slice_time(10, 30);
        assert_eq!(g.timestamps(), &[10, 20]);
        let empty = f.slice_time(100, 200);
        assert!(empty.is_empty());
        let all = f.slice_time(i64::MIN, i64::MAX);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn with_capacity_reserves_every_column() {
        let f = Frame::with_capacity(&["a", "b", "c", "d"], 1000);
        assert!(f.timestamps.capacity() >= 1000);
        for (c, col) in f.columns.iter().enumerate() {
            assert!(col.capacity() >= 1000, "column {c} reserved {}", col.capacity());
        }
    }

    #[test]
    fn split_by_gap_partitions_rides() {
        let mut f = Frame::new(&["v"]);
        for t in [0, 60, 120, 4000, 4060, 9000] {
            f.push_row(t, &[t as f64]);
        }
        let rides = f.split_by_gap(120);
        assert_eq!(rides.len(), 3);
        assert_eq!(rides[0].len(), 3);
        assert_eq!(rides[1].len(), 2);
        assert_eq!(rides[2].len(), 1);
        assert_eq!(rides.iter().map(Frame::len).sum::<usize>(), f.len());
        assert_eq!(rides[1].timestamps(), &[4000, 4060]);
        assert!(Frame::new(&["v"]).split_by_gap(60).is_empty());
    }
}
