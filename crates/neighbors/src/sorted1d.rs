//! One-dimensional nearest-neighbour lookups over a sorted array.
//!
//! The Closest-pair detector monitors every feature *separately*: its
//! anomaly score for feature j is the distance from the new sample's j-th
//! value to the closest j-th value in the reference profile. With the
//! reference sorted once at fit time, each query is a binary search —
//! O(log n) instead of the O(n·f) scans the multivariate detectors pay per
//! sample. This data structure is why Closest-pair is an order of magnitude
//! faster in Table 1 of the paper.

/// The integer that `f64::total_cmp` orders the float with bits `bits`
/// by: the magnitude bits of a negative value flipped, so that signed
/// integer order is float order. The map is its own inverse.
fn total_key(bits: u64) -> i64 {
    let bits = bits as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Sorted reference values for one feature.
///
/// ```
/// use navarchos_neighbors::SortedNeighbors;
///
/// let reference = SortedNeighbors::new(&[1.0, 5.0, 9.0]);
/// assert_eq!(reference.nearest_distance(5.2), 0.20000000000000018);
/// assert_eq!(reference.nearest_value(7.5), 9.0);
/// ```
#[derive(Debug, Clone)]
pub struct SortedNeighbors {
    values: Vec<f64>,
}

impl SortedNeighbors {
    /// Builds from unsorted reference values; non-finite values are
    /// discarded (a NaN reference value can never be a meaningful
    /// neighbour).
    pub fn new(values: &[f64]) -> Self {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        SortedNeighbors { values: v }
    }

    /// The same reference as [`SortedNeighbors::new`], built in the
    /// caller's buffer: no second copy, no second allocation. The finite
    /// values are sorted as the integer keys that `f64::total_cmp`
    /// compares. An integer sort is cheaper than a comparator that
    /// rebuilds both keys at every comparison, and keys that compare equal
    /// come from equal bits, so the order is the one `new`'s stable sort
    /// gives. Mapping the keys back restores every value's bits.
    pub fn from_vec(values: Vec<f64>) -> Self {
        // Both maps between f64 and i64 reuse the buffer (same size and
        // alignment).
        let mut keys: Vec<i64> =
            values.into_iter().filter(|x| x.is_finite()).map(|x| total_key(x.to_bits())).collect();
        keys.sort_unstable();
        SortedNeighbors {
            values: keys.into_iter().map(|k| f64::from_bits(total_key(k as u64) as u64)).collect(),
        }
    }

    /// Number of reference values retained.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the reference is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Distance from `x` to its nearest reference value; `NaN` when the
    /// reference is empty or `x` is not finite.
    pub fn nearest_distance(&self, x: f64) -> f64 {
        if self.values.is_empty() || !x.is_finite() {
            return f64::NAN;
        }
        let i = self.values.partition_point(|&v| v < x);
        let right = self.values.get(i).map(|&v| (v - x).abs()).unwrap_or(f64::INFINITY);
        let left = if i > 0 { (self.values[i - 1] - x).abs() } else { f64::INFINITY };
        left.min(right)
    }

    /// The nearest reference value itself; `NaN` when empty or `x` is not
    /// finite.
    pub fn nearest_value(&self, x: f64) -> f64 {
        if self.values.is_empty() || !x.is_finite() {
            return f64::NAN;
        }
        let i = self.values.partition_point(|&v| v < x);
        match (i.checked_sub(1).map(|j| self.values[j]), self.values.get(i).copied()) {
            (Some(l), Some(r)) => {
                if (x - l).abs() <= (r - x).abs() {
                    l
                } else {
                    r
                }
            }
            (Some(l), None) => l,
            (None, Some(r)) => r,
            // Emptiness is checked on entry; NaN is this method's documented
            // "no reference" answer if that ever regresses.
            (None, None) => f64::NAN,
        }
    }

    /// Sorted view of the reference values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_distance_basic() {
        let s = SortedNeighbors::new(&[5.0, 1.0, 3.0]);
        assert_eq!(s.nearest_distance(3.0), 0.0);
        assert!((s.nearest_distance(2.2) - 0.8).abs() < 1e-12);
        assert_eq!(s.nearest_distance(0.0), 1.0);
        assert_eq!(s.nearest_distance(9.0), 4.0);
    }

    #[test]
    fn nearest_value_prefers_left_on_tie() {
        let s = SortedNeighbors::new(&[1.0, 3.0]);
        assert_eq!(s.nearest_value(2.0), 1.0);
        assert_eq!(s.nearest_value(2.1), 3.0);
        assert_eq!(s.nearest_value(-5.0), 1.0);
        assert_eq!(s.nearest_value(10.0), 3.0);
    }

    #[test]
    fn empty_and_nan_inputs() {
        let empty = SortedNeighbors::new(&[]);
        assert!(empty.nearest_distance(1.0).is_nan());
        assert!(empty.is_empty());
        let s = SortedNeighbors::new(&[1.0, f64::NAN, 2.0]);
        assert_eq!(s.len(), 2, "NaN reference values are dropped");
        assert!(s.nearest_distance(f64::NAN).is_nan());
    }

    #[test]
    fn matches_linear_scan() {
        let reference: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64 / 7.0).collect();
        let s = SortedNeighbors::new(&reference);
        for q in [-3.0, 0.0, 1.234, 7.77, 14.2, 100.0] {
            let brute = reference.iter().map(|&v| (v - q).abs()).fold(f64::INFINITY, f64::min);
            assert!((s.nearest_distance(q) - brute).abs() < 1e-12, "q={q}");
        }
    }

    #[test]
    fn from_vec_keeps_the_callers_buffer() {
        let v = vec![3.0, f64::NAN, -1.0, 2.0];
        let at = v.as_ptr();
        let s = SortedNeighbors::from_vec(v);
        assert_eq!(s.values(), [-1.0, 2.0, 3.0]);
        assert_eq!(s.values().as_ptr(), at, "sorted in place, no second allocation");
    }

    #[test]
    fn duplicates_are_fine() {
        let s = SortedNeighbors::new(&[2.0, 2.0, 2.0]);
        assert_eq!(s.nearest_distance(2.0), 0.0);
        assert_eq!(s.nearest_distance(5.0), 3.0);
        assert_eq!(s.nearest_value(5.0), 2.0);
    }
}
