//! Nearest-neighbour machinery for the Navarchos PdM workspace.
//!
//! * [`distance`] — metrics over feature vectors.
//! * [`knn`] — brute-force k-nearest-neighbour queries against a fixed
//!   reference set (what Grand's kNN non-conformity measure uses).
//! * [`lof`] — the Local Outlier Factor of Breunig et al. (SIGMOD 2000),
//!   used both by the paper's data-exploration step (Section 2, top-1 %
//!   outliers) and by Grand's `Lof` non-conformity measure.
//! * [`sorted1d`] — O(log n) 1-D nearest-neighbour lookups over a sorted
//!   array; the engine behind the Closest-pair detector's order-of-magnitude
//!   speed advantage (Table 1 of the paper).
//! * [`kdtree`] — an exact Euclidean k-d tree for point sets too large for
//!   brute force. No detector queries it: the paper's reference profiles
//!   are small enough for [`knn`].

pub mod distance;
pub mod kdtree;
pub mod knn;
pub mod lof;
pub mod sorted1d;

pub use distance::{chebyshev, euclidean, manhattan, squared_euclidean, Metric};
pub use kdtree::KdTree;
pub use knn::KnnIndex;
pub use lof::LofModel;
pub use sorted1d::SortedNeighbors;
