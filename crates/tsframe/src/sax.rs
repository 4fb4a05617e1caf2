//! Symbolic Aggregate approXimation (SAX; Lin, Keogh, Lonardi & Chiu,
//! DMKD 2003) — the building block for the paper's *future work*
//! direction: "discretizing the signal input and creating artificial
//! events is an interesting direction for future research" (Section 5).
//!
//! A window is z-normalised, reduced with Piecewise Aggregate
//! Approximation (PAA), and each segment mapped to a symbol through the
//! standard Gaussian breakpoints. Windows whose SAX *word* never (or
//! rarely) appeared in the healthy reference constitute artificial
//! "events".

use navarchos_stat::descriptive::{mean, sample_std};
use navarchos_stat::dist::normal_quantile;

/// A SAX encoder: word length (PAA segments) and alphabet size.
///
/// ```
/// use navarchos_tsframe::sax::SaxEncoder;
///
/// let sax = SaxEncoder::new(4, 4);
/// let rising: Vec<f64> = (0..16).map(|i| i as f64).collect();
/// assert_eq!(sax.encode(&rising), vec![0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct SaxEncoder {
    word_len: usize,
    breakpoints: Vec<f64>,
}

impl SaxEncoder {
    /// Creates an encoder producing `word_len`-symbol words over an
    /// `alphabet`-letter alphabet (alphabet in 2..=20).
    pub fn new(word_len: usize, alphabet: usize) -> Self {
        assert!(word_len >= 1, "need at least one segment");
        assert!((2..=20).contains(&alphabet), "alphabet size in 2..=20");
        // Equiprobable Gaussian breakpoints: Φ⁻¹(i/a) for i in 1..a.
        let breakpoints =
            (1..alphabet).map(|i| normal_quantile(i as f64 / alphabet as f64)).collect();
        SaxEncoder { word_len, breakpoints }
    }

    /// Word length (symbols per word).
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Alphabet size.
    pub fn alphabet(&self) -> usize {
        self.breakpoints.len() + 1
    }

    /// Piecewise Aggregate Approximation: the window reduced to
    /// `word_len` segment means. Segments divide the window as evenly as
    /// possible.
    pub fn paa(&self, window: &[f64]) -> Vec<f64> {
        assert!(!window.is_empty(), "empty window");
        let n = window.len();
        let w = self.word_len.min(n);
        let mut out = Vec::with_capacity(self.word_len);
        for s in 0..w {
            let lo = s * n / w;
            let hi = ((s + 1) * n / w).max(lo + 1);
            out.push(mean(&window[lo..hi]));
        }
        // Degenerate: fewer samples than segments — repeat the last mean
        // (0.0, the z-space centre, if the window itself was empty).
        while out.len() < self.word_len {
            let last = out.last().copied().unwrap_or(0.0);
            out.push(last);
        }
        out
    }

    /// Symbol index (0-based) of a z-normalised value.
    pub fn symbol_of(&self, z: f64) -> u8 {
        let mut s = 0u8;
        for &b in &self.breakpoints {
            if z >= b {
                s += 1;
            } else {
                break;
            }
        }
        s
    }

    /// Encodes a window into its SAX word. The window is z-normalised
    /// in-window; a (numerically) constant window maps to the all-middle
    /// word, carrying "no dynamics" rather than noise.
    pub fn encode(&self, window: &[f64]) -> Vec<u8> {
        let m = mean(window);
        let sd = sample_std(window);
        let mid = (self.alphabet() / 2) as u8;
        if !sd.is_finite() || sd < 1e-12 {
            return vec![mid; self.word_len];
        }
        self.paa(window).iter().map(|&v| self.symbol_of((v - m) / sd)).collect()
    }

    /// Minimum-distance lower bound between two words (the `MINDIST`
    /// symbol distance of the SAX paper, without the √(n/w) scale):
    /// adjacent symbols have distance 0, others the breakpoint gap.
    pub fn word_distance(&self, a: &[u8], b: &[u8]) -> f64 {
        assert_eq!(a.len(), b.len(), "word lengths differ");
        let mut sq = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            if hi - lo >= 2 {
                let d = self.breakpoints[(hi - 1) as usize] - self.breakpoints[lo as usize];
                sq += d * d;
            }
        }
        sq.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakpoints_are_standard() {
        let e = SaxEncoder::new(4, 4);
        // Known 4-letter breakpoints: ±0.6745, 0.
        assert_eq!(e.alphabet(), 4);
        assert!(
            (e.symbol_of(-1.0), e.symbol_of(-0.3), e.symbol_of(0.3), e.symbol_of(1.0))
                == (0, 1, 2, 3)
        );
    }

    #[test]
    fn paa_averages_segments() {
        let e = SaxEncoder::new(2, 4);
        let w = [1.0, 3.0, 5.0, 7.0];
        assert_eq!(e.paa(&w), vec![2.0, 6.0]);
    }

    #[test]
    fn paa_uneven_split() {
        let e = SaxEncoder::new(3, 4);
        let w = [0.0, 1.0, 2.0, 3.0, 4.0];
        let paa = e.paa(&w);
        assert_eq!(paa.len(), 3);
        // Splits: [0,1), [1,3), [3,5) → means 0, 1.5, 3.5.
        assert_eq!(paa, vec![0.0, 1.5, 3.5]);
    }

    #[test]
    fn encode_ramp() {
        let e = SaxEncoder::new(4, 4);
        let ramp: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let word = e.encode(&ramp);
        // Monotone signal → non-decreasing symbols from low to high.
        assert_eq!(word.first(), Some(&0));
        assert_eq!(word.last(), Some(&3));
        assert!(word.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn constant_window_maps_to_middle() {
        let e = SaxEncoder::new(3, 4);
        assert_eq!(e.encode(&[5.0; 12]), vec![2, 2, 2]);
    }

    #[test]
    fn encode_is_scale_invariant() {
        let e = SaxEncoder::new(4, 6);
        let w: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin()).collect();
        let scaled: Vec<f64> = w.iter().map(|&v| 100.0 * v + 42.0).collect();
        assert_eq!(e.encode(&w), e.encode(&scaled));
    }

    #[test]
    fn word_distance_properties() {
        let e = SaxEncoder::new(3, 6);
        let a = vec![0u8, 2, 4];
        let b = vec![1u8, 2, 5];
        assert_eq!(e.word_distance(&a, &a), 0.0);
        // Adjacent symbols count as distance zero (SAX MINDIST).
        assert_eq!(e.word_distance(&a, &b), 0.0);
        let c = vec![5u8, 5, 0];
        assert!(e.word_distance(&a, &c) > 0.0);
        assert_eq!(e.word_distance(&a, &c), e.word_distance(&c, &a));
    }

    #[test]
    #[should_panic]
    fn tiny_alphabet_panics() {
        SaxEncoder::new(4, 1);
    }
}
