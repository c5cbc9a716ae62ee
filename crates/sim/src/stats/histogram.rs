//! Fixed-bin-width frequency histogram.

/// A frequency histogram over `u64` samples with fixed-width bins.
///
/// Bin `i` covers the half-open range `(i·w, (i+1)·w]` for bin width `w`,
/// except bin 0 which also includes zero. This "upper-edge" convention
/// matches the paper's Fig. 5: a 10 MB observation falls in the bin labeled
/// "10 MB" when the bin width is 10 MB.
///
/// The histogram grows on demand; samples never saturate or clip.
///
/// # Example
///
/// ```
/// use jitgc_sim::stats::Histogram;
///
/// let mut h = Histogram::new(10);
/// for v in [10, 20, 20, 20, 80] {
///     h.record(v);
/// }
/// assert_eq!(h.bin_count(1), 1); // the 10 sample
/// assert_eq!(h.bin_count(2), 3); // the three 20 samples
/// assert_eq!(h.bin_count(8), 1); // the 80 sample
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bin_width: u64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    #[must_use]
    pub fn new(bin_width: u64) -> Self {
        assert!(bin_width > 0, "histogram bin width must be non-zero");
        Histogram {
            bin_width,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// The configured bin width.
    #[must_use]
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// The bin index that `value` falls into.
    #[must_use]
    pub fn bin_index(&self, value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((value - 1) / self.bin_width) as usize + 1
        }
    }

    /// The inclusive upper edge of bin `i` (`i·bin_width`).
    #[must_use]
    pub fn bin_upper_edge(&self, i: usize) -> u64 {
        i as u64 * self.bin_width
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self.bin_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Removes one previously recorded sample (for sliding windows).
    ///
    /// # Panics
    ///
    /// Panics if no sample is recorded in `value`'s bin — that indicates the
    /// caller's window bookkeeping is corrupted.
    pub fn unrecord(&mut self, value: u64) {
        let idx = self.bin_index(value);
        assert!(
            idx < self.counts.len() && self.counts[idx] > 0,
            "unrecord of value {value} with empty bin {idx}"
        );
        self.counts[idx] -= 1;
        self.total -= 1;
    }

    /// Count of samples in bin `i` (0 for bins beyond the populated range).
    #[must_use]
    pub fn bin_count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` when no samples are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of allocated bins (the highest populated bin + 1).
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Iterates `(bin_upper_edge, count)` over all allocated bins.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_upper_edge(i), c))
    }

    /// The smallest bin upper edge `v` such that at least `fraction` of all
    /// samples are ≤ `v`. Returns `None` when the histogram is empty.
    ///
    /// `fraction` is clamped to `[0, 1]`. This is the CDH lookup of the
    /// paper's Sec. 3.2.2: `quantile_upper_edge(0.8)` answers "how much
    /// space covers 80 % of past intervals".
    #[must_use]
    pub fn quantile_upper_edge(&self, fraction: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let fraction = fraction.clamp(0.0, 1.0);
        // Number of samples that must be covered; ceil so that e.g. 0.8 of
        // 5 samples needs 4 samples covered.
        let needed = (fraction * self.total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= needed {
                return Some(self.bin_upper_edge(i));
            }
        }
        Some(self.bin_upper_edge(self.counts.len().saturating_sub(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_uses_upper_edge_convention() {
        let h = Histogram::new(10);
        assert_eq!(h.bin_index(0), 0);
        assert_eq!(h.bin_index(1), 1);
        assert_eq!(h.bin_index(10), 1);
        assert_eq!(h.bin_index(11), 2);
        assert_eq!(h.bin_index(20), 2);
        assert_eq!(h.bin_upper_edge(2), 20);
    }

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new(10);
        h.record(5);
        h.record(10);
        h.record(15);
        assert_eq!(h.bin_count(1), 2);
        assert_eq!(h.bin_count(2), 1);
        assert_eq!(h.total(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn unrecord_reverses_record() {
        let mut h = Histogram::new(10);
        h.record(25);
        h.record(25);
        h.unrecord(25);
        assert_eq!(h.bin_count(3), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    #[should_panic(expected = "empty bin")]
    fn unrecord_from_empty_bin_panics() {
        let mut h = Histogram::new(10);
        h.unrecord(25);
    }

    #[test]
    fn paper_fig5_quantile() {
        // Paper Fig. 5: 10, 20, 20, 20, 80 MB over five intervals; the CDH
        // at 20 MB is 0.8, so the 80th percentile reservation is 20 MB.
        let mut h = Histogram::new(10);
        for v in [10, 20, 20, 20, 80] {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_edge(0.8), Some(20));
        assert_eq!(h.quantile_upper_edge(0.81), Some(80));
        assert_eq!(h.quantile_upper_edge(1.0), Some(80));
        assert_eq!(h.quantile_upper_edge(0.2), Some(10));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let h = Histogram::new(4);
        assert_eq!(h.quantile_upper_edge(0.5), None);
    }

    #[test]
    fn quantile_clamps_fraction() {
        let mut h = Histogram::new(10);
        h.record(10);
        assert_eq!(h.quantile_upper_edge(-3.0), Some(0));
        assert_eq!(h.quantile_upper_edge(7.0), Some(10));
    }

    #[test]
    fn zero_sample_lands_in_bin_zero() {
        let mut h = Histogram::new(10);
        h.record(0);
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.quantile_upper_edge(1.0), Some(0));
    }

    #[test]
    fn iter_yields_edges_and_counts() {
        let mut h = Histogram::new(5);
        h.record(3);
        h.record(8);
        let v: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(v, vec![(0, 0), (5, 1), (10, 1)]);
        assert_eq!(h.num_bins(), 3);
    }

    #[test]
    #[should_panic(expected = "bin width must be non-zero")]
    fn zero_bin_width_panics() {
        let _ = Histogram::new(0);
    }
}
