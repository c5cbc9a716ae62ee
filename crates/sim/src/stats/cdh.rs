//! The cumulative data histogram (CDH) of the paper's Sec. 3.2.2.

use super::Histogram;
use std::collections::VecDeque;

/// A sliding-window cumulative data histogram over per-interval traffic.
///
/// The paper's direct-write predictor "maintains a cumulative data histogram
/// (CDH) of past direct writes and uses this information to decide a
/// reserved free space for future direct writes". Each observation is the
/// number of bytes directly written during one `τ_expire`-second window;
/// [`Cdh::reserve_for`] answers "how many bytes must be reserved so that a
/// fraction `p` of past windows would have fit" — the paper uses `p = 0.8`.
///
/// The window is bounded (`window` most recent observations) so the
/// predictor adapts when the workload phase changes; an unbounded history
/// would anchor the reservation to stale behaviour.
///
/// # Example
///
/// Reproduces the paper's Fig. 5 numbers (bin width 10 MB):
///
/// ```
/// use jitgc_sim::stats::Cdh;
///
/// let mib = 1024 * 1024;
/// let mut cdh = Cdh::new(10 * mib, 64);
/// for observed in [10, 20, 20, 20, 80] {
///     cdh.observe(observed * mib);
/// }
/// assert_eq!(cdh.reserve_for(0.8), Some(20 * mib));
/// ```
#[derive(Debug, Clone)]
pub struct Cdh {
    histogram: Histogram,
    window: usize,
    recent: VecDeque<u64>,
}

impl Cdh {
    /// Creates a CDH with the given bin width (bytes) and sliding-window
    /// length (number of retained intervals).
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` or `window` is zero.
    #[must_use]
    pub fn new(bin_width: u64, window: usize) -> Self {
        assert!(window > 0, "cdh window must be non-empty");
        Cdh {
            histogram: Histogram::new(bin_width),
            window,
            recent: VecDeque::with_capacity(window),
        }
    }

    /// Records the traffic observed during one interval, evicting the oldest
    /// observation when the window is full.
    pub fn observe(&mut self, bytes: u64) {
        if self.recent.len() == self.window {
            let evicted = self
                .recent
                .pop_front()
                .expect("window is full, so non-empty");
            self.histogram.unrecord(evicted);
        }
        self.recent.push_back(bytes);
        self.histogram.record(bytes);
    }

    /// The reservation (bytes, rounded up to a bin edge) that would have
    /// covered at least `fraction` of the observed intervals, or `None`
    /// before any observation.
    #[must_use]
    pub fn reserve_for(&self, fraction: f64) -> Option<u64> {
        self.histogram.quantile_upper_edge(fraction)
    }

    /// Number of observations currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.recent.len()
    }

    /// `true` before the first observation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }

    /// The most recent observation, if any.
    #[must_use]
    pub fn last_observation(&self) -> Option<u64> {
        self.recent.back().copied()
    }

    /// `true` when the sliding window is full and every retained
    /// observation equals `bytes`. In that state a further
    /// [`observe`](Self::observe)`(bytes)` is an exact no-op — it evicts
    /// one `bytes` entry and records another — which is what lets a
    /// quiescent simulation skip the call entirely. O(window) scan; no
    /// extra state is maintained for it.
    #[must_use]
    pub fn window_full_of(&self, bytes: u64) -> bool {
        self.recent.len() == self.window && self.recent.iter().all(|&b| b == bytes)
    }

    /// Read-only view of the underlying histogram (for reporting).
    #[must_use]
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    #[test]
    fn paper_fig5_example() {
        let mut cdh = Cdh::new(10 * MIB, 16);
        for observed in [10, 20, 20, 20, 80] {
            cdh.observe(observed * MIB);
        }
        // "for 80% of the τ_expire-second intervals, less than 20 MB data
        // were written" → reserve 20 MB.
        assert_eq!(cdh.reserve_for(0.8), Some(20 * MIB));
        // Covering every interval needs the 80 MB outlier.
        assert_eq!(cdh.reserve_for(1.0), Some(80 * MIB));
    }

    #[test]
    fn empty_cdh_reserves_nothing() {
        let cdh = Cdh::new(MIB, 8);
        assert_eq!(cdh.reserve_for(0.8), None);
        assert!(cdh.is_empty());
        assert_eq!(cdh.last_observation(), None);
    }

    #[test]
    fn window_evicts_stale_observations() {
        let mut cdh = Cdh::new(10, 3);
        // A burst of large intervals...
        for _ in 0..3 {
            cdh.observe(100);
        }
        assert_eq!(cdh.reserve_for(0.8), Some(100));
        // ...followed by a quiet phase: after 3 quiet intervals the burst
        // has fully left the window.
        for _ in 0..3 {
            cdh.observe(10);
        }
        assert_eq!(cdh.reserve_for(0.8), Some(10));
        assert_eq!(cdh.len(), 3);
    }

    #[test]
    fn last_observation_tracks() {
        let mut cdh = Cdh::new(10, 4);
        cdh.observe(42);
        cdh.observe(7);
        assert_eq!(cdh.last_observation(), Some(7));
        assert_eq!(cdh.len(), 2);
    }

    #[test]
    fn zero_traffic_intervals_are_valid() {
        let mut cdh = Cdh::new(10, 4);
        for _ in 0..4 {
            cdh.observe(0);
        }
        assert_eq!(cdh.reserve_for(0.8), Some(0));
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_panics() {
        let _ = Cdh::new(10, 0);
    }

    #[test]
    fn window_full_of_requires_saturation() {
        let mut cdh = Cdh::new(10, 3);
        assert!(!cdh.window_full_of(0), "empty window is not saturated");
        cdh.observe(0);
        cdh.observe(0);
        assert!(!cdh.window_full_of(0), "window not yet full");
        cdh.observe(0);
        assert!(cdh.window_full_of(0));
        assert!(!cdh.window_full_of(5));
        // One non-zero observation breaks it; three more zeros restore it.
        cdh.observe(42);
        assert!(!cdh.window_full_of(0));
        for _ in 0..3 {
            cdh.observe(0);
        }
        assert!(cdh.window_full_of(0));
    }

    #[test]
    fn observe_on_a_saturated_window_is_a_no_op() {
        let mut cdh = Cdh::new(10, 4);
        for _ in 0..4 {
            cdh.observe(0);
        }
        let before = (cdh.len(), cdh.reserve_for(0.8), cdh.histogram().total());
        cdh.observe(0);
        assert_eq!(
            before,
            (cdh.len(), cdh.reserve_for(0.8), cdh.histogram().total())
        );
    }

    #[test]
    fn histogram_view_is_consistent() {
        let mut cdh = Cdh::new(10, 8);
        cdh.observe(15);
        cdh.observe(25);
        assert_eq!(cdh.histogram().total(), 2);
    }
}
