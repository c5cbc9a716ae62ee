//! Prediction-accuracy scoring (paper Table 2).

/// Scores next-interval traffic predictions against observed traffic.
///
/// Per interval the tracker computes the **symmetric accuracy**
///
/// ```text
/// accuracy = 1 − |predicted − actual| / max(predicted, actual)
/// ```
///
/// and reports the mean over all intervals where either side was non-zero
/// (an interval with neither predicted nor actual traffic carries no
/// information and is skipped). This definition is symmetric in over- and
/// under-prediction, lands in `[0, 1]`, and reproduces the *ordering* of
/// the paper's Table 2 (the paper does not define its formula; any
/// relative-error metric preserves the comparison between JIT-GC's and
/// ADP-GC's predictors).
///
/// # Example
///
/// ```
/// use jitgc_core::predictor::AccuracyTracker;
///
/// let mut acc = AccuracyTracker::new();
/// acc.record(100, 90);  // 90 % accurate
/// acc.record(50, 100);  // 50 % accurate
/// let score = acc.mean_accuracy().expect("two samples");
/// assert!((score - 0.70).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccuracyTracker {
    sum: f64,
    scored: u64,
    skipped_empty: u64,
}

impl AccuracyTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        AccuracyTracker::default()
    }

    /// Records one interval's predicted and actual traffic (bytes).
    pub fn record(&mut self, predicted: u64, actual: u64) {
        let max = predicted.max(actual);
        if max == 0 {
            self.skipped_empty += 1;
            return;
        }
        let diff = predicted.abs_diff(actual);
        self.sum += 1.0 - diff as f64 / max as f64;
        self.scored += 1;
    }

    /// Bulk form of [`record`](Self::record)`(0, 0)` × `n`: tallies `n`
    /// intervals where neither side carried traffic. The quiescence
    /// fast-forward uses this to account a whole idle span's worth of
    /// matured zero-predictions in O(1) with a state byte-identical to
    /// `n` individual calls (a zero/zero record only bumps the skip
    /// counter — `sum` and `scored` are untouched).
    pub fn skip_empty(&mut self, n: u64) {
        self.skipped_empty += n;
    }

    /// Mean accuracy in `[0, 1]`, or `None` before the first informative
    /// interval.
    #[must_use]
    pub fn mean_accuracy(&self) -> Option<f64> {
        (self.scored > 0).then(|| self.sum / self.scored as f64)
    }

    /// Mean accuracy as a percentage, the paper's Table 2 unit.
    #[must_use]
    pub fn mean_accuracy_percent(&self) -> Option<f64> {
        self.mean_accuracy().map(|a| a * 100.0)
    }

    /// Number of scored (informative) intervals.
    #[must_use]
    pub fn scored_intervals(&self) -> u64 {
        self.scored
    }

    /// Number of intervals skipped because both sides were zero.
    #[must_use]
    pub fn skipped_intervals(&self) -> u64 {
        self.skipped_empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        let mut acc = AccuracyTracker::new();
        acc.record(42, 42);
        assert_eq!(acc.mean_accuracy(), Some(1.0));
    }

    #[test]
    fn total_miss_scores_zero() {
        let mut acc = AccuracyTracker::new();
        acc.record(0, 100);
        assert_eq!(acc.mean_accuracy(), Some(0.0));
        acc.record(100, 0);
        assert_eq!(acc.mean_accuracy(), Some(0.0));
    }

    #[test]
    fn symmetric_in_direction() {
        let mut over = AccuracyTracker::new();
        let mut under = AccuracyTracker::new();
        over.record(200, 100);
        under.record(100, 200);
        assert_eq!(over.mean_accuracy(), under.mean_accuracy());
    }

    #[test]
    fn empty_intervals_are_skipped() {
        let mut acc = AccuracyTracker::new();
        acc.record(0, 0);
        assert_eq!(acc.mean_accuracy(), None);
        assert_eq!(acc.skipped_intervals(), 1);
        acc.record(10, 10);
        assert_eq!(acc.mean_accuracy(), Some(1.0));
        assert_eq!(acc.scored_intervals(), 1);
    }

    #[test]
    fn bulk_skip_matches_individual_empty_records() {
        let mut bulk = AccuracyTracker::new();
        let mut looped = AccuracyTracker::new();
        for acc in [&mut bulk, &mut looped] {
            acc.record(100, 90);
        }
        bulk.skip_empty(1_000);
        for _ in 0..1_000 {
            looped.record(0, 0);
        }
        assert_eq!(bulk, looped);
        assert_eq!(bulk.skipped_intervals(), 1_000);
        assert_eq!(bulk.scored_intervals(), 1);
    }

    #[test]
    fn percent_scale() {
        let mut acc = AccuracyTracker::new();
        acc.record(80, 100);
        let pct = acc.mean_accuracy_percent().expect("one sample");
        assert!((pct - 80.0).abs() < 1e-9);
    }

    #[test]
    fn mean_over_multiple_intervals() {
        let mut acc = AccuracyTracker::new();
        acc.record(100, 100); // 1.0
        acc.record(100, 50); // 0.5
        acc.record(100, 0); // 0.0
        let mean = acc.mean_accuracy().expect("three samples");
        assert!((mean - 0.5).abs() < 1e-9);
    }
}
