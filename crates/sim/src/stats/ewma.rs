//! Exponentially-weighted moving average.

/// An exponentially-weighted moving average of `f64` samples.
///
/// The JIT-GC manager needs running estimates of the host write bandwidth
/// `B_w` and the GC reclaim bandwidth `B_gc` (paper Sec. 3.3). An EWMA with
/// a moderate smoothing factor reacts to workload phase changes without
/// thrashing on single noisy intervals.
///
/// # Example
///
/// ```
/// use jitgc_sim::stats::Ewma;
///
/// let mut bw = Ewma::new(0.3);
/// bw.update(100.0);
/// bw.update(200.0);
/// let est = bw.value().expect("two samples recorded");
/// assert!(est > 100.0 && est < 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` — the weight given to
    /// each new sample (closer to 1 reacts faster).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "ewma smoothing factor must be in (0, 1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// Folds in a new sample. The first sample initializes the average.
    pub fn update(&mut self, sample: f64) {
        self.value = Some(match self.value {
            None => sample,
            Some(v) => v + self.alpha * (sample - v),
        });
    }

    /// The current average, or `None` before the first sample.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The current average, or `default` before the first sample.
    #[must_use]
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// The configured smoothing factor.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Discards all state, as if freshly constructed.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.update(10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn smoothing_blends() {
        let mut e = Ewma::new(0.5);
        e.update(0.0);
        e.update(100.0);
        assert_eq!(e.value(), Some(50.0));
        e.update(100.0);
        assert_eq!(e.value(), Some(75.0));
    }

    #[test]
    fn alpha_one_tracks_last_sample() {
        let mut e = Ewma::new(1.0);
        e.update(3.0);
        e.update(9.0);
        assert_eq!(e.value(), Some(9.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.update(42.0);
        }
        let v = e.value().expect("samples recorded");
        assert!((v - 42.0).abs() < 1e-9);
    }

    #[test]
    fn value_or_default() {
        let e = Ewma::new(0.3);
        assert_eq!(e.value_or(7.0), 7.0);
    }

    #[test]
    fn reset_clears() {
        let mut e = Ewma::new(0.3);
        e.update(5.0);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn zero_alpha_panics() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn large_alpha_panics() {
        let _ = Ewma::new(1.5);
    }

    #[test]
    fn alpha_getter() {
        assert_eq!(Ewma::new(0.25).alpha(), 0.25);
    }
}
