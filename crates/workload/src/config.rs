//! Common workload configuration.

use jitgc_sim::SimDuration;

/// Parameters shared by every benchmark generator.
///
/// The paper sets the working set to half the device's user capacity and
/// runs each benchmark to steady state; the defaults here mirror that at
/// simulation scale.
///
/// # Example
///
/// ```
/// use jitgc_workload::WorkloadConfig;
/// use jitgc_sim::SimDuration;
///
/// let config = WorkloadConfig::builder()
///     .working_set_pages(8192)
///     .duration(SimDuration::from_secs(600))
///     .mean_iops(2_000.0)
///     .seed(42)
///     .build();
/// assert_eq!(config.working_set_pages(), 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    working_set_pages: u64,
    duration: SimDuration,
    mean_iops: f64,
    burst_mean: f64,
    seed: u64,
}

impl WorkloadConfig {
    /// Starts building a configuration. See [`WorkloadConfigBuilder`].
    #[must_use]
    pub fn builder() -> WorkloadConfigBuilder {
        WorkloadConfigBuilder::default()
    }

    /// Number of logical pages the workload touches.
    #[must_use]
    pub fn working_set_pages(&self) -> u64 {
        self.working_set_pages
    }

    /// Total think-time the generator emits before ending.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Target request arrival rate.
    #[must_use]
    pub fn mean_iops(&self) -> f64 {
        self.mean_iops
    }

    /// Mean burst length (requests arriving back-to-back).
    #[must_use]
    pub fn burst_mean(&self) -> f64 {
        self.burst_mean
    }

    /// RNG seed; equal seeds give bit-identical request streams.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Builder for [`WorkloadConfig`].
///
/// Defaults: 8 192-page working set, 300 s duration, 2 000 IOPS,
/// mean burst 32, seed 0.
#[derive(Debug, Clone)]
pub struct WorkloadConfigBuilder {
    working_set_pages: u64,
    duration: SimDuration,
    mean_iops: f64,
    burst_mean: f64,
    seed: u64,
}

impl Default for WorkloadConfigBuilder {
    fn default() -> Self {
        WorkloadConfigBuilder {
            working_set_pages: 8_192,
            duration: SimDuration::from_secs(300),
            mean_iops: 2_000.0,
            burst_mean: 32.0,
            seed: 0,
        }
    }
}

impl WorkloadConfigBuilder {
    /// Sets the working set size in pages.
    #[must_use]
    pub fn working_set_pages(mut self, pages: u64) -> Self {
        self.working_set_pages = pages;
        self
    }

    /// Sets the emitted think-time duration.
    #[must_use]
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the target arrival rate in requests/second.
    #[must_use]
    pub fn mean_iops(mut self, iops: f64) -> Self {
        self.mean_iops = iops;
        self
    }

    /// Sets the mean burst length.
    #[must_use]
    pub fn burst_mean(mut self, mean: f64) -> Self {
        self.burst_mean = mean;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the working set is empty, the duration is zero, or the
    /// rate/burst parameters are not positive finite numbers.
    #[must_use]
    pub fn build(self) -> WorkloadConfig {
        assert!(self.working_set_pages > 0, "working set must be non-empty");
        assert!(!self.duration.is_zero(), "duration must be non-zero");
        assert!(
            self.mean_iops.is_finite() && self.mean_iops > 0.0,
            "mean iops must be positive and finite"
        );
        assert!(
            self.burst_mean.is_finite() && self.burst_mean >= 1.0,
            "mean burst length must be at least 1"
        );
        WorkloadConfig {
            working_set_pages: self.working_set_pages,
            duration: self.duration,
            mean_iops: self.mean_iops,
            burst_mean: self.burst_mean,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let c = WorkloadConfig::builder().build();
        assert_eq!(c.working_set_pages(), 8_192);
        assert_eq!(c.duration(), SimDuration::from_secs(300));
        assert_eq!(c.seed(), 0);
    }

    #[test]
    fn builder_overrides() {
        let c = WorkloadConfig::builder()
            .working_set_pages(16)
            .duration(SimDuration::from_secs(1))
            .mean_iops(100.0)
            .burst_mean(4.0)
            .seed(9)
            .build();
        assert_eq!(c.working_set_pages(), 16);
        assert_eq!(c.mean_iops(), 100.0);
        assert_eq!(c.burst_mean(), 4.0);
        assert_eq!(c.seed(), 9);
    }

    #[test]
    fn generators_respect_duration_bound() {
        use crate::BenchmarkKind;
        let cfg = WorkloadConfig::builder()
            .working_set_pages(1_024)
            .duration(SimDuration::from_secs(5))
            .mean_iops(1_000.0)
            .build();
        for kind in BenchmarkKind::all() {
            let mut w = kind.build(cfg);
            let mut total = SimDuration::ZERO;
            while let Some(req) = w.next_request() {
                total += req.gap;
            }
            // The think-time budget is exhausted within one gap's slack.
            assert!(
                total >= SimDuration::from_secs(5),
                "{kind} ended early at {total}"
            );
            assert!(
                total < SimDuration::from_secs(10),
                "{kind} overshot the duration: {total}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "working set must be non-empty")]
    fn zero_working_set_panics() {
        let _ = WorkloadConfig::builder().working_set_pages(0).build();
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn sub_one_burst_panics() {
        let _ = WorkloadConfig::builder().burst_mean(0.5).build();
    }
}
