//! Log-bucketed latency recording with percentile queries.

use crate::SimDuration;

/// Number of linear sub-buckets per power-of-two major bucket. 16 gives
/// ≤ 6.25 % relative quantization error, ample for latency reporting.
const SUB_BUCKETS: usize = 16;
/// Major buckets cover values up to 2^63.
const MAJOR_BUCKETS: usize = 64;

/// Records request latencies and answers percentile queries in O(buckets).
///
/// Internally an HDR-style histogram: each power-of-two range is divided
/// into 16 linear sub-buckets, so memory is constant (64×16 counters)
/// regardless of sample count, and relative error is bounded by 1/16
/// (6.25 %).
///
/// The paper reports IOPS only; we additionally expose tail latency because
/// the foreground-GC stalls JIT-GC eliminates live in the tail.
///
/// # Example
///
/// ```
/// use jitgc_sim::{SimDuration, stats::LatencyRecorder};
///
/// let mut lat = LatencyRecorder::new();
/// for us in [100, 200, 300, 400, 10_000] {
///     lat.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(lat.count(), 5);
/// let p50 = lat.percentile(0.50).expect("samples recorded");
/// assert!(p50.as_micros() >= 200 && p50.as_micros() <= 320);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    counts: Vec<u64>,
    total: u64,
    sum_micros: u128,
    max_micros: u64,
    min_micros: u64,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        LatencyRecorder {
            counts: vec![0; MAJOR_BUCKETS * SUB_BUCKETS],
            total: 0,
            sum_micros: 0,
            max_micros: 0,
            min_micros: u64::MAX,
        }
    }

    fn bucket_index(micros: u64) -> usize {
        if micros < SUB_BUCKETS as u64 {
            return micros as usize;
        }
        let major = 63 - micros.leading_zeros() as usize;
        // Position within the major bucket, scaled to SUB_BUCKETS slots.
        let offset = ((micros >> (major - 4)) & (SUB_BUCKETS as u64 - 1)) as usize;
        // Majors below log2(SUB_BUCKETS) are handled by the linear fast path.
        (major - 3) * SUB_BUCKETS + offset
    }

    /// The representative (upper-bound) value of a bucket, in microseconds.
    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let major = index / SUB_BUCKETS + 3;
        let offset = (index % SUB_BUCKETS) as u64;
        (1u64 << major) + ((offset + 1) << (major - 4)) - 1
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let us = latency.as_micros();
        let idx = Self::bucket_index(us).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_micros += u128::from(us);
        self.max_micros = self.max_micros.max(us);
        self.min_micros = self.min_micros.min(us);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` before the first sample.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean latency, or `None` before the first sample.
    #[must_use]
    pub fn mean(&self) -> Option<SimDuration> {
        if self.total == 0 {
            None
        } else {
            Some(SimDuration::from_micros(
                (self.sum_micros / u128::from(self.total)) as u64,
            ))
        }
    }

    /// Largest recorded sample (exact), or `None` before the first sample.
    #[must_use]
    pub fn max(&self) -> Option<SimDuration> {
        if self.total == 0 {
            None
        } else {
            Some(SimDuration::from_micros(self.max_micros))
        }
    }

    /// Smallest recorded sample (exact), or `None` before the first sample.
    #[must_use]
    pub fn min(&self) -> Option<SimDuration> {
        if self.total == 0 {
            None
        } else {
            Some(SimDuration::from_micros(self.min_micros))
        }
    }

    /// The latency at quantile `q` (clamped to `[0, 1]`), within the
    /// recorder's ≤ 6.25 % bucket quantization, or `None` before the first
    /// sample.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let needed = ((q * self.total as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= needed {
                return Some(SimDuration::from_micros(
                    Self::bucket_value(i).min(self.max_micros),
                ));
            }
        }
        Some(SimDuration::from_micros(self.max_micros))
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_micros += other.sum_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
        self.min_micros = self.min_micros.min(other.min_micros);
    }
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn empty_recorder() {
        let lat = LatencyRecorder::new();
        assert!(lat.is_empty());
        assert_eq!(lat.mean(), None);
        assert_eq!(lat.max(), None);
        assert_eq!(lat.min(), None);
        assert_eq!(lat.percentile(0.5), None);
    }

    #[test]
    fn exact_for_small_values() {
        let mut lat = LatencyRecorder::new();
        for v in 0..16 {
            lat.record(us(v));
        }
        assert_eq!(lat.min(), Some(us(0)));
        assert_eq!(lat.max(), Some(us(15)));
        assert_eq!(lat.percentile(0.0), Some(us(0)));
        assert_eq!(lat.percentile(1.0), Some(us(15)));
    }

    #[test]
    fn mean_is_exact() {
        let mut lat = LatencyRecorder::new();
        lat.record(us(100));
        lat.record(us(300));
        assert_eq!(lat.mean(), Some(us(200)));
    }

    #[test]
    fn percentile_error_is_bounded() {
        let mut lat = LatencyRecorder::new();
        // 1000 samples uniformly spread over [1000, 1_000_000).
        for i in 0..1000u64 {
            lat.record(us(1_000 + i * 999));
        }
        for &(q, expected) in &[(0.5, 500_500u64), (0.9, 900_100), (0.99, 990_010)] {
            let got = lat.percentile(q).expect("samples recorded").as_micros();
            let rel = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(rel < 0.07, "q={q}: got {got}, expected ~{expected}");
        }
    }

    #[test]
    fn percentile_never_exceeds_max() {
        let mut lat = LatencyRecorder::new();
        lat.record(us(1_000_000));
        assert_eq!(lat.percentile(1.0), Some(us(1_000_000)));
        assert_eq!(lat.percentile(0.5), Some(us(1_000_000)));
    }

    #[test]
    fn bucket_round_trip_error() {
        for v in [1u64, 17, 100, 999, 12_345, 1 << 20, (1 << 40) + 12345] {
            let idx = LatencyRecorder::bucket_index(v);
            let rep = LatencyRecorder::bucket_value(idx);
            assert!(rep >= v, "representative {rep} below sample {v}");
            let rel = (rep - v) as f64 / v as f64;
            assert!(rel <= 0.0625 + 1e-9, "v={v} rep={rep} rel={rel}");
        }
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(us(10));
        b.record(us(1_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(us(10)));
        assert_eq!(a.max(), Some(us(1_000)));
    }

    #[test]
    fn percentile_clamps_q() {
        let mut lat = LatencyRecorder::new();
        lat.record(us(5));
        assert_eq!(lat.percentile(-1.0), Some(us(5)));
        assert_eq!(lat.percentile(2.0), Some(us(5)));
    }
}
