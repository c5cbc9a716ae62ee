//! Request types shared by all generators.

use jitgc_nand::Lpn;
use jitgc_sim::SimDuration;
use std::fmt;

/// What a request asks the storage stack to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// A read served from the page cache when possible.
    Read,
    /// A write absorbed by the page cache and flushed later — the kind the
    /// paper's buffered-write predictor can see coming.
    BufferedWrite,
    /// An `O_DIRECT`/`O_SYNC` write that bypasses the cache and hits the
    /// device immediately — predictable only statistically (via the CDH).
    DirectWrite,
    /// A TRIM/discard of no-longer-needed pages (extension beyond the
    /// paper; lets file-deletion-heavy workloads release space).
    Trim,
}

impl IoKind {
    /// `true` for the two write kinds.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, IoKind::BufferedWrite | IoKind::DirectWrite)
    }
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoKind::Read => "read",
            IoKind::BufferedWrite => "buffered-write",
            IoKind::DirectWrite => "direct-write",
            IoKind::Trim => "trim",
        };
        f.write_str(s)
    }
}

/// One multi-page I/O request.
///
/// `gap` is the think time since the *previous* request was issued: the
/// engine issues this request no earlier than `previous_issue + gap`, and
/// no earlier than the previous request's completion (closed-loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Think time since the previous request.
    pub gap: SimDuration,
    /// Operation type.
    pub kind: IoKind,
    /// First logical page touched.
    pub lpn: Lpn,
    /// Number of consecutive pages touched (≥ 1).
    pub pages: u32,
}

impl IoRequest {
    /// Iterates every LPN this request touches.
    pub fn lpns(&self) -> impl Iterator<Item = Lpn> {
        let start = self.lpn.0;
        (start..start + u64::from(self.pages)).map(Lpn)
    }
}

/// The configured buffered : direct split of a workload's write traffic
/// (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteMix {
    /// Fraction of written pages that are buffered, in `[0, 1]`.
    pub buffered_fraction: f64,
}

impl WriteMix {
    /// Creates a mix with the given buffered fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `buffered_fraction` is in `[0, 1]`.
    #[must_use]
    pub fn new(buffered_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&buffered_fraction),
            "buffered fraction must be in [0, 1], got {buffered_fraction}"
        );
        WriteMix { buffered_fraction }
    }

    /// Fraction of written pages that are direct.
    #[must_use]
    pub fn direct_fraction(&self) -> f64 {
        1.0 - self.buffered_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpns_iterates_whole_extent() {
        let req = IoRequest {
            gap: SimDuration::ZERO,
            kind: IoKind::Read,
            lpn: Lpn(10),
            pages: 3,
        };
        let v: Vec<Lpn> = req.lpns().collect();
        assert_eq!(v, vec![Lpn(10), Lpn(11), Lpn(12)]);
    }

    #[test]
    fn is_write_classification() {
        assert!(IoKind::BufferedWrite.is_write());
        assert!(IoKind::DirectWrite.is_write());
        assert!(!IoKind::Read.is_write());
        assert!(!IoKind::Trim.is_write());
    }

    #[test]
    fn write_mix_fractions_sum_to_one() {
        let m = WriteMix::new(0.882);
        assert!((m.buffered_fraction + m.direct_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn write_mix_rejects_out_of_range() {
        let _ = WriteMix::new(1.5);
    }

    #[test]
    fn kind_display() {
        assert_eq!(IoKind::DirectWrite.to_string(), "direct-write");
        assert_eq!(IoKind::Trim.to_string(), "trim");
    }
}
