//! The six-benchmark suite as an enum + factory.

use crate::generators::{Bonnie, Filebench, Postmark, Tiobench, TpcC, Ycsb};
use crate::{Workload, WorkloadConfig, WriteMix};
use std::fmt;

/// The benchmark suite of the paper's evaluation (Sec. 4.1).
///
/// # Example
///
/// ```
/// use jitgc_workload::{BenchmarkKind, WorkloadConfig};
///
/// for kind in BenchmarkKind::all() {
///     let mut w = kind.build(WorkloadConfig::builder().build());
///     assert!(w.next_request().is_some());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkKind {
    /// YCSB on Cassandra (update-intensive, 88.2 % buffered).
    Ycsb,
    /// Postmark (mail-server small-file churn, 81.7 % buffered).
    Postmark,
    /// Filebench fileserver (85.8 % buffered).
    Filebench,
    /// Bonnie++ (phase-structured micro-benchmark, 72.4 % buffered).
    Bonnie,
    /// Tiobench (threaded mixed I/O, 46.3 % buffered).
    Tiobench,
    /// TPC-C on MySQL (OLTP, 0.1 % buffered).
    TpcC,
}

impl BenchmarkKind {
    /// All six benchmarks in the paper's presentation order.
    #[must_use]
    pub fn all() -> [BenchmarkKind; 6] {
        [
            BenchmarkKind::Ycsb,
            BenchmarkKind::Postmark,
            BenchmarkKind::Filebench,
            BenchmarkKind::Bonnie,
            BenchmarkKind::Tiobench,
            BenchmarkKind::TpcC,
        ]
    }

    /// Instantiates the generator with the given configuration.
    #[must_use]
    pub fn build(self, config: WorkloadConfig) -> Box<dyn Workload> {
        match self {
            BenchmarkKind::Ycsb => Box::new(Ycsb::new(config)),
            BenchmarkKind::Postmark => Box::new(Postmark::new(config)),
            BenchmarkKind::Filebench => Box::new(Filebench::new(config)),
            BenchmarkKind::Bonnie => Box::new(Bonnie::new(config)),
            BenchmarkKind::Tiobench => Box::new(Tiobench::new(config)),
            BenchmarkKind::TpcC => Box::new(TpcC::new(config)),
        }
    }

    /// The benchmark's display name as used in the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkKind::Ycsb => "YCSB",
            BenchmarkKind::Postmark => "Postmark",
            BenchmarkKind::Filebench => "Filebench",
            BenchmarkKind::Bonnie => "Bonnie++",
            BenchmarkKind::Tiobench => "Tiobench",
            BenchmarkKind::TpcC => "TPC-C",
        }
    }

    /// The configured buffered/direct write split (paper Table 1).
    #[must_use]
    pub fn write_mix(self) -> WriteMix {
        let buffered = match self {
            BenchmarkKind::Ycsb => Ycsb::BUFFERED_FRACTION,
            BenchmarkKind::Postmark => Postmark::BUFFERED_FRACTION,
            BenchmarkKind::Filebench => Filebench::BUFFERED_FRACTION,
            BenchmarkKind::Bonnie => Bonnie::BUFFERED_FRACTION,
            BenchmarkKind::Tiobench => Tiobench::BUFFERED_FRACTION,
            BenchmarkKind::TpcC => TpcC::BUFFERED_FRACTION,
        };
        WriteMix::new(buffered)
    }
}

impl fmt::Display for BenchmarkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitgc_sim::SimDuration;

    #[test]
    fn all_build_and_emit() {
        let cfg = WorkloadConfig::builder()
            .working_set_pages(1_024)
            .duration(SimDuration::from_secs(2))
            .build();
        for kind in BenchmarkKind::all() {
            let mut w = kind.build(cfg);
            assert_eq!(w.name(), kind.name());
            assert!(w.next_request().is_some(), "{kind} emitted nothing");
            assert_eq!(w.write_mix(), kind.write_mix());
        }
    }

    #[test]
    fn table1_order_of_buffered_fractions() {
        // The paper's Table 1 ordering: YCSB most buffered, TPC-C least.
        let fractions: Vec<f64> = BenchmarkKind::all()
            .iter()
            .map(|k| k.write_mix().buffered_fraction)
            .collect();
        assert_eq!(fractions[0], 0.882);
        assert_eq!(fractions[5], 0.001);
        assert!(fractions[0] > fractions[4], "YCSB > Tiobench");
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(BenchmarkKind::Bonnie.to_string(), "Bonnie++");
    }
}
