//! Page cache statistics.

/// Cumulative counters for one [`PageCache`](crate::PageCache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageCacheStats {
    /// Buffered writes absorbed by the cache.
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Read misses (data had to come from the device).
    pub read_misses: u64,
    /// Dirty pages flushed because they aged past `τ_expire` (while total
    /// dirty data exceeded the `τ_flush` threshold).
    pub flushed_expired: u64,
    /// Dirty pages forcibly written back because the cache was full and a
    /// new page needed space.
    pub forced_writebacks: u64,
    /// Dirty pages written back synchronously by throttled writers
    /// (Linux `balance_dirty_pages`).
    pub throttled_writebacks: u64,
    /// Clean pages silently dropped to make room.
    pub clean_evictions: u64,
}

impl PageCacheStats {
    /// Total dirty pages written back to the device by any path.
    #[must_use]
    pub fn total_writebacks(&self) -> u64 {
        self.flushed_expired + self.forced_writebacks + self.throttled_writebacks
    }

    /// Read hit ratio, or `None` before the first read.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.read_hits + self.read_misses;
        (total > 0).then(|| self.read_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_ratios() {
        let s = PageCacheStats {
            flushed_expired: 8,
            forced_writebacks: 2,
            read_hits: 9,
            read_misses: 1,
            ..PageCacheStats::default()
        };
        assert_eq!(s.total_writebacks(), 10);
        assert_eq!(s.hit_ratio(), Some(0.9));
    }

    #[test]
    fn hit_ratio_none_without_reads() {
        assert_eq!(PageCacheStats::default().hit_ratio(), None);
    }
}
