//! Byte-count arithmetic with human-friendly constructors.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An exact number of bytes.
///
/// Used throughout the simulator for capacities (`C_OP`, `C_resv`, `C_free`)
/// and traffic volumes (`D_buf`, `D_dir`). Constructors use binary units
/// (1 KiB = 1024 B) because flash geometry is naturally power-of-two sized.
///
/// # Example
///
/// ```
/// use jitgc_sim::ByteSize;
///
/// let op_capacity = ByteSize::gib(16);
/// let reserved = op_capacity.scale_permille(1_500); // 1.5 × C_OP
/// assert_eq!(reserved, ByteSize::gib(24));
/// assert_eq!(op_capacity.to_string(), "16.00 GiB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// `n` bytes.
    #[must_use]
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// `n` kibibytes (×1024).
    #[must_use]
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// `n` mebibytes (×1024²).
    #[must_use]
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// `n` gibibytes (×1024³).
    #[must_use]
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024 * 1024)
    }

    /// The raw byte count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte count in whole KiB (truncating).
    #[must_use]
    pub const fn as_kib(self) -> u64 {
        self.0 / 1024
    }

    /// The byte count in whole MiB (truncating).
    #[must_use]
    pub const fn as_mib(self) -> u64 {
        self.0 / (1024 * 1024)
    }

    /// The byte count in MiB as a float (reporting only).
    #[must_use]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// `true` if zero bytes.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// How many `page_size`-sized pages this size spans, rounding up.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    #[must_use]
    pub fn div_ceil_pages(self, page_size: ByteSize) -> u64 {
        assert!(!page_size.is_zero(), "page size must be non-zero");
        self.0.div_ceil(page_size.0)
    }

    /// Scales by `permille`/1000 using integer arithmetic, e.g.
    /// `scale_permille(1_500)` is ×1.5 and `scale_permille(500)` is ×0.5.
    ///
    /// Integer scaling keeps reserved-capacity sweeps (Fig. 2's
    /// `0.5×C_OP … 1.5×C_OP`) exactly reproducible.
    #[must_use]
    pub const fn scale_permille(self, permille: u64) -> ByteSize {
        ByteSize(self.0 / 1000 * permille + self.0 % 1000 * permille / 1000)
    }

    /// Subtraction clamped at zero.
    #[must_use]
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// The smaller of two sizes.
    #[must_use]
    pub fn min(self, other: ByteSize) -> ByteSize {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two sizes.
    #[must_use]
    pub fn max(self, other: ByteSize) -> ByteSize {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |acc, b| acc + b)
    }
}

impl From<u64> for ByteSize {
    fn from(n: u64) -> Self {
        ByteSize(n)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * 1024;
        const GIB: u64 = 1024 * 1024 * 1024;
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.2} GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(ByteSize::kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::mib(1).as_kib(), 1024);
        assert_eq!(ByteSize::gib(1).as_mib(), 1024);
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::mib(3);
        let b = ByteSize::mib(1);
        assert_eq!(a + b, ByteSize::mib(4));
        assert_eq!(a - b, ByteSize::mib(2));
        assert_eq!(b * 5, ByteSize::mib(5));
        assert_eq!(a / 3, ByteSize::mib(1));
    }

    #[test]
    fn scale_permille_matches_paper_sweep() {
        let op = ByteSize::gib(16);
        assert_eq!(op.scale_permille(500), ByteSize::gib(8)); // L-BGC
        assert_eq!(op.scale_permille(1_000), op);
        assert_eq!(op.scale_permille(1_500), ByteSize::gib(24)); // A-BGC
        assert_eq!(op.scale_permille(750), ByteSize::gib(12));
    }

    #[test]
    fn scale_permille_exact_on_non_multiples() {
        // 1000 bytes × 1.5 = 1500 bytes, no rounding loss.
        assert_eq!(
            ByteSize::bytes(1000).scale_permille(1_500),
            ByteSize::bytes(1_500)
        );
        // Remainder path: 1001 × 0.5 = 500 (floor).
        assert_eq!(
            ByteSize::bytes(1001).scale_permille(500),
            ByteSize::bytes(500)
        );
    }

    #[test]
    fn div_ceil_pages() {
        let page = ByteSize::kib(4);
        assert_eq!(ByteSize::kib(8).div_ceil_pages(page), 2);
        assert_eq!(ByteSize::kib(9).div_ceil_pages(page), 3);
        assert_eq!(ByteSize::ZERO.div_ceil_pages(page), 0);
    }

    #[test]
    #[should_panic(expected = "page size must be non-zero")]
    fn div_ceil_pages_zero_page() {
        let _ = ByteSize::kib(8).div_ceil_pages(ByteSize::ZERO);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            ByteSize::mib(1).saturating_sub(ByteSize::mib(2)),
            ByteSize::ZERO
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize::bytes(100).to_string(), "100 B");
        assert_eq!(ByteSize::kib(4).to_string(), "4.00 KiB");
        assert_eq!(ByteSize::mib(20).to_string(), "20.00 MiB");
        assert_eq!(ByteSize::gib(16).to_string(), "16.00 GiB");
    }

    #[test]
    fn sum_collects() {
        let total: ByteSize = vec![ByteSize::mib(1), ByteSize::mib(2)].into_iter().sum();
        assert_eq!(total, ByteSize::mib(3));
    }
}
