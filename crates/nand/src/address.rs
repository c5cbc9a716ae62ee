//! Address newtypes: logical pages, physical pages, and blocks.

use std::fmt;

/// A **logical** page number — the host-visible address space.
///
/// The FTL maps each `Lpn` to at most one live [`Ppn`]; the NAND device
/// stores the owning `Lpn` in each programmed page's out-of-band (OOB) area
/// so garbage collection can relocate pages without a reverse-map lookup,
/// exactly as production FTLs do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lpn(pub u64);

/// A **physical** page number, indexing pages across the whole device in
/// block-major order: `ppn = block.0 × pages_per_block + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(pub u64);

/// A physical erase-block number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u32);

impl Lpn {
    /// The raw index.
    #[must_use]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl Ppn {
    /// The raw index.
    #[must_use]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl BlockId {
    /// The raw index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl From<u64> for Lpn {
    fn from(v: u64) -> Self {
        Lpn(v)
    }
}

impl From<u64> for Ppn {
    fn from(v: u64) -> Self {
        Ppn(v)
    }
}

impl From<u32> for BlockId {
    fn from(v: u32) -> Self {
        BlockId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_tagged() {
        assert_eq!(Lpn(3).to_string(), "L3");
        assert_eq!(Ppn(4).to_string(), "P4");
        assert_eq!(BlockId(5).to_string(), "B5");
    }

    #[test]
    fn newtypes_are_distinct_types() {
        // Compile-time property; here we just exercise the accessors.
        assert_eq!(Lpn::from(9).index(), 9);
        assert_eq!(Ppn::from(9).index(), 9);
        assert_eq!(BlockId::from(9).index(), 9);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Lpn(1) < Lpn(2));
        assert!(Ppn(1) < Ppn(2));
        assert!(BlockId(1) < BlockId(2));
    }
}
