//! Per-block page state machine.

use crate::{Lpn, NandError, Ppn};

/// The lifecycle state of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Erased and programmable (once).
    Free,
    /// Programmed and holding the live copy of some LPN.
    Valid,
    /// Programmed but superseded; space is reclaimable only by erasing the
    /// whole block.
    Invalid,
}

/// One erase block: page states, OOB metadata, the sequential write
/// pointer, and the erase counter.
///
/// `Block` enforces flash physics locally (sequential programming,
/// erase-before-write); [`NandDevice`](crate::NandDevice) adds device-level
/// addressing and timing on top.
///
/// # Example
///
/// ```
/// use jitgc_nand::{Block, Lpn, PageState};
///
/// # fn main() -> Result<(), jitgc_nand::NandError> {
/// let mut block = Block::new(4);
/// block.program_next(Lpn(9))?;
/// assert_eq!(block.page_state(0), PageState::Valid);
/// assert_eq!(block.page_lpn(0), Some(Lpn(9)));
/// assert_eq!(block.valid_pages(), 1);
/// block.erase();
/// assert_eq!(block.page_state(0), PageState::Free);
/// assert_eq!(block.erase_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Block {
    states: Vec<PageState>,
    oob: Vec<Option<Lpn>>,
    write_ptr: u32,
    erase_count: u64,
    valid: u32,
}

impl Block {
    /// Creates an erased block of `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    #[must_use]
    pub fn new(pages: u32) -> Self {
        assert!(pages > 0, "block must have at least one page");
        Block {
            states: vec![PageState::Free; pages as usize],
            oob: vec![None; pages as usize],
            write_ptr: 0,
            erase_count: 0,
            valid: 0,
        }
    }

    /// Number of pages in the block.
    #[must_use]
    pub fn pages(&self) -> u32 {
        self.states.len() as u32
    }

    /// State of the page at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    #[must_use]
    pub fn page_state(&self, offset: u32) -> PageState {
        self.states[offset as usize]
    }

    /// OOB-recorded owner LPN of the page at `offset` (present for
    /// programmed pages, `None` for free ones).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    #[must_use]
    pub fn page_lpn(&self, offset: u32) -> Option<Lpn> {
        self.oob[offset as usize]
    }

    /// Programs the next sequential page, recording `lpn` in its OOB area,
    /// and returns the offset programmed.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::ProgramProgrammedPage`] when the block is full
    /// (every page already programmed since the last erase).
    pub fn program_next(&mut self, lpn: Lpn) -> Result<u32, NandError> {
        if self.is_full() {
            return Err(NandError::ProgramProgrammedPage {
                // Report the first page: programming anywhere in a full
                // block would re-program it.
                ppn: Ppn(0),
            });
        }
        let offset = self.write_ptr;
        self.states[offset as usize] = PageState::Valid;
        self.oob[offset as usize] = Some(lpn);
        self.write_ptr += 1;
        self.valid += 1;
        Ok(offset)
    }

    /// The offset the next program must target, or `None` when full.
    #[must_use]
    pub fn next_free_offset(&self) -> Option<u32> {
        (!self.is_full()).then_some(self.write_ptr)
    }

    /// Marks the page at `offset` invalid.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::InvalidateNonValidPage`] unless the page is
    /// currently [`PageState::Valid`].
    pub fn invalidate(&mut self, offset: u32) -> Result<(), NandError> {
        match self.states.get_mut(offset as usize) {
            Some(s @ PageState::Valid) => {
                *s = PageState::Invalid;
                self.valid -= 1;
                Ok(())
            }
            _ => Err(NandError::InvalidateNonValidPage {
                ppn: Ppn(u64::from(offset)),
            }),
        }
    }

    /// Erases the block: all pages become [`PageState::Free`], OOB is
    /// cleared, the write pointer resets, and the erase counter increments.
    pub fn erase(&mut self) {
        self.states.fill(PageState::Free);
        self.oob.fill(None);
        self.write_ptr = 0;
        self.valid = 0;
        self.erase_count += 1;
    }

    /// Number of program/erase cycles this block has endured.
    #[must_use]
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Number of pages currently valid.
    #[must_use]
    pub fn valid_pages(&self) -> u32 {
        self.valid
    }

    /// Number of pages currently invalid.
    #[must_use]
    pub fn invalid_pages(&self) -> u32 {
        self.write_ptr - self.valid
    }

    /// Number of pages still free (programmable).
    #[must_use]
    pub fn free_pages(&self) -> u32 {
        self.pages() - self.write_ptr
    }

    /// `true` when every page has been programmed since the last erase.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.write_ptr == self.pages()
    }

    /// `true` when no page has been programmed since the last erase.
    #[must_use]
    pub fn is_erased(&self) -> bool {
        self.write_ptr == 0
    }

    /// Iterates `(offset, state, oob_lpn)` for every page.
    pub fn iter_pages(&self) -> impl Iterator<Item = (u32, PageState, Option<Lpn>)> + '_ {
        self.states
            .iter()
            .zip(&self.oob)
            .enumerate()
            .map(|(i, (&s, &l))| (i as u32, s, l))
    }

    /// Iterates the offsets and LPNs of all currently valid pages — the set
    /// GC must migrate before erasing this block.
    pub fn valid_lpns(&self) -> impl Iterator<Item = (u32, Lpn)> + '_ {
        self.iter_pages()
            .filter(|&(_off, state, _lpn)| state == PageState::Valid)
            .map(|(off, _state, lpn)| (off, lpn.expect("valid page has OOB lpn")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_erased() {
        let b = Block::new(4);
        assert!(b.is_erased());
        assert!(!b.is_full());
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.invalid_pages(), 0);
        assert_eq!(b.free_pages(), 4);
        assert_eq!(b.erase_count(), 0);
        assert_eq!(b.next_free_offset(), Some(0));
    }

    #[test]
    fn sequential_program_fills_block() {
        let mut b = Block::new(3);
        for i in 0..3 {
            let off = b.program_next(Lpn(i)).expect("block has space");
            assert_eq!(off, i as u32);
        }
        assert!(b.is_full());
        assert_eq!(b.next_free_offset(), None);
        assert_eq!(b.valid_pages(), 3);
        assert!(matches!(
            b.program_next(Lpn(9)),
            Err(NandError::ProgramProgrammedPage { .. })
        ));
    }

    #[test]
    fn invalidate_tracks_counts() {
        let mut b = Block::new(4);
        b.program_next(Lpn(0)).expect("space");
        b.program_next(Lpn(1)).expect("space");
        b.invalidate(0).expect("page 0 valid");
        assert_eq!(b.valid_pages(), 1);
        assert_eq!(b.invalid_pages(), 1);
        assert_eq!(b.free_pages(), 2);
        assert_eq!(b.page_state(0), PageState::Invalid);
    }

    #[test]
    fn invalidate_rejects_free_and_invalid() {
        let mut b = Block::new(4);
        assert!(b.invalidate(0).is_err()); // free
        b.program_next(Lpn(0)).expect("space");
        b.invalidate(0).expect("valid");
        assert!(b.invalidate(0).is_err()); // already invalid
        assert!(b.invalidate(99).is_err()); // out of range
    }

    #[test]
    fn erase_resets_everything_and_counts() {
        let mut b = Block::new(2);
        b.program_next(Lpn(5)).expect("space");
        b.program_next(Lpn(6)).expect("space");
        b.invalidate(0).expect("valid");
        b.erase();
        assert!(b.is_erased());
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.page_lpn(0), None);
        assert_eq!(b.valid_pages(), 0);
        // Programmable again after erase.
        assert_eq!(b.program_next(Lpn(7)).expect("space"), 0);
    }

    #[test]
    fn oob_records_owner() {
        let mut b = Block::new(2);
        b.program_next(Lpn(42)).expect("space");
        assert_eq!(b.page_lpn(0), Some(Lpn(42)));
        assert_eq!(b.page_lpn(1), None);
    }

    #[test]
    fn valid_lpns_lists_survivors() {
        let mut b = Block::new(4);
        for i in 0..4 {
            b.program_next(Lpn(i)).expect("space");
        }
        b.invalidate(1).expect("valid");
        b.invalidate(3).expect("valid");
        let survivors: Vec<(u32, Lpn)> = b.valid_lpns().collect();
        assert_eq!(survivors, vec![(0, Lpn(0)), (2, Lpn(2))]);
    }

    #[test]
    fn iter_pages_covers_all() {
        let mut b = Block::new(3);
        b.program_next(Lpn(1)).expect("space");
        let v: Vec<_> = b.iter_pages().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], (0, PageState::Valid, Some(Lpn(1))));
        assert_eq!(v[1], (1, PageState::Free, None));
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_page_block_panics() {
        let _ = Block::new(0);
    }
}
