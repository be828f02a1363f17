//! Duplicate detection indexed by the logical clock.
//!
//! The root stamps a dense counter on every packet, so "has this clock been
//! seen here?" needs no hashing: a [`ClockWindow`] keeps one bit per counter
//! in lazily allocated pages. The window has a lower edge:
//! [`ClockWindow::forget_through`] frees every page that lies wholly at or
//! below a counter, and from then on every clock at or below it answers
//! "already seen" — the caller promises that anything that low which can
//! still arrive is a repeat.
//!
//! Memory is one bit per counter between the lowest remembered and the
//! highest inserted counter, rounded up to pages, plus eight bytes of spine
//! per page in that span; counters are dense by construction (the root hands
//! out `1..=N`), so the span is the live window and nothing else. The spine
//! is a [`CounterWindow`] indexed by page number, the same window the
//! store's duplicate-suppression log keeps its heads in.

use chc_store::{Clock, CounterWindow};

const PAGE_WORDS: usize = 512;
type Page = [u64; PAGE_WORDS];

/// A set of clocks with a forgettable lower edge; see the module docs.
#[derive(Debug, Default)]
pub struct ClockWindow {
    /// Counters below this were forgotten and answer "already seen".
    floor: u64,
    /// Pages by page number (`counter / PAGE_BITS`); a page nobody touched
    /// is never allocated.
    pages: CounterWindow<Box<Page>>,
}

impl ClockWindow {
    /// Counters covered by one page.
    pub const PAGE_BITS: u64 = (PAGE_WORDS * 64) as u64;
    /// Heap bytes of one resident page.
    pub const PAGE_BYTES: usize = PAGE_WORDS * 8;

    /// An empty window that has forgotten nothing.
    pub fn new() -> ClockWindow {
        ClockWindow::default()
    }

    /// Remember `clock`. Returns true when it is fresh, false when it was
    /// inserted before or lies at or below a forgotten counter.
    #[inline]
    pub fn insert(&mut self, clock: Clock) -> bool {
        let counter = clock.counter();
        if counter < self.floor {
            return false;
        }
        let page = self.pages.cell(counter / Self::PAGE_BITS);
        let words = page.get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
        let bit = counter % Self::PAGE_BITS;
        let (word, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
        let fresh = words[word] & mask == 0;
        words[word] |= mask;
        fresh
    }

    /// Forget every clock at or below `through`, freeing the pages that lie
    /// wholly below: those clocks answer "already seen" from now on. A lower
    /// value than an earlier call is ignored.
    pub fn forget_through(&mut self, through: Clock) {
        if through.counter() < self.floor {
            return;
        }
        self.floor = through.counter().saturating_add(1);
        // The page holding the floor itself stays: counters above the floor
        // share it.
        self.pages.pop_below(self.floor / Self::PAGE_BITS, drop);
    }

    /// The highest counter inserted and not forgotten (0 if none), and every
    /// counter from the floor (1 at least) below it that was never
    /// inserted, in order. A word of 64 inserted counters costs one test.
    pub fn gaps(&self) -> (u64, Vec<u64>) {
        let top = (self.pages.iter())
            .filter_map(|(page, words)| {
                let (w, word) = words.iter().enumerate().rfind(|(_, w)| **w != 0)?;
                Some(page * Self::PAGE_BITS + w as u64 * 64 + 63 - word.leading_zeros() as u64)
            })
            .last()
            .unwrap_or(0);
        let mut gaps = Vec::new();
        let mut counter = self.floor.max(1);
        while counter <= top {
            let bit = counter % Self::PAGE_BITS;
            let page = self.pages.get(counter / Self::PAGE_BITS);
            let word = page.map_or(0, |words| words[(bit / 64) as usize]);
            let last = (counter | 63).min(top);
            if word != u64::MAX {
                gaps.extend((counter..=last).filter(|c| word >> (c % 64) & 1 == 0));
            }
            counter = last + 1;
        }
        (top, gaps)
    }

    /// Pages currently allocated.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().count()
    }

    /// Heap bytes of the resident pages.
    pub fn resident_bytes(&self) -> usize {
        self.resident_pages() * Self::PAGE_BYTES
    }
}
