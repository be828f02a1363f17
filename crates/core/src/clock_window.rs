//! Duplicate detection indexed by the logical clock.
//!
//! The root stamps a dense counter on every packet, so "has this clock been
//! seen here?" needs no hashing: a [`ClockWindow`] keeps one bit per counter
//! in lazily allocated pages, one page list per root id. The window has a
//! lower edge: [`ClockWindow::forget_through`] frees every page that lies
//! wholly at or below a counter, and from then on every clock at or below it
//! answers "already seen" — the caller promises that anything that low which
//! can still arrive is a repeat.
//!
//! Memory is one bit per counter between the lowest remembered and the
//! highest inserted counter, rounded up to pages, plus eight bytes of spine
//! per page in that span; counters are dense by construction (the root hands
//! out `1..=N`), so the span is the live window and nothing else.

use chc_store::Clock;
use std::collections::VecDeque;

const PAGE_WORDS: usize = 512;
type Page = [u64; PAGE_WORDS];

/// The bitmap of one root id.
#[derive(Debug, Default)]
struct RootWindow {
    /// Counters below this were forgotten and answer "already seen".
    floor: u64,
    /// Page number (`counter / PAGE_BITS`) of `pages[0]`.
    first_page: u64,
    /// Pages from `first_page` up; a page nobody touched stays `None`.
    pages: VecDeque<Option<Box<Page>>>,
}

impl RootWindow {
    fn insert(&mut self, counter: u64) -> bool {
        if counter < self.floor {
            return false;
        }
        let page = counter / ClockWindow::PAGE_BITS;
        if self.pages.is_empty() {
            self.first_page = page;
        }
        while page < self.first_page {
            self.pages.push_front(None);
            self.first_page -= 1;
        }
        let idx = (page - self.first_page) as usize;
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, || None);
        }
        let words = self.pages[idx].get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
        let bit = counter % ClockWindow::PAGE_BITS;
        let (word, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
        let fresh = words[word] & mask == 0;
        words[word] |= mask;
        fresh
    }

    fn forget_through(&mut self, counter: u64) {
        if counter < self.floor {
            return;
        }
        self.floor = counter + 1;
        // The page holding the floor itself stays: counters above the floor
        // share it.
        let keep_from = self.floor / ClockWindow::PAGE_BITS;
        while self.first_page < keep_from && self.pages.pop_front().is_some() {
            self.first_page += 1;
        }
    }
}

/// A set of clocks with a forgettable lower edge; see the module docs.
#[derive(Debug, Default)]
pub struct ClockWindow {
    /// Indexed by root id, grown on first use.
    roots: Vec<RootWindow>,
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
    /// inserted before or lies at or below a forgotten counter of its root.
    #[inline]
    pub fn insert(&mut self, clock: Clock) -> bool {
        self.root_mut(clock).insert(clock.counter())
    }

    /// Forget every clock of `through`'s root at or below it, freeing the
    /// pages that lie wholly below: those clocks answer "already seen" from
    /// now on. A lower value than an earlier call is ignored.
    pub fn forget_through(&mut self, through: Clock) {
        self.root_mut(through).forget_through(through.counter());
    }

    #[inline]
    fn root_mut(&mut self, clock: Clock) -> &mut RootWindow {
        let root = clock.root() as usize;
        if root >= self.roots.len() {
            self.roots.resize_with(root + 1, RootWindow::default);
        }
        &mut self.roots[root]
    }

    /// Pages currently allocated, over all roots.
    pub fn resident_pages(&self) -> usize {
        self.roots
            .iter()
            .map(|r| r.pages.iter().flatten().count())
            .sum()
    }

    /// Heap bytes of the resident pages.
    pub fn resident_bytes(&self) -> usize {
        self.resident_pages() * Self::PAGE_BYTES
    }
}
