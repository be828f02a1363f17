//! Cells indexed by a dense counter, with a forgettable lower edge.
//!
//! The root stamps `1..=N` on the packets it injects, so a structure that
//! remembers something per clock counter needs neither a tree nor a hash: a
//! [`CounterWindow`] is a deque of cells starting at its lowest held index.
//! Reaching a cell is one subtraction; the window grows at either end to
//! take an index outside it, and [`CounterWindow::pop_below`] drops a prefix.
//! Every per-root window of the workspace is one: the store's
//! duplicate-suppression log keeps a packet's updates per counter,
//! `chc_core::ClockWindow` keeps a page of bits per `counter / PAGE_BITS`,
//! and `chc_core::PacketLog` a page of logged packets per `counter / 256`.
//!
//! Memory follows the **span** — one cell per index from the lowest to the
//! highest held, rounded up to the deque's power-of-two capacity — and not
//! the number of values held. With dense counters the span is the live
//! window; the window sheds empty cells at both ends whenever it takes a
//! value out, so a held prefix or suffix that was forgotten costs nothing.

use std::collections::VecDeque;

/// See the module documentation.
#[derive(Debug, Clone)]
pub struct CounterWindow<T> {
    /// Index of `cells[0]`.
    first: u64,
    /// Cells from `first` up; an index nothing was stored at is `None`.
    /// Non-empty windows hold a value at both ends.
    cells: VecDeque<Option<T>>,
}

impl<T> Default for CounterWindow<T> {
    fn default() -> Self {
        CounterWindow {
            first: 0,
            cells: VecDeque::new(),
        }
    }
}

impl<T> CounterWindow<T> {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cells from the lowest to the highest index held (0 when empty): what
    /// the window costs, whatever it holds.
    pub fn span(&self) -> u64 {
        self.cells.len() as u64
    }

    /// The value at `index`, if one is held.
    #[inline]
    pub fn get(&self, index: u64) -> Option<&T> {
        self.cells.get(self.offset(index)?)?.as_ref()
    }

    /// The value at `index`, mutably, if one is held.
    #[inline]
    pub fn get_mut(&mut self, index: u64) -> Option<&mut T> {
        let offset = self.offset(index)?;
        self.cells.get_mut(offset)?.as_mut()
    }

    /// The cell at `index`, growing the window at either end to reach it.
    /// The caller fills it: a window holds a value at both ends.
    #[inline]
    pub fn cell(&mut self, index: u64) -> &mut Option<T> {
        if self.cells.is_empty() {
            self.first = index;
        }
        if index < self.first {
            let grow = (self.first - index) as usize;
            self.cells.reserve(grow);
            for _ in 0..grow {
                self.cells.push_front(None);
            }
            self.first = index;
        }
        let offset = (index - self.first) as usize;
        if offset >= self.cells.len() {
            self.cells.resize_with(offset + 1, || None);
        }
        &mut self.cells[offset]
    }

    /// Take the value at `index` out, if one is held; a cell at either end
    /// left empty is shed.
    pub fn take(&mut self, index: u64) -> Option<T> {
        let offset = self.offset(index)?;
        let taken = self.cells.get_mut(offset)?.take();
        self.shed();
        taken
    }

    /// Drop every cell below `floor`, handing each value held there to
    /// `dropped`. A floor past the highest index empties the window.
    pub fn pop_below(&mut self, floor: u64, mut dropped: impl FnMut(T)) {
        while self.first < floor {
            let Some(cell) = self.cells.pop_front() else {
                break;
            };
            self.first += 1;
            if let Some(value) = cell {
                dropped(value);
            }
        }
        self.shed();
    }

    /// Visit every held value, lowest index first, and drop those `keep`
    /// rejects; the cells emptied at either end are shed. Allocates nothing.
    pub fn retain(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        for cell in &mut self.cells {
            if cell.as_mut().is_some_and(|value| !keep(value)) {
                *cell = None;
            }
        }
        self.shed();
    }

    /// Every held value with its index, lowest index first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let first = self.first;
        self.cells
            .iter()
            .enumerate()
            .filter_map(move |(offset, cell)| cell.as_ref().map(|v| (first + offset as u64, v)))
    }

    /// Drop every value.
    pub fn clear(&mut self) {
        self.cells.clear();
    }

    /// Where `index` would sit in `cells`, if not below the window.
    #[inline]
    fn offset(&self, index: u64) -> Option<usize> {
        usize::try_from(index.checked_sub(self.first)?).ok()
    }

    /// Restore "a value at both ends" after cells were emptied.
    fn shed(&mut self) {
        while self.cells.front().is_some_and(Option::is_none) {
            self.cells.pop_front();
            self.first += 1;
        }
        while self.cells.back().is_some_and(Option::is_none) {
            self.cells.pop_back();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(w: &CounterWindow<u32>) -> Vec<(u64, u32)> {
        w.iter().map(|(i, v)| (i, *v)).collect()
    }

    #[test]
    fn grows_at_both_ends_and_sheds_what_it_took() {
        let mut w = CounterWindow::new();
        *w.cell(10) = Some(10);
        *w.cell(13) = Some(13);
        *w.cell(8) = Some(8);
        assert_eq!(w.span(), 6);
        assert_eq!(held(&w), [(8, 8), (10, 10), (13, 13)]);
        assert_eq!(
            (w.get(9), w.get(10), w.get(7), w.get(14)),
            (None, Some(&10), None, None)
        );
        // Taking an inner value keeps the span; taking an end sheds the gap.
        assert_eq!(w.take(10), Some(10));
        assert_eq!(w.span(), 6);
        assert_eq!(w.take(8), Some(8));
        assert_eq!((w.span(), held(&w)), (1, vec![(13, 13)]));
        assert_eq!(w.take(99), None);
        assert_eq!(w.take(0), None);
        assert_eq!(w.take(13), Some(13));
        assert_eq!(w.span(), 0);
        // An empty window starts wherever the next index lands.
        *w.cell(1_000) = Some(1);
        assert_eq!(held(&w), [(1_000, 1)]);
    }

    #[test]
    fn pop_below_hands_over_the_prefix_and_sheds_the_gap_above_it() {
        let mut w = CounterWindow::new();
        for i in [3, 4, 7, 9] {
            *w.cell(i) = Some(i as u32);
        }
        let mut dropped = Vec::new();
        w.pop_below(5, |v| dropped.push(v));
        assert_eq!(dropped, [3, 4]);
        // 5 and 6 were empty: the window now starts at 7.
        assert_eq!((w.span(), held(&w)), (3, vec![(7, 7), (9, 9)]));
        w.pop_below(2, |_| unreachable!("below the window"));
        w.pop_below(u64::MAX, |v| dropped.push(v));
        assert_eq!((dropped, w.span()), (vec![3, 4, 7, 9], 0));
    }

    #[test]
    fn retain_edits_in_place_and_sheds_the_emptied_ends() {
        let mut w = CounterWindow::new();
        for i in [2, 3, 5, 8, 9] {
            *w.cell(i) = Some(i as u32);
        }
        *w.get_mut(5).unwrap() += 100;
        assert!(w.get_mut(4).is_none() && w.get_mut(1).is_none());
        let mut seen = Vec::new();
        w.retain(|v| {
            seen.push(*v);
            *v += 1;
            matches!(*v, 4 | 106)
        });
        assert_eq!(seen, [2, 3, 105, 8, 9], "held values, in index order");
        assert_eq!((w.span(), held(&w)), (3, vec![(3, 4), (5, 106)]));
        w.retain(|_| false);
        assert_eq!(w.span(), 0);
    }
}
