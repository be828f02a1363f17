//! Cells indexed by a dense counter, with a forgettable lower edge.
//!
//! The root stamps `1..=N` on the packets it injects, so a structure that
//! remembers something per clock counter needs neither a tree nor a hash: a
//! [`CounterWindow`] is a ring of cells in which index `i` sits at `i` modulo
//! the ring's power-of-two length. Reaching a cell is one mask; the window
//! grows at either end to take an index outside it, and
//! [`CounterWindow::pop_below`] drops a prefix.
//! Every per-root window of the workspace is one: the store's
//! duplicate-suppression log keeps the head of a packet's updates per counter,
//! `chc_core::ClockWindow` keeps a page of bits per `counter / PAGE_BITS`,
//! and `chc_core::PacketLog` a page of logged packets per `counter / 256`.
//!
//! Memory follows the **span** — one cell per index from the lowest to the
//! highest held, rounded up to the ring's power-of-two length — and not
//! the number of values held. With dense counters the span is the live
//! window; the window sheds empty cells at both ends whenever it takes a
//! value out, so a held prefix or suffix that was forgotten costs nothing.

/// See the module documentation.
#[derive(Debug, Clone)]
pub struct CounterWindow<T> {
    /// The lowest index held, and one past the highest; equal when empty.
    first: u64,
    end: u64,
    /// A ring of power-of-two length: index `i` of the window sits at
    /// `i & (len − 1)`. Every cell outside `first..end` is `None`, and a
    /// non-empty window holds a value at both ends.
    cells: Vec<Option<T>>,
}

impl<T> Default for CounterWindow<T> {
    fn default() -> Self {
        CounterWindow {
            first: 0,
            end: 0,
            cells: Vec::new(),
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
        self.end - self.first
    }

    /// The value at `index`, if one is held.
    #[inline]
    pub fn get(&self, index: u64) -> Option<&T> {
        self.cells[self.at(index)?].as_ref()
    }

    /// The value at `index`, mutably, if one is held.
    #[inline]
    pub fn get_mut(&mut self, index: u64) -> Option<&mut T> {
        let at = self.at(index)?;
        self.cells[at].as_mut()
    }

    /// The cell at `index`, growing the window at either end to reach it.
    /// The caller fills it: a window holds a value at both ends.
    #[inline]
    pub fn cell(&mut self, index: u64) -> &mut Option<T> {
        let fits = self.first < self.end
            && index >= self.first
            && index - self.first < self.cells.len() as u64;
        if fits {
            self.end = self.end.max(index + 1);
        } else {
            self.reach(index);
        }
        let slot = self.slot(index);
        &mut self.cells[slot]
    }

    /// Take `index` into the window, moving its ends and growing the ring
    /// as needed.
    #[cold]
    fn reach(&mut self, index: u64) {
        if self.first == self.end {
            (self.first, self.end) = (index, index);
        }
        let (first, end) = (self.first.min(index), self.end.max(index + 1));
        if end - first > self.cells.len() as u64 {
            self.grow(first, end);
        }
        (self.first, self.end) = (first, end);
    }

    /// Take the value at `index` out, if one is held; a cell at either end
    /// left empty is shed.
    pub fn take(&mut self, index: u64) -> Option<T> {
        let at = self.at(index)?;
        let taken = self.cells[at].take();
        self.shed();
        taken
    }

    /// Drop every cell below `floor`, handing each value held there to
    /// `dropped`. A floor past the highest index empties the window.
    pub fn pop_below(&mut self, floor: u64, mut dropped: impl FnMut(T)) {
        let below = floor.clamp(self.first, self.end);
        let (front, back) = self.range_mut(self.first, below);
        for cells in [front, back] {
            // Only a held cell is written: most of a sparse window is not.
            for cell in cells.iter_mut().filter(|cell| cell.is_some()) {
                if let Some(value) = cell.take() {
                    dropped(value);
                }
            }
        }
        self.first = below;
        self.shed();
    }

    /// Visit every held value, lowest index first, and drop those `keep`
    /// rejects; the cells emptied at either end are shed. Allocates nothing.
    pub fn retain(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        for index in self.first..self.end {
            let slot = self.slot(index);
            let cell = &mut self.cells[slot];
            if cell.as_mut().is_some_and(|value| !keep(value)) {
                *cell = None;
            }
        }
        self.shed();
    }

    /// Every held value with its index, lowest index first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.first..self.end)
            .filter_map(move |index| self.cells[self.slot(index)].as_ref().map(|v| (index, v)))
    }

    /// Drop every value.
    pub fn clear(&mut self) {
        self.pop_below(u64::MAX, drop);
    }

    /// Where `index` sits in `cells`, if the window holds it.
    #[inline]
    fn at(&self, index: u64) -> Option<usize> {
        (self.first..self.end)
            .contains(&index)
            .then(|| self.slot(index))
    }

    /// Where `index` sits, or would, in the ring.
    #[inline]
    fn slot(&self, index: u64) -> usize {
        index as usize & (self.cells.len() - 1)
    }

    /// The cells of `from..to`, a range of the window, as the ring stores
    /// them: up to its end, then from its start.
    fn range_mut(&mut self, from: u64, to: u64) -> (&mut [Option<T>], &mut [Option<T>]) {
        if from == to {
            return (&mut [], &mut []);
        }
        let (start, len) = (self.slot(from), (to - from) as usize);
        let (wrapped, tail) = self.cells.split_at_mut(start);
        match len.checked_sub(tail.len()) {
            Some(over) => (tail, &mut wrapped[..over]),
            None => (&mut tail[..len], &mut []),
        }
    }

    /// Move the held cells into a new ring long enough for `first..end`.
    /// (Lengthening the ring in place put `steady`'s `peak_rss_mb` up 5 %:
    /// the benchmark's inline passes grow and drop such rings per pass.)
    #[cold]
    fn grow(&mut self, first: u64, end: u64) {
        let len = usize::try_from(end - first)
            .ok()
            .and_then(usize::checked_next_power_of_two)
            .expect("a window spans fewer indices than memory holds");
        let mut cells: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
        for index in self.first..self.end {
            let slot = self.slot(index);
            cells[index as usize & (len - 1)] = self.cells[slot].take();
        }
        self.cells = cells;
    }

    /// Restore "a value at both ends" after cells were emptied.
    fn shed(&mut self) {
        while self.first < self.end && self.cells[self.slot(self.first)].is_none() {
            self.first += 1;
        }
        while self.first < self.end && self.cells[self.slot(self.end - 1)].is_none() {
            self.end -= 1;
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

    #[test]
    fn indices_across_the_ring_edge_survive_growth_at_both_ends() {
        let mut w = CounterWindow::new();
        for i in 5..9 {
            *w.cell(i) = Some(i as u32);
        }
        // 5..9 wraps a ring of 4 cells; growing at the top and then at
        // the bottom moves every value to its place in a longer ring.
        *w.cell(11) = Some(11);
        *w.cell(2) = Some(2);
        assert_eq!(w.span(), 10);
        assert_eq!(held(&w), [(2, 2), (5, 5), (6, 6), (7, 7), (8, 8), (11, 11)]);
        w.pop_below(7, drop);
        assert_eq!(held(&w), [(7, 7), (8, 8), (11, 11)]);
        // Cells the window let go of read as empty when it comes round.
        *w.cell(16) = Some(16);
        assert_eq!((w.get(9), w.get(16), w.span()), (None, Some(&16), 10));
        w.clear();
        assert_eq!((w.span(), w.iter().count()), (0, 0));
    }
}
