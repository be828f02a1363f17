//! The root's bounded packet log, keyed by logical clock (§5, "Logical
//! clocks, logging").
//!
//! The root logs every packet it stamps until the chain confirms that the
//! packet — and every state update it induced — has finished. Logged packets
//! are the replay source for NF failover and straggler clones; the bound is
//! the buffer-bloat guard of §5 (a full log rejects new packets instead of
//! queueing without limit).
//!
//! Both substrates share this type, one log per logging vertex
//! ([`crate::VertexLogs`], the root's among them), and free its entries by
//! different rules. The simulator's root deletes entries one by one
//! ([`PacketLog::remove`]) as the chain's delete requests land. The
//! real-thread engine only cuts each log at
//! the commit *frontier* of the watermarks the chain components publish
//! ([`PacketLog::truncate_confirmed`]) — coarse, but sound: a counter at or
//! below the frontier can never need replay again.
//!
//! ## Layout
//!
//! The root stamps the dense counters `1..=N`, so the log needs no tree: it
//! keeps a [`CounterWindow`] of pages, page `p` holding the cells of
//! counters `p * 256 .. (p + 1) * 256`. Logging a packet writes one cell;
//! truncation pops whole pages and clears the cells of one boundary page; a
//! delete clears one cell and frees its page once it empties.
//! None of them allocates but for a page's first packet (and the spine's
//! doubling while the span grows).
//!
//! Memory follows the span from the lowest to the highest held counter: one
//! page of 256 cells of 96 B (24 KiB) per 256 counters of it, plus
//! eight bytes of spine per page. `capacity` bounds the packets held, so
//! with dense counters the span is the held window; a page whose cells were
//! all deleted is freed at once.

use crate::message::TaggedPacket;
use chc_store::{Clock, CounterWindow};

/// Cells of one page: counters `p * PAGE_CELLS .. (p + 1) * PAGE_CELLS`.
pub const PAGE_CELLS: usize = 256;

/// One page of the log, with a count of its held cells so that an emptied
/// page is freed without a scan.
#[derive(Debug, Clone)]
struct Page {
    held: usize,
    cells: [Option<TaggedPacket>; PAGE_CELLS],
}

impl Page {
    /// An empty page, out of line: the 24 KiB value it may build on the
    /// stack before moving it into its box is then reserved by a page's
    /// first insert alone, not by every insert's frame.
    #[cold]
    #[inline(never)]
    fn new() -> Box<Page> {
        Box::new(Page {
            held: 0,
            cells: [const { None }; PAGE_CELLS],
        })
    }
}

/// Page number and cell of `counter`.
#[inline]
fn place(counter: u64) -> (u64, usize) {
    let cells = PAGE_CELLS as u64;
    (counter / cells, (counter % cells) as usize)
}

/// A bounded log of in-flight packets, ordered by logical clock.
#[derive(Debug, Clone, Default)]
pub struct PacketLog {
    /// Pages by page number.
    pages: CounterWindow<Box<Page>>,
    len: usize,
    capacity: usize,
    high_water: usize,
    truncated: u64,
    deleted: u64,
    rejected: u64,
}

impl PacketLog {
    /// Create a log holding at most `capacity` packets.
    pub fn new(capacity: usize) -> PacketLog {
        PacketLog {
            capacity: capacity.max(1),
            ..PacketLog::default()
        }
    }

    /// True when the log cannot accept another packet.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Log one packet under its clock; a packet already logged under that
    /// clock is replaced. Returns `false` (and counts a rejection) when the
    /// log is full — the caller must then drop the packet rather than queue
    /// it without bound.
    pub fn insert(&mut self, tp: TaggedPacket) -> bool {
        if self.is_full() {
            self.rejected += 1;
            return false;
        }
        let (page, cell) = place(tp.clock.counter());
        let page = self.pages.cell(page).get_or_insert_with(Page::new);
        if page.cells[cell].replace(tp).is_none() {
            page.held += 1;
            self.len += 1;
            self.high_water = self.high_water.max(self.len);
        }
        true
    }

    /// Remove one confirmed packet (the per-packet delete the simulator's
    /// root runs). Returns whether the entry existed; removed entries
    /// accumulate in [`PacketLog::deleted`].
    pub fn remove(&mut self, clock: &Clock) -> bool {
        let (p, cell) = place(clock.counter());
        let Some(page) = self.pages.get_mut(p) else {
            return false;
        };
        if page.cells[cell].take().is_none() {
            return false;
        }
        page.held -= 1;
        if page.held == 0 {
            self.pages.take(p);
        }
        self.len -= 1;
        self.deleted += 1;
        true
    }

    /// Drop every entry with counter `<= up_to` (frontier-based truncation:
    /// the commit frontier proves those packets fully processed). Returns how
    /// many entries were dropped.
    pub fn truncate_confirmed(&mut self, up_to: u64) -> usize {
        if up_to == 0 {
            return 0;
        }
        let pages = &mut self.pages;
        // Pages wholly at or below `up_to` go at once; the page holding the
        // floor loses the cells below it.
        let (boundary, below) = place(up_to.saturating_add(1));
        let mut dropped = 0;
        pages.pop_below(boundary, |page| dropped += page.held);
        if let Some(page) = pages.get_mut(boundary) {
            let cleared = page.cells[..below]
                .iter_mut()
                .filter_map(Option::take)
                .count();
            page.held -= cleared;
            dropped += cleared;
            if page.held == 0 {
                pages.take(boundary);
            }
        }
        self.len -= dropped;
        self.truncated += dropped as u64;
        dropped
    }

    /// Every logged packet, in clock order.
    fn iter(&self) -> impl Iterator<Item = &TaggedPacket> {
        (self.pages.iter()).flat_map(|(_, page)| page.cells.iter().flatten())
    }

    /// Snapshot every logged packet in clock order (the replay source).
    pub fn snapshot(&self) -> Vec<TaggedPacket> {
        let mut packets = Vec::with_capacity(self.len);
        packets.extend(self.iter().cloned());
        packets
    }

    /// The smallest counter currently logged: what bounds the store's
    /// replay floor, since nothing a log still holds may be forgotten.
    pub fn first_counter(&self) -> Option<u64> {
        self.iter().next().map(|tp| tp.clock.counter())
    }

    /// Whether `clock` is currently logged.
    pub fn contains(&self, clock: &Clock) -> bool {
        let (p, cell) = place(clock.counter());
        (self.pages.get(p)).is_some_and(|page| page.cells[cell].is_some())
    }

    /// Number of packets currently logged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest log size ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Entries dropped by frontier truncation so far.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Entries removed one by one ([`PacketLog::remove`]) so far.
    pub fn deleted(&self) -> u64 {
        self.deleted
    }

    /// Packets rejected because the log was full.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently allocated: what the log costs.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_packet::Packet;

    fn tp(counter: u64) -> TaggedPacket {
        TaggedPacket::new(
            Packet::builder().id(counter).build(),
            Clock::with_root(0, counter),
        )
    }

    #[test]
    fn bounded_insert_and_high_water() {
        let mut log = PacketLog::new(3);
        for c in 1..=3 {
            assert!(log.insert(tp(c)));
        }
        assert!(log.is_full());
        assert!(!log.insert(tp(4)), "full log rejects");
        assert_eq!(log.rejected(), 1);
        assert_eq!(log.high_water(), 3);
        assert!(log.remove(&Clock::with_root(0, 2)));
        assert!(!log.remove(&Clock::with_root(0, 2)));
        assert!(log.insert(tp(4)));
        let clocks: Vec<u64> = log.snapshot().iter().map(|t| t.clock.counter()).collect();
        assert_eq!(clocks, vec![1, 3, 4], "snapshot is clock-ordered");
    }

    #[test]
    fn frontier_truncation_drops_exactly_the_confirmed_prefix() {
        let mut log = PacketLog::new(100);
        for c in 1..=10 {
            log.insert(tp(c));
        }
        assert_eq!(log.truncate_confirmed(0), 0, "zero frontier is a no-op");
        assert_eq!(log.truncate_confirmed(4), 4);
        assert_eq!(log.len(), 6);
        assert!(!log.contains(&Clock::with_root(0, 4)));
        assert!(log.contains(&Clock::with_root(0, 5)));
        // Truncation past the end clears the log; the counter accumulates.
        assert_eq!(log.truncate_confirmed(999), 6);
        assert!(log.is_empty());
        assert_eq!(log.truncated(), 10);
        assert_eq!(log.high_water(), 10);
    }

    #[test]
    fn pages_are_freed_as_they_empty() {
        let mut log = PacketLog::new(10_000);
        for c in 1..=1_000 {
            log.insert(tp(c));
        }
        // Counters 1..=1000 span pages 0..=3.
        assert_eq!(log.resident_pages(), 4);
        // A truncation inside page 1 frees page 0 and keeps page 1.
        assert_eq!(log.truncate_confirmed(300), 300);
        assert_eq!((log.resident_pages(), log.first_counter()), (3, Some(301)));
        // Deletes that empty page 2 (512..=767) free it, from the middle.
        let swept = (512..768)
            .filter(|&c| log.remove(&Clock::with_root(0, c)))
            .count();
        assert_eq!((swept, log.resident_pages()), (256, 2));
        assert!(!log.contains(&Clock::with_root(0, 600)));
        // Removing the last cell of page 3 frees it too.
        for c in 768..=1_000 {
            assert!(log.remove(&Clock::with_root(0, c)));
        }
        assert_eq!((log.resident_pages(), log.len()), (1, 211));
        // A truncation that ends exactly on a page boundary pops the page.
        assert_eq!(log.truncate_confirmed(511), 211);
        assert_eq!((log.resident_pages(), log.is_empty()), (0, true));
        // Every removal counts as a delete, the 233 of page 3 among them.
        assert_eq!((log.truncated(), log.deleted()), (511, 489));
    }
}
