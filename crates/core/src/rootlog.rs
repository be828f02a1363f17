//! The root's bounded packet log, keyed by logical clock (§5, "Logical
//! clocks, logging").
//!
//! The root logs every packet it stamps until the chain confirms that the
//! packet — and every state update it induced — has finished. Logged packets
//! are the replay source for NF failover and straggler clones; the bound is
//! the buffer-bloat guard of §5 (a full log rejects new packets instead of
//! queueing without limit).
//!
//! Both substrates share this type: the simulator's [`crate::RootActor`]
//! deletes entries through the XOR commit-vector protocol of Figure 6; the
//! real-thread engine keeps one per logging vertex ([`crate::VertexLogs`],
//! the root's among them) and bounds each both ways: it truncates by the
//! commit *frontier* of the watermarks the chain components publish
//! ([`PacketLog::truncate_confirmed`]) — coarse, but sound: a counter at or
//! below the frontier can never need replay again — and deletes delivered
//! packets one by one ahead of it ([`PacketLog::delete_where`]).

use crate::message::TaggedPacket;
use chc_store::Clock;
use std::collections::BTreeMap;

/// A bounded log of in-flight packets, ordered by logical clock.
#[derive(Debug, Clone, Default)]
pub struct PacketLog {
    entries: BTreeMap<Clock, TaggedPacket>,
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
        self.entries.len() >= self.capacity
    }

    /// Log one packet under its clock. Returns `false` (and counts a
    /// rejection) when the log is full — the caller must then drop the
    /// packet rather than queue it without bound.
    pub fn insert(&mut self, tp: TaggedPacket) -> bool {
        if self.is_full() {
            self.rejected += 1;
            return false;
        }
        self.entries.insert(tp.clock, tp);
        self.high_water = self.high_water.max(self.entries.len());
        true
    }

    /// Remove one confirmed packet (the simulator's per-packet delete
    /// protocol). Returns whether the entry existed.
    pub fn remove(&mut self, clock: &Clock) -> bool {
        self.entries.remove(clock).is_some()
    }

    /// Drop every entry of `root_id` with counter `<= up_to` (frontier-based
    /// truncation: the commit vector proves those packets fully processed).
    /// Returns how many entries were dropped.
    pub fn truncate_confirmed(&mut self, root_id: u8, up_to: u64) -> usize {
        if up_to == 0 {
            return 0;
        }
        let keep = self
            .entries
            .split_off(&Clock::with_root(root_id, up_to + 1));
        let dropped = self.entries.len();
        self.entries = keep;
        self.truncated += dropped as u64;
        dropped
    }

    /// Remove every entry whose clock satisfies `confirmed` — the real-thread
    /// port of the per-packet XOR delete window (Figure 6): the sink's folded
    /// commit vector proves those packets fully delivered, so they can leave
    /// the log ahead of the coarser commit frontier. Returns how many entries
    /// were removed; they accumulate in [`PacketLog::deleted`].
    pub fn delete_where(&mut self, confirmed: impl Fn(&Clock) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|c, _| !confirmed(c));
        let dropped = before - self.entries.len();
        self.deleted += dropped as u64;
        dropped
    }

    /// Snapshot every logged packet in clock order (the replay source).
    pub fn snapshot(&self) -> Vec<TaggedPacket> {
        self.entries.values().cloned().collect()
    }

    /// Counter of the smallest clock currently logged. A log is fed by one
    /// root, so this is the smallest counter it holds — what bounds the
    /// store's replay floor: nothing a log still holds may be forgotten.
    pub fn first_counter(&self) -> Option<u64> {
        self.entries.first_key_value().map(|(c, _)| c.counter())
    }

    /// Whether `clock` is currently logged.
    pub fn contains(&self, clock: &Clock) -> bool {
        self.entries.contains_key(clock)
    }

    /// Number of packets currently logged.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest log size ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Entries dropped by frontier truncation so far.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Entries removed by the per-packet XOR delete protocol so far.
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
        assert_eq!(log.truncate_confirmed(0, 0), 0, "zero frontier is a no-op");
        assert_eq!(log.truncate_confirmed(0, 4), 4);
        assert_eq!(log.len(), 6);
        assert!(!log.contains(&Clock::with_root(0, 4)));
        assert!(log.contains(&Clock::with_root(0, 5)));
        // Truncation past the end clears the log; the counter accumulates.
        assert_eq!(log.truncate_confirmed(0, 999), 6);
        assert!(log.is_empty());
        assert_eq!(log.truncated(), 10);
        assert_eq!(log.high_water(), 10);
    }

    #[test]
    fn truncation_respects_the_root_id_prefix() {
        let mut log = PacketLog::new(100);
        log.insert(tp(5));
        let other_root = TaggedPacket::new(Packet::builder().id(9).build(), Clock::with_root(1, 2));
        log.insert(other_root);
        // Truncating root 0 must not touch root 1's entries (clocks of a
        // later root id order strictly above every root-0 clock).
        assert_eq!(log.truncate_confirmed(0, 10), 1);
        assert_eq!(log.len(), 1);
        assert!(log.contains(&Clock::with_root(1, 2)));
    }
}
