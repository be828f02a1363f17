//! The end host's per-packet step, with no thread, ring, actor or clock of
//! its own: the simulator's sink actor, the engine's sink thread and the
//! run-to-completion driver drive it and keep only their own I/O. It keeps
//! the books R5 and R6 (§5.3–5.4) are about: every packet once, and every
//! repeat accounted rather than hidden.

use crate::clock_window::ClockWindow;
use crate::message::TaggedPacket;
use chc_packet::PacketId;
use chc_store::Clock;

/// What one arrival at the end host was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// The first copy of its clock: delivered.
    First,
    /// An unmarked repeat: a duplicate the end host received.
    Duplicate,
    /// A repeat the exit replayed: the bounded shadow of a tail failover.
    ReplayShadow,
}

/// The end host's books; see the module docs.
#[derive(Debug, Default)]
pub struct SinkCore {
    /// Clocks delivered, kept whole for the run so every late repeat counts.
    seen: ClockWindow,
    /// Trace ids of every first copy and every duplicate, in arrival order.
    pub delivered_ids: Vec<PacketId>,
    /// Every arrival, replay shadows included.
    pub arrivals: u64,
    /// Bytes of the first copies.
    pub bytes: u64,
    /// Repeats the exit did not replay.
    pub duplicates: u64,
    /// The clock of every duplicate, in arrival order.
    pub duplicate_clocks: Vec<Clock>,
    /// Repeats the exit replayed; they never reach `duplicate_clocks`.
    pub replay_shadows: u64,
}

impl SinkCore {
    /// Account one arrival and classify it.
    #[inline]
    pub fn on_packet(&mut self, tp: &TaggedPacket) -> Arrival {
        self.arrivals += 1;
        if self.seen.insert(tp.clock) {
            self.delivered_ids.push(tp.packet.id);
            self.bytes += tp.packet.len as u64;
            Arrival::First
        } else if tp.replayed {
            self.replay_shadows += 1;
            Arrival::ReplayShadow
        } else {
            self.delivered_ids.push(tp.packet.id);
            self.duplicates += 1;
            self.duplicate_clocks.push(tp.clock);
            Arrival::Duplicate
        }
    }

    /// Number of distinct clocks delivered.
    pub fn delivered(&self) -> usize {
        self.delivered_ids.len() - self.duplicates as usize
    }

    /// The highest clock delivered, and every counter below it never
    /// delivered ([`ClockWindow::gaps`]).
    pub fn undelivered(&self) -> (u64, Vec<u64>) {
        self.seen.gaps()
    }

    /// Resident bytes of the delivered-clock window.
    pub fn window_bytes(&self) -> usize {
        self.seen.resident_bytes()
    }

    /// Free the delivered-clock window and return the bytes it held; the
    /// books stay. A thread that fed the core calls it before it exits.
    pub fn free_window(&mut self) -> usize {
        std::mem::take(&mut self.seen).resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_packet::Packet;

    fn copy(id: u64, counter: u64, replay: bool) -> TaggedPacket {
        let pkt = Packet::builder().id(id).len(100 + id as u32).build();
        let mut tp = TaggedPacket::new(pkt, Clock::with_root(0, counter));
        tp.replayed = replay;
        tp
    }

    #[test]
    fn a_first_copy_is_delivered() {
        let mut sink = SinkCore::default();
        assert_eq!(sink.on_packet(&copy(5, 1, false)), Arrival::First);
        assert_eq!(sink.delivered_ids, vec![PacketId(5)]);
        assert_eq!((sink.delivered(), sink.arrivals, sink.bytes), (1, 1, 105));
        assert_eq!(sink.duplicates + sink.replay_shadows, 0);
        assert!(sink.window_bytes() > 0);
        assert_eq!(sink.free_window(), ClockWindow::PAGE_BYTES);
        assert_eq!((sink.window_bytes(), sink.delivered()), (0, 1));
    }

    #[test]
    fn an_unmarked_repeat_records_its_id_and_clock() {
        let mut sink = SinkCore::default();
        sink.on_packet(&copy(5, 1, false));
        assert_eq!(sink.on_packet(&copy(5, 1, false)), Arrival::Duplicate);
        assert_eq!(sink.delivered_ids, vec![PacketId(5), PacketId(5)]);
        assert_eq!(sink.duplicates, 1);
        assert_eq!(sink.duplicate_clocks, vec![Clock::with_root(0, 1)]);
        assert_eq!(sink.replay_shadows, 0);
    }

    #[test]
    fn a_replay_marked_repeat_is_a_shadow_with_no_id() {
        let mut sink = SinkCore::default();
        sink.on_packet(&copy(5, 1, false));
        assert_eq!(sink.on_packet(&copy(5, 1, true)), Arrival::ReplayShadow);
        assert_eq!(sink.delivered_ids, vec![PacketId(5)]);
        assert_eq!(sink.replay_shadows, 1);
        assert_eq!(sink.duplicates, 0);
        assert!(sink.duplicate_clocks.is_empty());
    }

    #[test]
    fn an_original_after_its_replayed_copy_is_a_duplicate() {
        let mut sink = SinkCore::default();
        assert_eq!(sink.on_packet(&copy(5, 1, true)), Arrival::First);
        assert_eq!(sink.on_packet(&copy(5, 1, false)), Arrival::Duplicate);
        assert_eq!(sink.duplicate_clocks, vec![Clock::with_root(0, 1)]);
        assert_eq!(sink.replay_shadows, 0);
    }

    #[test]
    fn bytes_and_deliveries_count_once_per_clock() {
        let mut sink = SinkCore::default();
        for (id, counter, replay) in [(1, 1, false), (2, 2, false), (1, 1, true), (2, 2, false)] {
            sink.on_packet(&copy(id, counter, replay));
        }
        sink.on_packet(&copy(3, 3, true));
        assert_eq!(sink.arrivals, 5);
        assert_eq!(sink.delivered(), 3);
        assert_eq!(sink.bytes, 101 + 102 + 103);
        assert_eq!((sink.duplicates, sink.replay_shadows), (1, 1));
    }
}
