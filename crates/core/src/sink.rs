//! The end-host sink: receives the chain's output traffic.
//!
//! The sink stands in for the receiving end host of the paper's testbed. It
//! records which packets arrived (by logical clock and trace packet id),
//! counts duplicates (the receiver-visible symptom that R5/R6 protect
//! against) and accumulates throughput.

use crate::clock_window::ClockWindow;
use crate::message::{Msg, TaggedPacket};
use chc_packet::PacketId;
use chc_sim::{Actor, ActorId, Ctx, Throughput, VirtualTime};
use chc_store::Clock;

/// Collects everything that leaves the chain towards the end host.
#[derive(Default)]
pub struct SinkActor {
    /// Packets received, in arrival order: (virtual time, clock, trace id).
    pub received: Vec<(VirtualTime, Clock, PacketId)>,
    /// Clocks seen so far (for duplicate detection).
    seen: ClockWindow,
    /// Number of duplicate packets received (same logical clock twice).
    pub duplicates: u64,
    /// The clock of every duplicate arrival, in arrival order. Duplicates
    /// are *accounted*, not silently deduplicated: tests assert the exact
    /// expected multiset, turning "zero duplicates in a healthy run" (and
    /// "exactly the re-injected packets after a replay") into checked facts.
    pub duplicate_clocks: Vec<Clock>,
    /// Goodput accounting.
    pub throughput: Throughput,
}

impl SinkActor {
    /// Create an empty sink.
    pub fn new() -> SinkActor {
        SinkActor::default()
    }

    /// Number of distinct packets delivered.
    pub fn delivered(&self) -> usize {
        self.received.len() - self.duplicates as usize
    }

    /// The trace packet ids delivered, in arrival order (with duplicates).
    pub fn delivered_ids(&self) -> Vec<PacketId> {
        self.received.iter().map(|(_, _, id)| *id).collect()
    }

    fn accept(&mut self, tp: &TaggedPacket, now: VirtualTime) {
        if !self.seen.insert(tp.clock) {
            self.duplicates += 1;
            self.duplicate_clocks.push(tp.clock);
        }
        self.received.push((now, tp.clock, tp.packet.id));
        self.throughput.record(now, tp.packet.len as u64);
    }
}

impl Actor<Msg> for SinkActor {
    fn on_message(&mut self, _from: Option<ActorId>, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Delivered(tp) | Msg::Data(tp) => self.accept(&tp, ctx.now()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_packet::Packet;
    use chc_sim::Simulation;

    #[test]
    fn counts_deliveries_and_duplicates() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let sink = sim.add_actor(Box::new(SinkActor::new()));
        let pkt = Packet::builder().id(5).len(1000).build();
        let tp = TaggedPacket::new(pkt, Clock::with_root(0, 1));
        sim.inject_at(
            VirtualTime::from_micros(1),
            sink,
            Msg::Delivered(tp.clone()),
        );
        sim.inject_at(
            VirtualTime::from_micros(2),
            sink,
            Msg::Delivered(tp.clone()),
        );
        let pkt2 = Packet::builder().id(6).len(500).build();
        sim.inject_at(
            VirtualTime::from_micros(3),
            sink,
            Msg::Delivered(TaggedPacket::new(pkt2, Clock::with_root(0, 2))),
        );
        sim.run();
        let s = sim.actor::<SinkActor>(sink).unwrap();
        assert_eq!(s.received.len(), 3);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.duplicate_clocks, vec![Clock::with_root(0, 1)]);
        assert_eq!(
            s.delivered_ids(),
            vec![PacketId(5), PacketId(5), PacketId(6)]
        );
        assert_eq!(s.throughput.packets(), 3);
    }
}
