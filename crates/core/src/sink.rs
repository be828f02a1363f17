//! The end-host sink: the simulator's stand-in for the receiving end host of
//! the paper's testbed hands every arrival of the chain's output traffic to a
//! [`SinkCore`].

use crate::message::Msg;
use crate::sink_core::SinkCore;
use chc_sim::{Actor, ActorId, Ctx};

/// Collects everything that leaves the chain towards the end host.
#[derive(Default)]
pub struct SinkActor {
    /// The end host's books.
    pub core: SinkCore,
}

impl Actor<Msg> for SinkActor {
    fn on_message(&mut self, _from: Option<ActorId>, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Delivered(tp) | Msg::Data(tp) = msg {
            self.core.on_packet(&tp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TaggedPacket;
    use chc_packet::{Packet, PacketId};
    use chc_sim::{Simulation, VirtualTime};
    use chc_store::Clock;

    #[test]
    fn counts_deliveries_and_duplicates() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let sink = sim.add_actor(Box::new(SinkActor::default()));
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
        let s = &sim.actor::<SinkActor>(sink).unwrap().core;
        assert_eq!(s.arrivals, 3);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.duplicate_clocks, vec![Clock::with_root(0, 1)]);
        assert_eq!(s.delivered_ids, vec![PacketId(5), PacketId(5), PacketId(6)]);
        assert_eq!(s.bytes, 1500);
    }
}
