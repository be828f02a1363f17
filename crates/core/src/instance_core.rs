//! The per-packet step of one NF instance, with no thread, ring, actor or
//! clock of its own: the simulator's actor, the engine's instance thread and
//! the run-to-completion driver ([`crate::inline::InlineChain`]) drive it,
//! and keep only their own I/O (costs and messages, rings and spans,
//! callback routing).

use crate::clock_window::ClockWindow;
use crate::message::TaggedPacket;
use crate::nf::{Action, NetworkFunction, NfContext};
use crate::state::StateClient;
use chc_sim::{SimDuration, VirtualTime};
use chc_store::Clock;
use std::ops::DerefMut;

/// What became of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A repeated clock, suppressed at the input queue: the NF did not run.
    Suppressed,
    /// The NF dropped the packet; the envelope still holds the input packet.
    Dropped,
    /// An off-path instance processed its copy; nothing flows onward.
    Consumed,
    /// The NF forwarded the packet now in the envelope; `exit` when it
    /// leaves the chain here.
    Forward {
        /// This instance is a chain exit: the packet goes to the end host.
        exit: bool,
    },
}

/// What an instance reports, on either substrate.
#[derive(Debug, Clone, Default)]
pub struct InstanceCounters {
    /// Packets the NF processed, replays and duplicates included.
    pub processed: u64,
    /// Packets the NF decided to drop.
    pub dropped_by_nf: u64,
    /// Repeated clocks suppressed at the input queue.
    pub suppressed_duplicates: u64,
    /// Repeated clocks the NF processed: suppression is off.
    pub duplicate_packets: u64,
    /// State updates issued while processing those duplicates
    /// ([`crate::state::StateClientStats::store_updates`]).
    pub duplicate_state_updates: u64,
    /// Alerts raised by the NF, with the clock of the packet that raised it.
    pub alerts: Vec<(Clock, String)>,
}

/// One NF instance's per-packet step; see the module docs.
pub struct InstanceCore<N = Box<dyn NetworkFunction>> {
    nf: N,
    off_path: bool,
    exit: bool,
    /// Clocks seen at the input queue; `None` tracks no repeats at all.
    window: Option<ClockWindow>,
    /// Drop a repeat instead of processing it again.
    suppress: bool,
    /// The last packet's state-access charge.
    charge: SimDuration,
    counters: InstanceCounters,
}

impl<'n, N: DerefMut<Target = dyn NetworkFunction + 'n>> InstanceCore<N> {
    /// A core running `nf`, off the path or on it (then maybe a chain exit),
    /// tracking no repeated clocks until [`InstanceCore::track_duplicates`].
    pub fn new(nf: N, off_path: bool, exit: bool) -> InstanceCore<N> {
        InstanceCore {
            nf,
            off_path,
            exit: exit && !off_path,
            window: None,
            suppress: false,
            charge: SimDuration::ZERO,
            counters: InstanceCounters::default(),
        }
    }

    /// Remember every clock seen from now on. A repeat is then suppressed if
    /// `suppress`, and otherwise processed and counted as a duplicate.
    pub fn track_duplicates(&mut self, suppress: bool) {
        self.window = Some(ClockWindow::new());
        self.suppress = suppress;
    }

    /// Whether a repeated clock reaches the NF: tracked, not suppressed.
    pub fn admits_repeats(&self) -> bool {
        self.window.is_some() && !self.suppress
    }

    /// Run one packet: admit or suppress it at the input queue (a repeated
    /// clock is a replayed or replicated copy, §5.3), mark an admitted one
    /// [`TaggedPacket::replayed`] if this is a replay, run the NF, record its
    /// alerts under the packet's clock, take the packet's charge from the
    /// client so no driver can leave it behind, and classify the outcome
    /// (§5.4). The output replaces the input in `tp`.
    #[inline]
    pub fn on_packet(
        &mut self,
        tp: &mut TaggedPacket,
        client: &mut StateClient,
        now: VirtualTime,
        replayed: bool,
    ) -> Step {
        let duplicate = self.window.as_mut().is_some_and(|w| !w.insert(tp.clock));
        if duplicate {
            if self.suppress {
                self.counters.suppressed_duplicates += 1;
                return Step::Suppressed;
            }
            self.counters.duplicate_packets += 1;
        }
        let updates = duplicate.then(|| client.stats().store_updates);
        tp.replayed = replayed;
        // Only a replay sets the flag, so a live packet pays one branch.
        if replayed {
            client.set_replaying(true);
        }
        let mut ctx = NfContext::new(client, tp.clock, now);
        let action = self.nf.process(&tp.packet, &mut ctx);
        for alert in ctx.take_alerts() {
            self.counters.alerts.push((tp.clock, alert));
        }
        self.counters.processed += 1;
        if replayed {
            client.set_replaying(false);
        }
        self.charge = client.take_charge();
        if let Some(before) = updates {
            self.counters.duplicate_state_updates += client.stats().store_updates - before;
        }
        match action {
            Action::Drop => {
                self.counters.dropped_by_nf += 1;
                Step::Dropped
            }
            Action::Forward(out) => {
                tp.packet = out;
                if self.off_path {
                    Step::Consumed
                } else {
                    Step::Forward { exit: self.exit }
                }
            }
        }
    }

    /// The state-access charge of the last packet the NF processed.
    pub fn charge(&self) -> SimDuration {
        self.charge
    }

    /// True for an off-path instance.
    pub fn off_path(&self) -> bool {
        self.off_path
    }

    /// True for an on-path chain exit.
    pub fn exit(&self) -> bool {
        self.exit
    }

    /// The counters so far.
    pub fn counters(&self) -> &InstanceCounters {
        &self.counters
    }

    /// Forget the duplicate window through `clock`: every clock of its root
    /// at or below it counts as a repeat from then on.
    pub fn forget_through(&mut self, clock: Clock) {
        if let Some(window) = &mut self.window {
            window.forget_through(clock);
        }
    }

    /// Resident bytes of the duplicate window (0 without one).
    pub fn window_bytes(&self) -> usize {
        self.window.as_ref().map_or(0, ClockWindow::resident_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CostModel, ExternalizationMode};
    use crate::dag::StateObjectSpec;
    use crate::state::SharedStore;
    use chc_packet::{Packet, Scope};
    use chc_store::{AccessPattern, InstanceId, VertexId};

    /// Counts every packet in a shared counter, alerts on 22-byte packets,
    /// drops 23-byte ones and forwards the rest a byte longer.
    struct Counter;

    impl NetworkFunction for Counter {
        fn name(&self) -> &str {
            "counter"
        }

        fn state_objects(&self) -> Vec<StateObjectSpec> {
            vec![StateObjectSpec::cross_flow(
                "seen",
                Scope::Global,
                AccessPattern::WriteMostlyReadRarely,
            )]
        }

        fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
            ctx.increment("seen", None, 1);
            match packet.len {
                22 => ctx.alert("ssh"),
                23 => return Action::Drop,
                _ => {}
            }
            let mut out = packet.clone();
            out.len += 1;
            Action::Forward(out)
        }
    }

    fn client() -> StateClient {
        StateClient::new(
            VertexId(1),
            InstanceId(0),
            Box::new(SharedStore::new()),
            ExternalizationMode::Externalized,
            CostModel::default(),
            &Counter.state_objects(),
        )
    }

    fn packet(counter: u64, len: u32) -> TaggedPacket {
        let packet = Packet::builder().id(counter).len(len).build();
        TaggedPacket::new(packet, Clock::with_root(0, counter))
    }

    fn core(off_path: bool, exit: bool) -> InstanceCore {
        InstanceCore::new(Box::new(Counter), off_path, exit)
    }

    fn step(core: &mut InstanceCore, client: &mut StateClient, tp: &mut TaggedPacket) -> Step {
        core.on_packet(tp, client, VirtualTime::ZERO, false)
    }

    #[test]
    fn without_a_window_a_repeat_is_processed_like_any_packet() {
        let (mut core, mut client) = (core(false, false), client());
        for _ in 0..3 {
            let step = step(&mut core, &mut client, &mut packet(7, 80));
            assert_eq!(step, Step::Forward { exit: false });
        }
        let c = core.counters();
        assert_eq!((c.processed, c.suppressed_duplicates), (3, 0));
        assert_eq!((c.duplicate_packets, core.window_bytes()), (0, 0));
    }

    #[test]
    fn with_suppression_a_repeat_never_reaches_the_nf() {
        let (mut core, mut client) = (core(false, false), client());
        core.track_duplicates(true);
        step(&mut core, &mut client, &mut packet(7, 80));
        let stats = client.stats();
        assert_eq!(stats.store_updates, 1);
        let mut repeat = packet(7, 80);
        assert_eq!(step(&mut core, &mut client, &mut repeat), Step::Suppressed);
        assert_eq!(client.stats(), stats, "the client saw traffic");
        assert_eq!(repeat, packet(7, 80), "a suppressed packet is untouched");
        let c = core.counters();
        assert_eq!((c.processed, c.suppressed_duplicates), (1, 1));
        assert!(core.window_bytes() > 0);
    }

    #[test]
    fn without_suppression_a_repeat_is_a_processed_duplicate() {
        let (mut core, mut client) = (core(false, false), client());
        core.track_duplicates(false);
        for _ in 0..2 {
            step(&mut core, &mut client, &mut packet(7, 80));
        }
        let c = core.counters();
        assert_eq!((c.processed, c.suppressed_duplicates), (2, 0));
        assert_eq!((c.duplicate_packets, c.duplicate_state_updates), (1, 1));
    }

    #[test]
    fn forward_is_classified_by_role() {
        let mut client = client();
        let mut on_path = |off_path, exit| {
            let mut tp = packet(1, 80);
            let step = step(&mut core(off_path, exit), &mut client, &mut tp);
            assert_eq!(tp.packet.len, 81, "the output replaces the input");
            step
        };
        assert_eq!(on_path(false, false), Step::Forward { exit: false });
        assert_eq!(on_path(false, true), Step::Forward { exit: true });
        assert_eq!(on_path(true, false), Step::Consumed);
        assert_eq!(on_path(true, true), Step::Consumed);
        assert!(!core(true, true).exit() && core(false, true).exit());
    }

    #[test]
    fn a_drop_keeps_the_input_packet_and_is_counted() {
        let (mut core, mut client) = (core(true, false), client());
        let mut tp = packet(3, 23);
        assert_eq!(step(&mut core, &mut client, &mut tp), Step::Dropped);
        assert_eq!(tp, packet(3, 23));
        assert_eq!(core.counters().dropped_by_nf, 1);
    }

    #[test]
    fn alerts_carry_the_clock_of_the_packet_that_raised_them() {
        let (mut core, mut client) = (core(false, true), client());
        for (counter, len) in [(4, 22), (5, 80), (6, 22)] {
            step(&mut core, &mut client, &mut packet(counter, len));
        }
        let clocks: Vec<Clock> = core.counters().alerts.iter().map(|(c, _)| *c).collect();
        assert_eq!(clocks, [Clock::with_root(0, 4), Clock::with_root(0, 6)]);
    }

    #[test]
    fn the_step_takes_the_charge_from_the_client() {
        let (mut core, mut client) = (core(false, false), client());
        step(&mut core, &mut client, &mut packet(1, 80));
        assert!(core.charge() > SimDuration::ZERO);
        assert_eq!(client.take_charge(), SimDuration::ZERO);
    }
}
