//! The discrete-event executor: actors, contexts and the simulation loop.
//!
//! The CHC framework components (the root, the NF instances and the
//! end-host sink) are [`Actor`]s exchanging a framework-defined message type
//! `M`. The [`Simulation`] owns the actors, the virtual clock and the event
//! queue, and delivers messages in timestamp order over one link, ties in
//! insertion order. Fail-stop failures (§5.4 of the paper) are modelled by
//! marking an actor failed: pending and future deliveries to it are dropped
//! until it is replaced via [`Simulation::replace_actor`].

use crate::event::{ActorId, EventQueue};
use crate::time::{SimDuration, VirtualTime};
use std::any::Any;

/// A simulated component. `M` is the message type exchanged between actors.
///
/// `Actor` requires [`Any`] so that tests and harnesses can downcast actors
/// back to their concrete type after a run to extract results.
pub trait Actor<M>: Any {
    /// A message arrived.
    fn on_message(&mut self, msg: M, ctx: &mut Ctx<'_, M>);
}

/// Execution context handed to actors: the clock and the link out.
pub struct Ctx<'a, M> {
    now: VirtualTime,
    latency: SimDuration,
    queue: &'a mut EventQueue<M>,
    failed: &'a [bool],
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Send `msg` to `dst`: it arrives the link latency plus `extra` from
    /// now, `extra` modelling processing time spent before the message
    /// leaves the component. A message to a failed actor is lost.
    pub fn send_with_extra_delay(&mut self, dst: ActorId, msg: M, extra: SimDuration) {
        if !self.failed[dst.0] {
            self.queue.push(self.now + self.latency + extra, dst, msg);
        }
    }
}

/// Summary of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulationReport {
    /// Virtual time when the run stopped.
    pub end_time: VirtualTime,
}

/// The discrete-event simulation.
pub struct Simulation<M: 'static> {
    actors: Vec<Box<dyn Actor<M>>>,
    failed: Vec<bool>,
    queue: EventQueue<M>,
    now: VirtualTime,
    /// The one-way latency of the link every message crosses.
    latency: SimDuration,
}

impl<M: 'static> Simulation<M> {
    /// Create a simulation whose messages each cross a link of one-way
    /// `latency`.
    pub fn new(latency: SimDuration) -> Simulation<M> {
        Simulation {
            actors: Vec::new(),
            failed: Vec::new(),
            queue: EventQueue::default(),
            now: VirtualTime::ZERO,
            latency,
        }
    }

    /// Register an actor.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        self.actors.push(actor);
        self.failed.push(false);
        ActorId(self.actors.len() - 1)
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Inject a message from "outside the simulation" (e.g. the traffic
    /// source feeding the chain root) to be delivered at absolute time `at`.
    pub fn inject_at(&mut self, at: VirtualTime, dst: ActorId, msg: M) {
        self.queue.push(at.max(self.now), dst, msg);
    }

    /// Inject a message `delay` after the current time.
    pub fn inject_after(&mut self, delay: SimDuration, dst: ActorId, msg: M) {
        self.queue.push(self.now + delay, dst, msg);
    }

    /// Inject a message that reaches `dst` behind every message already
    /// queued for it: when the last of them is due (ties keep insertion
    /// order), or now if none is.
    pub fn inject_behind(&mut self, dst: ActorId, msg: M) {
        let at = self.queue.last_due(dst).unwrap_or(self.now);
        self.queue.push(at, dst, msg);
    }

    /// Mark `id` failed immediately (fail-stop).
    pub fn fail_now(&mut self, id: ActorId) {
        self.failed[id.0] = true;
    }

    /// Replace a (possibly failed) actor with a new instance under the same
    /// id, clearing the failed flag. Models a recovered / failover component
    /// that takes over the failed one's identity.
    pub fn replace_actor(&mut self, id: ActorId, actor: Box<dyn Actor<M>>) {
        assert!(id.0 < self.actors.len(), "unknown actor {id}");
        self.actors[id.0] = actor;
        self.failed[id.0] = false;
    }

    /// Immutable access to an actor downcast to its concrete type.
    pub fn actor<T: 'static>(&self, id: ActorId) -> Option<&T> {
        let any: &dyn Any = self.actors.get(id.0)?.as_ref();
        any.downcast_ref::<T>()
    }

    /// Mutable access to an actor downcast to its concrete type.
    pub fn actor_mut<T: 'static>(&mut self, id: ActorId) -> Option<&mut T> {
        let any: &mut dyn Any = self.actors.get_mut(id.0)?.as_mut();
        any.downcast_mut::<T>()
    }

    /// Deliver the next message, if any; a failed destination loses it.
    /// Returns `false` when the queue is empty.
    fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.now = ev.at;
        if !self.failed[ev.dst.0] {
            let mut ctx = Ctx {
                now: self.now,
                latency: self.latency,
                queue: &mut self.queue,
                failed: &self.failed,
            };
            self.actors[ev.dst.0].on_message(ev.msg, &mut ctx);
        }
        true
    }

    /// Run until the event queue drains.
    pub fn run(&mut self) -> SimulationReport {
        while self.step() {}
        self.report()
    }

    /// Run until virtual time reaches `deadline` (events at exactly the
    /// deadline are processed); the clock then reads at least `deadline`,
    /// even if the queue drained earlier.
    pub fn run_until(&mut self, deadline: VirtualTime) -> SimulationReport {
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        self.now = self.now.max(deadline);
        self.report()
    }

    fn report(&self) -> SimulationReport {
        SimulationReport { end_time: self.now }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of a ping-pong pair: it records each value it gets and sends its
    /// peer the value less one, until the value reaches 0.
    struct PingPong {
        peer: ActorId,
        received: Vec<(u64, u32)>, // (time ns, value)
    }

    impl Actor<u32> for PingPong {
        fn on_message(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.received.push((ctx.now().as_nanos(), msg));
            if msg > 0 {
                ctx.send_with_extra_delay(self.peer, msg - 1, SimDuration::ZERO);
            }
        }
    }

    /// A simulation with a ping-pong pair, `a` (`ActorId(0)`) and `b`.
    fn pair(latency: SimDuration) -> (Simulation<u32>, ActorId, ActorId) {
        let mut sim = Simulation::new(latency);
        let (a, b) = (ActorId(0), ActorId(1));
        for peer in [b, a] {
            let received = Vec::new();
            sim.add_actor(Box::new(PingPong { peer, received }));
        }
        (sim, a, b)
    }

    fn values(sim: &Simulation<u32>, id: ActorId) -> Vec<u32> {
        let actor = sim.actor::<PingPong>(id).unwrap();
        actor.received.iter().map(|r| r.1).collect()
    }

    #[test]
    fn ping_pong_latency_accumulates() {
        let (mut sim, a, b) = pair(SimDuration::from_micros(5));
        sim.inject_at(VirtualTime::ZERO, a, 4);
        let report = sim.run();
        // 4 -> a, 3 -> b, 2 -> a, 1 -> b, 0 -> a
        assert_eq!(values(&sim, a), vec![4, 2, 0]);
        assert_eq!(values(&sim, b), vec![3, 1]);
        // Each hop adds 5us.
        assert_eq!(report.end_time, VirtualTime::from_micros(20));
        assert_eq!(sim.now(), VirtualTime::from_micros(20));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, a, b) = pair(SimDuration::from_millis(1));
        sim.inject_at(VirtualTime::ZERO, a, 100);
        // Deliveries at 0, 1, …, 5 ms: one at the deadline itself counts.
        sim.run_until(VirtualTime::from_millis(5));
        assert_eq!(values(&sim, a).len() + values(&sim, b).len(), 6);
        assert_eq!(sim.now(), VirtualTime::from_millis(5));
        sim.run();
        assert_eq!(values(&sim, a).len() + values(&sim, b).len(), 101);
        assert_eq!(sim.now(), VirtualTime::from_millis(100));
        // A deadline past the last event still moves the clock.
        let report = sim.run_until(VirtualTime::from_millis(250));
        assert_eq!(report.end_time, VirtualTime::from_millis(250));
    }

    #[test]
    fn failed_actor_drops_messages_and_can_be_replaced() {
        let (mut sim, a, b) = pair(SimDuration::from_micros(1));
        sim.fail_now(b);
        // a takes its message, and its answer to the failed b is lost at
        // the send; a message queued for b is lost at its delivery.
        sim.inject_at(VirtualTime::from_micros(1), a, 7);
        sim.inject_at(VirtualTime::from_micros(1), b, 7);
        sim.run();
        assert_eq!(values(&sim, a), vec![7]);
        assert!(values(&sim, b).is_empty());

        let received = Vec::new();
        sim.replace_actor(b, Box::new(PingPong { peer: a, received }));
        sim.inject_after(SimDuration::from_micros(1), b, 1);
        sim.run();
        assert_eq!(values(&sim, b), vec![1]);
        assert_eq!(values(&sim, a), vec![7, 0]);
    }

    #[test]
    fn an_injection_behind_arrives_after_every_queued_message() {
        let (mut sim, a, b) = pair(SimDuration::from_micros(1));
        sim.fail_now(b); // a's answers go nowhere
        sim.inject_at(VirtualTime::from_micros(9), a, 1);
        sim.inject_at(VirtualTime::from_micros(3), a, 2);
        sim.inject_behind(a, 3);
        sim.inject_behind(a, 4);
        sim.run();
        // Both behind the message due last, in injection order.
        let received = |sim: &Simulation<u32>| sim.actor::<PingPong>(a).unwrap().received.clone();
        assert_eq!(
            received(&sim),
            [(3_000, 2), (9_000, 1), (9_000, 3), (9_000, 4)]
        );
        // With nothing queued for it, a message injected behind is due now.
        sim.inject_behind(a, 5);
        sim.run();
        assert_eq!(received(&sim).last(), Some(&(9_000, 5)));
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let (sim, a, _) = pair(SimDuration::ZERO);
        assert!(sim.actor::<u32>(a).is_none());
        assert!(sim.actor::<PingPong>(a).is_some());
        assert!(sim.actor::<PingPong>(ActorId(2)).is_none());
    }
}
