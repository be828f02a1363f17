//! The discrete-event executor: actors, contexts and the simulation loop.
//!
//! The CHC framework components (root, splitters, NF instances, datastore
//! servers, managers) are implemented as [`Actor`]s exchanging a
//! framework-defined message type `M`. The [`Simulation`] owns the actors,
//! the virtual clock, the seeded RNG and the event queue, and delivers
//! messages/timers in timestamp order. Fail-stop failures (§5.4 of the paper)
//! are modelled by marking an actor failed: pending and future deliveries to
//! it are dropped until it is replaced via [`Simulation::replace_actor`].

use crate::event::{ActorId, EventKind, EventQueue, TimerTag};
use crate::link::LinkConfig;
use crate::time::{SimDuration, VirtualTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

/// A simulated component. `M` is the message type exchanged between actors.
///
/// `Actor` requires [`Any`] so that tests and harnesses can downcast actors
/// back to their concrete type after a run to extract results.
pub trait Actor<M>: Any {
    /// Called once when the actor is added to the simulation (or when it
    /// replaces a failed actor).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// A message arrived.
    fn on_message(&mut self, from: Option<ActorId>, msg: M, ctx: &mut Ctx<'_, M>);

    /// A timer scheduled by this actor fired.
    fn on_timer(&mut self, _tag: TimerTag, _ctx: &mut Ctx<'_, M>) {}
}

/// Execution context handed to actors: the clock, messaging and timers.
pub struct Ctx<'a, M> {
    now: VirtualTime,
    self_id: ActorId,
    queue: &'a mut EventQueue<M>,
    rng: &'a mut StdRng,
    link: LinkConfig,
    failed: &'a [bool],
    dropped_messages: &'a mut u64,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Send `msg` to `dst` over the simulation's link (its latency applied,
    /// the message possibly dropped according to its drop probability).
    pub fn send(&mut self, dst: ActorId, msg: M) {
        self.send_with_extra_delay(dst, msg, SimDuration::ZERO);
    }

    /// Send with an additional delay on top of the link latency. Used to model
    /// processing time spent before the message leaves the component.
    pub fn send_with_extra_delay(&mut self, dst: ActorId, msg: M, extra: SimDuration) {
        let link = self.link;
        if link.drop_probability > 0.0 && self.rng.gen_bool(link.drop_probability) {
            *self.dropped_messages += 1;
            return;
        }
        if self.failed.get(dst.0).copied().unwrap_or(false) {
            // Destination is down: the network delivers into the void.
            *self.dropped_messages += 1;
            return;
        }
        let at = self.now + link.latency + extra;
        self.queue.push(
            at,
            dst,
            EventKind::Message {
                from: Some(self.self_id),
                msg,
            },
        );
    }

    /// Schedule a timer for `self` after `delay`; `tag` is returned to
    /// [`Actor::on_timer`].
    pub fn schedule(&mut self, delay: SimDuration, tag: TimerTag) {
        self.queue
            .push(self.now + delay, self.self_id, EventKind::Timer(tag));
    }
}

/// Summary of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulationReport {
    /// Number of events delivered.
    pub events_processed: u64,
    /// Messages dropped by links or because the destination had failed.
    pub dropped_messages: u64,
    /// Virtual time when the run stopped.
    pub end_time: VirtualTime,
}

/// The discrete-event simulation.
pub struct Simulation<M: 'static> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    failed: Vec<bool>,
    queue: EventQueue<M>,
    now: VirtualTime,
    rng: StdRng,
    link: LinkConfig,
    events_processed: u64,
    dropped_messages: u64,
    /// Safety valve against runaway event loops in buggy protocols.
    max_events: u64,
}

impl<M: 'static> Simulation<M> {
    /// Create a simulation with the given RNG seed.
    pub fn new(seed: u64) -> Simulation<M> {
        Simulation {
            actors: Vec::new(),
            failed: Vec::new(),
            queue: EventQueue::default(),
            now: VirtualTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            link: LinkConfig::default(),
            events_processed: 0,
            dropped_messages: 0,
            max_events: u64::MAX,
        }
    }

    /// Limit the total number of delivered events (safety valve for tests).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Set the link every message crosses (replacing [`LinkConfig::default`]).
    pub fn set_default_link(&mut self, link: LinkConfig) {
        self.link = link;
    }

    /// Register an actor; its `on_start` hook runs immediately.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        self.failed.push(false);
        self.start_actor(id);
        id
    }

    fn start_actor(&mut self, id: ActorId) {
        let mut actor = self.actors[id.0].take().expect("actor present");
        let mut ctx = Ctx {
            now: self.now,
            self_id: id,
            queue: &mut self.queue,
            rng: &mut self.rng,
            link: self.link,
            failed: &self.failed,
            dropped_messages: &mut self.dropped_messages,
        };
        actor.on_start(&mut ctx);
        self.actors[id.0] = Some(actor);
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Inject a message from "outside the simulation" (e.g. the traffic
    /// source feeding the chain root) to be delivered at absolute time `at`.
    pub fn inject_at(&mut self, at: VirtualTime, dst: ActorId, msg: M) {
        let at = at.max(self.now);
        self.queue
            .push(at, dst, EventKind::Message { from: None, msg });
    }

    /// Inject a message `delay` after the current time.
    pub fn inject_after(&mut self, delay: SimDuration, dst: ActorId, msg: M) {
        self.queue.push(
            self.now + delay,
            dst,
            EventKind::Message { from: None, msg },
        );
    }

    /// Mark `id` failed at absolute virtual time `at` (fail-stop).
    pub fn fail_at(&mut self, id: ActorId, at: VirtualTime) {
        let at = at.max(self.now);
        self.queue.push(at, id, EventKind::Fail);
    }

    /// Mark `id` failed immediately.
    pub fn fail_now(&mut self, id: ActorId) {
        if let Some(slot) = self.failed.get_mut(id.0) {
            *slot = true;
        }
    }

    /// True if the actor is currently failed.
    pub fn is_failed(&self, id: ActorId) -> bool {
        self.failed.get(id.0).copied().unwrap_or(false)
    }

    /// Replace a (possibly failed) actor with a new instance under the same
    /// id, clearing the failed flag. Models a recovered / failover component
    /// that takes over the failed one's identity.
    pub fn replace_actor(&mut self, id: ActorId, actor: Box<dyn Actor<M>>) {
        assert!(id.0 < self.actors.len(), "unknown actor {id}");
        self.actors[id.0] = Some(actor);
        self.failed[id.0] = false;
        self.start_actor(id);
    }

    /// Immutable access to an actor downcast to its concrete type.
    pub fn actor<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actors.get(id.0)?.as_ref().map(|a| {
            let any: &dyn Any = a.as_ref();
            any.downcast_ref::<T>()
        })?
    }

    /// Mutable access to an actor downcast to its concrete type.
    pub fn actor_mut<T: 'static>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actors.get_mut(id.0)?.as_mut().map(|a| {
            let any: &mut dyn Any = a.as_mut();
            any.downcast_mut::<T>()
        })?
    }

    /// Deliver the next event, if any. Returns `false` when the queue is empty
    /// or the event limit was reached.
    pub fn step(&mut self) -> bool {
        if self.events_processed >= self.max_events {
            return false;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.events_processed += 1;

        match ev.kind {
            EventKind::Fail => {
                if let Some(slot) = self.failed.get_mut(ev.dst.0) {
                    *slot = true;
                }
                return true;
            }
            EventKind::Message { .. } | EventKind::Timer(_) => {}
        }

        if self.failed.get(ev.dst.0).copied().unwrap_or(true) {
            // Destination failed (or unknown): drop.
            self.dropped_messages += 1;
            return true;
        }
        let Some(mut actor) = self.actors[ev.dst.0].take() else {
            self.dropped_messages += 1;
            return true;
        };
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: ev.dst,
                queue: &mut self.queue,
                rng: &mut self.rng,
                link: self.link,
                failed: &self.failed,
                dropped_messages: &mut self.dropped_messages,
            };
            match ev.kind {
                EventKind::Message { from, msg } => actor.on_message(from, msg, &mut ctx),
                EventKind::Timer(tag) => actor.on_timer(tag, &mut ctx),
                EventKind::Fail => unreachable!("handled above"),
            }
        }
        // The actor may have been replaced while it was out of its slot only
        // by itself (not possible), so putting it back is always correct.
        self.actors[ev.dst.0] = Some(actor);
        true
    }

    /// Run until the event queue drains (or the event limit is reached).
    pub fn run(&mut self) -> SimulationReport {
        while self.step() {}
        self.report()
    }

    /// Run until virtual time reaches `deadline` (events at exactly the
    /// deadline are processed) or the queue drains.
    pub fn run_until(&mut self, deadline: VirtualTime) -> SimulationReport {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
        if self.now < deadline && self.queue.is_empty() {
            // advance the clock even if nothing happened
            self.now = deadline;
        } else if self.now < deadline {
            self.now = deadline;
        }
        self.report()
    }

    /// Report of the run so far.
    pub fn report(&self) -> SimulationReport {
        SimulationReport {
            events_processed: self.events_processed,
            dropped_messages: self.dropped_messages,
            end_time: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ping-pong pair: each actor echoes back a counter until it reaches 0.
    struct PingPong {
        peer: Option<ActorId>,
        received: Vec<(u64, u32)>, // (time ns, value)
    }

    impl Actor<u32> for PingPong {
        fn on_message(&mut self, from: Option<ActorId>, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.received.push((ctx.now().as_nanos(), msg));
            if msg > 0 {
                let dst = self.peer.or(from).expect("someone to answer");
                ctx.send(dst, msg - 1);
            }
        }
    }

    /// An actor counting its timer firings.
    struct Ticker {
        period: SimDuration,
        remaining: u32,
        fired: u32,
    }

    impl Actor<u32> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.schedule(self.period, 1);
        }
        fn on_message(&mut self, _from: Option<ActorId>, _msg: u32, _ctx: &mut Ctx<'_, u32>) {}
        fn on_timer(&mut self, _tag: TimerTag, ctx: &mut Ctx<'_, u32>) {
            self.fired += 1;
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule(self.period, 1);
            }
        }
    }

    #[test]
    fn ping_pong_latency_accumulates() {
        let mut sim: Simulation<u32> = Simulation::new(1);
        sim.set_default_link(LinkConfig::with_latency(SimDuration::from_micros(5)));
        let a = sim.add_actor(Box::new(PingPong {
            peer: None,
            received: vec![],
        }));
        let b = sim.add_actor(Box::new(PingPong {
            peer: Some(a),
            received: vec![],
        }));
        sim.actor_mut::<PingPong>(a).unwrap().peer = Some(b);
        sim.inject_at(VirtualTime::ZERO, a, 4);
        let report = sim.run();
        // 4 -> a, 3 -> b, 2 -> a, 1 -> b, 0 -> a = 5 deliveries
        assert_eq!(report.events_processed, 5);
        let a_ref = sim.actor::<PingPong>(a).unwrap();
        let b_ref = sim.actor::<PingPong>(b).unwrap();
        assert_eq!(
            a_ref.received.iter().map(|r| r.1).collect::<Vec<_>>(),
            vec![4, 2, 0]
        );
        assert_eq!(
            b_ref.received.iter().map(|r| r.1).collect::<Vec<_>>(),
            vec![3, 1]
        );
        // Each hop adds 5us.
        assert_eq!(sim.now(), VirtualTime::from_micros(20));
    }

    #[test]
    fn timers_fire_periodically() {
        let mut sim: Simulation<u32> = Simulation::new(2);
        let t = sim.add_actor(Box::new(Ticker {
            period: SimDuration::from_millis(1),
            remaining: 9,
            fired: 0,
        }));
        sim.run();
        assert_eq!(sim.actor::<Ticker>(t).unwrap().fired, 10);
        assert_eq!(sim.now(), VirtualTime::from_millis(10));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Simulation<u32> = Simulation::new(3);
        let t = sim.add_actor(Box::new(Ticker {
            period: SimDuration::from_millis(1),
            remaining: 100,
            fired: 0,
        }));
        sim.run_until(VirtualTime::from_millis(5));
        let fired_mid = sim.actor::<Ticker>(t).unwrap().fired;
        assert_eq!(fired_mid, 5);
        assert_eq!(sim.now(), VirtualTime::from_millis(5));
        sim.run();
        assert_eq!(sim.actor::<Ticker>(t).unwrap().fired, 101);
    }

    #[test]
    fn failed_actor_drops_messages_and_can_be_replaced() {
        let mut sim: Simulation<u32> = Simulation::new(4);
        let a = sim.add_actor(Box::new(PingPong {
            peer: None,
            received: vec![],
        }));
        sim.fail_now(a);
        sim.inject_at(VirtualTime::from_micros(1), a, 7);
        let report = sim.run();
        assert_eq!(report.dropped_messages, 1);
        assert!(sim.is_failed(a));
        assert!(sim.actor::<PingPong>(a).unwrap().received.is_empty());

        sim.replace_actor(
            a,
            Box::new(PingPong {
                peer: None,
                received: vec![],
            }),
        );
        assert!(!sim.is_failed(a));
        sim.inject_after(SimDuration::from_micros(1), a, 0);
        sim.run();
        assert_eq!(sim.actor::<PingPong>(a).unwrap().received.len(), 1);
    }

    #[test]
    fn fail_at_takes_effect_at_the_scheduled_time() {
        let mut sim: Simulation<u32> = Simulation::new(5);
        sim.set_default_link(LinkConfig::ideal());
        let a = sim.add_actor(Box::new(PingPong {
            peer: None,
            received: vec![],
        }));
        sim.inject_at(VirtualTime::from_micros(1), a, 0); // delivered (before failure)
        sim.fail_at(a, VirtualTime::from_micros(5));
        sim.inject_at(VirtualTime::from_micros(10), a, 0); // dropped (after failure)
        let report = sim.run();
        assert_eq!(sim.actor::<PingPong>(a).unwrap().received.len(), 1);
        assert_eq!(report.dropped_messages, 1);
    }

    #[test]
    fn lossy_links_drop_messages_deterministically() {
        let run = |seed: u64| {
            let mut sim: Simulation<u32> = Simulation::new(seed);
            sim.set_default_link(LinkConfig::default().with_drop_probability(0.5));
            let a = sim.add_actor(Box::new(PingPong {
                peer: None,
                received: vec![],
            }));
            let b = sim.add_actor(Box::new(PingPong {
                peer: Some(a),
                received: vec![],
            }));
            sim.actor_mut::<PingPong>(a).unwrap().peer = Some(b);
            sim.inject_at(VirtualTime::ZERO, a, 100);
            sim.run();
            let got = sim.actor::<PingPong>(a).unwrap().received.len()
                + sim.actor::<PingPong>(b).unwrap().received.len();
            got
        };
        // With 50% loss the exchange dies early: strictly fewer than the
        // lossless 101 deliveries, and deterministic for a fixed seed.
        let x = run(7);
        assert!(x < 101);
        assert_eq!(x, run(7));
    }

    #[test]
    fn max_events_guard() {
        let mut sim: Simulation<u32> = Simulation::new(6);
        sim.set_max_events(10);
        let a = sim.add_actor(Box::new(PingPong {
            peer: None,
            received: vec![],
        }));
        let b = sim.add_actor(Box::new(PingPong {
            peer: Some(a),
            received: vec![],
        }));
        sim.actor_mut::<PingPong>(a).unwrap().peer = Some(b);
        sim.inject_at(VirtualTime::ZERO, a, u32::MAX); // effectively infinite ping-pong
        let report = sim.run();
        assert_eq!(report.events_processed, 10);
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let mut sim: Simulation<u32> = Simulation::new(8);
        let a = sim.add_actor(Box::new(PingPong {
            peer: None,
            received: vec![],
        }));
        assert!(sim.actor::<Ticker>(a).is_none());
        assert!(sim.actor::<PingPong>(a).is_some());
    }
}
