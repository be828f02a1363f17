//! The root's logical clock and log row (§5, §5.4, §7.2): the one place a
//! root stamps a clock, logs a packet, persists the clock and recovers it
//! after a failover.
//!
//! Both substrates drive [`RootCore`]: the simulator's
//! [`RootActor`](crate::RootActor) and the engine's stamping loop. Its only
//! IO is the store write every [`CLOCK_PERSIST_PERIOD`]-th stamp, and the
//! caller says whether to make it. A stamped packet is logged in the
//! [`ROOT_VERTEX`] row of the chain's [`VertexLogs`] ([`RootCore::log`]),
//! whose bound is the buffer-bloat guard of §5. A failover root is built from
//! the store alone ([`RootCore::recovered`]): it resumes one persist period
//! above the last persisted counter, so it never reuses a clock the failed
//! root may already have handed out (footnote 5), and its log row starts
//! empty, since the failed root's log died with it.

use crate::message::TaggedPacket;
use crate::root::ROOT_VERTEX;
use crate::rootlog::PacketLog;
use crate::vertexlog::VertexLogs;
use chc_store::{Clock, InstanceId, ObjectKey, Operation, StateKey, StoreServer, Value};

/// The root persists its logical clock to the store every this many packets
/// (§7.2: persisting on every packet costs 29 µs, every 100th 0.29 µs). A
/// failover root resumes at the persisted value plus this period, so it never
/// reuses a clock the failed root may already have handed out.
pub const CLOCK_PERSIST_PERIOD: u64 = 100;

/// The name the root's counter is persisted under, in the store's
/// [`ROOT_VERTEX`] row. Journals and checkpoint images hold it, so it keeps
/// the bytes it has always had.
pub const ROOT_CLOCK: &str = "root_clock_0";

/// The root's clock: the last counter it stamped, and the store key the
/// counter is persisted under, built once.
#[derive(Debug, Clone)]
pub struct RootCore {
    counter: u64,
    clock_key: StateKey,
}

impl Default for RootCore {
    /// The clock of a fresh root (chain bring-up): its first stamp is 1.
    fn default() -> RootCore {
        RootCore {
            counter: 0,
            clock_key: StateKey::shared(ROOT_VERTEX, ObjectKey::named(ROOT_CLOCK)),
        }
    }
}

impl RootCore {
    /// The clock of a failover root, read from `store`: it resumes at the
    /// persisted counter plus [`CLOCK_PERSIST_PERIOD`] (101 when nothing was
    /// persisted yet), above every clock the failed root can have stamped.
    /// The root's row of `logs` is emptied: packets the failed root logged
    /// are lost, which the chain tolerates as network drops (Theorem B.3.1).
    pub fn recovered(store: &StoreServer, logs: &VertexLogs) -> RootCore {
        if let Some(mut log) = logs.log(ROOT_VERTEX) {
            *log = PacketLog::new(log.capacity());
        }
        let mut core = RootCore::default();
        let persisted = store.peek(&core.clock_key).as_int().max(0) as u64;
        core.counter = persisted + CLOCK_PERSIST_PERIOD;
        core
    }

    /// Advance the counter and return the clock. Every
    /// [`CLOCK_PERSIST_PERIOD`]-th stamp sets the counter in `store`, when
    /// the caller gives one.
    #[inline]
    pub fn stamp(&mut self, store: Option<&StoreServer>) -> Clock {
        self.counter += 1;
        if self.counter.is_multiple_of(CLOCK_PERSIST_PERIOD) {
            if let Some(store) = store {
                self.persist(store);
            }
        }
        Clock(self.counter)
    }

    /// Log a stamped packet in the root's row of `logs`. False when the row
    /// is full (the buffer-bloat guard, §5): the caller drops the packet
    /// rather than queue it without bound, and its clock stays used up.
    pub fn log(&self, logs: &VertexLogs, tp: &TaggedPacket) -> bool {
        logs.log(ROOT_VERTEX)
            .is_some_and(|mut log| log.insert(tp.clone()))
    }

    /// The last counter stamped (0 before the first stamp of a fresh root).
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Write into `store` again the counter the last periodic persist set
    /// (nothing before the first one). A store recovered from a checkpoint
    /// image and the instances' logs holds the image's older value, since
    /// the root logs no updates of its own; a root failover reading that
    /// value would stamp counters again.
    pub fn persist_again(&self, store: &StoreServer) {
        let persisted = self.counter - self.counter % CLOCK_PERSIST_PERIOD;
        if persisted > 0 {
            Self::set(store, &self.clock_key, persisted);
        }
    }

    fn persist(&self, store: &StoreServer) {
        Self::set(store, &self.clock_key, self.counter);
    }

    fn set(store: &StoreServer, key: &StateKey, counter: u64) {
        let _ = store.apply(
            InstanceId(u32::MAX),
            key,
            &Operation::Set(Value::Int(counter as i64)),
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SharedStore;
    use chc_packet::Packet;

    #[test]
    fn the_clock_is_persisted_in_the_root_vertex_row() {
        let key = RootCore::default().clock_key;
        assert_eq!((key.vertex, &*key.object.name), (ROOT_VERTEX, ROOT_CLOCK));
    }

    #[test]
    fn it_persists_on_exactly_every_hundredth_stamp() {
        let server = SharedStore::new();
        let store = &*server;
        let mut root = RootCore::default();
        for c in 1..=350u64 {
            assert_eq!(root.stamp(Some(store)), Clock(c));
            let persisted = store.peek(&root.clock_key).as_int();
            assert_eq!(
                persisted as u64,
                c / CLOCK_PERSIST_PERIOD * 100,
                "after {c}"
            );
        }
        // One `Set` per period, nothing else.
        assert_eq!(store.total_ops(), 3);
        // Without a store the stamp writes nothing.
        let mut quiet = RootCore::default();
        for _ in 0..200 {
            quiet.stamp(None);
        }
        assert_eq!((quiet.counter(), store.total_ops()), (200, 3));
    }

    #[test]
    fn a_recovery_with_nothing_persisted_resumes_at_101() {
        let logs = VertexLogs::new(8);
        let mut root = RootCore::recovered(&SharedStore::new(), &logs);
        assert_eq!(root.stamp(None), Clock(101));
    }

    #[test]
    fn a_recovered_root_stamps_above_every_clock_at_every_kill_point() {
        // The dead root stamps `kill_at - 1` clocks, persisting as it goes;
        // the failover root reads the store it left.
        let server = SharedStore::new();
        let store = &*server;
        let logs = VertexLogs::new(8);
        let mut dead = RootCore::default();
        for kill_at in 1..=1_000u64 {
            let last = Clock(dead.counter());
            let first = RootCore::recovered(store, &logs).stamp(None);
            assert!(first > last, "kill at {kill_at}: {first:?} <= {last:?}");
            assert_eq!(first.counter(), 100 * ((kill_at - 1) / 100) + 101);
            dead.stamp(Some(store));
        }
    }

    #[test]
    fn a_full_row_rejects_and_a_recovery_empties_it() {
        let logs = VertexLogs::new(2);
        let stamp_and_log = |root: &mut RootCore| {
            let clock = root.stamp(None);
            let tp = TaggedPacket::new(Packet::builder().id(clock.0).build(), clock);
            root.log(&logs, &tp)
        };
        let mut root = RootCore::default();
        let accepted: Vec<bool> = (0..3).map(|_| stamp_and_log(&mut root)).collect();
        assert_eq!(accepted, [true, true, false]);
        assert_eq!(logs.log(ROOT_VERTEX).unwrap().rejected(), 1);
        let mut root = RootCore::recovered(&SharedStore::new(), &logs);
        assert!(logs.log(ROOT_VERTEX).unwrap().is_empty());
        assert_eq!(logs.log(ROOT_VERTEX).unwrap().capacity(), 2);
        assert!(stamp_and_log(&mut root));
        let logged = logs.log(ROOT_VERTEX).unwrap().snapshot();
        assert_eq!(logged[0].clock, Clock(101));
    }
}
