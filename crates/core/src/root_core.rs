//! The root's logical clock (§5.4, §7.2): the one place a root stamps a
//! clock, persists it and recovers it after a failover.
//!
//! Both substrates drive [`RootCore`]: the simulator's
//! [`RootActor`](crate::RootActor) and the engine's stamping loop. Its only
//! IO is the store write every [`CLOCK_PERSIST_PERIOD`]-th stamp, and the
//! caller says whether to make it. A failover root is built from the store
//! alone ([`RootCore::recovered`]): it resumes one persist period above the
//! last persisted counter, so it never reuses a clock the failed root may
//! already have handed out (footnote 5).

use crate::root::ROOT_VERTEX;
use chc_store::{Clock, InstanceId, ObjectKey, Operation, StateKey, StoreServer, Value};

/// The root persists its logical clock to the store every this many packets
/// (§7.2: persisting on every packet costs 29 µs, every 100th 0.29 µs). A
/// failover root resumes at the persisted value plus this period, so it never
/// reuses a clock the failed root may already have handed out.
pub const CLOCK_PERSIST_PERIOD: u64 = 100;

/// One root's clock: its id, the last counter it stamped, and the store key
/// the counter is persisted under, built once.
#[derive(Debug, Clone)]
pub struct RootCore {
    root_id: u8,
    counter: u64,
    clock_key: StateKey,
}

impl RootCore {
    /// The clock of a fresh root (chain bring-up): its first stamp is 1.
    pub fn new(root_id: u8) -> RootCore {
        RootCore {
            root_id,
            counter: 0,
            clock_key: StateKey::shared(
                ROOT_VERTEX,
                ObjectKey::named(&format!("root_clock_{root_id}")),
            ),
        }
    }

    /// The clock of a failover root, read from `store`: it resumes at the
    /// persisted counter plus [`CLOCK_PERSIST_PERIOD`] (101 when nothing was
    /// persisted yet), above every clock the failed root can have stamped.
    pub fn recovered(root_id: u8, store: &StoreServer) -> RootCore {
        let mut core = RootCore::new(root_id);
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
        Clock::with_root(self.root_id, self.counter)
    }

    /// The last counter stamped (0 before the first stamp of a fresh root).
    pub fn counter(&self) -> u64 {
        self.counter
    }

    fn persist(&self, store: &StoreServer) {
        let _ = store.apply(
            InstanceId(u32::MAX),
            &self.clock_key,
            &Operation::Set(Value::Int(self.counter as i64)),
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SharedStore;

    #[test]
    fn clock_key_is_per_root() {
        assert_ne!(RootCore::new(0).clock_key, RootCore::new(1).clock_key);
        assert_eq!(RootCore::new(3).clock_key.vertex, ROOT_VERTEX);
    }

    #[test]
    fn it_persists_on_exactly_every_hundredth_stamp() {
        let server = SharedStore::new();
        let store = &*server;
        let mut root = RootCore::new(0);
        for c in 1..=350u64 {
            assert_eq!(root.stamp(Some(store)), Clock::with_root(0, c));
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
        let mut quiet = RootCore::new(0);
        for _ in 0..200 {
            quiet.stamp(None);
        }
        assert_eq!((quiet.counter(), store.total_ops()), (200, 3));
    }

    #[test]
    fn a_recovery_with_nothing_persisted_resumes_at_101() {
        let mut root = RootCore::recovered(2, &SharedStore::new());
        assert_eq!(root.stamp(None), Clock::with_root(2, 101));
    }

    #[test]
    fn a_recovered_root_stamps_above_every_clock_at_every_kill_point() {
        // The dead root stamps `kill_at - 1` clocks, persisting as it goes;
        // the failover root reads the store it left.
        let server = SharedStore::new();
        let store = &*server;
        let mut dead = RootCore::new(0);
        for kill_at in 1..=1_000u64 {
            let last = Clock::with_root(0, dead.counter());
            let first = RootCore::recovered(0, store).stamp(None);
            assert!(first > last, "kill at {kill_at}: {first:?} <= {last:?}");
            assert_eq!(first.counter(), 100 * ((kill_at - 1) / 100) + 101);
            dead.stamp(Some(store));
        }
    }
}
