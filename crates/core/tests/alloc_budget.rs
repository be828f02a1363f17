//! The store fast path's allocation budget, as a test.
//!
//! A steady-state operation on an already-seen key must not touch the
//! allocator: not in [`StateClient`] (key resolution, cache, write-behind
//! buffer, token list) and not in [`StoreInstance::apply`] once the packet's
//! clock is below the replay floor. Above the floor the only allowance is
//! the duplicate-suppression log's own growth, at most one allocation per
//! logged update, amortised. A change that clones a key or a name on this
//! path fails here, in tier 1, rather than in a benchmark.
//!
//! Allocations are counted per thread (the test harness runs tests on
//! parallel threads), by a counting wrapper around the system allocator.

use chc_core::{
    CostModel, ExternalizationMode, SharedStore, StateClient, StateHandle, StateObjectSpec,
};
use chc_packet::{FlowKey, Scope, ScopeKey};
use chc_store::{
    AccessPattern, Clock, Condition, InstanceId, ObjectKey, Operation, StateKey, StoreInstance,
    StoreServer, Value, VertexId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // `const` initialisation and no destructor: reading this inside the
    // allocator can neither allocate nor recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread performed inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_allocations() {
    // Guards the budget tests against passing vacuously.
    let boxed = allocations_in(|| drop(std::hint::black_box(Box::new(7u64))));
    let grown = allocations_in(|| {
        let mut v: Vec<u64> = Vec::with_capacity(1);
        v.extend([1, 2, 3]);
        std::hint::black_box(v);
    });
    assert_eq!((boxed, grown), (1, 2));
}

const FLOWS: u128 = 16;
const ROUNDS: u64 = 256;

fn client(store: Box<dyn StateHandle>) -> StateClient {
    let mut client = StateClient::new(
        VertexId(1),
        InstanceId(0),
        store,
        ExternalizationMode::ExternalizedCachedNonBlocking,
        CostModel::default(),
        &[
            StateObjectSpec::cross_flow(
                "pkt_count",
                Scope::Global,
                AccessPattern::WriteMostlyReadRarely,
            ),
            StateObjectSpec::per_flow("conn_bytes", AccessPattern::ReadWriteOften),
            StateObjectSpec::cross_flow("free_ports", Scope::Global, AccessPattern::ReadWriteOften),
        ],
    );
    // Configured like the engine's instance clients.
    client.set_recovery_logging(false);
    client.set_write_behind(true, 64);
    client
}

/// One packet's worth of client traffic: a hot counter, a per-flow update
/// and a per-flow read, then the per-packet accumulators emptied the way the
/// engine empties them.
fn packet(client: &mut StateClient, n: u64) {
    let clock = Clock::with_root(0, n);
    let flow = Some(ScopeKey::Flow(FlowKey(u128::from(n) % FLOWS)));
    client.update("pkt_count", None, Operation::Increment(1), clock);
    client.update("conn_bytes", flow, Operation::Increment(64), clock);
    assert!(client.read("conn_bytes", flow, clock).as_int() > 0);
    let _ = client.take_charge();
    let _ = client.take_packet_tokens();
    let _ = client.take_pending_callbacks();
}

#[test]
fn buffered_update_and_cached_read_on_a_seen_key_allocate_nothing() {
    let mut client = client(Box::new(SharedStore::new()));
    // Warm-up: every flow seen once, the buffer and the lists at capacity.
    for n in 1..=2 * FLOWS as u64 {
        packet(&mut client, n);
    }
    client.drain_write_behind();
    let before = client.stats();
    // 3 ops per packet stay under the write-behind cap of 64 for 16 packets:
    // nothing drains inside the measured region.
    let allocated = allocations_in(|| {
        for n in 100..116 {
            packet(&mut client, n);
        }
    });
    assert_eq!(allocated, 0, "the client's fast path touched the allocator");
    let after = client.stats();
    assert_eq!(after.non_blocking_ops - before.non_blocking_ops, 32);
    assert_eq!(after.cache_hits - before.cache_hits, 32);
    assert_eq!(after.blocking_ops, before.blocking_ops);
    assert_eq!(client.write_behind_depth(), 32);
}

#[test]
fn an_undeclared_object_allocates_on_its_first_access_only() {
    // The NF never declared "surprise": the client registers it on first
    // use (shared, blocking until exclusivity is granted) instead of
    // building and dropping a name handle per access. Each access is a store
    // round trip whose op is below the floor — nothing logged, nothing
    // allocated on either side.
    let server = StoreServer::with_backend(4, chc_store::BackendKind::Memory);
    server.forget_through(u64::MAX);
    let mut client = client(Box::new(Arc::clone(&server)));
    let scope = Some(ScopeKey::Port(443));
    let access = |client: &mut StateClient, n: u64| {
        let clock = Clock::with_root(0, n);
        client.update("surprise", scope, Operation::Increment(1), clock);
        assert_eq!(client.read("surprise", scope, clock), Value::Int(n as i64));
        assert_eq!(
            client.state_key("surprise", scope).object.scope_key,
            scope,
            "a registered name resolves through its slot"
        );
        let _ = client.take_packet_tokens();
    };
    assert!(allocations_in(|| access(&mut client, 1)) > 0);
    assert!(!client.is_exclusive("surprise"));
    let allocated = allocations_in(|| {
        for n in 2..18 {
            access(&mut client, n);
        }
    });
    assert_eq!(allocated, 0, "an undeclared object allocated per access");
    assert!(!client.is_exclusive("surprise"));
    assert_eq!(client.stats().blocking_ops, 2 * 17);
}

#[test]
fn a_blocking_pop_on_a_pool_the_client_holds_copies_nothing() {
    // The NAT's port pool: 4,096 entries, write/read-often and this
    // instance's alone, so the client holds a copy; a pop is offloaded all
    // the same, because the NF consumes what it returns. The store answers
    // with the head, not the pool, and the client pops its own copy.
    const POOL: i64 = 4_096;
    let store = SharedStore::new();
    // No fault plan, no replay: the floor starts at the top.
    store.with(|s| s.forget_through(u64::MAX));
    let mut client = client(Box::new(store.clone()));
    let seed = Operation::CompareAndUpdate {
        condition: Condition::Absent,
        new: Value::list_of_ints(20_000..20_000 + POOL),
    };
    let pop = |client: &mut StateClient, n: u64| {
        let port = client.update(
            "free_ports",
            None,
            Operation::PopFront,
            Clock::with_root(0, n),
        );
        let _ = client.take_charge();
        let _ = client.take_packet_tokens();
        port
    };
    client.update("free_ports", None, seed, Clock::with_root(0, 1));
    // The first pop drains the seeding op to the store ahead of itself.
    assert_eq!(pop(&mut client, 2), Value::Int(20_000));
    let before = client.stats();
    let allocated = allocations_in(|| {
        for n in 3..19 {
            assert_eq!(pop(&mut client, n), Value::Int(20_000 + n as i64 - 2));
        }
    });
    assert_eq!(allocated, 0, "a pop copied something");
    assert_eq!(client.stats().blocking_ops - before.blocking_ops, 16);
    // The copy moved with the store: the read below is served from it.
    let held = client.read("free_ports", None, Clock::with_root(0, 19));
    assert_eq!(client.stats().cache_hits - before.cache_hits, 1);
    assert_eq!(held.as_list().map(|l| l.len()), Some(POOL as usize - 17));
    let key = client.state_key("free_ports", None);
    assert_eq!(held, store.with(|s| s.peek(&key)));
}

fn counter(i: u64) -> StateKey {
    StateKey::shared(
        VertexId(1),
        ObjectKey::scoped("pkt_count", ScopeKey::Flow(FlowKey(u128::from(i) % FLOWS))),
    )
}

#[test]
fn store_apply_below_the_floor_allocates_nothing_and_above_it_at_most_once() {
    let mut store = StoreInstance::new();
    let keys: Vec<StateKey> = (0..FLOWS as u64).map(counter).collect();
    let increment = Operation::Increment(1);
    for (i, key) in keys.iter().enumerate() {
        store
            .apply(
                InstanceId(0),
                key,
                &increment,
                Some(Clock::with_root(0, i as u64 + 1)),
            )
            .unwrap();
    }

    // Below the floor: `TS` moves, nothing is looked up, nothing is logged.
    store.forget_through(10_000);
    let allocated = allocations_in(|| {
        for n in 0..ROUNDS {
            let key = &keys[(n % FLOWS as u64) as usize];
            let clock = Some(Clock::with_root(0, 100 + n));
            let result = store.apply(InstanceId(0), key, &increment, clock).unwrap();
            assert!(!result.outcome.emulated);
        }
    });
    assert_eq!(allocated, 0, "an unlogged apply touched the allocator");
    assert_eq!(store.update_log_len(), 0);

    // Above it every update is logged: the log's own nodes are the only
    // allocations, fewer than one per update.
    let allocated = allocations_in(|| {
        for n in 0..ROUNDS {
            let key = &keys[(n % FLOWS as u64) as usize];
            let clock = Some(Clock::with_root(0, 20_000 + n));
            store.apply(InstanceId(0), key, &increment, clock).unwrap();
        }
    });
    assert_eq!(store.update_log_len(), ROUNDS as usize);
    assert!(
        allocated <= ROUNDS,
        "{allocated} allocations for {ROUNDS} logged updates"
    );
}

#[test]
fn a_drained_batch_costs_its_result_vector_and_nothing_per_op() {
    // The whole path: client → write-behind buffer → `apply_batch` on the
    // sharded server with the floor at the top, as in a run without a fault
    // plan. Per drain the server allocates the result vector it returns.
    let server = StoreServer::with_backend(4, chc_store::BackendKind::Memory);
    server.forget_through(u64::MAX);
    let mut client = client(Box::new(Arc::clone(&server)));
    for n in 1..=2 * FLOWS as u64 {
        packet(&mut client, n);
    }
    client.drain_write_behind();
    let drains = 8u64;
    let allocated = allocations_in(|| {
        for d in 0..drains {
            for n in 0..16 {
                packet(&mut client, 1_000 + d * 16 + n);
            }
            assert_eq!(client.drain_write_behind(), 32);
        }
    });
    assert!(
        allocated <= drains,
        "{allocated} allocations for {drains} drains of 32 ops"
    );
    assert_eq!(server.update_log_len(), 0);
    assert_eq!(
        server.peek(&StateKey::shared(
            VertexId(1),
            ObjectKey::named("pkt_count")
        )),
        Value::Int(2 * FLOWS as i64 + 16 * drains as i64)
    );
}
