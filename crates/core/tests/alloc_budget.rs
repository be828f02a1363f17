//! The store fast path's allocation budget, as a test.
//!
//! A steady-state operation on an already-seen key must not touch the
//! allocator: not in [`StateClient`] (key resolution, cache, write-behind
//! buffer), not in the instance step around it
//! ([`InstanceCore::on_packet`]), not in the run-to-completion driver around
//! that ([`InlineChain::step`]) and not in [`StoreInstance::apply`] once the
//! packet's clock is below the replay floor. Above the floor the only
//! allowance is the duplicate-suppression log's own growth: its window of
//! heads and its ring of updates double, so logging `n` integer increments
//! allocates O(log n) times. Journaling a drain costs nothing per op either: the record is
//! encoded into a buffer the shard reuses, and an in-memory segment grows by
//! doubling. A change that clones a key or a name on this path fails here,
//! in tier 1, rather than in a benchmark.
//!
//! Allocations are counted per thread (the test harness runs tests on
//! parallel threads), by a counting wrapper around the system allocator.

use chc_core::root::ROOT_VERTEX;
use chc_core::{
    Action, ChainConfig, CostModel, ExternalizationMode, InlineChain, InstanceCore, LogicalDag,
    NetworkFunction, NfContext, SharedStore, StateClient, StateHandle, StateObjectSpec, Step,
    TaggedPacket, VertexLogs, VertexSpec,
};
use chc_packet::{FlowKey, Packet, Scope, ScopeKey};
use chc_sim::VirtualTime;
use chc_store::{
    AccessPattern, BackendKind, Clock, Condition, InstanceId, ObjectKey, Operation, StateKey,
    StoreInstance, StoreServer, Value, VertexId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
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

/// The objects [`client`]'s callers use, declared.
fn objects() -> Vec<StateObjectSpec> {
    vec![
        StateObjectSpec::cross_flow(
            "pkt_count",
            Scope::Global,
            AccessPattern::WriteMostlyReadRarely,
        ),
        StateObjectSpec::per_flow("conn_bytes", AccessPattern::ReadWriteOften),
        StateObjectSpec::cross_flow("free_ports", Scope::Global, AccessPattern::ReadWriteOften),
    ]
}

/// Configured like the engine's instance clients.
fn configure(client: &mut StateClient) {
    client.set_write_behind(true, 64);
}

fn client(store: Box<dyn StateHandle>) -> StateClient {
    let mut client = StateClient::new(
        VertexId(1),
        InstanceId(0),
        store,
        ExternalizationMode::ExternalizedCachedNonBlocking,
        CostModel::default(),
        &objects(),
    );
    configure(&mut client);
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
fn a_mark_raising_folded_increment_allocates_nothing() {
    // In fault mode an ordered writer's increments are suppressed by its
    // mark on each entry, not by a log record each: on a warm store whose
    // floor sits below every clock, folding 32 increments into 17 entries,
    // draining them and raising each entry's mark costs the drain's result
    // vector and nothing per op.
    let store = SharedStore::new();
    store.track_replays();
    store.forget_through(0);
    let mut client = client(Box::new(Arc::clone(&store)));
    client.declare_ordered_writer();
    for n in 1..=2 * FLOWS as u64 {
        packet(&mut client, n);
    }
    client.drain_write_behind();
    let allocated = allocations_in(|| {
        for n in 100..116 {
            packet(&mut client, n);
        }
        assert_eq!(client.drain_write_behind(), 1 + FLOWS as usize);
    });
    assert_eq!(
        allocated, 1,
        "a mark-raising drain touched the allocator per op"
    );
    assert_eq!(store.update_log_len(), 0, "an increment took a log record");
    // The counter's mark stands at the last folded clock: re-issued, the
    // increment is emulated.
    let again = [(
        client.state_key("pkt_count", None),
        Operation::Increment(1),
        Some(Clock(115)),
    )];
    let replayed = StateHandle::apply_batch(&store, InstanceId(0), &again);
    assert!(replayed[0].as_ref().unwrap().outcome.emulated);
}

#[test]
fn a_folded_increment_allocates_nothing() {
    // The engine's clients fold a key's buffered increments when the floor
    // is at the top: finding the key's newest entry and summing into it
    // where it sits reuse the buffer, and the key built for the op is
    // dropped, not kept.
    let store = SharedStore::new();
    store.forget_through(u64::MAX);
    let mut client = client(Box::new(store));
    client.declare_ordered_writer();
    for n in 1..=2 * FLOWS as u64 {
        packet(&mut client, n);
    }
    client.drain_write_behind();
    let allocated = allocations_in(|| {
        for n in 100..116 {
            packet(&mut client, n);
        }
    });
    assert_eq!(allocated, 0, "a folded increment touched the allocator");
    // 32 increments in 17 entries: the counter's 16 folded into one, and
    // one per flow.
    assert_eq!(client.write_behind_depth(), 1 + FLOWS as usize);
}

#[test]
fn an_out_of_order_drain_costs_its_result_vector_only() {
    // An ordered writer's folds stay where they sit, and its drain puts the
    // batch in clock order in place. 26 counters incremented in one order
    // and then in the reverse one leave 26 entries in falling clock order:
    // past 20 entries std's stable sort would take scratch space.
    const COUNTERS: u64 = 26;
    let store = SharedStore::new();
    store.forget_through(u64::MAX);
    let mut client = client(Box::new(Arc::clone(&store)));
    client.declare_ordered_writer();
    let port = |p: u64| Some(ScopeKey::Port(p as u16));
    let round = |client: &mut StateClient, first: u64| {
        let ascending = (0..COUNTERS).zip(first..);
        let descending = (0..COUNTERS).rev().zip(first + COUNTERS..);
        for (p, counter) in ascending.chain(descending) {
            client.update(
                "pkt_count",
                port(p),
                Operation::Increment(1),
                Clock(counter),
            );
        }
        assert_eq!(client.drain_write_behind(), COUNTERS as usize);
    };
    // Warm-up: every counter's entry in the store, the lists at capacity.
    round(&mut client, 1);
    let allocated = allocations_in(|| round(&mut client, 1_000));
    assert_eq!(allocated, 1, "an out-of-order drain touched the allocator");
    for p in 0..COUNTERS {
        let value = store.peek(&client.state_key("pkt_count", port(p)));
        assert_eq!(value, Value::Int(4));
    }
}

/// [`packet`]'s client traffic as an NF, which forwards every packet.
struct Meter;

impl NetworkFunction for Meter {
    fn name(&self) -> &str {
        "meter"
    }

    fn state_objects(&self) -> Vec<StateObjectSpec> {
        objects()
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
        let flow = Some(ScopeKey::Flow(FlowKey(u128::from(packet.id.0) % FLOWS)));
        ctx.increment("pkt_count", None, 1);
        ctx.increment("conn_bytes", flow, 64);
        assert!(ctx.read("conn_bytes", flow).as_int() > 0);
        Action::Forward(packet.clone())
    }
}

#[test]
fn a_warm_instance_step_allocates_nothing() {
    // The step around an NF and a client path that allocate nothing adds
    // nothing: not the duplicate window, not an empty alert list.
    let mut client = client(Box::new(SharedStore::new()));
    let mut core: InstanceCore = InstanceCore::new(Box::new(Meter), false, true);
    core.track_duplicates(true);
    let mut step = |client: &mut StateClient, n: u64| {
        let packet = Packet::builder().id(n).build();
        let mut tp = TaggedPacket::new(packet, Clock::with_root(0, n));
        let step = core.on_packet(&mut tp, client, VirtualTime::ZERO, false);
        assert_eq!(step, Step::Forward { exit: true });
    };
    for n in 1..=2 * FLOWS as u64 {
        step(&mut client, n);
    }
    client.drain_write_behind();
    let allocated = allocations_in(|| {
        for n in 100..116 {
            step(&mut client, n);
        }
    });
    assert_eq!(allocated, 0, "a warm instance step touched the allocator");
    assert_eq!(client.write_behind_depth(), 32, "nothing drained");
}

#[test]
fn a_warm_driver_step_allocates_nothing() {
    // Stamping, the stage queues, the hand-offs down a line of meters and
    // the sink's books reuse what the warm-up grew.
    let meter = |id| VertexSpec::new(id, "meter", Rc::new(|| Box::new(Meter)));
    let dag = LogicalDag::linear((1..=3).map(meter).collect());
    let mut chain = InlineChain::new(&dag, &ChainConfig::default());
    for i in 0..3 {
        configure(chain.client(i));
    }
    let step = |chain: &mut InlineChain, n: u64| {
        let packet = Packet::builder().id(n).build();
        chain.step(&packet, Clock::with_root(0, n), VirtualTime::ZERO);
    };
    // 48 warm packets grow the sink's list of delivered ids, the run's
    // output, to a capacity of 64: room for the 16 measured ones.
    for n in 1..=3 * FLOWS as u64 {
        step(&mut chain, n);
    }
    for i in 0..3 {
        chain.client(i).drain_write_behind();
    }
    let allocated = allocations_in(|| {
        for n in 100..116 {
            step(&mut chain, n);
        }
    });
    assert_eq!(allocated, 0, "a warm driver step touched the allocator");
    for i in 0..3 {
        assert_eq!(chain.client(i).write_behind_depth(), 32, "nothing drained");
        assert_eq!(chain.core(i).counters().processed, 64);
    }
    assert_eq!(chain.sink.delivered(), 64);
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
    store.forget_through(u64::MAX);
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
    assert_eq!(held, store.peek(&key));
}

fn counter(i: u64) -> StateKey {
    StateKey::shared(
        VertexId(1),
        ObjectKey::scoped("pkt_count", ScopeKey::Flow(FlowKey(u128::from(i) % FLOWS))),
    )
}

#[test]
fn store_apply_below_the_floor_allocates_nothing_and_above_it_only_to_grow_the_window() {
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

    // Below the floor: nothing is looked up, nothing is logged.
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

    // Above it every update is logged, in a ring cell under a head in the
    // window indexed by the clock counter: the window's and the ring's
    // doublings are the only allocations.
    let allocated = allocations_in(|| {
        for n in 0..ROUNDS {
            let key = &keys[(n % FLOWS as u64) as usize];
            let clock = Some(Clock::with_root(0, 20_000 + n));
            store.apply(InstanceId(0), key, &increment, clock).unwrap();
        }
    });
    assert_eq!(store.update_log_len(), ROUNDS as usize);
    let budget = 2 * u64::from(ROUNDS.ilog2()) + 4;
    assert!(
        allocated <= budget,
        "{allocated} allocations for {ROUNDS} logged updates, budget {budget}"
    );
}

#[test]
fn a_packets_two_logged_updates_on_one_shard_allocate_nothing_but_the_window() {
    // The NAT's two counters: every packet increments both, on one shard,
    // above the floor. Both updates take ring cells under one head, so the
    // window's and the ring's doublings are still the only allocations.
    let mut store = StoreInstance::new();
    let named = |name| StateKey::shared(VertexId(1), ObjectKey::named(name));
    let (packets, tcp) = (named("pkt_count"), named("tcp_pkt_count"));
    let increment = Operation::Increment(1);
    for key in [&packets, &tcp] {
        store.apply(InstanceId(0), key, &increment, None).unwrap();
    }
    let allocated = allocations_in(|| {
        for n in 1..=ROUNDS {
            let clock = Some(Clock::with_root(0, n));
            for key in [&packets, &tcp] {
                store.apply(InstanceId(0), key, &increment, clock).unwrap();
            }
        }
    });
    assert_eq!(store.update_log_len(), 2 * ROUNDS as usize);
    assert_eq!(store.update_log_widest_packet(), 2);
    let budget = 2 * u64::from(ROUNDS.ilog2()) + 4;
    assert!(
        allocated <= budget,
        "{allocated} allocations for {ROUNDS} packets of two logged updates, budget {budget}"
    );
}

/// `drains` write-behind drains of 32 ops each: 16 packets of two updates,
/// the first at clock counter `first`.
fn drain_rounds(client: &mut StateClient, first: u64, drains: u64) {
    for d in 0..drains {
        for n in 0..16 {
            packet(client, first + d * 16 + n);
        }
        assert_eq!(client.drain_write_behind(), 32);
    }
}

const DRAINS: u64 = 8;
const SHARDS: usize = 4;

/// A client over a `SHARDS`-shard server on `kind` with the floor at the top,
/// as in a run without a fault plan, after every flow has been seen once.
fn drained_client(kind: BackendKind, journaled: bool) -> (Arc<StoreServer>, StateClient) {
    let server = StoreServer::with_backend(SHARDS, kind);
    server.forget_through(u64::MAX);
    for s in 0..SHARDS {
        server.set_shard_journaling(s, journaled);
    }
    let mut client = client(Box::new(Arc::clone(&server)));
    for n in 1..=2 * FLOWS as u64 {
        packet(&mut client, n);
    }
    client.drain_write_behind();
    (server, client)
}

#[test]
fn a_drained_batch_costs_its_result_vector_and_nothing_per_op() {
    // The whole path: client → write-behind buffer → `apply_batch` on the
    // sharded server. Per drain the server allocates the result vector it
    // returns.
    let (server, mut client) = drained_client(BackendKind::Memory, false);
    let allocated = allocations_in(|| drain_rounds(&mut client, 1_000, DRAINS));
    assert!(
        allocated <= DRAINS,
        "{allocated} allocations for {DRAINS} drains of 32 ops"
    );
    assert_eq!(server.update_log_len(), 0);
    assert_eq!(
        server.peek(&StateKey::shared(
            VertexId(1),
            ObjectKey::named("pkt_count")
        )),
        Value::Int(2 * FLOWS as i64 + 16 * DRAINS as i64)
    );
}

#[test]
fn a_batch_past_the_stack_bound_costs_one_routing_buffer() {
    // `apply_batch` writes each op's shard into a routing buffer on the
    // stack; one op more than it holds moves the buffer to the heap, and
    // that is the only allocation the longer batch adds.
    let server = StoreServer::with_backend(SHARDS, BackendKind::Memory);
    server.forget_through(u64::MAX);
    let keys: Vec<StateKey> = (0..FLOWS as u64).map(counter).collect();
    let batch = |len: usize| -> Vec<(StateKey, Operation, Option<Clock>)> {
        (0..len)
            .map(|i| {
                let key = keys[i % keys.len()].clone();
                let clock = Some(Clock::with_root(0, i as u64 + 1));
                (key, Operation::Increment(1), clock)
            })
            .collect()
    };
    let on_stack = batch(StoreServer::ROUTED_ON_STACK);
    let on_heap = batch(StoreServer::ROUTED_ON_STACK + 1);
    // Every key seen once, so no apply below inserts an entry.
    server.apply_batch(InstanceId(0), &on_heap);
    let applied = |ops: &[(StateKey, Operation, Option<Clock>)]| {
        allocations_in(|| {
            let results = server.apply_batch(InstanceId(0), ops);
            assert!(results.iter().all(Result::is_ok));
        })
    };
    // The result vector, then the result vector and the routing buffer.
    assert_eq!(applied(&on_stack), 1);
    assert_eq!(applied(&on_heap), 2);
    assert_eq!(
        server.total_ops(),
        3 * StoreServer::ROUTED_ON_STACK as u64 + 2
    );
}

/// Allocations of one `checkpoint_shard` on `kind`, of a shard holding
/// `entries` objects, each with one increment logged above the floor.
fn checkpoint_allocations(kind: BackendKind, entries: u64) -> u64 {
    let server = StoreServer::with_backend(1, kind);
    server.track_replays();
    for i in 0..entries {
        let key = StateKey::shared(
            VertexId(1),
            ObjectKey::scoped("conn_bytes", ScopeKey::Flow(FlowKey(u128::from(i)))),
        );
        let clock = Some(Clock::with_root(0, i + 1));
        server
            .apply(InstanceId(0), &key, &Operation::Increment(1), clock)
            .unwrap();
    }
    assert_eq!(server.update_log_len(), entries as usize);
    allocations_in(|| assert_eq!(server.checkpoint_shard(0), entries as usize))
}

#[test]
fn a_checkpoint_allocates_per_image_not_per_entry() {
    // The image is encoded straight from the live instance into one buffer,
    // on either medium: no key printed, cloned or sorted per entry, no
    // vector per logged update. What grows with the shard is that buffer,
    // which doubles, so an image 64× larger costs log2(64) = 6 more
    // allocations, plus one for where the two sizes fall between powers of
    // two.
    let doublings = u64::from((4_096u64 / 64).ilog2()) + 1;
    for kind in [BackendKind::Memory, BackendKind::AppendOnly] {
        let small = checkpoint_allocations(kind, 64);
        let large = checkpoint_allocations(kind, 4_096);
        assert!(
            large <= small + doublings,
            "{kind:?}: {large} allocations to checkpoint 4,096 entries against {small} for 64, \
             budget {doublings} more"
        );
    }
}

#[test]
fn a_journaled_drain_costs_its_result_vector_and_nothing_per_op() {
    // The same drains with every shard journaling, on both media. A shard
    // encodes each drain's share into the one frame buffer it reuses and
    // hands the engine the finished frame, which it copies into the file
    // medium's staging buffer, for the persister thread to write, or into
    // an in-memory segment.
    for kind in [BackendKind::Memory, BackendKind::AppendOnly] {
        let (server, mut client) = drained_client(kind, true);
        // Warm-up: as many drains as are measured, of the same ops to the
        // same shards, so every shard's frame buffer has held its largest
        // record and an in-memory segment at least as many bytes as the
        // measured drains add to it.
        drain_rounds(&mut client, 1_000, DRAINS);
        let journaled: usize = (0..SHARDS).map(|s| server.shard_journal_len(s)).sum();
        let allocated = allocations_in(|| drain_rounds(&mut client, 1_000 + 16 * DRAINS, DRAINS));
        // The result vector of each drain. The budget stays per medium: an
        // in-memory segment is a `Vec` that already holds at least half of
        // what it will, so it doubles at most once per shard, where a file
        // shard's staging buffer was reserved at its first append, and the
        // persister empties it.
        let budget = match kind {
            BackendKind::Memory => DRAINS + SHARDS as u64,
            BackendKind::AppendOnly => DRAINS,
        };
        assert!(
            allocated <= budget,
            "{kind:?}: {allocated} allocations for {DRAINS} journaled drains of 32 ops, \
             budget {budget}"
        );
        let now: usize = (0..SHARDS).map(|s| server.shard_journal_len(s)).sum();
        assert!(now > journaled, "{kind:?}: nothing was journaled");
        assert_eq!(
            server.peek(&StateKey::shared(
                VertexId(1),
                ObjectKey::named("pkt_count")
            )),
            Value::Int(2 * FLOWS as i64 + 32 * DRAINS as i64),
            "{kind:?}"
        );
    }
}

#[test]
fn the_packet_log_allocates_a_page_per_256_counters_and_nothing_to_cut_or_sweep() {
    // The root's log as both substrates drive it: one insert per injected
    // packet, then the engine's frontier cut and the simulator root's
    // one-by-one deletes.
    const N: u64 = 4_096;
    const PAGE: u64 = 256;
    let logs = VertexLogs::new(1 << 20);
    let packets = |counters: std::ops::RangeInclusive<u64>| -> Vec<TaggedPacket> {
        counters
            .map(|c| TaggedPacket::new(Packet::builder().id(c).build(), Clock::with_root(0, c)))
            .collect()
    };
    let log_all = |packets: Vec<TaggedPacket>| {
        for tp in packets {
            assert!(logs.log(ROOT_VERTEX).unwrap().insert(tp));
        }
    };
    // Warm-up: the spine of pages grows to the span of N counters, and the
    // cut gives every page back.
    log_all(packets(1..=N));
    assert_eq!(
        logs.log(ROOT_VERTEX).unwrap().truncate_confirmed(N),
        N as usize
    );

    // N warm inserts, N + 1 ..= 2N: pages 16 through 32.
    let warm = packets(N + 1..=2 * N);
    let allocated = allocations_in(|| log_all(warm));
    let pages = logs.log(ROOT_VERTEX).unwrap().resident_pages() as u64;
    assert_eq!(pages, N / PAGE + 1);
    let budget = N / PAGE + 2;
    assert!(
        allocated <= budget,
        "{allocated} allocations for {N} logged packets, budget {budget}"
    );

    // One truncation plus the deletes ahead of it: pages are freed,
    // nothing is taken.
    let allocated = allocations_in(|| {
        let mut log = logs.log(ROOT_VERTEX).unwrap();
        assert_eq!(log.truncate_confirmed(N + N / 2), (N / 2) as usize);
        let swept = (N + N / 2 + 1..=2 * N)
            .filter(|&c| c % 3 == 0 || c > 2 * N - PAGE)
            .filter(|&c| log.remove(&Clock::with_root(0, c)))
            .count();
        assert!(swept > (PAGE as usize), "{swept} swept");
    });
    assert_eq!(allocated, 0, "a frontier cut or a delete allocated");
    assert!(logs.log(ROOT_VERTEX).unwrap().resident_pages() as u64 <= N / 2 / PAGE);
}
