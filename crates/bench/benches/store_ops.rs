//! Criterion microbenchmark of the datastore (§7.1 "Datastore performance").
//!
//! The paper measures ≈5.1 M ops/s on a 4-thread store instance with 128-bit
//! keys and 64-bit values. `store_ops` measures single-op latency of the
//! sharded [`StoreServer`] (get / set / increment) and of the offloaded
//! operations the NFs rely on, on real threads; keys are built once, outside
//! the timed closures, so the numbers are the store's and not `Arc::from`'s.
//!
//! `client_access` measures what one state access costs on the client side
//! and what the op it buffers costs when drained (DESIGN.md, "What one state
//! access costs"): a cached per-flow read, a buffered increment (over a
//! handle that does nothing, so only the client's share is timed), and a
//! 32-op write-behind batch applied by the server below the replay floor,
//! above a floor that trails the clocks, and above a floor that stays put
//! for a trace's worth of packets — divide each by 32 for the cost of one
//! drained op; above minus below is the duplicate-suppression log's share.
//! The same trailing-floor drain with every shard journaling, in memory and
//! on files, prices the journal append: journaled minus above, over 32, is
//! what journaling adds per drained op. `drain_x32_two_counters_*` drain 16
//! packets' increments of the NAT's two shared counters below, above and on
//! a frozen floor, and journaled above a trailing floor on each medium (what
//! the NAT drains on the `failover` plan); `drain_x32_lb_bytes` drains 32
//! packets' increments of the load balancer's byte counters of four
//! backends on a frozen floor. The unjournaled ones are the cap drains that
//! set `steady`'s tail: a `steady` p99 packet holds
//! two of them, the NAT's second of a ring batch and the load balancer's
//! only one, both on the batch's 32nd packet, and the benchmark's inline
//! passes never raise the floor, so `_floor_frozen` is their exact shape.
//! Both are runs of increments to a few keys, which `apply_batch` applies
//! one run per key. `buffer_drain_x32_*` buffer the same two shapes through
//! a [`StateClient`] on a floor-at-top server and drain them, per op (a
//! cap drain of 32 entries) and with increments folded (a boundary drain of
//! one entry per counter), as a healthy engine run buffers them.
//!
//! `cargo bench -p chc-bench --bench store_ops -- client_access` runs this
//! group alone; any argument filters by `group/name` substring.
//!
//! `pool_pop` measures a blocking pop on the NAT's 4,096-port pool at each
//! layer it crosses — the store instance, the sharded server, and a
//! [`StateClient`] that holds a copy of the pool as the engine's NAT client
//! does. Each iteration pops a port and pushes it back, so the pool stays
//! full; the figure is the pair's.
//!
//! `checkpoint` prices a checkpoint image of a shard of 1,024 objects
//! holding 4,096 logged increments from one root: encoding it from the live
//! instance into a buffer sized as the engine sizes it, decoding it back
//! into an instance, and `checkpoint_shard` end to end on each medium
//! (encode, then an assignment in memory, or a hand-over to the persister
//! on files). On files it also prices what the persister pays per drain:
//! the same checkpoint written by the barrier (tmp write, rename, segment
//! rotation), and 32 KiB of staged records written with one `write_all`.

use chc_core::{CostModel, ExternalizationMode, StateClient, StateHandle, StateObjectSpec};
use chc_nf::{loadbalancer, nat};
use chc_packet::{FlowKey, Scope, ScopeKey};
use chc_store::backend::{decode_image_frame, encode_image_frame, Engine};
use chc_store::store::ApplyResult;
use chc_store::{
    AccessPattern, BackendKind, Clock, InstanceId, JournalRecord, ObjectKey, Operation, ScratchDir,
    StateKey, StoreError, StoreInstance, StoreServer, TsSnapshot, Value, VertexId,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;

const KEYS: usize = 1_000;

fn store_ops(c: &mut Criterion) {
    let server = StoreServer::new(4);
    // Pre-populate 100k-entry-equivalent working set (1k distinct keys here
    // to keep setup fast; sharding behaviour is identical).
    let keys: Vec<StateKey> = (0..KEYS as u16)
        .map(|i| StateKey::shared(VertexId(1), ObjectKey::scoped("bench", ScopeKey::Port(i))))
        .collect();
    for key in &keys {
        server
            .apply(InstanceId(0), key, &Operation::Set(Value::Int(0)), None)
            .unwrap();
    }
    let mut group = c.benchmark_group("store_ops");
    group.sample_size(30);
    let mut i = 0usize;
    group.bench_function("increment", |b| {
        b.iter(|| {
            i = (i + 1) % KEYS;
            black_box(
                server
                    .apply(InstanceId(0), &keys[i], &Operation::Increment(1), None)
                    .unwrap(),
            );
        })
    });
    group.bench_function("get", |b| {
        b.iter(|| {
            i = (i + 1) % KEYS;
            black_box(
                server
                    .apply(InstanceId(0), &keys[i], &Operation::Get, None)
                    .unwrap(),
            );
        })
    });
    group.bench_function("set", |b| {
        b.iter(|| {
            i = (i + 1) % KEYS;
            black_box(
                server
                    .apply(
                        InstanceId(0),
                        &keys[i],
                        &Operation::Set(Value::Int(i as i64)),
                        None,
                    )
                    .unwrap(),
            );
        })
    });
    group.bench_function("pop_push", |b| {
        let pool = StateKey::shared(VertexId(2), ObjectKey::named("ports"));
        server
            .apply(
                InstanceId(0),
                &pool,
                &Operation::PushBack(Value::Int(1)),
                None,
            )
            .unwrap();
        b.iter(|| {
            let v = server
                .apply(InstanceId(0), &pool, &Operation::PopFront, None)
                .unwrap();
            server
                .apply(
                    InstanceId(0),
                    &pool,
                    &Operation::PushBack(v.outcome.returned),
                    None,
                )
                .unwrap();
        })
    });
    group.finish();
}

/// A store that accepts everything and does nothing: what is left of an
/// access is the client's own work.
struct NullStore;

impl StateHandle for NullStore {
    fn apply(
        &self,
        _: InstanceId,
        _: &StateKey,
        _: &Operation,
        _: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        Err(StoreError::Unavailable)
    }
    fn apply_batch(
        &self,
        _: InstanceId,
        _: &[(StateKey, Operation, Option<Clock>)],
    ) -> Vec<Result<ApplyResult, StoreError>> {
        Vec::new()
    }
    fn register_callback(&self, _: &StateKey, _: InstanceId) {}
    fn release_ownership(&self, _: &StateKey, _: InstanceId) -> Result<(), StoreError> {
        Ok(())
    }
    fn acquire_ownership(&self, _: &StateKey, _: InstanceId) -> Result<(), StoreError> {
        Ok(())
    }
    fn owner_of(&self, _: &StateKey) -> Option<InstanceId> {
        None
    }
    fn nondet(&self, _: Clock, _: u32, candidate: Value) -> Value {
        candidate
    }
    fn ts_snapshot(&self) -> TsSnapshot {
        TsSnapshot::default()
    }
    fn is_failed(&self) -> bool {
        false
    }
}

/// The flows of the benchmark's `steady` workload, in number.
const FLOWS: usize = 160;

fn flow(i: usize) -> Option<ScopeKey> {
    // Spread over both words of the key, as 5-tuples are.
    let i = i as u128;
    Some(ScopeKey::Flow(FlowKey((i << 96) | (i << 48) | 6)))
}

/// Where a drain finds the replay floor.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Floor {
    /// At the top: nothing is logged.
    Top,
    /// This many packets behind the newest clock.
    Trailing(u64),
    /// Raised past every clock once per this many packets, and otherwise
    /// left where it is.
    Frozen(u64),
}

/// What one write-behind drain holds.
#[derive(Clone, Copy)]
enum Drain {
    /// 32 packets' increments of one per-flow object, a flow each.
    PerFlow,
    /// 16 packets' increments of the NAT's two shared counters.
    TwoCounters,
    /// 32 packets' increments of the load balancer's byte counter of the
    /// backend each packet goes to, over four backends.
    LbBytes,
}

fn client_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_access");
    group.sample_size(30);

    // Configured like the engine's instance clients.
    let mut client = StateClient::new(
        VertexId(2),
        InstanceId(0),
        Box::new(NullStore),
        ExternalizationMode::ExternalizedCachedNonBlocking,
        CostModel::default(),
        &[StateObjectSpec::per_flow(
            "conn_bytes",
            AccessPattern::ReadWriteOften,
        )],
    );
    client.set_write_behind(true, 32);
    let packet_done = |client: &mut StateClient| {
        let _ = client.take_charge();
        let _ = client.take_packet_tokens();
    };
    for i in 0..FLOWS {
        client.update(
            "conn_bytes",
            flow(i),
            Operation::Increment(64),
            Clock::with_root(0, 1),
        );
        packet_done(&mut client);
    }
    let mut n = 0usize;
    group.bench_function("cached_read", |b| {
        b.iter(|| {
            n += 1;
            let clock = Clock::with_root(0, n as u64);
            let v = client.read("conn_bytes", flow(n % FLOWS), clock);
            packet_done(&mut client);
            v
        })
    });
    group.bench_function("buffered_increment", |b| {
        b.iter(|| {
            n += 1;
            let clock = Clock::with_root(0, n as u64);
            let v = client.update(
                "conn_bytes",
                flow(n % FLOWS),
                Operation::Increment(64),
                clock,
            );
            packet_done(&mut client);
            v
        })
    });

    // The other end of a buffered op: one write-behind drain of 32 ops on
    // the sharded server. Below the floor nothing is looked up or logged.
    // Above it every op is logged for duplicate suppression, and the log is
    // pruned either as the floor trails 1,024 packets behind, as the
    // supervisor's truncation keeps it, or only once per 65,536 packets: a
    // frozen floor, as in an inline pass over a trace of that length and on
    // every packet after a failover. The journaled drains trail the floor
    // too, with every shard's journal on, as a faulted run has them. The
    // two-counter drains are the shape of `steady`'s cap drains: 16 packets
    // of the NAT's two shared counters, two ops under each packet's clock;
    // journaled, they are what the NAT drains on the `failover` plan.
    let object = |i: usize| ObjectKey::scoped("conn_bytes", flow(i).expect("a flow"));
    let trailing = Floor::Trailing(1_024);
    for (name, floor, journal, shape) in [
        ("drain_x32_below_floor", Floor::Top, None, Drain::PerFlow),
        ("drain_x32_above_floor", trailing, None, Drain::PerFlow),
        (
            "drain_x32_floor_frozen",
            Floor::Frozen(65_536),
            None,
            Drain::PerFlow,
        ),
        (
            "drain_x32_journaled_memory",
            trailing,
            Some(BackendKind::Memory),
            Drain::PerFlow,
        ),
        (
            "drain_x32_journaled_append_only",
            trailing,
            Some(BackendKind::AppendOnly),
            Drain::PerFlow,
        ),
        (
            "drain_x32_two_counters_below_floor",
            Floor::Top,
            None,
            Drain::TwoCounters,
        ),
        (
            "drain_x32_two_counters_above_floor",
            trailing,
            None,
            Drain::TwoCounters,
        ),
        (
            "drain_x32_two_counters_floor_frozen",
            Floor::Frozen(65_536),
            None,
            Drain::TwoCounters,
        ),
        (
            "drain_x32_two_counters_journaled_memory",
            trailing,
            Some(BackendKind::Memory),
            Drain::TwoCounters,
        ),
        (
            "drain_x32_two_counters_journaled_append_only",
            trailing,
            Some(BackendKind::AppendOnly),
            Drain::TwoCounters,
        ),
        (
            "drain_x32_lb_bytes",
            Floor::Frozen(65_536),
            None,
            Drain::LbBytes,
        ),
    ] {
        let server = StoreServer::with_backend(4, journal.unwrap_or(BackendKind::Memory));
        if floor != Floor::Top {
            server.track_replays();
        }
        if journal.is_some() {
            for s in 0..server.shard_count() {
                server.set_shard_journaling(s, true);
            }
        }
        let mut batch: Vec<(StateKey, Operation, Option<Clock>)> = (0..32)
            .map(|i| match shape {
                Drain::PerFlow => {
                    let key = StateKey::per_flow(VertexId(2), InstanceId(0), object(i));
                    (key, Operation::Increment(64), None)
                }
                Drain::TwoCounters => {
                    let name = [nat::PKT_COUNT, nat::TCP_PKT_COUNT][i % 2];
                    let key = StateKey::shared(VertexId(1), ObjectKey::named(name));
                    (key, Operation::Increment(1), None)
                }
                Drain::LbBytes => {
                    let backend = Ipv4Addr::new(10, 99, 0, 1 + (i % 4) as u8);
                    let object =
                        ObjectKey::scoped(loadbalancer::SERVER_BYTES, ScopeKey::Host(backend));
                    let key = StateKey::shared(VertexId(2), object);
                    (key, Operation::Increment(1_000), None)
                }
            })
            .collect();
        let ops_per_packet = match shape {
            Drain::PerFlow | Drain::LbBytes => 1,
            Drain::TwoCounters => 2,
        };
        let mut counter = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                if matches!(floor, Floor::Frozen(stretch) if counter.is_multiple_of(stretch)) {
                    server.forget_through(counter);
                }
                for (i, (_, _, clock)) in batch.iter_mut().enumerate() {
                    if i % ops_per_packet == 0 {
                        counter += 1;
                    }
                    *clock = Some(Clock::with_root(0, counter));
                }
                if let Floor::Trailing(lag) = floor {
                    server.forget_through(counter.saturating_sub(lag));
                }
                server.apply_batch(InstanceId(0), &batch)
            })
        });
    }

    // The same two shapes from the client's side, on a floor-at-top server
    // as in a healthy engine run: every packet's updates buffered through
    // `StateClient::update`, then the ring-batch boundary drain. Per op,
    // the 32nd buffered op fills the buffer and drains 32 entries in place;
    // folded, the boundary drains one entry per counter.
    for (name, shape, fold) in [
        (
            "buffer_drain_x32_two_counters_per_op",
            Drain::TwoCounters,
            false,
        ),
        (
            "buffer_drain_x32_two_counters_folded",
            Drain::TwoCounters,
            true,
        ),
        ("buffer_drain_x32_lb_bytes_per_op", Drain::LbBytes, false),
        ("buffer_drain_x32_lb_bytes_folded", Drain::LbBytes, true),
    ] {
        let server = StoreServer::with_backend(4, BackendKind::Memory);
        let two_counters = matches!(shape, Drain::TwoCounters);
        let declare = |name, scope| {
            StateObjectSpec::cross_flow(name, scope, AccessPattern::WriteMostlyReadRarely)
        };
        let objects = if two_counters {
            vec![
                declare(nat::PKT_COUNT, Scope::Global),
                declare(nat::TCP_PKT_COUNT, Scope::Global),
            ]
        } else {
            vec![declare(loadbalancer::SERVER_BYTES, Scope::DstIp)]
        };
        let mut client = StateClient::new(
            VertexId(1),
            InstanceId(0),
            Box::new(Arc::clone(&server)),
            ExternalizationMode::ExternalizedCachedNonBlocking,
            CostModel::default(),
            &objects,
        );
        client.set_write_behind(true, 32);
        if fold {
            client.declare_ordered_writer();
        }
        let mut counter = 0u64;
        let mut packet = |client: &mut StateClient| {
            counter += 1;
            let clock = Clock::with_root(0, counter);
            if two_counters {
                client.update(nat::PKT_COUNT, None, Operation::Increment(1), clock);
                client.update(nat::TCP_PKT_COUNT, None, Operation::Increment(1), clock);
            } else {
                let backend = Ipv4Addr::new(10, 99, 0, 1 + (counter % 4) as u8);
                let at = Some(ScopeKey::Host(backend));
                let bytes = Operation::Increment(1_000);
                client.update(loadbalancer::SERVER_BYTES, at, bytes, clock);
            }
            let _ = client.take_charge();
            let _ = client.take_packet_tokens();
        };
        let packets = if two_counters { 16 } else { 32 };
        group.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..packets {
                    packet(&mut client);
                }
                client.drain_write_behind()
            })
        });
    }
    group.finish();
}

fn pool_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_pop");
    group.sample_size(30);
    let pool = || Value::list_of_ints(20_000..24_096);
    let key = StateKey::shared(VertexId(2), ObjectKey::named("free_ports"));
    let who = InstanceId(0);
    // No fault plan, no replay: the floor is at the top and nothing is
    // logged, as in a healthy engine run.
    let mut n = 0u64;
    let mut clock = move || {
        n += 1;
        Clock::with_root(0, n)
    };

    let mut instance = StoreInstance::new();
    instance.forget_through(u64::MAX);
    instance
        .apply(who, &key, &Operation::Set(pool()), None)
        .unwrap();
    group.bench_function("store_instance", |b| {
        b.iter(|| {
            let popped = instance
                .apply(who, &key, &Operation::PopFront, Some(clock()))
                .unwrap();
            let port = Operation::PushBack(popped.outcome.returned);
            instance.apply(who, &key, &port, Some(clock())).unwrap()
        })
    });

    let server = StoreServer::with_backend(4, BackendKind::Memory);
    server
        .apply(who, &key, &Operation::Set(pool()), None)
        .unwrap();
    group.bench_function("store_server", |b| {
        b.iter(|| {
            let popped = server
                .apply(who, &key, &Operation::PopFront, Some(clock()))
                .unwrap();
            let port = Operation::PushBack(popped.outcome.returned);
            server.apply(who, &key, &port, Some(clock())).unwrap()
        })
    });

    // Configured like the engine's NAT client: the pool is write/read-often
    // and this instance's alone, so the client holds a copy of it. The push
    // is buffered and the next pop drains it ahead of itself.
    let server = StoreServer::with_backend(4, BackendKind::Memory);
    let mut client = StateClient::new(
        VertexId(2),
        who,
        Box::new(Arc::clone(&server)),
        ExternalizationMode::ExternalizedCachedNonBlocking,
        CostModel::default(),
        &[StateObjectSpec::cross_flow(
            "free_ports",
            Scope::Global,
            AccessPattern::ReadWriteOften,
        )],
    );
    client.set_write_behind(true, 32);
    client.update("free_ports", None, Operation::Set(pool()), clock());
    group.bench_function("state_client", |b| {
        b.iter(|| {
            let port = client.update("free_ports", None, Operation::PopFront, clock());
            client.update("free_ports", None, Operation::PushBack(port), clock());
            let _ = client.take_charge();
            let _ = client.take_packet_tokens();
        })
    });
    group.finish();
}

fn checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(30);
    let key = |i: usize| {
        StateKey::shared(
            VertexId(2),
            ObjectKey::scoped("conn_bytes", flow(i).expect("a flow")),
        )
    };
    // The same image once per medium: the difference between the two
    // checkpoints is what a file costs.
    let mut instance = StoreInstance::new();
    let media = [BackendKind::Memory, BackendKind::AppendOnly].map(|kind| {
        let server = StoreServer::with_backend(1, kind);
        server.track_replays();
        server
    });
    for n in 0..4_096 {
        let (k, op) = (key(n % 1_024), Operation::Increment(64));
        let clock = Some(Clock::with_root(0, n as u64 + 1));
        instance.apply(InstanceId(0), &k, &op, clock).unwrap();
        for server in &media {
            server.apply(InstanceId(0), &k, &op, clock).unwrap();
        }
    }
    let frame = encode_image_frame(&instance, &mut Vec::new()).to_vec();
    group.bench_function("image_encode_1k", |b| {
        b.iter(|| encode_image_frame(&instance, &mut Vec::with_capacity(frame.len())).len())
    });
    group.bench_function("image_decode_1k", |b| {
        b.iter(|| decode_image_frame(&frame, &|_| None).map(|s| s.len()))
    });
    for (name, server) in ["checkpoint_memory_1k", "checkpoint_append_only_1k"]
        .into_iter()
        .zip(&media)
    {
        group.bench_function(name, |b| b.iter(|| server.checkpoint_shard(0)));
    }
    // On files a checkpoint only stages its image; the persister writes it.
    // The same checkpoint followed by the barrier, which runs that drain on
    // this thread: tmp write, rename, segment rotation.
    group.bench_function("checkpoint_append_only_1k_persisted", |b| {
        b.iter(|| {
            media[1].checkpoint_shard(0);
            media[1].persist();
        })
    });
    // What a drain of frames costs: 32 KiB of staged records, a few
    // milliseconds of one shard's journal on `failover_durable`, written
    // with one `write_all`. Every 32nd drain also rotates the segment (an
    // empty image), so the file stays under 1 MiB.
    let scratch = ScratchDir::new("bench-persist");
    let mut engine = Engine::open(scratch.path(), usize::MAX);
    let record = JournalRecord::Apply {
        requester: InstanceId(0),
        key: key(0),
        op: Operation::Increment(64),
        clock: Some(Clock::with_root(0, 1)),
    }
    .to_frame();
    let (frames, empty, mut drains) = ((32 << 10) / record.len(), StoreInstance::new(), 0u32);
    group.bench_function("persist_drain_32k", |b| {
        b.iter(|| {
            for _ in 0..frames {
                engine.append(&record);
            }
            drains += 1;
            if drains % 32 == 0 {
                engine.checkpoint(&empty);
            }
            engine.persist();
        })
    });
    group.finish();
}

criterion_group!(benches, store_ops, client_access, pool_pop, checkpoint);
criterion_main!(benches);
