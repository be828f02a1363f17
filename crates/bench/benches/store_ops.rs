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
//! 32-op write-behind batch applied by the server below and above the replay
//! floor — divide those two by 32 for the cost of one drained op.
//!
//! `pool_pop` measures a blocking pop on the NAT's 4,096-port pool at each
//! layer it crosses — the store instance, the sharded server, and a
//! [`StateClient`] that holds a copy of the pool as the engine's NAT client
//! does. Each iteration pops a port and pushes it back, so the pool stays
//! full; the figure is the pair's.

use chc_core::{CostModel, ExternalizationMode, StateClient, StateHandle, StateObjectSpec};
use chc_packet::{FlowKey, Scope, ScopeKey};
use chc_store::store::ApplyResult;
use chc_store::{
    AccessPattern, BackendKind, Clock, InstanceId, ObjectKey, Operation, StateKey, StoreError,
    StoreInstance, StoreServer, TsSnapshot, Value, VertexId,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
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
    client.set_recovery_logging(false);
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
    // the sharded server. Below the floor nothing is looked up or logged;
    // above it every op is logged for duplicate suppression and the log is
    // pruned as the floor trails 1,024 packets behind, as the supervisor's
    // truncation keeps it.
    let object = |i: usize| ObjectKey::scoped("conn_bytes", flow(i).expect("a flow"));
    for (name, logged) in [
        ("drain_x32_below_floor", false),
        ("drain_x32_above_floor", true),
    ] {
        let server = StoreServer::with_backend(4, BackendKind::Memory);
        if !logged {
            server.forget_through(u64::MAX);
        }
        let mut batch: Vec<(StateKey, Operation, Option<Clock>)> = (0..32)
            .map(|i| {
                let key = StateKey::per_flow(VertexId(2), InstanceId(0), object(i));
                (key, Operation::Increment(64), None)
            })
            .collect();
        let mut counter = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                for (_, _, clock) in &mut batch {
                    counter += 1;
                    *clock = Some(Clock::with_root(0, counter));
                }
                if logged {
                    server.forget_through(counter.saturating_sub(1_024));
                }
                server.apply_batch(InstanceId(0), &batch)
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
    server.forget_through(u64::MAX);
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
    server.forget_through(u64::MAX);
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
    client.set_recovery_logging(false);
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

criterion_group!(benches, store_ops, client_access, pool_pop);
criterion_main!(benches);
