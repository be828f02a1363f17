//! The hash a key carries.
//!
//! A [`StateKey`] is hashed once, where it is built, and that word then picks
//! the shard (`hash % shards`), indexes the shard's maps and the client's
//! tables, and names the object in commit tokens. So it must be the same
//! word however the key came to be — the public constructors, the client's
//! [`KeyPrefix`] path, `canonical()`, or a decode from the append-only
//! engine's journal or checkpoint image in a later process: a mismatch would
//! strand an object on the wrong shard after a restart and double-apply on
//! replay. And since one word serves both the shard pick and the table
//! index, it must spread the benchmark's own key population over both.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is part of the case.

use chc_packet::{FlowKey, ScopeKey, TraceConfig, TraceGenerator};
use chc_store::backend::{JournalRecord, StorageBackend};
use chc_store::key::{KeyPrefix, PrehashedHasher};
use chc_store::{
    AppendOnlyBackend, Clock, InstanceId, ObjectKey, Operation, ScratchDir, StateKey, Value,
    VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn draw_scope_key(rng: &mut StdRng) -> Option<ScopeKey> {
    let ip = |rng: &mut StdRng| Ipv4Addr::from(rng.gen_range(0..=u32::MAX));
    Some(match rng.gen_range(0..6u32) {
        0 => return None,
        1 => ScopeKey::Flow(FlowKey(
            (u128::from(rng.gen_range(0..=u64::MAX)) << 64)
                | u128::from(rng.gen_range(0..=u64::MAX)),
        )),
        2 => ScopeKey::HostPair(ip(rng), ip(rng)),
        3 => ScopeKey::Host(ip(rng)),
        4 => ScopeKey::Port(rng.gen_range(0..=u16::MAX)),
        _ => ScopeKey::Global,
    })
}

/// Names on both sides of the hash's 8-byte word boundary.
fn draw_name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=19usize);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
        .collect()
}

fn key(vertex: u32, instance: Option<u32>, name: &str, scope_key: Option<ScopeKey>) -> StateKey {
    let object = ObjectKey::shared_name(Arc::from(name), scope_key);
    match instance {
        Some(i) => StateKey::per_flow(VertexId(vertex), InstanceId(i), object),
        None => StateKey::shared(VertexId(vertex), object),
    }
}

proptest! {
    #[test]
    fn every_way_of_building_a_key_carries_the_same_hash(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let vertex = rng.gen_range(0..8u32);
            let instance = rng.gen_range(0..64u32);
            let name = draw_name(&mut rng);
            let scope_key = draw_scope_key(&mut rng);
            let shared = key(vertex, None, &name, scope_key);
            let hash = shared.shard_hash();

            // The owner is metadata, not identity.
            let per_flow = key(vertex, Some(instance), &name, scope_key);
            prop_assert_eq!(per_flow.shard_hash(), hash);
            prop_assert_eq!(key(vertex, Some(instance + 1), &name, scope_key).shard_hash(), hash);
            prop_assert_eq!(per_flow.canonical().shard_hash(), hash);
            prop_assert_eq!(&per_flow.canonical(), &shared);

            // The client's path: prefix hashed once, scope key per access.
            let prefix = KeyPrefix::new(VertexId(vertex), Arc::from(name.as_str()));
            let from_prefix = prefix.key(Some(InstanceId(instance)), prefix.scoped(scope_key));
            prop_assert_eq!(from_prefix.shard_hash(), hash);
            prop_assert_eq!(&from_prefix, &per_flow);

            // Every part of the identity moves it.
            prop_assert_ne!(key(vertex + 1, None, &name, scope_key).shard_hash(), hash);
            for other in [format!("{name}x"), format!("{name}\0"), name[1..].to_string()] {
                prop_assert_ne!(key(vertex, None, &other, scope_key).shard_hash(), hash, "{:?}", other);
            }
            let mut moved = draw_scope_key(&mut rng);
            while moved == scope_key {
                moved = draw_scope_key(&mut rng);
            }
            prop_assert_ne!(key(vertex, None, &name, moved).shard_hash(), hash, "{:?}", moved);
        }
    }
}

#[test]
fn scope_key_variants_with_the_same_payload_hash_apart() {
    let a = Ipv4Addr::new(0, 0, 0, 80);
    let zero = Ipv4Addr::new(0, 0, 0, 0);
    let same_payload = [
        None,
        Some(ScopeKey::Global),
        Some(ScopeKey::Port(0)),
        Some(ScopeKey::Host(zero)),
        Some(ScopeKey::HostPair(zero, zero)),
        Some(ScopeKey::Flow(FlowKey(0))),
        Some(ScopeKey::Port(80)),
        Some(ScopeKey::Host(a)),
        Some(ScopeKey::HostPair(a, zero)),
        Some(ScopeKey::HostPair(zero, a)),
        Some(ScopeKey::Flow(FlowKey(80))),
        Some(ScopeKey::Flow(FlowKey(80 << 64))),
    ];
    let hashes: BTreeSet<u64> = same_payload
        .iter()
        .map(|sk| key(1, None, "obj", *sk).shard_hash())
        .collect();
    assert_eq!(hashes.len(), same_payload.len());
}

proptest! {
    /// Journal records and a checkpoint image written by one backend value,
    /// decoded by another over the same directory — what a restarted process
    /// does. Every decoded key must carry the hash of the key built live:
    /// the recovered entry is found under a freshly built key, and a
    /// re-issued clocked op is still recognised as a duplicate.
    #[test]
    fn a_key_decoded_from_disk_meets_the_key_built_live(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scratch = ScratchDir::new("key-hash");
        let dir = scratch.path().to_path_buf();
        let requester = InstanceId(3);
        let build = |i: usize, sk: Option<ScopeKey>| {
            // Per-flow and shared keys alike; the name varies in length.
            key((i % 3) as u32, [Some(3), None][i % 2], &format!("obj{}", "x".repeat(i % 11)), sk)
        };
        let scope_keys: Vec<Option<ScopeKey>> = (0..24).map(|_| draw_scope_key(&mut rng)).collect();
        let keys: Vec<StateKey> = scope_keys.iter().enumerate().map(|(i, sk)| build(i, *sk)).collect();
        let clock = |i: usize| Some(Clock::with_root(0, i as u64 + 1));
        let op = Operation::Increment(5);

        let mut backend = AppendOnlyBackend::open(&dir, 1 << 20);
        backend.set_journaling(true);
        let (imaged, journaled) = keys.split_at(rng.gen_range(1..keys.len() - 1));
        for (i, k) in imaged.iter().enumerate() {
            backend.instance_mut().apply(requester, k, &op, clock(i)).unwrap();
        }
        // The first part lives on as a checkpoint image (entries, dedup log)…
        backend.checkpoint();
        // …the rest as journal records: single applies, one batch, a callback.
        let (singles, batch) = journaled.split_at(journaled.len() / 2);
        for (i, k) in journaled.iter().enumerate() {
            backend.instance_mut().apply(requester, k, &op, clock(imaged.len() + i)).unwrap();
        }
        for (i, k) in singles.iter().enumerate() {
            backend.append(JournalRecord::Apply {
                requester,
                key: k.clone(),
                op: op.clone(),
                clock: clock(imaged.len() + i),
            });
        }
        backend.append(JournalRecord::ApplyBatch {
            requester,
            ops: batch
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), op.clone(), clock(imaged.len() + singles.len() + i)))
                .collect(),
        });
        backend.instance_mut().register_callback(&keys[0], InstanceId(9));
        backend.append(JournalRecord::Callback { key: keys[0].clone(), instance: InstanceId(9) });
        drop(backend);

        let mut reopened = AppendOnlyBackend::open(&dir, 1 << 20);
        let stats = reopened.recover();
        prop_assert_eq!(stats.restored_from_checkpoint, imaged.len());
        prop_assert_eq!(stats.replayed_ops, journaled.len());
        let decoded = reopened.instance().entries();
        prop_assert_eq!(decoded.len(), keys.len());
        for (decoded, _, _) in &decoded {
            let live = keys.iter().find(|k| k.canonical() == *decoded).expect("a key we wrote");
            prop_assert_eq!(decoded.shard_hash(), live.shard_hash(), "{}", decoded);
        }
        for (i, sk) in scope_keys.iter().enumerate() {
            let fresh = build(i, *sk);
            prop_assert_eq!(reopened.instance().peek(&fresh), Value::Int(5), "{}", fresh);
            let again = reopened.instance_mut().apply(requester, &fresh, &op, clock(i)).unwrap();
            prop_assert!(again.outcome.emulated, "{} applied twice after the restart", fresh);
        }
        prop_assert_eq!(reopened.instance().callback_registrations(&build(0, scope_keys[0])), vec![InstanceId(9)]);
    }
}

/// The state objects of the benchmark's chain, by vertex (firewall, NAT,
/// load balancer), as `crates/nf` declares them.
const CHAIN_OBJECTS: [(u32, &str); 9] = [
    (1, "blocked_count"),
    (1, "blacklisted"),
    (2, "free_ports"),
    (2, "tcp_pkt_count"),
    (2, "pkt_count"),
    (2, "port_map"),
    (3, "server_conns"),
    (3, "server_bytes"),
    (3, "conn_server"),
];

/// Smallest and largest bucket relative to the mean.
fn spread(buckets: &[usize]) -> (f64, f64) {
    let mean = buckets.iter().sum::<usize>() as f64 / buckets.len() as f64;
    let min = *buckets.iter().min().expect("buckets") as f64;
    let max = *buckets.iter().max().expect("buckets") as f64;
    (min / mean, max / mean)
}

/// The benchmark's own population — the connections of its `steady` (160)
/// and `churn` (4,000) traces at seed 97, times the chain's object names —
/// over the two places the one word is used: `hash % 4` picks the shard, and
/// the low bits of what the prehashed hasher makes of it index a table
/// (checked both over all keys, as in a client table, and inside each shard,
/// whose keys all share `hash % 4`). Bounds are what a uniformly random
/// function gives at these sizes with room to spare (≈ ±4σ): 1,440 keys put
/// 5.6 in a bucket on average, so only "no bucket over 3× the mean" can be
/// asked there; 36,000 keys put 141 in a bucket (σ ≈ 12) and 35 in a
/// per-shard bucket (σ ≈ 6).
#[test]
fn the_benchmark_population_spreads_over_shards_and_buckets() {
    let hasher = BuildHasherDefault::<PrehashedHasher>::default();
    for (connections, shard_factor, bucket_factor, per_shard_factor) in
        [(160usize, 1.2, 3.0, 6.0), (4_000, 1.05, 1.4, 1.8)]
    {
        let trace = TraceGenerator::new(TraceConfig {
            seed: 97,
            connections,
            mean_packets_per_connection: 5,
            ..TraceConfig::default()
        })
        .generate();
        let flows: BTreeSet<FlowKey> = trace.iter().map(|p| p.connection_key()).collect();
        assert!(flows.len() >= connections * 9 / 10, "{} flows", flows.len());
        let keys: Vec<StateKey> = flows
            .iter()
            .flat_map(|flow| {
                CHAIN_OBJECTS
                    .iter()
                    .map(|(v, name)| key(*v, None, name, Some(ScopeKey::Flow(*flow))))
            })
            .collect();

        let mut shards = [0usize; 4];
        let mut buckets = [0usize; 256];
        let mut per_shard = [[0usize; 256]; 4];
        for k in &keys {
            let shard = (k.shard_hash() % 4) as usize;
            let bucket = (hasher.hash_one(k) & 0xff) as usize;
            shards[shard] += 1;
            buckets[bucket] += 1;
            per_shard[shard][bucket] += 1;
        }
        let within = |(min, max): (f64, f64), factor: f64| min >= 1.0 / factor && max <= factor;
        assert!(
            within(spread(&shards), shard_factor),
            "{connections}: shards {shards:?}"
        );
        let (min, max) = spread(&buckets);
        assert!(
            max <= bucket_factor,
            "{connections}: fullest bucket {max:.2}× the mean"
        );
        assert!(
            connections < 1_000 || min >= 1.0 / bucket_factor,
            "{connections}: {min:.2}×"
        );
        for (shard, buckets) in per_shard.iter().enumerate() {
            let (_, max) = spread(buckets);
            assert!(
                max <= per_shard_factor,
                "{connections}: shard {shard} bucket at {max:.2}×"
            );
        }
    }
}
