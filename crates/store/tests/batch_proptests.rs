//! Property tests for the batched store fast path: for arbitrary shard
//! counts, operation sequences, key spreads, clock tags (including
//! duplicates) and batch partitions, [`StoreServer::apply_batch`] must be
//! observationally indistinguishable from the same ops applied sequentially —
//!
//! * identical per-op results (outcome, callback fan-out, new value),
//! * identical per-shard op counts (`ops_per_shard`),
//! * identical final store dumps, and
//! * identical dumps after crashing every shard and rebuilding it from the
//!   journal (`recover_shard`), i.e. a batch journal record replays exactly
//!   like the equivalent run of single-op records.
//!
//! Batches run from one op (the delegating fast path) to past
//! [`StoreServer::ROUTED_ON_STACK`], where the routing buffer moves to the
//! heap. Every op is then re-issued, and each answer — emulated or applied
//! again — must match too.
//!
//! Two scenario shapes are drawn. The *spread* shape scatters random ops
//! over 16–32 keys. The *run* shape is a write-behind drain: packets of two
//! or three ops under one clock, as the NAT issues them, ≥ 75 % of them
//! `Increment`s of one to four hot keys, so batches hold runs (repeated
//! increments of one key that the server applies together). Between them
//! sit redelivered packets (duplicate clocks inside a batch), a `Set` or
//! `PopFront` on a hot key, ops on a per-flow key another instance owns, and
//! a hot key with a callback subscriber.
//!
//! The properties run as a matrix over both storage media — the servers
//! under comparison are built per [`BackendKind`], including a cross-medium
//! case (sequential in memory vs batched on files), so batching and
//! durability cannot drift apart on either medium.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is part of the case.

use chc_store::store::ApplyResult;
use chc_store::{
    BackendKind, Clock, Condition, InstanceId, ObjectKey, Operation, StateKey, StoreError,
    StoreServer, Value, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The shard counts a case draws from: one shard, powers of two and odd
/// counts, so `hash % shards` takes every shape.
const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 4, 7];

/// The longest batch a case submits: past the stack-routing bound.
const LONGEST_BATCH: usize = StoreServer::ROUTED_ON_STACK + 44;

fn key(i: usize) -> StateKey {
    StateKey::shared(VertexId((i % 3) as u32), ObjectKey::named(&format!("k{i}")))
}

fn random_op(rng: &mut StdRng) -> Operation {
    match rng.gen_range(0..8u32) {
        0 => Operation::Get,
        1 => Operation::Set(Value::Int(rng.gen_range(-50..50))),
        2 => Operation::Delete,
        3 => Operation::Increment(rng.gen_range(1..5)),
        4 => Operation::Decrement(rng.gen_range(1..5)),
        5 => Operation::PushBack(Value::Int(rng.gen_range(0..100))),
        6 => Operation::PopFront,
        _ => Operation::CompareAndUpdate {
            condition: Condition::Equals(Value::Int(rng.gen_range(-2..3))),
            new: Value::Int(rng.gen_range(0..10)),
        },
    }
}

/// The instance every scenario submits as.
const REQUESTER: InstanceId = InstanceId(7);

/// The instance that owns the run shape's foreign per-flow key.
const OTHER: InstanceId = InstanceId(3);

/// A randomized op sequence plus the shard count of both servers and the
/// partition that the batched server submits it in. Clock counters repeat
/// sometimes, so duplicate suppression fires in both submission modes.
struct Scenario {
    shards: usize,
    ops: Vec<(StateKey, Operation, Option<Clock>)>,
    batch_ends: Vec<usize>,
    checkpoint_after_batch: Option<usize>,
    /// Keys given a callback subscriber before the first op.
    subscribed: Vec<StateKey>,
    /// Per-flow keys [`OTHER`] sets before the first op.
    foreign: Vec<StateKey>,
}

/// Cut `n` ops into batches: mostly drain-sized, some of one op, and in
/// `long` cases one past the stack-routing bound.
fn partition(rng: &mut StdRng, n: usize, long: bool) -> Vec<usize> {
    let mut batch_ends = Vec::new();
    let mut at = 0usize;
    while at < n {
        let len = match rng.gen_range(0..8u32) {
            0 if long => rng.gen_range(StoreServer::ROUTED_ON_STACK + 1..=LONGEST_BATCH),
            1 => 1,
            2 => rng.gen_range(2..=64),
            _ => 32,
        };
        at = (at + len).min(n);
        batch_ends.push(at);
    }
    batch_ends
}

impl Scenario {
    /// The run shape: see the module documentation.
    fn runs(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let shards = SHARD_COUNTS[rng.gen_range(0..SHARD_COUNTS.len())];
        let hot: Vec<StateKey> = (0..rng.gen_range(1..=4usize)).map(key).collect();
        let foreign = StateKey::per_flow(VertexId(1), OTHER, ObjectKey::named("conn"));
        // The same object under the requester's own instance id, and a
        // per-flow object the requester claims on first touch.
        let foreign_as_mine = StateKey::per_flow(VertexId(1), REQUESTER, ObjectKey::named("conn"));
        let mine = StateKey::per_flow(VertexId(1), REQUESTER, ObjectKey::named("mine"));
        let subscribed = rng
            .gen_bool(0.5)
            .then(|| hot[rng.gen_range(0..hot.len())].clone());
        // A few drains in most cases, and in some enough ops for a batch
        // past the stack-routing bound.
        let most = if rng.gen_bool(0.1) { 160 } else { 48 };
        let packets = rng.gen_range(8..=most);
        let mut ops: Vec<(StateKey, Operation, Option<Clock>)> = Vec::new();
        for counter in 1..=packets {
            // A redelivered packet: an earlier packet's ops again, clock and
            // all, often inside the same batch.
            if counter > 2 && rng.gen_bool(0.15) {
                let from = ops.len().saturating_sub(rng.gen_range(1..=12));
                let clock = ops[from].2;
                let again: Vec<_> = ops[from..]
                    .iter()
                    .filter(|(_, _, c)| *c == clock)
                    .cloned()
                    .collect();
                ops.extend(again);
            }
            let clock = (!rng.gen_bool(0.05)).then(|| Clock::with_root(0, counter));
            for _ in 0..rng.gen_range(2..=3) {
                let hot_key = hot[rng.gen_range(0..hot.len())].clone();
                let (k, op) = match rng.gen_range(0..100u32) {
                    0..=4 => (hot_key, Operation::Set(Value::Int(rng.gen_range(0..9)))),
                    5..=7 => (hot_key, Operation::PopFront),
                    8..=9 => (foreign.clone(), Operation::Increment(1)),
                    10..=11 => (foreign_as_mine.clone(), Operation::Increment(1)),
                    12..=13 => (mine.clone(), Operation::Increment(1)),
                    14..=15 => (key(40 + rng.gen_range(0..4usize)), Operation::Increment(1)),
                    _ => (hot_key, Operation::Increment(rng.gen_range(1..3))),
                };
                ops.push((k, op, clock));
            }
        }
        let long = ops.len() > StoreServer::ROUTED_ON_STACK;
        let batch_ends = partition(&mut rng, ops.len(), long);
        let checkpoint_after_batch = rng
            .gen_bool(0.5)
            .then(|| rng.gen_range(0..batch_ends.len()));
        Scenario {
            shards,
            ops,
            batch_ends,
            checkpoint_after_batch,
            subscribed: subscribed.into_iter().collect(),
            foreign: vec![foreign],
        }
    }

    /// The spread shape: see the module documentation.
    fn spread(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let shards = SHARD_COUNTS[rng.gen_range(0..SHARD_COUNTS.len())];
        let keys = rng.gen_range(16..=32usize);
        // Short sequences in most cases, and in a quarter of them one long
        // enough to hold a batch past the stack-routing bound.
        let n = if rng.gen_bool(0.25) {
            rng.gen_range(StoreServer::ROUTED_ON_STACK + 1..=LONGEST_BATCH)
        } else {
            rng.gen_range(1..=64usize)
        };
        let mut counter = 0u64;
        let ops: Vec<(StateKey, Operation, Option<Clock>)> = (0..n)
            .map(|_| {
                let k = key(rng.gen_range(0..keys));
                let op = random_op(&mut rng);
                // Mostly fresh clocks, some repeats (duplicate-suppressed
                // redeliveries), some untagged ops.
                let clock = match rng.gen_range(0..10u32) {
                    0 => None,
                    1 if counter > 0 => Some(Clock::with_root(0, rng.gen_range(0..counter))),
                    _ => {
                        counter += 1;
                        Some(Clock::with_root(0, counter))
                    }
                };
                (k, op, clock)
            })
            .collect();
        // Random batch partition: cut points anywhere, so batches span one
        // op (the delegating fast path) up to the whole sequence, and a
        // long sequence often holds one past the stack-routing bound.
        let mut batch_ends = Vec::new();
        let mut at = 0usize;
        while at < n {
            let left = n - at;
            let len = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(1..=LONGEST_BATCH),
                1 if left > StoreServer::ROUTED_ON_STACK => {
                    rng.gen_range(StoreServer::ROUTED_ON_STACK + 1..=left)
                }
                _ => rng.gen_range(1..=8),
            };
            at = (at + len).min(n);
            batch_ends.push(at);
        }
        let checkpoint_after_batch = if rng.gen_bool(0.5) {
            Some(rng.gen_range(0..batch_ends.len()))
        } else {
            None
        };
        Scenario {
            shards,
            ops,
            batch_ends,
            checkpoint_after_batch,
            subscribed: Vec::new(),
            foreign: Vec::new(),
        }
    }

    /// A journaled server on `kind` with this scenario's subscribers and
    /// foreign keys in place.
    fn server(&self, kind: BackendKind) -> Arc<StoreServer> {
        let server = journaled_server(self.shards, kind);
        for k in &self.subscribed {
            server.register_callback(k, InstanceId(9));
        }
        for k in &self.foreign {
            server
                .apply(OTHER, k, &Operation::Set(Value::Int(1)), None)
                .unwrap();
        }
        server
    }

    /// Every op sequentially, as single applies.
    fn apply_sequentially(&self, server: &StoreServer) -> Vec<ApplyOutcome> {
        self.ops
            .iter()
            .map(|(k, op, clock)| server.apply(REQUESTER, k, op, *clock))
            .collect()
    }

    /// Every op in this scenario's batches, checkpointing every shard after
    /// the chosen one.
    fn apply_batched(&self, server: &StoreServer) -> Vec<ApplyOutcome> {
        let mut results = Vec::new();
        let mut start = 0usize;
        for (b, &end) in self.batch_ends.iter().enumerate() {
            results.extend(server.apply_batch(REQUESTER, &self.ops[start..end]));
            if self.checkpoint_after_batch == Some(b) {
                for s in 0..self.shards {
                    server.checkpoint_shard(s);
                }
            }
            start = end;
        }
        results
    }
}

type ApplyOutcome = Result<ApplyResult, StoreError>;

/// A journaled server that suppresses re-issued clocks, as a replay
/// source's does.
fn journaled_server(shards: usize, kind: BackendKind) -> Arc<StoreServer> {
    let server = StoreServer::with_backend(shards, kind);
    server.track_replays();
    for s in 0..shards {
        server.set_shard_journaling(s, true);
    }
    server
}

/// A shard-order-independent, comparable image of a server's contents.
fn sorted_dump(server: &StoreServer) -> Vec<String> {
    let mut dump: Vec<String> = server
        .dump()
        .into_iter()
        .map(|entry| format!("{entry:?}"))
        .collect();
    dump.sort();
    dump
}

/// One equivalence case: sequential submission on a `seq_kind` server vs
/// batched submission on a `bat_kind` server, then every op re-issued the
/// same way, then crash-and-recover both. The shim's `prop_assert*` macros
/// are plain asserts, so this helper runs inside any proptest body.
fn equivalence_case(scenario: Scenario, seq_kind: BackendKind, bat_kind: BackendKind) {
    let seq = scenario.server(seq_kind);
    let bat = scenario.server(bat_kind);

    // Per-op results: outcome, callback fan-out and new value, in
    // submission order.
    assert_eq!(
        scenario.apply_sequentially(&seq),
        scenario.apply_batched(&bat)
    );
    // Logical op accounting matches shard by shard (batch entries count
    // per op, on the shard the op was routed to).
    assert_eq!(seq.ops_per_shard(), bat.ops_per_shard());
    // Same store image.
    assert_eq!(sorted_dump(&seq), sorted_dump(&bat));

    // Every op again: each clocked update is now a duplicate, answered from
    // the log each side built, and everything else applies a second time.
    assert_eq!(
        scenario.apply_sequentially(&seq),
        scenario.apply_batched(&bat)
    );
    assert_eq!(seq.ops_per_shard(), bat.ops_per_shard());
    assert_eq!(sorted_dump(&seq), sorted_dump(&bat));

    // Crash every shard of both servers and rebuild from the journals:
    // one ApplyBatch record must replay exactly like the run of
    // single-op Apply records, metadata included — on either engine.
    let image = sorted_dump(&seq);
    for s in 0..scenario.shards {
        seq.crash_shard(s);
        bat.crash_shard(s);
        seq.recover_shard(s);
        bat.recover_shard(s);
    }
    assert_eq!(sorted_dump(&seq), image.clone());
    assert_eq!(sorted_dump(&bat), image);
}

proptest! {
    /// Batched submission returns the same per-op results and leaves the
    /// same store image as sequential submission, and both images survive a
    /// crash of every shard followed by journal recovery — with or without
    /// a mid-stream shard checkpoint cutting the journal. Memory medium.
    #[test]
    fn apply_batch_is_equivalent_to_sequential_apply(seed in any::<u64>()) {
        equivalence_case(Scenario::spread(seed), BackendKind::Memory, BackendKind::Memory);
    }

    /// The same equivalence on the file medium: batching, durable
    /// journaling and checkpoint compaction compose.
    #[test]
    fn apply_batch_is_equivalent_on_append_only(seed in any::<u64>()) {
        equivalence_case(Scenario::spread(seed), BackendKind::AppendOnly, BackendKind::AppendOnly);
    }

    /// Cross-medium: a batched server on files converges to the same image
    /// as a sequential server in memory, so the media cannot drift from
    /// each other either.
    #[test]
    fn append_only_batches_match_memory_sequential(seed in any::<u64>()) {
        equivalence_case(Scenario::spread(seed), BackendKind::Memory, BackendKind::AppendOnly);
    }

    /// Drain-shaped batches full of runs answer, count, dump, re-answer and
    /// recover exactly as the same ops applied one by one. Memory medium.
    #[test]
    fn batches_of_runs_are_equivalent_to_sequential_apply(seed in any::<u64>()) {
        equivalence_case(Scenario::runs(seed), BackendKind::Memory, BackendKind::Memory);
    }

    /// The same for runs on the file medium, against sequential applies in
    /// memory: runs, journaling and compaction compose across media.
    #[test]
    fn batches_of_runs_on_append_only_match_memory_sequential(seed in any::<u64>()) {
        equivalence_case(Scenario::runs(seed), BackendKind::Memory, BackendKind::AppendOnly);
    }

    /// Journal frames name by id the entries replay holds before them — the
    /// image's, or those an earlier frame created — and by key the ones they
    /// create. Batches that keep adding keys while they update older ones,
    /// with checkpoints at random (or none, so one restart replays a suffix
    /// alone), restart every shard twice on each medium; after each restart
    /// the dump, `TS` and the answer to every op re-issued equal a server's
    /// that took the same ops one by one and never crashed.
    #[test]
    fn id_named_frames_restart_like_sequential_applies(seed in any::<u64>()) {
        for kind in [BackendKind::Memory, BackendKind::AppendOnly] {
            let mut rng = StdRng::seed_from_u64(seed);
            let shards = SHARD_COUNTS[rng.gen_range(0..SHARD_COUNTS.len())];
            let bat = journaled_server(shards, kind);
            let seq = StoreServer::with_backend(shards, BackendKind::Memory);
            seq.track_replays();
            let mut issued: Vec<(StateKey, Operation, Option<Clock>)> = Vec::new();
            let mut keys = 1usize;
            for step in 0..rng.gen_range(6..12u64) {
                keys += rng.gen_range(0..6usize);
                let ops: Vec<_> = (0..rng.gen_range(2..40))
                    .map(|_| {
                        let counter = step * 8 + rng.gen_range(1..12u64);
                        let clock = rng.gen_bool(0.85).then(|| Clock::with_root(0, counter));
                        (key(rng.gen_range(0..keys)), random_op(&mut rng), clock)
                    })
                    .collect();
                let want: Vec<_> = ops.iter().map(|(k, op, c)| seq.apply(REQUESTER, k, op, *c)).collect();
                prop_assert_eq!(bat.apply_batch(REQUESTER, &ops), want, "{:?}", kind);
                issued.extend(ops);
                if rng.gen_bool(0.2) {
                    bat.checkpoint_shard(rng.gen_range(0..shards));
                }
                if step % 3 == 2 {
                    for s in 0..shards {
                        let stats = bat.restart_shard(s);
                        prop_assert!(!stats.unknown_entry, "{:?}: {:?}", kind, stats);
                    }
                    prop_assert_eq!(sorted_dump(&bat), sorted_dump(&seq), "{:?}", kind);
                    prop_assert_eq!(bat.ts_snapshot(), seq.ts_snapshot(), "{:?}", kind);
                }
            }
            for (k, op, clock) in &issued {
                prop_assert_eq!(bat.apply(REQUESTER, k, op, *clock), seq.apply(REQUESTER, k, op, *clock));
            }
        }
    }

    /// Duplicate-suppression clocks survive the batch path: redelivering an
    /// already-applied clock inside a batch is a no-op, exactly as it is on
    /// the sequential path. Runs on both media.
    #[test]
    fn batched_redelivery_is_suppressed(seed in any::<u64>()) {
        for kind in [BackendKind::Memory, BackendKind::AppendOnly] {
            let mut rng = StdRng::seed_from_u64(seed);
            let server = journaled_server(4, kind);
            let requester = InstanceId(1);
            let k = key(rng.gen_range(0..4));
            let n = rng.gen_range(1..=10u64);
            let ops: Vec<(StateKey, Operation, Option<Clock>)> = (1..=n)
                .map(|c| (k.clone(), Operation::Increment(1), Some(Clock::with_root(0, c))))
                .collect();
            for r in server.apply_batch(requester, &ops) {
                prop_assert!(r.is_ok());
            }
            prop_assert_eq!(server.peek(&k), Value::Int(n as i64));
            // Redeliver the whole batch: every op is suppressed by its clock.
            server.apply_batch(requester, &ops);
            prop_assert_eq!(server.peek(&k), Value::Int(n as i64));
        }
    }
}
