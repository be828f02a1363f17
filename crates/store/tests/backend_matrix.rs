//! Backend conformance matrix: every shard-lifecycle property the store
//! server guarantees must hold identically on the in-memory engine and on
//! the append-only flat-file engine, plus append-only-specific properties —
//! random crash points mid-segment never lose a checkpointed write, and
//! restart work is proportional to ops-since-checkpoint, not history.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is part of the case.

use chc_store::backend::{JournalRecord, StorageBackend};
use chc_store::{
    AppendOnlyBackend, BackendConfig, BackendKind, Clock, InstanceId, ObjectKey, Operation,
    ScratchDir, StateKey, StoreServer, Value, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::OpenOptions;
use std::sync::Arc;

const KINDS: [BackendKind; 2] = [BackendKind::Memory, BackendKind::AppendOnly];

fn key(name: &str, i: usize) -> StateKey {
    StateKey::shared(
        VertexId((i % 3) as u32),
        ObjectKey::named(&format!("{name}{i}")),
    )
}

fn journaled(kind: BackendKind, shards: usize) -> Arc<StoreServer> {
    let server = StoreServer::with_backend(shards, kind);
    for s in 0..shards {
        server.set_shard_journaling(s, true);
    }
    server
}

fn sorted_dump(server: &StoreServer) -> Vec<String> {
    let mut dump: Vec<String> = server
        .dump()
        .into_iter()
        .map(|entry| format!("{entry:?}"))
        .collect();
    dump.sort();
    dump
}

/// The restart-exactness drill from the server's unit suite, run on both
/// engines: checkpoint mid-stream, keep writing, restart — state, dedup
/// clocks and callback registrations all survive, with identical stats.
#[test]
fn journaled_restart_is_state_neutral_on_both_backends() {
    for kind in KINDS {
        let server = journaled(kind, 2);
        let k = key("counter", 3);
        server.register_callback(&k, InstanceId(7));
        for c in 1..=10u64 {
            server
                .apply(
                    InstanceId(0),
                    &k,
                    &Operation::Increment(1),
                    Some(Clock::with_root(0, c)),
                )
                .unwrap();
        }
        let shard = server.shard_index(&k);
        let captured = server.checkpoint_shard(shard);
        assert_eq!(captured, 1, "{kind:?}");
        assert_eq!(server.shard_journal_len(shard), 0, "{kind:?}: truncated");
        for c in 11..=15u64 {
            server
                .apply(
                    InstanceId(1),
                    &k,
                    &Operation::Increment(1),
                    Some(Clock::with_root(0, c)),
                )
                .unwrap();
        }
        let before = server.peek(&k);
        let stats = server.restart_shard(shard);
        assert_eq!(stats.restored_from_checkpoint, 1, "{kind:?}");
        assert_eq!(stats.replayed_ops, 5, "{kind:?}");
        assert_eq!(server.peek(&k), before, "{kind:?}: state-neutral restart");
        // Dedup clocks from before *and* after the checkpoint survive.
        for c in [15u64, 5] {
            let r = server
                .apply(
                    InstanceId(1),
                    &k,
                    &Operation::Increment(1),
                    Some(Clock::with_root(0, c)),
                )
                .unwrap();
            assert!(r.outcome.emulated, "{kind:?}: clock {c} lost");
        }
        // The pre-checkpoint callback registration survived.
        let r = server
            .apply(
                InstanceId(0),
                &k,
                &Operation::Increment(1),
                Some(Clock::with_root(0, 99)),
            )
            .unwrap();
        assert!(r.notify.contains(&InstanceId(7)), "{kind:?}: callback lost");
    }
}

/// Crash without journaling loses state; with journaling it does not — on
/// both engines.
#[test]
fn crash_semantics_match_on_both_backends() {
    for kind in KINDS {
        let server = StoreServer::with_backend(1, kind);
        let k = key("x", 1);
        server
            .apply(InstanceId(0), &k, &Operation::Increment(7), None)
            .unwrap();
        server.crash_shard(0);
        assert_eq!(server.peek(&k), Value::None, "{kind:?}: fail-stop wipes");
        server.set_shard_journaling(0, true);
        server
            .apply(InstanceId(0), &k, &Operation::Increment(7), None)
            .unwrap();
        server.crash_shard(0);
        let stats = server.recover_shard(0);
        assert_eq!(stats.replayed_ops, 1, "{kind:?}");
        assert_eq!(server.peek(&k), Value::Int(7), "{kind:?}");
    }
}

/// Custom operations journal by name on the durable engine and survive a
/// restart on both engines.
#[test]
fn custom_ops_survive_restart_on_both_backends() {
    fn saturating_double(current: &Value, arg: &Value) -> (Value, Value) {
        let cap = arg.as_int();
        let doubled = (current.as_int() * 2).min(cap);
        (Value::Int(doubled), Value::Int(doubled))
    }
    for kind in KINDS {
        let server = journaled(kind, 2);
        server.register_custom_op("sat_double", saturating_double);
        let k = key("tok", 0);
        server
            .apply(InstanceId(0), &k, &Operation::Set(Value::Int(3)), None)
            .unwrap();
        let shard = server.shard_index(&k);
        server.restart_shard(shard);
        let r = server
            .apply(
                InstanceId(0),
                &k,
                &Operation::Custom {
                    name: "sat_double".into(),
                    arg: Value::Int(100),
                },
                None,
            )
            .unwrap();
        assert_eq!(
            r.outcome.returned,
            Value::Int(6),
            "{kind:?}: custom op lost"
        );
    }
}

/// O(delta) restart: with a small compaction interval, restarting an
/// append-only shard replays exactly the post-checkpoint suffix
/// (`history % interval` ops), never the full history. The memory engine,
/// which only checkpoints explicitly, replays everything — the contrast is
/// the point of the durable engine.
#[test]
fn append_only_restart_replays_only_the_suffix() {
    let interval = 8usize;
    let history = 30u64;
    let server = StoreServer::with_config(
        1,
        &BackendConfig {
            kind: BackendKind::AppendOnly,
            checkpoint_interval: interval,
            ..BackendConfig::default()
        },
    );
    server.set_shard_journaling(0, true);
    let k = key("k", 0);
    for c in 1..=history {
        server
            .apply(
                InstanceId(0),
                &k,
                &Operation::Increment(1),
                Some(Clock::with_root(0, c)),
            )
            .unwrap();
    }
    let expected_suffix = (history as usize) % interval;
    assert_eq!(server.shard_journal_len(0), expected_suffix);
    let stats = server.restart_shard(0);
    assert_eq!(
        stats.replayed_ops, expected_suffix,
        "replayed entries must equal the post-checkpoint suffix"
    );
    assert_eq!(stats.restored_from_checkpoint, 1);
    assert_eq!(server.peek(&k), Value::Int(history as i64));

    // Same history on the memory engine: no auto-checkpoint, full replay.
    let memory = journaled(BackendKind::Memory, 1);
    for c in 1..=history {
        memory
            .apply(
                InstanceId(0),
                &k,
                &Operation::Increment(1),
                Some(Clock::with_root(0, c)),
            )
            .unwrap();
    }
    let stats = memory.restart_shard(0);
    assert_eq!(stats.replayed_ops, history as usize, "O(history) baseline");
}

/// Restart cost follows the replay floor, not the history: with the floor
/// trailing the writer the way the runtime's supervisor moves it, a shard
/// with 32k operations behind it checkpoints, restores and replays exactly
/// what one with 2k does — the image carries no duplicate-suppression entry
/// below the floor, so on the durable engine it is byte-for-byte as small.
#[test]
fn restart_cost_follows_the_floor_not_the_history() {
    const TAIL: u64 = 16;
    for kind in KINDS {
        let run = |history: u64| {
            let server = journaled(kind, 1);
            let write = |c: u64| {
                server
                    .apply(
                        InstanceId(0),
                        &key("h", (c % 4) as usize),
                        &Operation::Increment(1),
                        Some(Clock::with_root(0, c)),
                    )
                    .unwrap();
            };
            for c in 1..=history {
                write(c);
                if c % 512 == 0 {
                    server.forget_through(c - 64);
                }
            }
            server.forget_through(history);
            server.checkpoint_shard(0);
            for c in history + 1..=history + TAIL {
                write(c);
            }
            let stats = server.restart_shard(0);
            (stats, server.update_log_len(), server.durable_bytes())
        };
        let (short, short_log, short_bytes) = run(2_000);
        let (long, long_log, long_bytes) = run(32_000);
        assert_eq!(short.replayed_ops, TAIL as usize, "{kind:?}");
        assert_eq!(short.restored_from_checkpoint, 4, "{kind:?}");
        assert_eq!(long, short, "{kind:?}: restart work tracked history");
        assert_eq!(
            (short_log, long_log),
            (TAIL as usize, TAIL as usize),
            "{kind:?}"
        );
        assert_eq!(
            long_bytes, short_bytes,
            "{kind:?}: image size tracked history"
        );
    }
}

/// An emulated duplicate mutates nothing, so it is not journaled: a journal
/// suffix that held an original *and* its duplicate would apply both once the
/// floor had pruned the original's log entry.
#[test]
fn emulated_duplicates_stay_out_of_the_journal() {
    for kind in KINDS {
        let server = journaled(kind, 1);
        let k = key("dup", 0);
        let clock = Some(Clock::with_root(0, 5));
        let op = Operation::Increment(1);
        let first = server.apply(InstanceId(0), &k, &op, clock).unwrap();
        let again = server.apply(InstanceId(0), &k, &op, clock).unwrap();
        let batch = server.apply_batch(
            InstanceId(0),
            &[
                (k.clone(), op.clone(), clock),
                (k.clone(), op.clone(), clock),
            ],
        );
        assert!(
            !first.outcome.emulated && again.outcome.emulated,
            "{kind:?}"
        );
        assert!(
            batch.iter().all(|r| r.as_ref().unwrap().outcome.emulated),
            "{kind:?}"
        );
        assert_eq!(
            server.shard_journal_len(0),
            1,
            "{kind:?}: duplicates journaled"
        );
        // The packet completes, its entry is pruned, the shard restarts.
        server.forget_through(5);
        let stats = server.restart_shard(0);
        assert_eq!(stats.replayed_ops, 1, "{kind:?}");
        assert_eq!(server.peek(&k), Value::Int(1), "{kind:?}: double-applied");
        assert_eq!(server.update_log_len(), 0, "{kind:?}");
    }
}

proptest! {
    /// Server-level recovery equivalence on both engines: a random op
    /// sequence with a random mid-stream checkpoint, then restart every
    /// shard — the recovered image equals a never-crashed oracle's, and the
    /// replayed work never exceeds the post-checkpoint suffix.
    #[test]
    fn random_histories_recover_identically(seed in any::<u64>()) {
        for kind in KINDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let shards = rng.gen_range(1..=3usize);
            let n = rng.gen_range(1..=40usize);
            let checkpoint_at = rng.gen_range(0..=n);
            let server = journaled(kind, shards);
            let oracle = journaled(BackendKind::Memory, shards);
            for i in 0..n {
                let k = key("r", rng.gen_range(0..5));
                let op = Operation::Increment(rng.gen_range(1..4));
                let clock = Some(Clock::with_root(0, (i as u64) + 1));
                server.apply(InstanceId(0), &k, &op, clock).unwrap();
                oracle.apply(InstanceId(0), &k, &op, clock).unwrap();
                if i + 1 == checkpoint_at {
                    for s in 0..shards {
                        server.checkpoint_shard(s);
                    }
                }
            }
            let mut replayed = 0usize;
            for s in 0..shards {
                server.crash_shard(s);
                replayed += server.recover_shard(s).replayed_ops;
            }
            prop_assert_eq!(sorted_dump(&server), sorted_dump(&oracle));
            prop_assert!(
                replayed <= n - checkpoint_at,
                "replay must be bounded by the post-checkpoint suffix"
            );
        }
    }

    /// Crashed-and-recovered ≡ never-crashed, with a moving replay floor:
    /// fresh updates, re-issued duplicates (above the floor they are
    /// emulated, below it they apply — identically on both sides), floor
    /// advances, checkpoints and shard restarts in random order. Every
    /// answer, the final state and the retained log match a server that saw
    /// the same traffic and never crashed.
    #[test]
    fn floor_advances_and_duplicates_recover_identically(seed in any::<u64>()) {
        for kind in KINDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let shards = rng.gen_range(1..=3usize);
            let server = journaled(kind, shards);
            let oracle = StoreServer::with_backend(shards, BackendKind::Memory);
            let mut issued: Vec<(StateKey, Operation, Clock)> = Vec::new();
            let mut next = 1u64;
            for _ in 0..rng.gen_range(10..=80usize) {
                match rng.gen_range(0..12u32) {
                    0 => {
                        let through = rng.gen_range(0..=next);
                        server.forget_through(through);
                        oracle.forget_through(through);
                    }
                    1 => {
                        server.checkpoint_shard(rng.gen_range(0..shards));
                    }
                    2 => {
                        server.restart_shard(rng.gen_range(0..shards));
                    }
                    roll => {
                        let (k, op, clock) = if roll < 6 && !issued.is_empty() {
                            issued[rng.gen_range(0..issued.len())].clone()
                        } else {
                            let fresh = (
                                key("f", rng.gen_range(0..5)),
                                Operation::Increment(rng.gen_range(1..4)),
                                Clock::with_root(rng.gen_range(0..2), next),
                            );
                            next += 1;
                            issued.push(fresh.clone());
                            fresh
                        };
                        let got = server.apply(InstanceId(0), &k, &op, Some(clock)).unwrap();
                        let want = oracle.apply(InstanceId(0), &k, &op, Some(clock)).unwrap();
                        prop_assert_eq!(got, want, "{:?} {:?} {}", kind, op, clock);
                    }
                }
            }
            for s in 0..shards {
                server.restart_shard(s);
            }
            prop_assert_eq!(sorted_dump(&server), sorted_dump(&oracle));
            prop_assert_eq!(server.update_log_len(), oracle.update_log_len());
            // What is still on record answers the same after the restart.
            for (k, op, clock) in &issued {
                let got = server.apply(InstanceId(0), k, op, Some(*clock)).unwrap();
                let want = oracle.apply(InstanceId(0), k, op, Some(*clock)).unwrap();
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Append-only crash-point property: write, checkpoint, write more, then
    /// tear the active segment at a random byte. Recovery must keep every
    /// checkpointed write, replay some prefix of the post-checkpoint suffix,
    /// and match the oracle state for exactly the ops that survived.
    #[test]
    fn torn_segments_never_lose_checkpointed_writes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n1 = rng.gen_range(1..=12usize);
        let n2 = rng.gen_range(1..=12usize);
        let scratch = ScratchDir::new("matrix-torn");
        let dir = scratch.path().to_path_buf();
        let k = key("t", 0);
        let requester = InstanceId(1);

        let mut backend = AppendOnlyBackend::open(&dir, 1024);
        backend.set_journaling(true);
        let apply = |b: &mut AppendOnlyBackend, c: u64| {
            let op = Operation::Increment(1);
            b.instance_mut().apply(requester, &k, &op, Some(Clock::with_root(0, c))).unwrap();
            b.append(JournalRecord::Apply {
                requester,
                key: k.clone(),
                op,
                clock: Some(Clock::with_root(0, c)),
            });
        };
        for c in 1..=n1 {
            apply(&mut backend, c as u64);
        }
        backend.checkpoint();
        for c in 1..=n2 {
            apply(&mut backend, (n1 + c) as u64);
        }
        let seg = backend.active_segment_path();
        drop(backend);

        // Tear the segment at a random byte (possibly not at all).
        let len = std::fs::metadata(&seg).unwrap().len();
        let tear_at = rng.gen_range(0..=len);
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(tear_at).unwrap();

        let mut backend = AppendOnlyBackend::open(&dir, 1024);
        let stats = backend.recover();
        // Checkpointed writes are never lost; restart work is bounded by the
        // suffix, and the state equals the oracle of the surviving prefix.
        prop_assert_eq!(stats.restored_from_checkpoint, 1);
        prop_assert!(stats.replayed_ops <= n2);
        let survived = n1 + stats.replayed_ops;
        prop_assert_eq!(backend.instance().peek(&k), Value::Int(survived as i64));
        prop_assert!(survived >= n1, "no checkpointed write may be lost");
    }
}
