//! Medium conformance matrix: every shard-lifecycle property the store
//! server guarantees must hold identically with the engine's bytes in memory
//! and in files — restart work among them, which is proportional to
//! ops-since-checkpoint, not history — plus crash points: a journal torn at
//! any byte never loses a checkpointed write, and an image torn at any byte
//! is rejected. In memory a crash point costs no IO, so every byte offset is
//! tried; on files, one random offset per case, and a process death that
//! loses what was staged and not yet written.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is part of the case.

use chc_packet::ScopeKey;
use chc_store::backend::{encode_image_frame, Engine, JournalRecord, Shard};
use chc_store::{
    BackendKind, Clock, InstanceId, ObjectKey, Operation, ScratchDir, StateKey, StoreInstance,
    StoreServer, Value, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const KINDS: [BackendKind; 2] = [BackendKind::Memory, BackendKind::AppendOnly];

fn key(name: &str, i: usize) -> StateKey {
    StateKey::shared(
        VertexId((i % 3) as u32),
        ObjectKey::named(&format!("{name}{i}")),
    )
}

/// One op of an `apply_batch` submission.
type Batched = (StateKey, Operation, Option<Clock>);

fn journaled(kind: BackendKind, shards: usize) -> Arc<StoreServer> {
    let server = StoreServer::with_backend(shards, kind);
    for s in 0..shards {
        server.set_shard_journaling(s, true);
    }
    server
}

fn sorted(entries: Vec<(StateKey, Value, Option<InstanceId>)>) -> Vec<String> {
    let mut dump: Vec<String> = entries
        .into_iter()
        .map(|entry| format!("{entry:?}"))
        .collect();
    dump.sort();
    dump
}

fn sorted_dump(server: &StoreServer) -> Vec<String> {
    sorted(server.dump())
}

/// The one file in `dir` with extension `ext`.
fn only_file(dir: &Path, ext: &str) -> PathBuf {
    let mut found = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == ext));
    let path = found.next().expect("a file");
    assert!(found.next().is_none(), "one .{ext} file");
    path
}

/// The restart-exactness drill from the server's unit suite, run on both
/// media: checkpoint mid-stream, keep writing, restart — state, dedup
/// clocks and callback registrations all survive, with identical stats.
#[test]
fn journaled_restart_is_state_neutral_on_both_backends() {
    for kind in KINDS {
        let server = journaled(kind, 2);
        server.track_replays();
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
/// both media.
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
        assert!(
            server.is_failed(),
            "{kind:?}: a crashed shard answers nothing"
        );
        server.recover_shard(0);
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

/// Ownership changes are shard state like any other: on both media an
/// owner survives a restart, whether the image or the journal suffix holds
/// it.
#[test]
fn ownership_changes_survive_restart_on_both_backends() {
    let flow = |port| {
        let object = ObjectKey::scoped("conn", ScopeKey::Port(port));
        StateKey::per_flow(VertexId(1), InstanceId(2), object)
    };
    for kind in KINDS {
        let server = journaled(kind, 2);
        // One object handed over before the checkpoint, one released after.
        let (early, late) = (flow(1), flow(2));
        for key in [&early, &late] {
            let set = Operation::Set(Value::Int(1));
            server.apply(InstanceId(2), key, &set, None).unwrap();
        }
        server.release_ownership(&early, InstanceId(2)).unwrap();
        server.acquire_ownership(&early, InstanceId(5)).unwrap();
        (0..2).for_each(|s| _ = server.checkpoint_shard(s));
        server.release_ownership(&late, InstanceId(2)).unwrap();
        (0..2).for_each(|s| _ = server.restart_shard(s));
        assert_eq!(server.owner_of(&early), Some(InstanceId(5)), "{kind:?}");
        assert_eq!(server.owner_of(&late), None, "{kind:?}");
        let refused = server.apply(InstanceId(2), &early, &Operation::Increment(1), None);
        assert!(refused.is_err(), "{kind:?}: the old owner is refused");
    }
}

/// A logged non-deterministic value survives a restart on both media,
/// whether the image or the journal suffix holds it: a packet replayed
/// after the restart observes the value it observed before.
#[test]
fn nondet_values_survive_restart_on_both_backends() {
    for kind in KINDS {
        let server = journaled(kind, 2);
        server.track_replays();
        let clocks: Vec<Clock> = (1..=6).map(|c| Clock::with_root(0, c)).collect();
        for (i, clock) in clocks.iter().enumerate() {
            assert_eq!(
                server.nondet(*clock, 0, Value::Int(i as i64)),
                Value::Int(i as i64)
            );
            if i == 2 {
                (0..2).for_each(|s| _ = server.checkpoint_shard(s));
            }
        }
        (0..2).for_each(|s| _ = server.restart_shard(s));
        for (i, clock) in clocks.iter().enumerate() {
            let again = server.nondet(*clock, 0, Value::Int(-1));
            assert_eq!(again, Value::Int(i as i64), "{kind:?}: clock {clock:?}");
        }
    }
}

/// Custom operations journal by name on files and survive a
/// restart on both media.
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

/// Custom ops registered before journaling is switched on live in the
/// shard's resident table, not in the journal: a recovery without a
/// checkpoint still resolves them, on both media.
#[test]
fn custom_op_registered_before_journaling_survives_recovery_on_both_backends() {
    fn bump(current: &Value, _arg: &Value) -> (Value, Value) {
        let next = Value::Int(current.as_int() + 1);
        (next.clone(), next)
    }
    for kind in KINDS {
        let server = StoreServer::with_backend(1, kind);
        server.register_custom_op("bump", bump);
        server.set_shard_journaling(0, true);
        let k = key("early", 0);
        let op = Operation::Custom {
            name: "bump".into(),
            arg: Value::None,
        };
        server.apply(InstanceId(0), &k, &op, None).unwrap();
        assert_eq!(server.peek(&k), Value::Int(1), "{kind:?}");
        server.crash_shard(0);
        server.recover_shard(0);
        assert_eq!(server.peek(&k), Value::Int(1), "{kind:?}: recovered value");
    }
}

/// O(delta) restart on both media: past the compaction cadence (1,024
/// records) each checkpoints on its own, so its journal never reaches the
/// cadence and a restart replays exactly the post-checkpoint suffix
/// (`history % interval` ops), never the full history.
#[test]
fn restart_replays_only_the_suffix_on_both_backends() {
    let interval = 1024usize;
    let history = 2_100u64;
    for kind in KINDS {
        let server = journaled(kind, 1);
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
            assert!(server.shard_journal_len(0) < interval, "{kind:?}");
        }
        let expected_suffix = (history as usize) % interval;
        assert_eq!(server.shard_journal_len(0), expected_suffix, "{kind:?}");
        let stats = server.restart_shard(0);
        assert_eq!(
            stats.replayed_ops, expected_suffix,
            "{kind:?}: replayed entries must equal the post-checkpoint suffix"
        );
        assert_eq!(stats.restored_from_checkpoint, 1, "{kind:?}");
        assert_eq!(server.peek(&k), Value::Int(history as i64), "{kind:?}");
    }
}

/// Restart cost follows the replay floor, not the history: with the floor
/// trailing the writer the way the runtime's supervisor moves it, a shard
/// with 32k operations behind it checkpoints, restores and replays exactly
/// what one with 2k does — the image carries no duplicate-suppression entry
/// below the floor, so on files it is byte-for-byte as small.
#[test]
fn restart_cost_follows_the_floor_not_the_history() {
    const TAIL: u64 = 16;
    for kind in KINDS {
        let run = |history: u64| {
            let server = journaled(kind, 1);
            server.track_replays();
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
        server.track_replays();
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

/// Journal frames name an entry the image holds, or one an earlier frame
/// created, by its dense id; an op that creates its entry names it by key.
/// Batches that mix both kinds, with clocked duplicates among them, restart
/// twice on both media — once from an image plus the suffix past it, once
/// from a suffix alone, whose every entry a frame created — and after each
/// restart the state, `TS` and the answer to every op re-issued equal a
/// never-crashed server's that took the same ops one by one.
#[test]
fn id_named_frames_restart_like_sequential_applies_on_both_backends() {
    let requester = InstanceId(4);
    for kind in KINDS {
        for from_image in [true, false] {
            let mut rng = StdRng::seed_from_u64(u64::from(from_image) + 11);
            let (server, oracle) = (
                journaled(kind, 3),
                StoreServer::with_backend(3, BackendKind::Memory),
            );
            server.track_replays();
            oracle.track_replays();
            let mut issued: Vec<(StateKey, Operation, Option<Clock>)> = Vec::new();
            let mut next = 1u64;
            let mut batch =
                |server: &StoreServer, keys: std::ops::Range<usize>, rng: &mut StdRng| {
                    let ops: Vec<_> = (0..24)
                        .map(|_| {
                            let clock = rng
                                .gen_bool(0.9)
                                .then(|| Clock::with_root(0, next + rng.gen_range(0..6u64)));
                            let op = match rng.gen_range(0..4u32) {
                                0 => Operation::PushBack(Value::Int(rng.gen_range(0..9))),
                                _ => Operation::Increment(rng.gen_range(1..4)),
                            };
                            (key("n", rng.gen_range(keys.clone())), op, clock)
                        })
                        .collect();
                    next += 6;
                    let got = server.apply_batch(requester, &ops);
                    let want: Vec<_> = ops
                        .iter()
                        .map(|(k, op, c)| oracle.apply(requester, k, op, *c))
                        .collect();
                    assert_eq!(got, want, "{kind:?}");
                    issued.extend(ops);
                };
            // Entries 0..8, imaged or not; then batches mixing them with
            // entries 8..16, created frame by frame.
            batch(&server, 0..8, &mut rng);
            if from_image {
                (0..3).for_each(|s| _ = server.checkpoint_shard(s));
            }
            for round in 1..=2 {
                batch(&server, 0..8 + 4 * round, &mut rng);
                batch(&server, 4..12 + 4 * round, &mut rng);
                for s in 0..3 {
                    let stats = server.restart_shard(s);
                    assert!(
                        !stats.unknown_entry && !stats.segment_unreadable,
                        "{kind:?}: {stats:?}"
                    );
                }
                assert_eq!(
                    sorted_dump(&server),
                    sorted_dump(&oracle),
                    "{kind:?} round {round}"
                );
                assert_eq!(
                    server.ts_snapshot(),
                    oracle.ts_snapshot(),
                    "{kind:?} round {round}"
                );
            }
            for (k, op, clock) in &issued {
                let got = server.apply(requester, k, op, *clock);
                assert_eq!(
                    got,
                    oracle.apply(requester, k, op, *clock),
                    "{kind:?}: {op:?} {clock:?}"
                );
            }
            assert_eq!(sorted_dump(&server), sorted_dump(&oracle), "{kind:?}");
        }
    }
}

/// A newest checkpoint image that does not decode is reported by recovery,
/// not read as an empty shard with the suffix replayed over it in silence.
#[test]
fn a_corrupt_image_is_reported_not_read_as_an_empty_shard() {
    let scratch = ScratchDir::new("matrix-rejected");
    let recover = || Shard::new(Engine::open(scratch.path(), 1024)).recover();
    let mut live = StoreInstance::new();
    live.apply(InstanceId(0), &key("x", 0), &Operation::Increment(1), None)
        .unwrap();
    Engine::open(scratch.path(), 1024).checkpoint(&live);
    let healthy = recover();
    assert_eq!(
        (healthy.restored_from_checkpoint, healthy.image_rejected),
        (1, false)
    );

    // One flipped byte in the image's payload.
    let image = only_file(scratch.path(), "img");
    let mut bytes = std::fs::read(&image).unwrap();
    *bytes.last_mut().unwrap() ^= 0x40;
    std::fs::write(&image, bytes).unwrap();
    let rejected = recover();
    assert_eq!(
        (rejected.restored_from_checkpoint, rejected.image_rejected),
        (0, true)
    );
}

/// A live segment that cannot be read is reported, not replayed as empty,
/// and it is not truncated: replay stops before it, and the segments after
/// it keep their bytes.
#[test]
fn an_unreadable_segment_is_reported_not_read_as_empty() {
    let scratch = ScratchDir::new("matrix-unreadable");
    let dir = scratch.path();
    let mut engine = Engine::open(dir, 1024);
    for c in 1..=3u64 {
        let frame = JournalRecord::Apply {
            requester: InstanceId(1),
            key: key("u", 0),
            op: Operation::Increment(1),
            clock: Some(Clock::with_root(0, c)),
        }
        .to_frame();
        engine.append(&frame);
    }
    drop(engine);
    // The three records move to segment 1, the active one; a directory
    // takes the place of segment 0, so reading it fails.
    fs::rename(dir.join("seg-00000000.log"), dir.join("seg-00000001.log")).unwrap();
    fs::create_dir(dir.join("seg-00000000.log")).unwrap();
    let active_len = fs::metadata(dir.join("seg-00000001.log")).unwrap().len();

    let mut shard = Shard::new(Engine::open(dir, 1024));
    let stats = shard.recover();
    assert!(stats.segment_unreadable, "{stats:?}");
    assert_eq!(
        stats.replayed_ops, 0,
        "replay stops before the unreadable segment"
    );
    assert_eq!(
        fs::metadata(dir.join("seg-00000001.log")).unwrap().len(),
        active_len,
        "the segments were not cut"
    );
}

proptest! {
    /// Server-level recovery equivalence on both media: a random op
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
            server.track_replays();
            oracle.track_replays();
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
                                Clock(next),
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

    /// Ordered writers' marks survive restarts exactly, on both media: two
    /// registered writers send batches of increments (and a `Set` now and
    /// then, which keeps its log record) in clock order, re-send earlier
    /// batches, hand their marks to a replacement, and the floor rises,
    /// with checkpoints and shard restarts in between. Every answer and the
    /// state match a server that never crashed; and after each restart
    /// every batch sent so far is sent again, whose answers — which of its
    /// increments the marks emulate — match too, so the restart reproduced
    /// every live mark.
    #[test]
    fn ordered_writers_marks_recover_identically(seed in any::<u64>()) {
        for kind in KINDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let shards = rng.gen_range(1..=3usize);
            let server = journaled(kind, shards);
            let oracle = StoreServer::with_backend(shards, BackendKind::Memory);
            server.track_replays();
            oracle.track_replays();
            let mut writers = [InstanceId(1), InstanceId(2)];
            for w in writers {
                prop_assert!(server.register_ordered_writer(w));
                oracle.register_ordered_writer(w);
            }
            // Sends `ops` from writer `w` to both; the answers must agree.
            let send = |writers: &[InstanceId; 2], w: usize, ops: &[Batched]| {
                let got = server.apply_batch(writers[w], ops);
                assert_eq!(got, oracle.apply_batch(writers[w], ops), "{kind:?}");
            };
            // Each batch sent, with the index of the writer that sent it.
            let mut sent: Vec<(usize, Vec<Batched>)> = Vec::new();
            let mut next = 1u64;
            for _ in 0..rng.gen_range(10..=60usize) {
                match rng.gen_range(0..14u32) {
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
                        for (w, ops) in &sent {
                            send(&writers, *w, ops);
                        }
                    }
                    3 => {
                        let w: usize = rng.gen_range(0..2);
                        let to = InstanceId(writers[w].0 + 10);
                        server.reassign_owner(writers[w], to);
                        oracle.reassign_owner(writers[w], to);
                        writers[w] = to;
                    }
                    roll => {
                        let (w, ops) = if roll < 6 && !sent.is_empty() {
                            sent[rng.gen_range(0..sent.len())].clone()
                        } else {
                            let ops = (0..rng.gen_range(1..=5))
                                .map(|_| {
                                    let op = match rng.gen_range(0..6u32) {
                                        0 => Operation::Set(Value::Int(rng.gen_range(0..9))),
                                        _ => Operation::Increment(rng.gen_range(1..4)),
                                    };
                                    next += 1;
                                    (key("m", rng.gen_range(0..4)), op, Some(Clock(next)))
                                })
                                .collect();
                            sent.push((rng.gen_range(0..2), ops));
                            sent.last().unwrap().clone()
                        };
                        send(&writers, w, &ops);
                    }
                }
            }
            for s in 0..shards {
                server.restart_shard(s);
            }
            for (w, ops) in &sent {
                send(&writers, *w, ops);
            }
            prop_assert_eq!(sorted_dump(&server), sorted_dump(&oracle));
        }
    }

    /// File crash-point property: write, checkpoint, write more, then tear
    /// the active segment at a random byte. Recovery must keep every
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

        let mut backend = Engine::open(&dir, 1024);
        let mut live = StoreInstance::new();
        let apply = |b: &mut Engine, live: &mut StoreInstance, c: u64| {
            let op = Operation::Increment(1);
            live.apply(requester, &k, &op, Some(Clock::with_root(0, c))).unwrap();
            b.append(&JournalRecord::Apply {
                requester,
                key: k.clone(),
                op,
                clock: Some(Clock::with_root(0, c)),
            }.to_frame());
        };
        for c in 1..=n1 {
            apply(&mut backend, &mut live, c as u64);
        }
        backend.checkpoint(&live);
        for c in 1..=n2 {
            apply(&mut backend, &mut live, (n1 + c) as u64);
        }
        drop(backend);
        let seg = only_file(&dir, "log");

        // Tear the segment at a random byte (possibly not at all).
        let len = std::fs::metadata(&seg).unwrap().len();
        let tear_at = rng.gen_range(0..=len);
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(tear_at).unwrap();

        let mut shard = Shard::new(Engine::open(&dir, 1024));
        let stats = shard.recover();
        // Checkpointed writes are never lost; restart work is bounded by the
        // suffix, and the state equals the oracle of the surviving prefix.
        prop_assert_eq!(stats.restored_from_checkpoint, 1);
        prop_assert!(stats.replayed_ops <= n2);
        let survived = n1 + stats.replayed_ops;
        prop_assert_eq!(shard.instance().peek(&k), Value::Int(survived as i64));
        prop_assert!(survived >= n1, "no checkpointed write may be lost");
    }
}

proptest! {
    /// Process death (`kill -9`): the page cache keeps every byte written,
    /// and the staged bytes die with the process. A standalone file engine
    /// is leaked with `mem::forget` after `k` appends that a barrier wrote
    /// and `m` more that it only staged, with a checkpoint among them, so
    /// neither its drop nor its barrier runs again. Reopened, the directory
    /// recovers the never-crashed state of a prefix that holds all `k`, and
    /// a checkpoint that was written is never lost.
    #[test]
    fn process_death_loses_at_most_the_staged_tail(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (k, m) = (rng.gen_range(0..=12usize), rng.gen_range(0..=12usize));
        let checkpoint_after = rng.gen_range(1..=(k + m).max(1));
        let scratch = ScratchDir::new("matrix-death");
        let dir = scratch.path().to_path_buf();
        let requester = InstanceId(1);

        let mut engine = Engine::open(&dir, 1024);
        let mut live = StoreInstance::new();
        // The never-crashed state after each prefix, the empty one first.
        let mut oracle = vec![sorted(live.entries())];
        for c in 1..=k + m {
            let (key, op) = (key("d", rng.gen_range(0..4)), Operation::Increment(c as i64));
            let clock = Some(Clock::with_root(0, c as u64));
            live.apply(requester, &key, &op, clock).unwrap();
            oracle.push(sorted(live.entries()));
            engine.append(&JournalRecord::Apply { requester, key, op, clock }.to_frame());
            if c == checkpoint_after {
                engine.checkpoint(&live);
            }
            if c == k {
                engine.persist();
            }
        }
        std::mem::forget(engine);

        let mut shard = Shard::new(Engine::open(&dir, 1024));
        let stats = shard.recover();
        prop_assert!(!stats.image_rejected && !stats.segment_unreadable);
        let state = sorted(shard.instance().entries());
        let survived = (k..=k + m).find(|&n| oracle[n] == state);
        prop_assert!(survived.is_some(), "no prefix from {} of {} matches", k, k + m);
        if checkpoint_after <= k {
            prop_assert!(stats.restored_from_checkpoint > 0, "a written checkpoint was lost");
        }
    }
}

/// A random journaled history driven through an engine on the memory medium
/// with a checkpoint interval of 2 to 6, so it compacts on its own, beside
/// the bytes the medium then holds: the newest image, `encode_image_frame`
/// of the instance it was taken of, and the frames appended since.
struct MemoryHistory {
    interval: usize,
    engine: Engine,
    image: Option<Vec<u8>>,
    segment: Vec<u8>,
    /// Where each frame of `segment` ends.
    frame_ends: Vec<usize>,
    /// Ops the image covers.
    checkpointed: usize,
    /// A never-crashed instance's sorted entries and log length after each
    /// prefix of the history, the empty one first.
    oracle: Vec<(Vec<String>, usize)>,
}

fn memory_history(rng: &mut StdRng, min_ops: usize) -> MemoryHistory {
    let interval = rng.gen_range(2..=6usize);
    let ops = rng.gen_range(min_ops.max(1)..=30usize);
    let mut history = MemoryHistory {
        interval,
        engine: Engine::in_memory(None, Vec::new(), interval),
        image: None,
        segment: Vec::new(),
        frame_ends: Vec::new(),
        checkpointed: 0,
        oracle: vec![(Vec::new(), 0)],
    };
    let mut live = StoreInstance::new();
    for c in 1..=ops {
        let (requester, key) = (InstanceId(1), key("m", rng.gen_range(0..4)));
        let (op, clock) = (
            Operation::Increment(rng.gen_range(1..4)),
            Some(Clock::with_root(0, c as u64)),
        );
        live.apply(requester, &key, &op, clock).unwrap();
        history
            .oracle
            .push((sorted(live.entries()), live.update_log_len()));
        let frame = JournalRecord::Apply {
            requester,
            key,
            op,
            clock,
        }
        .to_frame();
        history.segment.extend_from_slice(&frame);
        history.frame_ends.push(history.segment.len());
        if history.engine.append(&frame) {
            history.engine.checkpoint(&live);
            history.image = Some(encode_image_frame(&live, &mut Vec::new()).to_vec());
            history.segment.clear();
            history.frame_ends.clear();
            history.checkpointed = c;
        }
    }
    history
}

proptest! {
    /// Memory crash points: the active segment torn at every byte offset.
    /// An engine reopened over the image and the surviving bytes keeps every
    /// checkpointed write, replays exactly the whole frames before the tear,
    /// matches the oracle of that prefix, and takes new appends after the
    /// repaired tail, not behind the torn one.
    #[test]
    fn torn_memory_segments_never_lose_checkpointed_writes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = memory_history(&mut rng, 1);
        let ops = h.oracle.len() - 1;
        let restored = h.oracle[h.checkpointed].0.len();

        // The bytes beside the history are the bytes the engine holds: both
        // recover the whole history.
        let mut whole = Shard::new(h.engine);
        let stats = whole.recover();
        prop_assert_eq!(stats.replayed_ops, ops - h.checkpointed);
        prop_assert_eq!(sorted(whole.instance().entries()), h.oracle[ops].0.clone());

        let tail = key("tail", 0);
        let tail_frame = JournalRecord::Apply {
            requester: InstanceId(1),
            key: tail.clone(),
            op: Operation::Set(Value::Int(1)),
            clock: None,
        }
        .to_frame();
        for cut in 0..=h.segment.len() {
            let mut engine = Engine::in_memory(h.image.clone(), h.segment[..cut].to_vec(), h.interval);
            engine.append(&tail_frame);
            let mut shard = Shard::new(engine);
            let stats = shard.recover();
            let whole_frames = h.frame_ends.iter().filter(|end| **end <= cut).count();
            prop_assert!(!stats.image_rejected);
            prop_assert_eq!(stats.restored_from_checkpoint, restored);
            prop_assert_eq!(stats.replayed_ops, whole_frames + 1, "cut at {}", cut);
            let survived = h.checkpointed + whole_frames;
            let (entries, log) = &h.oracle[survived];
            let mut want = entries.clone();
            want.extend(sorted(vec![(tail.clone(), Value::Int(1), None)]));
            want.sort();
            prop_assert_eq!(sorted(shard.instance().entries()), want, "cut at {}", cut);
            prop_assert_eq!(shard.instance().update_log_len(), *log);
        }
    }

    /// Memory crash points in the image: a checkpoint image truncated at
    /// every byte offset is rejected, never read as a smaller shard.
    #[test]
    fn every_torn_memory_image_is_rejected(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = memory_history(&mut rng, 6);
        let image = h.image.expect("a history of at least one interval checkpoints");
        for cut in 0..image.len() {
            let torn = Engine::in_memory(Some(image[..cut].to_vec()), h.segment.clone(), h.interval);
            let stats = Shard::new(torn).recover();
            prop_assert!(stats.image_rejected, "cut at {} of {}", cut, image.len());
            prop_assert_eq!(stats.restored_from_checkpoint, 0);
        }
    }
}
