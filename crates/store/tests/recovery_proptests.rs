//! Property tests for the datastore fault-tolerance machinery (§5.4):
//! for arbitrary operation sequences, checkpoint positions, read placements
//! and truncation points,
//!
//! * `WriteAheadLog::entries_after` returns exactly the suffix strictly
//!   after the given clock, and truncation never resurrects entries, and
//! * `recover_shared_state` rebuilds the pre-crash store from a snapshot
//!   plus the instances' logs without losing or double-applying any
//!   committed operation — also when an NF failover left a replacement
//!   whose log re-issues clocks the snapshot already holds.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is part of the case.

use chc_store::backend::encode_image_frame;
use chc_store::{
    recover_shared_state, Clock, InstanceId, ObjectKey, Operation, ReadLogEntry, RecoveryInput,
    StateKey, StoreInstance, TsSnapshot, Value, WriteAheadLog,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn key() -> StateKey {
    StateKey::shared(chc_store::VertexId(1), ObjectKey::named("shared_counter"))
}

fn clock(n: u64) -> Clock {
    Clock::with_root(0, n)
}

/// A randomized multi-instance history against one shared object: the global
/// interleave is the order the datastore executed the updates in, reads are
/// scattered through it, and the checkpoint cuts it at a random position.
struct Scenario {
    /// Datastore execution order: `(instance, clock counter)` per update.
    interleave: Vec<(InstanceId, u64)>,
    /// Interleave position of the checkpoint.
    checkpoint_at: usize,
    /// Reads as `(interleave position, reader, read clock counter)`.
    reads: Vec<(usize, InstanceId, u64)>,
}

impl Scenario {
    fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let instances = rng.gen_range(1..=4u32);
        let mut next_clock = 1u64;
        let mut per_instance: Vec<Vec<u64>> = Vec::new();
        for _ in 0..instances {
            let ops = rng.gen_range(1..=10usize);
            let clocks: Vec<u64> = (0..ops)
                .map(|_| {
                    let c = next_clock;
                    next_clock += rng.gen_range(1..=3u64);
                    c
                })
                .collect();
            next_clock += 1;
            per_instance.push(clocks);
        }
        // Random fair merge: per-instance order is preserved (an instance's
        // log follows its own clock order), the cross-instance interleave is
        // arbitrary — exactly the datastore's freedom.
        let mut cursors = vec![0usize; per_instance.len()];
        let mut interleave = Vec::new();
        while cursors
            .iter()
            .zip(&per_instance)
            .any(|(c, ops)| *c < ops.len())
        {
            let live: Vec<usize> = (0..per_instance.len())
                .filter(|i| cursors[*i] < per_instance[*i].len())
                .collect();
            let pick = live[rng.gen_range(0..live.len())];
            interleave.push((InstanceId(pick as u32), per_instance[pick][cursors[pick]]));
            cursors[pick] += 1;
        }
        let checkpoint_at = rng.gen_range(0..=interleave.len());
        let mut reads = Vec::new();
        for _ in 0..rng.gen_range(0..4usize) {
            let pos = rng.gen_range(0..=interleave.len());
            let reader = InstanceId(rng.gen_range(0..instances));
            let read_clock = next_clock;
            next_clock += 1;
            reads.push((pos, reader, read_clock));
        }
        Scenario {
            interleave,
            checkpoint_at,
            reads,
        }
    }

    /// Execute the scenario against a live store, crash it at the end, and
    /// assemble the recovery input exactly as the framework would: the
    /// checkpoint taken mid-stream, full per-instance write-ahead logs, and
    /// the reads issued after the checkpoint with their true `TS` snapshots.
    fn build(&self) -> (Value, RecoveryInput) {
        let k = key();
        let mut live = StoreInstance::new();
        let mut wals: HashMap<InstanceId, WriteAheadLog> = HashMap::new();
        let mut read_logs: HashMap<InstanceId, Vec<ReadLogEntry>> = HashMap::new();
        for (instance, c) in &self.interleave {
            wals.entry(*instance).or_default().append(
                clock(*c),
                k.clone(),
                Operation::Increment(1),
            );
        }

        let mut checkpoint = None;
        let mut last_applied: HashMap<InstanceId, Clock> = HashMap::new();
        let mut position = 0usize;
        let take_reads = |pos: usize,
                          live: &StoreInstance,
                          last: &HashMap<InstanceId, Clock>,
                          logs: &mut HashMap<InstanceId, Vec<ReadLogEntry>>,
                          after_checkpoint: bool| {
            for (p, reader, rc) in &self.reads {
                if *p == pos && after_checkpoint {
                    logs.entry(*reader).or_default().push(ReadLogEntry {
                        clock: clock(*rc),
                        key: k.clone(),
                        value: live.peek(&k),
                        ts: TsSnapshot::new(last.clone()),
                    });
                }
            }
        };

        take_reads(
            0,
            &live,
            &last_applied,
            &mut read_logs,
            self.checkpoint_at == 0,
        );
        if self.checkpoint_at == 0 {
            checkpoint = Some(encode_image_frame(&live, &mut Vec::new()).to_vec());
        }
        for (instance, c) in &self.interleave {
            live.apply(*instance, &k, &Operation::Increment(1), Some(clock(*c)))
                .unwrap();
            last_applied.insert(*instance, clock(*c));
            position += 1;
            if position == self.checkpoint_at {
                checkpoint = Some(encode_image_frame(&live, &mut Vec::new()).to_vec());
            }
            take_reads(
                position,
                &live,
                &last_applied,
                &mut read_logs,
                position >= self.checkpoint_at,
            );
        }

        let input = RecoveryInput {
            image: checkpoint.expect("checkpoint position within range"),
            wals,
            read_logs,
        };
        (live.peek(&k), input)
    }
}

proptest! {
    /// `entries_after` returns exactly the strict suffix, for present and
    /// absent pivot clocks alike.
    #[test]
    fn entries_after_is_the_strict_suffix(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clocks: Vec<u64> = Vec::new();
        let mut c = 0u64;
        for _ in 0..rng.gen_range(1..=20usize) {
            c += rng.gen_range(1..=4u64);
            clocks.push(c);
        }
        let mut wal = WriteAheadLog::new();
        for n in &clocks {
            wal.append(clock(*n), key(), Operation::Increment(1));
        }
        // Pivot on any counter in range, present in the log or not.
        let pivot = rng.gen_range(0..=c + 2);
        let suffix = wal.entries_after(Some(clock(pivot)));
        let expected: Vec<u64> = clocks.iter().copied().filter(|n| *n > pivot).collect();
        let got: Vec<u64> = suffix.iter().map(|e| e.clock.counter()).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(wal.entries_after(None).len(), clocks.len());
    }

    /// Truncation drops exactly the prefix and never resurrects it.
    #[test]
    fn truncation_never_resurrects(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=30u64);
        let mut wal = WriteAheadLog::new();
        for c in 1..=n {
            wal.append(clock(c), key(), Operation::Increment(1));
        }
        let cut = rng.gen_range(0..=n + 1);
        wal.truncate_through(clock(cut));
        prop_assert_eq!(wal.len() as u64, n.saturating_sub(cut.min(n)));
        prop_assert!(wal.entries().iter().all(|e| e.clock.counter() > cut));
        // After truncation, every suffix query still excludes the prefix.
        let suffix = wal.entries_after(Some(clock(cut)));
        prop_assert_eq!(suffix.len(), wal.len());
    }

    /// The WAL's binary-search fast path (strictly increasing clocks) and its
    /// linear fallback (out-of-order or duplicate clocks, as the Figure-7
    /// drills construct) both match the original linear-scan oracle, for
    /// `entries_after` and `truncate_through` alike.
    #[test]
    fn wal_search_matches_linear_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ordered = rng.gen_bool(0.5);
        let n = rng.gen_range(1..=30usize);
        let mut clocks: Vec<u64> = Vec::new();
        let mut c = 0u64;
        for _ in 0..n {
            if ordered {
                c += rng.gen_range(1..=4u64);
                clocks.push(c);
            } else {
                // Arbitrary order, duplicates allowed.
                clocks.push(rng.gen_range(1..=20u64));
            }
        }
        let mut wal = WriteAheadLog::new();
        for ck in &clocks {
            wal.append(clock(*ck), key(), Operation::Increment(1));
        }
        let pivot = rng.gen_range(0..=22u64);

        // The pre-binary-search linear scan, verbatim.
        let oracle_suffix: Vec<u64> = match clocks.iter().position(|ck| *ck == pivot) {
            Some(idx) => clocks[idx + 1..].to_vec(),
            None => match clocks.iter().position(|ck| *ck > pivot) {
                Some(idx) => clocks[idx..].to_vec(),
                None => Vec::new(),
            },
        };
        let got: Vec<u64> = wal
            .entries_after(Some(clock(pivot)))
            .iter()
            .map(|e| e.clock.counter())
            .collect();
        prop_assert_eq!(got, oracle_suffix);

        let oracle_kept: Vec<u64> = clocks.iter().copied().filter(|ck| *ck > pivot).collect();
        wal.truncate_through(clock(pivot));
        let kept: Vec<u64> = wal.entries().iter().map(|e| e.clock.counter()).collect();
        prop_assert_eq!(kept, oracle_kept);
    }

    /// Recovery from an arbitrary checkpoint position plus the write-ahead
    /// logs reconstructs the pre-crash store: every committed operation is
    /// applied exactly once — none lost, none double-applied — whether or
    /// not reads happened since the checkpoint (Cases 1 and 2 of Figure 7).
    #[test]
    fn recovery_applies_every_op_exactly_once(seed in any::<u64>()) {
        let scenario = Scenario::generate(seed);
        let (live_value, input) = scenario.build();
        let total_ops = scenario.interleave.len() as i64;
        prop_assert_eq!(live_value.as_int(), total_ops);

        let (recovered, report) = recover_shared_state(&input);
        prop_assert_eq!(
            recovered.peek(&key()).as_int(),
            total_ops,
            "lost or double-applied updates (case {})", report.case
        );
        // The replayed suffix is bounded by what the checkpoint had not yet
        // absorbed.
        prop_assert!(report.replayed_ops <= scenario.interleave.len());
        if input.read_logs.values().all(|v| v.is_empty()) {
            prop_assert_eq!(report.case, 1);
        }
    }

    /// An NF failover before the store crash: one instance died, and its
    /// replacement — an id the checkpoint's `TS` does not know — replayed
    /// its packets from a random point at or before the first one the
    /// checkpoint had not absorbed, so its log re-issues clocks the
    /// checkpoint holds. The dead instance's log is gone. Recovery applies
    /// every committed operation exactly once: the replayed clocks the
    /// checkpoint holds are emulated against its duplicate-suppression log.
    #[test]
    fn a_replacements_replayed_clocks_are_applied_once(seed in any::<u64>()) {
        let scenario = Scenario::generate(seed);
        let (live_value, mut input) = scenario.build();
        input.read_logs.clear();
        let (dead, _) = scenario.interleave[0];
        let theirs: Vec<(usize, u64)> = scenario
            .interleave
            .iter()
            .enumerate()
            .filter(|(_, (instance, _))| *instance == dead)
            .map(|(at, (_, c))| (at, *c))
            .collect();
        let unabsorbed = theirs
            .iter()
            .position(|(at, _)| *at >= scenario.checkpoint_at)
            .unwrap_or(theirs.len());
        let from = StdRng::seed_from_u64(seed).gen_range(0..=unabsorbed);
        let mut replayed = WriteAheadLog::new();
        for (_, c) in &theirs[from..] {
            replayed.append(clock(*c), key(), Operation::Increment(1));
        }
        input.wals.remove(&dead);
        input.wals.insert(InstanceId(99), replayed);

        let (recovered, report) = recover_shared_state(&input);
        prop_assert_eq!(report.case, 1);
        prop_assert_eq!(
            recovered.peek(&key()),
            live_value,
            "replayed from op {} of {}, {} absorbed", from, theirs.len(), unabsorbed
        );
    }
}
