//! Property tests for store recovery (R6, §5.4): a crashed shard restarts
//! from its latest checkpoint plus the journal that follows it. For
//! arbitrary multi-instance histories on one shared object and arbitrary
//! checkpoint positions, the restart rebuilds the pre-crash store without
//! losing or double-applying any committed operation — also when an NF
//! failover left a replacement that re-issues clocks the store already
//! applied, before the crash and after it.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is part of the case.

use chc_store::{BackendKind, Clock, InstanceId, ObjectKey, Operation, StateKey, StoreServer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn key() -> StateKey {
    StateKey::shared(chc_store::VertexId(1), ObjectKey::named("shared_counter"))
}

fn clock(n: u64) -> Clock {
    Clock::with_root(0, n)
}

fn increment(server: &StoreServer, instance: InstanceId, n: u64) {
    server
        .apply(instance, &key(), &Operation::Increment(1), Some(clock(n)))
        .unwrap();
}

/// A randomized multi-instance history against one shared object: the
/// interleave is the order the store executed the increments in, and the
/// checkpoint cuts it at a random position.
struct Scenario {
    /// Execution order: `(instance, clock counter)` per increment.
    interleave: Vec<(InstanceId, u64)>,
    /// Interleave position of the checkpoint.
    checkpoint_at: usize,
}

impl Scenario {
    fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let instances = rng.gen_range(1..=4u32);
        // Distinct clocks, rising within each instance.
        let mut last = 0u64;
        let per_instance: Vec<Vec<u64>> = (0..instances)
            .map(|_| {
                let ops = rng.gen_range(1..=10usize);
                (0..ops)
                    .map(|_| {
                        last += rng.gen_range(1..=3u64);
                        last
                    })
                    .collect()
            })
            .collect();
        // Random fair merge: per-instance order is preserved (an instance
        // issues its ops in clock order), the cross-instance interleave is
        // arbitrary — exactly the store's freedom.
        let mut cursors = vec![0usize; per_instance.len()];
        let mut interleave = Vec::new();
        loop {
            let live: Vec<usize> = (0..per_instance.len())
                .filter(|i| cursors[*i] < per_instance[*i].len())
                .collect();
            if live.is_empty() {
                break;
            }
            let pick = live[rng.gen_range(0..live.len())];
            interleave.push((InstanceId(pick as u32), per_instance[pick][cursors[pick]]));
            cursors[pick] += 1;
        }
        let checkpoint_at = rng.gen_range(0..=interleave.len());
        Scenario {
            interleave,
            checkpoint_at,
        }
    }

    /// Execute the scenario on a journaled one-shard server that keeps a
    /// duplicate-suppression log, as the simulator's store does, with the
    /// checkpoint taken mid-stream.
    fn build(&self) -> Arc<StoreServer> {
        let server = StoreServer::with_backend(1, BackendKind::Memory);
        assert!(server.track_replays());
        server.set_shard_journaling(0, true);
        for (at, (instance, c)) in self.interleave.iter().enumerate() {
            if at == self.checkpoint_at {
                server.checkpoint_shard(0);
            }
            increment(&server, *instance, *c);
        }
        if self.checkpoint_at == self.interleave.len() {
            server.checkpoint_shard(0);
        }
        server
    }
}

proptest! {
    /// A restart from an arbitrary checkpoint position plus the journal
    /// reconstructs the pre-crash store: every committed operation is
    /// applied exactly once — none lost, none double-applied — and exactly
    /// the operations after the checkpoint are replayed.
    #[test]
    fn recovery_applies_every_op_exactly_once(seed in any::<u64>()) {
        let scenario = Scenario::generate(seed);
        let server = scenario.build();
        let total_ops = scenario.interleave.len() as i64;
        prop_assert_eq!(server.peek(&key()).as_int(), total_ops);
        let dump = server.dump();

        server.crash_shard(0);
        let stats = server.recover_shard(0);
        prop_assert_eq!(server.dump(), dump, "lost or double-applied updates");
        prop_assert_eq!(
            stats.replayed_ops,
            scenario.interleave.len() - scenario.checkpoint_at
        );
    }

    /// An NF failover: one instance died, and its replacement — an id the
    /// store has never seen — replays its packets from a random point, so it
    /// re-issues clocks the store already applied, some of them into the
    /// checkpoint. The store crashes and restarts partway through that
    /// replay. Every committed operation stays applied exactly once: a
    /// replayed clock is emulated against the duplicate-suppression log the
    /// image and the journal restore, and an emulated op is never journaled.
    #[test]
    fn a_replacements_replayed_clocks_are_applied_once(seed in any::<u64>()) {
        let scenario = Scenario::generate(seed);
        let server = scenario.build();
        let live_value = server.peek(&key());
        let (dead, _) = scenario.interleave[0];
        let theirs: Vec<u64> = scenario
            .interleave
            .iter()
            .filter(|(instance, _)| *instance == dead)
            .map(|(_, c)| *c)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let from = rng.gen_range(0..theirs.len());
        let crash_at = rng.gen_range(from..=theirs.len());
        let replacement = InstanceId(99);
        server.reassign_owner(dead, replacement);
        for (at, c) in theirs.iter().enumerate().skip(from) {
            if at == crash_at {
                server.crash_shard(0);
                server.recover_shard(0);
            }
            increment(&server, replacement, *c);
        }
        server.crash_shard(0);
        server.recover_shard(0);
        prop_assert_eq!(
            server.peek(&key()),
            live_value,
            "replayed from op {} of {}, crashed at {}", from, theirs.len(), crash_at
        );
    }
}
