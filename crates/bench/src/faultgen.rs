//! Seeded generation of fault schedules, shared by the simulator and the
//! real-thread failure tests.
//!
//! A failure scenario is just data — which instance dies, at which logical
//! clock — so both substrates can execute *the same* seeded scenario: the
//! runtime through [`chc_runtime::FaultPlan`], the simulator by running to
//! the trigger packet's arrival time and calling
//! `ChainController::fail_instance` / `failover_instance`. New failure
//! scenarios in tests are one-liners:
//!
//! ```
//! use chc_bench::faultgen::FaultGen;
//! use chc_store::VertexId;
//!
//! let kill = FaultGen::new(42).kill_at(VertexId(1), 1, 1_600);
//! assert!(kill.at_counter >= 1_600 / 3 && kill.at_counter < 2 * 1_600 / 3);
//! let plan = chc_runtime::FaultPlan::new().kill(kill.vertex, kill.index, kill.at_counter);
//! assert_eq!(plan.kills, vec![kill]);
//! ```

use chc_runtime::{FaultPlan, InstanceKill, ShardFault};
use chc_store::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded source of fault schedules. The same seed always yields the same
/// schedule, so a failing scenario reproduces from its seed alone.
pub struct FaultGen {
    rng: StdRng,
}

impl FaultGen {
    /// Create a generator for `seed`.
    pub fn new(seed: u64) -> FaultGen {
        FaultGen {
            // Domain-separate from the trace generator so a shared seed does
            // not correlate the traffic with the fault schedule.
            rng: StdRng::seed_from_u64(seed ^ 0xFA17_F1A6_0000_0000),
        }
    }

    /// Sample a kill of one instance of `vertex` — any chain position:
    /// entry, mid-chain or tail — triggered in the middle third of a
    /// `trace_len`-packet trace: late enough that real state has
    /// accumulated, early enough that recovery is exercised by live traffic.
    pub fn kill_at(
        &mut self,
        vertex: VertexId,
        parallelism: usize,
        trace_len: usize,
    ) -> InstanceKill {
        let lo = (trace_len / 3).max(1) as u64;
        // Keep the sample range non-empty and the trigger inside the trace
        // even for degenerate 1–2 packet traces.
        let hi = (2 * trace_len / 3).max(lo as usize + 1) as u64;
        InstanceKill {
            vertex,
            index: self.rng.gen_range(0..parallelism.max(1)),
            at_counter: self.rng.gen_range(lo..hi).min(trace_len.max(1) as u64),
        }
    }

    /// Sample a root-kill trigger in the middle third of the trace (the
    /// root crashes just before stamping it, and a new root resumes from
    /// the persisted clock, losing what the dead root's output buffers
    /// held).
    pub fn root_kill(&mut self, trace_len: usize) -> u64 {
        let lo = (trace_len / 3).max(1) as u64;
        let hi = (2 * trace_len / 3).max(lo as usize + 1) as u64;
        self.rng.gen_range(lo..hi).min(trace_len.max(1) as u64)
    }

    /// Sample a shard restart in the middle third, checkpointed somewhere in
    /// the first third (degenerate traces collapse both to valid triggers).
    pub fn shard_restart(&mut self, shards: usize, trace_len: usize) -> ShardFault {
        let third = (trace_len / 3).max(2) as u64;
        let at_counter = self
            .rng
            .gen_range(third..2 * third)
            .min(trace_len.max(1) as u64);
        ShardFault {
            shard: self.rng.gen_range(0..shards.max(1)),
            at_counter,
            checkpoint_at: Some(self.rng.gen_range(1..third).min(at_counter)),
        }
    }

    /// A full single-failure plan: one instance kill at any position.
    pub fn kill_plan(
        &mut self,
        vertex: VertexId,
        parallelism: usize,
        trace_len: usize,
    ) -> FaultPlan {
        let kill = self.kill_at(vertex, parallelism, trace_len);
        FaultPlan::new().kill(kill.vertex, kill.index, kill.at_counter)
    }

    /// A full single-failure plan: the root stamping thread dies mid-trace.
    pub fn root_kill_plan(&mut self, trace_len: usize) -> FaultPlan {
        FaultPlan::new().kill_root(self.root_kill(trace_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed_and_in_bounds() {
        for seed in [1u64, 7, 99] {
            let a = FaultGen::new(seed).kill_at(VertexId(1), 2, 1200);
            let b = FaultGen::new(seed).kill_at(VertexId(1), 2, 1200);
            assert_eq!(a, b, "same seed must yield the same schedule");
            assert!(a.index < 2);
            assert!((400..800).contains(&a.at_counter));

            let s = FaultGen::new(seed).shard_restart(4, 1200);
            assert!(s.shard < 4);
            assert!((400..800).contains(&s.at_counter));
            assert!(s.checkpoint_at.unwrap() < 400);
        }
        let a = FaultGen::new(3).kill_at(VertexId(1), 4, 9000);
        let b = FaultGen::new(4).kill_at(VertexId(1), 4, 9000);
        assert_ne!(a, b, "different seeds should (here) differ");
    }

    #[test]
    fn position_generic_and_root_kill_generators() {
        let k = FaultGen::new(9).kill_at(VertexId(3), 2, 1200);
        assert!((400..800).contains(&k.at_counter));
        assert_eq!(k.vertex, VertexId(3));
        let r = FaultGen::new(9).root_kill(1200);
        assert!((400..800).contains(&r));
        assert_eq!(FaultGen::new(9).root_kill_plan(1200).root_kill, Some(r));
    }

    #[test]
    fn plans_survive_tiny_traces() {
        for (seed, len) in [(5u64, 1usize), (5, 2), (6, 3), (7, 4)] {
            let kill = FaultGen::new(seed).kill_at(VertexId(1), 1, len);
            assert!(
                kill.at_counter >= 1 && kill.at_counter <= len as u64,
                "len {len}: trigger {} outside trace",
                kill.at_counter
            );
            let shard = FaultGen::new(seed).shard_restart(4, len);
            assert!(shard.at_counter >= 1 && shard.at_counter <= len as u64);
            assert!(shard.checkpoint_at.unwrap() <= shard.at_counter);
        }
        let plan = FaultGen::new(5).kill_plan(VertexId(1), 1, 4);
        assert_eq!(plan.kills.len(), 1);
    }
}
