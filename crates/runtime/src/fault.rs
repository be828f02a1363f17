//! Fail-stop fault injection for the real-thread engine.
//!
//! A [`FaultPlan`] describes, ahead of a run, the failures the engine must
//! execute on real threads — the wall-clock counterpart of the simulator's
//! `ChainController::fail_instance` / `failover_instance` drills:
//!
//! * **Instance kills** ([`InstanceKill`]): the target instance's thread
//!   fail-stops the first time it dequeues a *live* packet whose logical
//!   clock counter reaches the trigger. Its unflushed output batches are
//!   lost (exactly what a crashed process would lose). The same thread
//!   then re-associates the failed instance's per-flow store state with a
//!   replacement under a fresh instance id and runs that replacement on the
//!   dead instance's SPSC wiring. The replacement replays the logged packets
//!   routed to it before it takes live traffic (see [`crate::replay`]).
//! * **Shard restarts** ([`ShardFault`]): when the root's injection counter
//!   reaches the trigger, the named store shard is crashed and rebuilt from
//!   its durable checkpoint + write-ahead journal
//!   ([`chc_store::StoreServer::restart_shard`]) while concurrent clients
//!   block on the shard lock — an outage visible as latency, never as lost
//!   or phantom state.
//! * **Re-injections** (`reinject`): after the trace, the root re-sends the
//!   listed logged packets unmarked. With duplicate suppression disabled
//!   this drives exactly-counted duplicates into the sink's accounting
//!   (the "no silent dedup" check); with suppression enabled it exercises
//!   the queue-level suppression path.
//! * **A root kill** (`root_kill`): the root crashes and a new root takes
//!   over on the same thread, from what §5.4 says survives a root crash —
//!   the clock persisted in the store, the rings and the input stream. The
//!   packets in the dead root's unflushed output batches are lost, like
//!   network drops ([`RootTakeover::lost`]). It is the plan's only fault.
//!
//! Keying every trigger on the *logical clock* (not wall time) keeps fault
//! schedules reproducible across runs and portable to the simulator, which
//! is what the cross-substrate failure-equivalence tests rely on.

use chc_core::VertexLogStats;
use chc_packet::PacketId;
use chc_store::{InstanceId, VertexId};
use std::time::Duration;

/// Kill the `index`-th instance of `vertex` when it first dequeues a live
/// packet with clock counter `>= at_counter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceKill {
    /// The vertex whose instance dies.
    pub vertex: VertexId,
    /// Index of the instance within the vertex (splitter index order).
    pub index: usize,
    /// First logical-clock counter that triggers the fail-stop.
    pub at_counter: u64,
}

/// Crash-and-recover one store shard when the root's injection counter
/// reaches `at_counter`, optionally checkpointing it earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFault {
    /// Index of the store shard to restart.
    pub shard: usize,
    /// Injection counter at which the shard is crashed and recovered.
    pub at_counter: u64,
    /// Injection counter at which a checkpoint is taken first (recovery then
    /// replays only the journal suffix; `None` replays the whole journal).
    pub checkpoint_at: Option<u64>,
}

/// A pre-planned schedule of fail-stop failures for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Instance fail-stops, in failover order (replacement instance ids are
    /// assigned in this order, matching the order the simulator test calls
    /// `failover_instance`).
    pub kills: Vec<InstanceKill>,
    /// Store shard restarts.
    pub shard_faults: Vec<ShardFault>,
    /// Clock counters of logged packets the root re-injects after the trace.
    pub reinject: Vec<u64>,
    /// Crash the root just before it would stamp this clock counter. Its
    /// clock, packet log, drill buffer and unflushed output batches die with
    /// it. A new root resumes from the clock persisted in the store, plus
    /// one persist period, on the same rings and the rest of the input
    /// (§5.4, "root" failover). Planned with no other fault.
    pub root_kill: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (no failures).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing (the engine then runs the
    /// zero-overhead healthy path: no packet log, no commit publishing).
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
            && self.shard_faults.is_empty()
            && self.reinject.is_empty()
            && self.root_kill.is_none()
    }

    /// Builder-style instance kill.
    pub fn kill(mut self, vertex: VertexId, index: usize, at_counter: u64) -> FaultPlan {
        self.kills.push(InstanceKill {
            vertex,
            index,
            at_counter,
        });
        self
    }

    /// Builder-style shard restart.
    pub fn restart_shard(
        mut self,
        shard: usize,
        at_counter: u64,
        checkpoint_at: Option<u64>,
    ) -> FaultPlan {
        self.shard_faults.push(ShardFault {
            shard,
            at_counter,
            checkpoint_at,
        });
        self
    }

    /// Builder-style re-injection of logged packets after the trace.
    pub fn reinject(mut self, counters: impl IntoIterator<Item = u64>) -> FaultPlan {
        self.reinject.extend(counters);
        self
    }

    /// Builder-style root kill at `at_counter` (see [`FaultPlan::root_kill`]).
    pub fn kill_root(mut self, at_counter: u64) -> FaultPlan {
        self.root_kill = Some(at_counter);
        self
    }
}

/// What one instance failover did (one entry per executed [`InstanceKill`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceRecovery {
    /// Vertex of the killed instance.
    pub vertex: VertexId,
    /// Index of the killed instance within the vertex.
    pub index: usize,
    /// Id of the instance that died.
    pub failed_instance: InstanceId,
    /// Id of the replacement instance.
    pub replacement: InstanceId,
    /// Logged packets the replacement replayed: the copies of its vertex's
    /// replay sources routed to its own index.
    pub packets_replayed: u64,
    /// Wall-clock time from fail-stop detection until the replacement has
    /// processed and flushed its replay (it takes live traffic from this
    /// point on).
    pub recovery_wall: Duration,
}

/// What one shard restart did (one entry per executed [`ShardFault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecovery {
    /// The restarted shard.
    pub shard: usize,
    /// Injection counter at which the restart ran.
    pub at_counter: u64,
    /// Objects restored from the checkpoint.
    pub restored_from_checkpoint: usize,
    /// Journal operations re-applied on top of the checkpoint.
    pub replayed_ops: usize,
    /// Wall-clock duration of crash + recovery (clients blocked this long).
    pub recovery_wall: Duration,
}

/// What a root crash lost and where the new root resumed (§5.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootTakeover {
    /// Counter the root was about to stamp when it died.
    pub killed_at: u64,
    /// First counter the new root stamped: the persisted counter plus
    /// `CLOCK_PERSIST_PERIOD`, `100 · ⌊(killed_at − 1) / 100⌋ + 101`.
    pub resumed_at: u64,
    /// Ids of the packets lost in the dead root's unflushed output
    /// buffers, sorted, each once: at most `(batch − 1)` per root ring.
    pub lost: Vec<PacketId>,
    /// Wall-clock time from the crash until the new root is ready to stamp.
    pub recovery_wall: Duration,
}

/// A failover abandoned instead of letting the run hang or panic. Nothing
/// produces one any more: every planned kill carries its replacement, so a
/// failover cannot lack one. The type stays because the repository
/// benchmark reads [`FaultReport::aborts`], which is always empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverAbort {
    /// Vertex of the failed slot (`VertexId(u32::MAX)` when the slot could
    /// not be resolved to a seed).
    pub vertex: VertexId,
    /// Replica index of the failed slot.
    pub index: usize,
    /// Why the failover was abandoned.
    pub reason: String,
}

/// Fault-injection outcome of one run, attached to
/// [`crate::RuntimeReport::fault`] when a [`FaultPlan`] was active.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// One record per executed instance failover.
    pub recoveries: Vec<InstanceRecovery>,
    /// One record per executed shard restart.
    pub shard_recoveries: Vec<ShardRecovery>,
    /// Largest root packet log observed (packets).
    pub log_high_water: usize,
    /// Entries the root's log dropped because the chain confirmed them, cut
    /// at the commit frontier (the egress logs' rows are in `vertex_logs`).
    pub log_truncated: u64,
    /// Packets still logged when the run ended (unconfirmed by the commit
    /// frontier; a conservative, not an exact, completion measure).
    pub log_final_len: usize,
    /// Packets the root rejected because the log was full.
    pub log_rejected: u64,
    /// Logged packets re-injected after the trace.
    pub reinjected: u64,
    /// The new root's takeover record, when the plan killed the root.
    pub root_takeover: Option<RootTakeover>,
    /// Failovers abandoned instead of hanging the run: always empty (see
    /// [`FailoverAbort`]).
    pub aborts: Vec<FailoverAbort>,
    /// Per-vertex egress log statistics (one entry per armed upstream of a
    /// killed non-entry vertex; empty when every kill was at an entry).
    pub vertex_logs: Vec<VertexLogStats>,
}

impl FaultReport {
    /// Total packets replayed across all instance failovers, each
    /// replacement counting only the copies routed to it.
    pub fn packets_replayed(&self) -> u64 {
        self.recoveries.iter().map(|r| r.packets_replayed).sum()
    }

    /// The longest single recovery (instance failovers, shard restarts and
    /// the root takeover).
    pub fn max_recovery_wall(&self) -> Duration {
        self.recoveries
            .iter()
            .map(|r| r.recovery_wall)
            .chain(self.shard_recoveries.iter().map(|r| r.recovery_wall))
            .chain(self.root_takeover.iter().map(|r| r.recovery_wall))
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_and_empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        let plan = FaultPlan::new()
            .kill(VertexId(1), 0, 500)
            .restart_shard(2, 800, Some(400))
            .reinject([10, 20]);
        assert!(!plan.is_empty());
        assert_eq!(plan.kills.len(), 1);
        assert_eq!(plan.shard_faults[0].checkpoint_at, Some(400));
        assert_eq!(plan.reinject, vec![10, 20]);
        // A root kill alone makes the plan non-empty (the engine must run
        // the fault path to arm the log and persist the clock).
        let root_only = FaultPlan::new().kill_root(300);
        assert!(!root_only.is_empty());
        assert_eq!(root_only.root_kill, Some(300));
    }

    #[test]
    fn fault_report_aggregates() {
        let report = FaultReport {
            recoveries: vec![InstanceRecovery {
                vertex: VertexId(1),
                index: 0,
                failed_instance: InstanceId(0),
                replacement: InstanceId(2),
                packets_replayed: 40,
                recovery_wall: Duration::from_micros(300),
            }],
            shard_recoveries: vec![ShardRecovery {
                shard: 1,
                at_counter: 700,
                restored_from_checkpoint: 5,
                replayed_ops: 9,
                recovery_wall: Duration::from_micros(900),
            }],
            ..FaultReport::default()
        };
        assert_eq!(report.packets_replayed(), 40);
        assert_eq!(report.max_recovery_wall(), Duration::from_micros(900));
    }
}
