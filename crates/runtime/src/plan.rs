//! The chain plan: everything the engine decides before the first packet.
//!
//! [`ChainPlan::new`] compiles a [`LogicalDag`] plus the run's configuration
//! into instance identities, splitters, the fault schedule and the replay
//! topology. It is pure — it starts no thread, lays no ring, opens no store
//! and reads no clock — and it is the only place a [`RuntimeError`] is
//! raised, so a fault plan can be validated without running anything.

use crate::config::{RuntimeConfig, ScaleEvent};
use crate::engine::RuntimeError;
use crate::fault::{FaultPlan, InstanceKill};
use chc_core::{ChainConfig, LogicalDag, NetworkFunction, Splitter, StateObjectSpec, VertexSpec};
use chc_store::{InstanceId, VertexId, SINK_COMMIT_SOURCE};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Identity, role and NF code of one instance thread — a planned instance or
/// the replacement pre-assigned to a planned kill.
pub(crate) struct InstancePlan {
    pub(crate) vertex: VertexId,
    pub(crate) instance: InstanceId,
    /// Replica index within the vertex (journal events, ring labels).
    pub(crate) index: usize,
    /// Planned instances of the vertex: its `parallelism` plus a scale-out
    /// slot. A replacement takes a dead instance's place and adds none.
    /// Above one, no instance has a cross-flow object to itself.
    pub(crate) replicas: usize,
    /// Fail-stop trigger: the instance dies the first time it dequeues a
    /// live packet whose clock counter reaches this.
    pub(crate) kill_at: Option<u64>,
    /// The failed instance this one takes over from. A replacement publishes
    /// no commit watermark until its replay rings drain, because an
    /// inherited watermark only becomes true again once the replayed
    /// packets have been re-flushed downstream.
    pub(crate) replaces: Option<InstanceId>,
    pub(crate) off_path: bool,
    pub(crate) is_tail: bool,
    /// This vertex is the on-path upstream of some killed non-entry vertex:
    /// every live Forward it emits is tokenized and copied into its egress
    /// log, the replay source for that kill.
    pub(crate) log_egress: bool,
    pub(crate) downstream: Vec<VertexId>,
    pub(crate) nf: Box<dyn NetworkFunction>,
    pub(crate) objects: Vec<StateObjectSpec>,
}

impl InstancePlan {
    /// A healthy, never-killed instance of `v`; the planner overrides
    /// `kill_at` and `replaces` where the fault plan says so.
    fn new(
        dag: &LogicalDag,
        v: &VertexSpec,
        instance: InstanceId,
        index: usize,
        replicas: usize,
        log_egress: bool,
    ) -> InstancePlan {
        // Built on the planning thread: NF factories are `Rc`-based and must
        // not cross threads; the NF they build is `Send`.
        let nf = v.build_nf();
        let objects = nf.state_objects();
        InstancePlan {
            vertex: v.id,
            instance,
            index,
            replicas,
            kill_at: None,
            replaces: None,
            off_path: v.off_path,
            is_tail: dag.exits().contains(&v.id),
            log_egress,
            downstream: dag.downstream_of(v.id),
            nf,
            objects,
        }
    }
}

/// Where the supervisor reads the replay stream for one killed vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReplaySource {
    /// The killed vertex is a chain entry: replay the root's injection log.
    Root,
    /// The killed vertex sits mid-chain or at the tail: replay the merged
    /// egress logs of its on-path upstream vertices, sorted by clock.
    Upstream(Vec<VertexId>),
}

/// Store shards to act on when the root is about to inject a counter.
pub(crate) type ShardSchedule = HashMap<u64, Vec<usize>>;

/// Everything decided before the first packet. See the module docs.
pub struct ChainPlan {
    /// Packets per ring transfer (`RuntimeConfig::batch_size`, at least 1).
    pub(crate) batch: usize,
    /// Ring capacity: `queue_depth`, and never under two batches.
    pub(crate) depth: usize,
    pub(crate) trace_len: usize,
    /// True when a fault plan is active: the commit protocol runs and
    /// flushes happen at every batch boundary (commit implies durable).
    pub(crate) fault_mode: bool,
    /// True when instances suppress duplicate clocks at their input queues.
    pub(crate) dedup: bool,
    /// True when the plan kills an instance or the root: the XOR delete
    /// ledger then bounds the replay re-delivery windows.
    pub(crate) xor_ledger: bool,
    pub(crate) topo: Vec<VertexId>,
    pub(crate) entries: Vec<VertexId>,
    /// One splitter per vertex, the scale cut already scheduled.
    pub(crate) splitters: HashMap<VertexId, Splitter>,
    pub(crate) scale: Option<ScaleEvent>,
    /// Planned instances by slot, in `ChainController` order (vertex
    /// declaration order, then index, the scale-out instance last) so
    /// instance ids — the slot numbers — match the simulator's and per-flow
    /// datastore keys line up across substrates. Moved into the instance
    /// threads at spawn ([`ChainPlan::take_threads`]).
    pub(crate) instances: Vec<InstancePlan>,
    /// Plan slots per vertex, in instance-index order.
    pub(crate) slots: HashMap<VertexId, Vec<usize>>,
    /// The replacement for each killed slot. Ids follow every planned
    /// instance, in fault-plan order — the ids the simulator hands out when
    /// the equivalence test calls `failover_instance` in the same order.
    /// Moved into the supervisor at spawn.
    pub(crate) seeds: HashMap<usize, InstancePlan>,
    /// Replay source per killed vertex: a killed entry is restored from the
    /// root's injection log; a killed mid-chain or tail vertex from the
    /// egress logs of its on-path upstream vertices (FTMB-style per-vertex
    /// output logging), so the replay re-enters the chain at the killed
    /// vertex's own depth and upstream duplicate suppression can never eat
    /// it. Off-path vertices emit nothing, so they are never a source.
    pub(crate) replay_sources: BTreeMap<VertexId, ReplaySource>,
    /// Vertices that keep an egress log: every `Upstream` replay source.
    /// Armed on every instance of the vertex — and on its replacement,
    /// should the logging vertex itself be killed, so the log keeps covering
    /// live traffic across that failover.
    pub(crate) logging: BTreeSet<VertexId>,
    /// Commit sources bounding the root log: every on-path instance plus the
    /// sink must confirm a counter before it may be truncated.
    pub(crate) commit_sources: Vec<InstanceId>,
    /// Each egress log truncates against its *own* scope: the on-path
    /// instances strictly downstream of the logging vertex, plus the sink.
    /// (The logging vertex's own watermark says nothing about whether its
    /// egress has been consumed yet.)
    pub(crate) vertex_commit_scopes: Vec<(VertexId, Vec<InstanceId>)>,
    pub(crate) shard_checkpoints: ShardSchedule,
    pub(crate) shard_restarts: ShardSchedule,
    /// Shards some fault restarts; they journal from the start.
    pub(crate) journaled_shards: BTreeSet<usize>,
    pub(crate) reinject: HashSet<u64>,
    /// A re-injected copy travels the chain with no log holding it and no
    /// watermark covering it: while the supervisor runs, the store's replay
    /// floor stays below the drill (`min(reinject) − 1`).
    pub(crate) floor_cap: u64,
    pub(crate) root_kill: Option<u64>,
}

impl ChainPlan {
    /// Plan a run of `dag` over a `trace_len`-packet trace.
    pub fn new(
        dag: &LogicalDag,
        config: &ChainConfig,
        rt: &RuntimeConfig,
        trace_len: usize,
    ) -> Result<ChainPlan, RuntimeError> {
        let topo = dag.topo_order()?;
        let mut splitters: HashMap<VertexId, Splitter> = dag
            .vertices()
            .iter()
            .map(|v| (v.id, Splitter::for_vertex(v)))
            .collect();
        // One slot per instance; the slot number is the instance id.
        let mut identities: Vec<(&VertexSpec, usize)> = dag
            .vertices()
            .iter()
            .flat_map(|v| (0..v.parallelism).map(move |idx| (v, idx)))
            .collect();
        if let Some(scale) = rt.scale {
            let v = dag
                .vertex(scale.vertex)
                .ok_or(RuntimeError::UnknownScaleVertex(scale.vertex))?;
            identities.push((v, v.parallelism));
            let splitter = splitters.get_mut(&v.id).expect("splitter per vertex");
            splitter.schedule_scale(scale.first_counter, v.parallelism + 1);
        }
        let mut slots: HashMap<VertexId, Vec<usize>> = HashMap::new();
        for (slot, (v, _)) in identities.iter().enumerate() {
            slots.entry(v.id).or_default().push(slot);
        }

        let fault = &rt.fault;
        let killed_slots = validate_kills(dag, fault, &slots, trace_len)?;
        let shards = rt.store_shards.max(1);
        let (shard_checkpoints, shard_restarts) = shard_schedule(fault, shards, trace_len)?;
        let reinject: HashSet<u64> = fault.reinject.iter().copied().collect();
        if let Some(&counter) = reinject.iter().find(|&&c| outside(c, trace_len)) {
            return Err(RuntimeError::ReinjectOutsideTrace { counter, trace_len });
        }

        let entries = dag.entries();
        let (replay_sources, logging) = replay_topology(dag, fault, &entries);
        let instances: Vec<InstancePlan> = identities
            .iter()
            .enumerate()
            .map(|(slot, &(v, idx))| InstancePlan {
                kill_at: killed_slots
                    .iter()
                    .find(|(s, _)| *s == slot)
                    .map(|(_, kill)| kill.at_counter),
                ..InstancePlan::new(
                    dag,
                    v,
                    id_of(slot),
                    idx,
                    slots[&v.id].len(),
                    logging.contains(&v.id),
                )
            })
            .collect();
        let seeds: HashMap<usize, InstancePlan> = killed_slots
            .iter()
            .enumerate()
            .map(|(k, &(slot, kill))| {
                let v = identities[slot].0;
                let id = id_of(instances.len() + k);
                let dead = &instances[slot];
                let seed = InstancePlan {
                    replaces: Some(dead.instance),
                    ..InstancePlan::new(dag, v, id, kill.index, dead.replicas, dead.log_egress)
                };
                (slot, seed)
            })
            .collect();

        let commit_sources = commit_scope(&instances, |_| true);
        let vertex_commit_scopes = logging
            .iter()
            .map(|&u| {
                let below = strictly_downstream(dag, u);
                (u, commit_scope(&instances, |v| below.contains(&v)))
            })
            .collect();

        let fault_mode = !fault.is_empty();
        let batch = rt.batch_size.max(1);
        Ok(ChainPlan {
            batch,
            depth: rt.queue_depth.max(batch * 2),
            trace_len,
            fault_mode,
            dedup: fault_mode && config.duplicate_suppression,
            xor_ledger: !fault.kills.is_empty() || fault.root_kill.is_some(),
            topo,
            entries,
            splitters,
            scale: rt.scale,
            instances,
            slots,
            seeds,
            replay_sources,
            logging,
            commit_sources,
            vertex_commit_scopes,
            shard_checkpoints,
            shard_restarts,
            journaled_shards: fault.shard_faults.iter().map(|sf| sf.shard).collect(),
            floor_cap: reinject.iter().min().map_or(u64::MAX, |c| c - 1),
            reinject,
            root_kill: fault.root_kill,
        })
    }

    /// Plan slots of `vertex`'s instances, in instance-index order.
    pub(crate) fn slots_of(&self, vertex: VertexId) -> &[usize] {
        self.slots.get(&vertex).map_or(&[], Vec::as_slice)
    }

    /// Move out what the threads own — the instance plans with their NF code
    /// and the replacement seeds. What stays behind is read-only for the
    /// rest of the run.
    pub(crate) fn take_threads(&mut self) -> (Vec<InstancePlan>, HashMap<usize, InstancePlan>) {
        (
            std::mem::take(&mut self.instances),
            std::mem::take(&mut self.seeds),
        )
    }
}

fn id_of(slot: usize) -> InstanceId {
    InstanceId(slot as u32)
}

/// A trigger counter no packet of the trace carries.
fn outside(counter: u64, trace_len: usize) -> bool {
    counter == 0 || counter > trace_len as u64
}

/// Check every kill of the plan and resolve it to its plan slot, in
/// fault-plan order.
fn validate_kills(
    dag: &LogicalDag,
    fault: &FaultPlan,
    slots: &HashMap<VertexId, Vec<usize>>,
    trace_len: usize,
) -> Result<Vec<(usize, InstanceKill)>, RuntimeError> {
    let mut killed: Vec<(usize, InstanceKill)> = Vec::new();
    for kill in &fault.kills {
        if dag.vertex(kill.vertex).is_none() {
            return Err(RuntimeError::UnknownFaultVertex(kill.vertex));
        }
        let of_vertex = slots.get(&kill.vertex).map_or(&[][..], Vec::as_slice);
        let Some(&slot) = of_vertex.get(kill.index) else {
            return Err(RuntimeError::FaultIndexOutOfRange {
                vertex: kill.vertex,
                index: kill.index,
                instances: of_vertex.len(),
            });
        };
        if outside(kill.at_counter, trace_len) {
            return Err(RuntimeError::KillOutsideTrace {
                at_counter: kill.at_counter,
                trace_len,
            });
        }
        if killed.iter().any(|(s, _)| *s == slot) {
            return Err(RuntimeError::DuplicateKill {
                vertex: kill.vertex,
                index: kill.index,
            });
        }
        killed.push((slot, *kill));
    }
    match fault.root_kill {
        Some(at_counter) if outside(at_counter, trace_len) => Err(RuntimeError::KillOutsideTrace {
            at_counter,
            trace_len,
        }),
        _ => Ok(killed),
    }
}

/// Replay source per killed vertex and the set of vertices that must log
/// their egress for it (see the field docs on [`ChainPlan`]).
fn replay_topology(
    dag: &LogicalDag,
    fault: &FaultPlan,
    entries: &[VertexId],
) -> (BTreeMap<VertexId, ReplaySource>, BTreeSet<VertexId>) {
    let mut sources = BTreeMap::new();
    let mut logging = BTreeSet::new();
    for kill in &fault.kills {
        let source = if entries.contains(&kill.vertex) {
            ReplaySource::Root
        } else {
            let on_path = |u: &VertexId| dag.vertex(*u).is_some_and(|v| !v.off_path);
            let mut ups = dag.upstream_of(kill.vertex);
            ups.retain(on_path);
            logging.extend(ups.iter().copied());
            ReplaySource::Upstream(ups)
        };
        sources.insert(kill.vertex, source);
    }
    (sources, logging)
}

/// The `(checkpoint, restart)` schedules of the plan's shard faults.
fn shard_schedule(
    fault: &FaultPlan,
    shards: usize,
    trace_len: usize,
) -> Result<(ShardSchedule, ShardSchedule), RuntimeError> {
    let mut checkpoints = ShardSchedule::new();
    let mut restarts = ShardSchedule::new();
    for sf in &fault.shard_faults {
        if sf.shard >= shards {
            return Err(RuntimeError::ShardOutOfRange {
                shard: sf.shard,
                shards,
            });
        }
        for at_counter in std::iter::once(sf.at_counter).chain(sf.checkpoint_at) {
            if outside(at_counter, trace_len) {
                return Err(RuntimeError::ShardFaultOutsideTrace {
                    at_counter,
                    trace_len,
                });
            }
        }
        if let Some(cp) = sf.checkpoint_at {
            checkpoints.entry(cp).or_default().push(sf.shard);
        }
        restarts.entry(sf.at_counter).or_default().push(sf.shard);
    }
    Ok((checkpoints, restarts))
}

/// The commit sources among `instances` whose vertex passes `covers`: the
/// on-path ones (an off-path instance forwards nothing and publishes no
/// watermark), plus the sink.
fn commit_scope(instances: &[InstancePlan], covers: impl Fn(VertexId) -> bool) -> Vec<InstanceId> {
    instances
        .iter()
        .filter(|p| !p.off_path && covers(p.vertex))
        .map(|p| p.instance)
        .chain(std::iter::once(SINK_COMMIT_SOURCE))
        .collect()
}

/// Every vertex reachable from `u` (in a DAG that never includes `u`).
fn strictly_downstream(dag: &LogicalDag, u: VertexId) -> HashSet<VertexId> {
    let mut below = HashSet::new();
    let mut stack = dag.downstream_of(u);
    while let Some(d) = stack.pop() {
        if below.insert(d) {
            stack.extend(dag.downstream_of(d));
        }
    }
    below
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use chc_nf::{Firewall, LoadBalancer, Nat};
    use std::rc::Rc;

    pub(crate) const FW: VertexId = VertexId(1);
    pub(crate) const NAT: VertexId = VertexId(2);
    const LB: VertexId = VertexId(3);

    pub(crate) fn fw_nat_lb() -> LogicalDag {
        LogicalDag::linear(vec![
            VertexSpec::new(
                1,
                "firewall",
                Rc::new(|| Box::new(Firewall::with_default_policy())),
            ),
            VertexSpec::new(2, "nat", Rc::new(|| Box::new(Nat::default()))),
            VertexSpec::new(
                3,
                "lb",
                Rc::new(|| Box::new(LoadBalancer::with_default_backends())),
            ),
        ])
    }

    fn plan(fault: FaultPlan) -> ChainPlan {
        let rt = RuntimeConfig::default().with_fault(fault);
        ChainPlan::new(&fw_nat_lb(), &ChainConfig::default(), &rt, 1_000).expect("valid plan")
    }

    /// One instance per vertex, so instance ids 0, 1, 2 are FW, NAT, LB.
    fn ids(ids: &[u32]) -> Vec<InstanceId> {
        let planned = ids.iter().map(|&i| InstanceId(i));
        planned.chain([SINK_COMMIT_SOURCE]).collect()
    }

    #[test]
    fn the_replay_topology_follows_the_kill_position() {
        // Entry: replayed from the root log; nobody logs egress.
        let entry = plan(FaultPlan::new().kill(FW, 0, 500));
        assert_eq!(entry.replay_sources[&FW], ReplaySource::Root);
        assert!(entry.logging.is_empty() && entry.vertex_commit_scopes.is_empty());
        assert!(entry.instances.iter().all(|p| !p.log_egress));
        assert_eq!(entry.commit_sources, ids(&[0, 1, 2]));
        assert_eq!(entry.instances[0].kill_at, Some(500));
        assert!(entry.xor_ledger && entry.fault_mode && entry.dedup);

        // Mid-chain: replayed from the firewall's egress log, which
        // truncates against everything strictly below the firewall.
        let mid = plan(FaultPlan::new().kill(NAT, 0, 500));
        assert_eq!(mid.replay_sources[&NAT], ReplaySource::Upstream(vec![FW]));
        assert_eq!(mid.logging, BTreeSet::from([FW]));
        assert_eq!(mid.vertex_commit_scopes, vec![(FW, ids(&[1, 2]))]);
        let logging: Vec<bool> = mid.instances.iter().map(|p| p.log_egress).collect();
        assert_eq!(logging, [true, false, false]);

        // Tail: replayed from the NAT's log; its scope is the LB and the
        // sink, never the logging vertex itself.
        let tail = plan(FaultPlan::new().kill(LB, 0, 500));
        assert_eq!(tail.replay_sources[&LB], ReplaySource::Upstream(vec![NAT]));
        assert_eq!(tail.vertex_commit_scopes, vec![(NAT, ids(&[2]))]);
        assert!(tail.instances[2].is_tail && !tail.instances[1].is_tail);

        // Root: nothing to replay into, but the ledger is still needed.
        let root = plan(FaultPlan::new().kill_root(500));
        assert!(root.replay_sources.is_empty() && root.seeds.is_empty());
        assert_eq!(root.root_kill, Some(500));
        assert!(root.xor_ledger && root.fault_mode);

        // No plan, no fault machinery.
        let healthy = plan(FaultPlan::new());
        assert!(!healthy.fault_mode && !healthy.dedup && !healthy.xor_ledger);
        assert_eq!(healthy.floor_cap, u64::MAX);
    }

    #[test]
    fn replacements_take_the_ids_after_every_planned_instance_in_plan_order() {
        let fault = FaultPlan::new()
            .kill(LB, 0, 600)
            .kill(FW, 0, 300)
            .reinject([40, 7, 90]);
        let p = plan(fault);
        assert_eq!(p.instances.len(), 3);
        // Seeds are keyed by the killed slot; ids follow fault-plan order.
        let seed = |slot: usize| &p.seeds[&slot];
        assert_eq!(seed(2).instance, InstanceId(3));
        assert_eq!(seed(0).instance, InstanceId(4));
        assert_eq!(seed(2).replaces, Some(InstanceId(2)));
        assert_eq!(seed(0).replaces, Some(InstanceId(0)));
        assert_eq!((seed(2).vertex, seed(2).index), (LB, 0));
        assert!(seed(2).kill_at.is_none() && seed(2).is_tail);
        // The LB's killed, so the NAT logs; the FW's replacement does not.
        assert!(!seed(0).log_egress && p.instances[1].log_egress);
        // The store's floor stays under the smallest re-injected counter.
        assert_eq!(p.floor_cap, 6);
        assert_eq!(p.reinject, HashSet::from([40, 7, 90]));
    }

    #[test]
    fn a_scale_out_adds_the_last_slot_and_a_killed_logger_keeps_logging() {
        let rt = RuntimeConfig::default()
            .with_scale(NAT, 400)
            .with_fault(FaultPlan::new().kill(LB, 0, 600).kill(NAT, 1, 700));
        let p = ChainPlan::new(&fw_nat_lb(), &ChainConfig::default(), &rt, 1_000).unwrap();
        // The scale-out instance is slot 3, index 1 of the NAT.
        assert_eq!(p.slots_of(NAT), [1, 3]);
        assert_eq!((p.instances[3].vertex, p.instances[3].index), (NAT, 1));
        assert_eq!(p.instances[3].kill_at, Some(700));
        // The NAT logs for the LB's kill — on both instances and on the
        // replacement of the one that dies.
        assert!(p.instances[1].log_egress && p.instances[3].log_egress);
        assert!(p.seeds[&3].log_egress);
        assert_eq!(p.seeds[&3].instance, InstanceId(5));
        // The NAT's own kill is fed from the firewall's log.
        assert_eq!(p.logging, BTreeSet::from([FW, NAT]));
        assert_eq!(p.vertex_commit_scopes[0], (FW, ids(&[1, 2, 3])));
        assert_eq!(p.vertex_commit_scopes[1], (NAT, ids(&[2])));
    }
}
