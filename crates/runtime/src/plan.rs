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
use chc_core::root::ROOT_VERTEX;
use chc_core::{ChainConfig, LogicalDag, NetworkFunction, Splitter, StateObjectSpec, VertexSpec};
use chc_store::{InstanceId, VertexId};
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
    /// The failed instance this one takes over from, watermark slot
    /// included. A replacement publishes no commit watermark until its
    /// replay rings drain, because an inherited watermark only becomes true
    /// again once the replayed packets have been re-flushed downstream.
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

    /// The plan slot this instance publishes its commit watermark under:
    /// its own (the slot number is the instance id), or the one it inherits
    /// from the instance it replaces.
    pub(crate) fn slot(&self) -> usize {
        self.replaces.unwrap_or(self.instance).0 as usize
    }
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
    /// The logs each killed vertex is replayed from, merged in clock order:
    /// the root's (`[ROOT_VERTEX]`) for a killed entry; for a killed
    /// mid-chain or tail vertex the egress logs of its on-path upstream
    /// vertices (FTMB-style per-vertex output logging), so the replay
    /// re-enters the chain at the killed vertex's own depth and upstream
    /// duplicate suppression can never eat it. Off-path vertices emit
    /// nothing, so they are never a source.
    pub(crate) replay_sources: BTreeMap<VertexId, Vec<VertexId>>,
    /// Every packet log of the run with the commit scope it truncates
    /// against — the plan slots (the sink is the last one) whose watermarks
    /// must all pass a counter before the log may forget it. The root's row
    /// comes first: every on-path instance plus the sink. Then one row per
    /// egress-logging vertex (a replay source other than the root; armed on
    /// every instance of the vertex and on their replacements): the on-path
    /// instances strictly downstream of it plus the sink — its own watermark
    /// says nothing about whether its egress has been consumed yet. A
    /// replacement publishes under the slot it inherits, so the scopes never
    /// change during a run.
    pub(crate) log_scopes: Vec<(VertexId, Vec<usize>)>,
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

        let root_scope = (ROOT_VERTEX, commit_scope(&instances, |_| true));
        let log_scopes = std::iter::once(root_scope)
            .chain(logging.iter().map(|&u| {
                let below = strictly_downstream(dag, u);
                (u, commit_scope(&instances, |v| below.contains(&v)))
            }))
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
            log_scopes,
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

/// Replay sources per killed vertex and the set of vertices that must log
/// their egress for it (see the field docs on [`ChainPlan`]).
fn replay_topology(
    dag: &LogicalDag,
    fault: &FaultPlan,
    entries: &[VertexId],
) -> (BTreeMap<VertexId, Vec<VertexId>>, BTreeSet<VertexId>) {
    let mut sources = BTreeMap::new();
    let mut logging = BTreeSet::new();
    for kill in &fault.kills {
        let ups = if entries.contains(&kill.vertex) {
            vec![ROOT_VERTEX]
        } else {
            let on_path = |u: &VertexId| dag.vertex(*u).is_some_and(|v| !v.off_path);
            let mut ups = dag.upstream_of(kill.vertex);
            ups.retain(on_path);
            logging.extend(ups.iter().copied());
            ups
        };
        sources.insert(kill.vertex, ups);
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

/// The slots of the `instances` whose vertex passes `covers` — the on-path
/// ones (an off-path instance forwards nothing and publishes no watermark)
/// — plus the sink's, the slot after the last instance.
fn commit_scope(instances: &[InstancePlan], covers: impl Fn(VertexId) -> bool) -> Vec<usize> {
    let on_path = |slot: &usize| !instances[*slot].off_path && covers(instances[*slot].vertex);
    let sink = instances.len();
    (0..sink).filter(on_path).chain([sink]).collect()
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
    use chc_core::dag::DagError;
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

    /// One instance per vertex: slots 0, 1, 2 are FW, NAT, LB, the sink's
    /// is 3 — and the root's scope, the first row, is all four.
    fn root_row() -> (VertexId, Vec<usize>) {
        (ROOT_VERTEX, vec![0, 1, 2, 3])
    }

    #[test]
    fn the_replay_topology_follows_the_kill_position() {
        // Entry: replayed from the root's log, the only one.
        let entry = plan(FaultPlan::new().kill(FW, 0, 500));
        assert_eq!(entry.replay_sources[&FW], [ROOT_VERTEX]);
        assert_eq!(entry.log_scopes, [root_row()]);
        assert!(entry.instances.iter().all(|p| !p.log_egress));
        assert_eq!(entry.instances[0].kill_at, Some(500));
        assert!(entry.xor_ledger && entry.fault_mode && entry.dedup);
        // The replacement is instance 3 and publishes under the dead slot.
        assert_eq!(entry.seeds[&0].instance, InstanceId(3));
        assert_eq!((entry.seeds[&0].slot(), entry.instances[1].slot()), (0, 1));

        // Mid-chain: replayed from the firewall's egress log, which
        // truncates against everything strictly below the firewall.
        let mid = plan(FaultPlan::new().kill(NAT, 0, 500));
        assert_eq!(mid.replay_sources[&NAT], [FW]);
        assert_eq!(mid.log_scopes, [root_row(), (FW, vec![1, 2, 3])]);
        let logging: Vec<bool> = mid.instances.iter().map(|p| p.log_egress).collect();
        assert_eq!(logging, [true, false, false]);

        // Tail: replayed from the NAT's log; its scope is the LB and the
        // sink, never the logging vertex itself.
        let tail = plan(FaultPlan::new().kill(LB, 0, 500));
        assert_eq!(tail.replay_sources[&LB], [NAT]);
        assert_eq!(tail.log_scopes, [root_row(), (NAT, vec![2, 3])]);
        assert!(tail.instances[2].is_tail && !tail.instances[1].is_tail);

        // Root: nothing to replay into, but the ledger is still needed.
        let root = plan(FaultPlan::new().kill_root(500));
        assert!(root.replay_sources.is_empty() && root.seeds.is_empty());
        assert_eq!(root.root_kill, Some(500));
        assert!(root.xor_ledger && root.fault_mode);
        assert_eq!(root.log_scopes, [root_row()]);

        // No plan, no fault machinery.
        let healthy = plan(FaultPlan::new());
        assert!(!healthy.fault_mode && !healthy.dedup && !healthy.xor_ledger);
        assert_eq!(healthy.floor_cap, u64::MAX);

        // The root's id names its log, so no vertex may carry it.
        let mut dag = fw_nat_lb();
        dag.add_vertex(VertexSpec::new(
            ROOT_VERTEX.0,
            "x",
            Rc::new(|| Box::new(Nat::default())),
        ));
        let rt = RuntimeConfig::default();
        let reserved = RuntimeError::Dag(DagError::ReservedVertex(ROOT_VERTEX));
        let planned = ChainPlan::new(&dag, &ChainConfig::default(), &rt, 1_000);
        assert_eq!(planned.err(), Some(reserved));
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
        // The NAT's own kill is fed from the firewall's log. Scopes hold
        // slots, not ids: the scale-out NAT is slot 3, the sink's is 4, and
        // the killed NAT's replacement (instance 5) adds none.
        assert_eq!(p.log_scopes[0], (ROOT_VERTEX, vec![0, 1, 2, 3, 4]));
        assert_eq!(p.log_scopes[1], (FW, vec![1, 2, 3, 4]));
        assert_eq!(p.log_scopes[2], (NAT, vec![2, 4]));
        assert_eq!((p.seeds[&3].slot(), p.seeds[&2].slot()), (3, 2));
    }
}
