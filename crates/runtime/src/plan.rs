//! The chain plan: everything the engine decides before the first packet.
//!
//! [`ChainPlan::new`] compiles a [`LogicalDag`] plus the run's configuration
//! into instance identities, splitters, the fault schedule and the replay
//! topology. It is pure — it starts no thread, lays no ring, opens no store
//! and reads no clock — and it is the only place a [`RuntimeError`] is
//! raised, so a fault plan can be validated without running anything.

use crate::config::{RuntimeConfig, ScaleEvent, STORE_SHARDS};
use crate::engine::RuntimeError;
use crate::fault::{FaultPlan, InstanceKill};
use chc_core::root::ROOT_VERTEX;
use chc_core::{
    replay_sources, ChainConfig, InstanceCore, LogicalDag, Splitter, StateObjectSpec, VertexSpec,
};
use chc_store::{InstanceId, VertexId};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;

/// Identity, role and NF code of one instance — a planned instance or the
/// replacement pre-assigned to a planned kill.
pub(crate) struct InstancePlan {
    pub(crate) vertex: VertexId,
    pub(crate) instance: InstanceId,
    /// Replica index within the vertex (journal events, ring labels).
    pub(crate) index: usize,
    /// Planned instances of the vertex: its `parallelism` plus a scale-out
    /// slot. A replacement takes a dead instance's place and adds none.
    /// Above one, no instance has a cross-flow object to itself.
    pub(crate) replicas: usize,
    /// The planned kill of this instance, with the replacement that takes
    /// over from it.
    pub(crate) kill: Option<Kill>,
    /// A replacement's takeover: whom it replaces and what it replays.
    pub(crate) takeover: Option<Takeover>,
    pub(crate) downstream: Vec<VertexId>,
    /// The NF and its per-packet step, with the instance's role: off the
    /// path, or a chain exit.
    pub(crate) core: InstanceCore,
    pub(crate) objects: Vec<StateObjectSpec>,
    /// The instance consumes and forwards one clock-ordered stream: it has
    /// one input ring, fed by the root or by an instance that is itself in
    /// order. Its increments may then fold (`StateClient::declare_ordered_writer`),
    /// and its replay is one log written in clock order.
    pub(crate) in_order: bool,
}

impl InstancePlan {
    /// A healthy, never-killed instance of `v`, in order or not; the planner
    /// sets `kill` and `takeover` where the fault plan says so.
    fn new(
        dag: &LogicalDag,
        v: &VertexSpec,
        instance: InstanceId,
        index: usize,
        replicas: usize,
        in_order: bool,
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
            kill: None,
            takeover: None,
            downstream: dag.downstream_of(v.id),
            core: InstanceCore::new(nf, v.off_path, dag.exits().contains(&v.id)),
            objects,
            in_order,
        }
    }

    /// The plan slot this instance publishes its commit watermark under:
    /// its own (the slot number is the instance id), or the one it inherits
    /// from the instance it replaces.
    pub(crate) fn slot(&self) -> usize {
        self.takeover.as_ref().map_or(self.instance, |t| t.failed).0 as usize
    }
}

/// A planned fail-stop and the replacement it hands the instance's thread
/// to: an armed instance always holds both.
pub(crate) struct Kill {
    /// The instance dies the first time it dequeues a live packet whose
    /// clock counter reaches this.
    pub(crate) at_counter: u64,
    /// The replacement, which runs on the dead instance's thread and
    /// wiring.
    pub(crate) seed: Box<InstancePlan>,
}

/// What a failover replacement takes over (§5.3): the failed instance's
/// watermark slot, and the replay it works through before its first live
/// pop.
pub(crate) struct Takeover {
    /// The failed instance. Its slot publishes nothing until the replay is
    /// done: an inherited watermark only becomes true again once the
    /// replayed packets have been re-flushed downstream.
    pub(crate) failed: InstanceId,
    /// The logs the vertex is replayed from ([`replay_sources`]): the
    /// root's for a killed entry, the egress logs of its on-path upstream
    /// vertices (FTMB-style per-vertex output logging) otherwise.
    pub(crate) sources: Vec<VertexId>,
    /// The vertex's splitter: the replacement keeps only the logged copies
    /// that route to its own index, as their originals did.
    pub(crate) splitter: Splitter,
    /// When the dying thread began the failover (set there: the plan reads
    /// no clock). `InstanceRecovery::recovery_wall` runs from here.
    pub(crate) started: Option<Instant>,
}

/// What the root does at given clock counters, sorted by counter (entries at
/// one counter in plan order). The stamping loop reads it through a cursor
/// that starts at 0: one comparison per packet, no tree and no hash.
#[derive(Debug)]
pub(crate) struct CounterSchedule<T> {
    entries: Vec<(u64, T)>,
}

impl<T> CounterSchedule<T> {
    fn new(mut entries: Vec<(u64, T)>) -> Self {
        entries.sort_by_key(|&(counter, _)| counter);
        CounterSchedule { entries }
    }

    /// The entries due by `counter`, moving `cursor` past them. Ask for
    /// every counter in increasing order.
    #[inline]
    pub(crate) fn due(&self, cursor: &mut usize, counter: u64) -> impl Iterator<Item = &T> {
        let start = *cursor;
        while self
            .entries
            .get(*cursor)
            .is_some_and(|&(c, _)| c <= counter)
        {
            *cursor += 1;
        }
        self.entries[start..*cursor].iter().map(|(_, value)| value)
    }

    /// Every scheduled counter, in order.
    #[cfg(test)]
    pub(crate) fn counters(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(counter, _)| counter)
    }
}

/// Store shards to act on when the root is about to inject a counter.
pub(crate) type ShardSchedule = CounterSchedule<usize>;

/// Everything decided before the first packet. See the module docs.
pub struct ChainPlan {
    /// Packets per ring batch, the most one ring item carries
    /// (`RuntimeConfig::batch_size`, at least 1).
    pub(crate) batch: usize,
    /// Ring capacity in packets: `queue_depth`, and never under two
    /// batches. A ring has `depth / batch` batch slots, rounded down to a
    /// power of two, so it holds at most `depth` packets.
    pub(crate) depth: usize,
    /// True when a fault plan is active: the commit protocol runs and
    /// flushes happen at every batch boundary (commit implies durable).
    pub(crate) fault_mode: bool,
    pub(crate) topo: Vec<VertexId>,
    pub(crate) entries: Vec<VertexId>,
    /// One splitter per vertex, the scale cut already scheduled.
    pub(crate) splitters: HashMap<VertexId, Splitter>,
    pub(crate) scale: Option<ScaleEvent>,
    /// Planned instances by slot, in `ChainController` order (vertex
    /// declaration order, then index, the scale-out instance last) so
    /// instance ids — the slot numbers — match the simulator's and per-flow
    /// datastore keys line up across substrates. A killed slot's
    /// replacement rides in its [`Kill`]; replacement ids follow every
    /// planned instance, in fault-plan order — the ids the simulator hands
    /// out when the equivalence test calls `failover_instance` in the same
    /// order. Moved into the instance threads at spawn
    /// ([`ChainPlan::take_threads`]).
    pub(crate) instances: Vec<InstancePlan>,
    /// Plan slots per vertex, in instance-index order.
    pub(crate) slots: HashMap<VertexId, Vec<usize>>,
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
    /// The re-injection drill's counters, each once.
    pub(crate) reinject: CounterSchedule<()>,
    /// A re-injected copy travels the chain with no log holding it and no
    /// watermark covering it: until the run's final truncation pass, the
    /// store's replay floor stays below the drill (`min(reinject) − 1`).
    pub(crate) floor_cap: u64,
    /// The planned root crash: the root dies just before stamping this
    /// counter. It is the plan's only fault.
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
        let (shard_checkpoints, shard_restarts) = shard_schedule(fault, STORE_SHARDS, trace_len)?;
        if let Some(&counter) = fault.reinject.iter().find(|&&c| outside(c, trace_len)) {
            return Err(RuntimeError::ReinjectOutsideTrace { counter, trace_len });
        }
        let mut drill: Vec<(u64, ())> = fault.reinject.iter().map(|&c| (c, ())).collect();
        drill.sort_unstable_by_key(|&(c, _)| c);
        drill.dedup();
        let floor_cap = drill.first().map_or(u64::MAX, |&(c, _)| c - 1);
        let reinject = CounterSchedule::new(drill);

        let entries = dag.entries();
        let in_order = in_order_vertices(dag, &topo, &slots);
        // The vertices that log their egress: every replay source of a
        // killed vertex but the root.
        let logging: BTreeSet<VertexId> = (fault.kills.iter())
            .flat_map(|kill| replay_sources(dag, kill.vertex))
            .filter(|&u| u != ROOT_VERTEX)
            .collect();
        let mut instances: Vec<InstancePlan> = identities
            .iter()
            .enumerate()
            .map(|(slot, &(v, idx))| {
                let (replicas, in_order) = (slots[&v.id].len(), in_order.contains(&v.id));
                InstancePlan::new(dag, v, id_of(slot), idx, replicas, in_order)
            })
            .collect();
        let planned = instances.len();
        for (k, &(slot, kill)) in killed_slots.iter().enumerate() {
            let v = identities[slot].0;
            let dead = &mut instances[slot];
            let seed = InstancePlan {
                takeover: Some(Takeover {
                    failed: dead.instance,
                    sources: replay_sources(dag, v.id),
                    splitter: splitters[&v.id].clone(),
                    started: None,
                }),
                ..InstancePlan::new(
                    dag,
                    v,
                    id_of(planned + k),
                    kill.index,
                    dead.replicas,
                    dead.in_order,
                )
            };
            dead.kill = Some(Kill {
                at_counter: kill.at_counter,
                seed: Box::new(seed),
            });
        }

        let root_scope = (ROOT_VERTEX, commit_scope(&instances, |_| true));
        let log_scopes = std::iter::once(root_scope)
            .chain(logging.iter().map(|&u| {
                let below = strictly_downstream(dag, u);
                (u, commit_scope(&instances, |v| below.contains(&v)))
            }))
            .collect();

        let fault_mode = !fault.is_empty();
        if fault_mode {
            // Replay and re-injection send clocks twice: every input queue
            // remembers the clocks it saw.
            for p in &mut instances {
                p.core.track_duplicates(config.duplicate_suppression);
                if let Some(kill) = &mut p.kill {
                    kill.seed
                        .core
                        .track_duplicates(config.duplicate_suppression);
                }
            }
        }
        let batch = rt.batch_size.max(1);
        Ok(ChainPlan {
            batch,
            depth: rt.queue_depth.max(batch * 2),
            fault_mode,
            topo,
            entries,
            splitters,
            scale: rt.scale,
            instances,
            slots,
            log_scopes,
            shard_checkpoints,
            shard_restarts,
            journaled_shards: fault.shard_faults.iter().map(|sf| sf.shard).collect(),
            floor_cap,
            reinject,
            root_kill: fault.root_kill,
        })
    }

    /// Plan slots of `vertex`'s instances, in instance-index order.
    pub(crate) fn slots_of(&self, vertex: VertexId) -> &[usize] {
        self.slots.get(&vertex).map_or(&[], Vec::as_slice)
    }

    /// Move out what the threads own — the instance plans with their NF code
    /// and their replacements. What stays behind is read-only for the rest
    /// of the run.
    pub(crate) fn take_threads(&mut self) -> Vec<InstancePlan> {
        std::mem::take(&mut self.instances)
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
    // A new root resumes above counters the dead one never stamped, so a
    // fault keyed on one of them would never fire.
    let others = fault.kills.len() + fault.shard_faults.len() + fault.reinject.len();
    match fault.root_kill {
        Some(at_counter) if outside(at_counter, trace_len) => Err(RuntimeError::KillOutsideTrace {
            at_counter,
            trace_len,
        }),
        Some(at_counter) if others > 0 => {
            Err(RuntimeError::RootKillNotAlone { at_counter, others })
        }
        _ => Ok(killed),
    }
}

/// The `(checkpoint, restart)` schedules of the plan's shard faults.
fn shard_schedule(
    fault: &FaultPlan,
    shards: usize,
    trace_len: usize,
) -> Result<(ShardSchedule, ShardSchedule), RuntimeError> {
    let mut checkpoints = Vec::new();
    let mut restarts = Vec::new();
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
            checkpoints.push((cp, sf.shard));
        }
        restarts.push((sf.at_counter, sf.shard));
    }
    Ok((
        ShardSchedule::new(checkpoints),
        ShardSchedule::new(restarts),
    ))
}

/// The vertices whose instances forward one clock-ordered stream: an entry
/// (one ring, from the root), or a vertex whose one predecessor has one
/// instance, on the path and itself in order. Any other instance
/// interleaves several rings, or takes one ring out of order.
fn in_order_vertices(
    dag: &LogicalDag,
    topo: &[VertexId],
    slots: &HashMap<VertexId, Vec<usize>>,
) -> HashSet<VertexId> {
    let mut in_order = HashSet::new();
    for &v in topo {
        let fed_in_order = match dag.upstream_of(v)[..] {
            [] => true,
            [u] => {
                let on_path = dag.vertex(u).is_some_and(|u| !u.off_path);
                on_path && slots[&u].len() == 1 && in_order.contains(&u)
            }
            _ => false,
        };
        if fed_in_order {
            in_order.insert(v);
        }
    }
    in_order
}

/// The slots of the `instances` whose vertex passes `covers` — the on-path
/// ones (an off-path instance forwards nothing and publishes no watermark)
/// — plus the sink's, the slot after the last instance.
fn commit_scope(instances: &[InstancePlan], covers: impl Fn(VertexId) -> bool) -> Vec<usize> {
    let on_path =
        |slot: &usize| !instances[*slot].core.off_path() && covers(instances[*slot].vertex);
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
    pub(crate) const LB: VertexId = VertexId(3);

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

    /// The replacement armed on `slot`'s kill.
    fn seed(p: &ChainPlan, slot: usize) -> &InstancePlan {
        &p.instances[slot].kill.as_ref().expect("an armed slot").seed
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
        let sources =
            |p: &ChainPlan, slot| seed(p, slot).takeover.as_ref().map(|t| t.sources.clone());
        let entry = plan(FaultPlan::new().kill(FW, 0, 500));
        assert_eq!(sources(&entry, 0), Some(vec![ROOT_VERTEX]));
        assert_eq!(entry.log_scopes, [root_row()]);
        assert_eq!(
            entry.instances[0].kill.as_ref().map(|k| k.at_counter),
            Some(500)
        );
        assert!(entry.fault_mode);
        // The replacement is instance 3 and publishes under the dead slot.
        assert_eq!(seed(&entry, 0).instance, InstanceId(3));
        assert_eq!((seed(&entry, 0).slot(), entry.instances[1].slot()), (0, 1));

        // Mid-chain: replayed from the firewall's egress log, which
        // truncates against everything strictly below the firewall.
        let mid = plan(FaultPlan::new().kill(NAT, 0, 500));
        assert_eq!(sources(&mid, 1), Some(vec![FW]));
        assert_eq!(mid.log_scopes, [root_row(), (FW, vec![1, 2, 3])]);

        // Tail: replayed from the NAT's log; its scope is the LB and the
        // sink, never the logging vertex itself.
        let tail = plan(FaultPlan::new().kill(LB, 0, 500));
        assert_eq!(sources(&tail, 2), Some(vec![NAT]));
        assert_eq!(tail.log_scopes, [root_row(), (NAT, vec![2, 3])]);
        assert!(tail.instances[2].core.exit() && !tail.instances[1].core.exit());

        // Root: nothing to replay into.
        let root = plan(FaultPlan::new().kill_root(500));
        assert!(root.instances.iter().all(|p| p.kill.is_none()));
        assert_eq!(root.root_kill, Some(500));
        assert!(root.fault_mode);
        assert_eq!(root.log_scopes, [root_row()]);

        // No plan, no fault machinery.
        let healthy = plan(FaultPlan::new());
        assert!(!healthy.fault_mode);
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
        // Seeds ride on the killed slot; ids follow fault-plan order.
        let seed = |slot: usize| seed(&p, slot);
        assert_eq!(seed(2).instance, InstanceId(3));
        assert_eq!(seed(0).instance, InstanceId(4));
        let failed = |slot| seed(slot).takeover.as_ref().map(|t| t.failed);
        assert_eq!(failed(2), Some(InstanceId(2)));
        assert_eq!(failed(0), Some(InstanceId(0)));
        assert_eq!((seed(2).vertex, seed(2).index), (LB, 0));
        assert!(seed(2).kill.is_none() && seed(2).core.exit());
        // The LB's killed, so the NAT logs; the FW's kill adds no row.
        let rows: Vec<VertexId> = p.log_scopes.iter().map(|(v, _)| *v).collect();
        assert_eq!(rows, [ROOT_VERTEX, NAT]);
        // The store's floor stays under the smallest re-injected counter.
        assert_eq!(p.floor_cap, 6);
        assert_eq!(p.reinject.counters().collect::<Vec<_>>(), [7, 40, 90]);
    }

    #[test]
    fn the_root_reads_its_schedule_through_a_cursor() {
        let fault = FaultPlan::new()
            .restart_shard(2, 600, Some(300))
            .restart_shard(0, 400, Some(300))
            .restart_shard(1, 400, None)
            .reinject([90, 7, 90, 40]);
        let p = plan(fault);
        let drill: Vec<u64> = p.reinject.counters().collect();
        assert_eq!(drill, [7, 40, 90], "sorted, each counter once");
        // What the stamping loop sees at each counter it injects.
        let walk = |schedule: &ShardSchedule| -> Vec<(u64, usize)> {
            let mut cursor = 0;
            (1..=1_000)
                .flat_map(|c| schedule.due(&mut cursor, c).map(move |&s| (c, s)))
                .collect()
        };
        // Entries at one counter keep plan order.
        assert_eq!(walk(&p.shard_checkpoints), [(300, 2), (300, 0)]);
        assert_eq!(walk(&p.shard_restarts), [(400, 0), (400, 1), (600, 2)]);
    }

    /// One ring from the root or from an instance in order keeps an
    /// instance in order; two rings, or one from an instance out of order,
    /// do not. A replacement runs on its predecessor's rings.
    #[test]
    fn an_instance_is_in_order_behind_one_ring_in_order() {
        let in_order =
            |p: &ChainPlan| -> Vec<bool> { p.instances.iter().map(|i| i.in_order).collect() };
        let kills = FaultPlan::new().kill(LB, 0, 500);
        let narrow = plan(kills.clone());
        assert_eq!(in_order(&narrow), [true; 3]);
        assert!(seed(&narrow, 2).in_order);

        // Two firewall instances: each has the root's ring, the NAT has
        // two rings, and the LB is fed by the NAT alone but out of order.
        let mut wide = LogicalDag::new();
        for v in fw_nat_lb().vertices() {
            let parallelism = if v.id == FW { 2 } else { 1 };
            wide.add_vertex(v.clone().with_parallelism(parallelism));
        }
        wide.add_edge(FW, NAT);
        wide.add_edge(NAT, LB);
        let rt = RuntimeConfig::default().with_fault(kills);
        let wide = ChainPlan::new(&wide, &ChainConfig::default(), &rt, 1_000).unwrap();
        assert_eq!(wide.slots_of(FW), [0, 1]);
        assert_eq!(in_order(&wide), [true, true, false, false]);
        assert!(!seed(&wide, 3).in_order);
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
        assert_eq!(
            p.instances[3].kill.as_ref().map(|k| k.at_counter),
            Some(700)
        );
        // The NAT logs for the LB's kill: one row for the vertex, which
        // both instances and the replacement of the one that dies log into.
        assert_eq!(seed(&p, 3).instance, InstanceId(5));
        // The NAT's own kill is fed from the firewall's log. Scopes hold
        // slots, not ids: the scale-out NAT is slot 3, the sink's is 4, and
        // the killed NAT's replacement (instance 5) adds none.
        assert_eq!(p.log_scopes[0], (ROOT_VERTEX, vec![0, 1, 2, 3, 4]));
        assert_eq!(p.log_scopes[1], (FW, vec![1, 2, 3, 4]));
        assert_eq!(p.log_scopes[2], (NAT, vec![2, 4]));
        assert_eq!((seed(&p, 3).slot(), seed(&p, 2).slot()), (3, 2));
    }
}
