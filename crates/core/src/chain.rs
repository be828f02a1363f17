//! Chain deployment and orchestration.
//!
//! [`ChainController`] compiles a [`LogicalDag`] into a physical chain on the
//! discrete-event simulator: a root, per-vertex NF instances, the shared
//! datastore and the end-host sink. It is also the "framework manager" of the
//! paper's §3/§6: it performs elastic scaling (with the Figure 4 handover),
//! straggler mitigation (clone + replay, §5.3), NF/root/store failover
//! (§5.4), and collects the measurements the evaluation harness reports.

use crate::config::ChainConfig;
use crate::dag::{DagError, LogicalDag, VertexSpec};
use crate::instance::{InstanceParams, NfInstanceActor};
use crate::instance_core::{InstanceCore, InstanceCounters};
use crate::message::{Msg, TaggedPacket};
use crate::root::{RootActor, RootStats, ROOT_LOG_CAPACITY};
use crate::root_core::RootCore;
use crate::sink::SinkActor;
use crate::splitter::{PartitionTable, Splitter};
use crate::state::{SharedStore, StateClient};
use crate::vertexlog::{replay_sources, VertexLogs};
use chc_packet::{PacketId, ScopeKey, Trace};
use chc_sim::{
    ActorId, LinkConfig, SimDuration, Simulation, SimulationReport, Summary, VirtualTime,
};
use chc_store::{
    recover_shared_state, Clock, InstanceId, RecoveryInput, RecoveryReport, StoreServer, VertexId,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Deployment map: which actors host which instances of which vertex.
#[derive(Debug, Default)]
pub struct Topology {
    actors: HashMap<VertexId, Vec<ActorId>>,
    instance_ids: HashMap<VertexId, Vec<InstanceId>>,
    directory: HashMap<InstanceId, ActorId>,
}

impl Topology {
    /// Register an instance (appended at the next index of the vertex).
    pub fn add_instance(
        &mut self,
        vertex: VertexId,
        instance: InstanceId,
        actor: ActorId,
    ) -> usize {
        self.actors.entry(vertex).or_default().push(actor);
        self.instance_ids.entry(vertex).or_default().push(instance);
        self.directory.insert(instance, actor);
        self.actors[&vertex].len() - 1
    }

    /// Replace the instance at `index` of `vertex` (failover keeps the same
    /// actor slot so routing indices stay valid).
    pub fn replace_instance(
        &mut self,
        vertex: VertexId,
        index: usize,
        instance: InstanceId,
        actor: ActorId,
    ) {
        if let Some(ids) = self.instance_ids.get_mut(&vertex) {
            if let Some(old) = ids.get(index).copied() {
                self.directory.remove(&old);
            }
            ids[index] = instance;
        }
        if let Some(actors) = self.actors.get_mut(&vertex) {
            actors[index] = actor;
        }
        self.directory.insert(instance, actor);
    }

    /// The actor hosting instance `index` of `vertex`.
    pub fn actor_of(&self, vertex: VertexId, index: usize) -> Option<ActorId> {
        self.actors.get(&vertex).and_then(|v| v.get(index)).copied()
    }

    /// The actor hosting `instance`.
    pub fn actor_of_instance(&self, instance: InstanceId) -> Option<ActorId> {
        self.directory.get(&instance).copied()
    }

    /// Instance ids of a vertex in index order.
    pub fn instances_of(&self, vertex: VertexId) -> Vec<InstanceId> {
        self.instance_ids.get(&vertex).cloned().unwrap_or_default()
    }

    /// Every deployed instance as `(vertex, instance, actor)`.
    pub fn all_instances(&self) -> Vec<(VertexId, InstanceId, ActorId)> {
        let mut out = Vec::new();
        for (vertex, ids) in &self.instance_ids {
            for (idx, id) in ids.iter().enumerate() {
                out.push((*vertex, *id, self.actors[vertex][idx]));
            }
        }
        out
    }
}

/// Identifiers of the fixed chain components.
#[derive(Debug, Clone, Copy)]
struct ChainHandles {
    root: ActorId,
    sink: ActorId,
}

/// Per-instance measurement snapshot.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// Vertex the instance belongs to.
    pub vertex: VertexId,
    /// Instance id.
    pub instance: InstanceId,
    /// What the instance's step counted, alerts included.
    pub counters: InstanceCounters,
    /// Five-number summary of per-packet processing time.
    pub proc_time: Summary,
    /// Goodput of this instance in Gbps.
    pub throughput_gbps: f64,
}

/// Chain-wide measurement snapshot.
#[derive(Debug, Clone)]
pub struct ChainMetrics {
    /// One report per deployed instance.
    pub instances: Vec<InstanceReport>,
    /// Distinct packets delivered to the end host.
    pub sink_delivered: usize,
    /// Unmarked repeats of a clock the end host already had.
    pub sink_duplicates: u64,
    /// Replay-marked repeats of a clock the end host already had.
    pub sink_replay_shadows: u64,
    /// Root counters.
    pub root: RootStats,
}

impl ChainMetrics {
    /// The report of a specific instance, if present.
    pub fn instance(&self, vertex: VertexId, instance: InstanceId) -> Option<&InstanceReport> {
        self.instances
            .iter()
            .find(|r| r.vertex == vertex && r.instance == instance)
    }

    /// All reports of a vertex.
    pub fn vertex(&self, vertex: VertexId) -> Vec<&InstanceReport> {
        self.instances
            .iter()
            .filter(|r| r.vertex == vertex)
            .collect()
    }

    /// All alerts raised anywhere in the chain, in (clock, message) form.
    pub fn alerts(&self) -> Vec<(Clock, String)> {
        let mut alerts: Vec<(Clock, String)> = self
            .instances
            .iter()
            .flat_map(|r| r.counters.alerts.clone())
            .collect();
        alerts.sort_by_key(|(c, _)| *c);
        alerts
    }
}

/// The chain controller / framework manager. See the module documentation.
pub struct ChainController {
    sim: Simulation<Msg>,
    /// The datastore: one shard, in memory ([`SharedStore::new`]).
    pub store: Arc<StoreServer>,
    config: ChainConfig,
    dag: LogicalDag,
    partition: Rc<RefCell<PartitionTable>>,
    topology: Rc<RefCell<Topology>>,
    handles: ChainHandles,
    /// The packet logs the root and the armed instances write and every
    /// failover or clone instance replays from.
    logs: Rc<VertexLogs>,
    next_instance: u32,
    /// The store's latest checkpoint image (empty: none taken).
    last_checkpoint: Vec<u8>,
}

impl ChainController {
    /// Compile and deploy a logical DAG.
    pub fn new(
        dag: LogicalDag,
        config: ChainConfig,
        seed: u64,
    ) -> Result<ChainController, DagError> {
        dag.topo_order()?;
        let mut sim: Simulation<Msg> = Simulation::new(seed);
        sim.set_default_link(LinkConfig::with_latency(config.costs.inter_nf_link));
        // Failover, straggler clones and Figure 7 re-issue clocks.
        let store = SharedStore::new();
        let declared = store.track_replays();
        assert!(declared, "a fresh store takes the replay declaration");
        let partition = Rc::new(RefCell::new(PartitionTable::new()));
        let topology = Rc::new(RefCell::new(Topology::default()));

        // Any instance may fail or straggle, so every vertex some vertex
        // replays from logs its egress.
        let mut logs = VertexLogs::new(ROOT_LOG_CAPACITY);
        for v in dag.vertices() {
            partition.borrow_mut().insert(Splitter::for_vertex(v));
            for source in replay_sources(&dag, v.id) {
                logs.arm(source, ROOT_LOG_CAPACITY);
            }
        }
        let logs = Rc::new(logs);

        let sink = sim.add_actor(Box::new(SinkActor::default()));
        let root = sim.add_actor(Box::new(RootActor::new(
            RootCore::default(),
            config,
            dag.entries(),
            partition.clone(),
            topology.clone(),
            Arc::clone(&store),
            Rc::clone(&logs),
        )));

        let mut controller = ChainController {
            sim,
            store,
            config,
            dag,
            partition,
            topology,
            handles: ChainHandles { root, sink },
            logs,
            next_instance: 0,
            last_checkpoint: Vec::new(),
        };

        for v in controller.dag.vertices().to_vec() {
            for _ in 0..v.parallelism {
                controller.spawn_instance(&v, false, None);
            }
        }
        Ok(controller)
    }

    /// The chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.sim.now()
    }

    /// Build an instance of `spec` under a fresh id — its client,
    /// parameters and actor — and deploy it: in the slot of the instance at
    /// `replacing` (same actor id, so the same splitter index), or at the
    /// vertex's next index. Returns `(instance id, index)`.
    fn spawn_instance(
        &mut self,
        spec: &VertexSpec,
        awaiting_replay: bool,
        replacing: Option<usize>,
    ) -> (InstanceId, usize) {
        let instance = InstanceId(self.next_instance);
        self.next_instance += 1;
        let nf = spec.build_nf();
        let objects = nf.state_objects();
        let mut client = StateClient::new(
            spec.id,
            instance,
            Box::new(Arc::clone(&self.store)),
            self.config.mode,
            self.config.costs,
            &objects,
        );
        // `recover_store` rebuilds the store from these logs (Figure 7), and
        // the actor folds the tokens into the commit vector (Figure 6).
        client.set_recovery_logging(true);
        let params = InstanceParams {
            vertex: spec.id,
            instance,
            downstream: self.dag.downstream_of(spec.id),
            awaiting_replay,
            logs: Rc::clone(&self.logs),
        };
        let exit = self.dag.exits().contains(&spec.id);
        let mut actor = Box::new(NfInstanceActor::new(
            params,
            InstanceCore::new(nf, spec.off_path, exit),
            client,
            self.config,
            self.partition.clone(),
            self.topology.clone(),
            self.handles.root,
            self.handles.sink,
        ));
        let mut topology = self.topology.borrow_mut();
        match replacing {
            None => {
                let actor = self.sim.add_actor(actor);
                (instance, topology.add_instance(spec.id, instance, actor))
            }
            Some(index) => {
                let slot = topology.actor_of(spec.id, index).expect("actor");
                // The failed instance's accepted packets still leave on
                // schedule (the simulator charges their service up front),
                // so nothing its successor emits may overtake them.
                if let Some(old) = self.sim.actor::<NfInstanceActor>(slot) {
                    actor.workers = old.workers.successor();
                }
                self.sim.replace_actor(slot, actor);
                topology.replace_instance(spec.id, index, instance, slot);
                (instance, index)
            }
        }
    }

    // ------------------------------------------------------------------
    // Traffic and execution
    // ------------------------------------------------------------------

    /// Inject a whole trace: each packet is delivered to the root at its
    /// arrival timestamp.
    pub fn inject_trace(&mut self, trace: &Trace) {
        for pkt in trace.iter() {
            let at = VirtualTime::from_nanos(pkt.arrival_ns);
            self.sim.inject_at(
                at,
                self.handles.root,
                Msg::Data(TaggedPacket::new(pkt.clone(), Clock::default())),
            );
        }
    }

    /// Run until the event queue drains.
    pub fn run(&mut self) -> SimulationReport {
        self.sim.run()
    }

    /// Run until the given virtual time.
    pub fn run_until(&mut self, deadline: VirtualTime) -> SimulationReport {
        self.sim.run_until(deadline)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Instance ids deployed for a vertex (index order).
    pub fn instances_of(&self, vertex: VertexId) -> Vec<InstanceId> {
        self.topology.borrow().instances_of(vertex)
    }

    /// Run a closure against the actor of instance `index` of `vertex`.
    pub fn with_instance<R>(
        &mut self,
        vertex: VertexId,
        index: usize,
        f: impl FnOnce(&mut NfInstanceActor) -> R,
    ) -> Option<R> {
        let actor = self.topology.borrow().actor_of(vertex, index)?;
        self.sim.actor_mut::<NfInstanceActor>(actor).map(f)
    }

    /// Gather a measurement snapshot of the whole chain.
    pub fn metrics(&mut self) -> ChainMetrics {
        let all = self.topology.borrow().all_instances();
        let mut instances = Vec::new();
        for (vertex, instance, actor) in all {
            if let Some(a) = self.sim.actor_mut::<NfInstanceActor>(actor) {
                instances.push(InstanceReport {
                    vertex,
                    instance,
                    counters: a.counters().clone(),
                    proc_time: a.metrics.proc_time.summary(),
                    throughput_gbps: a.metrics.throughput.gbps(),
                });
            }
        }
        instances.sort_by_key(|r| (r.vertex, r.instance));
        let sink = &self
            .sim
            .actor::<SinkActor>(self.handles.sink)
            .expect("sink")
            .core;
        let root = self
            .sim
            .actor::<RootActor>(self.handles.root)
            .map(RootActor::stats)
            .unwrap_or_default();
        ChainMetrics {
            instances,
            sink_delivered: sink.delivered(),
            sink_duplicates: sink.duplicates,
            sink_replay_shadows: sink.replay_shadows,
            root,
        }
    }

    /// Trace packet ids delivered to the end host, in arrival order.
    pub fn delivered_ids(&self) -> Vec<PacketId> {
        self.sim
            .actor::<SinkActor>(self.handles.sink)
            .map(|s| s.core.delivered_ids.clone())
            .unwrap_or_default()
    }

    /// Processing-time series of one instance (for Figures 9 and 13).
    pub fn instance_series(&mut self, vertex: VertexId, index: usize) -> Vec<(VirtualTime, f64)> {
        self.with_instance(vertex, index, |a| a.metrics.series.points().to_vec())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Elastic scaling and flow reallocation (R2/R3, Figure 4)
    // ------------------------------------------------------------------

    /// Add one instance to a vertex. Returns `(instance id, index)`.
    pub fn scale_up(&mut self, vertex: VertexId) -> (InstanceId, usize) {
        let spec = self.dag.vertex(vertex).expect("vertex exists").clone();
        let (instance, index) = self.spawn_instance(&spec, false, None);
        if let Some(s) = self.partition.borrow_mut().splitter_mut(vertex) {
            s.set_instance_count(index + 1);
        }
        (instance, index)
    }

    /// Add one instance to a vertex and schedule the traffic cut on the
    /// logical clock: packets stamped with counter `>= first_counter` hash
    /// across the enlarged instance set. Because the cut is keyed on the
    /// clock rather than on (virtual or wall) time, the flow→instance history
    /// is identical on the simulator and on the real-thread runtime — the
    /// substrate-equivalence tests rely on this. Returns `(instance, index)`.
    pub fn schedule_scale_up(
        &mut self,
        vertex: VertexId,
        first_counter: u64,
    ) -> (InstanceId, usize) {
        let spec = self.dag.vertex(vertex).expect("vertex exists").clone();
        let (instance, index) = self.spawn_instance(&spec, false, None);
        if let Some(s) = self.partition.borrow_mut().splitter_mut(vertex) {
            s.schedule_scale(first_counter, index + 1);
        }
        (instance, index)
    }

    /// Reallocate the given scope keys of `vertex` to the instance at
    /// `to_index`, running the Figure 4 handover: the splitter redirects and
    /// marks the moved flows, and each previous owner is told to flush its
    /// cached per-flow state, release ownership and notify the new owner.
    pub fn move_flows(&mut self, vertex: VertexId, keys: &[ScopeKey], to_index: usize) {
        let new_instance = self
            .topology
            .borrow()
            .instances_of(vertex)
            .get(to_index)
            .copied();
        let Some(new_instance) = new_instance else {
            return;
        };
        let moved = {
            let mut table = self.partition.borrow_mut();
            match table.splitter_mut(vertex) {
                Some(s) => s.reallocate(keys, to_index),
                None => Vec::new(),
            }
        };
        // Group moved keys by previous owner and send one flush each.
        let mut by_old: HashMap<usize, Vec<ScopeKey>> = HashMap::new();
        for (key, old) in moved {
            by_old.entry(old).or_default().push(key);
        }
        for (old_index, _keys) in by_old {
            if let Some(actor) = self.topology.borrow().actor_of(vertex, old_index) {
                self.sim.inject_after(
                    SimDuration::ZERO,
                    actor,
                    Msg::FlushRequest {
                        notify: new_instance,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Straggler mitigation (R5, §5.3)
    // ------------------------------------------------------------------

    /// Emulate a straggler: add `extra` processing delay to every packet of
    /// the instance at `index` of `vertex`.
    pub fn set_straggler(&mut self, vertex: VertexId, index: usize, extra: SimDuration) {
        if let Some(actor) = self.topology.borrow().actor_of(vertex, index) {
            self.sim.inject_after(
                SimDuration::ZERO,
                actor,
                Msg::SetProcessingDelay {
                    extra_nanos: extra.as_nanos(),
                },
            );
        }
    }

    /// Deploy a clone of the straggler at `straggler_index`: the clone starts
    /// from the straggler's externalized state, the upstream splitter
    /// replicates the straggler's traffic to it, and it replays the logged
    /// packets that route to the straggler to come up to speed (§5.3). The
    /// clone takes no partition of its own. Returns the clone.
    pub fn clone_for_straggler(
        &mut self,
        vertex: VertexId,
        straggler_index: usize,
    ) -> (InstanceId, usize) {
        let spec = self.dag.vertex(vertex).expect("vertex exists").clone();
        let (clone_id, clone_index) = self.spawn_instance(&spec, true, None);
        if let Some(s) = self.partition.borrow_mut().splitter_mut(vertex) {
            s.set_mirror(straggler_index, clone_index);
        }
        self.send_replay(vertex, straggler_index, clone_id);
        (clone_id, clone_index)
    }

    /// Tell `target` to replay the logged copies of its vertex's replay
    /// sources that route to `index`.
    fn send_replay(&mut self, vertex: VertexId, index: usize, target: InstanceId) {
        let sources = replay_sources(&self.dag, vertex);
        let actor = self.topology.borrow().actor_of_instance(target);
        let actor = actor.expect("a deployed instance");
        let replay = Msg::Replay { sources, index };
        self.sim.inject_after(SimDuration::ZERO, actor, replay);
    }

    // ------------------------------------------------------------------
    // Failure injection and recovery (R1/R6, §5.4)
    // ------------------------------------------------------------------

    /// Kill an NF instance (fail-stop) at the current virtual time.
    pub fn fail_instance(&mut self, vertex: VertexId, index: usize) {
        if let Some(actor) = self.topology.borrow().actor_of(vertex, index) {
            self.sim.fail_now(actor);
        }
    }

    /// Bring up a failover instance for the failed instance at `index`:
    /// the store re-associates the failed instance's per-flow state with the
    /// failover instance, which replays the logged packets that route to
    /// `index` before it takes live traffic.
    pub fn failover_instance(&mut self, vertex: VertexId, index: usize) -> InstanceId {
        let spec = self.dag.vertex(vertex).expect("vertex exists").clone();
        let old_instance = self.topology.borrow().instances_of(vertex)[index];
        let (new_instance, _) = self.spawn_instance(&spec, true, Some(index));
        self.store.reassign_owner(old_instance, new_instance);
        self.send_replay(vertex, index, new_instance);
        new_instance
    }

    /// Kill the root (fail-stop).
    pub fn fail_root(&mut self) {
        self.sim.fail_now(self.handles.root);
    }

    /// Bring up a failover root: it reads the last persisted clock from the
    /// store and resumes stamping; the failed root's local packet log is lost
    /// (equivalent to a network drop of the in-flight packets, §B.3), so its
    /// row starts empty, as on the engine.
    pub fn recover_root(&mut self) {
        let root = RootActor::new(
            RootCore::recovered(&self.store, &self.logs),
            self.config,
            self.dag.entries(),
            self.partition.clone(),
            self.topology.clone(),
            Arc::clone(&self.store),
            Rc::clone(&self.logs),
        );
        self.sim.replace_actor(self.handles.root, Box::new(root));
    }

    /// Take a datastore checkpoint (used before `fail_store`/`recover_store`):
    /// the shard's image. Each client's recovery logs are cut at it (through
    /// the image's `TS` for its instance), so they hold the updates and reads
    /// since the latest checkpoint, not since the start.
    pub fn checkpoint_store(&mut self) {
        self.last_checkpoint = self.store.shard_image(0);
        let ts = self.store.ts_snapshot();
        for (_, instance, actor) in self.topology.borrow().all_instances() {
            if let Some(a) = self.sim.actor_mut::<NfInstanceActor>(actor) {
                a.client.truncate_recovery_logs(ts.clock_of(instance));
            }
        }
    }

    /// Kill the datastore instance (fail-stop): its state is lost and all
    /// requests fail until recovery.
    pub fn fail_store(&mut self) {
        self.store.crash_shard(0);
    }

    /// Recover the datastore: shared state is rebuilt from the latest
    /// checkpoint image plus the instances' write-ahead/read logs (Figure 7),
    /// per-flow state is re-installed from the instances' caches, and the
    /// root persists its clock again. Returns the recovery report (the
    /// replayed-operation count drives Figure 14).
    pub fn recover_store(&mut self) -> RecoveryReport {
        let mut wals = HashMap::new();
        let mut read_logs = HashMap::new();
        let mut per_flow = Vec::new();
        for (_, _, actor) in self.topology.borrow().all_instances() {
            if let Some(a) = self.sim.actor::<NfInstanceActor>(actor) {
                wals.insert(a.client.instance(), a.client.wal().clone());
                read_logs.insert(a.client.instance(), a.client.read_log().to_vec());
                per_flow.extend(a.client.cached_per_flow());
            }
        }
        let input = RecoveryInput {
            image: self.last_checkpoint.clone(),
            wals,
            read_logs,
        };
        let (mut recovered, mut report) = recover_shared_state(&input);
        for (key, value) in per_flow {
            recovered.install(&key, value, key.instance);
            report.per_flow_restored += 1;
        }
        self.store.install_shard(0, recovered);
        if let Some(root) = self.sim.actor::<RootActor>(self.handles.root) {
            root.persist_clock_again();
        }
        report
    }
}
