//! A chain run to completion on the caller's thread, one packet at a time,
//! through the steps both substrates run: one [`InstanceCore`] per vertex,
//! then a [`SinkCore`]. The ideal chain of COE (§1), the single-NF runner
//! and Figure 9 drive it and keep only their own accounting.

use crate::{
    ChainConfig, Clock, InstanceCore, InstanceId, LogicalDag, NetworkFunction, SharedStore,
    SinkCore, StateClient, Step, TaggedPacket, VertexId,
};
use chc_packet::Packet;
use chc_sim::VirtualTime;
use chc_store::StoreServer;
use std::{ops::DerefMut, sync::Arc};

/// One vertex: instance, client, downstream stages in edge order, queue.
struct Stage<N> {
    core: InstanceCore<N>,
    client: StateClient,
    downstream: Vec<usize>,
    queue: Vec<TaggedPacket>,
}

/// A stage to build: vertex, NF, off the path, chain exit, downstream.
type Spec<N> = (VertexId, N, bool, bool, Vec<usize>);

/// A chain driven one packet at a time; see the module docs.
pub struct InlineChain<N = Box<dyn NetworkFunction>> {
    /// In topological order, so a copy always waits at a later stage.
    stages: Vec<Stage<N>>,
    /// The stages no other stage feeds: every trace packet enters there.
    entries: Vec<usize>,
    /// The end host's books.
    pub sink: SinkCore,
    /// The stages' datastore (read by the tests' bound checks).
    #[cfg_attr(not(test), allow(dead_code))]
    store: Arc<StoreServer>,
}

impl InlineChain {
    /// `dag`'s chain: one stage per vertex, in topological order.
    pub fn new(dag: &LogicalDag, config: &ChainConfig) -> InlineChain {
        let order = dag.topo_order().expect("valid DAG");
        let index = |id| order.iter().position(|v| *v == id).expect("a DAG vertex");
        let exits = dag.exits();
        let specs = order.iter().map(|&id| {
            let v = dag.vertex(id).expect("a DAG vertex");
            let downstream = dag.downstream_of(id).into_iter().map(index).collect();
            let (nf, exit) = (v.build_nf(), exits.contains(&id));
            (id, nf, v.off_path, exit, downstream)
        });
        InlineChain::build(specs, config)
    }
}

impl<'n, N: DerefMut<Target = dyn NetworkFunction + 'n>> InlineChain<N> {
    /// A chain of one on-path NF, as vertex 1.
    pub fn single(nf: N, config: &ChainConfig) -> InlineChain<N> {
        let spec = (VertexId(1), nf, false, true, Vec::new());
        InlineChain::build([spec].into_iter(), config)
    }

    /// Stages in topological order under `config`'s mode and costs, over a
    /// datastore of their own; stage `i` runs as instance `i`. Nothing here
    /// is ever replayed or recovered, so the store keeps no duplicate-
    /// suppression log and the clients keep no recovery logs (both their
    /// defaults): no client or store structure grows with the trace.
    fn build(specs: impl Iterator<Item = Spec<N>>, config: &ChainConfig) -> InlineChain<N> {
        let (store, mut stages) = (SharedStore::new(), Vec::new());
        for (i, (vertex, nf, off_path, exit, downstream)) in specs.enumerate() {
            let (handle, objects) = (Box::new(Arc::clone(&store)), nf.state_objects());
            let (mode, costs, instance) = (config.mode, config.costs, InstanceId(i as u32));
            let client = StateClient::new(vertex, instance, handle, mode, costs, &objects);
            stages.push(Stage {
                core: InstanceCore::new(nf, off_path, exit),
                client,
                downstream,
                queue: Vec::new(),
            });
        }
        let fed = |i: &usize| stages.iter().any(|s: &Stage<N>| s.downstream.contains(i));
        let entries = (0..stages.len()).filter(|i| !fed(i)).collect();
        InlineChain {
            stages,
            entries,
            sink: SinkCore::default(),
            store,
        }
    }

    /// Run one trace packet to completion: stamp it with `clock`, run each
    /// stage's queued copies in queue order, hand a forwarded copy to every
    /// downstream stage in edge order (moved to the last), feed the exits'
    /// output to the sink, and drop the callbacks no instance here receives.
    pub fn step(&mut self, packet: &Packet, clock: Clock, now: VirtualTime) {
        for &entry in &self.entries {
            let tp = TaggedPacket::new(packet.clone(), clock);
            self.stages[entry].queue.push(tp);
        }
        for i in 0..self.stages.len() {
            let (stage, later) = self.stages[i..].split_first_mut().expect("stage i");
            for mut tp in stage.queue.drain(..) {
                let step = stage.core.on_packet(&mut tp, &mut stage.client, now, false);
                stage.client.take_pending_callbacks();
                let Step::Forward { exit } = step else {
                    continue;
                };
                if exit {
                    self.sink.on_packet(&tp);
                }
                if let Some((&last, rest)) = stage.downstream.split_last() {
                    for &d in rest {
                        later[d - i - 1].queue.push(tp.clone());
                    }
                    later[last - i - 1].queue.push(tp);
                }
            }
        }
    }

    /// Stage `i`'s instance, in topological order.
    pub fn core(&self, i: usize) -> &InstanceCore<N> {
        &self.stages[i].core
    }

    /// Stage `i`'s client, in topological order.
    pub fn client(&mut self, i: usize) -> &mut StateClient {
        &mut self.stages[i].client
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, NfContext, StateObjectSpec, VertexSpec};
    use chc_packet::{Scope, ScopeKey, Trace, TraceConfig, TraceGenerator};
    use chc_store::AccessPattern;
    use std::rc::Rc;

    /// The state shapes of firewall → NAT → load balancer: a per-host
    /// blacklist read through a cache, a shared counter on every packet and
    /// per-server byte counters.
    struct Like(&'static str);

    impl NetworkFunction for Like {
        fn name(&self) -> &str {
            self.0
        }

        fn state_objects(&self) -> Vec<StateObjectSpec> {
            let counter = |name, scope| {
                StateObjectSpec::cross_flow(name, scope, AccessPattern::WriteMostlyReadRarely)
            };
            match self.0 {
                "firewall" => vec![StateObjectSpec::cross_flow(
                    "blacklisted",
                    Scope::SrcIp,
                    AccessPattern::ReadMostly,
                )],
                "nat" => vec![
                    counter("pkt_count", Scope::Global),
                    StateObjectSpec::per_flow("port_map", AccessPattern::ReadMostly),
                ],
                _ => vec![counter("server_bytes", Scope::DstIp)],
            }
        }

        fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
            match self.0 {
                "firewall" => {
                    ctx.read("blacklisted", Some(ScopeKey::Host(packet.initiator())));
                }
                "nat" => {
                    ctx.increment("pkt_count", None, 1);
                    let conn = Some(ScopeKey::Flow(packet.connection_key()));
                    if ctx.read("port_map", conn).is_none() {
                        ctx.set("port_map", conn, chc_store::Value::Int(1));
                    }
                }
                _ => {
                    let server = Some(ScopeKey::Host(packet.responder()));
                    ctx.increment("server_bytes", server, i64::from(packet.len));
                }
            }
            Action::Forward(packet.clone())
        }
    }

    fn fw_nat_lb() -> LogicalDag {
        let like = |id, name| VertexSpec::new(id, name, Rc::new(move || Box::new(Like(name))));
        LogicalDag::linear(vec![like(1, "firewall"), like(2, "nat"), like(3, "lb")])
    }

    fn trace() -> Trace {
        let trace = TraceGenerator::new(TraceConfig::small(5)).generate();
        assert!(trace.len() >= 2_000, "{} packets", trace.len());
        trace
    }

    #[test]
    fn a_run_to_completion_chain_keeps_no_recovery_metadata() {
        let trace = trace();
        let mut chain = InlineChain::new(&fw_nat_lb(), &ChainConfig::default());
        for (i, packet) in trace.iter().enumerate() {
            chain.step(packet, Clock(i as u64 + 1), VirtualTime::ZERO);
        }
        assert!(chain.sink.delivered() > 0);
        for i in 0..3 {
            let client = chain.client(i);
            let stats = client.stats();
            let reached = stats.blocking_ops + stats.non_blocking_ops;
            assert!(reached > 0, "stage {i} never reached the store");
        }
        assert_eq!(chain.store.update_log_len(), 0);
    }
}
