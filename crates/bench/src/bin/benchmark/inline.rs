//! The chain run inline on the calling thread: every NF's `process()` in
//! chain order per packet, each NF with its own `StateClient`, the
//! write-behind buffers drained every ring batch the way the engine's
//! instance loop does. This is the reference every engine repetition is
//! checked against, the source of `pkt_p50_ns` / `pkt_p99_ns`, and rungs
//! 0–3 of the ladder.

use crate::spans::SpanLog;
use chc_core::state::StateClientStats;
use chc_core::{
    Action, ChainConfig, ExternalizationMode, LogicalDag, NetworkFunction, NfContext, StateClient,
    StateHandle,
};
use chc_packet::{PacketId, Trace};
use chc_runtime::shared_state_digest;
use chc_sim::VirtualTime;
use chc_store::{Clock, InstanceId, StateKey, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Packets between write-behind drains: `RuntimeConfig::default().batch_size`,
/// which is also the write-behind cap the engine derives from it.
pub const DRAIN_EVERY: usize = 32;

/// Every how many packets the traced pass records spans.
pub const SPAN_EVERY: usize = 64;

struct Stage {
    /// The vertex's name in the DAG ("firewall", "nat", "lb").
    name: String,
    span_name: String,
    nf: Box<dyn NetworkFunction>,
    client: StateClient,
}

/// One NF instance per vertex of a linear chain, in chain order.
pub struct InlineChain {
    stages: Vec<Stage>,
}

impl InlineChain {
    /// Build the chain's NFs and clients. `handle` is called once per vertex
    /// and returns that client's way to the store; clients are configured
    /// like the engine's (clock tags on, recovery logs off, write-behind cap
    /// = ring batch).
    pub fn new(
        dag: &LogicalDag,
        mode: ExternalizationMode,
        mut handle: impl FnMut() -> Box<dyn StateHandle>,
    ) -> InlineChain {
        let order = dag.topo_order().expect("valid DAG");
        let costs = ChainConfig::default().costs;
        let stages = order
            .iter()
            .enumerate()
            .map(|(i, id)| {
                assert!(
                    dag.downstream_of(*id).len() <= 1,
                    "inline chains are linear"
                );
                let vertex = dag.vertex(*id).expect("vertex in order");
                let nf = vertex.build_nf();
                let mut client = StateClient::new(
                    *id,
                    InstanceId(i as u32),
                    handle(),
                    mode,
                    costs,
                    &nf.state_objects(),
                );
                client.set_recovery_logging(false);
                client.set_write_behind(true, DRAIN_EVERY);
                Stage {
                    name: vertex.name.clone(),
                    span_name: format!("nf.{}", vertex.name),
                    nf,
                    client,
                }
            })
            .collect();
        InlineChain { stages }
    }

    /// Vertex names in chain order.
    pub fn nf_names(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.name.clone()).collect()
    }

    /// Client statistics summed over the chain.
    pub fn stats(&self) -> StateClientStats {
        self.stages
            .iter()
            .fold(StateClientStats::default(), |mut acc, s| {
                let st = s.client.stats();
                acc.cache_hits += st.cache_hits;
                acc.blocking_ops += st.blocking_ops;
                acc.non_blocking_ops += st.non_blocking_ops;
                acc.local_ops += st.local_ops;
                acc
            })
    }

    fn drain(&mut self) -> u64 {
        self.stages
            .iter_mut()
            .map(|s| {
                let n = s.client.drain_write_behind();
                s.client.take_pending_callbacks();
                n as u64
            })
            .sum()
    }
}

/// What one pass over a trace produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the whole pass, drains included.
    pub wall_ns: u64,
    /// Per-packet time through all NFs' `process()`, in ns (drains excluded).
    pub samples: Vec<u32>,
    /// Time, count and ops of the write-behind drains, timed separately.
    pub drain_ns: u64,
    pub drains: u64,
    pub drained_ops: u64,
    /// Ids the chain's exit forwarded, in order.
    pub delivered: Vec<PacketId>,
    /// Client statistics summed over the chain at the end of the pass.
    pub stats: StateClientStats,
    /// Per-NF `process()` times in chain order (traced passes only).
    pub nf_ns: Vec<Vec<u32>>,
}

impl Pass {
    /// Mean cost of a packet over the whole pass.
    pub fn ns_per_pkt(&self) -> f64 {
        self.wall_ns as f64 / self.samples.len().max(1) as f64
    }
}

fn ns_since(start: Instant) -> u32 {
    start.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

/// Run `trace` through `chain` once. With a span log the pass is *traced*:
/// every NF call is timed on every packet and every [`SPAN_EVERY`]-th packet
/// records `chain → nf.<name> → store.*` spans (the store spans come from the
/// chain's [`crate::spans::TimedHandle`]s sharing the log), with `core.drain`
/// wrapping the drain that follows a sampled packet.
pub fn run_pass(chain: &mut InlineChain, trace: &Trace, log: Option<&SpanLog>) -> Pass {
    let n = trace.len();
    let mut pass = Pass {
        samples: Vec::with_capacity(n),
        delivered: Vec::with_capacity(n),
        nf_ns: if log.is_some() {
            chain.stages.iter().map(|_| Vec::with_capacity(n)).collect()
        } else {
            Vec::new()
        },
        ..Pass::default()
    };
    let mut sampled_batch = false;
    let pass_start = Instant::now();
    for (i, pkt) in trace.iter().enumerate() {
        let clock = Clock::with_root(0, i as u64 + 1);
        let now = VirtualTime::from_nanos(pkt.arrival_ns);
        let sampled = log.is_some() && i % SPAN_EVERY == 0;
        if sampled {
            sampled_batch = true;
        }
        let chain_span = log.filter(|_| sampled).and_then(|l| {
            l.sample(Some(clock.counter()));
            l.open("chain")
        });
        let start = Instant::now();
        let mut current = pkt.clone();
        let mut forwarded = true;
        for (s, stage) in chain.stages.iter_mut().enumerate() {
            let nf_span = log.and_then(|l| l.open(&stage.span_name));
            let nf_start = log.map(|_| Instant::now());
            let mut ctx = NfContext::new(&mut stage.client, clock, now);
            let action = stage.nf.process(&current, &mut ctx);
            drop(ctx);
            // The virtual cost model does not apply on real threads; the
            // accumulators still need emptying, as in the engine.
            let _ = stage.client.take_charge();
            let _ = stage.client.take_packet_tokens();
            let _ = stage.client.take_pending_callbacks();
            if let (Some(l), Some(t)) = (log, nf_start) {
                pass.nf_ns[s].push(ns_since(t));
                l.close(nf_span, 0);
            }
            match action {
                Action::Forward(out) => current = out,
                Action::Drop => {
                    forwarded = false;
                    break;
                }
            }
        }
        pass.samples.push(ns_since(start));
        if let Some(l) = log.filter(|_| sampled) {
            l.close(chain_span, 0);
            l.sample(None);
        }
        if forwarded {
            pass.delivered.push(current.id);
        }
        if (i + 1) % DRAIN_EVERY == 0 || i + 1 == n {
            let drain_span = log.filter(|_| sampled_batch).and_then(|l| {
                l.sample(Some(clock.counter()));
                l.open("core.drain")
            });
            let start = Instant::now();
            let ops = chain.drain();
            pass.drain_ns += start.elapsed().as_nanos() as u64;
            if let Some(l) = log.filter(|_| sampled_batch) {
                l.close(drain_span, ops);
                l.sample(None);
            }
            sampled_batch = false;
            pass.drains += 1;
            pass.drained_ops += ops;
        }
    }
    pass.wall_ns = pass_start.elapsed().as_nanos() as u64;
    pass.stats = chain.stats();
    pass
}

/// The shared-state digest of a store dump, as `RuntimeReport::shared_digest`
/// computes it (framework metadata under the root's pseudo vertex excluded).
pub fn digest_of(
    dump: impl IntoIterator<Item = (StateKey, Value, Option<InstanceId>)>,
) -> BTreeMap<String, String> {
    shared_state_digest(
        dump.into_iter()
            .filter(|(k, _, _)| k.vertex != chc_core::root::ROOT_VERTEX),
    )
}
