//! The root: stamps logical clocks in trace order through
//! [`chc_core::RootCore`], logs and injects, and executes the shard faults
//! keyed on its counter. The calling thread runs it ([`run_root`]). When the
//! plan kills the root, the same thread then builds a new root from what a
//! crashed root leaves behind (§5.4) and finishes the trace with it.
//! Nothing else of the dead root is handed on.

use crate::engine::EngineShared;
use crate::fault::{RootTakeover, ShardRecovery};
use crate::plan::ChainPlan;
use crate::spsc::Producer;
use crate::wiring::{links_mut, Downstream, OutLink};
use chc_core::{RootCore, TaggedPacket};
use chc_packet::{flow_sampled, Packet, PacketId, Trace, TraceTag};
use chc_telemetry::{EventKind, SpanEvent, SpanKind, TraceLane};
use std::time::Instant;

/// What the root hands back when injection is finished.
#[derive(Default)]
pub(crate) struct Injection {
    /// Packets stamped, by a killed root and its successor together.
    pub(crate) stamped: u64,
    /// The last clock counter stamped, the highest: a new root resumes
    /// above every counter the dead one stamped.
    pub(crate) last_counter: u64,
    pub(crate) reinjected: u64,
    pub(crate) shard_recoveries: Vec<ShardRecovery>,
    /// Set when the plan killed the root and a new one took over.
    pub(crate) takeover: Option<RootTakeover>,
}

/// The trace packets not yet stamped. The input stream is outside the root,
/// so it survives a root crash.
type Input<'a> = std::slice::Iter<'a, Packet>;

/// The producer ends of the root's rings, one list per entry vertex: what
/// survives a root crash as network.
type Rings = Vec<Vec<Producer<TaggedPacket>>>;

/// What a root process holds: its clock, its output rings (one fan-out per
/// entry vertex, with the unflushed batches) and the re-injection drill's
/// saved packets. All of it dies with the root but the rings.
struct Root {
    core: RootCore,
    outs: Vec<Downstream>,
    drill: Vec<TaggedPacket>,
}

/// Body of the root, on the calling thread: inject `trace` over `outs`. At
/// the planned root kill the root crashes and a new root takes over; then
/// the re-injection drill runs and the rings close.
pub(crate) fn run_root(
    trace: &Trace,
    plan: &ChainPlan,
    shared: &EngineShared,
    outs: Vec<Downstream>,
) -> Injection {
    let mut input = trace.packets.iter();
    let mut out = Injection::default();
    let recoveries = &mut out.shard_recoveries;
    let mut root = Root {
        core: RootCore::default(),
        outs,
        drill: Vec::new(),
    };
    root.inject(plan, shared, &mut input, plan.root_kill, recoveries);
    if let Some(killed_at) = plan.root_kill {
        let started = Instant::now();
        let telemetry = &shared.telemetry;
        let (rings, lost) = root.crash();
        telemetry.event(EventKind::RootKilled {
            at_counter: killed_at,
        });
        root = Root::take_over(plan, shared, rings);
        let resumed_at = root.core.counter() + 1;
        let packets_lost = lost.len() as u64;
        telemetry.event(EventKind::RootTakeover {
            resumed_at,
            packets_lost,
        });
        out.takeover = Some(RootTakeover {
            killed_at,
            resumed_at,
            lost,
            recovery_wall: started.elapsed(),
        });
        root.inject(plan, shared, &mut input, None, recoveries);
    }
    out.reinjected = root.finish(shared.batch);
    out.stamped = (trace.len() - input.len()) as u64;
    out.last_counter = root.core.counter();
    out
}

impl Root {
    /// Stamp and inject from `input`, stopping — without stamping — just
    /// before the counter `stop_before`, the planned root fail-stop point.
    fn inject(
        &mut self,
        plan: &ChainPlan,
        shared: &EngineShared,
        input: &mut Input<'_>,
        stop_before: Option<u64>,
        shard_recoveries: &mut Vec<ShardRecovery>,
    ) {
        let telemetry = &shared.telemetry;
        let trace_ppm = telemetry.config.trace_sample_ppm;
        // Only a fault plan pays for persisting the clock, as for the log.
        let store = shared.fault_mode.then_some(&*shared.server);
        // The fault schedule is read in counter order. A plan that kills the
        // root schedules nothing else, so a new root's schedule is empty.
        let (mut checkpoints, mut restarts, mut drill) = (0, 0, 0);
        loop {
            let next = self.core.counter() + 1;
            if stop_before == Some(next) {
                return;
            }
            let Some(pkt) = input.next() else { return };
            if shared.fault_mode {
                for &s in plan.shard_checkpoints.due(&mut checkpoints, next) {
                    shared.server.checkpoint_shard(s);
                }
                for &s in plan.shard_restarts.due(&mut restarts, next) {
                    let started = Instant::now();
                    let stats = shared.server.restart_shard(s);
                    telemetry.event(EventKind::ShardRestart {
                        shard: s as u32,
                        ops_replayed: stats.replayed_ops as u64,
                    });
                    shard_recoveries.push(ShardRecovery {
                        shard: s,
                        at_counter: next,
                        restored_from_checkpoint: stats.restored_from_checkpoint,
                        replayed_ops: stats.replayed_ops,
                        recovery_wall: started.elapsed(),
                    });
                }
            }
            let clock = self.core.stamp(store);
            let counter = clock.counter();
            if let Some(scale) = plan.scale {
                if counter == scale.first_counter {
                    telemetry.event(EventKind::ScaleCut {
                        vertex: scale.vertex.0,
                        at_counter: counter,
                    });
                }
            }
            let mut tp = TaggedPacket::new(pkt.clone(), clock);
            // Flow-sampled causal tracing: tag before the packet-log insert so
            // replayed copies carry the tag too.
            if telemetry.tracer.is_some() && flow_sampled(pkt.flow_key(), trace_ppm) {
                tp.trace = Some(TraceTag::new(counter));
            }
            // Span epoch of a timed packet: the root "lets go" of it at
            // injection. Stamped before the log insert too, so a replayed copy
            // still measures from the original injection.
            if tp.is_timed() {
                let now_ns = telemetry.now_ns();
                tp.inject_ns = now_ns;
                tp.hop_ns = now_ns;
                if tp.trace.is_some() {
                    telemetry.trace_span(SpanEvent {
                        trace_id: counter,
                        lane: TraceLane::Root,
                        kind: SpanKind::Inject,
                        t_ns: now_ns,
                        dur_ns: 0,
                    });
                }
            }
            if shared.fault_mode {
                // The drill's cursor moves past `counter` whether or not the log
                // takes the packet: a rejected packet is never re-injected.
                let drilled = plan.reinject.due(&mut drill, counter).next().is_some();
                if !self.core.log(&shared.logs, &tp) {
                    continue;
                }
                if drilled {
                    self.drill.push(tp.clone());
                }
            }
            self.route(&tp, shared.batch);
        }
    }

    /// Route one stamped packet to the entry instances through the rings.
    fn route(&mut self, tp: &TaggedPacket, batch: usize) {
        for entry in &mut self.outs {
            entry.route(tp, batch);
        }
    }

    /// Crash: the clock, the drill buffer and the unflushed output batches
    /// die with the root (its packet log too, which the new root clears).
    /// The packets in those batches are lost, like network drops; their ids
    /// come back, once each, with the rings, which survive as network.
    fn crash(mut self) -> (Rings, Vec<PacketId>) {
        let unflushed = links_mut(&mut self.outs).flat_map(|link| link.buf.drain(..));
        let mut lost: Vec<PacketId> = unflushed.map(|tp| tp.packet.id).collect();
        lost.sort_unstable();
        lost.dedup();
        let producers = |entry: Downstream| entry.links.into_iter().map(|l| l.producer).collect();
        (self.outs.into_iter().map(producers).collect(), lost)
    }

    /// A new root, built from what survives a root crash (§5.4) and nothing
    /// else: its clock from the store ([`RootCore::recovered`]), and the
    /// rings, put behind the plan's splitters (§7.3's flow-allocation query).
    /// The dead root's log died with it, so the root's log row starts empty.
    fn take_over(plan: &ChainPlan, shared: &EngineShared, rings: Rings) -> Root {
        let sentinel = &shared.telemetry.sentinel;
        let outs = (plan.entries.iter().zip(rings))
            .map(|(entry, producers)| Downstream {
                splitter: plan.splitters[entry].clone(),
                links: (producers.into_iter())
                    .map(|p| OutLink::new(p, shared.batch, sentinel.clone()))
                    .collect(),
            })
            .collect();
        Root {
            core: RootCore::recovered(&shared.server, &shared.logs),
            outs,
            drill: Vec::new(),
        }
    }

    /// Re-injection drill (saved logged packets sent a second time, unmarked:
    /// downstream queue suppression or the sink's duplicate accounting must
    /// absorb them) plus the final flush and close of the rings. Returns the
    /// number of re-injected packets.
    fn finish(&mut self, batch: usize) -> u64 {
        let drill = std::mem::take(&mut self.drill);
        for tp in &drill {
            self.route(tp, batch);
        }
        for link in links_mut(&mut self.outs) {
            link.flush();
            link.producer.close();
        }
        drill.len() as u64
    }
}
