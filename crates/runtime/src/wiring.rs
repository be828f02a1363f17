//! The engine's ring wiring, resolved to indices: buffered output links,
//! input rings with their commit bookkeeping, and the per-downstream fan-out
//! a thread routes through. Every thread owns its wiring outright, so the
//! packet path reaches a ring through two `Vec` indexes and no map probe.
//! [`wire`] lays every ring of a run from the [`ChainPlan`].

use crate::plan::ChainPlan;
use crate::spsc::{ring, Consumer, Producer, RingProbe};
use crate::telemetry::{RunTelemetry, SentinelState};
use chc_core::{Splitter, TaggedPacket};
use chc_store::VertexId;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A buffered outgoing edge to one downstream instance.
pub(crate) struct OutLink {
    pub(crate) producer: Producer<TaggedPacket>,
    pub(crate) buf: Vec<TaggedPacket>,
    /// Conservation-ledger handle, when the sentinel is on. Pushes count at
    /// flush time: copies sitting in an unflushed buffer when an instance
    /// fail-stops die with it and are deliberately never "in the network".
    pub(crate) sentinel: Option<Arc<SentinelState>>,
}

impl OutLink {
    pub(crate) fn new(
        producer: Producer<TaggedPacket>,
        batch: usize,
        sentinel: Option<Arc<SentinelState>>,
    ) -> OutLink {
        OutLink {
            producer,
            buf: Vec::with_capacity(batch),
            sentinel,
        }
    }

    /// Queue one packet; drain the buffer through the ring once it holds a
    /// full batch (spinning on downstream backpressure — the DAG is acyclic
    /// and the sink always drains, so this cannot deadlock).
    pub(crate) fn push(&mut self, tp: TaggedPacket, batch: usize) {
        self.buf.push(tp);
        if self.buf.len() >= batch {
            self.flush();
        }
    }

    /// Queue one packet, draining full batches with a *bounded* flush.
    /// Returns `false` when the flush gave up; the un-pushed remainder stays
    /// buffered (and was never booked as in the network).
    pub(crate) fn push_bounded(
        &mut self,
        tp: TaggedPacket,
        batch: usize,
        max_spins: usize,
    ) -> bool {
        self.buf.push(tp);
        if self.buf.len() >= batch {
            return self.try_flush(max_spins);
        }
        true
    }

    /// Drain the buffer through the ring, yielding on downstream
    /// backpressure for at most `max_spins` consecutive empty pushes.
    /// Returns `false` if the ring stayed full that long — the consumer has
    /// stopped draining and spinning further would hang the caller. Only
    /// packets actually pushed are booked in the conservation ledger.
    pub(crate) fn try_flush(&mut self, max_spins: usize) -> bool {
        let mut spins = 0usize;
        while !self.buf.is_empty() {
            let n = self.producer.push_batch(&mut self.buf);
            if n == 0 {
                spins += 1;
                if spins >= max_spins {
                    return false;
                }
                thread::yield_now();
            } else {
                if let Some(s) = &self.sentinel {
                    s.ledger.ring_pushed.add(n as u64);
                }
                spins = 0;
            }
        }
        true
    }

    /// Unbounded flush: on the packet path the DAG is acyclic and the sink
    /// always drains, so this cannot deadlock.
    pub(crate) fn flush(&mut self) {
        let _ = self.try_flush(usize::MAX);
    }
}

/// Everything a thread sends to one downstream vertex: that vertex's
/// splitter and one link per instance of it, in instance-index order.
pub(crate) struct Downstream {
    pub(crate) splitter: Splitter,
    pub(crate) links: Vec<OutLink>,
}

impl Downstream {
    /// Queue a copy of `tp` on the link of the instance it routes to.
    #[inline]
    pub(crate) fn route(&mut self, tp: &TaggedPacket, batch: usize) {
        let idx = self.splitter.instance_for(&tp.packet, tp.clock);
        self.links[idx].push(tp.clone(), batch);
    }
}

/// Every link of a thread's downstream fan-outs.
pub(crate) fn links_mut(outs: &mut [Downstream]) -> impl Iterator<Item = &mut OutLink> {
    outs.iter_mut().flat_map(|d| d.links.iter_mut())
}

/// One input ring of an instance (or the sink), with the bookkeeping the
/// commit protocol needs: the highest clock counter popped so far, and
/// whether the ring is a replay ring (replay traffic is redundant by
/// construction, so it never holds back a commit watermark).
pub(crate) struct InputRing {
    pub(crate) rx: Consumer<TaggedPacket>,
    pub(crate) last_counter: u64,
    pub(crate) replay: bool,
    /// True when the producer forwards one clock-ordered stream while no
    /// component has failed: the root, or an instance whose only live input
    /// is itself ordered. An instance that interleaves several inputs emits
    /// counters out of order, so `last_counter` on a ring it feeds says
    /// nothing about the smaller counters still to come.
    pub(crate) ordered: bool,
}

impl InputRing {
    pub(crate) fn live(rx: Consumer<TaggedPacket>, ordered: bool) -> InputRing {
        InputRing {
            rx,
            last_counter: 0,
            replay: false,
            ordered,
        }
    }

    pub(crate) fn replay(rx: Consumer<TaggedPacket>) -> InputRing {
        InputRing {
            rx,
            last_counter: 0,
            replay: true,
            ordered: false,
        }
    }
}

/// Whether an instance fed by `inputs` emits a clock-ordered stream (see
/// [`InputRing::ordered`]).
pub(crate) fn forwards_in_order(inputs: &[InputRing]) -> bool {
    let mut live = inputs.iter().filter(|r| !r.replay);
    matches!((live.next(), live.next()), (Some(only), None) if only.ordered)
}

/// The complete SPSC wiring of one instance thread. A fail-stopped instance
/// hands exactly this to the supervisor, and its replacement runs on it.
#[derive(Default)]
pub(crate) struct InstanceWiring {
    pub(crate) inputs: Vec<InputRing>,
    /// One fan-out per downstream vertex.
    pub(crate) outs: Vec<Downstream>,
    /// The ring to the sink, on a tail instance.
    pub(crate) sink_link: Option<OutLink>,
}

impl InstanceWiring {
    /// Every outgoing link, the sink's included.
    pub(crate) fn links_mut(&mut self) -> impl Iterator<Item = &mut OutLink> {
        links_mut(&mut self.outs).chain(&mut self.sink_link)
    }
}

/// Every ring of one run — one bounded SPSC ring per (producer, consumer)
/// pair — handed out per thread.
#[derive(Default)]
pub(crate) struct Wired {
    /// Root → entry instances, one fan-out per entry vertex.
    pub(crate) root_outs: Vec<Downstream>,
    /// Supervisor → instances of each *killed* vertex: one replay ring per
    /// instance, idle until a failover replays that vertex's replay source.
    /// Replay traffic never shares a ring with live traffic, so live flows
    /// keep their order; and the rings sit at the killed vertex's own depth —
    /// its replacement inherits them with the rest of the wiring, so replays
    /// enter the chain exactly where the loss happened.
    pub(crate) replay_outs: HashMap<VertexId, Downstream>,
    /// Per plan slot.
    pub(crate) instances: Vec<InstanceWiring>,
    pub(crate) sink_inputs: Vec<InputRing>,
    /// Occupancy probes for the gauge monitor, labelled by edge; collected
    /// only when the monitor runs.
    pub(crate) probes: Vec<(String, RingProbe)>,
}

/// The rings of one run while they are being laid: each new ring's consumer
/// end goes to its plan slot (or the sink), its producer end back to the
/// caller.
struct RingLayer<'a> {
    plan: &'a ChainPlan,
    wired: Wired,
    monitor_on: bool,
    /// Every link carries a handle to the conservation ledger.
    sentinel: Option<Arc<SentinelState>>,
}

impl RingLayer<'_> {
    fn link(&mut self, label: impl FnOnce() -> String) -> (OutLink, Consumer<TaggedPacket>) {
        let (tx, rx) = ring(self.plan.depth);
        if self.monitor_on {
            self.wired.probes.push((label(), tx.depth_probe()));
        }
        let link = OutLink::new(tx, self.plan.batch, self.sentinel.clone());
        (link, rx)
    }

    /// One ring from the producer called `from` to each instance of
    /// `vertex`, in instance-index order, behind that vertex's splitter.
    /// `ordered` is `None` for a replay ring, else [`InputRing::ordered`].
    fn fan_out(&mut self, from: &str, vertex: VertexId, ordered: Option<bool>) -> Downstream {
        let targets = self.plan.slots_of(vertex);
        let mut links = Vec::with_capacity(targets.len());
        for (k, &target) in targets.iter().enumerate() {
            let (link, rx) = self.link(|| format!("{from}->v{}.{k}", vertex.0));
            self.wired.instances[target].inputs.push(match ordered {
                Some(ordered) => InputRing::live(rx, ordered),
                None => InputRing::replay(rx),
            });
            links.push(link);
        }
        Downstream {
            splitter: self.plan.splitters[&vertex].clone(),
            links,
        }
    }

    /// One ring from the tail instance called `from` to the sink.
    fn sink_link(&mut self, from: &str) -> OutLink {
        let (link, rx) = self.link(|| format!("{from}->sink"));
        // The sink keeps its duplicate window whole, so ring order is moot.
        self.wired.sink_inputs.push(InputRing::live(rx, false));
        link
    }
}

/// Lay every ring of the plan.
pub(crate) fn wire(plan: &ChainPlan, telemetry: &RunTelemetry) -> Wired {
    let mut rings = RingLayer {
        plan,
        wired: Wired::default(),
        monitor_on: telemetry.config.sample_interval.is_some(),
        sentinel: telemetry.sentinel.clone(),
    };
    rings
        .wired
        .instances
        .resize_with(plan.instances.len(), InstanceWiring::default);
    for entry in &plan.entries {
        let out = rings.fan_out("root", *entry, Some(true));
        rings.wired.root_outs.push(out);
    }
    for killed in plan.replay_sources.keys() {
        let out = rings.fan_out("replay", *killed, None);
        rings.wired.replay_outs.insert(*killed, out);
    }
    // Instance → downstream instances (on-path producers only; off-path
    // vertices consume copies and emit nothing, as in the simulator), then
    // tail instances → sink. In topological order, so an instance's inputs
    // are complete — and its output order known — before its outputs are
    // wired.
    for &i in plan.topo.iter().flat_map(|v| plan.slots_of(*v)) {
        let p = &plan.instances[i];
        if p.off_path {
            continue;
        }
        let from = format!("v{}.{}", p.vertex.0, p.index);
        let ordered = forwards_in_order(&rings.wired.instances[i].inputs);
        for d in &p.downstream {
            let out = rings.fan_out(&from, *d, Some(ordered));
            rings.wired.instances[i].outs.push(out);
        }
        if p.is_tail {
            rings.wired.instances[i].sink_link = Some(rings.sink_link(&from));
        }
    }
    rings.wired
}

/// One iteration of the idle backoff on a thread whose input rings are all
/// empty: yield a few times (covering the common sub-microsecond gap between
/// batches), then block on the first still-open ring until its producer
/// pushes or closes. The park timeout is the safety net for items arriving
/// on *other* rings while parked — the wake only covers the parked ring —
/// and for any protocol bug; on an oversubscribed host a bounded oversleep
/// beats the scheduler churn of thousands of yielding wake-ups per second.
/// (Busy-waiting instead measured 5× slower wherever threads outnumber
/// cores; DESIGN.md, "Store fast path".)
pub(crate) fn idle_wait(streak: u32, inputs: &mut [InputRing]) {
    if streak < 4 {
        thread::yield_now();
    } else if let Some(r) = inputs.iter_mut().find(|r| r.rx.has_open_producer()) {
        // `park_if_empty` refuses (returns immediately) if items landed
        // between our empty poll and the arm — the caller just loops and
        // pops them.
        r.rx.park_if_empty(Duration::from_micros(200));
    }
}
