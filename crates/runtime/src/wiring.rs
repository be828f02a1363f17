//! The engine's ring wiring, resolved to indices: buffered output links,
//! input rings with their commit bookkeeping, and the per-downstream fan-out
//! a thread routes through. Every thread owns its wiring outright, so the
//! packet path reaches a ring through two `Vec` indexes and no map probe.
//! `wire` lays every ring of a run from the [`ChainPlan`]: one per
//! (producer, consumer) pair of live traffic, and no other. A failover
//! replacement reads its replay out of the packet logs itself
//! ([`crate::replay`]), so no ring ever carries replayed copies into it.
//!
//! A ring carries ring batches, not packets: a slot holds one [`Batch`] of
//! up to `batch` packets, and a link of `depth` packets has `depth / batch`
//! slots, rounded down to a power of two, so it never holds more than
//! `depth` packets. Each link owns a fixed pool of batch buffers, allocated
//! when [`link`] lays it: the producer fills one in its [`OutLink`] and
//! publishes it as one ring item, and the consumer empties it and hands it
//! back through the link's return ring ([`InputRing::recycle`]), where the
//! producer takes its next spare. A packet is copied once per hop, into the
//! producer's buffer; no transfer allocates or frees, and every buffer
//! stays in the allocator arena of the thread that laid it.
//!
//! In fault mode a ring's commit frontier advances only by its producer's
//! stamps, one per ring batch: the root's counter, an instance's watermark
//! or how far its replay has come. A stamp promises that every clock at or
//! below it that will ever travel the ring is in this batch or an earlier
//! one, whatever order the producer emits in.

use crate::plan::ChainPlan;
use crate::spsc::{ring, CachePadded, Consumer, Producer};
use crate::telemetry::{RunTelemetry, SentinelState};
use chc_core::{Splitter, TaggedPacket};
use chc_store::VertexId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// One ring batch: up to `batch` packets, moved through a ring as one item.
pub type Batch = Vec<TaggedPacket>;

/// Slots of a link of `depth` packets in batches of `batch`: a power of
/// two, at least two, and never more than `depth / batch`.
fn slots(depth: usize, batch: usize) -> usize {
    1 << (depth / batch).max(2).ilog2()
}

/// Lay one link of at most `depth` packets moved in batches of `batch`
/// (`depth` at least two batches): its producer end and its consumer end.
/// The pool holds a buffer for every slot, plus the one the producer fills
/// and the one the consumer empties, so a spare is waiting whenever a push
/// lands.
pub fn link(depth: usize, batch: usize) -> (OutLink, InputRing) {
    let pool = slots(depth, batch) + 2;
    let (tx, rx) = ring(slots(depth, batch));
    let (mut returns, spares) = ring(pool);
    for _ in 1..pool {
        let laid = returns.push(Vec::with_capacity(batch));
        debug_assert!(laid.is_ok(), "the return ring holds the whole pool");
    }
    let out = OutLink {
        tx,
        spares,
        buf: Vec::with_capacity(batch),
        frontier: 0,
        sent: 0,
        sentinel: None,
        gauge: None,
    };
    let input = InputRing {
        rx,
        returns,
        frontier: 0,
        gauge: None,
    };
    (out, input)
}

/// Packets queued on one link, for the gauge monitor: the producer counts
/// the packets it publishes, the consumer those it pops, each on a cache
/// line of its own. Laid only when the monitor runs.
pub(crate) struct LinkGauge {
    pushed: CachePadded<AtomicUsize>,
    popped: CachePadded<AtomicUsize>,
    /// The link's capacity in packets: slots times batch.
    capacity: usize,
}

impl LinkGauge {
    /// Packets published and not yet popped. Each end counts after its own
    /// ring publication, so a sample can run a batch ahead; it is clamped
    /// to the capacity. The loads are relaxed: an estimate, which is fine
    /// for a gauge sampled at millisecond cadence.
    pub(crate) fn depth(&self) -> usize {
        let pushed = self.pushed.0.load(Ordering::Relaxed);
        let popped = self.popped.0.load(Ordering::Relaxed);
        pushed.saturating_sub(popped).min(self.capacity)
    }
}

/// A buffered outgoing edge to one downstream instance: the ring's producer
/// end, the batch being filled, and the link's spare buffers.
pub struct OutLink {
    tx: Producer<(u64, Batch)>,
    /// Emptied buffers the consumer handed back.
    spares: Consumer<Batch>,
    buf: Batch,
    /// The stamp of the next batch published (see the module docs).
    frontier: u64,
    /// The stamp the last published batch carried.
    sent: u64,
    /// Conservation-ledger handle, when the sentinel is on. Pushes count at
    /// flush time: copies sitting in an unflushed buffer when an instance
    /// fail-stops die with it and are deliberately never "in the network".
    sentinel: Option<Arc<SentinelState>>,
    gauge: Option<Arc<LinkGauge>>,
}

impl OutLink {
    /// Queue one packet, publishing the buffer first if it holds a full
    /// batch. A full buffer waits for the next push or flush, so the batch
    /// an instance fills from one input batch goes out at its batch
    /// boundary, with the stamp that covers it.
    #[inline]
    pub fn push(&mut self, tp: TaggedPacket, batch: usize) {
        if self.buf.len() >= batch {
            self.flush();
        }
        self.buf.push(tp);
    }

    /// Publish the buffer as one ring item and take a spare in its place,
    /// yielding on downstream backpressure: the DAG is acyclic and the sink
    /// always drains, so this cannot deadlock. Pushed copies are booked in
    /// the conservation ledger here, so what an unflushed buffer loses was
    /// never in the network.
    ///
    /// A stamp that moved goes out in an empty batch if nothing else does.
    pub fn flush(&mut self) {
        let n = self.buf.len();
        let stamp = self.frontier;
        if n == 0 && stamp == self.sent {
            return;
        }
        let mut full = (stamp, std::mem::take(&mut self.buf));
        while let Err(back) = self.tx.push(full) {
            full = back;
            thread::yield_now();
        }
        self.sent = stamp;
        if let Some(s) = &self.sentinel {
            s.ledger.ring_pushed.add(n as u64);
        }
        if let Some(g) = &self.gauge {
            g.pushed.0.fetch_add(n, Ordering::Relaxed);
        }
        // The pool keeps a spare for every push that lands, so this waits
        // only until the consumer's hand-back is visible here.
        self.buf = loop {
            match self.spares.pop() {
                Some(spare) => break spare,
                None => thread::yield_now(),
            }
        };
    }

    /// Stamp the batches published from now on with `frontier` — the
    /// root's counter, an instance's commit watermark or how far its replay
    /// has come — unless the stamp is already higher: it never goes back.
    #[inline]
    pub(crate) fn set_frontier(&mut self, frontier: u64) {
        self.frontier = self.frontier.max(frontier);
    }

    /// Empty the unflushed buffer — what a crash of the producer loses —
    /// keeping the buffer itself in the link's pool.
    pub fn discard(&mut self) -> std::vec::Drain<'_, TaggedPacket> {
        self.buf.drain(..)
    }

    /// Close the ring: the consumer drains what is queued and then sees
    /// the stream end.
    pub fn close(&self) {
        self.tx.close();
    }

    /// The link's batch buffers out of its consumer's hands: the one being
    /// filled, those queued and the spares. It is the pool size whenever the
    /// consumer holds none.
    pub fn buffers_at_rest(&self) -> usize {
        1 + self.tx.queued() + self.spares.queued()
    }
}

/// Everything a thread sends to one downstream vertex: that vertex's
/// splitter and one link per instance of it, in instance-index order.
pub(crate) struct Downstream {
    pub(crate) splitter: Splitter,
    pub(crate) links: Vec<OutLink>,
}

impl Downstream {
    /// Queue `tp` on the link of the instance it routes to.
    #[inline]
    pub(crate) fn route(&mut self, tp: TaggedPacket, batch: usize) {
        let idx = self.splitter.instance_for(&tp.packet, tp.clock);
        self.links[idx].push(tp, batch);
    }
}

/// Queue `tp` on every fan-out of `outs`: moved into the last one, a copy
/// into each other.
#[inline]
pub(crate) fn route_all(outs: &mut [Downstream], tp: TaggedPacket, batch: usize) {
    if let Some((last, rest)) = outs.split_last_mut() {
        for d in rest {
            d.route(tp.clone(), batch);
        }
        last.route(tp, batch);
    }
}

/// Every link of a thread's downstream fan-outs.
pub(crate) fn links_mut(outs: &mut [Downstream]) -> impl Iterator<Item = &mut OutLink> {
    outs.iter_mut().flat_map(|d| d.links.iter_mut())
}

/// One input ring of an instance (or the sink), with the return ring its
/// emptied batches go back through and the bookkeeping the commit protocol
/// needs: the ring's frontier, at or below which every clock the ring will
/// ever carry has been popped.
pub struct InputRing {
    pub(crate) rx: Consumer<(u64, Batch)>,
    returns: Producer<Batch>,
    /// The frontier: the highest stamp of a batch popped.
    pub(crate) frontier: u64,
    gauge: Option<Arc<LinkGauge>>,
}

impl InputRing {
    /// Take the next ring batch, if one is queued, and raise the frontier to
    /// its stamp. Hand it back through [`InputRing::recycle`] once it is
    /// done with.
    #[inline]
    pub fn pop(&mut self) -> Option<Batch> {
        let (stamp, batch) = self.rx.pop()?;
        self.frontier = self.frontier.max(stamp);
        if let Some(g) = &self.gauge {
            g.popped.0.fetch_add(batch.len(), Ordering::Relaxed);
        }
        Some(batch)
    }

    /// True once the producer closed the ring and every batch was popped.
    pub fn is_exhausted(&mut self) -> bool {
        self.rx.is_exhausted()
    }

    /// Return a popped buffer to its link's pool, dropping whatever packets
    /// it still holds.
    #[inline]
    pub fn recycle(&mut self, mut batch: Batch) {
        batch.clear();
        let returned = self.returns.push(batch);
        debug_assert!(returned.is_ok(), "the return ring holds the whole pool");
    }
}

/// The highest counter such that every packet with a smaller-or-equal
/// counter routed to the consumer of `inputs` has been popped: the minimum
/// of the rings' frontiers ([`InputRing::frontier`]).
pub(crate) fn frontier(inputs: &[InputRing]) -> u64 {
    inputs.iter().map(|r| r.frontier).min().unwrap_or(0)
}

/// The complete SPSC wiring of one instance thread. A fail-stopped
/// instance's replacement runs on exactly this, on the same thread, once its
/// own replay is done.
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
    /// Per plan slot.
    pub(crate) instances: Vec<InstanceWiring>,
    pub(crate) sink_inputs: Vec<InputRing>,
    /// Occupancy gauges for the monitor, labelled by edge; collected only
    /// when the monitor runs.
    pub(crate) gauges: Vec<(String, Arc<LinkGauge>)>,
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
    fn link(&mut self, label: impl FnOnce() -> String) -> (OutLink, InputRing) {
        let (depth, batch) = (self.plan.depth, self.plan.batch);
        let (mut out, mut input) = link(depth, batch);
        out.sentinel = self.sentinel.clone();
        if self.monitor_on {
            let gauge = Arc::new(LinkGauge {
                pushed: CachePadded(AtomicUsize::new(0)),
                popped: CachePadded(AtomicUsize::new(0)),
                capacity: slots(depth, batch) * batch,
            });
            self.wired.gauges.push((label(), Arc::clone(&gauge)));
            (out.gauge, input.gauge) = (Some(Arc::clone(&gauge)), Some(gauge));
        }
        (out, input)
    }

    /// One ring from the producer called `from` to each instance of
    /// `vertex`, in instance-index order, behind that vertex's splitter.
    fn fan_out(&mut self, from: &str, vertex: VertexId) -> Downstream {
        let targets = self.plan.slots_of(vertex);
        let mut links = Vec::with_capacity(targets.len());
        for (k, &target) in targets.iter().enumerate() {
            let (link, input) = self.link(|| format!("{from}->v{}.{k}", vertex.0));
            self.wired.instances[target].inputs.push(input);
            links.push(link);
        }
        Downstream {
            splitter: self.plan.splitters[&vertex].clone(),
            links,
        }
    }

    /// One ring from the tail instance called `from` to the sink.
    fn sink_link(&mut self, from: &str) -> OutLink {
        let (link, input) = self.link(|| format!("{from}->sink"));
        self.wired.sink_inputs.push(input);
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
        let out = rings.fan_out("root", *entry);
        rings.wired.root_outs.push(out);
    }
    // Instance → downstream instances (on-path producers only; off-path
    // vertices consume copies and emit nothing, as in the simulator), then
    // tail instances → sink, in topological order: each instance's input
    // rings are laid in the order of their producers' slots.
    for &i in plan.topo.iter().flat_map(|v| plan.slots_of(*v)) {
        let p = &plan.instances[i];
        if p.core.off_path() {
            continue;
        }
        let from = format!("v{}.{}", p.vertex.0, p.index);
        for d in &p.downstream {
            let out = rings.fan_out(&from, *d);
            rings.wired.instances[i].outs.push(out);
        }
        if p.core.exit() {
            rings.wired.instances[i].sink_link = Some(rings.sink_link(&from));
        }
    }
    rings.wired
}

/// One iteration of the idle backoff on a thread whose input rings are all
/// empty: yield a few times (covering the common sub-microsecond gap between
/// batches), then block on the [`park_target`] ring until its producer
/// pushes or closes. The park timeout is the safety net for items arriving
/// on *other* rings while parked — the wake only covers the parked ring —
/// and for any protocol bug; on an oversubscribed host a bounded oversleep
/// beats the scheduler churn of thousands of yielding wake-ups per second.
/// (Busy-waiting instead measured 5× slower wherever threads outnumber
/// cores; DESIGN.md, "Store fast path".)
pub(crate) fn idle_wait(streak: u32, inputs: &mut [InputRing]) {
    if streak < 4 {
        thread::yield_now();
    } else if let Some(i) = park_target(inputs) {
        // `park_if_empty` refuses (returns immediately) if items landed
        // between our empty poll and the arm — the caller just loops and
        // pops them.
        inputs[i].rx.park_if_empty(Duration::from_micros(200));
    }
}

/// The ring an idle thread parks on: the first whose producer is still
/// open. A closed ring can never wake it.
fn park_target(inputs: &[InputRing]) -> Option<usize> {
    inputs.iter().position(|r| r.rx.has_open_producer())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_thread_parks_on_the_first_ring_still_open() {
        // How `wire` lays a merge vertex's inputs: one ring per upstream.
        let (first_tx, first_rx) = link(4, 2);
        let (second_tx, second_rx) = link(4, 2);
        let inputs = [first_rx, second_rx];
        assert_eq!(park_target(&inputs), Some(0), "the first open ring");
        // Once the first stream ends, the second is all that can wake it.
        first_tx.close();
        assert_eq!(park_target(&inputs), Some(1), "the other open ring");
        second_tx.close();
        assert_eq!(park_target(&inputs), None, "nothing left to wait on");
    }

    #[test]
    fn a_link_holds_at_most_its_depth_in_packets() {
        for (depth, batch) in [(1024, 32), (32, 8), (1000, 3), (64, 1), (96, 48)] {
            let held = slots(depth, batch) * batch;
            assert!(held <= depth, "{held} packets on a {depth}-packet link");
            assert!(2 * held > depth, "{held} packets on a {depth}-packet link");
            let (out, _input) = link(depth, batch);
            assert_eq!(out.buffers_at_rest(), slots(depth, batch) + 2);
        }
    }

    fn packet(counter: u64) -> TaggedPacket {
        let packet = chc_packet::PacketBuilder::default().id(counter).build();
        TaggedPacket::new(packet, chc_store::Clock(counter))
    }

    /// Pop one batch and process it whole, as a consumer does: the clocks it
    /// held.
    fn consume(input: &mut InputRing) -> Vec<u64> {
        let mut batch = input.pop().expect("a batch");
        let clocks = batch.drain(..).map(|tp| tp.clock.counter()).collect();
        input.recycle(batch);
        clocks
    }

    /// Behind an instance that interleaves two inputs, 3 comes after 4: the
    /// consumer's frontier is the stamp its producer sent, not the highest
    /// clock. A full buffer goes out with the stamp of the moment it is
    /// published, and a stamp that moved travels alone if no packet does.
    #[test]
    fn a_ring_advances_by_its_producers_stamps() {
        let (mut out, mut input) = link(8, 2);
        out.push(packet(4), 2);
        out.push(packet(3), 2);
        out.set_frontier(2);
        out.push(packet(5), 2);
        assert_eq!(consume(&mut input), [4, 3]);
        assert_eq!(input.frontier, 2, "the stamp, not clock 4");
        out.set_frontier(5);
        out.flush();
        assert_eq!(consume(&mut input), [5]);
        assert_eq!(input.frontier, 5);
        out.set_frontier(6);
        out.flush();
        assert_eq!(consume(&mut input), [] as [u64; 0]);
        assert_eq!(input.frontier, 6);
        out.flush();
        assert!(input.pop().is_none(), "an unmoved stamp sends nothing");
    }
}
