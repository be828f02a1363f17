//! The engine's ring wiring, resolved to indices: buffered output links,
//! input rings with their commit bookkeeping, and the per-downstream fan-out
//! a thread routes through. Every thread owns its wiring outright, so the
//! packet path reaches a ring through two `Vec` indexes and no map probe.

use crate::config::RingWait;
use crate::spsc::{ring, Consumer, Producer, RingProbe};
use crate::telemetry::SentinelState;
use chc_core::{Splitter, TaggedPacket};
use chc_store::VertexId;
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

/// The rings of one run while they are being laid: one bounded SPSC ring per
/// (producer, consumer) pair, the consumer ends collected per plan slot and
/// for the sink, the producer ends handed back to the caller.
pub(crate) struct RingPlan {
    /// Consumer ends per instance plan slot.
    pub(crate) inputs: Vec<Vec<InputRing>>,
    pub(crate) sink_inputs: Vec<InputRing>,
    /// Occupancy probes for the gauge monitor, labelled by edge; collected
    /// only when the monitor runs.
    pub(crate) probes: Vec<(String, RingProbe)>,
    pub(crate) monitor_on: bool,
    pub(crate) depth: usize,
    pub(crate) batch: usize,
    pub(crate) sentinel: Option<Arc<SentinelState>>,
}

impl RingPlan {
    fn link(&mut self, label: impl FnOnce() -> String) -> (OutLink, Consumer<TaggedPacket>) {
        let (tx, rx) = ring(self.depth);
        if self.monitor_on {
            self.probes.push((label(), tx.depth_probe()));
        }
        (OutLink::new(tx, self.batch, self.sentinel.clone()), rx)
    }

    /// One ring from the producer called `from` to each instance of
    /// `vertex` (plan slots `targets`, in instance-index order). `ordered`
    /// is `None` for a replay ring, else [`InputRing::ordered`].
    pub(crate) fn fan_out(
        &mut self,
        from: &str,
        vertex: VertexId,
        targets: &[usize],
        ordered: Option<bool>,
    ) -> Vec<OutLink> {
        let mut links = Vec::with_capacity(targets.len());
        for (k, &target) in targets.iter().enumerate() {
            let (link, rx) = self.link(|| format!("{from}->v{}.{k}", vertex.0));
            self.inputs[target].push(match ordered {
                Some(ordered) => InputRing::live(rx, ordered),
                None => InputRing::replay(rx),
            });
            links.push(link);
        }
        links
    }

    /// One ring from the tail instance called `from` to the sink.
    pub(crate) fn sink_link(&mut self, from: &str) -> OutLink {
        let (link, rx) = self.link(|| format!("{from}->sink"));
        // The sink keeps its duplicate window whole, so ring order is moot.
        self.sink_inputs.push(InputRing::live(rx, false));
        link
    }
}

/// One iteration of the idle backoff on a thread whose input rings are all
/// empty. `Spin` and `Yield` are the classic busy policies; `Park` yields a
/// few times (covering the common sub-microsecond gap between batches),
/// then blocks on the first still-open ring until its producer pushes or
/// closes. The park timeout is the safety net for items arriving on *other*
/// rings while parked — the wake only covers the parked ring — and for any
/// protocol bug; on an oversubscribed host a bounded oversleep beats the
/// scheduler churn of thousands of yielding wake-ups per second.
pub(crate) fn idle_wait(policy: RingWait, streak: u32, inputs: &mut [InputRing]) {
    match policy {
        RingWait::Spin => std::hint::spin_loop(),
        RingWait::Yield => thread::yield_now(),
        RingWait::Park => {
            if streak < 4 {
                thread::yield_now();
            } else if let Some(r) = inputs.iter_mut().find(|r| r.rx.has_open_producer()) {
                // `park_if_empty` refuses (returns immediately) if items
                // landed between our empty poll and the arm — the caller
                // just loops and pops them.
                r.rx.park_if_empty(Duration::from_micros(200));
            }
        }
    }
}
