//! Messages exchanged between chain components and the framework envelope
//! that wraps packets (clock, replay and handover marks, span stamps).

use chc_packet::{Packet, TraceTag};
use chc_store::{Clock, InstanceId, StateKey, Value, VertexId};

/// One packet in this many is a *timed packet*: the real-thread engine reads
/// the wall clock for it at every hop and feeds the latency histograms; the
/// others cross the chain without a clock read. 16 keeps ≥ 4k latency samples
/// on the benchmark's smallest healthy workload (`steady`, ≈ 70k packets) and
/// ≥ 33k on `forward`, while the two clock reads a hop spends on a timed
/// packet (≈ 37 ns each) amortize to under 5 ns per packet.
pub const TIMED_PERIOD: u64 = 16;

/// A packet wrapped in the CHC framework envelope.
///
/// The envelope carries the logical clock stamped by the root, replay/clone
/// annotations, the handover mark and the span stamps of a timed packet.
/// NFs never see the envelope; the instance runtime unwraps it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedPacket {
    /// The packet as NFs see it.
    pub packet: Packet,
    /// Logical clock stamped by the root: its counter, `1..=N`.
    pub clock: Clock,
    /// The sender processed this copy as a replay, out of a clone's or
    /// failover instance's own snapshot of the packet logs (§5.3). The bit
    /// lasts one hop: a downstream instance admits the copy like any packet,
    /// or suppresses a clock it saw, and sends its output untagged
    /// ([`crate::InstanceCore::on_packet`]), so replay shadows at the sink
    /// come from a replaying chain exit alone.
    pub replayed: bool,
    /// True when this copy was replicated to a straggler's clone (the
    /// original still flows to the straggler).
    pub replicated: bool,
    /// The splitter marked this as the *first* packet of a flow group sent to
    /// the new instance during a reallocation (Figure 4, step 2; §5.1).
    pub first_of_move: bool,
    /// Causal-trace tag when the packet's flow was sampled for tracing;
    /// every hop that sees the tag records a span. `None` for the
    /// overwhelming majority of packets, so untraced traffic pays one
    /// branch.
    pub trace: Option<TraceTag>,
    /// Wall-clock time the root let go of a [timed](TaggedPacket::is_timed)
    /// packet, in nanoseconds since the run epoch; 0 on untimed packets and
    /// on the simulator, which has no wall clock.
    pub inject_ns: u64,
    /// When the previous stage let go of a timed packet: the root writes
    /// `inject_ns`, every on-path instance overwrites it with its egress
    /// time, and the next stage reads it as the start of its queue wait.
    pub hop_ns: u64,
}

impl TaggedPacket {
    /// Wrap a packet with a clock and no marks.
    pub fn new(packet: Packet, clock: Clock) -> TaggedPacket {
        TaggedPacket {
            packet,
            clock,
            replayed: false,
            replicated: false,
            first_of_move: false,
            trace: None,
            inject_ns: 0,
            hop_ns: 0,
        }
    }

    /// True for the packets the real-thread engine times: every
    /// [`TIMED_PERIOD`]-th clock counter plus every packet of a traced flow
    /// — a pure function of the trace, like flow sampling itself.
    #[inline]
    pub fn is_timed(&self) -> bool {
        self.trace.is_some() || self.clock.counter().is_multiple_of(TIMED_PERIOD)
    }
}

/// Messages exchanged by chain components over the simulated network.
#[derive(Debug, Clone)]
pub enum Msg {
    /// A data packet travelling the chain, or leaving it at an exit for
    /// the end-host sink.
    Data(TaggedPacket),
    /// Chain exit, or the on-path vertex that dropped the packet → root:
    /// processing of `clock` finished, so the root unlogs it (§5.4).
    DeleteRequest {
        /// Clock of the finished packet.
        clock: Clock,
    },
    /// Store → NF instance: a cached read-heavy object changed (Table 1
    /// callback path).
    CallbackUpdate {
        /// The object that changed.
        key: StateKey,
        /// Its new value.
        value: Value,
    },
    /// Store → NF instance: the previous owner released the receiver's
    /// newly assigned per-flow objects (Figure 4 step 6).
    HandoverComplete,
    /// Framework → NF instance: flush cached per-flow state and release its
    /// ownership (sent to the *old* instance when traffic is reallocated away
    /// from it). Plays the role of the "last" marker of Figure 4 step 1:
    /// the controller queues it behind every message already sent to the
    /// old instance ([`chc_sim::Simulation::inject_behind`]). So before it
    /// flushes, the old instance has processed every packet routed to it
    /// before the move, whether the root or an upstream instance with a
    /// worker backlog sent it.
    FlushRequest {
        /// Instance to notify with [`Msg::HandoverComplete`] once the flush
        /// and release are done (the *new* owner of the moved flows).
        notify: InstanceId,
    },
    /// Framework → failover or clone instance: replay the logged copies of
    /// `sources` that route to `index` ([`crate::VertexLogs::replay`]),
    /// before any live packet (§5.3).
    Replay {
        /// The logs the instance's vertex is replayed from.
        sources: Vec<VertexId>,
        /// The index whose copies it replays: its own, or its straggler's.
        index: usize,
    },
    /// Framework → instance: inject an artificial per-packet delay (used to
    /// emulate resource contention / stragglers in experiments, §7.3 R4/R5).
    SetProcessingDelay {
        /// Extra delay added to every packet.
        extra_nanos: u64,
    },
}
