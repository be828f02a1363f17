//! Messages exchanged between chain components and the framework envelope
//! that wraps packets (clock, handover mark, XOR commit vector).

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
/// The envelope carries the logical clock stamped by the root, the XOR
/// commit vector of §5.4 (16-bit instance id ‖ 16-bit object id per update),
/// replay/clone annotations, the handover mark and the span stamps of a timed
/// packet. NFs never see the envelope; the instance runtime unwraps it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedPacket {
    /// The packet as NFs see it.
    pub packet: Packet,
    /// Logical clock stamped by the root: its counter, `1..=N`.
    pub clock: Clock,
    /// XOR of `(instance id ‖ object id)` for every state update the packet
    /// induced so far (§5.4, Figure 6).
    pub xor_vector: u32,
    /// When this is a replayed packet, the instance (clone or failover) that
    /// replayed it out of its own snapshot of the packet logs. No NF upstream
    /// of that instance sees the copy; a downstream NF admits it like any
    /// packet and suppresses it if it saw the clock before (§5.3, "Duplicate
    /// upstream processing"). The sink counts a replayed copy of a clock it
    /// already has as a replay shadow.
    pub replay_for: Option<InstanceId>,
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
            xor_vector: 0,
            replay_for: None,
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

    /// Fold one state update's token into the XOR commit vector.
    pub fn absorb_update_token(&mut self, token: u32) {
        self.xor_vector ^= token;
    }
}

/// The token XORed into packet vectors and signalled by the store when the
/// corresponding update commits: high 16 bits = instance id, low 16 bits =
/// the low 16 bits of the hash of the object identity that the key carries
/// (§5.4). Nothing is hashed here.
pub fn xor_token(instance: InstanceId, key: &StateKey) -> u32 {
    let obj = (key.shard_hash() & 0xffff) as u32;
    ((instance.0 & 0xffff) << 16) | obj
}

/// Messages exchanged by chain components over the simulated network.
#[derive(Debug, Clone)]
pub enum Msg {
    /// A data packet travelling the chain.
    Data(TaggedPacket),
    /// Chain-tail → root: processing of `clock` finished; the final XOR
    /// vector must match the commit signals received by the root before the
    /// log entry is deleted (§5.4, Figure 6 step 3).
    DeleteRequest {
        /// Clock of the finished packet.
        clock: Clock,
        /// Final XOR vector accumulated along the chain.
        xor_vector: u32,
    },
    /// Store → root: an update induced by `clock` was committed; the token
    /// is XORed out of the root's pending vector (Figure 6 step 2).
    CommitSignal {
        /// Clock of the inducing packet.
        clock: Clock,
        /// `(instance ‖ object)` token of the committed update.
        token: u32,
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
    /// from it). Plays the role of the "last" marker of Figure 4 step 1: it
    /// arrives after all previously forwarded packets on the same link, so
    /// the old instance has processed everything destined to it before it
    /// flushes.
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
    /// Sink → nowhere: emitted packet reached the end host (used in tests).
    Delivered(TaggedPacket),
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_store::ObjectKey;

    #[test]
    fn xor_vector_cancels_out() {
        let pkt = Packet::builder().id(1).build();
        let mut tp = TaggedPacket::new(pkt, Clock(1));
        let k1 = StateKey::shared(VertexId(1), ObjectKey::named("a"));
        let k2 = StateKey::shared(VertexId(2), ObjectKey::named("b"));
        let t1 = xor_token(InstanceId(3), &k1);
        let t2 = xor_token(InstanceId(5), &k2);
        tp.absorb_update_token(t1);
        tp.absorb_update_token(t2);
        assert_ne!(tp.xor_vector, 0);
        // The root XORs in the commit signals; when every update committed
        // the vector returns to zero.
        tp.absorb_update_token(t1);
        tp.absorb_update_token(t2);
        assert_eq!(tp.xor_vector, 0);
    }

    #[test]
    fn xor_token_separates_instance_and_object() {
        let k = StateKey::shared(VertexId(1), ObjectKey::named("a"));
        let t1 = xor_token(InstanceId(1), &k);
        let t2 = xor_token(InstanceId(2), &k);
        assert_ne!(t1, t2);
        assert_eq!(t1 & 0xffff, t2 & 0xffff, "object part identical");
        assert_ne!(t1 >> 16, t2 >> 16, "instance part differs");
    }
}
