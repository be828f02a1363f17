//! Causal-trace tagging: flow-sampled selection of packets whose life the
//! runtime records as per-hop spans.
//!
//! The tag itself is tiny — just the trace id, which the CHC root sets to
//! the packet's logical clock counter, making trace ids unique per run and
//! totally ordered by injection. Whether a packet is traced is decided
//! *per flow*, not per packet: sampling keys on a stable hash of the flow
//! key, so either every packet of a flow is traced or none is. That is what
//! makes per-flow invariants (clock ordering at delivery) checkable from
//! the trace alone, and it mirrors how production tracing systems sample
//! (head-based, consistent per flow).

use crate::FlowKey;

/// Marks a packet as selected for causal tracing.
///
/// Carried through the framework envelope (`chc_core::TaggedPacket`), never
/// shown to NFs. The id is the root's logical clock counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceTag {
    /// Trace id: the root clock counter stamped at injection.
    pub id: u64,
}

impl TraceTag {
    /// Tag with the given trace id.
    pub fn new(id: u64) -> TraceTag {
        TraceTag { id }
    }
}

/// Sampling rate in parts per million: 1_000_000 traces every flow, 10_000
/// is 1%, 0 disables tracing.
pub const TRACE_PPM_FULL: u32 = 1_000_000;

/// Stable per-flow sampling decision at `ppm` parts per million.
///
/// Uses FNV-1a over the flow key's 128 bits — deterministic across runs and
/// platforms, so the same trace samples the same flows on every substrate,
/// and independent of the flow key's own bit layout (the key embeds the
/// tuple bijectively, so low bits alone would bias towards protocol
/// numbers).
pub fn flow_sampled(flow: FlowKey, ppm: u32) -> bool {
    if ppm == 0 {
        return false;
    }
    if ppm >= TRACE_PPM_FULL {
        return true;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in flow.0.to_be_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % TRACE_PPM_FULL as u64) < ppm as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FiveTuple;
    use std::net::Ipv4Addr;

    fn flow(port: u16) -> FlowKey {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            port,
            Ipv4Addr::new(192, 168, 1, 9),
            80,
        )
        .flow_key()
    }

    #[test]
    fn boundary_rates() {
        for p in 0..100 {
            assert!(!flow_sampled(flow(p as u16 + 1024), 0));
            assert!(flow_sampled(flow(p as u16 + 1024), TRACE_PPM_FULL));
        }
    }

    #[test]
    fn sampling_is_stable_per_flow() {
        for port in 1024..1124 {
            let f = flow(port);
            assert_eq!(flow_sampled(f, 10_000), flow_sampled(f, 10_000));
        }
    }

    #[test]
    fn rate_is_roughly_honored() {
        let sampled = (0..10_000u32)
            .filter(|i| flow_sampled(flow((i % 60_000) as u16), 100_000))
            .count();
        // 10% ± generous slack over 10k distinct flows.
        assert!(
            (500..2_000).contains(&sampled),
            "10% of 10k flows sampled ~1000, got {sampled}"
        );
    }

    #[test]
    fn higher_rate_samples_superset() {
        for port in 1..2000u16 {
            let f = flow(port);
            if flow_sampled(f, 10_000) {
                assert!(flow_sampled(f, 500_000), "10% flows are inside 50%");
            }
        }
    }
}
