//! # chc-nf
//!
//! Network functions implemented on the CHC framework, matching the NFs the
//! paper re-implements atop its prototype (§6, Table 4) plus the two helper
//! NFs of the Figure 2 chain:
//!
//! * [`Nat`] — source NAT with an externalized free-port pool, per-connection
//!   port mappings and L3/L4 packet counters,
//! * [`PortscanDetector`] — TRW-style scan detector (Schechter et al.): per
//!   host likelihood updated on connection attempts/refusals, host blocked
//!   above a threshold,
//! * [`TrojanDetector`] — off-path detector of the SSH → FTP(HTML, ZIP, EXE)
//!   → IRC sequence, keyed on chain-wide logical clocks (requirement R4),
//! * [`LoadBalancer`] — least-loaded backend selection with per-connection
//!   stickiness and per-server counters,
//! * [`Firewall`] — a simple port/destination blocker (used in the Fig. 2
//!   chain ahead of the scrubbers),
//! * [`Scrubber`] — a pass-through traffic scrubber (the Fig. 2 middle hop;
//!   experiments slow it down to emulate resource contention).
//!
//! Every NF is written against [`chc_core::NetworkFunction`] and declares its
//! state objects with the scope / access pattern of Table 4, so the framework
//! can apply the corresponding caching and partitioning strategies.

pub mod firewall;
pub mod loadbalancer;
pub mod nat;
pub mod portscan;
pub mod scrubber;
pub mod trojan;

pub use firewall::Firewall;
pub use loadbalancer::LoadBalancer;
pub use nat::Nat;
pub use portscan::PortscanDetector;
pub use scrubber::Scrubber;
pub use trojan::TrojanDetector;

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers for exercising NFs outside a full chain.
    use chc_core::{ChainConfig, ExternalizationMode, NetworkFunction, StateClient};
    use chc_store::{InstanceId, StoreServer, VertexId};
    use std::sync::Arc;

    /// Build a [`StateClient`] for `nf` backed by `store`.
    pub fn client_for(
        nf: &dyn NetworkFunction,
        store: &Arc<StoreServer>,
        instance: u32,
    ) -> StateClient {
        let cfg = ChainConfig::with_mode(ExternalizationMode::ExternalizedCachedNonBlocking);
        StateClient::new(
            VertexId(7),
            InstanceId(instance),
            Box::new(store.clone()),
            cfg.mode,
            cfg.costs,
            &nf.state_objects(),
        )
    }
}
