//! Framework configuration: externalization modes, cost model and feature
//! toggles used by the evaluation.

use chc_sim::SimDuration;

/// Which of the paper's state-management models an NF instance runs under.
///
/// These correspond to the bars of Figures 8 and 10:
/// * `Traditional` — all state is NF-local (the baseline "T"),
/// * `Externalized` — every state access goes to the store, blocking ("EO"),
/// * `ExternalizedCached` — plus scope/access-pattern-aware caching ("EO+C"),
/// * `ExternalizedCachedNonBlocking` — plus not waiting for ACKs of
///   non-blocking operations ("EO+C+NA", the full CHC design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExternalizationMode {
    /// All state NF-local; no externalization (no R1–R6 guarantees).
    Traditional,
    /// Externalized state, blocking operations, no caching.
    Externalized,
    /// Externalized state with caching.
    ExternalizedCached,
    /// Externalized state with caching and non-blocking updates (full CHC).
    ExternalizedCachedNonBlocking,
}

impl ExternalizationMode {
    /// Label used in benchmark output (matches the paper's figure legends).
    pub fn label(&self) -> &'static str {
        match self {
            ExternalizationMode::Traditional => "T",
            ExternalizationMode::Externalized => "EO",
            ExternalizationMode::ExternalizedCached => "EO+C",
            ExternalizationMode::ExternalizedCachedNonBlocking => "EO+C+NA",
        }
    }

    /// True if state lives in the external store.
    pub fn externalized(&self) -> bool {
        !matches!(self, ExternalizationMode::Traditional)
    }

    /// True if the client-side library may cache state (Table 1).
    pub fn caching(&self) -> bool {
        matches!(
            self,
            ExternalizationMode::ExternalizedCached
                | ExternalizationMode::ExternalizedCachedNonBlocking
        )
    }

    /// True if non-blocking operations skip waiting for the ACK.
    pub fn skip_acks(&self) -> bool {
        matches!(self, ExternalizationMode::ExternalizedCachedNonBlocking)
    }

    /// All modes, in the order the paper plots them.
    pub fn all() -> [ExternalizationMode; 4] {
        [
            ExternalizationMode::Traditional,
            ExternalizationMode::Externalized,
            ExternalizationMode::ExternalizedCached,
            ExternalizationMode::ExternalizedCachedNonBlocking,
        ]
    }
}

/// Virtual-time cost model for packet processing and state access.
///
/// The absolute values default to what the paper's evaluation implies for its
/// testbed: ≈2 µs of local processing per packet for a simple NF and a
/// ≈28 µs round trip to the datastore (the NAT's +190 µs at three RTTs per
/// packet and +0.54 µs with all optimizations back these out). Benchmarks can
/// override any of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Base per-packet processing cost of an NF instance (header parsing,
    /// table lookups) excluding state access.
    pub base_processing: SimDuration,
    /// One-way latency between an NF instance and its datastore instance.
    /// A blocking operation costs two of these (one RTT).
    pub store_one_way: SimDuration,
    /// Local cache hit cost (applied per cached state access).
    pub cache_hit: SimDuration,
    /// CPU cost of issuing a non-blocking operation without waiting.
    pub async_issue: SimDuration,
    /// Per-hop link latency between chained NF instances.
    pub inter_nf_link: SimDuration,
    /// Cost for the root to stamp and log one packet locally.
    pub root_local_log: SimDuration,
    /// Cost for the root to persist its clock to the datastore (charged every
    /// [`CLOCK_PERSIST_PERIOD`](crate::root_core::CLOCK_PERSIST_PERIOD) packets,
    /// §7.2).
    pub clock_persist: SimDuration,
    /// Extra latency of logging the packet in the datastore instead of
    /// locally at the root (§7.2: 1 µs local vs 34.2 µs datastore). The root
    /// always logs locally; `paper_eval`'s `metadata` section prints what
    /// the datastore variant would cost.
    pub store_log_extra: SimDuration,
    /// Cost of the synchronous "delete-before-output" round trip at the chain
    /// tail (§7.2 reports a 7.9 µs median overhead), paid by every packet
    /// that leaves the chain: the tail sends the delete request before it
    /// releases the output packet (required for exactly-once delivery to the
    /// receiver, §5.4).
    pub delete_roundtrip: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            base_processing: SimDuration::from_nanos(2_000),
            store_one_way: SimDuration::from_nanos(14_000),
            cache_hit: SimDuration::from_nanos(60),
            async_issue: SimDuration::from_nanos(150),
            inter_nf_link: SimDuration::from_nanos(2_000),
            root_local_log: SimDuration::from_nanos(1_000),
            clock_persist: SimDuration::from_nanos(29_000),
            store_log_extra: SimDuration::from_nanos(33_200),
            delete_roundtrip: SimDuration::from_nanos(7_900),
        }
    }
}

impl CostModel {
    /// Round-trip time to the datastore.
    pub fn store_rtt(&self) -> SimDuration {
        self.store_one_way.times(2)
    }
}

/// Chain-wide configuration knobs, on both substrates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainConfig {
    /// State-management model applied to every instance. Figures 8 and 10
    /// sweep all four (`chc_baselines::sweep_modes`), and so does
    /// `chain_works_under_every_externalization_mode`; every other caller
    /// runs the full CHC default.
    pub mode: ExternalizationMode,
    /// Virtual-time cost model of the simulator. Every caller, the paper
    /// figures and the benchmark's inline pass included, reads the defaults.
    pub costs: CostModel,
    /// Suppress duplicate outputs / state updates during replay and cloning
    /// (R5). Off only in Table 5's ablation (`tab5_duplicates`) and in
    /// `failover.rs`'s re-injection tests, which need the copies to run.
    pub duplicate_suppression: bool,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            mode: ExternalizationMode::ExternalizedCachedNonBlocking,
            costs: CostModel::default(),
            duplicate_suppression: true,
        }
    }
}

impl ChainConfig {
    /// Configuration for one of the paper's externalization models with the
    /// default cost model.
    pub fn with_mode(mode: ExternalizationMode) -> ChainConfig {
        ChainConfig {
            mode,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_flags_follow_the_paper() {
        use ExternalizationMode::*;
        assert!(!Traditional.externalized());
        assert!(Externalized.externalized() && !Externalized.caching());
        assert!(ExternalizedCached.caching() && !ExternalizedCached.skip_acks());
        assert!(ExternalizedCachedNonBlocking.skip_acks());
        assert_eq!(Traditional.label(), "T");
        assert_eq!(ExternalizedCachedNonBlocking.label(), "EO+C+NA");
        assert_eq!(ExternalizationMode::all().len(), 4);
    }

    #[test]
    fn default_costs_reflect_testbed() {
        let c = CostModel::default();
        assert_eq!(c.store_rtt(), SimDuration::from_micros(28));
        assert!(c.cache_hit < c.store_one_way);
        let cfg = ChainConfig::default();
        assert!(cfg.duplicate_suppression);
        assert_eq!(
            ChainConfig::with_mode(ExternalizationMode::Externalized)
                .mode
                .label(),
            "EO"
        );
    }
}
