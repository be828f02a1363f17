//! Configuration of the real-thread chain engine.

use crate::fault::FaultPlan;
use chc_store::{BackendKind, VertexId};
use std::time::Duration;

/// A pre-planned elastic scale-out event.
///
/// The engine pre-spawns the additional instance's thread at startup and
/// cuts traffic over on the packet's *logical clock*: packets stamped with
/// counter `>= first_counter` hash across the enlarged instance set. Keying
/// the cut on the clock (not wall time) makes the flow→instance history a
/// pure function of the input trace, so the same event on the simulator
/// (`ChainController::schedule_scale_up`) partitions identically — the
/// substrate-equivalence tests depend on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// The vertex that gains an instance.
    pub vertex: VertexId,
    /// First logical-clock counter routed across the enlarged instance set.
    pub first_counter: u64,
}

/// What the engine measures beyond the end-to-end latency histogram.
///
/// Everything here is a *runtime* switch, not a compile feature, so one
/// binary can measure its own observation overhead (the benchmark runs the
/// same chain with telemetry on and [`TelemetryConfig::disabled`] and
/// reports the throughput delta).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Per-stage span timing on the packet path: per-vertex queue wait,
    /// service time and store RTT, plus the sink's final-hop wait, so the
    /// report carries a latency *decomposition* rather than a single
    /// root→sink number. Sampled: only the timed packets (one clock counter
    /// in [`chc_core::TIMED_PERIOD`], plus every packet of a traced flow)
    /// cost two clock reads and three histogram records per vertex; the
    /// rest pay nothing.
    pub spans: bool,
    /// Structured event journal of control-plane moments (instance
    /// spawn/kill, failover phases, commit-frontier advances, scale cuts,
    /// shard restarts). Control-plane rate; negligible cost.
    pub journal: bool,
    /// When set, a monitor thread samples live gauges (SPSC ring occupancy,
    /// per-shard op rates, WAL depth, packet-log level, replay progress) at
    /// this cadence and the report carries the time series.
    pub sample_interval: Option<Duration>,
    /// Causal-trace sampling rate in parts per million of *flows*
    /// (`1_000_000` traces everything, `10_000` is 1%, `0` disables).
    /// Sampled flows' packets carry a [`chc_packet::TraceTag`] and every
    /// hop records a span; the collected spans export as Chrome trace-event
    /// JSON. Requires `spans` (a traced packet is a timed packet: its
    /// spans are built from the same hop stamps).
    pub trace_sample_ppm: u32,
    /// Online invariant sentinel: a consumer thread over the event journal
    /// plus in-line checks on the delivery stream and a copy-conservation
    /// ledger on the rings. Violations land in the journal and in
    /// `RuntimeReport::invariants`. On by default — correctness monitoring
    /// is cheap (per-batch counters and one sink-side map lookup per
    /// packet) and every test asserts `violations == 0` for free.
    pub sentinel: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            spans: true,
            journal: true,
            sample_interval: None,
            trace_sample_ppm: 0,
            sentinel: true,
        }
    }
}

impl TelemetryConfig {
    /// Everything off: the engine records only the streaming end-to-end
    /// latency histogram (the baseline for overhead measurements).
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig {
            spans: false,
            journal: false,
            sample_interval: None,
            trace_sample_ppm: 0,
            sentinel: false,
        }
    }

    /// True when nothing is enabled.
    pub fn is_disabled(&self) -> bool {
        !self.spans
            && !self.journal
            && self.sample_interval.is_none()
            && self.trace_sample_ppm == 0
            && !self.sentinel
    }

    /// True when causal tracing is effectively on (a nonzero sampling rate
    /// and the hop stamps it needs).
    pub fn tracing_on(&self) -> bool {
        self.trace_sample_ppm > 0 && self.spans
    }
}

/// How a thread waits on an empty (or full) SPSC ring.
///
/// The engine's instance and sink threads outnumber the host's cores in
/// every CI/bench environment this repo targets, so the waiting policy is a
/// first-order throughput knob: a spinning consumer steals the cycles its
/// own producer needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingWait {
    /// Pure `spin_loop` busy-wait. Lowest latency when every thread has a
    /// dedicated core; pathological when threads are oversubscribed.
    Spin,
    /// Brief spin, then `thread::yield_now` — the scheduler decides who
    /// runs. The engine's historical behaviour.
    Yield,
    /// Brief spin, a few yields, then park the thread; the producer wakes
    /// it on the next push. Frees the core for whoever has work.
    Park,
}

/// Tuning knobs of the real-thread engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Packets moved per ring transfer and processed per wake-up. Larger
    /// batches amortize queue and store-client overhead at the cost of
    /// per-packet latency (§7's hardware runs batch at the NIC; here the
    /// batch rides the SPSC rings).
    pub batch_size: usize,
    /// Capacity of each inter-instance ring, in packets (rounded up to a
    /// power of two). Bounds memory and provides backpressure.
    pub queue_depth: usize,
    /// Number of store shards. The paper pins each object to exactly one
    /// store thread; here each shard is an independently locked instance of
    /// the sharded [`chc_store::StoreServer`].
    pub store_shards: usize,
    /// Storage engine the store server runs its shards on. Defaults to the
    /// engine named by the `CHC_STORE_BACKEND` environment variable (the CI
    /// knob), which is the in-memory engine unless overridden. The whole
    /// engine — write-behind fast path, failover supervisor, shard restarts —
    /// runs unmodified on either engine.
    pub store_backend: BackendKind,
    /// Optional pre-planned elastic scale-out event.
    pub scale: Option<ScaleEvent>,
    /// Record client-side WAL / read logs (needed only when a store recovery
    /// drill will run against this chain; they grow with the packet count).
    pub record_recovery_logs: bool,
    /// Tag store operations with packet clocks (duplicate suppression and
    /// `TS` metadata). Disable only for bare-metal throughput measurements.
    pub clock_tag_updates: bool,
    /// Pre-planned fail-stop failures the engine must execute and recover
    /// from (instance kills with replay, store shard restarts, packet
    /// re-injection). An empty plan keeps the zero-overhead healthy path:
    /// no packet log, no commit publishing, no duplicate tracking.
    pub fault: FaultPlan,
    /// What to measure beyond the end-to-end latency histogram (spans,
    /// event journal, gauge sampling). See [`TelemetryConfig`].
    pub telemetry: TelemetryConfig,
    /// Legacy failover validation: reject kills at non-entry vertices
    /// (`KillNotAtEntry`) and at on-path chain tails (`KillAtChainTail`), as
    /// the engine did before per-vertex egress logs and the XOR delete
    /// window made every position recoverable. Off by default; kept as an
    /// escape hatch for reproducing the old entry-only behaviour.
    pub legacy_entry_only_failover: bool,
    /// Write-behind store fast path: each instance's `StateClient` buffers
    /// non-blocking store ops and drains them as one
    /// [`chc_store::StoreServer::apply_batch`] per ring batch (and before
    /// every correctness barrier — commit publish, blocking read/pop,
    /// exclusivity loss, kill). On by default; switch off to reproduce the
    /// per-op submission path (the equivalence tests assert identical
    /// delivery either way).
    pub write_behind: bool,
    /// Cap on the write-behind buffer, in ops. `0` (the default) sizes it
    /// to track `batch_size`: the buffer then drains exactly at ring-batch
    /// boundaries unless an op-heavy batch overflows it first.
    pub store_batch: usize,
    /// Ring waiting policy for instance and sink threads. Defaults to
    /// [`RingWait::Park`]: on the shared-core hosts this repo benches on,
    /// parked consumers stop stealing cycles from their producers (`Spin`
    /// is strictly worse whenever threads exceed cores).
    pub ring_wait: RingWait,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            batch_size: 32,
            queue_depth: 1024,
            store_shards: 4,
            store_backend: BackendKind::from_env(),
            scale: None,
            record_recovery_logs: false,
            clock_tag_updates: true,
            fault: FaultPlan::default(),
            telemetry: TelemetryConfig::default(),
            legacy_entry_only_failover: false,
            write_behind: true,
            store_batch: 0,
            ring_wait: RingWait::Park,
        }
    }
}

impl RuntimeConfig {
    /// A config with the given batch size and defaults elsewhere.
    pub fn with_batch_size(batch_size: usize) -> RuntimeConfig {
        RuntimeConfig {
            batch_size: batch_size.max(1),
            ..Default::default()
        }
    }

    /// Builder-style scale-event setter.
    pub fn with_scale(mut self, vertex: VertexId, first_counter: u64) -> RuntimeConfig {
        self.scale = Some(ScaleEvent {
            vertex,
            first_counter,
        });
        self
    }

    /// Builder-style store-shard setter.
    pub fn with_store_shards(mut self, shards: usize) -> RuntimeConfig {
        self.store_shards = shards.max(1);
        self
    }

    /// Builder-style storage-engine setter (overrides the environment
    /// default).
    pub fn with_store_backend(mut self, kind: BackendKind) -> RuntimeConfig {
        self.store_backend = kind;
        self
    }

    /// Builder-style fault-plan setter.
    pub fn with_fault(mut self, fault: FaultPlan) -> RuntimeConfig {
        self.fault = fault;
        self
    }

    /// Builder-style telemetry setter.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> RuntimeConfig {
        self.telemetry = telemetry;
        self
    }

    /// Builder-style gauge-sampling cadence (implies a monitor thread).
    pub fn with_sample_interval(mut self, interval: Duration) -> RuntimeConfig {
        self.telemetry.sample_interval = Some(interval);
        self
    }

    /// Builder-style causal-trace sampling rate, in parts per million of
    /// flows (`1_000_000` traces everything). Implies spans.
    pub fn with_trace_sample_ppm(mut self, ppm: u32) -> RuntimeConfig {
        self.telemetry.trace_sample_ppm = ppm.min(chc_packet::TRACE_PPM_FULL);
        if ppm > 0 {
            self.telemetry.spans = true;
        }
        self
    }

    /// Builder-style invariant-sentinel switch.
    pub fn with_sentinel(mut self, on: bool) -> RuntimeConfig {
        self.telemetry.sentinel = on;
        self
    }

    /// Builder-style switch back to the legacy entry-only failover
    /// validation (rejects non-entry and tail kills).
    pub fn with_legacy_entry_only_failover(mut self, on: bool) -> RuntimeConfig {
        self.legacy_entry_only_failover = on;
        self
    }

    /// Builder-style write-behind switch.
    pub fn with_write_behind(mut self, on: bool) -> RuntimeConfig {
        self.write_behind = on;
        self
    }

    /// Builder-style write-behind buffer cap (`0` tracks `batch_size`).
    pub fn with_store_batch(mut self, cap: usize) -> RuntimeConfig {
        self.store_batch = cap;
        self
    }

    /// Builder-style ring-wait policy setter.
    pub fn with_ring_wait(mut self, wait: RingWait) -> RuntimeConfig {
        self.ring_wait = wait;
        self
    }

    /// The write-behind buffer cap an instance client should use: the
    /// explicit `store_batch` if set, otherwise the ring batch size (drain
    /// at batch boundaries, never later).
    pub fn effective_store_batch(&self) -> usize {
        if self.store_batch > 0 {
            self.store_batch
        } else {
            self.batch_size.max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let cfg = RuntimeConfig::default();
        assert!(cfg.batch_size > 0 && cfg.queue_depth >= cfg.batch_size);
        assert!(cfg.clock_tag_updates && !cfg.record_recovery_logs);
        let cfg = RuntimeConfig::with_batch_size(0);
        assert_eq!(cfg.batch_size, 1);
        let cfg = cfg.with_scale(VertexId(2), 500).with_store_shards(0);
        assert_eq!(
            cfg.scale,
            Some(ScaleEvent {
                vertex: VertexId(2),
                first_counter: 500
            })
        );
        assert_eq!(cfg.store_shards, 1);
        assert!(cfg.fault.is_empty());
        let cfg = cfg.with_fault(FaultPlan::new().kill(VertexId(1), 0, 100));
        assert_eq!(cfg.fault.kills.len(), 1);
    }

    #[test]
    fn store_backend_knob() {
        // The default follows CHC_STORE_BACKEND (the CI knob), so assert
        // only the explicit override — the suite must pass under either
        // environment value.
        let cfg = RuntimeConfig::default().with_store_backend(BackendKind::AppendOnly);
        assert_eq!(cfg.store_backend, BackendKind::AppendOnly);
        let cfg = cfg.with_store_backend(BackendKind::Memory);
        assert_eq!(cfg.store_backend, BackendKind::Memory);
    }

    #[test]
    fn store_fast_path_knobs() {
        let cfg = RuntimeConfig::default();
        assert!(cfg.write_behind);
        assert_eq!(cfg.ring_wait, RingWait::Park);
        // store_batch = 0 tracks the ring batch size.
        assert_eq!(cfg.effective_store_batch(), cfg.batch_size);
        let cfg = RuntimeConfig::with_batch_size(64)
            .with_store_batch(256)
            .with_ring_wait(RingWait::Spin)
            .with_write_behind(false);
        assert_eq!(cfg.effective_store_batch(), 256);
        assert_eq!(cfg.ring_wait, RingWait::Spin);
        assert!(!cfg.write_behind);
    }

    #[test]
    fn trace_and_sentinel_knobs() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg.trace_sample_ppm, 0);
        assert!(cfg.sentinel && !cfg.tracing_on());
        let off = TelemetryConfig::disabled();
        assert!(off.is_disabled() && !off.sentinel);

        let cfg = RuntimeConfig::default()
            .with_trace_sample_ppm(2_000_000)
            .with_sentinel(false);
        assert_eq!(cfg.telemetry.trace_sample_ppm, chc_packet::TRACE_PPM_FULL);
        assert!(cfg.telemetry.tracing_on());
        assert!(!cfg.telemetry.sentinel);

        // Tracing implies spans even from a disabled base.
        let base = RuntimeConfig {
            telemetry: TelemetryConfig::disabled(),
            ..Default::default()
        };
        let traced = base.with_trace_sample_ppm(10_000);
        assert!(traced.telemetry.spans && traced.telemetry.tracing_on());
    }
}
