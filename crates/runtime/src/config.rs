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
    /// The in-run observers, one switch (nothing ever set them apart):
    /// per-stage span timing on the timed packets (one clock counter in
    /// [`chc_core::TIMED_PERIOD`], plus every packet of a traced flow: queue
    /// wait, service time and store RTT per vertex, and the sink's
    /// final-hop wait); the event journal of control-plane moments (spawns,
    /// kills, failover phases, frontier advances, scale cuts, shard
    /// restarts); and the invariant sentinel, which checks every event as
    /// it is recorded, the delivery stream and a copy-conservation ledger on
    /// the rings, into `RuntimeReport::invariants`. On by default, so every
    /// test asserts `violations == 0` for free; the run pays for it. On the
    /// repository benchmark's ladder (rung 5 − rung 4, one pinned CPU of a
    /// 2-vCPU host) it took 24–28 % of the default engine's time per packet
    /// on `forward`, 13–15 % on `steady` and 17–21 % on `churn` (DESIGN.md,
    /// "What the observers cost").
    pub observers: bool,
    /// When set, a monitor thread samples live gauges (packets queued per
    /// ring, per-shard op rates, journal length, packet-log level, replay
    /// progress) at this cadence and the report carries the time series.
    pub sample_interval: Option<Duration>,
    /// Causal-trace sampling rate in parts per million of *flows*
    /// (`1_000_000` traces everything, `10_000` is 1%, `0` disables).
    /// Sampled flows' packets carry a [`chc_packet::TraceTag`] and every
    /// hop records a span; the collected spans export as Chrome trace-event
    /// JSON. Requires `observers` (a traced packet is a timed packet: its
    /// spans are built from the same hop stamps).
    pub trace_sample_ppm: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            observers: true,
            sample_interval: None,
            trace_sample_ppm: 0,
        }
    }
}

impl TelemetryConfig {
    /// Everything off: the engine records only the streaming end-to-end
    /// latency histogram (the baseline for overhead measurements).
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig {
            observers: false,
            sample_interval: None,
            trace_sample_ppm: 0,
        }
    }

    /// True when nothing is enabled.
    pub fn is_disabled(&self) -> bool {
        !self.observers && self.sample_interval.is_none() && self.trace_sample_ppm == 0
    }

    /// True when causal tracing is effectively on (a nonzero sampling rate
    /// and the hop stamps it needs).
    pub fn tracing_on(&self) -> bool {
        self.trace_sample_ppm > 0 && self.observers
    }
}

/// Number of store shards of every engine run. The paper pins each object
/// to exactly one store thread; here each shard is an independently locked
/// instance of the sharded [`chc_store::StoreServer`]. Nothing varies it: a
/// size that selects no code path, and the benchmark's shard faults assume
/// it.
pub const STORE_SHARDS: usize = 4;

/// Configuration of one real-thread run. Every field names who needs it
/// settable; a value nothing varies is fixed in the code instead (DESIGN.md,
/// "Store fast path", records the sweep that retired the last such knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Packets per ring batch: the most one ring item carries, and what an
    /// instance pops and processes per input per wake-up. Larger batches
    /// amortize queue and store-client overhead at the cost of per-packet
    /// latency (§7's hardware runs batch at the NIC; here the batch rides
    /// the SPSC rings as one buffer of a link's pool). It is also the
    /// write-behind buffer's cap, in entries: one per op, or in an ordered
    /// writer one per run of a counter's increments, which fold. Varied by
    /// `failover.rs` and `engine_smoke.rs` (1 / 8 / 64 must agree).
    pub batch_size: usize,
    /// Capacity of each inter-instance ring, in packets (never under two
    /// batches). A ring has `queue_depth / batch_size` batch slots, rounded
    /// down to a power of two, so it never holds more than this many
    /// packets. Bounds memory and provides backpressure. A size that
    /// selects no code path; no recorded row varies it, and
    /// `runtime_equivalence.rs` shortens it so that a ring holds less than
    /// one phase of its two-instance load-balancer trace.
    pub queue_depth: usize,
    /// Medium the store server's shard engines keep their bytes on.
    /// Defaults to the medium named by the `CHC_STORE_BACKEND` environment
    /// variable (the CI knob), which is memory unless overridden. Set by
    /// the benchmark's `failover_durable` workload.
    pub store_backend: BackendKind,
    /// Optional pre-planned elastic scale-out event. Set by the substrate
    /// equivalence suite and the `realtime_chain` example.
    pub scale: Option<ScaleEvent>,
    /// Pre-planned fail-stop failures the engine must execute and recover
    /// from (instance kills with replay, store shard restarts, packet
    /// re-injection). An empty plan keeps the zero-overhead healthy path:
    /// no packet log, no commit publishing, no duplicate tracking. Set by
    /// the benchmark's `failover*` workloads and the failover suites.
    pub fault: FaultPlan,
    /// What to measure beyond the end-to-end latency histogram (the
    /// observers, gauge sampling, tracing). See [`TelemetryConfig`]. The
    /// benchmark's ladder rungs 4–6 are this field's three settings.
    pub telemetry: TelemetryConfig,
    /// Write-behind store fast path: each instance's `StateClient` buffers
    /// non-blocking store ops, up to one ring batch of entries, and drains
    /// them as one [`chc_store::StoreServer::apply_batch`] per ring batch
    /// (and before every correctness barrier — commit publish, blocking
    /// read/pop, exclusivity loss, kill). Without a fault plan the store's
    /// replay floor is at the top and the buffer folds a counter's
    /// increments into one entry, so a healthy drain carries about one
    /// entry per counter; in fault mode every op keeps its entry and clock.
    /// On by default. Settable because
    /// `runtime_equivalence.rs::write_behind_preserves_chain_output_equivalence`
    /// uses the per-op path as its reference (ROADMAP item 8).
    pub write_behind: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            batch_size: 32,
            queue_depth: 1024,
            store_backend: BackendKind::from_env(),
            scale: None,
            fault: FaultPlan::default(),
            telemetry: TelemetryConfig::default(),
            write_behind: true,
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
    /// flows (`1_000_000` traces everything). Turns the observers on.
    pub fn with_trace_sample_ppm(mut self, ppm: u32) -> RuntimeConfig {
        self.telemetry.trace_sample_ppm = ppm.min(chc_packet::TRACE_PPM_FULL);
        if ppm > 0 {
            self.telemetry.observers = true;
        }
        self
    }

    /// Builder-style write-behind switch.
    pub fn with_write_behind(mut self, on: bool) -> RuntimeConfig {
        self.write_behind = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let cfg = RuntimeConfig::default();
        assert!(cfg.batch_size > 0 && cfg.queue_depth >= cfg.batch_size);
        let cfg = RuntimeConfig::with_batch_size(0);
        assert_eq!(cfg.batch_size, 1);
        let cfg = cfg.with_scale(VertexId(2), 500);
        assert_eq!(
            cfg.scale,
            Some(ScaleEvent {
                vertex: VertexId(2),
                first_counter: 500
            })
        );
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
        // One switch is left: the buffer's cap is the ring batch and the
        // ring wait is fixed (park), both decided in the code.
        assert!(RuntimeConfig::default().write_behind);
        let cfg = RuntimeConfig::with_batch_size(64).with_write_behind(false);
        assert!(!cfg.write_behind);
        assert_eq!(cfg.batch_size, 64);
    }

    #[test]
    fn trace_and_sentinel_knobs() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg.trace_sample_ppm, 0);
        assert!(cfg.observers && !cfg.tracing_on());
        let off = TelemetryConfig::disabled();
        assert!(off.is_disabled() && !off.observers);

        let cfg = RuntimeConfig::default().with_trace_sample_ppm(2_000_000);
        assert_eq!(cfg.telemetry.trace_sample_ppm, chc_packet::TRACE_PPM_FULL);
        assert!(cfg.telemetry.tracing_on());
        assert!(cfg.telemetry.observers, "tracing leaves the sentinel alone");

        // Tracing implies the observers (spans) even from a disabled base.
        let base = RuntimeConfig {
            telemetry: TelemetryConfig::disabled(),
            ..Default::default()
        };
        let traced = base.with_trace_sample_ppm(10_000);
        assert!(traced.telemetry.observers && traced.telemetry.tracing_on());
    }
}
