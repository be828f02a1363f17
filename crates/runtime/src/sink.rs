//! The sink thread: pops chain output into a [`SinkCore`], which
//! de-duplicates by clock and accounts every repeat, and measures root→sink
//! latency on the timed packets from the stamps their envelopes carry.

use crate::engine::EngineShared;
use crate::wiring::{frontier, idle_wait, InputRing};
use chc_core::{Arrival, SinkCore};
use chc_telemetry::{FlowOrderChecker, SpanEvent, SpanKind, StreamingHistogram, TraceLane};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// What the sink thread hands back.
pub(crate) struct SinkResult {
    /// Every packet popped from the sink rings, classified exactly once.
    pub(crate) core: SinkCore,
    pub(crate) latency: StreamingHistogram,
    pub(crate) finished_at: Duration,
    /// Resident bytes of the duplicate window at exit.
    pub(crate) window_bytes: usize,
    /// The highest clock delivered and every counter below it that was not,
    /// for the sentinel's books; read from the window before it is freed.
    pub(crate) undelivered: (u64, Vec<u64>),
}

/// Body of the sink thread. In fault mode the sink also publishes its
/// delivery frontier so the root's packet log can be truncated: a packet is
/// confirmed only once the *end host* has it. `scale_cut` is the first
/// counter of a pre-planned scale-out, if any.
pub(crate) fn run_sink(
    mut inputs: Vec<InputRing>,
    shared: &EngineShared,
    scale_cut: Option<u64>,
) -> SinkResult {
    let telemetry = &shared.telemetry;
    // The sink's watermark slot follows every instance's.
    let commit_slot = shared.fault_mode.then(|| shared.watermarks.len() - 1);
    let publish = |inputs: &[InputRing]| {
        if let Some(slot) = commit_slot {
            shared.publish_watermark(slot, frontier(inputs));
        }
    };
    // Per-flow delivery-order checking rides this thread (one map lookup per
    // live arrival); a scale cut exempts cross-cut pairs because the cut
    // re-routes flows.
    let mut flow_order = telemetry
        .sentinel
        .is_some()
        .then(|| FlowOrderChecker::new(scale_cut));
    let spans = telemetry.config.observers;
    let deliver = |trace_id, wait_ns, duplicate, t_ns| {
        telemetry.trace_span(SpanEvent {
            trace_id,
            lane: TraceLane::Sink,
            kind: SpanKind::Deliver { wait_ns, duplicate },
            t_ns,
            dur_ns: 0,
        })
    };
    let mut core = SinkCore::default();
    let latency = StreamingHistogram::new();
    let mut idle_streak = 0u32;
    loop {
        let mut moved = 0usize;
        for input in &mut inputs {
            let Some(mut batch) = input.pop() else {
                continue;
            };
            if let Some(s) = &telemetry.sentinel {
                s.ledger.ring_popped.add(batch.len() as u64);
            }
            moved += batch.len();
            // One arrival time serves the whole batch, read when its first
            // timed packet turns up; a batch without one reads no clock.
            let mut batch_now: Option<u64> = None;
            for tp in batch.drain(..) {
                let traced = tp.trace.map(|t| t.id);
                if core.on_packet(&tp) != Arrival::First {
                    if let Some(id) = traced {
                        let now_ns = *batch_now.get_or_insert_with(|| telemetry.now_ns());
                        deliver(id, 0, true, now_ns);
                    }
                    continue;
                }
                if tp.is_timed() {
                    let now_ns = *batch_now.get_or_insert_with(|| telemetry.now_ns());
                    latency.record(now_ns.saturating_sub(tp.inject_ns));
                    let mut wait_ns = 0u64;
                    if spans {
                        // Final hop: last vertex egress → sink arrival,
                        // using the same arrival time as the e2e sample so
                        // the decomposition telescopes exactly.
                        wait_ns = now_ns.saturating_sub(tp.hop_ns);
                        telemetry.sink_wait.record(wait_ns);
                    }
                    if let Some(id) = traced {
                        deliver(id, wait_ns, false, now_ns);
                    }
                }
                // Per-flow clock-order invariant on first copies the exit
                // processed live: a tail replacement's replay may arrive
                // late, a survivor's output may not, replayed input or not.
                if let Some(checker) = &mut flow_order {
                    if !tp.replayed {
                        let flow = tp.packet.flow_key().0;
                        let counter = tp.clock.counter();
                        if let Some(v) = checker.observe(flow, counter, || telemetry.now_ns()) {
                            telemetry.violation(v);
                        }
                    }
                }
            }
            input.recycle(batch);
        }
        if moved > 0 {
            idle_streak = 0;
            publish(&inputs);
        } else {
            if inputs.iter_mut().all(|r| r.is_exhausted()) {
                break;
            }
            idle_streak += 1;
            idle_wait(idle_streak, &mut inputs);
        }
    }
    // A ring's last stamp may come in an empty batch.
    publish(&inputs);
    if let (Some(checker), Some(state)) = (&flow_order, &telemetry.sentinel) {
        state
            .deliveries_checked
            .store(checker.checked, Ordering::Relaxed);
    }
    SinkResult {
        undelivered: (telemetry.sentinel.as_ref())
            .map(|_| core.undelivered())
            .unwrap_or_default(),
        // Freed here: pages left to be freed after this thread exits raised
        // `steady`'s benchmark peak RSS by up to 22 % on a 2-vCPU host.
        window_bytes: core.free_window(),
        core,
        latency,
        finished_at: telemetry.t0.elapsed(),
    }
}
