//! The root: stamps logical clocks in trace order, logs and injects, and
//! executes the shard faults keyed on its counter. The calling thread runs
//! it ([`run_root`]); when the plan kills the root, a pre-spawned warm
//! standby ([`run_standby`]) inherits the live rings and the counter.

use crate::config::ScaleEvent;
use crate::engine::EngineShared;
use crate::fault::{RootTakeover, ShardRecovery};
use crate::plan::{ChainPlan, CounterSchedule, ShardSchedule};
use crate::wiring::{links_mut, Downstream, OutLink};
use chc_core::root::ROOT_VERTEX;
use chc_core::{TaggedPacket, STANDBY_ROOT_ID};
use chc_packet::{flow_sampled, Trace, TraceTag};
use chc_store::Clock;
use chc_telemetry::{EventKind, SpanEvent, SpanKind, TraceLane};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Everything the stamping loop reads, shared between the root (the calling
/// thread) and the warm standby that takes over if the plan kills the root.
#[derive(Clone, Copy)]
pub(crate) struct RootShared<'a> {
    trace: &'a Trace,
    shared: &'a EngineShared,
    scale: Option<ScaleEvent>,
    reinject: &'a CounterSchedule<()>,
    shard_checkpoints: &'a ShardSchedule,
    shard_restarts: &'a ShardSchedule,
    /// The planned root fail-stop point, if any.
    root_kill: Option<u64>,
    /// Raised (Release) by whichever thread finishes injection; the
    /// supervisor waits on it before winding down.
    pub(crate) done_injecting: &'a AtomicBool,
    /// Only the original root records Inject trace spans: the Root trace
    /// lane is single-writer, and the standby resumes after the dead root's
    /// last span.
    inject_spans: bool,
}

impl<'a> RootShared<'a> {
    pub(crate) fn new(
        trace: &'a Trace,
        plan: &'a ChainPlan,
        shared: &'a EngineShared,
        done_injecting: &'a AtomicBool,
    ) -> RootShared<'a> {
        RootShared {
            trace,
            shared,
            scale: plan.scale,
            reinject: &plan.reinject,
            shard_checkpoints: &plan.shard_checkpoints,
            shard_restarts: &plan.shard_restarts,
            root_kill: plan.root_kill,
            done_injecting,
            inject_spans: true,
        }
    }
}

/// The injection state handed from the dead root to the warm standby: the
/// live output rings (one fan-out per entry vertex), the re-injection
/// buffer, and the clock counter the standby shadows — injection resumes
/// exactly where the root died.
pub(crate) struct RootIo {
    outs: Vec<Downstream>,
    reinject_buf: Vec<TaggedPacket>,
    counter: u64,
}

/// What a stamping thread — the root, or the standby after a takeover —
/// hands back when it stops.
#[derive(Default)]
pub(crate) struct Injection {
    /// The last clock counter stamped.
    pub(crate) counter: u64,
    pub(crate) reinjected: u64,
    pub(crate) shard_recoveries: Vec<ShardRecovery>,
    /// Set by the standby when it took over.
    pub(crate) takeover: Option<RootTakeover>,
}

/// Body of the root, on the calling thread: inject the trace over `outs`,
/// then either finish (re-injection drill, close the rings, raise
/// `done_injecting`) or — at the planned root kill — fail-stop and hand the
/// live rings to the standby through `standby_tx`.
pub(crate) fn run_root(
    ctx: &RootShared<'_>,
    outs: Vec<Downstream>,
    standby_tx: mpsc::Sender<RootIo>,
) -> Injection {
    let mut io = RootIo {
        outs,
        reinject_buf: Vec::new(),
        counter: 0,
    };
    let mut out = Injection::default();
    run_root_injection(ctx, &mut io, ctx.root_kill, &mut out.shard_recoveries);
    out.counter = io.counter;
    if let Some(kill_at) = ctx.root_kill {
        // Fail-stop: the root dies just before injecting `kill_at`. Its
        // unflushed output buffers die with it (what a crashed process
        // loses); the live rings themselves survive, exactly like packets in
        // the network, and the warm standby inherits them together with the
        // shadowed counter.
        ctx.shared.telemetry.event(EventKind::RootKilled {
            at_counter: kill_at,
        });
        ctx.shared.fail_stopped.store(true, Ordering::Relaxed);
        links_mut(&mut io.outs).for_each(|link| link.buf.clear());
        standby_tx
            .send(io)
            .expect("standby thread holds the receiver");
    } else {
        out.reinjected = finish_injection(ctx, &mut io);
        drop(io);
        ctx.done_injecting.store(true, Ordering::Release);
    }
    out
}

/// Body of the warm standby. Pre-spawned before injection starts: it blocks
/// on the handover channel, shadowing the root's clock counter, and wakes
/// only if the plan fail-stops the root mid-trace. It then replays the
/// unconfirmed suffix of the root log, resumes injection at exactly the
/// killed counter and finishes it. Returns `None` if the root never died.
pub(crate) fn run_standby(
    root_ctx: RootShared<'_>,
    handover: mpsc::Receiver<RootIo>,
    killed_at: u64,
) -> Option<Injection> {
    // An unsignalled channel drop means the root never died (cannot happen
    // with a validated root kill).
    let mut io = handover.recv().ok()?;
    let started = Instant::now();
    // The Root trace lane is single-writer; the standby skips Inject spans
    // rather than interleave with the dead root's lane.
    let ctx = RootShared {
        inject_spans: false,
        ..root_ctx
    };
    let (telemetry, ledger) = (&ctx.shared.telemetry, &ctx.shared.ledger);
    // Replay the unconfirmed suffix of the root log through the inherited
    // live rings, marked as standby replay. Replayed counters all sit below
    // the resume point, so per-ring watermarks stay monotone; entry
    // seen-sets and the sink's replay window absorb the copies the chain
    // already has — only the packets that died in the root's buffers flow
    // through for the first time.
    let snapshot = ctx.shared.logs.snapshot(&[ROOT_VERTEX]);
    let mut replayed = 0u64;
    for mut tp in snapshot {
        if ledger
            .as_ref()
            .is_some_and(|l| l.confirmed(tp.clock.counter()))
        {
            continue;
        }
        tp.replay_for = Some(STANDBY_ROOT_ID);
        route_to_entries(&ctx, &mut io, &tp);
        replayed += 1;
        telemetry.replay_progress.inc();
    }
    links_mut(&mut io.outs).for_each(OutLink::flush);
    let resumed_at = io.counter + 1;
    telemetry.event(EventKind::RootTakeover {
        resumed_at,
        packets_replayed: replayed,
    });
    let mut out = Injection::default();
    run_root_injection(&ctx, &mut io, None, &mut out.shard_recoveries);
    out.reinjected = finish_injection(&ctx, &mut io);
    ctx.done_injecting.store(true, Ordering::Release);
    out.counter = io.counter;
    out.takeover = Some(RootTakeover {
        killed_at,
        resumed_at,
        packets_replayed: replayed,
        recovery_wall: started.elapsed(),
    });
    Some(out)
}

/// Stamp and inject the trace from `io.counter` onward, stopping — without
/// injecting — just before `stop_before`, the planned root fail-stop point.
fn run_root_injection(
    ctx: &RootShared<'_>,
    io: &mut RootIo,
    stop_before: Option<u64>,
    shard_recoveries: &mut Vec<ShardRecovery>,
) {
    let shared = ctx.shared;
    let telemetry = &shared.telemetry;
    let trace_ppm = telemetry.config.trace_sample_ppm;
    // The fault schedule is read in counter order, from where this loop
    // resumes: 0 for the root, the inherited counter for the standby.
    let mut checkpoints = ctx.shard_checkpoints.cursor_after(io.counter);
    let mut restarts = ctx.shard_restarts.cursor_after(io.counter);
    let mut drill = ctx.reinject.cursor_after(io.counter);
    for pkt in ctx.trace.iter().skip(io.counter as usize) {
        let next = io.counter + 1;
        if stop_before == Some(next) {
            return;
        }
        if shared.fault_mode {
            for &s in ctx.shard_checkpoints.due(&mut checkpoints, next) {
                shared.server.checkpoint_shard(s);
            }
            for &s in ctx.shard_restarts.due(&mut restarts, next) {
                let started = Instant::now();
                let stats = shared.server.restart_shard(s);
                telemetry.event(EventKind::ShardRestart {
                    shard: s as u32,
                    ops_replayed: stats.replayed_ops as u64,
                });
                shard_recoveries.push(ShardRecovery {
                    shard: s,
                    at_counter: next,
                    restored_from_checkpoint: stats.restored_from_checkpoint,
                    replayed_ops: stats.replayed_ops,
                    recovery_wall: started.elapsed(),
                });
            }
        }
        io.counter += 1;
        let counter = io.counter;
        if let Some(scale) = ctx.scale {
            if counter == scale.first_counter {
                telemetry.event(EventKind::ScaleCut {
                    vertex: scale.vertex.0,
                    at_counter: counter,
                });
            }
        }
        let mut tp = TaggedPacket::new(pkt.clone(), Clock::with_root(0, counter));
        // Flow-sampled causal tracing: tag before the packet-log insert so
        // replayed copies carry the tag too.
        if telemetry.tracer.is_some() && flow_sampled(pkt.flow_key(), trace_ppm) {
            tp.trace = Some(TraceTag::new(counter));
        }
        // Span epoch of a timed packet: the root "lets go" of it at
        // injection. Stamped before the log insert too, so a replayed copy
        // still measures from the original injection.
        if tp.is_timed() {
            let now_ns = telemetry.now_ns();
            tp.inject_ns = now_ns;
            tp.hop_ns = now_ns;
            if tp.trace.is_some() && ctx.inject_spans {
                telemetry.trace_span(SpanEvent {
                    trace_id: counter,
                    lane: TraceLane::Root,
                    kind: SpanKind::Inject,
                    t_ns: now_ns,
                    dur_ns: 0,
                });
            }
        }
        if shared.fault_mode {
            // The drill's cursor moves past `counter` whether or not the log
            // takes the packet: a rejected packet is never re-injected.
            let drilled = ctx.reinject.due(&mut drill, counter).next().is_some();
            let log = shared.logs.log(ROOT_VERTEX);
            if !log.is_some_and(|mut log| log.insert(tp.clone())) {
                // Buffer-bloat guard (§5): a full log rejects the packet
                // instead of queueing without bound.
                continue;
            }
            if drilled {
                io.reinject_buf.push(tp.clone());
            }
        }
        route_to_entries(ctx, io, &tp);
    }
}

/// Route one stamped packet to the entry instances through the live rings.
fn route_to_entries(ctx: &RootShared<'_>, io: &mut RootIo, tp: &TaggedPacket) {
    for entry in &mut io.outs {
        entry.route(tp, ctx.shared.batch);
    }
}

/// Re-injection drill (saved logged packets sent a second time, unmarked:
/// downstream queue suppression or the sink's duplicate accounting must
/// absorb them) plus the final flush/close of the live rings. Run by
/// whichever thread finishes injection — the root on a healthy run, the
/// standby after a takeover. Returns the number of re-injected packets.
fn finish_injection(ctx: &RootShared<'_>, io: &mut RootIo) -> u64 {
    let mut reinjected = 0u64;
    let buffered: Vec<TaggedPacket> = io.reinject_buf.drain(..).collect();
    for tp in buffered {
        route_to_entries(ctx, io, &tp);
        reinjected += 1;
    }
    for link in links_mut(&mut io.outs) {
        link.flush();
        link.producer.close();
    }
    reinjected
}
