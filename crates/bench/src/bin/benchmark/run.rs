//! The end-to-end run of one workload: set-up, inline reference passes,
//! engine repetitions, verification. Tracing is off throughout.

use crate::host::{self, Pinned};
use crate::inline::{digest_of, run_pass, InlineChain, Pass};
use crate::spec::{Workload, SHARDS};
use crate::stats::{percentile_ns, Pick, Summary};
use crate::verify::{Reference, Tally};
use chc_core::coe::run_ideal_chain;
use chc_core::{ChainConfig, ExternalizationMode, LogicalDag};
use chc_packet::Trace;
use chc_runtime::{run_chain_realtime, RuntimeConfig, RuntimeError, RuntimeReport};
use chc_store::StoreServer;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed per run, at least and at most; `setup_s` is their median.
/// Beyond the minimum they repeat until a quarter of a second is spent, so
/// that a set-up of a millisecond is not summarised from three readings.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(250);
/// Inline passes behind `pkt_p50_ns` / `pkt_p99_ns`: at least, at most.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 32;
/// Engine repetitions behind `chain_pps`: at least, at most.
pub const MIN_REPS: usize = 5;
const MAX_REPS: usize = 64;
/// Two calibration readings further apart than this mark the repetitions
/// between them as disturbed by the host.
const CALIB_TOLERANCE: f64 = 0.10;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Seconds to spend measuring (inline passes and engine repetitions).
    /// The minimum repetition counts are honoured even when they take
    /// longer; time left over buys more repetitions.
    pub seconds: f64,
    /// Test size: ≈ 2k packets, one repetition of everything.
    pub quick: bool,
}

/// Everything a workload needs before the first timed call.
pub struct Setup {
    pub trace: Trace,
    pub dag: LogicalDag,
    pub server: Arc<StoreServer>,
}

/// A store configured like the workload's engine run: same shard count and
/// backend, journaling on every shard the fault plan restarts.
pub fn store_for(workload: &Workload, journaled: bool) -> Arc<StoreServer> {
    let server = StoreServer::with_backend(SHARDS, workload.backend);
    if journaled {
        for shard in 0..SHARDS {
            server.set_shard_journaling(shard, true);
        }
    }
    server
}

impl Setup {
    /// Generate the trace and build the DAG and the first store; returns the
    /// seconds it took.
    pub fn build(workload: &Workload, seed: u64, quick: bool) -> (Setup, f64) {
        let start = Instant::now();
        let setup = Setup {
            trace: workload.trace(seed, quick),
            dag: workload.chain.dag(),
            server: store_for(workload, workload.failover),
        };
        (setup, start.elapsed().as_secs_f64())
    }
}

/// The engine configuration of a workload's end-to-end repetitions: the
/// product's defaults, with the backend stated (not read from the
/// environment) and the workload's fault plan.
pub fn engine_config(workload: &Workload, packets: usize, faulted: bool) -> RuntimeConfig {
    let rt = RuntimeConfig::default().with_store_backend(workload.backend);
    if faulted {
        rt.with_fault(workload.fault_plan(packets))
    } else {
        rt
    }
}

/// One timed call of `run_chain_realtime`.
pub fn engine_rep(
    setup: &Setup,
    rt: &RuntimeConfig,
) -> (Result<RuntimeReport, RuntimeError>, Duration) {
    let start = Instant::now();
    let result = run_chain_realtime(&setup.dag, ChainConfig::default(), rt, &setup.trace);
    (result, start.elapsed())
}

/// One inline pass in full CHC mode over `server`.
pub fn chc_pass(setup: &Setup, server: &Arc<StoreServer>) -> Pass {
    let mut chain = InlineChain::new(
        &setup.dag,
        ExternalizationMode::ExternalizedCachedNonBlocking,
        || Box::new(Arc::clone(server)),
    );
    run_pass(&mut chain, &setup.trace, None)
}

/// Calibration readings taken right before and right after every measured
/// step. Each step's *host factor* — how much slower than nominal the host
/// ran this thread around it — calibrates that step's times and rates; the
/// readings also tell afterwards which steps the host disturbed.
#[derive(Debug, Default, Clone)]
pub struct Calibration {
    /// `[before, after]` per step, in ns.
    pub steps: Vec<[f64; 2]>,
}

impl Calibration {
    /// Run one measured step between two readings and return its host
    /// factor: the mean of the two readings over
    /// [`host::CALIB_NOMINAL_NS`]. Times measured in the step are divided by
    /// it and rates multiplied, so that two runs of one program agree whether
    /// or not a neighbour was busy on the sibling hardware thread (see the
    /// README for the evidence).
    pub fn around(&mut self, step: impl FnOnce()) -> f64 {
        let before = host::calibrate_ns();
        step();
        let after = host::calibrate_ns();
        self.steps.push([before, after]);
        (before + after) / 2.0 / host::CALIB_NOMINAL_NS
    }

    /// Every reading, in the order taken.
    pub fn readings(&self) -> Vec<f64> {
        self.steps.iter().flatten().copied().collect()
    }

    /// Per step, whether both its readings are within a tenth of the
    /// undisturbed level. That level is the 10th percentile of all readings,
    /// not their minimum: one lucky reading must not condemn the rest.
    pub fn clean_steps(&self) -> Vec<bool> {
        let level = self.summary().value * (1.0 + CALIB_TOLERANCE);
        self.steps
            .iter()
            .map(|[before, after]| *before <= level && *after <= level)
            .collect()
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.readings(), Pick::Low)
    }

    /// The run's overall host factor: the median reading over nominal.
    pub fn factor(&self) -> f64 {
        Summary::of(&self.readings(), Pick::Median).value / host::CALIB_NOMINAL_NS
    }

    /// Largest reading over the smallest, as a percentage above it.
    pub fn drift_pct(&self) -> f64 {
        let s = self.summary();
        if s.min > 0.0 {
            (s.max / s.min - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// What an end-to-end run measured. Times and rates are host-calibrated
/// (see [`Calibration::around`]); `samples` holds the raw wall-clock readings
/// and the host factor of each.
pub struct EndToEnd {
    pub packets: usize,
    pub setup_s: Summary,
    pub chain_pps: Summary,
    pub pkt_p50_ns: Summary,
    pub pkt_p99_ns: Summary,
    pub peak_rss_mb: Summary,
    /// `FaultReport::max_recovery_wall()` over the repetitions (failover
    /// workloads only).
    pub recovery_ms: Option<Summary>,
    /// Throughput of the healthy engine run of the same trace that failover
    /// repetitions are compared with (failover workloads only).
    pub healthy_pps: Option<Summary>,
    pub calibration: Calibration,
    /// Fewer than the minimum number of inline passes or engine repetitions
    /// ran between calibration readings within a tenth of the fastest.
    pub host_unstable: bool,
    pub tally: Tally,
    /// Every repetition behind the summaries, in the order measured, so a
    /// reader can apply another estimator to the same data.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

/// Build the reference from the first inline pass, itself checked against
/// the ideal chain's delivered set.
pub fn reference_from(setup: &Setup, pass: &Pass, tally: &mut Tally) -> Reference {
    let reference = Reference::new(
        setup.trace.len(),
        pass.delivered.clone(),
        digest_of(setup.server.dump()),
    );
    // The ideal chain runs on another store type, so only its delivered set
    // is comparable.
    let ideal = run_ideal_chain(&setup.dag, &setup.trace);
    tally.check_pass(
        "inline reference vs run_ideal_chain",
        &reference,
        &ideal.delivered,
        None,
    );
    reference
}

/// Run one workload end to end. The [`Pinned`] token is the proof that the
/// numbers come from one CPU.
pub fn end_to_end(opts: &RunOptions, _pinned: &Pinned) -> EndToEnd {
    let workload = opts.workload;
    let (min_passes, min_reps, min_setups, max_setups) = if opts.quick {
        (1, 1, 1, 1)
    } else {
        (MIN_PASSES, MIN_REPS, MIN_SETUPS, MAX_SETUPS)
    };
    let mut calibration = Calibration::default();
    // What each calibrated step was: a pass, a repetition, or neither.
    let mut step_was_pass: Vec<Option<bool>> = Vec::new();
    // Per series: the raw readings and the host factor of each.
    let mut raw = Raw::default();

    // Set-up, several times over; the last one is kept. Each is dropped
    // before the next is built so the peak footprint is one set-up's.
    let mut setup = None;
    let setup_start = Instant::now();
    while raw.setup.len() < min_setups
        || (raw.setup.len() < max_setups && setup_start.elapsed() < SETUP_BUDGET)
    {
        drop(setup.take());
        let mut secs = 0.0;
        let slow = calibration.around(|| {
            let (s, t) = Setup::build(workload, opts.seed, opts.quick);
            (setup, secs) = (Some(s), t);
        });
        raw.setup.push((secs, slow));
        step_was_pass.push(None);
    }
    let setup = setup.expect("at least one set-up");
    let packets = setup.trace.len();
    let rt = engine_config(workload, packets, workload.failover);

    let mut tally = Tally::default();
    let mut reference: Option<Reference> = None;
    let mut healthy_pps = None;

    // Inline passes and engine repetitions alternate (one pass, two
    // repetitions) so that both sample the whole run: the host changes speed
    // in phases a few seconds long, and three passes in a row would all land
    // in one. The minimum counts are always made; after that a step is added
    // while the time already measured plus the longest step of its kind so
    // far fits the budget.
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let (mut measured, mut pass_cost, mut rep_cost) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for step in 0.. {
        let (passes_due, reps_due) = (raw.p50.len() < min_passes, raw.pps.len() < min_reps);
        let want_pass = if passes_due != reps_due {
            passes_due
        } else {
            step % 3 == 0
        };
        let full = if want_pass {
            raw.p50.len() >= MAX_PASSES
        } else {
            raw.pps.len() >= MAX_REPS
        };
        let cost = if want_pass { pass_cost } else { rep_cost };
        if !(passes_due || reps_due) && (opts.quick || full || measured + cost > budget) {
            break;
        }
        let started = Instant::now();
        if want_pass {
            // The first pass runs on the store built during set-up and
            // becomes the reference every later pass and repetition is
            // held to.
            let server = match reference {
                None => Arc::clone(&setup.server),
                Some(_) => store_for(workload, workload.failover),
            };
            let mut pass = Pass::default();
            let slow = calibration.around(|| pass = chc_pass(&setup, &server));
            pass_cost = pass_cost.max(started.elapsed());
            let reference =
                reference.get_or_insert_with(|| reference_from(&setup, &pass, &mut tally));
            let what = format!("inline pass {}", raw.p50.len() + 1);
            let digest = digest_of(server.dump());
            tally.check_pass(&what, reference, &pass.delivered, Some(digest));
            raw.p50
                .push((percentile_ns(&mut pass.samples, 50.0) as f64, slow));
            raw.p99
                .push((percentile_ns(&mut pass.samples, 99.0) as f64, slow));
        } else {
            let reference = reference
                .as_ref()
                .expect("a pass precedes every repetition");
            if workload.failover && healthy_pps.is_none() {
                // Failover repetitions must equal a healthy engine run of
                // the same trace and seed made in this process; both are
                // held to the same reference, so equality with it is
                // equality with each other.
                let healthy = engine_config(workload, packets, false);
                let mut outcome = None;
                let slow = calibration.around(|| outcome = Some(engine_rep(&setup, &healthy)));
                step_was_pass.push(None);
                let (result, wall) = outcome.expect("the step ran");
                tally.check_engine("healthy engine run", reference, &result);
                healthy_pps = Some(Summary::exact(packets as f64 / wall.as_secs_f64() * slow));
            }
            let started = Instant::now();
            let mut outcome = None;
            let slow = calibration.around(|| outcome = Some(engine_rep(&setup, &rt)));
            rep_cost = rep_cost.max(started.elapsed());
            let (result, wall) = outcome.expect("the step ran");
            let what = format!("engine repetition {}", raw.pps.len() + 1);
            tally.check_engine(&what, reference, &result);
            raw.pps.push((packets as f64 / wall.as_secs_f64(), slow));
            if let Some(fault) = result.as_ref().ok().and_then(|r| r.fault.as_ref()) {
                raw.recovery_ms
                    .push((fault.max_recovery_wall().as_secs_f64() * 1e3, slow));
            }
        }
        step_was_pass.push(Some(want_pass));
        measured += started.elapsed();
    }
    let clean = calibration.clean_steps();
    let clean_of = |pass: bool| {
        clean
            .iter()
            .zip(&step_was_pass)
            .filter(|(clean, was_pass)| **clean && **was_pass == Some(pass))
            .count()
    };

    EndToEnd {
        packets,
        setup_s: times(&raw.setup),
        chain_pps: rates(&raw.pps),
        pkt_p50_ns: times(&raw.p50),
        pkt_p99_ns: times(&raw.p99),
        peak_rss_mb: Summary::exact(host::peak_rss_mb()),
        recovery_ms: workload.failover.then(|| times(&raw.recovery_ms)),
        healthy_pps,
        host_unstable: !opts.quick && (clean_of(false) < MIN_REPS || clean_of(true) < MIN_PASSES),
        samples: raw.into_samples(&calibration),
        calibration,
        tally,
    }
}

/// The raw wall-clock reading of every step, by series, each with the host
/// factor of its step.
#[derive(Default)]
struct Raw {
    setup: Vec<(f64, f64)>,
    pps: Vec<(f64, f64)>,
    p50: Vec<(f64, f64)>,
    p99: Vec<(f64, f64)>,
    recovery_ms: Vec<(f64, f64)>,
}

/// The median of times, each divided by its step's host factor.
fn times(raw: &[(f64, f64)]) -> Summary {
    let calibrated: Vec<f64> = raw.iter().map(|(t, slow)| t / slow).collect();
    Summary::of(&calibrated, Pick::Median)
}

/// The median of rates, each multiplied by its step's host factor.
fn rates(raw: &[(f64, f64)]) -> Summary {
    let calibrated: Vec<f64> = raw.iter().map(|(r, slow)| r * slow).collect();
    Summary::of(&calibrated, Pick::Median)
}

impl Raw {
    fn into_samples(self, calibration: &Calibration) -> Vec<(&'static str, Vec<f64>)> {
        let split =
            |series: Vec<(f64, f64)>| -> (Vec<f64>, Vec<f64>) { series.into_iter().unzip() };
        let (setup_s, setup_factor) = split(self.setup);
        let (engine_pps, engine_factor) = split(self.pps);
        let (inline_p50_ns, inline_factor) = split(self.p50);
        let (inline_p99_ns, _) = split(self.p99);
        let (recovery_ms, _) = split(self.recovery_ms);
        vec![
            ("setup_s", setup_s),
            ("setup_host_factor", setup_factor),
            ("engine_pps", engine_pps),
            ("engine_host_factor", engine_factor),
            ("inline_p50_ns", inline_p50_ns),
            ("inline_p99_ns", inline_p99_ns),
            ("inline_host_factor", inline_factor),
            ("recovery_ms", recovery_ms),
            ("calib_ns", calibration.readings()),
        ]
    }
}
