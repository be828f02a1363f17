//! Baseline regression gating: diff a fresh `paper_eval` run against a
//! committed `BENCH_*.json` document and fail when throughput regressed
//! beyond budget or the telemetry stack got more expensive than the budget
//! allows.
//!
//! The workspace has no JSON parser (all dependencies are vendored), so the
//! baseline document is read back the same way it was written: hand-rolled
//! field extraction over the known `records_to_json` layout — one
//! `runtime_chain` row per line, numeric fields as `"key":value` pairs.
//! The extractor is deliberately line-oriented and key-anchored so
//! unrelated schema growth (new fields, new sections) never breaks old
//! baselines.

use crate::runtime_bench::{RecoveryRecord, RuntimeBenchRecord, TelemetryBenchRecord};
use std::fmt::Write as _;

/// Fail the gate when a realtime row's throughput drops more than this many
/// percent below the baseline row.
pub const PPS_REGRESSION_BUDGET_PCT: f64 = 10.0;

/// Fail the gate when the telemetry experiment prices the full
/// instrumentation stack (spans + journal + gauges + sentinel + sampled
/// tracing) above this throughput cost, in percent.
pub const TELEMETRY_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// One throughput row recovered from a baseline document.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// `"realtime"` or `"simulator"`.
    pub substrate: String,
    /// Ring batch size (0 for the simulator).
    pub batch_size: usize,
    /// Recorded packets/s.
    pub pps: f64,
}

/// What a `BENCH_*.json` document pins: the scale it ran at, its throughput
/// rows, and (when the telemetry experiment ran) the instrumentation
/// overhead it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Trace scale factor of the baseline run.
    pub scale: f64,
    /// Throughput rows in document order.
    pub rows: Vec<BaselineRow>,
    /// `overhead_pct` of the baseline's telemetry experiment, if present.
    pub overhead_pct: Option<f64>,
    /// Recovery time per kill position (`entry`/`mid`/`tail`/`root`), in
    /// microseconds, when the baseline ran the recovery-vs-position sweep.
    pub recovery_positions: Vec<(String, f64)>,
}

/// Extract the string value of `"key":"..."` from one line, if present.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract the numeric value of `"key":<number>` from one line, if present.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a `BENCH_*.json` document written by
/// [`crate::runtime_bench::records_to_json`].
///
/// Returns an error when the document carries no recognizable throughput
/// rows — a truncated or foreign file must fail loudly, not gate nothing.
pub fn parse_baseline(json: &str) -> Result<Baseline, String> {
    let scale = json
        .lines()
        .find_map(|l| num_field(l, "scale"))
        .ok_or("baseline has no \"scale\" field")?;

    // Throughput rows are the only objects carrying a "substrate" key; the
    // writer puts one per line inside the "runtime_chain" array.
    let mut rows = Vec::new();
    for line in json.lines() {
        let (Some(substrate), Some(batch), Some(pps)) = (
            str_field(line, "substrate"),
            num_field(line, "batch_size"),
            num_field(line, "pps"),
        ) else {
            continue;
        };
        rows.push(BaselineRow {
            substrate,
            batch_size: batch as usize,
            pps,
        });
    }
    if rows.is_empty() {
        return Err("baseline has no runtime_chain rows (not a paper_eval document?)".to_string());
    }

    // The telemetry record is one (long) line; "overhead_pct" appears only
    // inside its "overhead" object.
    let overhead_pct = json.lines().find_map(|l| num_field(l, "overhead_pct"));

    // Recovery rows carry both a "position" and a "recovery_us" key; the
    // writer puts one per line inside "recovery_by_position". The single
    // "recovery" record (always the entry kill) matches too — last-wins per
    // position keeps the sweep's row when both are present.
    let mut recovery_positions: Vec<(String, f64)> = Vec::new();
    for line in json.lines() {
        let (Some(position), Some(us)) =
            (str_field(line, "position"), num_field(line, "recovery_us"))
        else {
            continue;
        };
        if let Some(slot) = recovery_positions.iter_mut().find(|(p, _)| *p == position) {
            slot.1 = us;
        } else {
            recovery_positions.push((position, us));
        }
    }

    Ok(Baseline {
        scale,
        rows,
        overhead_pct,
        recovery_positions,
    })
}

/// Outcome of diffing a fresh run against a baseline: the rendered
/// comparison plus every budget breach. An empty `failures` list means the
/// gate passes.
#[derive(Debug, Clone, Default)]
pub struct BaselineDiff {
    /// Human-readable comparison, one line per row plus the overhead line.
    pub lines: Vec<String>,
    /// Budget breaches; empty when the gate passes.
    pub failures: Vec<String>,
}

impl BaselineDiff {
    /// True when no budget was breached.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The full report: comparison lines, then failures (if any).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "  {l}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL: {f}");
        }
        if self.failures.is_empty() {
            let _ = writeln!(
                out,
                "  baseline gate: PASS (pps within -{PPS_REGRESSION_BUDGET_PCT:.0}%, \
                 telemetry overhead within {TELEMETRY_OVERHEAD_BUDGET_PCT:.0}%)"
            );
        }
        out
    }
}

/// Diff fresh records against a parsed baseline.
///
/// Gated: realtime rows regressing more than
/// [`PPS_REGRESSION_BUDGET_PCT`] below the matching baseline row
/// (matched on substrate + batch size), and the current telemetry
/// experiment's `overhead_pct` exceeding
/// [`TELEMETRY_OVERHEAD_BUDGET_PCT`]. Reported but not gated: simulator
/// rows (virtual-time throughput measures simulation cost, not the engine)
/// and rows without a baseline counterpart (a new batch size is growth,
/// not regression). A scale mismatch fails outright — throughput at
/// different trace scales is not comparable.
pub fn compare_with_baseline(
    baseline: &Baseline,
    current_scale: f64,
    current: &[RuntimeBenchRecord],
    recovery: Option<&[RecoveryRecord]>,
    telemetry: Option<&TelemetryBenchRecord>,
) -> BaselineDiff {
    let mut diff = BaselineDiff::default();

    if (baseline.scale - current_scale).abs() > 1e-9 {
        diff.failures.push(format!(
            "scale mismatch: baseline ran at {}, this run at {} (throughput not comparable)",
            baseline.scale, current_scale
        ));
        return diff;
    }

    for r in current {
        let label = format!("{} batch {}", r.substrate, r.batch_size);
        let Some(base) = baseline
            .rows
            .iter()
            .find(|b| b.substrate == r.substrate && b.batch_size == r.batch_size)
        else {
            diff.lines
                .push(format!("{label:<22} {:>11.0} pps (no baseline row)", r.pps));
            continue;
        };
        let delta_pct = if base.pps > 0.0 {
            (r.pps - base.pps) / base.pps * 100.0
        } else {
            0.0
        };
        diff.lines.push(format!(
            "{label:<22} {:>11.0} pps vs {:>11.0} baseline ({delta_pct:+.1}%)",
            r.pps, base.pps
        ));
        if r.substrate == "realtime" && delta_pct < -PPS_REGRESSION_BUDGET_PCT {
            diff.failures.push(format!(
                "{label}: throughput regressed {delta_pct:.1}% \
                 (budget -{PPS_REGRESSION_BUDGET_PCT:.0}%)"
            ));
        }
    }

    // Recovery-time-vs-position rows. Wall-clock recovery time on a shared
    // host is far too noisy to gate on a percentage, so the times inform
    // only; what *is* gated is coverage — a kill position the baseline
    // recovered from must still be measured, recover, and stay correct.
    if let Some(recs) = recovery {
        for r in recs {
            let base = baseline
                .recovery_positions
                .iter()
                .find(|(p, _)| *p == r.position)
                .map(|(_, us)| format!("{us:>9.1} us baseline"))
                .unwrap_or_else(|| "no baseline".to_string());
            diff.lines.push(format!(
                "recovery {:<13} {:>9.1} us vs {base}",
                r.position, r.recovery_us
            ));
            if !r.matches_healthy || r.sink_duplicates > 0 || r.invariant_violations > 0 {
                diff.failures.push(format!(
                    "recovery at {}: incorrect failover (matches_healthy={}, \
                     sink_duplicates={}, invariant_violations={})",
                    r.position, r.matches_healthy, r.sink_duplicates, r.invariant_violations
                ));
            }
        }
        for (pos, _) in &baseline.recovery_positions {
            if !recs.iter().any(|r| r.position == *pos) {
                diff.failures.push(format!(
                    "recovery coverage regressed: baseline measured a '{pos}' kill, \
                     this run did not"
                ));
            }
        }
    }

    if let Some(t) = telemetry {
        let cur = t.overhead_pct();
        let base = baseline
            .overhead_pct
            .map(|b| format!("{b:+.2}% baseline"))
            .unwrap_or_else(|| "no baseline".to_string());
        diff.lines
            .push(format!("telemetry overhead     {cur:+.2}% vs {base}"));
        if cur > TELEMETRY_OVERHEAD_BUDGET_PCT {
            diff.failures.push(format!(
                "telemetry overhead {cur:+.2}% exceeds the \
                 {TELEMETRY_OVERHEAD_BUDGET_PCT:.0}% budget"
            ));
        }
    }

    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime_bench::BENCH_CHAIN;

    fn record(substrate: &str, batch: usize, pps: f64) -> RuntimeBenchRecord {
        RuntimeBenchRecord {
            chain: BENCH_CHAIN.to_string(),
            substrate: substrate.to_string(),
            batch_size: batch,
            packets: 1000,
            delivered: 1000,
            wall_s: 0.1,
            pps,
            gbps: 0.1,
            p50_us: 10.0,
            p99_us: 20.0,
            store_ops: 1,
        }
    }

    fn baseline_json(pps8: f64, pps64: f64) -> String {
        crate::runtime_bench::records_to_json(
            crate::Scale(0.05),
            &[
                record("realtime", 8, pps8),
                record("realtime", 64, pps64),
                record("simulator", 0, 9e5),
            ],
            None,
            None,
            None,
            None,
        )
    }

    #[test]
    fn parses_what_records_to_json_writes() {
        let b = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();
        assert_eq!(b.scale, 0.05);
        assert_eq!(b.rows.len(), 3);
        assert_eq!(b.rows[0].substrate, "realtime");
        assert_eq!(b.rows[0].batch_size, 8);
        assert!((b.rows[0].pps - 50_000.0).abs() < 0.5);
        assert_eq!(b.rows[2].substrate, "simulator");
        assert!(b.overhead_pct.is_none());

        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\n  \"scale\": 1\n}").is_err());
    }

    #[test]
    fn passes_within_budget_and_fails_beyond_it() {
        let base = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();

        // 5% down: within the 10% budget.
        let ok = compare_with_baseline(
            &base,
            0.05,
            &[
                record("realtime", 8, 47_500.0),
                record("realtime", 64, 95_000.0),
            ],
            None,
            None,
        );
        assert!(ok.ok(), "unexpected failures: {:?}", ok.failures);
        assert!(ok.render().contains("PASS"));

        // 20% down on one row: gate fails and names the row.
        let bad = compare_with_baseline(
            &base,
            0.05,
            &[
                record("realtime", 8, 40_000.0),
                record("realtime", 64, 95_000.0),
            ],
            None,
            None,
        );
        assert!(!bad.ok());
        assert_eq!(bad.failures.len(), 1);
        assert!(bad.failures[0].contains("realtime batch 8"));
    }

    #[test]
    fn simulator_rows_and_new_rows_inform_but_never_gate() {
        let base = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();
        let diff = compare_with_baseline(
            &base,
            0.05,
            &[
                record("simulator", 0, 1.0),  // collapsed, but not gated
                record("realtime", 256, 1.0), // no baseline row
            ],
            None,
            None,
        );
        assert!(diff.ok(), "unexpected failures: {:?}", diff.failures);
        assert!(diff.lines.iter().any(|l| l.contains("no baseline row")));
    }

    #[test]
    fn telemetry_overhead_budget_gates() {
        let base = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();
        let telem = |enabled: f64| crate::runtime_bench::TelemetryBenchRecord {
            batch_size: 8,
            sample_ms: 5,
            e2e_mean_ns: 1.0,
            e2e_p50_ns: 1,
            report: Default::default(),
            pps_enabled: enabled,
            pps_disabled: 100_000.0,
            invariant_violations: 0,
        };
        let within = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            None,
            Some(&telem(97_000.0)), // 3% overhead
        );
        assert!(within.ok(), "unexpected failures: {:?}", within.failures);

        let breach = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            None,
            Some(&telem(90_000.0)), // 10% overhead
        );
        assert!(!breach.ok());
        assert!(breach.failures[0].contains("telemetry overhead"));
    }

    fn recovery(position: &str, us: f64) -> RecoveryRecord {
        RecoveryRecord {
            position: position.to_string(),
            packets: 1000,
            kill_at: 500,
            packets_replayed: 10,
            log_high_water: 32,
            log_truncated: 100,
            recovery_us: us,
            suppressed_duplicates: 5,
            sink_duplicates: 0,
            matches_healthy: true,
            invariant_violations: 0,
            wall_s: 0.1,
            events: Vec::new(),
        }
    }

    #[test]
    fn recovery_positions_round_trip_and_gate_coverage() {
        let sweep: Vec<RecoveryRecord> = ["entry", "mid", "tail", "root"]
            .iter()
            .enumerate()
            .map(|(i, p)| recovery(p, 100.0 * (i + 1) as f64))
            .collect();
        let json = crate::runtime_bench::records_to_json(
            crate::Scale(0.05),
            &[record("realtime", 8, 50_000.0)],
            Some(&sweep[0]),
            Some(&sweep),
            None,
            None,
        );
        let base = parse_baseline(&json).unwrap();
        assert_eq!(base.recovery_positions.len(), 4, "one row per position");
        assert_eq!(base.recovery_positions[0].0, "entry");
        assert!((base.recovery_positions[3].1 - 400.0).abs() < 0.5);

        // All positions present and correct: times inform, gate passes.
        let ok = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            Some(&sweep),
            None,
        );
        assert!(ok.ok(), "unexpected failures: {:?}", ok.failures);
        assert!(ok.lines.iter().any(|l| l.contains("recovery mid")));

        // A much slower recovery still passes (inform-only)...
        let slow: Vec<RecoveryRecord> = sweep
            .iter()
            .map(|r| recovery(&r.position, r.recovery_us * 50.0))
            .collect();
        let ok = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            Some(&slow),
            None,
        );
        assert!(ok.ok(), "recovery times must not gate: {:?}", ok.failures);

        // ...but losing a position the baseline covered fails,
        let missing: Vec<RecoveryRecord> = sweep[..3].to_vec();
        let bad = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            Some(&missing),
            None,
        );
        assert!(!bad.ok());
        assert!(bad.failures[0].contains("'root'"));

        // ...as does an incorrect failover at any position.
        let mut wrong = sweep.clone();
        wrong[1].matches_healthy = false;
        let bad = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            Some(&wrong),
            None,
        );
        assert!(!bad.ok());
        assert!(bad.failures[0].contains("mid"));
    }

    #[test]
    fn scale_mismatch_fails_outright() {
        let base = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();
        let diff =
            compare_with_baseline(&base, 1.0, &[record("realtime", 8, 50_000.0)], None, None);
        assert!(!diff.ok());
        assert!(diff.failures[0].contains("scale mismatch"));
        assert!(
            diff.lines.is_empty(),
            "no per-row diff on mismatched scales"
        );
    }
}
