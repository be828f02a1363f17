//! Regenerate every table and figure of the CHC paper's evaluation.
//!
//! Usage:
//!   cargo run --release -p chc-bench --bin paper_eval [-- --scale 1.0] [-- --only fig08] [-- --json bench.json]
//!
//! `--json <path>` additionally runs the real-thread chain benchmark
//! (firewall → NAT → LB at the default batch sizes, plus the simulator
//! comparison row), the failover recovery experiment, the recovery-time-vs-
//! kill-position sweep (entry, mid, tail and root kills on the same trace),
//! and the telemetry experiment (per-stage latency decomposition, gauge
//! time series, instrumentation overhead including 1%-sampled causal
//! tracing and the invariant sentinel), and the
//! storage-backend comparison (journaled throughput + restart cost vs
//! journal depth on the in-memory and append-only engines), and writes the
//! machine-readable records to `path`, so bench trajectories can be
//! recorded as `BENCH_*.json` files.
//!
//! `--trace-out <path>` runs the traced-failover experiment (a kill at
//! `--trace-kill <entry|mid|tail|root>`, default entry, under full flow
//! sampling) and writes the validated Chrome trace-event JSON to `path` —
//! load it at <https://ui.perfetto.dev>.
//!
//! `--baseline <path>` diffs this run's records against a prior
//! `BENCH_*.json` and exits nonzero on a throughput regression beyond 10%,
//! a telemetry-overhead budget breach beyond 5%, or a recovery-vs-position
//! row that disappeared or stopped matching the healthy run.

use chc_bench::{
    compare_with_baseline, parse_baseline, records_to_json, run_all, runtime_chain_experiment,
    runtime_recovery_by_position_experiment, runtime_recovery_experiment,
    runtime_telemetry_experiment, runtime_trace_experiment_at, scale_for_packets,
    store_backend_experiment, Scale, KILL_POSITIONS,
};
use std::time::Duration;

const USAGE: &str = "\
Usage: paper_eval [OPTIONS]

Options:
  --scale <f64>             trace scale factor (default 1.0)
  --packets <u64>           size the trace by approximate packet count instead
                            of --scale (mutually exclusive with --scale)
  --only <section>          print only report sections whose header contains <section>
  --json <path>             also run the runtime / recovery / telemetry benchmarks
                            plus the storage-backend comparison and write
                            machine-readable records to <path>
  --sample-ms <u64>         gauge sampling cadence for the telemetry benchmark,
                            in milliseconds (default 5; requires --json)
  --telemetry-jsonl <path>  also write the benchmark runs' event journals and
                            trace spans as JSON lines to <path> (requires --json)
  --trace-out <path>        run a traced failover (every flow sampled) and write
                            Perfetto-loadable Chrome trace JSON to <path>;
                            exits nonzero on sentinel violations
  --trace-kill <position>   chain position the traced failover kills:
                            entry|mid|tail|root (default entry; requires
                            --trace-out)
  --baseline <path>         diff this run against a prior BENCH_*.json and exit
                            nonzero on >10% throughput regression, a >5%
                            telemetry-overhead budget breach, or a lost /
                            incorrect recovery-vs-position row (requires --json)
  -h, --help                print this help";

fn usage_error(msg: &str) -> ! {
    eprintln!("paper_eval: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// The value of flag `args[i]`, or a usage error naming the flag.
fn value_of(args: &[String], i: usize) -> &str {
    match args.get(i + 1) {
        Some(v) => v,
        None => usage_error(&format!("{} requires a value", args[i])),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = Scale::default();
    let mut scale_set = false;
    let mut packets: Option<u64> = None;
    let mut only: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut sample_ms: u64 = 5;
    let mut telemetry_jsonl: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_kill: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = value_of(&args, i);
                scale = Scale(v.parse::<f64>().unwrap_or_else(|_| {
                    usage_error(&format!("invalid --scale value '{v}' (expected a number)"))
                }));
                scale_set = true;
                i += 2;
            }
            "--packets" => {
                let v = value_of(&args, i);
                let n = v.parse::<u64>().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "invalid --packets value '{v}' (expected an integer)"
                    ))
                });
                if n == 0 {
                    usage_error("--packets must be at least 1");
                }
                packets = Some(n);
                i += 2;
            }
            "--only" => {
                only = Some(value_of(&args, i).to_string());
                i += 2;
            }
            "--json" => {
                json_path = Some(value_of(&args, i).to_string());
                i += 2;
            }
            "--sample-ms" => {
                let v = value_of(&args, i);
                sample_ms = v.parse::<u64>().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "invalid --sample-ms value '{v}' (expected an integer)"
                    ))
                });
                if sample_ms == 0 {
                    usage_error("--sample-ms must be at least 1");
                }
                i += 2;
            }
            "--telemetry-jsonl" => {
                telemetry_jsonl = Some(value_of(&args, i).to_string());
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(value_of(&args, i).to_string());
                i += 2;
            }
            "--trace-kill" => {
                let v = value_of(&args, i);
                if !KILL_POSITIONS.contains(&v) {
                    usage_error(&format!(
                        "invalid --trace-kill value '{v}' (expected entry|mid|tail|root)"
                    ));
                }
                trace_kill = Some(v.to_string());
                i += 2;
            }
            "--baseline" => {
                baseline_path = Some(value_of(&args, i).to_string());
                i += 2;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if json_path.is_none() && telemetry_jsonl.is_some() {
        usage_error("--telemetry-jsonl requires --json");
    }
    if json_path.is_none() && baseline_path.is_some() {
        usage_error("--baseline requires --json");
    }
    if trace_out.is_none() && trace_kill.is_some() {
        usage_error("--trace-kill requires --trace-out");
    }
    if let Some(n) = packets {
        if scale_set {
            usage_error("--packets and --scale are mutually exclusive");
        }
        scale = scale_for_packets(n);
        println!("--packets {n} -> scale {:.4}", scale.0);
    }

    println!("CHC paper evaluation reproduction (scale = {})", scale.0);
    println!("================================================================\n");

    if let Some(path) = &trace_out {
        let position = trace_kill.as_deref().unwrap_or("entry");
        let (text, record) = runtime_trace_experiment_at(scale, position);
        println!("==== trace ====");
        println!("{text}");
        match std::fs::write(path, &record.trace_json) {
            Ok(()) => println!(
                "wrote {} trace spans ({} events) to {path} — load at https://ui.perfetto.dev",
                record.spans, record.shape.events
            ),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        if record.invariant_violations > 0 {
            eprintln!(
                "paper_eval: traced failover raised {} invariant violation(s)",
                record.invariant_violations
            );
            std::process::exit(3);
        }
        println!();
    }

    if let Some(path) = &json_path {
        // The JSON mode leads with the runtime benchmark so the acceptance
        // numbers (real-thread chain throughput at two batch sizes, plus
        // the failover recovery metrics) are printed and recorded even when
        // `--only` filters the text report.
        let (text, records) = runtime_chain_experiment(scale);
        println!("==== runtime ====");
        println!("{text}");
        let (rec_text, recovery) = runtime_recovery_experiment(scale);
        println!("==== recovery ====");
        println!("{rec_text}");
        let (pos_text, by_position) = runtime_recovery_by_position_experiment(scale);
        println!("==== recovery-by-position ====");
        println!("{pos_text}");
        let (tel_text, telemetry) =
            runtime_telemetry_experiment(scale, Duration::from_millis(sample_ms));
        println!("==== telemetry ====");
        println!("{tel_text}");
        let (be_text, store_backend) = store_backend_experiment(scale);
        println!("==== store-backend ====");
        println!("{be_text}");
        let json = records_to_json(
            scale,
            &records,
            Some(&recovery),
            Some(&by_position),
            Some(&telemetry),
            Some(&store_backend),
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {} bench records to {path}", records.len()),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(jsonl_path) = &telemetry_jsonl {
            // One JSONL schema: journal events (invariant violations
            // included, were any detected) and causal-trace spans side by
            // side. The spans continue the telemetry run's seq numbering
            // so the file stays totally ordered per run.
            let mut lines = String::new();
            for e in telemetry.report.events.iter().chain(recovery.events.iter()) {
                lines.push_str(&e.to_json());
                lines.push('\n');
            }
            let seq0 = telemetry
                .report
                .events
                .last()
                .map(|e| e.seq + 1)
                .unwrap_or(0);
            for (i, s) in telemetry.report.trace_spans.iter().enumerate() {
                lines.push_str(&s.to_json(seq0 + i as u64));
                lines.push('\n');
            }
            match std::fs::write(jsonl_path, &lines) {
                Ok(()) => println!(
                    "wrote {} journal events + trace spans to {jsonl_path}",
                    lines.lines().count()
                ),
                Err(e) => {
                    eprintln!("failed to write {jsonl_path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(base_path) = &baseline_path {
            println!("==== baseline ====");
            let base_json = match std::fs::read_to_string(base_path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("failed to read {base_path}: {e}");
                    std::process::exit(1);
                }
            };
            let base = match parse_baseline(&base_json) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("failed to parse {base_path}: {e}");
                    std::process::exit(1);
                }
            };
            let diff = compare_with_baseline(
                &base,
                scale.0,
                &records,
                Some(&by_position),
                Some(&telemetry),
            );
            println!("vs {base_path} (scale {}):", base.scale);
            print!("{}", diff.render());
            if !diff.ok() {
                eprintln!(
                    "paper_eval: baseline gate failed ({} breach(es))",
                    diff.failures.len()
                );
                std::process::exit(3);
            }
        }
        if only.is_none() {
            return;
        }
    }
    if trace_out.is_some() && json_path.is_none() && only.is_none() {
        return;
    }

    let report = run_all(scale);
    match only {
        None => println!("{report}"),
        Some(section) => {
            let mut printing = false;
            for line in report.lines() {
                if line.starts_with("==== ") {
                    printing = line.contains(&section);
                }
                if printing {
                    println!("{line}");
                }
            }
        }
    }
}
