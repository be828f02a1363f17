//! Regenerate every table and figure of the CHC paper's evaluation.
//!
//! Usage:
//!   cargo run --release -p chc-bench --bin paper_eval [-- --scale 1.0] [-- --only fig08]
//!
//! `--trace-out <path>` instead runs one traced failover of the real-thread
//! engine (a kill at `--trace-kill <entry|mid|tail|root>`, default entry,
//! under full flow sampling) and writes the validated Chrome trace-event
//! JSON to `path` — load it at <https://ui.perfetto.dev>.
//! `--telemetry-jsonl <path>` also writes that run's event journal and
//! spans as JSON lines.
//!
//! What the engine costs per packet is the repository benchmark's to say
//! (`BENCHMARK.json`, `src/bin/benchmark/`), not this program's.

use chc_bench::{run_all, runtime_trace_experiment_at, Scale, TraceRunRecord, KILL_POSITIONS};

const USAGE: &str = "\
Usage: paper_eval [OPTIONS]

Options:
  --scale <f64>             trace scale factor (default 1.0)
  --only <section>          print only report sections whose header contains <section>
  --trace-out <path>        run a traced failover (every flow sampled) and write
                            Perfetto-loadable Chrome trace JSON to <path>, in
                            place of the report unless --only is given;
                            exits 3 on sentinel violations
  --trace-kill <position>   chain position the traced failover kills:
                            entry|mid|tail|root (default entry; requires
                            --trace-out)
  --telemetry-jsonl <path>  also write the traced failover's event journal and
                            trace spans as JSON lines to <path> (requires
                            --trace-out)
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

fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}

/// One JSONL schema: journal events (invariant violations included, were
/// any detected) and causal-trace spans side by side. The spans continue
/// the journal's seq numbering so the file stays totally ordered.
fn telemetry_jsonl(record: &TraceRunRecord) -> String {
    let telemetry = &record.telemetry;
    let seq0 = telemetry.events.last().map_or(0, |e| e.seq + 1);
    let events = telemetry.events.iter().map(|e| e.to_json());
    let spans = telemetry.trace_spans.iter().zip(seq0..);
    let mut lines = String::new();
    for line in events.chain(spans.map(|(s, seq)| s.to_json(seq))) {
        lines.push_str(&line);
        lines.push('\n');
    }
    lines
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = Scale::default();
    let mut only: Option<String> = None;
    let mut telemetry_jsonl_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_kill: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = value_of(&args, i);
                scale = Scale(v.parse::<f64>().unwrap_or_else(|_| {
                    usage_error(&format!("invalid --scale value '{v}' (expected a number)"))
                }));
            }
            "--only" => only = Some(value_of(&args, i).to_string()),
            "--telemetry-jsonl" => telemetry_jsonl_path = Some(value_of(&args, i).to_string()),
            "--trace-out" => trace_out = Some(value_of(&args, i).to_string()),
            "--trace-kill" => {
                let v = value_of(&args, i);
                if !KILL_POSITIONS.contains(&v) {
                    usage_error(&format!(
                        "invalid --trace-kill value '{v}' (expected entry|mid|tail|root)"
                    ));
                }
                trace_kill = Some(v.to_string());
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    if trace_out.is_none() && telemetry_jsonl_path.is_some() {
        usage_error("--telemetry-jsonl requires --trace-out");
    }
    if trace_out.is_none() && trace_kill.is_some() {
        usage_error("--trace-kill requires --trace-out");
    }

    println!("CHC paper evaluation reproduction (scale = {})", scale.0);
    println!("================================================================\n");

    if let Some(path) = &trace_out {
        let position = trace_kill.as_deref().unwrap_or("entry");
        let (text, record) = runtime_trace_experiment_at(scale, position);
        println!("==== trace ====");
        println!("{text}");
        write_or_exit(path, &record.trace_json);
        println!(
            "wrote {} trace spans ({} events) to {path} — load at https://ui.perfetto.dev",
            record.telemetry.trace_spans.len(),
            record.shape.events
        );
        if let Some(jsonl_path) = &telemetry_jsonl_path {
            let lines = telemetry_jsonl(&record);
            write_or_exit(jsonl_path, &lines);
            println!(
                "wrote {} journal events + trace spans to {jsonl_path}",
                lines.lines().count()
            );
        }
        if record.invariant_violations > 0 {
            eprintln!(
                "paper_eval: traced failover raised {} invariant violation(s)",
                record.invariant_violations
            );
            std::process::exit(3);
        }
        println!();
        if only.is_none() {
            return;
        }
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
