//! The repository's benchmark: five workloads over the product crates'
//! public functions, pinned to one CPU, every repetition verified. See
//! `README.md` in this directory for the metric and workload tables and for
//! how the numbers are made.
//!
//! ```text
//! benchmark --workload <name> [--seed 97] [--seconds 14] [--trace 0|1] [--out <path>] [--quick]
//! benchmark --selfcheck [--workload <name>]... [--seed 97] [--seconds 14]
//! benchmark --emit-spec
//! ```

mod host;
mod inline;
mod json;
mod layers;
mod report;
mod run;
mod selfcheck;
mod spans;
mod spec;
mod stats;
mod verify;

use report::{Header, Metric, Outcome};
use run::RunOptions;
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit codes: failed operations; bad usage, unknown workload or metric
/// name; refused pin or another host error.
const EXIT_FAILED: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_HOST: u8 = 3;

const USAGE: &str = "usage: benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <path>] [--quick]\n       benchmark --selfcheck [--workload <name>]... [--seed <n>] [--seconds <s>]\n       benchmark --emit-spec";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: Option<PathBuf>,
    pub quick: bool,
    pub selfcheck: bool,
    pub emit_spec: bool,
}

impl Args {
    /// Strict parsing: an unknown flag, a missing or malformed value is an
    /// error, never a silent default.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workloads: Vec::new(),
            seed: 97,
            seconds: spec::RUN_SECONDS as f64,
            traced: false,
            out: None,
            quick: false,
            selfcheck: false,
            emit_spec: false,
        };
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => args.workloads.push(value("a workload name")?),
                "--seed" => {
                    let v = value("a number")?;
                    args.seed = v
                        .parse()
                        .map_err(|_| format!("--seed: {v:?} is not a whole number"))?;
                }
                "--seconds" => {
                    let v = value("a number")?;
                    args.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("--seconds: {v:?} is not a non-negative number"))?;
                }
                "--trace" => {
                    args.traced = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                    };
                }
                "--out" => args.out = Some(PathBuf::from(value("a path")?)),
                "--quick" => args.quick = true,
                "--selfcheck" => args.selfcheck = true,
                "--emit-spec" => args.emit_spec = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }
}

/// The directory build outputs go to, by the rule the store's scratch
/// directories follow: `CARGO_TARGET_DIR` when set (the driver sets it inside
/// its checkout), else the nearest ancestor's existing `target/`, else
/// `target` under the current directory.
fn target_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .map(|dir| dir.join("target"))
        .find(|candidate| candidate.is_dir())
        .unwrap_or_else(|| cwd.join("target"))
}

/// Run one workload, end to end or traced, on the calling thread's one CPU.
pub fn run_workload(
    opts: &RunOptions,
    traced: bool,
    pinned: &host::Pinned,
) -> Result<Outcome, String> {
    let workload = opts.workload;
    let mut header = Header {
        host: host::HostInfo::read(),
        workload: workload.name,
        seed: opts.seed,
        traced,
        seconds: opts.seconds,
        connections: workload.trace_config(opts.seed, opts.quick).connections,
        mean_packets: workload.mean_packets,
        packets: 0,
        repetitions: Vec::new(),
        host_unstable: false,
        span_file: None,
    };
    if traced {
        let layers = layers::per_layer(opts, pinned, &target_dir().join("benchmark"))?;
        header.packets = layers.packets;
        header.repetitions = vec![("ladder_rounds", layers.rounds)];
        header.host_unstable = layers.host_unstable;
        header.span_file = Some(layers.span_file.display().to_string());
        let extras = vec![
            Metric::new("spans_written", "spans", layers.spans as f64),
            Metric::new("span_trees_checked", "count", layers.span_trees as f64),
        ];
        Ok(Outcome {
            header,
            metrics: report::bind(&spec::PER_LAYER, &layers.metrics)?,
            extras,
            tally: layers.tally,
            samples: layers.samples,
        })
    } else {
        let e2e = run::end_to_end(opts, pinned);
        header.packets = e2e.packets;
        header.repetitions = vec![
            ("setups", e2e.setup_s.n),
            ("inline_passes", e2e.pkt_p50_ns.n),
            ("engine_repetitions", e2e.chain_pps.n),
        ];
        header.host_unstable = e2e.host_unstable;
        let measured = [
            ("setup_s", e2e.setup_s),
            ("chain_pps", e2e.chain_pps),
            ("pkt_p50_ns", e2e.pkt_p50_ns),
            ("pkt_p99_ns", e2e.pkt_p99_ns),
            ("peak_rss_mb", e2e.peak_rss_mb),
        ];
        let mut extras = vec![
            Metric::new("host.calib_ns", "ns", e2e.calibration.summary()),
            Metric::new("host.calib_drift_pct", "%", e2e.calibration.drift_pct()),
            Metric::new("host.factor", "ratio", e2e.calibration.factor()),
        ];
        // Failover workloads only; not part of the contract, whose
        // end-to-end metrics must exist on every workload.
        for (name, unit, summary) in [
            ("recovery_ms", "ms", e2e.recovery_ms),
            ("healthy_engine_pps", "packets/s", e2e.healthy_pps),
        ] {
            extras.extend(summary.map(|s| Metric::new(name, unit, s)));
        }
        Ok(Outcome {
            header,
            metrics: report::bind(&spec::END_TO_END, &measured)?,
            extras,
            tally: e2e.tally,
            samples: e2e.samples,
        })
    }
}

fn real_main() -> Result<ExitCode, (u8, String)> {
    let usage = |e: String| (EXIT_USAGE, format!("{e}\n{USAGE}"));
    let args = Args::parse(std::env::args().skip(1)).map_err(usage)?;
    spec::validate_builtin().map_err(|e| (EXIT_USAGE, format!("metric table: {e}")))?;
    if args.emit_spec {
        print!("{}", spec::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    let workloads: Vec<&'static spec::Workload> = args
        .workloads
        .iter()
        .map(|name| {
            spec::workload(name).ok_or_else(|| {
                let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                usage(format!(
                    "unknown workload {name:?}; known: {}",
                    known.join(", ")
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    if args.selfcheck {
        let all: Vec<&'static spec::Workload> = spec::WORKLOADS.iter().collect();
        let chosen = if workloads.is_empty() { all } else { workloads };
        let agree = selfcheck::run(&chosen, args.seed, args.seconds).map_err(|e| (EXIT_HOST, e))?;
        return Ok(if agree {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_FAILED)
        });
    }
    let [workload] = workloads[..] else {
        return Err(usage("exactly one --workload is needed".into()));
    };

    // Before any thread starts: affinity is inherited at spawn. A refused
    // pin ends the run here, so no pinned metric name is ever printed from
    // an unpinned run.
    let pinned = host::Pinned::to_last_allowed()
        .map_err(|e| (EXIT_HOST, format!("cannot pin to one CPU: {e}")))?;
    let opts = RunOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let outcome = run_workload(&opts, args.traced, &pinned).map_err(|e| (EXIT_USAGE, e))?;
    eprint!("{}", report::table(&outcome));
    if let Some(path) = &args.out {
        let doc = report::document(&outcome);
        std::fs::write(path, doc).map_err(|e| (EXIT_HOST, format!("{}: {e}", path.display())))?;
    }
    println!(
        "{}",
        report::contract_line(&outcome.tally, &outcome.metrics)
    );
    Ok(if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FAILED)
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|(code, message)| {
        eprintln!("benchmark: {message}");
        ExitCode::from(code)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses_and_sloppy_ones_do_not() {
        let a = parse(&[
            "--workload",
            "steady",
            "--seed",
            "5",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.traced),
            (vec!["steady".to_string()], 5, 3.0, true)
        );
        let d = parse(&["--workload", "forward"]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.traced, d.quick),
            (97, spec::RUN_SECONDS as f64, false, false)
        );
        for bad in [
            &["--bogus"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--workload"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_is_the_rendered_metric_table() {
        // Walk up from the package directory to the repository root: the
        // file there must be exactly what `--emit-spec` prints.
        let found = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|path| path.is_file())
            .expect("BENCHMARK.json at the repository root");
        let on_disk = std::fs::read_to_string(&found).unwrap();
        assert_eq!(
            on_disk,
            spec::benchmark_json(),
            "{} is stale: regenerate it with --emit-spec",
            found.display()
        );
        let doc = json::parse(&on_disk).expect("BENCHMARK.json parses");
        let keys = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ];
        let json::Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        assert_eq!(
            members.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            keys
        );
        assert!(on_disk.len() < 64 * 1024);
    }

    /// The `--quick` set: every workload, end to end and traced, at ≈ 2k
    /// packets with one repetition of everything. No timing is asserted;
    /// every metric named in the tables must come out, with zero failed
    /// operations and spans that nest.
    #[test]
    fn the_quick_set_emits_every_metric_for_every_workload_without_failures() {
        let pinned = host::Pinned::to_last_allowed().expect("pin the test thread");
        for workload in &spec::WORKLOADS {
            let opts = RunOptions {
                workload,
                seed: 97,
                seconds: 0.0,
                quick: true,
            };
            for traced in [false, true] {
                let outcome = run_workload(&opts, traced, &pinned)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name));
                let expected = if traced {
                    &spec::PER_LAYER[..]
                } else {
                    &spec::END_TO_END[..]
                };
                let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, expected.iter().map(|m| m.name).collect::<Vec<_>>());
                assert!(outcome.tally.attempted > 0);
                assert_eq!(
                    outcome.tally.failed, 0,
                    "{}: {:?}",
                    workload.name, outcome.tally.notes
                );
                assert!(outcome.metrics.iter().all(|m| m.summary.value.is_finite()));
                assert!(outcome.header.packets > 500);
                let line = report::contract_line(&outcome.tally, &outcome.metrics);
                assert!(json::parse(&line).is_ok());
                let doc = report::document(&outcome);
                assert!(json::parse(&doc).is_ok(), "{doc}");
                if traced {
                    let trees = outcome
                        .extras
                        .iter()
                        .find(|m| m.name == "span_trees_checked")
                        .unwrap();
                    assert!(trees.summary.value >= 8.0);
                    let path = outcome.header.span_file.as_ref().unwrap();
                    let text = std::fs::read_to_string(path).unwrap();
                    assert!(text.lines().all(|l| json::parse(l).is_ok()));
                    assert!(
                        text.contains("\"name\":\"chain\"")
                            && text.contains("\"name\":\"nf.firewall\"")
                    );
                } else {
                    // End-to-end metrics are never 0.
                    assert!(outcome.metrics.iter().all(|m| m.summary.value > 0.0));
                    assert_eq!(
                        outcome.extras.iter().any(|m| m.name == "recovery_ms"),
                        workload.failover
                    );
                }
            }
        }
    }
}
