//! The `paper_eval` command line: which flags exist, which need which, and
//! that the one engine run it still owns — the traced failover — writes a
//! loadable trace and the failover's event journal.

use std::path::PathBuf;
use std::process::{Command, Output};

fn paper_eval(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_eval"))
        .args(args)
        .output()
        .expect("paper_eval starts")
}

/// A file under the scratch directory cargo makes for integration tests.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn unknown_removed_and_orphaned_flags_are_usage_errors() {
    let rejected: [&[&str]; 8] = [
        &["--bogus-flag"],
        &["--json", "bench.json"],
        &["--baseline", "bench.json"],
        &["--packets", "4800"],
        &["--sample-ms", "2"],
        &["--telemetry-jsonl", "events.jsonl"],
        &["--trace-kill", "mid"],
        &["--scale", "fast"],
    ];
    for args in rejected {
        let out = paper_eval(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("Usage: paper_eval"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

/// The checked-in report of `paper_eval --scale 0.05`, and the command that
/// rewrites it from the current tree.
const GOLDEN: &str = "tests/paper_eval_scale005.txt";
const REGENERATE: &str = "cargo run --release -p chc-bench --bin paper_eval -- --scale 0.05 \
    | sed -E 's/[0-9.]+ M ops\\/s/# M ops\\/s/; s/recovery ≈ +[0-9.]+ ms/recovery ≈ # ms/' \
    > crates/bench/tests/paper_eval_scale005.txt";

/// The report with the numbers of its two wall-clock lines replaced by `#`
/// (the `datastore` section's throughput and Figure 14's recovery times);
/// the same rewrite as the `sed` in [`REGENERATE`].
fn mask_wall_clock(report: &str) -> String {
    let mut masked = String::new();
    for line in report.lines() {
        if let Some(end) = line.find(" M ops/s") {
            let number = line[..end].trim_end_matches(|c: char| c.is_ascii_digit() || c == '.');
            masked.push_str(&format!("{number}#{}", &line[end..]));
        } else if let (Some(at), true) = (line.find("recovery ≈ "), line.ends_with(" ms")) {
            masked.push_str(&format!("{}recovery ≈ # ms", &line[..at]));
        } else {
            masked.push_str(line);
        }
        masked.push('\n');
    }
    masked
}

/// Every simulated figure is pinned: the simulator is deterministic per
/// seed, so the whole report — masked only where it reads a wall clock — is
/// byte-identical from one run, profile and refactor to the next.
#[test]
fn the_simulated_figures_match_the_golden_report() {
    let out = paper_eval(&["--scale", "0.05"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = mask_wall_clock(&String::from_utf8_lossy(&out.stdout));
    let golden = std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN))
        .expect("golden report checked in");
    if got != golden {
        let first = got.lines().zip(golden.lines()).position(|(g, w)| g != w);
        panic!(
            "paper_eval --scale 0.05 no longer matches {GOLDEN} (first differing line: {first:?})\n\
             --- got ---\n{got}\n\
             If the change is meant to move a figure, regenerate the file from the repo root:\n  {REGENERATE}"
        );
    }
}

#[test]
fn traced_failover_writes_the_trace_and_the_event_journal() {
    let (trace, events) = (scratch("trace_mid.json"), scratch("events_mid.jsonl"));
    let out = paper_eval(&[
        "--scale",
        "0.05",
        "--trace-out",
        trace.to_str().unwrap(),
        "--trace-kill",
        "mid",
        "--telemetry-jsonl",
        events.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sentinel violations: 0"), "{stdout}");
    // Only the traced run: no report section follows without --only.
    assert!(!stdout.contains("==== fig"), "{stdout}");

    let trace = std::fs::read_to_string(trace).expect("trace written");
    assert!(trace.contains("\"ph\":\"M\"") && trace.contains("replay_inject"));
    let events = std::fs::read_to_string(events).expect("journal written");
    assert!(events.contains("\"event\":\"replay_complete\""));
    assert!(events.contains("\"event\":\"trace_span\""));
}
