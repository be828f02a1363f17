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
