//! `--selfcheck`: run the chosen workloads' end-to-end set twice, back to
//! back, each run in a process of its own (so `peak_rss_mb` is one run's),
//! and compare the two sets against the bounds of the metric table. This is
//! the tool for fixing the bounds from data instead of by guess.

use crate::json::{self, Json};
use crate::spec::{Better, MetricSpec, Workload, END_TO_END};
use std::process::{Command, Stdio};

/// One child run's end-to-end values by metric name.
fn child_run(workload: &Workload, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed}: child run exited with {}",
            workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child run printed nothing")?;
    let doc = json::parse(line)?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("child run's result has no metrics object".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name} has no numeric value"))
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(spec: &MetricSpec, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match spec.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Run the two sets and print the comparison; true when every second value
/// is within its bound of the first, better or worse.
pub fn run(workloads: &[&'static Workload], seed: u64, seconds: f64) -> Result<bool, String> {
    let mut sets = Vec::with_capacity(2);
    for set in ["first", "second"] {
        let mut rows = Vec::with_capacity(workloads.len());
        for workload in workloads {
            eprintln!("selfcheck: {set} set, {} seed {seed}", workload.name);
            rows.push(child_run(workload, seed, seconds)?);
        }
        sets.push(rows);
    }
    println!(
        "{:<18} {:<12} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut agree = true;
    for (w, workload) in workloads.iter().enumerate() {
        for spec in &END_TO_END {
            let value = |set: &Vec<Vec<(String, f64)>>| {
                set[w]
                    .iter()
                    .find(|(name, _)| name == spec.name)
                    .map(|(_, v)| *v)
                    .ok_or(format!(
                        "{}: child run did not report {}",
                        workload.name, spec.name
                    ))
            };
            let (first, second) = (value(&sets[0])?, value(&sets[1])?);
            let bound = spec.bound.unwrap_or(0.0);
            let ok = worsening(spec, first, second).abs() <= bound;
            agree &= ok;
            println!(
                "{:<18} {:<12} {:>16.3} {:>16.3} {:>8.1}% {:>6.0}%  {}",
                workload.name,
                spec.name,
                first,
                second,
                worsening(spec, first, second) * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let pps = END_TO_END.iter().find(|m| m.name == "chain_pps").unwrap();
        let p50 = END_TO_END.iter().find(|m| m.name == "pkt_p50_ns").unwrap();
        assert!((worsening(pps, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(pps, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(p50, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(p50, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(p50, 0.0, 5.0), 0.0);
    }
}
