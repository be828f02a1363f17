//! What a run prints: the one-line result the driver reads (last line of
//! stdout), the full document with header and spreads (`--out`), and the
//! table a person reads (stderr).

use crate::host::HostInfo;
use crate::json::{escape, number};
use crate::spec::MetricSpec;
use crate::stats::Summary;
use crate::verify::Tally;

/// A measured metric, named and with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, summary: impl Into<Summary>) -> Metric {
        Metric {
            name,
            unit,
            summary: summary.into(),
        }
    }
}

/// Pair every metric of `specs` with its measured summary. A measured name
/// the table does not list, or a listed name nothing measured, is an error:
/// the output must carry exactly the names `BENCHMARK.json` promises.
pub fn bind(
    specs: &[MetricSpec],
    measured: &[(&'static str, Summary)],
) -> Result<Vec<Metric>, String> {
    if let Some((name, _)) = measured
        .iter()
        .find(|(name, _)| !specs.iter().any(|m| m.name == *name))
    {
        return Err(format!("unknown metric name {name:?}"));
    }
    specs
        .iter()
        .map(|m| {
            let mut found = measured.iter().filter(|(name, _)| *name == m.name);
            match (found.next(), found.next()) {
                (Some((_, summary)), None) => Ok(Metric::new(m.name, m.unit, *summary)),
                (None, _) => Err(format!("metric {} was not measured", m.name)),
                (Some(_), Some(_)) => Err(format!("metric {} was measured twice", m.name)),
            }
        })
        .collect()
}

/// Everything the document's header records about a run.
#[derive(Debug, Clone)]
pub struct Header {
    pub host: HostInfo,
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    pub connections: usize,
    pub mean_packets: usize,
    pub packets: usize,
    /// Repetition counts by kind, e.g. `("engine_repetitions", 7)`.
    pub repetitions: Vec<(&'static str, usize)>,
    pub host_unstable: bool,
    /// Span file of a traced run.
    pub span_file: Option<String>,
}

/// What one run produced, ready to print.
pub struct Outcome {
    pub header: Header,
    pub tally: Tally,
    /// The contract's metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures outside the contract.
    pub extras: Vec<Metric>,
    /// Every repetition behind the summaries, by series name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

/// The result line of the contract: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a value with all its digits and its
/// unit.
pub fn contract_line(tally: &Tally, metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.summary.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        rows.join(", ")
    )
}

fn metric_json(m: &Metric) -> String {
    let s = &m.summary;
    format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"n\": {}, \"min\": {}, \"median\": {}, \"max\": {}}}",
        m.name,
        m.unit,
        number(s.value),
        s.n,
        number(s.min),
        number(s.median),
        number(s.max)
    )
}

/// The full document: header, verdict, every metric with its spread, and
/// the workload-specific extras that are not part of the contract, and the
/// raw repetitions behind the summaries.
pub fn document(outcome: &Outcome) -> String {
    let Outcome {
        header,
        tally,
        metrics,
        extras,
        samples,
    } = outcome;
    let h = &header.host;
    let text = |s: &str| format!("\"{}\"", escape(s));
    let mut fields = vec![
        ("nproc", h.nproc.to_string()),
        ("cpu_model", text(&h.cpu_model)),
        ("cpus_allowed_list", text(&h.cpus_allowed_list)),
        ("kernel", text(&h.kernel)),
        ("git_head", text(&h.git_head)),
        ("rustc", text(&h.rustc)),
        ("workload", text(header.workload)),
        ("seed", header.seed.to_string()),
        ("traced", header.traced.to_string()),
        ("seconds", number(header.seconds)),
        ("connections", header.connections.to_string()),
        (
            "mean_packets_per_connection",
            header.mean_packets.to_string(),
        ),
        ("packets", header.packets.to_string()),
    ];
    for (kind, n) in &header.repetitions {
        fields.push((kind, n.to_string()));
    }
    fields.push(("host_unstable", header.host_unstable.to_string()));
    if let Some(path) = &header.span_file {
        fields.push(("span_file", text(path)));
    }
    let header_json: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    let list = |ms: &[Metric]| -> String {
        ms.iter()
            .map(|m| format!("    {}", metric_json(m)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let notes: Vec<String> = tally.notes.iter().map(|n| text(n)).collect();
    let samples: Vec<String> = samples
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(|v| number(*v)).collect();
            format!("    \"{name}\": [{}]", values.join(", "))
        })
        .collect();
    format!(
        "{{\n  \"header\": {{\n{}\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": [\n{}\n  ],\n  \"extra\": [\n{}\n  ],\n  \"samples\": {{\n{}\n  }}\n}}\n",
        header_json.join(",\n"),
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        notes.join(", "),
        list(metrics),
        list(extras),
        samples.join(",\n")
    )
}

/// The table for people.
pub fn table(outcome: &Outcome) -> String {
    let Outcome {
        header,
        tally,
        metrics,
        extras,
        ..
    } = outcome;
    let h = &header.host;
    let reps: Vec<String> = header
        .repetitions
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    let mut out = format!(
        "benchmark {} seed {} ({}) — {} packets ({} connections x {}), {}\n\
         host: {} CPUs, {}, kernel {}, allowed CPUs {}, {}, git {}\n",
        header.workload,
        header.seed,
        if header.traced {
            "traced, per-layer"
        } else {
            "end to end"
        },
        header.packets,
        header.connections,
        header.mean_packets,
        reps.join(" "),
        h.nproc,
        h.cpu_model,
        h.kernel,
        h.cpus_allowed_list,
        h.rustc,
        h.git_head,
    );
    if header.host_unstable {
        out.push_str("host_unstable: too few repetitions ran while the calibration loop read within a tenth of its fastest\n");
    }
    out.push_str(&format!(
        "  {:<38} {:>14} {:<10} {:>3} {:>14} {:>14} {:>14}\n",
        "metric", "value", "unit", "n", "min", "median", "max"
    ));
    for m in metrics.iter().chain(extras.iter()) {
        let s = &m.summary;
        out.push_str(&format!(
            "  {:<38} {:>14.3} {:<10} {:>3} {:>14.3} {:>14.3} {:>14.3}\n",
            m.name, s.value, m.unit, s.n, s.min, s.median, s.max
        ));
    }
    out.push_str(&format!(
        "operations: {} attempted, {} failed\n",
        tally.attempted, tally.failed
    ));
    for note in &tally.notes {
        out.push_str(&format!("  FAILED {note}\n"));
    }
    if let Some(path) = &header.span_file {
        out.push_str(&format!("spans: {path}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::spec::{Better, END_TO_END};

    fn spec(name: &'static str) -> MetricSpec {
        MetricSpec {
            name,
            unit: "ns",
            better: Better::Lower,
            bound: None,
        }
    }

    #[test]
    fn binding_demands_exactly_the_listed_names() {
        let specs = [spec("a"), spec("b")];
        let s = Summary::exact(1.0);
        assert_eq!(bind(&specs, &[("b", s), ("a", s)]).unwrap()[0].name, "a");
        assert!(bind(&specs, &[("a", s)])
            .unwrap_err()
            .contains("not measured"));
        assert!(bind(&specs, &[("a", s), ("b", s), ("c", s)])
            .unwrap_err()
            .contains("unknown metric"));
        assert!(bind(&specs, &[("a", s), ("a", s), ("b", s)])
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn the_contract_line_has_exactly_the_promised_keys() {
        let measured: Vec<(&'static str, Summary)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, Summary::exact(1.5 + i as f64)))
            .collect();
        let metrics = bind(&END_TO_END, &measured).unwrap();
        let tally = Tally {
            attempted: 10,
            failed: 0,
            notes: vec![],
        };
        let line = contract_line(&tally, &metrics);
        assert!(!line.contains('\n'));
        let Json::Obj(members) = parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(ms)) = members
            .iter()
            .find(|(k, _)| k == "metrics")
            .map(|(_, v)| v.clone())
        else {
            panic!("metrics is not an object")
        };
        assert_eq!(ms.len(), END_TO_END.len());
        for ((name, value), spec) in ms.iter().zip(&END_TO_END) {
            assert_eq!(name, spec.name);
            assert_eq!(value.get("unit"), Some(&Json::Str(spec.unit.into())));
            assert!(value.get("value").and_then(Json::as_f64).is_some());
        }
        let failed = Tally {
            attempted: 10,
            failed: 1,
            notes: vec!["rep: 1 missing".into()],
        };
        assert!(contract_line(&failed, &metrics).starts_with("{\"correct\": false"));
    }
}
