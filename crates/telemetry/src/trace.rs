//! Causal packet tracing: span events recorded at every hop of a sampled
//! packet's life, and a Chrome trace-event (Perfetto-loadable) exporter.
//!
//! ## Span taxonomy
//!
//! One traced packet produces, in causal order:
//!
//! * `inject` — the root stamps the clock and lets go (root lane, zero
//!   duration),
//! * one `service` span per on-path vertex it crosses — the span covers the
//!   wall window from dequeue to egress, carries the measured queue wait as
//!   an argument (ring residency happens *between* lanes, so drawing it as
//!   a span on either lane would break per-lane nesting), and nests a
//!   `store` child span when the packet's NF made synchronous store round
//!   trips,
//! * `suppress` — a queue that recognized the clock as a duplicate (§5.3)
//!   and absorbed the copy,
//! * `replay_inject` — the supervisor re-injected the logged packet towards
//!   a failover replacement (supervisor lane); the replacement's processing
//!   then shows up as a `service` span with `replay:1`,
//! * `deliver` — sink arrival, with the final-hop wait and whether the copy
//!   was a duplicate.
//!
//! ## Lanes
//!
//! Each span lives on a *lane* — exported as one Chrome `tid` — owned by
//! exactly one OS thread at a time (root, one per NF instance id, the
//! supervisor, the sink). Because every lane is single-writer and recording
//! happens in program order, events within a lane are naturally
//! timestamp-monotone and properly nested; the exporter relies on this
//! instead of re-sorting, and [`validate_chrome_trace`] checks it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where a span happened. Exported as the Chrome `tid` of the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLane {
    /// The root (clock-stamping) thread.
    Root,
    /// One NF instance thread. `vertex` is `VertexId.0`, `instance` is
    /// `InstanceId.0`; replacements get their own lane under their fresh id.
    Vertex {
        /// Vertex the instance belongs to.
        vertex: u32,
        /// Instance id (unique across the run, replacements included).
        instance: u64,
    },
    /// The failover supervisor thread.
    Supervisor,
    /// The sink (delivery) thread.
    Sink,
}

impl TraceLane {
    /// Stable Chrome `tid` for the lane. Small fixed ids for the singleton
    /// lanes, then one per instance id.
    pub fn tid(&self) -> u64 {
        match self {
            TraceLane::Root => 0,
            TraceLane::Sink => 1,
            TraceLane::Supervisor => 2,
            TraceLane::Vertex { instance, .. } => 16 + instance,
        }
    }

    /// Human-readable lane name (the Chrome thread name).
    pub fn label(&self) -> String {
        match self {
            TraceLane::Root => "root".to_string(),
            TraceLane::Sink => "sink".to_string(),
            TraceLane::Supervisor => "supervisor".to_string(),
            TraceLane::Vertex { vertex, instance } => format!("v{vertex}.inst{instance}"),
        }
    }
}

/// What a span records. Durations live on [`SpanEvent`]; kinds carry the
/// per-kind arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root stamped and released the packet (zero duration).
    Inject,
    /// An instance dequeued and processed the packet. The span's duration
    /// is the full dequeue→egress wall window; `store_ns` of it was spent
    /// in synchronous store round trips (exported as a nested child span).
    Service {
        /// Measured wait between the previous hop's egress and this
        /// dequeue (ring residency + batching delay).
        queue_wait_ns: u64,
        /// Synchronous store RTT inside the span (≤ duration).
        store_ns: u64,
        /// True when this was replayed recovery traffic, not live service.
        replay: bool,
    },
    /// A queue suppressed this copy as a duplicate clock (zero duration).
    Suppress,
    /// The supervisor re-injected the logged packet for a replacement
    /// (zero duration).
    ReplayInject,
    /// The sink received the packet (zero duration).
    Deliver {
        /// Final-hop wait: last vertex egress → sink arrival.
        wait_ns: u64,
        /// True when the sink had already seen this clock.
        duplicate: bool,
    },
}

impl SpanKind {
    /// Stable span name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Inject => "inject",
            SpanKind::Service { .. } => "service",
            SpanKind::Suppress => "suppress",
            SpanKind::ReplayInject => "replay_inject",
            SpanKind::Deliver { .. } => "deliver",
        }
    }

    /// Append the per-kind arguments as `,"key":value` pairs — the one
    /// rendering both the JSONL line and the Chrome export use.
    fn write_args(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = match *self {
            SpanKind::Service {
                queue_wait_ns,
                store_ns,
                replay,
            } => write!(
                out,
                ",\"queue_wait_ns\":{queue_wait_ns},\"store_ns\":{store_ns},\"replay\":{}",
                replay as u8
            ),
            SpanKind::Deliver { wait_ns, duplicate } => write!(
                out,
                ",\"wait_ns\":{wait_ns},\"duplicate\":{}",
                duplicate as u8
            ),
            SpanKind::Inject | SpanKind::Suppress | SpanKind::ReplayInject => Ok(()),
        };
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace id — the packet's root clock counter.
    pub trace_id: u64,
    /// Lane (exported as the Chrome `tid`).
    pub lane: TraceLane,
    /// Kind and per-kind arguments.
    pub kind: SpanKind,
    /// Start, nanoseconds since the run epoch.
    pub t_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
}

impl SpanEvent {
    /// Render as one JSONL line in the journal schema (`seq`, `t_ns`,
    /// `event`), so trace spans and journal events share one consumer
    /// format. `seq` continues the journal's global numbering.
    pub fn to_json(&self, seq: u64) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"t_ns\":{},\"event\":\"trace_span\",\"trace_id\":{},\"span\":\"{}\",\"lane\":\"{}\",\"dur_ns\":{}",
            seq,
            self.t_ns,
            self.trace_id,
            self.kind.name(),
            self.lane.label(),
            self.dur_ns
        );
        self.kind.write_args(&mut s);
        s.push('}');
        s
    }
}

/// Default bound on collected spans (~1M ≈ 56 MB); beyond it spans are
/// counted as dropped rather than allocated without limit.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

/// Thread-safe collector of span events.
///
/// Recording takes a short mutex: tracing is flow-sampled, so even at full
/// sampling the rate is bounded by the packet rate, and traced runs are
/// diagnostic runs, not the overhead-measured hot path.
#[derive(Debug)]
pub struct TraceCollector {
    spans: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
    capacity: usize,
}

impl Default for TraceCollector {
    fn default() -> TraceCollector {
        TraceCollector::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl TraceCollector {
    /// An empty collector with the default capacity.
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    /// An empty collector bounded at `capacity` spans.
    pub fn with_capacity(capacity: usize) -> TraceCollector {
        TraceCollector {
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Record one span (counted as dropped once the collector is full).
    pub fn record(&self, span: SpanEvent) {
        let mut spans = self.spans.lock().expect("trace collector poisoned");
        if spans.len() >= self.capacity {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(span);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("trace collector poisoned").len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans rejected because the collector was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of every span, in record order (per lane this is the owning
    /// thread's program order).
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        self.spans.lock().expect("trace collector poisoned").clone()
    }
}

/// Summary counts of an exported trace, for reports and CI checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceShape {
    /// Trace events emitted (metadata excluded).
    pub events: usize,
    /// `B` (span begin) events.
    pub begins: usize,
    /// `E` (span end) events.
    pub ends: usize,
    /// Distinct lanes (`tid`s).
    pub lanes: usize,
}

/// Render spans as Chrome trace-event JSON (the `traceEvents` object form
/// Perfetto and `chrome://tracing` load directly).
///
/// Events are grouped by lane and emitted in record order within each lane,
/// which per the collector's single-writer-per-lane discipline yields
/// monotone timestamps and balanced `B`/`E` nesting per `tid`. Timestamps
/// are microseconds with nanosecond decimals, as the format requires.
/// Instant hops are zero-length `B`/`E` pairs; a `service` span with store
/// time nests a `store` child at its start.
pub fn chrome_trace_json(spans: &[SpanEvent]) -> String {
    let mut tids: Vec<(u64, TraceLane)> = Vec::new();
    for s in spans {
        let tid = s.lane.tid();
        if !tids.iter().any(|(t, _)| *t == tid) {
            tids.push((tid, s.lane));
        }
    }
    tids.sort_by_key(|(t, _)| *t);

    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, line: &str, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };

    for (tid, lane) in &tids {
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                lane.label()
            ),
            &mut first,
        );
    }

    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    for (tid, _) in &tids {
        for s in spans.iter().filter(|s| s.lane.tid() == *tid) {
            let t0 = us(s.t_ns);
            let t1 = us(s.t_ns + s.dur_ns);
            let mut begin = format!(
                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{t0},\"name\":\"{}\",\
                 \"args\":{{\"trace_id\":{}",
                s.kind.name(),
                s.trace_id
            );
            s.kind.write_args(&mut begin);
            begin.push_str("}}");
            push(&mut out, &begin, &mut first);

            if let SpanKind::Service { store_ns, .. } = s.kind {
                // Nest the store child at the span start; its exact offsets
                // inside the service window are not recorded (store RTT is
                // accumulated per packet), only its total share.
                let store_ns = store_ns.min(s.dur_ns);
                if store_ns > 0 {
                    let tstore = us(s.t_ns + store_ns);
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{t0},\
                             \"name\":\"store\",\"args\":{{\"trace_id\":{}}}}}",
                            s.trace_id
                        ),
                        &mut first,
                    );
                    push(
                        &mut out,
                        &format!("{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{tstore}}}"),
                        &mut first,
                    );
                }
            }
            push(
                &mut out,
                &format!("{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{t1}}}"),
                &mut first,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Validate the shape of a Chrome trace-event JSON document produced by
/// [`chrome_trace_json`] (one event object per line): every `E` closes an
/// open `B` on the same `tid`, every `tid`'s stack is empty at the end, and
/// timestamps never regress within a `tid`. Returns the counted
/// [`TraceShape`] or a description of the first problem.
pub fn validate_chrome_trace(json: &str) -> Result<TraceShape, String> {
    use std::collections::HashMap;
    let field = |line: &str, key: &str| -> Option<String> {
        let pat = format!("\"{key}\":");
        let at = line.find(&pat)? + pat.len();
        let rest = &line[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_string())
    };

    let mut shape = TraceShape::default();
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    for (lineno, line) in json.lines().enumerate() {
        let Some(ph) = field(line, "ph") else {
            continue;
        };
        if ph == "M" {
            continue;
        }
        let tid: u64 = field(line, "tid")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("line {}: event without tid", lineno + 1))?;
        let ts: f64 = field(line, "ts")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("line {}: event without ts", lineno + 1))?;
        shape.events += 1;
        let prev = last_ts.entry(tid).or_insert(ts);
        if ts < *prev {
            return Err(format!(
                "line {}: ts regressed on tid {tid}: {ts} after {prev}",
                lineno + 1
            ));
        }
        *prev = ts;
        match ph.as_str() {
            "B" => {
                shape.begins += 1;
                let name = field(line, "name").unwrap_or_default();
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                shape.ends += 1;
                let stack = stacks.entry(tid).or_default();
                if stack.pop().is_none() {
                    return Err(format!(
                        "line {}: E without matching B on tid {tid}",
                        lineno + 1
                    ));
                }
            }
            other => {
                return Err(format!("line {}: unexpected phase {other:?}", lineno + 1));
            }
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} unclosed span(s): {:?}",
                stack.len(),
                stack
            ));
        }
    }
    shape.lanes = stacks.len();
    if shape.begins != shape.ends {
        return Err(format!(
            "unbalanced events: {} B vs {} E",
            shape.begins, shape.ends
        ));
    }
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(trace_id: u64, instance: u64, t_ns: u64, dur: u64, store: u64) -> SpanEvent {
        SpanEvent {
            trace_id,
            lane: TraceLane::Vertex {
                vertex: 1,
                instance,
            },
            kind: SpanKind::Service {
                queue_wait_ns: 40,
                store_ns: store,
                replay: false,
            },
            t_ns,
            dur_ns: dur,
        }
    }

    #[test]
    fn collector_caps_and_counts_drops() {
        let tc = TraceCollector::with_capacity(2);
        for i in 0..5 {
            tc.record(service(i, 0, i * 100, 50, 0));
        }
        assert_eq!(tc.len(), 2);
        assert_eq!(tc.dropped(), 3);
        assert_eq!(tc.snapshot().len(), 2);
    }

    #[test]
    fn export_validates_and_counts() {
        let tc = TraceCollector::new();
        tc.record(SpanEvent {
            trace_id: 7,
            lane: TraceLane::Root,
            kind: SpanKind::Inject,
            t_ns: 100,
            dur_ns: 0,
        });
        tc.record(service(7, 3, 250, 500, 120));
        tc.record(SpanEvent {
            trace_id: 7,
            lane: TraceLane::Sink,
            kind: SpanKind::Deliver {
                wait_ns: 90,
                duplicate: false,
            },
            t_ns: 900,
            dur_ns: 0,
        });
        let json = chrome_trace_json(&tc.snapshot());
        let shape = validate_chrome_trace(&json).expect("valid trace");
        // inject B/E + service B/E + nested store B/E + deliver B/E.
        assert_eq!(shape.begins, 4);
        assert_eq!(shape.ends, 4);
        assert_eq!(shape.events, 8);
        assert_eq!(shape.lanes, 3);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("v1.inst3"));
        assert!(json.contains("\"trace_id\":7"));
    }

    #[test]
    fn validator_rejects_regressions_and_imbalance() {
        // ts regression within one tid.
        let bad = "{\"ph\":\"B\",\"pid\":1,\"tid\":5,\"ts\":10.0,\"name\":\"a\"}\n\
                   {\"ph\":\"E\",\"pid\":1,\"tid\":5,\"ts\":9.0}\n";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("regressed"));
        // E without B.
        let bad = "{\"ph\":\"E\",\"pid\":1,\"tid\":5,\"ts\":9.0}\n";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("without matching B"));
        // Unclosed span.
        let bad = "{\"ph\":\"B\",\"pid\":1,\"tid\":5,\"ts\":9.0,\"name\":\"a\"}\n";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("unclosed"));
    }

    #[test]
    fn jsonl_lines_share_the_journal_schema() {
        let line = service(42, 1, 10, 20, 5).to_json(9);
        assert!(line.starts_with("{\"seq\":9,\"t_ns\":10,\"event\":\"trace_span\""));
        assert!(line.contains("\"trace_id\":42"));
        assert!(line.contains("\"span\":\"service\""));
        assert!(line.contains("\"queue_wait_ns\":40"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn both_exports_render_the_same_span_arguments() {
        let deliver = SpanEvent {
            trace_id: 7,
            lane: TraceLane::Sink,
            kind: SpanKind::Deliver {
                wait_ns: 90,
                duplicate: true,
            },
            t_ns: 900,
            dur_ns: 0,
        };
        let service = service(42, 1, 10, 20, 5);
        assert_eq!(
            service.to_json(9),
            "{\"seq\":9,\"t_ns\":10,\"event\":\"trace_span\",\"trace_id\":42,\"span\":\"service\",\
             \"lane\":\"v1.inst1\",\"dur_ns\":20,\"queue_wait_ns\":40,\"store_ns\":5,\"replay\":0}"
        );
        assert_eq!(
            deliver.to_json(3),
            "{\"seq\":3,\"t_ns\":900,\"event\":\"trace_span\",\"trace_id\":7,\"span\":\"deliver\",\
             \"lane\":\"sink\",\"dur_ns\":0,\"wait_ns\":90,\"duplicate\":1}"
        );
        let json = chrome_trace_json(&[service, deliver]);
        for begin in [
            "{\"ph\":\"B\",\"pid\":1,\"tid\":17,\"ts\":0.010,\"name\":\"service\",\
             \"args\":{\"trace_id\":42,\"queue_wait_ns\":40,\"store_ns\":5,\"replay\":0}}",
            "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0.900,\"name\":\"deliver\",\
             \"args\":{\"trace_id\":7,\"wait_ns\":90,\"duplicate\":1}}",
        ] {
            assert!(
                json.lines().any(|l| l.trim_end_matches(',') == begin),
                "{json}"
            );
        }
    }

    #[test]
    fn store_child_is_clamped_to_the_service_window() {
        // store_ns longer than the span (clock jitter) must still nest.
        let json = chrome_trace_json(&[service(1, 0, 100, 50, 500)]);
        validate_chrome_trace(&json).expect("clamped store child stays nested");
    }
}
