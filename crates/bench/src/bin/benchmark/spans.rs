//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer, and the wrapping [`StateHandle`] that times the store
//! boundary. Nothing inside the product is instrumented.

use chc_core::StateHandle;
use chc_store::store::ApplyResult;
use chc_store::{Clock, InstanceId, Operation, StateKey, StoreError, TsSnapshot, Value};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One recorded interval. Spans of one packet share `packet` (its clock
/// counter); `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub packet: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the call carried (1 for `apply`, the batch size for
    /// `apply_batch`, the ops drained for `core.drain`, 0 otherwise): the
    /// count taken at the same boundary as the time.
    pub ops: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"packet\":{},\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
            self.id, parent, self.name, self.packet, self.start_ns, self.end_ns, self.ops
        )
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover. Children are recorded strictly inside their parent and
/// never overlap each other (one thread, call-stack order), so the covered
/// part is the sum of their durations. A span's id is its position in the
/// log; a parent id that names no span is ignored here and reported by
/// [`check_nesting`].
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| own.get_mut(p as usize)) {
            *parent = parent.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Check that every span lies inside its parent and that each root span's
/// duration equals the self times of its tree, to within `tolerance` (a
/// fraction). Returns the number of root spans checked.
pub fn check_nesting(spans: &[Span], tolerance: f64) -> Result<usize, String> {
    let own = self_times(spans);
    let mut tree_self = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.id as usize != i {
            return Err(format!("span {} sits at position {i} of the log", s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.id));
        }
        // Parents are recorded before their children, so walking up ends.
        let mut root = i;
        while let Some(p) = spans[root].parent {
            let (child, pi) = (&spans[root], p as usize);
            let parent = spans
                .get(pi)
                .filter(|_| pi < root)
                .ok_or_else(|| format!("span {} names a missing parent {p}", child.id))?;
            if child.start_ns < parent.start_ns || child.end_ns > parent.end_ns {
                return Err(format!("span {} leaks out of its parent {p}", child.id));
            }
            if child.packet != parent.packet {
                return Err(format!(
                    "span {} and its parent {p} name different packets",
                    child.id
                ));
            }
            root = pi;
        }
        tree_self[root] += own[i];
    }
    let mut roots = 0;
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        roots += 1;
        let (dur, sum) = (s.duration_ns() as f64, tree_self[i] as f64);
        if (dur - sum).abs() > tolerance * dur.max(1.0) {
            return Err(format!(
                "root span {}: {dur} ns but self times sum to {sum} ns",
                s.id
            ));
        }
    }
    Ok(roots)
}

#[derive(Default)]
struct LogInner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    /// Packet the open spans belong to; `None` while not sampling.
    packet: Option<u64>,
}

/// Span recorder shared by the inline loop and the store-handle wrappers of
/// one pass (single-threaded, hence `Rc<RefCell<_>>`).
#[derive(Clone)]
pub struct SpanLog {
    t0: Instant,
    inner: Rc<RefCell<LogInner>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            inner: Rc::default(),
        }
    }

    /// Start (`Some(packet)`) or stop (`None`) recording.
    pub fn sample(&self, packet: Option<u64>) {
        self.inner.borrow_mut().packet = packet;
    }

    /// Open a span under the innermost open one. `None` while not sampling.
    pub fn open(&self, name: &str) -> Option<usize> {
        let mut log = self.inner.borrow_mut();
        let packet = log.packet?;
        let slot = log.spans.len();
        let parent = log.stack.last().map(|&i| log.spans[i].id);
        let now = self.t0.elapsed().as_nanos() as u64;
        log.spans.push(Span {
            id: slot as u32,
            parent,
            name: name.to_string(),
            packet,
            start_ns: now,
            end_ns: now,
            ops: 0,
        });
        log.stack.push(slot);
        Some(slot)
    }

    /// Close the span `open` returned, recording the ops the call carried.
    pub fn close(&self, slot: Option<usize>, ops: u64) {
        let Some(slot) = slot else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        let mut log = self.inner.borrow_mut();
        log.spans[slot].end_ns = now;
        log.spans[slot].ops = ops;
        log.stack.retain(|&i| i != slot);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// What a [`TimedHandle`] measured at the store boundary over one pass.
#[derive(Debug, Default, Clone)]
pub struct StoreTimes {
    /// Duration of every single-op `apply`, in ns.
    pub apply_ns: Vec<u32>,
    /// Total time and ops of batched applies.
    pub batch_ns: u64,
    pub batch_ops: u64,
    /// Time in every other handle call (callbacks, ownership, nondet).
    pub other_ns: u64,
}

impl StoreTimes {
    /// Total time spent behind the handle.
    pub fn total_ns(&self) -> u64 {
        self.apply_ns.iter().map(|&n| n as u64).sum::<u64>() + self.batch_ns + self.other_ns
    }
}

/// A [`StateHandle`] that times every call into the handle it wraps and,
/// while the log is sampling, records `store.apply` / `store.apply_batch`
/// spans under whatever span is open (an NF's, or `core.drain`).
pub struct TimedHandle {
    pub inner: Box<dyn StateHandle>,
    pub log: SpanLog,
    pub times: Rc<RefCell<StoreTimes>>,
}

impl TimedHandle {
    fn other<R>(&self, f: impl FnOnce(&dyn StateHandle) -> R) -> R {
        let start = Instant::now();
        let out = f(self.inner.as_ref());
        self.times.borrow_mut().other_ns += start.elapsed().as_nanos() as u64;
        out
    }
}

impl StateHandle for TimedHandle {
    fn apply(
        &self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        let span = self.log.open("store.apply");
        let start = Instant::now();
        let out = self.inner.apply(requester, key, op, clock);
        let ns = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        self.log.close(span, 1);
        self.times.borrow_mut().apply_ns.push(ns);
        out
    }

    fn apply_batch(
        &self,
        requester: InstanceId,
        ops: &[(StateKey, Operation, Option<Clock>)],
    ) -> Vec<Result<ApplyResult, StoreError>> {
        let span = self.log.open("store.apply_batch");
        let start = Instant::now();
        let out = self.inner.apply_batch(requester, ops);
        let ns = start.elapsed().as_nanos() as u64;
        self.log.close(span, ops.len() as u64);
        let mut times = self.times.borrow_mut();
        times.batch_ns += ns;
        times.batch_ops += ops.len() as u64;
        out
    }

    fn register_callback(&self, key: &StateKey, instance: InstanceId) {
        self.other(|h| h.register_callback(key, instance))
    }
    fn release_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError> {
        self.other(|h| h.release_ownership(key, instance))
    }
    fn acquire_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError> {
        self.other(|h| h.acquire_ownership(key, instance))
    }
    fn owner_of(&self, key: &StateKey) -> Option<InstanceId> {
        self.other(|h| h.owner_of(key))
    }
    fn nondet(&self, clock: Clock, slot: u32, candidate: Value) -> Value {
        self.other(|h| h.nondet(clock, slot, candidate))
    }
    fn ts_snapshot(&self) -> TsSnapshot {
        self.other(|h| h.ts_snapshot())
    }
    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            packet: 7,
            start_ns: start,
            end_ns: end,
            ops: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // chain [0,100] → nf.a [10,40] → store [20,30]; nf.b [50,90].
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(check_nesting(&spans, 0.0), Ok(1));
    }

    #[test]
    fn nesting_check_rejects_leaks_orphans_and_foreign_packets() {
        let leak = vec![span(0, None, 0, 100), span(1, Some(0), 90, 120)];
        assert!(check_nesting(&leak, 0.02).is_err());
        let orphan = vec![span(0, None, 0, 100), span(1, Some(9), 10, 20)];
        assert!(check_nesting(&orphan, 0.02).is_err());
        let mut foreign = vec![span(0, None, 0, 100), span(1, Some(0), 10, 20)];
        foreign[1].packet = 8;
        assert!(check_nesting(&foreign, 0.02).is_err());
        let backwards = vec![span(0, None, 10, 5)];
        assert!(check_nesting(&backwards, 0.02).is_err());
    }

    #[test]
    fn the_log_nests_by_call_order_and_is_silent_when_not_sampling() {
        let log = SpanLog::new();
        assert!(log.open("ignored").is_none());
        log.sample(Some(42));
        let chain = log.open("chain");
        let nf = log.open("nf.x");
        let st = log.open("store.apply");
        log.close(st, 1);
        log.close(nf, 0);
        let nf2 = log.open("nf.y");
        log.close(nf2, 0);
        log.close(chain, 0);
        log.sample(None);
        assert!(log.open("ignored").is_none());
        let spans = log.spans();
        let parents: Vec<Option<u32>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(spans.iter().all(|s| s.packet == 42));
        assert_eq!(spans[2].ops, 1);
        assert_eq!(check_nesting(&spans, 0.0), Ok(1));
        assert!(spans[0].to_json().contains("\"parent\":null"));
        assert!(spans[2].to_json().contains("\"name\":\"store.apply\""));
    }
}
