//! Concurrency stress tests: every chc-telemetry primitive is written from
//! the engine's hot paths by many threads at once, so the lock-free
//! counters and histogram must lose nothing under real contention.

use chc_telemetry::{Counter, EventJournal, EventKind, StreamingHistogram};
use std::sync::Arc;
use std::thread;

const WRITERS: usize = 8;
const PER_WRITER: u64 = 50_000;

#[test]
fn counters_and_histogram_are_exact_under_eight_writers() {
    let counter = Arc::new(Counter::new());
    let hist = Arc::new(StreamingHistogram::new());

    thread::scope(|s| {
        for w in 0..WRITERS {
            let counter = Arc::clone(&counter);
            let hist = Arc::clone(&hist);
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    counter.add(2);
                    // Spread samples across many octaves so the writers
                    // contend on disjoint and shared buckets alike.
                    hist.record((w as u64 + 1) * (i % 1024 + 1));
                }
            });
        }
    });

    let n = WRITERS as u64 * PER_WRITER;
    assert_eq!(counter.get(), 2 * n, "counter lost increments");
    assert_eq!(hist.count(), n, "histogram lost samples");

    // Exact sum: every sample value is exact regardless of bucketing.
    let expected_sum: u64 = (0..WRITERS as u64)
        .map(|w| {
            (0..PER_WRITER)
                .map(|i| (w + 1) * (i % 1024 + 1))
                .sum::<u64>()
        })
        .sum();
    assert_eq!(hist.sum(), expected_sum, "histogram lost sample mass");

    // Bucket conservation: the per-bucket counts add back up to the total,
    // i.e. no sample fell between buckets or was double-counted.
    let bucketed: u64 = hist.nonzero_buckets().iter().map(|(_, c)| c).sum();
    assert_eq!(bucketed, n, "bucket counts do not conserve the total");

    // Min/max track the extreme samples exactly.
    assert_eq!(hist.min(), 1);
    assert_eq!(hist.max(), WRITERS as u64 * 1024);
}

#[test]
fn merged_shards_conserve_buckets() {
    // Per-thread histograms merged into one must agree with a histogram all
    // threads shared — the merge path is how per-vertex shards would
    // aggregate, so both layouts must bucket identically.
    let shared = Arc::new(StreamingHistogram::new());
    let parts: Vec<StreamingHistogram> = thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let local = StreamingHistogram::new();
                    for i in 0..1_000u64 {
                        let v = (w as u64 * 7919 + i * 31) % 1_000_000 + 1;
                        local.record(v);
                        shared.record(v);
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let merged = StreamingHistogram::new();
    for p in &parts {
        merged.merge(p);
    }
    assert_eq!(merged.count(), shared.count());
    assert_eq!(merged.sum(), shared.sum());
    assert_eq!(merged.nonzero_buckets(), shared.nonzero_buckets());
    assert_eq!(merged.summary(), shared.summary());
}

#[test]
fn journal_assigns_unique_ordered_sequence_numbers() {
    let journal = Arc::new(EventJournal::new());
    thread::scope(|s| {
        for w in 0..WRITERS {
            let journal = Arc::clone(&journal);
            s.spawn(move || {
                for i in 0..500u64 {
                    journal.record(
                        i,
                        EventKind::InstanceSpawn {
                            vertex: w as u32,
                            index: 0,
                            instance: i,
                        },
                    );
                }
            });
        }
    });
    let events = journal.snapshot();
    assert_eq!(events.len(), WRITERS * 500);
    // snapshot() does not sort: in record order the seqs must be exactly
    // 0..n with no gap or duplicate even though eight threads raced.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
}
