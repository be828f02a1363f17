//! Criterion benchmark of per-packet processing under the paper's
//! externalization models (the machinery behind Figures 8 and 10) and of the
//! simulated chain itself.

use chc_baselines::run_single_nf;
use chc_core::{ChainConfig, ExternalizationMode};
use chc_nf::Nat;
use chc_packet::{TraceConfig, TraceGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn chain_latency(c: &mut Criterion) {
    let trace = TraceGenerator::new(TraceConfig::small(77)).generate();
    let mut group = c.benchmark_group("single_nf_trace");
    group.sample_size(10);
    for mode in ExternalizationMode::all() {
        group.bench_function(mode.label(), |b| {
            b.iter(|| {
                let cfg = ChainConfig::with_mode(mode);
                let mut nat = Nat::default();
                let run = run_single_nf(&mut nat, &cfg, &trace, 8);
                black_box(run.processed);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, chain_latency);
criterion_main!(benches);
