//! Criterion bench: discrete-event simulator throughput (per-execution
//! cost of the checkpointed renewal simulation and the CkptNone cascade
//! engine).

use ckpt_bench::{instance, BANDWIDTH};
use ckpt_core::stage::{schedule_stage, segment_graph_for};
use ckpt_core::{lambda_from_pfail, AllocateConfig, CostCtx, DpOptimalPolicy};
use criterion::{criterion_group, criterion_main, Criterion};
use failsim::{simulate_none, simulate_segments, ExpFailures};

fn bench_sim(c: &mut Criterion) {
    let w = instance(pegasus::WorkflowClass::Genome, 300, 1e-3, 42);
    let cfg = AllocateConfig {
        seed: 42,
        ..Default::default()
    };
    let schedule = schedule_stage(&w, 18, &cfg).unwrap();
    let lambda = lambda_from_pfail(0.001, w.dag.mean_weight());
    let ctx = CostCtx::exponential(&w.dag, lambda, BANDWIDTH);
    let sg = segment_graph_for(&ctx, &schedule, &DpOptimalPolicy).unwrap();

    let mut group = c.benchmark_group("failsim-genome300");
    group.bench_function("segments-one-run", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            simulate_segments(&sg, lambda, seed)
        })
    });
    group.bench_function("ckptnone-one-run", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut src = ExpFailures::new(lambda, seed);
            simulate_none(&w.dag, &schedule, &mut src, 1_000_000).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
