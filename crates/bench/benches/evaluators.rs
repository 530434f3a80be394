//! Criterion bench: the four expected-makespan evaluators of §VI-B on a
//! coalesced Genome-300 CkptAll graph (the paper's speed comparison:
//! PathApprox ≪ Normal < Dodin ≪ MonteCarlo).

use ckpt_bench::{instance, BANDWIDTH};
use ckpt_core::stage::{schedule_stage, segment_graph_for};
use ckpt_core::{lambda_from_pfail, AllocateConfig, CkptAllPolicy, CostCtx};
use criterion::{criterion_group, criterion_main, Criterion};
use pegasus::WorkflowClass;
use probdag::{Dodin, Evaluator, MonteCarlo, NormalSculli, PathApprox, ProbDag};

/// The coalesced CkptAll graph of a `class`-300 instance at CCR 1e-3,
/// scheduled on 18 processors with pfail 0.01 (seed 42).
fn ckptall_graph(class: WorkflowClass) -> ProbDag {
    let w = instance(class, 300, 1e-3, 42);
    let cfg = AllocateConfig {
        seed: 42,
        ..Default::default()
    };
    let schedule = schedule_stage(&w, 18, &cfg).unwrap();
    let lambda = lambda_from_pfail(0.01, w.dag.mean_weight());
    let ctx = CostCtx::exponential(&w.dag, lambda, BANDWIDTH);
    segment_graph_for(&ctx, &schedule, &CkptAllPolicy)
        .unwrap()
        .pdag
}

fn bench_evaluators(c: &mut Criterion) {
    let pdag = ckptall_graph(WorkflowClass::Genome);

    let mut group = c.benchmark_group("evaluators-genome300");
    group.bench_function("pathapprox", |b| {
        b.iter(|| PathApprox::default().expected_makespan(&pdag))
    });
    group.bench_function("normal", |b| {
        b.iter(|| NormalSculli.expected_makespan(&pdag))
    });
    group.bench_function("dodin", |b| {
        b.iter(|| Dodin::default().expected_makespan(&pdag))
    });
    group.sample_size(10);
    group.bench_function("montecarlo-10k", |b| {
        let mc = MonteCarlo {
            trials: 10_000,
            seed: 1,
            threads: 0,
        };
        b.iter(|| mc.run(&pdag).mean)
    });
    group.finish();
}

fn bench_pathapprox_montage(c: &mut Criterion) {
    // Montage's complete-bipartite levels are PathApprox's worst case
    // (wide pred lists in the K-way merge); K = 256 is the production
    // default. `reused` holds one evaluator across iterations (the
    // steady-state assess loop: arena + heap + bitsets at their
    // high-water marks, no per-run allocations); `fresh` constructs a
    // new evaluator per run.
    let pdag = ckptall_graph(WorkflowClass::Montage);

    let mut group = c.benchmark_group("pathapprox-montage300-k256");
    let reused = PathApprox::default();
    group.bench_function("reused", |b| b.iter(|| reused.expected_makespan(&pdag)));
    group.bench_function("fresh", |b| {
        b.iter(|| PathApprox::default().expected_makespan(&pdag))
    });
    group.finish();
}

criterion_group!(benches, bench_evaluators, bench_pathapprox_montage);
criterion_main!(benches);
