//! Criterion bench: §II-C segment coalescing (`ckpt_core::coalesce`) on
//! the instances where it used to dominate a grid cell. Montage's wide
//! bipartite levels give segments thousands of incoming task edges, so
//! a per-edge duplicate scan made coalescing quadratic in segment
//! degree; the epoch-stamped edge dedup makes it linear in the task-DAG
//! edge count. CkptAll is the edge-heaviest plan (one segment per task);
//! the DP plan is what the figure grids coalesce.

use ckpt_core::{
    allocate, coalesce, lambda_from_pfail, plan_with_policy, AllocateConfig, CheckpointPolicy,
    CkptAllPolicy, CostCtx, DpOptimalPolicy, PolicyScratch,
};
use criterion::{criterion_group, criterion_main, Criterion};
use pegasus::{generate, WorkflowClass};

fn bench_coalesce(c: &mut Criterion) {
    let mut group = c.benchmark_group("coalesce");
    group.sample_size(20);
    let cases: [(&str, WorkflowClass, usize, usize, &dyn CheckpointPolicy); 3] = [
        (
            "montage-1000-ckptall",
            WorkflowClass::Montage,
            1000,
            36,
            &CkptAllPolicy,
        ),
        (
            "montage-1000-dp",
            WorkflowClass::Montage,
            1000,
            36,
            &DpOptimalPolicy,
        ),
        (
            "genome-300-dp",
            WorkflowClass::Genome,
            300,
            18,
            &DpOptimalPolicy,
        ),
    ];
    for (id, class, n, procs, policy) in cases {
        let w = generate(class, n, 1);
        let sched = allocate(&w, procs, &AllocateConfig::default());
        let lambda = lambda_from_pfail(1e-3, w.dag.mean_weight());
        let ctx = CostCtx::exponential(&w.dag, lambda, 1e7);
        let plan = plan_with_policy(&ctx, &sched, policy, &mut PolicyScratch::new());
        group.bench_function(id, |b| {
            b.iter(|| coalesce(&ctx, &sched, &plan).expect("plans end every superchain"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_coalesce);
criterion_main!(benches);
