//! `plan-forkjoin`: one plan of a ~2·10⁵-task fork-join workflow
//! through the plain stage functions, single-threaded — the only
//! workload where `generate` and `schedule` do real work and where
//! memory is the story.

use std::collections::BTreeMap;
use std::time::Instant;

use ckpt_bench::BANDWIDTH;
use ckpt_core::stage::{
    curve_stage, evaluate_stage, placement_stage, schedule_stage, segment_graph_stage,
};
use ckpt_core::{
    lambda_from_pfail, AllocateConfig, CostCtx, DpOptimalPolicy, Platform, PolicyScratch, StageId,
    KERNEL_MIN_LEN,
};
use mspg::linearize::Linearizer;
use probdag::PathApprox;

use crate::ledger::{fold_rounds, Ledger};
use crate::measure::{cpu_seconds, rss_mib, since, Cores};
use crate::{Config, Outcome, Timed};

/// Fork-join levels and width: 199 × (1000 + 1) + 1 = 199 200 tasks.
const LEVELS: usize = 199;
const WIDTH: usize = 1000;
/// The instance is fixed: the digest below pins its plan exactly, so the
/// workload seed does not change this workload's input.
const INSTANCE_SEED: u64 = 42;
const PROCS: usize = 8;
const PFAIL: f64 = 1e-3;
const SETUPS: usize = 5;

/// `(placement digest, expected-makespan bits)` of the plan, as
/// `planscale --tasks 200000 --shape forkjoin` prints them.
const REFERENCE: (u64, u64) = (0xac12_2480_254a_3702, 0x4110_c1ab_c50e_8fa4);

/// One plan: generate → schedule → curve → placement → segment graph →
/// evaluate, every call timed into `lg`. Returns `(tasks, digest, em bits)`.
fn plan(lg: &mut Ledger) -> (usize, u64, u64) {
    let w = lg.call(StageId::Generate, || {
        pegasus::generic::fork_join(LEVELS, WIDTH, INSTANCE_SEED)
    });
    lg.count("generate.tasks", w.n_tasks());
    let cfg = AllocateConfig {
        linearizer: Linearizer::Structural,
        seed: INSTANCE_SEED,
    };
    let schedule = lg
        .call(StageId::Schedule, || schedule_stage(&w, PROCS, &cfg))
        .expect("schedule stage");
    lg.count("schedule.superchains", schedule.superchains.len());
    let lambda = lambda_from_pfail(PFAIL, w.dag.mean_weight());
    let platform = Platform::new(PROCS, lambda, BANDWIDTH);
    let curve = lg
        .call(StageId::Curve, || curve_stage(&w.dag, &platform))
        .expect("curve stage");
    let ctx = CostCtx {
        dag: &w.dag,
        model: platform.model,
        bandwidth: platform.bandwidth,
        curve: curve.as_ref(),
        budget: None,
    };
    let plan = lg
        .call(StageId::Placement, || {
            placement_stage(
                &ctx,
                &schedule,
                &DpOptimalPolicy,
                &mut PolicyScratch::new(),
                1,
            )
        })
        .expect("placement stage");
    lg.count("placement.checkpoints", plan.n_checkpoints());
    lg.count(
        "placement.kernel_eligible_chains",
        schedule
            .superchains
            .iter()
            .filter(|c| c.tasks.len() >= KERNEL_MIN_LEN)
            .count(),
    );
    let sg = lg
        .call(StageId::SegmentGraph, || {
            segment_graph_stage(&ctx, &schedule, &plan)
        })
        .expect("segment-graph stage");
    lg.count("segment_graph.segments", sg.segments.len());
    lg.count("segment_graph.edges", sg.pdag.n_edges());
    let em = lg
        .call(StageId::EvalAnalytic, || {
            evaluate_stage(&sg, &PathApprox::default())
        })
        .expect("evaluate stage");
    lg.count("eval_analytic.nodes", sg.pdag.n_nodes());
    let digest = seedmix::digest::plan_digest(&plan.ckpt_after);
    (w.n_tasks(), digest, em.to_bits())
}

fn is_reference(digest: u64, em_bits: u64) -> bool {
    (digest, em_bits) == REFERENCE
}

pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        return traced(cfg);
    }
    // Set-up: build the input workflow.
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(pegasus::generic::fork_join(LEVELS, WIDTH, INSTANCE_SEED));
            since(t0)
        })
        .collect();
    let mut walls = Vec::new();
    let mut failed = 0u64;
    let mut last = (0, 0, 0);
    let cores = Cores::allowed();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    while walls.is_empty() || since(t0) < cfg.seconds {
        cores.pin(walls.len());
        let t = Instant::now();
        last = plan(&mut Ledger::new(false));
        walls.push(since(t));
        failed += u64::from(!is_reference(last.1, last.2));
    }
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mib = rss_mib().1;
    eprintln!(
        "perfbench: plan-forkjoin tasks={} digest={:016x} em_bits={:016x}",
        last.0, last.1, last.2
    );
    let timed = Timed {
        setups,
        round_rates: walls.iter().map(|w| 1.0 / w).collect(),
        latencies: walls.clone(),
        ops: walls.len() as u64,
        cpu_s,
        peak_rss_mib,
    };
    Outcome {
        attempted: walls.len() as u64,
        failed,
        metrics: timed.metrics(),
    }
}

/// Rounds of one untraced and one traced plan on the same warm heap. A
/// first traced plan on the fresh heap, before any round, supplies the
/// memory deltas: later plans reuse heap the earlier ones freed.
fn traced(cfg: &Config) -> Outcome {
    let mut probe = Ledger::new(true);
    let reference = plan(&mut probe);
    let memory: Vec<(String, f64)> = probe
        .metrics()
        .into_iter()
        .filter(|(k, _)| k.ends_with("_delta_mib"))
        .collect();
    let mut per_round: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut attempted = 1u64;
    let mut failed = u64::from(!is_reference(reference.1, reference.2));
    let t0 = Instant::now();
    while per_round.is_empty() || since(t0) < cfg.seconds {
        // Alternate which plan goes first, so heap warmth favours neither.
        let mut lg = Ledger::new(false);
        let timed_plan = |lg: &mut Ledger| {
            let t = Instant::now();
            let out = plan(lg);
            (out, since(t))
        };
        let ((plain_out, plain_wall), (traced_out, traced_wall)) =
            if per_round.len().is_multiple_of(2) {
                let plain = timed_plan(&mut Ledger::new(false));
                (plain, timed_plan(&mut lg))
            } else {
                let traced = timed_plan(&mut lg);
                (timed_plan(&mut Ledger::new(false)), traced)
            };
        attempted += 1;
        let mismatch = traced_out != plain_out;
        failed += u64::from(mismatch || !is_reference(plain_out.1, plain_out.2));
        let mut m = lg.metrics();
        m.extend(memory.iter().cloned());
        for (k, v) in [
            ("memo.stage_execs_per_query", lg.calls_total()),
            ("trace.overhead_frac", traced_wall / plain_wall - 1.0),
            ("trace.ops_per_round", 1.0),
            ("trace.replay_mismatches", f64::from(u8::from(mismatch))),
        ] {
            m.insert(k.to_owned(), v);
        }
        per_round.push(m);
    }
    let mut metrics = fold_rounds(&per_round);
    metrics.insert("trace.rounds".into(), per_round.len() as f64);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}
