//! Strategy advisor: the paper's concluding methodology ("our experimental
//! methodology provides the quantitative means to identify these cases…
//! so as to select which approach to use in practice", §VIII).
//!
//! Given a workflow class, size, processor count, per-task failure
//! probability and CCR, evaluates all strategies and recommends one.
//!
//! ```text
//! cargo run --release --example strategy_advisor -- \
//!     [--class ligo] [--tasks 300] [--procs 35] [--pfail 0.001] [--ccr 0.1]
//! ```

use ckpt_workflows::prelude::*;
use pegasus::ccr::scale_to_ccr;

fn arg<T: std::str::FromStr>(key: &str, default: T) -> T {
    let argv: Vec<String> = std::env::args().collect();
    argv.iter()
        .position(|a| a == key)
        .and_then(|i| argv.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), PlanError> {
    let class: WorkflowClass = arg("--class", "ligo".to_owned()).parse().expect("class");
    let tasks: usize = arg("--tasks", 300);
    let procs: usize = arg("--procs", 35);
    let pfail: f64 = arg("--pfail", 0.001);
    let ccr: f64 = arg("--ccr", 0.1);
    let bw = 1e8;

    let mut w = pegasus::generate(class, tasks, 42);
    scale_to_ccr(&mut w, ccr, bw);
    let lambda = lambda_from_pfail(pfail, w.dag.mean_weight());
    let platform = Platform::new(procs, lambda, bw);
    let schedule = schedule_stage(&w, procs, &AllocateConfig::default())?;
    let curve = curve_stage(&w.dag, &platform)?;
    let ctx = CostCtx::with_curve(&w.dag, platform.model, bw, curve.as_ref());
    let evaluator = PathApprox::default();

    println!(
        "workflow={class} tasks={} procs={procs} pfail={pfail} ccr={ccr}\n",
        w.n_tasks()
    );
    let mut results: Vec<(Strategy, f64, usize)> = Vec::new();
    for strategy in [Strategy::CkptAll, Strategy::CkptSome, Strategy::CkptNone] {
        let a = assess(&ctx, &schedule, strategy, &evaluator)?;
        results.push((strategy, a.expected_makespan, a.n_checkpoints));
    }
    println!(
        "{:10} {:>18} {:>13}",
        "strategy", "expected makespan", "checkpoints"
    );
    for (s, em, ck) in &results {
        println!("{:10} {:>17.0}s {:>13}", s.name(), em, ck);
    }
    let (best, em, _) = results.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
    let (_, some_em, _) = results
        .iter()
        .find(|(s, ..)| *s == Strategy::CkptSome)
        .unwrap();
    println!(
        "\nRecommendation: {} (expected makespan {:.0}s)",
        best.name(),
        em
    );
    if *best == Strategy::CkptNone {
        println!(
            "Note: CkptNone wins here because checkpoints are expensive and/or\n\
             failures rare — the bet is that re-running from scratch on the rare\n\
             failure is cheaper than always paying checkpoint I/O (§VI-C).\n\
             CkptSome would cost {:.1}% more but bounds re-execution.",
            100.0 * (some_em / em - 1.0)
        );
    }
    Ok(())
}
