//! Domain scenario: an astronomer's Montage mosaic on a failure-prone
//! cluster — a miniature of the paper's Figure 6.
//!
//! Sweeps the Communication-to-Computation Ratio for a 300-task Montage
//! run on 18 processors and prints the relative expected makespan of
//! CkptAll and CkptNone over CkptSome, showing where each strategy wins.
//!
//! ```text
//! cargo run --release --example montage_study [-- <pfail>]
//! ```

use ckpt_workflows::prelude::*;
use pegasus::ccr::{ccr_grid, scale_to_ccr};

fn main() -> Result<(), PlanError> {
    let pfail: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.001);
    let bw = 1e8;
    let evaluator = PathApprox::default();
    println!("Montage, 300 tasks, 18 processors, pfail = {pfail}\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8} {:>8}",
        "CCR", "EM(some)", "EM(all)", "EM(none)", "all/some", "none/some", "ckpts", "best"
    );
    for ccr in ccr_grid(1e-3, 1.0, 10) {
        let mut w = pegasus::generate(WorkflowClass::Montage, 300, 42);
        scale_to_ccr(&mut w, ccr, bw);
        let lambda = lambda_from_pfail(pfail, w.dag.mean_weight());
        let platform = Platform::new(18, lambda, bw);
        let schedule = schedule_stage(&w, 18, &AllocateConfig::default())?;
        let curve = curve_stage(&w.dag, &platform)?;
        let ctx = CostCtx::with_curve(&w.dag, platform.model, bw, curve.as_ref());
        let some = assess(&ctx, &schedule, Strategy::CkptSome, &evaluator)?;
        let all = assess(&ctx, &schedule, Strategy::CkptAll, &evaluator)?;
        let none = assess(&ctx, &schedule, Strategy::CkptNone, &evaluator)?;
        let best = [
            ("CkptSome", some.expected_makespan),
            ("CkptAll", all.expected_makespan),
            ("CkptNone", none.expected_makespan),
        ]
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap()
        .0;
        println!(
            "{:>10.4} {:>11.0}s {:>11.0}s {:>11.0}s {:>10.3} {:>10.3} {:>8} {:>8}",
            ccr,
            some.expected_makespan,
            all.expected_makespan,
            none.expected_makespan,
            all.expected_makespan / some.expected_makespan,
            none.expected_makespan / some.expected_makespan,
            some.n_checkpoints,
            best
        );
    }
    println!(
        "\nReading: ratios > 1 mean CkptSome wins; CkptNone only wins when\n\
         checkpoints are expensive (high CCR) and failures rare (§VI-C)."
    );
    Ok(())
}
