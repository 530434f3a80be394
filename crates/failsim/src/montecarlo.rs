//! Parallel Monte Carlo over simulated executions.

use ckpt_core::{FailureModel, Schedule, SegmentGraph};
use mspg::Dag;

use crate::failure::ModelFailures;
use crate::metrics::{ExecStats, McStats};
use crate::none_exec::{NoneState, NoneStatic, RunOutcome};
use crate::segment_exec::simulate_segments_model;

/// Monte Carlo configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of simulated executions (for the splitting estimator:
    /// number of root trajectories).
    pub runs: usize,
    /// Base seed; run `i` derives an independent stream.
    pub seed: u64,
    /// Worker threads (0 = all available cores). A **pure speed knob**:
    /// every run owns its own seed stream and result slot, and
    /// aggregation folds in canonical run order, so the estimate is a
    /// bit-identical function of `(seed, runs)` for any thread budget
    /// (pinned by `sim_properties` proptests).
    pub threads: usize,
    /// Failure budget per CkptNone run (see
    /// [`crate::none_exec::Diverged`]).
    pub max_failures: usize,
    /// Which CkptNone estimator to run. Ignored by the segment-graph
    /// engines (checkpointed runs have no rare-cascade regime worth
    /// splitting for).
    pub estimator: Estimator,
    /// Cascade-tail threshold for [`NoneMcStats::p_tail`]: the CkptNone
    /// estimators also report `P(n_failures ≥ tail_at)`, the
    /// probability that a trajectory suffers a deep failure cascade.
    /// This is the statistic multilevel splitting is built for — naive
    /// sampling needs `≫ 1/p` runs to see one such cascade, while every
    /// splitting root contributes a smoothed weighted estimate. The
    /// default `0` makes it trivially 1 (every run has ≥ 0 failures).
    pub tail_at: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            runs: 1000,
            seed: 0xF00D,
            threads: 0,
            max_failures: 1_000_000,
            estimator: Estimator::Naive,
            tail_at: 0,
        }
    }
}

/// CkptNone estimator selector (see [`SimConfig::estimator`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimator {
    /// Classic Monte Carlo: `runs` independent trajectories.
    Naive,
    /// Multilevel splitting on the failure count, for rare-event
    /// regimes (small `pfail`, wear-out models) where the makespan tail
    /// is driven by cascades that almost no naive run samples. Each
    /// root trajectory pauses just before its `stride`-th,
    /// `2·stride`-th, … failure; at each level the trajectory is cloned
    /// `factor` ways and every clone's weight is divided by `factor`,
    /// so the weighted leaf aggregate per root is an unbiased — and
    /// much smoother — estimate of the root's conditional expectation.
    /// Clones share the pending (already-drawn) event heap, which is
    /// part of the state being conditioned on; their *future* failure
    /// draws come from fresh `seedmix`-derived streams.
    Splitting(SplitConfig),
}

/// Multilevel-splitting parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitConfig {
    /// Clones per level (≥ 2); each passage divides the weight by this.
    pub factor: usize,
    /// Failure-count spacing between levels (≥ 1): level `j` sits just
    /// before failure `j·stride`.
    pub stride: usize,
    /// Maximum number of split levels per root (bounds the tree at
    /// `factor^max_levels` leaves; past the last level trajectories run
    /// to completion).
    pub max_levels: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        // Worst-case 2⁶ = 64 leaves per root: strong tail smoothing in
        // rare-event regimes (where almost no root reaches level 1, so
        // the *expected* tree is barely larger than a naive run) while
        // staying bounded if pointed at a failure-dense regime by
        // mistake.
        SplitConfig {
            factor: 2,
            stride: 1,
            max_levels: 6,
        }
    }
}

fn run_seed(base: u64, i: usize) -> u64 {
    seedmix::stream_seed(base, i as u64)
}

/// Runs `f(i)` for every replication on the configured thread budget and
/// returns the per-run statistics **in canonical run order** — run `i`
/// owns its own `seedmix` stream and slot, so the returned vector (and
/// therefore every fold over it) is a pure function of `(seed, runs)`,
/// never of the thread count. Workers claim runs off a shared queue
/// (CkptNone runs vary by orders of magnitude in cost, so static
/// striding would idle workers).
fn parallel_map<F>(runs: usize, threads: usize, f: F) -> Vec<ExecStats>
where
    F: Fn(usize) -> ExecStats + Sync,
{
    seedmix::parallel_slots(runs, threads, f)
}

/// Monte Carlo over checkpointed (segment-graph) executions under
/// exponential failures of rate `lambda`.
pub fn montecarlo_segments(sg: &SegmentGraph, lambda: f64, cfg: &SimConfig) -> McStats {
    montecarlo_segments_model(sg, &FailureModel::exponential(lambda), cfg)
}

/// Monte Carlo over checkpointed executions under an arbitrary
/// [`FailureModel`].
pub fn montecarlo_segments_model(
    sg: &SegmentGraph,
    model: &FailureModel,
    cfg: &SimConfig,
) -> McStats {
    let runs = parallel_map(cfg.runs, cfg.threads, |i| {
        simulate_segments_model(sg, model, run_seed(cfg.seed, i))
    });
    // The canonical fold is the partition-invariance anchor (DESIGN.md
    // §9): worth its own span so traces show reduce vs simulate cost.
    obs::span::timed("mc.reduce", || McStats::from_runs(&runs)).0
}

/// [`montecarlo_segments_model`] with a cooperative abort predicate,
/// polled once per replication (replications are the natural cadence:
/// each costs far more than the poll). Returns `None` if `abort`
/// reported true at any point — a partial aggregate would be silently
/// biased toward the cheap runs, so an exceeded deadline yields *no*
/// estimate, never a wrong one. With `abort` constantly false the
/// result is bit-identical to [`montecarlo_segments_model`]: same
/// per-run seed streams, same canonical reduction order.
///
/// The abort signal is a plain predicate (not an unwind): replication
/// workers run under `seedmix::parallel_slots`, and an unwinding abort
/// would re-raise through the scoped join — the flag keeps the fast
/// path branch-predictable and the shutdown orderly.
pub fn montecarlo_segments_model_abortable(
    sg: &SegmentGraph,
    model: &FailureModel,
    cfg: &SimConfig,
    abort: &(dyn Fn() -> bool + Sync),
) -> Option<McStats> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let aborted = AtomicBool::new(false);
    let runs = parallel_map(cfg.runs, cfg.threads, |i| {
        // Once any worker observes the abort, every remaining claimed
        // run short-circuits to a placeholder; the whole vector is
        // discarded below.
        if aborted.load(Ordering::Relaxed) || abort() {
            aborted.store(true, Ordering::Relaxed);
            return ExecStats::default();
        }
        simulate_segments_model(sg, model, run_seed(cfg.seed, i))
    });
    if aborted.load(Ordering::Relaxed) {
        None
    } else {
        Some(obs::span::timed("mc.reduce", || McStats::from_runs(&runs)).0)
    }
}

/// Monte Carlo over CkptNone executions. Diverged runs (failure budget
/// exhausted) are censored at the budget and reported separately.
///
/// Censoring contract (uniform whether *some* or *all* runs diverge):
///
/// * `stats.mean_makespan`, `stats.stderr`, `stats.runs` cover the
///   **converged** runs only; when every run diverges (the regime where
///   the paper's plots clip CkptNone — reachable under wear-out failure
///   models) they are `f64::INFINITY`, `f64::INFINITY`, and `0`.
/// * `stats.mean_failures` averages over **all** runs, counting each
///   diverged run at its censored failure count (the budget at which it
///   was cut off). This is a *lower bound* on the true mean: a diverged
///   run would have kept failing past the budget.
/// * `stats.mean_wasted` averages over **converged** runs only (0 when
///   none converged): diverged runs do not track wasted time, so
///   including their zeros would silently bias the column down.
pub struct NoneMcStats {
    /// Aggregate over the simulated runs, censored per the contract
    /// above.
    pub stats: McStats,
    /// Number of runs that exceeded the failure budget.
    pub diverged: usize,
    /// Estimated `P(n_failures ≥ tail_at)` (see [`SimConfig::tail_at`]),
    /// averaged over **all** runs — diverged runs enter at their
    /// censored failure count, so they count toward the tail whenever
    /// the budget is at least `tail_at`. NaN when `runs == 0`. Under
    /// the splitting estimator each root contributes its weighted leaf
    /// indicator average, which is unbiased for the same probability.
    pub p_tail: f64,
    /// Standard error of [`Self::p_tail`] (sample stddev across
    /// runs/roots over `√runs`); NaN for fewer than two runs.
    pub p_tail_stderr: f64,
}

/// Sample mean and standard error of one f64 statistic per run, folded
/// in canonical run order (unbiased `n − 1` variance; NaN mean for
/// `n == 0`, NaN stderr for `n < 2`).
fn mean_stderr(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, f64::NAN);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Monte Carlo over CkptNone executions under exponential failures.
pub fn montecarlo_none(dag: &Dag, sched: &Schedule, lambda: f64, cfg: &SimConfig) -> NoneMcStats {
    montecarlo_none_model(dag, sched, &FailureModel::exponential(lambda), cfg)
}

/// Monte Carlo over CkptNone executions under an arbitrary
/// [`FailureModel`]: run `i` owns a [`ModelFailures`] source whose
/// per-processor substreams derive from the run's seed.
pub fn montecarlo_none_model(
    dag: &Dag,
    sched: &Schedule,
    model: &FailureModel,
    cfg: &SimConfig,
) -> NoneMcStats {
    // One static-table build per estimate, shared by every run (the
    // CSR maps are read-only; each run clones only the dynamic state).
    let st = NoneStatic::new(dag, sched, true);
    match cfg.estimator {
        Estimator::Naive => {
            let marker = f64::INFINITY;
            let runs = parallel_map(cfg.runs, cfg.threads, |i| {
                let mut src = ModelFailures::new(*model, run_seed(cfg.seed, i));
                let mut state = NoneState::new(&st, &mut src);
                match state.run(&st, &mut src, cfg.max_failures) {
                    RunOutcome::Done(s) => s,
                    RunOutcome::Diverged(d) => ExecStats {
                        makespan: marker,
                        n_failures: d.n_failures,
                        wasted_time: 0.0,
                        n_reexecs: 0,
                    },
                    RunOutcome::Split => unreachable!("splitting disabled"),
                }
            });
            aggregate_censored(&runs, cfg.tail_at)
        }
        Estimator::Splitting(sc) => {
            assert!(sc.factor >= 2, "split factor must be at least 2");
            assert!(sc.stride >= 1, "split stride must be at least 1");
            let roots = seedmix::parallel_slots(cfg.runs, cfg.threads, |i| {
                split_root(
                    &st,
                    model,
                    run_seed(cfg.seed, i),
                    cfg.max_failures,
                    cfg.tail_at,
                    &sc,
                )
            });
            aggregate_censored_weighted(&roots)
        }
    }
}

/// Weighted leaf aggregate of one splitting root: an unbiased sample of
/// the same makespan expectation a naive run estimates, with the deep
/// cascade branches smoothed by conditional averaging.
struct RootResult {
    makespan: f64,
    failures: f64,
    wasted: f64,
    /// Weighted leaf average of `1[n_failures ≥ tail_at]`.
    p_tail: f64,
    /// True if *any* leaf exhausted the failure budget: the root is
    /// then censored wholesale, matching the naive estimator's
    /// per-run censoring verdict.
    diverged: bool,
}

fn split_root(
    st: &NoneStatic,
    model: &FailureModel,
    root_seed: u64,
    max_failures: usize,
    tail_at: usize,
    sc: &SplitConfig,
) -> RootResult {
    let mut src = ModelFailures::new(*model, root_seed);
    let state = NoneState::new(st, &mut src);
    let mut acc = RootResult {
        makespan: 0.0,
        failures: 0.0,
        wasted: 0.0,
        p_tail: 0.0,
        diverged: false,
    };
    descend(
        st,
        model,
        max_failures,
        tail_at,
        sc,
        state,
        &mut src,
        1.0,
        0,
        root_seed,
        &mut acc,
    );
    acc
}

/// Depth-first splitting: drive `state` to its next level; on a split,
/// recurse into `factor − 1` fresh-stream clones and then the parent's
/// own continuation, each at `weight / factor`. The recursion order is
/// fixed, so the accumulated sums are a pure function of the root seed.
#[allow(clippy::too_many_arguments)]
fn descend(
    st: &NoneStatic,
    model: &FailureModel,
    max_failures: usize,
    tail_at: usize,
    sc: &SplitConfig,
    mut state: NoneState,
    src: &mut ModelFailures,
    weight: f64,
    level: usize,
    branch_seed: u64,
    acc: &mut RootResult,
) {
    state.next_split = if level < sc.max_levels {
        (level + 1) * sc.stride
    } else {
        0
    };
    match state.run(st, src, max_failures) {
        RunOutcome::Done(s) => {
            acc.makespan += weight * s.makespan;
            acc.failures += weight * s.n_failures as f64;
            acc.wasted += weight * s.wasted_time;
            if s.n_failures >= tail_at {
                acc.p_tail += weight;
            }
        }
        RunOutcome::Diverged(d) => {
            acc.diverged = true;
            acc.failures += weight * d.n_failures as f64;
            if d.n_failures >= tail_at {
                acc.p_tail += weight;
            }
        }
        RunOutcome::Split => {
            let w = weight / sc.factor as f64;
            for c in 1..sc.factor {
                // Clones inherit the pending event heap (already-drawn
                // failures are conditioning state, shared by design) and
                // draw their *future* failures from a fresh avalanche-
                // derived stream, unique per (branch, level, clone).
                let child_seed = seedmix::derive(branch_seed, &[(level + 1) as u64, c as u64]);
                let mut child_src = ModelFailures::new(*model, child_seed);
                descend(
                    st,
                    model,
                    max_failures,
                    tail_at,
                    sc,
                    state.clone(),
                    &mut child_src,
                    w,
                    level + 1,
                    child_seed,
                    acc,
                );
            }
            descend(
                st,
                model,
                max_failures,
                tail_at,
                sc,
                state,
                src,
                w,
                level + 1,
                branch_seed,
                acc,
            );
        }
    }
}

/// [`aggregate_censored`] for weighted splitting roots: identical
/// censoring contract, with each root's weighted leaf aggregate playing
/// the role of one run.
fn aggregate_censored_weighted(roots: &[RootResult]) -> NoneMcStats {
    let conv: Vec<&RootResult> = roots.iter().filter(|r| !r.diverged).collect();
    let diverged = roots.len() - conv.len();
    let mut stats = if conv.is_empty() {
        McStats {
            mean_makespan: f64::INFINITY,
            stderr: f64::INFINITY,
            mean_failures: 0.0, // overwritten below
            mean_wasted: 0.0,
            runs: 0,
        }
    } else {
        let n = conv.len() as f64;
        let mean = conv.iter().map(|r| r.makespan).sum::<f64>() / n;
        let stderr = if conv.len() < 2 {
            f64::NAN
        } else {
            let var = conv
                .iter()
                .map(|r| (r.makespan - mean) * (r.makespan - mean))
                .sum::<f64>()
                / (n - 1.0);
            (var / n).sqrt()
        };
        McStats {
            mean_makespan: mean,
            stderr,
            mean_failures: 0.0, // overwritten below
            mean_wasted: conv.iter().map(|r| r.wasted).sum::<f64>() / n,
            runs: conv.len(),
        }
    };
    if !roots.is_empty() {
        stats.mean_failures = roots.iter().map(|r| r.failures).sum::<f64>() / roots.len() as f64;
    }
    // Like `mean_failures`, the tail probability covers *all* roots.
    let tails: Vec<f64> = roots.iter().map(|r| r.p_tail).collect();
    let (p_tail, p_tail_stderr) = mean_stderr(&tails);
    NoneMcStats {
        stats,
        diverged,
        p_tail,
        p_tail_stderr,
    }
}

/// Aggregates CkptNone runs under the [`NoneMcStats`] censoring
/// contract: makespan statistics over converged runs, failure counts
/// over all runs (censored counts included), wasted time over converged
/// runs. All folds run in canonical run order.
fn aggregate_censored(runs: &[ExecStats], tail_at: usize) -> NoneMcStats {
    let converged: Vec<ExecStats> = runs
        .iter()
        .copied()
        .filter(|r| r.makespan.is_finite())
        .collect();
    let diverged = runs.len() - converged.len();
    let mut stats = if converged.is_empty() {
        McStats {
            mean_makespan: f64::INFINITY,
            stderr: f64::INFINITY,
            mean_failures: 0.0, // overwritten below
            mean_wasted: 0.0,
            runs: 0,
        }
    } else {
        McStats::from_runs(&converged)
    };
    // Censored failure counts enter the average in *both* branches:
    // dropping them only when some runs converge (the pre-fix behavior)
    // made the column's meaning flip with the divergence fraction.
    if !runs.is_empty() {
        stats.mean_failures =
            runs.iter().map(|r| r.n_failures as f64).sum::<f64>() / runs.len() as f64;
    }
    // Like `mean_failures`, the tail probability covers *all* runs
    // (diverged runs enter at their censored failure count).
    let tails: Vec<f64> = runs
        .iter()
        .map(|r| if r.n_failures >= tail_at { 1.0 } else { 0.0 })
        .collect();
    let (p_tail, p_tail_stderr) = mean_stderr(&tails);
    NoneMcStats {
        stats,
        diverged,
        p_tail,
        p_tail_stderr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::stage::{evaluate_stage, schedule_stage, segment_graph_for};
    use ckpt_core::{allocate, AllocateConfig, CkptAllPolicy, CostCtx, DpOptimalPolicy, Schedule};

    /// `w` scheduled on `n_procs` processors with the default
    /// `Allocate`, and the segment graph `policy` induces on it.
    fn planned(
        w: &mspg::Workflow,
        n_procs: usize,
        lambda: f64,
        policy: &dyn ckpt_core::CheckpointPolicy,
    ) -> (Schedule, SegmentGraph) {
        let schedule = schedule_stage(w, n_procs, &AllocateConfig::default()).unwrap();
        let ctx = CostCtx::exponential(&w.dag, lambda, 1e7);
        let sg = segment_graph_for(&ctx, &schedule, policy).unwrap();
        (schedule, sg)
    }
    use pegasus::{generate, WorkflowClass};

    #[test]
    fn abortable_mc_matches_plain_when_never_aborted_and_yields_none_when_tripped() {
        let w = generate(WorkflowClass::Genome, 30, 4);
        let lambda = ckpt_core::lambda_from_pfail(0.01, w.dag.mean_weight());
        let (_, sg) = planned(&w, 4, lambda, &DpOptimalPolicy);
        let model = ckpt_core::FailureModel::exponential(lambda);
        for threads in [1usize, 2, 7] {
            let cfg = SimConfig {
                runs: 200,
                threads,
                ..Default::default()
            };
            let plain = montecarlo_segments_model(&sg, &model, &cfg);
            let live = montecarlo_segments_model_abortable(&sg, &model, &cfg, &|| false)
                .expect("never aborted");
            assert_eq!(
                plain.mean_makespan.to_bits(),
                live.mean_makespan.to_bits(),
                "threads={threads}"
            );
            assert_eq!(plain.stderr.to_bits(), live.stderr.to_bits());
            assert!(
                montecarlo_segments_model_abortable(&sg, &model, &cfg, &|| true).is_none(),
                "an immediately-exhausted budget must yield no estimate"
            );
        }
    }

    #[test]
    fn segment_mc_matches_pathapprox_at_small_pfail() {
        // E5 in miniature: the first-order 2-state model evaluated by
        // PathApprox must agree with the exact renewal simulation within a
        // few standard errors plus the O(λ²) model error.
        let w = generate(WorkflowClass::Genome, 50, 2);
        let lambda = ckpt_core::lambda_from_pfail(0.001, w.dag.mean_weight());
        let (_, sg) = planned(&w, 5, lambda, &DpOptimalPolicy);
        let mc = montecarlo_segments(
            &sg,
            lambda,
            &SimConfig {
                runs: 4000,
                ..Default::default()
            },
        );
        let pa = evaluate_stage(&sg, &probdag::PathApprox::default()).unwrap();
        let tol = 5.0 * mc.stderr + 0.01 * pa;
        assert!(
            (mc.mean_makespan - pa).abs() < tol,
            "mc {} vs pathapprox {pa} (stderr {})",
            mc.mean_makespan,
            mc.stderr
        );
    }

    #[test]
    fn none_mc_reports_divergence_separately() {
        let w = generate(WorkflowClass::Genome, 50, 4);
        let sched = allocate(&w, 5, &AllocateConfig::default());
        let lambda = ckpt_core::lambda_from_pfail(0.0001, w.dag.mean_weight());
        let r = montecarlo_none(
            &w.dag,
            &sched,
            lambda,
            &SimConfig {
                runs: 200,
                ..Default::default()
            },
        );
        assert_eq!(r.diverged, 0);
        assert!(r.stats.mean_makespan >= sched.failure_free_parallel_time(&w.dag) - 1e-6);
    }

    #[test]
    fn splitting_estimator_is_unbiased() {
        // In a moderate-failure regime both estimators target the same
        // expectation; the means must agree within combined error bars.
        let w = generate(WorkflowClass::Genome, 50, 4);
        let sched = allocate(&w, 5, &AllocateConfig::default());
        let model = ckpt_core::FailureModel::weibull_from_pfail(2.0, 0.005, w.dag.mean_weight());
        let naive = montecarlo_none_model(
            &w.dag,
            &sched,
            &model,
            &SimConfig {
                runs: 1000,
                seed: 21,
                max_failures: 20_000,
                tail_at: 2,
                ..Default::default()
            },
        );
        let split = montecarlo_none_model(
            &w.dag,
            &sched,
            &model,
            &SimConfig {
                runs: 300,
                seed: 22,
                max_failures: 20_000,
                estimator: Estimator::Splitting(SplitConfig {
                    factor: 2,
                    stride: 1,
                    max_levels: 4,
                }),
                tail_at: 2,
                ..Default::default()
            },
        );
        assert_eq!(naive.diverged, 0);
        assert_eq!(split.diverged, 0);
        let tol = 6.0 * (naive.stats.stderr.hypot(split.stats.stderr));
        assert!(
            (naive.stats.mean_makespan - split.stats.mean_makespan).abs() < tol,
            "naive {} vs split {} (tol {tol})",
            naive.stats.mean_makespan,
            split.stats.mean_makespan
        );
        // Failure counts target the same mean too.
        let ftol = 6.0 * (naive.stats.mean_failures / (1000f64).sqrt()).max(0.05);
        assert!(
            (naive.stats.mean_failures - split.stats.mean_failures).abs() < ftol,
            "naive failures {} vs split {}",
            naive.stats.mean_failures,
            split.stats.mean_failures
        );
        // And the cascade-tail probability: both estimate the same
        // P(failures ≥ 2), within combined error bars.
        let ptol = 6.0 * naive.p_tail_stderr.hypot(split.p_tail_stderr);
        assert!(
            (naive.p_tail - split.p_tail).abs() < ptol,
            "naive p_tail {} vs split {} (tol {ptol})",
            naive.p_tail,
            split.p_tail
        );
    }

    #[test]
    fn splitting_estimator_is_partition_invariant_and_reproducible() {
        let w = generate(WorkflowClass::Genome, 40, 6);
        let sched = allocate(&w, 4, &AllocateConfig::default());
        let model = ckpt_core::FailureModel::weibull_from_pfail(2.0, 0.01, w.dag.mean_weight());
        let cfg = |threads| SimConfig {
            runs: 100,
            seed: 33,
            threads,
            max_failures: 10_000,
            estimator: Estimator::Splitting(SplitConfig {
                factor: 2,
                stride: 1,
                max_levels: 3,
            }),
            tail_at: 2,
        };
        let serial = montecarlo_none_model(&w.dag, &sched, &model, &cfg(1));
        for threads in [2, 3, 7, 16] {
            let r = montecarlo_none_model(&w.dag, &sched, &model, &cfg(threads));
            assert_eq!(
                serial.stats.mean_makespan.to_bits(),
                r.stats.mean_makespan.to_bits(),
                "threads={threads}"
            );
            assert_eq!(serial.stats.stderr.to_bits(), r.stats.stderr.to_bits());
            assert_eq!(
                serial.stats.mean_failures.to_bits(),
                r.stats.mean_failures.to_bits()
            );
            assert_eq!(serial.p_tail.to_bits(), r.p_tail.to_bits());
            assert_eq!(serial.p_tail_stderr.to_bits(), r.p_tail_stderr.to_bits());
            assert_eq!(serial.diverged, r.diverged);
        }
    }

    #[test]
    fn none_mc_survives_total_divergence() {
        // A wear-out model so aggressive nothing ever completes: the
        // aggregate must censor every run instead of panicking.
        let w = generate(WorkflowClass::Genome, 50, 4);
        let sched = allocate(&w, 5, &AllocateConfig::default());
        let model = ckpt_core::FailureModel::weibull(2.0, w.dag.mean_weight() * 1e-3);
        let r = montecarlo_none_model(
            &w.dag,
            &sched,
            &model,
            &SimConfig {
                runs: 5,
                max_failures: 200,
                ..Default::default()
            },
        );
        assert_eq!(r.diverged, 5);
        assert_eq!(r.stats.runs, 0);
        assert!(r.stats.mean_makespan.is_infinite());
    }

    #[test]
    fn deterministic_for_fixed_seed_and_threads() {
        let w = generate(WorkflowClass::Ligo, 50, 5);
        let lambda = ckpt_core::lambda_from_pfail(0.001, w.dag.mean_weight());
        let (_, sg) = planned(&w, 3, lambda, &CkptAllPolicy);
        let cfg = SimConfig {
            runs: 500,
            seed: 11,
            threads: 2,
            max_failures: 1000,
            ..Default::default()
        };
        let a = montecarlo_segments(&sg, lambda, &cfg);
        let b = montecarlo_segments(&sg, lambda, &cfg);
        assert_eq!(a.mean_makespan, b.mean_makespan);
    }

    #[test]
    fn estimates_are_bit_identical_across_thread_budgets() {
        // The tentpole guarantee: both MC engines are pure functions of
        // (seed, runs) — the thread budget only changes wall-clock.
        let w = generate(WorkflowClass::Genome, 50, 3);
        let lambda = ckpt_core::lambda_from_pfail(0.01, w.dag.mean_weight());
        let (schedule, sg) = planned(&w, 5, lambda, &DpOptimalPolicy);
        let cfg = |threads| SimConfig {
            runs: 200,
            seed: 77,
            threads,
            max_failures: 100_000,
            ..Default::default()
        };
        let seg1 = montecarlo_segments(&sg, lambda, &cfg(1));
        let none1 = montecarlo_none(&w.dag, &schedule, lambda, &cfg(1));
        for threads in [2, 3, 7, 16] {
            let seg = montecarlo_segments(&sg, lambda, &cfg(threads));
            assert_eq!(seg1.mean_makespan.to_bits(), seg.mean_makespan.to_bits());
            assert_eq!(seg1.stderr.to_bits(), seg.stderr.to_bits());
            assert_eq!(seg1.mean_failures.to_bits(), seg.mean_failures.to_bits());
            assert_eq!(seg1.mean_wasted.to_bits(), seg.mean_wasted.to_bits());
            let none = montecarlo_none(&w.dag, &schedule, lambda, &cfg(threads));
            assert_eq!(
                none1.stats.mean_makespan.to_bits(),
                none.stats.mean_makespan.to_bits()
            );
            assert_eq!(none1.stats.stderr.to_bits(), none.stats.stderr.to_bits());
            assert_eq!(none1.diverged, none.diverged);
        }
    }

    #[test]
    fn censored_failure_counts_enter_the_mean_in_both_branches() {
        // Partial divergence: mean_failures must include the censored
        // runs' counts (at the budget), matching the all-diverged branch.
        let some = [
            ExecStats {
                makespan: 10.0,
                n_failures: 2,
                wasted_time: 1.0,
                n_reexecs: 0,
            },
            ExecStats {
                makespan: f64::INFINITY,
                n_failures: 50,
                wasted_time: 0.0,
                n_reexecs: 0,
            },
        ];
        let agg = super::aggregate_censored(&some, 10);
        assert_eq!(agg.diverged, 1);
        assert_eq!(agg.stats.runs, 1);
        assert_eq!(agg.stats.mean_makespan, 10.0);
        assert_eq!(agg.stats.mean_failures, 26.0, "censored count included");
        assert_eq!(agg.stats.mean_wasted, 1.0, "converged runs only");
        // The diverged run's censored count (50 ≥ 10) enters the tail.
        assert_eq!(agg.p_tail, 0.5);
        let all = [some[1]];
        let agg = super::aggregate_censored(&all, 10);
        assert_eq!(agg.diverged, 1);
        assert_eq!(agg.stats.runs, 0);
        assert!(agg.stats.mean_makespan.is_infinite());
        assert_eq!(agg.stats.mean_failures, 50.0);
        assert_eq!(agg.stats.mean_wasted, 0.0);
    }
}
