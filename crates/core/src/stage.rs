//! The planning pipeline as an explicit stage graph.
//!
//! Each step of schedule → curve → placement → coalesce → evaluate is
//! a **pure stage function** — a deterministic map from its inputs to
//! one artifact — so that a caller holding content fingerprints of the
//! inputs ([`crate::fingerprint`]) can cache artifacts and re-execute
//! only the stages a change actually touches. The `ckpt_service` crate
//! builds its incremental sessions on top; one-shot callers (the grid
//! engine, the examples, the tests) compose them directly, with
//! [`assess`] as the one fallible composition from a cost context and a
//! schedule to an [`Assessment`] of one strategy (see the crate-level
//! quickstart).
//!
//! The stage graph (downstream depends on upstream):
//!
//! ```text
//! Generate ──► Schedule ──────────────► Placement ──► SegmentGraph ──► EvalAnalytic
//!     │            │                        ▲   ▲          ▲               EvalMc
//!     └────────────┼──► Curve ──────────────┘   │          │
//!                  └────────(model, platform)───┴──────────┘
//! ```
//!
//! Two fusions are deliberate. *Superchain decomposition* is not a
//! separate stage: Algorithm 1 interleaves proportional-mapping
//! decomposition with per-sub-graph linearization, so the superchains
//! are a field of the [`Schedule`] artifact (see [`crate::allocate`]).
//! And *placement* and *segment-graph* both read the failure model (the
//! coalesced 2-state probabilities depend on λ), so a model drift
//! re-runs both — the invalidation-matrix tests in `ckpt_service` pin
//! this exactly.
//!
//! Two stage ids have no function here: `Generate` (workflow synthesis
//! lives in the `pegasus` crate, upstream of this one) and `EvalMc`
//! (discrete-event simulation lives in `failsim`, downstream). Both
//! front ends — the service's sessions and the bench harness's grid
//! engine — invoke those crates directly under the same stage ids,
//! through [`traced`] or [`charged`], so every stage execution lands in
//! one per-[`StageId`] wall histogram ([`wall_seconds`]).

use std::sync::OnceLock;

use mspg::{Dag, Workflow};
use probdag::Evaluator;

use crate::allocate::{allocate, AllocateConfig};
use crate::checkpoint_dp::CostCtx;
use crate::coalesce::{coalesce, CheckpointPlan, SegmentGraph};
use crate::error::{require_positive, PlanError, PlanResult};
use crate::evaluate::{theorem1_model, Assessment, Strategy};
use crate::failure_model::RestartCurve;
use crate::platform::Platform;
use crate::policy::{plan_with_policy_threads, CheckpointPolicy, PolicyScratch};
use crate::schedule::Schedule;

/// Names of the pipeline stages, in dependency order. Used by the
/// incremental service's event tracker so tests can assert exactly
/// which stages a what-if query re-executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StageId {
    /// Workflow synthesis / parse (lives in `pegasus`).
    Generate,
    /// Algorithm 1: proportional mapping + superchain linearization
    /// (includes the superchain decomposition — see module docs).
    Schedule,
    /// RestartCurve tabulation for non-memoryless models.
    Curve,
    /// Checkpoint placement (Algorithm 2 DP or any policy).
    Placement,
    /// §II-C coalescing into the 2-state probabilistic DAG.
    SegmentGraph,
    /// Analytic expected-makespan estimate (a `probdag` evaluator).
    EvalAnalytic,
    /// Monte Carlo / discrete-event estimate (lives in `failsim`).
    EvalMc,
}

impl StageId {
    /// All stages, dependency-ordered.
    pub const ALL: [StageId; 7] = [
        StageId::Generate,
        StageId::Schedule,
        StageId::Curve,
        StageId::Placement,
        StageId::SegmentGraph,
        StageId::EvalAnalytic,
        StageId::EvalMc,
    ];

    /// Stable display name (also the tracker's event label).
    pub fn name(self) -> &'static str {
        match self {
            StageId::Generate => "generate",
            StageId::Schedule => "schedule",
            StageId::Curve => "curve",
            StageId::Placement => "placement",
            StageId::SegmentGraph => "segment_graph",
            StageId::EvalAnalytic => "eval_analytic",
            StageId::EvalMc => "eval_mc",
        }
    }

    /// Static site name `"stage.<name>"`, shared by the fault-injection
    /// sites ([`inject`]) and the execution spans ([`traced`]) so the
    /// two instrumentation layers can never drift apart.
    pub fn site(self) -> &'static str {
        match self {
            StageId::Generate => "stage.generate",
            StageId::Schedule => "stage.schedule",
            StageId::Curve => "stage.curve",
            StageId::Placement => "stage.placement",
            StageId::SegmentGraph => "stage.segment_graph",
            StageId::EvalAnalytic => "stage.eval_analytic",
            StageId::EvalMc => "stage.eval_mc",
        }
    }

    /// Static resolution-span name `"resolve.<name>"`, used by the
    /// incremental service when it looks a stage's artifact up in the
    /// store (see `ckpt_service::Session` and DESIGN.md §12).
    pub fn resolve_site(self) -> &'static str {
        match self {
            StageId::Generate => "resolve.generate",
            StageId::Schedule => "resolve.schedule",
            StageId::Curve => "resolve.curve",
            StageId::Placement => "resolve.placement",
            StageId::SegmentGraph => "resolve.segment_graph",
            StageId::EvalAnalytic => "resolve.eval_analytic",
            StageId::EvalMc => "resolve.eval_mc",
        }
    }
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Named fault-injection site of one stage: inert in default builds,
/// and under the `faultinject` feature an armed plan may panic here
/// (caught at the memo boundary), delay, or make the stage return an
/// injected [`PlanError::StageFailed`]. Site names are
/// `"stage.<stage name>"` — see `DESIGN.md` §11.
///
/// Public so the service can fire the two sites whose stage functions
/// live outside this crate (`Generate` in `pegasus`, `EvalMc` in
/// `failsim`) under the same naming scheme.
pub fn inject(stage: StageId) -> PlanResult<()> {
    // The site string is derived from the stage name so injection sites
    // and tracker labels can never drift apart. &'static via site().
    seedmix::faultinject::fire_err(stage.site()).map_err(|message| PlanError::StageFailed {
        stage,
        message,
        attempts: 1,
    })
}

/// Run `f` inside an execution span named [`StageId::site`], marking
/// the span failed if `f` errors, and charge its wall time to the
/// `ckpt_stage_wall_seconds{stage=<name>}` histogram. This is the one
/// wrapper every stage execution goes through — the in-crate stage
/// functions below use it, and both front ends reuse it for the stages
/// whose functions live outside this crate (`Generate` in `pegasus`,
/// `EvalMc` in `failsim`).
///
/// Observability contract: the span and the histogram only *observe*
/// `f` — they never alter the value flowing out. Without the `observe`
/// feature the span is a no-op and the stub clock reads 0, so this
/// compiles to a plain call of `f`.
pub fn traced<T>(stage: StageId, f: impl FnOnce() -> PlanResult<T>) -> PlanResult<T> {
    run_timed(stage, f, Result::is_err)
}

/// [`traced`] for stage work that cannot fail: an evaluator or
/// simulator called directly rather than through [`evaluate_stage`],
/// or a CCR rescale of a generated instance. Charged exactly like a
/// stage-function execution.
pub fn charged<T>(stage: StageId, f: impl FnOnce() -> T) -> T {
    run_timed(stage, f, |_| false)
}

fn run_timed<T>(stage: StageId, f: impl FnOnce() -> T, failed: impl FnOnce(&T) -> bool) -> T {
    let mut span = obs::span::enter(stage.site());
    let clock = obs::span::Stopwatch::start();
    let out = f();
    let nanos = clock.elapsed_ns();
    span.set_duration_ns(nanos);
    wall_histograms()[stage as usize].observe_ns(nanos);
    if failed(&out) {
        span.set_outcome(obs::span::SpanOutcome::Failed);
    }
    out
}

/// The seven `ckpt_stage_wall_seconds` handles, in [`StageId::ALL`]
/// order, resolved once so stage executions never take the registry
/// lock.
fn wall_histograms() -> &'static [obs::metrics::Histogram; 7] {
    static HISTS: OnceLock<[obs::metrics::Histogram; 7]> = OnceLock::new();
    HISTS.get_or_init(|| {
        StageId::ALL.map(|s| {
            obs::metrics::labeled_histogram_seconds("ckpt_stage_wall_seconds", "stage", s.name())
        })
    })
}

/// Seconds each stage has spent executing in this process so far (since
/// the last `obs::metrics::reset`), in [`StageId::ALL`] order. Summed
/// across threads, so with `N` busy workers the total can reach `N ×`
/// the elapsed wall clock. All zero without the `observe` feature.
pub fn wall_seconds() -> [f64; 7] {
    wall_histograms().each_ref().map(|h| h.sum())
}

/// **Schedule stage**: Algorithm 1 on `workflow` for `n_procs`
/// processors. Pure in (workflow structure [+ file sizes iff the
/// linearizer reads them], `n_procs`, `cfg`); the platform's failure
/// model is *not* an input — schedules survive model drift untouched.
///
/// Fails with [`PlanError::InvalidInput`] for a zero-processor
/// platform (the list scheduler has nowhere to place anything).
pub fn schedule_stage(
    workflow: &Workflow,
    n_procs: usize,
    cfg: &AllocateConfig,
) -> PlanResult<Schedule> {
    traced(StageId::Schedule, || {
        if n_procs == 0 {
            return Err(PlanError::invalid("procs", "must be at least 1, got 0"));
        }
        inject(StageId::Schedule)?;
        Ok(allocate(workflow, n_procs, cfg))
    })
}

/// **Curve stage**: the renewal [`RestartCurve`] backing every
/// non-memoryless cost query — `None` for memoryless or never-failing
/// platforms, which take closed-form paths. Pure in (failure model,
/// workflow span statistics, bandwidth).
///
/// The table covers every span the DP or coalescer can query on this
/// workflow: from the smallest positive task weight (no segment's
/// failure-free span is shorter than the weight of a task it contains)
/// up to the whole workflow executed serially with every file read and
/// checkpointed once. Spans outside (only reachable through zero-weight
/// dummy tasks) fall back to direct quadrature. Bounded to 12 decades.
pub fn curve_stage(dag: &Dag, platform: &Platform) -> PlanResult<Option<RestartCurve>> {
    traced(StageId::Curve, || {
        require_positive("bandwidth", platform.bandwidth)?;
        inject(StageId::Curve)?;
        if platform.model.is_memoryless() || platform.model.never_fails() {
            return Ok(None);
        }
        let b_hi = dag.total_weight() + 2.0 * dag.total_data_volume() / platform.bandwidth;
        if b_hi <= 0.0 || !b_hi.is_finite() {
            return Ok(None);
        }
        let min_weight = dag
            .task_ids()
            .map(|t| dag.weight(t))
            .filter(|&w| w > 0.0)
            .fold(f64::INFINITY, f64::min);
        let b_lo = if min_weight.is_finite() {
            min_weight.min(b_hi)
        } else {
            b_hi * 1e-6
        };
        // Bound the table (and its build cost) to 12 decades of span.
        let b_lo = b_lo.max(b_hi * 1e-12);
        Ok(Some(RestartCurve::build(platform.model, b_lo, b_hi)))
    })
}

/// **Placement stage**: the checkpoint plan `policy` induces on
/// `schedule`. Pure in (workflow, model+curve, bandwidth, schedule,
/// policy); `threads` and `scratch` are speed knobs — plans are
/// bit-identical for every budget (see
/// [`crate::policy::plan_with_policy_threads`]).
pub fn placement_stage(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    policy: &dyn CheckpointPolicy,
    scratch: &mut PolicyScratch,
    threads: usize,
) -> PlanResult<CheckpointPlan> {
    traced(StageId::Placement, || {
        inject(StageId::Placement)?;
        Ok(plan_with_policy_threads(
            ctx, schedule, policy, scratch, threads,
        ))
    })
}

/// **Segment-graph stage**: §II-C coalescing of checkpoint-delimited
/// segments into the 2-state probabilistic DAG. Pure in (workflow,
/// model+curve, bandwidth, schedule, plan) — note the model dependence:
/// the 2-state failure probabilities are per-segment functions of the
/// failure distribution, so model drift re-runs this stage too.
///
/// Fails with [`PlanError::InvalidInput`] when a superchain of
/// `schedule` is empty or `plan` leaves it without a final checkpoint.
pub fn segment_graph_stage(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    plan: &CheckpointPlan,
) -> PlanResult<SegmentGraph> {
    traced(StageId::SegmentGraph, || {
        inject(StageId::SegmentGraph)?;
        coalesce(ctx, schedule, plan)
    })
}

/// **Analytic-evaluate stage**: expected makespan of the coalesced
/// graph under a `probdag` evaluator. Pure in (segment graph,
/// evaluator configuration).
///
/// Fails with [`PlanError::Numeric`] when the evaluator returns a
/// non-finite makespan — the one stage whose output is a bare number,
/// so the one place a NaN could otherwise slip into an answer.
pub fn evaluate_stage(sg: &SegmentGraph, evaluator: &dyn Evaluator) -> PlanResult<f64> {
    traced(StageId::EvalAnalytic, || {
        inject(StageId::EvalAnalytic)?;
        let em = evaluator.expected_makespan(&sg.pdag);
        if em.is_finite() {
            Ok(em)
        } else {
            Err(PlanError::Numeric {
                stage: StageId::EvalAnalytic,
                message: format!("expected makespan is {em}"),
            })
        }
    })
}

/// Placement then coalescing on one thread: the segment graph `policy`
/// induces on `schedule`.
pub fn segment_graph_for(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    policy: &dyn CheckpointPolicy,
) -> PlanResult<SegmentGraph> {
    let plan = placement_stage(ctx, schedule, policy, &mut PolicyScratch::new(), 1)?;
    segment_graph_stage(ctx, schedule, &plan)
}

/// The [`Assessment`] of an already-built segment graph, labelled
/// `policy`: its expected makespan under `evaluator` plus the placement
/// census — the shared path when one graph serves both an analytic and
/// a simulated column.
pub fn assess_graph(
    dag: &Dag,
    schedule: &Schedule,
    policy: &'static str,
    sg: &SegmentGraph,
    evaluator: &dyn Evaluator,
) -> PlanResult<Assessment> {
    let w_par = schedule.failure_free_parallel_time(dag);
    let stats = sg.placement_stats(dag);
    Ok(Assessment {
        policy,
        expected_makespan: evaluate_stage(sg, evaluator)?,
        n_checkpoints: stats.segments,
        n_segments: stats.segments,
        ckpt_files: stats.ckpt_files,
        ckpt_bytes: stats.ckpt_bytes,
        w_par,
    })
}

/// Assesses `strategy` on `schedule` under `ctx` — how the paper
/// compares the strategies on one common schedule. CkptNone is the
/// Theorem 1 closed form on the schedule's processors (charged to
/// [`StageId::EvalAnalytic`]; `evaluator` is unused); every other
/// strategy runs [`segment_graph_for`] and then [`assess_graph`].
pub fn assess(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    strategy: Strategy,
    evaluator: &dyn Evaluator,
) -> PlanResult<Assessment> {
    let Some(policy) = strategy.policy() else {
        return Ok(charged(StageId::EvalAnalytic, || {
            let w_par = schedule.failure_free_parallel_time(ctx.dag);
            Assessment {
                policy: strategy.name(),
                expected_makespan: theorem1_model(w_par, schedule.n_procs, &ctx.model),
                n_checkpoints: 0,
                n_segments: 0,
                ckpt_files: 0,
                ckpt_bytes: 0.0,
                w_par,
            }
        }));
    };
    let sg = segment_graph_for(ctx, schedule, policy)?;
    assess_graph(ctx.dag, schedule, policy.name(), &sg, evaluator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure_model::FailureModel;
    use crate::pfail::lambda_from_pfail;
    use crate::policy::DpOptimalPolicy;
    use pegasus::ccr::scale_to_ccr;
    use pegasus::{generate, WorkflowClass};
    use probdag::PathApprox;

    /// Schedules `w` on `platform` under `cfg` and hands `f` the cost
    /// context (with the platform's renewal curve) and the schedule.
    fn with_plan<R>(
        w: &Workflow,
        platform: Platform,
        cfg: &AllocateConfig,
        f: impl FnOnce(&CostCtx<'_>, &Schedule) -> R,
    ) -> R {
        let schedule = schedule_stage(w, platform.n_procs, cfg).unwrap();
        let curve = curve_stage(&w.dag, &platform).unwrap();
        let ctx = CostCtx::with_curve(&w.dag, platform.model, platform.bandwidth, curve.as_ref());
        f(&ctx, &schedule)
    }

    fn platform(w: &Workflow, n_procs: usize, pfail: f64, bw: f64) -> Platform {
        Platform::new(n_procs, lambda_from_pfail(pfail, w.dag.mean_weight()), bw)
    }

    fn assessed(ctx: &CostCtx<'_>, schedule: &Schedule, strategy: Strategy) -> Assessment {
        assess(ctx, schedule, strategy, &PathApprox::default()).unwrap()
    }

    fn plan(ctx: &CostCtx<'_>, schedule: &Schedule, strategy: Strategy) -> CheckpointPlan {
        let policy = strategy.policy().unwrap();
        placement_stage(ctx, schedule, policy, &mut PolicyScratch::new(), 1).unwrap()
    }

    #[test]
    fn stage_ids_are_distinct_and_ordered() {
        for w in StageId::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
        let names: std::collections::HashSet<_> = StageId::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), StageId::ALL.len());
    }

    #[test]
    fn assess_composes_the_stage_functions() {
        // Running the stage functions by hand reproduces `assess` bit
        // for bit: it is a pure composition.
        let w = generate(WorkflowClass::Montage, 50, 11);
        let p = platform(&w, 5, 0.001, 1e8);
        with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
            let plan = placement_stage(
                ctx,
                schedule,
                &DpOptimalPolicy,
                &mut PolicyScratch::new(),
                1,
            )
            .unwrap();
            let sg = segment_graph_stage(ctx, schedule, &plan).unwrap();
            let by_hand = evaluate_stage(&sg, &PathApprox::default()).unwrap();
            let assessed = assessed(ctx, schedule, Strategy::CkptSome);
            assert_eq!(by_hand.to_bits(), assessed.expected_makespan.to_bits());
            assert_eq!(assessed.policy, "CkptSome");
            assert_eq!(assessed.n_segments, plan.n_checkpoints());
            let graph = segment_graph_for(ctx, schedule, &DpOptimalPolicy).unwrap();
            let via_graph =
                assess_graph(&w.dag, schedule, "CkptSome", &graph, &PathApprox::default()).unwrap();
            assert_eq!(via_graph.expected_makespan.to_bits(), by_hand.to_bits());
            assert_eq!(
                via_graph.ckpt_bytes.to_bits(),
                assessed.ckpt_bytes.to_bits()
            );
        });
    }

    #[test]
    fn assess_reports_a_non_finite_makespan_as_numeric() {
        // Storage so slow that one file's read time overflows: the
        // error surfaces typed, from the evaluate stage, not as a panic.
        let w = generate(WorkflowClass::Genome, 50, 1);
        let schedule = schedule_stage(&w, 5, &AllocateConfig::default()).unwrap();
        let ctx = CostCtx::exponential(&w.dag, 1e-3, f64::MIN_POSITIVE);
        for strategy in [Strategy::CkptSome, Strategy::CkptAll] {
            let err = assess(&ctx, &schedule, strategy, &PathApprox::default()).unwrap_err();
            assert!(
                matches!(
                    err,
                    PlanError::Numeric {
                        stage: StageId::EvalAnalytic,
                        ..
                    }
                ),
                "{strategy}: {err:?}"
            );
        }
    }

    #[test]
    fn assess_ckptnone_is_theorem1_on_the_schedule() {
        let w = generate(WorkflowClass::Ligo, 50, 2);
        let wearout = FailureModel::weibull_from_pfail(2.0, 0.01, w.dag.mean_weight());
        for p in [
            platform(&w, 7, 0.01, 1e8),
            Platform::with_model(7, wearout, 1e8),
        ] {
            with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
                let none = assessed(ctx, schedule, Strategy::CkptNone);
                let w_par = schedule.failure_free_parallel_time(&w.dag);
                let want = theorem1_model(w_par, 7, &p.model);
                assert_eq!(none.expected_makespan.to_bits(), want.to_bits());
                assert_eq!(none.w_par.to_bits(), w_par.to_bits());
                assert_eq!(none.policy, "CkptNone");
                assert_eq!((none.n_checkpoints, none.n_segments), (0, 0));
            });
        }
    }

    #[test]
    fn non_memoryless_assess_end_to_end() {
        // A Weibull platform: the DP runs on the quadrature cost path
        // and CkptSome still dominates CkptAll.
        let mut w = generate(WorkflowClass::Genome, 50, 5);
        let bw = 1e7;
        scale_to_ccr(&mut w, 0.01, bw);
        let model = FailureModel::weibull_from_pfail(0.7, 0.01, w.dag.mean_weight());
        let p = Platform::with_model(5, model, bw);
        with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
            assert!(ctx.curve.is_some());
            let some = assessed(ctx, schedule, Strategy::CkptSome);
            let all = assessed(ctx, schedule, Strategy::CkptAll);
            let none = assessed(ctx, schedule, Strategy::CkptNone);
            assert!(some.expected_makespan > 0.0 && none.expected_makespan > 0.0);
            assert!(
                some.expected_makespan <= all.expected_makespan * 1.02,
                "some {} vs all {}",
                some.expected_makespan,
                all.expected_makespan
            );
            assert!(some.n_checkpoints <= all.n_checkpoints);
        });
    }

    #[test]
    fn ckptsome_never_worse_than_ckptall() {
        // The DP contains CkptAll's solution (checkpoint everywhere) in
        // its search space, so segment-DAG expected makespans should obey
        // CkptSome ≤ CkptAll up to evaluator noise.
        for class in WorkflowClass::ALL {
            let mut w = generate(class, 50, 5);
            let bw = 1e7;
            scale_to_ccr(&mut w, 0.01, bw);
            let p = platform(&w, 5, 0.001, bw);
            with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
                let some = assessed(ctx, schedule, Strategy::CkptSome);
                let all = assessed(ctx, schedule, Strategy::CkptAll);
                assert!(
                    some.expected_makespan <= all.expected_makespan * 1.02,
                    "{class}: some {} vs all {}",
                    some.expected_makespan,
                    all.expected_makespan
                );
                assert!(some.n_checkpoints <= all.n_checkpoints);
            });
        }
    }

    #[test]
    fn cheap_checkpoints_make_ckptsome_equal_ckptall() {
        // §VI-C: as the CCR → 0, CkptSome checkpoints every task. The
        // crossover is where interface I/O (write + later read) matches
        // the re-execution gain λ·b1·b2 — for sub-second Genome tasks at
        // pfail = 0.01 that is around CCR ~ 1e-6, so 1e-9 is firmly in the
        // checkpoint-everything regime.
        let mut w = generate(WorkflowClass::Genome, 50, 3);
        let bw = 1e7;
        scale_to_ccr(&mut w, 1e-9, bw);
        let p = platform(&w, 5, 0.01, bw);
        with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
            let some = plan(ctx, schedule, Strategy::CkptSome);
            assert_eq!(some.n_checkpoints(), w.n_tasks());
        });
    }

    #[test]
    fn expensive_checkpoints_reduce_to_exits() {
        // Very expensive storage + rare failures: only superchain exits
        // remain checkpointed.
        let mut w = generate(WorkflowClass::Genome, 50, 3);
        let bw = 1e7;
        scale_to_ccr(&mut w, 10.0, bw);
        let p = platform(&w, 5, 0.0001, bw);
        with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
            let some = plan(ctx, schedule, Strategy::CkptSome);
            let exits = plan(ctx, schedule, Strategy::ExitOnly);
            assert_eq!(some, exits);
        });
    }

    #[test]
    fn exitonly_bounds_ckptsome_from_search_space() {
        let mut w = generate(WorkflowClass::Ligo, 50, 4);
        let bw = 1e7;
        scale_to_ccr(&mut w, 0.1, bw);
        let p = platform(&w, 5, 0.001, bw);
        with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
            let some = assessed(ctx, schedule, Strategy::CkptSome);
            let exit = assessed(ctx, schedule, Strategy::ExitOnly);
            assert!(some.expected_makespan <= exit.expected_makespan * 1.02);
        });
    }

    #[test]
    fn assess_reuses_a_ccr_invariant_schedule() {
        // RandomTopo scheduling never reads file sizes, so the schedule of
        // the unscaled instance drives a rescaled clone to bit-identical
        // assessments.
        let base = generate(WorkflowClass::Montage, 50, 9);
        let cfg = AllocateConfig::default();
        let mut scaled = base.clone();
        let bw = 1e7;
        scale_to_ccr(&mut scaled, 0.05, bw);
        let p = platform(&scaled, 5, 0.001, bw);
        let cached = allocate(&base, p.n_procs, &cfg);
        with_plan(&scaled, p, &cfg, |ctx, from_scratch| {
            for strategy in [Strategy::CkptAll, Strategy::CkptSome, Strategy::ExitOnly] {
                let a = assessed(ctx, from_scratch, strategy);
                let b = assessed(ctx, &cached, strategy);
                assert_eq!(
                    a.expected_makespan.to_bits(),
                    b.expected_makespan.to_bits(),
                    "{strategy}"
                );
                assert_eq!(a.n_checkpoints, b.n_checkpoints);
            }
        });
    }

    #[test]
    fn assessments_report_consistent_counts() {
        let w = generate(WorkflowClass::Montage, 50, 6);
        let p = platform(&w, 5, 0.001, 1e7);
        with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
            let all = assessed(ctx, schedule, Strategy::CkptAll);
            assert_eq!(all.n_checkpoints, w.n_tasks());
            assert_eq!(all.n_segments, w.n_tasks());
            let none = assessed(ctx, schedule, Strategy::CkptNone);
            assert_eq!(none.n_checkpoints, 0);
            assert!(none.w_par > 0.0);
        });
    }

    #[test]
    fn ckptnone_beats_ckptall_when_io_dominates_and_failures_rare() {
        // §VI-C: CkptNone wins when checkpoints are expensive and failures
        // rare.
        let mut w = generate(WorkflowClass::Montage, 50, 7);
        let bw = 1e7;
        scale_to_ccr(&mut w, 1.0, bw);
        let p = platform(&w, 5, 0.0001, bw);
        with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
            let none = assessed(ctx, schedule, Strategy::CkptNone);
            let all = assessed(ctx, schedule, Strategy::CkptAll);
            assert!(
                none.expected_makespan < all.expected_makespan,
                "none {} vs all {}",
                none.expected_makespan,
                all.expected_makespan
            );
        });
    }

    #[test]
    fn ckptsome_beats_ckptnone_under_frequent_failures() {
        // §VI-C: CkptNone loses when failures are frequent and
        // checkpoints cheap.
        let mut w = generate(WorkflowClass::Genome, 300, 8);
        let bw = 1e7;
        scale_to_ccr(&mut w, 1e-4, bw);
        let p = platform(&w, 18, 0.01, bw);
        with_plan(&w, p, &AllocateConfig::default(), |ctx, schedule| {
            let none = assessed(ctx, schedule, Strategy::CkptNone);
            let some = assessed(ctx, schedule, Strategy::CkptSome);
            assert!(
                some.expected_makespan < none.expected_makespan,
                "some {} vs none {}",
                some.expected_makespan,
                none.expected_makespan
            );
        });
    }

    // The histograms are process-global and only ever grow within this
    // test binary, so concurrent stage executions can only add to the
    // deltas asserted here.
    #[cfg(feature = "observe")]
    #[test]
    fn traced_and_charged_feed_their_stage_histogram() {
        let count = |s: StageId| wall_histograms()[s as usize].count();
        let (curve, mc) = (count(StageId::Curve), count(StageId::EvalMc));
        let before = wall_seconds()[StageId::EvalMc as usize];
        let err = traced(StageId::Curve, || -> PlanResult<()> {
            Err(PlanError::invalid("x", "y"))
        });
        assert!(err.is_err(), "failed executions are charged too");
        charged(StageId::EvalMc, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(count(StageId::Curve) > curve);
        assert!(count(StageId::EvalMc) > mc);
        assert!(wall_seconds()[StageId::EvalMc as usize] - before >= 1e-3);
    }

    #[test]
    fn curve_stage_is_none_for_memoryless() {
        let w = generate(WorkflowClass::Genome, 50, 1);
        let p = Platform::new(4, 1e-5, 1e8);
        assert!(curve_stage(&w.dag, &p).unwrap().is_none());
    }

    #[test]
    fn stages_reject_malformed_inputs_with_typed_errors() {
        let w = generate(WorkflowClass::Genome, 20, 3);
        let err = schedule_stage(&w, 0, &AllocateConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            PlanError::InvalidInput { field: "procs", .. }
        ));
    }
}
