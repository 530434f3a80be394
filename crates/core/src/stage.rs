//! The planning pipeline as an explicit stage graph.
//!
//! [`crate::evaluate::Pipeline`] used to be a monolith: every query
//! re-ran schedule → curve → placement → coalesce → evaluate from
//! scratch. This module names each step as a **pure stage function** —
//! a deterministic map from its inputs to one artifact — so that a
//! caller holding content fingerprints of the inputs
//! ([`crate::fingerprint`]) can cache artifacts and re-execute only the
//! stages a change actually touches. `Pipeline` itself now routes
//! through these functions (bit-identical to the old monolith), and the
//! `ckpt_service` crate builds its incremental sessions on top.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{Pipeline, Strategy};
    use crate::pfail::lambda_from_pfail;
    use crate::policy::DpOptimalPolicy;
    use pegasus::{generate, WorkflowClass};
    use probdag::PathApprox;

    #[test]
    fn stage_ids_are_distinct_and_ordered() {
        for w in StageId::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
        let names: std::collections::HashSet<_> = StageId::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), StageId::ALL.len());
    }

    #[test]
    fn stage_functions_compose_to_the_pipeline() {
        // Running the stage functions by hand reproduces the Pipeline
        // monolith bit for bit — the refactor is a pure factoring.
        let w = generate(WorkflowClass::Montage, 50, 11);
        let lambda = lambda_from_pfail(0.001, w.dag.mean_weight());
        let platform = Platform::new(5, lambda, 1e8);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());

        let schedule = schedule_stage(&w, platform.n_procs, &AllocateConfig::default()).unwrap();
        let curve = curve_stage(&w.dag, &platform).unwrap();
        let ctx = CostCtx {
            dag: &w.dag,
            model: platform.model,
            bandwidth: platform.bandwidth,
            curve: curve.as_ref(),
            budget: None,
        };
        let plan = placement_stage(
            &ctx,
            &schedule,
            &DpOptimalPolicy,
            &mut PolicyScratch::new(),
            1,
        )
        .unwrap();
        assert_eq!(plan, pipe.plan(Strategy::CkptSome));
        let sg = segment_graph_stage(&ctx, &schedule, &plan).unwrap();
        let em = evaluate_stage(&sg, &PathApprox::default()).unwrap();
        let assessed = pipe.assess(Strategy::CkptSome, &PathApprox::default());
        assert_eq!(em.to_bits(), assessed.expected_makespan.to_bits());
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
