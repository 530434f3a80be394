//! The strategies of the paper and their closed forms: the
//! [`Strategy`] axis (CkptAll, CkptNone, CkptSome and the exit-only
//! ablation), Theorem 1 for CkptNone, and the [`Assessment`] record
//! that [`crate::stage::assess`] fills for any of them — and, through
//! [`crate::stage::assess_graph`], for any [`CheckpointPolicy`].

use crate::failure_model::FailureModel;
use crate::policy::{CheckpointPolicy, CkptAllPolicy, DpOptimalPolicy, ExitOnlyPolicy};

/// The checkpointing strategies compared in §VI.
///
/// Since the policy subsystem this enum is a thin constructor over the
/// builtin [`CheckpointPolicy`] implementations ([`Strategy::policy`]);
/// it remains the stable axis of the legacy experiments (E1–E9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Checkpoint every task's output (the production default).
    CkptAll,
    /// Checkpoint nothing; expected makespan estimated by Theorem 1.
    CkptNone,
    /// The paper's contribution: superchain scheduling + optimal DP
    /// checkpoint placement.
    CkptSome,
    /// Ablation (§II-C "naive solution"): checkpoint only superchain
    /// exits.
    ExitOnly,
}

impl Strategy {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::CkptAll => "CkptAll",
            Strategy::CkptNone => "CkptNone",
            Strategy::CkptSome => "CkptSome",
            Strategy::ExitOnly => "ExitOnly",
        }
    }

    /// The builtin placement policy this strategy routes through, or
    /// `None` for [`Strategy::CkptNone`] (which has no placement — it
    /// is assessed by Theorem 1 and simulated by the crossover-cascade
    /// executor).
    pub fn policy(self) -> Option<&'static dyn CheckpointPolicy> {
        static ALL: CkptAllPolicy = CkptAllPolicy;
        static DP: DpOptimalPolicy = DpOptimalPolicy;
        static EXIT: ExitOnlyPolicy = ExitOnlyPolicy;
        match self {
            Strategy::CkptAll => Some(&ALL),
            Strategy::CkptSome => Some(&DP),
            Strategy::ExitOnly => Some(&EXIT),
            Strategy::CkptNone => None,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Theorem 1: estimated expected makespan of a no-checkpoint execution
/// with failure-free parallel time `w_par` on `n_procs` processors of
/// failure rate `lambda`:
/// `EM = (1 - pλW)·W + pλW·(3/2·W) = W·(1 + pλW/2)`.
pub fn theorem1(w_par: f64, n_procs: usize, lambda: f64) -> f64 {
    let q = n_procs as f64 * lambda * w_par;
    (1.0 - q) * w_par + q * 1.5 * w_par
}

/// Theorem 1 generalized to any failure model: the first-order failure
/// mass `λW` becomes the cumulative hazard `H(W) = -ln S(W)` of one
/// processor over the failure-free span (for the exponential model
/// `H(W) = λW` exactly, so this delegates to [`theorem1`] bit-for-bit).
pub fn theorem1_model(w_par: f64, n_procs: usize, model: &FailureModel) -> f64 {
    match *model {
        FailureModel::Exponential { lambda } => theorem1(w_par, n_procs, lambda),
        ref m => {
            let q = n_procs as f64 * m.cumulative_hazard(w_par);
            (1.0 - q) * w_par + q * 1.5 * w_par
        }
    }
}

/// Outcome of assessing one policy (or legacy strategy) on one
/// scheduled workflow.
#[derive(Clone, Debug)]
pub struct Assessment {
    /// Display name of the policy assessed (a [`Strategy::name`] for
    /// the legacy strategies).
    pub policy: &'static str,
    /// Estimated expected makespan (seconds).
    pub expected_makespan: f64,
    /// Number of checkpointed tasks (0 for CkptNone). Derived from the
    /// segment graph — every segment ends in exactly one checkpoint —
    /// so this always equals [`Assessment::n_segments`] for placement
    /// policies.
    pub n_checkpoints: usize,
    /// Number of coalesced segments (tasks for CkptAll; 0 for CkptNone).
    pub n_segments: usize,
    /// Files written to stable storage by the placement's checkpoints.
    pub ckpt_files: usize,
    /// Bytes those checkpoints write.
    pub ckpt_bytes: f64,
    /// Failure-free parallel time of the schedule *without* storage I/O.
    pub w_par: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_formula() {
        // q = pλW; EM = W(1 + q/2).
        let em = theorem1(100.0, 4, 1e-4);
        let q: f64 = 4.0 * 1e-4 * 100.0;
        assert!((em - 100.0 * (1.0 + q / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn theorem1_zero_lambda_is_wpar() {
        assert_eq!(theorem1(123.0, 8, 0.0), 123.0);
    }

    #[test]
    fn theorem1_model_reduces_to_theorem1_for_exponential() {
        let m = FailureModel::exponential(1e-4);
        assert_eq!(
            theorem1_model(100.0, 4, &m).to_bits(),
            theorem1(100.0, 4, 1e-4).to_bits()
        );
    }

    #[test]
    fn theorem1_model_weibull_tracks_calibrated_hazard() {
        // Weibull k=1 calibrated to the same pfail has the same
        // cumulative hazard as the exponential, so Theorem 1 agrees (up
        // to the scale representation); k≠1 bends the estimate.
        let w_bar = 10.0;
        let exp = FailureModel::exponential_from_pfail(0.001, w_bar);
        let wei1 = FailureModel::weibull_from_pfail(1.0, 0.001, w_bar);
        let a = theorem1_model(200.0, 6, &exp);
        let b = theorem1_model(200.0, 6, &wei1);
        assert!((a - b).abs() < 1e-9 * a, "{a} vs {b}");
        let wearout = FailureModel::weibull_from_pfail(2.0, 0.001, w_bar);
        // Over a span 20× the mean weight, an increasing hazard has
        // accumulated much more failure mass.
        assert!(theorem1_model(200.0, 6, &wearout) > a);
    }
}
