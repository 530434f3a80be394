//! Golden-output pins for the experiment grids.
//!
//! The E1–E12 CSVs are the behavioural spec of the planner: a refactor
//! is sound when they stay byte-identical. Each test runs one small
//! grid through the scenario engine at one and two cell workers and
//! compares an FNV-1a digest of the CSV bytes (header included) with
//! the digest recorded when the grid was pinned.
//!
//! E4 is deliberately absent: its `runtime_s` column is wall clock by
//! design (DESIGN.md §5.1), so its bytes change from run to run.
//!
//! If one of these fails, the change altered an experiment's output.
//! That is a behaviour change, not a refactor: find the cause rather
//! than re-recording the digest.

use ckpt_bench::engine::{self, EngineConfig, Scenario, StringSink};
use ckpt_bench::scenarios::{
    DistModel, DistributionsScenario, DriftScenario, FigureScenario, LinearizationScenario,
    NaiveCoalesceScenario, StrategiesScenario,
};
use ckpt_service::PolicySpec;
use pegasus::WorkflowClass;
use seedmix::digest::Fnv1a;

/// Runs `scenario` at 1 and 2 cell workers and asserts both CSVs
/// digest to `want`.
fn assert_golden<S: Scenario>(name: &str, scenario: &S, want: u64) {
    for threads in [1, 2] {
        let mut sink = StringSink::new();
        engine::run(scenario, &EngineConfig::with_threads(threads), &mut sink)
            .expect("in-memory engine run cannot fail");
        let got = Fnv1a::new().write_str(&sink.csv).finish();
        assert_eq!(
            want, got,
            "{name}: CSV digest {got:#018x} at threads={threads}, pinned {want:#018x}"
        );
    }
}

fn figure(class: WorkflowClass) -> FigureScenario {
    FigureScenario {
        class,
        sizes: vec![50],
        ccr_points: 2,
        instances: 2,
        base_seed: 42,
    }
}

#[test]
fn e1_genome_figure_grid() {
    assert_golden(
        "E1 genome",
        &figure(WorkflowClass::Genome),
        0x7da0_a8c8_f35c_90fc,
    );
}

#[test]
fn e1_montage_figure_grid() {
    assert_golden(
        "E1 montage",
        &figure(WorkflowClass::Montage),
        0x397f_244f_0166_b9c6,
    );
}

#[test]
fn e6_linearization_ablation() {
    let s = LinearizationScenario {
        ccr_points: 2,
        base_seed: 42,
    };
    assert_golden("E6", &s, 0xad7c_407b_8801_242b);
}

#[test]
fn e7_naive_coalescing_ablation() {
    let s = NaiveCoalesceScenario {
        ccr_points: 2,
        base_seed: 42,
    };
    assert_golden("E7", &s, 0x253c_8b01_a0f4_ac46);
}

#[test]
fn e9_distributions_grid() {
    let s = DistributionsScenario {
        models: vec![
            DistModel::Exponential,
            DistModel::Weibull { shape: 2.0 },
            DistModel::LogNormal { sigma: 1.0 },
        ],
        sizes: vec![50],
        pfails: vec![0.001],
        runs: 20,
        base_seed: 42,
    };
    assert_golden("E9", &s, 0x2f70_074e_28a5_b012);
}

#[test]
fn e10_strategies_grid() {
    let s = StrategiesScenario {
        policies: vec![
            PolicySpec::DpOptimal,
            PolicySpec::Daly { period: None },
            PolicySpec::Risk { max_risk: 0.1 },
        ],
        models: vec![DistModel::Exponential, DistModel::Weibull { shape: 0.7 }],
        classes: vec![WorkflowClass::Genome, WorkflowClass::Montage],
        sizes: vec![50],
        pfails: vec![0.01],
        runs: 20,
        base_seed: 42,
    };
    assert_golden("E10", &s, 0x9bae_a039_2f2a_dd4e);
}

#[test]
fn e12_drift_sweep_with_self_check() {
    let s = DriftScenario {
        classes: vec![WorkflowClass::Genome, WorkflowClass::Montage],
        sizes: vec![50],
        pfail: 1e-3,
        self_check: true,
        base_seed: 42,
    };
    assert_golden("E12", &s, 0x399c_be59_ef52_0fc2);
}
