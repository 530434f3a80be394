//! The engine's core guarantee (ISSUE 2 acceptance bar, extended by
//! ISSUE 6): for a fixed scenario and base seed, the emitted CSV is
//! **byte-identical for every `threads` and `mc_threads` value** —
//! cells may execute in any order on any worker, seeds derive from
//! grid coordinates, rows are re-sequenced into canonical order before
//! they reach the sink, and every nested Monte Carlo estimate is a
//! pure function of `(seed, runs)` regardless of its thread budget.

use ckpt_bench::engine::{self, EngineConfig, NullSink, Scenario, StringSink};
use ckpt_bench::scenarios::{
    DistModel, DistributionsScenario, DriftScenario, FigureScenario, StrategiesScenario,
    ValidateScenario,
};
use ckpt_service::PolicySpec;
use pegasus::WorkflowClass;

fn csv<S: Scenario>(scenario: &S, threads: usize) -> String {
    let mut sink = StringSink::new();
    engine::run(scenario, &EngineConfig::with_threads(threads), &mut sink).unwrap();
    sink.csv
}

fn mini_figures() -> FigureScenario {
    FigureScenario {
        class: WorkflowClass::Montage,
        sizes: vec![50],
        ccr_points: 3,
        instances: 2,
        base_seed: 42,
    }
}

#[test]
fn parallel_figure_grid_is_byte_identical_to_serial() {
    let scenario = mini_figures();
    let serial = csv(&scenario, 1);
    // 1 size × 4 procs × 3 pfails × 3 CCRs = 36 cells, plus the header.
    assert_eq!(serial.lines().count(), 37);
    for threads in [2, 4, 8] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
    // And stable across repeated runs of the same configuration.
    assert_eq!(serial, csv(&scenario, 1));
}

#[test]
fn parallel_validation_with_nested_mc_is_byte_identical_to_serial() {
    // The validation scenario nests Monte Carlo simulation inside each
    // cell; each replication draws from its own derived stream and the
    // results reduce in canonical run-index order, so the simulated
    // estimates are identical across cell-worker counts — including
    // budgets larger than the 9-cell grid.
    let scenario = ValidateScenario {
        runs: 60,
        sizes: vec![50],
        base_seed: 7,
    };
    let serial = csv(&scenario, 1);
    for threads in [2, 4, 16] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
}

#[test]
fn parallel_distributions_grid_is_byte_identical_to_serial() {
    // The E9 failure-distribution scenario nests both segment and
    // CkptNone Monte Carlo inside each cell and repeats the base grid
    // once per model block; its CSV must hold the engine's byte-identity
    // guarantee for any thread count, including budgets beyond the cell
    // count.
    let scenario = DistributionsScenario {
        models: vec![DistModel::Exponential, DistModel::Weibull { shape: 0.7 }],
        sizes: vec![50],
        pfails: vec![0.001],
        runs: 30,
        base_seed: 11,
    };
    let serial = csv(&scenario, 1);
    // 2 models × 3 classes × 1 size × 1 pfail cells, 4 strategies each,
    // plus the header.
    assert_eq!(serial.lines().count(), 2 * 3 * 4 + 1);
    for threads in [2, 8] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
}

#[test]
fn parallel_strategies_grid_is_byte_identical_to_serial() {
    // The E10 checkpoint-policy scenario repeats the base grid once per
    // (policy, model) block and nests a segment simulation in every
    // cell; its CSV must hold the engine's byte-identity guarantee for
    // any thread count, including budgets beyond the cell count.
    let scenario = StrategiesScenario {
        policies: vec![
            PolicySpec::DpOptimal,
            PolicySpec::Daly { period: None },
            PolicySpec::Risk { max_risk: 0.1 },
            PolicySpec::Crossover,
        ],
        models: vec![DistModel::Exponential, DistModel::Weibull { shape: 2.0 }],
        classes: vec![WorkflowClass::Genome, WorkflowClass::Montage],
        sizes: vec![50],
        pfails: vec![0.01],
        runs: 30,
        base_seed: 21,
    };
    let serial = csv(&scenario, 1);
    // 4 policies × 2 models × 2 classes × 1 size × 1 pfail cells, one
    // row each, plus the header.
    assert_eq!(serial.lines().count(), 4 * 2 * 2 + 1);
    for threads in [2, 8, 32] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
}

#[test]
fn csv_is_byte_identical_across_mc_thread_budgets() {
    // ISSUE 6 acceptance bar: `mc_threads` is a pure speed knob. The
    // nested Monte Carlo partitions its replications differently under
    // each budget, but per-replication streams and canonical-order
    // reduction make every estimate — and therefore the CSV — a pure
    // function of `(seed, runs)`.
    let scenario = ValidateScenario {
        runs: 60,
        sizes: vec![50],
        base_seed: 7,
    };
    let csv_at = |mc_threads: usize| {
        let mut sink = StringSink::new();
        let cfg = EngineConfig {
            threads: 2,
            mc_threads,
        };
        engine::run(&scenario, &cfg, &mut sink).unwrap();
        sink.csv
    };
    let baseline = csv_at(1);
    for mc_threads in [4, 0] {
        assert_eq!(baseline, csv_at(mc_threads), "mc_threads={mc_threads}");
    }
}

#[test]
fn parallel_drift_sweep_is_byte_identical_to_serial() {
    // The E12 scenario is stateful *within* a cell (each cell's session
    // commits a drift ladder step by step) but cells are independent:
    // every cell owns a fresh session and store, so the engine's
    // byte-identity guarantee must hold for any worker count. The cold
    // self-check stays on — this doubles as the invalidation soundness
    // harness under parallel execution.
    let scenario = DriftScenario {
        classes: vec![pegasus::WorkflowClass::Genome, WorkflowClass::Montage],
        sizes: vec![50],
        pfail: 1e-3,
        self_check: true,
        base_seed: 29,
    };
    let serial = csv(&scenario, 1);
    // 2 classes × 1 size cells, 9 ladder steps each, plus the header.
    assert_eq!(serial.lines().count(), 2 * 9 + 1);
    for threads in [2, 8] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
}

#[test]
fn rows_follow_canonical_cell_order() {
    let scenario = mini_figures();
    let cells = scenario.cells();
    let report = engine::run(&scenario, &EngineConfig::with_threads(4), &mut NullSink).unwrap();
    assert_eq!(report.rows.len(), cells.len());
    for (cell, row) in cells.iter().zip(&report.rows) {
        assert_eq!(cell.size, row.size);
        assert_eq!(cell.procs, row.procs);
        assert_eq!(cell.pfail.to_bits(), row.pfail.to_bits());
        assert_eq!(cell.ccr.to_bits(), row.ccr.to_bits());
    }
}

#[test]
fn workflow_cache_shares_instances_across_the_grid() {
    let scenario = mini_figures();
    let report = engine::run(&scenario, &EngineConfig::with_threads(2), &mut NullSink).unwrap();
    // 1 size × 2 instances distinct workflows for 36 cells × 2 lookups.
    assert_eq!(report.cache.workflow_misses, 2);
    assert!(report.cache.workflow_hits >= 70, "{:?}", report.cache);
    // Schedules: 4 proc counts × 2 instances distinct, reused across
    // 3 pfails × 3 CCRs.
    assert_eq!(report.cache.schedule_misses, 8);
    assert_eq!(report.cache.schedule_hits, 64);
}

#[test]
fn figure_grid_wrapper_matches_explicit_engine_run() {
    let rows = ckpt_bench::figure_grid(WorkflowClass::Ligo, 2, 1, 11);
    let scenario = FigureScenario::paper(WorkflowClass::Ligo, 2, 1, 11);
    let report = engine::run(&scenario, &EngineConfig::with_threads(1), &mut NullSink).unwrap();
    assert_eq!(rows.len(), report.rows.len());
    for (a, b) in rows.iter().zip(&report.rows) {
        assert_eq!(ckpt_bench::figure_csv(a), ckpt_bench::figure_csv(b));
    }
}
