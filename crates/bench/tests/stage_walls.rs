//! One stage vocabulary on both front ends: every stage execution is
//! charged to its own `ckpt_stage_wall_seconds{stage=<StageId>}`
//! series, whether a `ckpt_service::Session` or the grid engine runs
//! it. Gated on `observe` (the histograms read 0 without it).
//!
//! The metrics registry is process-global and never reset here, so the
//! assertions only ever require a series to be non-zero or absent. The
//! file holds a single test so nothing else in its process touches the
//! registry.

#![cfg(feature = "observe")]

use ckpt_bench::engine::{self, Cell, CellCtx, EngineConfig, NullSink, Scenario};
use ckpt_bench::scenarios::FigureScenario;
use ckpt_bench::FigureRow;
use ckpt_core::StageId;
use ckpt_service::{Inputs, ModelSpec, Session, WorkflowSource};
use pegasus::WorkflowClass;

fn count(stage: StageId) -> u64 {
    obs::metrics::labeled_histogram_seconds("ckpt_stage_wall_seconds", "stage", stage.name())
        .count()
}

/// The first cell of a figure grid, alone.
struct OneFigureCell(FigureScenario);

impl Scenario for OneFigureCell {
    type Row = FigureRow;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn cells(&self) -> Vec<Cell> {
        self.0.cells().into_iter().take(1).collect()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<FigureRow> {
        self.0.run_cell(cell, ctx)
    }

    fn header(&self) -> String {
        self.0.header()
    }

    fn csv(&self, row: &FigureRow) -> String {
        self.0.csv(row)
    }
}

#[test]
fn both_front_ends_charge_each_stage_to_its_own_series() {
    // A cold what-if query executes the whole chain through the store.
    let source = WorkflowSource::Generated {
        class: WorkflowClass::Montage,
        size: 50,
        seed: 7,
        ccr: Some(0.05),
    };
    let inputs = Inputs::basic(source, 4, 1e8, ModelSpec::Exponential { pfail: 1e-3 });
    Session::new(inputs)
        .try_query(&ckpt_service::WhatIf::Nop)
        .unwrap();
    for stage in [
        StageId::Schedule,
        StageId::Placement,
        StageId::SegmentGraph,
        StageId::EvalAnalytic,
    ] {
        assert!(count(stage) > 0, "a cold query left no `{stage}` time");
    }

    // A grid cell splits placement from coalescing, and the engine's
    // old four-bucket `plan` label is gone.
    let (placement, segment_graph) = (count(StageId::Placement), count(StageId::SegmentGraph));
    let scenario = OneFigureCell(FigureScenario {
        class: WorkflowClass::Genome,
        sizes: vec![50],
        ccr_points: 2,
        instances: 1,
        base_seed: 42,
    });
    let report = engine::run(&scenario, &EngineConfig::with_threads(1), &mut NullSink).unwrap();
    assert_eq!(1, report.cells);
    assert!(count(StageId::Placement) > placement);
    assert!(count(StageId::SegmentGraph) > segment_graph);
    let snapshot = obs::metrics::snapshot_json();
    assert!(snapshot.contains(r#"ckpt_stage_wall_seconds{stage=\"placement\"}"#));
    assert!(!snapshot.contains(r#"stage=\"plan\""#), "{snapshot}");
}
