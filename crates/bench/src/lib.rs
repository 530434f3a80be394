//! # ckpt-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VI).
//! See DESIGN.md §5 for the experiment index (E1–E12) and §5.1 for the
//! scenario engine; EXPERIMENTS.md tracks paper-vs-measured results.
//! Binaries (all driven through [`engine`] by the scenarios in
//! [`scenarios`], all accepting `--threads`):
//!
//! * `figures` — E1/E2/E3: relative expected makespan of CkptAll and
//!   CkptNone over CkptSome vs CCR (Figures 5, 6, 7);
//! * `accuracy` — E4: accuracy/runtime of the four 2-state evaluators
//!   (§VI-B);
//! * `validate` — E5: first-order model vs discrete-event simulation;
//! * `ablation` — E6 (linearization), E7 (naive coalescing), E8 (Ligo
//!   incomplete-bipartite footnote);
//! * `distributions` — E9: the four strategies under Weibull / LogNormal
//!   failure models against the exponential baseline (DESIGN.md §6);
//! * `strategies` — E10: the checkpoint-policy comparison (DP vs
//!   Young/Daly periodic vs risk-threshold vs structural crossover,
//!   DESIGN.md §8);
//! * `drift` — E12: the incremental-planning drift sweep (per-cell
//!   `ckpt_service` sessions committing a drift ladder with an in-run
//!   cold-equality self-check, DESIGN.md §10);
//! * `whatif` — the batched what-if query load, incremental vs cold
//!   recompute (not grid-driven: it exercises `ckpt_service` directly;
//!   `splitting` and `planscale` are likewise direct harnesses).
//!
//! The engine resolves workflow instances and schedules through the same
//! `ckpt_service::Store` and key functions as the what-if `Session`, and
//! every stage execution is timed under its `ckpt_core::StageId`; each
//! binary prints those seven totals as its `stage walls:` stderr line
//! ([`stage_walls_since`]).

pub mod engine;
pub mod scenarios;
pub mod summary;

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use ckpt_core::stage::{assess, curve_stage, schedule_stage, wall_seconds, StageId};
use ckpt_core::{
    lambda_from_pfail, AllocateConfig, CostCtx, FailureModel, Platform, RestartCurve, Schedule,
    Strategy,
};
use mspg::Workflow;
use pegasus::ccr::scale_to_ccr;
use pegasus::WorkflowClass;
use probdag::PathApprox;

/// Stable-storage bandwidth used throughout the experiments (bytes/s).
/// Its absolute value is immaterial: every experiment pins the CCR by
/// rescaling file sizes against it (§VI-A).
pub const BANDWIDTH: f64 = 1e8;

/// The paper's workflow sizes.
pub const SIZES: [usize; 3] = [50, 300, 1000];

/// The paper's `pfail` values (columns of Figures 5–7).
pub const PFAILS: [f64; 3] = [0.01, 0.001, 0.0001];

/// One row of the figure experiments.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Workflow class (figure).
    pub class: WorkflowClass,
    /// Requested task count (row of the figure).
    pub size: usize,
    /// Actual task count of the generated instance.
    pub actual_tasks: usize,
    /// Processor count (curve).
    pub procs: usize,
    /// Per-task failure probability (column).
    pub pfail: f64,
    /// Communication-to-computation ratio (x-axis).
    pub ccr: f64,
    /// Expected makespan of CkptSome (seconds).
    pub em_some: f64,
    /// Expected makespan of CkptAll (seconds).
    pub em_all: f64,
    /// Expected makespan of CkptNone (Theorem 1, seconds).
    pub em_none: f64,
    /// Checkpointed tasks under CkptSome.
    pub ckpts_some: usize,
    /// Relative expected makespan CkptAll / CkptSome (y-axis, > 1 means
    /// CkptSome wins).
    pub rel_all: f64,
    /// Relative expected makespan CkptNone / CkptSome.
    pub rel_none: f64,
}

/// Runs one figure cell, averaging over `instances` generated workflows:
/// instance `i` lives on seed `base_seed + i` and is scheduled by its
/// own `Allocate`.
///
/// This is the serial path the calibration gates in
/// `tests/figure_shapes.rs` pin; the binaries and [`figure_grid`] run
/// the store-sharing engine path ([`scenarios::FigureScenario`]). Both
/// compute the row with the same per-instance assessment.
pub fn figure_cell(
    class: WorkflowClass,
    size: usize,
    procs: usize,
    pfail: f64,
    ccr: f64,
    instances: usize,
    base_seed: u64,
) -> FigureRow {
    let cell = engine::Cell {
        index: 0,
        class,
        size,
        procs,
        pfail,
        ccr,
        strategy: None,
        instances,
        seed: base_seed,
    };
    figure_row(&cell, |i| {
        let seed = base_seed.wrapping_add(i as u64);
        let w = instance(class, size, ccr, seed);
        let cfg = AllocateConfig {
            seed,
            ..Default::default()
        };
        let schedule = schedule_stage(&w, procs, &cfg).expect(engine::VALID_GRID);
        (w, Arc::new(schedule))
    })
}

/// The figure experiments' per-cell computation: for each of the
/// cell's instances, `instance(i)` yields the CCR-rescaled workflow and
/// its schedule on the cell's processors; CkptSome, CkptAll and
/// CkptNone are assessed on that schedule under the cell's exponential
/// platform and averaged into one row.
pub(crate) fn figure_row(
    cell: &engine::Cell,
    instance: impl Fn(usize) -> (Workflow, Arc<Schedule>),
) -> FigureRow {
    assert!(cell.instances >= 1);
    let evaluator = PathApprox::default();
    let (mut em_some, mut em_all, mut em_none) = (0.0, 0.0, 0.0);
    let mut ckpts = 0usize;
    let mut actual = 0usize;
    for i in 0..cell.instances {
        let (w, schedule) = instance(i);
        actual = w.n_tasks();
        let model = exponential(cell, &w);
        let curve = curve(cell, &w, model);
        let ctx = CostCtx::with_curve(&w.dag, model, BANDWIDTH, curve.as_ref());
        let em =
            |strategy| assess(&ctx, &schedule, strategy, &evaluator).expect(engine::VALID_GRID);
        let some = em(Strategy::CkptSome);
        em_some += some.expected_makespan;
        ckpts += some.n_checkpoints;
        em_all += em(Strategy::CkptAll).expected_makespan;
        em_none += em(Strategy::CkptNone).expected_makespan;
    }
    let nf = cell.instances as f64;
    let (em_some, em_all, em_none) = (em_some / nf, em_all / nf, em_none / nf);
    FigureRow {
        class: cell.class,
        size: cell.size,
        actual_tasks: actual,
        procs: cell.procs,
        pfail: cell.pfail,
        ccr: cell.ccr,
        em_some,
        em_all,
        em_none,
        ckpts_some: ckpts / cell.instances,
        rel_all: em_all / em_some,
        rel_none: em_none / em_some,
    }
}

/// The cell's exponential failure model: `pfail` calibrated on the
/// mean task weight of the rescaled instance `w`.
pub(crate) fn exponential(cell: &engine::Cell, w: &Workflow) -> FailureModel {
    FailureModel::exponential(lambda_from_pfail(cell.pfail, w.dag.mean_weight()))
}

/// The curve stage for `w` on the cell's processors failing under
/// `model` at the experiment bandwidth: the renewal table a
/// non-memoryless [`CostCtx`] borrows (`None` for memoryless models).
pub(crate) fn curve(
    cell: &engine::Cell,
    w: &Workflow,
    model: FailureModel,
) -> Option<RestartCurve> {
    let platform = Platform::with_model(cell.procs, model, BANDWIDTH);
    curve_stage(&w.dag, &platform).expect(engine::VALID_GRID)
}

/// Runs the full grid for one class (one figure): sizes × processor
/// counts × pfail × CCR grid, through the parallel scenario engine
/// (all cores; rows come back in canonical grid order regardless).
pub fn figure_grid(
    class: WorkflowClass,
    ccr_points: usize,
    instances: usize,
    seed: u64,
) -> Vec<FigureRow> {
    let scenario = scenarios::FigureScenario::paper(class, ccr_points, instances, seed);
    engine::run(
        &scenario,
        &engine::EngineConfig::default(),
        &mut engine::NullSink,
    )
    .expect("in-memory engine run cannot fail")
    .rows
}

/// CSV header matching [`FigureRow`].
pub const FIGURE_HEADER: &str =
    "class,size,actual_tasks,procs,pfail,ccr,em_some,em_all,em_none,ckpts_some,rel_all,rel_none";

/// Formats a figure row as CSV.
pub fn figure_csv(r: &FigureRow) -> String {
    format!(
        "{},{},{},{},{},{:.6e},{:.6},{:.6},{:.6},{},{:.4},{:.4}",
        r.class,
        r.size,
        r.actual_tasks,
        r.procs,
        r.pfail,
        r.ccr,
        r.em_some,
        r.em_all,
        r.em_none,
        r.ckpts_some,
        r.rel_all,
        r.rel_none
    )
}

/// Writes rows to `path`, creating parent directories.
pub fn write_csv(path: &Path, header: &str, rows: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = String::with_capacity(rows.len() * 80 + header.len() + 1);
    writeln!(out, "{header}").unwrap();
    for r in rows {
        writeln!(out, "{r}").unwrap();
    }
    std::fs::write(path, out)
}

/// A workflow instance pinned to a CCR (shared by `accuracy`/`validate`).
pub fn instance(class: WorkflowClass, size: usize, ccr: f64, seed: u64) -> Workflow {
    let mut w = pegasus::generate(class, size, seed);
    scale_to_ccr(&mut w, ccr, BANDWIDTH);
    w
}

/// The grid binaries' `stage walls:` stderr line: seconds each
/// [`StageId`] spent executing since `start` (a
/// [`ckpt_core::stage::wall_seconds`] snapshot), summed across workers.
pub fn stage_walls_since(start: &[f64; 7]) -> String {
    let now = wall_seconds();
    StageId::ALL
        .iter()
        .map(|&s| format!("{} {:.2}s", s.name(), now[s as usize] - start[s as usize]))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Tiny `--key value` argument parser for the harness binaries.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name).
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                let value = argv.get(i + 1).cloned().unwrap_or_default();
                pairs.push((key.to_owned(), value));
                i += 2;
            } else {
                i += 1;
            }
        }
        Args { pairs }
    }

    /// The value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses `--key` as `T`, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Observability outputs for a harness binary, parsed from
/// `--trace-out FILE` (schema-validated JSONL span dump) and
/// `--metrics-out FILE` (Prometheus text exposition, or the
/// machine-readable JSON snapshot when FILE ends in `.json` — the form
/// the `obs` section of BENCH_hotpath.json is regenerated from). Every
/// binary accepts both; construct this **before** the run (it arms the
/// span recorder and zeroes the metrics registry) and call
/// [`ObsOut::finish`] after.
pub struct ObsOut {
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl ObsOut {
    /// Parses the flags; arms the recorder / resets the registry when
    /// an output was requested. A binary built with
    /// `--no-default-features` has the layer compiled out, and silently
    /// writing an empty trace would be worse than refusing — so this
    /// panics instead.
    pub fn from_args(args: &Args) -> Self {
        let trace_out = args.get("trace-out").map(str::to_owned);
        let metrics_out = args.get("metrics-out").map(str::to_owned);
        if (trace_out.is_some() || metrics_out.is_some()) && !obs::compiled_in() {
            panic!(
                "--trace-out/--metrics-out require the `observe` feature; \
                 this binary was built with --no-default-features"
            );
        }
        if trace_out.is_some() || metrics_out.is_some() {
            obs::metrics::reset();
        }
        if trace_out.is_some() {
            obs::span::arm();
        }
        ObsOut {
            trace_out,
            metrics_out,
        }
    }

    /// Whether span recording was requested (and the recorder armed).
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some()
    }

    /// Whether a metrics dump was requested.
    pub fn metrics(&self) -> bool {
        self.metrics_out.is_some()
    }

    /// Disarms the recorder and writes the requested files. Call after
    /// any final metric exports (e.g. `Store::export_metrics`), once.
    pub fn finish(&self) -> std::io::Result<()> {
        obs::span::disarm();
        if let Some(out) = &self.trace_out {
            let spans = obs::span::drain();
            let path = Path::new(out);
            obs::jsonl::write_file(path, &spans)?;
            eprintln!("trace: {} spans -> {}", spans.len(), path.display());
        }
        if let Some(out) = &self.metrics_out {
            let path = Path::new(out);
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            let text = if out.ends_with(".json") {
                obs::metrics::snapshot_json()
            } else {
                obs::metrics::exposition()
            };
            std::fs::write(path, text)?;
            eprintln!("metrics -> {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_cell_produces_sane_ratios() {
        let r = figure_cell(WorkflowClass::Genome, 50, 5, 0.001, 1e-3, 1, 42);
        assert!(r.em_some > 0.0);
        assert!(r.rel_all >= 0.98, "CkptAll/CkptSome {}", r.rel_all);
        assert!(r.rel_none > 0.0);
        assert_eq!(r.procs, 5);
    }

    #[test]
    fn csv_roundtrip_format() {
        let r = figure_cell(WorkflowClass::Montage, 50, 3, 0.01, 0.1, 1, 1);
        let line = figure_csv(&r);
        assert_eq!(line.split(',').count(), FIGURE_HEADER.split(',').count());
        assert!(line.starts_with("montage,50"));
    }

    #[test]
    fn args_parser() {
        let args = Args {
            pairs: vec![
                ("workflow".into(), "ligo".into()),
                ("points".into(), "5".into()),
            ],
        };
        assert_eq!(args.get("workflow"), Some("ligo"));
        assert_eq!(args.get_or("points", 9usize), 5);
        assert_eq!(args.get_or("instances", 3usize), 3);
    }
}
