//! # engine — the unified parallel scenario engine (E1–E10)
//!
//! The paper's evaluation is one big Cartesian grid — workflow class ×
//! size × processor count × pfail × CCR × strategy — which the harness
//! binaries used to walk with per-binary copies of hand-rolled nested
//! loops, serially, regenerating every workflow at every grid point.
//! This module replaces all of that with one declarative engine:
//!
//! * a [`Grid`] spec enumerates [`Cell`]s in canonical order, each with
//!   a seed derived from one base seed via `seedmix`;
//! * a [`Scenario`] turns a cell into typed rows (each binary is now a
//!   thin scenario + CLI shell, see [`crate::scenarios`]);
//! * [`run`] executes cells on a work-queue thread pool, re-sequencing
//!   results so the CSV stream is **byte-identical for every thread
//!   count** (see `DESIGN.md` §5.1 for the determinism argument);
//! * one [`ckpt_service::Store`] per run shares generated instances and
//!   CCR-invariant schedules across all cells of a `(class, size)`
//!   lane, keyed exactly as `ckpt_service::Session` keys them;
//! * a [`RowSink`] streams rows out as soon as their canonical
//!   predecessors exist, replacing the collect-then-write pattern.
//!
//! ## Thread budget
//!
//! `EngineConfig::threads` (0 = all cores) buys **cell-level**
//! parallelism: the engine runs `min(threads, cells)` workers. Monte
//! Carlo work nested *inside* a cell gets the separate
//! [`EngineConfig::mc_threads`] budget (default 0 = all cores) via
//! [`CellCtx::mc_threads`]. Both budgets are **pure speed knobs**:
//! every Monte Carlo estimate in the workspace is a bit-identical
//! function of `(seed, runs)` — each replication owns its own `seedmix`
//! stream and result slot, and aggregation folds in canonical run order
//! (see `DESIGN.md` §5.1 and the `sim_properties` /
//! `evaluator_consistency` proptests) — so any combination of
//! `--threads` and `--mc-threads` produces the same CSV bytes. Pick
//! them for wall-clock alone: cell workers amortize planning across the
//! grid, while `mc_threads` parallelizes inside long cells (the E9/E10
//! CkptNone blocks, where one wear-out cell dominates the whole run).
//! Oversubscribing `workers × mc_threads` past the core count costs
//! some scheduling overhead but never changes a value.
//!
//! ## Stage timing
//!
//! Every stage execution inside a cell — the store's generate and
//! schedule misses, the curve, placement, coalescing and evaluation
//! stages scenarios compose (mostly through `ckpt_core::stage::assess`
//! on a stored schedule), and the evaluator and simulator calls they
//! make directly — runs through `ckpt_core::stage::traced` (or its
//! infallible twin `charged`), which charges it to
//! `ckpt_stage_wall_seconds{stage=<StageId>}`. The grid binaries print
//! the seven totals as their `stage walls:` stderr line (see
//! [`crate::stage_walls_since`]); the CSV never sees them.

pub mod pool;
pub mod sink;
pub mod spec;

pub use pool::ordered_parallel;
pub use sink::{CsvFileSink, NullSink, RowSink, StringSink};
pub use spec::{CcrAxis, Cell, Grid, ProcAxis, StrategyAxis};

use std::sync::Arc;
use std::time::Instant;

use ckpt_core::stage::{charged, schedule_stage, StageId};
use ckpt_core::{AllocateConfig, Schedule};
use ckpt_service::{schedule_key, Store, WorkflowArtifact};
use mspg::linearize::Linearizer;
use mspg::Workflow;
use pegasus::ccr::scale_to_ccr;

use crate::BANDWIDTH;

/// Per-memo capacity of a run's [`Store`]: comfortably above any
/// shipped grid's per-(class, size, instance) lane count, so eviction
/// only engages on genuinely huge sweeps.
pub const STORE_CAPACITY: usize = 512;

/// Engine-wide execution parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Cell-level worker budget (0 = all available cores).
    pub threads: usize,
    /// Thread budget for Monte Carlo work nested inside one cell
    /// (0 = all available cores, the default). A pure speed knob: MC
    /// estimates are bit-identical functions of `(seed, runs)` for any
    /// budget, so this never affects the CSV.
    pub mc_threads: usize,
}

impl EngineConfig {
    /// `threads` cell workers with fully parallel nested Monte Carlo.
    /// Placement inside a cell is serial: cell workers already saturate
    /// the cores on full grids.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig {
            threads,
            mc_threads: 0,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::with_threads(0)
    }
}

/// Per-cell execution context: the run's shared [`Store`] and the
/// cell's nested thread budgets.
pub struct CellCtx<'e> {
    store: &'e Store,
    /// Thread budget for Monte Carlo work nested inside one cell
    /// (0 = all cores). Plumb this into `probdag::MonteCarlo::threads` /
    /// `failsim::SimConfig::threads`; it only sets the pace, never the
    /// values.
    pub mc_threads: usize,
}

/// Why a stage in a grid cannot fail: grid inputs are valid by
/// construction and grids never arm fault injection.
pub(crate) const VALID_GRID: &str = "grid inputs are valid and fault injection is off";

impl CellCtx<'_> {
    /// Seed of instance `i` of this cell's `(class, size)` lane.
    pub fn instance_seed(&self, cell: &Cell, i: usize) -> u64 {
        seedmix::stream_seed(cell.seed, i as u64)
    }

    /// The **unscaled** workflow instance `i` of this cell's lane,
    /// generated on first use.
    pub fn instance(&self, cell: &Cell, i: usize) -> Arc<WorkflowArtifact> {
        let seed = self.instance_seed(cell, i);
        let (wa, _) = self.store.generated(cell.class, cell.size, seed, None);
        wa.expect(VALID_GRID)
    }

    /// A clone of instance `i` rescaled to the cell's CCR at the
    /// experiment bandwidth (the rescale is charged to
    /// [`StageId::Generate`]).
    pub fn scaled_instance(&self, cell: &Cell, i: usize) -> Workflow {
        let wa = self.instance(cell, i);
        charged(StageId::Generate, || {
            let mut w = wa.workflow.clone();
            scale_to_ccr(&mut w, cell.ccr, BANDWIDTH);
            w
        })
    }

    /// The schedule of instance `i` on the cell's processors, computed
    /// on the **unscaled** instance on first use. Scenarios assess the
    /// rescaled clone from [`CellCtx::scaled_instance`] on it directly:
    /// it covers that clone by construction.
    ///
    /// For `Structural`/`RandomTopo` linearizers this is bit-identical to
    /// scheduling any CCR-rescaled clone; for `MinVolume` (which ranks by
    /// data volume) uniform rescaling preserves the ranking up to
    /// floating-point ties, and the unscaled order is the canonical one.
    pub fn schedule(&self, cell: &Cell, i: usize, linearizer: Linearizer) -> Arc<Schedule> {
        let wa = self.instance(cell, i);
        let alloc = AllocateConfig {
            linearizer,
            seed: self.instance_seed(cell, i),
        };
        let key = schedule_key(&wa.fp, cell.procs, &alloc);
        let (schedule, _) = self.store.schedules.resolve(StageId::Schedule, key, || {
            schedule_stage(&wa.workflow, cell.procs, &alloc)
        });
        schedule.expect(VALID_GRID)
    }
}

/// One experiment driven by the engine: a cell list plus the cell → rows
/// computation and the CSV mapping.
pub trait Scenario: Sync {
    /// The typed result row.
    type Row: Send;

    /// Short scenario name, used to attribute engine errors (a failed
    /// sink write names the scenario and cell it died on).
    fn name(&self) -> &'static str;

    /// The cells to execute, in canonical output order (`cells[i].index
    /// == i`).
    fn cells(&self) -> Vec<Cell>;

    /// Executes one cell. Must be a pure function of `(cell, ctx)` —
    /// no shared mutable state, no ambient randomness — so that results
    /// are independent of worker scheduling.
    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<Self::Row>;

    /// The CSV header for this scenario's rows.
    fn header(&self) -> String;

    /// Formats one row as a CSV line.
    fn csv(&self, row: &Self::Row) -> String;
}

/// Outcome of an engine run: the typed rows (canonical order) plus
/// execution metadata.
#[derive(Debug)]
pub struct RunReport<R> {
    /// All rows, in canonical grid order.
    pub rows: Vec<R>,
    /// Wall-clock seconds each cell's `run_cell` took, in canonical cell
    /// order (diagnostic only — never part of the CSV, so the
    /// byte-identity guarantee is unaffected).
    pub cell_walls: Vec<f64>,
    /// Number of cells executed.
    pub cells: usize,
    /// Resolved cell-level worker count.
    pub workers: usize,
    /// Nested Monte Carlo budget each cell received (0 = all cores).
    pub mc_threads: usize,
    /// Wall-clock seconds for the whole run.
    pub wall: f64,
    /// Workflow/schedule store counters.
    pub cache: CacheStats,
}

/// Workflow/schedule counters of one run's [`Store`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Instance lookups served from the store.
    pub workflow_hits: usize,
    /// Instance lookups that generated a new instance.
    pub workflow_misses: usize,
    /// Schedule lookups served from the store.
    pub schedule_hits: usize,
    /// Schedule lookups that ran `Allocate`.
    pub schedule_misses: usize,
    /// Entries dropped by the capacity bound.
    pub evictions: usize,
}

impl CacheStats {
    fn of(store: &Store) -> Self {
        let (w, s) = (store.workflows.stats(), store.schedules.stats());
        CacheStats {
            workflow_hits: w.hits as usize,
            workflow_misses: w.misses as usize,
            schedule_hits: s.hits as usize,
            schedule_misses: s.misses as usize,
            evictions: store.stats().totals.evictions as usize,
        }
    }
}

/// Wraps a sink I/O error with the scenario (and cell) it occurred on,
/// preserving the original `ErrorKind`.
fn sink_context(
    e: std::io::Error,
    scenario: &str,
    what: &str,
    cell: Option<&Cell>,
) -> std::io::Error {
    let place = match cell {
        Some(c) => format!(
            " for cell {} (class={} size={} procs={} pfail={} ccr={})",
            c.index,
            c.class.name(),
            c.size,
            c.procs,
            c.pfail,
            c.ccr
        ),
        None => String::new(),
    };
    std::io::Error::new(e.kind(), format!("scenario {scenario}: {what}{place}: {e}"))
}

/// Runs a scenario: executes its cells on the thread pool, streams CSV
/// rows to `sink` in canonical order, and returns the typed rows.
pub fn run<S: Scenario>(
    scenario: &S,
    cfg: &EngineConfig,
    sink: &mut dyn RowSink,
) -> std::io::Result<RunReport<S::Row>> {
    let start = Instant::now();
    let cells = scenario.cells();
    debug_assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
    // One grid-level span per run; every cell span attaches under it by
    // explicit id so the tree is identical for any worker count (cells
    // execute on pool threads, where `Parent::Current` would be empty).
    let grid_span = obs::span::enter(scenario.name());
    let cell_parent = match grid_span.id() {
        Some(id) => obs::span::Parent::Under(id),
        None => obs::span::Parent::Root,
    };
    let workers = seedmix::resolve_threads(cfg.threads)
        .min(cells.len())
        .max(1);
    let mc_threads = cfg.mc_threads;
    let store = Store::bounded(STORE_CAPACITY);
    let ctx = CellCtx {
        store: &store,
        mc_threads,
    };
    // Fail fast with attribution: a sink that can no longer be written
    // aborts the run, and the surfaced error names the scenario (and,
    // for row writes, the exact cell) so a failed overnight grid is
    // diagnosable from the error line alone.
    sink.begin(&scenario.header())
        .map_err(|e| sink_context(e, scenario.name(), "writing header", None))?;
    let mut rows = Vec::with_capacity(cells.len());
    let mut cell_walls = Vec::with_capacity(cells.len());
    let mut sink_err: Option<std::io::Error> = None;
    ordered_parallel(
        cells.len(),
        workers,
        |i| {
            // The span clock is the cell timing source: `cell_walls`
            // reports the same nanoseconds the trace records (zero when
            // the observability layer is compiled out — diagnostic only).
            let (out, nanos) =
                obs::span::timed_full("cell", None, Some(i as u64), cell_parent, || {
                    scenario.run_cell(&cells[i], &ctx)
                });
            (out, nanos as f64 * 1e-9)
        },
        |i, (cell_rows, cell_wall)| {
            cell_walls.push(cell_wall);
            for row in cell_rows {
                if sink_err.is_none() {
                    if let Err(e) = sink.row(&scenario.csv(&row)) {
                        sink_err = Some(sink_context(
                            e,
                            scenario.name(),
                            "writing row",
                            Some(&cells[i]),
                        ));
                    }
                }
                rows.push(row);
            }
            // A sink error aborts the run: remaining cells are cancelled
            // rather than computed for a file that can no longer be
            // written.
            sink_err.is_none()
        },
    );
    if let Some(e) = sink_err {
        return Err(e);
    }
    sink.finish()
        .map_err(|e| sink_context(e, scenario.name(), "finishing output", None))?;
    Ok(RunReport {
        rows,
        cell_walls,
        cells: cells.len(),
        workers,
        mc_threads,
        wall: start.elapsed().as_secs_f64(),
        cache: CacheStats::of(&store),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus::WorkflowClass;

    /// A synthetic scenario exercising the engine plumbing without the
    /// full evaluation pipeline: rows record cell coordinates and the
    /// cached instance's task count.
    struct Probe;

    impl Scenario for Probe {
        type Row = (usize, usize, u64);

        fn name(&self) -> &'static str {
            "probe"
        }

        fn cells(&self) -> Vec<Cell> {
            Grid {
                classes: vec![WorkflowClass::Genome],
                sizes: vec![50],
                procs: ProcAxis::Explicit(vec![3, 5]),
                pfails: vec![0.01],
                ccrs: CcrAxis::Explicit(vec![1e-3, 1e-2, 1e-1]),
                strategies: StrategyAxis::Combined,
                instances: 2,
                base_seed: 9,
            }
            .cells()
        }

        fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<Self::Row> {
            let mut tasks = 0;
            for i in 0..cell.instances {
                tasks = ctx.instance(cell, i).workflow.n_tasks();
            }
            vec![(cell.index, tasks, cell.seed)]
        }

        fn header(&self) -> String {
            "index,tasks,seed".into()
        }

        fn csv(&self, r: &Self::Row) -> String {
            format!("{},{},{}", r.0, r.1, r.2)
        }
    }

    #[test]
    fn rows_arrive_in_canonical_order_for_any_thread_count() {
        for threads in [1, 2, 5] {
            let mut sink = StringSink::new();
            let report = run(&Probe, &EngineConfig::with_threads(threads), &mut sink).unwrap();
            assert_eq!(report.cells, 6);
            let indices: Vec<usize> = report.rows.iter().map(|r| r.0).collect();
            assert_eq!(indices, (0..6).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn csv_is_identical_across_thread_counts() {
        let mut serial = StringSink::new();
        run(&Probe, &EngineConfig::with_threads(1), &mut serial).unwrap();
        for threads in [2, 4] {
            let mut parallel = StringSink::new();
            run(&Probe, &EngineConfig::with_threads(threads), &mut parallel).unwrap();
            assert_eq!(serial.csv, parallel.csv, "threads={threads}");
        }
    }

    #[test]
    fn workflow_cache_is_shared_across_cells() {
        let mut sink = NullSink;
        let report = run(&Probe, &EngineConfig::with_threads(1), &mut sink).unwrap();
        // 6 cells × 2 instances = 12 lookups, but only 2 distinct
        // (class, size, instance) keys exist.
        assert_eq!(report.cache.workflow_misses, 2);
        assert_eq!(report.cache.workflow_hits, 10);
    }

    /// A context over `store` and a Montage-50 cell on `procs`.
    fn lane(store: &Store, procs: usize) -> (CellCtx<'_>, Cell) {
        let ctx = CellCtx {
            store,
            mc_threads: 1,
        };
        let cell = Cell {
            index: 0,
            class: WorkflowClass::Montage,
            size: 50,
            procs,
            pfail: 0.01,
            ccr: 0.1,
            strategy: None,
            instances: 2,
            seed: 3,
        };
        (ctx, cell)
    }

    #[test]
    fn workflow_generated_once_per_key() {
        let store = Store::new();
        let (ctx, cell) = lane(&store, 5);
        let a = ctx.instance(&cell, 0);
        let b = ctx.instance(&cell, 0);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = CacheStats::of(&store);
        assert_eq!((stats.workflow_misses, stats.workflow_hits), (1, 1));
        // Another instance of the lane is another key.
        let c = ctx.instance(&cell, 1);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(CacheStats::of(&store).workflow_misses, 2);
    }

    #[test]
    fn schedules_key_on_procs_and_linearizer() {
        let store = Store::new();
        let (ctx, cell5) = lane(&store, 5);
        let (_, cell7) = lane(&store, 7);
        let a = ctx.schedule(&cell5, 0, Linearizer::RandomTopo);
        let b = ctx.schedule(&cell5, 0, Linearizer::RandomTopo);
        assert!(Arc::ptr_eq(&a, &b));
        let c = ctx.schedule(&cell7, 0, Linearizer::RandomTopo);
        assert!(!Arc::ptr_eq(&a, &c));
        let d = ctx.schedule(&cell5, 0, Linearizer::Structural);
        assert!(!Arc::ptr_eq(&a, &d));
        let stats = CacheStats::of(&store);
        assert_eq!((stats.schedule_misses, stats.schedule_hits), (3, 1));
    }

    #[test]
    fn stored_schedule_equals_direct_allocate_on_the_unscaled_instance() {
        let store = Store::new();
        let (ctx, cell) = lane(&store, 5);
        let w = ctx.instance(&cell, 1);
        for linearizer in [Linearizer::RandomTopo, Linearizer::MinVolume] {
            let stored = ctx.schedule(&cell, 1, linearizer);
            let cfg = AllocateConfig {
                linearizer,
                seed: ctx.instance_seed(&cell, 1),
            };
            let direct = ckpt_core::allocate(&w.workflow, cell.procs, &cfg);
            assert_eq!(stored.superchains, direct.superchains, "{linearizer:?}");
        }
    }

    #[test]
    fn mc_budget_is_independent_of_cell_workers() {
        // Cell workers cap at the cell count; the nested MC budget is
        // its own knob (default 0 = all cores) and passes through
        // unchanged — it is a pure speed knob, so no coercion is needed
        // for determinism.
        let report = run(&Probe, &EngineConfig::with_threads(4), &mut NullSink).unwrap();
        assert_eq!(report.workers, 4);
        assert_eq!(report.mc_threads, 0);
        let report = run(&Probe, &EngineConfig::with_threads(24), &mut NullSink).unwrap();
        assert_eq!(report.workers, 6);
        assert_eq!(report.mc_threads, 0);
        let cfg = EngineConfig {
            threads: 2,
            mc_threads: 3,
        };
        let report = run(&Probe, &cfg, &mut NullSink).unwrap();
        assert_eq!(report.mc_threads, 3);
    }

    /// A sink that fails on the nth row.
    struct FailingSink {
        rows_before_failure: usize,
        rows: usize,
    }

    impl RowSink for FailingSink {
        fn begin(&mut self, _header: &str) -> std::io::Result<()> {
            Ok(())
        }

        fn row(&mut self, _line: &str) -> std::io::Result<()> {
            if self.rows >= self.rows_before_failure {
                return Err(std::io::Error::other("disk full"));
            }
            self.rows += 1;
            Ok(())
        }

        fn finish(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_error_aborts_the_run() {
        for threads in [1, 3] {
            let mut sink = FailingSink {
                rows_before_failure: 2,
                rows: 0,
            };
            let err = run(&Probe, &EngineConfig::with_threads(threads), &mut sink)
                .expect_err("sink failure must surface");
            let msg = err.to_string();
            assert!(msg.contains("disk full"), "threads={threads}: {msg}");
            // Fail-fast attribution: the error names the scenario and
            // the cell whose row could not be written.
            assert!(msg.contains("scenario probe"), "threads={threads}: {msg}");
            assert!(msg.contains("class=genome"), "threads={threads}: {msg}");
            assert!(msg.contains("procs="), "threads={threads}: {msg}");
        }
    }

    #[test]
    fn unwritable_sink_path_fails_with_scenario_attribution() {
        // A parent that is a regular *file*: `begin` can neither create
        // the directory chain nor the CSV (the sink normally mkdir -p's
        // missing parents, so a merely absent directory is writable).
        let blocker = std::env::temp_dir().join("ckpt_engine_unwritable_blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let path = blocker.join("out.csv");
        let mut sink = crate::engine::sink::CsvFileSink::new(&path);
        let err = run(&Probe, &EngineConfig::with_threads(1), &mut sink)
            .expect_err("unwritable path must surface");
        let msg = err.to_string();
        assert!(msg.contains("scenario probe"), "{msg}");
        assert!(msg.contains("writing header"), "{msg}");
    }
}
