//! `grid-montage`: the paper's Montage figure grid (E2) through
//! `ckpt_bench::engine::run`, the largest batch job users run.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use ckpt_bench::engine::{run as engine_run, Cell, EngineConfig, NullSink, RunReport, Scenario};
use ckpt_bench::scenarios::FigureScenario;
use ckpt_bench::{FigureRow, BANDWIDTH};
use ckpt_core::stage::{
    curve_stage, evaluate_stage, placement_stage, schedule_stage, segment_graph_stage,
};
use ckpt_core::{
    lambda_from_pfail, theorem1_model, AllocateConfig, CostCtx, Platform, PolicyScratch, Schedule,
    StageId, Strategy, KERNEL_MIN_LEN,
};
use mspg::linearize::Linearizer;
use mspg::Workflow;
use pegasus::ccr::scale_to_ccr;
use pegasus::WorkflowClass;
use probdag::PathApprox;
use seedmix::digest::Fnv1a;

use crate::ledger::{fold_rounds, Ledger};
use crate::measure::{cpu_seconds, ratio, rss_mib, since, stream, Rng};
use crate::{Config, Outcome, Timed};

/// CCR points per sweep (the paper draws 9; 3 keep a round near 2 s).
const POINTS: usize = 3;
/// Instances averaged per cell.
const INSTANCES: usize = 2;
/// Engine cell workers: one per core of the 2-core machine the
/// workload was sized on.
const WORKERS: usize = 2;
/// Share of cells the untraced run re-derives through the stage functions.
const CHECK_SHARE: f64 = 0.25;
/// Set-up repetitions (the reported `setup_s` is their median).
const SETUPS: usize = 15;

/// Digest of the grid's rows at the commit that defined this benchmark,
/// for the seeds it was recorded on.
const REFERENCE: [(u64, u64); 2] = [(1, 0x4266_91f7_3eea_f166), (2, 0x1694_91f0_a1f4_3ab3)];

fn scenario(seed: u64) -> FigureScenario {
    FigureScenario::paper(WorkflowClass::Montage, POINTS, INSTANCES, seed)
}

/// Exact-bits digest of one row.
fn row_digest(r: &FigureRow) -> u64 {
    Fnv1a::new()
        .write_usize(r.size)
        .write_usize(r.actual_tasks)
        .write_usize(r.procs)
        .write_f64(r.pfail)
        .write_f64(r.ccr)
        .write_f64(r.em_some)
        .write_f64(r.em_all)
        .write_f64(r.em_none)
        .write_usize(r.ckpts_some)
        .write_f64(r.rel_all)
        .write_f64(r.rel_none)
        .finish()
}

fn grid_digest(rows: &[FigureRow]) -> u64 {
    let mut h = Fnv1a::new();
    for r in rows {
        h.write_word(row_digest(r));
    }
    h.finish()
}

/// The engine's work, re-derived call by call through the public stage
/// functions: instances and schedules computed once per key, as the
/// engine's cache does, and every stage call timed into the ledger.
struct Replay {
    workflows: HashMap<(usize, u64), Workflow>,
    schedules: HashMap<(usize, u64, usize), Schedule>,
    ledger: Ledger,
}

impl Replay {
    fn new() -> Self {
        Replay {
            workflows: HashMap::new(),
            schedules: HashMap::new(),
            ledger: Ledger::new(false),
        }
    }

    fn cell(&mut self, cell: &Cell) -> FigureRow {
        let evaluator = PathApprox::default();
        let (mut em_some, mut em_all, mut em_none) = (0.0, 0.0, 0.0);
        let mut ckpts = 0usize;
        let mut actual = 0usize;
        for i in 0..cell.instances {
            let seed = seedmix::stream_seed(cell.seed, i as u64);
            let lg = &mut self.ledger;
            let w = self.workflows.entry((cell.size, seed)).or_insert_with(|| {
                let w = lg.call(StageId::Generate, || {
                    pegasus::generate(cell.class, cell.size, seed)
                });
                lg.count("generate.tasks", w.n_tasks());
                w
            });
            let sched = self
                .schedules
                .entry((cell.size, seed, cell.procs))
                .or_insert_with(|| {
                    let cfg = AllocateConfig {
                        linearizer: Linearizer::RandomTopo,
                        seed,
                    };
                    let s = lg
                        .call(StageId::Schedule, || schedule_stage(w, cell.procs, &cfg))
                        .expect("schedule stage");
                    lg.count("schedule.superchains", s.superchains.len());
                    s
                });
            let scaled = lg.charge(StageId::Generate, || {
                let mut s = w.clone();
                scale_to_ccr(&mut s, cell.ccr, BANDWIDTH);
                s
            });
            actual = scaled.n_tasks();
            let lambda = lambda_from_pfail(cell.pfail, scaled.dag.mean_weight());
            let platform = Platform::new(cell.procs, lambda, BANDWIDTH);
            let curve = lg
                .call(StageId::Curve, || curve_stage(&scaled.dag, &platform))
                .expect("curve stage");
            let ctx = CostCtx {
                dag: &scaled.dag,
                model: platform.model,
                bandwidth: platform.bandwidth,
                curve: curve.as_ref(),
                budget: None,
            };
            let eligible = sched
                .superchains
                .iter()
                .filter(|c| c.tasks.len() >= KERNEL_MIN_LEN)
                .count();
            let mut assess = |strategy: Strategy| {
                let policy = strategy.policy().expect("placement strategy");
                let plan = lg
                    .call(StageId::Placement, || {
                        placement_stage(&ctx, sched, policy, &mut PolicyScratch::new(), 1)
                    })
                    .expect("placement stage");
                lg.count("placement.checkpoints", plan.n_checkpoints());
                lg.count("placement.kernel_eligible_chains", eligible);
                let sg = lg
                    .call(StageId::SegmentGraph, || {
                        segment_graph_stage(&ctx, sched, &plan)
                    })
                    .expect("segment-graph stage");
                lg.count("segment_graph.segments", sg.segments.len());
                lg.count("segment_graph.edges", sg.pdag.n_edges());
                let em = lg
                    .call(StageId::EvalAnalytic, || evaluate_stage(&sg, &evaluator))
                    .expect("evaluate stage");
                lg.count("eval_analytic.nodes", sg.pdag.n_nodes());
                (em, sg.placement_stats(&scaled.dag).segments)
            };
            let (some, n_ckpt) = assess(Strategy::CkptSome);
            em_some += some;
            ckpts += n_ckpt;
            em_all += assess(Strategy::CkptAll).0;
            em_none += lg.call(StageId::EvalAnalytic, || {
                let w_par = sched.failure_free_parallel_time(&scaled.dag);
                theorem1_model(w_par, cell.procs, &platform.model)
            });
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
}

fn engine_pass(s: &FigureScenario) -> RunReport<FigureRow> {
    engine_run(s, &EngineConfig::with_threads(WORKERS), &mut NullSink).expect("engine run")
}

/// Cells of `rows` that differ from `expected`, bit for bit.
fn mismatches(rows: &[FigureRow], expected: &[FigureRow]) -> u64 {
    if rows.len() != expected.len() {
        return rows.len().max(expected.len()) as u64;
    }
    rows.iter()
        .zip(expected)
        .filter(|(a, b)| row_digest(a) != row_digest(b))
        .count() as u64
}

pub fn run(cfg: &Config) -> Outcome {
    // Set-up: the cell list and every workflow instance the grid reads.
    let s = scenario(cfg.seed);
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let cells = scenario(cfg.seed).cells();
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            for i in 0..c.instances {
                let seed = seedmix::stream_seed(c.seed, i as u64);
                if seen.insert((c.size, seed)) {
                    std::hint::black_box(pegasus::generate(c.class, c.size, seed));
                }
            }
        }
        setups.push(since(t0));
    }
    if cfg.trace {
        traced(cfg, &s)
    } else {
        untraced(cfg, &s, setups)
    }
}

fn untraced(cfg: &Config, s: &FigureScenario, setups: Vec<f64>) -> Outcome {
    let mut rounds: Vec<Vec<FigureRow>> = Vec::new();
    let mut rates = Vec::new();
    let mut latencies = Vec::new();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    while rounds.is_empty() || since(t0) < cfg.seconds {
        let report = engine_pass(s);
        rates.push(report.cells as f64 / report.wall);
        latencies.extend(report.cell_walls.iter().copied());
        rounds.push(report.rows);
    }
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mib = rss_mib().1;
    let ops: u64 = rounds.iter().map(|r| r.len() as u64).sum();

    // Check: every round equals the first, bit for bit; a seeded sample
    // of cells re-derived through the stage functions equals it too; and
    // on the recorded seeds the whole grid equals the reference.
    let first = &rounds[0];
    let mut failed: u64 = rounds.iter().map(|r| mismatches(r, first)).sum();
    let cells = s.cells();
    let mut rng = Rng::new(cfg.seed, &[stream::GRID_CHECK]);
    let sample = rng.sample(
        cells.len(),
        (cells.len() as f64 * CHECK_SHARE).ceil() as usize,
    );
    let mut replay = Replay::new();
    let bad_cells = sample
        .iter()
        .filter(|&&i| row_digest(&replay.cell(&cells[i])) != row_digest(&first[i]))
        .count() as u64;
    failed += bad_cells * rounds.len() as u64;
    if let Some(&(_, want)) = REFERENCE.iter().find(|(seed, _)| *seed == cfg.seed) {
        if grid_digest(first) != want {
            failed = ops;
        }
    }
    eprintln!(
        "perfbench: grid-montage {} cells x {} rounds, digest {:016x}",
        cells.len(),
        rounds.len(),
        grid_digest(first)
    );
    let timed = Timed {
        setups,
        round_rates: rates,
        latencies,
        ops,
        cpu_s,
        peak_rss_mib,
    };
    Outcome {
        attempted: ops,
        failed: failed.min(ops),
        metrics: timed.metrics(),
    }
}

fn traced(cfg: &Config, s: &FigureScenario) -> Outcome {
    let cells = s.cells();
    let mut per_round: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let t0 = Instant::now();
    while per_round.is_empty() || since(t0) < cfg.seconds {
        let report = engine_pass(s);
        let busy: f64 = report.cell_walls.iter().sum();
        let mut replay = Replay::new();
        let t_replay = Instant::now();
        let rows: Vec<FigureRow> = cells.iter().map(|c| replay.cell(c)).collect();
        let replay_wall = since(t_replay);
        let bad = mismatches(&rows, &report.rows);
        attempted += report.cells as u64;
        failed += bad;

        let c = &report.cache;
        let (hits, misses) = (
            (c.workflow_hits + c.schedule_hits) as f64,
            (c.workflow_misses + c.schedule_misses) as f64,
        );
        let mut m = replay.ledger.metrics();
        let ops = report.cells as f64;
        for (k, v) in [
            ("memo.hits", hits),
            ("memo.misses", misses),
            ("memo.evictions", c.evictions as f64),
            ("memo.hit_ratio", ratio(hits, hits + misses)),
            (
                "memo.stage_execs_per_query",
                replay.ledger.calls_total() / ops,
            ),
            (
                "engine.idle_frac",
                1.0 - busy / (report.workers as f64 * report.wall),
            ),
            (
                "engine.workflow_cache_hit_ratio",
                ratio(
                    c.workflow_hits as f64,
                    (c.workflow_hits + c.workflow_misses) as f64,
                ),
            ),
            (
                "engine.schedule_cache_hit_ratio",
                ratio(
                    c.schedule_hits as f64,
                    (c.schedule_hits + c.schedule_misses) as f64,
                ),
            ),
            ("trace.overhead_frac", replay_wall / busy - 1.0),
            ("trace.ops_per_round", ops),
            ("trace.replay_mismatches", bad as f64),
        ] {
            m.insert(k.to_owned(), v);
        }
        per_round.push(m);
    }
    let mut metrics = fold_rounds(&per_round);
    metrics.insert("trace.rounds".into(), per_round.len() as f64);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}
