//! `whatif-firstvisit` and `whatif-warm`: closed-loop clients of the
//! interactive planner, `ckpt_service::Session::try_query`, on one
//! Montage-300 instance (the `whatif` binary's defaults).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use ckpt_bench::BANDWIDTH;
use ckpt_core::stage::{curve_stage, evaluate_stage, placement_stage, segment_graph_stage};
use ckpt_core::{
    AllocateConfig, CostCtx, DpOptimalPolicy, FailureModel, Platform, PolicyScratch, SegmentGraph,
    StageId, KERNEL_MIN_LEN,
};
use ckpt_service::{
    Answer, Inputs, ModelSpec, Outcome as StageOutcome, PlanResult, PolicySpec, Session, Store,
    WhatIf, WorkflowSource,
};
use pegasus::WorkflowClass;
use probdag::{NodeId, PathApprox};
use seedmix::digest::Fnv1a;

use crate::ledger::{fold_rounds, Ledger};
use crate::measure::{cpu_seconds, ratio, rss_mib, since, stream, Latencies, Rng};
use crate::{Config, Outcome, Timed};

const SIZE: usize = 300;
const INSTANCE_SEED: u64 = 9;
const CCR: f64 = 0.05;
const PROCS: usize = 18;
const PFAIL: f64 = 1e-3;
/// The paper's pfail range, in decades.
const LOG_PFAIL: (f64, f64) = (-4.0, -2.0);
/// Largest step of the first-visit walk, in decades.
const STEP: f64 = 0.5;
/// Entries per memo of the first-visit store: fewer than the distinct
/// λs of one round, so the miss path includes LRU eviction.
const STORE_CAP: usize = 64;
/// First-visit queries per round.
const ROUND: usize = 256;
/// Warm queries per client per round.
const WARM_ROUND: usize = 32768;
const CLIENTS: usize = 2;
/// First-visit answers re-derived by cold sessions after the run.
const CHECK_SAMPLE: usize = 48;
/// Set-up repetitions (the reported `setup_s` is their median): opening
/// a first-visit session takes milliseconds, filling the warm store tens.
const FIRST_VISIT_SETUPS: usize = 101;
const WARM_SETUPS: usize = 15;
const POLICIES: [PolicySpec; 5] = [
    PolicySpec::DpOptimal,
    PolicySpec::CkptAll,
    PolicySpec::ExitOnly,
    PolicySpec::Daly { period: None },
    PolicySpec::Crossover,
];
const WARM_LAMBDAS: usize = 16;
const WARM_PROCS: usize = 8;

fn inputs() -> Inputs {
    Inputs::basic(
        WorkflowSource::Generated {
            class: WorkflowClass::Montage,
            size: SIZE,
            seed: INSTANCE_SEED,
            ccr: Some(CCR),
        },
        PROCS,
        BANDWIDTH,
        ModelSpec::Exponential { pfail: PFAIL },
    )
}

type Bits = [u64; 6];

/// An answer's exact bits.
fn bits(a: &Answer) -> Bits {
    [
        a.expected_makespan.to_bits(),
        a.n_checkpoints as u64,
        a.n_segments as u64,
        a.ckpt_files as u64,
        a.ckpt_bytes.to_bits(),
        a.w_par.to_bits(),
    ]
}

/// The same query answered by a fresh session with a fresh store.
fn cold(q: &WhatIf) -> Option<Bits> {
    Session::new(inputs()).try_query(q).ok().map(|a| bits(&a))
}

/// A seeded random walk of log10(pfail), reflected at the paper's range,
/// that never repeats a λ (nor the session's base pfail).
struct Walk {
    rng: Rng,
    log: f64,
    seen: HashSet<u64>,
}

impl Walk {
    fn new(seed: u64) -> Self {
        Walk {
            rng: Rng::new(seed, &[stream::WALK]),
            log: PFAIL.log10(),
            seen: HashSet::from([PFAIL.to_bits()]),
        }
    }

    fn next_pfail(&mut self) -> f64 {
        let (lo, hi) = LOG_PFAIL;
        loop {
            let mut x = self.log + STEP * (2.0 * self.rng.unit() - 1.0);
            if x < lo {
                x = 2.0 * lo - x;
            }
            if x > hi {
                x = 2.0 * hi - x;
            }
            let p = 10f64.powf(x);
            if self.seen.insert(p.to_bits()) {
                self.log = x;
                return p;
            }
        }
    }

    fn take(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_pfail()).collect()
    }
}

/// A primed session over a store bounded below the walk's distinct λs.
fn open_first_visit() -> Session {
    let session = Session::with_store(inputs(), Arc::new(Store::bounded(STORE_CAP)));
    session.try_baseline().expect("baseline query");
    session.tracker().clear();
    session
}

pub fn run_first_visit(cfg: &Config) -> Outcome {
    if cfg.trace {
        return first_visit_traced(cfg);
    }
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..FIRST_VISIT_SETUPS {
        let t0 = Instant::now();
        session = Some(open_first_visit());
        setups.push(since(t0));
    }
    let session = session.expect("at least one set-up");
    let mut walk = Walk::new(cfg.seed);
    let mut lat = Latencies::new(cfg.seed, 0);
    let mut asked: Vec<(f64, Option<Bits>)> = Vec::new();
    let mut rates = Vec::new();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    while rates.is_empty() || since(t0) < cfg.seconds {
        let pfails = walk.take(ROUND);
        let t_round = Instant::now();
        for p in pfails {
            let t = Instant::now();
            let answer = session.try_query(&WhatIf::SetPfail(p));
            lat.push(since(t));
            asked.push((p, answer.ok().map(|a| bits(&a))));
        }
        rates.push(ROUND as f64 / since(t_round));
        session.tracker().clear();
    }
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mib = rss_mib().1;

    // Check: no query errored, and a seeded sample equals cold sessions.
    let errors = asked.iter().filter(|(_, a)| a.is_none()).count();
    let mut rng = Rng::new(cfg.seed, &[stream::WALK_CHECK]);
    let wrong = rng
        .sample(asked.len(), CHECK_SAMPLE)
        .into_iter()
        .filter(|&i| {
            let (p, a) = asked[i];
            a.is_some() && cold(&WhatIf::SetPfail(p)) != a
        })
        .count();
    let ops = asked.len() as u64;
    let timed = Timed {
        setups,
        round_rates: rates,
        latencies: lat.values().to_vec(),
        ops,
        cpu_s,
        peak_rss_mib,
    };
    Outcome {
        attempted: ops,
        failed: (errors + wrong) as u64,
        metrics: timed.metrics(),
    }
}

/// Digest of a segment graph's structure: its segments' task lists and
/// its edges, not the per-λ probabilities.
fn structure_digest(sg: &SegmentGraph) -> u64 {
    let mut h = Fnv1a::new();
    for (i, seg) in sg.segments.iter().enumerate() {
        h.write_usize(seg.tasks.len());
        for t in &seg.tasks {
            h.write_word(u64::from(t.0));
        }
        let succs = sg.pdag.succs(NodeId(i as u32));
        h.write_usize(succs.len());
        for s in succs {
            h.write_word(u64::from(s.0));
        }
    }
    h.finish()
}

/// Stages the session executed for its last query, then forgets them.
fn drain_executed(session: &Session) -> BTreeSet<StageId> {
    let executed = session.tracker().executed();
    session.tracker().clear();
    executed
}

/// Rounds of: a fresh primed session answers the first `ROUND` λs of the
/// walk (untraced), then the stages each query executed — read from
/// `Session::tracker` — are replayed through the stage functions.
fn first_visit_traced(cfg: &Config) -> Outcome {
    let mut w = pegasus::generate(WorkflowClass::Montage, SIZE, INSTANCE_SEED);
    pegasus::ccr::scale_to_ccr(&mut w, CCR, BANDWIDTH);
    let schedule = ckpt_core::stage::schedule_stage(&w, PROCS, &AllocateConfig::default())
        .expect("schedule stage");
    let eligible = schedule
        .superchains
        .iter()
        .filter(|c| c.tasks.len() >= KERNEL_MIN_LEN)
        .count();
    let pfails = Walk::new(cfg.seed).take(ROUND);
    let mut per_round: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let t0 = Instant::now();
    while per_round.is_empty() || since(t0) < cfg.seconds {
        let session = open_first_visit();
        let before = session.store().stats().totals;
        let mut answers = Vec::with_capacity(ROUND);
        let mut executed = Vec::with_capacity(ROUND);
        let mut latency = 0.0;
        for &p in &pfails {
            let t = Instant::now();
            let answer = session.try_query(&WhatIf::SetPfail(p));
            latency += since(t);
            answers.push(answer.ok());
            executed.push(drain_executed(&session));
        }
        let after = session.store().stats().totals;

        let mut lg = Ledger::new(false);
        let mut structures = HashSet::new();
        let (mut graphs, mut repeats, mut mismatches) = (0usize, 0usize, 0u64);
        let t_replay = Instant::now();
        for ((&p, answer), ran) in pfails.iter().zip(&answers).zip(&executed) {
            if ran.is_empty() {
                continue;
            }
            let model = FailureModel::exponential_from_pfail(p, w.dag.mean_weight());
            let platform = Platform::with_model(PROCS, model, BANDWIDTH);
            let curve = timed_if(&mut lg, ran, StageId::Curve, || {
                curve_stage(&w.dag, &platform)
            })
            .expect("curve stage");
            let ctx = CostCtx {
                dag: &w.dag,
                model,
                bandwidth: BANDWIDTH,
                curve: curve.as_ref(),
                budget: None,
            };
            let plan = timed_if(&mut lg, ran, StageId::Placement, || {
                placement_stage(
                    &ctx,
                    &schedule,
                    &DpOptimalPolicy,
                    &mut PolicyScratch::new(),
                    1,
                )
            })
            .expect("placement stage");
            let sg = timed_if(&mut lg, ran, StageId::SegmentGraph, || {
                segment_graph_stage(&ctx, &schedule, &plan)
            })
            .expect("segment-graph stage");
            let em = timed_if(&mut lg, ran, StageId::EvalAnalytic, || {
                evaluate_stage(&sg, &PathApprox::default())
            })
            .expect("evaluate stage");
            if ran.contains(&StageId::Placement) {
                lg.count("placement.checkpoints", plan.n_checkpoints());
                lg.count("placement.kernel_eligible_chains", eligible);
            }
            if ran.contains(&StageId::SegmentGraph) {
                lg.count("segment_graph.segments", sg.segments.len());
                lg.count("segment_graph.edges", sg.pdag.n_edges());
                graphs += 1;
                repeats += usize::from(!structures.insert(structure_digest(&sg)));
            }
            if ran.contains(&StageId::EvalAnalytic) {
                lg.count("eval_analytic.nodes", sg.pdag.n_nodes());
            }
            let same = answer.as_ref().is_some_and(|a| {
                a.expected_makespan.to_bits() == em.to_bits()
                    && a.n_segments == sg.placement_stats(&w.dag).segments
            });
            mismatches += u64::from(!same);
        }
        let replay_wall = since(t_replay);
        attempted += ROUND as u64;
        failed += mismatches;

        let mut m = lg.metrics();
        let execs: usize = executed.iter().map(BTreeSet::len).sum();
        memo_metrics(&mut m, before, after);
        for (k, v) in [
            ("memo.stage_execs_per_query", execs as f64 / ROUND as f64),
            (
                "memo.overhead_us_per_query",
                1e6 * (latency - lg.busy_total()) / ROUND as f64,
            ),
            (
                "segment_graph.structure_repeat_frac",
                ratio(repeats as f64, graphs as f64),
            ),
            ("trace.overhead_frac", replay_wall / latency - 1.0),
            ("trace.ops_per_round", ROUND as f64),
            ("trace.replay_mismatches", mismatches as f64),
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

/// Runs `f`, timed into the ledger when the session executed `stage`
/// (`ran`), untimed when the session served it from the store.
fn timed_if<T>(
    lg: &mut Ledger,
    ran: &BTreeSet<StageId>,
    stage: StageId,
    f: impl FnOnce() -> T,
) -> T {
    if ran.contains(&stage) {
        lg.call(stage, f)
    } else {
        f()
    }
}

fn memo_metrics(
    m: &mut BTreeMap<String, f64>,
    before: ckpt_service::MemoStats,
    after: ckpt_service::MemoStats,
) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    m.insert("memo.hits".into(), hits);
    m.insert("memo.misses".into(), misses);
    m.insert(
        "memo.evictions".into(),
        (after.evictions - before.evictions) as f64,
    );
    m.insert("memo.hit_ratio".into(), ratio(hits, hits + misses));
}

/// The warm mix's single-delta queries: 16 seeded λs, 5 policies and
/// 8 processor counts (the `whatif --kinds all` shape).
fn universe(seed: u64) -> Vec<WhatIf> {
    let mut rng = Rng::new(seed, &[stream::WARM_LAMBDAS]);
    let (lo, hi) = LOG_PFAIL;
    let mut u: Vec<WhatIf> = (0..WARM_LAMBDAS)
        .map(|_| WhatIf::SetPfail(10f64.powf(lo + (hi - lo) * rng.unit())))
        .collect();
    u.extend(POLICIES.map(WhatIf::SetPolicy));
    u.extend((0..WARM_PROCS).map(|k| WhatIf::SetProcs(PROCS + k)));
    u
}

/// Half λ drifts, a quarter policy swaps, a quarter platform rescales.
fn pick(rng: &mut Rng) -> usize {
    match rng.below(4) {
        0 | 1 => rng.below(WARM_LAMBDAS),
        2 => WARM_LAMBDAS + rng.below(POLICIES.len()),
        _ => WARM_LAMBDAS + POLICIES.len() + rng.below(WARM_PROCS),
    }
}

/// One closed-loop client of the warm session.
struct Client {
    rng: Rng,
    lat: Latencies,
    /// Per query of the universe: the first answer seen and how often it
    /// was asked; every later answer must repeat the first bit for bit.
    seen: Vec<(Option<Bits>, u64)>,
    errors: u64,
    inconsistent: u64,
    latency_s: f64,
}

impl Client {
    fn new(seed: u64, k: usize, n: usize) -> Self {
        Client {
            rng: Rng::new(seed, &[stream::WARM_MIX, k as u64]),
            lat: Latencies::new(seed, 1 + k as u64),
            seen: vec![(None, 0); n],
            errors: 0,
            inconsistent: 0,
            latency_s: 0.0,
        }
    }

    fn round(&mut self, session: &Session, u: &[WhatIf], n: usize) {
        for _ in 0..n {
            let i = pick(&mut self.rng);
            let t = Instant::now();
            let answer: PlanResult<Answer> = session.try_query(&u[i]);
            let dt = since(t);
            self.lat.push(dt);
            self.latency_s += dt;
            let slot = &mut self.seen[i];
            slot.1 += 1;
            match (answer, slot.0) {
                (Err(_), _) => self.errors += 1,
                (Ok(a), None) => slot.0 = Some(bits(&a)),
                (Ok(a), Some(b)) => self.inconsistent += u64::from(bits(&a) != b),
            }
        }
    }
}

/// A session whose store holds every answer of the universe.
fn open_warm(u: &[WhatIf]) -> Session {
    let session = Session::new(inputs());
    for q in u {
        session.try_query(q).expect("store fill");
    }
    session.tracker().clear();
    session
}

/// Runs one round of every client concurrently; returns its wall time.
fn warm_round(session: &Session, u: &[WhatIf], clients: &mut [Client]) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(|| c.round(session, u, WARM_ROUND));
        }
    });
    since(t)
}

pub fn run_warm(cfg: &Config) -> Outcome {
    let u = universe(cfg.seed);
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..WARM_SETUPS {
        let t0 = Instant::now();
        session = Some(open_warm(&u));
        setups.push(since(t0));
    }
    let session = session.expect("at least one set-up");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|k| Client::new(cfg.seed, k, u.len()))
        .collect();
    if cfg.trace {
        return warm_traced(cfg, &session, &u, &mut clients);
    }
    let mut rates = Vec::new();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    while rates.is_empty() || since(t0) < cfg.seconds {
        let wall = warm_round(&session, &u, &mut clients);
        rates.push((CLIENTS * WARM_ROUND) as f64 / wall);
        session.tracker().clear();
    }
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mib = rss_mib().1;

    // Check: every answer equals a cold session's answer to its query.
    let reference: Vec<Option<Bits>> = u.iter().map(cold).collect();
    let mut failed = 0u64;
    for c in &clients {
        failed += c.errors + c.inconsistent;
        for (i, (first, asked)) in c.seen.iter().enumerate() {
            if first.is_some() && *first != reference[i] {
                failed += asked;
            }
        }
    }
    let lats: Vec<Latencies> = clients.into_iter().map(|c| c.lat).collect();
    let ops: u64 = lats.iter().map(Latencies::count).sum();
    let timed = Timed {
        setups,
        round_rates: rates,
        latencies: Latencies::pooled(&lats),
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

/// Rounds of the warm mix with the tracker read after each round. Every
/// stage is a store hit, so the replay has no stage to re-run: the whole
/// per-query latency is memo overhead, and the replay checks the answers
/// against the store fill's.
fn warm_traced(cfg: &Config, session: &Session, u: &[WhatIf], clients: &mut [Client]) -> Outcome {
    let filled: Vec<Option<Bits>> = u
        .iter()
        .map(|q| session.try_query(q).ok().map(|a| bits(&a)))
        .collect();
    session.tracker().clear();
    let mut per_round: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let t0 = Instant::now();
    while per_round.is_empty() || since(t0) < cfg.seconds {
        let before = session.store().stats().totals;
        let latency0: f64 = clients.iter().map(|c| c.latency_s).sum();
        let wall = warm_round(session, u, clients);
        let latency = clients.iter().map(|c| c.latency_s).sum::<f64>() - latency0;
        let after = session.store().stats().totals;
        let events = session.tracker().events();
        session.tracker().clear();
        let execs = events
            .iter()
            .filter(|e| e.outcome == StageOutcome::Executed)
            .count();
        let t_replay = Instant::now();
        let mismatches = clients
            .iter()
            .map(|c| {
                c.inconsistent
                    + c.errors
                    + c.seen
                        .iter()
                        .zip(&filled)
                        .filter(|((first, _), want)| first.is_some() && first != *want)
                        .count() as u64
            })
            .sum::<u64>();
        let replay_wall = since(t_replay);
        let ops = (CLIENTS * WARM_ROUND) as f64;
        attempted += ops as u64;
        failed += mismatches;
        let mut m = Ledger::new(false).metrics();
        memo_metrics(&mut m, before, after);
        for (k, v) in [
            ("memo.stage_execs_per_query", execs as f64 / ops),
            ("memo.overhead_us_per_query", 1e6 * latency / ops),
            ("trace.overhead_frac", replay_wall / wall - 1.0),
            ("trace.ops_per_round", ops),
            ("trace.replay_mismatches", mismatches as f64),
        ] {
            m.insert(k.to_owned(), v);
        }
        per_round.push(m);
    }
    let mut metrics = fold_rounds(&per_round);
    metrics.insert("trace.rounds".into(), per_round.len() as f64);
    Outcome {
        attempted,
        failed: failed.min(attempted),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_stays_in_range_and_never_repeats() {
        let pfails = Walk::new(3).take(2000);
        assert_eq!(pfails, Walk::new(3).take(2000));
        let (lo, hi) = LOG_PFAIL;
        assert!(pfails
            .iter()
            .all(|p| (lo..=hi).contains(&p.log10()) && *p != PFAIL));
        let distinct: HashSet<u64> = pfails.iter().map(|p| p.to_bits()).collect();
        assert_eq!(distinct.len(), pfails.len());
    }

    #[test]
    fn warm_mix_covers_the_universe() {
        let u = universe(5);
        assert_eq!(u.len(), WARM_LAMBDAS + POLICIES.len() + WARM_PROCS);
        let mut rng = Rng::new(5, &[stream::WARM_MIX, 0]);
        let seen: HashSet<usize> = (0..10_000).map(|_| pick(&mut rng)).collect();
        assert_eq!(seen.len(), u.len());
    }
}
