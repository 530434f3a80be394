//! Segment coalescing: from a checkpointed schedule to a 2-state
//! probabilistic DAG (§II-C).
//!
//! Once checkpoints are placed, each maximal run of tasks between
//! checkpoints on a processor — a *segment* — recovers independently, so
//! it is coalesced into a single node whose duration follows the
//! first-order 2-state law of Eq. (2). The resulting DAG (segment
//! dependence + same-processor serialization) is what the §II-B
//! evaluators compute the expected makespan of.

use mspg::{Dag, TaskId};
use probdag::{NodeDist, NodeId, ProbDag};

use crate::checkpoint_dp::{segment_cost_reusing, CostCtx, IdSet, SegmentCost, SegmentCostScratch};
use crate::error::{PlanError, PlanResult};
use crate::schedule::Schedule;

/// Per-task checkpoint decisions (indexed by task id): `ckpt_after[t]`
/// means a checkpoint is taken right after `t` completes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// Checkpoint-after flags, one per task.
    pub ckpt_after: Vec<bool>,
}

impl CheckpointPlan {
    /// Number of checkpointed tasks.
    pub fn n_checkpoints(&self) -> usize {
        self.ckpt_after.iter().filter(|&&c| c).count()
    }
}

/// One coalesced segment.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Owning superchain index in the schedule.
    pub superchain: usize,
    /// Owning processor.
    pub proc: usize,
    /// The segment's tasks, in execution order.
    pub tasks: Vec<TaskId>,
    /// Failure-free read/work/checkpoint costs.
    pub cost: SegmentCost,
}

/// The coalesced 2-state probabilistic DAG plus segment metadata.
#[derive(Clone, Debug)]
pub struct SegmentGraph {
    /// One node per segment, same indexing as `segments`.
    pub pdag: ProbDag,
    /// Segment metadata.
    pub segments: Vec<Segment>,
    /// Per task: owning segment index.
    pub task_segment: Vec<u32>,
}

/// Aggregate placement statistics of a segment graph — derived in one
/// place from the coalesced graph so every consumer
/// ([`crate::stage::assess_graph`], the what-if service, the E10 CSV)
/// agrees on the counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacementStats {
    /// Coalesced segments. Every segment ends in exactly one
    /// checkpoint, so this is also the checkpoint count.
    pub segments: usize,
    /// Files written to stable storage by segment checkpoints. Each
    /// file's producer lives in exactly one segment, so no file is
    /// counted twice.
    pub ckpt_files: usize,
    /// Total bytes those checkpoints write
    /// (`total_checkpoint_time() × bandwidth`).
    pub ckpt_bytes: f64,
}

impl SegmentGraph {
    /// Total checkpoint write time across segments (failure-free).
    pub fn total_checkpoint_time(&self) -> f64 {
        self.segments.iter().map(|s| s.cost.c).sum()
    }

    /// Total stable-storage read time across segments (failure-free).
    pub fn total_read_time(&self) -> f64 {
        self.segments.iter().map(|s| s.cost.r).sum()
    }

    /// Placement statistics of this graph: segment count plus the
    /// checkpointed-file census (a file counts when its producing
    /// segment has a consumer outside itself — the same "needed later"
    /// rule `segment_cost` prices).
    pub fn placement_stats(&self, dag: &Dag) -> PlacementStats {
        let mut seen = IdSet::default();
        let mut ckpt_files = 0usize;
        let mut ckpt_bytes = 0.0f64;
        for (s_idx, seg) in self.segments.iter().enumerate() {
            seen.reset(dag.n_files());
            for &t in &seg.tasks {
                for &f in dag.output_files(t) {
                    let needed_later = dag
                        .consumers(f)
                        .iter()
                        .any(|&v| self.task_segment[v.index()] != s_idx as u32);
                    if needed_later && seen.insert(f.index()) {
                        ckpt_files += 1;
                        ckpt_bytes += dag.file(f).size;
                    }
                }
            }
        }
        PlacementStats {
            segments: self.segments.len(),
            ckpt_files,
            ckpt_bytes,
        }
    }
}

/// Builds the segment graph for a schedule and checkpoint plan, in
/// time linear in the task-DAG edge count.
///
/// Fails with [`PlanError::InvalidInput`] when a superchain is empty or
/// does not end in a checkpoint (the paper's crossover-dependency
/// removal needs one at every superchain exit).
pub fn coalesce(
    ctx: &CostCtx<'_>,
    sched: &Schedule,
    plan: &CheckpointPlan,
) -> PlanResult<SegmentGraph> {
    let dag = ctx.dag;
    let mut segments: Vec<Segment> = Vec::new();
    let mut task_segment = vec![u32::MAX; dag.n_tasks()];
    let mut scratch = SegmentCostScratch::new();
    for (sc_idx, sc) in sched.superchains.iter().enumerate() {
        let Some(&last) = sc.tasks.last() else {
            return Err(PlanError::invalid(
                "schedule",
                format!("superchain {sc_idx} is empty"),
            ));
        };
        if !plan.ckpt_after[last.index()] {
            return Err(PlanError::invalid(
                "plan",
                format!("superchain {sc_idx} does not end in a checkpoint"),
            ));
        }
        let mut lo = 0usize;
        for (k, &t) in sc.tasks.iter().enumerate() {
            if plan.ckpt_after[t.index()] {
                let tasks = sc.tasks[lo..=k].to_vec();
                let cost = segment_cost_reusing(ctx, &sc.tasks, lo, k, &mut scratch);
                let seg_idx = segments.len() as u32;
                for &x in &tasks {
                    task_segment[x.index()] = seg_idx;
                }
                segments.push(Segment {
                    superchain: sc_idx,
                    proc: sc.proc,
                    tasks,
                    cost,
                });
                lo = k + 1;
            }
        }
    }
    // Build the probabilistic DAG.
    let mut pdag = ProbDag::new();
    for seg in &segments {
        let base = seg.cost.base();
        let p_high = ctx.two_state_p_high(base);
        let dist = if base == 0.0 || p_high == 0.0 {
            NodeDist::Certain(base)
        } else {
            NodeDist::TwoState {
                low: base,
                high: 1.5 * base,
                p_high,
            }
        };
        pdag.add_node(dist);
    }
    // Same-processor serialization edges.
    for p in 0..sched.n_procs {
        let mut prev: Option<u32> = None;
        for &sc_idx in &sched.proc_chains[p] {
            for &t in &sched.superchains[sc_idx].tasks {
                let s = task_segment[t.index()];
                if let Some(q) = prev {
                    if q != s {
                        pdag.add_edge(NodeId(q), NodeId(s));
                    }
                }
                prev = Some(s);
            }
        }
    }
    // Data edges: a segment reading file f depends on the segment that
    // checkpointed f (the producer's segment). When segment `s` is
    // visited, its only in-edge is the serialization one, so a stamp set
    // seeded with `s` and `preds(s)` answers "is `us → s` already there"
    // exactly as a scan of `succs(us)` would, and the new edges land in
    // the same first-occurrence order.
    let mut seen = IdSet::default();
    for (s_idx, seg) in segments.iter().enumerate() {
        let s = NodeId(s_idx as u32);
        seen.reset(segments.len());
        seen.insert(s_idx);
        for &q in pdag.preds(s) {
            seen.insert(q.index());
        }
        for &t in &seg.tasks {
            for &(u, _) in dag.preds(t) {
                let us = task_segment[u.index()];
                if seen.insert(us as usize) {
                    pdag.add_new_edge(NodeId(us), s);
                }
            }
        }
    }
    Ok(SegmentGraph {
        pdag,
        segments,
        task_segment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::{allocate, AllocateConfig};
    use crate::checkpoint_dp::optimal_checkpoints;
    use crate::error::ErrorKind;
    use pegasus::{generate, WorkflowClass};

    fn plan_all(dag: &mspg::Dag) -> CheckpointPlan {
        CheckpointPlan {
            ckpt_after: vec![true; dag.n_tasks()],
        }
    }

    fn plan_some(ctx: &CostCtx<'_>, sched: &Schedule) -> CheckpointPlan {
        let mut ckpt_after = vec![false; ctx.dag.n_tasks()];
        for sc in &sched.superchains {
            let choice = optimal_checkpoints(ctx, &sc.tasks);
            for (k, &t) in sc.tasks.iter().enumerate() {
                ckpt_after[t.index()] = choice.ckpt_after[k];
            }
        }
        CheckpointPlan { ckpt_after }
    }

    #[test]
    fn ckptall_has_one_segment_per_task() {
        let w = generate(WorkflowClass::Genome, 50, 1);
        let sched = allocate(&w, 3, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-5, 1e7);
        let sg = coalesce(&ctx, &sched, &plan_all(&w.dag)).unwrap();
        assert_eq!(sg.segments.len(), w.n_tasks());
        assert_eq!(sg.pdag.n_nodes(), w.n_tasks());
    }

    #[test]
    fn segment_graph_is_acyclic_and_covers_tasks() {
        let w = generate(WorkflowClass::Montage, 300, 2);
        let sched = allocate(&w, 18, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-6, 1e7);
        let sg = coalesce(&ctx, &sched, &plan_some(&ctx, &sched)).unwrap();
        // Topological sort must succeed (panics on cycle).
        let order = sg.pdag.topo_order();
        assert_eq!(order.len(), sg.segments.len());
        // Every task belongs to exactly one segment.
        let covered: usize = sg.segments.iter().map(|s| s.tasks.len()).sum();
        assert_eq!(covered, w.n_tasks());
        assert!(sg.task_segment.iter().all(|&s| s != u32::MAX));
    }

    #[test]
    fn fewer_checkpoints_than_ckptall() {
        let w = generate(WorkflowClass::Ligo, 300, 3);
        let sched = allocate(&w, 18, &AllocateConfig::default());
        // Moderate failure rate, expensive I/O: CkptSome should skip many
        // checkpoints.
        let lambda = crate::pfail::lambda_from_pfail(0.001, w.dag.mean_weight());
        let ctx = CostCtx::exponential(&w.dag, lambda, 1e5);
        let some = plan_some(&ctx, &sched);
        assert!(some.n_checkpoints() < w.n_tasks());
        assert!(some.n_checkpoints() >= sched.superchains.len());
    }

    #[test]
    fn segment_distributions_follow_eq2() {
        let w = pegasus::generic::chain(4, 1);
        let sched = allocate(&w, 1, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 1e7);
        let sg = coalesce(&ctx, &sched, &plan_all(&w.dag)).unwrap();
        for (seg, v) in sg.segments.iter().zip(sg.pdag.node_ids()) {
            let base = seg.cost.base();
            match *sg.pdag.dist(v) {
                NodeDist::TwoState { low, high, p_high } => {
                    assert!((low - base).abs() < 1e-12);
                    assert!((high - 1.5 * base).abs() < 1e-12);
                    assert!((p_high - 1e-3 * base).abs() < 1e-12);
                }
                NodeDist::Certain(x) => assert_eq!(x, base),
            }
        }
    }

    #[test]
    fn missing_final_checkpoint_is_invalid_input() {
        let w = pegasus::generic::chain(3, 1);
        let sched = allocate(&w, 1, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 1e7);
        let plan = CheckpointPlan {
            ckpt_after: vec![false; w.dag.n_tasks()],
        };
        let err = coalesce(&ctx, &sched, &plan).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(err.to_string().contains("does not end in a checkpoint"));
    }

    #[test]
    fn empty_superchain_is_invalid_input() {
        let w = pegasus::generic::chain(3, 1);
        let mut sched = allocate(&w, 1, &AllocateConfig::default());
        sched.superchains[0].tasks.clear();
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 1e7);
        let err = coalesce(&ctx, &sched, &plan_all(&w.dag)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(err.to_string().contains("is empty"));
    }

    #[test]
    fn placement_stats_agree_with_segment_costs() {
        let w = generate(WorkflowClass::Montage, 300, 4);
        let sched = allocate(&w, 18, &AllocateConfig::default());
        let bw = 1e7;
        let ctx = CostCtx::exponential(&w.dag, 1e-5, bw);
        for plan in [plan_all(&w.dag), plan_some(&ctx, &sched)] {
            let sg = coalesce(&ctx, &sched, &plan).unwrap();
            let stats = sg.placement_stats(&w.dag);
            assert_eq!(stats.segments, sg.segments.len());
            // The byte census prices exactly what the segment costs
            // price: C-time × bandwidth.
            let c_bytes = sg.total_checkpoint_time() * bw;
            assert!(
                (stats.ckpt_bytes - c_bytes).abs() < 1e-6 * c_bytes.max(1.0),
                "{} vs {}",
                stats.ckpt_bytes,
                c_bytes
            );
            assert!(stats.ckpt_files > 0);
        }
    }

    #[test]
    fn serialization_edges_chain_processor_segments() {
        let w = pegasus::generic::chain(5, 2);
        let sched = allocate(&w, 1, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 0.0, 1e7);
        let sg = coalesce(&ctx, &sched, &plan_all(&w.dag)).unwrap();
        // 5 segments in a row: 4 serialization/data edges.
        assert_eq!(sg.pdag.n_edges(), 4);
    }
}
