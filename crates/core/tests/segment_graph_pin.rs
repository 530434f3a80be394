//! Exact-structure pins for the coalesced segment graph.
//!
//! PathApprox walks every node's `succs` and `preds` lists in stored
//! order, so the evaluator's floating-point result depends on that
//! order, not just on the edge set. Each test builds one segment graph
//! and compares an FNV-1a digest of `n_nodes` plus every node's
//! successor and predecessor lists, in order, with the digest recorded
//! when the pin was added.
//!
//! If one of these fails, the change altered the segment graph's
//! structure or its edge order. That is a behaviour change, not a
//! refactor: find the cause rather than re-recording the digest.

use ckpt_core::{lambda_from_pfail, AllocateConfig, Pipeline, Platform, SegmentGraph, Strategy};
use pegasus::{generate, WorkflowClass};
use seedmix::digest::Fnv1a;

/// Digest of the graph's node count and ordered adjacency lists.
fn structure_digest(sg: &SegmentGraph) -> u64 {
    let pdag = &sg.pdag;
    let mut h = Fnv1a::new();
    h.write_usize(pdag.n_nodes());
    for v in pdag.node_ids() {
        for list in [pdag.succs(v), pdag.preds(v)] {
            h.write_usize(list.len());
            for w in list {
                h.write_word(w.0 as u64);
            }
        }
    }
    h.finish()
}

/// Builds `class`-`n` (seed 1) on `procs` processors at pfail 1e-3 and
/// asserts the `strategy` segment graph digests to `want`.
fn assert_pinned(class: WorkflowClass, n: usize, procs: usize, strategy: Strategy, want: u64) {
    let w = generate(class, n, 1);
    let lambda = lambda_from_pfail(1e-3, w.dag.mean_weight());
    let pipe = Pipeline::new(
        &w,
        Platform::new(procs, lambda, 1e7),
        &AllocateConfig::default(),
    );
    let got = structure_digest(&pipe.segment_graph(strategy));
    assert_eq!(
        want, got,
        "{class:?}-{n} {strategy}: structure digest {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn montage_1000_ckptall() {
    assert_pinned(
        WorkflowClass::Montage,
        1000,
        36,
        Strategy::CkptAll,
        0x35f1_663a_a88d_9acd,
    );
}

#[test]
fn montage_1000_dp() {
    assert_pinned(
        WorkflowClass::Montage,
        1000,
        36,
        Strategy::CkptSome,
        0xdff0_f950_80ee_faf1,
    );
}

#[test]
fn ligo_300_ckptall() {
    assert_pinned(
        WorkflowClass::Ligo,
        300,
        18,
        Strategy::CkptAll,
        0xb590_4f64_6b63_fcde,
    );
}

#[test]
fn ligo_300_dp() {
    assert_pinned(
        WorkflowClass::Ligo,
        300,
        18,
        Strategy::CkptSome,
        0x69d4_6e25_c01e_2528,
    );
}

#[test]
fn genome_300_dp() {
    assert_pinned(
        WorkflowClass::Genome,
        300,
        18,
        Strategy::CkptSome,
        0x0e34_1fd1_7f5c_daae,
    );
}
