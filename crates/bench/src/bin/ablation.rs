//! E6/E7/E8 — ablation studies, all driven through the scenario engine:
//!
//! * `--study linearization` (E6): random topological sort vs the
//!   volume-minimizing sum-cut heuristic (§VIII future work) vs the
//!   structural order, as superchain linearizers inside CkptSome;
//! * `--study naive-coalesce` (E7): the §II-C naive solution (checkpoint
//!   only superchain exits) vs the full DP;
//! * `--study ligo-footnote` (E8): the incomplete-bipartite Ligo instances
//!   patched with dummy edges (footnote 3: a few CCR points where CkptAll
//!   can beat CkptSome on Ligo/300).
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin ablation [-- --study all]
//!     [--seed 42] [--threads 0] [--out results]
//! ```

use ckpt_bench::engine::{self, CsvFileSink, EngineConfig, Scenario};
use ckpt_bench::scenarios::{LigoFootnoteScenario, LinearizationScenario, NaiveCoalesceScenario};
use ckpt_bench::summary::EndpointSummary;
use ckpt_bench::{stage_walls_since, Args, ObsOut};
use ckpt_core::stage::wall_seconds;

fn main() {
    let args = Args::parse();
    let obs_out = ObsOut::from_args(&args);
    let seed: u64 = args.get_or("seed", 42);
    let threads: usize = args.get_or("threads", 0);
    let out_dir: String = args.get_or("out", "results".to_owned());
    let study: String = args.get_or("study", "all".to_owned());
    let cfg = EngineConfig::with_threads(threads);
    match study.as_str() {
        "linearization" => linearization(seed, &out_dir, &cfg),
        "naive-coalesce" => naive_coalesce(seed, &out_dir, &cfg),
        "ligo-footnote" => ligo_footnote(seed, &out_dir, &cfg),
        "all" => {
            linearization(seed, &out_dir, &cfg);
            naive_coalesce(seed, &out_dir, &cfg);
            ligo_footnote(seed, &out_dir, &cfg);
        }
        other => panic!("unknown study `{other}`"),
    }
    obs_out.finish().expect("write observability outputs");
}

fn run_study<S: Scenario>(
    scenario: &S,
    cfg: &EngineConfig,
    out_dir: &str,
    file: &str,
) -> Vec<S::Row> {
    let path = std::path::Path::new(out_dir).join(file);
    let mut sink = CsvFileSink::new(&path);
    let walls = wall_seconds();
    let report = engine::run(scenario, cfg, &mut sink).expect("write CSV");
    eprintln!(
        "wrote {} rows to {} in {:.1}s ({} workers)",
        sink.rows_written(),
        path.display(),
        report.wall,
        report.workers
    );
    eprintln!("stage walls: {}", stage_walls_since(&walls));
    report.rows
}

/// E6: linearizer comparison inside CkptSome.
fn linearization(seed: u64, out_dir: &str, cfg: &EngineConfig) {
    println!("# E6 linearization ablation (CkptSome expected makespan)");
    let scenario = LinearizationScenario {
        ccr_points: 5,
        base_seed: seed,
    };
    let rows = run_study(&scenario, cfg, out_dir, "ablation_linearization.csv");
    let mut summary = EndpointSummary::new(
        "class pfail",
        "CCR",
        &["em_random", "em_minvolume", "em_structural"],
    );
    for r in &rows {
        summary.observe(
            &format!("{:8} {:6}", r.class.name(), r.pfail),
            r.ccr,
            &[r.em_random, r.em_minvolume, r.em_structural],
        );
    }
    summary.print();
}

/// E7: exit-only checkpoints (naive coalescing) vs the DP.
fn naive_coalesce(seed: u64, out_dir: &str, cfg: &EngineConfig) {
    println!("# E7 naive-coalescing ablation (ExitOnly vs CkptSome)");
    let scenario = NaiveCoalesceScenario {
        ccr_points: 4,
        base_seed: seed,
    };
    let rows = run_study(&scenario, cfg, out_dir, "ablation_naive_coalesce.csv");
    let mut summary = EndpointSummary::new("class size pfail", "CCR", &["exit/some"]);
    for r in &rows {
        summary.observe(
            &format!("{:8} {:5} {:6}", r.class.name(), r.size, r.pfail),
            r.ccr,
            &[r.ratio],
        );
    }
    summary.print();
}

/// E8: the Ligo incomplete-bipartite artifact (see
/// [`LigoFootnoteScenario`]).
fn ligo_footnote(seed: u64, out_dir: &str, cfg: &EngineConfig) {
    println!("# E8 Ligo incomplete-bipartite footnote");
    let scenario = LigoFootnoteScenario::new(7, seed);
    let rows = run_study(&scenario, cfg, out_dir, "ablation_ligo_footnote.csv");
    let mut summary = EndpointSummary::new("pfail", "CCR", &["relall_main", "relall_patched"]);
    for r in &rows {
        summary.observe(
            &format!("{:6}", r.pfail),
            r.ccr,
            &[r.rel_all_mainline, r.rel_all_patched],
        );
    }
    summary.print();
}
