//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid-montage|whatif-firstvisit|whatif-warm|plan-forkjoin> \
//!     [--seed 1] [--seconds 10] [--trace 0|1]
//! ```
//!
//! One workload per process, so `peak_rss_mib` is that workload's own.
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it runs rounds of the same work twice — once untraced,
//! once replayed through the public stage functions with a timer around
//! every call — and reports the per-layer metrics. Either way the last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! `perfbench/README.md` defines every workload and metric.

mod forkjoin;
mod grid;
mod ledger;
mod measure;
mod whatif;

use std::collections::BTreeMap;

use measure::{median, percentile, ratio};

/// The default workload seed. Workload inputs derive from `--seed` alone.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run (0 where a layer
/// does no work on the workload).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("generate.busy_s", "s"),
    ("generate.busy_frac", "frac"),
    ("generate.calls", "count"),
    ("generate.tasks", "count"),
    ("generate.rss_delta_mib", "MiB"),
    ("generate.peak_delta_mib", "MiB"),
    ("schedule.busy_s", "s"),
    ("schedule.busy_frac", "frac"),
    ("schedule.calls", "count"),
    ("schedule.superchains", "count"),
    ("schedule.rss_delta_mib", "MiB"),
    ("schedule.peak_delta_mib", "MiB"),
    ("curve.busy_s", "s"),
    ("curve.busy_frac", "frac"),
    ("curve.calls", "count"),
    ("placement.busy_s", "s"),
    ("placement.busy_frac", "frac"),
    ("placement.calls", "count"),
    ("placement.checkpoints", "count"),
    ("placement.kernel_eligible_chains", "count"),
    ("placement.rss_delta_mib", "MiB"),
    ("placement.peak_delta_mib", "MiB"),
    ("segment_graph.busy_s", "s"),
    ("segment_graph.busy_frac", "frac"),
    ("segment_graph.calls", "count"),
    ("segment_graph.segments", "count"),
    ("segment_graph.edges", "count"),
    ("segment_graph.structure_repeat_frac", "frac"),
    ("segment_graph.rss_delta_mib", "MiB"),
    ("segment_graph.peak_delta_mib", "MiB"),
    ("eval_analytic.busy_s", "s"),
    ("eval_analytic.busy_frac", "frac"),
    ("eval_analytic.calls", "count"),
    ("eval_analytic.nodes", "count"),
    ("eval_analytic.rss_delta_mib", "MiB"),
    ("eval_analytic.peak_delta_mib", "MiB"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.evictions", "count"),
    ("memo.hit_ratio", "frac"),
    ("memo.stage_execs_per_query", "count"),
    ("memo.overhead_us_per_query", "us"),
    ("engine.idle_frac", "frac"),
    ("engine.workflow_cache_hit_ratio", "frac"),
    ("engine.schedule_cache_hit_ratio", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.rounds", "count"),
    ("trace.ops_per_round", "count"),
    ("trace.replay_mismatches", "count"),
];

/// The command line: the workload, its seed, the measured seconds and
/// whether this is the traced run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <grid-montage|whatif-firstvisit|whatif-warm|plan-forkjoin> \
[--seed N] [--seconds S] [--trace 0|1]";

impl Config {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: {what}");
            match flag.as_str() {
                "--workload" => cfg.workload = value,
                "--seed" => cfg.seed = value.parse().map_err(|_| bad("not an integer"))?,
                "--seconds" => {
                    cfg.seconds = value.parse().map_err(|_| bad("not a number"))?;
                    if !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) {
                        return Err(bad("must be in (0, 3600]"));
                    }
                }
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if cfg.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(cfg)
    }
}

/// What one workload run reports.
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored or failed the output check.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: BTreeMap<String, f64>,
}

/// The raw measurements of an untraced run.
pub struct Timed {
    /// Seconds of each repetition of the set-up.
    pub setups: Vec<f64>,
    /// Operations per second of each round of the measured phase.
    pub round_rates: Vec<f64>,
    /// Per-operation latencies in seconds (all, or a uniform sample).
    pub latencies: Vec<f64>,
    /// Operations completed in the measured phase.
    pub ops: u64,
    /// CPU seconds the measured phase used.
    pub cpu_s: f64,
    /// VmHWM at the end of the measured phase.
    pub peak_rss_mib: f64,
}

impl Timed {
    /// The end-to-end metrics; the sample counts go to standard error.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        eprintln!(
            "perfbench: {} ops in {} rounds, {} latency samples, {} set-ups",
            self.ops,
            self.round_rates.len(),
            self.latencies.len(),
            self.setups.len()
        );
        [
            ("setup_s", median(&self.setups)),
            ("ops_per_s", median(&self.round_rates)),
            ("op_p50_ms", 1e3 * percentile(&self.latencies, 0.50)),
            ("op_p99_ms", 1e3 * percentile(&self.latencies, 0.99)),
            ("cpu_ms_per_op", 1e3 * ratio(self.cpu_s, self.ops as f64)),
            ("peak_rss_mib", self.peak_rss_mib),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

fn main() {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match cfg.workload.as_str() {
        "grid-montage" => grid::run(&cfg),
        "whatif-firstvisit" => whatif::run_first_visit(&cfg),
        "whatif-warm" => whatif::run_warm(&cfg),
        "plan-forkjoin" => forkjoin::run(&cfg),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = match outcome.metrics.get(*name) {
                Some(v) => *v,
                None if cfg.trace => 0.0,
                None => panic!("workload {} did not measure {name}", cfg.workload),
            };
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    eprintln!(
        "perfbench: {} seed={} failed_frac={}",
        cfg.workload,
        cfg.seed,
        ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}
