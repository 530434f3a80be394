//! The per-layer ledger of a traced round: busy time, call counts, work
//! counters and (optionally) resident-memory deltas, recorded by timing
//! the calls into each layer's public function from the benchmark's own
//! code. Layers are named by `ckpt_core::StageId`; the program itself is
//! not instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use ckpt_core::StageId;

use crate::measure::{median, ratio, rss_mib};

/// The stage layers a round can time (`eval_mc` has no workload here).
pub const STAGES: [StageId; 6] = [
    StageId::Generate,
    StageId::Schedule,
    StageId::Curve,
    StageId::Placement,
    StageId::SegmentGraph,
    StageId::EvalAnalytic,
];

#[derive(Clone, Copy, Default)]
struct Layer {
    busy_s: f64,
    calls: f64,
    rss_delta_mib: f64,
    peak_delta_mib: f64,
}

/// One round's ledger.
pub struct Ledger {
    layers: BTreeMap<StageId, Layer>,
    counters: BTreeMap<&'static str, f64>,
    track_rss: bool,
}

impl Ledger {
    /// A ledger; `track_rss` also reads VmRSS/VmHWM around every call
    /// (about 20 µs each, so only for rounds of few, large calls).
    pub fn new(track_rss: bool) -> Self {
        Ledger {
            layers: BTreeMap::new(),
            counters: BTreeMap::new(),
            track_rss,
        }
    }

    /// Times one call into `stage`'s layer.
    pub fn call<T>(&mut self, stage: StageId, f: impl FnOnce() -> T) -> T {
        let before = self.track_rss.then(rss_mib);
        let out = self.charge(stage, f);
        let layer = self.layers.entry(stage).or_default();
        layer.calls += 1.0;
        if let Some((rss0, hwm0)) = before {
            let (rss1, hwm1) = rss_mib();
            layer.rss_delta_mib += rss1 - rss0;
            layer.peak_delta_mib += hwm1 - hwm0;
        }
        out
    }

    /// Charges `f`'s time to `stage` without counting a call (work the
    /// program's front end also books under that stage, such as CCR
    /// rescaling under `generate`).
    pub fn charge<T>(&mut self, stage: StageId, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        self.layers.entry(stage).or_default().busy_s += t0.elapsed().as_secs_f64();
        out
    }

    /// Adds `n` to the work counter `name` (a per-layer metric name).
    pub fn count(&mut self, name: &'static str, n: usize) {
        *self.counters.entry(name).or_default() += n as f64;
    }

    /// Busy seconds summed over every layer.
    pub fn busy_total(&self) -> f64 {
        self.layers.values().map(|l| l.busy_s).sum()
    }

    /// Calls summed over every layer.
    pub fn calls_total(&self) -> f64 {
        self.layers.values().map(|l| l.calls).sum()
    }

    /// This round's per-layer metrics, by metric name.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let total = self.busy_total();
        let mut out = BTreeMap::new();
        for stage in STAGES {
            let l = self.layers.get(&stage).copied().unwrap_or_default();
            let name = stage.name();
            out.insert(format!("{name}.busy_s"), l.busy_s);
            out.insert(format!("{name}.busy_frac"), ratio(l.busy_s, total));
            out.insert(format!("{name}.calls"), l.calls);
            out.insert(format!("{name}.rss_delta_mib"), l.rss_delta_mib);
            out.insert(format!("{name}.peak_delta_mib"), l.peak_delta_mib);
        }
        for (name, v) in &self.counters {
            out.insert((*name).to_owned(), *v);
        }
        out
    }
}

/// Per-round metric maps folded into one: the median over rounds of
/// every metric.
pub fn fold_rounds(rounds: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(first) = rounds.first() else {
        return out;
    };
    for name in first.keys() {
        let vals: Vec<f64> = rounds
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        out.insert(name.clone(), median(&vals));
    }
    out
}
