//! Process-level measurements and the small statistics and random
//! helpers every workload shares.

use std::time::Instant;

/// User + system CPU seconds this process has used so far, all threads
/// included (also those that already exited), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after it are
    // numbered from 3, so utime (14) and stime (15) are the 12th and
    // 13th words after the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 1..];
    let mut words = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        words
            .next()
            .and_then(|w| w.parse::<f64>().ok())
            .expect("malformed /proc/self/stat")
    };
    // USER_HZ is fixed at 100 in the Linux user-space ABI.
    (ticks() + ticks()) / 100.0
}

/// `(VmRSS, VmHWM)` of this process in MiB, from `/proc/self/status`.
pub fn rss_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let field = |name: &str| -> f64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .unwrap_or_else(|| panic!("{name} missing from /proc/self/status"))
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Linux `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on. A loop of long single-threaded
/// rounds pins itself to them in turn, one per round, so that every run
/// samples each core equally: on a shared virtual machine the cores
/// differ in speed, and a thread the scheduler leaves on one core for a
/// whole run would otherwise make runs bimodal.
pub struct Cores(Vec<usize>);

impl Cores {
    pub fn allowed() -> Self {
        let mut mask = CpuSet([0; 16]);
        // SAFETY: `mask` is a valid, writable `cpu_set_t`-sized buffer and
        // `size` is its exact size; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        let cpus = if rc == 0 {
            (0..1024)
                .filter(|&c| mask.0[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cores(cpus)
    }

    /// Pins the calling thread to the `round`-th allowed CPU (cyclically).
    /// Best effort: a refused request leaves the thread where it is.
    pub fn pin(&self, round: usize) {
        if self.0.len() < 2 {
            return;
        }
        let cpu = self.0[round % self.0.len()];
        let mut mask = CpuSet([0; 16]);
        mask.0[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a valid `cpu_set_t`-sized buffer that outlives
        // the call, `size` is its exact size, and pid 0 names the calling
        // thread; the call only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    }
}

/// Seconds since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median (mean of the middle pair for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `q` in (0, 1] of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Labels of the independent random streams derived from one seed.
pub mod stream {
    pub const LATENCY: u64 = 1;
    pub const GRID_CHECK: u64 = 2;
    pub const WALK: u64 = 3;
    pub const WALK_CHECK: u64 = 4;
    pub const WARM_LAMBDAS: u64 = 5;
    pub const WARM_MIX: u64 = 6;
}

/// The splitmix64 sequence: the benchmark's one source of randomness,
/// seeded from the workload seed so equal seeds give equal inputs.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the workload seed and a stream label.
    pub fn new(seed: u64, stream: &[u64]) -> Self {
        Rng(seedmix::derive(seed, stream))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        seedmix::splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices of `0..n` (all of them when `k >= n`), sorted.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }
}

/// A fixed-size uniform sample of per-operation latencies (Algorithm R).
/// Its buffer is allocated and touched before timing starts, so the
/// process's resident memory does not grow with the number of
/// operations a run completes.
pub struct Latencies {
    buf: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Latencies {
    pub const CAPACITY: usize = 1 << 17;

    pub fn new(seed: u64, stream: u64) -> Self {
        Latencies {
            buf: vec![-1.0; Self::CAPACITY],
            seen: 0,
            rng: Rng::new(seed, &[stream::LATENCY, stream]),
        }
    }

    pub fn push(&mut self, seconds: f64) {
        let n = self.seen as usize;
        if n < Self::CAPACITY {
            self.buf[n] = seconds;
        } else {
            let j = (self.rng.next_u64() % (self.seen + 1)) as usize;
            if j < Self::CAPACITY {
                self.buf[j] = seconds;
            }
        }
        self.seen += 1;
    }

    /// Operations recorded (not only those kept in the sample).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The kept sample.
    pub fn values(&self) -> &[f64] {
        &self.buf[..(self.seen as usize).min(Self::CAPACITY)]
    }

    /// Pools several clients' samples, weighting each by its count.
    pub fn pooled(parts: &[Latencies]) -> Vec<f64> {
        let kept: usize = parts.iter().map(|p| p.values().len()).sum();
        let total: u64 = parts.iter().map(|p| p.count()).sum();
        if kept as u64 == total {
            return parts
                .iter()
                .flat_map(|p| p.values().iter().copied())
                .collect();
        }
        // Over capacity: keep each client's share of the pooled count.
        let mut out = Vec::new();
        for p in parts {
            let share = (p.count() as f64 / total as f64 * Self::CAPACITY as f64) as usize;
            out.extend(p.values().iter().take(share).copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_use_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn sample_is_distinct_sorted_and_seeded() {
        let a = Rng::new(7, &[stream::WALK_CHECK]).sample(100, 10);
        assert_eq!(a, Rng::new(7, &[stream::WALK_CHECK]).sample(100, 10));
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[9] < 100);
        assert_eq!(Rng::new(7, &[1]).sample(3, 10), vec![0, 1, 2]);
    }

    #[test]
    fn latency_sample_stays_bounded_and_counts_everything() {
        let mut lat = Latencies::new(1, 0);
        let n = Latencies::CAPACITY + 1000;
        for i in 0..n {
            lat.push(i as f64);
        }
        assert_eq!(lat.count(), n as u64);
        assert_eq!(lat.values().len(), Latencies::CAPACITY);
        assert!(lat.values().iter().all(|&x| x >= 0.0 && x < n as f64));
        let pooled = Latencies::pooled(&[lat, Latencies::new(1, 1)]);
        assert_eq!(pooled.len(), Latencies::CAPACITY);
    }

    #[test]
    fn the_calling_thread_may_run_somewhere() {
        let cores = Cores::allowed();
        assert!(!cores.0.is_empty());
        cores.pin(1);
        cores.pin(0);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        let (rss, hwm) = rss_mib();
        assert!(rss > 0.0 && hwm >= rss);
    }
}
