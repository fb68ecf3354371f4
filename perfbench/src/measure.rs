//! Timing primitives: a nanosecond clock, windowed busy-time accounting, an
//! exact latency histogram, and resident-memory readings.

use std::time::Instant;

/// Nanoseconds since a fixed origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// A clock whose origin is now.
    #[must_use]
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What one closed-loop step did: operations decided, how many were
/// correct benign outcomes, the busy time spent inside program calls, the
/// service time of the step's main call, and allocations inside those calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    /// Operations decided (frames, or IPC round trips).
    pub ops: u64,
    /// Benign operations delivered correctly.
    pub good: u64,
    /// Operations whose outcome contradicted the expectation.
    pub failed: u64,
    /// Nanoseconds inside program calls.
    pub busy_ns: u64,
    /// Service time of the batch or round trip itself.
    pub lat_ns: u64,
    /// Allocation calls made inside program calls.
    pub allocs: u64,
}

/// Accumulates steps into fixed-size windows; each finished window yields
/// one throughput and one goodput sample (operations per busy second).
#[derive(Debug, Default)]
pub struct Windows {
    cur: Step,
    steps_in_cur: u64,
    /// Operations per busy second, one per finished window.
    pub throughput: Vec<f64>,
    /// Benign correct operations per busy second, one per finished window.
    pub goodput: Vec<f64>,
    /// Busy nanoseconds per operation, one per finished window.
    pub ns_per_op: Vec<f64>,
    /// Totals over every finished window.
    pub total: Step,
}

impl Windows {
    /// Adds one step; closes the window after `per_window` steps.
    pub fn add(&mut self, s: Step, per_window: u64) {
        self.cur.ops += s.ops;
        self.cur.good += s.good;
        self.cur.failed += s.failed;
        self.cur.busy_ns += s.busy_ns;
        self.cur.allocs += s.allocs;
        self.steps_in_cur += 1;
        if self.steps_in_cur == per_window {
            let busy_s = self.cur.busy_ns.max(1) as f64 * 1e-9;
            self.throughput.push(self.cur.ops as f64 / busy_s);
            self.goodput.push(self.cur.good as f64 / busy_s);
            self.ns_per_op
                .push(self.cur.busy_ns as f64 / self.cur.ops.max(1) as f64);
            self.total.ops += self.cur.ops;
            self.total.good += self.cur.good;
            self.total.failed += self.cur.failed;
            self.total.busy_ns += self.cur.busy_ns;
            self.total.allocs += self.cur.allocs;
            self.cur = Step::default();
            self.steps_in_cur = 0;
        }
    }
}

/// Exact latency histogram: one bucket per nanosecond up to ~262 µs, with
/// larger samples clamped into the last bucket.
#[derive(Debug)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

const HIST_NS: usize = 1 << 18;

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Hist {
            counts: vec![0; HIST_NS],
            n: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let i = (ns as usize).min(HIST_NS - 1);
        self.counts[i] = self.counts[i].saturating_add(1);
        self.n += 1;
    }

    /// The `q` quantile in nanoseconds (0 when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((self.n as f64 * q).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return i as u64;
            }
        }
        (HIST_NS - 1) as u64
    }
}

/// Median of `v` (0 when empty); sorts a copy.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// A field of `/proc/self/status` in KiB (0 where unavailable).
fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Current resident set, bytes.
#[must_use]
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// Peak resident set of the process so far, bytes.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}
