//! The repository's end-to-end benchmark, with per-layer attribution.
//!
//! One process runs four *parts*, each the end-to-end result one group of
//! users of this repository wants:
//!
//! * [`verify`] — a Lemma 1 verdict from the exhaustive explorer;
//! * [`serve`] — a served request stream through the universal
//!   construction, with one churn (crash/recover) configuration;
//! * [`threshold`] — one pass of the Table 1 probe grid;
//! * [`atomics`] — universal-counter and C&S throughput on real atomics.
//!
//! A run names one part as its *workload*: that part gets the measurement
//! window, and the other three run short companion passes so every run
//! reports every end-to-end metric. Every pass checks its outputs; the
//! [`Tally`] counts what was checked and what failed.
//!
//! The benchmark measures the layers from outside: it times calls into
//! their public functions and records [`spans::Tracer`] spans around
//! them. Nothing here runs the `experiments` binary, and nothing writes
//! the committed `BENCH_*.json` artifacts; the checks only read them.

pub mod atomics;
pub mod calib;
pub mod kernel_probe;
pub mod pins;
pub mod runner;
pub mod serve;
pub mod spans;
pub mod threshold;
pub mod verify;

use std::collections::BTreeMap;
use std::time::Duration;

use spans::Tracer;

/// Counts checked operations and failed checks, keeping the first few
/// failure descriptions for the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Checks that failed (an operation that did not finish counts too).
    pub failed: u64,
    /// The first failure descriptions.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records `n` checked operations; `bad` of them failed, described by
    /// `what` (evaluated only on failure).
    pub fn record(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    /// Records one check of one operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(1, u64::from(!ok), what);
    }

    /// Records a check that `got == want`.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, expected {want:?}")
        });
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 16 {
                self.notes.push(n);
            }
        }
    }
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.0)
    }
}

/// How a part runs: its size, sweep jobs, workload seed, and tracer.
pub struct Ctx {
    /// Sweep/explorer worker threads.
    pub jobs: usize,
    /// The workload seed (0 reproduces the committed-artifact inputs).
    pub seed: u64,
    /// CI-scale inputs (self-tests); the pins that only hold at full scale
    /// are skipped.
    pub smoke: bool,
    /// Span recorder (off in end-to-end runs).
    pub tracer: Tracer,
}

impl Ctx {
    /// A context with tracing off.
    pub fn new(jobs: usize, seed: u64, smoke: bool) -> Self {
        Ctx {
            jobs,
            seed,
            smoke,
            tracer: Tracer::off(),
        }
    }
}

/// The median of `xs` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nanoseconds per item of `d` spread over `n` items (0 when `n == 0`).
pub fn ns_per(d: Duration, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e9 / n as f64
    }
}

/// `a / b` as floats, 0 when `b == 0`.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-worker busy time of one sweep-pool call, for `sweep.busy_ratio`
/// and `sweep.imbalance`: cells are attributed to the OS thread that ran
/// them.
#[derive(Clone, Debug, Default)]
pub struct PoolLoad {
    /// `(jobs × wall)` summed over calls.
    pub capacity: Duration,
    /// Busy time summed over all workers and calls.
    pub busy: Duration,
    /// Σ over calls of the busiest worker's time.
    pub max_worker: Duration,
    /// Σ over calls of the mean worker time.
    pub mean_worker: Duration,
}

impl PoolLoad {
    /// Adds one pool call: `cells` are `(thread, busy)` pairs, `wall` the
    /// call's elapsed time, `jobs` its worker count.
    pub fn add_call(
        &mut self,
        cells: &[(std::thread::ThreadId, Duration)],
        wall: Duration,
        jobs: usize,
    ) {
        let mut per: Vec<(std::thread::ThreadId, Duration)> = Vec::new();
        for &(t, d) in cells {
            match per.iter_mut().find(|(id, _)| *id == t) {
                Some(slot) => slot.1 += d,
                None => per.push((t, d)),
            }
        }
        let total: Duration = per.iter().map(|p| p.1).sum();
        let jobs = jobs.max(per.len()).max(1);
        self.capacity += wall * jobs as u32;
        self.busy += total;
        self.max_worker += per.iter().map(|p| p.1).max().unwrap_or_default();
        self.mean_worker += total / jobs as u32;
    }

    /// Adds another load record.
    pub fn merge(&mut self, o: &PoolLoad) {
        self.capacity += o.capacity;
        self.busy += o.busy;
        self.max_worker += o.max_worker;
        self.mean_worker += o.mean_worker;
    }

    /// Writes `sweep.busy_ratio` and `sweep.imbalance`.
    pub fn metrics(&self, m: &mut Metrics) {
        m.set(
            "sweep.busy_ratio",
            ratio(self.busy.as_secs_f64(), self.capacity.as_secs_f64()),
            "ratio",
        );
        m.set(
            "sweep.imbalance",
            ratio(
                self.max_worker.as_secs_f64(),
                self.mean_worker.as_secs_f64(),
            ),
            "ratio",
        );
    }
}
