//! The `threshold` part: one pass of the Table 1 probe grid.
//!
//! Fig. 7 at `P ≤ 3`, `C ∈ [P, 2P]`, `Q ∈ {1..8, 12, 16}`, `M = 3`: 90
//! probes, each run against 60 adversary seeds with no early exit, so a
//! pass is 5,400 `Scenario::run` calls. A run passes when the processes
//! agree, the Lemma 3 access-failure bound holds, and a clean level
//! remains (the probe criterion of `BENCH_table1.json`). The decider is
//! consulted on every step, and the access-failure oracle runs after
//! every run; the other parts barely touch either.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use hybrid_wf::multi::consensus::{LocalMode, MultiMem};
use hybrid_wf::multi::failures::{lemma3_bound_holds, summarize};
use lowerbound::adversary::{adversary_for_seed, fig7_scenario};
use sched_sim::decision::{Choice, Decider};
use sched_sim::scenario::Scenario;
use sched_sim::sweep::run_cells;

use crate::pins::{probe_pin, ProbePin};
use crate::spans::{SpanId, ROOT};
use crate::{ns_per, quantile, ratio, Ctx, Metrics, PoolLoad, Tally};

/// The quantum axis of every `(P, C)` cell.
pub const QS: [u32; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16];
/// Adversary seeds per probe.
pub const SEEDS: u64 = 60;
/// Processes per processor.
pub const M: u32 = 3;

/// The quantum the legal-quantum check runs every `(P, C)` cell at. The
/// grid's own quanta are all below Theorem 4's bound for some adversary
/// seed: over 54,000 seeded runs per quantum, Fig. 7 still disagreed at
/// `Q = 128` (P = 2, C = 2) and never at `Q ≥ 256`. Below this quantum a
/// failing run is a finding the verdict reports, not a failed check; the
/// committed map pins those verdicts at seed 0.
pub const LEGAL_Q: u32 = 1024;

/// One probe of the grid.
#[derive(Clone, Debug)]
pub struct Probe {
    /// Processors.
    pub p: u32,
    /// Consensus number of the objects.
    pub c: u32,
    /// Quantum.
    pub q: u32,
    /// The committed verdict (compared at seed 0 only).
    pub pin: Option<ProbePin>,
}

/// The `(P, C)` cells and their probes. Smoke keeps three cells and three
/// quanta.
///
/// # Errors
///
/// When `BENCH_table1.json` cannot be read.
pub fn probes(smoke: bool) -> Result<Vec<Vec<Probe>>, String> {
    let rows = crate::pins::load("BENCH_table1.json")?;
    let (pcs, qs): (Vec<(u32, u32)>, Vec<u32>) = if smoke {
        (vec![(1, 1), (2, 2), (2, 4)], vec![1, 2, 8])
    } else {
        (
            (1..=3u32)
                .flat_map(|p| (p..=2 * p).map(move |c| (p, c)))
                .collect(),
            QS.to_vec(),
        )
    };
    Ok(pcs
        .into_iter()
        .map(|(p, c)| {
            qs.iter()
                .map(|&q| Probe {
                    p,
                    c,
                    q,
                    pin: probe_pin(&rows, p, c, q),
                })
                .collect()
        })
        .collect())
}

/// The first adversary seed of a pass (0 at workload seed 0, the
/// committed seeds `0..60`).
pub fn seed_base(seed: u64) -> u64 {
    seed.wrapping_mul(SEEDS)
}

fn scenario(pr: &Probe) -> Scenario<MultiMem> {
    fig7_scenario(pr.p, pr.c, M, 1, pr.q, LocalMode::Modeled)
}

/// The part's set-up: every probe's scenario and a kernel from it, built
/// and dropped (a pass builds each cell's scenarios on the worker that
/// runs the cell, since scenarios are not shared across threads).
pub fn setup(cells: &[Vec<Probe>]) -> Duration {
    let t0 = Instant::now();
    for pr in cells.iter().flatten() {
        std::hint::black_box(scenario(pr).kernel());
    }
    t0.elapsed()
}

/// Counts and times every decision of the wrapped decider.
struct TimedDecider {
    inner: Box<dyn Decider>,
    calls: u64,
    ns: u64,
}

impl Decider for TimedDecider {
    fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
        let t = Instant::now();
        let r = self.inner.choose(choice, n);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

/// One probe's outcome.
#[derive(Clone, Debug, Default)]
pub struct ProbeOut {
    /// Statements over all seeds.
    pub steps: u64,
    /// Statements over the seeds up to and including the first failing
    /// one (all seeds when none failed).
    pub steps_to_first_failure: u64,
    /// Failing seed offsets (0-based within the probe).
    pub failing: Vec<u64>,
    /// Runs that did not finish within the step budget.
    pub unfinished: u64,
}

/// Traced-run measurements of one pass.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `Scenario::run` durations, in ns.
    pub run_ns: Vec<u64>,
    /// Decider calls.
    pub decisions: u64,
    /// Decider time, ns.
    pub decision_ns: u64,
    /// Access-failure oracle time (`summarize` + `lemma3_bound_holds`),
    /// ns.
    pub oracle_ns: u64,
    /// Σ access-failure levels (`AF_same + AF_diff`) over runs.
    pub access_failures: u64,
}

/// One pass.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Per-cell, per-probe outcomes.
    pub probes: Vec<Vec<ProbeOut>>,
    /// Host time of the pass.
    pub wall: Duration,
    /// Traced measurements (empty untraced).
    pub trace: Trace,
    /// Sweep-pool load (traced passes only).
    pub load: PoolLoad,
}

impl PassOut {
    /// Statements over every run.
    pub fn steps(&self) -> u64 {
        self.probes.iter().flatten().map(|p| p.steps).sum()
    }
}

/// Runs one probe against every adversary seed of the pass, adding the
/// traced measurements to `local` when tracing.
fn run_probe(ctx: &Ctx, pr: &Probe, parent: SpanId, iter: u64, local: &mut Trace) -> ProbeOut {
    let tr = &ctx.tracer;
    let s = scenario(pr);
    let mut out = ProbeOut::default();
    for k in 0..SEEDS {
        let adversary = adversary_for_seed(seed_base(ctx.seed) + k);
        let r = if tr.is_on() {
            let mut d = TimedDecider {
                inner: adversary,
                calls: 0,
                ns: 0,
            };
            let t = Instant::now();
            let r = tr.span("scenario.run", parent, iter, |_| s.run(&mut d));
            local.run_ns.push(t.elapsed().as_nanos() as u64);
            local.decisions += d.calls;
            local.decision_ns += d.ns;
            r
        } else {
            let mut d = adversary;
            s.run(&mut *d)
        };
        let t = Instant::now();
        let (ok, af) = tr.span("multi.oracle", parent, iter, |_| {
            let sm = summarize(r.mem());
            let ok = r.agreed_output().is_some()
                && lemma3_bound_holds(r.mem())
                && !sm.clean_levels.is_empty();
            (ok, u64::from(sm.same + sm.diff))
        });
        if tr.is_on() {
            local.oracle_ns += t.elapsed().as_nanos() as u64;
            local.access_failures += af;
        }
        out.steps += r.steps;
        if out.failing.is_empty() {
            out.steps_to_first_failure += r.steps;
        }
        if !ok {
            out.failing.push(k);
        }
        out.unfinished += u64::from(!r.all_finished);
    }
    out
}

/// Runs every probe over the sweep pool (one `(P, C)` cell per work
/// item) and checks the verdicts.
pub fn pass(ctx: &Ctx, cells: &[Vec<Probe>], iter: u64, tally: &mut Tally) -> PassOut {
    let tr = &ctx.tracer;
    let merged = Mutex::new(Trace::default());
    let t0 = Instant::now();
    let results: Vec<(Vec<ProbeOut>, ThreadId, Duration)> =
        tr.span("threshold.pass", ROOT, iter, |pass_id| {
            run_cells(cells, ctx.jobs, |_, probes| {
                let c0 = Instant::now();
                let mut local = Trace::default();
                let outs = tr.span("threshold.cell", pass_id, iter, |cell_id| {
                    probes
                        .iter()
                        .map(|pr| run_probe(ctx, pr, cell_id, iter, &mut local))
                        .collect()
                });
                if tr.is_on() {
                    let mut m = merged.lock().expect("trace merge poisoned");
                    m.run_ns.extend(local.run_ns);
                    m.decisions += local.decisions;
                    m.decision_ns += local.decision_ns;
                    m.oracle_ns += local.oracle_ns;
                    m.access_failures += local.access_failures;
                }
                (outs, std::thread::current().id(), c0.elapsed())
            })
        });
    let wall = t0.elapsed();
    let mut load = PoolLoad::default();
    if tr.is_on() {
        let cells_busy: Vec<(ThreadId, Duration)> = results.iter().map(|r| (r.1, r.2)).collect();
        load.add_call(&cells_busy, wall, ctx.jobs);
    }
    let probes: Vec<Vec<ProbeOut>> = results.into_iter().map(|r| r.0).collect();
    check(ctx, cells, &probes, tally);
    PassOut {
        probes,
        wall,
        trace: merged.into_inner().expect("trace merge poisoned"),
        load,
    }
}

/// Checks one pass: every run finished, and at seed 0 every verdict, step
/// count and first failing seed equals `BENCH_table1.json`.
pub fn check(ctx: &Ctx, cells: &[Vec<Probe>], outs: &[Vec<ProbeOut>], tally: &mut Tally) {
    for (probes, outs) in cells.iter().zip(outs) {
        for (pr, out) in probes.iter().zip(outs) {
            let at = format!("threshold P={} C={} Q={}", pr.p, pr.c, pr.q);
            tally.record(SEEDS, out.unfinished, || {
                format!("{at}: {} runs unfinished", out.unfinished)
            });
            if ctx.seed == 0 {
                match pr.pin {
                    Some(pin) => {
                        let got = ProbePin {
                            ok: out.failing.is_empty(),
                            steps: out.steps_to_first_failure,
                            fail_seed: out.failing.first().copied(),
                        };
                        tally.expect_eq(&format!("{at} vs BENCH_table1.json"), got, pin);
                    }
                    None => tally.check(false, || format!("{at}: no BENCH_table1.json row")),
                }
            }
        }
    }
}

/// The legal-quantum check: every `(P, C)` cell at [`LEGAL_Q`] against the
/// pass's adversary seeds; every run must finish, agree, and meet the
/// Lemma 3 bound with a clean level left.
pub fn legal_check(ctx: &Ctx, cells: &[Vec<Probe>], tally: &mut Tally) {
    for pr in cells.iter().filter_map(|probes| probes.first()) {
        let legal = Probe {
            q: LEGAL_Q,
            pin: None,
            ..pr.clone()
        };
        let out = run_probe(ctx, &legal, ROOT, 0, &mut Trace::default());
        tally.record(SEEDS, out.failing.len() as u64 + out.unfinished, || {
            format!(
                "threshold P={} C={} Q={LEGAL_Q}: legal quantum, failing seed offsets {:?}, {} unfinished",
                pr.p, pr.c, out.failing, out.unfinished
            )
        });
    }
}

/// The part's per-layer metrics from one traced pass.
pub fn layer_metrics(p: &PassOut, m: &mut Metrics) {
    let t = &p.trace;
    let runs = t.run_ns.len() as u64;
    let steps = p.steps();
    let run_total: u64 = t.run_ns.iter().sum();
    let run_us: Vec<f64> = t.run_ns.iter().map(|&n| n as f64 / 1e3).collect();
    m.set(
        "kernel.step_ns.threshold",
        ratio(run_total.saturating_sub(t.decision_ns) as f64, steps as f64),
        "ns",
    );
    m.set("decision.calls", t.decisions as f64, "count");
    m.set(
        "decision.calls_per_step",
        ratio(t.decisions as f64, steps as f64),
        "ratio",
    );
    m.set(
        "decision.ns_per_call",
        ratio(t.decision_ns as f64, t.decisions as f64),
        "ns",
    );
    m.set("scenario.runs", runs as f64, "count");
    m.set(
        "scenario.steps_per_run",
        ratio(steps as f64, runs as f64),
        "stmts",
    );
    m.set("scenario.run_p50_us", quantile(&run_us, 0.5), "us");
    m.set("scenario.run_p99_us", quantile(&run_us, 0.99), "us");
    m.set(
        "multi.oracle_ns",
        ns_per(Duration::from_nanos(t.oracle_ns), runs),
        "ns",
    );
    m.set("multi.access_failures", t.access_failures as f64, "count");
}
