//! The `verify` part: exhaustive Lemma 1 verification with the explorer.
//!
//! Three explorer calls, each checking agreement and validity at every
//! terminal state:
//!
//! * `fig3_q8_4p_sym` unreduced — the plain path, narrow incremental hash;
//! * `fig3_q8_4p_sym` with symmetry + POR — the canonical hash is
//!   recomputed for every state;
//! * `fig3_pair_2x3` with POR and the wide hash — the largest verified
//!   configuration.
//!
//! Fork, hash, dedup and frontier do nearly all the work here; deciders,
//! history and the service engine do none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hybrid_wf::uni::consensus::{UniConsensusMem, MIN_QUANTUM};
use lowerbound::explore_grid::{fig3_kernel, pair_kernel, PairMem};
use sched_sim::explore::{explore_parallel, ExploreBounds, ExploreStats, Verdict};
use sched_sim::ids::ProcessId;
use sched_sim::kernel::Kernel;

use crate::pins::{explore_pin, ExplorePin};
use crate::spans::{SpanId, ROOT};
use crate::{ratio, Ctx, Metrics, Tally};

/// The layout of one explored configuration.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// One Fig. 3 object on one processor, one process per proposal.
    Uni(&'static [u64]),
    /// Two independent Fig. 3 objects, this many processes each.
    Pair(u32),
}

/// One explorer call of the part.
#[derive(Clone, Debug)]
pub struct Case {
    /// The `BENCH_explore.json` workload name.
    pub workload: &'static str,
    /// Process layout.
    pub shape: Shape,
    /// Explorer options.
    pub bounds: ExploreBounds,
    /// Whether this is a reduced (symmetry and/or POR) call.
    pub reduced: bool,
    /// Expected statistics, from the artifact row that ran these inputs.
    pub pin: Option<ExplorePin>,
}

fn plain() -> ExploreBounds {
    ExploreBounds::default()
}

fn reduced(symmetry: bool) -> ExploreBounds {
    ExploreBounds {
        por: true,
        symmetry,
        wide_hash: true,
        ..ExploreBounds::default()
    }
}

/// The part's calls. Smoke keeps the same three modes on configurations
/// small enough for a self-test.
///
/// # Errors
///
/// When `BENCH_explore.json` cannot be read.
pub fn cases(smoke: bool) -> Result<Vec<Case>, String> {
    let rows = crate::pins::load("BENCH_explore.json")?;
    let (sym, sym_name, pair, pair_name): (&'static [u64], _, _, _) = if smoke {
        (&[1, 2, 3], "fig3_q8_3p", 1, "fig3_pair_2x1")
    } else {
        (&[7, 7, 7, 7], "fig3_q8_4p_sym", 3, "fig3_pair_2x3")
    };
    Ok(vec![
        Case {
            workload: sym_name,
            shape: Shape::Uni(sym),
            bounds: plain(),
            reduced: false,
            pin: explore_pin(&rows, sym_name, "explore_serial"),
        },
        Case {
            workload: sym_name,
            shape: Shape::Uni(sym),
            bounds: reduced(true),
            reduced: true,
            pin: explore_pin(&rows, sym_name, "explore_reduced"),
        },
        Case {
            workload: pair_name,
            shape: Shape::Pair(pair),
            bounds: reduced(false),
            reduced: true,
            pin: explore_pin(&rows, pair_name, "explore_reduced"),
        },
    ])
}

/// A configuration's initial kernel.
pub enum Built {
    /// A [`Shape::Uni`] kernel and its proposals.
    Uni(Kernel<UniConsensusMem>, &'static [u64]),
    /// A [`Shape::Pair`] kernel and its per-object process count.
    Pair(Kernel<PairMem>, u32),
}

/// Builds every case's initial kernel (the part's set-up).
pub fn setup(cases: &[Case]) -> Vec<Built> {
    cases
        .iter()
        .map(|c| match c.shape {
            Shape::Uni(props) => Built::Uni(fig3_kernel(MIN_QUANTUM, props), props),
            Shape::Pair(per) => Built::Pair(pair_kernel(MIN_QUANTUM, per), per),
        })
        .collect()
}

/// Agreement + validity for the processes `pids` deciding one object
/// among `proposals`: all finished, one decision, a proposed value.
fn group_ok<M>(k: &Kernel<M>, pids: std::ops::Range<u32>, proposals: impl Fn(u64) -> bool) -> bool {
    let mut decided = None;
    for p in pids {
        match (k.output(ProcessId(p)), decided) {
            (None, _) => return false,
            (Some(v), None) => decided = Some(v),
            (Some(v), Some(d)) if v != d => return false,
            _ => {}
        }
    }
    decided.is_some_and(proposals)
}

/// What one explorer call produced.
#[derive(Clone, Debug)]
pub struct CallOut {
    /// Explorer statistics.
    pub stats: ExploreStats,
    /// Host time of the call, terminal checks included.
    pub wall: Duration,
    /// Terminals checked.
    pub checks: u64,
    /// Terminals that failed agreement or validity.
    pub violations: u64,
    /// Host time spent in terminal checks (traced runs only).
    pub check_ns: u64,
}

/// Runs one explorer call at `jobs` and checks every terminal.
pub fn explore_call(
    ctx: &Ctx,
    built: &Built,
    bounds: ExploreBounds,
    jobs: usize,
    parent: SpanId,
    iter: u64,
) -> CallOut {
    let checks = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let check_ns = AtomicU64::new(0);
    let tr = &ctx.tracer;
    let t0 = Instant::now();
    let stats = tr.span("explore.call", parent, iter, |call| {
        let verdict = |ok: bool| {
            checks.fetch_add(1, Ordering::Relaxed);
            if !ok {
                violations.fetch_add(1, Ordering::Relaxed);
            }
            Verdict::KeepGoing
        };
        // The check is timed only when tracing: the end-to-end run keeps
        // the clock reads out of the explorer's callback.
        let timed_check = |f: &dyn Fn() -> bool| -> bool {
            if tr.is_on() {
                let t = Instant::now();
                let ok = tr.span("oracle.terminal_check", call, iter, |_| f());
                check_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                ok
            } else {
                f()
            }
        };
        match built {
            Built::Uni(k, props) => {
                let n = props.len() as u32;
                explore_parallel(k, bounds, jobs, |k| {
                    verdict(timed_check(&|| group_ok(k, 0..n, |v| props.contains(&v))))
                })
            }
            Built::Pair(k, per) => {
                let per = *per;
                let per64 = u64::from(per);
                explore_parallel(k, bounds, jobs, |k| {
                    verdict(timed_check(&|| {
                        // Object A proposes 1..=per, object B per+1..=2per.
                        group_ok(k, 0..per, |v| (1..=per64).contains(&v))
                            && group_ok(k, per..2 * per, |v| (per64 + 1..=2 * per64).contains(&v))
                    }))
                })
            }
        }
    });
    CallOut {
        stats,
        wall: t0.elapsed(),
        checks: checks.into_inner(),
        violations: violations.into_inner(),
        check_ns: check_ns.into_inner(),
    }
}

/// One pass over every case.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Per-case results, in case order.
    pub calls: Vec<CallOut>,
    /// Host time from the first call to the last verdict.
    pub wall: Duration,
}

/// Runs one pass and checks it: every terminal, untruncated search, and
/// the statistics against the committed artifact rows.
pub fn pass(ctx: &Ctx, cases: &[Case], built: &[Built], iter: u64, tally: &mut Tally) -> PassOut {
    let t0 = Instant::now();
    let calls: Vec<CallOut> = ctx.tracer.span("verify.pass", ROOT, iter, |id| {
        cases
            .iter()
            .zip(built)
            .map(|(c, b)| explore_call(ctx, b, c.bounds, ctx.jobs, id, iter))
            .collect()
    });
    let wall = t0.elapsed();
    for (c, out) in cases.iter().zip(&calls) {
        let mode = if c.reduced { "reduced" } else { "plain" };
        tally.record(out.checks, out.violations, || {
            format!(
                "verify {} {mode}: {} terminals violate agreement/validity",
                c.workload, out.violations
            )
        });
        tally.check(!out.stats.truncated(), || {
            format!("verify {} {mode}: search truncated", c.workload)
        });
        if let Some(pin) = c.pin {
            let s = &out.stats;
            let got = ExplorePin {
                steps: s.steps,
                terminals: s.terminals,
                deduped: s.deduped,
                por_pruned: s.por_pruned,
                visited: s.peak_visited,
            };
            tally.expect_eq(
                &format!("verify {} {mode} stats vs BENCH_explore.json", c.workload),
                got,
                pin,
            );
        } else if !ctx.smoke {
            tally.check(false, || {
                format!("verify {} {mode}: no BENCH_explore.json row", c.workload)
            });
        }
    }
    PassOut { calls, wall }
}

/// The part's per-layer metrics from one traced pass.
pub fn layer_metrics(ctx: &Ctx, cases: &[Case], p: &PassOut, iter: u64, m: &mut Metrics) {
    let sum = |f: &dyn Fn(&CallOut) -> u64| p.calls.iter().map(f).sum::<u64>();
    let secs = |want_reduced: bool| {
        cases
            .iter()
            .zip(&p.calls)
            .filter(|(c, _)| c.reduced == want_reduced)
            .map(|(_, o)| o.wall.as_secs_f64())
            .sum::<f64>()
    };
    let steps = sum(&|o| o.stats.steps);
    let deduped = sum(&|o| o.stats.deduped);
    let states = sum(&|o| o.stats.peak_visited);
    let check_ns = sum(&|o| o.check_ns);
    let checks = sum(&|o| o.checks);
    let explore_s: f64 = p.calls.iter().map(|o| o.wall.as_secs_f64()).sum();
    m.set(
        "explore.self_s",
        ctx.tracer
            .self_times(iter)
            .get("explore.call")
            .copied()
            .unwrap_or(0.0),
        "s",
    );
    m.set("explore.plain_s", secs(false), "s");
    m.set("explore.reduced_s", secs(true), "s");
    m.set(
        "explore.states_per_s",
        ratio(states as f64, explore_s),
        "1/s",
    );
    m.set("explore.steps", steps as f64, "count");
    m.set("explore.states", states as f64, "count");
    m.set("explore.deduped", deduped as f64, "count");
    m.set(
        "explore.por_pruned",
        sum(&|o| o.stats.por_pruned) as f64,
        "count",
    );
    m.set(
        "explore.terminals",
        sum(&|o| o.stats.terminals) as f64,
        "count",
    );
    m.set(
        "explore.revisit_ratio",
        ratio(deduped as f64, steps as f64),
        "ratio",
    );
    m.set(
        "oracle.terminal_check_ns",
        ratio(check_ns as f64, checks as f64),
        "ns",
    );
}

/// `explore.par_speedup`: the plain call's host time at one job over its
/// time at `ctx.jobs`, best of `reps` each (interleaved).
pub fn par_speedup(ctx: &Ctx, cases: &[Case], built: &[Built], reps: usize) -> f64 {
    let Some(i) = cases.iter().position(|c| !c.reduced) else {
        return 0.0;
    };
    let quiet = Ctx::new(ctx.jobs, ctx.seed, ctx.smoke);
    let (mut serial, mut par) = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        serial = serial.min(
            explore_call(&quiet, &built[i], cases[i].bounds, 1, ROOT, 0)
                .wall
                .as_secs_f64(),
        );
        par = par.min(
            explore_call(&quiet, &built[i], cases[i].bounds, ctx.jobs, ROOT, 0)
                .wall
                .as_secs_f64(),
        );
    }
    ratio(serial, par)
}
