//! The `native` part: the universal-construction counter and the C&S
//! object on real atomics (`native::harness`, free pacing, two OS
//! threads, long per-thread plans).
//!
//! Throughput counts thread spawn and join, amortized over the plan. The
//! retry counts vary from run to run with the OS schedule, so they are
//! per-layer metrics only. `oracle::check_linearizable` stops at 63
//! operations, so the checks here are specific to the two objects: the
//! counter's results must form one chain of fetch-and-adds from 0, and
//! the successful C&S operations one chain of installs from the initial
//! value.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hybrid_wf::generic::{CasObject, Universal};
use hybrid_wf::oracle::CasRegOp;
use hybrid_wf::universal::CounterSpec;
use native::backend::NativeBackend;
use native::harness::{counter_plans, run_cas, run_universal, FamilyRun, Pacing};
use wfmem::Val;

use crate::spans::ROOT;
use crate::{median, ns_per, ratio, Ctx, Metrics, Tally};

/// OS threads (one process each).
pub const THREADS: usize = 2;

/// Operations per thread per object.
pub fn per_thread(smoke: bool) -> usize {
    if smoke {
        1 << 10
    } else {
        1 << 16
    }
}

/// The part's set-up: the counter plans plus one build of each native
/// object, dropped. Returns the plans and the host time.
pub fn setup(ctx: &Ctx) -> (Vec<Vec<Val>>, Duration) {
    let t0 = Instant::now();
    let per = per_thread(ctx.smoke);
    let plans = counter_plans(THREADS, per, ctx.seed);
    let backend = NativeBackend::free();
    std::hint::black_box(Universal::<NativeBackend, CounterSpec>::new(
        &backend,
        CounterSpec,
        THREADS as u32,
        per as u32,
    ));
    std::hint::black_box(CasObject::<NativeBackend>::new(&backend, 0));
    (plans, t0.elapsed())
}

/// One repetition: a counter run and a C&S run.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    /// Outer host time of the counter call (spawn and join included).
    pub counter: Duration,
    /// Outer host time of the C&S call.
    pub cas: Duration,
    /// Threaded-section time of both calls.
    pub threaded: Duration,
    /// Completed operations of both calls.
    pub ops: u64,
    /// Counted statements of both calls.
    pub accesses: u64,
    /// Retries of both calls.
    pub retries: u64,
    /// Host time of the checks.
    pub check: Duration,
}

/// Runs and checks one repetition.
pub fn rep(ctx: &Ctx, plans: &[Vec<Val>], iter: u64, tally: &mut Tally) -> RepOut {
    let tr = &ctx.tracer;
    let per = per_thread(ctx.smoke);
    tr.span("native.rep", ROOT, iter, |id| {
        let t0 = Instant::now();
        let counter = tr.span("native.run_universal", id, iter, |_| {
            run_universal(CounterSpec, plans.to_vec(), Pacing::Free)
        });
        let t_counter = t0.elapsed();
        let t0 = Instant::now();
        let cas = tr.span("native.run_cas", id, iter, |_| {
            run_cas(THREADS, per, ctx.seed ^ iter, Pacing::Free)
        });
        let t_cas = t0.elapsed();
        let t0 = Instant::now();
        tr.span("oracle.native_check", id, iter, |_| {
            check_counter(&counter, tally);
            check_cas(&cas, tally);
            let want = (THREADS * per) as u64;
            tally.expect_eq(
                "native counter ops completed",
                counter.records.len() as u64,
                want,
            );
            tally.expect_eq("native cas ops completed", cas.records.len() as u64, want);
        });
        RepOut {
            counter: t_counter,
            cas: t_cas,
            threaded: counter.wall + cas.wall,
            ops: (counter.records.len() + cas.records.len()) as u64,
            accesses: counter.accesses + cas.accesses,
            retries: counter.retries + cas.retries,
            check: t0.elapsed(),
        }
    })
}

/// Fetch-and-add results, sorted, must chain from 0 by their own addends:
/// distinct outputs, no lost or doubled add, and the final total equal to
/// the sum of every plan.
pub fn check_counter(run: &FamilyRun<Val>, tally: &mut Tally) {
    let mut chain: Vec<(Val, Val)> = run
        .records
        .iter()
        .filter_map(|r| Some((r.output?, run.plans[r.pid.0 as usize][r.inv_index as usize])))
        .collect();
    chain.sort_unstable();
    let mut expect = 0u64;
    let mut broken = 0u64;
    for &(out, add) in &chain {
        if out != expect {
            broken += 1;
        }
        expect = out + add;
    }
    let total: u64 = run.plans.iter().flatten().sum();
    tally.record(chain.len() as u64, broken, || {
        format!("native counter: {broken} results off the fetch-and-add chain")
    });
    tally.expect_eq("native counter final total", expect, total);
}

/// Successful C&S operations, as edges `old → new`, must form one trail
/// from the initial value 0 that uses every edge once (an Eulerian trail,
/// so repeated values are allowed); every read must return 0 or an
/// installed value.
pub fn check_cas(run: &FamilyRun<CasRegOp>, tally: &mut Tally) {
    let mut out_deg: HashMap<Val, i64> = HashMap::new();
    let mut adj: HashMap<Val, Vec<Val>> = HashMap::new();
    let mut installed: std::collections::HashSet<Val> = std::collections::HashSet::from([0]);
    let mut reads = Vec::new();
    let mut attempts = 0u64;
    for r in &run.records {
        let Some(out) = r.output else { continue };
        match run.plans[r.pid.0 as usize][r.inv_index as usize] {
            CasRegOp::Cas { old, new } => {
                attempts += 1;
                if out == 1 {
                    *out_deg.entry(old).or_default() += 1;
                    *out_deg.entry(new).or_default() -= 1;
                    adj.entry(old).or_default().push(new);
                    installed.insert(new);
                }
            }
            CasRegOp::Read => reads.push(out),
        }
    }
    let edges: usize = adj.values().map(Vec::len).sum();
    // Degree condition for a trail starting at 0: 0 has one more out than
    // in (or the trail is closed), at most one vertex one more in than out.
    let start_excess = out_deg.get(&0).copied().unwrap_or(0);
    let bad_degrees = out_deg
        .iter()
        .filter(|&(&v, &d)| v != 0 && d != 0 && d != -1)
        .count()
        + out_deg
            .values()
            .filter(|&&d| d == -1)
            .count()
            .saturating_sub(1)
        + usize::from(!(start_excess == 0 || start_excess == 1));
    // Every edge reachable from 0.
    let mut seen: std::collections::HashSet<Val> = std::collections::HashSet::from([0]);
    let mut stack = vec![0];
    let mut reached = 0usize;
    while let Some(v) = stack.pop() {
        for &w in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
            reached += 1;
            if seen.insert(w) {
                stack.push(w);
            }
        }
    }
    tally.record(attempts, (bad_degrees + (edges - reached.min(edges))) as u64, || {
        format!("native cas: successful C&S do not form one chain from 0 ({bad_degrees} bad vertices, {} of {edges} edges reached)", reached.min(edges))
    });
    let stray = reads.iter().filter(|v| !installed.contains(v)).count() as u64;
    tally.record(reads.len() as u64, stray, || {
        format!("native cas: {stray} reads returned a value no C&S installed")
    });
}

/// The part's end-to-end metric over its repetitions.
pub fn e2e_metrics(reps: &[RepOut], m: &mut Metrics) {
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| ratio(r.ops as f64, (r.counter + r.cas).as_secs_f64()))
        .collect();
    m.set("native_ops_per_s", median(&rates), "ops/s");
}

/// The part's per-layer metrics over its traced repetitions.
pub fn layer_metrics(ctx: &Ctx, reps: &[RepOut], m: &mut Metrics) {
    let med = |f: &dyn Fn(&RepOut) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let per = (THREADS * per_thread(ctx.smoke)) as u64;
    m.set("native.run_s", med(&|r| r.threaded.as_secs_f64()), "s");
    m.set(
        "native.spawn_s",
        med(&|r| (r.counter + r.cas).saturating_sub(r.threaded).as_secs_f64()),
        "s",
    );
    m.set(
        "native.accesses_per_op",
        med(&|r| ratio(r.accesses as f64, r.ops as f64)),
        "ratio",
    );
    m.set(
        "native.retry_ratio",
        med(&|r| ratio(r.retries as f64, r.ops as f64)),
        "ratio",
    );
    m.set(
        "native.ns_per_op.counter",
        med(&|r| ns_per(r.counter, per)),
        "ns",
    );
    m.set("native.ns_per_op.cas", med(&|r| ns_per(r.cas, per)), "ns");
    m.set("native.check_s", med(&|r| r.check.as_secs_f64()), "s");
}
