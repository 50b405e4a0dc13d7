//! The `serve` part: request streams through the universal construction.
//!
//! The six `lowerbound::service::grid` configurations (counter, queue and
//! cas objects, each under closed and open arrival; 1024 clients, 8
//! shards, 2²⁰ requests each, the queue 2¹⁸) plus the churn configuration
//! of `BENCH_crash.json` (scheduled crash/recover cycles). Long-lived
//! kernels step without forking or hashing; the op log and the latency
//! histogram fold do the rest.
//!
//! The timed passes call [`Service::run`]. The check pass builds each
//! shard with [`Service::shard_kernel`], drives it with the engine's
//! release choreography, and checks the final shared memory: every
//! request served exactly once, every output equal to a sequential replay
//! of the decided log, the counter's total equal to its closed form, and
//! the shard's steps and latency equal to what `Service::run` reported.

use std::hash::Hash;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use hybrid_wf::generic::WordOp;
use hybrid_wf::oracle::{CasRegOp, CasRegisterSpec, QueueOp, QueueSpec};
use hybrid_wf::service::{session_mem, OpGen, SessionMachine};
use hybrid_wf::universal::{CounterSpec, UniversalMem};
use lowerbound::service::SERVICE_Q;
use sched_sim::decision::RoundRobin;
use sched_sim::ids::ProcessId;
use sched_sim::kernel::{Kernel, SystemSpec};
use sched_sim::prof::Hist;
use sched_sim::report::Json;
use sched_sim::scenario::Scenario;
use sched_sim::service::{Arrival, ChurnSpec, Service, ServiceReport, ServiceSpec, ShardPlan};

use crate::pins::{churn_pin, service_pin, ChurnPin, ServicePin};
use crate::spans::{SpanId, ROOT};
use crate::{ns_per, ratio, Ctx, Metrics, PoolLoad, Tally};

/// The object a configuration serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Object {
    /// Fetch-and-add counter.
    Counter,
    /// FIFO queue.
    Queue,
    /// C&S + Read register.
    Cas,
}

/// Expected deterministic results of one configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pin {
    /// A `BENCH_service.json` total.
    Grid(ServicePin),
    /// The `BENCH_crash.json` churn cell.
    Churn(ChurnPin),
}

/// One served configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Row label, e.g. `counter/closed`.
    pub label: String,
    /// The object.
    pub object: Object,
    /// The engine spec.
    pub spec: ServiceSpec,
    /// Expected results (checked for every seed: the op mix changes values,
    /// not statement counts).
    pub pin: Option<Pin>,
    /// Offset the seed adds to every client's operands (0 at seed 0, the
    /// committed op mix).
    pub operand_offset: u64,
}

/// The operand offset for `seed` (0 at seed 0).
pub fn operand_offset(seed: u64) -> u64 {
    if seed == 0 {
        0
    } else {
        sched_sim::rng::SplitMix64::new(seed).next_u64() % 1_000_003
    }
}

/// The part's configurations: the service grid plus the churn cell.
///
/// # Errors
///
/// When the committed artifacts cannot be read.
pub fn configs(smoke: bool, seed: u64) -> Result<Vec<Config>, String> {
    let service_rows = crate::pins::load("BENCH_service.json")?;
    let crash_rows = crate::pins::load("BENCH_crash.json")?;
    let off = operand_offset(seed);
    let mut out: Vec<Config> = lowerbound::service::grid(smoke)
        .into_iter()
        .map(|g| {
            let object = match g.object {
                "counter" => Object::Counter,
                "queue" => Object::Queue,
                _ => Object::Cas,
            };
            let spec = ServiceSpec::new(g.shards, g.clients, g.requests)
                .workers_per_shard(g.workers)
                .arrival(g.arrival);
            let pin = if smoke {
                None
            } else {
                service_pin(&service_rows, g.object, g.arrival.name()).map(Pin::Grid)
            };
            Config {
                label: format!("{}/{}", g.object, g.arrival.name()),
                object,
                spec,
                pin,
                operand_offset: off,
            }
        })
        .collect();
    // The churn cell of the crash grid (lowerbound::crash), same shape.
    let (shards, clients, workers, requests, churn) = if smoke {
        (
            2,
            32,
            2,
            1 << 10,
            ChurnSpec {
                victims: 1,
                period: 96,
                down: 48,
                cycles: 6,
            },
        )
    } else {
        (
            4,
            256,
            4,
            1 << 14,
            ChurnSpec {
                victims: 2,
                period: 512,
                down: 256,
                cycles: 16,
            },
        )
    };
    out.push(Config {
        label: "counter/churn".into(),
        object: Object::Counter,
        spec: ServiceSpec::new(shards, clients, requests)
            .workers_per_shard(workers)
            .arrival(Arrival::ClosedLoop { think: 8 })
            .churn(churn),
        pin: if smoke {
            None
        } else {
            churn_pin(&crash_rows).map(Pin::Churn)
        },
        operand_offset: off,
    });
    Ok(out)
}

/// The counter's addend for `client` (the committed mix at offset 0).
pub fn counter_addend(client: u64, off: u64) -> u64 {
    (client + off) % 1000 + 1
}

fn counter_gen(off: u64) -> OpGen<CounterSpec> {
    Arc::new(move |client, _seq| counter_addend(client, off))
}

fn queue_gen(off: u64) -> OpGen<QueueSpec> {
    Arc::new(move |client, seq| {
        if seq % 2 == 0 {
            QueueOp::Enq((client << 21) | ((seq + off) & 0x1f_ffff))
        } else {
            QueueOp::Deq
        }
    })
}

fn cas_gen(off: u64) -> OpGen<CasRegisterSpec> {
    Arc::new(move |client, seq| {
        if seq % 4 == 3 {
            CasRegOp::Read
        } else {
            let v = client + seq + off;
            CasRegOp::Cas {
                old: v % 1024,
                new: (v + 1) % 1024,
            }
        }
    })
}

/// One shard's scenario: pre-sized session memory and one
/// [`SessionMachine`] per worker, placed by the plan.
fn shard_scenario<S>(spec: &S, gen: &OpGen<S>, plan: &ShardPlan) -> Scenario<UniversalMem<S>>
where
    S: WordOp + Clone + Send + Sync + 'static,
    S::State: Hash + Send + Sync + 'static,
    S::Op: Hash + Eq + Send + Sync + 'static,
{
    let reqs: Vec<u64> = (0..plan.workers).map(|w| plan.worker_requests(w)).collect();
    let mut s = Scenario::new(session_mem::<S>(&reqs), SystemSpec::hybrid(SERVICE_Q));
    for w in 0..plan.workers {
        let m = SessionMachine::new(
            spec.clone(),
            w,
            plan.workers,
            plan.worker_requests(w),
            plan.think(),
            plan.worker_clients(w),
            gen.clone(),
        );
        plan.add_worker(&mut s, w, Box::new(m));
    }
    s
}

/// Drives a shard kernel to completion with the engine's open-loop
/// release choreography (the same schedule `Service::run` uses).
fn drive<M>(plan: &ShardPlan, k: &mut Kernel<M>) -> u64 {
    let mut d = RoundRobin::new();
    let budget = plan.budget;
    let mut steps = 0u64;
    if let Arrival::OpenLoop { cohorts, period } = plan.arrival {
        for cohort in 1..cohorts {
            let target = u64::from(cohort) * period;
            while k.clock() < target && steps < budget {
                let chunk = (target - k.clock()).min(budget - steps);
                let ran = k.run(&mut d, chunk);
                steps += ran;
                if ran < chunk {
                    break;
                }
            }
            for w in 0..plan.workers {
                if plan.cohort_of(w) == cohort {
                    k.release(ProcessId(w));
                }
            }
        }
    }
    steps + k.run(&mut d, budget - steps)
}

/// One configuration's timed result.
#[derive(Clone, Debug)]
pub struct RunOut {
    /// The engine's report.
    pub report: ServiceReport,
    /// Host time of the `Service::run` call.
    pub wall: Duration,
}

/// One timed pass: `Service::run` over every configuration.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Per-configuration results, in configuration order.
    pub runs: Vec<RunOut>,
    /// Host time of the whole pass.
    pub wall: Duration,
    /// Sweep-pool load over the pass's calls (traced passes only).
    pub load: PoolLoad,
}

impl PassOut {
    /// Requests served in the pass.
    pub fn requests(&self) -> u64 {
        self.runs.iter().map(|r| r.report.requests()).sum()
    }

    /// Statements executed in the pass.
    pub fn steps(&self) -> u64 {
        self.runs.iter().map(|r| r.report.steps()).sum()
    }

    /// The merged request latency of every configuration.
    pub fn latency(&self) -> Hist {
        let mut h = Hist::new();
        for r in &self.runs {
            h.merge(&r.report.latency());
        }
        h
    }
}

/// Runs `Service::run` for one configuration, recording which OS thread
/// built each shard when tracing (for the pool-load metrics).
fn run_service<S>(
    ctx: &Ctx,
    cfg: &Config,
    spec: S,
    gen: OpGen<S>,
    parent: SpanId,
    iter: u64,
) -> (RunOut, Vec<(u32, ThreadId)>)
where
    S: WordOp + Clone + Send + Sync + 'static,
    S::State: Hash + Send + Sync + 'static,
    S::Op: Hash + Eq + Send + Sync + 'static,
{
    let threads = Mutex::new(Vec::new());
    let tracing = ctx.tracer.is_on();
    let service = Service::new(cfg.spec, |plan: &ShardPlan| {
        if tracing {
            threads
                .lock()
                .expect("thread log poisoned")
                .push((plan.shard, std::thread::current().id()));
        }
        shard_scenario(&spec, &gen, plan)
    });
    let t0 = Instant::now();
    let report = ctx
        .tracer
        .span(&format!("service.run.{}", cfg.label), parent, iter, |_| {
            service.run(ctx.jobs)
        });
    let wall = t0.elapsed();
    (
        RunOut { report, wall },
        threads.into_inner().expect("thread log poisoned"),
    )
}

fn run_config(
    ctx: &Ctx,
    cfg: &Config,
    parent: SpanId,
    iter: u64,
) -> (RunOut, Vec<(u32, ThreadId)>) {
    let off = cfg.operand_offset;
    match cfg.object {
        Object::Counter => run_service(ctx, cfg, CounterSpec, counter_gen(off), parent, iter),
        Object::Queue => run_service(ctx, cfg, QueueSpec, queue_gen(off), parent, iter),
        Object::Cas => run_service(
            ctx,
            cfg,
            CasRegisterSpec { init: 0 },
            cas_gen(off),
            parent,
            iter,
        ),
    }
}

/// One timed pass over every configuration. Checks each report's request
/// count and completion; the check pass does the rest.
pub fn pass(ctx: &Ctx, configs: &[Config], iter: u64, tally: &mut Tally) -> PassOut {
    let t0 = Instant::now();
    let mut load = PoolLoad::default();
    let runs = ctx.tracer.span("serve.pass", ROOT, iter, |id| {
        configs
            .iter()
            .map(|cfg| {
                let (out, threads) = run_config(ctx, cfg, id, iter);
                if ctx.tracer.is_on() {
                    let cells: Vec<(ThreadId, Duration)> = out
                        .report
                        .shards
                        .iter()
                        .filter_map(|s| {
                            threads
                                .iter()
                                .find(|t| t.0 == s.shard)
                                .map(|t| (t.1, s.wall))
                        })
                        .collect();
                    load.add_call(&cells, out.wall, ctx.jobs);
                }
                out
            })
            .collect::<Vec<_>>()
    });
    let wall = t0.elapsed();
    for (cfg, r) in configs.iter().zip(&runs) {
        let rep = &r.report;
        let finished = rep.shards.iter().filter(|s| s.all_finished).count() as u64;
        let shards = rep.shards.len() as u64;
        tally.record(shards, shards - finished, || {
            format!(
                "serve {}: {} shards unfinished",
                cfg.label,
                shards - finished
            )
        });
        tally.expect_eq(
            &format!("serve {} requests served", cfg.label),
            rep.requests(),
            cfg.spec.requests,
        );
    }
    PassOut { runs, wall, load }
}

/// Deterministic per-shard results of the check pass, compared with the
/// engine's report.
#[derive(Clone, Debug, PartialEq)]
struct ShardSeen {
    steps: u64,
    requests: u64,
    latency: (u64, u64, Option<u64>, Option<u64>),
}

/// What the check pass measured.
#[derive(Clone, Debug, Default)]
pub struct CheckOut {
    /// `Service::shard_kernel` time summed over every shard.
    pub factory: Duration,
    /// `Kernel::run` time and statements, non-churn configurations.
    pub run_plain: (Duration, u64),
    /// `Kernel::run` time and statements, churn configuration.
    pub run_churn: (Duration, u64),
    /// Op-log records across every shard.
    pub ops: u64,
    /// Completed invocations (think invocations included).
    pub invocations: u64,
    /// Crashes fired.
    pub crashes: u64,
    /// Time and records of folding shard op logs with `Hist::record`.
    pub fold: (Duration, u64),
}

fn hist_key(h: &Hist) -> (u64, u64, Option<u64>, Option<u64>) {
    (h.count(), h.sum(), h.min(), h.max())
}

/// A shard's expected final object state, where it has a closed form.
type ClosedForm<'a, T> = Option<&'a dyn Fn(&ShardPlan) -> T>;

/// Builds, drives and checks every shard of `cfg` against the sequential
/// specification, and against `engine` (the timed pass's report).
#[allow(clippy::too_many_arguments)]
fn check_object<S>(
    ctx: &Ctx,
    cfg: &Config,
    spec: S,
    gen: OpGen<S>,
    engine: &ServiceReport,
    closed_form: ClosedForm<'_, S::State>,
    out: &mut CheckOut,
    tally: &mut Tally,
    parent: SpanId,
    iter: u64,
) where
    S: WordOp + Clone + Send + Sync + 'static,
    S::State: Hash + Send + Sync + std::fmt::Debug + 'static,
    S::Op: Hash + Eq + Send + Sync + 'static,
{
    let tr = &ctx.tracer;
    let service = Service::new(cfg.spec, |plan: &ShardPlan| {
        shard_scenario(&spec, &gen, plan)
    });
    let plans = cfg.spec.plans();
    for plan in &plans {
        let shard = plan.shard;
        let t0 = Instant::now();
        let mut k = tr.span("service.shard_kernel", parent, iter, |_| {
            service.shard_kernel(shard)
        });
        out.factory += t0.elapsed();
        let t0 = Instant::now();
        let steps = tr.span("kernel.run", parent, iter, |_| drive(plan, &mut k));
        let ran = t0.elapsed();
        if cfg.spec.churn.is_some() {
            out.run_churn.0 += ran;
            out.run_churn.1 += steps;
        } else {
            out.run_plain.0 += ran;
            out.run_plain.1 += steps;
        }
        let counters = k.counters();
        out.ops += k.ops().len() as u64;
        out.invocations += counters.invocations_completed;
        out.crashes += counters.crashes;

        let t0 = Instant::now();
        let latency = tr.span("prof.hist_fold", parent, iter, |_| {
            let mut h = Hist::new();
            for rec in k.ops() {
                if rec.output.is_some() {
                    h.record(rec.t - rec.start + 1);
                }
            }
            h
        });
        out.fold.0 += t0.elapsed();
        out.fold.1 += k.ops().len() as u64;

        tr.span("oracle.serve_check", parent, iter, |_| {
            let what = |s: &str| format!("serve {} shard {shard}: {s}", cfg.label);
            tally.check(k.all_finished(), || what("not every worker finished"));
            tally.expect_eq(
                &what("crashes vs recoveries"),
                counters.crashes,
                counters.recoveries,
            );
            // Exactly once: replay the decided log, skipping helper
            // duplicates; every worker's tokens must appear in sequence
            // order, each once, up to its request count.
            let n = plan.workers as usize;
            let mut state = spec.init();
            let mut results: Vec<Vec<u64>> = (0..n)
                .map(|w| Vec::with_capacity(plan.worker_requests(w as u32) as usize))
                .collect();
            let mut gaps = 0u64;
            for tok in k.mem.decided_log() {
                let (w, seq) = ((tok >> 32) as usize, (tok & 0xffff_ffff) as usize);
                if w >= n || seq > results[w].len() {
                    gaps += 1;
                    continue;
                }
                if seq < results[w].len() {
                    continue;
                }
                let (next, r) = spec.apply(&state, &k.mem.ops[w][seq]);
                state = next;
                results[w].push(r);
            }
            tally.check(gaps == 0, || {
                what(&format!("{gaps} log tokens out of sequence"))
            });
            for (w, res) in results.iter().enumerate() {
                let want = plan.worker_requests(w as u32);
                tally.record(want, want.abs_diff(res.len() as u64), || {
                    what(&format!(
                        "worker {w} applied {} of {want} requests",
                        res.len()
                    ))
                });
            }
            // Every served request returned what the replay returns at its
            // position in the log.
            let mut next = vec![0usize; n];
            let mut mismatched = 0u64;
            for rec in k.ops() {
                let Some(got) = rec.output else { continue };
                let w = rec.pid.0 as usize;
                if results.get(w).and_then(|r| r.get(next[w])) != Some(&got) {
                    mismatched += 1;
                }
                next[w] += 1;
            }
            tally.record(0, mismatched, || {
                what(&format!("{mismatched} outputs differ from the log replay"))
            });
            if let Some(closed) = closed_form {
                tally.expect_eq(&what("final state vs closed form"), state, closed(plan));
            }
            let seen = ShardSeen {
                steps,
                requests: latency.count(),
                latency: hist_key(&latency),
            };
            let engine_seen = engine
                .shards
                .iter()
                .find(|s| s.shard == shard)
                .map(|s| ShardSeen {
                    steps: s.steps,
                    requests: s.requests,
                    latency: hist_key(&s.latency),
                });
            tally.expect_eq(
                &what("driven shard vs Service::run"),
                Some(seen),
                engine_seen,
            );
        });
    }
}

/// The counter's final total for one shard: the sum of every request's
/// addend over the worker client slices.
pub fn counter_total(plan: &ShardPlan, off: u64) -> u64 {
    (0..plan.workers)
        .map(|w| {
            let (lo, count) = plan.worker_clients(w);
            (0..plan.worker_requests(w))
                .map(|j| counter_addend(lo + j % count, off))
                .sum::<u64>()
        })
        .sum()
}

/// The check pass: every configuration's shards built, driven and checked
/// (see the module docs), plus the pins against the committed artifacts,
/// which `timed` supplies the engine reports for.
pub fn check(
    ctx: &Ctx,
    configs: &[Config],
    timed: &PassOut,
    iter: u64,
    tally: &mut Tally,
) -> CheckOut {
    let mut out = CheckOut::default();
    ctx.tracer.span("serve.check", ROOT, iter, |id| {
        for (cfg, run) in configs.iter().zip(&timed.runs) {
            let off = cfg.operand_offset;
            match cfg.object {
                Object::Counter => {
                    let closed = move |plan: &ShardPlan| counter_total(plan, off);
                    check_object(
                        ctx,
                        cfg,
                        CounterSpec,
                        counter_gen(off),
                        &run.report,
                        Some(&closed),
                        &mut out,
                        tally,
                        id,
                        iter,
                    );
                }
                Object::Queue => check_object(
                    ctx,
                    cfg,
                    QueueSpec,
                    queue_gen(off),
                    &run.report,
                    None,
                    &mut out,
                    tally,
                    id,
                    iter,
                ),
                Object::Cas => {
                    check_object(
                        ctx,
                        cfg,
                        CasRegisterSpec { init: 0 },
                        cas_gen(off),
                        &run.report,
                        None,
                        &mut out,
                        tally,
                        id,
                        iter,
                    );
                }
            }
            check_pin(cfg, &run.report, tally);
        }
    });
    out
}

/// Compares one configuration's report with its committed pin.
pub fn check_pin(cfg: &Config, rep: &ServiceReport, tally: &mut Tally) {
    let lat = rep.latency();
    match cfg.pin {
        Some(Pin::Grid(pin)) => {
            let spr = rep.steps_per_request().unwrap_or(0.0);
            let got = ServicePin {
                steps: rep.steps(),
                requests: rep.requests(),
                // The artifact rounds to three decimals.
                steps_per_request: (spr * 1000.0).round() / 1000.0,
                p50: lat.percentile(50.0).unwrap_or(0),
                p90: lat.percentile(90.0).unwrap_or(0),
                p99: lat.percentile(99.0).unwrap_or(0),
            };
            tally.expect_eq(
                &format!("serve {} vs BENCH_service.json", cfg.label),
                got,
                pin,
            );
        }
        Some(Pin::Churn(pin)) => {
            let got = ChurnPin {
                steps: rep.steps(),
                requests: rep.requests(),
                crashes: rep.crashes(),
                recoveries: rep.recoveries(),
            };
            tally.expect_eq(
                &format!("serve {} vs BENCH_crash.json", cfg.label),
                got,
                pin,
            );
        }
        None => {}
    }
}

/// The part's set-up: every shard kernel of every configuration built
/// through the shard factory (plans, session arenas, machines), then
/// dropped. Returns the host time.
pub fn setup(configs: &[Config]) -> Duration {
    let t0 = Instant::now();
    for cfg in configs {
        let off = cfg.operand_offset;
        let shards = cfg.spec.shards;
        match cfg.object {
            Object::Counter => build_all(cfg, CounterSpec, counter_gen(off), shards),
            Object::Queue => build_all(cfg, QueueSpec, queue_gen(off), shards),
            Object::Cas => build_all(cfg, CasRegisterSpec { init: 0 }, cas_gen(off), shards),
        }
    }
    t0.elapsed()
}

fn build_all<S>(cfg: &Config, spec: S, gen: OpGen<S>, shards: u32)
where
    S: WordOp + Clone + Send + Sync + 'static,
    S::State: Hash + Send + Sync + 'static,
    S::Op: Hash + Eq + Send + Sync + 'static,
{
    let service = Service::new(cfg.spec, |plan: &ShardPlan| {
        shard_scenario(&spec, &gen, plan)
    });
    for shard in 0..shards {
        std::hint::black_box(service.shard_kernel(shard));
    }
}

/// Requests that must lie beyond the reported tail latency.
pub const TAIL_BEYOND: u64 = 10;

/// The tail latency: the upper bound of the highest log2 bucket of `h`
/// with at least [`TAIL_BEYOND`] requests strictly above it, returned as
/// `(percentile, requests beyond, latency)`, where the percentile is
/// `100 · (n − beyond) / n`. A histogram too small to have such a bucket
/// gives `(0, 0, max)`.
pub fn tail(h: &Hist) -> (f64, u64, u64) {
    let n = h.count();
    // Non-empty buckets as (lower bound, count), lowest first.
    let json = h.to_json();
    let buckets: Vec<(u64, u64)> = match json.get("buckets") {
        Some(Json::Arr(xs)) => xs
            .iter()
            .filter_map(|b| match b {
                Json::Arr(pair) => Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    let mut beyond = 0u64;
    for &(lo, count) in buckets.iter().rev() {
        if beyond >= TAIL_BEYOND {
            // Bucket [lo, 2·lo − 1] (bucket 0 holds only 0).
            let hi = if lo == 0 {
                0
            } else {
                lo.wrapping_mul(2).wrapping_sub(1)
            };
            return (100.0 * (n - beyond) as f64 / n as f64, beyond, hi);
        }
        beyond += count;
    }
    (0.0, 0, h.max().unwrap_or(0))
}

/// The part's end-to-end metrics from its timed passes.
pub fn e2e_metrics(passes: &[PassOut], m: &mut Metrics) {
    // Each configuration's median time over the passes, summed: a burst
    // of host noise in one pass then weighs on one configuration only.
    let p = &passes[0];
    let secs: f64 = (0..p.runs.len())
        .map(|i| {
            let walls: Vec<f64> = passes
                .iter()
                .map(|q| q.runs[i].wall.as_secs_f64())
                .collect();
            crate::median(&walls)
        })
        .sum();
    m.set("requests_per_s", ratio(p.requests() as f64, secs), "req/s");
    let lat = p.latency();
    m.set(
        "stmts_per_request",
        ratio(p.steps() as f64, p.requests() as f64),
        "stmts",
    );
    m.set(
        "sim_p50_stmts",
        lat.percentile(50.0).unwrap_or(0) as f64,
        "stmts",
    );
    m.set("sim_tail_stmts", tail(&lat).2 as f64, "stmts");
}

/// The part's per-layer metrics from one traced pass and the check pass.
pub fn layer_metrics(configs: &[Config], p: &PassOut, c: &CheckOut, m: &mut Metrics) {
    let per = |keep: &dyn Fn(&Config) -> bool| {
        let (mut wall, mut reqs) = (Duration::ZERO, 0u64);
        for (cfg, r) in configs.iter().zip(&p.runs) {
            if keep(cfg) {
                wall += r.wall;
                reqs += r.report.requests();
            }
        }
        ns_per(wall, reqs)
    };
    let churn = |c: &Config| c.spec.churn.is_some();
    m.set(
        "service.ns_per_request.counter",
        per(&|c| c.object == Object::Counter && !churn(c)),
        "ns",
    );
    m.set(
        "service.ns_per_request.queue",
        per(&|c| c.object == Object::Queue),
        "ns",
    );
    m.set(
        "service.ns_per_request.cas",
        per(&|c| c.object == Object::Cas),
        "ns",
    );
    m.set(
        "service.ns_per_request.closed",
        per(&|c| matches!(c.spec.arrival, Arrival::ClosedLoop { .. }) && !churn(c)),
        "ns",
    );
    m.set(
        "service.ns_per_request.open",
        per(&|c| matches!(c.spec.arrival, Arrival::OpenLoop { .. })),
        "ns",
    );
    m.set("service.ns_per_request.churn", per(&churn), "ns");
    m.set("service.factory_s", c.factory.as_secs_f64(), "s");
    m.set("service.requests", p.requests() as f64, "count");
    m.set("service.invocations", c.invocations as f64, "count");
    m.set("service.crashes", c.crashes as f64, "count");
    let (pct, beyond, _) = tail(&p.latency());
    m.set("service.tail_percentile", pct, "%");
    m.set("service.tail_beyond", beyond as f64, "count");
    m.set(
        "kernel.step_ns.serve",
        ns_per(c.run_plain.0, c.run_plain.1),
        "ns",
    );
    m.set(
        "kernel.step_ns.churn",
        ns_per(c.run_churn.0, c.run_churn.1),
        "ns",
    );
    m.set("history.ops", c.ops as f64, "count");
    m.set("prof.hist_record_ns", ns_per(c.fold.0, c.fold.1), "ns");
}
