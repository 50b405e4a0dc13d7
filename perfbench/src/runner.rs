//! One benchmark run: the workload's part over the measurement window,
//! then one companion pass of each other part, every output checked.
//!
//! Untraced, the run reports the end-to-end metrics. Traced, it reports
//! the per-layer metrics, and the tracing overhead as the traced minus
//! the untraced time of the workload's pass.

use std::time::{Duration, Instant};

use crate::calib::Calibration;
use crate::spans::Tracer;
use crate::{
    atomics, kernel_probe, median, serve, threshold, verify, Ctx, Metrics, PoolLoad, Tally,
};

/// The four parts, by workload name.
pub const WORKLOADS: [&str; 4] = ["verify", "serve", "threshold", "native"];

/// Metrics that must repeat exactly across runs of one seed and across
/// job counts.
pub const DETERMINISTIC: &[&str] = &[
    "stmts_per_request",
    "sim_p50_stmts",
    "sim_tail_stmts",
    "explore.steps",
    "explore.states",
    "explore.deduped",
    "explore.por_pruned",
    "explore.terminals",
    "explore.revisit_ratio",
    "kernel.steps",
    "decision.calls",
    "decision.calls_per_step",
    "scenario.runs",
    "scenario.steps_per_run",
    "multi.access_failures",
    "service.requests",
    "service.invocations",
    "service.crashes",
    "service.tail_percentile",
    "service.tail_beyond",
    "history.ops",
    "oracle.checks",
];

/// Set-up repetitions of each part: `SETUP_WARM` untimed, then at least
/// `SETUP_REPS` timed, more until `SETUP_MIN` has passed (at most
/// `SETUP_MAX_REPS`); `setup_s` is the sum of the parts' medians.
const SETUP_WARM: usize = 2;
const SETUP_REPS: usize = 15;
const SETUP_MIN: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 100_000;

/// Companion passes per part in a run, in [`WORKLOADS`] order.
const COMPANIONS: [usize; 4] = [1, 4, 10, 24];

/// The companion passes as `(window fraction, part)`, each part's passes
/// evenly spaced over the window, in window order.
fn companion_schedule(focus: usize, reps: [usize; 4]) -> Vec<(f64, usize)> {
    let mut s: Vec<(f64, usize)> = (0..WORKLOADS.len())
        .filter(|&p| p != focus)
        .flat_map(|p| (0..reps[p]).map(move |i| ((i as f64 + 0.5) / reps[p] as f64, p)))
        .collect();
    s.sort_by(|a, b| a.0.total_cmp(&b.0));
    s
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The part that gets the measurement window.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window of the workload's part.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Sweep/explorer jobs (two from the command line; the self-test
    /// also runs one).
    pub jobs: usize,
    /// CI-scale inputs (self-test only).
    pub smoke: bool,
}

impl Opts {
    /// The defaults for `workload`: seed 0, an 8 s window, untraced, two
    /// jobs, full scale.
    pub fn new(workload: &str) -> Self {
        Opts {
            workload: workload.to_string(),
            seed: 0,
            seconds: 8.0,
            trace: false,
            jobs: 2,
            smoke: false,
        }
    }
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Checks made and failed.
    pub tally: Tally,
    /// End-to-end metrics scaled to the reference host (untraced), or
    /// per-layer metrics (traced).
    pub metrics: Metrics,
    /// The same metrics unscaled, as measured on this host.
    pub raw: Metrics,
    /// The scaling factor ([`Calibration::factor`]).
    pub host_factor: f64,
    /// The run's spans as a Chrome Trace Format document (traced runs).
    pub chrome_trace: Option<String>,
}

/// The parts' inputs, built once per run.
struct Inputs {
    cases: Vec<verify::Case>,
    built: Vec<verify::Built>,
    configs: Vec<serve::Config>,
    probes: Vec<Vec<threshold::Probe>>,
    plans: Vec<Vec<wfmem::Val>>,
}

/// Per-part results the metrics are computed from.
#[derive(Default)]
struct Results {
    verify: Vec<verify::PassOut>,
    serve: Vec<serve::PassOut>,
    serve_check: Option<serve::CheckOut>,
    /// Whether the legal-quantum check of the threshold part has run.
    legal_checked: bool,
    threshold: Vec<threshold::PassOut>,
    native: Vec<atomics::RepOut>,
    /// Pass times of the workload's part, untraced and traced.
    overhead: (Vec<f64>, Vec<f64>),
    /// Checks made by the first pass of each part.
    first_checks: [Option<u64>; 4],
    /// The first traced pass of each part.
    first_traced: [Option<u64>; 4],
    /// Set-up times of each part.
    setup: [Vec<f64>; 4],
}

/// Runs one part's set-up, returning its host time.
fn setup(ctx: &Ctx, part: usize, inp: &mut Inputs) -> Duration {
    match part {
        0 => {
            let t0 = Instant::now();
            inp.built = verify::setup(&inp.cases);
            t0.elapsed()
        }
        1 => serve::setup(&inp.configs),
        2 => threshold::setup(&inp.probes),
        _ => {
            let (plans, d) = atomics::setup(ctx);
            inp.plans = plans;
            d
        }
    }
}

/// Allocates and frees one large block before the first set-up. With
/// glibc's allocator, freeing a mapped block raises the mapping and trim
/// thresholds to its size, so later set-ups can reuse freed heap memory.
/// Without this, set-up times depend on whether a large block happened to
/// be freed earlier in the run, and differ by a factor of three between
/// workloads.
fn warm_allocator() {
    std::hint::black_box(vec![0u8; WARM_BLOCK]);
}

/// Size of the [`warm_allocator`] block (glibc caps the dynamic
/// thresholds at 32 MiB).
const WARM_BLOCK: usize = (32 << 20) - (64 << 10);

/// Sets each part up repeatedly (see [`SETUP_REPS`]), one part after
/// the other, recording the timed repetitions.
fn setup_all(ctx: &Ctx, inp: &mut Inputs, res: &mut Results) {
    for part in 0..WORKLOADS.len() {
        for _ in 0..SETUP_WARM {
            setup(ctx, part, inp);
        }
        let t0 = Instant::now();
        let times = &mut res.setup[part];
        while times.len() < SETUP_REPS || (t0.elapsed() < SETUP_MIN && times.len() < SETUP_MAX_REPS)
        {
            times.push(setup(ctx, part, inp).as_secs_f64());
        }
    }
}

/// Runs one checked pass of `part`, returning its host time (checks that
/// run after the timed pass excluded).
fn pass(
    ctx: &Ctx,
    part: usize,
    inp: &Inputs,
    iter: u64,
    res: &mut Results,
    tally: &mut Tally,
) -> f64 {
    let mut t = Tally::default();
    let secs = match part {
        0 => {
            let p = verify::pass(ctx, &inp.cases, &inp.built, iter, &mut t);
            let s = p.wall.as_secs_f64();
            res.verify.push(p);
            s
        }
        1 => {
            let p = serve::pass(ctx, &inp.configs, iter, &mut t);
            let s = p.wall.as_secs_f64();
            if res.serve_check.is_none() {
                res.serve_check = Some(serve::check(ctx, &inp.configs, &p, iter, &mut t));
            }
            res.serve.push(p);
            s
        }
        2 => {
            if !std::mem::replace(&mut res.legal_checked, true) {
                threshold::legal_check(ctx, &inp.probes, &mut t);
            }
            let p = threshold::pass(ctx, &inp.probes, iter, &mut t);
            let s = p.wall.as_secs_f64();
            res.threshold.push(p);
            s
        }
        _ => {
            let r = atomics::rep(ctx, &inp.plans, iter, &mut t);
            let s = (r.counter + r.cas).as_secs_f64();
            res.native.push(r);
            s
        }
    };
    res.first_checks[part].get_or_insert(t.attempted);
    if ctx.tracer.is_on() {
        res.first_traced[part].get_or_insert(iter);
    }
    tally.absorb(t);
    secs
}

/// Runs the benchmark once.
///
/// # Errors
///
/// When the workload is unknown or a committed artifact cannot be read.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let focus = WORKLOADS
        .iter()
        .position(|w| *w == opts.workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {:?} (expected one of {WORKLOADS:?})",
                opts.workload
            )
        })?;
    let quiet = Ctx::new(opts.jobs, opts.seed, opts.smoke);
    let traced = Ctx {
        tracer: Tracer::on(),
        ..Ctx::new(opts.jobs, opts.seed, opts.smoke)
    };
    let ctx = if opts.trace { &traced } else { &quiet };
    let mut inp = Inputs {
        cases: verify::cases(opts.smoke)?,
        built: Vec::new(),
        configs: serve::configs(opts.smoke, opts.seed)?,
        probes: threshold::probes(opts.smoke)?,
        plans: Vec::new(),
    };
    let mut res = Results::default();
    let mut tally = Tally::default();
    let mut iter = 0u64;

    // The workload's part: one untimed set-up, then its first pass alone,
    // which sets the peak RSS, then the timed set-ups of every part, then
    // passes until their time fills the window. Untraced, the companion
    // passes are spread evenly over the window, so slow host drift weighs
    // on every part's median alike. A
    // traced run alternates untraced and traced passes of the workload's
    // part, so the overhead compares passes made under the same
    // conditions, and traces one pass of each companion afterwards. The
    // window counts the workload's own pass time; companions lengthen the
    // run, not the window.
    warm_allocator();
    setup(&quiet, focus, &mut inp);
    let mut schedule = companion_schedule(focus, if opts.trace { [0; 4] } else { COMPANIONS });
    let mut in_window = 0.0;
    let mut peak_rss = None;
    let mut set_up = false;
    let mut cal = Calibration::default();
    loop {
        iter += 1;
        if opts.trace {
            // The untraced twin's outputs are checked but not kept; its
            // once-per-run checks are the traced pass's job.
            let mut twin = Results {
                serve_check: Some(serve::CheckOut::default()),
                legal_checked: true,
                ..Results::default()
            };
            res.overhead
                .0
                .push(pass(&quiet, focus, &inp, iter, &mut twin, &mut tally));
            iter += 1;
        }
        let secs = pass(ctx, focus, &inp, iter, &mut res, &mut tally);
        in_window += secs;
        if opts.trace {
            res.overhead.1.push(secs);
        }
        if !std::mem::replace(&mut set_up, true) {
            peak_rss = crate::peak_rss_mb();
            setup_all(&quiet, &mut inp, &mut res);
        }
        cal.sample();
        let done = (in_window / opts.seconds.max(1e-9)).min(1.0);
        while schedule.first().is_some_and(|&(at, _)| at <= done) {
            let (_, part) = schedule.remove(0);
            iter += 1;
            pass(ctx, part, &inp, iter, &mut res, &mut tally);
            cal.sample();
        }
        if done >= 1.0 {
            break;
        }
    }
    if opts.trace {
        for part in (0..WORKLOADS.len()).filter(|&p| p != focus) {
            iter += 1;
            pass(ctx, part, &inp, iter, &mut res, &mut tally);
        }
    }

    let mut raw = Metrics::default();
    if opts.trace {
        layer_metrics(opts, &quiet, &traced, &inp, &res, &mut raw);
        raw.set("host.calibration_s", cal.median_s(), "s");
    } else {
        let walls =
            |xs: Vec<Duration>| median(&xs.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
        raw.set("setup_s", res.setup.iter().map(|t| median(t)).sum(), "s");
        raw.set(
            "verify_s",
            walls(res.verify.iter().map(|p| p.wall).collect()),
            "s",
        );
        serve::e2e_metrics(&res.serve, &mut raw);
        raw.set(
            "threshold_s",
            walls(res.threshold.iter().map(|p| p.wall).collect()),
            "s",
        );
        atomics::e2e_metrics(&res.native, &mut raw);
        raw.set("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB");
        raw.set(
            "ok_frac",
            1.0 - crate::ratio(tally.failed as f64, tally.attempted as f64),
            "ratio",
        );
    }
    let factor = cal.factor();
    let mut metrics = raw.clone();
    if !opts.trace {
        for (name, (v, _)) in metrics.0.iter_mut() {
            match name.as_str() {
                "setup_s" | "verify_s" | "threshold_s" => *v *= factor,
                "requests_per_s" | "native_ops_per_s" => *v /= factor,
                _ => {}
            }
        }
    }
    Ok(Report {
        tally,
        metrics,
        raw,
        host_factor: factor,
        chrome_trace: opts.trace.then(|| traced.tracer.chrome_trace()),
    })
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    opts: &Opts,
    quiet: &Ctx,
    traced: &Ctx,
    inp: &Inputs,
    res: &Results,
    m: &mut Metrics,
) {
    let iter_of = |part: usize| res.first_traced[part].unwrap_or(0);
    verify::layer_metrics(traced, &inp.cases, &res.verify[0], iter_of(0), m);
    m.set(
        "explore.par_speedup",
        verify::par_speedup(quiet, &inp.cases, &inp.built, 2),
        "ratio",
    );
    kernel_probe::metrics(if opts.smoke { 32 } else { 256 }, m);

    let check = res
        .serve_check
        .as_ref()
        .expect("the serve part ran its check pass");
    serve::layer_metrics(&inp.configs, &res.serve[0], check, m);
    threshold::layer_metrics(&res.threshold[0], m);
    atomics::layer_metrics(traced, &res.native, m);

    let kernel_steps = check.run_plain.1 + check.run_churn.1 + res.threshold[0].steps();
    m.set("kernel.steps", kernel_steps as f64, "count");
    let mut load = PoolLoad::default();
    load.merge(&res.serve[0].load);
    load.merge(&res.threshold[0].load);
    load.metrics(m);
    m.set(
        "oracle.checks",
        res.first_checks.iter().flatten().sum::<u64>() as f64,
        "count",
    );

    let (plain, with) = (median(&res.overhead.0), median(&res.overhead.1));
    m.set("trace.overhead_s", with - plain, "s");
    m.set(
        "trace.overhead_frac",
        crate::ratio(with - plain, plain),
        "ratio",
    );
}
