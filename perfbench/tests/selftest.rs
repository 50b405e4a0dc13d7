//! Self-test of the benchmark at smoke size: every part's checks pass on
//! correct outputs and fail on a planted wrong expectation, and the
//! deterministic metrics do not depend on the job count.

use hybrid_wf::universal::CounterSpec;
use native::harness::{counter_plans, run_cas, run_universal, Pacing};
use perfbench::pins::{ProbePin, ServicePin};
use perfbench::runner::{run, Opts, DETERMINISTIC};
use perfbench::{atomics, serve, threshold, verify, Ctx, Tally};
use sched_sim::prof::Hist;

fn smoke() -> Ctx {
    Ctx::new(2, 0, true)
}

#[test]
fn verify_checks_bite() {
    let ctx = smoke();
    let mut cases = verify::cases(true).unwrap();
    assert!(
        cases.iter().all(|c| c.pin.is_some()),
        "smoke configurations are pinned in BENCH_explore.json"
    );
    let built = verify::setup(&cases);
    let mut ok = Tally::default();
    verify::pass(&ctx, &cases, &built, 1, &mut ok);
    assert_eq!(ok.failed, 0, "{:?}", ok.notes);
    assert!(ok.attempted > 0);

    cases[2].pin.as_mut().unwrap().steps += 1;
    let mut planted = Tally::default();
    verify::pass(&ctx, &cases, &built, 2, &mut planted);
    assert_eq!(planted.failed, 1, "{:?}", planted.notes);
}

#[test]
fn serve_checks_bite() {
    let ctx = smoke();
    let mut configs = serve::configs(true, 0).unwrap();
    let mut ok = Tally::default();
    let p = serve::pass(&ctx, &configs, 1, &mut ok);
    serve::check(&ctx, &configs, &p, 1, &mut ok);
    assert_eq!(ok.failed, 0, "{:?}", ok.notes);

    // Pin the first configuration to what it really does: still clean.
    let rep = &p.runs[0].report;
    let lat = rep.latency();
    let truth = ServicePin {
        steps: rep.steps(),
        requests: rep.requests(),
        steps_per_request: (rep.steps_per_request().unwrap() * 1000.0).round() / 1000.0,
        p50: lat.percentile(50.0).unwrap(),
        p90: lat.percentile(90.0).unwrap(),
        p99: lat.percentile(99.0).unwrap(),
    };
    configs[0].pin = Some(serve::Pin::Grid(truth));
    let mut pinned = Tally::default();
    serve::check_pin(&configs[0], rep, &mut pinned);
    assert_eq!(pinned.failed, 0, "{:?}", pinned.notes);

    configs[0].pin = Some(serve::Pin::Grid(ServicePin {
        steps: truth.steps + 1,
        ..truth
    }));
    let mut planted = Tally::default();
    serve::check_pin(&configs[0], rep, &mut planted);
    assert_eq!(planted.failed, 1);

    // The driven shards must match the engine's report of the same
    // configuration: another configuration's report does not.
    configs[0].pin = None;
    let mut swapped = p.clone();
    swapped.runs.swap(0, 3);
    let mut wrong = Tally::default();
    serve::check(&ctx, &configs, &swapped, 2, &mut wrong);
    assert!(
        wrong.failed > 0,
        "a closed-loop shard must not match an open-loop report"
    );
}

#[test]
fn tail_counts_the_requests_beyond_it() {
    let mut h = Hist::new();
    for (v, times) in [(3, 100), (5, 6), (100, 5)] {
        for _ in 0..times {
            h.record(v);
        }
    }
    // 5 requests lie above bucket [4, 7], 11 above bucket [2, 3].
    assert_eq!(serve::tail(&h), (100.0 * 100.0 / 111.0, 11, 3));

    let mut small = Hist::new();
    for v in [1, 2, 40] {
        small.record(v);
    }
    assert_eq!(serve::tail(&small), (0.0, 0, 40));
}

#[test]
fn threshold_checks_bite() {
    let ctx = smoke();
    let mut cells = threshold::probes(true).unwrap();
    assert!(
        cells.iter().flatten().all(|p| p.pin.is_some()),
        "smoke probes are pinned in BENCH_table1.json"
    );
    let mut ok = Tally::default();
    let p = threshold::pass(&ctx, &cells, 1, &mut ok);
    assert_eq!(ok.failed, 0, "{:?}", ok.notes);
    assert!(
        p.probes.iter().flatten().any(|o| !o.failing.is_empty()),
        "the smoke grid holds a pinned violation"
    );

    let pin = cells[1][0].pin.unwrap();
    cells[1][0].pin = Some(ProbePin { ok: !pin.ok, ..pin });
    let mut planted = Tally::default();
    threshold::check(&ctx, &cells, &p.probes, &mut planted);
    assert_eq!(planted.failed, 1);

    // Other seeds skip the pins but still hold the legal quantum to no
    // failure.
    let other = Ctx::new(2, 3, true);
    let mut seeded = Tally::default();
    threshold::pass(&other, &cells, 2, &mut seeded);
    threshold::legal_check(&other, &cells, &mut seeded);
    assert_eq!(seeded.failed, 0, "{:?}", seeded.notes);
    assert!(seeded.attempted > 0);
}

#[test]
fn native_checks_bite() {
    let mut ok = Tally::default();
    let plans = counter_plans(atomics::THREADS, 512, 9);
    let mut counter = run_universal(CounterSpec, plans, Pacing::Free);
    atomics::check_counter(&counter, &mut ok);
    let mut cas = run_cas(atomics::THREADS, 512, 9, Pacing::Free);
    atomics::check_cas(&cas, &mut ok);
    assert_eq!(ok.failed, 0, "{:?}", ok.notes);

    counter.plans[0][0] += 1;
    let mut planted = Tally::default();
    atomics::check_counter(&counter, &mut planted);
    assert!(planted.failed > 0);

    let r = cas
        .records
        .iter()
        .find(|r| {
            r.output == Some(1)
                && matches!(
                    cas.plans[r.pid.0 as usize][r.inv_index as usize],
                    hybrid_wf::oracle::CasRegOp::Cas { .. }
                )
        })
        .expect("some C&S succeeds")
        .clone();
    if let hybrid_wf::oracle::CasRegOp::Cas { old, new } =
        cas.plans[r.pid.0 as usize][r.inv_index as usize]
    {
        cas.plans[r.pid.0 as usize][r.inv_index as usize] = hybrid_wf::oracle::CasRegOp::Cas {
            old: old ^ (1 << 40),
            new,
        };
    }
    let mut broken = Tally::default();
    atomics::check_cas(&cas, &mut broken);
    assert!(broken.failed > 0);
}

#[test]
fn deterministic_metrics_do_not_depend_on_jobs() {
    let at = |jobs: usize, trace: bool| {
        let mut o = Opts::new("threshold");
        o.smoke = true;
        o.seconds = 0.0;
        o.jobs = jobs;
        o.trace = trace;
        let r = run(&o).unwrap();
        assert_eq!(r.tally.failed, 0, "{:?}", r.tally.notes);
        r.metrics
    };
    for trace in [false, true] {
        let (one, two) = (at(1, trace), at(2, trace));
        let mut compared = 0;
        for name in DETERMINISTIC {
            if let Some(v) = one.get(name) {
                assert_eq!(
                    Some(v),
                    two.get(name),
                    "{name} differs between jobs 1 and 2"
                );
                compared += 1;
            }
        }
        assert!(
            compared >= if trace { 19 } else { 3 },
            "only {compared} deterministic metrics reported"
        );
    }
}
