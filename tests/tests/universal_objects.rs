//! Universality, end to end: wait-free queues and counters built from
//! consensus, checked for linearizability under randomized hybrid
//! schedules, including generated operation mixes.
//!
//! The generated sweeps use the workspace's own `SplitMix64` so they are
//! deterministic and dependency-free; failures print the full parameter
//! tuple needed to reproduce them.

use hybrid_wf::oracle::{check_linearizable_traced, QueueOp, QueueSpec, TimedOp};
use hybrid_wf::universal::{op_machine, replay_final_state, CounterSpec, UniversalMem};
use sched_sim::rng::SplitMix64;
use sched_sim::{ProcessorId, Priority, Scenario, SystemSpec};

fn run_queue(
    seed: u64,
    q: u32,
    plans: &[(u32, Vec<QueueOp>)],
) -> Result<(), String> {
    let n = plans.len() as u32;
    let cap = 4 * plans.iter().map(|(_, o)| o.len()).sum::<usize>() + 4;
    let mut s = Scenario::new(
        UniversalMem::<QueueSpec>::new(n, cap),
        SystemSpec::hybrid(q).with_adversarial_alignment(),
    )
    // Capture the run so a failing check leaves a replayable artifact
    // behind (see crates/core/src/oracle.rs and EXPERIMENTS.md).
    .with_obs()
    .step_budget(2_000_000);
    for (pid, (prio, ops)) in plans.iter().enumerate() {
        s.add_process(
            ProcessorId(0),
            Priority(*prio),
            Box::new(op_machine(QueueSpec, pid as u32, n, ops.clone())),
        );
    }
    let mut r = s.run_seeded(seed);
    if !r.all_finished {
        return Err("did not finish".into());
    }
    let timed: Vec<TimedOp<QueueOp>> = r
        .ops()
        .iter()
        .map(|rec| TimedOp {
            start: rec.start,
            end: rec.t,
            op: plans[rec.pid.index()].1[rec.inv_index as usize],
            result: rec.output.unwrap(),
        })
        .collect();
    let trace = r.take_trace().expect("obs attached");
    check_linearizable_traced(&QueueSpec, &timed, &trace, &format!("queue-seed{seed}-q{q}"))
}

#[test]
fn queue_mixed_priorities_many_seeds() {
    let plans = vec![
        (1, vec![QueueOp::Enq(1), QueueOp::Enq(2)]),
        (2, vec![QueueOp::Deq, QueueOp::Deq]),
        (3, vec![QueueOp::Enq(9), QueueOp::Deq]),
    ];
    for seed in 0..40 {
        run_queue(seed, 8, &plans).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Arbitrary small op mixes at arbitrary priorities stay linearizable.
#[test]
fn generated_queue_mixes_linearizable() {
    let mut gen = SplitMix64::new(0x11bea12);
    for case in 0..48u32 {
        let seed = gen.next_u64() % 1000;
        let quantum = gen.range_u32(1, 32);
        let decode = |gen: &mut SplitMix64, base: u64| -> Vec<QueueOp> {
            let len = gen.range_u32(1, 4) as usize;
            (0..len)
                .map(|i| {
                    if gen.range_u32(0, 3) == 0 {
                        QueueOp::Deq
                    } else {
                        QueueOp::Enq(base + i as u64)
                    }
                })
                .collect()
        };
        let ops0 = decode(&mut gen, 100);
        let ops1 = decode(&mut gen, 200);
        let prio0 = gen.range_u32(1, 4);
        let prio1 = gen.range_u32(1, 4);
        let plans = vec![(prio0, ops0), (prio1, ops1)];
        run_queue(seed, quantum, &plans).unwrap_or_else(|e| {
            panic!("case {case}: seed={seed} quantum={quantum} plans={plans:?}: {e}")
        });
    }
}

/// Counter total is exact under arbitrary schedules: no lost or
/// duplicated increments, whatever the quantum.
#[test]
fn generated_counter_totals_exact() {
    let mut gen = SplitMix64::new(0xc0117e4);
    for case in 0..48u32 {
        let seed = gen.next_u64() % 1000;
        let quantum = gen.range_u32(1, 32);
        let n = gen.range_u32(1, 5);
        let per = gen.range_u32(1, 5);
        let mut s = Scenario::new(
            UniversalMem::<CounterSpec>::new(n, 4 * (n * per) as usize + 4),
            SystemSpec::hybrid(quantum).with_adversarial_alignment(),
        )
        .step_budget(2_000_000);
        let mut total = 0u64;
        for pid in 0..n {
            let ops: Vec<u64> = (1..=u64::from(per)).collect();
            total += ops.iter().sum::<u64>();
            s.add_process(
                ProcessorId(0),
                Priority(1 + pid % 3),
                Box::new(op_machine(CounterSpec, pid, n, ops)),
            );
        }
        let r = s.run_seeded(seed);
        let ctx = format!("case {case}: seed={seed} quantum={quantum} n={n} per={per}");
        assert!(r.all_finished, "not all finished — {ctx}");
        assert_eq!(replay_final_state(&CounterSpec, r.mem()), total, "{ctx}");
    }
}

/// Digest of one run of the pinned configuration below: statements run,
/// a fingerprint of the completed-invocation records, and a fingerprint of
/// the final shared memory plus its helping counters (which `UniversalMem`'s
/// own `Hash` ignores).
fn pinned_counter_run(seed: u64) -> (u64, u64, u64) {
    use hybrid_wf::universal::CounterSpec as Spec;
    use sched_sim::rng::FoldHasher;
    use sched_sim::{Kernel, SeededRandom};
    use std::hash::{Hash, Hasher};

    let (n, per) = (4u32, 5u64);
    let mut k = Kernel::new(
        UniversalMem::<Spec>::new(n, 4 * (n as usize) * per as usize + 4),
        SystemSpec::hybrid(8).with_adversarial_alignment(),
    );
    for w in 0..n {
        // Worker `w` alternates between addends of clients 2w and 2w+1.
        let ops: Vec<u64> = (0..per)
            .map(|j| (u64::from(w) * 2 + j % 2) * 1000 + j / 2 + 1)
            .collect();
        k.add_process(
            ProcessorId(0),
            Priority(1 + w % 2),
            Box::new(op_machine(Spec, w, n, ops)),
        );
    }
    let ran = k.run(&mut SeededRandom::new(seed), 1_000_000);
    assert!(k.all_finished(), "seed {seed}");
    assert_eq!(k.ops().len(), (n as usize) * per as usize, "seed {seed}");

    let mut h = FoldHasher::new(0);
    for r in k.ops() {
        (r.start, r.t, r.pid.0, r.inv_index, r.output).hash(&mut h);
    }
    let ops_fp = h.finish();
    let mut h = FoldHasher::new(0);
    k.mem.hash(&mut h);
    let c = k.mem.counters;
    (c.own_proposals, c.helped_proposals, c.duplicate_retries).hash(&mut h);
    (ran, ops_fp, h.finish())
}

/// The one-shot universal construction is pinned statement for statement:
/// for a 4-process counter under 30 adversarial seeds, the statement count,
/// every completed-invocation record and the final shared memory (log,
/// announce array, op arenas and helping counters) match recorded values.
#[test]
fn one_shot_counter_runs_are_pinned() {
    // (statements, records fingerprint, memory fingerprint) for seeds 0..30.
    const PINNED: [(u64, u64, u64); 30] = [
        (92, 0xb220ea4677cbaa15, 0x34727a35d9dca90a),
        (99, 0x7e79e335c4de09a8, 0x6a280eca7a772b6b),
        (91, 0x9def99cad43e3a8d, 0xe7b1e387690a3dd9),
        (97, 0x514511991f6940dd, 0x06dd9898dcb4a254),
        (96, 0xc24adab5530a2e78, 0xa36a010e3b0c0910),
        (94, 0x66476b853bb72edc, 0xb2c7f995dfd62c9c),
        (97, 0x7495589895d6d576, 0x00314e54fc606ea2),
        (92, 0xcd19de8488567c17, 0x6207d30b01faabc6),
        (95, 0x63294162db2a05ff, 0x94729293d3ff222c),
        (98, 0x74e098b8bbc9dfaf, 0xdf7c6900a309de94),
        (93, 0x0925495480268ec0, 0x977077f65d6fd419),
        (96, 0xbd95b6e1479c5150, 0x424706c532a162c5),
        (98, 0x9883135add0e07d2, 0xb5911506e7edd6e9),
        (94, 0x392b4d0835acf581, 0x97737c854549434a),
        (95, 0x1c11fff313d7c02d, 0xe945109460e97c3b),
        (92, 0x83db0a4c1b9becf4, 0xba8165cf5831aeaf),
        (96, 0x083050c9d15b21bb, 0xed2bda99d2040fbb),
        (95, 0xd4e412f990a4cef3, 0x58cb3ab8c9ba50bd),
        (98, 0x6a8039246dd7b53b, 0x8d9167a5bf6c7552),
        (92, 0x3be8aa962735cfa6, 0x32f50141eb52f8a6),
        (93, 0x8c52c4eb84a40396, 0x1d94439a3efaa2b8),
        (92, 0x19b7148c50b1d798, 0xe408a72f70020137),
        (94, 0x6752dff712516039, 0xc9f2edb99b0ac9bf),
        (96, 0x3f23c217794b8f5a, 0x54695e6a3bf38e0f),
        (94, 0x354957f83170cd8f, 0xbca458cf8bb0233b),
        (97, 0x35962d20d4dd9f0b, 0x80a1dffc0559b2df),
        (96, 0x606d73e76d6fd648, 0xf84c927037ed23be),
        (93, 0x2c70183e361c4136, 0x5f32c454e2c1a8a1),
        (97, 0x1d9704469c8ba8c5, 0xbd05d058ddf2baed),
        (94, 0x0709f9440c64b869, 0x001b34d6cf2f8b4f),
    ];
    for (seed, want) in PINNED.iter().enumerate() {
        assert_eq!(pinned_counter_run(seed as u64), *want, "seed {seed}");
    }
}
