//! Kernel calls the explorer makes per state, timed on states sampled
//! from the `verify` configurations: fork (`Kernel::clone`), the narrow,
//! wide and symmetric state hashes, the POR ample-set query, and one
//! scripted step.
//!
//! States come from seeded random walks (a fixed sampling seed, so the
//! sample is the same in every run), and each call is timed over the
//! whole sample, repeated, taking the median per-call time.

use std::hint::black_box;
use std::time::Instant;

use hybrid_wf::uni::consensus::MIN_QUANTUM;
use lowerbound::explore_grid::{fig3_kernel, pair_kernel};
use sched_sim::decision::SeededRandom;
use sched_sim::kernel::{HashCfg, Kernel};

use crate::{median, Metrics};

const SAMPLING_SEED: u64 = 0x5eed;
const ROUNDS: usize = 15;

/// Up to `n` states from seeded random walks of `root`, every third step.
pub fn sample<M: Clone>(root: &Kernel<M>, n: usize) -> Vec<Kernel<M>> {
    let mut out = Vec::with_capacity(n);
    let mut walk = 0u64;
    while out.len() < n && walk < 4 * n as u64 {
        let mut k = root.clone();
        let mut d = SeededRandom::new(SAMPLING_SEED + walk);
        let mut i = 0u64;
        while k.step(&mut d).is_some() && out.len() < n {
            i += 1;
            if i.is_multiple_of(3) {
                out.push(k.clone());
            }
        }
        walk += 1;
    }
    out
}

/// Median per-item time of `f` over `items`, in ns.
fn per_call<T>(items: &mut [T], mut f: impl FnMut(&mut T)) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for it in items.iter_mut() {
                f(it);
            }
            t0.elapsed().as_nanos() as f64 / items.len().max(1) as f64
        })
        .collect();
    median(&rounds)
}

fn with_cfg<M: Clone>(states: &[Kernel<M>], cfg: HashCfg) -> Vec<Kernel<M>> {
    states
        .iter()
        .map(|k| {
            let mut k = k.clone();
            k.track_state_hash_cfg(cfg);
            k
        })
        .collect()
}

/// Writes the `kernel.*_ns` per-state metrics; `n` states per
/// configuration.
pub fn metrics(n: usize, m: &mut Metrics) {
    let uni = sample(&fig3_kernel(MIN_QUANTUM, &[7, 7, 7, 7]), n);
    let pair = sample(&pair_kernel(MIN_QUANTUM, 3), n);

    let mut u = uni.clone();
    let mut p = pair.clone();
    let fork = (per_call(&mut u, |k| {
        black_box(k.clone());
    }) + per_call(&mut p, |k| {
        black_box(k.clone());
    })) / 2.0;
    m.set("kernel.fork_ns", fork, "ns");

    let narrow = HashCfg {
        symmetric: false,
        wide: false,
    };
    let wide = HashCfg {
        symmetric: false,
        wide: true,
    };
    let sym = HashCfg {
        symmetric: true,
        wide: true,
    };
    let (mut un, mut pn) = (with_cfg(&uni, narrow), with_cfg(&pair, narrow));
    let h = (per_call(&mut un, |k| {
        black_box(k.state_hash());
    }) + per_call(&mut pn, |k| {
        black_box(k.state_hash());
    })) / 2.0;
    m.set("kernel.state_hash_ns", h, "ns");
    let (mut uw, mut pw) = (with_cfg(&uni, wide), with_cfg(&pair, wide));
    let hw = (per_call(&mut uw, |k| {
        black_box(k.state_hash_wide());
    }) + per_call(&mut pw, |k| {
        black_box(k.state_hash_wide());
    })) / 2.0;
    m.set("kernel.state_hash_wide_ns", hw, "ns");
    let mut us = with_cfg(&uni, sym);
    m.set(
        "kernel.sym_hash_ns",
        per_call(&mut us, |k| {
            black_box(k.state_hash_wide());
        }),
        "ns",
    );
    let mut pa = pair.clone();
    m.set(
        "kernel.ample_ns",
        per_call(&mut pa, |k| {
            black_box(k.ample_cpu_choice());
        }),
        "ns",
    );

    // A scripted step mutates its kernel: time it on fresh forks, one
    // round at a time.
    let step = (scripted_step(&uni) + scripted_step(&pair)) / 2.0;
    m.set("kernel.step_scripted_ns", step, "ns");
}

/// Median per-state time of `Kernel::step_scripted` (first option at
/// every decision), each round on fresh forks of `states`.
fn scripted_step<M: Clone>(states: &[Kernel<M>]) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut forks = states.to_vec();
            let t0 = Instant::now();
            for k in forks.iter_mut() {
                black_box(k.step_scripted(&[0, 0, 0]));
            }
            t0.elapsed().as_nanos() as f64 / states.len().max(1) as f64
        })
        .collect();
    median(&rounds)
}
