//! The explorer's per-state work is allocation-free once warmed up: a
//! fork recycled into a dead kernel (`Clone::clone_from`), a scripted
//! step, and the state hash — 128-bit incremental or symmetric — acquire
//! no heap memory at all.
//!
//! This is what lets each explorer worker run without touching the
//! allocator or any cache line another worker writes: forks reuse the
//! dead kernel's buffers and machine boxes, shared `Arc`s are re-pointed
//! only when they differ, and the symmetric fold is a multiset sum, not a
//! collect-and-sort.
//!
//! This file deliberately holds a single test: the `#[global_allocator]`
//! counts process-wide, so a second concurrently-running test would
//! pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use sched_sim::kernel::{HashCfg, StepAttempt};
use sched_sim::program::{Flow, ProgMachine, ProgramBuilder};
use sched_sim::{Kernel, ProcessorId, Priority, SystemSpec};

/// Wraps the system allocator, counting every allocation (alloc, realloc,
/// alloc_zeroed). Deallocations are not counted — the contract is about
/// acquiring memory on the hot path.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A nonterminating workload with real decisions: two spinning processes
/// on processor 0 (holder and first-credit choices) and one on processor
/// 1 (cpu choices), each statement bumping the shared counter.
fn spinning_kernel(cfg: HashCfg) -> Kernel<u64> {
    let mut b = ProgramBuilder::<u64, u64>::new();
    let main = b.proc("spin");
    let top = b.here(main);
    b.stmt(main, "1: mem := mem + 1", move |l, mem| {
        *mem = mem.wrapping_add(1);
        *l = l.wrapping_add(1) % 5;
        Flow::Goto(top)
    });
    let prog = b.build();

    let mut k = Kernel::new(0u64, SystemSpec::hybrid(3).with_adversarial_alignment());
    for cpu in [0, 0, 1] {
        k.add_process(
            ProcessorId(cpu),
            Priority(1),
            Box::new(ProgMachine::single_shot(&prog, 0, main)),
        );
    }
    k.track_state_hash_cfg(cfg);
    k
}

/// One explorer expansion: fork `live` into the dead `spare`, step the
/// fork along `script`, and hash the successor. Returns the new live
/// kernel in `live` and the old one (now dead) in `spare`.
fn fork_step_hash(live: &mut Kernel<u64>, spare: &mut Kernel<u64>, script: &[usize]) {
    spare.clone_from(live);
    match spare.step_scripted(script) {
        StepAttempt::Stepped(_) => {}
        other => panic!("spin workload must always step, got {other:?}"),
    }
    black_box(spare.state_hash_wide());
    std::mem::swap(live, spare);
}

/// Warms the pair up, then measures 1000 expansions and asserts none of
/// them acquired heap memory. As in `alloc_free_step.rs`, the window is
/// retried: a real regression allocates in every window, while a one-shot
/// lazy allocation elsewhere in the process (the test harness parking its
/// main thread) is absorbed by the next clean window.
fn assert_expansions_alloc_free(cfg: HashCfg, what: &str) {
    let mut live = spinning_kernel(cfg);
    let mut spare = live.clone();
    let scripts: [&[usize]; 4] = [&[0, 0, 2], &[1, 0, 0], &[0, 1, 1], &[1, 0, 0]];

    for i in 0..200 {
        fork_step_hash(&mut live, &mut spare, scripts[i % scripts.len()]);
    }

    let mut allocated = 0;
    for _attempt in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..1_000 {
            fork_step_hash(&mut live, &mut spare, scripts[i % scripts.len()]);
        }
        allocated = ALLOCS.load(Ordering::Relaxed) - before;
        if allocated == 0 {
            break;
        }
    }

    assert_eq!(
        allocated, 0,
        "recycled fork + step + hash allocated {allocated} times over 1000 expansions \
         with {what} (in three consecutive windows)"
    );
    assert!(live.mem >= 1_000, "statements must actually have executed");
}

#[test]
fn warmed_up_recycled_fork_step_and_hash_do_not_allocate() {
    assert_expansions_alloc_free(HashCfg { symmetric: false, wide: true }, "the wide hash");
    assert_expansions_alloc_free(
        HashCfg { symmetric: true, wide: true },
        "the symmetric wide hash",
    );
}
