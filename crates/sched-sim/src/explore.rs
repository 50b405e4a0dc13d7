//! Exhaustive exploration of all well-formed schedules of a small system.
//!
//! The kernel funnels every scheduling choice through decision points and
//! exposes [`Kernel::step_scripted`], which aborts without mutation when a
//! script runs out at a decision. The explorer exploits this to enumerate
//! the complete schedule tree of a configuration: it forks a cloned kernel
//! at every decision point, deduplicating visited states by
//! [`Kernel::state_hash`].
//!
//! This turns the simulator into a bounded model checker: Lemma 1 of the
//! paper ("each process returns the same value" for the Fig. 3 consensus
//! algorithm) is verified here by exhaustive enumeration rather than by
//! testing a sample of schedules, and the same machinery powers the valency
//! analysis of the lower-bound experiments (Fig. 10).
//!
//! # Scaling levers
//!
//! Three composable options push exploration beyond what the plain serial
//! DFS can finish:
//!
//! * **Parallel frontier sharding** ([`explore_parallel`]): workers on the
//!   [`crate::sweep::pool`] pop subtree roots from a shared deque of forked
//!   kernels and claim states exactly once in a sharded global dedup table
//!   (the only visited set; workers keep none of their own). Each worker
//!   counts into its own [`ExploreStats`], merged commutatively at the end,
//!   so an **untruncated** parallel run is bit-identical to serial at every
//!   jobs count (the same guarantee [`crate::sweep::run_cells`] pins).
//! * **Symmetry reduction** ([`ExploreBounds::symmetry`]): processes at
//!   equal priority on one processor — and whole processors — are
//!   interchangeable, so the state hash is canonicalized under those
//!   permutations and only one representative per orbit is explored. Sound
//!   only when the memory holds no per-process data; see
//!   [`Kernel::track_state_hash_cfg`].
//! * **Partial-order reduction** ([`ExploreBounds::por`]): statements on
//!   different processors with disjoint declared
//!   [`crate::machine::Footprint`]s commute, so at a cpu decision whose
//!   options include a provably-independent cpu only that one
//!   representative interleaving is explored ([`Kernel::ample_cpu_choice`],
//!   a singleton persistent set). Sound unconditionally — undeclared
//!   footprints simply never prune — and it preserves the *set* of
//!   quiescent states exactly, so `terminals` is invariant under it.
//!
//! # Per-state cost
//!
//! Every state the explorer reaches is hashed and most are forked, so
//! both are kept cheap and local to the worker:
//!
//! * **Fingerprints** use the in-tree keyed [`crate::rng::FoldHasher`] (one
//!   folded 128-bit multiply per word), not SipHash, for every component:
//!   process and window components, the symmetric multiset fold, machine
//!   state keys and the memory.
//! * **Forks** are `clone_from` copies into the kernels of dead branches
//!   (deduped, terminal or depth-bounded), which each worker keeps on a
//!   free list. A recycled fork reuses every buffer and machine box and
//!   re-points a shared `Arc` only when it differs, so after warm-up it
//!   allocates nothing and writes no cache line that another worker's
//!   forks also write.
//!
//! # Dedup-collision (false-prune) probability
//!
//! Two distinct states whose hashes collide are wrongly merged, silently
//! pruning the second one's subtree. With the default 64-bit keys and `N`
//! visited states, the expected number of colliding pairs is about
//! `N² / 2⁶⁵` — negligible for `N ≪ 2³²` (at `N = 10⁸`, ≈ 3·10⁻⁴ expected
//! collisions). For larger runs, or when a verification result must not
//! hinge on that bound, [`ExploreBounds::wide_hash`] keys the visited sets
//! by [`Kernel::state_hash_wide`] — two 64-bit lanes hashed under two
//! different keys — dropping the expectation to about `N² / 2¹²⁹`
//! (≈ 10⁻²² at `N = 10⁸`) at the cost of a second hash per step. The
//! bound needs the lanes' collisions to be independent, so every hash on
//! the path is keyed by the lane, down to the machine state keys
//! (`ProgMachine` keys its inner hasher with the caller's running hash).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::kernel::{HashCfg, Kernel, StepAttempt};
use crate::sweep;

/// The dedup keys are already state hashes, so the visited set stores them
/// under an identity "hasher" instead of re-hashing through SipHash on
/// every insert. For 128-bit keys the two independent halves are folded,
/// which keeps the bucket index uniformly distributed.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the visited set holds only u64/u128 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = (v as u64) ^ ((v >> 64) as u64);
    }
}

type VisitedSet = HashSet<u128, BuildHasherDefault<IdentityHasher>>;

/// A per-step decision script: at most three decisions resolve in one step
/// (cpu, holder, first-credit), so forks carry a fixed array, not a `Vec`.
#[derive(Clone, Copy, Default)]
struct Script {
    buf: [usize; 3],
    len: u8,
}

impl Script {
    fn as_slice(&self) -> &[usize] {
        &self.buf[..self.len as usize]
    }

    fn pushed(mut self, c: usize) -> Script {
        self.buf[self.len as usize] = c;
        self.len += 1;
        self
    }
}

/// Why an exploration stopped before exhausting the schedule tree.
///
/// Diagnosable per cause: a truncated parallel run is **not** bit-identical
/// to serial (which states fall inside a bound depends on visit order), so
/// callers asserting determinism should require [`Truncation::None`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Truncation {
    /// The exploration ran to completion (the determinism-guaranteed case).
    #[default]
    None,
    /// Some branch reached [`ExploreBounds::max_depth`]; its subtree was
    /// abandoned (the rest of the tree was still explored).
    DepthBound,
    /// [`ExploreBounds::max_total_steps`] was exhausted; the exploration
    /// stopped wherever it stood.
    StepBound,
    /// A visitor returned [`Verdict::Stop`] (e.g. a counterexample).
    VisitorStop,
}

impl Truncation {
    /// Stable lower-case name for reports ("none", "depth-bound", …).
    pub fn name(self) -> &'static str {
        match self {
            Truncation::None => "none",
            Truncation::DepthBound => "depth-bound",
            Truncation::StepBound => "step-bound",
            Truncation::VisitorStop => "visitor-stop",
        }
    }
}

/// Exploration statistics, returned by [`explore`] and
/// [`explore_parallel`].
///
/// All counters are merged commutatively across parallel workers, and on
/// an untruncated run every field is independent of both visit order and
/// jobs count: parallel == serial, bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Terminal (quiescent) states visited. Invariant under partial-order
    /// reduction (which preserves the quiescent-state set exactly); under
    /// symmetry reduction it counts orbits instead of raw states.
    pub terminals: u64,
    /// Statement executions across all explored branches.
    pub steps: u64,
    /// States skipped because an identical (or, under symmetry, an
    /// equivalent) state had been visited.
    pub deduped: u64,
    /// Scheduler branches skipped by partial-order reduction: at each cpu
    /// decision restricted to an ample choice, the other `arity - 1`
    /// options.
    pub por_pruned: u64,
    /// Peak size of the (global) visited set — the number of distinct
    /// states claimed. Reported so truncated runs are diagnosable: it
    /// tells how far a bounded exploration got, and it is the memory
    /// high-water mark in keys.
    pub peak_visited: u64,
    /// Why the exploration stopped early, if it did.
    pub truncation: Truncation,
}

impl ExploreStats {
    /// `true` if exploration stopped before exhausting the schedule tree.
    pub fn truncated(&self) -> bool {
        self.truncation != Truncation::None
    }

    /// Adds a worker's counters (all but `peak_visited`, which is read
    /// off the shared table) into `self`.
    fn absorb(&mut self, w: &ExploreStats) {
        self.terminals += w.terminals;
        self.steps += w.steps;
        self.deduped += w.deduped;
        self.por_pruned += w.por_pruned;
        self.truncation = self.truncation.max(w.truncation);
    }
}

/// Visitor verdict controlling the exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Keep exploring.
    KeepGoing,
    /// Abandon the entire exploration (e.g. a counterexample was found).
    Stop,
}

/// Bounds and search options for [`explore`] / [`explore_parallel`].
#[derive(Clone, Copy, Debug)]
pub struct ExploreBounds {
    /// Maximum statements along any single branch.
    pub max_depth: u64,
    /// Maximum total statement executions across the exploration.
    pub max_total_steps: u64,
    /// Key the visited sets by 128-bit [`Kernel::state_hash_wide`] instead
    /// of the 64-bit [`Kernel::state_hash`], shrinking the false-prune
    /// probability (see the module docs) at the cost of a second hash per
    /// step.
    pub wide_hash: bool,
    /// Symmetry reduction: canonicalize state hashes under
    /// priority-preserving process permutations (and processor
    /// permutations), exploring one representative per orbit. **Opt-in and
    /// caller-audited**: sound only if the memory holds no per-process
    /// data and machines ignore [`crate::machine::StepCtx::pid`] — see
    /// [`Kernel::track_state_hash_cfg`].
    pub symmetry: bool,
    /// Partial-order reduction via [`Kernel::ample_cpu_choice`]:
    /// independent statements on disjoint memory cells commute, so one
    /// representative interleaving per commuting class is explored. Sound
    /// unconditionally (machines without declared footprints never prune);
    /// preserves the quiescent-state set exactly.
    pub por: bool,
}

impl Default for ExploreBounds {
    fn default() -> Self {
        ExploreBounds {
            max_depth: 10_000,
            max_total_steps: 50_000_000,
            wide_hash: false,
            symmetry: false,
            por: false,
        }
    }
}

impl ExploreBounds {
    /// Both reductions on (symmetry + partial-order). The symmetry half is
    /// caller-audited — see [`ExploreBounds::symmetry`].
    #[must_use]
    pub fn reduced(mut self) -> Self {
        self.symmetry = true;
        self.por = true;
        self
    }

    /// 128-bit dedup keys on.
    #[must_use]
    pub fn wide(mut self) -> Self {
        self.wide_hash = true;
        self
    }

    fn hash_cfg(&self) -> HashCfg {
        HashCfg { symmetric: self.symmetry, wide: self.wide_hash }
    }
}

/// Exhaustively explores every schedule of `kernel`, invoking `on_terminal`
/// at each quiescent state.
///
/// States are deduplicated by [`Kernel::state_hash`] — two interleavings
/// reaching identical (memory, machine, scheduler) states are explored
/// once. Hash collisions would wrongly prune; see the module docs for the
/// probability and the [`ExploreBounds::wide_hash`] mitigation.
///
/// Returns the stats; [`ExploreStats::truncation`] reports whether (and
/// why) any bound cut the search.
pub fn explore<M, F>(kernel: &Kernel<M>, bounds: ExploreBounds, mut on_terminal: F) -> ExploreStats
where
    M: Clone + Hash,
    F: FnMut(&Kernel<M>) -> Verdict,
{
    explore_serial(kernel, bounds, &mut on_terminal)
}

fn explore_serial<M, F>(
    kernel: &Kernel<M>,
    bounds: ExploreBounds,
    on_terminal: &mut F,
) -> ExploreStats
where
    M: Clone + Hash,
    F: FnMut(&Kernel<M>) -> Verdict,
{
    let mut seen = VisitedSet::default();
    let mut root = kernel.clone();
    root.track_state_hash_cfg(bounds.hash_cfg());
    seen.insert(root.state_hash_wide());
    let mut w = Worker::new(bounds.max_total_steps);
    w.stack.push((root, Script::default(), 0));
    while let Some(item) = w.stack.pop() {
        if w.budget == 0 {
            w.stats.truncation = w.stats.truncation.max(Truncation::StepBound);
            break;
        }
        if w.expand(item, &bounds, |h| seen.insert(h), &mut *on_terminal) == Verdict::Stop {
            break;
        }
    }
    w.stats.peak_visited = seen.len() as u64;
    w.stats
}

/// A frontier item: a kernel, the decision script for its next step, and
/// its depth in statements.
type Item<M> = (Kernel<M>, Script, u64);

/// One explorer worker's private state. Everything a step touches lives
/// here, so workers share nothing on the per-step path but the visited
/// table.
struct Worker<M> {
    /// The DFS stack.
    stack: Vec<Item<M>>,
    /// Kernels of dead branches (deduped, terminal, depth-bounded),
    /// recycled as fork targets by [`Worker::fork`].
    spare: Vec<Kernel<M>>,
    /// This worker's counters, merged into the run's totals at the end.
    stats: ExploreStats,
    /// Steps this worker may still take from the `max_total_steps` budget.
    budget: u64,
}

impl<M: Clone + Hash> Worker<M> {
    fn new(budget: u64) -> Self {
        Worker { stack: Vec::new(), spare: Vec::new(), stats: ExploreStats::default(), budget }
    }

    /// A copy of `k`, written into a recycled kernel when one is spare:
    /// after warm-up a fork allocates nothing and touches no reference
    /// count (see `Kernel::clone_from`).
    fn fork(&mut self, k: &Kernel<M>) -> Kernel<M> {
        match self.spare.pop() {
            Some(mut f) => {
                f.clone_from(k);
                f
            }
            None => k.clone(),
        }
    }

    /// Expands one frontier item: steps it (the step is in place —
    /// `step_scripted` aborts without mutation at a decision point, so the
    /// popped kernel is reusable as the last fork there), offers the
    /// successor's key to `claim` (`true` = first visit), or forks at a
    /// decision. The caller guarantees `budget > 0`. Returns the visitor's
    /// verdict at a terminal, otherwise [`Verdict::KeepGoing`].
    fn expand(
        &mut self,
        (mut k, script, depth): Item<M>,
        bounds: &ExploreBounds,
        claim: impl FnOnce(u128) -> bool,
        on_terminal: impl FnOnce(&Kernel<M>) -> Verdict,
    ) -> Verdict {
        match k.step_scripted(script.as_slice()) {
            StepAttempt::Quiescent => {
                self.stats.terminals += 1;
                let verdict = on_terminal(&k);
                self.spare.push(k);
                if verdict == Verdict::Stop {
                    self.stats.truncation = self.stats.truncation.max(Truncation::VisitorStop);
                }
                return verdict;
            }
            StepAttempt::Stepped(_) => {
                self.stats.steps += 1;
                self.budget -= 1;
                if depth + 1 >= bounds.max_depth {
                    self.stats.truncation = self.stats.truncation.max(Truncation::DepthBound);
                    self.spare.push(k);
                } else if claim(k.state_hash_wide()) {
                    self.stack.push((k, Script::default(), depth + 1));
                } else {
                    self.stats.deduped += 1;
                    self.spare.push(k);
                }
            }
            StepAttempt::NeedChoice { arity, kind } => {
                // A cpu decision is always the first of a step, so at this
                // point the script is empty and `k` is the undisturbed
                // pre-step state the ample-set analysis needs.
                if bounds.por && kind == "cpu" {
                    if let Some(c) = k.ample_cpu_choice() {
                        self.stats.por_pruned += (arity - 1) as u64;
                        self.stack.push((k, script.pushed(c), depth));
                        return Verdict::KeepGoing;
                    }
                }
                // Same push order as cloning every branch (choice 0 first,
                // arity-1 on top), but only arity-1 forks.
                for c in 0..arity - 1 {
                    let f = self.fork(&k);
                    self.stack.push((f, script.pushed(c), depth));
                }
                self.stack.push((k, script.pushed(arity - 1), depth));
            }
        }
        Verdict::KeepGoing
    }
}

/// Steps a parallel worker claims from the shared `max_total_steps`
/// budget at a time, so the budget costs one atomic update per this many
/// steps rather than one per step.
const STEP_GRANT: u64 = 1024;

/// One shard of the global visited table, on cache lines of its own: its
/// lock word and table header are written on every claim, and must not
/// share a line with a neighbouring shard that another worker is claiming
/// in.
#[repr(align(128))]
struct Shard(Mutex<VisitedSet>);

/// Shared state of one parallel exploration.
struct Frontier<M> {
    /// Subtree roots available for any worker to claim.
    items: Vec<Item<M>>,
    /// Workers currently blocked waiting for frontier work.
    idle: usize,
}

struct SharedExplore<M, F> {
    queue: Mutex<Frontier<M>>,
    cvar: Condvar,
    /// `Frontier::idle`, readable without the lock: busy workers check it
    /// before offering a donation, so the common nobody-is-starving case
    /// reads a cache line instead of writing the frontier lock's.
    waiting: AtomicUsize,
    /// Sharded global dedup table: a state is *claimed* by the worker
    /// whose insert wins; every later arrival counts as deduped. Sharding
    /// by high hash bits keeps lock contention low.
    shards: Vec<Shard>,
    shard_mask: u64,
    /// The part of `max_total_steps` no worker has claimed yet.
    steps_left: AtomicU64,
    stop: AtomicBool,
    /// The workers' counters, merged as each worker exits.
    totals: Mutex<ExploreStats>,
    jobs: usize,
    on_terminal: F,
}

impl<M, F> SharedExplore<M, F> {
    fn shard(&self, h: u128) -> &Mutex<VisitedSet> {
        // Top bits of the primary hash: disjoint from the HashSet's bucket
        // bits (which come from the low end of the folded key).
        &self.shards[((h as u64) >> 48 & self.shard_mask) as usize].0
    }

    /// Claims up to [`STEP_GRANT`] steps of the budget; 0 once it is spent.
    fn claim_steps(&self) -> u64 {
        let mut left = self.steps_left.load(Ordering::Relaxed);
        loop {
            let take = left.min(STEP_GRANT);
            if take == 0 {
                return 0;
            }
            match self.steps_left.compare_exchange_weak(
                left,
                left - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => left = now,
            }
        }
    }

    /// Claims the next subtree root, blocking while the frontier is empty
    /// but other workers are still running. Returns `None` when all
    /// workers are idle and the frontier is drained — global termination.
    fn global_pop(&self) -> Option<Item<M>> {
        let mut q = self.queue.lock().expect("frontier poisoned");
        loop {
            if let Some(w) = q.items.pop() {
                return Some(w);
            }
            q.idle += 1;
            self.waiting.store(q.idle, Ordering::Relaxed);
            if q.idle == self.jobs {
                self.cvar.notify_all();
                return None;
            }
            q = self.cvar.wait(q).expect("frontier poisoned");
            if q.idle == self.jobs && q.items.is_empty() {
                return None;
            }
            q.idle -= 1;
            self.waiting.store(q.idle, Ordering::Relaxed);
        }
    }

    /// Moves the *oldest* (shallowest, hence largest) half of an
    /// overfull local stack to the shared frontier if anyone is starving.
    fn donate(&self, local: &mut Vec<Item<M>>) {
        if local.len() < 2 || self.waiting.load(Ordering::Relaxed) == 0 {
            return;
        }
        if let Ok(mut q) = self.queue.try_lock() {
            if q.idle > 0 && q.items.len() < self.jobs {
                let n = local.len() / 2;
                q.items.extend(local.drain(..n));
                self.cvar.notify_all();
            }
        }
    }
}

/// [`explore`], fanned out over `jobs` workers of the
/// [`crate::sweep::pool`] with a shared work frontier.
///
/// Workers pop subtree roots (forked kernels) from a shared deque and
/// claim each state exactly once in a sharded global dedup table keyed by
/// [`Kernel::state_hash`] (or [`Kernel::state_hash_wide`]); there is no
/// per-worker visited set, the global table alone decides whether a state
/// was seen. Everything else on the per-step path is worker-local: each
/// worker forks into its own recycled dead kernels (so shared `Arc`
/// reference counts are not touched), counts into its own
/// [`ExploreStats`], and takes steps from the `max_total_steps` budget in
/// claims of 1,024. The counters are merged commutatively at the end.
///
/// **Determinism**: on a run with [`Truncation::None`], every
/// [`ExploreStats`] field — and the multiset of terminal states passed to
/// `on_terminal` — is bit-identical to the serial [`explore`] for every
/// `jobs` value: exactly-once claiming makes the expanded-state set, and
/// hence all counters, independent of visit order. A truncated run is
/// order-dependent by nature (which states fall inside a bound depends on
/// who got there first); `on_terminal` observes terminals in a
/// nondeterministic order either way, so order-sensitive visitors must
/// collect and sort. Under symmetry reduction the *representative* of each
/// orbit passed to the visitor may differ between runs (stats still
/// match); compare permutation-invariant summaries.
///
/// **Step budget**: the total `steps` never exceeds
/// [`ExploreBounds::max_total_steps`]. A worker that finds the budget
/// fully claimed stops the run with [`Truncation::StepBound`], even if
/// other workers still hold unspent claims, so a tree needing within
/// `(jobs - 1) * 1024` steps of the budget may report `StepBound` where
/// the serial run would not.
///
/// `jobs <= 1` runs the serial explorer inline — same code path, zero
/// synchronization.
pub fn explore_parallel<M, F>(
    kernel: &Kernel<M>,
    bounds: ExploreBounds,
    jobs: usize,
    on_terminal: F,
) -> ExploreStats
where
    M: Clone + Hash + Send,
    F: Fn(&Kernel<M>) -> Verdict + Sync,
{
    if jobs <= 1 {
        let mut f = on_terminal;
        return explore_serial(kernel, bounds, &mut f);
    }
    let mut root = kernel.clone();
    root.track_state_hash_cfg(bounds.hash_cfg());
    let root_hash = root.state_hash_wide();
    let n_shards = (jobs * 8).next_power_of_two().min(64);
    let shared = SharedExplore {
        queue: Mutex::new(Frontier {
            items: vec![(root, Script::default(), 0)],
            idle: 0,
        }),
        cvar: Condvar::new(),
        waiting: AtomicUsize::new(0),
        shards: (0..n_shards).map(|_| Shard(Mutex::new(VisitedSet::default()))).collect(),
        shard_mask: (n_shards - 1) as u64,
        steps_left: AtomicU64::new(bounds.max_total_steps),
        stop: AtomicBool::new(false),
        totals: Mutex::new(ExploreStats::default()),
        jobs,
        on_terminal,
    };
    shared
        .shard(root_hash)
        .lock()
        .expect("dedup shard poisoned")
        .insert(root_hash);

    sweep::pool(jobs, |_w| {
        let mut w = Worker::new(0);
        loop {
            shared.donate(&mut w.stack);
            let Some(item) = w.stack.pop().or_else(|| shared.global_pop()) else {
                break;
            };
            if shared.stop.load(Ordering::Relaxed) {
                continue; // drain remaining work without exploring it
            }
            if w.budget == 0 {
                w.budget = shared.claim_steps();
                if w.budget == 0 {
                    w.stats.truncation = w.stats.truncation.max(Truncation::StepBound);
                    shared.stop.store(true, Ordering::Relaxed);
                    continue;
                }
            }
            let claim = |h| shared.shard(h).lock().expect("dedup shard poisoned").insert(h);
            if w.expand(item, &bounds, claim, &shared.on_terminal) == Verdict::Stop {
                shared.stop.store(true, Ordering::Relaxed);
                shared.cvar.notify_all();
            }
        }
        shared.totals.lock().expect("stats poisoned").absorb(&w.stats);
    });

    let mut stats = shared.totals.into_inner().expect("stats poisoned");
    stats.peak_visited = shared
        .shards
        .iter()
        .map(|s| s.0.lock().expect("dedup shard poisoned").len() as u64)
        .sum();
    stats
}

/// Convenience wrapper: explores and asserts `property` at every terminal
/// state, returning `Ok(stats)` or the first failure message.
///
/// # Errors
///
/// Returns `Err` with the property's message at the first terminal state
/// where `property` returns `Some(message)`.
pub fn check_all_schedules<M, F>(
    kernel: &Kernel<M>,
    bounds: ExploreBounds,
    mut property: F,
) -> Result<ExploreStats, String>
where
    M: Clone + Hash,
    F: FnMut(&Kernel<M>) -> Option<String>,
{
    let mut failure: Option<String> = None;
    let stats = explore(kernel, bounds, |k| match property(k) {
        None => Verdict::KeepGoing,
        Some(msg) => {
            failure = Some(msg);
            Verdict::Stop
        }
    });
    match failure {
        Some(msg) => Err(msg),
        None => Ok(stats),
    }
}

/// [`check_all_schedules`] over [`explore_parallel`]. On a violating
/// configuration the *reported* counterexample may differ between runs
/// (whichever worker trips first); whether a violation exists does not.
///
/// # Errors
///
/// Returns `Err` with a failing terminal state's message.
pub fn check_all_schedules_parallel<M, F>(
    kernel: &Kernel<M>,
    bounds: ExploreBounds,
    jobs: usize,
    property: F,
) -> Result<ExploreStats, String>
where
    M: Clone + Hash + Send,
    F: Fn(&Kernel<M>) -> Option<String> + Sync,
{
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let stats = explore_parallel(kernel, bounds, jobs, |k| match property(k) {
        None => Verdict::KeepGoing,
        Some(msg) => {
            failure.lock().expect("failure slot poisoned").get_or_insert(msg);
            Verdict::Stop
        }
    });
    match failure.into_inner().expect("failure slot poisoned") {
        Some(msg) => Err(msg),
        None => Ok(stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ProcessorId, Priority};
    use crate::kernel::SystemSpec;
    use crate::machine::{FnMachine, Footprint, StepOutcome};

    /// Two writers racing on one cell, two statements each, on separate
    /// cpus: all interleavings should be visited.
    fn racing_kernel() -> Kernel<(u64, u64)> {
        let mut k = Kernel::new((0u64, 0u64), SystemSpec::hybrid(4));
        k.add_process(
            ProcessorId(0),
            Priority(1),
            Box::new(FnMachine::new(|mem: &mut (u64, u64), calls| {
                if calls == 0 {
                    mem.0 = 1;
                    (StepOutcome::Continue, None)
                } else {
                    mem.1 = 1;
                    (StepOutcome::Finished, None)
                }
            })),
        );
        k.add_process(
            ProcessorId(1),
            Priority(1),
            Box::new(FnMachine::new(|mem: &mut (u64, u64), calls| {
                if calls == 0 {
                    mem.0 = 2;
                    (StepOutcome::Continue, None)
                } else {
                    mem.1 = 2;
                    (StepOutcome::Finished, None)
                }
            })),
        );
        k
    }

    /// Two writers on *disjoint* cells with declared footprints, on
    /// separate cpus: partial-order reduction should collapse the
    /// interleavings to one representative order.
    fn disjoint_kernel() -> Kernel<(u64, u64)> {
        let mut k = Kernel::new((0u64, 0u64), SystemSpec::hybrid(4));
        k.add_process(
            ProcessorId(0),
            Priority(1),
            Box::new(
                FnMachine::new(|mem: &mut (u64, u64), calls| {
                    mem.0 += 1;
                    if calls == 1 { (StepOutcome::Finished, None) } else { (StepOutcome::Continue, None) }
                })
                .with_footprint(Footprint::rw(0b01)),
            ),
        );
        k.add_process(
            ProcessorId(1),
            Priority(1),
            Box::new(
                FnMachine::new(|mem: &mut (u64, u64), calls| {
                    mem.1 += 1;
                    if calls == 1 { (StepOutcome::Finished, None) } else { (StepOutcome::Continue, None) }
                })
                .with_footprint(Footprint::rw(0b10)),
            ),
        );
        k
    }

    #[test]
    fn visits_all_final_memories() {
        let k = racing_kernel();
        let mut finals: Vec<(u64, u64)> = Vec::new();
        let stats = explore(&k, ExploreBounds::default(), |k| {
            finals.push(k.mem);
            Verdict::KeepGoing
        });
        finals.sort_unstable();
        finals.dedup();
        // Interleavings of (a1 a2) and (b1 b2): last writer of each cell
        // varies; all four (1,1) (1,2) (2,1) (2,2) are reachable.
        assert_eq!(finals, vec![(1, 1), (1, 2), (2, 1), (2, 2)]);
        assert!(stats.terminals >= 4);
        assert!(!stats.truncated());
    }

    #[test]
    fn check_all_schedules_reports_counterexample() {
        let k = racing_kernel();
        let err = check_all_schedules(&k, ExploreBounds::default(), |k| {
            (k.mem == (2, 1)).then(|| "reached (2,1)".to_string())
        })
        .unwrap_err();
        assert_eq!(err, "reached (2,1)");
    }

    #[test]
    fn check_all_schedules_passes_valid_property() {
        let k = racing_kernel();
        let stats = check_all_schedules(&k, ExploreBounds::default(), |k| {
            (k.mem.0 == 0).then(|| "cell never written".to_string())
        })
        .unwrap();
        assert!(stats.terminals > 0);
    }

    #[test]
    fn dedup_prunes_converging_schedules() {
        let k = racing_kernel();
        let stats = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        assert!(stats.deduped > 0, "expected convergent interleavings to dedup");
        // Every non-terminal arrival either claimed a fresh state or
        // deduped, so the visited set is exactly root + claims.
        assert_eq!(stats.peak_visited, 1 + stats.steps - stats.deduped);
    }

    #[test]
    fn step_bound_truncates() {
        let k = racing_kernel();
        let stats = explore(
            &k,
            ExploreBounds { max_total_steps: 2, ..ExploreBounds::default() },
            |_| Verdict::KeepGoing,
        );
        assert_eq!(stats.truncation, Truncation::StepBound);
        assert!(stats.truncated());
    }

    #[test]
    fn depth_bound_truncates_with_reason() {
        let k = racing_kernel();
        let stats = explore(
            &k,
            ExploreBounds { max_depth: 2, ..ExploreBounds::default() },
            |_| Verdict::KeepGoing,
        );
        assert_eq!(stats.truncation, Truncation::DepthBound);
    }

    #[test]
    fn visitor_stop_truncates_with_reason() {
        let k = racing_kernel();
        let stats = explore(&k, ExploreBounds::default(), |_| Verdict::Stop);
        assert_eq!(stats.truncation, Truncation::VisitorStop);
    }

    #[test]
    fn wide_hash_agrees_with_narrow() {
        let k = racing_kernel();
        let narrow = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        let wide = explore(&k, ExploreBounds::default().wide(), |_| Verdict::KeepGoing);
        assert_eq!(narrow, wide, "no collisions at this scale: identical stats");
    }

    #[test]
    fn parallel_matches_serial_at_every_jobs_count() {
        let k = racing_kernel();
        let serial = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        for jobs in [1, 2, 4, 8] {
            let par = explore_parallel(&k, ExploreBounds::default(), jobs, |_| Verdict::KeepGoing);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_collects_same_terminal_memories() {
        let k = racing_kernel();
        let finals = Mutex::new(Vec::new());
        explore_parallel(&k, ExploreBounds::default(), 4, |k| {
            finals.lock().unwrap().push(k.mem);
            Verdict::KeepGoing
        });
        let mut finals = finals.into_inner().unwrap();
        finals.sort_unstable();
        finals.dedup();
        assert_eq!(finals, vec![(1, 1), (1, 2), (2, 1), (2, 2)]);
    }

    #[test]
    fn por_prunes_disjoint_writers_without_losing_terminals() {
        let k = disjoint_kernel();
        let plain = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        let finals = Mutex::new(Vec::new());
        let reduced = explore_parallel(
            &k,
            ExploreBounds { por: true, ..ExploreBounds::default() },
            1,
            |k| {
                finals.lock().unwrap().push(k.mem);
                Verdict::KeepGoing
            },
        );
        // POR preserves the quiescent-state set exactly...
        assert_eq!(reduced.terminals, plain.terminals);
        assert_eq!(finals.into_inner().unwrap(), vec![(2, 2)]);
        // ...while exploring strictly fewer interleavings.
        assert!(reduced.por_pruned > 0);
        assert!(reduced.steps < plain.steps, "{} !< {}", reduced.steps, plain.steps);
        assert!(reduced.peak_visited < plain.peak_visited);
    }

    #[test]
    fn por_never_prunes_undeclared_footprints() {
        let k = racing_kernel(); // FnMachine defaults to Footprint::Unknown
        let plain = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        let reduced =
            explore(&k, ExploreBounds { por: true, ..ExploreBounds::default() }, |_| {
                Verdict::KeepGoing
            });
        assert_eq!(plain, reduced);
        assert_eq!(reduced.por_pruned, 0);
    }

    #[test]
    fn symmetry_merges_interchangeable_processes() {
        // Two *identical* machines at equal priority on one cpu: states
        // that differ only by which process advanced first are one orbit.
        let mk = || {
            let mut k = Kernel::new(0u64, SystemSpec::hybrid(2));
            for _ in 0..2 {
                k.add_process(
                    ProcessorId(0),
                    Priority(1),
                    Box::new(FnMachine::new(|mem: &mut u64, calls| {
                        *mem += 1;
                        if calls == 1 {
                            (StepOutcome::Finished, None)
                        } else {
                            (StepOutcome::Continue, None)
                        }
                    })),
                );
            }
            k
        };
        let plain = explore(&mk(), ExploreBounds::default(), |_| Verdict::KeepGoing);
        let sym = explore(
            &mk(),
            ExploreBounds { symmetry: true, ..ExploreBounds::default() },
            |_| Verdict::KeepGoing,
        );
        assert!(sym.peak_visited < plain.peak_visited, "{sym:?} vs {plain:?}");
        assert!(sym.terminals <= plain.terminals);
        assert!(sym.terminals >= 1);
    }
}
