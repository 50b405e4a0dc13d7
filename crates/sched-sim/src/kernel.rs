//! The simulation kernel: a multiprogrammed system of processors, each with
//! a hybrid (priority + quantum) scheduler, executing step machines one
//! atomic statement at a time.
//!
//! The kernel implements the paper's execution model (Sec. 2) exactly:
//!
//! * Each process is pinned to one processor and has a static priority.
//! * **Axiom 1**: a processor always executes a maximal-priority ready
//!   process; a higher-priority process that becomes ready preempts
//!   immediately (i.e., it takes the processor's next statement).
//! * **Axiom 2**: processor time among equal-priority processes is
//!   allocated in quantum *windows*. While a window is open, only its
//!   holder may execute at that priority level; the window closes when the
//!   holder has executed `Q` of its own statements (higher-priority
//!   interleavings do not count against it), when the holder's object
//!   invocation terminates, or when the holder finishes. A process's very
//!   first window may be shorter than `Q` — its execution "may arbitrarily
//!   align with the next quantum boundary".
//! * Quantum allocation may be unfair: a ready process may be starved
//!   forever, modeling halting failures. Fairness is a property of the
//!   [`Decider`], not the kernel.
//! * Cross-processor interleaving is fully asynchronous (chosen by the
//!   decider), so consensus numbers retain their usual meaning across
//!   processors.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::decision::{Choice, Decider};
use crate::history::{Event, EventKind, History, ProcInfo, StmtEffect};
use crate::ids::{ProcessId, ProcessorId, Priority};
use crate::machine::{Footprint, StepCtx, StepMachine, StepOutcome};
use crate::obs::{DecisionKind, ObsCounters, ObsEvent, Trace, WindowCloseReason};
use crate::prof::Profile;
use crate::rng::FoldHasher;
use crate::sym::{Interner, Sym};

/// How a process's first quantum window is sized.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FirstCreditMode {
    /// First windows are always full (`Q`): dispatches align with quantum
    /// boundaries. The benign default.
    #[default]
    Aligned,
    /// The decider chooses the first window size in `1..=Q`, modeling the
    /// paper's "first quantum preemption at any time". Required by the
    /// adversaries of the lower-bound experiments and used by randomized
    /// stress tests.
    Adversarial,
}

/// Static configuration of a simulated system.
#[derive(Clone, Copy, Debug)]
pub struct SystemSpec {
    /// The scheduling quantum `Q`, in atomic statements. `0` models a pure
    /// priority-scheduled system degenerately (every window closes
    /// immediately, so equal-priority processes interleave freely —
    /// see [`SystemSpec::pure_priority`]).
    pub quantum: u32,
    /// First-window sizing policy.
    pub first_credit: FirstCreditMode,
    /// Whether to record a full [`History`] (costs allocation per step).
    pub record_history: bool,
}

impl SystemSpec {
    /// A hybrid-scheduled system with quantum `q` and benign alignment.
    pub fn hybrid(q: u32) -> Self {
        SystemSpec { quantum: q, first_credit: FirstCreditMode::Aligned, record_history: false }
    }

    /// A *pure priority-scheduled* system: the quantum is zero, so
    /// equal-priority processes may interleave at every statement. Any
    /// algorithm correct for hybrid scheduling with quantum `Q` must also
    /// be correct here when every priority level holds at most one process
    /// (the classical priority-scheduled model of Ramamurthy et al.).
    pub fn pure_priority() -> Self {
        SystemSpec { quantum: 0, first_credit: FirstCreditMode::Aligned, record_history: false }
    }

    /// A *pure quantum-scheduled* system with quantum `q`: hybrid
    /// scheduling where every process is given the same priority (the
    /// caller is responsible for assigning equal priorities).
    pub fn pure_quantum(q: u32) -> Self {
        Self::hybrid(q)
    }

    /// Enables adversarial first-window sizing.
    pub fn with_adversarial_alignment(mut self) -> Self {
        self.first_credit = FirstCreditMode::Adversarial;
        self
    }

    /// Enables history recording.
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }
}

/// Per-process runtime status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Not yet eligible: invisible to its scheduler until released.
    Held,
    /// Eligible to execute.
    Ready,
    /// All invocations complete.
    Finished,
    /// Crashed: invisible to its scheduler until recovered. A crash
    /// discards any partial invocation (the machine is restored to the
    /// invocation's first statement), so recovery re-runs it from the
    /// copy-chain re-read.
    Crashed,
}

impl Status {
    /// Stable discriminant for the state-hash fold.
    fn rank(self) -> u8 {
        match self {
            Status::Held => 0,
            Status::Ready => 1,
            Status::Finished => 2,
            Status::Crashed => 3,
        }
    }
}

/// What a scheduled lifecycle event does to its process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LifecycleKind {
    Crash,
    Recover,
}

/// A clock-scheduled crash or recovery. Lifecycle instants are plain
/// *data* (not decider choices), so runs with a lifecycle plan replay and
/// parallelize bit-identically: the plan fires as a function of the global
/// statement clock alone.
#[derive(Clone, Copy, Debug)]
struct LifecycleEvent {
    t: u64,
    pid: ProcessId,
    kind: LifecycleKind,
}

/// Per-process statistics, maintained by the kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Atomic statements this process has executed.
    pub own_steps: u64,
    /// Times it was preempted mid-invocation by an equal-priority process
    /// (a *quantum preemption*).
    pub quantum_preemptions: u64,
    /// Times it was preempted mid-invocation by higher-priority processes
    /// only.
    pub priority_preemptions: u64,
    /// Object invocations completed.
    pub completed: u64,
}

struct ProcEntry<M> {
    pid: ProcessId,
    cpu: ProcessorId,
    prio: Priority,
    machine: Box<dyn StepMachine<M>>,
    status: Status,
    /// Mid-invocation: executed a `Continue` statement more recently than
    /// an invocation boundary.
    mid_invocation: bool,
    /// Dispatched at least once (first-window allowance consumed).
    ever_dispatched: bool,
    /// Set when another process on this cpu executed since this process's
    /// last statement while it was mid-invocation.
    interleaved_same: bool,
    interleaved_higher: bool,
    /// Global time of the current invocation's first statement.
    inv_start: u64,
    /// The original `inv_start` of an invocation aborted by a crash: the
    /// restarted attempt is the *same* operation, so its [`OpRecord`]
    /// keeps the first attempt's invocation time — an op whose pre-crash
    /// shared writes took effect (e.g. it was helped to completion) is
    /// still linearizable inside its recorded interval. Earliest attempt
    /// wins across repeated crashes of one invocation.
    aborted_inv_start: Option<u64>,
    /// Machine state as of the current invocation's first statement,
    /// captured only while the kernel is crashable: a crash restores the
    /// machine from here so the recovered process re-runs the invocation
    /// from scratch.
    inv_snapshot: Option<Box<dyn StepMachine<M>>>,
    stats: ProcStats,
}

#[derive(Clone, Copy, Debug)]
struct Window {
    holder: ProcessId,
    prio: Priority,
    /// Holder's own statements executed in this window.
    count: u32,
    /// Window size (usually `Q`; possibly smaller for a first window).
    credit: u32,
    open: bool,
}

/// A completed object invocation, recorded for linearizability oracles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Global statement time of the invocation's first statement.
    pub start: u64,
    /// Global statement time of completion (its last statement).
    pub t: u64,
    /// The invoking process.
    pub pid: ProcessId,
    /// Zero-based invocation index within that process.
    pub inv_index: u32,
    /// The invocation's output, as reported by the machine.
    pub output: Option<u64>,
}

/// Report of one executed statement.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Global statement time (before this statement).
    pub t: u64,
    /// The process that executed.
    pub pid: ProcessId,
    /// Its processor.
    pub cpu: ProcessorId,
    /// Its priority.
    pub prio: Priority,
    /// The statement's outcome.
    pub outcome: StepOutcome,
    /// The statement's display label, interned in the kernel's history
    /// symbol table ([`History::syms`]). Labels are recorded only while a
    /// history or an observability trace is attached; otherwise this is
    /// [`Sym::EMPTY`].
    pub label: Sym,
}

/// Result of attempting one kernel step with a (possibly partial) choice
/// script. See [`Kernel::step_scripted`].
#[derive(Clone, Debug)]
pub enum StepAttempt {
    /// The statement executed.
    Stepped(StepReport),
    /// No process is ready anywhere; the system is quiescent.
    Quiescent,
    /// The script ran out at a decision with `arity` options; the kernel
    /// state was **not** modified.
    NeedChoice {
        /// Number of available options at the pending decision.
        arity: usize,
        /// The pending decision's kind tag (`"cpu"`, `"holder"`,
        /// `"first-credit"`).
        kind: &'static str,
    },
}

/// A multiprogrammed system simulation.
///
/// `M` is the shared memory type. The usual front door is a
/// [`crate::scenario::Scenario`], which captures the setup declaratively
/// and builds kernels on demand; construct a `Kernel` directly (with
/// [`Kernel::new`] + [`Kernel::add_process`], then [`Kernel::step`] /
/// [`Kernel::run`]) when you need mid-run choreography — releases, manual
/// stepping, the exhaustive explorer.
///
/// # Examples
///
/// ```
/// use sched_sim::kernel::SystemSpec;
/// use sched_sim::machine::{FnMachine, StepOutcome};
/// use sched_sim::ids::{ProcessorId, Priority};
/// use sched_sim::scenario::Scenario;
///
/// let s = Scenario::new(0u64, SystemSpec::hybrid(4))
///     .process(ProcessorId(0), Priority(1), Box::new(FnMachine::new(
///         |mem: &mut u64, calls| {
///             *mem += 1;
///             if calls == 2 { (StepOutcome::Finished, Some(*mem)) }
///             else { (StepOutcome::Continue, None) }
///         })));
/// // Declarative: run the scenario…
/// let r = s.run_fair();
/// assert_eq!((r.steps, *r.mem()), (3, 3));
/// // …or take the underlying kernel and drive it by hand.
/// let mut k = s.into_kernel();
/// let steps = k.run(&mut sched_sim::RoundRobin::new(), 100);
/// assert_eq!((steps, k.mem), (3, 3));
/// ```
pub struct Kernel<M> {
    /// The shared memory, openly accessible to oracles and constructors.
    pub mem: M,
    quantum: u32,
    first_credit: FirstCreditMode,
    procs: Vec<ProcEntry<M>>,
    /// One optional open window per (cpu, priority); sparse vec keyed by
    /// cpu index, then searched by priority (few levels in practice).
    windows: Vec<Vec<Window>>,
    n_cpus: usize,
    clock: u64,
    record_history: bool,
    /// Arc-backed so cloning a kernel (the explorer's fork) shares the
    /// event log; copy-on-write via [`Arc::make_mut`] at each push. With
    /// recording off (the explorer case) the log never grows, so forks
    /// share one allocation forever.
    history: Arc<History>,
    /// Completed invocations, Arc-backed like `history`: a fork copies the
    /// records only when a branch completes another invocation, and then
    /// only O(completed) of them.
    ops: Arc<Vec<OpRecord>>,
    /// Attached observability trace ([`crate::obs`]); `None` means no
    /// event is ever constructed.
    obs: Option<Trace>,
    /// Attached streaming profiler ([`crate::prof`]); like `obs`, `None`
    /// means the step loop constructs no events on its account.
    prof: Option<Profile>,
    /// Always-on aggregate scheduler counters.
    counters: ObsCounters,
    /// Last process to execute on each cpu, for dispatch events.
    last_on_cpu: Vec<Option<ProcessId>>,
    /// The lifecycle plan: scheduled crash/recover events sorted by firing
    /// time, consumed left to right by `lifecycle_cursor`.
    lifecycle: Vec<LifecycleEvent>,
    lifecycle_cursor: usize,
    /// Whether invocation-start snapshots are captured (the cost of being
    /// crashable); enabled by [`Kernel::enable_crashes`] and by scheduling
    /// any crash.
    crashable: bool,
    /// Reusable buffers for the per-step ready-cpu / candidate-holder
    /// scans, so the hot step path performs no allocation.
    scratch_cpus: Vec<ProcessorId>,
    scratch_cands: Vec<ProcessId>,
    /// Incremental state-hash bookkeeping: one component hash per process
    /// and per processor's window list, XOR-folded into `hash_acc`. A step
    /// touches one process and one window list, so [`Kernel::state_hash`]
    /// is O(|mem|) instead of O(processes + windows). Maintained only
    /// while `track_hash` is set (see [`Kernel::track_state_hash`]) so
    /// decider-driven runs that never hash pay nothing.
    track_hash: bool,
    hash_cfg: HashCfg,
    proc_hash: Vec<u64>,
    win_hash: Vec<u64>,
    hash_acc: u64,
    /// Second accumulator under an independent seed, maintained only when
    /// [`HashCfg::wide`] is set (the explorer's opt-in 128-bit dedup keys).
    proc_hash2: Vec<u64>,
    win_hash2: Vec<u64>,
    hash_acc2: u64,
}

/// Configuration for [`Kernel::track_state_hash_cfg`].
///
/// `symmetric` switches [`Kernel::state_hash`] to a *canonical* hash,
/// invariant under priority-preserving permutations of processes within a
/// processor and under permutations of whole processors: two states that
/// differ only by such a relabeling hash identically, so the explorer
/// visits one representative per orbit. **Soundness is the caller's
/// obligation**: the shared memory must contain no per-process data (the
/// canonicalization permutes machines, not memory) and machine behavior
/// must not depend on [`StepCtx::pid`]. Fig. 3's value-cell memory
/// qualifies; the universal construction's pid-indexed arrays do not.
///
/// `wide` additionally maintains a second, independently seeded hash so
/// [`Kernel::state_hash_wide`] yields 128-bit dedup keys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HashCfg {
    /// Canonicalize under process/processor symmetry (see above).
    pub symmetric: bool,
    /// Maintain a second independent 64-bit hash (128-bit dedup keys).
    pub wide: bool,
}

/// Domain-separation seed for the second hash of [`HashCfg::wide`]; the
/// primary hash uses seed 0.
const WIDE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl<M: Clone> Clone for Kernel<M> {
    fn clone(&self) -> Self {
        Kernel {
            mem: self.mem.clone(),
            quantum: self.quantum,
            first_credit: self.first_credit,
            procs: self.procs.iter().map(ProcEntry::fork).collect(),
            windows: self.windows.clone(),
            n_cpus: self.n_cpus,
            clock: self.clock,
            record_history: self.record_history,
            history: Arc::clone(&self.history),
            ops: Arc::clone(&self.ops),
            obs: self.obs.clone(),
            prof: self.prof.clone(),
            counters: self.counters,
            last_on_cpu: self.last_on_cpu.clone(),
            lifecycle: self.lifecycle.clone(),
            lifecycle_cursor: self.lifecycle_cursor,
            crashable: self.crashable,
            scratch_cpus: Vec::new(),
            scratch_cands: Vec::new(),
            track_hash: self.track_hash,
            hash_cfg: self.hash_cfg,
            proc_hash: self.proc_hash.clone(),
            win_hash: self.win_hash.clone(),
            hash_acc: self.hash_acc,
            proc_hash2: self.proc_hash2.clone(),
            win_hash2: self.win_hash2.clone(),
            hash_acc2: self.hash_acc2,
        }
    }

    /// Turns `self` into a copy of `src` in place: the explorer's fork of
    /// a live kernel into a dead one. Vectors and machine boxes are reused
    /// ([`StepMachine::clone_into_box`]), and the shared history and op
    /// log are re-pointed only when they differ (`Arc::ptr_eq`) — an op
    /// log `self` owns alone is overwritten instead — so once the buffers
    /// have grown to size a fork allocates nothing and writes no reference
    /// count that forks on other threads also write. The scratch buffers
    /// keep their capacity; they carry no state.
    fn clone_from(&mut self, src: &Self) {
        self.mem.clone_from(&src.mem);
        self.quantum = src.quantum;
        self.first_credit = src.first_credit;
        self.procs.truncate(src.procs.len());
        for (d, s) in self.procs.iter_mut().zip(&src.procs) {
            d.copy_from(s);
        }
        let have = self.procs.len();
        self.procs.extend(src.procs[have..].iter().map(ProcEntry::fork));
        self.windows.clone_from(&src.windows);
        self.n_cpus = src.n_cpus;
        self.clock = src.clock;
        self.record_history = src.record_history;
        if !Arc::ptr_eq(&self.history, &src.history) {
            self.history = Arc::clone(&src.history);
        }
        if !Arc::ptr_eq(&self.ops, &src.ops) {
            // A log this kernel owns alone is overwritten in place: that
            // touches no shared count, and the next completion pushes
            // without a copy-on-write.
            match Arc::get_mut(&mut self.ops) {
                Some(mine) => mine.clone_from(&src.ops),
                None => self.ops = Arc::clone(&src.ops),
            }
        }
        self.obs.clone_from(&src.obs);
        self.prof.clone_from(&src.prof);
        self.counters = src.counters;
        self.last_on_cpu.clone_from(&src.last_on_cpu);
        self.lifecycle.clone_from(&src.lifecycle);
        self.lifecycle_cursor = src.lifecycle_cursor;
        self.crashable = src.crashable;
        self.track_hash = src.track_hash;
        self.hash_cfg = src.hash_cfg;
        self.proc_hash.clone_from(&src.proc_hash);
        self.win_hash.clone_from(&src.win_hash);
        self.hash_acc = src.hash_acc;
        self.proc_hash2.clone_from(&src.proc_hash2);
        self.win_hash2.clone_from(&src.win_hash2);
        self.hash_acc2 = src.hash_acc2;
    }
}

impl<M> Kernel<M> {
    /// Creates a kernel over shared memory `mem` with the given spec.
    pub fn new(mem: M, spec: SystemSpec) -> Self {
        Kernel {
            mem,
            quantum: spec.quantum,
            first_credit: spec.first_credit,
            procs: Vec::new(),
            windows: Vec::new(),
            n_cpus: 0,
            clock: 0,
            record_history: spec.record_history,
            history: Arc::new(History {
                quantum: spec.quantum,
                procs: Vec::new(),
                events: Vec::new(),
                syms: Interner::new(),
            }),
            ops: Arc::new(Vec::new()),
            obs: None,
            prof: None,
            counters: ObsCounters::default(),
            last_on_cpu: Vec::new(),
            lifecycle: Vec::new(),
            lifecycle_cursor: 0,
            crashable: false,
            scratch_cpus: Vec::new(),
            scratch_cands: Vec::new(),
            track_hash: false,
            hash_cfg: HashCfg::default(),
            proc_hash: Vec::new(),
            win_hash: Vec::new(),
            hash_acc: 0,
            proc_hash2: Vec::new(),
            win_hash2: Vec::new(),
            hash_acc2: 0,
        }
    }

    /// Adds a ready process pinned to `cpu` with priority `prio`.
    /// Returns its [`ProcessId`] (assigned densely from 0).
    pub fn add_process(
        &mut self,
        cpu: ProcessorId,
        prio: Priority,
        machine: Box<dyn StepMachine<M>>,
    ) -> ProcessId {
        self.add(cpu, prio, machine, false)
    }

    /// Adds a *held* process: ineligible (invisible to its scheduler) until
    /// [`Kernel::release`] is called. Models delayed arrivals and the
    /// lower-bound proofs' eligibility control.
    pub fn add_held_process(
        &mut self,
        cpu: ProcessorId,
        prio: Priority,
        machine: Box<dyn StepMachine<M>>,
    ) -> ProcessId {
        self.add(cpu, prio, machine, true)
    }

    fn add(
        &mut self,
        cpu: ProcessorId,
        prio: Priority,
        machine: Box<dyn StepMachine<M>>,
        held: bool,
    ) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u32);
        self.procs.push(ProcEntry {
            pid,
            cpu,
            prio,
            machine,
            status: if held { Status::Held } else { Status::Ready },
            mid_invocation: false,
            ever_dispatched: false,
            interleaved_same: false,
            interleaved_higher: false,
            inv_start: 0,
            aborted_inv_start: None,
            inv_snapshot: None,
            stats: ProcStats::default(),
        });
        self.n_cpus = self.n_cpus.max(cpu.index() + 1);
        while self.windows.len() < self.n_cpus {
            self.windows.push(Vec::new());
            self.last_on_cpu.push(None);
        }
        if self.track_hash {
            self.rebuild_hash_acc();
        }
        Arc::make_mut(&mut self.history).procs.push(ProcInfo { pid, cpu, prio, held });
        pid
    }

    /// Releases a held process, making it ready. Under Axiom 1 it will
    /// preempt any lower-priority process on its cpu at the very next
    /// statement there.
    ///
    /// # Panics
    ///
    /// Panics if the process is not held.
    pub fn release(&mut self, pid: ProcessId) {
        let p = &mut self.procs[pid.index()];
        assert_eq!(p.status, Status::Held, "release of a non-held process");
        p.status = Status::Ready;
        if self.track_hash {
            self.refresh_proc_hash(pid.index());
        }
        self.counters.releases += 1;
        if self.observing() {
            self.emit(ObsEvent::Release { t: self.clock, pid });
        }
        let p = &self.procs[pid.index()];
        if self.record_history {
            let (cpu, prio) = (p.cpu, p.prio);
            Arc::make_mut(&mut self.history).events.push(Event {
                t: self.clock,
                pid,
                cpu,
                prio,
                kind: EventKind::Release,
            });
        }
    }

    /// Turns on invocation-start snapshots, making processes crashable:
    /// from the next invocation boundary on, [`Kernel::crash`] can restore
    /// a mid-invocation machine to its invocation's first statement.
    /// Scheduling a crash enables this automatically; call it directly
    /// only for manual [`Kernel::crash`] choreography. The flag must be
    /// set before the run starts, so every invocation has a snapshot.
    pub fn enable_crashes(&mut self) {
        self.crashable = true;
    }

    /// Schedules `pid` to crash just before the statement at global clock
    /// `t` (or at the next lifecycle opportunity if the system quiesces
    /// first). Lifecycle instants are deterministic data, so scheduled
    /// runs replay and parallelize bit-identically. Implies
    /// [`Kernel::enable_crashes`].
    pub fn schedule_crash(&mut self, t: u64, pid: ProcessId) {
        self.enable_crashes();
        self.schedule_lifecycle(LifecycleEvent { t, pid, kind: LifecycleKind::Crash });
    }

    /// Schedules `pid` to recover (crashed → ready) just before the
    /// statement at global clock `t`. See [`Kernel::schedule_crash`].
    pub fn schedule_recover(&mut self, t: u64, pid: ProcessId) {
        self.schedule_lifecycle(LifecycleEvent { t, pid, kind: LifecycleKind::Recover });
    }

    fn schedule_lifecycle(&mut self, ev: LifecycleEvent) {
        self.lifecycle.push(ev);
        // Stable sort keeps insertion order among equal instants, so a
        // crash and its same-instant recovery fire in schedule order.
        self.lifecycle[self.lifecycle_cursor..].sort_by_key(|e| e.t);
    }

    /// Lifecycle events not yet fired.
    pub fn lifecycle_pending(&self) -> usize {
        self.lifecycle.len() - self.lifecycle_cursor
    }

    /// Crashes a ready process: any partial invocation is discarded (the
    /// machine is restored to the snapshot captured at the invocation's
    /// first statement, so shared-memory effects of the partial run remain
    /// but local state rewinds), its open window closes with
    /// [`WindowCloseReason::Crashed`], and the process becomes invisible
    /// to its scheduler until [`Kernel::recover`]. Lenient: crashing a
    /// held, finished, or already-crashed process is a no-op, which lets
    /// cyclic churn plans name victims without tracking their state.
    pub fn crash(&mut self, pid: ProcessId) {
        let idx = pid.index();
        if self.procs[idx].status != Status::Ready {
            return;
        }
        let t = self.clock;
        let (cpu, prio) = (self.procs[idx].cpu, self.procs[idx].prio);
        {
            let p = &mut self.procs[idx];
            if p.mid_invocation {
                let snap = p
                    .inv_snapshot
                    .as_ref()
                    .expect("crashable kernels snapshot every invocation start");
                p.machine = snap.box_clone();
                p.mid_invocation = false;
                // The restart re-runs this same operation: keep the first
                // attempt's invocation time for its completion record.
                p.aborted_inv_start.get_or_insert(p.inv_start);
            }
            p.interleaved_same = false;
            p.interleaved_higher = false;
            p.status = Status::Crashed;
        }
        // Remove the victim's window so the slot is free on recovery; an
        // open one is reported closed for the observability layer.
        let was_open = self.windows[cpu.index()]
            .iter()
            .any(|w| w.prio == prio && w.holder == pid && w.open);
        self.windows[cpu.index()].retain(|w| !(w.prio == prio && w.holder == pid));
        if self.last_on_cpu[cpu.index()] == Some(pid) {
            // Force a fresh Dispatch event when the victim resumes.
            self.last_on_cpu[cpu.index()] = None;
        }
        self.counters.crashes += 1;
        if self.observing() {
            self.emit(ObsEvent::Crash { t, pid });
            if was_open {
                self.emit(ObsEvent::WindowClose {
                    t,
                    cpu,
                    prio,
                    holder: pid,
                    reason: WindowCloseReason::Crashed,
                });
            }
        }
        if self.record_history {
            Arc::make_mut(&mut self.history).events.push(Event {
                t,
                pid,
                cpu,
                prio,
                kind: EventKind::Crash,
            });
        }
        if self.track_hash {
            self.refresh_proc_hash(idx);
            self.refresh_win_hash(cpu.index());
        }
    }

    /// Recovers a crashed process, making it ready again: under Axiom 1 it
    /// preempts lower-priority processes at its cpu's next statement, and
    /// its next dispatch re-runs the interrupted invocation from its first
    /// statement. Lenient: recovering a non-crashed process is a no-op.
    pub fn recover(&mut self, pid: ProcessId) {
        let idx = pid.index();
        if self.procs[idx].status != Status::Crashed {
            return;
        }
        self.procs[idx].status = Status::Ready;
        self.counters.recoveries += 1;
        if self.observing() {
            self.emit(ObsEvent::Recover { t: self.clock, pid });
        }
        if self.record_history {
            let p = &self.procs[idx];
            let (cpu, prio) = (p.cpu, p.prio);
            Arc::make_mut(&mut self.history).events.push(Event {
                t: self.clock,
                pid,
                cpu,
                prio,
                kind: EventKind::Recover,
            });
        }
        if self.track_hash {
            self.refresh_proc_hash(idx);
        }
    }

    /// Fires every lifecycle event due at the current clock.
    fn fire_due_lifecycle(&mut self) {
        while let Some(&ev) = self.lifecycle.get(self.lifecycle_cursor) {
            if ev.t > self.clock {
                break;
            }
            self.lifecycle_cursor += 1;
            self.apply_lifecycle(ev);
        }
    }

    /// Early-fires the next group of same-instant lifecycle events, used
    /// when the system quiesces before their scheduled time (the clock
    /// only advances on statements, so a recovery scheduled past the last
    /// executable statement would otherwise never fire). Returns whether
    /// anything fired.
    fn fire_next_lifecycle_group(&mut self) -> bool {
        let Some(&first) = self.lifecycle.get(self.lifecycle_cursor) else {
            return false;
        };
        while let Some(&ev) = self.lifecycle.get(self.lifecycle_cursor) {
            if ev.t != first.t {
                break;
            }
            self.lifecycle_cursor += 1;
            self.apply_lifecycle(ev);
        }
        true
    }

    fn apply_lifecycle(&mut self, ev: LifecycleEvent) {
        match ev.kind {
            LifecycleKind::Crash => self.crash(ev.pid),
            LifecycleKind::Recover => self.recover(ev.pid),
        }
    }

    /// The configured quantum `Q`.
    pub fn quantum(&self) -> u32 {
        self.quantum
    }

    /// The global statement count so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of processes.
    pub fn n_processes(&self) -> usize {
        self.procs.len()
    }

    /// The output of `pid`'s most recently completed invocation.
    pub fn output(&self, pid: ProcessId) -> Option<u64> {
        self.procs[pid.index()].machine.output()
    }

    /// Whether `pid` has finished all invocations.
    pub fn is_finished(&self, pid: ProcessId) -> bool {
        self.procs[pid.index()].status == Status::Finished
    }

    /// Whether `pid` is currently crashed (awaiting [`Kernel::recover`]).
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.procs[pid.index()].status == Status::Crashed
    }

    /// Whether every process has finished.
    pub fn all_finished(&self) -> bool {
        self.procs.iter().all(|p| p.status == Status::Finished)
    }

    /// Statistics for `pid`.
    pub fn stats(&self, pid: ProcessId) -> ProcStats {
        self.procs[pid.index()].stats
    }

    /// The recorded history (empty unless the spec enabled recording).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Attaches a fresh observability [`Trace`]: subsequent steps emit
    /// structured [`ObsEvent`]s into it (see [`crate::obs`]). Replaces any
    /// previously attached trace. With no trace attached, the kernel
    /// constructs no events at all.
    pub fn attach_obs(&mut self) {
        self.obs = Some(Trace::new());
    }

    /// The attached observability trace, if any.
    pub fn obs(&self) -> Option<&Trace> {
        self.obs.as_ref()
    }

    /// Detaches and returns the observability trace, if one was attached.
    pub fn take_obs(&mut self) -> Option<Trace> {
        self.obs.take()
    }

    /// Attaches a fresh streaming [`Profile`]: subsequent steps fold every
    /// emitted event into derived metrics (see [`crate::prof`]). Unlike
    /// [`Kernel::attach_obs`] no event log is retained, so memory stays
    /// O(processes) regardless of run length. Replaces any previously
    /// attached profile; with neither a trace nor a profile attached, the
    /// kernel constructs no events at all.
    pub fn attach_prof(&mut self) {
        self.prof = Some(Profile::new());
    }

    /// The attached profile, if any.
    pub fn prof(&self) -> Option<&Profile> {
        self.prof.as_ref()
    }

    /// Detaches and returns the profile, if one was attached.
    pub fn take_prof(&mut self) -> Option<Profile> {
        self.prof.take()
    }

    /// Whether any event consumer (trace or profiler) is attached. The
    /// step loop constructs [`ObsEvent`]s only when this holds, which is
    /// what keeps the detached hot path allocation-free.
    #[inline]
    fn observing(&self) -> bool {
        self.obs.is_some() || self.prof.is_some()
    }

    /// Routes one event to every attached consumer: the profiler folds it
    /// by reference, then the trace stores it.
    fn emit(&mut self, ev: ObsEvent) {
        if let Some(p) = self.prof.as_mut() {
            p.observe(&ev);
        }
        if let Some(tr) = self.obs.as_mut() {
            tr.record(ev);
        }
    }

    /// The run's aggregate scheduler counters (always maintained).
    pub fn counters(&self) -> ObsCounters {
        self.counters
    }

    /// Completed invocations, in completion order.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Pre-reserves capacity for `additional` further completed-invocation
    /// records, so a long-lived run whose invocation count is known up
    /// front (the service engine's case) never grows the op log mid-run —
    /// the record push stays allocation-free on the steady-state step path.
    pub fn reserve_ops(&mut self, additional: usize) {
        Arc::make_mut(&mut self.ops).reserve(additional);
    }

    /// Processors with at least one ready process, ascending.
    pub fn runnable_cpus(&self) -> Vec<ProcessorId> {
        let mut v: Vec<ProcessorId> = self
            .procs
            .iter()
            .filter(|p| p.status == Status::Ready)
            .map(|p| p.cpu)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn top_priority(&self, cpu: ProcessorId) -> Option<Priority> {
        self.procs
            .iter()
            .filter(|p| p.status == Status::Ready && p.cpu == cpu)
            .map(|p| p.prio)
            .max()
    }

    /// Core dispatch-and-execute, parametric in a fallible choice source.
    /// **No state is mutated until every needed choice has been supplied**,
    /// so a `None` from the source aborts the step cleanly.
    fn step_core(
        &mut self,
        choose: &mut dyn FnMut(Choice<'_>, usize) -> Option<usize>,
    ) -> StepAttempt {
        // Decisions resolved this step (at most cpu + holder + first-credit),
        // buffered so an aborted step (NeedChoice) records nothing.
        let mut taken = [(DecisionKind::Cpu, 0usize, 0usize); 3];
        let mut n_taken = 0usize;
        // --- read-only phase: resolve all decisions ---
        // Ready-cpu scan into a reusable buffer (no per-step allocation).
        let mut cpus = std::mem::take(&mut self.scratch_cpus);
        cpus.clear();
        cpus.extend(self.procs.iter().filter(|p| p.status == Status::Ready).map(|p| p.cpu));
        cpus.sort_unstable();
        cpus.dedup();
        if cpus.is_empty() {
            self.scratch_cpus = cpus;
            return StepAttempt::Quiescent;
        }
        let cpu = if cpus.len() == 1 {
            cpus[0]
        } else {
            match choose(Choice::Cpu { options: &cpus }, cpus.len()) {
                Some(i) => {
                    assert!(i < cpus.len(), "cpu choice out of range");
                    taken[n_taken] = (DecisionKind::Cpu, cpus.len(), i);
                    n_taken += 1;
                    cpus[i]
                }
                None => {
                    let arity = cpus.len();
                    self.scratch_cpus = cpus;
                    return StepAttempt::NeedChoice { arity, kind: "cpu" };
                }
            }
        };
        self.scratch_cpus = cpus;
        let prio = self.top_priority(cpu).expect("runnable cpu has a top priority");
        // Is there an open window at (cpu, prio) whose holder must continue?
        let win = self.windows[cpu.index()]
            .iter()
            .find(|w| w.prio == prio && w.open)
            .copied();
        let must_continue = win.and_then(|w| {
            let h = &self.procs[w.holder.index()];
            (h.status == Status::Ready && w.count < w.credit).then_some(w.holder)
        });
        let (pid, new_window_credit) = match must_continue {
            Some(h) => (h, None),
            None => {
                // Candidate-holder scan, same reusable-buffer pattern.
                let mut cands = std::mem::take(&mut self.scratch_cands);
                cands.clear();
                cands.extend(
                    self.procs
                        .iter()
                        .filter(|p| p.status == Status::Ready && p.cpu == cpu && p.prio == prio)
                        .map(|p| p.pid),
                );
                debug_assert!(!cands.is_empty());
                let chosen = if cands.len() == 1 {
                    cands[0]
                } else {
                    match choose(
                        Choice::Holder { cpu, prio, options: &cands },
                        cands.len(),
                    ) {
                        Some(i) => {
                            assert!(i < cands.len(), "holder choice out of range");
                            taken[n_taken] = (DecisionKind::Holder, cands.len(), i);
                            n_taken += 1;
                            cands[i]
                        }
                        None => {
                            let arity = cands.len();
                            self.scratch_cands = cands;
                            return StepAttempt::NeedChoice { arity, kind: "holder" };
                        }
                    }
                };
                self.scratch_cands = cands;
                let q = self.quantum.max(1);
                let credit = if !self.procs[chosen.index()].ever_dispatched
                    && self.first_credit == FirstCreditMode::Adversarial
                    && q > 1
                {
                    match choose(Choice::FirstCredit { pid: chosen, quantum: q }, q as usize) {
                        Some(i) => {
                            assert!(i < q as usize, "first-credit choice out of range");
                            taken[n_taken] = (DecisionKind::FirstCredit, q as usize, i);
                            n_taken += 1;
                            i as u32 + 1
                        }
                        None => {
                            return StepAttempt::NeedChoice {
                                arity: q as usize,
                                kind: "first-credit",
                            }
                        }
                    }
                } else {
                    q
                };
                (chosen, Some(credit))
            }
        };

        // --- mutation phase ---
        self.counters.decisions += n_taken as u64;
        if self.observing() {
            for &(kind, arity, chosen) in &taken[..n_taken] {
                self.emit(ObsEvent::Decision { kind, arity, chosen });
            }
        }
        if let Some(credit) = new_window_credit {
            // Opening a fresh window. If the previous window's holder is
            // still ready mid-invocation and is being displaced, that is a
            // quantum preemption (lawful: its window was exhausted or
            // closed).
            if let Some(w) = win {
                if w.holder != pid {
                    let victim = &mut self.procs[w.holder.index()];
                    if victim.status == Status::Ready && victim.mid_invocation {
                        victim.stats.quantum_preemptions += 1;
                        self.counters.same_prio_preemptions += 1;
                        if self.observing() {
                            self.emit(ObsEvent::PreemptSame {
                                t: self.clock,
                                victim: w.holder,
                                by: pid,
                            });
                        }
                    }
                }
            }
            self.windows[cpu.index()].retain(|w| w.prio != prio);
            self.windows[cpu.index()].push(Window {
                holder: pid,
                prio,
                count: 0,
                credit,
                open: true,
            });
            self.counters.windows_opened += 1;
            if self.observing() {
                self.emit(ObsEvent::WindowOpen { t: self.clock, cpu, prio, holder: pid, credit });
            }
        }

        let t = self.clock;
        let idx = pid.index();
        if self.last_on_cpu[cpu.index()] != Some(pid) {
            self.last_on_cpu[cpu.index()] = Some(pid);
            if self.observing() {
                self.emit(ObsEvent::Dispatch { t, pid, cpu, prio });
            }
        }
        // Interleaving bookkeeping: mark every other mid-invocation process
        // on this cpu as interleaved, and account a preemption episode for
        // this process if it was interleaved since its last statement.
        let stepper_prio = prio;
        for p in &mut self.procs {
            if p.pid != pid && p.cpu == cpu && p.mid_invocation && p.status == Status::Ready {
                if p.prio == stepper_prio {
                    p.interleaved_same = true;
                } else if p.prio < stepper_prio {
                    p.interleaved_higher = true;
                }
            }
        }
        {
            let mut higher_resume = false;
            let p = &mut self.procs[idx];
            if p.interleaved_same {
                // already counted as quantum preemption at displacement time
            } else if p.interleaved_higher {
                p.stats.priority_preemptions += 1;
                higher_resume = true;
            }
            p.interleaved_same = false;
            p.interleaved_higher = false;
            p.ever_dispatched = true;
            if higher_resume {
                self.counters.higher_prio_preemptions += 1;
                if self.observing() {
                    self.emit(ObsEvent::PreemptHigher { t, victim: pid });
                }
            }
        }

        if !self.procs[idx].mid_invocation {
            // First statement of a new invocation — or the restart of one
            // aborted by a crash, which keeps the aborted attempt's
            // invocation time (it is the same operation).
            self.procs[idx].inv_start =
                self.procs[idx].aborted_inv_start.take().unwrap_or(t);
            if self.crashable {
                // Machines stage the next invocation eagerly at the
                // previous boundary, so this snapshot already carries the
                // staged operation: a crash-restore re-runs *this*
                // invocation, not a stale one.
                self.procs[idx].inv_snapshot = Some(self.procs[idx].machine.box_clone());
            }
            if self.observing() {
                let inv_index = self.procs[idx].stats.completed as u32;
                self.emit(ObsEvent::InvStart { t, pid, inv_index });
            }
        }
        // Labels are interned into the history's symbol table while a
        // recorder is attached; otherwise the discarding context makes the
        // whole label path a no-op (and allocation-free).
        let (outcome, label) = if self.record_history || self.obs.is_some() {
            let syms = &mut Arc::make_mut(&mut self.history).syms;
            let mut ctx = StepCtx::recording(pid, syms);
            // Split borrow: machine vs memory.
            let outcome = self.procs[idx].machine.step(&mut self.mem, &mut ctx);
            (outcome, ctx.take_label().unwrap_or(Sym::EMPTY))
        } else {
            let mut ctx = StepCtx::discarding(pid);
            let outcome = self.procs[idx].machine.step(&mut self.mem, &mut ctx);
            (outcome, Sym::EMPTY)
        };
        self.clock += 1;

        // Window and status updates.
        let w = self.windows[cpu.index()]
            .iter_mut()
            .find(|w| w.prio == prio && w.open)
            .expect("window opened above");
        debug_assert_eq!(w.holder, pid);
        w.count += 1;
        let (effect, finished) = match outcome {
            StepOutcome::Continue => (StmtEffect::Continue, false),
            StepOutcome::InvocationEnd => (StmtEffect::InvocationEnd, false),
            StepOutcome::Finished => (StmtEffect::Finished, true),
        };
        // The window closes at invocation boundaries. On quantum expiry it
        // stays open-but-exhausted so that the next dispatch can observe the
        // displaced holder and account the quantum preemption.
        if effect != StmtEffect::Continue {
            w.open = false;
        }
        // Axiom 2 window lifecycle, for the observability layer: the window
        // ends at an invocation boundary or when its credit runs out.
        let close_reason = match effect {
            StmtEffect::InvocationEnd => Some(WindowCloseReason::InvocationEnd),
            StmtEffect::Finished => Some(WindowCloseReason::Finished),
            StmtEffect::Continue if w.count >= w.credit => Some(WindowCloseReason::Expired),
            StmtEffect::Continue => None,
        };
        if close_reason == Some(WindowCloseReason::Expired) {
            // A quantum boundary crossed while the holder is inside an
            // object invocation — the schedule pressure Lemmas 2/3 bound.
            self.counters.quantum_expiries_mid_invocation += 1;
        }
        let output = {
            let p = &mut self.procs[idx];
            p.mid_invocation = effect == StmtEffect::Continue;
            p.stats.own_steps += 1;
            if finished {
                p.status = Status::Finished;
            }
            if effect != StmtEffect::Continue {
                p.stats.completed += 1;
                p.machine.output()
            } else {
                None
            }
        };
        self.counters.statements += 1;
        if effect != StmtEffect::Continue {
            self.counters.invocations_completed += 1;
            let rec = OpRecord {
                start: self.procs[idx].inv_start,
                t,
                pid,
                inv_index: self.procs[idx].machine_inv_index(),
                output,
            };
            Arc::make_mut(&mut self.ops).push(rec);
        }
        if self.observing() {
            let inv_index =
                if effect != StmtEffect::Continue { self.procs[idx].machine_inv_index() } else { 0 };
            self.emit(ObsEvent::Stmt { t, pid, cpu, prio, effect, label });
            // Keep the trace's symbol table a superset of the labels it
            // holds, so a detached trace is always self-contained.
            if let Some(tr) = self.obs.as_mut() {
                tr.syms.sync_from(&self.history.syms);
            }
            if effect != StmtEffect::Continue {
                self.emit(ObsEvent::InvEnd { t, pid, inv_index, output });
            }
            if let Some(reason) = close_reason {
                self.emit(ObsEvent::WindowClose { t, cpu, prio, holder: pid, reason });
            }
        }
        if self.record_history {
            Arc::make_mut(&mut self.history).events.push(Event {
                t,
                pid,
                cpu,
                prio,
                kind: EventKind::Stmt { label, effect, output },
            });
        }
        if self.track_hash {
            // Only the stepping process and this cpu's window list changed.
            self.refresh_proc_hash(idx);
            self.refresh_win_hash(cpu.index());
        }
        StepAttempt::Stepped(StepReport { t, pid, cpu, prio, outcome, label })
    }

    /// Executes one atomic statement, resolving decisions via `decider`.
    /// Scheduled lifecycle events due at the current clock fire first; if
    /// the system is quiescent but lifecycle events remain (e.g. everyone
    /// ready has crashed and a recovery is pending), the next group is
    /// early-fired and the step retried.
    ///
    /// Returns `None` when the system is quiescent (no ready process).
    pub fn step(&mut self, decider: &mut dyn Decider) -> Option<StepReport> {
        // Keep the common no-lifecycle hot path free of the firing loop:
        // one integer compare when no plan is pending.
        if self.lifecycle_cursor < self.lifecycle.len() {
            return self.step_with_lifecycle(decider);
        }
        match self.step_core(&mut |c, n| Some(decider.choose(c, n))) {
            StepAttempt::Stepped(r) => Some(r),
            StepAttempt::Quiescent => None,
            StepAttempt::NeedChoice { .. } => unreachable!("decider always answers"),
        }
    }

    /// [`Kernel::step`] with lifecycle events still pending: due events
    /// fire first, and a quiescent system early-fires the next group and
    /// retries (the clock only advances on statements, so a recovery
    /// scheduled past the last executable statement would otherwise never
    /// fire).
    #[cold]
    fn step_with_lifecycle(&mut self, decider: &mut dyn Decider) -> Option<StepReport> {
        self.fire_due_lifecycle();
        loop {
            match self.step_core(&mut |c, n| Some(decider.choose(c, n))) {
                StepAttempt::Stepped(r) => return Some(r),
                StepAttempt::Quiescent => {
                    if !self.fire_next_lifecycle_group() {
                        return None;
                    }
                }
                StepAttempt::NeedChoice { .. } => unreachable!("decider always answers"),
            }
        }
    }

    /// Attempts one statement using only the choices in `script` (consumed
    /// left to right). If the script runs out at a decision point, returns
    /// [`StepAttempt::NeedChoice`] **without modifying any state** — the
    /// exhaustive explorer forks here.
    pub fn step_scripted(&mut self, script: &[usize]) -> StepAttempt {
        let mut i = 0;
        self.step_core(&mut |_c, _n| {
            if i < script.len() {
                let v = script[i];
                i += 1;
                Some(v)
            } else {
                None
            }
        })
    }

    /// Runs until quiescent or `max_steps` statements, whichever first.
    /// Returns the number of statements executed.
    pub fn run(&mut self, decider: &mut dyn Decider, max_steps: u64) -> u64 {
        let mut n = 0;
        while n < max_steps {
            if self.step(decider).is_none() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Component hash of one process's scheduling-relevant state, salted
    /// with its index and a domain tag so components of different processes
    /// (and of window lists) cannot cancel under the XOR fold. `seed`
    /// keys the hasher: the second hash of [`HashCfg::wide`] is a separate
    /// hash function, not a relabeling of the first.
    fn proc_component(p: &ProcEntry<M>, index: usize, seed: u64) -> u64 {
        let mut h = FoldHasher::new(seed);
        h.write_u64(0xA5 << 56 | index as u64);
        p.machine.state_key(&mut h);
        h.write_u64(p.status_word());
        h.finish()
    }

    /// Index-free process descriptor for the symmetry-canonical hash: two
    /// processes with identical machine state and status get identical
    /// descriptors, making them interchangeable in the canonical fold.
    fn proc_desc(p: &ProcEntry<M>, seed: u64) -> u64 {
        let mut h = FoldHasher::new(seed);
        h.write_u64(0xC3 << 56);
        p.machine.state_key(&mut h);
        h.write_u64(p.status_word());
        h.finish()
    }

    /// Component hash of one processor's open windows.
    fn win_component(ws: &[Window], cpu_index: usize, seed: u64) -> u64 {
        let mut h = FoldHasher::new(seed);
        h.write_u64(0x5A << 56 | cpu_index as u64);
        for w in ws.iter().filter(|w| w.open) {
            h.write_u64(u64::from(w.holder.0) | u64::from(w.prio.0) << 32);
            h.write_u64(u64::from(w.count) | u64::from(w.credit) << 32);
        }
        h.finish()
    }

    /// Rebuilds the component tables and accumulator(s) from scratch.
    fn rebuild_hash_acc(&mut self) {
        self.proc_hash.clear();
        self.proc_hash
            .extend(self.procs.iter().enumerate().map(|(i, p)| Self::proc_component(p, i, 0)));
        self.win_hash.clear();
        self.win_hash
            .extend(self.windows.iter().enumerate().map(|(i, ws)| Self::win_component(ws, i, 0)));
        self.hash_acc = self.proc_hash.iter().chain(&self.win_hash).fold(0, |a, c| a ^ c);
        if self.hash_cfg.wide {
            self.proc_hash2.clear();
            self.proc_hash2.extend(
                self.procs.iter().enumerate().map(|(i, p)| Self::proc_component(p, i, WIDE_SEED)),
            );
            self.win_hash2.clear();
            self.win_hash2.extend(
                self.windows
                    .iter()
                    .enumerate()
                    .map(|(i, ws)| Self::win_component(ws, i, WIDE_SEED)),
            );
            self.hash_acc2 =
                self.proc_hash2.iter().chain(&self.win_hash2).fold(0, |a, c| a ^ c);
        }
    }

    /// Turns on incremental [`Kernel::state_hash`] maintenance: after this,
    /// each step refreshes only the stepping process's and cpu's hash
    /// components, making repeated `state_hash` calls O(|mem|). The
    /// explorer enables this on its root clone; decider-driven runs that
    /// never hash skip the bookkeeping entirely. Clones inherit the flag.
    pub fn track_state_hash(&mut self) {
        self.track_state_hash_cfg(HashCfg::default());
    }

    /// Like [`Kernel::track_state_hash`], with an explicit [`HashCfg`].
    ///
    /// With `symmetric` set, the canonical hash is recomputed per
    /// [`Kernel::state_hash`] call (an allocation-free O(processes +
    /// windows) multiset sum, one descriptor per process); otherwise the usual
    /// incremental accumulator is maintained, twice over when `wide` is
    /// set.
    pub fn track_state_hash_cfg(&mut self, cfg: HashCfg) {
        self.hash_cfg = cfg;
        self.track_hash = !cfg.symmetric;
        if self.track_hash {
            self.rebuild_hash_acc();
        }
    }

    fn refresh_proc_hash(&mut self, idx: usize) {
        let c = Self::proc_component(&self.procs[idx], idx, 0);
        self.hash_acc ^= self.proc_hash[idx] ^ c;
        self.proc_hash[idx] = c;
        if self.hash_cfg.wide {
            let c2 = Self::proc_component(&self.procs[idx], idx, WIDE_SEED);
            self.hash_acc2 ^= self.proc_hash2[idx] ^ c2;
            self.proc_hash2[idx] = c2;
        }
    }

    fn refresh_win_hash(&mut self, cpu_index: usize) {
        let c = Self::win_component(&self.windows[cpu_index], cpu_index, 0);
        self.hash_acc ^= self.win_hash[cpu_index] ^ c;
        self.win_hash[cpu_index] = c;
        if self.hash_cfg.wide {
            let c2 = Self::win_component(&self.windows[cpu_index], cpu_index, WIDE_SEED);
            self.hash_acc2 ^= self.win_hash2[cpu_index] ^ c2;
            self.win_hash2[cpu_index] = c2;
        }
    }

    /// The XOR fold recomputed from scratch; the incremental `hash_acc`
    /// must always equal this (checked by a debug assertion in
    /// [`Kernel::state_hash`]).
    fn compute_hash_acc(&self, seed: u64) -> u64 {
        let mut acc = 0;
        for (i, p) in self.procs.iter().enumerate() {
            acc ^= Self::proc_component(p, i, seed);
        }
        for (i, ws) in self.windows.iter().enumerate() {
            acc ^= Self::win_component(ws, i, seed);
        }
        acc
    }

    /// The symmetry-canonical scheduler fold under `seed`, a multiset
    /// hash that needs no sorting and no allocation. Per processor, each
    /// process contributes a mixed `(priority, descriptor)` element and
    /// each open window a mixed `(priority, count, credit,
    /// holder-descriptor)` element; the elements are *summed* (mod 2⁶⁴), so
    /// the per-processor hash is invariant under any permutation of its
    /// processes. Unequal priorities give different elements, so only
    /// equal-priority processes are interchangeable. The per-processor
    /// hashes are summed too, which makes whole processors interchangeable.
    /// Sums, unlike XOR, keep multiplicities: two identical processes do
    /// not cancel.
    fn sym_fold(&self, seed: u64) -> u64 {
        // Fixed-key element mixers: the descriptors inside are already
        // keyed by `seed`.
        const PROC_ELEM: FoldHasher = FoldHasher::new(0x3C01);
        const WIN_ELEM: FoldHasher = FoldHasher::new(0x3C02);
        let mut total = 0u64;
        for c in 0..self.n_cpus {
            let (mut procs, mut wins) = (0u64, 0u64);
            for p in self.procs.iter().filter(|p| p.cpu.index() == c) {
                let desc = Self::proc_desc(p, seed);
                let mut e = PROC_ELEM;
                e.write_u64(desc);
                e.write_u32(p.prio.0);
                procs = procs.wrapping_add(e.finish());
                // A window's holder runs on the window's processor, so
                // every open window of `c` is met here exactly once.
                for w in self.windows[c].iter().filter(|w| w.open && w.holder == p.pid) {
                    let mut e = WIN_ELEM;
                    e.write_u64(desc);
                    e.write_u64(u64::from(w.prio.0) | u64::from(w.count) << 32);
                    e.write_u32(w.credit);
                    wins = wins.wrapping_add(e.finish());
                }
            }
            let mut h = FoldHasher::new(seed);
            h.write_u64(0x3C << 56);
            h.write_u64(procs);
            h.write_u64(wins);
            total = total.wrapping_add(h.finish());
        }
        total
    }

    /// One 64-bit state hash under `seed` (0 = primary), honoring the
    /// symmetric mode of the active [`HashCfg`].
    fn state_hash_seeded(&self, seed: u64) -> u64
    where
        M: Hash,
    {
        let acc = if self.hash_cfg.symmetric {
            self.sym_fold(seed)
        } else if self.track_hash {
            let inc = if seed == 0 { self.hash_acc } else { self.hash_acc2 };
            debug_assert_eq!(
                inc,
                self.compute_hash_acc(seed),
                "incremental state-hash accumulator diverged from a full recomputation"
            );
            inc
        } else {
            self.compute_hash_acc(seed)
        };
        let mut h = FoldHasher::new(seed);
        self.mem.hash(&mut h);
        h.write_u64(acc);
        h.finish()
    }

    /// Hashes the complete scheduling-relevant state (memory, machines,
    /// statuses, windows) for visited-state deduplication. Requires
    /// `M: Hash`.
    ///
    /// In the default (exact) mode the process and window contributions
    /// are maintained incrementally — each step refreshes only the
    /// stepping process's and cpu's components — so this costs O(|mem|)
    /// per call rather than a full rescan. In the symmetric mode of
    /// [`Kernel::track_state_hash_cfg`] the canonical fold is recomputed
    /// per call.
    pub fn state_hash(&self) -> u64
    where
        M: Hash,
    {
        self.state_hash_seeded(0)
    }

    /// The 128-bit state-hash key: low 64 bits are [`Kernel::state_hash`];
    /// with [`HashCfg::wide`] the high 64 bits are an independently seeded
    /// second hash of the same state, otherwise zero. Used by the explorer
    /// to shrink the false-prune (dedup-collision) probability.
    pub fn state_hash_wide(&self) -> u128
    where
        M: Hash,
    {
        let lo = u128::from(self.state_hash_seeded(0));
        if self.hash_cfg.wide {
            (u128::from(self.state_hash_seeded(WIDE_SEED)) << 64) | lo
        } else {
            lo
        }
    }

    /// Partial-order-reduction metadata for the *pending* cpu decision
    /// (the state where [`Kernel::step_scripted`] with an empty script
    /// reports `NeedChoice { kind: "cpu", .. }`).
    ///
    /// Returns `Some(i)` — an index into the runnable-cpu options, in the
    /// same ascending order the decision exposes — when restricting the
    /// search to choice `i` is sound: every statement that could execute
    /// next on that cpu has a declared [`Footprint`] independent of the
    /// may-footprint of every ready process on every other cpu. Scheduler
    /// state (windows, candidate sets, credits) is per-processor by
    /// construction and a step mutates only its own cpu's share, so shared
    /// memory is the only channel coupling processors: with disjoint
    /// footprints each deferred cross-cpu step commutes with the chosen
    /// one, the chosen cpu's options form a singleton persistent set (per
    /// processor — its holder/first-credit sub-choices are still explored
    /// in full), and every quiescent state of the full schedule tree
    /// remains reachable in the reduced tree.
    ///
    /// Returns `None` when fewer than two cpus are runnable or no cpu
    /// qualifies. Held processes are ignored: nothing releases them during
    /// an exploration.
    pub fn ample_cpu_choice(&self) -> Option<usize> {
        // The runnable cpus in ascending order, without collecting them;
        // fewer than two leave nothing to choose.
        let cpus = (0..self.n_cpus as u32).map(ProcessorId).filter(|&c| {
            self.procs.iter().any(|p| p.status == Status::Ready && p.cpu == c)
        });
        cpus.clone().nth(1)?;
        for (i, cpu) in cpus.enumerate() {
            let fp = self.pending_step_footprint(cpu);
            if fp == Footprint::Unknown {
                continue;
            }
            let mut others = Footprint::LOCAL;
            for p in &self.procs {
                if p.cpu != cpu && p.status == Status::Ready {
                    others = others.union(p.machine.may_footprint());
                }
            }
            if fp.independent(others) {
                return Some(i);
            }
        }
        None
    }

    /// Union footprint of the statement(s) that could execute next on
    /// `cpu`: the continuing window holder's next statement if the open
    /// window forces continuation, otherwise the next statements of every
    /// candidate holder at the top ready priority.
    fn pending_step_footprint(&self, cpu: ProcessorId) -> Footprint {
        let Some(prio) = self.top_priority(cpu) else {
            return Footprint::Unknown;
        };
        let win = self.windows[cpu.index()].iter().find(|w| w.prio == prio && w.open);
        if let Some(w) = win {
            let h = &self.procs[w.holder.index()];
            if h.status == Status::Ready && w.count < w.credit {
                return h.machine.next_footprint();
            }
        }
        self.procs
            .iter()
            .filter(|p| p.status == Status::Ready && p.cpu == cpu && p.prio == prio)
            .fold(Footprint::LOCAL, |acc, p| acc.union(p.machine.next_footprint()))
    }
}

impl<M> ProcEntry<M> {
    /// A fresh copy of this entry (new machine boxes).
    fn fork(&self) -> Self {
        ProcEntry {
            pid: self.pid,
            cpu: self.cpu,
            prio: self.prio,
            machine: self.machine.box_clone(),
            status: self.status,
            mid_invocation: self.mid_invocation,
            ever_dispatched: self.ever_dispatched,
            interleaved_same: self.interleaved_same,
            interleaved_higher: self.interleaved_higher,
            inv_start: self.inv_start,
            aborted_inv_start: self.aborted_inv_start,
            inv_snapshot: self.inv_snapshot.as_ref().map(|m| m.box_clone()),
            stats: self.stats,
        }
    }

    /// Overwrites this entry with `src`, reusing the machine boxes.
    fn copy_from(&mut self, src: &Self) {
        self.pid = src.pid;
        self.cpu = src.cpu;
        self.prio = src.prio;
        src.machine.clone_into_box(&mut self.machine);
        self.status = src.status;
        self.mid_invocation = src.mid_invocation;
        self.ever_dispatched = src.ever_dispatched;
        self.interleaved_same = src.interleaved_same;
        self.interleaved_higher = src.interleaved_higher;
        self.inv_start = src.inv_start;
        self.aborted_inv_start = src.aborted_inv_start;
        match (&mut self.inv_snapshot, &src.inv_snapshot) {
            (Some(d), Some(s)) => s.clone_into_box(d),
            (d, s) => *d = s.as_ref().map(|m| m.box_clone()),
        }
        self.stats = src.stats;
    }

    /// The scheduler-visible status bits, packed into one hash word.
    fn status_word(&self) -> u64 {
        u64::from(self.status.rank())
            | u64::from(self.mid_invocation) << 2
            | u64::from(self.ever_dispatched) << 3
    }

    fn machine_inv_index(&self) -> u32 {
        // Completed invocations = stats.completed; the op being recorded is
        // the one that just completed.
        (self.stats.completed - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{RoundRobin, Scripted, SeededRandom};
    use crate::history::check_well_formed;
    use crate::machine::FnMachine;

    /// A machine that appends its tag to a shared log, `len` statements per
    /// invocation, `invs` invocations.
    fn logger(tag: u64, len: u32, invs: u32) -> Box<dyn StepMachine<Vec<u64>>> {
        Box::new(FnMachine::new(move |mem: &mut Vec<u64>, calls| {
            mem.push(tag);
            let done_in_inv = (calls + 1) % len == 0;
            if done_in_inv && (calls + 1) / len >= invs {
                (StepOutcome::Finished, Some(u64::from(calls + 1)))
            } else if done_in_inv {
                (StepOutcome::InvocationEnd, Some(u64::from(calls + 1)))
            } else {
                (StepOutcome::Continue, None)
            }
        }))
    }

    #[test]
    fn single_process_runs_to_completion() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        let p = k.add_process(ProcessorId(0), Priority(1), logger(7, 3, 1));
        let mut d = RoundRobin::new();
        assert_eq!(k.run(&mut d, 100), 3);
        assert!(k.is_finished(p));
        assert_eq!(k.mem, vec![7, 7, 7]);
        assert_eq!(k.output(p), Some(3));
    }

    #[test]
    fn axiom1_higher_priority_runs_first() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        let _lo = k.add_process(ProcessorId(0), Priority(1), logger(1, 3, 1));
        let _hi = k.add_process(ProcessorId(0), Priority(2), logger(2, 3, 1));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![2, 2, 2, 1, 1, 1]);
    }

    #[test]
    fn axiom1_release_preempts_immediately() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(10));
        let _lo = k.add_process(ProcessorId(0), Priority(1), logger(1, 6, 1));
        let hi = k.add_held_process(ProcessorId(0), Priority(2), logger(2, 2, 1));
        let mut d = RoundRobin::new();
        // run two statements of lo, then release hi
        k.step(&mut d);
        k.step(&mut d);
        k.release(hi);
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 1, 2, 2, 1, 1, 1, 1]);
        // lo was preempted once by a higher-priority process
        assert_eq!(k.stats(ProcessId(0)).priority_preemptions, 1);
    }

    #[test]
    fn axiom2_quantum_windows_round_robin() {
        // Two equal-priority processes, quantum 2, invocation length 4:
        // fair round-robin alternates windows of exactly 2 statements.
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(2));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 4, 1));
        k.add_process(ProcessorId(0), Priority(1), logger(2, 4, 1));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 1, 2, 2, 1, 1, 2, 2]);
        assert_eq!(k.stats(ProcessId(0)).quantum_preemptions, 1);
        assert_eq!(k.stats(ProcessId(1)).quantum_preemptions, 1);
    }

    #[test]
    fn window_survives_higher_priority_preemption() {
        // Axiom 2: hi's arrival must not let the other equal-priority
        // process slip in before lo finishes its quantum.
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4).with_history());
        let _a = k.add_process(ProcessorId(0), Priority(1), logger(1, 4, 1));
        let _b = k.add_process(ProcessorId(0), Priority(1), logger(2, 4, 1));
        let hi = k.add_held_process(ProcessorId(0), Priority(2), logger(9, 2, 1));
        let mut d = RoundRobin::new();
        k.step(&mut d); // a: 1 stmt into its window
        k.release(hi);
        k.run(&mut d, 100);
        // hi runs, then a RESUMES its window (3 more stmts) before b.
        assert_eq!(k.mem, vec![1, 9, 9, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(check_well_formed(k.history()), Ok(()));
    }

    #[test]
    fn invocation_end_closes_window() {
        // Quantum 10 but invocations of length 2: windows close at
        // invocation boundaries, so processes alternate every 2 statements.
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(10));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 2, 2));
        k.add_process(ProcessorId(0), Priority(1), logger(2, 2, 2));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 1, 2, 2, 1, 1, 2, 2]);
        // No quantum preemptions: all switches at invocation boundaries.
        assert_eq!(k.stats(ProcessId(0)).quantum_preemptions, 0);
        assert_eq!(k.stats(ProcessId(1)).quantum_preemptions, 0);
    }

    #[test]
    fn multiprocessor_interleaving_is_decider_controlled() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 2, 1));
        k.add_process(ProcessorId(1), Priority(1), logger(2, 2, 1));
        // Script: cpu1, cpu0, cpu1, cpu0 (choices index into runnable list)
        let mut d = Scripted::new(vec![1, 0, 1, 0]);
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![2, 1, 2, 1]);
    }

    #[test]
    fn scripted_step_aborts_without_mutation() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 2, 1));
        k.add_process(ProcessorId(1), Priority(1), logger(2, 2, 1));
        let before = k.clock();
        match k.step_scripted(&[]) {
            StepAttempt::NeedChoice { arity, kind } => {
                assert_eq!(arity, 2);
                assert_eq!(kind, "cpu");
            }
            other => panic!("expected NeedChoice, got {other:?}"),
        }
        assert_eq!(k.clock(), before);
        assert!(k.mem.is_empty());
        // With a complete script the same step succeeds.
        assert!(matches!(k.step_scripted(&[0]), StepAttempt::Stepped(_)));
        assert_eq!(k.mem, vec![1]);
    }

    #[test]
    fn adversarial_first_credit_allows_early_preemption() {
        let mut k = Kernel::new(
            Vec::new(),
            SystemSpec::hybrid(4).with_adversarial_alignment().with_history(),
        );
        k.add_process(ProcessorId(0), Priority(1), logger(1, 4, 1));
        k.add_process(ProcessorId(0), Priority(1), logger(2, 4, 1));
        // holder choice 0 (p0), first-credit choice 0 (credit 1), then
        // holder p1 with full credit.
        let mut d = Scripted::new(vec![0, 0, 1, 3]);
        k.run(&mut d, 100);
        assert_eq!(&k.mem[..5], &[1, 2, 2, 2, 2]);
        // The short first window is lawful per the model.
        assert_eq!(check_well_formed(k.history()), Ok(()));
    }

    #[test]
    fn histories_from_random_runs_are_well_formed() {
        for seed in 0..30 {
            let mut k = Kernel::new(
                Vec::new(),
                SystemSpec::hybrid(3).with_adversarial_alignment().with_history(),
            );
            k.add_process(ProcessorId(0), Priority(1), logger(1, 5, 2));
            k.add_process(ProcessorId(0), Priority(1), logger(2, 5, 2));
            k.add_process(ProcessorId(0), Priority(2), logger(3, 4, 1));
            k.add_process(ProcessorId(1), Priority(1), logger(4, 5, 1));
            let mut d = SeededRandom::new(seed);
            k.run(&mut d, 10_000);
            assert!(k.all_finished());
            check_well_formed(k.history()).unwrap_or_else(|v| {
                panic!("seed {seed}: ill-formed history: {v}");
            });
        }
    }

    #[test]
    fn ops_record_completions_in_order() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(8));
        let p = k.add_process(ProcessorId(0), Priority(1), logger(1, 2, 3));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        let ops = k.ops();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].pid, p);
        assert_eq!(ops[0].inv_index, 0);
        assert_eq!(ops[2].inv_index, 2);
    }

    #[test]
    fn state_hash_changes_with_progress() {
        let mut k = Kernel::new(0u64, SystemSpec::hybrid(4));
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
        let h0 = k.state_hash();
        let mut d = RoundRobin::new();
        k.step(&mut d);
        assert_ne!(h0, k.state_hash());
    }

    #[test]
    fn clone_forks_independent_executions() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 3, 1));
        let mut d = RoundRobin::new();
        k.step(&mut d);
        let mut k2 = k.clone();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 1, 1]);
        assert_eq!(k2.mem, vec![1]);
        let mut d2 = RoundRobin::new();
        k2.run(&mut d2, 100);
        assert_eq!(k2.mem, vec![1, 1, 1]);
    }

    /// A two-invocation, three-statement counter program over a shared
    /// `u64`: each invocation adds its locals' `step` to memory three
    /// times and returns the running total.
    fn counter_machine(step: u64) -> Box<dyn StepMachine<u64>> {
        use crate::program::{Flow, ProgMachine, ProgramBuilder};
        let mut b = ProgramBuilder::<(u64, u64), u64>::new();
        let op = b.proc("op");
        for i in 0..3 {
            b.stmt(op, "add", move |l, m| {
                *m += l.0;
                l.1 = *m;
                if i == 2 { Flow::Return } else { Flow::Next }
            });
        }
        let prog = b.build();
        let plan = Arc::new(move |_: &mut (u64, u64), k: u32| (k < 2).then_some(op));
        Box::new(ProgMachine::with_plan(&prog, (step, 0), plan).with_output(|l| Some(l.1)))
    }

    /// Steps `fresh` and `recycled` in lockstep under one seeded decider
    /// each (same seed, so the same decisions), checking after every step
    /// that the two kernels are indistinguishable.
    fn assert_forks_agree(mut fresh: Kernel<u64>, mut recycled: Kernel<u64>, seed: u64) {
        let (mut da, mut db) = (SeededRandom::new(seed), SeededRandom::new(seed));
        let same = |a: &Kernel<u64>, b: &Kernel<u64>, at: usize| {
            assert_eq!(a.state_hash_wide(), b.state_hash_wide(), "state hash at step {at}");
            assert_eq!(a.mem, b.mem, "memory at step {at}");
            assert_eq!(a.n_processes(), b.n_processes());
            for p in 0..a.n_processes() as u32 {
                assert_eq!(a.output(ProcessId(p)), b.output(ProcessId(p)), "output at step {at}");
                assert_eq!(a.stats(ProcessId(p)), b.stats(ProcessId(p)));
            }
            assert_eq!(a.ops(), b.ops(), "ops at step {at}");
            assert_eq!(a.counters(), b.counters(), "counters at step {at}");
            assert_eq!(a.lifecycle_pending(), b.lifecycle_pending());
            assert_eq!(a.obs(), b.obs(), "trace at step {at}");
            assert_eq!(a.prof(), b.prof(), "profile at step {at}");
        };
        same(&fresh, &recycled, 0);
        for at in 1..=200 {
            let (ra, rb) = (fresh.step(&mut da), recycled.step(&mut db));
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "step report at step {at}");
            same(&fresh, &recycled, at);
            if ra.is_none() {
                return;
            }
        }
        panic!("run did not quiesce");
    }

    /// A dirty fork target: a crashable kernel of another shape, run for
    /// a while, so it holds invocation snapshots of its own.
    fn dead_kernel(procs: u32) -> Kernel<u64> {
        let mut k = Kernel::new(0u64, SystemSpec::hybrid(2).with_adversarial_alignment());
        k.enable_crashes();
        for p in 0..procs {
            k.add_process(ProcessorId(p % 2), Priority(1 + p % 2), counter_machine(10 + u64::from(p)));
        }
        k.track_state_hash_cfg(HashCfg { symmetric: false, wide: true });
        k.attach_obs();
        k.run(&mut SeededRandom::new(99), 7);
        k
    }

    /// `clone_from` into a recycled kernel must equal a fresh `clone`:
    /// same hashes, outputs, op log, counters and step reports along a
    /// whole run, for every kind of source.
    #[test]
    fn recycled_fork_equals_fresh_clone() {
        // A crashable kernel mid-run: a pending lifecycle plan, a fired
        // crash and a captured invocation snapshot.
        let mut crashy = Kernel::new(0u64, SystemSpec::hybrid(3).with_adversarial_alignment());
        for p in 0..3u32 {
            crashy.add_process(ProcessorId(p % 2), Priority(1), counter_machine(1 << p));
        }
        crashy.track_state_hash_cfg(HashCfg { symmetric: false, wide: true });
        crashy.schedule_crash(2, ProcessId(0));
        crashy.schedule_recover(5, ProcessId(0));
        crashy.run(&mut SeededRandom::new(1), 4);
        assert!(crashy.counters().crashes > 0);
        // Fork while pid 1 is inside an invocation, with its crash due at
        // the very next step: the copies must restore pid 1 from the
        // source's invocation snapshot, not from the one the dead kernel
        // held.
        let mut d = SeededRandom::new(1);
        while !crashy.procs[1].mid_invocation {
            crashy.step(&mut d).expect("pid 1 gets to run");
        }
        crashy.schedule_crash(crashy.clock(), ProcessId(1));
        crashy.schedule_recover(crashy.clock() + 3, ProcessId(1));
        assert!(crashy.lifecycle_pending() > 0);

        // Observed and profiled, under the symmetric canonical hash.
        let mut watched = Kernel::new(0u64, SystemSpec::hybrid(2).with_history());
        for _ in 0..3 {
            watched.add_process(ProcessorId(0), Priority(1), counter_machine(5));
        }
        watched.track_state_hash_cfg(HashCfg { symmetric: true, wide: true });
        watched.attach_obs();
        watched.attach_prof();
        watched.run(&mut SeededRandom::new(2), 3);

        // FnMachines: the `box_clone` fallback of `clone_into_box`.
        let mut closures = Kernel::new(0u64, SystemSpec::hybrid(4));
        for tag in 0..2u64 {
            closures.add_process(
                ProcessorId(tag as u32),
                Priority(1),
                Box::new(FnMachine::new(move |mem: &mut u64, calls| {
                    *mem = *mem * 3 + tag;
                    if calls == 3 { (StepOutcome::Finished, Some(*mem)) } else { (StepOutcome::Continue, None) }
                })),
            );
        }
        closures.track_state_hash();
        closures.run(&mut SeededRandom::new(3), 2);

        for (i, src) in [crashy, watched, closures].iter().enumerate() {
            // Fewer, as many and more processes than the source.
            for dead_procs in [1, src.n_processes() as u32, 5] {
                let mut recycled = dead_kernel(dead_procs);
                recycled.clone_from(src);
                assert_forks_agree(src.clone(), recycled, 40 + i as u64);
            }
        }
    }

    #[test]
    fn quantum_zero_means_free_interleaving() {
        // Pure priority-scheduled degeneration: equal-priority processes
        // may alternate at every statement.
        let mut k = Kernel::new(Vec::new(), SystemSpec::pure_priority());
        k.add_process(ProcessorId(0), Priority(1), logger(1, 3, 1));
        k.add_process(ProcessorId(0), Priority(1), logger(2, 3, 1));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 2, 1, 2, 1, 2]);
    }
}
