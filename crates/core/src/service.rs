//! The universal construction as a statement-level machine, and the
//! long-lived worker **sessions** that serve requests with it.
//!
//! [`SessionMachine`] is the simulator's one implementation of the
//! [`crate::universal`] construction: a machine over the shared
//! [`UniversalMem`] executing three counted statements per operation —
//! `a1` announce, `a2` decide-and-replay with round-robin helping, `a3`
//! retract-and-return. A request server's worker lives as long as the
//! service does, issuing a stream of operations against the same shared
//! object on behalf of many multiplexed clients; a one-shot experiment is
//! the special case of one client with a fixed op list and no think-time
//! ([`op_machine`](crate::universal::op_machine)). A session:
//!
//! * *generates operations on demand* from `(client, client_seq)` by an
//!   [`OpGen`] closure, so a million-request stream costs no per-op
//!   staging memory;
//! * multiplexes a contiguous client slice: its `j`-th request is issued
//!   on behalf of client `lo + (j mod count)`, request number
//!   `j div count` of that client;
//! * optionally precedes every request with a **think phase** of `think`
//!   counted statements as its own invocation (reported with no output),
//!   so a closed-loop worker yields its quantum between requests exactly
//!   like a server thread blocking on the next request;
//! * allocates nothing in the steady state: [`session_mem`] pre-sizes the
//!   log and per-worker op arenas, so `a1`'s push and `a2`'s replay never
//!   grow a buffer (the service determinism suite counts allocations).
//!
//! The scheduling front door lives in `sched_sim::service`; the
//! `lowerbound::service` grid wires these machines into it for
//! `experiments --service`.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sched_sim::machine::{StepCtx, StepMachine, StepOutcome};
use wfmem::Val;

use crate::oracle::SeqSpec;
use crate::universal::{op_token, token_pid, token_seq, UniversalMem};

/// Generates the session's operations on demand: `(client, client_seq)`
/// is the `client_seq`-th request of global client `client`.
pub type OpGen<S> = Arc<dyn Fn(u64, u64) -> <S as SeqSpec>::Op + Send + Sync>;

/// Where the session is inside its current invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Phase {
    /// Thinking: `left` more counted no-op statements before the request.
    Think(u32),
    /// About to announce the staged operation.
    A1,
    /// In the decide-and-replay helping loop.
    A2,
    /// Own token decided; about to retract and return.
    A3,
}

/// A long-lived worker session against a [`UniversalMem`] object: performs
/// `requests` generated operations (each optionally preceded by a think
/// invocation), then finishes. See the [module docs](self).
pub struct SessionMachine<S: SeqSpec>
where
    S::State: Hash,
    S::Op: Hash + Eq,
{
    spec: S,
    me: u32,
    requests: u64,
    think: u32,
    client_lo: u64,
    client_count: u64,
    gen: OpGen<S>,
    // -- dynamic state --
    state: S::State,
    applied: Vec<u32>,
    k: u32,
    seq: u32,
    done: u64,
    phase: Phase,
    my_op: Option<S::Op>,
    my_token: Val,
    ret: Option<Val>,
    out: Option<u64>,
}

impl<S> SessionMachine<S>
where
    S: SeqSpec + Clone,
    S::State: Hash,
    S::Op: Hash + Eq,
{
    /// A session for process `me` of `n`, performing `requests` operations
    /// generated by `gen` on behalf of the client slice
    /// `clients = (first, count)`, with `think` counted statements of
    /// think-time before each request (0 = back-to-back).
    ///
    /// # Panics
    ///
    /// If the session would be empty (`requests == 0` or `count == 0`).
    pub fn new(
        spec: S,
        me: u32,
        n: u32,
        requests: u64,
        think: u32,
        clients: (u64, u64),
        gen: OpGen<S>,
    ) -> Self {
        assert!(requests > 0, "a session must serve at least one request");
        assert!(clients.1 > 0, "a session must multiplex at least one client");
        let state = spec.init();
        let mut m = SessionMachine {
            spec,
            me,
            requests,
            think,
            client_lo: clients.0,
            client_count: clients.1,
            gen,
            state,
            applied: vec![0; n as usize],
            k: 0,
            seq: 0,
            done: 0,
            phase: Phase::A1,
            my_op: None,
            my_token: 0,
            ret: None,
            out: None,
        };
        m.stage();
        m.phase = m.entry_phase();
        m
    }

    /// The phase an invocation cycle starts in.
    fn entry_phase(&self) -> Phase {
        if self.think > 0 {
            Phase::Think(self.think)
        } else {
            Phase::A1
        }
    }

    /// Stages the next request: generates the op for the multiplexed
    /// client and claims the next token.
    fn stage(&mut self) {
        let j = self.done;
        let client = self.client_lo + j % self.client_count;
        let client_seq = j / self.client_count;
        self.my_op = Some((self.gen)(client, client_seq));
        self.my_token = op_token(self.me, self.seq);
        self.seq += 1;
        self.ret = None;
    }
}

impl<S> Clone for SessionMachine<S>
where
    S: SeqSpec + Clone,
    S::State: Hash,
    S::Op: Hash + Eq,
{
    fn clone(&self) -> Self {
        SessionMachine {
            spec: self.spec.clone(),
            me: self.me,
            requests: self.requests,
            think: self.think,
            client_lo: self.client_lo,
            client_count: self.client_count,
            gen: self.gen.clone(),
            state: self.state.clone(),
            applied: self.applied.clone(),
            k: self.k,
            seq: self.seq,
            done: self.done,
            phase: self.phase,
            my_op: self.my_op.clone(),
            my_token: self.my_token,
            ret: self.ret,
            out: self.out,
        }
    }
}

impl<S> StepMachine<UniversalMem<S>> for SessionMachine<S>
where
    S: SeqSpec + Clone + Send + Sync + 'static,
    S::State: Hash + Send + Sync + 'static,
    S::Op: Hash + Eq + Send + Sync + 'static,
{
    fn step(&mut self, m: &mut UniversalMem<S>, ctx: &mut StepCtx<'_>) -> StepOutcome {
        match self.phase {
            Phase::Think(left) => {
                ctx.label("t: think");
                if left > 1 {
                    self.phase = Phase::Think(left - 1);
                    StepOutcome::Continue
                } else {
                    // The think invocation completes with no output: its
                    // kernel record is not a request.
                    self.out = None;
                    self.phase = Phase::A1;
                    StepOutcome::InvocationEnd
                }
            }
            Phase::A1 => {
                ctx.label("a1: announce[p] := (token, op)");
                let op = self.my_op.clone().expect("operation staged");
                // Push-once: a crash-and-restart re-runs this statement
                // with the same token, and the op log is indexed by sequence
                // number — a second push would shift every later op of this
                // process. The re-announce is idempotent (same token, op).
                let row = &mut m.ops[self.me as usize];
                if row.len() as u32 == token_seq(self.my_token) {
                    row.push(op.clone());
                } else {
                    debug_assert!(row.len() as u32 > token_seq(self.my_token));
                }
                m.announce[self.me as usize] = Some((self.my_token, op));
                self.phase = Phase::A2;
                StepOutcome::Continue
            }
            Phase::A2 => {
                ctx.label("a2: decide(log[k], help ?: own)");
                // Helping: prefer the announced pending op of process
                // k mod N.
                let helpee = (self.k % m.n) as usize;
                let proposal = match &m.announce[helpee] {
                    Some((tok, _)) => *tok,
                    None => self.my_token,
                };
                if proposal == self.my_token {
                    m.counters.own_proposals += 1;
                } else {
                    m.counters.helped_proposals += 1;
                }
                let slot = self.k as usize;
                assert!(slot < m.log.len(), "universal log capacity exceeded");
                let decided = m.log[slot].decide(proposal);
                self.k += 1;
                let (winner, wseq) = (token_pid(decided), token_seq(decided));
                if wseq != self.applied[winner as usize] {
                    // Duplicate slot (helper re-proposed an applied
                    // token): skip it in the replay.
                    debug_assert!(wseq < self.applied[winner as usize]);
                    m.counters.duplicate_retries += 1;
                    return StepOutcome::Continue;
                }
                // First occurrence: replay on the private replica.
                let op = m.ops[winner as usize][wseq as usize].clone();
                let (next, result) = self.spec.apply(&self.state, &op);
                self.state = next;
                self.applied[winner as usize] += 1;
                if decided == self.my_token {
                    self.ret = Some(result);
                    self.phase = Phase::A3;
                }
                StepOutcome::Continue
            }
            Phase::A3 => {
                ctx.label("a3: announce[p] := ⊥; return result");
                m.announce[self.me as usize] = None;
                self.out = self.ret;
                self.done += 1;
                if self.done == self.requests {
                    StepOutcome::Finished
                } else {
                    self.stage();
                    self.phase = self.entry_phase();
                    StepOutcome::InvocationEnd
                }
            }
        }
    }

    fn output(&self) -> Option<u64> {
        self.out
    }

    fn box_clone(&self) -> Box<dyn StepMachine<UniversalMem<S>>> {
        Box::new(self.clone())
    }

    fn state_key(&self, h: &mut dyn Hasher) {
        h.write_u32(self.me);
        h.write_u32(self.k);
        h.write_u32(self.seq);
        h.write_u64(self.done);
        self.phase.hash(&mut &mut *h);
        h.write_u64(self.my_token);
        self.my_op.hash(&mut &mut *h);
        self.ret.hash(&mut &mut *h);
        self.out.hash(&mut &mut *h);
        self.state.hash(&mut &mut *h);
        self.applied.hash(&mut &mut *h);
    }
}

/// Shared memory sized for a service shard: one worker per entry of
/// `requests_per_worker`, the op arenas pre-reserved to each worker's
/// request count, and the consensus log sized to the worst case (every
/// slot a token can occupy, first decisions and helper-duplicated ones —
/// the same `4·ops + n` envelope the construction's stress tests use), so
/// the session steady state never grows shared memory.
pub fn session_mem<S>(requests_per_worker: &[u64]) -> UniversalMem<S>
where
    S: SeqSpec,
    S::Op: Hash + Eq,
{
    let n = requests_per_worker.len() as u32;
    let total: u64 = requests_per_worker.iter().sum();
    let cap = 4 * total as usize + n as usize + 4;
    let mut m = UniversalMem::new(n, cap);
    for (w, &r) in requests_per_worker.iter().enumerate() {
        m.ops[w].reserve(r as usize);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_linearizable, timed_ops, QueueOp, QueueSpec};
    use crate::universal::{replay_final_state, CounterSpec};
    use sched_sim::decision::{RoundRobin, SeededRandom};
    use sched_sim::ids::{ProcessorId, Priority};
    use sched_sim::kernel::{Kernel, SystemSpec};

    /// The addend client `c` uses for its `s`-th request (any injective
    /// scheme works; this one makes sums easy to predict).
    fn addend(client: u64, client_seq: u64) -> u64 {
        client * 1000 + client_seq + 1
    }

    fn session_kernel(
        n: u32,
        per: u64,
        think: u32,
    ) -> Kernel<UniversalMem<CounterSpec>> {
        let reqs: Vec<u64> = vec![per; n as usize];
        let mut k = Kernel::new(
            session_mem::<CounterSpec>(&reqs),
            SystemSpec::hybrid(8).with_adversarial_alignment(),
        );
        for w in 0..n {
            // Each worker multiplexes two clients.
            k.add_process(
                ProcessorId(0),
                Priority(1 + w % 2),
                Box::new(SessionMachine::new(
                    CounterSpec,
                    w,
                    n,
                    per,
                    think,
                    (u64::from(w) * 2, 2),
                    Arc::new(addend),
                )),
            );
        }
        k
    }

    #[test]
    fn counter_session_sums_every_generated_op() {
        let (n, per) = (4u32, 6u64);
        let mut k = session_kernel(n, per, 0);
        k.run(&mut RoundRobin::new(), 1_000_000);
        assert!(k.all_finished());
        let expected: u64 = (0..n)
            .flat_map(|w| (0..per).map(move |j| addend(u64::from(w) * 2 + j % 2, j / 2)))
            .sum();
        assert_eq!(replay_final_state(&CounterSpec, &k.mem), expected);
    }

    /// With think-time, every request is preceded by a separate invocation
    /// that reports no output — the kernel's op log shows the alternation,
    /// and only the requests carry results.
    #[test]
    fn think_invocations_alternate_and_carry_no_output() {
        let (n, per, think) = (2u32, 3u64, 4u32);
        let mut k = session_kernel(n, per, think);
        k.run(&mut RoundRobin::new(), 1_000_000);
        assert!(k.all_finished());
        let recs = k.ops();
        assert_eq!(recs.len(), 2 * (n as usize) * per as usize);
        for r in recs {
            // Even invocations are thinks (no output, exactly `think`
            // statements of span under this fair schedule is not
            // guaranteed — but the output contract is).
            if r.inv_index % 2 == 0 {
                assert_eq!(r.output, None, "think invocation must report no output");
            } else {
                assert!(r.output.is_some(), "request invocation must report a result");
            }
        }
        let requests = recs.iter().filter(|r| r.output.is_some()).count();
        assert_eq!(requests, (n as usize) * per as usize);
    }

    /// A queue session with an alternating enq/deq mix stays linearizable
    /// under adversarial random schedules.
    #[test]
    fn queue_session_mix_is_linearizable() {
        let (n, per) = (3u32, 4u64);
        let gen: OpGen<QueueSpec> = Arc::new(|client, client_seq| {
            if (client + client_seq) % 2 == 0 {
                QueueOp::Enq(client * 100 + client_seq)
            } else {
                QueueOp::Deq
            }
        });
        for seed in 0..20 {
            let reqs: Vec<u64> = vec![per; n as usize];
            let mut k = Kernel::new(
                session_mem::<QueueSpec>(&reqs),
                SystemSpec::hybrid(8).with_adversarial_alignment(),
            );
            for w in 0..n {
                k.add_process(
                    ProcessorId(0),
                    Priority(1),
                    Box::new(SessionMachine::new(
                        QueueSpec,
                        w,
                        n,
                        per,
                        0,
                        (u64::from(w), 1),
                        gen.clone(),
                    )),
                );
            }
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished(), "seed {seed}");
            let ops = timed_ops(k.ops(), |pid, inv| {
                // think = 0: invocation index is the request index.
                if (u64::from(pid) + u64::from(inv)) % 2 == 0 {
                    QueueOp::Enq(u64::from(pid) * 100 + u64::from(inv))
                } else {
                    QueueOp::Deq
                }
            });
            check_linearizable(&QueueSpec, &ops).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn client_multiplexing_covers_the_slice_round_robin() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let gen: OpGen<CounterSpec> = Arc::new(move |c, s| {
            seen2.lock().unwrap().push((c, s));
            1
        });
        let reqs = [7u64];
        let mut k = Kernel::new(
            session_mem::<CounterSpec>(&reqs),
            SystemSpec::hybrid(8),
        );
        k.add_process(
            ProcessorId(0),
            Priority(1),
            Box::new(SessionMachine::new(CounterSpec, 0, 1, 7, 0, (10, 3), gen)),
        );
        k.run(&mut RoundRobin::new(), 10_000);
        assert!(k.all_finished());
        assert_eq!(
            *seen.lock().unwrap(),
            vec![(10, 0), (11, 0), (12, 0), (10, 1), (11, 1), (12, 1), (10, 2)],
        );
    }
}
