//! The virtual machine: executes one run of a [`Program`] under an
//! [`InterventionPlan`], producing a [`Trace`].
//!
//! # Execution model
//!
//! * One global virtual clock. Every micro-step advances it by exactly one
//!   tick, so timestamps are unique and totally ordered within a run.
//! * At each step the scheduler picks a runnable thread uniformly at random
//!   (seeded RNG) — this is the runtime nondeterminism that makes the bug
//!   classes intermittent.
//! * `Compute`/`JitterCompute`/triggered `FlakyDelay` burn their ticks one
//!   micro-step at a time, so other threads can interleave *during* long
//!   work (essential for realistic overlap semantics).
//! * An exception unwinds the stack frame by frame; every method it escapes
//!   records `exception = Some(kind), caught = false`. A `TryCall` boundary
//!   or an injected [`Intervention::CatchException`] absorbs it (`caught =
//!   true` on that method's event) and the caller resumes. An exception
//!   escaping a thread root crashes the whole run (an intermittent failure),
//!   with a [`FailureSignature`] naming the kind and the method that threw.
//! * A cyclic lock/join wait is reported as a `Deadlock` failure; exceeding
//!   the step budget as a `Timeout` failure (models hangs).
//! * Liveness valve: if only `WaitUntil`/`ForceOrder`-blocked threads remain,
//!   the lowest-indexed one is forcibly released — interventions are best
//!   effort and must never wedge the run.

use crate::plan::{Intervention, InterventionPlan};
use crate::program::{Cond, Expr, InvariantMode, MethodDef, Op, Program, NUM_REGS};
use aid_trace::{
    AccessEvent, AccessKind, ChannelId, FailureSignature, MethodEvent, MethodId, MsgEvent, MsgKind,
    ObjectId, Outcome, ThreadId, Time, Trace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Tuning knobs for a run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Step budget before the run is declared a `Timeout` failure.
    pub max_steps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { max_steps: 200_000 }
    }
}

/// Exception kind used for deadlocked runs.
pub const DEADLOCK_KIND: &str = "Deadlock";
/// Exception kind used for runs exceeding the step budget.
pub const TIMEOUT_KIND: &str = "Timeout";

#[derive(Clone, Debug, PartialEq)]
enum ThreadState {
    NotStarted,
    Ready,
    BlockedLock(ObjectId),
    BlockedInjectedLock(usize),
    BlockedJoin(usize),
    Sleeping(Time),
    BlockedWait,
    BlockedOrder(MethodId),
    /// Blocked on a full bounded channel; wakes when a receive frees a slot.
    BlockedSend(ChannelId),
    /// Blocked on an empty mailbox; wakes on delivery or at the deadline
    /// (`Time::MAX` = wait forever). Unlike `BlockedWait`/`BlockedOrder`,
    /// channel waits are *not* freed by the liveness valve — a circular
    /// channel wait is a real deadlock and must fail as one.
    BlockedRecv {
        chan: ChannelId,
        deadline: Time,
    },
    Done,
}

/// A message either in transit or sitting in a mailbox.
struct Msg {
    seq: u32,
    value: i64,
    /// Sender's clock at send time.
    sent: Time,
    /// When the pump moves it from transit into the mailbox.
    deliver_at: Time,
    /// Sending thread (delivery events are attributed to it).
    sender: ThreadId,
    dup: bool,
}

/// Per-channel runtime state.
struct ChanRt {
    /// Sent but not yet delivered, unordered (the pump scans for due ones).
    transit: Vec<Msg>,
    /// Delivered and receiver-visible, in delivery order.
    mailbox: VecDeque<Msg>,
    next_seq: u32,
}

struct Frame {
    method: MethodId,
    instance: u32,
    pc: usize,
    /// Stamped lazily at the first executed body op, so the window excludes
    /// scheduling latency, injected start-delays, and lock waits.
    start: Time,
    started: bool,
    accesses: Vec<AccessEvent>,
    returned: Option<i64>,
    /// Remaining ticks of an in-progress Compute/JitterCompute/FlakyDelay.
    burn: u64,
    /// Whether an exception escaping this frame is absorbed at its boundary
    /// (program `TryCall` or injected `CatchException`).
    catch_boundary: bool,
    /// Injected serialize-lock ids acquired at entry (released at pop).
    injected_locks: Vec<usize>,
    /// Injected lock ids still to acquire at entry.
    pending_injected: Vec<usize>,
    /// Program locks acquired within this frame (released at pop).
    program_locks: Vec<ObjectId>,
    /// Remaining end-delay ticks to burn before the frame pops.
    end_delay: u64,
    /// True once the body finished and only the end-delay remains.
    in_epilogue: bool,
    /// Expiry time of an in-progress timed `Recv` at this frame's current pc.
    /// Lets the re-executed op distinguish first execution (None) from a
    /// woken retry (Some, not yet due) from a timeout (Some, due).
    recv_deadline: Option<Time>,
}

struct ThreadRt {
    state: ThreadState,
    frames: Vec<Frame>,
    regs: [i64; NUM_REGS],
    entered: bool,
}

/// The machine for a single run.
pub struct Machine<'p> {
    program: &'p Program,
    plan: &'p InterventionPlan,
    config: SimConfig,
    seed: u64,
    clock: Time,
    shared: Vec<i64>,
    /// Program lock owners (indexed by object id).
    lock_owner: Vec<Option<usize>>,
    /// Injected lock state: (owner thread, reentrancy depth), keyed by
    /// intervention index.
    injected_locks: Vec<(usize, Option<usize>, u32)>,
    threads: Vec<ThreadRt>,
    started_instances: Vec<u32>,
    completed_instances: Vec<u32>,
    events: Vec<MethodEvent>,
    channels: Vec<ChanRt>,
    msgs: Vec<MsgEvent>,
    /// Per-invariant "has held at some observation point" flag (only
    /// meaningful for `Eventually` invariants).
    eventually_ok: Vec<bool>,
    failure: Option<FailureSignature>,
    rng_sched: StdRng,
    rng_prog: StdRng,
}

impl<'p> Machine<'p> {
    /// Prepares a machine for one run.
    pub fn new(
        program: &'p Program,
        plan: &'p InterventionPlan,
        config: SimConfig,
        seed: u64,
    ) -> Self {
        let threads = program
            .threads
            .iter()
            .map(|t| ThreadRt {
                state: if t.auto_start {
                    ThreadState::Ready
                } else {
                    ThreadState::NotStarted
                },
                frames: Vec::new(),
                regs: [0; NUM_REGS],
                entered: false,
            })
            .collect();
        let injected_locks = plan
            .serialize_pairs()
            .map(|(idx, _, _)| (idx, None, 0))
            .collect();
        Machine {
            program,
            plan,
            config,
            seed,
            clock: 0,
            shared: program.objects.iter().map(|o| o.initial).collect(),
            lock_owner: vec![None; program.objects.len()],
            injected_locks,
            threads,
            started_instances: vec![0; program.methods.len()],
            completed_instances: vec![0; program.methods.len()],
            events: Vec::new(),
            channels: program
                .channels
                .iter()
                .map(|_| ChanRt {
                    transit: Vec::new(),
                    mailbox: VecDeque::new(),
                    next_seq: 0,
                })
                .collect(),
            msgs: Vec::new(),
            eventually_ok: vec![false; program.invariants.len()],
            failure: None,
            rng_sched: StdRng::seed_from_u64(seed),
            rng_prog: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Runs to completion and returns the trace.
    pub fn run(mut self) -> Trace {
        // Initial observation point: an `always` invariant false over the
        // initial state fails immediately; an `eventually` one may already
        // hold.
        let init_origin = self.program.threads[0].entry;
        self.check_invariants(init_origin);
        let mut steps: u64 = 0;
        loop {
            if self.failure.is_some() {
                break;
            }
            if self.threads.iter().all(|t| t.state == ThreadState::Done) {
                break;
            }
            let Some(tid) = self.pick_thread() else {
                // No thread can make progress.
                if self.release_liveness_valve() {
                    continue;
                }
                self.fail_all(DEADLOCK_KIND);
                break;
            };
            self.step(tid);
            steps += 1;
            if steps >= self.config.max_steps {
                self.fail_all(TIMEOUT_KIND);
                break;
            }
        }
        self.finish()
    }

    /// Delivers every in-transit message that has come due, moving it into
    /// its channel's mailbox in `(deliver_at, channel, seq, dup)` order.
    /// Runs before every scheduling decision, so receivers observe a
    /// delivery at the first pick after its delivery tick. Delivery does not
    /// change channel occupancy (transit + mailbox), so no invariant
    /// observation point is needed here.
    fn pump(&mut self) {
        if self.channels.is_empty() {
            return;
        }
        loop {
            let mut best: Option<(Time, usize, u32, bool, usize)> = None;
            for ci in 0..self.channels.len() {
                for (i, m) in self.channels[ci].transit.iter().enumerate() {
                    if m.deliver_at <= self.clock {
                        let key = (m.deliver_at, ci, m.seq, m.dup);
                        if best.map_or(true, |(t, c, s, d, _)| key < (t, c, s, d)) {
                            best = Some((m.deliver_at, ci, m.seq, m.dup, i));
                        }
                    }
                }
            }
            let Some((_, ci, _, _, idx)) = best else {
                break;
            };
            let msg = self.channels[ci].transit.remove(idx);
            self.msgs.push(MsgEvent {
                channel: ChannelId::from_raw(ci as u32),
                kind: MsgKind::Deliver,
                seq: msg.seq,
                value: msg.value,
                sent: msg.sent,
                at: msg.deliver_at,
                thread: msg.sender,
                dup: msg.dup,
            });
            self.channels[ci].mailbox.push_back(msg);
        }
    }

    /// Returns a runnable thread chosen at random, unblocking what can be
    /// unblocked first. `None` if nothing can run.
    fn pick_thread(&mut self) -> Option<usize> {
        self.pump();
        let mut ready: Vec<usize> = Vec::new();
        let mut min_wake: Option<Time> = None;
        for tid in 0..self.threads.len() {
            let state = self.threads[tid].state.clone();
            match state {
                ThreadState::Ready => ready.push(tid),
                ThreadState::Sleeping(until) => {
                    if self.clock >= until {
                        self.threads[tid].state = ThreadState::Ready;
                        ready.push(tid);
                    } else {
                        min_wake = Some(min_wake.map_or(until, |m: Time| m.min(until)));
                    }
                }
                ThreadState::BlockedLock(lock) => {
                    if self.lock_owner[lock.index()].is_none() {
                        self.threads[tid].state = ThreadState::Ready;
                        ready.push(tid);
                    }
                }
                ThreadState::BlockedInjectedLock(slot) => {
                    let (_, owner, _) = self.injected_locks[slot];
                    if owner.is_none() || owner == Some(tid) {
                        self.threads[tid].state = ThreadState::Ready;
                        ready.push(tid);
                    }
                }
                ThreadState::BlockedJoin(target) => {
                    if self.threads[target].state == ThreadState::Done {
                        self.threads[tid].state = ThreadState::Ready;
                        ready.push(tid);
                    }
                }
                ThreadState::BlockedWait => {
                    let cond = self.current_wait_cond(tid);
                    if let Some(c) = cond {
                        if self.eval_cond(&c, tid) {
                            self.threads[tid].state = ThreadState::Ready;
                            ready.push(tid);
                        }
                    }
                }
                ThreadState::BlockedOrder(first) => {
                    if self.completed_instances[first.index()] > 0 {
                        self.threads[tid].state = ThreadState::Ready;
                        ready.push(tid);
                    }
                }
                ThreadState::BlockedSend(chan) => {
                    let def_cap = self.program.channels[chan.index()].capacity;
                    let ch = &self.channels[chan.index()];
                    let occupancy = ch.transit.len() + ch.mailbox.len();
                    if def_cap.map_or(true, |c| occupancy < c as usize) {
                        self.threads[tid].state = ThreadState::Ready;
                        ready.push(tid);
                    }
                }
                ThreadState::BlockedRecv { chan, deadline } => {
                    if !self.channels[chan.index()].mailbox.is_empty() || self.clock >= deadline {
                        self.threads[tid].state = ThreadState::Ready;
                        ready.push(tid);
                    } else if deadline != Time::MAX {
                        min_wake = Some(min_wake.map_or(deadline, |m: Time| m.min(deadline)));
                    }
                }
                ThreadState::NotStarted | ThreadState::Done => {}
            }
        }
        if ready.is_empty() {
            // In-transit deliveries are wake events too: a receiver blocked
            // on an empty mailbox becomes runnable once the pump delivers.
            // (All transit messages are strictly in the future here — the
            // pump above already delivered everything due.)
            for ch in &self.channels {
                for m in &ch.transit {
                    min_wake = Some(min_wake.map_or(m.deliver_at, |w: Time| w.min(m.deliver_at)));
                }
            }
            if let Some(wake) = min_wake {
                // Everyone is asleep: jump time forward and retry.
                self.clock = wake;
                return self.pick_thread();
            }
            return None;
        }
        let i = self.rng_sched.random_range(0..ready.len());
        Some(ready[i])
    }

    fn current_wait_cond(&self, tid: usize) -> Option<Cond> {
        let frame = self.threads[tid].frames.last()?;
        match self.program.method(frame.method).body.get(frame.pc) {
            Some(Op::WaitUntil { cond }) => Some(cond.clone()),
            _ => None,
        }
    }

    /// Forcibly releases one condition-blocked thread so best-effort
    /// interventions can never wedge the run. Returns true if one was freed.
    fn release_liveness_valve(&mut self) -> bool {
        for tid in 0..self.threads.len() {
            match self.threads[tid].state {
                ThreadState::BlockedWait => {
                    // Skip past the WaitUntil op.
                    if let Some(f) = self.threads[tid].frames.last_mut() {
                        f.pc += 1;
                    }
                    self.threads[tid].state = ThreadState::Ready;
                    return true;
                }
                ThreadState::BlockedOrder(_) => {
                    self.threads[tid].state = ThreadState::Ready;
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Executes one micro-step of thread `tid`.
    fn step(&mut self, tid: usize) {
        self.clock += 1;
        // Lazily enter the thread's root method on first schedule.
        if !self.threads[tid].entered {
            self.threads[tid].entered = true;
            let entry = self.program.threads[tid].entry;
            self.push_frame(tid, entry, false);
            return;
        }

        // Pending injected-lock acquisitions at method entry.
        if let Some(frame) = self.threads[tid].frames.last_mut() {
            if let Some(&slot) = frame.pending_injected.first() {
                let (_, owner, depth) = &mut self.injected_locks[slot];
                match owner {
                    None => {
                        *owner = Some(tid);
                        *depth = 1;
                        frame.pending_injected.remove(0);
                        frame.injected_locks.push(slot);
                    }
                    Some(o) if *o == tid => {
                        *depth += 1;
                        frame.pending_injected.remove(0);
                        frame.injected_locks.push(slot);
                    }
                    Some(_) => {
                        self.threads[tid].state = ThreadState::BlockedInjectedLock(slot);
                    }
                }
                return;
            }
            // In-progress burn (compute/delay).
            if frame.burn > 0 {
                frame.burn -= 1;
                return;
            }
            if frame.in_epilogue {
                if frame.end_delay > 0 {
                    frame.end_delay -= 1;
                    return;
                }
                self.pop_frame(tid, None);
                return;
            }
        } else {
            // Root frame popped: thread is done.
            self.threads[tid].state = ThreadState::Done;
            return;
        }

        let frame = self.threads[tid]
            .frames
            .last()
            .expect("frame checked above");
        let method = frame.method;
        let body = &self.program.method(method).body;
        if frame.pc >= body.len() {
            // Fell off the end: enter epilogue.
            self.enter_epilogue(tid);
            return;
        }
        let op = body[frame.pc].clone();
        {
            let f = self.threads[tid].frames.last_mut().unwrap();
            if !f.started {
                f.started = true;
                f.start = self.clock;
            }
        }
        self.exec_op(tid, op);
        // Same-tick pop: if the op we just ran was the frame's last and it
        // neither pushed a callee nor blocked, close the frame now so the
        // method's window ends exactly at its final operation (critical for
        // race-window semantics).
        if self.threads[tid].state == ThreadState::Ready {
            if let Some(f) = self.threads[tid].frames.last() {
                let done = !f.in_epilogue
                    && f.burn == 0
                    && f.pending_injected.is_empty()
                    && f.pc >= self.program.method(f.method).body.len();
                if done {
                    self.enter_epilogue(tid);
                }
            }
        }
    }

    fn exec_op(&mut self, tid: usize, op: Op) {
        match op {
            Op::Read { object, reg } => {
                let v = self.shared[object.index()];
                self.threads[tid].regs[reg.0 as usize] = v;
                self.record_access(tid, object, AccessKind::Read);
                self.advance(tid);
            }
            Op::Write { object, value } => {
                let v = self.eval_expr(&value, tid);
                self.shared[object.index()] = v;
                self.record_access(tid, object, AccessKind::Write);
                let origin = self.threads[tid].frames.last().unwrap().method;
                self.check_invariants(origin);
                self.advance(tid);
            }
            Op::ThrowIfObj {
                object,
                cmp,
                rhs,
                kind,
            } => {
                let v = self.shared[object.index()];
                self.record_access(tid, object, AccessKind::Read);
                let r = self.eval_expr(&rhs, tid);
                if cmp.eval(v, r) {
                    self.raise(tid, &kind);
                } else {
                    self.advance(tid);
                }
            }
            Op::Compute { cost } => {
                let f = self.threads[tid].frames.last_mut().unwrap();
                f.burn = cost.saturating_sub(1);
                self.advance(tid);
            }
            Op::JitterCompute { min, max } => {
                let total = if max > min {
                    self.rng_sched.random_range(min..=max)
                } else {
                    min
                };
                let f = self.threads[tid].frames.last_mut().unwrap();
                f.burn = total.saturating_sub(1);
                self.advance(tid);
            }
            Op::FlakyDelay { prob, ticks } => {
                let method = self.threads[tid].frames.last().unwrap().method;
                let instance = self.threads[tid].frames.last().unwrap().instance;
                let suppressed = self.plan.interventions.iter().any(|iv| {
                    matches!(iv, Intervention::SuppressFlaky { method: m, instance: f }
                        if *m == method && f.matches(instance))
                });
                if !suppressed && self.rng_prog.random_bool(prob.clamp(0.0, 1.0)) {
                    let f = self.threads[tid].frames.last_mut().unwrap();
                    f.burn = ticks.saturating_sub(1);
                }
                self.advance(tid);
            }
            Op::LocalSet { reg, value } => {
                let v = self.eval_expr(&value, tid);
                self.threads[tid].regs[reg.0 as usize] = v;
                self.advance(tid);
            }
            Op::SetIf {
                reg,
                cond,
                then_value,
                else_value,
            } => {
                let v = if self.eval_cond(&cond, tid) {
                    self.eval_expr(&then_value, tid)
                } else {
                    self.eval_expr(&else_value, tid)
                };
                self.threads[tid].regs[reg.0 as usize] = v;
                self.advance(tid);
            }
            Op::ComputeIf { cond, cost } => {
                if self.eval_cond(&cond, tid) {
                    let f = self.threads[tid].frames.last_mut().unwrap();
                    f.burn = cost.saturating_sub(1);
                }
                self.advance(tid);
            }
            Op::RandRange { reg, lo, hi } => {
                let frame = self.threads[tid].frames.last().unwrap();
                let (method, instance) = (frame.method, frame.instance);
                let forced = self.plan.interventions.iter().find_map(|iv| match iv {
                    Intervention::ForceRand {
                        method: m,
                        instance: f,
                        value,
                    } if *m == method && f.matches(instance) => Some(*value),
                    _ => None,
                });
                let v = forced.unwrap_or_else(|| self.rng_prog.random_range(lo..=hi));
                self.threads[tid].regs[reg.0 as usize] = v;
                self.advance(tid);
            }
            Op::Call { method } => {
                self.advance(tid);
                self.push_frame(tid, method, false);
            }
            Op::TryCall { method } => {
                self.advance(tid);
                self.push_frame(tid, method, true);
            }
            Op::Return { value } => {
                let v = value.map(|e| self.eval_expr(&e, tid));
                let f = self.threads[tid].frames.last_mut().unwrap();
                f.returned = v;
                self.enter_epilogue(tid);
            }
            Op::Throw { kind } => self.raise(tid, &kind),
            Op::ThrowIf { cond, kind } => {
                if self.eval_cond(&cond, tid) {
                    self.raise(tid, &kind);
                } else {
                    self.advance(tid);
                }
            }
            Op::Spawn { thread } => {
                assert!(
                    self.threads[thread].state == ThreadState::NotStarted,
                    "thread {thread} spawned twice (or auto-start)"
                );
                self.threads[thread].state = ThreadState::Ready;
                self.advance(tid);
            }
            Op::Join { thread } => {
                if self.threads[thread].state == ThreadState::Done {
                    self.advance(tid);
                } else {
                    self.threads[tid].state = ThreadState::BlockedJoin(thread);
                }
            }
            Op::Acquire { lock } => {
                if self.lock_owner[lock.index()].is_none() {
                    self.lock_owner[lock.index()] = Some(tid);
                    let f = self.threads[tid].frames.last_mut().unwrap();
                    f.program_locks.push(lock);
                    self.advance(tid);
                } else {
                    self.threads[tid].state = ThreadState::BlockedLock(lock);
                }
            }
            Op::Release { lock } => {
                assert_eq!(
                    self.lock_owner[lock.index()],
                    Some(tid),
                    "release of lock not owned"
                );
                self.lock_owner[lock.index()] = None;
                let f = self.threads[tid].frames.last_mut().unwrap();
                f.program_locks.retain(|&l| l != lock);
                self.advance(tid);
            }
            Op::Sleep { ticks } => {
                self.threads[tid].state = ThreadState::Sleeping(self.clock + ticks);
                self.advance(tid);
            }
            Op::WaitUntil { cond } => {
                if self.eval_cond(&cond, tid) {
                    self.advance(tid);
                } else {
                    self.threads[tid].state = ThreadState::BlockedWait;
                }
            }
            Op::Send {
                channel,
                value,
                guard,
            } => {
                // Guard first: a false guard skips the send entirely — no
                // event, no latency draw, no capacity check.
                if let Some(g) = guard {
                    if !self.eval_cond(&g, tid) {
                        self.advance(tid);
                        return;
                    }
                }
                let ci = channel.index();
                let def = &self.program.channels[ci];
                if let Some(cap) = def.capacity {
                    let occupancy =
                        self.channels[ci].transit.len() + self.channels[ci].mailbox.len();
                    if occupancy >= cap as usize {
                        // Full: block; the op re-executes (guard included)
                        // when a receive frees a slot.
                        self.threads[tid].state = ThreadState::BlockedSend(channel);
                        return;
                    }
                }
                let v = self.eval_expr(&value, tid);
                let (lat_min, lat_max) = (def.latency_min, def.latency_max);
                let latency = if lat_max > lat_min {
                    self.rng_sched.random_range(lat_min..=lat_max)
                } else {
                    lat_min
                };
                let seq = self.channels[ci].next_seq;
                self.channels[ci].next_seq += 1;
                let mut deliver_at = self.clock + latency;
                // Fault plane, resolved at send time: delays sum, drop wins
                // over duplicate.
                let mut dropped = false;
                let mut duplicate = false;
                let mut reorder_prev = false;
                for iv in &self.plan.interventions {
                    match iv {
                        Intervention::DelayDelivery {
                            channel: c,
                            seq: f,
                            ticks,
                        } if *c == channel && f.matches(seq) => deliver_at += *ticks,
                        Intervention::DropDelivery { channel: c, seq: f }
                            if *c == channel && f.matches(seq) =>
                        {
                            dropped = true;
                        }
                        Intervention::DuplicateDelivery { channel: c, seq: f }
                            if *c == channel && f.matches(seq) =>
                        {
                            duplicate = true;
                        }
                        Intervention::ReorderDelivery { channel: c, seq: f }
                            if *c == channel && seq > 0 && f.matches(seq - 1) =>
                        {
                            reorder_prev = true;
                        }
                        _ => {}
                    }
                }
                let sender = ThreadId::from_raw(tid as u32);
                let sender_method = self.threads[tid].frames.last().unwrap().method;
                self.msgs.push(MsgEvent {
                    channel,
                    kind: MsgKind::Send,
                    seq,
                    value: v,
                    sent: self.clock,
                    at: self.clock,
                    thread: sender,
                    dup: false,
                });
                if dropped {
                    self.msgs.push(MsgEvent {
                        channel,
                        kind: MsgKind::Drop,
                        seq,
                        value: v,
                        sent: self.clock,
                        at: self.clock,
                        thread: sender,
                        dup: false,
                    });
                } else {
                    self.channels[ci].transit.push(Msg {
                        seq,
                        value: v,
                        sent: self.clock,
                        deliver_at,
                        sender,
                        dup: false,
                    });
                    if duplicate {
                        self.channels[ci].transit.push(Msg {
                            seq,
                            value: v,
                            sent: self.clock,
                            deliver_at: deliver_at + 1,
                            sender,
                            dup: true,
                        });
                    }
                    if reorder_prev {
                        // Minimal pairwise reorder: push the predecessor's
                        // delivery one past this message's (if it is still in
                        // transit to be reordered at all).
                        let push_past = deliver_at + 1;
                        if let Some(prev) = self.channels[ci]
                            .transit
                            .iter_mut()
                            .find(|m| m.seq == seq - 1 && !m.dup)
                        {
                            prev.deliver_at = prev.deliver_at.max(push_past);
                        }
                    }
                }
                let obj = self.chan_object(channel);
                self.record_access(tid, obj, AccessKind::Write);
                self.check_invariants(sender_method);
                self.advance(tid);
            }
            Op::Recv {
                channel,
                reg,
                timeout,
            } => {
                let ci = channel.index();
                if let Some(msg) = self.channels[ci].mailbox.pop_front() {
                    self.threads[tid].regs[reg.0 as usize] = msg.value;
                    self.msgs.push(MsgEvent {
                        channel,
                        kind: MsgKind::Recv,
                        seq: msg.seq,
                        value: msg.value,
                        sent: msg.sent,
                        at: self.clock,
                        thread: ThreadId::from_raw(tid as u32),
                        dup: msg.dup,
                    });
                    let obj = self.chan_object(channel);
                    self.record_access(tid, obj, AccessKind::Read);
                    let f = self.threads[tid].frames.last_mut().unwrap();
                    f.recv_deadline = None;
                    let origin = f.method;
                    self.check_invariants(origin);
                    self.advance(tid);
                } else {
                    let dl = self.threads[tid].frames.last().unwrap().recv_deadline;
                    match dl {
                        None => {
                            // First execution: arm the deadline and block.
                            let deadline = if timeout == 0 {
                                Time::MAX
                            } else {
                                self.clock + timeout
                            };
                            self.threads[tid].frames.last_mut().unwrap().recv_deadline =
                                Some(deadline);
                            self.threads[tid].state = ThreadState::BlockedRecv {
                                chan: channel,
                                deadline,
                            };
                        }
                        Some(d) if self.clock >= d => {
                            // Timed out: -1 sentinel, no event, no access.
                            self.threads[tid].frames.last_mut().unwrap().recv_deadline = None;
                            self.threads[tid].regs[reg.0 as usize] = -1;
                            self.advance(tid);
                        }
                        Some(d) => {
                            // Woken spuriously (another receiver drained the
                            // delivery first): re-block until the deadline.
                            self.threads[tid].state = ThreadState::BlockedRecv {
                                chan: channel,
                                deadline: d,
                            };
                        }
                    }
                }
            }
        }
    }

    fn advance(&mut self, tid: usize) {
        if let Some(f) = self.threads[tid].frames.last_mut() {
            f.pc += 1;
        }
    }

    /// Pushes a frame for `method`, applying entry interventions.
    fn push_frame(&mut self, tid: usize, method: MethodId, caller_catches: bool) {
        let instance = self.started_instances[method.index()];
        self.started_instances[method.index()] += 1;

        // Premature return: the body never runs.
        let premature = self.plan.interventions.iter().find_map(|iv| match iv {
            Intervention::PrematureReturn {
                method: m,
                instance: f,
                value,
            } if *m == method && f.matches(instance) => Some(*value),
            _ => None,
        });
        if let Some(value) = premature {
            let mdef = self.program.method(method);
            assert!(
                mdef.pure,
                "premature-return intervention on impure method {}",
                mdef.name
            );
            if let Some(reg) = ret_reg(mdef) {
                self.threads[tid].regs[reg as usize] = value;
            }
            self.events.push(MethodEvent {
                method,
                instance,
                thread: ThreadId::from_raw(tid as u32),
                start: self.clock,
                end: self.clock,
                accesses: vec![],
                returned: Some(value),
                exception: None,
                caught: false,
            });
            self.completed_instances[method.index()] += 1;
            return;
        }

        let catch_injected = self.plan.interventions.iter().any(|iv| {
            matches!(iv, Intervention::CatchException { method: m, instance: f }
                if *m == method && f.matches(instance))
        });
        let delay_start: u64 = self
            .plan
            .interventions
            .iter()
            .filter_map(|iv| match iv {
                Intervention::DelayStart {
                    method: m,
                    instance: f,
                    ticks,
                } if *m == method && f.matches(instance) => Some(*ticks),
                _ => None,
            })
            .sum();
        let delay_end: u64 = self
            .plan
            .interventions
            .iter()
            .filter_map(|iv| match iv {
                Intervention::DelayEnd {
                    method: m,
                    instance: f,
                    ticks,
                } if *m == method && f.matches(instance) => Some(*ticks),
                _ => None,
            })
            .sum();
        let pending_injected: Vec<usize> = self
            .plan
            .serialize_pairs()
            .filter(|(_, a, b)| *a == method || *b == method)
            .map(|(slot_iv, _, _)| {
                self.injected_locks
                    .iter()
                    .position(|(idx, _, _)| *idx == slot_iv)
                    .expect("injected lock registered")
            })
            .collect();

        // Forced ordering holds the start back until `first` completed.
        let order_block = self.plan.interventions.iter().find_map(|iv| match iv {
            Intervention::ForceOrder {
                first,
                then,
                instance: f,
            } if *then == method && f.matches(instance) => Some(*first),
            _ => None,
        });

        self.threads[tid].frames.push(Frame {
            method,
            instance,
            pc: 0,
            start: self.clock,
            started: false,
            accesses: vec![],
            returned: None,
            burn: delay_start,
            catch_boundary: caller_catches || catch_injected,
            injected_locks: vec![],
            pending_injected,
            program_locks: vec![],
            end_delay: delay_end,
            in_epilogue: false,
            recv_deadline: None,
        });

        if let Some(first) = order_block {
            if self.completed_instances[first.index()] == 0 {
                self.threads[tid].state = ThreadState::BlockedOrder(first);
            }
        }
    }

    fn enter_epilogue(&mut self, tid: usize) {
        let f = self.threads[tid].frames.last_mut().unwrap();
        f.in_epilogue = true;
        f.burn = 0;
        if f.end_delay == 0 {
            self.pop_frame(tid, None);
        }
    }

    /// Pops the top frame, recording its event. `exception` carries an
    /// unwinding exception kind.
    fn pop_frame(&mut self, tid: usize, exception: Option<String>) -> bool {
        let mut frame = self.threads[tid].frames.pop().expect("pop with no frame");
        if !frame.started {
            frame.start = self.clock;
        }
        // Scoped cleanup: program locks, injected locks.
        for lock in frame.program_locks.drain(..) {
            if self.lock_owner[lock.index()] == Some(tid) {
                self.lock_owner[lock.index()] = None;
            }
        }
        for slot in frame.injected_locks.drain(..) {
            let (_, owner, depth) = &mut self.injected_locks[slot];
            if *owner == Some(tid) {
                *depth -= 1;
                if *depth == 0 {
                    *owner = None;
                }
            }
        }
        // Return-value alteration.
        let mut returned = frame.returned;
        let forced = self.plan.interventions.iter().find_map(|iv| match iv {
            Intervention::ForceReturn {
                method: m,
                instance: f,
                value,
            } if *m == frame.method && f.matches(frame.instance) => Some(*value),
            _ => None,
        });
        if let Some(v) = forced {
            let mdef = self.program.method(frame.method);
            assert!(
                mdef.pure,
                "force-return intervention on impure method {}",
                mdef.name
            );
            returned = Some(v);
            if let Some(reg) = ret_reg(mdef) {
                self.threads[tid].regs[reg as usize] = v;
            }
        }
        let caught = exception.is_some() && frame.catch_boundary;
        self.events.push(MethodEvent {
            method: frame.method,
            instance: frame.instance,
            thread: ThreadId::from_raw(tid as u32),
            start: frame.start,
            end: self.clock,
            accesses: std::mem::take(&mut frame.accesses),
            returned,
            exception: exception.clone(),
            caught,
        });
        self.completed_instances[frame.method.index()] += 1;
        if self.threads[tid].frames.is_empty() && exception.is_none() {
            self.threads[tid].state = ThreadState::Done;
        }
        caught
    }

    /// Raises an exception in thread `tid` and unwinds.
    fn raise(&mut self, tid: usize, kind: &str) {
        let origin = self.threads[tid]
            .frames
            .last()
            .expect("raise with no frame")
            .method;
        loop {
            if self.threads[tid].frames.is_empty() {
                // Escaped the thread root: the whole run fails.
                self.threads[tid].state = ThreadState::Done;
                self.failure = Some(FailureSignature {
                    kind: kind.to_string(),
                    method: origin,
                });
                return;
            }
            let caught = self.pop_frame(tid, Some(kind.to_string()));
            if caught {
                // Absorbed; caller resumes at its next op.
                return;
            }
        }
    }

    fn record_access(&mut self, tid: usize, object: ObjectId, kind: AccessKind) {
        let holds_lock = {
            let th = &self.threads[tid];
            th.frames
                .iter()
                .any(|f| !f.program_locks.is_empty() || !f.injected_locks.is_empty())
        };
        let at = self.clock;
        let f = self.threads[tid].frames.last_mut().unwrap();
        f.accesses.push(AccessEvent {
            object,
            kind,
            at,
            locked: holds_lock,
        });
    }

    fn eval_expr(&mut self, e: &Expr, tid: usize) -> i64 {
        match e {
            Expr::Const(v) => *v,
            Expr::Reg(r) => self.threads[tid].regs[r.0 as usize],
            Expr::Obj(o) => self.shared[o.index()],
            Expr::Now => self.clock as i64,
            Expr::ChanLen(c) => {
                let ch = &self.channels[c.index()];
                (ch.transit.len() + ch.mailbox.len()) as i64
            }
            Expr::Add(a, b) => self.eval_expr(a, tid).wrapping_add(self.eval_expr(b, tid)),
            Expr::Sub(a, b) => self.eval_expr(a, tid).wrapping_sub(self.eval_expr(b, tid)),
        }
    }

    fn eval_cond(&mut self, c: &Cond, tid: usize) -> bool {
        let l = self.eval_expr(&c.lhs, tid);
        let r = self.eval_expr(&c.rhs, tid);
        c.cmp.eval(l, r)
    }

    /// The per-channel pseudo-object channel accesses are recorded on, so
    /// predicate extraction sees sends/receives as plain shared-state
    /// accesses. Channel ids live past the real objects in the trace's
    /// object space (interned as `chan:<name>` by the runner).
    fn chan_object(&self, chan: ChannelId) -> ObjectId {
        ObjectId::from_raw((self.program.objects.len() + chan.index()) as u32)
    }

    /// Observation point: evaluates every declared invariant against the
    /// current shared/channel state. A violated `always` invariant fails the
    /// run immediately with kind `always:<name>`, attributed to `origin` —
    /// the method whose effect was just applied. An `eventually` invariant
    /// that holds here is latched as satisfied.
    fn check_invariants(&mut self, origin: MethodId) {
        if self.program.invariants.is_empty() || self.failure.is_some() {
            return;
        }
        for (i, inv) in self.program.invariants.iter().enumerate() {
            // Invariant conditions are register-free (enforced by
            // `Program::validate`), so the evaluating thread is irrelevant.
            let holds = self.eval_cond(&inv.cond, 0);
            match inv.mode {
                InvariantMode::Always => {
                    if !holds {
                        self.fail_all_from(&format!("always:{}", inv.name), Some(origin));
                        return;
                    }
                }
                InvariantMode::Eventually => {
                    if holds {
                        self.eventually_ok[i] = true;
                    }
                }
            }
        }
    }

    /// Declares a global abnormal end (deadlock/timeout), closing all open
    /// frames with the failure kind.
    fn fail_all(&mut self, kind: &str) {
        self.fail_all_from(kind, None);
    }

    /// As [`Self::fail_all`] but with an explicit responsible method.
    /// `None` falls back to the first thread with an open frame (the
    /// deadlock/timeout attribution rule).
    fn fail_all_from(&mut self, kind: &str, origin: Option<MethodId>) {
        let origin = origin.unwrap_or_else(|| {
            self.threads
                .iter()
                .find_map(|t| t.frames.last().map(|f| f.method))
                .unwrap_or_else(|| MethodId::from_raw(0))
        });
        for tid in 0..self.threads.len() {
            while !self.threads[tid].frames.is_empty() {
                self.pop_frame(tid, Some(kind.to_string()));
            }
            self.threads[tid].state = ThreadState::Done;
        }
        self.failure = Some(FailureSignature {
            kind: kind.to_string(),
            method: origin,
        });
    }

    fn finish(mut self) -> Trace {
        // Close any frames left open by an early crash on another thread.
        for tid in 0..self.threads.len() {
            while let Some(mut frame) = self.threads[tid].frames.pop() {
                self.events.push(MethodEvent {
                    method: frame.method,
                    instance: frame.instance,
                    thread: ThreadId::from_raw(tid as u32),
                    start: frame.start,
                    end: self.clock,
                    accesses: std::mem::take(&mut frame.accesses),
                    returned: None,
                    exception: None,
                    caught: false,
                });
            }
        }
        // An `eventually` invariant that never held is a failure detected at
        // run end (first in declaration order wins), attributed to the main
        // thread's entry method — unless the run already failed for a more
        // specific reason.
        if self.failure.is_none() {
            for (i, inv) in self.program.invariants.iter().enumerate() {
                if matches!(inv.mode, InvariantMode::Eventually) && !self.eventually_ok[i] {
                    self.failure = Some(FailureSignature {
                        kind: format!("eventually:{}", inv.name),
                        method: self.program.threads[0].entry,
                    });
                    break;
                }
            }
        }
        let outcome = match self.failure {
            Some(sig) => Outcome::Failure(sig),
            None => Outcome::Success,
        };
        let mut trace = Trace {
            seed: self.seed,
            events: self.events,
            msgs: self.msgs,
            outcome,
            duration: self.clock,
        };
        trace.normalize();
        trace
    }
}

/// The register a method leaves its result in, inferred from a trailing
/// `Return { value: Some(Reg(r)) }`. Used by forced-return interventions to
/// make the forced value visible to the rest of the program, not just to the
/// trace.
fn ret_reg(m: &MethodDef) -> Option<u8> {
    m.body.iter().rev().find_map(|op| match op {
        Op::Return {
            value: Some(Expr::Reg(r)),
        } => Some(r.0),
        _ => None,
    })
}
