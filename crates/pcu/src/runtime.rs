//! World-shared runtime primitives: locked per-rank mailboxes, shared-
//! memory consensus barriers, and the permit-handoff rank executor.
//!
//! This is the machinery that lets one process host a 1024-rank world
//! cheaply (DESIGN.md "Scaling the simulated world"). Three ideas:
//!
//! * **One queue per rank.** Every rank owns one [`Mailbox`]: a
//!   mutex-guarded `Vec` of envelopes. A send locks it and pushes; the
//!   owning rank drains it in place under the same lock, so the `Vec`
//!   keeps its capacity and a steady-state exchange allocates nothing. No
//!   more rank threads run at once than the host has cores, so the lock
//!   is rarely contended.
//! * **Elided wakeups.** A sender pays for a wakeup only when the receiver
//!   is actually blocked (a `SeqCst` flag handshake, ordered by the queue
//!   lock, makes the check race-free). An exchange sends at most one frame
//!   per destination, so a phase costs at most one wake per link.
//! * **Permit handoff.** With `R` ranks on `W` worker permits
//!   ([`Scheduler`]), at most `W` rank threads execute rank code at any
//!   instant. An event for a blocked rank *makes it ready*: it is handed a
//!   free permit and woken, or queued in a ring without a wake. A rank
//!   that blocks passes its permit straight to the oldest ready rank and
//!   wakes only that one. So a woken rank always holds a permit and never
//!   parks a second time to wait for one, and a blocked rank costs a
//!   sleeping OS thread, not a scheduled one.
//! * **Sync-wakeup bells.** A capped rank waits for its permit on its own
//!   [`Bell`], a pipe, and a grant rings it with a one-byte write. A pipe
//!   write is a *synchronous* wakeup: the kernel takes the waker to be about
//!   to sleep and places the woken rank on the waker's core, which in a
//!   handoff is the core the permit frees. A futex `unpark` carries no such
//!   hint, and Linux often put the woken rank beside the other permit
//!   holder, leaving the freed core idle. On two permits the four 2.8 ms
//!   part writes of a checkpoint step, two rounds of two, spanned 8.2 ms at
//!   the median with `unpark` and one write in six waited in a run queue
//!   (`/proc/thread-self/schedstat`); with bells they span 5.8 ms (DESIGN.md
//!   "Executor: permit handoff"). Uncapped worlds keep `park`/`unpark`.
//!
//! Every blocking loop observes the world's poison flag so that a panic on
//! one rank wakes and fails the others instead of deadlocking the world.

use crate::comm::Envelope;
use std::io::{PipeReader, PipeWriter, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// How many `yield_now` rounds a blocking primitive cedes the CPU before
/// it blocks for real. One yield walks the OS scheduler through the other
/// runnable rank threads, which usually produces the event we are waiting
/// for, so the common case costs one cheap syscall instead of a
/// park/unpark pair on the notifier's critical path. The spin stops as
/// soon as a ready rank waits for a permit (the spinner holds one that
/// rank could run on), and it is bounded, so a long wait still frees the
/// core entirely.
const SPIN_YIELDS: usize = 8;

/// One rank's incoming side of the simulated network.
pub(crate) struct Mailbox {
    /// The rank that drains and parks on this mailbox.
    owner: usize,
    /// Envelopes in arrival order: each sender's own envelopes stay FIFO,
    /// and order across senders is whatever order they took the lock in.
    queue: Mutex<Vec<Envelope>>,
    /// Whether the owner is blocked (or about to block) on this mailbox:
    /// producers skip the wake entirely while the owner is running.
    sleeping: AtomicBool,
}

impl Mailbox {
    pub(crate) fn new(owner: usize) -> Mailbox {
        Mailbox {
            owner,
            queue: Mutex::new(Vec::new()),
            sleeping: AtomicBool::new(false),
        }
    }

    /// The queue, even after a rank panicked while holding it: a panic
    /// must reach the world's poison path, not raise a second panic here.
    /// Every update is one `Vec` push or drain, which leaves it valid.
    fn queue(&self) -> MutexGuard<'_, Vec<Envelope>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue, then wake the owner if (and only if) it is blocked on this
    /// mailbox.
    pub(crate) fn push(&self, env: Envelope, exec: &Scheduler) {
        self.queue().push(env);
        if self.sleeping.load(Ordering::SeqCst) {
            exec.wake(self.owner);
        }
    }

    /// Hand every queued envelope, in arrival order, to `out`. Owner-only.
    pub(crate) fn drain(&self, out: &mut impl FnMut(Envelope)) {
        self.queue().drain(..).for_each(out);
    }

    fn has_mail(&self) -> bool {
        !self.queue().is_empty()
    }

    /// Block the owner until a producer notifies (or the world is
    /// poisoned). Returns `true` if mail may be available, `false` only on
    /// poison. Owner-only. The caller re-drains after every return: wakes
    /// may be spurious (stale) or already consumed.
    pub(crate) fn park(&self, exec: &Scheduler, poisoned: &AtomicBool) -> bool {
        // The producer we are waiting on is usually just another thread of
        // this process, so ceding the CPU is both the fastest and the
        // cheapest way to make it run.
        for _ in 0..SPIN_YIELDS {
            if self.has_mail() || poisoned.load(Ordering::SeqCst) {
                return !poisoned.load(Ordering::SeqCst);
            }
            if exec.has_ready() {
                break;
            }
            std::thread::yield_now();
        }
        self.sleeping.store(true, Ordering::SeqCst);
        // Re-check after raising the flag: a producer that pushed before
        // the flag was visible did not (and will not) notify, so the push
        // must be caught here. The queue lock orders that push against this
        // check, and so against the producer's `sleeping` load that follows
        // its unlock:
        // * if this check takes the lock after the push, it sees the
        //   envelope;
        // * otherwise the check holds the lock first, so the
        //   `sleeping = true` store above happens before the producer's
        //   push and hence before its load, and the producer wakes us.
        // A wake that lands before `block` below is not lost either: it
        // leaves a sticky token (uncapped) or a `WOKEN` state (capped) that
        // returns the block at once.
        if self.has_mail() || poisoned.load(Ordering::SeqCst) {
            self.sleeping.store(false, Ordering::SeqCst);
            return !poisoned.load(Ordering::SeqCst);
        }
        exec.block(self.owner, poisoned);
        self.sleeping.store(false, Ordering::SeqCst);
        !poisoned.load(Ordering::SeqCst)
    }
}

/// A reusable counted barrier over the ranks of one world. Shared-memory
/// consensus replaces the previous log₂N-round dissemination barrier of
/// empty messages: arrivals count on a lock-free atomic, the last arriver
/// bumps the generation and wakes only the waiters that actually
/// registered, and non-last arrivers yield-spin on the generation before
/// blocking — in the steady cadence of a phased exchange most members
/// never touch the mutex or a futex at all.
pub(crate) struct SenseBarrier {
    members: usize,
    /// Arrivals in the current generation. Only the last arriver resets
    /// it, and no member can re-enter until the generation advances, so
    /// the counter is never incremented concurrently with its reset.
    arrivals: AtomicUsize,
    /// Ranks registered to block on the current generation, in arrival
    /// order.
    waiters: Mutex<Vec<usize>>,
    generation: AtomicU64,
}

impl SenseBarrier {
    pub(crate) fn new(members: usize) -> SenseBarrier {
        SenseBarrier {
            members,
            arrivals: AtomicUsize::new(0),
            waiters: Mutex::new(Vec::new()),
            generation: AtomicU64::new(0),
        }
    }

    /// Block `rank` until all members arrive. Panics (on every waiter) if
    /// the world is poisoned while waiting.
    pub(crate) fn wait(&self, rank: usize, exec: &Scheduler, poisoned: &AtomicBool) {
        if self.members == 1 {
            return;
        }
        // The generation cannot advance between this load and the arrival
        // increment below: advancing requires every member to arrive, and
        // this thread has not yet.
        let gen = self.generation.load(Ordering::SeqCst);
        if self.arrivals.fetch_add(1, Ordering::SeqCst) + 1 == self.members {
            // Reset before release: every member is inside this wait call,
            // so no increment can race the store until the generation
            // advances below.
            self.arrivals.store(0, Ordering::SeqCst);
            // Publish the new generation under the waiter lock, in the same
            // critical section as the drain: a member can only register for
            // the next generation after seeing this store, hence after the
            // drain — which therefore never wakes (and so never loses) a
            // next-generation waiter.
            let mut w = self.waiters.lock().unwrap();
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            // Latest arrival first: the last ranks to arrive did the most
            // work in the phase, so they are the ones the next phase waits
            // for. Running them first is longest-first list scheduling;
            // arrival order would run the light ranks first and leave the
            // heavy ones to run one after another.
            w.reverse();
            exec.wake_all(&mut w);
            return;
        }
        for _ in 0..SPIN_YIELDS {
            if self.generation.load(Ordering::SeqCst) != gen {
                return;
            }
            if exec.has_ready() {
                break;
            }
            std::thread::yield_now();
        }
        // Slow path: re-check under the lock, then register — the releaser
        // bumps the generation and drains while holding the same lock, so a
        // registration that observes the old generation here is guaranteed
        // to be seen (and woken) by the releaser.
        let mut w = self.waiters.lock().unwrap();
        if self.generation.load(Ordering::SeqCst) != gen {
            return;
        }
        w.push(rank);
        drop(w);
        while self.generation.load(Ordering::SeqCst) == gen && !poisoned.load(Ordering::SeqCst) {
            exec.block(rank, poisoned);
        }
        if poisoned.load(Ordering::SeqCst) {
            panic!("peer rank panicked while this rank waited at a barrier");
        }
    }
}

// A capped rank's executor state. Every change is made under the permit
// lock, except `GRANTED → RUNNING`, which only the granted rank makes; no
// waker acts on a `GRANTED` rank, so that store races with nothing.

/// Holds a permit and runs, or has finished, or has not started yet (a
/// wake before the start finds no wait to end; the start overwrites it).
const RUNNING: u8 = 0;
/// Gave its permit up and waits for its event.
const BLOCKED: u8 = 1;
/// Its event (or its start) has come; queued in the ring for a permit.
const READY: u8 = 2;
/// Handed a permit and woken; about to run.
const GRANTED: u8 = 3;
/// Its event came before it gave its permit up: its next block returns at
/// once, permit kept.
const WOKEN: u8 = 4;

/// A capped rank's wake-up line for its permit waits: a pipe that the rank
/// sleeps on by reading and that a grant rings by writing one byte. Its
/// point is the kind of wakeup: a pipe write wakes its reader with the
/// kernel's sync hint, so the woken rank lands on the core its waker is
/// about to free, not beside the other permit holder.
struct Bell {
    rx: PipeReader,
    tx: PipeWriter,
    /// A token is in the pipe, or about to be. A ring writes only when it
    /// raises this flag, and only a sleep that read the token lowers it, so
    /// the pipe never holds more than one byte and a ring never blocks,
    /// however many grants land while the rank does not sleep.
    rung: AtomicBool,
}

impl Bell {
    /// `None` if the host refuses a pipe (file descriptors run out): the
    /// rank then sleeps on `park` as an uncapped one does.
    fn new() -> Option<Bell> {
        let (rx, tx) = std::io::pipe().ok()?;
        Some(Bell {
            rx,
            tx,
            rung: AtomicBool::new(false),
        })
    }

    fn ring(&self) {
        if !self.rung.swap(true, Ordering::SeqCst) {
            (&self.tx)
                .write_all(&[1])
                .expect("an empty pipe takes one byte");
        }
    }

    /// Sleep until rung. A token left by a ring that landed before the
    /// sleep returns it at once, stale or not: the caller re-checks its
    /// state. The read drains whatever is there.
    fn sleep(&self) {
        let mut tokens = [0u8; 8];
        if matches!((&self.rx).read(&mut tokens), Ok(n) if n > 0) {
            self.rung.store(false, Ordering::SeqCst);
        }
    }
}

/// One rank's wait record, allocated once with the world.
struct Waiter {
    /// The rank's thread, recorded before the rank can block.
    thread: OnceLock<Thread>,
    /// The rank's bell, made when its first block in a capped world
    /// returns, and never changed after. A grant and the wait it ends see
    /// the same bell, or both none and use `unpark`/`park`: the wait at
    /// start, the first block, and every wait on a host without pipes.
    bell: OnceLock<Option<Bell>>,
    /// `RUNNING` … `WOKEN`; capped worlds only.
    state: AtomicU8,
    /// Times the rank gave its permit up to wait (`pcu.parks`).
    parks: AtomicU64,
    /// Times the rank passed its permit straight to a ready rank
    /// (`pcu.handoffs`).
    handoffs: AtomicU64,
}

/// The free permits and the ready ranks of a capped world.
struct Permits {
    free: usize,
    /// A fixed ring of ready rank ids, oldest at `head`. A rank is queued
    /// at most once at a time, so one slot per rank always suffices.
    ring: Box<[usize]>,
    head: usize,
    len: usize,
}

impl Permits {
    fn push(&mut self, rank: usize) {
        let slot = (self.head + self.len) % self.ring.len();
        self.ring[slot] = rank;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let rank = self.ring[self.head];
        self.head = (self.head + 1) % self.ring.len();
        self.len -= 1;
        Some(rank)
    }
}

/// The cooperative rank executor: a counted set of worker permits handed
/// from rank to rank. A rank thread must hold a permit to execute rank
/// code; a rank that blocks passes its permit to the oldest ready rank, so
/// at most `cap` rank threads contend for the host's cores regardless of
/// world size. A capped rank waits for its permit on its [`Bell`].
/// `cap == 0` means uncapped: every rank stays runnable, a block is a plain
/// `thread::park` and a wake a plain `unpark`, with no permit bookkeeping
/// at all — the default for small worlds.
pub(crate) struct Scheduler {
    capped: bool,
    ranks: Box<[Waiter]>,
    permits: Mutex<Permits>,
    /// Ranks that want a permit they do not hold — the ring's length plus
    /// the ranks not started yet — readable without the lock: the spin
    /// rule's test. `Relaxed`: it publishes no other data, and a stale
    /// read only spins a little longer or blocks a little sooner.
    ready: AtomicUsize,
}

impl Scheduler {
    pub(crate) fn new(cap: usize, nranks: usize) -> Scheduler {
        let capped = cap != 0;
        Scheduler {
            capped,
            ranks: (0..nranks)
                .map(|_| Waiter {
                    thread: OnceLock::new(),
                    bell: OnceLock::new(),
                    state: AtomicU8::new(RUNNING),
                    parks: AtomicU64::new(0),
                    handoffs: AtomicU64::new(0),
                })
                .collect(),
            permits: Mutex::new(Permits {
                free: cap,
                ring: vec![0; if capped { nranks } else { 0 }].into_boxed_slice(),
                head: 0,
                len: 0,
            }),
            ready: AtomicUsize::new(if capped { nranks } else { 0 }),
        }
    }

    fn permits(&self) -> MutexGuard<'_, Permits> {
        self.permits
            .lock()
            .expect("no code panics while holding the permit lock")
    }

    /// Whether a ready rank waits for a permit. A rank not started yet
    /// counts: it wants a permit as soon as its thread comes up. Blocking
    /// primitives yield-spin only while this is false: a spinning rank would
    /// pin a permit that the ready rank could run on.
    pub(crate) fn has_ready(&self) -> bool {
        self.ready.load(Ordering::Relaxed) != 0
    }

    /// Enter rank code on `rank`'s thread: record the thread, then take a
    /// free permit or wait in the ring for one.
    pub(crate) fn start(&self, rank: usize, poisoned: &AtomicBool) {
        self.ranks[rank].thread.get_or_init(std::thread::current);
        if !self.capped {
            return;
        }
        let state = &self.ranks[rank].state;
        let mut p = self.permits();
        if p.free > 0 {
            p.free -= 1;
            self.ready.fetch_sub(1, Ordering::Relaxed);
            state.store(RUNNING, Ordering::SeqCst);
            return;
        }
        // Already counted in `ready` as not started.
        state.store(READY, Ordering::SeqCst);
        p.push(rank);
        drop(p);
        self.wait_for_permit(rank, poisoned);
    }

    /// Leave rank code: pass `rank`'s permit on.
    pub(crate) fn finish(&self, rank: usize) {
        if !self.capped {
            return;
        }
        let next = self.pass_permit(rank, &mut self.permits());
        if let Some(next) = next {
            self.ring_bell(next);
        }
    }

    /// Block `rank` until a [`Scheduler::wake`] (or the world's poison).
    /// The caller registered for its event first, so a wake that comes
    /// before the block is not lost: uncapped it leaves a sticky `unpark`
    /// token, capped it leaves `WOKEN` and the rank keeps its permit.
    /// Capped, a blocking rank passes its permit to the oldest ready rank
    /// and returns holding a permit again. Returns may be spurious (a stale
    /// wake): callers re-check their event.
    pub(crate) fn block(&self, rank: usize, poisoned: &AtomicBool) {
        if !self.capped {
            std::thread::park();
            return;
        }
        if self.give_up(rank) {
            self.wait_for_permit(rank, poisoned);
            // The rank's later waits sleep on a bell, made here the first
            // time: the rank runs, so no grant can reach it before the
            // bell is in place. A world's start, where every rank blocks
            // once before the last one runs, makes none.
            self.ranks[rank].bell.get_or_init(Bell::new);
        }
    }

    /// `block`'s first half, capped: unless `rank` was woken already
    /// (`false`, permit kept), mark it blocked and pass its permit on.
    fn give_up(&self, rank: usize) -> bool {
        let me = &self.ranks[rank];
        let next = {
            let mut p = self.permits();
            if me.state.load(Ordering::SeqCst) == WOKEN {
                me.state.store(RUNNING, Ordering::SeqCst);
                return false;
            }
            me.state.store(BLOCKED, Ordering::SeqCst);
            me.parks.fetch_add(1, Ordering::Relaxed);
            self.pass_permit(rank, &mut p)
        };
        if let Some(next) = next {
            self.ring_bell(next);
        }
        true
    }

    /// Make `rank` ready for the event it blocked on. Capped: a blocked rank
    /// gets a free permit and its bell rung, or is queued without a wake; a
    /// rank that has registered but not yet blocked is marked `WOKEN`.
    pub(crate) fn wake(&self, rank: usize) {
        if !self.capped {
            self.ring_bell(rank);
            return;
        }
        let granted = self.ready_up(rank, &mut self.permits());
        if granted {
            self.ring_bell(rank);
        }
    }

    /// [`Scheduler::wake`] each of `ranks` in turn, under one lock: the
    /// first ones take the free permits, the rest queue in this order.
    /// Drains `ranks`. The granted ranks' bells ring once the lock is
    /// dropped: a sync wakeup may run a woken rank on this core at once, and
    /// it must not find the permit lock held by the waker it displaced.
    pub(crate) fn wake_all(&self, ranks: &mut Vec<usize>) {
        if self.capped {
            let mut p = self.permits();
            ranks.retain(|&rank| self.ready_up(rank, &mut p));
        }
        ranks.drain(..).for_each(|rank| self.ring_bell(rank));
    }

    /// `wake`'s state change under the lock; `true` if `rank` was granted a
    /// permit and its bell must be rung.
    fn ready_up(&self, rank: usize, p: &mut Permits) -> bool {
        let state = &self.ranks[rank].state;
        match state.load(Ordering::SeqCst) {
            BLOCKED if p.free > 0 => {
                p.free -= 1;
                state.store(GRANTED, Ordering::SeqCst);
                true
            }
            BLOCKED => {
                state.store(READY, Ordering::SeqCst);
                p.push(rank);
                self.ready.fetch_add(1, Ordering::Relaxed);
                false
            }
            RUNNING => {
                state.store(WOKEN, Ordering::SeqCst);
                false
            }
            // READY, GRANTED, WOKEN: already made ready.
            _ => false,
        }
    }

    /// Pass `rank`'s permit to the oldest ready rank, returned to have its
    /// bell rung once the lock is dropped, or back to the free set.
    fn pass_permit(&self, rank: usize, p: &mut Permits) -> Option<usize> {
        let Some(next) = p.pop() else {
            p.free += 1;
            return None;
        };
        self.ready.fetch_sub(1, Ordering::Relaxed);
        self.ranks[next].state.store(GRANTED, Ordering::SeqCst);
        self.ranks[rank].handoffs.fetch_add(1, Ordering::Relaxed);
        Some(next)
    }

    /// Sleep on the bell (or park, if there is none) until granted a
    /// permit; returns early, permit-less, only on poison (the caller then
    /// fails).
    fn wait_for_permit(&self, rank: usize, poisoned: &AtomicBool) {
        let me = &self.ranks[rank];
        while me.state.load(Ordering::SeqCst) != GRANTED {
            if poisoned.load(Ordering::SeqCst) {
                return;
            }
            match me.bell.get() {
                Some(Some(bell)) => bell.sleep(),
                _ => std::thread::park(),
            }
        }
        me.state.store(RUNNING, Ordering::SeqCst);
    }

    /// End `rank`'s wait: ring its bell, or unpark its thread if it has no
    /// bell (uncapped, waiting at start, or on a host without pipes).
    fn ring_bell(&self, rank: usize) {
        let me = &self.ranks[rank];
        match me.bell.get() {
            Some(Some(bell)) => bell.ring(),
            _ => {
                if let Some(t) = me.thread.get() {
                    t.unpark();
                }
            }
        }
    }

    /// `rank`'s `(parks, handoffs)` since the last call, which resets them.
    pub(crate) fn take_counts(&self, rank: usize) -> (u64, u64) {
        let me = &self.ranks[rank];
        (
            me.parks.swap(0, Ordering::Relaxed),
            me.handoffs.swap(0, Ordering::Relaxed),
        )
    }

    /// Wake every rank unconditionally (world poison path): each blocking
    /// loop then sees the poison flag and fails.
    pub(crate) fn force_wake(&self) {
        (0..self.ranks.len()).for_each(|r| self.ring_bell(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{execute_opts, WorldOpts};
    use crate::machine::MachineModel;
    use crate::phased::Exchange;
    use bytes::Bytes;
    use std::sync::mpsc;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    /// How long a watchdog waits before it calls a protocol test hung.
    const WATCHDOG: Duration = Duration::from_secs(30);

    /// Back-to-back barriers with more members than permits. On one permit
    /// every non-last arriver finds a ready rank waiting, so it skips the
    /// spin, registers and blocks for real, handing its permit on; on two,
    /// a member released onto a free permit runs beside the releaser and
    /// re-enters, registers and blocks for generation G+1 while G's
    /// releaser may still be waking the rest. If that releaser could drain
    /// the newcomer, it would wake into an unchanged generation, block again
    /// unregistered, and nobody would ever wake it. A watchdog turns that
    /// hang into a failure.
    #[test]
    fn barrier_never_loses_a_wakeup_across_generations() {
        const MEMBERS: usize = 4;
        const ROUNDS: usize = 200_000;
        for cap in [1, 2] {
            let barrier = Arc::new(SenseBarrier::new(MEMBERS));
            let exec = Arc::new(Scheduler::new(cap, MEMBERS));
            let poisoned = Arc::new(AtomicBool::new(false));
            let (done_tx, done_rx) = mpsc::channel();
            let members: Vec<_> = (0..MEMBERS)
                .map(|rank| {
                    let (barrier, exec, poisoned, done_tx) = (
                        Arc::clone(&barrier),
                        Arc::clone(&exec),
                        Arc::clone(&poisoned),
                        done_tx.clone(),
                    );
                    std::thread::spawn(move || {
                        exec.start(rank, &poisoned);
                        for _ in 0..ROUNDS {
                            barrier.wait(rank, &exec, &poisoned);
                        }
                        exec.finish(rank);
                        done_tx.send(()).expect("watchdog alive");
                    })
                })
                .collect();
            let hung = (0..MEMBERS).any(|_| done_rx.recv_timeout(WATCHDOG).is_err());
            if hung {
                // Poison, then wake every member: each blocking loop
                // sees the flag and fails.
                poisoned.store(true, Ordering::SeqCst);
                exec.force_wake();
            }
            let panicked = members.into_iter().filter_map(|m| m.join().err()).count();
            assert!(
                !hung,
                "barrier hung on {cap} permit(s): a member blocked with nobody left to wake it \
                 ({panicked} members had to be poisoned out)"
            );
        }
    }

    /// Three producers push numbered envelopes into rank 0's mailbox in
    /// lockstep rounds, while rank 0 drains and parks on one permit. Before
    /// each park it readies rank 1, an idler that only blocks again whenever
    /// it runs: with a ready rank waiting, the park skips its spin and
    /// blocks for real, handing the permit to the idler, and the producer's
    /// wake must bring it back through the ring. A round ends at a barrier
    /// once the owner holds all of it, so the last push of each round is the
    /// only one that can wake the owner: a lost wakeup leaves it parked with
    /// mail queued, which the watchdog turns into a failure. Every sender's
    /// numbers must also arrive ascending, none lost.
    #[test]
    fn inbox_keeps_each_sender_fifo_and_never_loses_a_wakeup() {
        const SENDERS: usize = 3;
        const ROUNDS: u64 = 10_000;
        const BATCH: u64 = 2;
        const OWNER: usize = 0;
        const IDLER: usize = 1;
        let inbox = Arc::new(Mailbox::new(OWNER));
        let exec = Arc::new(Scheduler::new(1, 2));
        let poisoned = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let round_end = Arc::new(Barrier::new(SENDERS + 1));
        let (done_tx, done_rx) = mpsc::channel();
        let owner = {
            let (inbox, exec, poisoned, done, round_end, done_tx) = (
                Arc::clone(&inbox),
                Arc::clone(&exec),
                Arc::clone(&poisoned),
                Arc::clone(&done),
                Arc::clone(&round_end),
                done_tx.clone(),
            );
            std::thread::spawn(move || {
                exec.start(OWNER, &poisoned);
                let mut next = [0u64; SENDERS];
                for round in 1..=ROUNDS {
                    loop {
                        inbox.drain(&mut |e| {
                            assert_eq!(e.hash, next[e.from], "sender {} out of order", e.from);
                            next[e.from] += 1;
                        });
                        if next.iter().all(|&n| n == round * BATCH) {
                            break;
                        }
                        // Widen the window in which a push lands after the
                        // drain but before `park` raises its flag.
                        std::thread::yield_now();
                        exec.wake(IDLER);
                        assert!(inbox.park(&exec, &poisoned), "owner poisoned out");
                    }
                    round_end.wait();
                }
                done.store(true, Ordering::SeqCst);
                exec.wake(IDLER);
                exec.finish(OWNER);
                done_tx.send(()).expect("watchdog alive");
            })
        };
        let idler = {
            let (exec, poisoned, done) =
                (Arc::clone(&exec), Arc::clone(&poisoned), Arc::clone(&done));
            std::thread::spawn(move || {
                exec.start(IDLER, &poisoned);
                while !done.load(Ordering::SeqCst) && !poisoned.load(Ordering::SeqCst) {
                    exec.block(IDLER, &poisoned);
                }
                exec.finish(IDLER);
                done_tx.send(()).expect("watchdog alive");
            })
        };
        let producers: Vec<_> = (0..SENDERS)
            .map(|from| {
                let (inbox, exec, round_end) = (
                    Arc::clone(&inbox),
                    Arc::clone(&exec),
                    Arc::clone(&round_end),
                );
                std::thread::spawn(move || {
                    let envelope = |hash| Envelope {
                        from,
                        tag: 0,
                        data: Bytes::new(),
                        hash,
                    };
                    for round in 0..ROUNDS {
                        (round * BATCH..(round + 1) * BATCH)
                            .for_each(|i| inbox.push(envelope(i), &exec));
                        round_end.wait();
                    }
                })
            })
            .collect();
        // The owner and the idler each report once. An owner that panics
        // (its message names the sender out of order) never releases the
        // idler, so that too ends at the watchdog.
        let hung = (0..2).any(|_| {
            matches!(
                done_rx.recv_timeout(WATCHDOG),
                Err(mpsc::RecvTimeoutError::Timeout)
            )
        });
        if hung {
            poisoned.store(true, Ordering::SeqCst);
            exec.force_wake();
        }
        let drained = owner.join();
        let idled = idler.join();
        assert!(!hung, "inbox hung: a rank blocked with its event delivered");
        assert!(drained.is_ok(), "the owner saw an envelope out of order");
        assert!(idled.is_ok(), "the idler panicked");
        for p in producers {
            p.join().expect("producer panicked");
        }
    }

    /// Run `world` on a fresh thread and fail if it has not returned within
    /// the watchdog's limit. A hung world cannot be poisoned from outside,
    /// so its parked threads are left behind.
    fn under_watchdog(what: String, world: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            world();
            let _ = tx.send(());
        });
        match rx.recv_timeout(WATCHDOG) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: the world hung"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what}: a rank panicked"),
        }
    }

    /// A ring never blocks its ringer, and tokens never pile up. Rank 0
    /// holds a bell and takes 100 000 grants without ever sleeping on it:
    /// each lands between its giving the permit up and its wait, which
    /// finds the permit granted and returns. A ring that wrote a byte per
    /// grant would fill the pipe (64 KiB on Linux) and block its ringer for
    /// good, which the watchdog turns into a failure. Afterwards exactly one
    /// token waits: one sleep returns at once and drains it.
    #[test]
    fn grants_to_a_rank_that_never_sleeps_leave_one_token() {
        const GRANTS: usize = 100_000;
        under_watchdog(format!("{GRANTS} grants"), || {
            let exec = Scheduler::new(1, 2);
            let poisoned = AtomicBool::new(false);
            exec.start(0, &poisoned);
            let bell = exec.ranks[0].bell.get_or_init(Bell::new);
            let bell = bell.as_ref().expect("the host gives a pipe");
            for _ in 0..GRANTS {
                assert!(exec.give_up(0), "rank 0 was not woken");
                // The permit is free (rank 1 never started): the wake
                // grants it back and rings the bell.
                exec.wake(0);
                exec.wait_for_permit(0, &poisoned);
            }
            assert!(bell.rung.load(Ordering::SeqCst));
            bell.sleep();
            assert!(!bell.rung.load(Ordering::SeqCst), "the sleep drained");
        });
    }

    /// Poison must reach a rank asleep on its bell, not only a parked one.
    /// Rank 0's first block parks and a wake grants it the free permit back;
    /// its second block sleeps on the bell made in between. Poison and
    /// `force_wake` must end that sleep: the block returns and the rank
    /// thread exits, or the watchdog fails the test.
    #[test]
    fn poison_releases_a_rank_asleep_on_its_bell() {
        under_watchdog("a rank asleep on its bell".into(), || {
            let exec = Scheduler::new(1, 2);
            let poisoned = AtomicBool::new(false);
            let me = &exec.ranks[0];
            let blocked = || me.state.load(Ordering::SeqCst) == BLOCKED;
            std::thread::scope(|s| {
                s.spawn(|| {
                    exec.start(0, &poisoned);
                    exec.block(0, &poisoned);
                    exec.block(0, &poisoned);
                });
                while !blocked() {
                    std::thread::yield_now();
                }
                exec.wake(0);
                while !(blocked() && me.bell.get().is_some()) {
                    std::thread::yield_now();
                }
                assert!(me.bell.get().unwrap().is_some(), "the host gives a pipe");
                // Let the rank reach its read. The sleep only widens the
                // window for the case under test: a poison that lands
                // before the read is caught by the wait's own check.
                std::thread::sleep(Duration::from_millis(20));
                poisoned.store(true, Ordering::SeqCst);
                exec.force_wake();
            });
        });
    }

    /// `WorldOpts::workers` means that no more than W rank threads execute
    /// rank code at once. Between its pcu calls a rank must hold a permit,
    /// so a shared count of ranks in that stretch must never exceed W,
    /// through barriers, neighbour and all-to-all exchanges, gathers and
    /// allreduces. Each stretch yields, to give an executor that let a
    /// rank run without a permit the chance to show it.
    #[test]
    fn permits_never_exceed_the_cap() {
        const ROUNDS: u64 = 150;
        for (nodes, per_node) in [(2, 4), (4, 4)] {
            for cap in [1usize, 2] {
                let running = Arc::new(AtomicUsize::new(0));
                let most = Arc::new(AtomicUsize::new(0));
                let (r, m) = (Arc::clone(&running), Arc::clone(&most));
                let n = nodes * per_node;
                under_watchdog(format!("{n} ranks on {cap} permit(s)"), move || {
                    let machine = MachineModel::new(nodes, per_node);
                    let opts = WorldOpts::default().workers(cap);
                    let stretch = || {
                        let now = r.fetch_add(1, Ordering::SeqCst) + 1;
                        m.fetch_max(now, Ordering::SeqCst);
                        for _ in 0..3 {
                            std::thread::yield_now();
                        }
                        r.fetch_sub(1, Ordering::SeqCst);
                    };
                    let sums = execute_opts(machine, opts, |c| {
                        let mut total = 0;
                        for round in 0..ROUNDS {
                            stretch();
                            match round % 4 {
                                0 => c.barrier(),
                                1 => {
                                    let mut ex = Exchange::new(c);
                                    let step = 1 + round as usize % (n - 1);
                                    ex.to((c.rank() + step) % n).put_u64(round);
                                    let got = ex.finish();
                                    assert_eq!(got.len(), 1);
                                }
                                2 => {
                                    let mut ex = Exchange::new(c);
                                    for dest in 0..n {
                                        ex.to(dest).put_u64(round);
                                    }
                                    let got = ex.finish();
                                    assert_eq!(got.len(), n);
                                }
                                _ => {
                                    let _ = c.gather_bytes(round as usize % n, Bytes::new());
                                    total += c.allreduce_sum_u64(round);
                                }
                            }
                        }
                        stretch();
                        total
                    });
                    let want: u64 = (0..ROUNDS)
                        .filter(|r| r % 4 == 3)
                        .map(|r| r * n as u64)
                        .sum();
                    assert!(sums.iter().all(|&s| s == want));
                });
                let most = most.load(Ordering::SeqCst);
                assert!(most <= cap, "{most} ranks ran at once on {cap} permit(s)");
                assert!(most >= 1);
            }
        }
    }

    /// A rank that finishes passes its permit on. Ranks wait in the ready
    /// ring at spawn, after a barrier whose releaser then returns, and at a
    /// gather whose senders return at once; in each shape every permit
    /// holder leaves while ready ranks still wait, and each of those must
    /// still get a permit and finish.
    #[test]
    fn no_ready_rank_is_stranded_when_every_permit_holder_finishes() {
        const REPEATS: usize = 40;
        for n in [3usize, 8, 16] {
            for cap in [1usize, 2] {
                under_watchdog(format!("{n} ranks on {cap} permit(s)"), move || {
                    let opts = WorldOpts::default().workers(cap);
                    for _ in 0..REPEATS {
                        // Ranks 0..cap take the permits and leave at once.
                        let ran = execute_opts(MachineModel::flat(n), opts, |c| c.rank());
                        assert_eq!(ran, (0..n).collect::<Vec<_>>());
                        // The last arriver releases and returns at once.
                        execute_opts(MachineModel::flat(n), opts, |c| c.barrier());
                        // Senders return right after their send, while the
                        // root waits for their messages.
                        let got = execute_opts(MachineModel::flat(n), opts, |c| {
                            c.gather_bytes(0, Bytes::from(vec![c.rank() as u8]))
                                .map(|all| all.len())
                        });
                        assert_eq!(got[0], Some(n));
                    }
                });
            }
        }
    }
}
