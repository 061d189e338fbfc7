//! World-shared runtime primitives: locked per-rank mailboxes, shared-
//! memory consensus barriers, and the cooperative rank executor.
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
//! * **Elided, token-based wakeups.** A sender pays for a wakeup only when
//!   the receiver is actually parked (a `SeqCst` flag handshake, ordered
//!   by the queue lock, makes the check race-free), and the wakeup itself
//!   is a sticky `thread::unpark` token — no condvar for the sleeper to
//!   re-acquire, no lost-wakeup window, and callers that deliver several
//!   envelopes to one destination push them all quietly and notify once,
//!   so a phase's worth of frames costs at most one wake per link, not
//!   one per envelope.
//! * **Cooperative executor.** With `R` ranks multiplexed onto `W` worker
//!   permits ([`Scheduler`]), at most `W` rank threads are runnable at any
//!   instant; a rank releases its permit whenever it parks (mailbox wait,
//!   barrier wait) and re-acquires it on wake. Blocked ranks therefore
//!   cost a parked OS thread, not a scheduled one, and a 1024-rank world
//!   no longer thrashes the kernel scheduler of a laptop-sized host.
//!
//! Every blocking loop observes the world's poison flag so that a panic on
//! one rank wakes and fails the others instead of deadlocking the world.

use crate::comm::Envelope;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// How many `yield_now` rounds a blocking primitive cedes the CPU before
/// paying for a real `park`. When rank threads outnumber cores, one yield
/// walks the scheduler through every other runnable rank — which usually
/// produces the event we are waiting for — so the common case costs one
/// cheap syscall instead of a park/unpark futex pair plus a forced wake on
/// the notifier's critical path. Bounded, so a genuinely long wait still
/// parks and frees the core entirely.
const SPIN_YIELDS: usize = 8;

/// One rank's incoming side of the simulated network.
pub(crate) struct Mailbox {
    /// Envelopes in arrival order: each sender's own envelopes stay FIFO,
    /// and order across senders is whatever order they took the lock in.
    queue: Mutex<Vec<Envelope>>,
    /// Whether the owner is parked — producers skip the wake syscall
    /// entirely while the owner is running.
    sleeping: AtomicBool,
    /// The owning rank's thread, recorded at first park. Wakeups are
    /// sticky `unpark` tokens: if a producer races ahead of the owner's
    /// `park`, the token makes that park return immediately, so no wakeup
    /// can be lost and no condvar is needed.
    owner: OnceLock<Thread>,
}

impl Mailbox {
    pub(crate) fn new() -> Mailbox {
        Mailbox {
            queue: Mutex::new(Vec::new()),
            sleeping: AtomicBool::new(false),
            owner: OnceLock::new(),
        }
    }

    /// The queue, even after a rank panicked while holding it: a panic
    /// must reach the world's poison path, not raise a second panic here.
    /// Every update is one `Vec` push or drain, which leaves it valid.
    fn queue(&self) -> MutexGuard<'_, Vec<Envelope>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue without waking the owner. Callers must follow a batch of
    /// quiet pushes with [`Mailbox::notify`].
    pub(crate) fn push_quiet(&self, env: Envelope) {
        self.queue().push(env);
    }

    /// Wake the owner if (and only if) it is parked.
    pub(crate) fn notify(&self) {
        if self.sleeping.load(Ordering::SeqCst) {
            if let Some(t) = self.owner.get() {
                t.unpark();
            }
        }
    }

    /// Enqueue and wake: the common single-envelope send.
    pub(crate) fn push(&self, env: Envelope) {
        self.push_quiet(env);
        self.notify();
    }

    /// Hand every queued envelope, in arrival order, to `out`. Owner-only.
    pub(crate) fn drain(&self, out: &mut impl FnMut(Envelope)) {
        self.queue().drain(..).for_each(out);
    }

    fn has_mail(&self) -> bool {
        !self.queue().is_empty()
    }

    /// Park the owner until a producer notifies (or the world is
    /// poisoned). Returns `true` if mail may be available, `false` only on
    /// poison. Owner-only. The caller re-drains after every wake: wakes
    /// may be spurious (stale tokens) or already-consumed.
    pub(crate) fn park(&self, exec: &Scheduler, poisoned: &AtomicBool) -> bool {
        // Yield-spin first (unless multiplexed: spinning would hold a
        // worker permit that a runnable rank needs). The producer we are
        // waiting on is usually just another thread of this process, so
        // ceding the CPU is both the fastest and the cheapest way to make
        // it run.
        if !exec.is_multiplexing() {
            for _ in 0..SPIN_YIELDS {
                if self.has_mail() || poisoned.load(Ordering::SeqCst) {
                    return !poisoned.load(Ordering::SeqCst);
                }
                std::thread::yield_now();
            }
        }
        self.owner.get_or_init(std::thread::current);
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
        //   push and hence before its load, and the producer unparks.
        // A producer that unparks before the park below leaves a sticky
        // token that returns that park immediately.
        if self.has_mail() || poisoned.load(Ordering::SeqCst) {
            self.sleeping.store(false, Ordering::SeqCst);
            return !poisoned.load(Ordering::SeqCst);
        }
        // Sleeping costs a parked OS thread only: give the worker permit
        // back to the executor while blocked.
        exec.release();
        std::thread::park();
        self.sleeping.store(false, Ordering::SeqCst);
        exec.acquire(poisoned);
        !poisoned.load(Ordering::SeqCst)
    }

    /// Wake the owner unconditionally (world poison path).
    pub(crate) fn force_wake(&self) {
        if let Some(t) = self.owner.get() {
            t.unpark();
        }
    }
}

/// A reusable counted barrier over one membership set (the world, or the
/// ranks of one node). Shared-memory consensus replaces the previous
/// log₂N-round dissemination barrier of empty messages: arrivals count on
/// a lock-free atomic, the last arriver bumps the generation and unparks
/// only the waiters that actually parked, and non-last arrivers yield-spin
/// on the generation before paying for a park — in the steady cadence of a
/// phased exchange most members never touch the mutex or a futex at all.
pub(crate) struct SenseBarrier {
    members: usize,
    /// Arrivals in the current generation. Only the last arriver resets
    /// it, and no member can re-enter until the generation advances, so
    /// the counter is never incremented concurrently with its reset.
    arrivals: AtomicUsize,
    waiters: Mutex<Vec<Thread>>,
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

    /// Block until all members arrive. Panics (on every waiter) if the
    /// world is poisoned while waiting.
    pub(crate) fn wait(&self, exec: &Scheduler, poisoned: &AtomicBool) {
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
            for t in w.drain(..) {
                t.unpark();
            }
            return;
        }
        if !exec.is_multiplexing() {
            for _ in 0..SPIN_YIELDS {
                if self.generation.load(Ordering::SeqCst) != gen {
                    return;
                }
                std::thread::yield_now();
            }
        }
        // Slow path: re-check under the lock, then register — the releaser
        // bumps the generation and drains while holding the same lock, so a
        // registration that observes the old generation here is guaranteed
        // to be seen (and unparked) by the releaser.
        let mut w = self.waiters.lock().unwrap();
        if self.generation.load(Ordering::SeqCst) != gen {
            return;
        }
        w.push(std::thread::current());
        drop(w);
        exec.release();
        while self.generation.load(Ordering::SeqCst) == gen && !poisoned.load(Ordering::SeqCst) {
            std::thread::park();
        }
        exec.acquire(poisoned);
        if poisoned.load(Ordering::SeqCst) {
            panic!("peer rank panicked while this rank waited at a barrier");
        }
    }

    /// Wake all registered waiters unconditionally (world poison path).
    pub(crate) fn force_wake(&self) {
        let mut w = self.waiters.lock().unwrap();
        for t in w.drain(..) {
            t.unpark();
        }
    }
}

/// The cooperative rank executor: a counted set of worker permits. A rank
/// thread must hold a permit to execute; every blocking primitive releases
/// the permit before parking and re-acquires it after waking, so at most
/// `cap` rank threads contend for the host's cores regardless of world
/// size. `cap == 0` disables multiplexing (one permit per rank, no
/// bookkeeping at all) — the default for small worlds.
pub(crate) struct Scheduler {
    cap: usize,
    state: Mutex<usize>,
    cv: Condvar,
}

impl Scheduler {
    pub(crate) fn new(cap: usize) -> Scheduler {
        Scheduler {
            cap,
            state: Mutex::new(cap),
            cv: Condvar::new(),
        }
    }

    /// Whether rank threads are being multiplexed onto a bounded permit
    /// set. Blocking primitives skip their yield-spin fast path when true:
    /// spinning would pin a permit that a runnable rank needs.
    pub(crate) fn is_multiplexing(&self) -> bool {
        self.cap != 0
    }

    /// Take a worker permit (blocking). Poison releases all waiters.
    pub(crate) fn acquire(&self, poisoned: &AtomicBool) {
        if self.cap == 0 {
            return;
        }
        let mut g = self.state.lock().unwrap();
        while *g == 0 && !poisoned.load(Ordering::SeqCst) {
            g = self.cv.wait(g).unwrap();
        }
        *g = g.saturating_sub(1);
    }

    /// Return a worker permit.
    pub(crate) fn release(&self) {
        if self.cap == 0 {
            return;
        }
        let mut g = self.state.lock().unwrap();
        *g += 1;
        drop(g);
        self.cv.notify_one();
    }

    /// Wake all permit waiters unconditionally (world poison path).
    pub(crate) fn force_wake(&self) {
        let _g = self.state.lock().unwrap();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::mpsc;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    /// Back-to-back barriers with more members than cores, under a
    /// multiplexing scheduler so every non-last arriver registers and parks
    /// (no yield-spin): a member released from generation G re-enters,
    /// registers and parks for G+1 while G's releaser is still on its way
    /// to the waiter list. If that releaser could drain the newcomer, it
    /// would wake into an unchanged generation, park again unregistered,
    /// and nobody would ever wake it. A watchdog turns that hang into a
    /// failure.
    #[test]
    fn barrier_never_loses_a_wakeup_across_generations() {
        const MEMBERS: usize = 4;
        const ROUNDS: usize = 200_000;
        let barrier = Arc::new(SenseBarrier::new(MEMBERS));
        let exec = Arc::new(Scheduler::new(MEMBERS));
        let poisoned = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel();
        let members: Vec<_> = (0..MEMBERS)
            .map(|_| {
                let (barrier, exec, poisoned, done_tx) = (
                    Arc::clone(&barrier),
                    Arc::clone(&exec),
                    Arc::clone(&poisoned),
                    done_tx.clone(),
                );
                std::thread::spawn(move || {
                    exec.acquire(&poisoned);
                    for _ in 0..ROUNDS {
                        barrier.wait(&exec, &poisoned);
                    }
                    exec.release();
                    done_tx.send(()).expect("watchdog alive");
                })
            })
            .collect();
        let hung = (0..MEMBERS).any(|_| done_rx.recv_timeout(Duration::from_secs(30)).is_err());
        if hung {
            // Poison, then unpark every member directly: the lost one is in
            // nobody's waiter list, so `force_wake` cannot reach it.
            poisoned.store(true, Ordering::SeqCst);
            for m in &members {
                m.thread().unpark();
            }
        }
        let panicked = members.into_iter().filter_map(|m| m.join().err()).count();
        assert!(
            !hung,
            "barrier hung: a member parked with nobody left to wake it ({panicked} members had to be poisoned out)"
        );
    }

    /// Three producers push numbered envelopes into one mailbox in
    /// lockstep rounds, every other round as a quiet batch closed by one
    /// `notify`, while the owner drains and parks under a multiplexing
    /// scheduler, so every empty drain ends in a real park. A round ends at
    /// a barrier once the owner holds all of it, so the last push of each
    /// round is the only one that can wake the owner: a lost wakeup leaves
    /// it parked with mail queued, which the watchdog turns into a failure.
    /// Every sender's numbers must also arrive ascending, none lost.
    #[test]
    fn inbox_keeps_each_sender_fifo_and_never_loses_a_wakeup() {
        const SENDERS: usize = 3;
        const ROUNDS: u64 = 10_000;
        const BATCH: u64 = 2;
        let inbox = Arc::new(Mailbox::new());
        let exec = Arc::new(Scheduler::new(1));
        let poisoned = Arc::new(AtomicBool::new(false));
        let round_end = Arc::new(Barrier::new(SENDERS + 1));
        let (done_tx, done_rx) = mpsc::channel();
        let owner = {
            let (inbox, exec, poisoned, round_end) = (
                Arc::clone(&inbox),
                Arc::clone(&exec),
                Arc::clone(&poisoned),
                Arc::clone(&round_end),
            );
            std::thread::spawn(move || {
                exec.acquire(&poisoned);
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
                        assert!(inbox.park(&exec, &poisoned), "owner poisoned out");
                    }
                    round_end.wait();
                }
                exec.release();
                done_tx.send(()).expect("watchdog alive");
            })
        };
        let producers: Vec<_> = (0..SENDERS)
            .map(|from| {
                let (inbox, round_end) = (Arc::clone(&inbox), Arc::clone(&round_end));
                std::thread::spawn(move || {
                    let envelope = |hash| Envelope {
                        from,
                        tag: 0,
                        data: Bytes::new(),
                        hash,
                    };
                    for round in 0..ROUNDS {
                        let seqs = round * BATCH..(round + 1) * BATCH;
                        if round % 2 == 0 {
                            seqs.for_each(|i| inbox.push(envelope(i)));
                        } else {
                            seqs.for_each(|i| inbox.push_quiet(envelope(i)));
                            inbox.notify();
                        }
                        round_end.wait();
                    }
                })
            })
            .collect();
        let hung = matches!(
            done_rx.recv_timeout(Duration::from_secs(30)),
            Err(mpsc::RecvTimeoutError::Timeout)
        );
        if hung {
            poisoned.store(true, Ordering::SeqCst);
            owner.thread().unpark();
        }
        let drained = owner.join();
        assert!(!hung, "inbox hung: the owner parked with mail queued");
        assert!(drained.is_ok(), "the owner saw an envelope out of order");
        for p in producers {
            p.join().expect("producer panicked");
        }
    }
}
