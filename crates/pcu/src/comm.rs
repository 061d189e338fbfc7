//! The simulated message-passing world.
//!
//! [`execute`] spawns one OS thread per rank and hands each a [`Comm`]. Ranks
//! may only exchange serialized bytes through `Comm` — there is no shared
//! mutable state — so algorithms written against this API are directly
//! portable to real MPI. This is the substitution for the paper's Blue Gene/Q
//! MPI runtime (see DESIGN.md).
//!
//! World state (routing table, traffic meters, barriers, the executor) lives
//! in one `Arc`-shared `WorldCore`; each `Comm` is a thin per-rank view, so
//! world setup is O(N), not O(N²) sender-handle clones. Transport is the
//! locked per-rank mailbox of the private `runtime` module, and [`WorldOpts`] /
//! `PUMI_PCU_WORKERS` can multiplex R ranks onto W worker permits so worlds
//! far wider than the host (256–1024 ranks) stay cheap — see DESIGN.md
//! "Scaling the simulated world".

use crate::machine::{LinkClass, MachineModel, TrafficCounters, TrafficReport};
use crate::runtime::{Mailbox, Scheduler, SenseBarrier};
use crate::sched::SchedMode;
use bytes::Bytes;
use pumi_util::FxHashMap;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

#[derive(Debug)]
pub(crate) struct Envelope {
    pub from: usize,
    pub tag: u32,
    pub data: Bytes,
    /// `phased::frame_hash` of an exchange frame, taken by the rank that
    /// last framed it; 0 on every other message.
    pub hash: u64,
}

/// Messages drained off the wire but not yet consumed: one arrival-order
/// queue of `(from, data, hash)` per tag. Every tag belongs to one
/// collective or exchange phase, whose consumer either pops its messages
/// in any order (a gather indexes them by source, a broadcast's tag carries
/// only the root's message) or takes the whole queue at once (an
/// exchange). An emptied tag's entry is removed immediately: tags are never
/// reused, so stale entries would otherwise accumulate forever.
type Stash = FxHashMap<u32, VecDeque<(usize, Bytes, u64)>>;

/// Options for building a simulated world with [`execute_opts`]; the
/// default reads each knob from the environment, as [`execute`] does.
///
/// ```
/// use pumi_pcu::{execute_opts, MachineModel, WorldOpts};
/// // 64 ranks multiplexed onto 4 worker permits, small stacks.
/// let opts = WorldOpts::default().workers(4).stack_size(512 * 1024);
/// let out = execute_opts(MachineModel::flat(64), opts, |c| c.rank());
/// assert_eq!(out.len(), 64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WorldOpts {
    /// Frame-delivery scheduling for phased exchanges (defaults to
    /// `PUMI_PCU_SCHED`).
    pub sched: SchedMode,
    /// Worker-permit cap for the cooperative executor: at most this many
    /// rank threads are runnable at once; blocked ranks park without
    /// holding a permit. `None` reads `PUMI_PCU_WORKERS`; `Some(0)` (and an
    /// unset variable) disables multiplexing — every rank stays runnable,
    /// the right default for small worlds.
    pub workers: Option<usize>,
    /// Stack size per rank thread in bytes (`None` = platform default).
    /// Wide worlds set this low — 1024 ranks at the 8 MiB default reserve
    /// 8 GiB of address space for stacks alone.
    pub stack_size: Option<usize>,
}

impl Default for WorldOpts {
    fn default() -> WorldOpts {
        WorldOpts {
            sched: SchedMode::from_env(),
            workers: None,
            stack_size: None,
        }
    }
}

impl WorldOpts {
    /// Override the scheduling mode.
    pub fn sched(mut self, sched: SchedMode) -> WorldOpts {
        self.sched = sched;
        self
    }

    /// Cap runnable rank threads at `w` (0 disables multiplexing).
    pub fn workers(mut self, w: usize) -> WorldOpts {
        self.workers = Some(w);
        self
    }

    /// Set the per-rank thread stack size in bytes.
    pub fn stack_size(mut self, bytes: usize) -> WorldOpts {
        self.stack_size = Some(bytes);
        self
    }

    fn resolved_workers(&self, nranks: usize) -> usize {
        let w = self.workers.unwrap_or_else(workers_from_env);
        // A cap at or above the world size is no cap at all; skip the
        // permit bookkeeping entirely.
        if w >= nranks {
            0
        } else {
            w
        }
    }
}

fn workers_from_env() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("PUMI_PCU_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    })
}

/// State shared by every rank of one world: the routing table (mailboxes),
/// traffic meters, consensus barriers, the executor, and the poison flag.
/// One allocation per world, shared as `Arc` — each `Comm` holds a pointer,
/// not a clone of N sender handles.
pub(crate) struct WorldCore {
    machine: MachineModel,
    sched: SchedMode,
    counters: TrafficCounters,
    mailboxes: Box<[Mailbox]>,
    world_barrier: SenseBarrier,
    exec: Scheduler,
    /// Raised when any rank panics; every parked peer is then woken to
    /// fail loudly instead of deadlocking on a message that will never come.
    poisoned: AtomicBool,
}

impl WorldCore {
    fn new(machine: MachineModel, sched: SchedMode, workers: usize) -> WorldCore {
        let nranks = machine.nranks();
        WorldCore {
            machine,
            sched,
            counters: TrafficCounters::default(),
            mailboxes: (0..nranks).map(Mailbox::new).collect(),
            world_barrier: SenseBarrier::new(nranks),
            exec: Scheduler::new(workers, nranks),
            poisoned: AtomicBool::new(false),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.exec.force_wake();
    }
}

/// Per-rank communicator handle.
///
/// `Comm` is `Send` (it moves into its rank's thread) but deliberately not
/// shared between threads: each rank owns exactly one.
pub struct Comm {
    rank: usize,
    world: Arc<WorldCore>,
    /// Drained messages awaiting their collective or exchange.
    stash: RefCell<Stash>,
    /// Monotonic collective sequence number; identical across ranks because
    /// collectives are called in SPMD order.
    pub(crate) coll_seq: Cell<u32>,
    /// Monotonic count of completed phased exchanges. Unlike `coll_seq` it
    /// advances only on exchanges, never on collectives, so the chaos
    /// permutation of an exchange does not move when a collective is added
    /// or removed between two phases.
    pub(crate) exchange_seq: Cell<u32>,
}

impl Comm {
    /// This rank's id in `0..nranks`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.world.machine.nranks()
    }

    /// The machine model this world runs on.
    #[inline]
    pub fn machine(&self) -> MachineModel {
        self.world.machine
    }

    /// Classify the link from this rank to `other`.
    #[inline]
    pub(crate) fn link_to(&self, other: usize) -> LinkClass {
        self.world.machine.link(self.rank, other)
    }

    /// The frame-delivery scheduling mode of this world (see
    /// [`crate::sched::SchedMode`]).
    #[inline]
    pub fn sched(&self) -> SchedMode {
        self.world.sched
    }

    /// Number of phased exchanges completed on this communicator — the
    /// phase index layered exchanges feed to
    /// [`crate::sched::ChaosRng::for_phase`] for their own reproducible
    /// permutations.
    #[inline]
    pub fn exchanges_completed(&self) -> u32 {
        self.exchange_seq.get()
    }

    pub(crate) fn send_raw(&self, to: usize, tag: u32, data: Bytes) {
        self.send_frame(to, tag, data, 0);
    }

    /// [`Comm::send_raw`] of an exchange frame, with its `hash` riding in
    /// the envelope beside the payload.
    pub(crate) fn send_frame(&self, to: usize, tag: u32, data: Bytes, hash: u64) {
        self.meter(to, data.len());
        self.world.mailboxes[to].push(
            Envelope {
                from: self.rank,
                tag,
                data,
                hash,
            },
            &self.world.exec,
        );
    }

    fn meter(&self, to: usize, bytes: usize) {
        let link = self.world.machine.link(self.rank, to);
        self.world.counters.record(link, bytes);
        // Per-phase metering: the same message lands in the obs registry
        // under the sender's current span path.
        pumi_obs::metrics::record_traffic(link.to_obs(), bytes as u64);
    }

    /// Blocking receive of one message with `tag`, whichever rank sent
    /// it. Returns `(source, data)`.
    pub(crate) fn recv_raw(&self, tag: u32) -> (usize, Bytes) {
        loop {
            if let Some((from, data, _)) = self.pop(tag) {
                return (from, data);
            }
            // Nothing with this tag yet: block until a producer wakes us (the
            // mailbox re-checks for concurrent arrivals before blocking, so
            // no wakeup can be lost), then re-drain.
            if !self.world.mailboxes[self.rank].park(&self.world.exec, &self.world.poisoned) {
                panic!("peer rank panicked while this rank waited for a message");
            }
        }
    }

    /// Drain the wire into the stash, then pop the first stashed message
    /// with `tag`.
    fn pop(&self, tag: u32) -> Option<(usize, Bytes, u64)> {
        let mut stash = self.drain_wire();
        let q = stash.get_mut(&tag)?;
        let msg = q.pop_front();
        if q.is_empty() {
            stash.remove(&tag);
        }
        msg
    }

    /// Move every message currently on the wire into the stash, and hand
    /// back the stash.
    fn drain_wire(&self) -> std::cell::RefMut<'_, Stash> {
        let mut stash = self.stash.borrow_mut();
        self.world.mailboxes[self.rank].drain(&mut |e| {
            stash
                .entry(e.tag)
                .or_default()
                .push_back((e.from, e.data, e.hash))
        });
        stash
    }

    /// Drain the wire, then remove and return every stashed message with
    /// `tag`, in arrival order, as `(from, data, hash)`. Callers must have
    /// established (e.g. via a barrier) that no more messages with this tag
    /// are in flight.
    pub(crate) fn take_tag(&self, tag: u32) -> VecDeque<(usize, Bytes, u64)> {
        self.drain_wire().remove(&tag).unwrap_or_default()
    }

    /// Traffic totals for the whole world (shared counters).
    pub fn traffic(&self) -> TrafficReport {
        self.world.counters.report()
    }

    /// Reset the world traffic meters (e.g. between bench phases).
    pub fn reset_traffic(&self) {
        self.world.counters.reset();
    }

    /// This rank's executor `(parks, handoffs)` since the last call, which
    /// resets them (see [`crate::obs::WorldExecutor`]).
    pub(crate) fn take_executor_counts(&self) -> (u64, u64) {
        self.world.exec.take_counts(self.rank)
    }

    /// Shared-memory consensus among all ranks of the world — the barrier
    /// body lives here because it owns the world state; the public
    /// [`Comm::barrier`] wrapper in `collectives` adds the obs span.
    pub(crate) fn barrier_wait(&self) {
        self.world
            .world_barrier
            .wait(self.rank, &self.world.exec, &self.world.poisoned);
    }

    pub(crate) fn next_coll_tag(&self) -> u32 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        seq
    }
}

/// Run `f` on every rank of a machine with `nranks` single-core nodes
/// (pure-MPI view). Returns each rank's result, indexed by rank.
pub fn execute<F, R>(nranks: usize, f: F) -> Vec<R>
where
    F: Fn(&Comm) -> R + Send + Sync,
    R: Send,
{
    execute_opts(MachineModel::flat(nranks), WorldOpts::default(), f)
}

/// Run `f` on every rank slot of `machine`: one thread per rank, mapped
/// node-major (the paper's process→node, thread→core mapping), under
/// `opts` — scheduling mode, executor worker cap and rank-thread stack size
/// ([`WorldOpts::default`] reads `PUMI_PCU_SCHED` and `PUMI_PCU_WORKERS`).
pub fn execute_opts<F, R>(machine: MachineModel, opts: WorldOpts, f: F) -> Vec<R>
where
    F: Fn(&Comm) -> R + Send + Sync,
    R: Send,
{
    let nranks = machine.nranks();
    let workers = opts.resolved_workers(nranks);
    let world = Arc::new(WorldCore::new(machine, opts.sched, workers));

    let f = &f;
    let mut results: Vec<Option<R>> = (0..nranks).map(|_| None).collect();
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nranks)
            .map(|rank| {
                let world = Arc::clone(&world);
                let mut b = std::thread::Builder::new().name(format!("pcu-rank-{rank}"));
                if let Some(bytes) = opts.stack_size {
                    b = b.stack_size(bytes);
                }
                b.spawn_scoped(scope, move || {
                    let comm = Comm {
                        rank,
                        world: Arc::clone(&world),
                        stash: RefCell::new(Stash::default()),
                        coll_seq: Cell::new(0),
                        exchange_seq: Cell::new(0),
                    };
                    world.exec.start(rank, &world.poisoned);
                    let out = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                    world.exec.finish(rank);
                    if out.is_err() {
                        // Fail the whole world: peers blocked on this rank
                        // wake up and panic instead of waiting forever.
                        world.poison();
                    }
                    out
                })
                .expect("spawn rank thread")
            })
            .collect();
        for (slot, h) in results.iter_mut().zip(handles) {
            match h.join() {
                Ok(Ok(r)) => *slot = Some(r),
                Ok(Err(p)) | Err(p) => panic = panic.take().or(Some(p)),
            }
        }
    });
    if let Some(p) = panic {
        resume_unwind(p);
    }
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phased::Exchange;

    #[test]
    fn single_rank_world() {
        let r = execute(1, |c| {
            assert_eq!(c.rank(), 0);
            assert_eq!(c.nranks(), 1);
            c.rank() + 10
        });
        assert_eq!(r, vec![10]);
    }

    #[test]
    fn traffic_metering_by_link_class() {
        let m = MachineModel::new(2, 2); // ranks 0,1 node0; 2,3 node1
        let reports = execute_opts(m, WorldOpts::default(), |c| {
            let mut ex = Exchange::new(c);
            if c.rank() == 0 {
                for (to, len) in [(1, 10), (2, 20)] {
                    let w = ex.to(to);
                    for _ in 0..len {
                        w.put_u8(0);
                    }
                }
            }
            ex.finish();
            // The exchange's termination barrier has passed, so every frame
            // of the phase is metered in every rank's snapshot.
            c.traffic()
        });
        for r in &reports {
            assert_eq!(r.on_node_bytes, 10);
            assert_eq!(r.off_node_bytes, 20);
            assert_eq!(r.on_node_msgs, 1);
            assert_eq!(r.off_node_msgs, 1);
        }
    }

    #[test]
    fn many_ranks_smoke() {
        // The paper tested 32 communicating threads on one BG/Q node.
        let m = MachineModel::new(1, 32);
        let out = execute_opts(m, WorldOpts::default(), |c| {
            let peer = c.nranks() - 1 - c.rank();
            let mut ex = Exchange::new(c);
            ex.to(peer).put_u32(c.rank() as u32);
            let got: Vec<(usize, u32)> = ex
                .finish()
                .into_iter()
                .map(|(from, mut r)| (from, r.get_u32()))
                .collect();
            assert_eq!(got, vec![(peer, peer as u32)]);
            got[0].1 as usize
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(*got, 31 - rank);
        }
    }

    /// The multiplexed executor (fewer worker permits than ranks) must run
    /// blocking communication patterns to completion.
    #[test]
    fn multiplexed_executor_ring() {
        for workers in [1usize, 2, 3] {
            let n = 16;
            let opts = WorldOpts::default().workers(workers);
            let out = execute_opts(MachineModel::flat(n), opts, |c| {
                let next = (c.rank() + 1) % n;
                let prev = (c.rank() + n - 1) % n;
                for round in 0..3u32 {
                    let mut ex = Exchange::new(c);
                    ex.to(next).put_u32(round * 100 + c.rank() as u32);
                    let got: Vec<(usize, u32)> = ex
                        .finish()
                        .into_iter()
                        .map(|(from, mut r)| (from, r.get_u32()))
                        .collect();
                    assert_eq!(got, vec![(prev, round * 100 + prev as u32)]);
                    c.barrier();
                }
                c.allreduce_sum_u64(1)
            });
            assert!(out.iter().all(|&s| s == n as u64), "workers={workers}");
        }
    }

    /// A panicking rank must fail the whole world, not deadlock peers that
    /// are blocked waiting on it.
    #[test]
    #[should_panic]
    fn rank_panic_poisons_world() {
        execute(3, |c| {
            if c.rank() == 0 {
                panic!("rank 0 dies");
            }
            // The root never broadcasts; poisoning must wake the waiters.
            let _ = c.bcast_bytes(0, Bytes::new());
        });
    }

    /// Wide-world smoke at 256 ranks with small stacks: a gather's fan-in
    /// of 255 sources onto one stash queue.
    #[test]
    fn wide_world_fan_in() {
        let n = 256;
        let opts = WorldOpts::default().stack_size(256 * 1024);
        let out = execute_opts(MachineModel::flat(n), opts, |c| {
            let all = c.gather_bytes(0, Bytes::from(vec![1u8]))?;
            Some(all.iter().map(|d| d[0] as u64).sum::<u64>())
        });
        assert_eq!(out[0], Some(n as u64));
        assert!(out[1..].iter().all(Option::is_none));
    }

    /// Out-of-order tags at width: every contributor but one sends its part
    /// of several back-to-back gathers before a barrier, the last one only
    /// after it — so the root, awaiting the first gather's tag, drains and
    /// stashes the later gathers' messages too. Each gather must still
    /// collect exactly its own tag's messages, and nothing may be left in
    /// any rank's stash.
    #[test]
    fn out_of_order_tags_are_stashed() {
        const GATHERS: usize = 4;
        let n = 64;
        let late = n - 1;
        let opts = WorldOpts::default().stack_size(256 * 1024);
        let payload = |rank: usize, g: usize| Bytes::from(vec![rank as u8, g as u8]);
        let out = execute_opts(MachineModel::flat(n), opts, |c| {
            let gather_all = || -> Vec<Option<Vec<Bytes>>> {
                (0..GATHERS)
                    .map(|g| {
                        let all = c.gather_bytes(0, payload(c.rank(), g));
                        if g == 0 && c.rank() == 0 {
                            // The other gathers' messages from all but the
                            // late contributor are stashed by now.
                            assert_eq!(c.stash.borrow().len(), GATHERS - 1);
                        }
                        all
                    })
                    .collect()
            };
            let got = if c.rank() == 0 || c.rank() == late {
                c.barrier();
                gather_all()
            } else {
                let got = gather_all();
                c.barrier();
                got
            };
            assert!(c.stash.borrow().is_empty(), "rank {}", c.rank());
            got
        });
        for (g, all) in out[0].iter().enumerate() {
            let all = all.as_ref().expect("root gathers");
            assert_eq!(all.len(), n);
            for (r, d) in all.iter().enumerate() {
                assert_eq!(*d, payload(r, g), "gather {g} from rank {r}");
            }
        }
        assert!(out[1..].iter().flatten().all(Option::is_none));
    }
}
