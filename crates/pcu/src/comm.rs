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
//! sharded lock-free mailbox of the private `runtime` module, and [`WorldOpts`] /
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

/// Highest tag value available to users; larger tags are reserved for
/// collectives.
pub const MAX_USER_TAG: u32 = 0x7FFF_FFFF;

#[derive(Debug)]
pub(crate) struct Envelope {
    pub from: usize,
    pub tag: u32,
    pub data: Bytes,
    /// `phased::frame_hash` of an exchange frame, taken by the rank that
    /// last framed it; 0 on every other message.
    pub hash: u64,
}

/// Per-source FIFO within one tag's stash. `stale` counts arrival-order
/// entries already consumed by a source-addressed pop, so the any-source
/// path can skip them and still return messages in true arrival order.
#[derive(Debug, Default)]
struct SrcQueue {
    /// `(data, hash)` per message.
    q: VecDeque<(Bytes, u64)>,
    stale: usize,
}

/// All stashed messages of one tag: per-source queues for O(1)
/// source-addressed pops plus an arrival-order index for any-source pops
/// and whole-tag takes. Every operation is O(1) amortized — the old
/// single-queue stash paid a linear `position` scan per `(from, tag)` pop,
/// which at 256+ ranks is O(N) work per receive.
#[derive(Debug, Default)]
struct TagQueue {
    by_src: FxHashMap<usize, SrcQueue>,
    order: VecDeque<usize>,
    len: usize,
}

impl TagQueue {
    fn push(&mut self, from: usize, data: Bytes, hash: u64) {
        self.by_src
            .entry(from)
            .or_default()
            .q
            .push_back((data, hash));
        self.order.push_back(from);
        self.len += 1;
    }

    fn pop_src(&mut self, from: usize) -> Option<(Bytes, u64)> {
        let sq = self.by_src.get_mut(&from)?;
        let msg = sq.q.pop_front()?;
        sq.stale += 1;
        self.len -= 1;
        Some(msg)
    }

    fn pop_any(&mut self) -> Option<(usize, Bytes, u64)> {
        while let Some(src) = self.order.pop_front() {
            let sq = self.by_src.get_mut(&src).expect("stash index out of sync");
            if sq.stale > 0 {
                sq.stale -= 1;
                continue;
            }
            let (data, hash) = sq.q.pop_front().expect("stash index out of sync");
            self.len -= 1;
            return Some((src, data, hash));
        }
        None
    }

    fn has(&self, from: Option<usize>) -> bool {
        match from {
            None => self.len > 0,
            Some(f) => self.by_src.get(&f).is_some_and(|sq| !sq.q.is_empty()),
        }
    }
}

/// Out-of-order messages awaiting a matching recv, indexed by tag so the
/// receive path never re-scans unrelated stashed traffic. An emptied tag's
/// entry is removed immediately (collective tags are never reused, so stale
/// entries would otherwise accumulate forever).
#[derive(Debug, Default)]
struct Stash {
    queues: FxHashMap<u32, TagQueue>,
}

impl Stash {
    fn push(&mut self, e: Envelope) {
        self.queues
            .entry(e.tag)
            .or_default()
            .push(e.from, e.data, e.hash);
    }

    /// Pop the first stashed message matching `(from, tag)` — O(1).
    fn pop(&mut self, from: Option<usize>, tag: u32) -> Option<(usize, Bytes)> {
        let q = self.queues.get_mut(&tag)?;
        let msg = match from {
            None => q.pop_any().map(|(f, d, _)| (f, d)),
            Some(f) => q.pop_src(f).map(|(d, _)| (f, d)),
        }?;
        if q.len == 0 {
            self.queues.remove(&tag);
        }
        Some(msg)
    }

    fn has(&self, from: Option<usize>, tag: u32) -> bool {
        self.queues.get(&tag).is_some_and(|q| q.has(from))
    }

    /// Remove and return the whole queue for `tag` (arrival order) as
    /// `(from, data, hash)`.
    fn take_tag(&mut self, tag: u32) -> VecDeque<(usize, Bytes, u64)> {
        let Some(mut q) = self.queues.remove(&tag) else {
            return VecDeque::new();
        };
        let mut out = VecDeque::with_capacity(q.len);
        while let Some(msg) = q.pop_any() {
            out.push_back(msg);
        }
        out
    }
}

/// Options for building a simulated world — the executor knobs that
/// [`execute_on`] defaults from the environment.
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
    node_barriers: Box<[SenseBarrier]>,
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
            mailboxes: (0..nranks).map(|_| Mailbox::new(nranks)).collect(),
            world_barrier: SenseBarrier::new(nranks),
            node_barriers: (0..machine.nodes)
                .map(|_| SenseBarrier::new(machine.cores_per_node))
                .collect(),
            exec: Scheduler::new(workers),
            poisoned: AtomicBool::new(false),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for mb in self.mailboxes.iter() {
            mb.force_wake();
        }
        self.world_barrier.force_wake();
        for b in self.node_barriers.iter() {
            b.force_wake();
        }
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
    /// Out-of-order messages awaiting a matching recv.
    stash: RefCell<Stash>,
    /// Monotonic collective sequence number; identical across ranks because
    /// collectives are called in SPMD order.
    pub(crate) coll_seq: Cell<u32>,
    /// Monotonic count of completed phased exchanges. Unlike `coll_seq` it
    /// advances exactly once per exchange regardless of routing (direct
    /// consumes one tag per phase, two-level three), so chaos permutations
    /// seeded from it are routing-invariant.
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

    /// The node hosting this rank.
    #[inline]
    pub fn node(&self) -> usize {
        self.world.machine.node_of(self.rank)
    }

    /// Classify the link from this rank to `other`.
    #[inline]
    pub fn link_to(&self, other: usize) -> LinkClass {
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

    /// Send `data` to rank `to` with a user `tag`.
    ///
    /// # Panics
    /// Panics if `tag` exceeds [`MAX_USER_TAG`] or `to` is out of range.
    pub fn send(&self, to: usize, tag: u32, data: Bytes) {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        self.send_raw(to, tag, data);
    }

    pub(crate) fn send_raw(&self, to: usize, tag: u32, data: Bytes) {
        self.send_frame(to, tag, data, 0);
    }

    /// [`Comm::send_raw`] of an exchange frame, with its `hash` riding in
    /// the envelope beside the payload.
    pub(crate) fn send_frame(&self, to: usize, tag: u32, data: Bytes, hash: u64) {
        self.meter(to, data.len());
        self.world.mailboxes[to].push(Envelope {
            from: self.rank,
            tag,
            data,
            hash,
        });
    }

    /// Send an exchange frame on behalf of `origin`, without the destination
    /// wakeup: the receiver sees the envelope as coming from `origin`, not
    /// from this rank. The two-level exchange relay re-delivers sub-buffers
    /// this way, pushing a batch to one destination quietly and then issuing
    /// a single [`Comm::notify`] — one wake per link per phase instead of one
    /// per envelope. Traffic is metered on the physical link (this rank →
    /// `to`).
    pub(crate) fn forward_raw_quiet(
        &self,
        origin: usize,
        to: usize,
        tag: u32,
        data: Bytes,
        hash: u64,
    ) {
        self.meter(to, data.len());
        self.world.mailboxes[to].push_quiet(Envelope {
            from: origin,
            tag,
            data,
            hash,
        });
    }

    /// Wake rank `to` if it is parked on its mailbox (pairs with
    /// [`Comm::forward_raw_quiet`]).
    pub(crate) fn notify(&self, to: usize) {
        self.world.mailboxes[to].notify();
    }

    fn meter(&self, to: usize, bytes: usize) {
        let link = self.world.machine.link(self.rank, to);
        self.world.counters.record(link, bytes);
        // Per-phase metering: the same message lands in the obs registry
        // under the sender's current span path.
        pumi_obs::metrics::record_traffic(link.to_obs(), bytes as u64);
    }

    /// Blocking receive of a message matching `from` (or any source if
    /// `None`) and `tag`. Returns `(source, data)`.
    pub fn recv(&self, from: Option<usize>, tag: u32) -> (usize, Bytes) {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        self.recv_raw(from, tag)
    }

    pub(crate) fn recv_raw(&self, from: Option<usize>, tag: u32) -> (usize, Bytes) {
        loop {
            {
                let mut stash = self.stash.borrow_mut();
                let stash = &mut *stash;
                self.world.mailboxes[self.rank].drain(&mut |e| stash.push(e));
                if let Some(msg) = stash.pop(from, tag) {
                    return msg;
                }
            }
            // Nothing matching yet: park until a producer wakes us (the
            // mailbox re-checks for concurrent arrivals before sleeping, so
            // no wakeup can be lost), then re-drain.
            if !self.world.mailboxes[self.rank].park(&self.world.exec, &self.world.poisoned) {
                panic!("peer rank panicked while this rank waited in recv");
            }
        }
    }

    /// Non-blocking probe: is a message matching `(from, tag)` available?
    pub fn iprobe(&self, from: Option<usize>, tag: u32) -> bool {
        self.drain_wire();
        if self.stash.borrow().has(from, tag) {
            return true;
        }
        // Cooperative poll: in a multiplexed world a spinning prober must
        // lend its worker permit to the rank it is waiting on.
        self.world.exec.yield_permit(&self.world.poisoned);
        self.drain_wire();
        self.stash.borrow().has(from, tag)
    }

    /// Move every message currently on the wire into the stash.
    pub(crate) fn drain_wire(&self) {
        let mut stash = self.stash.borrow_mut();
        let stash = &mut *stash;
        self.world.mailboxes[self.rank].drain(&mut |e| stash.push(e));
    }

    /// Remove and return every stashed message with `tag`, in arrival
    /// order, as `(from, data, hash)`. Callers must have established (e.g.
    /// via a barrier) that no more messages with this tag are in flight, and
    /// drained the wire.
    pub(crate) fn take_tag(&self, tag: u32) -> VecDeque<(usize, Bytes, u64)> {
        self.stash.borrow_mut().take_tag(tag)
    }

    /// Traffic totals for the whole world (shared counters).
    pub fn traffic(&self) -> TrafficReport {
        self.world.counters.report()
    }

    /// Reset the world traffic meters (e.g. between bench phases).
    pub fn reset_traffic(&self) {
        self.world.counters.reset();
    }

    /// Shared-memory consensus among all ranks of the world — the barrier
    /// body lives here because it owns the world state; the public
    /// [`Comm::barrier`] wrapper in `collectives` adds the obs span.
    pub(crate) fn barrier_wait(&self) {
        self.world
            .world_barrier
            .wait(&self.world.exec, &self.world.poisoned);
    }

    /// Consensus among the ranks of this rank's node only.
    pub(crate) fn node_barrier_wait(&self) {
        self.world.node_barriers[self.node()].wait(&self.world.exec, &self.world.poisoned);
    }

    pub(crate) fn next_coll_tag(&self) -> u32 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        // Collective tags live above MAX_USER_TAG.
        0x8000_0000 | (seq & 0x3FFF_FFFF)
    }
}

/// Run `f` on every rank of a machine with `nranks` single-core nodes
/// (pure-MPI view). Returns each rank's result, indexed by rank.
pub fn execute<F, R>(nranks: usize, f: F) -> Vec<R>
where
    F: Fn(&Comm) -> R + Send + Sync,
    R: Send,
{
    execute_on(MachineModel::flat(nranks), f)
}

/// Run `f` on every rank of a flat machine under the chaos scheduler with
/// `seed`, regardless of `PUMI_PCU_SCHED`. The determinism suite uses this to
/// compare runs under several seeds within one process.
pub fn execute_chaos<F, R>(nranks: usize, seed: u64, f: F) -> Vec<R>
where
    F: Fn(&Comm) -> R + Send + Sync,
    R: Send,
{
    execute_on_sched(MachineModel::flat(nranks), SchedMode::Chaos(seed), f)
}

/// Run `f` on every rank slot of `machine`: one thread per rank, mapped
/// node-major (the paper's process→node, thread→core mapping). The scheduler
/// comes from the `PUMI_PCU_SCHED` environment variable and the executor
/// width from `PUMI_PCU_WORKERS`.
pub fn execute_on<F, R>(machine: MachineModel, f: F) -> Vec<R>
where
    F: Fn(&Comm) -> R + Send + Sync,
    R: Send,
{
    execute_opts(machine, WorldOpts::default(), f)
}

/// [`execute_on`] with an explicit scheduling mode (overrides the
/// environment).
pub fn execute_on_sched<F, R>(machine: MachineModel, sched: SchedMode, f: F) -> Vec<R>
where
    F: Fn(&Comm) -> R + Send + Sync,
    R: Send,
{
    execute_opts(machine, WorldOpts::default().sched(sched), f)
}

/// [`execute_on`] with explicit world options: scheduling mode, executor
/// worker cap, and rank-thread stack size.
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
                    world.exec.acquire(&world.poisoned);
                    let out = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                    world.exec.release();
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
    fn ring_pass() {
        let n = 8;
        let out = execute(n, |c| {
            let next = (c.rank() + 1) % n;
            let prev = (c.rank() + n - 1) % n;
            c.send(next, 1, Bytes::from(vec![c.rank() as u8]));
            let (from, data) = c.recv(Some(prev), 1);
            assert_eq!(from, prev);
            data[0] as usize
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(*got, (rank + n - 1) % n);
        }
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let out = execute(2, |c| {
            if c.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                c.send(1, 2, Bytes::from_static(b"two"));
                c.send(1, 1, Bytes::from_static(b"one"));
                0
            } else {
                let (_, one) = c.recv(Some(0), 1);
                let (_, two) = c.recv(Some(0), 2);
                assert_eq!(&one[..], b"one");
                assert_eq!(&two[..], b"two");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn recv_from_any_source() {
        let out = execute(3, |c| {
            if c.rank() == 0 {
                let (f1, _) = c.recv(None, 7);
                let (f2, _) = c.recv(None, 7);
                let mut v = vec![f1, f2];
                v.sort_unstable();
                v
            } else {
                c.send(0, 7, Bytes::from(vec![c.rank() as u8]));
                vec![]
            }
        });
        assert_eq!(out[0], vec![1, 2]);
    }

    /// Any-source pops interleaved with source-addressed pops must still
    /// come out in arrival order per source (the stale-entry skip logic).
    #[test]
    fn mixed_addressing_preserves_per_source_fifo() {
        let out = execute(3, |c| {
            if c.rank() == 0 {
                // Wait until both peers' pairs are certainly stashed.
                c.barrier();
                let a1 = c.recv(Some(1), 9).1;
                // Cross-source arrival order is timing-dependent; what must
                // hold is FIFO within each source, across both pop flavours.
                let (f, b) = c.recv(None, 9);
                let rest: Vec<(usize, Bytes)> = (0..2).map(|_| c.recv(None, 9)).collect();
                let mut seq1: Vec<u8> = vec![a1[0]];
                let mut seq2 = Vec::new();
                for (src, d) in std::iter::once((f, b)).chain(rest) {
                    match src {
                        1 => seq1.push(d[0]),
                        2 => seq2.push(d[0]),
                        _ => unreachable!(),
                    }
                }
                assert_eq!(seq1, vec![10, 11]);
                assert_eq!(seq2, vec![20, 21]);
                true
            } else {
                let base = c.rank() as u8 * 10;
                c.send(0, 9, Bytes::from(vec![base]));
                c.send(0, 9, Bytes::from(vec![base + 1]));
                c.barrier();
                true
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn traffic_metering_by_link_class() {
        let m = MachineModel::new(2, 2); // ranks 0,1 node0; 2,3 node1
        let reports = execute_on(m, |c| {
            if c.rank() == 0 {
                c.send(1, 1, Bytes::from(vec![0u8; 10])); // on-node
                c.send(2, 1, Bytes::from(vec![0u8; 20])); // off-node
            }
            if c.rank() == 1 {
                c.recv(Some(0), 1);
            }
            if c.rank() == 2 {
                c.recv(Some(0), 1);
            }
            // Everybody waits for traffic to settle via a p2p chain: only the
            // sender's counts matter and recv ordering guarantees them.
            c.traffic()
        });
        // At least the sends from rank 0 are visible in rank 0's snapshot.
        let r = &reports[0];
        assert_eq!(r.on_node_bytes, 10);
        assert_eq!(r.off_node_bytes, 20);
        assert_eq!(r.on_node_msgs, 1);
        assert_eq!(r.off_node_msgs, 1);
    }

    #[test]
    fn iprobe_sees_pending_message() {
        let out = execute(2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, Bytes::from_static(b"x"));
                true
            } else {
                // Spin until the probe sees it (it was surely sent by then or
                // will be; probe drains the wire into the stash).
                while !c.iprobe(Some(0), 3) {
                    std::hint::spin_loop();
                }
                let (_, d) = c.recv(Some(0), 3);
                d[0] == b'x'
            }
        });
        assert!(out[1]);
    }

    #[test]
    #[should_panic]
    fn reserved_tag_rejected() {
        execute(1, |c| c.send(0, 0x8000_0001, Bytes::new()));
    }

    #[test]
    fn many_ranks_smoke() {
        // The paper tested 32 communicating threads on one BG/Q node.
        let m = MachineModel::new(1, 32);
        let out = execute_on(m, |c| {
            let peer = c.nranks() - 1 - c.rank();
            if peer != c.rank() {
                c.send(peer, 5, Bytes::from(vec![c.rank() as u8]));
                let (_, d) = c.recv(Some(peer), 5);
                d[0] as usize
            } else {
                c.rank()
            }
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
                    c.send(next, round, Bytes::from(vec![c.rank() as u8]));
                    let (_, d) = c.recv(Some(prev), round);
                    assert_eq!(d[0] as usize, prev);
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
            // These recvs can never be satisfied; poisoning must wake them.
            let _ = c.recv(Some(0), 1);
        });
    }

    /// Wide-world smoke at 256 ranks with small stacks: point-to-point,
    /// collectives, and the stash under a many-source fan-in.
    #[test]
    fn wide_world_fan_in() {
        let n = 256;
        let opts = WorldOpts::default().stack_size(256 * 1024);
        let out = execute_opts(MachineModel::flat(n), opts, |c| {
            if c.rank() == 0 {
                let mut sum = 0u64;
                for _ in 0..n - 1 {
                    let (_, d) = c.recv(None, 2);
                    sum += d[0] as u64;
                }
                sum
            } else {
                c.send(0, 2, Bytes::from(vec![1u8]));
                0
            }
        });
        assert_eq!(out[0], (n - 1) as u64);
    }

    /// Out-of-order tag consumption at width: 255 senders each send TAG_A
    /// then TAG_B, while rank 0 iprobe-polls for TAG_B first — so every
    /// TAG_A frame is pulled off the wire and stashed before it is wanted.
    /// The stash must hand the TAG_A frames back intact (by explicit source,
    /// in reverse rank order), and the reserved collective tag space must be
    /// unaffected by the churn.
    #[test]
    fn wide_world_out_of_order_tags_iprobe_and_collectives() {
        const TAG_A: u32 = 7;
        const TAG_B: u32 = 9;
        let n = 256;
        let opts = WorldOpts::default().stack_size(256 * 1024);
        let out = execute_opts(MachineModel::flat(n), opts, |c| {
            if c.rank() == 0 {
                // Consume TAG_B first via iprobe polling; drain_wire stashes
                // the earlier-sent TAG_A frames as a side effect.
                let mut b_sum = 0u64;
                let mut b_seen = 0usize;
                while b_seen < n - 1 {
                    if c.iprobe(None, TAG_B) {
                        let (src, d) = c.recv(None, TAG_B);
                        assert_eq!(d.len(), 8);
                        let v = u64::from_le_bytes(d[..].try_into().unwrap());
                        assert_eq!(v, (src as u64) * 3);
                        b_sum += v;
                        b_seen += 1;
                    }
                }
                // Now pull the stashed TAG_A frames by explicit source, in
                // reverse rank order (exercises pop_src + stale skipping).
                let mut a_sum = 0u64;
                for src in (1..n).rev() {
                    assert!(c.iprobe(Some(src), TAG_A), "stash lost rank {src}");
                    let (from, d) = c.recv(Some(src), TAG_A);
                    assert_eq!(from, src);
                    a_sum += u64::from_le_bytes(d[..].try_into().unwrap());
                }
                assert!(!c.iprobe(None, TAG_A));
                assert!(!c.iprobe(None, TAG_B));
                a_sum + b_sum
            } else {
                let r = c.rank() as u64;
                c.send(0, TAG_A, Bytes::from(r.to_le_bytes().to_vec()));
                c.send(0, TAG_B, Bytes::from((r * 3).to_le_bytes().to_vec()));
                0
            }
        });
        let expect: u64 = (1..n as u64).map(|r| r * 4).sum();
        assert_eq!(out[0], expect);

        // Collective tags after heavy stash traffic in the same world: the
        // reserved tag space (0x8000_0000 | seq) must still line up on all
        // ranks after user-tag stashing.
        let opts = WorldOpts::default().stack_size(256 * 1024);
        let sums = execute_opts(MachineModel::flat(n), opts, |c| {
            if c.rank() != 0 {
                c.send(0, TAG_A, Bytes::from(vec![0u8; 4]));
            } else {
                for _ in 0..n - 1 {
                    let _ = c.recv(None, TAG_A);
                }
            }
            let s = c.allreduce_sum_u64(c.rank() as u64);
            c.barrier();
            s
        });
        let expect: u64 = (0..n as u64).sum();
        assert!(sums.iter().all(|&s| s == expect));
    }
}
