//! Phased neighbour exchange — the PCU communication pattern PUMI's
//! distributed algorithms are written in (§II-D "message passing control:
//! message buffer management and message routing").
//!
//! A phase has three steps: pack data per destination rank, send everything,
//! then iterate over received buffers. Termination is sparse: the simulated
//! transport enqueues sends synchronously, so one shared-memory consensus
//! barrier after the sends proves every buffer of the phase has reached its
//! destination's mailbox — the exchange costs O(messages) plus one barrier,
//! with no dense per-destination count reduction and no control envelopes
//! at all. Each destination receives at most one framed buffer per phase
//! (the per-destination writer), so a phase costs at most one mailbox
//! wakeup per link.
//!
//! Every buffer travels straight to its destination rank, over the link
//! the machine model classifies (self-loop, on-node or off-node), and is
//! metered there. Writers are drawn from a thread-local buffer pool, and a
//! received buffer is read in place: no frame is copied between the pack
//! and the reader.
//!
//! ```
//! use pumi_pcu::phased::Exchange;
//! let results = pumi_pcu::execute(4, |c| {
//!     let mut ex = Exchange::new(c);
//!     // every rank sends its rank number to rank 0
//!     if c.rank() != 0 {
//!         ex.to(0).put_u32(c.rank() as u32);
//!     }
//!     let received = ex.finish();
//!     received.len()
//! });
//! assert_eq!(results, vec![3, 0, 0, 0]);
//! ```

use crate::comm::Comm;
use crate::msg::{MsgReader, MsgWriter};
use crate::sched::{ChaosRng, SchedMode};
use pumi_obs::metrics::Link;
use pumi_util::FxHashMap;

/// A single phased exchange. Pack with [`Exchange::to`], complete with
/// [`Exchange::finish`].
pub struct Exchange<'c> {
    comm: &'c Comm,
    bufs: FxHashMap<usize, MsgWriter>,
}

impl<'c> Exchange<'c> {
    /// Begin an exchange phase on `comm`. All ranks of the world must
    /// participate (SPMD), even those with nothing to send.
    pub fn new(comm: &'c Comm) -> Exchange<'c> {
        Exchange {
            comm,
            bufs: FxHashMap::default(),
        }
    }

    /// The writer that packs data destined for `rank`. Packing to one's own
    /// rank is allowed — the buffer is delivered locally. Writers are seeded
    /// from the thread-local buffer pool, so steady-state phase loops reuse
    /// the capacity of already-consumed messages.
    pub fn to(&mut self, rank: usize) -> &mut MsgWriter {
        assert!(rank < self.comm.nranks(), "destination {rank} out of range");
        self.bufs.entry(rank).or_insert_with(MsgWriter::pooled)
    }

    /// Whether anything has been packed for `rank`.
    pub fn has(&self, rank: usize) -> bool {
        self.bufs.get(&rank).is_some_and(|w| !w.is_empty())
    }

    /// Send all packed buffers and collect this rank's incoming buffers as a
    /// [`Received`]. Under the deterministic scheduler the buffers come out
    /// sorted by source rank; under [`SchedMode::Chaos`] they come out in a
    /// seeded permutation (consumers must not depend on order).
    pub fn finish(self) -> Received {
        let _span = pumi_obs::span!("pcu.exchange");
        let comm = self.comm;
        // Two independent generators per chaos phase: `wire` perturbs the
        // send order and `merge` permutes the final merged list. They are
        // kept apart so that every pinned chaos permutation stays where it
        // is; seeding either from the other would move them all.
        let phase = comm.exchange_seq.get();
        comm.exchange_seq.set(phase.wrapping_add(1));
        let (mut wire, mut merge) = match comm.sched() {
            SchedMode::Chaos(seed) => (
                Some(ChaosRng::for_phase(seed, phase, comm.rank())),
                Some(ChaosRng::for_phase(seed ^ 0xC0A1_E5CE, phase, comm.rank())),
            ),
            SchedMode::Deterministic => (None, None),
        };

        // Canonical send order first (the buffer map iterates in hash
        // order), then a seeded shuffle of it under chaos.
        let mut bufs: Vec<(usize, MsgWriter)> = self.bufs.into_iter().collect();
        bufs.sort_unstable_by_key(|&(dest, _)| dest);
        if let Some(rng) = wire.as_mut() {
            rng.shuffle(&mut bufs);
        }

        let (mut msgs, total_bytes) = finish_direct(comm, bufs, wire.as_mut());
        // Sorted merge: transport arrival order is timing-dependent, so the
        // canonical order is by source (at most one buffer per source).
        msgs.sort_by_key(|(from, _)| *from);
        if let Some(rng) = merge.as_mut() {
            rng.shuffle(&mut msgs);
        }
        Received { msgs, total_bytes }
    }
}

/// The fingerprint of one logical frame that the obs digest sink folds: an
/// FNV-style hash of (origin rank, payload bytes). It does not depend on
/// delivery order, so digest rows can be compared across chaos seeds and
/// worker caps. The fold consumes 8-byte words per multiply (with the
/// length mixed in to disambiguate tail padding): a pure function of the
/// same inputs as byte-at-a-time FNV-1a, at an eighth of the
/// dependent-multiply chain — fingerprinting is on every frame of every
/// exchange, so it must not dominate the phase.
///
/// A frame is hashed by the rank that frames it, while its bytes are still
/// in that rank's cache, and the hash rides in the envelope beside the
/// payload; hashing on receipt would make every receiver read every payload
/// inside the exchange.
fn frame_hash(origin: usize, data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (origin as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let mut tail = (data.len() as u64) << 56;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    (h ^ tail).wrapping_mul(PRIME)
}

/// Fold one received frame's [`frame_hash`] into the obs digest sink,
/// attributed to the origin→receiver link class.
fn digest_frame(comm: &Comm, from: usize, hash: u64) {
    pumi_obs::metrics::record_frame_digest(comm.link_to(from).to_obs(), hash);
}

/// Send each buffer straight to its destination, then run the termination
/// consensus and collect arrivals.
fn finish_direct(
    comm: &Comm,
    bufs: Vec<(usize, MsgWriter)>,
    mut chaos: Option<&mut ChaosRng>,
) -> (Vec<(usize, MsgReader)>, u64) {
    let tag = comm.next_coll_tag();
    let mut local: Option<MsgReader> = None;
    for (dest, w) in bufs {
        if w.is_empty() {
            w.recycle();
        } else if dest == comm.rank() {
            // Local delivery bypasses the wire; meter it as a self-loop so
            // per-phase traffic still accounts for the pack volume.
            pumi_obs::metrics::record_traffic(Link::SelfLoop, w.len() as u64);
            let data = w.finish();
            digest_frame(comm, comm.rank(), frame_hash(comm.rank(), &data));
            local = Some(MsgReader::new(data));
        } else {
            let data = w.finish();
            let hash = frame_hash(comm.rank(), &data);
            comm.send_frame(dest, tag, data, hash);
        }
        if let Some(rng) = chaos.as_mut() {
            rng.maybe_yield();
        }
    }
    // Termination consensus: mailbox pushes enqueue synchronously, and the
    // barrier completes on a rank only once every rank has entered it — so
    // by then every buffer of this phase sits in its destination's mailbox
    // or stash. One shared-memory barrier replaces a dense per-destination
    // count reduction, and carries no control envelopes of its own.
    comm.barrier();
    let mut total_bytes = 0u64;
    let mut msgs: Vec<(usize, MsgReader)> = Vec::new();
    for (from, data, hash) in comm.take_tag(tag) {
        total_bytes += data.len() as u64;
        digest_frame(comm, from, hash);
        msgs.push((from, MsgReader::new(data)));
    }
    if let Some(r) = local {
        total_bytes += r.remaining() as u64;
        msgs.push((comm.rank(), r));
    }
    (msgs, total_bytes)
}

/// The incoming side of a completed exchange: one [`MsgReader`] per source
/// rank that sent to us. Under the deterministic scheduler the buffers are
/// sorted by source; under [`SchedMode::Chaos`] they are a seeded
/// permutation of the same set — consumers must not rely on order.
///
/// Iterate it like the `Vec` it replaces: `for (from, mut r) in received`.
#[derive(Debug, Default)]
pub struct Received {
    /// `(source rank, reader)`; at most one per source.
    msgs: Vec<(usize, MsgReader)>,
    total_bytes: u64,
}

impl Received {
    /// Number of buffers received.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing was received.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Total payload bytes received (including local self-delivery).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Iterate `(source, reader)` pairs in delivery order.
    pub fn iter(&self) -> std::slice::Iter<'_, (usize, MsgReader)> {
        self.msgs.iter()
    }

    /// Iterate `(source, reader)` pairs mutably, in delivery order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, (usize, MsgReader)> {
        self.msgs.iter_mut()
    }
}

impl IntoIterator for Received {
    type Item = (usize, MsgReader);
    type IntoIter = std::vec::IntoIter<(usize, MsgReader)>;

    fn into_iter(self) -> Self::IntoIter {
        self.msgs.into_iter()
    }
}

impl<'a> IntoIterator for &'a Received {
    type Item = &'a (usize, MsgReader);
    type IntoIter = std::slice::Iter<'a, (usize, MsgReader)>;

    fn into_iter(self) -> Self::IntoIter {
        self.msgs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{execute, execute_opts, WorldOpts};
    use crate::machine::MachineModel;

    #[test]
    fn all_to_all_ring() {
        let n = 6;
        execute(n, |c| {
            let mut ex = Exchange::new(c);
            let next = (c.rank() + 1) % n;
            let prev = (c.rank() + n - 1) % n;
            ex.to(next).put_u32(c.rank() as u32);
            ex.to(prev).put_u32(c.rank() as u32 + 100);
            let got = ex.finish();
            assert_eq!(got.len(), 2);
            for (from, mut r) in got {
                let v = r.get_u32();
                if from == prev {
                    assert_eq!(v, prev as u32);
                } else {
                    assert_eq!(from, next);
                    assert_eq!(v, next as u32 + 100);
                }
            }
        });
    }

    /// The widest world the suite runs, 4 nodes × 16 cores, so frames cross
    /// both on- and off-node links: a ring phase and an all-to-all phase
    /// must each deliver exactly one frame from every expected peer with
    /// that pair's payload, and nothing else.
    #[test]
    fn ring_and_all_to_all_on_a_64_rank_world() {
        let n = 64;
        // What `from` sends `to`: length and fill byte both depend on the pair.
        let payload = |from: usize, to: usize| vec![(from ^ to) as u8; 1 + (from * 7 + to) % 13];
        let check = |me: usize, got: Received, peers: &[usize]| {
            let total = got.total_bytes();
            let mut sources = Vec::new();
            let mut bytes = 0;
            for (p, mut r) in got {
                let want = payload(p, me);
                assert_eq!(r.get_bytes(), want, "payload {p} -> {me}");
                assert!(r.is_done(), "trailing bytes {p} -> {me}");
                bytes += 4 + want.len() as u64;
                sources.push(p);
            }
            sources.sort_unstable();
            assert_eq!(sources, peers, "rank {me}: one frame per expected peer");
            assert_eq!(total, bytes);
        };
        execute_opts(MachineModel::new(4, 16), WorldOpts::default(), |c| {
            assert_eq!(c.nranks(), n);
            let me = c.rank();
            let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
            let mut ring = Exchange::new(c);
            ring.to(next).put_bytes(&payload(me, next));
            check(me, ring.finish(), &[prev]);

            let peers: Vec<usize> = (0..n).filter(|&p| p != me).collect();
            let mut a2a = Exchange::new(c);
            for &p in &peers {
                a2a.to(p).put_bytes(&payload(me, p));
            }
            check(me, a2a.finish(), &peers);
        });
    }

    #[test]
    fn empty_exchange_terminates() {
        execute(5, |c| {
            let ex = Exchange::new(c);
            let got = ex.finish();
            assert!(got.is_empty());
            assert_eq!(got.total_bytes(), 0);
        });
    }

    /// A world where every exchange is silent for several successive phases:
    /// termination detection must not carry state across phases.
    #[test]
    fn repeated_silent_phases_terminate() {
        execute(4, |c| {
            for _ in 0..4 {
                let got = Exchange::new(c).finish();
                assert!(got.is_empty());
                assert!(got.iter().next().is_none());
                assert_eq!(got.total_bytes(), 0);
            }
        });
    }

    #[test]
    fn self_message_is_delivered() {
        execute(3, |c| {
            let mut ex = Exchange::new(c);
            ex.to(c.rank()).put_u64(42);
            let got = ex.finish();
            assert_eq!(got.len(), 1);
            let sources: Vec<usize> = got.iter().map(|(from, _)| *from).collect();
            assert_eq!(sources, vec![c.rank()]);
        });
    }

    /// Every rank sends only to itself: no wire traffic at all, yet each
    /// rank must see exactly its own buffer with its payload intact.
    #[test]
    fn self_send_only_world() {
        let n = 4;
        execute(n, |c| {
            let mut ex = Exchange::new(c);
            ex.to(c.rank()).put_u32(c.rank() as u32);
            ex.to(c.rank()).put_f64_slice(&[1.5; 3]);
            let got = ex.finish();
            assert_eq!(got.len(), 1);
            assert_eq!(got.total_bytes(), 4 + 4 + 3 * 8);
            let (from, mut r) = got.into_iter().next().unwrap();
            assert_eq!(from, c.rank());
            assert_eq!(r.get_u32(), c.rank() as u32);
            assert_eq!(r.get_f64_slice(), vec![1.5; 3]);
            assert!(r.is_done());
        });
    }

    #[test]
    fn fan_in_sorted_by_source() {
        let n = 8;
        // Pinned deterministic: this test asserts on delivery *order*, which
        // a chaos environment would legitimately permute.
        let opts = WorldOpts::default().sched(SchedMode::Deterministic);
        execute_opts(MachineModel::flat(n), opts, |c| {
            let mut ex = Exchange::new(c);
            if c.rank() != 0 {
                ex.to(0).put_u32(c.rank() as u32 * 2);
            }
            let got = ex.finish();
            if c.rank() == 0 {
                let sources: Vec<usize> = got.iter().map(|(from, _)| *from).collect();
                assert_eq!(sources, (1..n).collect::<Vec<_>>());
                for (from, r) in got {
                    let mut r = r;
                    assert_eq!(r.get_u32(), from as u32 * 2);
                }
            } else {
                assert!(got.is_empty());
            }
        });
    }

    /// Reading some sources through `iter_mut` leaves the others' readers
    /// untouched for a later pass.
    #[test]
    fn received_addressing_by_source() {
        let n = 5;
        execute(n, |c| {
            let mut ex = Exchange::new(c);
            if c.rank() != 2 {
                ex.to(2).put_u32(c.rank() as u32 + 7);
            }
            let mut got = ex.finish();
            if c.rank() == 2 {
                assert_eq!(got.len(), n - 1);
                assert!(
                    got.iter().all(|(from, _)| *from != 2),
                    "rank 2 sent nothing to itself"
                );
                // Read an arbitrary subset first.
                for (from, r) in got.iter_mut().filter(|(from, _)| [0, 3].contains(from)) {
                    assert_eq!(r.get_u32(), *from as u32 + 7);
                }
                // The subset is consumed; the rest are still unread.
                for (from, r) in got {
                    assert_eq!(r.is_done(), [0, 3].contains(&from), "source {from}");
                }
            }
        });
    }

    #[test]
    fn successive_phases_do_not_cross() {
        execute(4, |c| {
            for phase in 0..5u32 {
                let mut ex = Exchange::new(c);
                for dest in 0..4 {
                    if dest != c.rank() {
                        ex.to(dest).put_u32(phase);
                    }
                }
                for (_, mut r) in ex.finish() {
                    assert_eq!(r.get_u32(), phase);
                }
            }
        });
    }

    /// Chaos delivers the same multiset of (source, payload) as the
    /// deterministic scheduler — only the order may differ — and the same
    /// seed reproduces the same order exactly.
    #[test]
    fn chaos_preserves_payloads_and_reproduces_per_seed() {
        let m = MachineModel::new(3, 2);
        let run = |sched: SchedMode| {
            execute_opts(m, WorldOpts::default().sched(sched), move |c| {
                let n = c.nranks();
                let mut per_phase = Vec::new();
                for phase in 0..3u32 {
                    let mut ex = Exchange::new(c);
                    for k in [0usize, 1, 2, 4] {
                        let dest = (c.rank() + k + phase as usize) % n;
                        let w = ex.to(dest);
                        w.put_u32(phase * 1000 + (c.rank() * 10 + dest) as u32);
                        w.put_bytes(&vec![dest as u8; k + 1]);
                    }
                    let flat: Vec<(usize, u32, Vec<u8>)> = ex
                        .finish()
                        .into_iter()
                        .map(|(from, mut r)| (from, r.get_u32(), r.get_bytes()))
                        .collect();
                    per_phase.push(flat);
                }
                per_phase
            })
        };
        let base = run(SchedMode::Deterministic);
        for seed in [1u64, 7] {
            let chaotic = run(SchedMode::Chaos(seed));
            // Same seed: bitwise-identical order.
            assert_eq!(chaotic, run(SchedMode::Chaos(seed)));
            // Versus deterministic: same multiset per rank per phase.
            for (rank, phases) in chaotic.iter().enumerate() {
                for (phase, flat) in phases.iter().enumerate() {
                    let mut got = flat.clone();
                    let mut want = base[rank][phase].clone();
                    got.sort();
                    want.sort();
                    assert_eq!(got, want, "rank {rank} phase {phase} seed {seed}");
                }
            }
        }
    }

    /// The chaos permutation actually perturbs order (otherwise the suite
    /// tests nothing): across a fan-in of 8 sources and several seeds, at
    /// least one delivery must differ from sorted order.
    #[test]
    fn chaos_actually_permutes() {
        let n = 8;
        let mut saw_unsorted = false;
        for seed in 1..=4u64 {
            let opts = WorldOpts::default().sched(SchedMode::Chaos(seed));
            let orders = execute_opts(MachineModel::flat(n), opts, |c| {
                let mut ex = Exchange::new(c);
                if c.rank() != 0 {
                    ex.to(0).put_u32(c.rank() as u32);
                }
                let got = ex.finish();
                got.iter().map(|(from, _)| *from).collect::<Vec<_>>()
            });
            let sources = &orders[0];
            let mut sorted = sources.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (1..n).collect::<Vec<_>>());
            saw_unsorted |= *sources != sorted;
        }
        assert!(saw_unsorted, "chaos never permuted a fan-in of 7 sources");
    }
}
