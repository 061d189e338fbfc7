//! The distributed mesh: parts mapped onto ranks, part-level messaging, and
//! the bootstrap distribution.
//!
//! §II-C: "Multiple part per process: a capability to dynamically change the
//! number of parts per process." A [`PartMap`] assigns each part `P_i` to a
//! rank; a rank may hold many parts (the Table II runs use 32 parts per
//! process). [`PartExchange`] is the part-addressed phased exchange every
//! distributed mesh algorithm is written in: messages between co-resident
//! parts never touch the network, mirroring the paper's on-node short-cut.

use crate::part::Part;
use crate::rows::{Placed, Rows};
use crate::wire::stitch;
use pumi_mesh::Mesh;
use pumi_pcu::phased::Exchange;
use pumi_pcu::{ChaosRng, Comm, MsgReader, MsgWriter, SchedMode};
use pumi_util::{Dim, FxHashMap, MeshEnt, PartId};

/// Assignment of parts to ranks.
#[derive(Debug, Clone)]
pub struct PartMap {
    /// Rank hosting each part, indexed by part id.
    rank_of: Vec<usize>,
    /// Parts hosted by each rank, in ascending part order.
    by_rank: Vec<Vec<PartId>>,
}

impl PartMap {
    /// Block-contiguous map: part `p` lives on rank `p / ceil(nparts/nranks)`
    /// — parts 0..k on rank 0, the next k on rank 1, ...
    pub fn contiguous(nparts: usize, nranks: usize) -> PartMap {
        assert!(nparts >= 1 && nranks >= 1);
        let per = nparts.div_ceil(nranks);
        let rank_of: Vec<usize> = (0..nparts).map(|p| (p / per).min(nranks - 1)).collect();
        Self::from_ranks(rank_of, nranks)
    }

    /// Balanced block map: rank `r` hosts parts
    /// `[r*nparts/nranks, (r+1)*nparts/nranks)`. Unlike
    /// [`PartMap::contiguous`] (which sizes blocks by `ceil` and can starve
    /// the last ranks), every rank receives at least one part whenever
    /// `nparts >= nranks` — checkpoint restore relies on this to give each
    /// rank a merge target.
    pub fn balanced_blocks(nparts: usize, nranks: usize) -> PartMap {
        assert!(nparts >= 1 && nranks >= 1);
        let mut rank_of = vec![0usize; nparts];
        for r in 0..nranks {
            for p in rank_of
                .iter_mut()
                .take((r + 1) * nparts / nranks)
                .skip(r * nparts / nranks)
            {
                *p = r;
            }
        }
        Self::from_ranks(rank_of, nranks)
    }

    /// Build from an explicit part → rank vector.
    pub fn from_ranks(rank_of: Vec<usize>, nranks: usize) -> PartMap {
        let mut by_rank = vec![Vec::new(); nranks];
        for (p, &r) in rank_of.iter().enumerate() {
            assert!(r < nranks, "part {p} mapped to invalid rank {r}");
            by_rank[r].push(p as PartId);
        }
        PartMap { rank_of, by_rank }
    }

    /// Total number of parts.
    pub fn nparts(&self) -> usize {
        self.rank_of.len()
    }

    /// The rank hosting part `p`.
    #[inline]
    pub fn rank_of(&self, p: PartId) -> usize {
        self.rank_of[p as usize]
    }

    /// Parts hosted by `rank`, ascending.
    pub fn parts_on(&self, rank: usize) -> &[PartId] {
        &self.by_rank[rank]
    }

    /// The local slot of part `p` on its rank.
    pub fn slot_of(&self, p: PartId) -> usize {
        self.by_rank[self.rank_of(p)]
            .iter()
            .position(|&q| q == p)
            .expect("part not in its rank's list")
    }
}

/// The parts of a distributed mesh living on this rank.
pub struct DistMesh {
    /// The global part → rank assignment.
    pub map: PartMap,
    /// Local parts, ordered as `map.parts_on(rank)`.
    pub parts: Vec<Part>,
}

impl DistMesh {
    /// The local part with id `p`.
    ///
    /// # Panics
    /// Panics if `p` is not hosted on this rank.
    pub fn part(&self, p: PartId) -> &Part {
        let i = self
            .parts
            .iter()
            .position(|q| q.id == p)
            .unwrap_or_else(|| panic!("part {p} is not local"));
        &self.parts[i]
    }

    /// Mutable access to local part `p`.
    pub fn part_mut(&mut self, p: PartId) -> &mut Part {
        let i = self
            .parts
            .iter()
            .position(|q| q.id == p)
            .unwrap_or_else(|| panic!("part {p} is not local"));
        &mut self.parts[i]
    }

    /// Begin (or restart) dirty tracking on every local part — the
    /// write-side switch for delta checkpoints. Purely local; call it on
    /// every rank after a full snapshot.
    pub fn start_dirty_tracking(&mut self) {
        for p in &mut self.parts {
            p.start_dirty_tracking();
        }
    }

    /// Stop dirty tracking on every local part and discard the logs.
    pub fn stop_dirty_tracking(&mut self) {
        for p in &mut self.parts {
            p.stop_dirty_tracking();
        }
    }

    /// Sum a per-part count over all parts of the world.
    pub fn global_sum(&self, comm: &Comm, f: impl Fn(&Part) -> u64) -> u64 {
        let local: u64 = self.parts.iter().map(&f).sum();
        comm.allreduce_sum_u64(local)
    }

    /// Gather a per-part load vector (indexed by part id) across the world.
    /// Every rank receives the full vector.
    pub fn gather_loads(&self, comm: &Comm, f: impl Fn(&Part) -> f64) -> Vec<f64> {
        let mut v = vec![0f64; self.map.nparts()];
        for p in &self.parts {
            v[p.id as usize] = f(p);
        }
        comm.allreduce_sum_f64_vec(&v)
    }
}

/// Part-addressed phased exchange: pack per (from part → to part), finish,
/// iterate. Framing rides on [`pumi_pcu::phased::Exchange`].
pub struct PartExchange<'c, 'm> {
    comm: &'c Comm,
    map: &'m PartMap,
    bufs: FxHashMap<(PartId, PartId), MsgWriter>,
}

impl<'c, 'm> PartExchange<'c, 'm> {
    /// Begin an exchange. All ranks must participate.
    pub fn new(comm: &'c Comm, map: &'m PartMap) -> Self {
        PartExchange {
            comm,
            map,
            bufs: FxHashMap::default(),
        }
    }

    /// The writer packing data from part `from` to part `to`.
    pub fn to(&mut self, from: PartId, to: PartId) -> &mut MsgWriter {
        debug_assert!((to as usize) < self.map.nparts(), "bad destination part");
        self.bufs
            .entry((from, to))
            .or_insert_with(MsgWriter::pooled)
    }

    /// Adopt `w`, packed outside the exchange, as the whole `from` → `to`
    /// buffer — for packers that hold one writer per destination at once.
    pub fn put(&mut self, from: PartId, to: PartId, w: MsgWriter) {
        debug_assert!((to as usize) < self.map.nparts(), "bad destination part");
        let prev = self.bufs.insert((from, to), w);
        debug_assert!(prev.is_none(), "buffer {from}->{to} already open");
    }

    /// Send everything; returns `(from_part, to_part, reader)` triples.
    /// Under the deterministic scheduler they come sorted by (to, from);
    /// under chaos they come in a seeded permutation, so algorithms written
    /// against this API must not depend on processing order.
    pub fn finish(self) -> Vec<(PartId, PartId, MsgReader)> {
        // The part-level permutation needs its own generator: the inner
        // rank-level shuffle is undone by the canonical (to, from) sort
        // below, which would otherwise hide order-dependence bugs in
        // part-addressed algorithms.
        let chaos = match self.comm.sched() {
            SchedMode::Chaos(seed) => Some(ChaosRng::for_phase(
                seed ^ 0x9A87_F00D,
                self.comm.exchanges_completed(),
                self.comm.rank(),
            )),
            SchedMode::Deterministic => None,
        };
        let mut ex = Exchange::new(self.comm);
        // Deterministic packing order.
        let mut items: Vec<((PartId, PartId), MsgWriter)> = self.bufs.into_iter().collect();
        items.sort_by_key(|&(k, _)| k);
        for ((from, to), w) in items {
            if w.is_empty() {
                w.recycle();
                continue;
            }
            let rank = self.map.rank_of(to);
            let out = ex.to(rank);
            out.put_u32(from);
            out.put_u32(to);
            // Re-frame without consuming: the staging buffer's allocation
            // goes back to the pool for the next part's writer.
            out.put_bytes(w.as_slice());
            w.recycle();
        }
        let mut result = Vec::new();
        for (sender, mut r) in ex.finish() {
            while !r.is_done() {
                let frame = || -> Result<(PartId, PartId, bytes::Bytes), pumi_pcu::MsgError> {
                    let from = r.try_get_u32()?;
                    let to = r.try_get_u32()?;
                    // Zero copy: the part body is a sub-slice of the rank
                    // message, not a fresh Vec.
                    let body = r.try_get_bytes_shared()?;
                    Ok((from, to, body))
                }();
                let (from, to, body) =
                    frame.unwrap_or_else(|e| panic!("corrupt part frame from rank {sender}: {e}"));
                result.push((from, to, MsgReader::new(body)));
            }
        }
        result.sort_by_key(|&(f, t, _)| (t, f));
        if let Some(mut rng) = chaos {
            rng.shuffle(&mut result);
        }
        result
    }
}

/// Distribute a serial mesh onto parts.
///
/// Every rank deterministically regenerates the same `serial` mesh (the
/// simulated equivalent of parallel file loading) and keeps the closure of
/// the elements `elem_part` assigns to its parts. Global ids are the serial
/// indices, so part-boundary copies match across parts; remote-copy links
/// are then established with one real exchange.
///
/// A rank's work follows the parts it holds, as DMPlex distributes each
/// point from its own closure and star (arXiv:1506.06194):
///
/// * `dist.build` — each part's elements in serial order, 256 a block, each
///   closure entity pushed into a block's rows once (its vertices looked up
///   by serial index), so every entity lands where it first appears;
/// * `dist.residence` — one pass labels the serial elements' vertices with
///   their parts, which is a vertex's residence; another entity the parts
///   built is walked up to its elements only when every one of its
///   vertices carries more than one label, since an entity with a
///   single-labelled vertex lies inside that label's part;
/// * `dist.stitch` — each part announces its boundary entities to their
///   other residence parts.
pub fn distribute(comm: &Comm, map: PartMap, serial: &Mesh, elem_part: &[PartId]) -> DistMesh {
    let _span = pumi_obs::span!("dist");
    let d_elem = serial.elem_dim_t();
    assert_eq!(elem_part.len(), serial.index_space(d_elem));
    let build = pumi_obs::span!("dist.build");
    let parts = build_parts(serial, elem_part, map.parts_on(comm.rank()));
    drop(build);
    let mut dm = DistMesh { map, parts };
    let walk = pumi_obs::span!("dist.residence");
    let residence = Residence::of(serial, elem_part, &dm.parts);
    drop(walk);
    let _stitch = pumi_obs::span!("dist.stitch");
    let faults = stitch(comm, &mut dm, &residence.announce());
    // A residence part holds an element adjacent to the entity, so its
    // closure — built in `dist.build` — holds the entity itself.
    assert!(faults.is_empty(), "distribute: stitch failed: {faults:?}");
    dm
}

/// The parts `pids`, each built from its elements' closures as rows with
/// gid = serial index, 256 elements a block. Within a block a closure
/// entity gets one row, at its first appearance; a row the part already
/// holds from an earlier block is found.
fn build_parts(serial: &Mesh, elem_part: &[PartId], pids: &[PartId]) -> Vec<Part> {
    let ed = serial.elem_dim();
    let d_elem = Dim::from_usize(ed);
    // Per dimension below the elements and serial index: the block the
    // entity was last pushed in (blocks count from 1) and its row there.
    let mut seen: [Vec<(u32, u32)>; 3] = Default::default();
    for (d, s) in seen.iter_mut().enumerate().take(ed) {
        s.resize(serial.index_space(Dim::from_usize(d)), (0, 0));
    }
    let (mut block, mut at, mut buf) = (0u32, Placed::default(), Vec::new());
    let mut parts = Vec::with_capacity(pids.len());
    for &pid in pids {
        let mut part = Part::new(pid, ed);
        let elems: Vec<MeshEnt> = serial
            .iter(d_elem)
            .filter(|e| elem_part[e.idx()] == pid)
            .collect();
        for chunk in elems.chunks(256) {
            block += 1;
            let mut rows = Rows::default();
            for &e in chunk {
                buf.clear();
                serial.closure_into(e, &mut buf);
                for &sub in &buf {
                    let (d, gid, class) = (sub.dim(), sub.index() as u64, serial.class_of(sub));
                    let below = d.as_usize() < ed;
                    if below && seen[d.as_usize()][sub.idx()].0 == block {
                        continue;
                    }
                    let row = if d == Dim::Vertex {
                        rows.push_vertex(gid, class, serial.coords(sub), ())
                    } else {
                        let (sv, mut vs) = (serial.verts_of(sub), [0u32; 8]);
                        for (v, &s) in vs.iter_mut().zip(sv) {
                            *v = seen[0][s as usize].1;
                        }
                        rows.push_entity(serial.topo(sub), gid, class, &vs[..sv.len()], ())
                            .expect("a serial mesh entity has distinct vertices")
                    };
                    if below {
                        seen[d.as_usize()][sub.idx()] = (block, row);
                    }
                }
            }
            part.build(&rows, &mut at, |_, _| true)
                .expect("a serial mesh's closures build");
        }
        parts.push(part);
    }
    parts
}

/// Labels a vertex keeps: the parts of its elements, up to this many.
const LABELS: usize = 4;
/// An unused label slot.
const UNLABELLED: PartId = PartId::MAX;
/// Every slot of a vertex whose elements lie in more than [`LABELS`] parts.
const MANY: PartId = PartId::MAX - 1;

/// The residence (§II-B: the parts of the adjacent elements) of every
/// entity of some parts that lies on a part boundary.
struct Residence {
    /// Every residence list, concatenated.
    parts: Vec<PartId>,
    /// Per part: its boundary entities in handle order, each with the
    /// `[start, end)` of its list in `parts`.
    ents: Vec<Vec<(MeshEnt, [u32; 2])>>,
}

impl Residence {
    /// The residence of the boundary entities of `parts`. One pass over the
    /// serial elements labels each vertex with their parts, which is a
    /// vertex's residence; another entity is walked up to its elements only
    /// when every one of its vertices carries two or more labels.
    fn of(serial: &Mesh, elem_part: &[PartId], parts: &[Part]) -> Residence {
        let d_elem = serial.elem_dim_t();
        let mut labels = vec![[UNLABELLED; LABELS]; serial.index_space(Dim::Vertex)];
        for e in serial.iter(d_elem) {
            let p = elem_part[e.idx()];
            for &v in serial.verts_of(e) {
                let l = &mut labels[v as usize];
                if !l.contains(&p) && l[0] != MANY {
                    match l.iter().position(|&q| q == UNLABELLED) {
                        Some(i) => l[i] = p,
                        None => *l = [MANY; LABELS],
                    }
                }
            }
        }
        let shared = |v: u32| labels[v as usize][1] != UNLABELLED;
        let mut out = Residence {
            parts: Vec::new(),
            ents: Vec::with_capacity(parts.len()),
        };
        let mut here = Vec::new();
        for part in parts {
            let mut list = Vec::new();
            for d in (0..d_elem.as_usize()).map(Dim::from_usize) {
                for e in part.mesh.iter(d) {
                    let s = MeshEnt::new(d, part.gid_of(e) as u32);
                    let inside = match d {
                        Dim::Vertex => !shared(s.index()),
                        _ => !serial.verts_of(s).iter().all(|&v| shared(v)),
                    };
                    if inside {
                        continue;
                    }
                    here.clear();
                    match d {
                        Dim::Vertex if labels[s.idx()][0] != MANY => {
                            here.extend(labels[s.idx()].iter().filter(|&&q| q != UNLABELLED));
                        }
                        _ => parts_above(serial, elem_part, s, &mut here),
                    }
                    here.sort_unstable();
                    if here.len() > 1 {
                        let start = out.parts.len() as u32;
                        out.parts.extend_from_slice(&here);
                        list.push((e, [start, out.parts.len() as u32]));
                    }
                }
            }
            out.ents.push(list);
        }
        out
    }

    /// Per part, its boundary entities and their residence: what
    /// [`stitch`] announces.
    fn announce(&self) -> Vec<Vec<(MeshEnt, &[PartId])>> {
        let list = |l: &Vec<(MeshEnt, [u32; 2])>| {
            l.iter()
                .map(|&(e, [a, b])| (e, &self.parts[a as usize..b as usize]))
                .collect()
        };
        self.ents.iter().map(list).collect()
    }
}

/// Add to `parts` the part of every element above `e`, each part once,
/// walking the upward lists without deduplicating the entities passed:
/// the parts are few, the entities many.
fn parts_above(serial: &Mesh, elem_part: &[PartId], e: MeshEnt, parts: &mut Vec<PartId>) {
    if e.dim().as_usize() == serial.elem_dim() {
        let p = elem_part[e.idx()];
        if !parts.contains(&p) {
            parts.push(p);
        }
        return;
    }
    for u in serial.up(e) {
        parts_above(serial, elem_part, u, parts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pumi_mesh::Topology;
    use pumi_meshgen::{hex_box, jitter, quad_rect, tet_box, tri_rect};
    use pumi_pcu::{execute, execute_opts, MachineModel, WorldOpts};

    /// The residence rule before `distribute` followed the parts a rank
    /// holds, kept as the oracle of `boundary_residence_matches_whole_mesh`:
    /// every entity of the whole serial mesh, its parts collected into a
    /// `Vec` of its own.
    fn whole_mesh_residence(
        serial: &Mesh,
        elem_part: &[PartId],
    ) -> FxHashMap<MeshEnt, Vec<PartId>> {
        let d_elem = serial.elem_dim_t();
        let mut residence = FxHashMap::default();
        for d in 0..serial.elem_dim() {
            for a in serial.iter(Dim::from_usize(d)) {
                let mut parts: Vec<PartId> = serial
                    .adjacent(a, d_elem)
                    .iter()
                    .map(|e| elem_part[e.idx()])
                    .collect();
                parts.sort_unstable();
                parts.dedup();
                if parts.len() > 1 {
                    residence.insert(a, parts);
                }
            }
        }
        residence
    }

    /// `quad_rect(n, n)` with every other quad cut into two triangles.
    fn quads_and_triangles(n: usize) -> Mesh {
        let quads = quad_rect(n, n, 1.0, 1.0);
        let mut m = Mesh::new(2);
        for v in quads.iter(Dim::Vertex) {
            assert_eq!(m.add_vertex(quads.coords(v), quads.class_of(v)), v);
        }
        for (k, e) in quads.elems().enumerate() {
            let (vs, class) = (quads.verts_of(e), quads.class_of(e));
            if k % 2 == 0 {
                m.add_element(Topology::Quad, vs, class);
            } else {
                m.add_element(Topology::Triangle, &[vs[0], vs[1], vs[2]], class);
                m.add_element(Topology::Triangle, &[vs[0], vs[2], vs[3]], class);
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Residence from each part's own entities equals the rule over the
        /// whole serial mesh, as sets of (part, dim, gid, residence), on
        /// jittered triangle, tet, hex and quad-and-triangle meshes with
        /// random element labels (up to seven parts, so that vertices with
        /// more parts than they keep labels occur).
        #[test]
        fn boundary_residence_matches_whole_mesh(kind in 0usize..4, n in 2usize..5, nparts in 2u32..8, seed in 0u64..1 << 40) {
            let mut serial = match kind {
                0 => tri_rect(2 * n, 2 * n, 1.0, 1.0),
                1 => tet_box(n, n, n, 1.0, 1.0, 1.0),
                2 => hex_box(n, n, n, 1.0, 1.0, 1.0),
                _ => quads_and_triangles(2 * n),
            };
            jitter(&mut serial, 0.2, seed);
            let d = serial.elem_dim_t();
            let mut state = seed;
            let labels: Vec<PartId> = (0..serial.index_space(d))
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) as PartId % nparts
                })
                .collect();
            let pids: Vec<PartId> = (0..nparts).collect();
            let parts = build_parts(&serial, &labels, &pids);
            let residence = Residence::of(&serial, &labels, &parts);
            let mut got: Vec<(PartId, Dim, u64, &[PartId])> = Vec::new();
            for (part, list) in parts.iter().zip(residence.announce()) {
                for (e, res) in list {
                    got.push((part.id, e.dim(), part.gid_of(e), res));
                }
            }
            let oracle = whole_mesh_residence(&serial, &labels);
            let mut want: Vec<(PartId, Dim, u64, &[PartId])> = Vec::new();
            for (a, rs) in &oracle {
                for &p in rs {
                    prop_assert!(parts[p as usize].find_gid(a.dim(), a.index() as u64).is_some());
                    want.push((p, a.dim(), a.index() as u64, rs.as_slice()));
                }
            }
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn partmap_contiguous() {
        let m = PartMap::contiguous(8, 3);
        assert_eq!(m.nparts(), 8);
        assert_eq!(m.parts_on(0), &[0, 1, 2]);
        assert_eq!(m.parts_on(1), &[3, 4, 5]);
        assert_eq!(m.parts_on(2), &[6, 7]);
        assert_eq!(m.rank_of(4), 1);
        assert_eq!(m.slot_of(4), 1);
    }

    #[test]
    fn partmap_balanced_blocks_feeds_every_rank() {
        // 5 parts on 4 ranks: contiguous starves rank 3, blocks do not.
        let m = PartMap::balanced_blocks(5, 4);
        assert_eq!(m.parts_on(0), &[0]);
        assert_eq!(m.parts_on(1), &[1]);
        assert_eq!(m.parts_on(2), &[2]);
        assert_eq!(m.parts_on(3), &[3, 4]);
        for nparts in 1..20 {
            for nranks in 1..=nparts {
                let m = PartMap::balanced_blocks(nparts, nranks);
                for r in 0..nranks {
                    assert!(!m.parts_on(r).is_empty(), "{nparts} on {nranks}: rank {r}");
                }
            }
        }
    }

    #[test]
    fn part_exchange_routes_by_part() {
        // Pinned deterministic: the sortedness assertion below is about the
        // deterministic scheduler's contract.
        let opts = WorldOpts::default().sched(SchedMode::Deterministic);
        execute_opts(MachineModel::flat(2), opts, |c| {
            let map = PartMap::contiguous(4, 2); // rank0: parts 0,1; rank1: 2,3
            let mut ex = PartExchange::new(c, &map);
            // Each local part sends its id+100 to every other part.
            for &from in map.parts_on(c.rank()) {
                for to in 0..4u32 {
                    if to != from {
                        ex.to(from, to).put_u32(from + 100);
                    }
                }
            }
            let got = ex.finish();
            // Each of my 2 parts receives from the 3 others: 6 messages.
            assert_eq!(got.len(), 6);
            let mut prev = (0, 0);
            for (from, to, mut r) in got {
                assert!(map.rank_of(to) == c.rank());
                assert_eq!(r.get_u32(), from + 100);
                assert!((to, from) >= prev, "not sorted");
                prev = (to, from);
            }
        });
    }

    /// Under chaos scheduling the part exchange delivers the same
    /// (from, to, payload) set as the deterministic scheduler, in a seeded
    /// permutation that actually differs from sorted order for some seed.
    #[test]
    fn part_exchange_chaos_same_set_any_order() {
        let mut permuted = false;
        for seed in 1..=4u64 {
            let opts = WorldOpts::default().sched(SchedMode::Chaos(seed));
            let rows = execute_opts(MachineModel::flat(2), opts, |c| {
                let map = PartMap::contiguous(4, 2);
                let mut ex = PartExchange::new(c, &map);
                for &from in map.parts_on(c.rank()) {
                    for to in 0..4u32 {
                        if to != from {
                            ex.to(from, to).put_u32(from + 100);
                        }
                    }
                }
                ex.finish()
                    .into_iter()
                    .map(|(from, to, mut r)| (from, to, r.get_u32()))
                    .collect::<Vec<_>>()
            });
            for got in &rows {
                assert_eq!(got.len(), 6);
                let mut sorted = got.clone();
                sorted.sort_by_key(|&(f, t, _)| (t, f));
                permuted |= *got != sorted;
                for &(from, _, v) in &sorted {
                    assert_eq!(v, from + 100);
                }
            }
        }
        assert!(permuted, "chaos never permuted part-frame order");
    }

    /// Distribute a 4x4 triangle mesh to 4 parts on 2 ranks and check the
    /// boundary bookkeeping end to end.
    #[test]
    fn distribute_rect_four_parts() {
        let results = execute(2, |c| {
            let serial = tri_rect(4, 4, 1.0, 1.0);
            // Quadrant partition by element centroid.
            let elem_part: Vec<PartId> = {
                let d = serial.elem_dim_t();
                let mut v = vec![0; serial.index_space(d)];
                for e in serial.iter(d) {
                    let c = serial.centroid(e);
                    let px = if c[0] < 0.5 { 0 } else { 1 };
                    let py = if c[1] < 0.5 { 0 } else { 1 };
                    v[e.idx()] = (py * 2 + px) as PartId;
                }
                v
            };
            let map = PartMap::contiguous(4, 2);
            let dm = distribute(c, map, &serial, &elem_part);

            // Every rank hosts 2 parts with 8 elements each.
            assert_eq!(dm.parts.len(), 2);
            for p in &dm.parts {
                assert_eq!(p.mesh.num_elems(), 8);
                p.mesh.assert_valid();
                for d in Dim::ALL {
                    assert!(p
                        .mesh
                        .iter(d)
                        .all(|e| p.find_gid(d, p.gid_of(e)) == Some(e)));
                }
            }
            // Total owned entities match the serial mesh.
            let serial_counts = [
                serial.count(Dim::Vertex) as u64,
                serial.count(Dim::Edge) as u64,
                serial.count(Dim::Face) as u64,
            ];
            let mut owned = [0u64; 3];
            for p in &dm.parts {
                for (d, o) in owned.iter_mut().enumerate() {
                    *o += p
                        .mesh
                        .iter(Dim::from_usize(d))
                        .filter(|&e| p.is_owned(e))
                        .count() as u64;
                }
            }
            let global: Vec<u64> = owned.iter().map(|&x| c.allreduce_sum_u64(x)).collect();
            assert_eq!(global, serial_counts);

            // The center vertex (0.5, 0.5) is shared by all 4 parts.
            let mut center_res = None;
            for p in &dm.parts {
                for v in p.mesh.iter(Dim::Vertex) {
                    let x = p.mesh.coords(v);
                    if (x[0] - 0.5).abs() < 1e-12 && (x[1] - 0.5).abs() < 1e-12 {
                        center_res = Some(p.residence(v));
                    }
                }
            }
            let center_res = center_res.expect("center vertex missing");
            assert_eq!(center_res, vec![0, 1, 2, 3]);
            true
        });
        assert!(results.into_iter().all(|x| x));
    }
}
