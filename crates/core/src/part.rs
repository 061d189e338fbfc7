//! A mesh part (§II-A).
//!
//! "When a mesh is distributed to N parts, each part is assigned to a
//! process or processing core. A part is a subset of topological mesh
//! entities of the entire mesh, uniquely identified by its handle or id."
//!
//! A [`Part`] wraps a serial [`Mesh`] with the parallel bookkeeping of
//! §II-B: global ids (stable across migration), remote copies for part
//! boundary entities, and ghost provenance. "Each part is treated as a
//! serial mesh with the addition of mesh part boundaries."

use pumi_geom::GeomEnt;
use pumi_mesh::{Mesh, Topology};
use pumi_util::{Dim, FxHashMap, FxHashSet, GlobalId, MeshEnt, PartId};

/// No record on a slot; no list on a record.
const NONE: u32 = u32::MAX;

/// Remote copies a record holds in place; a longer list spills to the pool.
const INLINE_COPIES: usize = 2;

/// Ghost holders a record holds in place; a longer list spills to the pool.
/// Most roots are ghosted to one neighbour.
const INLINE_HOLDERS: usize = 1;

/// The ghost source of an entity that is not a ghost.
const NO_SOURCE: (PartId, u32) = (PartId::MAX, u32::MAX);

/// Sentinel for "no global id assigned".
pub const NO_GID: GlobalId = u64::MAX;

/// A deterministic, partition-invariant global id for an entity derived
/// from the sorted gids of its vertices (FNV-1a, top bit set). Every part
/// holding a copy of the same new entity computes the same id, so boundary
/// splits need no gid communication; serial and distributed adaptation of
/// the same mesh produce identical ids (and thus identical `struct_hash`).
pub fn content_gid(dim: Dim, vgids: &mut [GlobalId]) -> GlobalId {
    vgids.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    eat(dim.as_usize() as u8);
    for g in vgids.iter() {
        for b in g.to_le_bytes() {
            eat(b);
        }
    }
    // Top bit marks content-derived ids (bootstrap serial indices stay
    // below 2^40); the cleared low bit dodges the NO_GID sentinel.
    (h | 1 << 63) & !1
}

/// Per-dimension record of entities touched since tracking began — the
/// write-side input of delta checkpoints. Keys are global ids (stable
/// across slot reuse and migration), not local handles.
///
/// Structural mutations are captured automatically by the [`Part`] hooks
/// (gid recording, deletion, ghost-record changes). *Value* mutations that
/// bypass the part — tag writes and field writes on an unchanged entity —
/// must be reported with [`Part::mark_dirty`]; `pumi-adapt` does this for
/// the entities whose fields it re-interpolates.
#[derive(Debug, Default, Clone)]
pub struct DirtyLog {
    /// Gids of entities created or mutated since the log was started,
    /// per dimension.
    pub dirty: [FxHashSet<GlobalId>; 4],
    /// Gids of entities deleted since the log was started, per dimension.
    pub deleted: [FxHashSet<GlobalId>; 4],
}

impl DirtyLog {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.dirty.iter().all(|s| s.is_empty()) && self.deleted.iter().all(|s| s.is_empty())
    }

    fn touch(&mut self, d: usize, gid: GlobalId) {
        self.deleted[d].remove(&gid);
        self.dirty[d].insert(gid);
    }

    fn erase(&mut self, d: usize, gid: GlobalId) {
        self.dirty[d].remove(&gid);
        self.deleted[d].insert(gid);
    }
}

/// The lists too long to sit in a record, with free-list reuse of their
/// positions.
#[derive(Debug, Default)]
struct Pool {
    lists: Vec<Vec<(PartId, u32)>>,
    free: Vec<u32>,
}

impl Pool {
    fn take(&mut self, list: Vec<(PartId, u32)>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.lists[i as usize] = list;
                i
            }
            None => {
                self.lists.push(list);
                (self.lists.len() - 1) as u32
            }
        }
    }

    fn give_back(&mut self, i: u32) {
        if i != NONE {
            self.lists[i as usize] = Vec::new();
            self.free.push(i);
        }
    }
}

/// A sorted list of copy links: up to `N` in place, a longer one in the
/// pool, with its pool position kept in the first place instead.
#[derive(Debug, Clone, Copy)]
struct Short<const N: usize> {
    len: u32,
    inline: [(PartId, u32); N],
}

impl<const N: usize> Short<N> {
    const EMPTY: Self = Short {
        len: 0,
        inline: [(0, 0); N],
    };

    /// The pool position of a spilled list, else [`NONE`].
    fn spill(&self) -> u32 {
        match self.len as usize > N {
            true => self.inline[0].0,
            false => NONE,
        }
    }

    fn as_slice<'a>(&'a self, pool: &'a Pool) -> &'a [(PartId, u32)] {
        match self.spill() {
            NONE => &self.inline[..self.len as usize],
            i => &pool.lists[i as usize],
        }
    }

    /// Replace the list with `items` (sorted, distinct).
    fn set(&mut self, pool: &mut Pool, items: &[(PartId, u32)]) {
        let spill = self.spill();
        if items.len() <= N {
            pool.give_back(spill);
            self.inline[..items.len()].copy_from_slice(items);
        } else if spill != NONE {
            let list = &mut pool.lists[spill as usize];
            list.clear();
            list.extend_from_slice(items);
        } else {
            self.inline[0].0 = pool.take(items.to_vec());
        }
        self.len = items.len() as u32;
    }

    /// Insert `x` in order, once.
    fn insert(&mut self, pool: &mut Pool, x: (PartId, u32)) {
        let Err(at) = self.as_slice(pool).binary_search(&x) else {
            return;
        };
        let n = self.len as usize;
        if n < N {
            self.inline.copy_within(at..n, at + 1);
            self.inline[at] = x;
        } else if n == N {
            let mut list = Vec::with_capacity(2 * N + 2);
            list.extend_from_slice(&self.inline);
            list.insert(at, x);
            self.inline[0].0 = pool.take(list);
        } else {
            pool.lists[self.spill() as usize].insert(at, x);
        }
        self.len += 1;
    }

    fn clear(&mut self, pool: &mut Pool) {
        pool.give_back(self.spill());
        *self = Self::EMPTY;
    }
}

/// The copy links of one entity (§II-B): its remote copies, and its ghost
/// source or ghost holders (§II-C). 40 bytes; the entity is the slot that
/// names the record.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// (owner part, owner local index) of a ghost copy, else [`NO_SOURCE`].
    source: (PartId, u32),
    /// Remote copies, sorted by part.
    copies: Short<INLINE_COPIES>,
    /// The copies holding ghosts of this entity, sorted.
    holders: Short<INLINE_HOLDERS>,
}

const _: () = assert!(std::mem::size_of::<Record>() == 40);

impl Record {
    const FREE: Record = Record {
        source: NO_SOURCE,
        copies: Short::EMPTY,
        holders: Short::EMPTY,
    };

    /// Whether the record holds no link: a free record is one.
    fn is_empty(&self) -> bool {
        self.copies.len == 0 && self.source == NO_SOURCE && self.holders.len == 0
    }
}

/// Copy links as slot-indexed data: per dimension one `u32` per entity slot
/// indexes a pooled [`Record`] store; a record is taken when an entity
/// gains its first link and freed when it loses its last, so the store
/// holds the part boundary and the ghosts, not the part. Lists longer than
/// a record holds in place live in a second pool.
#[derive(Debug, Default)]
struct Links {
    /// Record index per entity slot, [`NONE`] without links; grown on
    /// demand, so a part that never links pays nothing.
    slot: [Vec<u32>; 4],
    recs: Vec<Record>,
    free_recs: Vec<u32>,
    /// Spilled remote-copy lists and ghost-holder lists.
    pool: Pool,
    /// Records with remote copies.
    nshared: usize,
    /// Records with a ghost source.
    nghosts: usize,
}

/// The copy links of one entity, as [`Part::links`] yields them.
pub(crate) struct EntLinks<'a> {
    pub(crate) ent: MeshEnt,
    /// Remote copies, sorted by part.
    pub(crate) copies: &'a [(PartId, u32)],
    /// The ghost source, if `ent` is a ghost.
    pub(crate) source: Option<(PartId, u32)>,
    /// Ghost holders, sorted.
    pub(crate) holders: &'a [(PartId, u32)],
}

impl Links {
    fn index(&self, e: MeshEnt) -> u32 {
        let slot = &self.slot[e.dim().as_usize()];
        slot.get(e.idx()).copied().unwrap_or(NONE)
    }

    fn get(&self, e: MeshEnt) -> Option<&Record> {
        self.recs.get(self.index(e) as usize)
    }

    /// The entities of dimension `d` with a record, and their records, in
    /// slot order.
    fn in_slot_order(&self, d: Dim) -> impl Iterator<Item = (MeshEnt, &Record)> + '_ {
        let slot = self.slot[d.as_usize()].iter().enumerate();
        slot.filter(|&(_, &r)| r != NONE)
            .map(move |(i, &r)| (MeshEnt::new(d, i as u32), &self.recs[r as usize]))
    }

    fn copies<'a>(&'a self, rec: &'a Record) -> &'a [(PartId, u32)] {
        rec.copies.as_slice(&self.pool)
    }

    fn holders<'a>(&'a self, rec: &'a Record) -> &'a [(PartId, u32)] {
        rec.holders.as_slice(&self.pool)
    }

    /// The record of `e`, taken from the store if `e` has none.
    fn entry(&mut self, e: MeshEnt) -> usize {
        let r = self.index(e);
        if r != NONE {
            return r as usize;
        }
        let r = match self.free_recs.pop() {
            Some(r) => r,
            None => {
                self.recs.push(Record::FREE);
                (self.recs.len() - 1) as u32
            }
        };
        let slot = &mut self.slot[e.dim().as_usize()];
        if slot.len() <= e.idx() {
            slot.resize(e.idx() + 1, NONE);
        }
        slot[e.idx()] = r;
        r as usize
    }

    /// Free the record `r` of `e` if it holds no link any more.
    fn release_if_empty(&mut self, e: MeshEnt, r: usize) {
        if self.recs[r].is_empty() {
            self.slot[e.dim().as_usize()][e.idx()] = NONE;
            self.recs[r] = Record::FREE;
            self.free_recs.push(r as u32);
        }
    }

    /// Replace the remote copies of `e` with `copies` (sorted, distinct).
    fn set_copies(&mut self, e: MeshEnt, copies: &[(PartId, u32)]) {
        if copies.is_empty() && self.index(e) == NONE {
            return;
        }
        let r = self.entry(e);
        let rec = &mut self.recs[r];
        self.nshared += (!copies.is_empty()) as usize;
        self.nshared -= (rec.copies.len > 0) as usize;
        rec.copies.set(&mut self.pool, copies);
        self.release_if_empty(e, r);
    }

    fn set_source(&mut self, e: MeshEnt, src: (PartId, u32)) {
        let r = self.entry(e);
        self.nghosts += (self.recs[r].source == NO_SOURCE) as usize;
        self.recs[r].source = src;
    }

    fn clear_source(&mut self, e: MeshEnt) {
        let r = self.index(e);
        if r != NONE && self.recs[r as usize].source != NO_SOURCE {
            self.nghosts -= 1;
            self.recs[r as usize].source = NO_SOURCE;
            self.release_if_empty(e, r as usize);
        }
    }

    /// Insert `to` into the sorted holder list of `e`, once.
    fn add_holder(&mut self, e: MeshEnt, to: (PartId, u32)) {
        let r = self.entry(e);
        self.recs[r].holders.insert(&mut self.pool, to);
    }

    /// Drop every ghost source and holder list, keeping remote copies.
    fn clear_ghosts(&mut self) {
        for d in Dim::ALL {
            for i in 0..self.slot[d.as_usize()].len() {
                let (e, r) = (MeshEnt::new(d, i as u32), self.slot[d.as_usize()][i]);
                if r == NONE {
                    continue;
                }
                let rec = &mut self.recs[r as usize];
                rec.holders.clear(&mut self.pool);
                rec.source = NO_SOURCE;
                self.release_if_empty(e, r as usize);
            }
        }
        self.nghosts = 0;
    }

    /// Drop every link of `e`.
    fn drop_entity(&mut self, e: MeshEnt) {
        let r = self.index(e);
        if r == NONE {
            return;
        }
        let rec = &mut self.recs[r as usize];
        self.nshared -= (rec.copies.len > 0) as usize;
        self.nghosts -= (rec.source != NO_SOURCE) as usize;
        rec.copies.clear(&mut self.pool);
        rec.holders.clear(&mut self.pool);
        rec.source = NO_SOURCE;
        self.release_if_empty(e, r as usize);
    }
}

/// One part of a distributed mesh.
pub struct Part {
    /// The part id `P_i`, unique across the whole partition.
    pub id: PartId,
    /// The part's serial mesh.
    pub mesh: Mesh,
    /// Global id per entity, dense per dimension (parallel to the mesh's
    /// index space).
    gids: [Vec<GlobalId>; 4],
    /// Reverse index: global id → local index, per dimension.
    gid_index: [FxHashMap<GlobalId, u32>; 4],
    /// Copy links per entity slot: remote copies of part-boundary entities,
    /// ghost sources and ghost holders.
    links: Links,
    /// Mutation log for delta checkpoints; `None` when tracking is off.
    dirty: Option<DirtyLog>,
}

/// Record `gid` as the global id of `e` in the dense column, and in the
/// dirty log if one is kept; the caller keeps the reverse index.
fn note_gid(
    gids: &mut [Vec<GlobalId>; 4],
    dirty: &mut Option<DirtyLog>,
    mesh: &Mesh,
    e: MeshEnt,
    gid: GlobalId,
) {
    let col = &mut gids[e.dim().as_usize()];
    if col.len() <= e.idx() {
        col.resize(e.idx() + 1, NO_GID);
    }
    debug_assert!(
        col[e.idx()] == NO_GID || !mesh.is_live(e) || col[e.idx()] == gid,
        "gid reassignment for {e:?}"
    );
    col[e.idx()] = gid;
    if let Some(log) = dirty {
        log.touch(e.dim().as_usize(), gid);
    }
}

impl Part {
    /// An empty part with the given id and element dimension.
    pub fn new(id: PartId, elem_dim: usize) -> Part {
        Part {
            id,
            mesh: Mesh::new(elem_dim),
            gids: Default::default(),
            gid_index: Default::default(),
            links: Links::default(),
            dirty: None,
        }
    }

    pub(crate) fn record_gid(&mut self, e: MeshEnt, gid: GlobalId) {
        self.gid_index[e.dim().as_usize()].insert(gid, e.index());
        note_gid(&mut self.gids, &mut self.dirty, &self.mesh, e, gid);
    }

    /// The live entity of dimension `d` whose global id is `gid`, found
    /// with one probe of the gid index, or else the entity `create` makes
    /// on the mesh, its gid recorded in the entry that probe left; with
    /// whether it was created. An entry that names a dead slot counts as
    /// absent. On `Err` the index is as it was.
    pub(crate) fn find_or_create_gid<E>(
        &mut self,
        d: Dim,
        gid: GlobalId,
        create: impl FnOnce(&mut Mesh) -> Result<MeshEnt, E>,
    ) -> Result<(MeshEnt, bool), E> {
        let index = &mut self.gid_index[d.as_usize()];
        let at = index.entry(gid).or_insert(NONE);
        let was = *at;
        if was != NONE && self.mesh.is_live(MeshEnt::new(d, was)) {
            return Ok((MeshEnt::new(d, was), false));
        }
        match create(&mut self.mesh) {
            Ok(e) => {
                *at = e.index();
                note_gid(&mut self.gids, &mut self.dirty, &self.mesh, e, gid);
                Ok((e, true))
            }
            Err(err) => {
                if was == NONE {
                    index.remove(&gid);
                }
                Err(err)
            }
        }
    }

    /// Create a vertex with an explicit global id.
    pub fn add_vertex(&mut self, x: [f64; 3], class: GeomEnt, gid: GlobalId) -> MeshEnt {
        let v = self.mesh.add_vertex(x, class);
        self.record_gid(v, gid);
        v
    }

    /// Find-or-create an entity over local vertex indices with an explicit
    /// global id for the top entity; the sides it creates implicitly take
    /// their [`content_gid`].
    pub fn add_entity(
        &mut self,
        topo: Topology,
        verts: &[u32],
        class: GeomEnt,
        gid: GlobalId,
    ) -> MeshEnt {
        let before = self.mesh.count(topo.dim());
        let e = self.mesh.add_entity(topo, verts, class);
        if self.mesh.count(topo.dim()) == before {
            debug_assert_eq!(self.gid_of(e), gid, "gid mismatch on find: {e:?}");
            return e;
        }
        self.record_gid(e, gid);
        let mut closure = Vec::new();
        self.mesh.closure_into(e, &mut closure);
        for sub in closure {
            self.assign_content_gid(sub);
        }
        e
    }

    /// Give `e` its [`content_gid`] unless it already has one: the gid of
    /// every entity created without a row (implicit sides, adaptation's
    /// split and collapse products). Its vertices must have gids.
    pub fn assign_content_gid(&mut self, e: MeshEnt) {
        if self.gid_of(e) == NO_GID {
            let verts = self.mesh.verts_of(e);
            let mut vg = [NO_GID; 8];
            for (g, &v) in vg.iter_mut().zip(verts) {
                *g = self.gid_of(MeshEnt::vertex(v));
            }
            let gid = content_gid(e.dim(), &mut vg[..verts.len()]);
            self.record_gid(e, gid);
        }
    }

    /// Record (or re-record) the global id of an existing mesh entity.
    ///
    /// Mesh-modification drivers (adaptation) create entities directly on
    /// [`Part::mesh`] and assign deterministic, content-derived gids
    /// afterwards; this is their hook into the part's gid bookkeeping.
    ///
    /// # Panics
    /// Debug builds panic when re-recording a *different* gid for a live
    /// entity — stale bookkeeping must be dropped with [`Part::forget`]
    /// first.
    pub fn set_gid(&mut self, e: MeshEnt, gid: GlobalId) {
        self.record_gid(e, gid);
    }

    /// Drop all parallel bookkeeping of `e` — gid, gid index entry, remote
    /// copies, ghost records — without touching the mesh entity itself.
    ///
    /// Adaptation deletes entities through mesh-level cavity operators
    /// ([`Mesh::delete`] inside the split/collapse kernels); the driver
    /// forgets the doomed handles first so a reused slot can never inherit
    /// stale gid or remote-copy state. Compare [`Part::delete_entity`],
    /// which also deletes the mesh entity.
    pub fn forget(&mut self, e: MeshEnt) {
        let d = e.dim().as_usize();
        let gid = self.gid_of(e);
        if gid != NO_GID {
            self.gid_index[d].remove(&gid);
            self.gids[d][e.idx()] = NO_GID;
            if let Some(log) = &mut self.dirty {
                log.erase(d, gid);
            }
        }
        self.links.drop_entity(e);
    }

    /// The global id of a live entity.
    #[inline]
    pub fn gid_of(&self, e: MeshEnt) -> GlobalId {
        let d = e.dim().as_usize();
        self.gids[d].get(e.idx()).copied().unwrap_or(NO_GID)
    }

    /// Find a live local entity by dimension and global id.
    pub fn find_gid(&self, d: Dim, gid: GlobalId) -> Option<MeshEnt> {
        self.gid_index[d.as_usize()]
            .get(&gid)
            .map(|&i| MeshEnt::new(d, i))
            .filter(|&e| self.mesh.is_live(e))
    }

    // ------------------------------------------------------------------
    // Remote copies & residence (§II-B)
    // ------------------------------------------------------------------

    /// Replace the remote-copy list of `e` (sorted by part id).
    pub fn set_remotes(&mut self, e: MeshEnt, mut copies: Vec<(PartId, u32)>) {
        copies.sort_unstable();
        copies.dedup();
        self.link_copies(e, &copies);
    }

    /// [`Part::set_remotes`] for a list that is already sorted and
    /// distinct: no `Vec` changes hands, and a list short enough to sit in
    /// the record allocates nothing.
    pub(crate) fn link_copies(&mut self, e: MeshEnt, copies: &[(PartId, u32)]) {
        debug_assert!(copies.windows(2).all(|w| w[0] < w[1]), "unsorted copies");
        debug_assert!(copies.iter().all(|&(p, _)| p != self.id));
        self.links.set_copies(e, copies);
    }

    /// The remote copies of `e`: (part, remote local index), sorted by part.
    pub fn remotes_of(&self, e: MeshEnt) -> &[(PartId, u32)] {
        self.links.get(e).map_or(&[], |rec| self.links.copies(rec))
    }

    /// Whether `e` lies on a part boundary (has remote copies).
    #[inline]
    pub fn is_shared(&self, e: MeshEnt) -> bool {
        self.links.get(e).is_some_and(|rec| rec.copies.len > 0)
    }

    /// The residence parts of `e`: this part plus all remote parts, sorted.
    /// (§II-B: "the residence part is a set of part id(s) where a mesh
    /// entity exists based on adjacency information".)
    pub fn residence(&self, e: MeshEnt) -> Vec<PartId> {
        let mut r: Vec<PartId> = std::iter::once(self.id)
            .chain(self.remotes_of(e).iter().map(|&(p, _)| p))
            .collect();
        r.sort_unstable();
        r
    }

    /// The owning part of `e`: the minimum residence part ("one part is
    /// designated as owning part and ... imbues the right to modify").
    /// Ghost copies are owned by their source part.
    pub fn owner(&self, e: MeshEnt) -> PartId {
        if let Some((p, _)) = self.ghost_source(e) {
            return p;
        }
        self.remotes_of(e)
            .first()
            .map(|&(p, _)| p.min(self.id))
            .unwrap_or(self.id)
    }

    /// Whether this part owns `e`.
    #[inline]
    pub fn is_owned(&self, e: MeshEnt) -> bool {
        self.owner(e) == self.id
    }

    /// The parts (other than this one) holding copies of `e` — the remote
    /// half of the residence set, sorted. Empty for interior entities.
    pub fn copy_parts(&self, e: MeshEnt) -> Vec<PartId> {
        self.remotes_of(e).iter().map(|&(p, _)| p).collect()
    }

    /// Every entity with a remote-copy or ghost record, in handle order:
    /// what the part cannot modify on its own. Distributed coarsening
    /// derives its per-sweep veto table from these; they are read off the
    /// link slots, so the table costs one `u32` a slot and a record per
    /// linked entity.
    pub fn boundary_entities(&self) -> impl Iterator<Item = MeshEnt> + '_ {
        let linked = self
            .links()
            .filter(|l| !l.copies.is_empty() || l.source.is_some());
        linked.map(|l| l.ent)
    }

    /// Every entity with a copy link and its links, in slot order — which
    /// is handle order, so the walk is deterministic and its output sorted.
    /// Costs the index spaces of the linked dimensions, one `u32` a slot.
    pub(crate) fn links(&self) -> impl Iterator<Item = EntLinks<'_>> + '_ {
        let links = &self.links;
        Dim::ALL
            .into_iter()
            .flat_map(|d| links.in_slot_order(d))
            .map(move |(ent, rec)| EntLinks {
                ent,
                copies: links.copies(rec),
                source: (rec.source != NO_SOURCE).then_some(rec.source),
                holders: links.holders(rec),
            })
    }

    /// All shared (part-boundary) entities with their remote lists, in slot
    /// order — which is handle order, so the result is deterministic.
    pub fn shared_entities(&self) -> Vec<(MeshEnt, &[(PartId, u32)])> {
        let mut v = Vec::with_capacity(self.links.nshared);
        let shared = self.links().filter(|l| !l.copies.is_empty());
        v.extend(shared.map(|l| (l.ent, l.copies)));
        v
    }

    // ------------------------------------------------------------------
    // Ghosts (§II-C)
    // ------------------------------------------------------------------

    /// Mark `e` as a ghost copy of `(owner part, owner local index)`.
    pub fn set_ghost(&mut self, e: MeshEnt, src: (PartId, u32)) {
        self.links.set_source(e, src);
        self.mark_dirty(e);
    }

    /// Whether `e` is a read-only ghost copy on this part.
    #[inline]
    pub fn is_ghost(&self, e: MeshEnt) -> bool {
        self.ghost_source(e).is_some()
    }

    /// The ghost's source (owner part, owner local index).
    pub fn ghost_source(&self, e: MeshEnt) -> Option<(PartId, u32)> {
        self.links
            .get(e)
            .map(|rec| rec.source)
            .filter(|&src| src != NO_SOURCE)
    }

    /// The root copy of `e` as this part knows it: its ghost source, else
    /// its owner's copy from the remote-copy list, else its own. One read
    /// of its record.
    pub(crate) fn root_copy(&self, e: MeshEnt) -> (PartId, u32) {
        let own = (self.id, e.index());
        let Some(rec) = self.links.get(e) else {
            return own;
        };
        if rec.source != NO_SOURCE {
            return rec.source;
        }
        // The owner is the minimum residence part: the first remote copy
        // if it sorts below this part.
        match self.links.copies(rec).first() {
            Some(&first) if first.0 < self.id => first,
            _ => own,
        }
    }

    /// Owner side: record that `to` holds a ghost copy of `e`. The holder
    /// list stays sorted so its order is independent of ack arrival order.
    /// Idempotent — recording the same holder twice keeps one entry.
    pub fn record_ghost_holder(&mut self, e: MeshEnt, to: (PartId, u32)) {
        self.links.add_holder(e, to);
    }

    /// Owner side: the parts holding ghost copies of `e`.
    pub fn ghosted_to(&self, e: MeshEnt) -> &[(PartId, u32)] {
        self.links.get(e).map_or(&[], |rec| self.links.holders(rec))
    }

    /// Owner-side view of ghost holders: entity → (holder part, holder-local
    /// index) list, sorted by entity handle. Read off the link slots in
    /// handle order, so it needs no sort.
    pub fn ghost_entities_owner_side(&self) -> Vec<(MeshEnt, &[(PartId, u32)])> {
        let held = self.links().filter(|l| !l.holders.is_empty());
        held.filter(|l| self.mesh.is_live(l.ent))
            .map(|l| (l.ent, l.holders))
            .collect()
    }

    /// Iterate ghost entities (sorted by handle).
    pub fn ghost_entities(&self) -> Vec<MeshEnt> {
        let mut v = Vec::with_capacity(self.links.nghosts);
        v.extend(self.links().filter(|l| l.source.is_some()).map(|l| l.ent));
        v
    }

    /// Number of ghost copies on this part.
    pub fn num_ghosts(&self) -> usize {
        self.links.nghosts
    }

    /// Remove all ghost bookkeeping (entities must be deleted separately by
    /// the ghosting module, which knows the deletion order).
    pub fn clear_ghost_records(&mut self) {
        self.links.clear_ghosts();
    }

    /// Remove one ghost record.
    pub fn remove_ghost_record(&mut self, e: MeshEnt) {
        if self.ghost_source(e).is_some() {
            self.links.clear_source(e);
            self.mark_dirty(e);
        }
    }

    /// Delete a local entity and its bookkeeping (gid index, remotes).
    /// The entity must satisfy the mesh's top-down deletion rule.
    pub fn delete_entity(&mut self, e: MeshEnt) {
        self.forget(e);
        self.mesh.delete(e);
    }

    // ------------------------------------------------------------------
    // Dirty tracking (delta checkpoints)
    // ------------------------------------------------------------------

    /// Begin (or restart) recording mutations into a fresh [`DirtyLog`].
    /// Structural changes are captured automatically; call
    /// [`Part::mark_dirty`] after mutating tag or field *values* on an
    /// otherwise-unchanged entity.
    pub fn start_dirty_tracking(&mut self) {
        self.dirty = Some(DirtyLog::default());
    }

    /// Stop recording and discard the log.
    pub fn stop_dirty_tracking(&mut self) {
        self.dirty = None;
    }

    /// Whether mutation recording is on.
    pub fn is_tracking_dirty(&self) -> bool {
        self.dirty.is_some()
    }

    /// Take the accumulated log and continue tracking into a fresh one —
    /// the delta writer's snapshot point. Returns `None` if tracking is off.
    pub fn rotate_dirty_log(&mut self) -> Option<DirtyLog> {
        self.dirty.replace(DirtyLog::default())
    }

    /// Record that `e`'s attached values (tags, fields) changed. No-op for
    /// entities without a gid or when tracking is off.
    pub fn mark_dirty(&mut self, e: MeshEnt) {
        if self.dirty.is_none() {
            return;
        }
        let gid = self.gid_of(e);
        if gid == NO_GID {
            return;
        }
        if let Some(log) = &mut self.dirty {
            log.touch(e.dim().as_usize(), gid);
        }
    }

    /// Per-dimension entity counts `[vtx, edge, face, rgn]` — the loads
    /// ParMA balances (counts include part-boundary copies, matching the
    /// paper's Table II accounting).
    pub fn entity_counts(&self) -> [usize; 4] {
        [
            self.mesh.count(Dim::Vertex),
            self.mesh.count(Dim::Edge),
            self.mesh.count(Dim::Face),
            self.mesh.count(Dim::Region),
        ]
    }
}

impl std::fmt::Debug for Part {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Part{{id:{}, {:?}, shared:{}, ghosts:{}}}",
            self.id, self.mesh, self.links.nshared, self.links.nghosts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_mesh::NO_GEOM;

    #[test]
    fn gid_roundtrip() {
        let mut p = Part::new(3, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 77);
        assert_eq!(p.gid_of(v), 77);
        assert_eq!(p.find_gid(Dim::Vertex, 77), Some(v));
        assert_eq!(p.find_gid(Dim::Vertex, 78), None);
    }

    #[test]
    fn implicit_intermediates_get_gids() {
        let mut p = Part::new(0, 2);
        let a = p.add_vertex([0.; 3], NO_GEOM, 1).index();
        let b = p.add_vertex([1., 0., 0.], NO_GEOM, 2).index();
        let c = p.add_vertex([0., 1., 0.], NO_GEOM, 3).index();
        let t = p.add_entity(Topology::Triangle, &[a, b, c], NO_GEOM, 100);
        assert_eq!(p.gid_of(t), 100);
        for e in p.mesh.down_ents(t) {
            assert_ne!(p.gid_of(e), NO_GID, "edge without gid");
            assert_eq!(p.find_gid(Dim::Edge, p.gid_of(e)), Some(e));
        }
    }

    /// Two parts build the same triangle over vertex gids 10/11/12 added in
    /// different local orders: each implicit edge gets the same gid on
    /// both, its content gid.
    #[test]
    fn copies_of_an_implicit_edge_agree_on_its_gid() {
        let corners = [(10, [0., 0., 0.]), (11, [1., 0., 0.]), (12, [0., 1., 0.])];
        let build = |id: PartId, order: [usize; 3]| {
            let mut p = Part::new(id, 2);
            for i in order {
                let (gid, x) = corners[i];
                p.add_vertex(x, NO_GEOM, gid);
            }
            let verts = [10, 11, 12].map(|g| p.find_gid(Dim::Vertex, g).unwrap().index());
            p.add_entity(Topology::Triangle, &verts, NO_GEOM, 100);
            p
        };
        let (p, q) = (build(0, [0, 1, 2]), build(1, [2, 0, 1]));
        for [a, b] in [[10, 11], [11, 12], [10, 12]] {
            let edge_gid = |part: &Part| {
                let vs = [a, b].map(|g| part.find_gid(Dim::Vertex, g).unwrap().index());
                part.gid_of(part.mesh.find_entity(Dim::Edge, &vs).unwrap())
            };
            assert_eq!(edge_gid(&p), edge_gid(&q));
            assert_eq!(edge_gid(&p), content_gid(Dim::Edge, &mut [b, a]));
        }
    }

    #[test]
    fn residence_and_owner() {
        let mut p = Part::new(2, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 5);
        assert_eq!(p.residence(v), vec![2]);
        assert_eq!(p.owner(v), 2);
        assert!(p.is_owned(v));
        p.set_remotes(v, vec![(4, 9), (1, 3)]);
        assert_eq!(p.residence(v), vec![1, 2, 4]);
        assert_eq!(p.owner(v), 1);
        assert!(!p.is_owned(v));
        assert_eq!(p.remotes_of(v), &[(1, 3), (4, 9)]);
        assert!(p.is_shared(v));
        p.set_remotes(v, vec![]);
        assert!(!p.is_shared(v));
    }

    #[test]
    fn ghost_records() {
        let mut p = Part::new(1, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 5);
        assert!(!p.is_ghost(v));
        p.set_ghost(v, (0, 42));
        assert!(p.is_ghost(v));
        assert_eq!(p.ghost_source(v), Some((0, 42)));
        assert_eq!(p.owner(v), 0);
        p.record_ghost_holder(v, (3, 7));
        p.record_ghost_holder(v, (3, 7));
        assert_eq!(p.ghosted_to(v), &[(3, 7)]);
        assert_eq!(p.num_ghosts(), 1);
    }

    #[test]
    fn delete_cleans_bookkeeping() {
        let mut p = Part::new(0, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 5);
        p.set_remotes(v, vec![(1, 0)]);
        p.delete_entity(v);
        assert_eq!(p.find_gid(Dim::Vertex, 5), None);
        assert_eq!(p.mesh.count(Dim::Vertex), 0);
    }

    #[test]
    fn forget_then_set_gid_reuses_slot_cleanly() {
        let mut p = Part::new(0, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 5);
        p.set_remotes(v, vec![(1, 0)]);
        p.forget(v);
        // Bookkeeping is gone, the mesh entity is untouched.
        assert_eq!(p.gid_of(v), NO_GID);
        assert_eq!(p.find_gid(Dim::Vertex, 5), None);
        assert!(!p.is_shared(v));
        assert!(p.mesh.is_live(v));
        // The slot can now carry a fresh gid without tripping the
        // reassignment guard.
        p.set_gid(v, 99);
        assert_eq!(p.gid_of(v), 99);
        assert_eq!(p.find_gid(Dim::Vertex, 99), Some(v));
    }

    #[test]
    fn ownership_and_boundary_queries() {
        let mut p = Part::new(1, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 5);
        assert!(p.is_owned(v) && !p.is_shared(v)); // interior: not shared
        assert_eq!(p.boundary_entities().count(), 0);
        p.set_remotes(v, vec![(3, 0)]);
        assert!(p.is_owned(v) && p.is_shared(v)); // shared, owner = min(1, 3) = 1
        assert_eq!(p.copy_parts(v), vec![3]);
        p.set_remotes(v, vec![(0, 0)]);
        assert!(!p.is_owned(v)); // part 0 owns it now
        p.set_ghost(v, (0, 0));
        assert_eq!(p.boundary_entities().collect::<Vec<_>>(), vec![v]);
    }

    /// A vertex `v` with every kind of copy link: three remote copies (one
    /// spilled past the inline ones), a ghost source and two holders.
    fn fully_linked(p: &mut Part, gid: GlobalId) -> MeshEnt {
        let v = p.add_vertex([0.; 3], NO_GEOM, gid);
        p.set_remotes(v, vec![(3, 1), (1, 2), (2, 3)]);
        p.set_ghost(v, (4, 5));
        p.record_ghost_holder(v, (6, 7));
        p.record_ghost_holder(v, (5, 8));
        v
    }

    /// The entity created in `v`'s freed slot carries no link of `v`'s.
    fn reuse_is_clean(p: &mut Part, v: MeshEnt) {
        let w = p.add_vertex([1.; 3], NO_GEOM, 1000);
        assert_eq!(w, v, "the freed slot is reused");
        assert_eq!(p.remotes_of(w), &[]);
        assert!(!p.is_shared(w) && !p.is_ghost(w));
        assert_eq!(p.ghost_source(w), None);
        assert_eq!(p.ghosted_to(w), &[]);
        assert_eq!(p.owner(w), p.id);
        assert_eq!(p.boundary_entities().count(), 0);
        assert!(p.shared_entities().is_empty() && p.ghost_entities().is_empty());
        assert!(p.ghost_entities_owner_side().is_empty());
        assert_eq!(p.num_ghosts(), 0);
    }

    #[test]
    fn slot_reuse_after_delete_entity_inherits_no_link() {
        let mut p = Part::new(0, 2);
        let v = fully_linked(&mut p, 5);
        p.delete_entity(v);
        reuse_is_clean(&mut p, v);
    }

    #[test]
    fn slot_reuse_after_forget_inherits_no_link() {
        let mut p = Part::new(0, 2);
        let v = fully_linked(&mut p, 5);
        p.forget(v);
        p.mesh.delete(v);
        reuse_is_clean(&mut p, v);
    }

    /// Delete `v`'s mesh entity with its gid but none of its links, the
    /// way a mesh-level cavity operator would after [`Part::forget`] of the
    /// gid alone: a record the ghost edit left behind would survive.
    fn delete_keeping_links(p: &mut Part, v: MeshEnt) {
        let gid = p.gid_of(v);
        p.gid_index[0].remove(&gid);
        p.gids[0][v.idx()] = NO_GID;
        p.mesh.delete(v);
    }

    /// A row whose gid the index still names at a dead slot is built as a
    /// new entity: the probe that finds the entry does not count it.
    #[test]
    fn a_gid_entry_at_a_dead_slot_is_not_found() {
        let mut p = Part::new(0, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 5);
        p.mesh.delete(v);
        assert_eq!(p.find_gid(Dim::Vertex, 5), None);
        let mut rows = crate::rows::Rows::default();
        rows.push_vertex(5, NO_GEOM, [1.; 3], ());
        let mut at = crate::rows::Placed::default();
        p.build(&rows, &mut at, |_, _| true)
            .expect("one vertex row");
        let (w, created) = at.get(Dim::Vertex, 0).expect("built");
        assert!(created, "the dead slot's entry was taken for the entity");
        assert_eq!(p.mesh.count(Dim::Vertex), 1);
        assert_eq!(p.find_gid(Dim::Vertex, 5), Some(w));
        assert_eq!(p.mesh.coords(w), [1.; 3]);
    }

    #[test]
    fn slot_reuse_after_remove_ghost_record_inherits_no_link() {
        let mut p = Part::new(0, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 5);
        p.set_ghost(v, (4, 5));
        p.remove_ghost_record(v);
        delete_keeping_links(&mut p, v);
        reuse_is_clean(&mut p, v);
    }

    #[test]
    fn slot_reuse_after_clear_ghost_records_inherits_no_link() {
        let mut p = Part::new(0, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 5);
        let w = p.add_vertex([0.; 3], NO_GEOM, 6);
        p.set_ghost(v, (4, 5));
        p.record_ghost_holder(w, (6, 7));
        p.clear_ghost_records();
        delete_keeping_links(&mut p, w);
        delete_keeping_links(&mut p, v);
        reuse_is_clean(&mut p, v);
    }

    /// What one entity's links should read, per the reference model.
    type Model = std::collections::BTreeMap<
        MeshEnt,
        (
            Vec<(PartId, u32)>,
            Option<(PartId, u32)>,
            Vec<(PartId, u32)>,
        ),
    >;

    /// Every query of the part agrees with the model.
    fn agrees(p: &Part, model: &Model) {
        let live: Vec<MeshEnt> = p.mesh.iter(Dim::Vertex).collect();
        for &v in &live {
            let (copies, src, holders) = model.get(&v).cloned().unwrap_or_default();
            assert_eq!(p.remotes_of(v), copies.as_slice(), "{v:?}");
            assert_eq!(p.is_shared(v), !copies.is_empty());
            assert_eq!(p.ghost_source(v), src);
            assert_eq!(p.ghosted_to(v), holders.as_slice());
        }
        let shared: Vec<(MeshEnt, Vec<(PartId, u32)>)> = model
            .iter()
            .filter(|(_, l)| !l.0.is_empty())
            .map(|(&e, l)| (e, l.0.clone()))
            .collect();
        let got: Vec<(MeshEnt, Vec<(PartId, u32)>)> = p
            .shared_entities()
            .into_iter()
            .map(|(e, c)| (e, c.to_vec()))
            .collect();
        assert_eq!(got, shared);
        let ghosts: Vec<MeshEnt> = model
            .iter()
            .filter(|(_, l)| l.1.is_some())
            .map(|(&e, _)| e)
            .collect();
        assert_eq!(p.ghost_entities(), ghosts);
        assert_eq!(p.num_ghosts(), ghosts.len());
        let owners: Vec<(MeshEnt, &[(PartId, u32)])> = model
            .iter()
            .filter(|(_, l)| !l.2.is_empty())
            .map(|(&e, l)| (e, l.2.as_slice()))
            .collect();
        assert_eq!(p.ghost_entities_owner_side(), owners);
        let mut boundary: Vec<MeshEnt> = p.boundary_entities().collect();
        boundary.sort_unstable();
        let want: Vec<MeshEnt> = model
            .iter()
            .filter(|(_, l)| !l.0.is_empty() || l.1.is_some())
            .map(|(&e, _)| e)
            .collect();
        assert_eq!(boundary, want);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random link edits, deletions, forgets and slot reuse on eight
        /// vertex slots, checked after every step against a `BTreeMap`.
        #[test]
        fn links_match_a_reference_model(
            ops in proptest::collection::vec((0u8..8, 0usize..8, 1u32..6, 0u32..4), 1..80)
        ) {
            let mut p = Part::new(0, 2);
            let mut model = Model::new();
            let mut gid = 0;
            let verts: Vec<MeshEnt> = (0..8)
                .map(|_| {
                    gid += 1;
                    p.add_vertex([0.; 3], NO_GEOM, gid)
                })
                .collect();
            for (op, k, a, b) in ops {
                let v = verts[k];
                if !p.mesh.is_live(v) {
                    // Reuse: the most recently freed slot comes back empty.
                    gid += 1;
                    let w = p.add_vertex([0.; 3], NO_GEOM, gid);
                    proptest::prop_assert!(verts.contains(&w), "{w:?} is a fresh slot");
                    agrees(&p, &model);
                    continue;
                }
                match op {
                    0 | 1 => {
                        // 0..=3 copies on parts 1..=5; part 0 is this one.
                        let mut copies: Vec<(PartId, u32)> =
                            (0..(a + b) % 5).map(|i| (1 + (a * 7 + i * 3) % 5, i)).collect();
                        p.set_remotes(v, copies.clone());
                        copies.sort_unstable();
                        copies.dedup();
                        model.entry(v).or_default().0 = copies;
                    }
                    2 => {
                        p.set_ghost(v, (a, b));
                        model.entry(v).or_default().1 = Some((a, b));
                    }
                    3 => {
                        p.record_ghost_holder(v, (a, b));
                        let holders = &mut model.entry(v).or_default().2;
                        if let Err(at) = holders.binary_search(&(a, b)) {
                            holders.insert(at, (a, b));
                        }
                    }
                    4 => {
                        p.delete_entity(v);
                        model.remove(&v);
                    }
                    5 => {
                        p.forget(v);
                        p.mesh.delete(v);
                        model.remove(&v);
                    }
                    6 => {
                        p.remove_ghost_record(v);
                        model.entry(v).or_default().1 = None;
                    }
                    _ => {
                        p.clear_ghost_records();
                        for l in model.values_mut() {
                            l.1 = None;
                            l.2.clear();
                        }
                    }
                }
                model.retain(|_, l| !l.0.is_empty() || l.1.is_some() || !l.2.is_empty());
                agrees(&p, &model);
            }
        }
    }
}
