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
use pumi_util::ids::make_global_id;
use pumi_util::{Dim, FxHashMap, FxHashSet, GlobalId, MeshEnt, PartId};

/// No record on a slot; no list on a record.
const NONE: u32 = u32::MAX;

/// Remote copies a record holds in place; a longer list spills to the pool.
const INLINE_COPIES: usize = 2;

/// The ghost source of an entity that is not a ghost.
const NO_SOURCE: (PartId, u32) = (PartId::MAX, u32::MAX);

/// Sentinel for "no global id assigned".
pub const NO_GID: GlobalId = u64::MAX;

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

/// The copy links of one entity (§II-B): its remote copies, and its ghost
/// source or ghost holders (§II-C). 40 bytes.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// The entity, for iterating the store.
    ent: MeshEnt,
    /// Number of remote copies: in `inline` up to [`INLINE_COPIES`], in
    /// the pooled list `spill` beyond.
    ncopies: u32,
    inline: [(PartId, u32); INLINE_COPIES],
    spill: u32,
    /// (owner part, owner local index) of a ghost copy, else [`NO_SOURCE`].
    source: (PartId, u32),
    /// Pooled list of the parts holding ghost copies, or [`NONE`].
    holders: u32,
}

impl Record {
    const FREE: Record = Record {
        ent: MeshEnt(u32::MAX),
        ncopies: 0,
        inline: [(0, 0); INLINE_COPIES],
        spill: NONE,
        source: NO_SOURCE,
        holders: NONE,
    };

    /// Whether the record holds no link: a free record is one.
    fn is_empty(&self) -> bool {
        self.ncopies == 0 && self.source == NO_SOURCE && self.holders == NONE
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
    lists: Vec<Vec<(PartId, u32)>>,
    free_lists: Vec<u32>,
    /// Records with remote copies.
    nshared: usize,
    /// Records with a ghost source.
    nghosts: usize,
}

impl Links {
    fn index(&self, e: MeshEnt) -> u32 {
        let slot = &self.slot[e.dim().as_usize()];
        slot.get(e.idx()).copied().unwrap_or(NONE)
    }

    fn get(&self, e: MeshEnt) -> Option<&Record> {
        self.recs.get(self.index(e) as usize)
    }

    /// The records holding links, in store order.
    fn records(&self) -> impl Iterator<Item = &Record> + '_ {
        self.recs.iter().filter(|rec| !rec.is_empty())
    }

    fn copies<'a>(&'a self, rec: &'a Record) -> &'a [(PartId, u32)] {
        let n = rec.ncopies as usize;
        match n <= INLINE_COPIES {
            true => &rec.inline[..n],
            false => &self.lists[rec.spill as usize],
        }
    }

    fn holders<'a>(&'a self, rec: &'a Record) -> &'a [(PartId, u32)] {
        match rec.holders {
            NONE => &[],
            i => &self.lists[i as usize],
        }
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
        self.recs[r as usize].ent = e;
        let slot = &mut self.slot[e.dim().as_usize()];
        if slot.len() <= e.idx() {
            slot.resize(e.idx() + 1, NONE);
        }
        slot[e.idx()] = r;
        r as usize
    }

    /// Free record `r` if it holds no link any more.
    fn release_if_empty(&mut self, r: usize) {
        let rec = self.recs[r];
        if rec.is_empty() {
            self.slot[rec.ent.dim().as_usize()][rec.ent.idx()] = NONE;
            self.recs[r] = Record::FREE;
            self.free_recs.push(r as u32);
        }
    }

    fn new_list(&mut self, list: Vec<(PartId, u32)>) -> u32 {
        match self.free_lists.pop() {
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

    fn free_list(&mut self, i: u32) {
        if i != NONE {
            self.lists[i as usize] = Vec::new();
            self.free_lists.push(i);
        }
    }

    /// Replace the remote copies of `e` with `copies` (sorted, distinct).
    fn set_copies(&mut self, e: MeshEnt, copies: &[(PartId, u32)]) {
        if copies.is_empty() && self.index(e) == NONE {
            return;
        }
        let r = self.entry(e);
        let rec = self.recs[r];
        let spill = rec.spill;
        self.nshared += (!copies.is_empty()) as usize;
        self.nshared -= (rec.ncopies > 0) as usize;
        let rec = &mut self.recs[r];
        rec.ncopies = copies.len() as u32;
        if copies.len() <= INLINE_COPIES {
            rec.inline[..copies.len()].copy_from_slice(copies);
            rec.spill = NONE;
            self.free_list(spill);
            self.release_if_empty(r);
        } else if spill != NONE {
            let list = &mut self.lists[spill as usize];
            list.clear();
            list.extend_from_slice(copies);
        } else {
            let spill = self.new_list(copies.to_vec());
            self.recs[r].spill = spill;
        }
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
            self.release_if_empty(r as usize);
        }
    }

    /// Insert `to` into the sorted holder list of `e`, once.
    fn add_holder(&mut self, e: MeshEnt, to: (PartId, u32)) {
        let r = self.entry(e);
        let list = match self.recs[r].holders {
            NONE => {
                let i = self.new_list(Vec::new());
                self.recs[r].holders = i;
                i
            }
            i => i,
        };
        let holders = &mut self.lists[list as usize];
        if let Err(at) = holders.binary_search(&to) {
            holders.insert(at, to);
        }
    }

    /// Drop every ghost source and holder list, keeping remote copies.
    fn clear_ghosts(&mut self) {
        for r in 0..self.recs.len() {
            let rec = self.recs[r];
            if rec.source == NO_SOURCE && rec.holders == NONE {
                continue;
            }
            self.free_list(rec.holders);
            self.recs[r].source = NO_SOURCE;
            self.recs[r].holders = NONE;
            self.release_if_empty(r);
        }
        self.nghosts = 0;
    }

    /// Drop every link of `e`.
    fn drop_entity(&mut self, e: MeshEnt) {
        let r = self.index(e);
        if r == NONE {
            return;
        }
        let rec = self.recs[r as usize];
        self.nshared -= (rec.ncopies > 0) as usize;
        self.nghosts -= (rec.source != NO_SOURCE) as usize;
        self.free_list(rec.spill);
        self.free_list(rec.holders);
        self.recs[r as usize] = Record {
            ent: e,
            ..Record::FREE
        };
        self.release_if_empty(r as usize);
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
    /// Counter feeding [`Part::new_gid`].
    gid_counter: u64,
    /// Mutation log for delta checkpoints; `None` when tracking is off.
    dirty: Option<DirtyLog>,
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
            gid_counter: 0,
            dirty: None,
        }
    }

    /// A fresh global id unique across all parts: birth part `id + 1` keeps
    /// new ids disjoint from bootstrap ids (which are plain serial indices
    /// below 2^40).
    pub fn new_gid(&mut self) -> GlobalId {
        let g = make_global_id(self.id + 1, self.gid_counter);
        self.gid_counter += 1;
        g
    }

    pub(crate) fn record_gid(&mut self, e: MeshEnt, gid: GlobalId) {
        let d = e.dim().as_usize();
        if self.gids[d].len() <= e.idx() {
            self.gids[d].resize(e.idx() + 1, NO_GID);
        }
        debug_assert!(
            self.gids[d][e.idx()] == NO_GID
                || !self.mesh.is_live(e)
                || self.gids[d][e.idx()] == gid,
            "gid reassignment for {e:?}"
        );
        self.gids[d][e.idx()] = gid;
        self.gid_index[d].insert(gid, e.index());
        if let Some(log) = &mut self.dirty {
            log.touch(d, gid);
        }
    }

    /// Create a vertex with an explicit global id.
    pub fn add_vertex(&mut self, x: [f64; 3], class: GeomEnt, gid: GlobalId) -> MeshEnt {
        let v = self.mesh.add_vertex(x, class);
        self.record_gid(v, gid);
        v
    }

    /// Find-or-create an entity over local vertex indices with an explicit
    /// global id for the top entity; implicitly created intermediate
    /// entities get fresh gids from this part's counter.
    pub fn add_entity(
        &mut self,
        topo: Topology,
        verts: &[u32],
        class: GeomEnt,
        gid: GlobalId,
    ) -> MeshEnt {
        let existed =
            topo.dim() != Dim::Region && self.mesh.find_entity(topo.dim(), verts).is_some();
        let e = self.mesh.add_entity(topo, verts, class);
        if existed {
            debug_assert_eq!(self.gid_of(e), gid, "gid mismatch on find: {e:?}");
            return e;
        }
        self.record_gid(e, gid);
        // Freshly created intermediates need gids too.
        self.assign_missing_gids_in_closure(e);
        e
    }

    fn assign_missing_gids_in_closure(&mut self, e: MeshEnt) {
        if e.dim() == Dim::Vertex {
            return;
        }
        for sub in self.mesh.down_ents(e) {
            if self.gid_of(sub) == NO_GID {
                let g = self.new_gid();
                self.record_gid(sub, g);
                self.assign_missing_gids_in_closure(sub);
            }
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
        self.links.get(e).is_some_and(|rec| rec.ncopies > 0)
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

    /// Every entity with a remote-copy or ghost record, in no particular
    /// order: what the part cannot modify on its own. Distributed
    /// coarsening derives its per-sweep veto table from these; they are
    /// read off the record store, so the table costs the boundary, not the
    /// part.
    pub fn boundary_entities(&self) -> impl Iterator<Item = MeshEnt> + '_ {
        self.links
            .records()
            .filter(|rec| rec.ncopies > 0 || rec.source != NO_SOURCE)
            .map(|rec| rec.ent)
    }

    /// All shared (part-boundary) entities with their remote lists, in slot
    /// order — which is handle order, so the result is deterministic.
    pub fn shared_entities(&self) -> Vec<(MeshEnt, &[(PartId, u32)])> {
        let mut v = Vec::with_capacity(self.links.nshared);
        for d in Dim::ALL {
            for (i, &r) in self.links.slot[d.as_usize()].iter().enumerate() {
                if let Some(rec) = self.links.recs.get(r as usize) {
                    if rec.ncopies > 0 {
                        v.push((MeshEnt::new(d, i as u32), self.links.copies(rec)));
                    }
                }
            }
        }
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
    /// index) list, sorted by entity handle. Costs the holder records, not
    /// the part.
    pub fn ghost_entities_owner_side(&self) -> Vec<(MeshEnt, Vec<(PartId, u32)>)> {
        let mut v: Vec<(MeshEnt, Vec<(PartId, u32)>)> = self
            .links
            .records()
            .filter(|rec| rec.holders != NONE && self.mesh.is_live(rec.ent))
            .map(|rec| (rec.ent, self.links.holders(rec).to_vec()))
            .collect();
        v.sort_unstable_by_key(|(e, _)| *e);
        v
    }

    /// Iterate ghost entities (sorted by handle).
    pub fn ghost_entities(&self) -> Vec<MeshEnt> {
        let mut v: Vec<MeshEnt> = self
            .links
            .records()
            .filter(|rec| rec.source != NO_SOURCE)
            .map(|rec| rec.ent)
            .collect();
        v.sort_unstable();
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

    /// The current log, if tracking.
    pub fn dirty_log(&self) -> Option<&DirtyLog> {
        self.dirty.as_ref()
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

    /// The fresh-gid counter feeding [`Part::new_gid`]. Checkpointing
    /// persists it so a restored part never re-issues a gid that is already
    /// present in the file.
    pub fn gid_counter(&self) -> u64 {
        self.gid_counter
    }

    /// Raise the fresh-gid counter to at least `floor`. Checkpoint restore
    /// floors every part at the global maximum so parts that change id on
    /// load (N→M merge targets, split children) cannot collide with gids
    /// issued before the checkpoint under the same birth part.
    pub fn bump_gid_counter(&mut self, floor: u64) {
        self.gid_counter = self.gid_counter.max(floor);
    }

    /// Apply a part-id renumbering to every remote-copy list. Used when
    /// checkpoint restore renames parts (N-part file merged onto M ranks);
    /// the caller updates [`Part::id`] itself. `f` must be injective over
    /// the referenced part ids and `f(p)` must never equal the new local id.
    pub fn remap_remote_parts(&mut self, f: impl Fn(PartId) -> PartId) {
        let shared: Vec<MeshEnt> = self.shared_entities().iter().map(|&(e, _)| e).collect();
        for e in shared {
            let mapped = self.remotes_of(e).iter().map(|&(p, i)| (f(p), i)).collect();
            self.set_remotes(e, mapped);
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
    fn new_gids_disjoint_from_bootstrap() {
        let mut p = Part::new(0, 2);
        let g = p.new_gid();
        assert!(g >= (1u64 << 40), "part 0's fresh gids must exceed 2^40");
        assert_ne!(p.new_gid(), g);
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

    #[test]
    fn gid_counter_floor_keeps_fresh_gids_disjoint() {
        let mut p = Part::new(0, 2);
        let a = p.new_gid();
        let b = p.new_gid();
        assert_eq!(p.gid_counter(), 2);
        // A restored part floored at the old counter continues the sequence.
        let mut q = Part::new(0, 2);
        q.bump_gid_counter(p.gid_counter());
        let c = q.new_gid();
        assert!(c != a && c != b);
        // Flooring never lowers the counter.
        q.bump_gid_counter(0);
        assert_eq!(q.gid_counter(), 3);
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
        let owners: Vec<(MeshEnt, Vec<(PartId, u32)>)> = model
            .iter()
            .filter(|(_, l)| !l.2.is_empty())
            .map(|(&e, l)| (e, l.2.clone()))
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

    #[test]
    fn remap_remote_parts_rewrites_and_resorts() {
        let mut p = Part::new(0, 2);
        let v = p.add_vertex([0.; 3], NO_GEOM, 5);
        p.set_remotes(v, vec![(4, 9), (8, 3)]);
        // 4 -> 2, 8 -> 1: order by part id must be re-established.
        p.remap_remote_parts(|q| match q {
            4 => 2,
            8 => 1,
            other => other,
        });
        assert_eq!(p.remotes_of(v), &[(1, 3), (2, 9)]);
    }
}
