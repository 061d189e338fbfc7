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
    /// Remote copies of part-boundary entities: (remote part, remote local
    /// index). Sorted by part id. Ghost copies are *not* listed here.
    remotes: FxHashMap<MeshEnt, Vec<(PartId, u32)>>,
    /// Entities that are read-only ghost copies on this part, mapped to
    /// their (owner part, owner local index).
    ghosts: FxHashMap<MeshEnt, (PartId, u32)>,
    /// Owner-side record of which parts hold ghost copies of an entity.
    ghosted_to: FxHashMap<MeshEnt, Vec<(PartId, u32)>>,
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
            remotes: FxHashMap::default(),
            ghosts: FxHashMap::default(),
            ghosted_to: FxHashMap::default(),
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
        self.remotes.remove(&e);
        self.ghosts.remove(&e);
        self.ghosted_to.remove(&e);
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
        debug_assert!(copies.iter().all(|&(p, _)| p != self.id));
        if copies.is_empty() {
            self.remotes.remove(&e);
        } else {
            self.remotes.insert(e, copies);
        }
    }

    /// The remote copies of `e`: (part, remote local index), sorted by part.
    pub fn remotes_of(&self, e: MeshEnt) -> &[(PartId, u32)] {
        self.remotes.get(&e).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Whether `e` lies on a part boundary (has remote copies).
    #[inline]
    pub fn is_shared(&self, e: MeshEnt) -> bool {
        self.remotes.contains_key(&e)
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
        if let Some(&(p, _)) = self.ghosts.get(&e) {
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
    /// order and without the sort [`Part::shared_entities`] pays: what the
    /// part cannot modify on its own. Distributed coarsening derives its
    /// per-sweep veto table from these, so the table costs the boundary,
    /// not the part.
    pub fn boundary_entities(&self) -> impl Iterator<Item = MeshEnt> + '_ {
        self.remotes
            .keys()
            .chain(self.ghosts.keys().filter(|e| !self.remotes.contains_key(e)))
            .copied()
    }

    /// Iterate all shared (part-boundary) entities with their remote lists,
    /// sorted by handle for determinism.
    pub fn shared_entities(&self) -> Vec<(MeshEnt, &[(PartId, u32)])> {
        let mut v: Vec<_> = self
            .remotes
            .iter()
            .map(|(&e, r)| (e, r.as_slice()))
            .collect();
        v.sort_by_key(|(e, _)| *e);
        v
    }

    // ------------------------------------------------------------------
    // Ghosts (§II-C)
    // ------------------------------------------------------------------

    /// Mark `e` as a ghost copy of `(owner part, owner local index)`.
    pub fn set_ghost(&mut self, e: MeshEnt, src: (PartId, u32)) {
        self.ghosts.insert(e, src);
        self.mark_dirty(e);
    }

    /// Whether `e` is a read-only ghost copy on this part.
    #[inline]
    pub fn is_ghost(&self, e: MeshEnt) -> bool {
        self.ghosts.contains_key(&e)
    }

    /// The ghost's source (owner part, owner local index).
    pub fn ghost_source(&self, e: MeshEnt) -> Option<(PartId, u32)> {
        self.ghosts.get(&e).copied()
    }

    /// Owner side: record that `to` holds a ghost copy of `e`. The holder
    /// list stays sorted so its order is independent of ack arrival order.
    /// Idempotent — recording the same holder twice keeps one entry.
    pub fn record_ghost_holder(&mut self, e: MeshEnt, to: (PartId, u32)) {
        let v = self.ghosted_to.entry(e).or_default();
        if let Err(at) = v.binary_search(&to) {
            v.insert(at, to);
        }
    }

    /// Owner side: the parts holding ghost copies of `e`.
    pub fn ghosted_to(&self, e: MeshEnt) -> &[(PartId, u32)] {
        self.ghosted_to.get(&e).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Owner-side view of ghost holders: entity → (holder part, holder-local
    /// index) list, sorted by entity handle. Costs the holder records, not
    /// the part.
    pub fn ghost_entities_owner_side(&self) -> Vec<(MeshEnt, Vec<(PartId, u32)>)> {
        let mut v: Vec<(MeshEnt, Vec<(PartId, u32)>)> = self
            .ghosted_to
            .iter()
            .filter(|&(&e, holders)| !holders.is_empty() && self.mesh.is_live(e))
            .map(|(&e, holders)| (e, holders.clone()))
            .collect();
        v.sort_unstable_by_key(|(e, _)| *e);
        v
    }

    /// Iterate ghost entities (sorted by handle).
    pub fn ghost_entities(&self) -> Vec<MeshEnt> {
        let mut v: Vec<MeshEnt> = self.ghosts.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of ghost copies on this part.
    pub fn num_ghosts(&self) -> usize {
        self.ghosts.len()
    }

    /// Remove all ghost bookkeeping (entities must be deleted separately by
    /// the ghosting module, which knows the deletion order).
    pub fn clear_ghost_records(&mut self) {
        self.ghosts.clear();
        self.ghosted_to.clear();
    }

    /// Remove one ghost record.
    pub fn remove_ghost_record(&mut self, e: MeshEnt) {
        if self.ghosts.remove(&e).is_some() {
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
        self.remotes.remove(&e);
        self.ghosts.remove(&e);
        self.ghosted_to.remove(&e);
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
        let old = std::mem::take(&mut self.remotes);
        for (e, copies) in old {
            let mapped: Vec<(PartId, u32)> = copies.into_iter().map(|(p, i)| (f(p), i)).collect();
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
            self.id,
            self.mesh,
            self.remotes.len(),
            self.ghosts.len()
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
