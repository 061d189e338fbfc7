//! Distributed mesh adaptation (§I, §III-B): conforming refinement and
//! coarsening on a [`DistMesh`], keeping part boundaries consistent.
//!
//! # Boundary-split protocol
//!
//! The split predicate (`length > split_ratio * h(midpoint)`) is purely
//! geometric, and every copy of a shared edge has bit-identical endpoint
//! coordinates — so every residence part *independently* marks the same
//! shared edges for splitting, with no marking communication at all. Each
//! part then runs the split loop locally in a canonical order (longest
//! first, ties broken by endpoint coordinate bits — see
//! [`mod@crate::refine`]'s heap), which makes the interleaving of interacting
//! splits identical on every part *and* identical to the serial driver.
//!
//! New entities get **content-derived global ids**: a hash of the sorted
//! gids of their vertices (the mid-vertex hashes its parent edge's
//! endpoints), with the top bit set to keep them disjoint from bootstrap
//! ids (serial indices `< 2^40`) and migration-era ids
//! ([`Part::new_gid`]'s birth-part counters). Every copy of a split shared
//! edge therefore derives the *same* gid for the mid-vertex and half-edges
//! without being told — the owner's decision is reproduced rather than
//! transmitted. One [`stitch`] round then relinks remote-copy local indices
//! by gid, the same exchange `distribute` bootstraps with: each part
//! announces `(dim, gid, local index)` of its new boundary entities to the
//! inherited residence set, and a failed gid lookup on the receiver is a
//! protocol violation (diverged splits) that panics with the offending
//! entity.
//!
//! # Coarsening at the boundary
//!
//! Edge collapses whose cavity (the elements around the vanishing vertex)
//! touches the part boundary are **vetoed** — the collapse would delete or
//! create shared entities, which cannot be done unilaterally. Interior
//! collapses proceed with no communication; the veto count is reported in
//! [`AdaptStats`]. Refinement runs first, so boundary regions still honor
//! the size field's refinement demand.
//!
//! Ghost copies are not adapted: [`adapt_dist`] strips ghost layers on
//! entry and rebuilds them on request (`AdaptOpts::reghost`).

use crate::coarsen::{try_collapse_collect, CoarsenOpts};
use crate::predict::{classify, element_weight, Branch, Calibration, BRANCH_TAG, WEIGHT_TAG};
use crate::refine::{oversized_len, split_edge, HeapItem};
use crate::sizefield::SizeField;
use pumi_check::CheckOpts;
use pumi_core::overlap::{clear_overlap, grow_overlap, GhostOpts, Overlap, Reduction};
use pumi_core::wire::stitch;
use pumi_core::{DistMesh, Part, NO_GID};
use pumi_field::field::Field;
use pumi_field::sync::{sync_fields, DistField};
use pumi_geom::Model;
use pumi_pcu::{Comm, MsgError};
use pumi_util::tag::TagKind;
use pumi_util::{Dim, FxHashMap, GlobalId, MeshEnt, PartId};
use std::collections::BinaryHeap;

/// Options for [`adapt_dist`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptOpts<'a> {
    /// Split an edge when `length > split_ratio * h(midpoint)`; `0.0`
    /// selects the serial default ([`crate::RefineOpts`]).
    pub split_ratio: f64,
    /// Run edge-collapse coarsening after refinement (boundary-touching
    /// collapses are vetoed). `None` refines only.
    pub coarsen: Option<CoarsenOpts>,
    /// Geometric model for snapping new boundary vertices.
    pub model: Option<&'a Model>,
    /// Run `pumi_check::check_dist` after each phase (collective; panics on
    /// the first violated invariant, naming the entity).
    pub check: Option<CheckOpts>,
    /// Re-grow a ghost overlap after adapting.
    pub reghost: Option<GhostOpts>,
}

impl<'a> AdaptOpts<'a> {
    /// Refinement-only adaptation with the serial defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the refinement split ratio.
    pub fn split_ratio(mut self, r: f64) -> Self {
        self.split_ratio = r;
        self
    }

    /// Enable coarsening with the given options.
    pub fn coarsen(mut self, co: CoarsenOpts) -> Self {
        self.coarsen = Some(co);
        self
    }

    /// Snap new boundary vertices to `model`.
    pub fn model(mut self, model: &'a Model) -> Self {
        self.model = Some(model);
        self
    }

    /// Verify distributed invariants after every phase.
    pub fn check(mut self, opts: CheckOpts) -> Self {
        self.check = Some(opts);
        self
    }

    /// Re-grow a ghost overlap after adapting.
    pub fn reghost(mut self, opts: GhostOpts) -> Self {
        self.reghost = Some(opts);
        self
    }

    fn effective_split_ratio(&self) -> f64 {
        if self.split_ratio > 0.0 {
            self.split_ratio
        } else {
            crate::RefineOpts::default().split_ratio
        }
    }
}

/// Statistics from one [`adapt_dist`] round (world-global).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptStats {
    /// Edge splits, each counted once by the split edge's owner — equals
    /// the serial driver's count for the same mesh and size field.
    pub splits: u64,
    /// Splits of part-boundary (shared) edges, counted by the owner.
    pub boundary_splits: u64,
    /// Edge collapses performed.
    pub collapses: u64,
    /// Collapse opportunities vetoed because the cavity touched a part
    /// boundary.
    pub vetoed_collapses: u64,
    /// Elements in the distributed mesh afterwards.
    pub elements_after: u64,
}

/// Stamp every element of every local part with its *calibrated* predicted
/// post-adaptation weight for `size` (the [`WEIGHT_TAG`] Real tag ParMA's
/// weighted improve balances) and its prediction [`Branch`] (the
/// [`BRANCH_TAG`] Int tag). Both tags ride migration, so after ParMA has
/// diffused the speculative partition, [`gather_branch_loads`] can still
/// attribute each part's predicted load to the branch that produced it.
/// Local; call before the balance step of each round.
pub fn stamp_weights(dm: &mut DistMesh, size: &SizeField, cal: &Calibration) {
    for part in dm.parts.iter_mut() {
        let d_elem = part.mesh.elem_dim_t();
        let rows: Vec<(MeshEnt, f64, Branch)> = part
            .mesh
            .iter(d_elem)
            .map(|e| {
                let b = classify(&part.mesh, e, size);
                (e, element_weight(&part.mesh, e, size) * cal.factor(b), b)
            })
            .collect();
        let tags = part.mesh.tags_mut();
        let wtid = tags.declare(WEIGHT_TAG, TagKind::Double, 1);
        let btid = tags.declare(BRANCH_TAG, TagKind::Int, 1);
        for (e, w, b) in rows {
            tags.set_dbl(wtid, e, w);
            tags.set_int(btid, e, b as i64);
        }
    }
}

/// Per-part predicted load split by [`Branch`]: for every part, the sum of
/// its elements' [`WEIGHT_TAG`] weights grouped by their [`BRANCH_TAG`]
/// (missing tags count as weight 1 in the keep branch, matching
/// `EntityLoads::gather_weighted`'s convention). World-global result,
/// indexed by part id. Collective; run between the balance step and
/// [`adapt_dist`] so the sums describe the partition adaptation will act
/// on.
pub fn gather_branch_loads(comm: &Comm, dm: &DistMesh) -> Vec<[f64; 3]> {
    let nparts = dm.map.nparts();
    let mut flat = vec![0f64; 3 * nparts];
    for p in &dm.parts {
        let tags = p.mesh.tags();
        let wtid = tags.find(WEIGHT_TAG);
        let btid = tags.find(BRANCH_TAG);
        for e in p.mesh.elems() {
            let w = wtid.and_then(|t| tags.get_dbl(t, e)).unwrap_or(1.0);
            let b = btid
                .and_then(|t| tags.get_int(t, e))
                .map_or(Branch::Keep, |i| Branch::from_index(i.max(0) as usize));
            flat[b as usize * nparts + p.id as usize] += w;
        }
    }
    let flat = comm.allreduce_sum_f64_vec(&flat);
    (0..nparts)
        .map(|p| [flat[p], flat[nparts + p], flat[2 * nparts + p]])
        .collect()
}

/// A deterministic, partition-invariant global id for an entity derived
/// from the sorted gids of its vertices (FNV-1a, top bit set). Every part
/// holding a copy of the same new entity computes the same id, so boundary
/// splits need no gid communication; serial and distributed adaptation of
/// the same mesh produce identical ids (and thus identical `struct_hash`).
fn content_gid(dim: Dim, mut vgids: Vec<GlobalId>) -> GlobalId {
    vgids.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    eat(dim.as_usize() as u8);
    for g in vgids {
        for b in g.to_le_bytes() {
            eat(b);
        }
    }
    // Top bit marks content-derived ids (bootstrap serial indices stay
    // below 2^40 and birth-part counter ids keep it clear for any sane
    // part count); the cleared low bit dodges the NO_GID sentinel.
    (h | 1 << 63) & !1
}

/// Pending residence of entities created during the local refinement pass:
/// the parts (other than this one) that hold — or are about to hold — a
/// copy, inherited from the split parent. Filled per part, drained by the
/// relink exchange.
type Pending = FxHashMap<MeshEnt, Vec<PartId>>;

fn residence_of(part: &Part, pending: &Pending, e: MeshEnt) -> Vec<PartId> {
    pending
        .get(&e)
        .cloned()
        .unwrap_or_else(|| part.copy_parts(e))
}

/// The local refinement pass of one part. Returns
/// `(owned splits, owned boundary splits)`.
fn refine_part(
    part: &mut Part,
    size: &SizeField,
    model: Option<&Model>,
    split_ratio: f64,
    pending: &mut Pending,
    mut field: Option<&mut Field>,
) -> (u64, u64) {
    let elem_dim = part.mesh.elem_dim();
    let d_elem = part.mesh.elem_dim_t();
    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
    for e in part.mesh.snapshot(Dim::Edge) {
        if let Some(len) = oversized_len(&part.mesh, part.mesh.verts_of(e), size, split_ratio) {
            heap.push(HeapItem::new(&part.mesh, e, len));
        }
    }
    let mut splits = 0u64;
    let mut boundary_splits = 0u64;
    while let Some(item) = heap.pop() {
        // Lazy validation as in the serial driver: slots may be reused.
        if !part.mesh.is_live(item.edge) {
            continue;
        }
        let edge = item.edge;
        let [a, b] = {
            let verts = part.mesh.verts_of(edge);
            if [verts[0], verts[1]] != item.verts && [verts[1], verts[0]] != item.verts {
                continue;
            }
            [verts[0], verts[1]]
        };
        if oversized_len(&part.mesh, &[a, b], size, split_ratio).is_none() {
            continue;
        }
        let (ga, gb) = (
            part.gid_of(MeshEnt::vertex(a)),
            part.gid_of(MeshEnt::vertex(b)),
        );
        // Residence the new entities inherit. An entity created earlier in
        // this same pass is in `pending` rather than the remote lists.
        let edge_res = residence_of(part, pending, edge);
        // 3D: faces around the edge that live on a part boundary — their
        // children and median edge inherit the face's residence.
        let mut face_res: Vec<(u32, Vec<PartId>)> = Vec::new();
        if elem_dim == 3 {
            for f in part.mesh.up_ents(edge) {
                let res = residence_of(part, pending, f);
                if res.is_empty() {
                    continue;
                }
                let x = part
                    .mesh
                    .verts_of(f)
                    .iter()
                    .copied()
                    .find(|&v| v != a && v != b)
                    .expect("degenerate face");
                face_res.push((x, res));
            }
        }
        // Forget doomed bookkeeping (gids, remotes, pending rows) *before*
        // the cavity operation can reuse the freed slots.
        let mut doomed: Vec<MeshEnt> = part.mesh.adjacent(edge, d_elem);
        if elem_dim == 3 {
            doomed.extend(part.mesh.up_ents(edge));
        }
        doomed.push(edge);
        for d in doomed {
            pending.remove(&d);
            part.forget(d);
            if let Some(f) = field.as_deref_mut() {
                f.remove(d);
            }
        }

        let m = split_edge(&mut part.mesh, edge, model);
        splits += u64::from(edge_res.is_empty() || part.id < edge_res[0]);

        // Content-derived gids: the mid-vertex from the parent endpoints,
        // everything else (all new entities contain the mid-vertex) from
        // its own vertices.
        part.set_gid(m, content_gid(Dim::Vertex, vec![ga, gb]));
        for d in 1..=elem_dim {
            let dim = Dim::from_usize(d);
            for e in part.mesh.adjacent(m, dim) {
                if part.gid_of(e) == NO_GID {
                    let vg: Vec<GlobalId> = part
                        .mesh
                        .verts_of(e)
                        .iter()
                        .map(|&v| part.gid_of(MeshEnt::vertex(v)))
                        .collect();
                    part.set_gid(e, content_gid(dim, vg));
                }
            }
        }
        // Linear interpolation of vertex field values onto the mid-vertex.
        // Both copies of a shared split average the same operands, so the
        // result is bit-identical across parts.
        if let Some(f) = field.as_deref_mut() {
            let avg: Option<Vec<f64>> = match (
                f.get(MeshEnt::vertex(a)).map(<[f64]>::to_vec),
                f.get(MeshEnt::vertex(b)),
            ) {
                (Some(va), Some(vb)) => {
                    Some(va.iter().zip(vb).map(|(x, y)| 0.5 * (x + y)).collect())
                }
                _ => None,
            };
            if let Some(avg) = avg {
                f.set(m, &avg);
            }
        }
        // Residence inheritance: new boundary entities go to `pending` for
        // the relink round (their remote indices are not yet known).
        if !edge_res.is_empty() {
            if part.id < edge_res[0] {
                boundary_splits += 1;
            }
            pending.insert(m, edge_res.clone());
            for half in [[a, m.index()], [m.index(), b]] {
                let he = part
                    .mesh
                    .find_entity(Dim::Edge, &half)
                    .expect("half edge missing after split");
                pending.insert(he, edge_res.clone());
            }
        }
        for (x, res) in face_res {
            for tri in [[a, m.index(), x], [m.index(), b, x]] {
                let f = part
                    .mesh
                    .find_entity(Dim::Face, &tri)
                    .expect("child face missing after split");
                pending.insert(f, res.clone());
            }
            let med = part
                .mesh
                .find_entity(Dim::Edge, &[m.index(), x])
                .expect("median edge missing after split");
            pending.insert(med, res);
        }
        // New candidates: every edge at the new vertex.
        for e in part.mesh.adjacent(m, Dim::Edge) {
            if let Some(len) = oversized_len(&part.mesh, part.mesh.verts_of(e), size, split_ratio) {
                heap.push(HeapItem::new(&part.mesh, e, len));
            }
        }
    }
    (splits, boundary_splits)
}

/// Re-establish remote-copy links for the entities created by refinement:
/// each part announces its pending boundary entities to their inherited
/// residence parts through the shared [`stitch`]. The receiver derived the
/// same gids independently, so an announcement it cannot resolve means the
/// parts disagreed about a boundary split. Collective.
fn relink(comm: &Comm, dm: &mut DistMesh, pendings: &[Pending]) {
    let _span = pumi_obs::span!("adapt.relink");
    let announce: Vec<Vec<(MeshEnt, &Vec<PartId>)>> = pendings
        .iter()
        .map(|pending| {
            let mut items: Vec<(MeshEnt, &Vec<PartId>)> =
                pending.iter().map(|(&e, r)| (e, r)).collect();
            items.sort_by_key(|&(e, _)| e);
            items
        })
        .collect();
    if let Some((from, to, err)) = stitch(comm, dm, &announce).into_iter().next() {
        match err {
            MsgError::Missing { dim, gid, .. } => panic!(
                "adapt_dist: part {to} has no copy of split entity {:?} gid {gid:#x} \
                 announced by part {from} — boundary splits diverged",
                Dim::from_usize(dim as usize)
            ),
            err => panic!("corrupt relink frame {from}->{to}: {err}"),
        }
    }
}

/// The local coarsening pass of one part. Returns `(collapses, vetoes)`.
fn coarsen_part(
    part: &mut Part,
    size: &SizeField,
    co: CoarsenOpts,
    mut field: Option<&mut Field>,
) -> (u64, u64) {
    let d_elem = part.mesh.elem_dim_t();
    let mut collapses = 0u64;
    let mut vetoed = 0u64;
    for _ in 0..co.passes {
        let mut collapsed_this_pass = 0usize;
        for e in part.mesh.snapshot(Dim::Edge) {
            if !part.mesh.is_live(e) {
                continue;
            }
            let verts = part.mesh.verts_of(e).to_vec();
            let pa = part.mesh.coords(MeshEnt::vertex(verts[0]));
            let pb = part.mesh.coords(MeshEnt::vertex(verts[1]));
            let len = ((pa[0] - pb[0]).powi(2) + (pa[1] - pb[1]).powi(2) + (pa[2] - pb[2]).powi(2))
                .sqrt();
            let mid = [
                0.5 * (pa[0] + pb[0]),
                0.5 * (pa[1] + pb[1]),
                0.5 * (pa[2] + pb[2]),
            ];
            if len >= co.collapse_ratio * size.at(mid) {
                continue;
            }
            // Prefer to remove the more-interior vertex, as in the serial
            // driver.
            let (c0, c1) = (
                part.mesh.class_of(MeshEnt::vertex(verts[0])),
                part.mesh.class_of(MeshEnt::vertex(verts[1])),
            );
            let order = if c0.dim() >= c1.dim() {
                [(verts[1], verts[0]), (verts[0], verts[1])]
            } else {
                [(verts[0], verts[1]), (verts[1], verts[0])]
            };
            let mut done = false;
            let mut saw_veto = false;
            for (kept, gone) in order {
                // Distributed safety: every deleted or created entity lies
                // in the closure of the cavity around `gone`, so a fully
                // interior cavity can be modified without communication —
                // and anything else is vetoed.
                let cavity = part.mesh.adjacent(MeshEnt::vertex(gone), d_elem);
                if cavity.iter().any(|&el| part.closure_touches_boundary(el)) {
                    saw_veto = true;
                    continue;
                }
                let (mut deleted, mut created) = (Vec::new(), Vec::new());
                if try_collapse_collect(
                    &mut part.mesh,
                    e,
                    kept,
                    gone,
                    co.min_quality,
                    &mut deleted,
                    &mut created,
                ) {
                    // Stale bookkeeping first — created entities may have
                    // reused the freed slots.
                    for d in deleted {
                        part.forget(d);
                        if let Some(f) = field.as_deref_mut() {
                            f.remove(d);
                        }
                    }
                    for c in created {
                        for sub in part.mesh.closure(c) {
                            if part.gid_of(sub) == NO_GID {
                                let vg: Vec<GlobalId> = part
                                    .mesh
                                    .verts_of(sub)
                                    .iter()
                                    .map(|&v| part.gid_of(MeshEnt::vertex(v)))
                                    .collect();
                                part.set_gid(sub, content_gid(sub.dim(), vg));
                            }
                        }
                    }
                    done = true;
                    break;
                }
            }
            if done {
                collapses += 1;
                collapsed_this_pass += 1;
            } else if saw_veto {
                vetoed += 1;
            }
        }
        if collapsed_this_pass == 0 {
            break;
        }
    }
    (collapses, vetoed)
}

/// Adapt a distributed mesh to `size`: conforming edge-split refinement
/// (part boundaries split collectively via the content-gid protocol — see
/// the module docs), then optional interior edge-collapse coarsening, then
/// optional ghost-layer rebuild. Collective; every rank must pass the same
/// options.
///
/// Partition invariance: for the same initial mesh and size field, the
/// refined distributed mesh is entity-for-entity identical to the serial
/// [`crate::refine()`] result (same gids, coordinates, classification), so
/// `pumi_io::struct_hash` matches across any part count.
///
/// # Examples
///
/// ```
/// use pumi_adapt::dist::{adapt_dist, AdaptOpts};
/// use pumi_adapt::SizeField;
/// use pumi_core::{distribute, PartMap};
/// use pumi_util::PartId;
///
/// pumi_pcu::execute(2, |c| {
///     let serial = pumi_meshgen::tri_rect(4, 4, 1.0, 1.0);
///     let d = serial.elem_dim_t();
///     let mut labels = vec![0 as PartId; serial.index_space(d)];
///     for e in serial.iter(d) {
///         labels[e.idx()] = (serial.centroid(e)[0] * 2.0).floor().min(1.0) as PartId;
///     }
///     let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
///     let size = SizeField::uniform(0.15);
///     let opts = AdaptOpts::new().check(pumi_check::CheckOpts::all());
///     let stats = adapt_dist(c, &mut dm, &size, opts);
///     assert!(stats.splits > 0);
/// });
/// ```
pub fn adapt_dist(comm: &Comm, dm: &mut DistMesh, size: &SizeField, opts: AdaptOpts) -> AdaptStats {
    adapt_inner(comm, dm, size, None, opts)
}

/// [`adapt_dist`] carrying a vertex field through the adaptation:
/// mid-vertices of split edges get the linear interpolation of their
/// parent endpoints (bit-identical on every copy of a shared edge), and
/// values on deleted vertices are dropped. Ends with an owner-to-copies
/// sync over the relinked boundary. Collective.
pub fn adapt_dist_with_field(
    comm: &Comm,
    dm: &mut DistMesh,
    size: &SizeField,
    field: &mut DistField,
    opts: AdaptOpts,
) -> AdaptStats {
    assert_eq!(field.len(), dm.parts.len(), "field not aligned with parts");
    let stats = adapt_inner(comm, dm, size, Some(field), opts);
    let ov = Overlap::from_dist(dm);
    sync_fields(comm, dm, &ov, field, Reduction::Insert);
    stats
}

fn adapt_inner(
    comm: &Comm,
    dm: &mut DistMesh,
    size: &SizeField,
    mut field: Option<&mut DistField>,
    opts: AdaptOpts,
) -> AdaptStats {
    let _span = pumi_obs::span!("adapt.dist");
    // Ghost copies are not adapted (they are read-only mirrors); strip
    // them and rebuild on request below.
    clear_overlap(dm);
    let split_ratio = opts.effective_split_ratio();
    let mut stats = AdaptStats::default();

    // Refinement: communication-free consistent marking, local canonical
    // split loops, one relink round.
    {
        let _s = pumi_obs::span!("adapt.refine");
        let mut pendings: Vec<Pending> = Vec::with_capacity(dm.parts.len());
        let mut splits = 0u64;
        let mut boundary = 0u64;
        for (slot, part) in dm.parts.iter_mut().enumerate() {
            let mut pending = Pending::default();
            let f = field.as_deref_mut().map(|fs| &mut fs[slot]);
            let (s, b) = refine_part(part, size, opts.model, split_ratio, &mut pending, f);
            splits += s;
            boundary += b;
            pendings.push(pending);
        }
        relink(comm, dm, &pendings);
        stats.splits = comm.allreduce_sum_u64(splits);
        stats.boundary_splits = comm.allreduce_sum_u64(boundary);
    }
    if let Some(co) = opts.check {
        pumi_check::check_dist(comm, dm, co)
            .unwrap_or_else(|e| panic!("adapt_dist: invariants violated after refinement: {e}"));
    }

    // Coarsening: interior-only, no communication; boundary cavities are
    // vetoed and reported.
    if let Some(co) = opts.coarsen {
        let _s = pumi_obs::span!("adapt.coarsen");
        let mut collapses = 0u64;
        let mut vetoed = 0u64;
        for (slot, part) in dm.parts.iter_mut().enumerate() {
            let f = field.as_deref_mut().map(|fs| &mut fs[slot]);
            let (c, v) = coarsen_part(part, size, co, f);
            collapses += c;
            vetoed += v;
        }
        stats.collapses = comm.allreduce_sum_u64(collapses);
        stats.vetoed_collapses = comm.allreduce_sum_u64(vetoed);
        if let Some(c) = opts.check {
            pumi_check::check_dist(comm, dm, c).unwrap_or_else(|e| {
                panic!("adapt_dist: invariants violated after coarsening: {e}")
            });
        }
    }

    if let Some(gopts) = opts.reghost {
        grow_overlap(comm, dm, gopts);
        if let Some(c) = opts.check {
            pumi_check::check_dist(comm, dm, c).unwrap_or_else(|e| {
                panic!("adapt_dist: invariants violated after reghosting: {e}")
            });
        }
    }

    stats.elements_after = dm.global_sum(comm, |p| {
        p.mesh.elems().filter(|&e| !p.is_ghost(e)).count() as u64
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::all_positive;
    use pumi_core::{distribute, PartMap};
    use pumi_meshgen::{tet_box, tri_rect};
    use pumi_pcu::execute;

    fn quadrant_labels(serial: &pumi_mesh::Mesh) -> Vec<PartId> {
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            let c = serial.centroid(e);
            let px = u32::from(c[0] >= 0.5);
            let py = u32::from(c[1] >= 0.5);
            labels[e.idx()] = py * 2 + px;
        }
        labels
    }

    #[test]
    fn distributed_refinement_matches_serial_counts() {
        execute(2, |c| {
            let serial = tri_rect(4, 4, 1.0, 1.0);
            let size = SizeField::uniform(0.15);
            // Serial reference (mesh generation is deterministic).
            let mut reference = tri_rect(4, 4, 1.0, 1.0);
            let rstats = crate::refine(&mut reference, &size, None, crate::RefineOpts::default());
            let labels = quadrant_labels(&serial);
            let mut dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
            let stats = adapt_dist(
                c,
                &mut dm,
                &size,
                AdaptOpts::new().check(pumi_check::CheckOpts::all()),
            );
            assert_eq!(stats.splits as usize, rstats.splits, "split count differs");
            assert!(stats.boundary_splits > 0, "no boundary edge was split");
            assert_eq!(
                stats.elements_after as usize, rstats.elements_after,
                "element count differs from serial refinement"
            );
            for p in &dm.parts {
                p.mesh.assert_valid();
                assert!(all_positive(&p.mesh));
                assert!(pumi_core::dist::check_gids(p).is_empty());
            }
            pumi_core::verify::assert_dist_valid(c, &dm);
        });
    }

    #[test]
    fn distributed_refinement_3d_with_shared_faces() {
        execute(2, |c| {
            let serial = tet_box(2, 2, 2, 1.0, 1.0, 1.0);
            let size = SizeField::uniform(0.45);
            let mut reference = tet_box(2, 2, 2, 1.0, 1.0, 1.0);
            let rstats = crate::refine(&mut reference, &size, None, crate::RefineOpts::default());
            let labels = quadrant_labels(&serial);
            let mut dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
            let stats = adapt_dist(
                c,
                &mut dm,
                &size,
                AdaptOpts::new().check(pumi_check::CheckOpts::all()),
            );
            assert_eq!(stats.splits as usize, rstats.splits);
            assert_eq!(stats.elements_after as usize, rstats.elements_after);
            pumi_core::verify::assert_dist_valid(c, &dm);
        });
    }

    #[test]
    fn coarsening_is_interior_only_and_checked() {
        execute(2, |c| {
            let serial = tri_rect(8, 8, 1.0, 1.0);
            let labels = quadrant_labels(&serial);
            let mut dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
            let before = dm.global_sum(c, |p| p.mesh.num_elems() as u64);
            // Coarsen hard: target much larger than the lattice spacing.
            let size = SizeField::uniform(0.6);
            let opts = AdaptOpts::new()
                .coarsen(CoarsenOpts::default())
                .check(pumi_check::CheckOpts::all());
            let stats = adapt_dist(c, &mut dm, &size, opts);
            assert!(stats.collapses > 0, "nothing collapsed");
            assert!(stats.vetoed_collapses > 0, "boundary veto never fired");
            assert!(stats.elements_after < before);
            for p in &dm.parts {
                p.mesh.assert_valid();
                assert!(all_positive(&p.mesh));
            }
            pumi_core::verify::assert_dist_valid(c, &dm);
        });
    }

    #[test]
    fn adapt_with_field_interpolates_and_stays_synced() {
        execute(2, |c| {
            let serial = tri_rect(4, 4, 1.0, 1.0);
            let labels = quadrant_labels(&serial);
            let mut dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
            let template = Field::new("temp", pumi_field::field::FieldShape::Linear, 1);
            let mut field = pumi_field::sync::dist_field(&dm, &template);
            for (f, p) in field.iter_mut().zip(&dm.parts) {
                let mesh = &p.mesh;
                f.set_from(mesh, |x| vec![x[0] + 2.0 * x[1]]);
            }
            let size = SizeField::uniform(0.15);
            let opts = AdaptOpts::new().check(pumi_check::CheckOpts::all());
            let stats = adapt_dist_with_field(c, &mut dm, &size, &mut field, opts);
            assert!(stats.splits > 0);
            // The field stayed linear: interpolation reproduces x + 2y at
            // every (new) vertex, and copies agree bit-for-bit.
            for (f, p) in field.iter().zip(&dm.parts) {
                for v in p.mesh.iter(Dim::Vertex) {
                    let x = p.mesh.coords(v);
                    let got = f.get_scalar(v).expect("vertex lost its field value");
                    assert!(
                        (got - (x[0] + 2.0 * x[1])).abs() < 1e-12,
                        "interpolated value off: {got}"
                    );
                }
            }
            pumi_check::check_field_sync(c, &dm, &field).expect("copies out of sync");
        });
    }

    #[test]
    fn reghost_after_adapt() {
        execute(2, |c| {
            let serial = tri_rect(4, 4, 1.0, 1.0);
            let labels = quadrant_labels(&serial);
            let mut dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
            grow_overlap(c, &mut dm, GhostOpts::new());
            let size = SizeField::uniform(0.2);
            let opts = AdaptOpts::new()
                .check(pumi_check::CheckOpts::all())
                .reghost(GhostOpts::new());
            adapt_dist(c, &mut dm, &size, opts);
            let ghosts = dm.global_sum(c, |p| p.num_ghosts() as u64);
            assert!(ghosts > 0, "ghost layer not rebuilt");
            pumi_core::verify::assert_dist_valid(c, &dm);
        });
    }
}
