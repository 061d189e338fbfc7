//! Distributed mesh adaptation (§I, §III-B): conforming refinement and
//! coarsening on a [`DistMesh`], keeping part boundaries consistent.
//!
//! There is no distributed split loop or collapse loop: every part runs
//! the sweeps serial [`crate::refine()`] and [`crate::coarsen()`] run, as a
//! `PartHost` whose hooks add the part-boundary bookkeeping described
//! below. This module keeps only what is genuinely distributed — the
//! content gids, the relink exchange, the world reductions.
//!
//! # Boundary-split protocol
//!
//! The split predicate (`length > 1.5 * h(midpoint)`, the serial sweep's
//! own) is purely geometric, and every copy of a shared edge has
//! bit-identical endpoint coordinates — so every residence part
//! *independently* marks the same shared edges for splitting, with no
//! marking communication at all. Each part then runs the split sweep
//! locally in its canonical order (longest first, ties broken by endpoint
//! coordinate bits — see [`mod@crate::refine`]'s heap), which makes the
//! interleaving of interacting splits identical on every part *and*
//! identical to a serial mesh.
//!
//! New entities get **content-derived global ids** ([`content_gid`], the
//! one rule for every entity built without a row): a hash of the sorted
//! gids of their vertices (the mid-vertex hashes its parent edge's
//! endpoints), with the top bit set to keep them disjoint from bootstrap
//! ids (serial indices `< 2^40`). Every copy of a split shared
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
//! The veto is a table, not a walk. Before a part's coarsen sweep its host
//! marks, working outward from the boundary (every entity with a remote or
//! ghost record → the elements above it → their vertices, so the cost is
//! the boundary's, not the part's), one bit per vertex: *some element
//! around this vertex has a shared or ghost entity in its closure*. The
//! sweep's question "may the cavity around `gone` be modified?" is then
//! one load. The table is exact for the whole sweep, not just its first
//! collapse: a collapse runs only where every cavity element is unmarked,
//! so nothing it deletes carried a mark to any vertex; the elements it
//! rebuilds are made of entities from that unmarked closure plus fresh
//! ones no other part knows, so they carry none either; and a collapse
//! creates no vertex, so no slot appears that the table does not cover.
//! No vertex's answer changes while the sweep runs; the unit test
//! `veto_table_is_the_closure_walk` executes that argument against the
//! walk the table replaced.
//!
//! Ghost copies are not adapted: [`adapt_dist`] strips ghost layers on
//! entry; a caller that wants them back calls
//! [`Overlap::grow`] afterwards.

use crate::coarsen::CoarsenOpts;
use crate::host::Host;
use crate::predict::{classify, element_weight, Branch, Calibration, BRANCH_TAG, WEIGHT_TAG};
use crate::sizefield::SizeField;
use pumi_core::overlap::{clear_overlap, Overlap, Reduction};
use pumi_core::wire::stitch;
use pumi_core::{content_gid, DistMesh, Part};
use pumi_field::field::Field;
use pumi_field::sync::{sync_fields, DistField};
use pumi_geom::Model;
use pumi_mesh::Mesh;
use pumi_pcu::{Comm, MsgError};
use pumi_util::tag::TagKind;
use pumi_util::{Dim, FxHashMap, GlobalId, InlineVec, MeshEnt, PartId};

/// Options for [`adapt_dist`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptOpts<'a> {
    /// Run edge-collapse coarsening after refinement (boundary-touching
    /// collapses are vetoed). `None` refines only.
    pub coarsen: Option<CoarsenOpts>,
    /// Geometric model for snapping new boundary vertices.
    pub model: Option<&'a Model>,
}

impl<'a> AdaptOpts<'a> {
    /// Refinement-only adaptation with the serial defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Coarsen after refinement, with the serial sweep's constants.
    pub fn coarsen(mut self, co: CoarsenOpts) -> Self {
        self.coarsen = Some(co);
        self
    }

    /// Snap new boundary vertices to `model`.
    pub fn model(mut self, model: &'a Model) -> Self {
        self.model = Some(model);
        self
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

/// Pending residence of entities created during the local refinement pass:
/// the parts (other than this one) that hold — or are about to hold — a
/// copy, inherited from the split parent. Filled per part, drained by the
/// relink exchange. Residence sets are a handful of part ids, held inline.
type Pending = FxHashMap<MeshEnt, InlineVec>;

/// One part as the [`Host`] of a cavity sweep: the hooks keep gids, remote
/// copies, pending residence and the optional vertex field coherent with
/// what the sweep does to `part.mesh`, and count the splits this part owns.
struct PartHost<'a> {
    part: &'a mut Part,
    field: Option<&'a mut Field>,
    pending: Pending,
    /// Splits of edges this part owns — summed over parts, the serial count.
    splits: u64,
    /// The owned splits whose edge was shared.
    boundary_splits: u64,
    /// Per vertex index: some element around the vertex has a shared or
    /// ghost entity in its closure (see "Coarsening at the boundary").
    /// Empty until [`PartHost::for_coarsening`] builds it.
    veto: Vec<bool>,
    /// Result buffer of the hooks' adjacency queries.
    ents: Vec<MeshEnt>,
    /// 3D: `(opposite vertex, residence)` of each part-boundary face
    /// around the edge being split — its children and median edge inherit
    /// it. Filled by `before_split`, drained by `after_split`.
    face_res: Vec<(u32, InlineVec)>,
}

/// What the children of a split inherit from the entities it deletes.
struct SplitInherit {
    /// Gids of the split edge's endpoints.
    end_gids: [GlobalId; 2],
    /// Residence of the split edge.
    edge_res: InlineVec,
}

impl<'a> PartHost<'a> {
    fn new(part: &'a mut Part, field: Option<&'a mut Field>) -> Self {
        PartHost {
            part,
            field,
            pending: Pending::default(),
            splits: 0,
            boundary_splits: 0,
            veto: Vec::new(),
            ents: Vec::new(),
            face_res: Vec::new(),
        }
    }

    /// The host of a coarsen sweep: [`PartHost::new`] plus the veto table,
    /// built from the boundary outward.
    fn for_coarsening(part: &'a mut Part, field: Option<&'a mut Field>) -> Self {
        let mut host = PartHost::new(part, field);
        let mesh = &host.part.mesh;
        let d_elem = mesh.elem_dim_t();
        host.veto = vec![false; mesh.index_space(Dim::Vertex)];
        for b in host.part.boundary_entities() {
            debug_assert!(mesh.is_live(b), "boundary record on dead {b:?}");
            if b.dim() == d_elem {
                host.ents.clear();
                host.ents.push(b);
            } else {
                mesh.adjacent_into(b, d_elem, &mut host.ents);
            }
            for &el in &host.ents {
                for &v in mesh.verts_of(el) {
                    host.veto[v as usize] = true;
                }
            }
        }
        host
    }

    /// Residence of `e`. An entity created earlier in this same pass is in
    /// `pending` rather than the remote lists.
    fn residence_of(&self, e: MeshEnt) -> InlineVec {
        match self.pending.get(&e) {
            Some(res) => res.clone(),
            None => self.part.remotes_of(e).iter().map(|&(p, _)| p).collect(),
        }
    }

    /// Drop every record kept under the handle `slot`.
    fn forget(&mut self, slot: MeshEnt) {
        self.pending.remove(&slot);
        self.part.forget(slot);
        if let Some(f) = self.field.as_deref_mut() {
            f.remove(slot);
        }
    }
}

/// The child entity a split just built over `verts`.
fn child(mesh: &Mesh, dim: Dim, verts: &[u32]) -> MeshEnt {
    mesh.find_entity(dim, verts)
        .expect("child entity missing after split")
}

impl Host for PartHost<'_> {
    type Inherit = SplitInherit;

    fn mesh(&self) -> &Mesh {
        &self.part.mesh
    }

    fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.part.mesh
    }

    fn before_split(&mut self, edge: MeshEnt, [a, b]: [u32; 2]) -> SplitInherit {
        let inherit = SplitInherit {
            end_gids: [a, b].map(|v| self.part.gid_of(MeshEnt::vertex(v))),
            edge_res: self.residence_of(edge),
        };
        // Doomed: the elements, (3D) the faces around the edge, the edge.
        let mut doomed = std::mem::take(&mut self.ents);
        let mesh = &self.part.mesh;
        mesh.adjacent_into(edge, mesh.elem_dim_t(), &mut doomed);
        debug_assert!(self.face_res.is_empty());
        if mesh.elem_dim() == 3 {
            for f in mesh.up(edge) {
                let res = self.residence_of(f);
                if !res.is_empty() {
                    let x = mesh
                        .verts_of(f)
                        .iter()
                        .copied()
                        .find(|&v| v != a && v != b)
                        .expect("degenerate face");
                    self.face_res.push((x, res));
                }
                doomed.push(f);
            }
        }
        doomed.push(edge);
        for &d in &doomed {
            self.forget(d);
        }
        self.ents = doomed;
        inherit
    }

    fn after_split(&mut self, inherit: SplitInherit, [a, b]: [u32; 2], m: MeshEnt) {
        let edge_res = inherit.edge_res;
        let owned = edge_res.iter().next().is_none_or(|&p| self.part.id < p);
        self.splits += u64::from(owned);
        // Content-derived gids: the mid-vertex from the parent endpoints,
        // everything else (all new entities contain the mid-vertex) from
        // its own vertices.
        let mut end_gids = inherit.end_gids;
        self.part
            .set_gid(m, content_gid(Dim::Vertex, &mut end_gids));
        for d in 1..=self.part.mesh.elem_dim() {
            self.part
                .mesh
                .adjacent_into(m, Dim::from_usize(d), &mut self.ents);
            for &e in &self.ents {
                self.part.assign_content_gid(e);
            }
        }
        // Linear interpolation of vertex field values onto the mid-vertex.
        // Both copies of a shared split average the same operands, so the
        // result is bit-identical across parts.
        if let Some(f) = self.field.as_deref_mut() {
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
        let mesh = &self.part.mesh;
        if !edge_res.is_empty() {
            self.boundary_splits += u64::from(owned);
            for half in [[a, m.index()], [m.index(), b]] {
                let he = child(mesh, Dim::Edge, &half);
                self.pending.insert(he, edge_res.clone());
            }
            self.pending.insert(m, edge_res);
        }
        for (x, res) in self.face_res.drain(..) {
            for tri in [[a, m.index(), x], [m.index(), b, x]] {
                let f = child(mesh, Dim::Face, &tri);
                self.pending.insert(f, res.clone());
            }
            let med = child(mesh, Dim::Edge, &[m.index(), x]);
            self.pending.insert(med, res);
        }
    }

    /// The boundary veto: every entity a collapse deletes or creates lies
    /// in the closure of the cavity around `gone`, so a fully interior
    /// cavity can be modified without communication — and anything else
    /// is refused. One load from the sweep's table.
    fn may_modify_cavity(&self, gone: MeshEnt) -> bool {
        !self.veto[gone.idx()]
    }

    fn after_collapse(&mut self, deleted: &[MeshEnt], created: &[MeshEnt]) {
        // Stale bookkeeping first — created entities may have reused the
        // freed slots.
        for &d in deleted {
            self.forget(d);
        }
        self.ents.clear();
        for &c in created {
            self.part.mesh.closure_into(c, &mut self.ents);
        }
        for &sub in &self.ents {
            self.part.assign_content_gid(sub);
        }
    }
}

/// Re-establish remote-copy links for the entities created by refinement:
/// each part announces its pending boundary entities to their inherited
/// residence parts through the shared [`stitch`]. The receiver derived the
/// same gids independently, so an announcement it cannot resolve means the
/// parts disagreed about a boundary split. Collective.
fn relink(comm: &Comm, dm: &mut DistMesh, pendings: &[Pending]) {
    let _span = pumi_obs::span!("adapt.relink");
    let announce: Vec<Vec<(MeshEnt, &[PartId])>> = pendings
        .iter()
        .map(|pending| {
            let mut items: Vec<(MeshEnt, &[PartId])> =
                pending.iter().map(|(&e, r)| (e, r.as_slice())).collect();
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

/// Adapt a distributed mesh to `size`: conforming edge-split refinement
/// (part boundaries split collectively via the content-gid protocol — see
/// the module docs), then optional interior edge-collapse coarsening.
/// Ghost layers are stripped on entry and not rebuilt. Collective; every
/// rank must pass the same options.
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
///     let stats = adapt_dist(c, &mut dm, &size, AdaptOpts::new());
///     assert!(stats.splits > 0);
///     pumi_check::check_dist(c, &dm, pumi_check::CheckOpts::all()).expect("valid after adapt");
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
    // Ghost copies are not adapted (they are read-only mirrors).
    clear_overlap(dm);
    let mut stats = AdaptStats::default();

    // Refinement: communication-free consistent marking, the local
    // canonical split sweep on every part, one relink round.
    {
        let _s = pumi_obs::span!("adapt.refine");
        let mut pendings: Vec<Pending> = Vec::with_capacity(dm.parts.len());
        let mut splits = 0u64;
        let mut boundary = 0u64;
        {
            let _s = pumi_obs::span!("adapt.refine.sweep");
            for (slot, part) in dm.parts.iter_mut().enumerate() {
                let mut host = PartHost::new(part, field.as_deref_mut().map(|fs| &mut fs[slot]));
                crate::refine::sweep(&mut host, size, opts.model);
                splits += host.splits;
                boundary += host.boundary_splits;
                pendings.push(host.pending);
            }
        }
        relink(comm, dm, &pendings);
        stats.splits = comm.allreduce_sum_u64(splits);
        stats.boundary_splits = comm.allreduce_sum_u64(boundary);
    }

    // Coarsening: interior-only, no communication; boundary cavities are
    // vetoed and reported.
    if opts.coarsen.is_some() {
        let _s = pumi_obs::span!("adapt.coarsen");
        let mut collapses = 0u64;
        let mut vetoed = 0u64;
        let mut fields = field.map(|fs| fs.iter_mut());
        let mut hosts: Vec<PartHost> = {
            let _s = pumi_obs::span!("adapt.coarsen.table");
            dm.parts
                .iter_mut()
                .map(|part| {
                    PartHost::for_coarsening(part, fields.as_mut().and_then(Iterator::next))
                })
                .collect()
        };
        {
            let _s = pumi_obs::span!("adapt.coarsen.sweep");
            for host in &mut hosts {
                let (c, v) = crate::coarsen::sweep(host, size);
                collapses += c.collapses as u64;
                vetoed += v as u64;
            }
        }
        stats.collapses = comm.allreduce_sum_u64(collapses);
        stats.vetoed_collapses = comm.allreduce_sum_u64(vetoed);
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
    use pumi_check::{check_dist, CheckOpts};
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
            let stats = adapt_dist(c, &mut dm, &size, AdaptOpts::new());
            assert_eq!(stats.splits as usize, rstats.splits, "split count differs");
            assert!(stats.boundary_splits > 0, "no boundary edge was split");
            assert_eq!(
                stats.elements_after as usize, rstats.elements_after,
                "element count differs from serial refinement"
            );
            for p in &dm.parts {
                p.mesh.assert_valid();
                assert!(all_positive(&p.mesh));
            }
            check_dist(c, &dm, CheckOpts::all()).expect("valid after refinement");
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
            let stats = adapt_dist(c, &mut dm, &size, AdaptOpts::new());
            assert_eq!(stats.splits as usize, rstats.splits);
            assert_eq!(stats.elements_after as usize, rstats.elements_after);
            check_dist(c, &dm, CheckOpts::all()).expect("valid after 3-D refinement");
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
            let opts = AdaptOpts::new().coarsen(CoarsenOpts::default());
            let stats = adapt_dist(c, &mut dm, &size, opts);
            assert!(stats.collapses > 0, "nothing collapsed");
            assert!(stats.vetoed_collapses > 0, "boundary veto never fired");
            assert!(stats.elements_after < before);
            for p in &dm.parts {
                p.mesh.assert_valid();
                assert!(all_positive(&p.mesh));
            }
            check_dist(c, &dm, CheckOpts::all()).expect("valid after coarsening");
        });
    }

    /// The veto as it was computed before it became a table, kept as the
    /// reference: walk the closure of every element around `gone`.
    fn closure_walk_allows(part: &Part, gone: MeshEnt) -> bool {
        let mesh = &part.mesh;
        !mesh.adjacent(gone, mesh.elem_dim_t()).iter().any(|&el| {
            mesh.closure(el)
                .into_iter()
                .any(|s| part.is_shared(s) || part.is_ghost(s))
        })
    }

    fn assert_table_is_the_walk(host: &PartHost, when: &str) {
        for v in host.part.mesh.iter(Dim::Vertex) {
            assert_eq!(
                host.may_modify_cavity(v),
                closure_walk_allows(host.part, v),
                "part {} {v:?} {when}",
                host.part.id
            );
        }
    }

    /// Refine one round (so slots have been reused), then on every part
    /// compare the table with the closure walk at every live vertex —
    /// before the coarsen sweep and, the invariance argument executed,
    /// after it. Returns the world's collapses and vetoes.
    fn table_vs_walk(c: &Comm, dm: &mut DistMesh, size: &SizeField) -> (u64, u64) {
        let stats = adapt_dist(c, dm, size, AdaptOpts::new());
        assert!(stats.boundary_splits > 0, "{stats:?}");
        let (mut collapses, mut vetoed) = (0, 0);
        for part in dm.parts.iter_mut() {
            let mut host = PartHost::for_coarsening(part, None);
            assert_table_is_the_walk(&host, "before the sweep");
            let (st, v) = crate::coarsen::sweep(&mut host, size);
            assert_table_is_the_walk(&host, "after the sweep");
            collapses += st.collapses as u64;
            vetoed += v as u64;
        }
        check_dist(c, dm, CheckOpts::all()).expect("after the sweep");
        (c.allreduce_sum_u64(collapses), c.allreduce_sum_u64(vetoed))
    }

    #[test]
    fn veto_table_is_the_closure_walk() {
        execute(2, |c| {
            let serial = tri_rect(8, 8, 1.0, 1.0);
            let labels = quadrant_labels(&serial);
            let mut dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
            let size = SizeField::shock(|p| p[0] + 0.4 * p[1] - 0.5, 0.06, 0.6, 0.05);
            let (collapses, vetoed) = table_vs_walk(c, &mut dm, &size);
            assert!(collapses > 0 && vetoed > 0, "{collapses} / {vetoed}");
            // Ghost records veto as remote copies do.
            Overlap::from_dist(&dm).grow(c, &mut dm, 1);
            for part in dm.parts.iter_mut() {
                assert!(part.num_ghosts() > 0);
                let host = PartHost::for_coarsening(part, None);
                assert_table_is_the_walk(&host, "with a ghost layer");
            }
        });
        execute(4, |c| {
            let serial = tet_box(6, 6, 6, 1.0, 1.0, 1.0);
            let d = serial.elem_dim_t();
            let mut labels = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                let x = serial.centroid(e);
                labels[e.idx()] = (0..3).map(|k| PartId::from(x[k] >= 0.5) << k).sum();
            }
            let mut dm = distribute(c, PartMap::contiguous(8, 4), &serial, &labels);
            let size = SizeField::shock(|p| p[0] + 0.4 * p[1] + 0.2 * p[2] - 0.8, 0.1, 0.8, 0.08);
            let (collapses, vetoed) = table_vs_walk(c, &mut dm, &size);
            assert!(collapses > 0 && vetoed > 0, "{collapses} / {vetoed}");
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
            let stats = adapt_dist_with_field(c, &mut dm, &size, &mut field, AdaptOpts::new());
            assert!(stats.splits > 0);
            check_dist(c, &dm, CheckOpts::all()).expect("valid after adapt");
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
            Overlap::from_dist(&dm).grow(c, &mut dm, 1);
            let size = SizeField::uniform(0.2);
            adapt_dist(c, &mut dm, &size, AdaptOpts::new());
            assert_eq!(dm.global_sum(c, |p| p.num_ghosts() as u64), 0);
            check_dist(c, &dm, CheckOpts::all()).expect("valid after adapt");
            Overlap::from_dist(&dm).grow(c, &mut dm, 1);
            let ghosts = dm.global_sum(c, |p| p.num_ghosts() as u64);
            assert!(ghosts > 0, "ghost layer not rebuilt");
            check_dist(c, &dm, CheckOpts::all()).expect("valid after regrowing ghosts");
        });
    }
}
