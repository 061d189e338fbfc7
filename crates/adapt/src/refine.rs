//! Size-driven edge-split refinement.
//!
//! The refinement primitive is the conforming edge split: splitting an edge
//! bisects *every* element adjacent to it, so the mesh stays conforming
//! after each operation — no closure templates needed. Oversized edges are
//! processed longest-first from a lazy priority queue until every edge
//! satisfies the size field (the standard bisection-refinement driver).
//!
//! Children inherit their parent's classification and tag data (so
//! partition labels stored in tags survive adaptation — exactly what the
//! Fig 13 experiment needs: adapt first, observe the inherited partition's
//! imbalance).

use crate::host::Host;
use crate::quality::measure;
use crate::sizefield::SizeField;
use crate::snap::snap_to_model;
use pumi_geom::Model;
use pumi_mesh::Mesh;
use pumi_util::{Dim, MeshEnt, TagStash};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The argument [`refine`] takes. It has no fields: the split ratio is the
/// constant `SPLIT_RATIO`, which serial refinement and
/// [`crate::dist::adapt_dist`] both read. The type stays so that callers
/// naming `RefineOpts::default()` keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefineOpts {}

/// Split an edge when `length > SPLIT_RATIO * h(midpoint)`.
const SPLIT_RATIO: f64 = 1.5;

/// Statistics from a [`refine`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Edge splits performed.
    pub splits: usize,
    /// Elements in the mesh afterwards.
    pub elements_after: usize,
}

struct HeapItem {
    len: f64,
    key: [u64; 6],
    edge: MeshEnt,
    verts: [u32; 2],
}

impl HeapItem {
    /// Build a heap item for `edge`. The tie-break key is derived from the
    /// endpoint *coordinates* (bit patterns, lexicographically sorted), not
    /// from entity handles — so two parts holding copies of the same
    /// geometric edge, or a serial mesh and a distributed one, order equal-
    /// length edges identically. That canonical order is what makes
    /// distributed refinement reproduce the serial bisection mesh bit for
    /// bit (see `dist.rs`).
    fn new(mesh: &Mesh, edge: MeshEnt, len: f64) -> Self {
        let verts = mesh.verts_of(edge);
        let a = mesh.coords(MeshEnt::vertex(verts[0]));
        let b = mesh.coords(MeshEnt::vertex(verts[1]));
        let ka = [a[0].to_bits(), a[1].to_bits(), a[2].to_bits()];
        let kb = [b[0].to_bits(), b[1].to_bits(), b[2].to_bits()];
        let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
        HeapItem {
            len,
            key: [lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]],
            edge,
            verts: [verts[0], verts[1]],
        }
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.key == other.key
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Longest first; ties broken by the content key (smaller key pops
        // first out of the max-heap).
        self.len
            .partial_cmp(&other.len)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.key.cmp(&self.key))
    }
}

pub(crate) fn edge_length(mesh: &Mesh, verts: &[u32]) -> f64 {
    let a = mesh.coords(MeshEnt::vertex(verts[0]));
    let b = mesh.coords(MeshEnt::vertex(verts[1]));
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
}

pub(crate) fn midpoint(mesh: &Mesh, verts: &[u32]) -> [f64; 3] {
    let a = mesh.coords(MeshEnt::vertex(verts[0]));
    let b = mesh.coords(MeshEnt::vertex(verts[1]));
    [
        0.5 * (a[0] + b[0]),
        0.5 * (a[1] + b[1]),
        0.5 * (a[2] + b[2]),
    ]
}

/// What a cavity operation remembers of an entity it deletes, for the
/// entities built in its place. The tags of the `k`-th remembered entity
/// are row `k` of the operation's [`TagStash`].
#[derive(Clone, Copy)]
pub(crate) struct Old {
    /// The vertex list by value; the first `topo.num_verts()` count.
    verts: [u32; 8],
    pub(crate) topo: pumi_mesh::Topology,
    pub(crate) class: pumi_geom::GeomEnt,
}

impl Old {
    pub(crate) fn of(mesh: &Mesh, e: MeshEnt) -> Old {
        let src = mesh.verts_of(e);
        let mut verts = [0; 8];
        verts[..src.len()].copy_from_slice(src);
        Old {
            verts,
            topo: mesh.topo(e),
            class: mesh.class_of(e),
        }
    }

    pub(crate) fn verts(&self) -> &[u32] {
        &self.verts[..self.topo.num_verts()]
    }

    /// The same entity with vertex `from` replaced by `to`.
    pub(crate) fn with_vertex(mut self, from: u32, to: u32) -> Old {
        let n = self.topo.num_verts();
        for v in self.verts[..n].iter_mut().filter(|v| **v == from) {
            *v = to;
        }
        self
    }
}

/// Buffers a run of [`split_edge_in`] calls shares, so that a split
/// allocates nothing once they have grown to the largest cavity.
#[derive(Default)]
pub(crate) struct SplitScratch {
    /// Handles being deleted, or the result of an adjacency query.
    ents: Vec<MeshEnt>,
    /// The cavity's elements.
    elems: Vec<Old>,
    /// 3D: the faces around the split edge.
    faces: Vec<Old>,
    /// Tags of `elems`, row for row.
    tags: TagStash,
}

/// Split one edge, bisecting every adjacent element. Returns the new vertex.
/// `model` enables boundary snapping of the new vertex.
pub fn split_edge(mesh: &mut Mesh, edge: MeshEnt, model: Option<&Model>) -> MeshEnt {
    split_edge_in(mesh, edge, model, &mut SplitScratch::default())
}

/// [`split_edge`] on the caller's buffers.
pub(crate) fn split_edge_in(
    mesh: &mut Mesh,
    edge: MeshEnt,
    model: Option<&Model>,
    scratch: &mut SplitScratch,
) -> MeshEnt {
    debug_assert_eq!(edge.dim(), Dim::Edge);
    let SplitScratch {
        ents,
        elems,
        faces,
        tags,
    } = scratch;
    let elem_dim = mesh.elem_dim();
    let [a, b] = [mesh.verts_of(edge)[0], mesh.verts_of(edge)[1]];
    let class = mesh.class_of(edge);

    // Record the cavity, then delete it top-down: elements, then (3D) the
    // faces containing the edge, then the edge itself.
    mesh.adjacent_into(edge, mesh.elem_dim_t(), ents);
    debug_assert!(!ents.is_empty(), "split of orphan edge");
    elems.clear();
    tags.clear();
    for &e in ents.iter() {
        elems.push(Old::of(mesh, e));
        mesh.tags().save(e, tags);
    }
    for &e in ents.iter() {
        mesh.delete(e);
    }
    // Faces containing the edge (3D): their children and median edges must
    // inherit their classification (a split boundary face stays boundary).
    faces.clear();
    if elem_dim == 3 {
        ents.clear();
        ents.extend(mesh.up(edge));
        for &f in ents.iter() {
            faces.push(Old::of(mesh, f));
            mesh.delete(f);
        }
    }
    mesh.delete(edge);

    // New vertex at the (snapped) midpoint, classified like the edge was.
    let mut p = midpoint(mesh, &[a, b]);
    if let Some(model) = model {
        p = snap_to_model(model, class, elem_dim, p);
    }
    let m = mesh.add_vertex(p, class);

    // Two children per cavity element: a→m and b→m.
    for (row, old) in elems.iter().enumerate() {
        for replace in [a, b] {
            let new = old.with_vertex(replace, m.index());
            let child = mesh.add_entity(new.topo, new.verts(), new.class);
            mesh.tags_mut().restore(tags, row, child);
        }
    }
    // Restore classification of the bisected lower entities: implicit
    // find-or-create gave them the element's class, but entities lying
    // inside an old entity inherit *that* entity's class.
    // The two half edges lie inside the split edge:
    for half in [[a, m.index()], [m.index(), b]] {
        if let Some(e) = mesh.find_entity(Dim::Edge, &half) {
            mesh.set_class(e, class);
        }
    }
    // Child faces and median edges lie inside the split faces (3D):
    for old in faces.iter() {
        for replace in [a, b] {
            let child = old.with_vertex(replace, m.index());
            if let Some(f) = mesh.find_entity(Dim::Face, child.verts()) {
                mesh.set_class(f, old.class);
            }
        }
        for &x in old.verts().iter().filter(|&&v| v != a && v != b) {
            if let Some(e) = mesh.find_entity(Dim::Edge, &[m.index(), x]) {
                mesh.set_class(e, old.class);
            }
        }
    }
    m
}

/// Length of `verts` if the edge is oversized w.r.t. `size` (the split
/// predicate). Purely geometric, so every copy of a shared edge evaluates
/// it identically — the basis for communication-free consistent marking in
/// distributed refinement.
fn oversized_len(mesh: &Mesh, verts: &[u32], size: &SizeField) -> Option<f64> {
    let len = edge_length(mesh, verts);
    let h = size.at(midpoint(mesh, verts));
    (len > SPLIT_RATIO * h).then_some(len)
}

/// The one refinement sweep ([`refine`] on whatever owns the mesh): split
/// oversized edges longest-first from a lazy priority queue until every
/// edge satisfies `size`. Returns the number of splits performed on this
/// mesh.
pub(crate) fn sweep<H: Host>(host: &mut H, size: &SizeField, model: Option<&Model>) -> usize {
    let mesh = host.mesh();
    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
    for e in mesh.snapshot(Dim::Edge) {
        if let Some(len) = oversized_len(mesh, mesh.verts_of(e), size) {
            heap.push(HeapItem::new(mesh, e, len));
        }
    }
    let mut splits = 0usize;
    let mut scratch = SplitScratch::default();
    let mut around = Vec::new();
    while let Some(item) = heap.pop() {
        let mesh = host.mesh();
        // Lazy validation: the slot may have been reused.
        if !mesh.is_live(item.edge) {
            continue;
        }
        let verts = mesh.verts_of(item.edge);
        let ends = [verts[0], verts[1]];
        if ends != item.verts && [ends[1], ends[0]] != item.verts {
            continue;
        }
        if oversized_len(mesh, &ends, size).is_none() {
            continue;
        }
        let inherit = host.before_split(item.edge, ends);
        let m = split_edge_in(host.mesh_mut(), item.edge, model, &mut scratch);
        splits += 1;
        host.after_split(inherit, ends, m);
        // New candidates: every edge at the new vertex.
        let mesh = host.mesh();
        mesh.adjacent_into(m, Dim::Edge, &mut around);
        for &e in &around {
            if let Some(len) = oversized_len(mesh, mesh.verts_of(e), size) {
                heap.push(HeapItem::new(mesh, e, len));
            }
        }
    }
    splits
}

/// Refine until every edge satisfies the size field. Returns statistics.
///
/// # Examples
///
/// ```
/// use pumi_adapt::{refine, RefineOpts, SizeField};
///
/// let mut mesh = pumi_meshgen::tri_rect(2, 2, 1.0, 1.0);
/// let stats = refine(&mut mesh, &SizeField::uniform(0.2), None, RefineOpts::default());
/// assert!(stats.splits > 0);
/// assert_eq!(stats.elements_after, mesh.num_elems());
/// ```
pub fn refine(
    mesh: &mut Mesh,
    size: &SizeField,
    model: Option<&Model>,
    _opts: RefineOpts,
) -> RefineStats {
    RefineStats {
        splits: sweep(mesh, size, model),
        elements_after: mesh.num_elems(),
    }
}

/// Check that every element of `mesh` has positive measure (no inversions) —
/// refinement must preserve this.
pub fn all_positive(mesh: &Mesh) -> bool {
    mesh.elems().all(|e| measure(mesh, e).abs() > 1e-14)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_geom::builders::{vessel, VesselSpec};
    use pumi_meshgen::{tet_box, tri_rect, vessel_tet};
    use pumi_util::tag::TagKind;

    #[test]
    fn split_one_edge_of_a_triangle_pair() {
        let mut m = tri_rect(1, 1, 1.0, 1.0);
        assert_eq!(m.num_elems(), 2);
        // The diagonal is interior: splitting it bisects both triangles.
        let diag = m.iter(Dim::Edge).find(|&e| !m.is_boundary_side(e)).unwrap();
        let v = split_edge(&mut m, diag, None);
        assert_eq!(m.num_elems(), 4);
        assert_eq!(m.count(Dim::Vertex), 5);
        m.assert_valid();
        assert!(all_positive(&m));
        let p = m.coords(v);
        assert!((p[0] - 0.5).abs() < 1e-12 && (p[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn split_boundary_edge() {
        let mut m = tri_rect(1, 1, 1.0, 1.0);
        let bnd = m.iter(Dim::Edge).find(|&e| m.is_boundary_side(e)).unwrap();
        split_edge(&mut m, bnd, None);
        assert_eq!(m.num_elems(), 3);
        m.assert_valid();
        assert!(all_positive(&m));
    }

    #[test]
    fn uniform_refinement_reaches_size() {
        let mut m = tri_rect(2, 2, 1.0, 1.0);
        let size = SizeField::uniform(0.2);
        let stats = refine(&mut m, &size, None, RefineOpts::default());
        assert!(stats.splits > 0);
        m.assert_valid();
        assert!(all_positive(&m));
        // No remaining oversized edge.
        for e in m.iter(Dim::Edge) {
            let verts = m.verts_of(e);
            let len = edge_length(&m, verts);
            let h = size.at(midpoint(&m, verts));
            assert!(len <= 1.5 * h + 1e-12, "edge len {len} > 1.5*{h}");
        }
    }

    #[test]
    fn refinement_3d_valid() {
        let mut m = tet_box(2, 2, 2, 1.0, 1.0, 1.0);
        let before = m.num_elems();
        let size = SizeField::uniform(0.3);
        let stats = refine(&mut m, &size, None, RefineOpts::default());
        assert!(stats.elements_after > before);
        m.assert_valid();
        assert!(all_positive(&m));
    }

    #[test]
    fn shock_refinement_is_localized() {
        let mut m = tri_rect(4, 4, 1.0, 1.0);
        let size = SizeField::shock(|p| p[1] - 0.5, 0.03, 0.5, 0.05);
        refine(&mut m, &size, None, RefineOpts::default());
        m.assert_valid();
        // Elements concentrate near the shock line: the band of height 0.2
        // around it (1/5 of the domain) holds the majority of elements.
        let mut near = 0usize;
        let mut far = 0usize;
        for e in m.elems() {
            let c = m.centroid(e);
            if (c[1] - 0.5).abs() < 0.1 {
                near += 1;
            } else if (c[1] - 0.5).abs() > 0.3 {
                far += 1;
            }
        }
        assert!(
            near > 2 * far,
            "refinement not localized: near={near} far={far}"
        );
    }

    #[test]
    fn split_children_keep_boundary_classification() {
        // Splitting a boundary edge must leave both halves classified on
        // the model edge (regression: implicit creation once gave them the
        // element's interior class, which later let coarsening collapse
        // chords and cut area off the domain).
        let mut m = tri_rect(2, 2, 1.0, 1.0);
        let bnd = m.iter(Dim::Edge).find(|&e| m.is_boundary_side(e)).unwrap();
        let bnd_class = m.class_of(bnd);
        assert_eq!(bnd_class.dim(), Dim::Edge);
        let mid = split_edge(&mut m, bnd, None);
        for e in m.adjacent(mid, Dim::Edge) {
            let other_boundary = m.is_boundary_side(e);
            if other_boundary {
                assert_eq!(m.class_of(e), bnd_class, "half edge lost its class");
            } else {
                assert_eq!(
                    m.class_of(e).dim(),
                    Dim::Face,
                    "median edge must be interior"
                );
            }
        }
        // In 3D: child faces of a split boundary face stay on the wall.
        let mut m3 = pumi_meshgen::tet_box(2, 2, 2, 1.0, 1.0, 1.0);
        let bf = m3
            .iter(Dim::Face)
            .find(|&f| m3.is_boundary_side(f))
            .unwrap();
        let fclass = m3.class_of(bf);
        let edge_on_bf = m3.down_ents(bf)[0];
        let eclass = m3.class_of(edge_on_bf);
        let mid = split_edge(&mut m3, edge_on_bf, None);
        assert_eq!(m3.class_of(mid), eclass);
        let mut checked = 0;
        for f in m3.adjacent(mid, Dim::Face) {
            if m3.is_boundary_side(f) {
                assert_eq!(m3.class_of(f).dim(), Dim::Face, "boundary child face");
                checked += 1;
            }
        }
        assert!(checked > 0);
        let _ = fclass;
        m3.assert_valid();
    }

    #[test]
    fn tags_inherited_by_children() {
        let mut m = tri_rect(1, 1, 1.0, 1.0);
        let tid = m.tags_mut().declare("part", TagKind::Int, 1);
        for (i, e) in m.snapshot(Dim::Face).into_iter().enumerate() {
            m.tags_mut().set_int(tid, e, i as i64);
        }
        let size = SizeField::uniform(0.3);
        refine(&mut m, &size, None, RefineOpts::default());
        for e in m.elems() {
            assert!(
                m.tags().get_int(tid, e).is_some(),
                "child lost its part tag"
            );
        }
    }

    #[test]
    fn boundary_snapping_keeps_wall_vertices_on_geometry() {
        let spec = VesselSpec::aaa();
        let model = vessel(spec);
        let mut m = vessel_tet(spec, 3, 5);
        let size = SizeField::uniform(0.6);
        refine(&mut m, &size, Some(&model), RefineOpts::default());
        m.assert_valid();
        let wall = pumi_geom::GeomEnt::new(Dim::Face, 1);
        let mut checked = 0;
        for v in m.iter_classified(Dim::Vertex, wall) {
            let p = m.coords(v);
            let r = (p[0] * p[0] + p[1] * p[1]).sqrt();
            assert!(
                (r - spec.radius_at(p[2])).abs() < 1e-6,
                "wall vertex off geometry after refinement"
            );
            checked += 1;
        }
        assert!(checked > 0);
    }
}
