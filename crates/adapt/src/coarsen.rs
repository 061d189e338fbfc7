//! Size-driven edge-collapse coarsening.
//!
//! The inverse of refinement: edges much shorter than the size field
//! collapse, welding one endpoint onto the other and re-connecting the
//! surrounding elements. A collapse is executed only if it is provably
//! safe: the vanishing vertex may leave its geometry class
//! ([`crate::snap::collapse_allowed`]), and every re-connected element must
//! keep a positive measure and distinct vertices.

use crate::host::Host;
use crate::quality::{mean_ratio_coords, tet_volume, tri_area};
use crate::refine::{edge_length, midpoint, Old};
use crate::sizefield::SizeField;
use crate::snap::collapse_allowed;
use pumi_mesh::Mesh;
use pumi_util::{Dim, MeshEnt, TagStash};

/// The argument [`coarsen`] and [`crate::dist::AdaptOpts::coarsen`] take.
/// It has no fields: the sweep reads the constants below. The type stays so
/// that callers naming `CoarsenOpts::default()` keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoarsenOpts {}

/// Collapse an edge when `length < COLLAPSE_RATIO * h(midpoint)`. The load
/// predictor's coarsening band ([`crate::predict`]) reads it too.
pub(crate) const COLLAPSE_RATIO: f64 = 0.5;
/// Passes over the mesh (collapses enable further collapses).
const PASSES: usize = 3;
/// Minimum mean-ratio quality a re-connected element may have.
const MIN_QUALITY: f64 = 0.05;

/// Statistics from a [`coarsen`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoarsenStats {
    /// Edges collapsed.
    pub collapses: usize,
    /// Collapse attempts rejected by validity checks.
    pub rejected: usize,
    /// Elements afterwards.
    pub elements_after: usize,
}

fn signed_measure(coords: &[[f64; 3]]) -> f64 {
    match coords.len() {
        3 => tri_area(coords),
        4 => tet_volume(coords),
        _ => 0.0,
    }
}

/// Buffers a sweep's [`try_collapse`] calls share, so that an attempt
/// allocates nothing once they have grown to the largest cavity.
#[derive(Default)]
pub(crate) struct CollapseScratch {
    /// Every element touching the vanishing vertex.
    cavity: Vec<MeshEnt>,
    /// The elements on the collapsing edge, which vanish with it.
    dying: Vec<MeshEnt>,
    /// The surviving elements, re-connected to the kept vertex.
    rebuilt: Vec<Old>,
    /// Tags of `rebuilt`, row for row.
    tags: TagStash,
    /// The cavity's closure.
    closure: Vec<MeshEnt>,
}

/// Try to collapse `edge`, welding vertex `gone` onto vertex `kept`.
/// Returns false (mesh and both lists untouched) if any safety check fails;
/// otherwise appends every deleted handle to `deleted` and every rebuilt
/// element to `created`.
///
/// A host that keeps records per handle (a distributed part's gids and
/// remote copies) needs the lists to stay coherent: records under `deleted`
/// handles must be forgotten *before* new gids are assigned (created
/// entities may reuse the freed slots), and handles in `created` (plus
/// their closure) are the ones that need fresh gids. Handles in `deleted`
/// may already be re-occupied by the time this returns — they identify
/// *slots* whose old bookkeeping is stale, not live entities.
pub(crate) fn try_collapse(
    mesh: &mut Mesh,
    edge: MeshEnt,
    kept: u32,
    gone: u32,
    scratch: &mut CollapseScratch,
    deleted: &mut Vec<MeshEnt>,
    created: &mut Vec<MeshEnt>,
) -> bool {
    let CollapseScratch {
        cavity,
        dying,
        rebuilt,
        tags,
        closure,
    } = scratch;
    let elem_dim = mesh.elem_dim();
    let d_elem = mesh.elem_dim_t();
    let vg = MeshEnt::vertex(gone);
    // Geometry rule: the vanishing vertex may only slide along its own
    // model entity — the collapse edge must classify on it.
    if !collapse_allowed(mesh.class_of(vg), mesh.class_of(edge), elem_dim) {
        return false;
    }
    mesh.adjacent_into(vg, d_elem, cavity);
    mesh.adjacent_into(edge, d_elem, dying);
    // Validate survivors: replace gone→kept, check measure sign and
    // distinctness.
    rebuilt.clear();
    tags.clear();
    for &e in cavity.iter() {
        if dying.contains(&e) {
            continue;
        }
        let old = Old::of(mesh, e);
        if old.verts().contains(&kept) {
            return false; // degenerate (kept already present)
        }
        let new = old.with_vertex(gone, kept);
        let n = new.verts().len();
        let mut old_coords = [[0.0; 3]; 8];
        let mut new_coords = [[0.0; 3]; 8];
        for k in 0..n {
            old_coords[k] = mesh.coords(MeshEnt::vertex(old.verts()[k]));
            new_coords[k] = mesh.coords(MeshEnt::vertex(new.verts()[k]));
        }
        let old_m = signed_measure(&old_coords[..n]);
        let new_m = signed_measure(&new_coords[..n]);
        if new_m * old_m <= 0.0 || new_m.abs() < 1e-14 {
            return false; // would invert or degenerate
        }
        if mean_ratio_coords(&new_coords[..n]).abs() < MIN_QUALITY {
            return false; // would create a sliver
        }
        rebuilt.push(new);
        mesh.tags().save(e, tags);
    }
    if rebuilt.is_empty() {
        // The collapse would erase the whole patch (tiny mesh) — reject.
        return false;
    }
    // Record the cavity closure before deleting (sorted: by dimension, then
    // index), then delete elements and sweep orphans top-down.
    closure.clear();
    for &e in cavity.iter() {
        mesh.closure_into(e, closure);
    }
    closure.sort_unstable();
    closure.dedup();
    for &e in cavity.iter() {
        mesh.delete(e);
        deleted.push(e);
    }
    for d in (0..elem_dim).rev() {
        for &s in closure.iter().filter(|s| s.dim().as_usize() == d) {
            if !mesh.is_live(s) || mesh.up_count(s) > 0 {
                continue;
            }
            // Vertices the rebuilt elements still need are transiently
            // orphaned between deletion and re-creation: not cleaned up.
            if d == 0 && rebuilt.iter().any(|ne| ne.verts().contains(&s.index())) {
                continue;
            }
            mesh.delete(s);
            deleted.push(s);
        }
    }
    debug_assert!(!mesh.is_live(vg), "gone vertex survived cavity deletion");
    for (row, ne) in rebuilt.iter().enumerate() {
        let child = mesh.add_entity(ne.topo, ne.verts(), ne.class);
        mesh.tags_mut().restore(tags, row, child);
        created.push(child);
    }
    true
}

/// The one coarsening sweep ([`coarsen`] on whatever owns the mesh).
/// Returns the statistics of this mesh and the number of short edges left
/// alone because the host refused their cavity
/// ([`Host::may_modify_cavity`]) — those are not counted as rejected.
pub(crate) fn sweep<H: Host>(host: &mut H, size: &SizeField) -> (CoarsenStats, usize) {
    let mut stats = CoarsenStats::default();
    let mut vetoed = 0usize;
    let (mut deleted, mut created) = (Vec::new(), Vec::new());
    let mut scratch = CollapseScratch::default();
    for _ in 0..PASSES {
        let mut collapsed_this_pass = 0usize;
        for e in host.mesh().snapshot(Dim::Edge) {
            let mesh = host.mesh();
            if !mesh.is_live(e) {
                continue;
            }
            let verts = mesh.verts_of(e);
            let verts = [verts[0], verts[1]];
            if edge_length(mesh, &verts) >= COLLAPSE_RATIO * size.at(midpoint(mesh, &verts)) {
                continue;
            }
            // Prefer to remove the more-interior vertex.
            let (c0, c1) = (
                mesh.class_of(MeshEnt::vertex(verts[0])),
                mesh.class_of(MeshEnt::vertex(verts[1])),
            );
            let order = if c0.dim() >= c1.dim() {
                [(verts[1], verts[0]), (verts[0], verts[1])]
            } else {
                [(verts[0], verts[1]), (verts[1], verts[0])]
            };
            let mut done = false;
            let mut saw_veto = false;
            for (kept, gone) in order {
                if !host.may_modify_cavity(MeshEnt::vertex(gone)) {
                    saw_veto = true;
                    continue;
                }
                if try_collapse(
                    host.mesh_mut(),
                    e,
                    kept,
                    gone,
                    &mut scratch,
                    &mut deleted,
                    &mut created,
                ) {
                    host.after_collapse(&deleted, &created);
                    deleted.clear();
                    created.clear();
                    done = true;
                    break;
                }
            }
            if done {
                stats.collapses += 1;
                collapsed_this_pass += 1;
            } else if saw_veto {
                vetoed += 1;
            } else {
                stats.rejected += 1;
            }
        }
        if collapsed_this_pass == 0 {
            break;
        }
    }
    stats.elements_after = host.mesh().num_elems();
    (stats, vetoed)
}

/// Collapse every edge shorter than the size field allows, in `PASSES`
/// sweeps. Prefers welding the vertex with the higher-dimension (more
/// interior) classification, which keeps boundary geometry intact.
///
/// # Examples
///
/// ```
/// use pumi_adapt::{coarsen, CoarsenOpts, SizeField};
///
/// let mut mesh = pumi_meshgen::tri_rect(4, 4, 1.0, 1.0);
/// let before = mesh.num_elems();
/// let stats = coarsen(&mut mesh, &SizeField::uniform(0.8), CoarsenOpts::default());
/// assert!(stats.collapses > 0);
/// assert!(mesh.num_elems() < before);
/// ```
pub fn coarsen(mesh: &mut Mesh, size: &SizeField, _opts: CoarsenOpts) -> CoarsenStats {
    sweep(mesh, size).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::{all_positive, refine, RefineOpts};
    use pumi_meshgen::{tet_box, tri_rect};

    #[test]
    fn coarsen_reverses_refinement_pressure() {
        let mut m = tri_rect(2, 2, 1.0, 1.0);
        // Refine to h=0.15, then coarsen back toward h=0.6.
        refine(
            &mut m,
            &SizeField::uniform(0.15),
            None,
            RefineOpts::default(),
        );
        let fine = m.num_elems();
        let stats = coarsen(&mut m, &SizeField::uniform(0.8), CoarsenOpts::default());
        assert!(stats.collapses > 0, "nothing collapsed");
        assert!(m.num_elems() < fine, "element count not reduced");
        m.assert_valid();
        assert!(all_positive(&m));
    }

    #[test]
    fn boundary_vertices_survive_coarsening() {
        let mut m = tri_rect(4, 4, 1.0, 1.0);
        coarsen(&mut m, &SizeField::uniform(3.0), CoarsenOpts::default());
        m.assert_valid();
        // The four corners are classified on model vertices and must remain.
        let corners = m.count_classified(Dim::Vertex, Dim::Vertex);
        assert_eq!(corners, 4);
        assert!(all_positive(&m));
    }

    #[test]
    fn coarsen_3d_stays_valid() {
        let mut m = tet_box(3, 3, 3, 1.0, 1.0, 1.0);
        let before = m.num_elems();
        let stats = coarsen(&mut m, &SizeField::uniform(2.0), CoarsenOpts::default());
        m.assert_valid();
        assert!(all_positive(&m));
        assert!(stats.elements_after <= before);
    }

    #[test]
    fn no_collapse_when_sizes_match() {
        let mut m = tri_rect(4, 4, 1.0, 1.0);
        let before = m.num_elems();
        let stats = coarsen(&mut m, &SizeField::uniform(0.25), CoarsenOpts::default());
        assert_eq!(stats.collapses, 0);
        assert_eq!(m.num_elems(), before);
    }
}
