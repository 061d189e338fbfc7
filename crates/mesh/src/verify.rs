//! Mesh validity checking.
//!
//! Every structural invariant of the complete representation is checkable;
//! tests and the distributed stack call [`Mesh::verify`] after each
//! modification phase (generation, adaptation, migration) so corruption is
//! caught at its source rather than three algorithms later.

use crate::mesh::{Mesh, NO_GEOM};
use pumi_util::{Dim, MeshEnt};

impl Mesh {
    /// Check structural invariants; returns the list of violations (empty
    /// means valid):
    ///
    /// 1. every live non-vertex entity has live downward entities,
    /// 2. up/down adjacency is reciprocal,
    /// 3. no two live entities of one dimension share a vertex set
    ///    ([`Mesh::find_entity`] returns each entity itself),
    /// 4. sides bound at most 2 elements (manifoldness),
    /// 5. element vertex lists have no duplicates.
    pub fn verify(&self) -> Vec<String> {
        let mut errs = Vec::new();
        for d in 1..=3usize {
            let dim = Dim::from_usize(d);
            for e in self.iter(dim) {
                // 5. vertex list sane
                let vs = self.verts_of(e);
                let mut sorted = vs.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != vs.len() {
                    errs.push(format!("{e:?} has duplicate vertices {vs:?}"));
                }
                for &v in vs {
                    if !self.is_live(MeshEnt::vertex(v)) {
                        errs.push(format!("{e:?} references dead vertex {v}"));
                    }
                }
                // 3. the entity found from its vertices is this one.
                match self.find_entity(dim, vs) {
                    Some(found) if found == e => {}
                    other => errs.push(format!("{e:?} not found from its vertices: {other:?}")),
                }
                // 1 & 2. downs live and reciprocal.
                for sub in self.down_ents(e) {
                    if !self.is_live(sub) {
                        errs.push(format!("{e:?} has dead down {sub:?}"));
                        continue;
                    }
                    if !self.up_ents(sub).contains(&e) {
                        errs.push(format!("{sub:?} missing up-link to {e:?}"));
                    }
                }
            }
        }
        // 2 (other direction): every up-link points at a live entity that
        // lists us among its downs.
        for d in 0..3usize {
            let dim = Dim::from_usize(d);
            for e in self.iter(dim) {
                for u in self.up_ents(e) {
                    if !self.is_live(u) {
                        errs.push(format!("{e:?} has dead up {u:?}"));
                    } else if d > 0 && !self.down_ents(u).contains(&e) {
                        errs.push(format!("{u:?} missing down-link to {e:?}"));
                    }
                }
            }
        }
        // 4. manifold sides.
        let side_dim = Dim::from_usize(self.elem_dim() - 1);
        for s in self.iter(side_dim) {
            let n = self.up_count(s);
            if n > 2 {
                errs.push(format!("side {s:?} bounds {n} elements (non-manifold)"));
            }
        }
        errs
    }

    /// Panic with a readable report if [`Mesh::verify`] finds violations.
    pub fn assert_valid(&self) {
        let errs = self.verify();
        assert!(
            errs.is_empty(),
            "mesh invalid ({} violations):\n  {}",
            errs.len(),
            errs.join("\n  ")
        );
    }

    /// Count entities classified on no model entity (diagnostics).
    pub fn count_unclassified(&self) -> usize {
        Dim::ALL
            .iter()
            .map(|&d| {
                self.iter(d)
                    .filter(|&e| self.class_of(e) == NO_GEOM)
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::mesh::{Mesh, NO_GEOM};
    use crate::topology::Topology;
    use pumi_util::Dim;

    fn tet_pair() -> Mesh {
        let mut m = Mesh::new(3);
        let v: Vec<u32> = [
            [0., 0., 0.],
            [1., 0., 0.],
            [0., 1., 0.],
            [0., 0., 1.],
            [1., 1., 1.],
        ]
        .iter()
        .map(|&x| m.add_vertex(x, NO_GEOM).index())
        .collect();
        m.add_element(Topology::Tet, &[v[0], v[1], v[2], v[3]], NO_GEOM);
        m.add_element(Topology::Tet, &[v[1], v[2], v[3], v[4]], NO_GEOM);
        m
    }

    #[test]
    fn valid_mesh_passes() {
        let m = tet_pair();
        assert!(m.verify().is_empty());
        m.assert_valid();
    }

    #[test]
    fn deletion_keeps_validity() {
        let mut m = tet_pair();
        let t: Vec<_> = m.elems().collect();
        m.delete_with_orphans(t[1]);
        m.assert_valid();
        assert_eq!(m.count(Dim::Region), 1);
        assert_eq!(m.count(Dim::Face), 4);
        assert_eq!(m.count(Dim::Edge), 6);
        assert_eq!(m.count(Dim::Vertex), 4);
    }

    #[test]
    fn delete_and_recreate_reuses_slots() {
        let mut m = tet_pair();
        let before = m.index_space(Dim::Region);
        let t: Vec<_> = m.elems().collect();
        m.delete(t[0]);
        // Recreate the same tet: faces still exist, so find-or-create reuses
        // them; the region slot comes from the free list.
        let verts = [0u32, 1, 2, 3];
        m.add_element(Topology::Tet, &verts, NO_GEOM);
        assert_eq!(m.index_space(Dim::Region), before);
        m.assert_valid();
    }

    /// A pyramid over the vertices of another, its base given in diagonal
    /// order, is built as a second region with a second base quad: check 3
    /// reports both twins.
    #[test]
    fn twins_over_one_vertex_set_are_reported() {
        let mut m = Mesh::new(3);
        for x in [
            [0., 0., 0.],
            [1., 0., 0.],
            [1., 1., 0.],
            [0., 1., 0.],
            [0.5, 0.5, 1.],
        ] {
            m.add_vertex(x, NO_GEOM);
        }
        m.add_element(Topology::Pyramid, &[0, 1, 2, 3, 4], NO_GEOM);
        m.assert_valid();
        m.add_element(Topology::Pyramid, &[0, 2, 1, 3, 4], NO_GEOM);
        assert_eq!(
            m.verify(),
            [
                "M2_5 not found from its vertices: Some(M2_0)",
                "M3_1 not found from its vertices: Some(M3_0)"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "still bounds")]
    fn bottom_up_delete_rejected() {
        let mut m = tet_pair();
        let f = m.iter(Dim::Face).next().unwrap();
        m.delete(f);
    }

    #[test]
    fn unclassified_count() {
        let m = tet_pair();
        assert!(m.count_unclassified() > 0);
    }
}
