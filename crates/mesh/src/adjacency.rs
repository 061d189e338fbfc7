//! General adjacency queries composed from the one-level links.
//!
//! "The minimal requirement of any such mesh representation is complete
//! representation with which the complexity of any mesh adjacency
//! interrogation is O(1) (i.e., not a function of mesh size)" (§I). Every
//! query here touches only the local neighbourhood of the input entity;
//! `tests/adjacency_cost.rs` counts the items and allocator calls per query
//! and asserts they do not grow with the mesh.

use crate::mesh::Mesh;
use pumi_util::{Dim, MeshEnt};

impl Mesh {
    /// All entities of dimension `target` adjacent to `e`.
    ///
    /// * `target < e.dim()`: the downward closure restricted to `target`
    ///   (e.g. region → vertices),
    /// * `target > e.dim()`: the upward closure (e.g. vertex → regions),
    /// * `target == e.dim()`: same-dimension neighbours bridged through
    ///   dimension `target - 1` (elements sharing a side); for vertices,
    ///   vertices sharing an edge.
    ///
    /// Results are deduplicated and returned in first-encountered order
    /// (deterministic given the mesh construction order).
    pub fn adjacent(&self, e: MeshEnt, target: Dim) -> Vec<MeshEnt> {
        let mut out = Vec::new();
        self.adjacent_into(e, target, &mut out);
        out
    }

    /// [`Mesh::adjacent`] into a buffer the caller keeps: `out` is cleared
    /// and filled, so a loop of queries allocates nothing once the buffer
    /// has grown to the largest neighbourhood.
    pub fn adjacent_into(&self, e: MeshEnt, target: Dim, out: &mut Vec<MeshEnt>) {
        out.clear();
        let d = e.dim().as_usize();
        let t = target.as_usize();
        use std::cmp::Ordering;
        match t.cmp(&d) {
            Ordering::Less => self.downward(e, target, out),
            Ordering::Greater => self.upward(e, target, out),
            Ordering::Equal => {
                let bridge = if d == 0 {
                    Dim::Edge
                } else {
                    Dim::from_usize(d - 1)
                };
                out.extend(self.neighbors_via(e, bridge));
            }
        }
    }

    /// Append the downward adjacency of `e` in a lower dimension to `out`.
    fn downward(&self, e: MeshEnt, target: Dim, out: &mut Vec<MeshEnt>) {
        let d = e.dim().as_usize();
        let t = target.as_usize();
        debug_assert!(t < d);
        if t == 0 {
            // Fast path: vertex lists are stored directly.
            out.extend(self.verts_of(e).iter().map(|&v| MeshEnt::vertex(v)));
        } else if t + 1 == d {
            out.extend(self.down(e));
        } else {
            // d=3, t=1: region → faces → edges with dedupe (≤ 12 edges for hex).
            let start = out.len();
            for f in self.down(e) {
                for sub in self.down(f) {
                    if !out[start..].contains(&sub) {
                        out.push(sub);
                    }
                }
            }
        }
    }

    /// Append the upward adjacency of `e` in a higher dimension to `out`
    /// (`out` must be empty: each level is expanded in place).
    fn upward(&self, e: MeshEnt, target: Dim, out: &mut Vec<MeshEnt>) {
        let d = e.dim().as_usize();
        let t = target.as_usize();
        debug_assert!(t > d && out.is_empty());
        out.extend(self.up(e));
        for _ in d + 1..t {
            // The next level goes behind the current one, which is then
            // dropped from the front.
            let frontier = out.len();
            for k in 0..frontier {
                for u in self.up(out[k]) {
                    if !out[frontier..].contains(&u) {
                        out.push(u);
                    }
                }
            }
            out.drain(..frontier);
        }
    }

    /// Same-dimension neighbours of `e` bridged through `bridge` entities:
    /// all entities of `e.dim()` that share a `bridge`-dimensional entity
    /// with `e`. `e` itself is excluded.
    pub fn neighbors_via(&self, e: MeshEnt, bridge: Dim) -> Vec<MeshEnt> {
        let d = e.dim();
        let down = bridge.as_usize() < d.as_usize();
        let mut bridges = Vec::new();
        if down {
            self.downward(e, bridge, &mut bridges);
        } else {
            self.upward(e, bridge, &mut bridges);
        }
        let mut out = Vec::new();
        let mut peers = Vec::new();
        for b in bridges {
            peers.clear();
            if down {
                self.upward(b, d, &mut peers);
            } else {
                self.downward(b, d, &mut peers);
            }
            for &p in &peers {
                if p != e && !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// The downward closure of `e`: every entity of every lower dimension
    /// bounding `e`, including `e` itself. Ordered low-dim-first (vertices,
    /// then edges, ...), which is the creation order migration needs.
    pub fn closure(&self, e: MeshEnt) -> Vec<MeshEnt> {
        let mut out = Vec::new();
        self.closure_into(e, &mut out);
        out
    }

    /// Append [`Mesh::closure`] of `e` to a buffer the caller keeps.
    pub fn closure_into(&self, e: MeshEnt, out: &mut Vec<MeshEnt>) {
        for t in 0..e.dim().as_usize() {
            self.downward(e, Dim::from_usize(t), out);
        }
        out.push(e);
    }

    /// Whether the side `s` (dimension `elem_dim - 1`) lies on the mesh's
    /// external boundary, i.e. bounds fewer than two elements.
    pub fn is_boundary_side(&self, s: MeshEnt) -> bool {
        debug_assert_eq!(s.dim().as_usize() + 1, self.elem_dim());
        self.up_count(s) < 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::NO_GEOM;
    use crate::topology::Topology;

    /// Two tets sharing face (1,2,3).
    fn two_tets() -> (Mesh, MeshEnt, MeshEnt) {
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
        let t0 = m.add_element(Topology::Tet, &[v[0], v[1], v[2], v[3]], NO_GEOM);
        let t1 = m.add_element(Topology::Tet, &[v[1], v[2], v[3], v[4]], NO_GEOM);
        (m, t0, t1)
    }

    #[test]
    fn counts_after_two_tets() {
        let (m, _, _) = two_tets();
        assert_eq!(m.count(Dim::Vertex), 5);
        assert_eq!(m.count(Dim::Region), 2);
        // 2 tets sharing a face: 4+4-3=5 verts? no: 5 verts, faces 4+4-1=7,
        // edges 6+6-3=9.
        assert_eq!(m.count(Dim::Face), 7);
        assert_eq!(m.count(Dim::Edge), 9);
    }

    #[test]
    fn region_downward_queries() {
        let (m, t0, _) = two_tets();
        assert_eq!(m.adjacent(t0, Dim::Vertex).len(), 4);
        assert_eq!(m.adjacent(t0, Dim::Edge).len(), 6);
        assert_eq!(m.adjacent(t0, Dim::Face).len(), 4);
    }

    #[test]
    fn vertex_upward_queries() {
        let (m, _, _) = two_tets();
        // Vertex 1 (shared) bounds both tets.
        let v1 = MeshEnt::vertex(1);
        assert_eq!(m.adjacent(v1, Dim::Region).len(), 2);
        // Vertex 0 only bounds tet 0.
        let v0 = MeshEnt::vertex(0);
        assert_eq!(m.adjacent(v0, Dim::Region).len(), 1);
        // Vertex 0 has 3 edges, vertex 1 has 4.
        assert_eq!(m.adjacent(v0, Dim::Edge).len(), 3);
        assert_eq!(m.adjacent(v1, Dim::Edge).len(), 4);
    }

    #[test]
    fn element_neighbors_via_face() {
        let (m, t0, t1) = two_tets();
        let n0 = m.adjacent(t0, Dim::Region);
        assert_eq!(n0, vec![t1]);
        let n1 = m.neighbors_via(t1, Dim::Face);
        assert_eq!(n1, vec![t0]);
        // Bridged through vertices they are also neighbours.
        let nv = m.neighbors_via(t0, Dim::Vertex);
        assert_eq!(nv, vec![t1]);
    }

    #[test]
    fn vertex_neighbors_via_edge() {
        let (m, _, _) = two_tets();
        let v0 = MeshEnt::vertex(0);
        let nbrs = m.adjacent(v0, Dim::Vertex);
        let mut ids: Vec<u32> = nbrs.iter().map(|e| e.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn closure_contains_all_dims() {
        let (m, t0, _) = two_tets();
        let c = m.closure(t0);
        // 4 verts + 6 edges + 4 faces + self
        assert_eq!(c.len(), 15);
        assert_eq!(c.last().copied(), Some(t0));
        assert!(c[..4].iter().all(|e| e.dim() == Dim::Vertex));
    }

    #[test]
    fn boundary_sides() {
        let (m, _, _) = two_tets();
        let boundary: Vec<MeshEnt> = m
            .iter(Dim::Face)
            .filter(|&f| m.is_boundary_side(f))
            .collect();
        // 7 faces, 1 interior.
        assert_eq!(boundary.len(), 6);
    }

    #[test]
    fn shared_face_found_not_duplicated() {
        let (m, t0, t1) = two_tets();
        let f0 = m.adjacent(t0, Dim::Face);
        let f1 = m.adjacent(t1, Dim::Face);
        let shared: Vec<_> = f0.iter().filter(|f| f1.contains(f)).collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(m.up_count(*shared[0]), 2);
    }

    #[test]
    fn two_d_mesh_neighbors() {
        // Two triangles sharing an edge.
        let mut m = Mesh::new(2);
        let v: Vec<u32> = [[0., 0., 0.], [1., 0., 0.], [0., 1., 0.], [1., 1., 0.]]
            .iter()
            .map(|&x| m.add_vertex(x, NO_GEOM).index())
            .collect();
        let a = m.add_element(Topology::Triangle, &[v[0], v[1], v[2]], NO_GEOM);
        let b = m.add_element(Topology::Triangle, &[v[1], v[3], v[2]], NO_GEOM);
        assert_eq!(m.count(Dim::Edge), 5);
        assert_eq!(m.adjacent(a, Dim::Face), vec![b]);
        assert!(m.is_boundary_side(m.find_entity(Dim::Edge, &[v[0], v[1]]).unwrap()));
        assert!(!m.is_boundary_side(m.find_entity(Dim::Edge, &[v[1], v[2]]).unwrap()));
    }
}
