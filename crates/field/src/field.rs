//! Tensor fields over mesh entities (§II).
//!
//! "The fields are tensor quantities that define the distributions of the
//! physical parameters of the PDE over domain (mesh and geometric model)
//! entities." A [`Field`] stores `ncomp` doubles per *node*, where the node
//! locations are given by the [`FieldShape`]: linear Lagrange places one
//! node per vertex; quadratic adds one per edge (the paper's second-order FE
//! example in §I is exactly why vertex+edge balance matters).

use pumi_mesh::Mesh;
use pumi_pcu::MsgWriter;
use pumi_util::{Dim, MeshEnt};

/// The node distribution of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldShape {
    /// One node per vertex (P1 Lagrange).
    Linear,
    /// One node per vertex and per edge (P2 Lagrange).
    Quadratic,
    /// One node per element (piecewise constant, cell-centred FV — the
    /// paper's §I "cell centered FV method" workload).
    Constant,
}

impl FieldShape {
    /// Which entity dimensions hold nodes, ascending, for a mesh of element
    /// dimension `elem_dim`.
    pub fn node_dims(&self, elem_dim: usize) -> &'static [Dim] {
        match self {
            FieldShape::Linear => &[Dim::Vertex],
            FieldShape::Quadratic => &[Dim::Vertex, Dim::Edge],
            FieldShape::Constant => match Dim::from_usize(elem_dim) {
                Dim::Vertex => &[Dim::Vertex],
                Dim::Edge => &[Dim::Edge],
                Dim::Face => &[Dim::Face],
                Dim::Region => &[Dim::Region],
            },
        }
    }

    /// Whether entities of dimension `d` hold a node.
    pub fn has_nodes(&self, d: Dim, elem_dim: usize) -> bool {
        self.node_dims(elem_dim).contains(&d)
    }
}

/// A field over one mesh part.
///
/// Storage is dense per entity dimension: `ncomp` doubles per entity index
/// plus one presence byte, grown on demand to the highest index ever set.
/// A dimension that never held a value costs nothing.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name (used to pair fields across parts).
    pub name: String,
    /// Node distribution.
    pub shape: FieldShape,
    /// Components per node (1 = scalar, 3 = vector, 9 = matrix, ...).
    pub ncomp: usize,
    /// Per dimension: `ncomp` values per entity index.
    values: [Vec<f64>; 4],
    /// Per dimension: whether the entity index holds a value.
    present: [Vec<bool>; 4],
    /// Number of indices holding a value, over all dimensions.
    len: usize,
}

impl Field {
    /// An empty field.
    pub fn new(name: &str, shape: FieldShape, ncomp: usize) -> Field {
        assert!(ncomp >= 1);
        Field {
            name: name.to_string(),
            shape,
            ncomp,
            values: Default::default(),
            present: Default::default(),
            len: 0,
        }
    }

    /// The node storage of `e`, created zeroed if `e` held no value, and
    /// whether it held one. The node holds a value afterwards.
    pub(crate) fn node_mut(&mut self, e: MeshEnt) -> (&mut [f64], bool) {
        let (d, i, n) = (e.dim().as_usize(), e.idx(), self.ncomp);
        if i >= self.present[d].len() {
            self.present[d].resize(i + 1, false);
            self.values[d].resize((i + 1) * n, 0.0);
        }
        let had = std::mem::replace(&mut self.present[d][i], true);
        self.len += usize::from(!had);
        (&mut self.values[d][i * n..(i + 1) * n], had)
    }

    /// Append the values of the dimension-`dim` nodes at `index`, which
    /// must all hold one, to `w`: `ncomp` little-endian doubles each, in
    /// `index` order, after one reserve for the `count` of them.
    pub(crate) fn gather(
        &self,
        dim: Dim,
        index: impl Iterator<Item = u32>,
        count: usize,
        w: &mut MsgWriter,
    ) {
        let (values, n) = (&self.values[dim.as_usize()], self.ncomp);
        w.reserve(count * n * 8);
        for i in index.map(|i| i as usize) {
            values[i * n..(i + 1) * n]
                .iter()
                .for_each(|&x| w.put_f64(x));
        }
    }

    /// Read one value per node of dimension `dim` at `index` from `bytes`
    /// (`ncomp` little-endian doubles each, as [`Field::gather`] writes
    /// them): `combine(current, incoming)` per component where the node
    /// holds a value, the incoming value where it does not. Stops at the
    /// shorter of `index` and `bytes`.
    pub(crate) fn scatter(
        &mut self,
        dim: Dim,
        index: impl Iterator<Item = u32>,
        bytes: &[u8],
        combine: impl Fn(f64, f64) -> f64,
    ) {
        let n = self.ncomp;
        for (i, node_bytes) in index.zip(bytes.chunks_exact(n * 8)) {
            let (node, had) = self.node_mut(MeshEnt::new(dim, i));
            for (c, x) in node.iter_mut().zip(node_bytes.chunks_exact(8)) {
                let x = f64::from_le_bytes(x.try_into().expect("8 bytes"));
                *c = if had { combine(*c, x) } else { x };
            }
        }
    }

    /// Set the node value on an entity.
    ///
    /// # Panics
    /// Panics if the component count mismatches.
    pub fn set(&mut self, e: MeshEnt, value: &[f64]) {
        assert_eq!(value.len(), self.ncomp, "component count mismatch");
        self.node_mut(e).0.copy_from_slice(value);
    }

    /// Set a scalar node value.
    pub fn set_scalar(&mut self, e: MeshEnt, x: f64) {
        self.set(e, &[x]);
    }

    /// Where the value of `e` lives, if it holds one: dimension and range
    /// in that dimension's value array.
    #[inline]
    fn node(&self, e: MeshEnt) -> Option<(usize, std::ops::Range<usize>)> {
        let (d, i, n) = (e.dim().as_usize(), e.idx(), self.ncomp);
        self.present[d].get(i)?.then_some((d, i * n..(i + 1) * n))
    }

    /// The node value, if set.
    #[inline]
    pub fn get(&self, e: MeshEnt) -> Option<&[f64]> {
        self.node(e).map(|(d, at)| &self.values[d][at])
    }

    /// The node value for update in place, if set.
    #[inline]
    pub fn get_mut(&mut self, e: MeshEnt) -> Option<&mut [f64]> {
        self.node(e).map(|(d, at)| &mut self.values[d][at])
    }

    /// The scalar node value, if set.
    pub fn get_scalar(&self, e: MeshEnt) -> Option<f64> {
        self.get(e).and_then(|v| v.first().copied())
    }

    /// Remove a node value (entity deleted).
    pub fn remove(&mut self, e: MeshEnt) -> Option<Vec<f64>> {
        let old = self.get(e)?.to_vec();
        self.present[e.dim().as_usize()][e.idx()] = false;
        self.len -= 1;
        Some(old)
    }

    /// Number of set nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Initialize every node entity of `mesh` with `value`.
    pub fn fill(&mut self, mesh: &Mesh, value: &[f64]) {
        for &d in self.shape.node_dims(mesh.elem_dim()) {
            for e in mesh.iter(d) {
                self.set(e, value);
            }
        }
    }

    /// Apply `f(coords) -> value` at every vertex node (Linear/Quadratic
    /// fields; edge nodes get the midpoint coordinates).
    pub fn set_from(&mut self, mesh: &Mesh, f: impl Fn([f64; 3]) -> Vec<f64>) {
        for &d in self.shape.node_dims(mesh.elem_dim()) {
            for e in mesh.iter(d) {
                let x = mesh.centroid(e);
                let v = f(x);
                self.set(e, &v);
            }
        }
    }

    /// Evaluate a **linear** scalar field at barycentric coordinates inside
    /// a simplex element.
    pub fn eval_linear(&self, mesh: &Mesh, elem: MeshEnt, bary: &[f64]) -> f64 {
        assert_eq!(self.shape, FieldShape::Linear);
        let verts = mesh.verts_of(elem);
        assert_eq!(verts.len(), bary.len(), "barycentric arity mismatch");
        verts
            .iter()
            .zip(bary)
            .map(|(&v, &b)| b * self.get_scalar(MeshEnt::vertex(v)).unwrap_or(0.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_mesh::Topology;
    use pumi_mesh::NO_GEOM;

    fn tri_mesh() -> Mesh {
        let mut m = Mesh::new(2);
        let a = m.add_vertex([0., 0., 0.], NO_GEOM).index();
        let b = m.add_vertex([1., 0., 0.], NO_GEOM).index();
        let c = m.add_vertex([0., 1., 0.], NO_GEOM).index();
        m.add_element(Topology::Triangle, &[a, b, c], NO_GEOM);
        m
    }

    #[test]
    fn shapes_node_dims() {
        assert_eq!(FieldShape::Linear.node_dims(3), vec![Dim::Vertex]);
        assert_eq!(
            FieldShape::Quadratic.node_dims(3),
            vec![Dim::Vertex, Dim::Edge]
        );
        assert_eq!(FieldShape::Constant.node_dims(2), vec![Dim::Face]);
        assert!(FieldShape::Quadratic.has_nodes(Dim::Edge, 3));
        assert!(!FieldShape::Linear.has_nodes(Dim::Edge, 3));
    }

    #[test]
    fn set_get_fill() {
        let m = tri_mesh();
        let mut f = Field::new("u", FieldShape::Linear, 1);
        f.fill(&m, &[2.0]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.get_scalar(MeshEnt::vertex(0)), Some(2.0));
        f.set_scalar(MeshEnt::vertex(0), 7.0);
        assert_eq!(f.get_scalar(MeshEnt::vertex(0)), Some(7.0));
        assert!(f.remove(MeshEnt::vertex(0)).is_some());
        assert_eq!(f.get(MeshEnt::vertex(0)), None);
    }

    #[test]
    fn quadratic_fills_edges_too() {
        let m = tri_mesh();
        let mut f = Field::new("u", FieldShape::Quadratic, 2);
        f.fill(&m, &[1.0, 2.0]);
        assert_eq!(f.len(), 3 + 3);
        let e = m.iter(Dim::Edge).next().unwrap();
        assert_eq!(f.get(e), Some(&[1.0, 2.0][..]));
    }

    #[test]
    fn eval_linear_interpolates() {
        let m = tri_mesh();
        let mut f = Field::new("u", FieldShape::Linear, 1);
        // u = x + 2y at vertices (0,0), (1,0), (0,1).
        f.set_scalar(MeshEnt::vertex(0), 0.0);
        f.set_scalar(MeshEnt::vertex(1), 1.0);
        f.set_scalar(MeshEnt::vertex(2), 2.0);
        let elem = m.elems().next().unwrap();
        // Barycentre: (1/3, 1/3, 1/3) -> u = 1.
        let v = f.eval_linear(&m, elem, &[1. / 3., 1. / 3., 1. / 3.]);
        assert!((v - 1.0).abs() < 1e-12);
        // Vertex 1 exactly.
        assert!((f.eval_linear(&m, elem, &[0., 1., 0.]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_from_samples_coordinates() {
        let m = tri_mesh();
        let mut f = Field::new("u", FieldShape::Linear, 1);
        f.set_from(&m, |x| vec![x[0] + x[1]]);
        assert_eq!(f.get_scalar(MeshEnt::vertex(1)), Some(1.0));
        assert_eq!(f.get_scalar(MeshEnt::vertex(2)), Some(1.0));
    }

    #[test]
    fn storage_grows_to_the_highest_index_set() {
        let mut f = Field::new("u", FieldShape::Quadratic, 2);
        f.set(MeshEnt::vertex(5), &[1.0, 2.0]);
        assert_eq!(f.len(), 1);
        // Below, at and beyond the grown range; another dimension untouched.
        assert_eq!(f.get(MeshEnt::vertex(4)), None);
        assert_eq!(f.get(MeshEnt::vertex(5)), Some(&[1.0, 2.0][..]));
        assert_eq!(f.get(MeshEnt::vertex(6)), None);
        assert_eq!(f.get(MeshEnt::vertex(1 << 20)), None);
        assert_eq!(f.get(MeshEnt::edge(5)), None);
        assert_eq!(f.get_mut(MeshEnt::edge(0)), None);
        // Growing again keeps what was there.
        f.set(MeshEnt::vertex(40), &[3.0, 4.0]);
        f.set(MeshEnt::edge(2), &[5.0, 6.0]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.get(MeshEnt::vertex(5)), Some(&[1.0, 2.0][..]));
        assert_eq!(f.get(MeshEnt::vertex(39)), None);
        assert_eq!(f.get(MeshEnt::edge(2)), Some(&[5.0, 6.0][..]));
    }

    #[test]
    fn len_follows_set_remove_and_reset() {
        let mut f = Field::new("u", FieldShape::Linear, 1);
        assert!(f.is_empty());
        let v = MeshEnt::vertex(3);
        f.set_scalar(v, 1.0);
        f.set_scalar(v, 2.0);
        assert_eq!(f.len(), 1, "overwriting is not a new node");
        f.get_mut(v).unwrap()[0] += 0.5;
        assert_eq!(f.remove(v), Some(vec![2.5]));
        assert_eq!(f.remove(v), None);
        assert_eq!(f.remove(MeshEnt::vertex(99)), None);
        assert!(f.is_empty());
        assert_eq!(f.get(v), None);
        f.set_scalar(v, 7.0);
        assert_eq!((f.len(), f.get_scalar(v)), (1, Some(7.0)));
    }

    #[test]
    #[should_panic(expected = "component count")]
    fn component_mismatch_panics() {
        let mut f = Field::new("u", FieldShape::Linear, 2);
        f.set_scalar(MeshEnt::vertex(0), 1.0);
    }
}
