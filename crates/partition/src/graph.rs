//! The element dual graph.
//!
//! Graph/hypergraph partitioners (§III) view the mesh as a graph whose nodes
//! are elements and whose edges connect elements sharing a side
//! (dimension `D-1` entity). [`DualGraph`] builds that CSR structure from a
//! mesh using the O(1) adjacency queries — exactly the "one piece of the
//! mesh connectivity information" the paper says graph methods encode.

use pumi_mesh::Mesh;
use pumi_util::MeshEnt;

/// CSR dual graph over mesh elements.
#[derive(Debug, Clone)]
pub struct DualGraph {
    /// CSR row offsets, length `n + 1`.
    pub xadj: Vec<u32>,
    /// CSR column indices (neighbour graph-node ids).
    pub adjncy: Vec<u32>,
    /// Graph-node id → element handle.
    pub elems: Vec<MeshEnt>,
    /// Node weights (element costs; 1 by default).
    pub vwgt: Vec<f64>,
}

impl DualGraph {
    /// Build the dual graph of `mesh` (side-adjacency).
    pub fn build(mesh: &Mesh) -> DualGraph {
        let d = mesh.elem_dim_t();
        let elems: Vec<MeshEnt> = mesh.iter(d).collect();
        // element handle index -> graph node id
        let mut node_of = vec![u32::MAX; mesh.index_space(d)];
        for (i, e) in elems.iter().enumerate() {
            node_of[e.idx()] = i as u32;
        }
        let mut xadj = Vec::with_capacity(elems.len() + 1);
        let mut adjncy = Vec::with_capacity(elems.len() * 4);
        xadj.push(0u32);
        for &e in &elems {
            for n in mesh.adjacent(e, d) {
                adjncy.push(node_of[n.idx()]);
            }
            xadj.push(adjncy.len() as u32);
        }
        let n = elems.len();
        DualGraph {
            xadj,
            adjncy,
            elems,
            vwgt: vec![1.0; n],
        }
    }

    /// Number of graph nodes.
    pub fn len(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbours of node `u`.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.adjncy[self.xadj[u as usize] as usize..self.xadj[u as usize + 1] as usize]
    }

    /// The edge cut of a labeling: edges whose endpoints have different
    /// labels (each counted once).
    pub fn edge_cut(&self, labels: &[u32]) -> usize {
        let mut cut = 0;
        for u in 0..self.len() as u32 {
            for &v in self.neighbors(u) {
                if u < v && labels[u as usize] != labels[v as usize] {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// A peripheral node: run two BFS sweeps from `start` and return the
    /// farthest node found (pseudo-diameter endpoint) within the set of
    /// nodes where `active` is true.
    pub fn peripheral_node(&self, start: u32, active: &[bool]) -> u32 {
        self.peripheral_node_in(start, active, &mut vec![false; self.len()], &mut Vec::new())
    }

    /// [`DualGraph::peripheral_node`] on caller-owned scratch, so a caller
    /// that sweeps many subsets pays for the nodes it visits, not for the
    /// graph: `seen` is all false on entry and is left all false, and
    /// `queue` (any contents on entry) is left holding the last sweep's
    /// visit order.
    pub(crate) fn peripheral_node_in(
        &self,
        start: u32,
        active: &[bool],
        seen: &mut [bool],
        queue: &mut Vec<u32>,
    ) -> u32 {
        let mut far = start;
        for _ in 0..2 {
            far = self.bfs_farthest(far, active, seen, queue);
        }
        far
    }

    /// The node a breadth-first sweep from `start` reaches last. `queue`
    /// keeps every node it enqueued, so it is both the FIFO (read from
    /// `head`) and the list of `seen` marks to clear.
    fn bfs_farthest(
        &self,
        start: u32,
        active: &[bool],
        seen: &mut [bool],
        queue: &mut Vec<u32>,
    ) -> u32 {
        queue.clear();
        seen[start as usize] = true;
        queue.push(start);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in self.neighbors(u) {
                if active[v as usize] && !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push(v);
                }
            }
        }
        for &u in queue.iter() {
            seen[u as usize] = false;
        }
        queue[queue.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_meshgen::tri_rect;

    #[test]
    fn dual_graph_of_strip() {
        // 2x1 rect = 4 triangles; interior adjacency forms a path of length
        // depending on diagonals.
        let m = tri_rect(2, 1, 2.0, 1.0);
        let g = DualGraph::build(&m);
        assert_eq!(g.len(), 4);
        assert_eq!(g.xadj.len(), 5);
        // Symmetric adjacency.
        for u in 0..g.len() as u32 {
            for &v in g.neighbors(u) {
                assert!(g.neighbors(v).contains(&u), "asymmetric edge {u}-{v}");
            }
        }
        // Total degree = 2 * interior edges = 2 * 3.
        assert_eq!(g.adjncy.len(), 6);
    }

    #[test]
    fn edge_cut_counts_cross_edges() {
        let m = tri_rect(2, 2, 1.0, 1.0);
        let g = DualGraph::build(&m);
        let all_same = vec![0u32; g.len()];
        assert_eq!(g.edge_cut(&all_same), 0);
        let all_diff: Vec<u32> = (0..g.len() as u32).collect();
        // Every interior edge is cut.
        assert_eq!(g.edge_cut(&all_diff), g.adjncy.len() / 2);
    }

    #[test]
    fn peripheral_node_is_far() {
        let m = tri_rect(8, 1, 8.0, 1.0);
        let g = DualGraph::build(&m);
        let active = vec![true; g.len()];
        let p = g.peripheral_node(g.len() as u32 / 2, &active);
        // A strip's peripheral element is at one end: its centroid x is near
        // 0 or 8.
        let c = m.centroid(g.elems[p as usize]);
        assert!(c[0] < 1.0 || c[0] > 7.0, "peripheral at x={}", c[0]);
    }
}
