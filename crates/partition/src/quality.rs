//! Partition quality statistics over a serial mesh + element labels.
//!
//! These compute exactly the quantities of Table II: per-part mean counts
//! and imbalance percentages for every entity dimension, counting an entity
//! on every part whose elements touch it (i.e. including part-boundary
//! copies, as the distributed mesh would hold them), plus boundary-copy
//! totals — "the amount of communications across partition model boundaries
//! will increase as the part boundary gets rougher". [`off_node_share`]
//! measures how much of that boundary crosses nodes (§II-D).

use pumi_mesh::Mesh;
use pumi_util::stats::LoadStats;
use pumi_util::{Dim, PartId};

/// Per-dimension partition statistics.
#[derive(Debug, Clone)]
pub struct PartitionQuality {
    /// Number of parts.
    pub nparts: usize,
    /// Per-part entity counts, `counts[dim][part]` (with boundary copies).
    pub counts: [Vec<f64>; 4],
    /// Total part-boundary entity copies per dimension (an entity on k
    /// parts contributes k).
    pub boundary_copies: [usize; 4],
    /// Dual-graph edge cut (element side pairs crossing parts).
    pub edge_cut: usize,
}

impl PartitionQuality {
    /// Compute the quality of `labels` over `mesh`.
    pub fn compute(mesh: &Mesh, labels: &[PartId], nparts: usize) -> PartitionQuality {
        let elem_dim = mesh.elem_dim();
        let d_elem = mesh.elem_dim_t();
        let mut counts: [Vec<f64>; 4] = [
            vec![0.0; nparts],
            vec![0.0; nparts],
            vec![0.0; nparts],
            vec![0.0; nparts],
        ];
        let mut boundary_copies = [0usize; 4];
        // Elements count on their own part.
        for e in mesh.iter(d_elem) {
            counts[elem_dim][labels[e.idx()] as usize] += 1.0;
        }
        // Lower entities count once per residence part.
        for d in 0..elem_dim {
            let dim = Dim::from_usize(d);
            for a in mesh.iter(dim) {
                let mut parts: Vec<PartId> = mesh
                    .adjacent(a, d_elem)
                    .iter()
                    .map(|e| labels[e.idx()])
                    .collect();
                parts.sort_unstable();
                parts.dedup();
                for &p in &parts {
                    counts[d][p as usize] += 1.0;
                }
                if parts.len() > 1 {
                    boundary_copies[d] += parts.len();
                }
            }
        }
        // Edge cut.
        let mut edge_cut = 0usize;
        for e in mesh.iter(d_elem) {
            for n in mesh.adjacent(e, d_elem) {
                if e < n && labels[e.idx()] != labels[n.idx()] {
                    edge_cut += 1;
                }
            }
        }
        PartitionQuality {
            nparts,
            counts,
            boundary_copies,
            edge_cut,
        }
    }

    /// Load statistics for one entity dimension.
    pub fn stats(&self, d: Dim) -> LoadStats {
        LoadStats::of(&self.counts[d.as_usize()])
    }

    /// Imbalance percentage (Table II's "Imb.%") for one dimension.
    pub fn imbalance_pct(&self, d: Dim) -> f64 {
        self.stats(d).imbalance_pct()
    }

    /// Mean per-part count for one dimension (Table II's "Mean" rows).
    pub fn mean(&self, d: Dim) -> f64 {
        self.stats(d).mean
    }

    /// Total boundary copies across dimensions (the communication-volume
    /// proxy the paper reports shrinking under ParMA).
    pub fn total_boundary_copies(&self) -> usize {
        self.boundary_copies.iter().sum()
    }
}

/// Fraction of part-boundary entity copies of dimension `d` that cross
/// nodes, for a labeling where part `p` lives on node `p / cores_per_node`.
/// The quality measure a hybrid partition optimizes (lower is better).
pub fn off_node_share(mesh: &Mesh, labels: &[PartId], cores_per_node: usize, d: Dim) -> f64 {
    let elem_d = mesh.elem_dim_t();
    let mut on = 0usize;
    let mut off = 0usize;
    for a in mesh.iter(d) {
        let mut parts: Vec<PartId> = mesh
            .adjacent(a, elem_d)
            .iter()
            .map(|e| labels[e.idx()])
            .collect();
        parts.sort_unstable();
        parts.dedup();
        if parts.len() < 2 {
            continue;
        }
        let node0 = parts[0] as usize / cores_per_node;
        if parts.iter().all(|&p| p as usize / cores_per_node == node0) {
            on += parts.len();
        } else {
            off += parts.len();
        }
    }
    if on + off == 0 {
        0.0
    } else {
        off as f64 / (on + off) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DualGraph;
    use crate::multilevel::partition_graph;
    use pumi_meshgen::tri_rect;

    fn labels_of(mesh: &Mesh, nparts: usize) -> Vec<PartId> {
        let g = DualGraph::build(mesh);
        let gl = partition_graph(&g, nparts);
        let mut labels = vec![0 as PartId; mesh.index_space(mesh.elem_dim_t())];
        for (node, &e) in g.elems.iter().enumerate() {
            labels[e.idx()] = gl[node];
        }
        labels
    }

    #[test]
    fn counts_match_hand_computation_two_halves() {
        // 2x1 strip split at x=1: each part: 2 elements, vertices 4 each
        // (two shared), edges: total 9, shared 1.
        let m = tri_rect(2, 1, 2.0, 1.0);
        let mut labels = vec![0 as PartId; m.index_space(m.elem_dim_t())];
        for e in m.iter(m.elem_dim_t()) {
            labels[e.idx()] = if m.centroid(e)[0] < 1.0 { 0 } else { 1 };
        }
        let q = PartitionQuality::compute(&m, &labels, 2);
        assert_eq!(q.counts[2], vec![2.0, 2.0]);
        assert_eq!(q.counts[0], vec![4.0, 4.0]); // 6 vertices, 2 doubled
        assert_eq!(q.boundary_copies[0], 4);
        assert_eq!(q.boundary_copies[1], 2);
        assert_eq!(q.edge_cut, 1);
        assert_eq!(q.total_boundary_copies(), 6);
    }

    #[test]
    fn stats_and_imbalance() {
        let m = tri_rect(8, 8, 1.0, 1.0);
        let labels = labels_of(&m, 4);
        let q = PartitionQuality::compute(&m, &labels, 4);
        assert!(q.imbalance_pct(Dim::Face) < 10.0);
        assert!(q.mean(Dim::Face) > 0.0);
        // Vertex counts include copies: sum over parts >= serial count.
        let vsum: f64 = q.counts[0].iter().sum();
        assert!(vsum >= m.count(Dim::Vertex) as f64);
    }
}
