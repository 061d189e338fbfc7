//! Local partitioning (§III-A, the Mira experiment).
//!
//! "This partition is created by locally partitioning each part of a 16,384
//! part mesh with Zoltan Hypergraph to 96 parts." Each part is split
//! independently — the splitter sees only that part's subgraph — which is
//! what lets the per-part entity imbalance blow up (9% → 54% peak vertex
//! imbalance in the paper; the `mira_local_split` bench reproduces the
//! shape).

use crate::graph::DualGraph;
use crate::multilevel::partition_graph;
use pumi_mesh::Mesh;
use pumi_util::PartId;

/// Split every part of `labels` into `k` subparts using the graph method on
/// each part's induced subgraph. Part `p` becomes parts `p*k .. p*k+k`.
/// Returns the refined labels (over `nparts_old * k` parts).
pub fn split_labels(mesh: &Mesh, labels: &[PartId], nparts_old: usize, k: usize) -> Vec<PartId> {
    assert!(k >= 1);
    if k == 1 {
        return labels.to_vec();
    }
    let g = DualGraph::build(mesh);
    let mut out = vec![0 as PartId; labels.len()];
    // Collect the graph nodes of each old part.
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); nparts_old];
    for (node, &e) in g.elems.iter().enumerate() {
        groups[labels[e.idx()] as usize].push(node as u32);
    }
    // Graph node -> index in its group; reset after each group.
    let mut local_of = vec![u32::MAX; g.len()];
    for (p, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        // Build the induced subgraph.
        for (li, &u) in group.iter().enumerate() {
            local_of[u as usize] = li as u32;
        }
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for &u in group {
            for &v in g.neighbors(u) {
                if local_of[v as usize] != u32::MAX {
                    adjncy.push(local_of[v as usize]);
                }
            }
            xadj.push(adjncy.len() as u32);
        }
        for &u in group {
            local_of[u as usize] = u32::MAX;
        }
        let sub = DualGraph {
            xadj,
            adjncy,
            elems: group.iter().map(|&u| g.elems[u as usize]).collect(),
            vwgt: vec![1.0; group.len()],
        };
        let sub_labels = partition_graph(&sub, k);
        for (li, &u) in group.iter().enumerate() {
            out[g.elems[u as usize].idx()] = (p * k) as PartId + sub_labels[li];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::partition_graph;
    use pumi_meshgen::tri_rect;
    use pumi_util::stats::imbalance;

    #[test]
    fn split_preserves_element_count_and_nesting() {
        let m = tri_rect(12, 12, 1.0, 1.0);
        let g = DualGraph::build(&m);
        let coarse = partition_graph(&g, 4);
        let mut labels = vec![0 as PartId; m.index_space(m.elem_dim_t())];
        for (node, &e) in g.elems.iter().enumerate() {
            labels[e.idx()] = coarse[node];
        }
        let fine = split_labels(&m, &labels, 4, 3);
        // Nesting: fine label / 3 == coarse label.
        for e in m.iter(m.elem_dim_t()) {
            assert_eq!(fine[e.idx()] / 3, labels[e.idx()]);
        }
        // All 12 fine parts populated.
        let mut loads = vec![0f64; 12];
        for e in m.iter(m.elem_dim_t()) {
            loads[fine[e.idx()] as usize] += 1.0;
        }
        assert!(loads.iter().all(|&l| l > 0.0), "{loads:?}");
        // Element balance within each group stays decent.
        assert!(imbalance(&loads) < 1.15, "{loads:?}");
    }

    #[test]
    fn k_equals_one_is_identity() {
        let m = tri_rect(4, 4, 1.0, 1.0);
        let labels = vec![0 as PartId; m.index_space(m.elem_dim_t())];
        let out = split_labels(&m, &labels, 1, 1);
        assert_eq!(out, labels);
    }
}
