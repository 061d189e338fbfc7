//! Two-level, architecture-aware mesh partitioning support (§II-D, Figs 5/6).
//!
//! "The partitioned mesh representation of PUMI is under improvement towards
//! a hybrid mesh partitioning algorithm which involves first partitioning a
//! mesh into nodes and subsequently to the cores on the nodes."
//!
//! Here [`PartMap::contiguous`] with one part per rank places
//! `cores_per_node` consecutive parts on each node (one part per core, the
//! paper's process-per-node + thread-per-core mapping; ranks are laid out
//! node-major by the machine model), and
//! [`boundary_traffic_split`] classifies each part-boundary entity as
//! on-node (dashed boundaries of Fig 3 — implicit in shared memory) or
//! off-node (solid boundaries — explicit, duplicated in distributed
//! memory).

use crate::dist::{DistMesh, PartMap};
use crate::part::Part;
use pumi_pcu::MachineModel;

/// Per-dimension counts of part-boundary entity copies split by link class.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BoundarySplit {
    /// Shared-entity copies whose remote parts are all on this node.
    pub on_node: [usize; 4],
    /// Shared-entity copies with at least one off-node remote part.
    pub off_node: [usize; 4],
}

impl BoundarySplit {
    /// Total on-node copies across dimensions.
    pub fn on_node_total(&self) -> usize {
        self.on_node.iter().sum()
    }

    /// Total off-node copies across dimensions.
    pub fn off_node_total(&self) -> usize {
        self.off_node.iter().sum()
    }
}

/// Classify the part-boundary entities of `part` against `machine`: an
/// entity counts as *on-node* if every remote residence part lives on the
/// same node as this part (Fig 6's implicit shared-memory boundary), and
/// *off-node* otherwise.
pub fn boundary_split(part: &Part, map: &PartMap, machine: MachineModel) -> BoundarySplit {
    let my_node = machine.node_of(map.rank_of(part.id));
    let mut out = BoundarySplit::default();
    for (e, remotes) in part.shared_entities() {
        let all_on_node = remotes
            .iter()
            .all(|&(q, _)| machine.node_of(map.rank_of(q)) == my_node);
        let d = e.dim().as_usize();
        if all_on_node {
            out.on_node[d] += 1;
        } else {
            out.off_node[d] += 1;
        }
    }
    out
}

/// Aggregate [`boundary_split`] over the local parts of a distributed mesh.
pub fn boundary_traffic_split(dm: &DistMesh, machine: MachineModel) -> BoundarySplit {
    let mut total = BoundarySplit::default();
    for part in &dm.parts {
        let s = boundary_split(part, &dm.map, machine);
        for d in 0..4 {
            total.on_node[d] += s.on_node[d];
            total.off_node[d] += s.off_node[d];
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute;
    use pumi_meshgen::tri_rect;
    use pumi_pcu::{execute_opts, MachineModel, WorldOpts};
    use pumi_util::{MeshEnt, PartId};

    /// 4 parts on a 2-node × 2-core machine, partitioned as quadrants:
    /// parts 0,1 on node 0 and 2,3 on node 1. The boundary between 0 and 1
    /// is on-node; boundaries crossing to 2,3 are off-node (Fig 6).
    #[test]
    fn fig6_on_vs_off_node_boundaries() {
        let machine = MachineModel::new(2, 2);
        execute_opts(machine, WorldOpts::default(), |c| {
            let serial = tri_rect(4, 4, 1.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                let cx = serial.centroid(e);
                let px = if cx[0] < 0.5 { 0 } else { 1 };
                let py = if cx[1] < 0.5 { 0 } else { 1 };
                // x splits within a node, y splits across nodes.
                elem_part[e.idx()] = (py * 2 + px) as PartId;
            }
            let map = PartMap::contiguous(machine.nranks(), machine.nranks());
            let dm = distribute(c, map, &serial, &elem_part);
            let part = &dm.parts[0];
            let split = boundary_split(part, &dm.map, machine);

            // Every part has both kinds of boundary in this layout.
            assert!(split.on_node_total() > 0, "no on-node boundary found");
            assert!(split.off_node_total() > 0, "no off-node boundary found");

            // Check one specific entity: a vertex shared only with the
            // sibling part on the same node must be on-node.
            let my = part.id;
            let sibling = my ^ 1;
            let mut found = false;
            for (e, remotes) in part.shared_entities() {
                if e.dim() == pumi_util::Dim::Vertex
                    && remotes.len() == 1
                    && remotes[0].0 == sibling
                {
                    found = true;
                }
            }
            assert!(found, "no vertex shared solely with the on-node sibling");
            // The center vertex is shared with all parts → off-node.
            let center = part
                .mesh
                .iter(pumi_util::Dim::Vertex)
                .find(|&v| {
                    let x = part.mesh.coords(v);
                    (x[0] - 0.5).abs() < 1e-12 && (x[1] - 0.5).abs() < 1e-12
                })
                .map(|v: MeshEnt| part.residence(v));
            assert_eq!(center.unwrap(), vec![0, 1, 2, 3]);
        });
    }
}
