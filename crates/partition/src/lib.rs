//! Baseline partitioners (§III) — the stand-ins for Zoltan.
//!
//! "The most powerful parallel unstructured mesh partitioning procedures are
//! the graph and hypergraph-based methods... Faster partition computation is
//! available through geometric methods." This crate provides both families
//! plus the *local partitioning* flow of the Mira experiment:
//!
//! * [`graph`] — the element dual graph (CSR) built from mesh adjacencies,
//! * [`multilevel`] — recursive greedy-growing + FM-refined graph
//!   partitioner (the T0 baseline; see DESIGN.md for why this reproduces
//!   the PHG-relevant behaviour),
//! * [`sfc`] — Morton-curve order cut into contiguous weighted ranges (the
//!   geometric method; the checkpoint restore's sub-part cut),
//! * [`local`] — split every part independently into k subparts
//!   (§III-A: 16,384 × 96 → 1.5M parts on Mira),
//! * [`quality`] — Table II's statistics: per-dimension means, imbalance
//!   percentages, boundary-copy totals, edge cut, and the off-node share
//!   of a node-major labeling.
//!
//! There is one serial partitioner entry, [`partition_mesh`] (with its
//! weighted form). The §II-D hybrid partition — "first partitioning a mesh
//! into nodes and subsequently to the cores on the nodes" — is a property
//! of its recursive bisection, not separate code: when the node count is a
//! power of two, the first bisection levels cut exactly the node blocks,
//! so part `p` of `partition_mesh(m, nodes * cores)` lies inside part
//! `p / cores` of `partition_mesh(m, nodes)`. `tests/prop_partition.rs`
//! asserts it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod local;
pub mod multilevel;
pub mod quality;
pub mod sfc;

pub use graph::DualGraph;
pub use local::split_labels;
pub use multilevel::partition_graph;
pub use quality::{off_node_share, PartitionQuality};
pub use sfc::sfc_partition;

use pumi_mesh::Mesh;
use pumi_pcu::MachineModel;
use pumi_util::PartId;

/// Convenience: run the graph partitioner on a mesh and return per-element
/// labels indexed by element handle index (the format `pumi_core::distribute`
/// consumes).
pub fn partition_mesh(mesh: &Mesh, nparts: usize) -> Vec<PartId> {
    partition_mesh_weighted(mesh, nparts, |_| 1.0)
}

/// [`partition_mesh`] with per-element weights — the vehicle for
/// *predictive load balancing* (§III-B): weighting each element by its
/// estimated post-adaptation element count balances the partition for the
/// mesh that adaptation is about to create, preventing the Fig 13 spike.
pub fn partition_mesh_weighted(
    mesh: &Mesh,
    nparts: usize,
    weight: impl Fn(pumi_util::MeshEnt) -> f64,
) -> Vec<PartId> {
    let mut g = DualGraph::build(mesh);
    for (node, &e) in g.elems.iter().enumerate() {
        g.vwgt[node] = weight(e);
    }
    let gl = partition_graph(&g, nparts);
    let mut labels = vec![0 as PartId; mesh.index_space(mesh.elem_dim_t())];
    for (node, &e) in g.elems.iter().enumerate() {
        labels[e.idx()] = gl[node];
    }
    labels
}

/// The argument [`partition_mesh_hier`] takes. It has no fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierOpts {}

/// [`partition_mesh`]'s labels, which are node-major on `machine`: part
/// `p` belongs on node `p / (nparts / machine.nodes)`, the numbering
/// `PartMap::contiguous` places correctly. It stays only because the
/// benchmark's `calls.rs` calls it; ROADMAP item 4(e) deletes it together
/// with [`HierOpts`].
///
/// ```
/// use pumi_meshgen::tet_box;
/// use pumi_partition::{partition_mesh, partition_mesh_hier, HierOpts};
/// use pumi_pcu::MachineModel;
///
/// let m = tet_box(4, 4, 4, 1.0, 1.0, 1.0);
/// let (nodes, cores) = (4, 3);
/// let machine = MachineModel::new(nodes, cores);
/// let labels = partition_mesh_hier(&m, nodes * cores, &machine, HierOpts::default());
/// let node_labels = partition_mesh(&m, nodes);
/// for e in m.iter(m.elem_dim_t()) {
///     assert_eq!(labels[e.idx()] as usize / cores, node_labels[e.idx()] as usize);
/// }
/// ```
///
/// # Panics
/// Panics if `nparts` is not a positive multiple of `machine.nodes`, or if
/// `machine` has several cores per node and a node count that is not a
/// power of two: recursive bisection cuts node blocks only at power-of-two
/// node counts.
pub fn partition_mesh_hier(
    mesh: &Mesh,
    nparts: usize,
    machine: &MachineModel,
    _opts: HierOpts,
) -> Vec<PartId> {
    assert!(
        nparts >= machine.nodes && nparts.is_multiple_of(machine.nodes),
        "nparts {nparts} must be a positive multiple of nodes {}",
        machine.nodes
    );
    assert!(
        machine.cores_per_node == 1 || machine.nodes.is_power_of_two(),
        "node-major labels need a power-of-two node count, not {} nodes",
        machine.nodes
    );
    partition_mesh(mesh, nparts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_meshgen::{tet_box, tri_rect};
    use pumi_util::stats::imbalance;
    use pumi_util::Dim;

    /// `nodes × cores` labels for the machine of that shape.
    fn two_level(m: &Mesh, nodes: usize, cores: usize) -> Vec<PartId> {
        let machine = MachineModel::new(nodes, cores);
        partition_mesh_hier(m, nodes * cores, &machine, HierOpts::default())
    }

    #[test]
    fn two_level_covers_all_parts_and_balances() {
        let m = tri_rect(16, 16, 1.0, 1.0);
        let labels = two_level(&m, 4, 4);
        let mut loads = vec![0f64; 16];
        for e in m.iter(m.elem_dim_t()) {
            loads[labels[e.idx()] as usize] += 1.0;
        }
        assert!(loads.iter().all(|&l| l > 0.0), "{loads:?}");
        assert!(imbalance(&loads) < 1.15, "{loads:?}");
    }

    #[test]
    fn second_level_nests_in_first() {
        let m = tri_rect(12, 12, 1.0, 1.0);
        let nodes = 4;
        let cores = 3;
        let node_labels = partition_mesh(&m, nodes);
        let labels = two_level(&m, nodes, cores);
        // The core-level cuts fall within a node's block, so a fine part's
        // node is the node-level label of the element.
        for e in m.iter(m.elem_dim_t()) {
            assert_eq!(
                labels[e.idx()] as usize / cores,
                node_labels[e.idx()] as usize
            );
        }
    }

    #[test]
    fn hybrid_beats_machine_oblivious_assignment() {
        // A machine-oblivious partitioner gives no guarantee about which
        // part ids land on which node; model that by permuting the part ids
        // of a flat partition. The two-level partition, whose numbering is
        // node-aligned by construction, must have a lower off-node share.
        let m = tet_box(10, 10, 10, 1.0, 1.0, 1.0);
        let nodes = 4;
        let cores = 4;
        let nparts = (nodes * cores) as PartId;
        let hybrid = two_level(&m, nodes, cores);
        let flat = partition_mesh(&m, nodes * cores);
        let oblivious: Vec<PartId> = flat.iter().map(|&p| (p * 7 + 3) % nparts).collect();
        let sh = off_node_share(&m, &hybrid, cores, Dim::Vertex);
        let so = off_node_share(&m, &oblivious, cores, Dim::Vertex);
        assert!(
            sh < so - 0.05,
            "hybrid off-node share {sh:.3} should clearly beat oblivious {so:.3}"
        );
        // Most of the hybrid's boundary stays on-node.
        assert!(sh < 0.75, "hybrid off-node share too high: {sh:.3}");
    }

    #[test]
    fn degenerate_machine_shapes() {
        let m = tri_rect(6, 6, 1.0, 1.0);
        let flat = partition_mesh(&m, 4);
        // 1 node × k cores: the flat k-way partition, all boundary on-node.
        let labels = two_level(&m, 1, 4);
        assert_eq!(labels, flat);
        assert_eq!(off_node_share(&m, &labels, 4, Dim::Vertex), 0.0);
        // k nodes × 1 core: the flat partition too; all boundary off-node.
        let labels = two_level(&m, 4, 1);
        assert_eq!(labels, flat);
        assert_eq!(off_node_share(&m, &labels, 1, Dim::Vertex), 1.0);
    }

    #[test]
    fn serial_hier_matches_flat_on_flat_machine() {
        let m = tri_rect(12, 12, 1.0, 1.0);
        let flat = partition_mesh(&m, 8);
        let hier = partition_mesh_hier(&m, 8, &MachineModel::flat(8), HierOpts::default());
        assert_eq!(flat, hier);
        let hier1 = partition_mesh_hier(&m, 8, &MachineModel::new(1, 8), HierOpts::default());
        assert_eq!(flat, hier1);
    }

    #[test]
    fn serial_hier_balances_and_reduces_off_node_share() {
        let m = tet_box(10, 10, 10, 1.0, 1.0, 1.0);
        let machine = MachineModel::new(4, 4);
        let labels = partition_mesh_hier(&m, 16, &machine, HierOpts::default());
        let mut loads = vec![0f64; 16];
        for e in m.iter(m.elem_dim_t()) {
            loads[labels[e.idx()] as usize] += 1.0;
        }
        assert!(loads.iter().all(|&l| l > 0.0), "{loads:?}");
        assert!(imbalance(&loads) < 1.15, "{loads:?}");
        // Node-major numbering keeps most boundary on-node.
        let sh = off_node_share(&m, &labels, 4, Dim::Vertex);
        assert!(sh < 0.75, "off-node share {sh:.3}");
    }
}
