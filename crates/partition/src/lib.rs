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
//! * [`hier`] — the hybrid node-then-core partitioner of §II-D:
//!   hierarchy-aware two-level partitioning against a `MachineModel`
//!   (node-level cut minimization, then core placement),
//! * [`quality`] — Table II's statistics: per-dimension means, imbalance
//!   percentages, boundary-copy totals, edge cut.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod hier;
pub mod local;
pub mod multilevel;
pub mod quality;
pub mod sfc;

pub use graph::DualGraph;
pub use hier::{off_node_share, partition_hier, partition_mesh_hier, HierOpts, HierPartition};
pub use local::split_labels;
pub use multilevel::partition_graph;
pub use quality::PartitionQuality;
pub use sfc::sfc_partition;

use pumi_mesh::Mesh;
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
