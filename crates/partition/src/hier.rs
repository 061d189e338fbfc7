//! Hierarchy-aware two-level partitioning against a [`MachineModel`].
//!
//! The CERFACS hardware-locality scheme (arXiv:2008.00832): partition the
//! part graph onto *nodes* first, minimizing the off-node edge cut, then
//! place each node's parts on its cores for core-level balance. Because the
//! node-level pass sees the boundary-copy weights between parts, the
//! expensive network surface is decided where there are few, large pieces;
//! the intra-node placement only shuffles parts across shared memory.
//!
//! Two entry points:
//! * [`partition_mesh_hier`] — serial: label a mesh's elements directly,
//!   node blocks first, then per-core splits nested inside them;
//! * [`partition_hier`] — distributed: take an already-distributed mesh,
//!   build the boundary-copy-weighted part graph collectively, and compute
//!   a part → node → rank placement ([`HierPartition`]) on every rank
//!   identically.
//!
//! On a flat machine ([`MachineModel::flat`], or a single node) there is no
//! hierarchy to exploit and both entry points fall back to the flat path:
//! [`crate::partition_mesh`] for the serial labeling, and the contiguous
//! part map ([`PartMap::contiguous`]) for the distributed placement.

use crate::graph::DualGraph;
use crate::local::split_graph;
use crate::multilevel::partition_graph;
use pumi_core::dist::{DistMesh, PartMap};
use pumi_mesh::Mesh;
use pumi_pcu::{Comm, MachineModel};
use pumi_util::{Dim, PartId};

/// The argument the hierarchical partitioners take. It has no fields: the
/// node-level graph partitioner runs with its fixed constants. The type
/// stays so that callers naming `HierOpts::default()` keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierOpts {}

/// A part → node → rank placement computed by [`partition_hier`].
#[derive(Debug, Clone)]
pub struct HierPartition {
    /// Node hosting each part.
    pub node_of_part: Vec<u32>,
    /// Rank hosting each part (consistent with `node_of_part` under the
    /// machine model used to compute it).
    pub rank_of_part: Vec<usize>,
    /// Boundary-copy weight crossing nodes under this placement.
    pub off_node_cut: f64,
    /// Total boundary-copy weight between distinct parts.
    pub total_cut: f64,
}

impl HierPartition {
    /// The placement as a [`PartMap`] usable with
    /// [`pumi_core::dist::distribute`].
    pub fn part_map(&self, nranks: usize) -> PartMap {
        PartMap::from_ranks(self.rank_of_part.clone(), nranks)
    }
}

/// Serial hierarchical mesh partition: `nparts` element labels for a
/// machine, node blocks first (minimizing the node-level edge cut), then
/// `nparts / machine.nodes` parts nested inside each block. Parts are
/// numbered node-major, so part `p` belongs on node
/// `p / (nparts / machine.nodes)` — the numbering [`PartMap::contiguous`]
/// places correctly.
///
/// On a flat or single-node machine this is exactly
/// [`crate::partition_mesh`].
///
/// # Panics
/// Panics if `nparts` is not a positive multiple of `machine.nodes`.
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
    if machine.cores_per_node == 1 || machine.nodes == 1 {
        // No hierarchy to exploit: flat path.
        return crate::partition_mesh(mesh, nparts);
    }
    let g = DualGraph::build(mesh);
    let node_labels = partition_graph(&g, machine.nodes);
    let len = mesh.index_space(mesh.elem_dim_t());
    split_graph(&g, &node_labels, machine.nodes, nparts / machine.nodes, len)
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

/// Distributed hierarchical placement: build the boundary-copy-weighted
/// part graph of `dm` collectively, partition it onto `machine.nodes` nodes
/// minimizing the off-node cut, then assign each node's parts to its cores
/// by longest-processing-time load balancing. Every rank computes the same
/// [`HierPartition`] (the part graph is allreduced), so the result can be
/// used directly to build a new [`PartMap`].
///
/// On a flat machine ([`MachineModel::flat`]) the placement is exactly
/// [`PartMap::contiguous`] — the existing flat path — so topology-blind
/// callers lose nothing. On a single-node machine the node level is
/// trivial and only the core-balance placement runs.
///
/// Collective: every rank must call it.
///
/// ```
/// use pumi_core::dist::{distribute, PartMap};
/// use pumi_meshgen::tri_rect;
/// use pumi_partition::hier::{partition_hier, HierOpts};
/// use pumi_partition::partition_mesh;
/// use pumi_pcu::{execute_opts, MachineModel, WorldOpts};
///
/// let machine = MachineModel::new(2, 2); // 2 nodes × 2 cores
/// execute_opts(machine, WorldOpts::default(), |c| {
///     let m = tri_rect(8, 8, 1.0, 1.0);
///     let labels = partition_mesh(&m, 8);
///     let dm = distribute(c, PartMap::contiguous(8, c.nranks()), &m, &labels);
///     let h = partition_hier(c, &dm, &c.machine(), HierOpts::default());
///     assert_eq!(h.node_of_part.len(), 8);
///     assert!(h.off_node_cut <= h.total_cut);
///     let map = h.part_map(c.nranks());
///     assert_eq!(map.nparts(), 8);
/// });
/// ```
pub fn partition_hier(
    comm: &Comm,
    dm: &DistMesh,
    machine: &MachineModel,
    _opts: HierOpts,
) -> HierPartition {
    let nparts = dm.map.nparts();
    let nranks = machine.nranks();
    // Local contributions: P×P boundary-copy counts, then P element loads.
    let mut flat = vec![0f64; nparts * nparts + nparts];
    for p in &dm.parts {
        flat[nparts * nparts + p.id as usize] += p.mesh.num_elems() as f64;
        for (e, remotes) in p.shared_entities() {
            if p.is_ghost(e) {
                continue;
            }
            for &(q, _) in remotes {
                flat[p.id as usize * nparts + q as usize] += 1.0;
            }
        }
    }
    let flat = comm.allreduce_sum_f64_vec(&flat);
    let (wmat, loads) = flat.split_at(nparts * nparts);

    let fallback = || -> Vec<u32> {
        let map = PartMap::contiguous(nparts, nranks);
        (0..nparts)
            .map(|p| machine.node_of(map.rank_of(p as PartId)) as u32)
            .collect()
    };

    let node_of_part: Vec<u32> = if machine.cores_per_node == 1 || machine.nodes == 1 {
        fallback()
    } else {
        // Symmetrized part graph in CSR form; vertex weight = element load.
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        for p in 0..nparts {
            for q in 0..nparts {
                if q == p {
                    continue;
                }
                let w = wmat[p * nparts + q] + wmat[q * nparts + p];
                if w > 0.0 {
                    adjncy.push(q as u32);
                    adjwgt.push(0.5 * w);
                }
            }
            xadj.push(adjncy.len() as u32);
        }
        let pg = DualGraph {
            xadj,
            adjncy,
            adjwgt,
            elems: Vec::new(),
            vwgt: loads.to_vec(),
        };
        let labels = partition_graph(&pg, machine.nodes);
        // Every node must receive at least one part; if the coarse part
        // graph is too lumpy for that, a contiguous placement is safer.
        let mut populated = vec![false; machine.nodes];
        for &l in &labels {
            populated[l as usize] = true;
        }
        if populated.iter().all(|&b| b) {
            labels
        } else {
            fallback()
        }
    };

    // Intra-node placement: longest-processing-time onto the node's cores.
    let mut rank_of_part = vec![0usize; nparts];
    for node in 0..machine.nodes {
        let mut parts: Vec<usize> = (0..nparts)
            .filter(|&p| node_of_part[p] == node as u32)
            .collect();
        parts.sort_by(|&a, &b| loads[b].partial_cmp(&loads[a]).unwrap().then(a.cmp(&b)));
        let ranks = machine.ranks_on_node(node);
        let base = ranks.start;
        let mut acc = vec![0f64; ranks.len()];
        for p in parts {
            let (core, _) = acc
                .iter()
                .enumerate()
                .min_by(|&(_, a), &(_, b)| a.partial_cmp(b).unwrap())
                .unwrap();
            acc[core] += loads[p];
            rank_of_part[p] = base + core;
        }
    }

    // Cut accounting under the chosen node assignment.
    let mut off_node_cut = 0.0;
    let mut total_cut = 0.0;
    for p in 0..nparts {
        for q in (p + 1)..nparts {
            let w = wmat[p * nparts + q] + wmat[q * nparts + p];
            if w > 0.0 {
                total_cut += 0.5 * w;
                if node_of_part[p] != node_of_part[q] {
                    off_node_cut += 0.5 * w;
                }
            }
        }
    }

    HierPartition {
        node_of_part,
        rank_of_part,
        off_node_cut,
        total_cut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_mesh;
    use pumi_core::dist::distribute;
    use pumi_meshgen::{tet_box, tri_rect};
    use pumi_util::stats::imbalance;

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
        let nodes = 3;
        let cores = 4;
        let g = DualGraph::build(&m);
        let node_labels = partition_graph(&g, nodes);
        let labels = two_level(&m, nodes, cores);
        // The second level only cuts within a node's block, so a fine
        // part's node is the first level's label for the element.
        for (node, &e) in g.elems.iter().enumerate() {
            assert_eq!(labels[e.idx()] as usize / cores, node_labels[node] as usize);
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

    #[test]
    fn distributed_hier_flat_machine_is_contiguous() {
        pumi_pcu::execute(4, |c| {
            let m = tri_rect(8, 8, 1.0, 1.0);
            let labels = partition_mesh(&m, 8);
            let dm = distribute(c, PartMap::contiguous(8, c.nranks()), &m, &labels);
            let h = partition_hier(c, &dm, &c.machine(), HierOpts::default());
            let map = h.part_map(c.nranks());
            let want = PartMap::contiguous(8, c.nranks());
            for p in 0..8 {
                assert_eq!(map.rank_of(p), want.rank_of(p));
            }
        });
    }

    #[test]
    fn distributed_hier_places_every_part_on_its_node() {
        let machine = MachineModel::new(2, 2);
        pumi_pcu::execute_opts(machine, pumi_pcu::WorldOpts::default(), |c| {
            let m = tri_rect(10, 10, 1.0, 1.0);
            let labels = partition_mesh(&m, 8);
            let dm = distribute(c, PartMap::contiguous(8, c.nranks()), &m, &labels);
            let machine = c.machine();
            let h = partition_hier(c, &dm, &machine, HierOpts::default());
            for p in 0..8 {
                assert_eq!(
                    machine.node_of(h.rank_of_part[p]) as u32,
                    h.node_of_part[p],
                    "part {p} rank/node mismatch"
                );
            }
            assert!(h.total_cut > 0.0);
            assert!(h.off_node_cut <= h.total_cut);
            // Both nodes host parts.
            let mut nodes: Vec<u32> = h.node_of_part.clone();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), 2);
        });
    }

    #[test]
    fn distributed_hier_beats_scrambled_placement() {
        // The hierarchical placement's off-node cut must not exceed the cut
        // of an adversarial (reversed-contiguous) placement of the same
        // parts.
        let machine = MachineModel::new(2, 4);
        pumi_pcu::execute_opts(machine, pumi_pcu::WorldOpts::default(), |c| {
            let m = tet_box(8, 8, 8, 1.0, 1.0, 1.0);
            let labels = partition_mesh(&m, 16);
            let dm = distribute(c, PartMap::contiguous(16, c.nranks()), &m, &labels);
            let machine = c.machine();
            let h = partition_hier(c, &dm, &machine, HierOpts::default());
            // Scrambled: part p on node (p % 2) — interleaved, worst case.
            let mut scrambled = 0.0;
            let mut total = 0.0;
            // Recompute the cut matrix the same way partition_hier does.
            let nparts = 16usize;
            let mut flat = vec![0f64; nparts * nparts];
            for p in &dm.parts {
                for (e, remotes) in p.shared_entities() {
                    if p.is_ghost(e) {
                        continue;
                    }
                    for &(q, _) in remotes {
                        flat[p.id as usize * nparts + q as usize] += 1.0;
                    }
                }
            }
            let flat = c.allreduce_sum_f64_vec(&flat);
            for p in 0..nparts {
                for q in (p + 1)..nparts {
                    let w = 0.5 * (flat[p * nparts + q] + flat[q * nparts + p]);
                    total += w;
                    if p % 2 != q % 2 {
                        scrambled += w;
                    }
                }
            }
            assert!(total > 0.0);
            assert!(
                h.off_node_cut <= scrambled,
                "hier cut {} vs scrambled {}",
                h.off_node_cut,
                scrambled
            );
        });
    }
}
