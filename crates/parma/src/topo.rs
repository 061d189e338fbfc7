//! Topology-aware diffusion (the CERFACS hardware-locality scheme,
//! arXiv:2008.00832, applied to ParMA).
//!
//! ParMA as described in §III-A balances against a *flat* part graph: every
//! neighbour is an equally good migration target. On a real machine the
//! part → rank → node placement makes some boundaries cheap (shared memory)
//! and some expensive (network). [`TopologyOpts`] carries the
//! [`MachineModel`] into [`crate::improve_weighted`] and friends, where it
//! changes two things:
//!
//! * **candidate ordering/filtering** ([`crate::candidates`]): on-node
//!   neighbours come first, and off-node candidates are dropped entirely
//!   when the on-node deficits can absorb the heavy part's excess;
//! * **selection gating** ([`crate::select`]): each cavity's exact
//!   off-node boundary-pair delta is computed from the residence sets of
//!   its closure, and cavities that create new off-node boundary are
//!   rejected unless the balance credit pays for them at
//!   `off_node_penalty` pairs per unit of load — or unless the heavy part
//!   has no on-node candidate at all, in which case the gate relaxes so
//!   cross-node diffusion can still make progress.
//!
//! On a flat machine ([`MachineModel::flat`] or a single node) the options
//! are inert and diffusion is byte-identical to the topology-blind path.

use pumi_core::{DistMesh, PartMap};
use pumi_pcu::{Comm, MachineModel};
use pumi_util::PartId;

/// Machine awareness for ParMA diffusion.
///
/// ```
/// use parma::{ImproveOpts, TopologyOpts};
/// use pumi_pcu::MachineModel;
///
/// // 2 nodes × 4 cores; each new off-node boundary pair must be paid for
/// // by 2 units of balance improvement.
/// let topo = TopologyOpts::new(MachineModel::new(2, 4)).off_node_penalty(2.0);
/// assert!(!topo.is_flat());
/// let opts = ImproveOpts::default().topo(topo);
/// assert!(opts.topo.is_some());
///
/// // A flat machine has no hierarchy: the options are inert.
/// assert!(TopologyOpts::new(MachineModel::flat(8)).is_flat());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TopologyOpts {
    /// The node/core layout parts are placed on.
    pub machine: MachineModel,
    /// Off-node boundary pairs a migration may create per unit of balance
    /// credit (entities removed from the heavy part). Higher = stricter.
    pub off_node_penalty: f64,
}

impl TopologyOpts {
    /// Topology awareness for `machine` with the default penalty (1.0).
    pub fn new(machine: MachineModel) -> TopologyOpts {
        TopologyOpts {
            machine,
            off_node_penalty: 1.0,
        }
    }

    /// Set the off-node penalty.
    pub fn off_node_penalty(mut self, p: f64) -> Self {
        self.off_node_penalty = p;
        self
    }

    /// Whether the machine has no usable hierarchy (1 core per node, or a
    /// single node): topology awareness is a no-op.
    pub fn is_flat(&self) -> bool {
        self.machine.cores_per_node == 1 || self.machine.nodes == 1
    }

    /// The node hosting part `p` under `map`.
    pub fn node_of_part(&self, map: &PartMap, p: PartId) -> usize {
        self.machine.node_of(map.rank_of(p))
    }
}

/// The on-/off-node split of the part-boundary surface. Copies are counted
/// once per (entity, remote copy) direction world-wide; bytes are the
/// gid-sized (8 B) proxy for what one boundary sync of that surface ships.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundarySplit {
    /// Boundary copies whose two holders share a node.
    pub on_copies: u64,
    /// Boundary copies whose two holders sit on different nodes.
    pub off_copies: u64,
}

impl BoundarySplit {
    /// On-node surface in proxy bytes (8 per copy).
    pub fn on_bytes(&self) -> u64 {
        self.on_copies * 8
    }

    /// Off-node surface in proxy bytes (8 per copy).
    pub fn off_bytes(&self) -> u64 {
        self.off_copies * 8
    }
}

/// Measure the on-/off-node split of `dm`'s part-boundary surface under
/// `machine`. Collective; every rank returns the same world total.
pub fn off_node_boundary(comm: &Comm, dm: &DistMesh, machine: &MachineModel) -> BoundarySplit {
    let mut on = 0u64;
    let mut off = 0u64;
    for p in &dm.parts {
        let my_node = machine.node_of(dm.map.rank_of(p.id));
        for (e, remotes) in p.shared_entities() {
            if p.is_ghost(e) {
                continue;
            }
            for &(q, _) in remotes {
                let qn = machine.node_of(dm.map.rank_of(q));
                if qn == my_node {
                    on += 1;
                } else {
                    off += 1;
                }
            }
        }
    }
    BoundarySplit {
        on_copies: comm.allreduce_sum_u64(on),
        off_copies: comm.allreduce_sum_u64(off),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_core::distribute;
    use pumi_meshgen::tri_rect;
    use pumi_partition::partition_mesh;

    #[test]
    fn boundary_split_counts_match_total_surface() {
        let machine = MachineModel::new(2, 2);
        pumi_pcu::execute_opts(machine, pumi_pcu::WorldOpts::default(), |c| {
            let m = tri_rect(8, 8, 1.0, 1.0);
            let labels = partition_mesh(&m, 4);
            let dm = distribute(c, PartMap::contiguous(4, 4), &m, &labels);
            let machine = c.machine();
            let split = off_node_boundary(c, &dm, &machine);
            // Total copies = the machine-oblivious count.
            let mut total = 0u64;
            for p in &dm.parts {
                for (e, remotes) in p.shared_entities() {
                    if !p.is_ghost(e) {
                        total += remotes.len() as u64;
                    }
                }
            }
            let total = c.allreduce_sum_u64(total);
            assert_eq!(split.on_copies + split.off_copies, total);
            assert!(total > 0);
            assert_eq!(split.off_bytes(), split.off_copies * 8);
        });
    }

    #[test]
    fn flat_machine_has_no_on_node_surface() {
        pumi_pcu::execute(4, |c| {
            let m = tri_rect(8, 8, 1.0, 1.0);
            let labels = partition_mesh(&m, 4);
            let dm = distribute(c, PartMap::contiguous(4, 4), &m, &labels);
            let machine = c.machine();
            let split = off_node_boundary(c, &dm, &machine);
            assert_eq!(split.on_copies, 0);
            assert!(split.off_copies > 0);
        });
    }
}
