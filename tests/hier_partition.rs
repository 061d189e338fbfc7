//! Hierarchy-aware partitioning, cross-crate guarantees:
//!
//! 1. On a flat machine the two-level labels are *exactly* the flat
//!    labels — property-tested over mesh sizes and part counts.
//! 2. On a two-node machine under the adversarial chaos scheduler,
//!    topology-aware ParMA with a prohibitive off-node penalty never
//!    increases the off-node boundary bytes round over round.

use parma::{improve, off_node_boundary, ImproveOpts, Priority, TopologyOpts};
use proptest::prelude::*;
use pumi_core::{distribute, PartMap};
use pumi_meshgen::tri_rect;
use pumi_partition::{partition_mesh, partition_mesh_hier, HierOpts};
use pumi_pcu::{execute_opts, MachineModel, SchedMode, WorldOpts};
use pumi_util::PartId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `partition_mesh_hier` on a flat machine, and on a single node, is
    /// label-identical to `partition_mesh`.
    #[test]
    fn flat_machine_hier_equals_flat_path(
        nx in 6usize..12,
        ny in 6usize..12,
        k in 2usize..5,
    ) {
        let nparts = 2 * k;
        let m = tri_rect(nx, ny, 1.0, 1.0);
        let flat_labels = partition_mesh(&m, nparts);
        for machine in [MachineModel::flat(nparts), MachineModel::new(1, nparts)] {
            let hier_labels = partition_mesh_hier(&m, nparts, &machine, HierOpts::default());
            prop_assert_eq!(&flat_labels, &hier_labels, "labels diverge on {:?}", machine);
        }
    }
}

/// Four uneven x-strips on a 2-node × 2-core machine: part 0 (on node 0)
/// is heavy, its on-node neighbor part 1 is light, so diffusion has
/// on-node room to balance into.
fn uneven_strips(c: &pumi_pcu::Comm) -> pumi_core::DistMesh {
    let serial = tri_rect(16, 8, 4.0, 2.0);
    let cuts = [2.2, 2.8, 3.4];
    let d = serial.elem_dim_t();
    let mut labels = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        let x = serial.centroid(e)[0];
        labels[e.idx()] = cuts.iter().filter(|&&cut| x >= cut).count() as PartId;
    }
    distribute(c, PartMap::contiguous(4, 4), &serial, &labels)
}

/// Under a prohibitive off-node penalty the selection gate only admits
/// cavities whose off-node pair delta is non-positive, so repeated
/// topology-aware improvement must never grow the off-node boundary —
/// round over round, under adversarial frame delivery.
fn offnode_monotone_under_chaos(seed: u64) {
    let machine = MachineModel::new(2, 2);
    let opts = WorldOpts::default().sched(SchedMode::Chaos(seed));
    execute_opts(machine, opts, |c| {
        let mut dm = uneven_strips(c);
        let topo = TopologyOpts::new(machine).off_node_penalty(1e12);
        let pri: Priority = "Face".parse().unwrap();
        let mut prev = off_node_boundary(c, &dm, &machine).off_bytes();
        for round in 1..=3 {
            improve(
                c,
                &mut dm,
                &pri,
                ImproveOpts::new().tol(0.05).max_iters(40).topo(topo),
            );
            let now = off_node_boundary(c, &dm, &machine).off_bytes();
            assert!(
                now <= prev,
                "seed {seed} round {round}: off-node boundary grew {prev} -> {now} bytes"
            );
            prev = now;
        }
    });
}

#[test]
fn offnode_monotone_chaos_seed_1() {
    offnode_monotone_under_chaos(1);
}

#[test]
fn offnode_monotone_chaos_seed_7() {
    offnode_monotone_under_chaos(7);
}
