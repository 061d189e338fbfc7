//! Label digests: the graph partitioner's element labels must never change.
//!
//! Three partitions are pinned by the FNV-1a hash of their label vectors
//! (little-endian `u32` per element handle index): the 8-part two-level
//! partition of the `migrate_band` benchmark mesh, a 16-part two-level
//! partition of a triangle mesh, and the 32-part flat partition of the
//! reduced AAA-proxy vessel that `table2_balance --small` starts from. The
//! values were taken before the bisection's selection loops were replaced
//! by heaps, so they prove that rewrite (and any later one) moved no label:
//! every T0 table, every distributed mesh built from these labels, and the
//! benchmark's set-up stay what they were.

use pumi_geom::builders::VesselSpec;
use pumi_meshgen::{jitter, tet_box, tri_rect, vessel_tet};
use pumi_partition::{partition_mesh, partition_mesh_hier, HierOpts};
use pumi_pcu::MachineModel;
use pumi_util::PartId;

fn fnv(labels: &[PartId]) -> u64 {
    labels
        .iter()
        .flat_map(|l| l.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// `migrate_band`'s mesh and call: 16 464 jittered tets, 8 parts on two
/// nodes of two cores.
#[test]
fn hier_tet_box_labels_are_pinned() {
    let mut m = tet_box(14, 14, 14, 1.0, 1.0, 1.0);
    jitter(&mut m, 0.15, 1);
    let labels = partition_mesh_hier(&m, 8, &MachineModel::new(2, 2), HierOpts::default());
    assert_eq!(labels.len(), 16_464);
    assert_eq!(
        fnv(&labels),
        0xD3E458BCD8A2AE62,
        "tet_box(14) hier labels moved"
    );
}

/// The same call on triangles: 18 432 elements, 16 parts on two nodes of
/// two cores.
#[test]
fn hier_tri_rect_labels_are_pinned() {
    let m = tri_rect(96, 96, 1.0, 1.0);
    let labels = partition_mesh_hier(&m, 16, &MachineModel::new(2, 2), HierOpts::default());
    assert_eq!(labels.len(), 18_432);
    assert_eq!(
        fnv(&labels),
        0x71EB820FF852A31E,
        "tri_rect(96) hier labels moved"
    );
}

/// The flat path on `table2_balance --small`'s vessel: 15 360 tets, 32
/// parts.
#[test]
fn flat_vessel_labels_are_pinned() {
    let mut m = vessel_tet(VesselSpec::aaa(), 8, 40);
    jitter(&mut m, 0.25, 20120901);
    let labels = partition_mesh(&m, 32);
    assert_eq!(labels.len(), 15_360);
    assert_eq!(fnv(&labels), 0x760D8887B97F85A0, "AAA vessel labels moved");
}
