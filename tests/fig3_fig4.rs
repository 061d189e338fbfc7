//! Figures 3, 4 and 6 as executable assertions.
//!
//! Fig 3: a 2D mesh distributed to three parts, P0 and P1 on node i, P2 on
//! node j; the vertex `M0_i` is duplicated on all three parts, `M0_j` on
//! {P0, P1} only. Fig 4: the corresponding partition model — `M0_i`
//! classifies on the partition vertex `P^0_1`, the two-part boundary
//! entities on partition edges, interior entities on partition faces.
//! Fig 6: the P0–P1 boundary is on-node (implicit), the boundaries to P2
//! are off-node (explicit).

use pumi_check::{check_dist, CheckOpts};
use pumi_core::twolevel::boundary_split;
use pumi_core::{distribute, PartMap, PtnModel};
use pumi_meshgen::tri_rect;
use pumi_pcu::{execute_opts, MachineModel, WorldOpts};
use pumi_util::{Dim, MeshEnt, PartId};

/// Build the three-part layout: a rectangle split into left/right halves on
/// node i (parts 0, 1) and a bottom strip on node j (part 2), so one lattice
/// vertex is shared by all three parts.
fn three_part_labels(serial: &pumi_mesh::Mesh) -> Vec<PartId> {
    let d = serial.elem_dim_t();
    let mut labels = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        let c = serial.centroid(e);
        labels[e.idx()] = if c[1] < 0.5 {
            2
        } else if c[0] < 0.5 {
            0
        } else {
            1
        };
    }
    labels
}

#[test]
fn fig3_residence_and_fig4_partition_model() {
    // 2 cores on node 0 (parts 0, 1), 1 core on node 1 (part 2): model the
    // machine as 2 nodes × 2 cores and leave one slot idle.
    let machine = MachineModel::new(2, 2);
    execute_opts(machine, WorldOpts::default(), |c| {
        let serial = tri_rect(4, 4, 1.0, 1.0);
        let labels = three_part_labels(&serial);
        // parts 0,1 -> ranks 0,1 (node 0); part 2 -> rank 2 (node 1).
        let map = pumi_core::PartMap::from_ranks(vec![0, 1, 2], 4);
        let dm = distribute(c, map, &serial, &labels);
        check_dist(c, &dm, CheckOpts::all()).expect("valid three-part layout");
        let Some(part) = dm.parts.first() else {
            return; // rank 3 hosts no part
        };

        // Find M0_i: the vertex at (0.5, 0.5) where all three parts meet,
        // and M0_j: a vertex on the P0|P1 boundary above it.
        let find = |x: f64, y: f64| -> Option<MeshEnt> {
            part.mesh.iter(Dim::Vertex).find(|&v| {
                let p = part.mesh.coords(v);
                (p[0] - x).abs() < 1e-12 && (p[1] - y).abs() < 1e-12
            })
        };
        if part.id == 0 || part.id == 1 {
            let m0i = find(0.5, 0.5).expect("triple vertex missing");
            assert_eq!(part.residence(m0i), vec![0, 1, 2], "M0_i residence");
            let m0j = find(0.5, 0.75).expect("two-part vertex missing");
            assert_eq!(part.residence(m0j), vec![0, 1], "M0_j residence");
            // Owners: minimum part rule -> P0 owns both.
            assert_eq!(part.owner(m0i), 0);
            assert_eq!(part.owner(m0j), 0);

            // Fig 4: partition classification.
            let pm = PtnModel::build(part);
            let ci = pm.classify(m0i);
            assert_eq!(ci.dim, 0, "M0_i on a partition vertex");
            assert_eq!(ci.parts, vec![0, 1, 2]);
            let cj = pm.classify(m0j);
            assert_eq!(cj.dim, 1, "M0_j on a partition edge");
            assert_eq!(cj.parts, vec![0, 1]);
            // An interior vertex classifies on this part's partition face.
            let interior = part
                .mesh
                .iter(Dim::Vertex)
                .find(|&v| !part.is_shared(v))
                .expect("no interior vertex");
            let cint = pm.classify(interior);
            assert_eq!(cint.dim, 2);
            assert_eq!(cint.parts, vec![part.id]);
        }
        if part.id == 2 {
            let m0i = find(0.5, 0.5).expect("triple vertex on P2");
            assert_eq!(part.residence(m0i), vec![0, 1, 2]);
            assert!(find(0.5, 0.75).is_none(), "M0_j must not exist on P2");
        }
    });
}

#[test]
fn fig6_on_node_vs_off_node_boundaries() {
    let machine = MachineModel::new(2, 2);
    execute_opts(machine, WorldOpts::default(), |c| {
        let serial = tri_rect(4, 4, 1.0, 1.0);
        let labels = three_part_labels(&serial);
        let map = pumi_core::PartMap::from_ranks(vec![0, 1, 2], 4);
        let dm = distribute(c, map, &serial, &labels);
        let Some(part) = dm.parts.first() else { return };
        let split = boundary_split(part, &dm.map, machine);
        match part.id {
            0 | 1 => {
                // P0 and P1 share an on-node boundary (each other) and an
                // off-node boundary (P2).
                assert!(
                    split.on_node_total() > 0,
                    "P{}: no on-node boundary",
                    part.id
                );
                assert!(
                    split.off_node_total() > 0,
                    "P{}: no off-node boundary",
                    part.id
                );
                // Entities shared ONLY with the sibling are on-node.
                let sibling = part.id ^ 1;
                for (e, remotes) in part.shared_entities() {
                    if remotes.len() == 1 && remotes[0].0 == sibling {
                        // This is exactly an implicit (dashed, Fig 3)
                        // on-node boundary entity.
                        let _ = e;
                    }
                }
            }
            2 => {
                // Everything P2 shares crosses nodes.
                assert_eq!(split.on_node_total(), 0);
                assert!(split.off_node_total() > 0);
            }
            _ => unreachable!(),
        }
    });
}

#[test]
fn contiguous_map_places_parts_node_major() {
    let machine = MachineModel::new(3, 4);
    let map = PartMap::contiguous(machine.nranks(), machine.nranks());
    assert_eq!(map.nparts(), 12);
    for p in 0..12u32 {
        assert_eq!(map.rank_of(p), p as usize);
        assert_eq!(machine.node_of(map.rank_of(p)), p as usize / 4);
    }
}
