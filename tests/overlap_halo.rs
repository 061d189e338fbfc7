//! Depth-k halo property: a nodal Add-assembly synced through a depth-k
//! star-forest overlap on chaos-scheduled ranks is *bitwise* identical to
//! the same assembly on one part — for every copy, including every ghost.
//!
//! Element weights are small exact integers, so floating-point Add is
//! associative here and any summation order must reproduce the serial
//! answer to the last bit; a wrong share link, a missed leaf, or a
//! double-counted ghost contribution all shift the integer totals. The
//! structural hash (owned, non-ghost entities) pins the mesh itself to the
//! 1-part reference, and the typed checker verifies overlap closure and
//! share symmetry after every growth.

use std::collections::BTreeMap;

use pumi_repro::check::{check_dist, check_overlap, CheckOpts};
use pumi_repro::core::overlap::{Overlap, Reduction};
use pumi_repro::core::{distribute, DistMesh, PartMap};
use pumi_repro::field::{dist_field, Field, FieldShape, FieldSync};
use pumi_repro::io::struct_hash;
use pumi_repro::meshgen::tri_rect;
use pumi_repro::partition::partition_mesh;
use pumi_repro::pcu::{execute, execute_opts, Comm, MachineModel, SchedMode, WorldOpts};
use pumi_repro::util::{Dim, GlobalId, MeshEnt};

fn mesh() -> pumi_repro::mesh::Mesh {
    tri_rect(10, 8, 1.0, 1.0)
}

/// Exactly-representable integer element weight, derived from the
/// partition-invariant element gid.
fn weight(gid: GlobalId) -> f64 {
    (gid % 7 + 1) as f64
}

/// Assemble element weights onto closure vertices: every non-ghost element
/// contributes `weight(elem_gid)` to each of its vertices.
fn assemble(dm: &DistMesh, fields: &mut [Field]) {
    for (slot, part) in dm.parts.iter().enumerate() {
        fields[slot].fill(&part.mesh, &[0.0]);
        for e in part.mesh.elems() {
            if part.is_ghost(e) {
                continue;
            }
            let w = weight(part.gid_of(e));
            for &v in part.mesh.verts_of(e) {
                let v = MeshEnt::vertex(v);
                let m = fields[slot].get_scalar(v).unwrap_or(0.0);
                fields[slot].set_scalar(v, m + w);
            }
        }
    }
}

/// The 1-part reference: structural hash plus the assembled nodal values
/// keyed by vertex gid (as bits — the comparison is bitwise).
fn serial_reference(serial: &pumi_repro::mesh::Mesh) -> (u64, BTreeMap<GlobalId, u64>) {
    let labels = vec![0u32; serial.index_space(serial.elem_dim_t())];
    let out = execute(1, |c| {
        let dm = distribute(c, PartMap::contiguous(1, 1), serial, &labels);
        let template = Field::new("mass", FieldShape::Linear, 1);
        let mut fields = dist_field(&dm, &template);
        assemble(&dm, &mut fields);
        let part = &dm.parts[0];
        let mut vals = BTreeMap::new();
        for v in part.mesh.iter(Dim::Vertex) {
            let x = fields[0].get_scalar(v).expect("assembled vertex");
            vals.insert(part.gid_of(v), x.to_bits());
        }
        (struct_hash(c, &dm), vals)
    });
    out.into_iter().next().unwrap()
}

/// Grow a depth-k overlap on 4 chaos-scheduled ranks, assemble, sync(Add),
/// and compare every copy — boundary and ghost — against the reference.
fn halo_matches_serial(
    c: &Comm,
    serial: &pumi_repro::mesh::Mesh,
    depth: usize,
    want: &(u64, BTreeMap<GlobalId, u64>),
) {
    let labels = partition_mesh(serial, 4);
    let mut dm = distribute(c, PartMap::contiguous(4, 4), serial, &labels);
    let mut ov = Overlap::from_dist(&dm);
    ov.grow(c, &mut dm, depth);
    assert_eq!(ov.depth(), depth);
    check_dist(c, &dm, CheckOpts::all()).expect("post-grow invariants");
    check_overlap(c, &dm, &ov).expect("post-grow share symmetry");
    assert_eq!(
        struct_hash(c, &dm),
        want.0,
        "depth {depth}: structural hash drifted from 1-part reference"
    );

    let template = Field::new("mass", FieldShape::Linear, 1);
    let mut fields = dist_field(&dm, &template);
    assemble(&dm, &mut fields);
    fields.sync(c, &dm, &ov, Reduction::Add);

    for (slot, part) in dm.parts.iter().enumerate() {
        for v in part.mesh.iter(Dim::Vertex) {
            let gid = part.gid_of(v);
            let got = fields[slot].get_scalar(v).expect("synced vertex").to_bits();
            let wanted = *want.1.get(&gid).expect("vertex gid in reference");
            assert_eq!(
                got,
                wanted,
                "depth {depth}: part {} vertex gid {gid} (ghost: {}) is {} want {}",
                part.id,
                part.is_ghost(v),
                f64::from_bits(got),
                f64::from_bits(wanted)
            );
        }
    }
}

#[test]
fn depth_k_halo_assembly_is_bitwise_serial() {
    let serial = mesh();
    let want = serial_reference(&serial);
    for seed in [1u64, 7u64] {
        let opts = WorldOpts::default().sched(SchedMode::Chaos(seed));
        for depth in [1usize, 2, 3] {
            execute_opts(MachineModel::flat(4), opts, |c| {
                halo_matches_serial(c, &serial, depth, &want);
            });
        }
    }
}
