//! Quickstart: the PUMI workflow end to end on a small box mesh.
//!
//! Builds a tet mesh, partitions it to 4 parts on 2 simulated ranks,
//! inspects the partition model, migrates elements, adds a ghost layer, and
//! synchronizes a vertex field — the §II feature set in ~100 lines.
//!
//! Run: `cargo run --release --example quickstart`

use pumi_check::{check_dist, CheckOpts};
use pumi_core::numbering::number_owned;
use pumi_core::overlap::{clear_overlap, Overlap, Reduction};
use pumi_core::{distribute, migrate, MigrationPlan, PartMap, PtnModel};
use pumi_field::{dist_field, Field, FieldShape, FieldSync};
use pumi_meshgen::tet_box;
use pumi_partition::partition_mesh;
use pumi_pcu::execute;
use pumi_util::{Dim, FxHashMap, PartId};

fn main() {
    // A serial mesh: 6*6*6*6 = 1296 tets of the unit box, fully classified
    // against the box geometric model.
    let serial = tet_box(6, 6, 6, 1.0, 1.0, 1.0);
    println!("serial mesh: {serial:?}");

    // Partition the element dual graph to 4 parts (the Zoltan-equivalent
    // baseline), then run 2 simulated MPI ranks with 2 parts each.
    let nparts = 4;
    let labels = partition_mesh(&serial, nparts);

    let reports = execute(2, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, 2), &serial, &labels);
        check_dist(c, &dm, CheckOpts::all()).expect("valid after distribute");

        // Inspect the partition model of the first local part (Fig 4).
        let part = &dm.parts[0];
        let pm = PtnModel::build(part);
        let neighbors = PtnModel::neighbors(part, Dim::Vertex);
        let mut lines = vec![format!(
            "part {}: {:?}, {} partition-model entities, neighbors {:?}",
            part.id,
            part.mesh,
            pm.ents.len(),
            neighbors
        )];

        // Migrate: part 0 hands 10 boundary elements to its first neighbor.
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        if part.id == 0 {
            if let Some(&to) = neighbors.first() {
                let mut plan = MigrationPlan::new();
                for (s, remotes) in part.shared_entities() {
                    if plan.len() >= 10 || s.dim() != Dim::Face {
                        continue;
                    }
                    if remotes.iter().any(|&(q, _)| q == to) {
                        for e in part.mesh.up_ents(s) {
                            plan.send(e, to);
                        }
                    }
                }
                plans.insert(0, plan);
            }
        }
        let stats = migrate(c, &mut dm, &plans);
        check_dist(c, &dm, CheckOpts::all()).expect("valid after migrate");
        lines.push(format!(
            "migrated {} elements ({} entity records)",
            stats.elements_moved, stats.entities_sent
        ));

        // One ghost layer bridged through vertices (read-only copies),
        // grown through the star-forest overlap.
        let mut ov = Overlap::from_dist(&dm).with_bridge(Dim::Vertex);
        ov.grow(c, &mut dm, 1);
        let ghosts = dm.global_sum(c, |p| p.num_ghosts() as u64);
        lines.push(format!(
            "grew a depth-{} overlap: {ghosts} ghost entity copies",
            ov.depth()
        ));
        clear_overlap(&mut dm);

        // Global vertex numbering + an assembled vertex field.
        let nvtx = number_owned(c, &mut dm, Dim::Vertex, "gvn");
        let template = Field::new("mass", FieldShape::Linear, 1);
        let mut fields = dist_field(&dm, &template);
        for (slot, part) in dm.parts.iter().enumerate() {
            for v in part.mesh.iter(Dim::Vertex) {
                // Each part contributes 1 per local copy; the Add-sync
                // sums contributions across part boundaries.
                fields[slot].set_scalar(v, 1.0);
            }
        }
        let ov = Overlap::from_dist(&dm);
        fields.sync(c, &dm, &ov, Reduction::Add);
        lines.push(format!("numbered {nvtx} global vertices"));
        (c.rank() == 0).then_some(lines)
    });

    for line in reports.into_iter().flatten().flatten() {
        println!("{line}");
    }
    println!("quickstart complete");
}
