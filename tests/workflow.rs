//! End-to-end workflow integration test: the full §II/§III pipeline at test
//! scale — generate → partition → distribute → verify → ParMA improve →
//! ghost → number → assemble — asserting the paper's qualitative outcomes
//! at every stage.

use parma::{improve, EntityLoads, ImproveOpts, Priority};
use pumi_check::{check_dist, CheckOpts};
use pumi_core::numbering::number_owned;
use pumi_core::overlap::{clear_overlap, Overlap, Reduction, Scope};
use pumi_core::{distribute, PartMap};
use pumi_field::{dist_field, Field, FieldShape, FieldSync};
use pumi_geom::builders::VesselSpec;
use pumi_meshgen::{jitter, vessel_tet};
use pumi_partition::{partition_mesh, PartitionQuality};
use pumi_pcu::execute;
use pumi_util::tag::TagKind;
use pumi_util::Dim;

#[test]
fn aaa_pipeline_balances_and_conserves() {
    // ~9k tets, 16 parts, 2 ranks (8 parts/process).
    let spec = VesselSpec::aaa();
    let mut serial = vessel_tet(spec, 6, 42);
    jitter(&mut serial, 0.25, 42);
    serial.assert_valid();
    let nparts = 16;
    let labels = partition_mesh(&serial, nparts);
    let q0 = PartitionQuality::compute(&serial, &labels, nparts);
    // The baseline partitioner balances elements but not vertices.
    assert!(
        q0.imbalance_pct(Dim::Region) < 15.0,
        "rgn {:?}",
        q0.imbalance_pct(Dim::Region)
    );

    let serial_counts = [
        serial.count(Dim::Vertex) as u64,
        serial.count(Dim::Edge) as u64,
        serial.count(Dim::Face) as u64,
        serial.count(Dim::Region) as u64,
    ];

    execute(2, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, 2), &serial, &labels);
        check_dist(c, &dm, CheckOpts::all()).expect("post-distribute");

        // Conservation after distribution.
        for d in Dim::ALL {
            let owned = dm.global_sum(c, |p| {
                p.mesh.iter(d).filter(|&e| p.is_owned(e)).count() as u64
            });
            assert_eq!(owned, serial_counts[d.as_usize()], "owned {d} count");
        }

        // ParMA T1-style improvement.
        let before = EntityLoads::gather(c, &dm);
        let pri: Priority = "Vtx > Rgn".parse().unwrap();
        improve(c, &mut dm, &pri, ImproveOpts::default());
        let after = EntityLoads::gather(c, &dm);
        check_dist(c, &dm, CheckOpts::all()).expect("post-ParMA");
        assert!(
            after.imbalance_pct(Dim::Vertex) <= before.imbalance_pct(Dim::Vertex) + 1e-9,
            "vertex imbalance must not grow: {:.1}% -> {:.1}%",
            before.imbalance_pct(Dim::Vertex),
            after.imbalance_pct(Dim::Vertex)
        );
        // Conservation after migration.
        for d in Dim::ALL {
            let owned = dm.global_sum(c, |p| {
                p.mesh.iter(d).filter(|&e| p.is_owned(e)).count() as u64
            });
            assert_eq!(owned, serial_counts[d.as_usize()], "post-ParMA {d}");
        }

        // Ghost a layer, tag-sync through it, then drop it.
        {
            let pid = dm.parts[0].id;
            let part = dm.part_mut(pid);
            let tid = part.mesh.tags_mut().declare("w", TagKind::Double, 1);
            for e in part.mesh.snapshot(Dim::Region) {
                part.mesh.tags_mut().set_dbl(tid, e, pid as f64);
            }
        }
        let mut ov = Overlap::from_dist(&dm).with_bridge(Dim::Vertex);
        let nghost = ov.grow(c, &mut dm, 1);
        assert!(nghost > 0);
        ov.bcast_tags(c, &mut dm, Scope::Ghosts);
        clear_overlap(&mut dm);
        for p in &dm.parts {
            assert_eq!(p.num_ghosts(), 0);
        }
        check_dist(c, &dm, CheckOpts::all()).expect("post-ghost round trip");

        // Numbering + a P1 assembly that must conserve the vertex count.
        let n = number_owned(c, &mut dm, Dim::Vertex, "gvn");
        assert_eq!(n, serial_counts[0]);
        let template = Field::new("ones", FieldShape::Linear, 1);
        let mut fields = dist_field(&dm, &template);
        for (slot, part) in dm.parts.iter().enumerate() {
            for v in part.mesh.iter(Dim::Vertex) {
                fields[slot].set_scalar(v, 1.0);
            }
        }
        let ov = Overlap::from_dist(&dm);
        fields.sync(c, &dm, &ov, Reduction::Add);
        // Sum of owned accumulated values = total copies of every vertex.
        let mut local = 0.0;
        for (slot, part) in dm.parts.iter().enumerate() {
            for v in part.mesh.iter(Dim::Vertex) {
                if part.is_owned(v) {
                    local += fields[slot].get_scalar(v).unwrap();
                }
            }
        }
        let total = c.allreduce_sum_f64(local);
        let copies = dm.global_sum(c, |p| p.mesh.count(Dim::Vertex) as u64);
        assert_eq!(total as u64, copies);
    });
}

#[test]
fn multiple_parts_per_process_equivalence() {
    // The same 8-part partition hosted on 2 ranks and on 4 ranks must give
    // identical global balance numbers (§II-C: parts per process is a
    // hosting choice, not a semantic one).
    let spec = VesselSpec::aaa();
    let serial = vessel_tet(spec, 5, 20);
    let nparts = 8;
    let labels = partition_mesh(&serial, nparts);
    let pri: Priority = "Vtx > Rgn".parse().unwrap();

    let run = |nranks: usize| -> Vec<f64> {
        let out = execute(nranks, |c| {
            let mut dm = distribute(c, PartMap::contiguous(nparts, nranks), &serial, &labels);
            improve(c, &mut dm, &pri, ImproveOpts::default());
            let loads = EntityLoads::gather(c, &dm);
            (c.rank() == 0).then(|| loads.of(Dim::Vertex).to_vec())
        });
        out.into_iter().flatten().next().unwrap()
    };
    let a = run(2);
    let b = run(4);
    assert_eq!(a, b, "per-part loads must not depend on rank hosting");
}
