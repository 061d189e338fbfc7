//! The typed invariant checker passes after every mutating collective in
//! the stack: distribute, migrate, overlap growth, parma improve, and a
//! checkpoint restore. `pumi-check`'s own tests prove the checker *detects*
//! corruption; this suite proves the operations *preserve* the invariants.

use parma::{improve, ImproveOpts, Priority};
use pumi_repro::check::{check_dist, CheckOpts};
use pumi_repro::core::overlap::Overlap;
use pumi_repro::core::{distribute, migrate, DistMesh, MigrationPlan, PartMap};
use pumi_repro::io::{read_checkpoint, write_checkpoint};
use pumi_repro::meshgen::tri_rect;
use pumi_repro::pcu::{execute, Comm};
use pumi_repro::util::{Dim, FxHashMap, PartId};

fn strip_mesh(c: &Comm, nx: usize, split: f64) -> DistMesh {
    let serial = tri_rect(nx, 4, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let mut elem_part = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        elem_part[e.idx()] = if serial.centroid(e)[0] < split { 0 } else { 1 };
    }
    distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part)
}

#[test]
fn invariants_hold_through_migrate_and_ghosting() {
    execute(2, |c| {
        let mut dm = strip_mesh(c, 6, 0.5);
        check_dist(c, &dm, CheckOpts::all()).expect("post-distribute");

        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        if c.rank() == 0 {
            let part = dm.part(0);
            let mut plan = MigrationPlan::new();
            for e in part.mesh.elems() {
                let x = part.mesh.centroid(e);
                if x[0] + x[1] > 0.8 {
                    plan.send(e, 1);
                }
            }
            plans.insert(0, plan);
        }
        migrate(c, &mut dm, &plans);
        check_dist(c, &dm, CheckOpts::all()).expect("post-migrate");

        Overlap::from_dist(&dm)
            .with_bridge(Dim::Vertex)
            .grow(c, &mut dm, 1);
        check_dist(c, &dm, CheckOpts::all()).expect("post-ghost");
    });
}

#[test]
fn invariants_hold_through_improve() {
    execute(2, |c| {
        // 70/30 skew so diffusion actually migrates.
        let mut dm = strip_mesh(c, 10, 0.7);
        let pr: Priority = "Face".parse().unwrap();
        // One diffusion iteration per call, so check_dist sees the mesh
        // after every ParMA migration, until an iteration moves nothing.
        let mut moved = 0;
        for call in 0.. {
            assert!(call < 100, "diffusion did not settle");
            let report = improve(c, &mut dm, &pr, ImproveOpts::default().max_iters(1));
            check_dist(c, &dm, CheckOpts::all())
                .unwrap_or_else(|f| panic!("after improve iteration {call}: {f}"));
            if report.elements_moved == 0 {
                break;
            }
            moved += report.elements_moved;
        }
        assert!(moved > 0, "no migration exercised");
    });
}

#[test]
fn invariants_hold_through_checkpoint_restore() {
    let dir = std::env::temp_dir().join(format!("pumi_invariants_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    execute(2, |c| {
        let dm = strip_mesh(c, 6, 0.5);
        write_checkpoint(c, &dm, &[], &dir).expect("write");
        let restored = read_checkpoint(c, &dir).expect("restore");
        check_dist(c, &restored.dm, CheckOpts::all()).expect("post-restore");
    });
    let _ = std::fs::remove_dir_all(&dir);
}
