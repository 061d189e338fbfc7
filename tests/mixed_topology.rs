//! The distributed stack is topology-agnostic: quad and hex meshes go
//! through distribution, migration, ghosting, and balancing the same way
//! simplices do (§II's "general unstructured mesh representation").

use parma::{improve, EntityLoads, ImproveOpts, Priority};
use pumi_check::{check_dist, CheckOpts};
use pumi_core::overlap::{clear_overlap, Overlap};
use pumi_core::{distribute, migrate, MigrationPlan, PartMap};
use pumi_meshgen::{hex_box, quad_rect};
use pumi_pcu::execute;
use pumi_util::{Dim, FxHashMap, PartId};

#[test]
fn hex_mesh_distributes_migrates_and_ghosts() {
    let serial = hex_box(4, 4, 4, 1.0, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let mut labels = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        labels[e.idx()] = if serial.centroid(e)[2] < 0.5 { 0 } else { 1 };
    }
    let nregions = serial.count(Dim::Region) as u64;

    execute(2, |c| {
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        check_dist(c, &dm, CheckOpts::all()).expect("post-distribute");

        // Migrate a layer of hexes across.
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        if c.rank() == 0 {
            let part = dm.part(0);
            let mut plan = MigrationPlan::new();
            for e in part.mesh.elems() {
                if part.mesh.centroid(e)[2] > 0.3 {
                    plan.send(e, 1);
                }
            }
            plans.insert(0, plan);
        }
        let stats = migrate(c, &mut dm, &plans);
        assert!(stats.elements_moved > 0);
        check_dist(c, &dm, CheckOpts::all()).expect("post-migrate");
        let total = dm.global_sum(c, |p| p.mesh.num_elems() as u64);
        assert_eq!(total, nregions);

        // Ghost a layer of hexes through face bridges.
        let mut ov = Overlap::from_dist(&dm).with_bridge(Dim::Face);
        ov.grow(c, &mut dm, 1);
        assert!(ov.depth() == 1);
        assert!(dm.global_sum(c, |p| p.num_ghosts() as u64) > 0);
        clear_overlap(&mut dm);
        check_dist(c, &dm, CheckOpts::all()).expect("post-clear");
    });
}

#[test]
fn quad_mesh_parma_balances() {
    let serial = quad_rect(12, 12, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let mut labels = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        // Skewed 2-part split.
        labels[e.idx()] = if serial.centroid(e)[0] < 0.7 { 0 } else { 1 };
    }
    execute(2, |c| {
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        let before = EntityLoads::gather(c, &dm).imbalance_pct(Dim::Face);
        assert!(before > 20.0, "setup not skewed: {before}%");
        let pri: Priority = "Face".parse().unwrap();
        improve(c, &mut dm, &pri, ImproveOpts::default());
        let after = EntityLoads::gather(c, &dm).imbalance_pct(Dim::Face);
        assert!(after <= 6.0, "quad balance failed: {before}% -> {after}%");
        check_dist(c, &dm, CheckOpts::all()).expect("post-improve");
    });
}
