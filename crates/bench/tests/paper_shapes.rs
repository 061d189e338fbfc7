//! Every `check:` line and headline statistic the seven paper binaries
//! print, asserted on the same `pumi_bench::workloads` function at its
//! `small()` scale. Nothing here reads a clock: Table III's ratio is a
//! measurement (EXPERIMENTS.md); what guards it is "ParMA moves a few
//! percent of the mesh". Every distributed mesh a scenario leaves behind
//! passes `check_dist(CheckOpts::all())`.

use parma::StopReason;
use pumi_bench::workloads::{
    ablation, fig12, fig13, heavy_split, hybrid_comm, mira_local_split, table2, AaaScale,
    Fig13Params, HeavySplitParams, HybridParams, MiraParams, ParmaRun, TOL,
};
use pumi_check::{check_dist, CheckOpts};
use pumi_core::DistMesh;
use pumi_pcu::Comm;
use pumi_util::Dim;
use std::sync::atomic::{AtomicU64, Ordering};

const TOL_PCT: f64 = TOL * 100.0;

fn check(c: &Comm, dm: &DistMesh) {
    if let Err(e) = check_dist(c, dm, CheckOpts::all()) {
        panic!("scenario left an invalid distributed mesh: {e}");
    }
}

#[test]
fn table2_shapes() {
    let scale = AaaScale::small();
    let r = table2(scale, &check);
    assert_eq!(r.tests.len(), 5);
    let run = |t: usize| r.tests[t].run.as_ref().unwrap();

    // check: T1 vertex imbalance -> target <= tol + 1 pt, from well above.
    assert!(r.imb_pct(0, Dim::Vertex) > 3.0 * TOL_PCT);
    assert!(r.imb_pct(1, Dim::Vertex) <= TOL_PCT + 1.0);

    // Every type above the last priority level is driven to tolerance;
    // the last level (Rgn) keeps the loose cap `improve` gives a
    // lesser-priority type, 2·tol (ROADMAP item 7(i)'s admitted deviation).
    let targeted: [&[Dim]; 4] = [
        &[Dim::Vertex],
        &[Dim::Vertex, Dim::Edge],
        &[Dim::Edge],
        &[Dim::Edge, Dim::Face],
    ];
    for (t, dims) in targeted.iter().enumerate() {
        let t = t + 1;
        for &d in *dims {
            let pct = r.imb_pct(t, d);
            assert!(pct <= TOL_PCT + 1.5, "T{t} {d}: {pct:.2}%");
        }
        let rgn = r.imb_pct(t, Dim::Region);
        assert!(rgn <= 2.0 * TOL_PCT + 1.5, "T{t} Rgn: {rgn:.2}%");
    }
    // The paper's "–" column: vertices, which T3/T4 never target, stay
    // out of tolerance, about where T0 left them. (Not "no untargeted
    // column improves": a type adjacent to a balanced one rides along —
    // T1's edges, T3's faces — here and at the seed.)
    for t in [3, 4] {
        let vtx = r.imb_pct(t, Dim::Vertex);
        assert!(vtx > TOL_PCT + 1.5 && vtx <= r.imb_pct(0, Dim::Vertex));
    }

    // check: ParMA vs partitioner time — clock-free: ParMA is cheap
    // because it moves a few percent of the mesh, not all of it.
    for t in 1..5 {
        let moved = run(t).report.elements_moved;
        assert!(moved > 0 && moved * 100 <= 5 * scale.elements() as u64);
    }

    // check: boundary entities vs T0 — item 7(ii)'s admitted deviation is
    // that they grow; what holds is that they grow by under 2 %.
    let t0 = r.tests[0].boundary_copies;
    for t in &r.tests[1..] {
        assert!(t.boundary_copies * 100 <= t0 * 102, "{}", t.name);
    }

    // ROADMAP item 7(iii): T3 and T4 agree in every cell because
    // `Edge = Face > Rgn` *does* consult its second group member — it runs
    // three stages — and finds faces already within tolerance after the
    // edge stage, so that stage converges without moving anything.
    let t4: Vec<Dim> = run(4).report.types.iter().map(|t| t.dim).collect();
    assert_eq!(t4, [Dim::Edge, Dim::Face, Dim::Region]);
    let face = &run(4).report.types[1];
    assert!(face.initial_pct <= TOL_PCT && face.iters.is_empty());
    assert_eq!(face.initial_pct, face.final_pct);
    assert_eq!(face.stop, StopReason::Converged);
    assert_eq!(run(3).report.types.len(), 2);
    assert_eq!(r.tests[3].stats, r.tests[4].stats);
    assert_eq!(r.tests[3].boundary_copies, r.tests[4].boundary_copies);
}

#[test]
fn fig12_shapes() {
    let run = fig12(AaaScale::small(), &check);
    for d in [Dim::Vertex, Dim::Edge] {
        let (b, a) = (run.before.stats(d), run.after.stats(d));
        let (b_lo, b_hi) = (b.min / b.mean, b.max / b.mean);
        let (a_lo, a_hi) = (a.min / a.mean, a.max / a.mean);
        // The post-ParMA ceiling sits at 1 + tol ...
        assert!(
            b_hi > 1.0 + TOL && a_hi <= 1.0 + TOL,
            "{d}: {b_hi} -> {a_hi}"
        );
        // ... the floor lifts, but less far: heavy parts are shaved to the
        // tolerance while light parts only receive what the heavy shed.
        assert!(a_lo > b_lo, "{d}: floor {b_lo} -> {a_lo}");
        assert!(1.0 - a_lo > a_hi - 1.0, "{d}: envelope [{a_lo}, {a_hi}]");
    }
}

#[test]
fn fig13_shapes() {
    let p = Fig13Params::small();
    let r = fig13(p);
    assert!(r.refined.elements_after > 2 * r.initial_elements);
    assert_eq!(r.loads.iter().sum::<f64>(), r.refined.elements_after as f64);
    // At this scale (7,680 tets, 32 parts, hmin 0.02): 756 %, 6 parts over
    // 20 %, 25 under half the average, 42 % with predictive balancing.
    assert!(r.peak_pct() > 400.0, "peak {:.0}%", r.peak_pct());
    let over = r.parts_over_20();
    assert!(over > 0 && over <= p.nparts / 4, "{over} parts over 20%");
    assert!(r.parts_under_half() * 100 > 12 * p.nparts);
    assert!(
        r.predictive_peak_pct() < 60.0,
        "predictive {:.0}%",
        r.predictive_peak_pct()
    );
}

#[test]
fn mira_local_split_shapes() {
    let r = mira_local_split(MiraParams::small(), &check);
    // Each splitter sees only its own subgraph: the split inflates the
    // peak vertex imbalance ...
    assert!(r.split_vtx_pct > r.coarse_vtx_pct);
    assert_eq!(r.run.before.imbalance_pct(Dim::Vertex), r.split_vtx_pct);
    // check: ... and `Vtx > Rgn` recovers more than 10 points of it.
    assert!(r.gain_points() > 10.0, "gain {:.1}", r.gain_points());
}

#[test]
fn heavy_split_shapes() {
    let r = heavy_split(HeavySplitParams::small(), &check);
    let (d, s) = (&r.diffusion, &r.split_diffusion);
    assert_eq!(d.before_pct, s.before_pct);
    assert!(d.before_pct > 400.0);
    // check: diffusion alone stalls on the spike cluster ...
    assert!(d.after_pct > 0.9 * d.before_pct);
    assert_eq!(d.report.types.len(), 1);
    assert_eq!(d.report.types[0].stop, StopReason::Stagnated);
    // ... where splitting the heavy parts first reaches under 35 %.
    assert!(s.after_pct < 35.0, "split + diffusion {:.1}%", s.after_pct);
}

#[test]
fn ablation_shapes() {
    let runs = ablation(AaaScale::small(), &check);
    let [full, no_handshake, no_caps, no_strict] = runs.as_slice() else {
        panic!("four configurations");
    };
    let cells = |r: &ParmaRun| {
        (
            r.after.imbalance_pct(Dim::Vertex),
            r.after.imbalance_pct(Dim::Region),
            r.report.elements_moved,
            r.boundary_copies,
        )
    };
    let (vtx, rgn, moved, bnd) = cells(&full.1);
    assert!(vtx <= TOL_PCT);
    // The handshake is what keeps the lower-priority balance intact.
    assert!(cells(&no_handshake.1).1 > rgn + 1.0);
    // Peak caps tie on a well-conditioned input.
    assert_eq!(cells(&no_caps.1), (vtx, rgn, moved, bnd));
    // Strict selection trims the migration volume and boundary growth.
    let (_, _, loose_moved, loose_bnd) = cells(&no_strict.1);
    assert!(loose_moved > moved && loose_bnd > bnd);
}

#[test]
fn hybrid_comm_shapes() {
    // Remote-copy pairs of the partition, counted on the meshes the
    // scenario distributes (the same partition on both machines).
    let pairs = AtomicU64::new(0);
    let r = hybrid_comm(HybridParams::small(), &|c, dm| {
        check(c, dm);
        let n = dm.global_sum(c, |p| {
            let copies = p.shared_entities();
            copies.iter().map(|(_, rem)| rem.len() as u64).sum()
        });
        pairs.store(n, Ordering::Relaxed);
    });
    let pairs = pairs.load(Ordering::Relaxed);

    // Up to 32 communicating threads: every rank reaches both ring
    // neighbours every round (one frame when they are the same rank).
    for row in &r.ring {
        let per_rank = (row.threads - 1).min(2) as u64;
        assert_eq!(
            row.traffic.total_msgs(),
            (row.rounds * row.threads) as u64 * per_rank
        );
        assert_eq!(row.traffic.off_node_msgs, 0);
    }
    assert_eq!(r.ring.last().unwrap().threads, 32);

    // check: the two-level machine turns boundaries between co-resident
    // parts into on-node ones, cutting off-node traffic. On the flat
    // machine every copy is off-node: one sync is 12 B per remote copy
    // plus frame headers (under a twelfth more).
    let [flat, two_level] = &r.machines;
    assert_eq!(flat.on_node, 0);
    assert!(pairs > 0 && flat.sync_off_node_bytes >= 12 * pairs);
    assert!(flat.sync_off_node_bytes <= 13 * pairs);
    assert!(two_level.off_node_share() < flat.off_node_share());
    assert!(two_level.sync_off_node_bytes < flat.sync_off_node_bytes);
    assert_eq!(two_level.mesh_bytes, flat.mesh_bytes);

    // check: partitioning node-first keeps most cut surface on-node.
    assert!(r.hybrid_vtx_share < r.oblivious_vtx_share);
    assert!(r.hybrid_vtx_share < 0.5);
}
