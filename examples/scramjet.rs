//! Scramjet-style adaptive workflow (the paper's Fig 7, qualitatively).
//!
//! Supersonic flow past a scramjet produces oblique shocks reflecting
//! through the duct; analysis-driven adaptation refines tightly along them.
//! This example runs the full workflow on a 2D duct: initial mesh →
//! shock-aligned size field → refine + coarsen → partition → distribute →
//! ParMA multi-criteria balance — reporting mesh size, quality, and balance
//! at each step, the numbers behind the pictures in Fig 7.
//!
//! Run: `cargo run --release --example scramjet`

use parma::{improve, EntityLoads, ImproveOpts, Priority};
use pumi_adapt::{coarsen, quality_stats, refine, CoarsenOpts, RefineOpts, SizeField};
use pumi_check::{check_dist, CheckOpts};
use pumi_core::{distribute, PartMap};
use pumi_meshgen::{jitter, tri_rect};
use pumi_partition::partition_mesh;
use pumi_pcu::execute;
use pumi_util::Dim;

/// Distance to a pair of oblique shock fronts reflecting through the duct.
fn shock_distance(p: [f64; 3]) -> f64 {
    // Incident shock from the inlet lip and its reflection off the top wall.
    let s1 = (p[1] - 0.55 * p[0]).abs();
    let s2 = (p[1] - (1.0 - 0.55 * (p[0] - 1.8))).abs();
    s1.min(s2)
}

fn main() {
    // The duct: 4 x 1 rectangle.
    let mut mesh = tri_rect(48, 12, 4.0, 1.0);
    jitter(&mut mesh, 0.2, 7);
    let (min_q, mean_q) = quality_stats(&mesh);
    println!(
        "initial mesh: {} triangles, quality min {:.2} mean {:.2}",
        mesh.num_elems(),
        min_q,
        mean_q
    );

    // Shock-aligned size field: 8x finer at the fronts.
    let size = SizeField::shock(shock_distance, 0.01, 0.09, 0.015);
    let rs = refine(&mut mesh, &size, None, RefineOpts::default());
    let cs = coarsen(&mut mesh, &size, CoarsenOpts::default());
    mesh.assert_valid();
    let (min_q, mean_q) = quality_stats(&mesh);
    println!(
        "adapted mesh: {} triangles ({} splits, {} collapses), quality min {:.2} mean {:.2}",
        mesh.num_elems(),
        rs.splits,
        cs.collapses,
        min_q,
        mean_q
    );

    // Partition the adapted mesh and balance vertices for the FE solve.
    let nparts = 16;
    let labels = partition_mesh(&mesh, nparts);
    let out = execute(4, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, 4), &mesh, &labels);
        let before = EntityLoads::gather(c, &dm);
        let pri: Priority = "Vtx > Face".parse().unwrap();
        let report = improve(c, &mut dm, &pri, ImproveOpts::default());
        check_dist(c, &dm, CheckOpts::all()).expect("valid after ParMA");
        let after = EntityLoads::gather(c, &dm);
        (c.rank() == 0).then(|| {
            (
                before.imbalance_pct(Dim::Vertex),
                after.imbalance_pct(Dim::Vertex),
                after.imbalance_pct(Dim::Face),
                report.seconds,
            )
        })
    });
    let (vb, va, ea, secs) = out.into_iter().flatten().next().unwrap();
    println!(
        "ParMA Vtx > Face on {nparts} parts: vertex imbalance {vb:.1}% -> {va:.1}% \
         (element {ea:.1}%) in {secs:.2}s"
    );
    println!("scramjet workflow complete");
}
