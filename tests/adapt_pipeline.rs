//! Adaptation-driven integration tests: the Fig 13 scenario (frozen
//! partition through refinement), predictive balancing, heavy part
//! splitting, and field transfer across an adapted mesh.

use parma::{heavy_part_split, EntityLoads};
use pumi_adapt::{predicted_loads, refine, RefineOpts, SizeField};
use pumi_check::{check_dist, CheckOpts};
use pumi_core::{distribute, PartMap};
use pumi_field::{transfer_linear, Field, FieldShape};
use pumi_meshgen::{tri_rect, wing_tet};
use pumi_partition::partition_mesh;
use pumi_pcu::execute;
use pumi_util::stats::imbalance;
use pumi_util::tag::TagKind;
use pumi_util::{Dim, PartId};

/// Shock refinement with the partition frozen (tag inheritance) must
/// produce the Fig 13 spike, and the spike must match the a-priori
/// predictive estimate.
#[test]
fn frozen_partition_spikes_and_prediction_agrees() {
    let mut mesh = wing_tet(8, 6, 4);
    let nparts = 8;
    let labels = partition_mesh(&mesh, nparts);
    let tid = mesh.tags_mut().declare("part", TagKind::Int, 1);
    for e in mesh.snapshot(mesh.elem_dim_t()) {
        mesh.tags_mut().set_int(tid, e, labels[e.idx()] as i64);
    }
    let size = SizeField::shock(pumi_meshgen::shock_plane_distance, 0.03, 0.3, 0.03);
    let predicted = predicted_loads(&mesh, &labels, nparts, &size);

    refine(&mut mesh, &size, None, RefineOpts::default());
    mesh.assert_valid();
    let mut actual = vec![0f64; nparts];
    for e in mesh.elems() {
        actual[mesh.tags().get_int(tid, e).unwrap() as usize] += 1.0;
    }
    let actual_imb = imbalance(&actual);
    assert!(actual_imb > 1.3, "no adaptation spike: {actual:?}");
    // The predictive estimate identifies the same peak part.
    let argmax = |v: &[f64]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
    };
    assert_eq!(
        argmax(&predicted),
        argmax(&actual),
        "prediction should find the shock part: {predicted:?} vs {actual:?}"
    );
}

/// The adapted, spiked partition is repaired by heavy part splitting.
#[test]
fn heavy_split_repairs_adapted_partition() {
    let mut mesh = wing_tet(8, 6, 4);
    let nparts = 8;
    let labels0 = partition_mesh(&mesh, nparts);
    let tid = mesh.tags_mut().declare("part", TagKind::Int, 1);
    for e in mesh.snapshot(mesh.elem_dim_t()) {
        mesh.tags_mut().set_int(tid, e, labels0[e.idx()] as i64);
    }
    let size = SizeField::shock(pumi_meshgen::shock_plane_distance, 0.035, 0.3, 0.03);
    refine(&mut mesh, &size, None, RefineOpts::default());
    let d = mesh.elem_dim_t();
    let mut labels = vec![0 as PartId; mesh.index_space(d)];
    for e in mesh.iter(d) {
        labels[e.idx()] = mesh.tags().get_int(tid, e).unwrap() as PartId;
    }

    execute(2, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, 2), &mesh, &labels);
        let before = EntityLoads::gather(c, &dm).imbalance_pct(d);
        let report = heavy_part_split(c, &mut dm);
        check_dist(c, &dm, CheckOpts::all()).expect("valid after heavy part split");
        let after = EntityLoads::gather(c, &dm).imbalance_pct(d);
        assert!(before > 30.0, "setup spike too small: {before:.1}%");
        assert!(
            after < before / 2.0,
            "split ineffective: {before:.1}% -> {after:.1}% ({report:?})"
        );
    });
}

/// Refinement + transfer: a linear field survives adaptation exactly; a
/// curved field's transfer error shrinks as the target mesh refines.
#[test]
fn transfer_across_adaptation() {
    let coarse = tri_rect(6, 6, 1.0, 1.0);
    let mut f_lin = Field::new("u", FieldShape::Linear, 1);
    f_lin.set_from(&coarse, |p| vec![3.0 * p[0] - p[1] + 0.5]);

    let mut fine = tri_rect(6, 6, 1.0, 1.0);
    refine(
        &mut fine,
        &SizeField::uniform(0.07),
        None,
        RefineOpts::default(),
    );
    let g = transfer_linear(&coarse, &f_lin, &fine);
    for v in fine.iter(Dim::Vertex) {
        let p = fine.coords(v);
        let want = 3.0 * p[0] - p[1] + 0.5;
        assert!((g.get_scalar(v).unwrap() - want).abs() < 1e-9);
    }

    // Curved field: error on the refined target is bounded by the *source*
    // resolution, and re-transferring back and forth stays bounded.
    let mut f_cur = Field::new("w", FieldShape::Linear, 1);
    f_cur.set_from(&coarse, |p| vec![(6.0 * p[0]).sin() * (4.0 * p[1]).cos()]);
    let h = transfer_linear(&coarse, &f_cur, &fine);
    let mut max_err = 0f64;
    for v in fine.iter(Dim::Vertex) {
        let p = fine.coords(v);
        let want = (6.0 * p[0]).sin() * (4.0 * p[1]).cos();
        max_err = max_err.max((h.get_scalar(v).unwrap() - want).abs());
    }
    assert!(max_err < 0.2, "interpolation error too large: {max_err}");
}

/// Boundary snapping during refinement keeps the vessel wall round — and
/// classification-aware coarsening never deletes the rims.
#[test]
fn adapt_respects_geometry() {
    use pumi_geom::builders::{vessel, VesselSpec};
    let spec = VesselSpec::aaa();
    let model = vessel(spec);
    let mut mesh = pumi_meshgen::vessel_tet(spec, 4, 10);
    refine(
        &mut mesh,
        &SizeField::uniform(0.45),
        Some(&model),
        RefineOpts::default(),
    );
    mesh.assert_valid();
    let wall = pumi_geom::GeomEnt::new(Dim::Face, 1);
    for v in mesh.iter_classified(Dim::Vertex, wall) {
        let p = mesh.coords(v);
        let r = (p[0] * p[0] + p[1] * p[1]).sqrt();
        assert!(
            (r - spec.radius_at(p[2])).abs() < 1e-6,
            "wall vertex off the surface"
        );
    }
    pumi_adapt::coarsen(
        &mut mesh,
        &SizeField::uniform(1.2),
        pumi_adapt::CoarsenOpts::default(),
    );
    mesh.assert_valid();
    // The rims are 1D model entities; their mesh vertices may only coarsen
    // along the rim, never off it.
    for rim in [1u32, 2] {
        let g = pumi_geom::GeomEnt::new(Dim::Edge, rim);
        assert!(
            mesh.iter_classified(Dim::Vertex, g).count() >= 3,
            "rim {rim} lost its vertices"
        );
    }
}
