//! Property tests for adaptation: arbitrary split/coarsen sequences keep
//! the mesh valid, uninverted, and geometrically conservative.

use proptest::prelude::*;
use pumi_adapt::{coarsen, measure, refine, split_edge, CoarsenOpts, RefineOpts, SizeField};
use pumi_meshgen::{tet_box, tri_rect};
use pumi_util::Dim;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random sequences of edge splits preserve validity, orientation, and
    /// total area.
    #[test]
    fn random_splits_conserve_area(picks in proptest::collection::vec(0usize..1000, 1..25)) {
        let mut m = tri_rect(3, 3, 1.0, 1.0);
        let area0: f64 = m.elems().map(|e| measure(&m, e).abs()).sum();
        for p in picks {
            let edges: Vec<_> = m.iter(Dim::Edge).collect();
            let e = edges[p % edges.len()];
            split_edge(&mut m, e, None);
        }
        m.assert_valid();
        let area: f64 = m.elems().map(|e| measure(&m, e).abs()).sum();
        prop_assert!((area - area0).abs() < 1e-9, "area drift: {area} vs {area0}");
        prop_assert!(m.elems().all(|e| measure(&m, e) != 0.0));
    }

    /// Random splits in 3D conserve volume and validity.
    #[test]
    fn random_splits_conserve_volume(picks in proptest::collection::vec(0usize..1000, 1..12)) {
        let mut m = tet_box(2, 2, 2, 1.0, 1.0, 1.0);
        let vol0: f64 = m.elems().map(|e| measure(&m, e).abs()).sum();
        for p in picks {
            let edges: Vec<_> = m.iter(Dim::Edge).collect();
            let e = edges[p % edges.len()];
            split_edge(&mut m, e, None);
        }
        m.assert_valid();
        let vol: f64 = m.elems().map(|e| measure(&m, e).abs()).sum();
        prop_assert!((vol - vol0).abs() < 1e-9);
    }

    /// Refine-then-coarsen with arbitrary sizes never invalidates the mesh
    /// and never loses the domain.
    #[test]
    fn refine_coarsen_cycles(h_fine in 0.08f64..0.3, h_coarse in 0.5f64..1.5) {
        let mut m = tri_rect(3, 3, 1.0, 1.0);
        refine(&mut m, &SizeField::uniform(h_fine), None, RefineOpts::default());
        m.assert_valid();
        coarsen(&mut m, &SizeField::uniform(h_coarse), CoarsenOpts::default());
        m.assert_valid();
        let area: f64 = m.elems().map(|e| measure(&m, e).abs()).sum();
        prop_assert!((area - 1.0).abs() < 1e-9, "domain area lost: {area}");
        // Corners survive any amount of coarsening.
        prop_assert_eq!(m.count_classified(Dim::Vertex, Dim::Vertex), 4);
    }

    /// The size field is (approximately) satisfied after refinement: no
    /// edge longer than the split ratio 1.5 times h.
    #[test]
    fn refinement_meets_size(h in 0.1f64..0.4) {
        let mut m = tri_rect(2, 2, 1.0, 1.0);
        let size = SizeField::uniform(h);
        refine(&mut m, &size, None, RefineOpts::default());
        for e in m.iter(Dim::Edge) {
            let vs = m.verts_of(e);
            let a = m.coords(pumi_util::MeshEnt::vertex(vs[0]));
            let b = m.coords(pumi_util::MeshEnt::vertex(vs[1]));
            let len = ((a[0]-b[0]).powi(2) + (a[1]-b[1]).powi(2)).sqrt();
            prop_assert!(len <= 1.5 * h + 1e-12, "edge {len} > 1.5*{h}");
        }
    }
}
