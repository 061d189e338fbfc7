//! Partition invariance of distributed adaptation.
//!
//! `adapt_dist`'s content-derived global ids promise that adapting a mesh
//! is *independent of how it is partitioned*: the 1-part result and the
//! 4-rank result are entity-for-entity identical — same gids, same
//! coordinates, same classification — so `pumi_io::struct_hash` must
//! match exactly. The serial `refine()` / `coarsen()` drivers are the third
//! witness: split, collapse and element counts, the element-quality
//! histogram and the sorted vertex coordinates must agree with the
//! distributed runs. The 4-rank arm runs under the seeded chaos scheduler,
//! so message reordering cannot change the result either.
//!
//! Serial and distributed adaptation run the same two sweeps
//! (`refine::sweep`, `coarsen::sweep`) with different hosts; this file is
//! what says the part-side hooks change nothing the mesh can see — in 2-D
//! and 3-D, with a geometric model, and through the collapse loop.

use proptest::prelude::*;
use pumi_adapt::dist::{adapt_dist, AdaptOpts};
use pumi_adapt::{coarsen, mean_ratio, refine, CoarsenOpts, RefineOpts, SizeField};
use pumi_check::{check_dist, CheckOpts};
use pumi_core::{distribute, PartMap};
use pumi_geom::builders::{vessel, VesselSpec};
use pumi_geom::Model;
use pumi_mesh::Mesh;
use pumi_meshgen::{tet_box, tri_rect, vessel_tet};
use pumi_pcu::{execute, execute_opts, Comm, MachineModel, SchedMode, WorldOpts};
use pumi_util::{Dim, MeshEnt, PartId};

const QBINS: usize = 20;

/// One input of the oracle: what to adapt, to what, and how the many-part
/// arm cuts it (always on 4 ranks).
struct Case {
    mesh: fn() -> Mesh,
    size: SizeField,
    model: Option<Model>,
    /// `None` refines only. With coarsening the boundary veto makes the
    /// result depend on the partition (ROADMAP item 1), so only the 1-part
    /// arm is compared with the serial drivers.
    coarsen: Option<CoarsenOpts>,
    nparts: usize,
    label: fn([f64; 3]) -> PartId,
}

/// The 2-D standard: an oblique shock at offset `c0` across four quadrants.
fn tri_case(c0: f64) -> Case {
    Case {
        mesh: || tri_rect(8, 8, 1.0, 1.0),
        size: SizeField::shock(move |p| p[0] + 0.4 * p[1] - c0, 0.06, 0.3, 0.05),
        model: None,
        coarsen: None,
        nparts: 4,
        label: |x| PartId::from(x[1] >= 0.5) * 2 + PartId::from(x[0] >= 0.5),
    }
}

/// 3-D: an oblique shock plane across the eight octants of a box, so
/// shared faces, their median edges and child faces all relink.
fn tet_case() -> Case {
    Case {
        mesh: || tet_box(4, 4, 4, 1.0, 1.0, 1.0),
        size: SizeField::shock(|p| p[0] + 0.4 * p[1] + 0.2 * p[2] - 0.8, 0.1, 0.5, 0.08),
        model: None,
        coarsen: None,
        nparts: 8,
        label: |x| {
            PartId::from(x[2] >= 0.5) * 4
                + PartId::from(x[1] >= 0.5) * 2
                + PartId::from(x[0] >= 0.5)
        },
    }
}

/// Refinement then the default coarsening of a mesh finer than the
/// far-field size: both sweeps do work.
fn coarsen_case() -> Case {
    Case {
        coarsen: Some(CoarsenOpts::default()),
        ..tri_case(0.5)
    }
}

/// 3-D with the collapse loop: a coarse far field over a box fine enough
/// that every octant keeps interior cavities, so the 8-part arm both
/// collapses and vetoes.
fn tet_coarsen_case() -> Case {
    Case {
        mesh: || tet_box(6, 6, 6, 1.0, 1.0, 1.0),
        size: SizeField::shock(|p| p[0] + 0.4 * p[1] + 0.2 * p[2] - 0.8, 0.1, 0.8, 0.08),
        coarsen: Some(CoarsenOpts::default()),
        ..tet_case()
    }
}

/// A curved model: new wall vertices are snapped to the vessel wall, on
/// four axial slabs.
fn vessel_case() -> Case {
    Case {
        mesh: || vessel_tet(VesselSpec::aaa(), 3, 8),
        size: SizeField::uniform(0.6),
        model: Some(vessel(VesselSpec::aaa())),
        coarsen: None,
        nparts: 4,
        label: |x| ((x[2] / 2.5) as PartId).min(3),
    }
}

/// What an adapted mesh is reduced to for comparison.
#[derive(Debug, PartialEq)]
struct Facts {
    splits: u64,
    collapses: u64,
    elements: u64,
    /// Mean-ratio histogram of all elements.
    hist: Vec<u64>,
    /// Coordinates (bit patterns) of all vertices, sorted — the gid-free
    /// witness that serial and distributed vertices coincide.
    coords: Vec<[u64; 3]>,
}

/// Fold the elements and vertices of `mesh` selected by `mine` into `hist`
/// and `coords`; with a model, every vertex classified on one of its
/// boundary entities must lie on that entity's shape.
fn observe(
    mesh: &Mesh,
    model: Option<&Model>,
    mine: impl Fn(MeshEnt) -> bool,
    hist: &mut [u64],
    coords: &mut Vec<[u64; 3]>,
) {
    for e in mesh.elems().filter(|&e| mine(e)) {
        let q = mean_ratio(mesh, e).clamp(0.0, 1.0);
        hist[((q * QBINS as f64) as usize).min(QBINS - 1)] += 1;
    }
    for v in mesh.iter(Dim::Vertex).filter(|&v| mine(v)) {
        let p = mesh.coords(v);
        coords.push(p.map(f64::to_bits));
        let class = mesh.class_of(v);
        if let Some(model) = model {
            if class.dim().as_usize() < mesh.elem_dim() && model.contains(class) {
                let q = model.closest_point(class, p);
                let d = (0..3).map(|i| (p[i] - q[i]).powi(2)).sum::<f64>().sqrt();
                assert!(d < 1e-9, "vertex {p:?} is {d:e} off its model entity");
            }
        }
    }
}

/// `adapt_dist` on `nparts` parts over `nranks` ranks: the facts, the
/// `struct_hash` and the veto count.
fn run_arm(
    case: &Case,
    nranks: usize,
    nparts: usize,
    chaos_seed: Option<u64>,
) -> (Facts, u64, u64) {
    let body = |c: &Comm| {
        let serial = (case.mesh)();
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        if nparts > 1 {
            for e in serial.iter(d) {
                labels[e.idx()] = (case.label)(serial.centroid(e));
            }
        }
        let mut dm = distribute(c, PartMap::contiguous(nparts, nranks), &serial, &labels);
        let opts = AdaptOpts {
            coarsen: case.coarsen,
            model: case.model.as_ref(),
        };
        let stats = adapt_dist(c, &mut dm, &case.size, opts);
        check_dist(c, &dm, CheckOpts::all()).expect("valid after adapt_dist");
        let hash = pumi_io::struct_hash(c, &dm);
        let mut hist = vec![0u64; QBINS];
        let mut coords = Vec::new();
        for p in &dm.parts {
            let mine = |e| p.is_owned(e);
            observe(&p.mesh, opts.model, mine, &mut hist, &mut coords);
        }
        (stats, hash, c.allreduce_sum_u64_vec(&hist), coords)
    };
    let out = match chaos_seed {
        Some(seed) => execute_opts(
            MachineModel::flat(nranks),
            WorldOpts::default().sched(SchedMode::Chaos(seed)),
            body,
        ),
        None => execute(nranks, body),
    };
    let mut coords = Vec::new();
    let mut global = None;
    for (stats, hash, hist, local) in out {
        coords.extend(local);
        global.get_or_insert((stats, hash, hist));
    }
    coords.sort_unstable();
    let (stats, hash, hist) = global.expect("a world has at least one rank");
    let facts = Facts {
        splits: stats.splits,
        collapses: stats.collapses,
        elements: stats.elements_after,
        hist,
        coords,
    };
    (facts, hash, stats.vetoed_collapses)
}

/// Plain serial `refine()` (then `coarsen()`) reduced to the same facts
/// (no gids — the serial hash witness is the 1-part `adapt_dist` arm).
fn run_serial(case: &Case) -> Facts {
    let mut m = (case.mesh)();
    let model = case.model.as_ref();
    let splits = refine(&mut m, &case.size, model, RefineOpts::default()).splits;
    let collapses = case
        .coarsen
        .map_or(0, |co| coarsen(&mut m, &case.size, co).collapses);
    let mut hist = vec![0u64; QBINS];
    let mut coords = Vec::new();
    observe(&m, model, |_| true, &mut hist, &mut coords);
    coords.sort_unstable();
    Facts {
        splits: splits as u64,
        collapses: collapses as u64,
        elements: m.num_elems() as u64,
        hist,
        coords,
    }
}

fn check_invariance(case: &Case, seed: u64) {
    let serial = run_serial(case);
    assert!(serial.splits > 0, "the case refines nothing");
    let (one, one_hash, one_vetoed) = run_arm(case, 1, 1, None);
    assert_eq!(one, serial, "1-part adapt_dist != serial drivers");
    assert_eq!(one_vetoed, 0, "a part with no boundary vetoed a collapse");
    if case.coarsen.is_some() {
        assert!(serial.collapses > 0, "the case coarsens nothing");
        return;
    }
    let (many, many_hash, _) = run_arm(case, 4, case.nparts, Some(seed));
    assert_eq!(
        many, serial,
        "{}-part adapt_dist != serial (seed {seed})",
        case.nparts
    );
    assert_eq!(
        one_hash, many_hash,
        "struct_hash differs between 1-part and {}-part adaptation (seed {seed})",
        case.nparts
    );
}

/// The fixed seeds the invariant must hold under (regression anchors).
#[test]
fn serial_vs_dist_chaos_seed_1() {
    check_invariance(&tri_case(0.5), 1);
}

#[test]
fn serial_vs_dist_chaos_seed_7() {
    check_invariance(&tri_case(0.5), 7);
}

/// 3-D refinement: 1 part and 8 parts on 4 ranks reproduce serial
/// `refine()` entity for entity.
#[test]
fn serial_vs_dist_3d() {
    check_invariance(&tet_case(), 1);
    check_invariance(&tet_case(), 7);
}

/// The collapse loop: 1-part `adapt_dist` with coarsening is serial
/// `refine` + `coarsen`.
#[test]
fn serial_vs_dist_coarsening() {
    check_invariance(&coarsen_case(), 1);
}

/// 3-D coarsening on 8 parts over 4 ranks: the veto makes the result
/// depend on the partition, so the witness is not the serial mesh but the
/// run itself — `check_dist(all)` after the adaptation (inside `run_arm`),
/// the same mesh under either chaos seed, and the counts and
/// `struct_hash` taken when the veto still walked every cavity's closure.
#[test]
fn dist_coarsening_3d_is_pinned() {
    let case = tet_coarsen_case();
    let (a, a_hash, a_vetoed) = run_arm(&case, 4, case.nparts, Some(1));
    let (b, b_hash, b_vetoed) = run_arm(&case, 4, case.nparts, Some(7));
    assert_eq!(
        (&a, a_hash, a_vetoed),
        (&b, b_hash, b_vetoed),
        "seed 1 != seed 7"
    );
    assert_eq!((a.splits, a.collapses, a_vetoed), (302, 56, 3411));
    assert_eq!(a_hash, 0xbca3_b2ad_80d5_08db);
}

/// `AdaptOpts::model`: snapped wall vertices land on the geometry and where
/// serial `refine(.., Some(&model), ..)` puts them.
#[test]
fn serial_vs_dist_model_snapping() {
    check_invariance(&vessel_case(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The invariance holds wherever the shock sits — including fronts
    /// crossing one, two, or all four part boundaries.
    #[test]
    fn serial_vs_dist_any_shock_position(c0 in 0.2f64..1.1) {
        check_invariance(&tri_case(c0), 1);
        check_invariance(&tri_case(c0), 7);
    }
}
