//! Properties of the calibrated load predictor (§III-B).
//!
//! Two guarantees, exercised under the seeded chaos scheduler:
//!
//! 1. **Calibration never hurts.** Running the same mesh / moving-shock
//!    sequence twice — once feeding each round's prediction-vs-reality
//!    evidence back into [`Calibration::observe`], once with the factors
//!    frozen at identity — the calibrated run's prediction error must be
//!    no worse than the uncalibrated run's once evidence exists (from
//!    round 2 on).
//! 2. **Speculative rebalancing is invisible to refinement.** Balancing
//!    on the predicted weights *before* `adapt_dist` and balancing
//!    *after* it are different migration schedules, but refinement is
//!    partition-invariant (content-derived gids), so both orders must
//!    produce structurally identical meshes: equal
//!    [`pumi_io::struct_hash`]. (Coarsening is excluded: part-boundary
//!    collapse vetoes make it partition-dependent by design.)

use parma::{improve, improve_weighted, EntityLoads, ImproveOpts, Priority};
use proptest::prelude::*;
use pumi_adapt::dist::{adapt_dist, gather_branch_loads, stamp_weights, AdaptOpts};
use pumi_adapt::{prediction_error_pct, Calibration, CoarsenOpts, Sample, SizeField, WEIGHT_TAG};
use pumi_core::{distribute, PartMap};
use pumi_meshgen::tri_rect;
use pumi_partition::partition_mesh;
use pumi_pcu::{execute_opts, MachineModel, SchedMode, WorldOpts};

// The error-trajectory property needs enough parts for the per-branch
// least-squares to be meaningfully overdetermined (8 parts, 3 unknowns —
// below `Calibration::observe`'s 2-equations-per-unknown floor the fit
// degrades to a global ratio, which cannot beat identity on a shifting
// branch mix). The order-invariance property is scale-free, so it runs
// on a cheaper world.
const N: usize = 32;
const NPARTS: usize = 8;
const NRANKS: usize = 4;
const ROUNDS: usize = 3;

const ORDER_N: usize = 16;
const ORDER_NPARTS: usize = 4;
const ORDER_NRANKS: usize = 2;

fn shock(c: f64) -> SizeField {
    SizeField::shock(move |p| p[0] + 0.4 * p[1] - c, 0.015, 0.12, 0.05)
}

/// Run the predict → balance → adapt loop and return the per-round
/// prediction errors. `calibrate` controls whether the evidence is fed
/// back; everything else is identical.
fn error_trajectory(seed: u64, c0: f64, calibrate: bool) -> Vec<f64> {
    let serial = tri_rect(N, N, 1.0, 1.0);
    let labels = partition_mesh(&serial, NPARTS);
    let elem_d = serial.elem_dim_t();
    let pri: Priority = "Face".parse().unwrap();
    let opts = WorldOpts::default().sched(SchedMode::Chaos(seed));
    let out = execute_opts(MachineModel::flat(NRANKS), opts, |c| {
        let mut dm = distribute(c, PartMap::contiguous(NPARTS, NRANKS), &serial, &labels);
        let mut cal = Calibration::new();
        let mut errors = Vec::new();
        for round in 0..ROUNDS {
            let size = shock(c0 + 0.18 * round as f64);
            stamp_weights(&mut dm, &size, &cal);
            let report = improve_weighted(
                c,
                &mut dm,
                &pri,
                ImproveOpts::new().tol(0.05).max_iters(40),
                WEIGHT_TAG,
            );
            // A ParMA step never increases the predicted imbalance.
            let elems = report
                .types
                .iter()
                .find(|t| t.dim == elem_d)
                .expect("the element dimension is balanced");
            assert!(
                elems.final_pct <= elems.initial_pct + 1e-9,
                "round {round}: predicted imbalance {:.3}% -> {:.3}%",
                elems.initial_pct,
                elems.final_pct
            );
            let branch_pred = gather_branch_loads(c, &dm);
            adapt_dist(
                c,
                &mut dm,
                &size,
                AdaptOpts::new().coarsen(CoarsenOpts::default()),
            );
            let realized = EntityLoads::gather(c, &dm).of(elem_d).to_vec();
            let samples: Vec<Sample> = branch_pred
                .iter()
                .zip(&realized)
                .map(|(&predicted, &realized)| Sample {
                    predicted,
                    realized,
                })
                .collect();
            errors.push(prediction_error_pct(&samples));
            if calibrate {
                cal.observe(&samples);
            }
        }
        (c.rank() == 0).then_some(errors)
    });
    out.into_iter().flatten().next().unwrap()
}

fn assert_calibration_never_hurts(seed: u64, c0: f64) {
    let cal = error_trajectory(seed, c0, true);
    let raw = error_trajectory(seed, c0, false);
    // Round 1 is identical by construction: no evidence yet.
    assert!(
        (cal[0] - raw[0]).abs() < 1e-9,
        "round 1 must be calibration-free: {cal:?} vs {raw:?}"
    );
    // With evidence, the calibrated run must not end worse, and its
    // average error over the evidenced rounds must be no worse either
    // (small slack: the two runs' partitions legitimately diverge after
    // round 1, so per-round values are not sample-for-sample comparable).
    let mean = |v: &[f64]| v[1..].iter().sum::<f64>() / (v.len() - 1) as f64;
    assert!(
        mean(&cal) <= mean(&raw) + 1e-9,
        "calibrated mean error worse than uncalibrated (seed {seed}, c0 {c0}): {cal:?} vs {raw:?}"
    );
    assert!(
        cal.last().unwrap() <= raw.last().unwrap(),
        "calibrated final error worse than uncalibrated (seed {seed}, c0 {c0}): {cal:?} vs {raw:?}"
    );
}

/// Adapt (refine-only) with balancing before vs after; both orders must
/// yield the same structural mesh.
fn assert_order_invisible(seed: u64, c0: f64) {
    let serial = tri_rect(ORDER_N, ORDER_N, 1.0, 1.0);
    let labels = partition_mesh(&serial, ORDER_NPARTS);
    let pri: Priority = "Face".parse().unwrap();
    let size = shock(c0);
    let part_map = || PartMap::contiguous(ORDER_NPARTS, ORDER_NRANKS);
    let opts = WorldOpts::default().sched(SchedMode::Chaos(seed));
    let speculative = execute_opts(MachineModel::flat(ORDER_NRANKS), opts, |c| {
        let mut dm = distribute(c, part_map(), &serial, &labels);
        stamp_weights(&mut dm, &size, &Calibration::new());
        improve_weighted(
            c,
            &mut dm,
            &pri,
            ImproveOpts::new().tol(0.05).max_iters(40),
            WEIGHT_TAG,
        );
        adapt_dist(c, &mut dm, &size, AdaptOpts::new());
        // struct_hash covers tag rows, so both arms restamp the weights
        // from the *adapted* mesh before hashing — the rows are purely
        // content-derived, erasing the pre-adapt stamps only this arm has.
        stamp_weights(&mut dm, &size, &Calibration::new());
        let h = pumi_io::struct_hash(c, &dm);
        (c.rank() == 0).then_some(h)
    });
    let post = execute_opts(MachineModel::flat(ORDER_NRANKS), opts, |c| {
        let mut dm = distribute(c, part_map(), &serial, &labels);
        adapt_dist(c, &mut dm, &size, AdaptOpts::new());
        improve(c, &mut dm, &pri, ImproveOpts::new().tol(0.05).max_iters(40));
        stamp_weights(&mut dm, &size, &Calibration::new());
        let h = pumi_io::struct_hash(c, &dm);
        (c.rank() == 0).then_some(h)
    });
    let s = speculative.into_iter().flatten().next().unwrap();
    let p = post.into_iter().flatten().next().unwrap();
    assert_eq!(
        s, p,
        "speculative vs post-adapt balancing changed the refined mesh (seed {seed}, c0 {c0})"
    );
}

/// Fixed regression anchors at the two CI chaos seeds.
#[test]
fn calibration_never_hurts_chaos_seed_1() {
    assert_calibration_never_hurts(1, 0.25);
}

#[test]
fn calibration_never_hurts_chaos_seed_7() {
    assert_calibration_never_hurts(7, 0.25);
}

#[test]
fn balance_order_invisible_chaos_seed_1() {
    assert_order_invisible(1, 0.4);
}

#[test]
fn balance_order_invisible_chaos_seed_7() {
    assert_order_invisible(7, 0.4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Both properties hold wherever the shock sequence starts.
    #[test]
    fn calibrated_predict_any_shock_start(c0 in 0.15f64..0.45) {
        assert_calibration_never_hurts(1, c0);
        assert_order_invisible(7, c0 + 0.1);
    }
}
