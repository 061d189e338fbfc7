//! Predictive load estimation (§III-B).
//!
//! "Large imbalance spikes are also observed when predictively load
//! balancing for mesh adaptation based on the estimated target mesh
//! resolution at each mesh vertex." Before adapting, each element's
//! post-adaptation element count is estimated as `(current edge length /
//! target size)^dim`; balancing these *weights* instead of the current
//! element counts prevents the Fig 13 blow-up.

use crate::coarsen::COLLAPSE_RATIO;
use crate::sizefield::SizeField;
use pumi_mesh::Mesh;
use pumi_util::{Dim, MeshEnt, PartId};

/// The well-known per-element Real tag predictive balancing stores
/// calibrated [`element_weight`]s in — the tag `parma::improve_weighted`
/// reads. Rides migration, so moved elements keep their predicted load.
pub const WEIGHT_TAG: &str = "parma:weight";

/// The companion Int tag recording each element's predicted [`Branch`]
/// (as `Branch as i64`), so realized loads can be attributed back to the
/// branch that predicted them after ParMA has shuffled elements around.
pub const BRANCH_TAG: &str = "adapt:branch";

/// Floor on the size-field value at an evaluation point. A degenerate
/// size field (`h → 0`, or an analytic field gone negative) would make
/// `ratio.powi(dim)` blow up to `inf`, and one poisoned element then
/// corrupts its whole part's predicted load.
pub const H_FLOOR: f64 = 1e-9;

/// Cap on one element's predicted weight. Even with `h` floored, a
/// near-degenerate size value predicts astronomically many children —
/// more than any bounded number of adapt rounds can realize — so the
/// weight is saturated here and the calibration loop absorbs the rest.
pub const MAX_ELEMENT_WEIGHT: f64 = 1e6;

/// Which way the size field pushes an element: the three prediction
/// branches of [`element_weight`], each with its own empirical correction
/// factor in [`Calibration`] (the overshoot is branch-dependent: refine
/// predictions assume every oversized edge splits to exactly `h`, collapse
/// predictions ignore boundary vetoes, keep predictions are nearly exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Branch {
    /// `L/h ≥ 1`: refinement territory.
    Refine = 0,
    /// In the keep band: the element stays as it is.
    Keep = 1,
    /// Below the collapse band: coarsening territory.
    Collapse = 2,
}

impl Branch {
    /// All branches, indexable by `Branch as usize`.
    pub const ALL: [Branch; 3] = [Branch::Refine, Branch::Keep, Branch::Collapse];

    /// Branch from its `as usize` discriminant; out-of-range maps to
    /// `Keep` (the identity-weight branch), so a damaged branch tag can
    /// never misattribute load outside the three-way split.
    pub fn from_index(i: usize) -> Branch {
        match i {
            0 => Branch::Refine,
            2 => Branch::Collapse,
            _ => Branch::Keep,
        }
    }
}

/// Mean edge length of `e` over the floored size-field value at its
/// centroid — the `L/h` the branch split and the weight both key off.
fn size_ratio(mesh: &Mesh, e: MeshEnt, size: &SizeField) -> f64 {
    let c = mesh.centroid(e);
    let h = size.at(c).max(H_FLOOR);
    let edges = mesh.adjacent(e, Dim::Edge);
    let mut mean_len = 0.0;
    for &edge in &edges {
        let vs = mesh.verts_of(edge);
        let a = mesh.coords(MeshEnt::vertex(vs[0]));
        let b = mesh.coords(MeshEnt::vertex(vs[1]));
        mean_len += ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
    }
    mean_len /= edges.len() as f64;
    mean_len / h
}

/// The branch an element with size ratio `L/h` falls in.
fn branch(ratio: f64) -> Branch {
    if ratio >= 1.0 {
        Branch::Refine
    } else if ratio < COLLAPSE_RATIO {
        Branch::Collapse
    } else {
        Branch::Keep
    }
}

/// The prediction branch `e` falls in under `size`.
pub fn classify(mesh: &Mesh, e: MeshEnt, size: &SizeField) -> Branch {
    branch(size_ratio(mesh, e, size))
}

/// Estimated number of elements `e` becomes after adapting to `size`, with
/// `L` the mean edge length of the element and `h` the size-field value at
/// its centroid (floored at [`H_FLOOR`]):
///
/// - `L/h ≥ 1` — refinement territory: the element splits into roughly
///   `(L/h)^dim` children.
/// - `L/h` below the collapse band (the collapse ratio 0.5 that the
///   [`coarsen`](crate::coarsen()) sweep uses) — coarsening territory: the
///   element merges with neighbors, surviving only as the fraction
///   `(L/h)^dim` of an element.
/// - In between — the keep band: the element stays as it is, weight 1.
///
/// The result saturates at [`MAX_ELEMENT_WEIGHT`], so a degenerate size
/// value at one evaluation point cannot poison a part's whole predicted
/// load. Earlier revisions clamped the weight at 1.0, silently ignoring
/// the coarsening branch: parts full of collapse-marked elements were
/// predicted at full load even though adaptation was about to shrink them.
pub fn element_weight(mesh: &Mesh, e: MeshEnt, size: &SizeField) -> f64 {
    let ratio = size_ratio(mesh, e, size);
    match branch(ratio) {
        Branch::Keep => 1.0,
        Branch::Refine | Branch::Collapse => {
            ratio.powi(mesh.elem_dim() as i32).min(MAX_ELEMENT_WEIGHT)
        }
    }
}

/// Total predicted element count.
///
/// # Examples
///
/// ```
/// use pumi_adapt::{predicted_total, SizeField};
///
/// let m = pumi_meshgen::tri_rect(2, 2, 1.0, 1.0);
/// // Halving the target size roughly quadruples the predicted 2D count.
/// let w1 = predicted_total(&m, &SizeField::uniform(0.5));
/// let w2 = predicted_total(&m, &SizeField::uniform(0.25));
/// assert!(w2 > 3.0 * w1);
/// ```
pub fn predicted_total(mesh: &Mesh, size: &SizeField) -> f64 {
    mesh.elems().map(|e| element_weight(mesh, e, size)).sum()
}

/// Predicted per-part element counts for a serial mesh with element labels —
/// what the adapted partition's loads will look like if no balancing is done
/// first (the Fig 13 scenario, computed a priori).
pub fn predicted_loads(
    mesh: &Mesh,
    labels: &[PartId],
    nparts: usize,
    size: &SizeField,
) -> Vec<f64> {
    let mut loads = vec![0f64; nparts];
    for e in mesh.elems() {
        loads[labels[e.idx()] as usize] += element_weight(mesh, e, size);
    }
    loads
}

/// One part's calibration evidence for a round: the per-branch *calibrated*
/// predicted load it carried into adaptation, and the element count
/// adaptation actually left it with.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Calibrated predicted load, split by [`Branch`] (indexed
    /// `Branch as usize`), summed over the part's elements just before
    /// adaptation ran.
    pub predicted: [f64; 3],
    /// Realized element count of the part after adaptation.
    pub realized: f64,
}

/// The paper-shape prediction error of a round: the total per-part
/// misprediction as a percentage of the realized mesh,
/// `Σ_p |pred_p − real_p| / Σ_p real_p · 100`. Zero when the predictor is
/// exact on every part; `0.0` for empty or all-zero input.
pub fn prediction_error_pct(samples: &[Sample]) -> f64 {
    let real: f64 = samples.iter().map(|s| s.realized).sum();
    if real <= 0.0 {
        return 0.0;
    }
    let err: f64 = samples
        .iter()
        .map(|s| (s.predicted.iter().sum::<f64>() - s.realized).abs())
        .sum();
    100.0 * err / real
}

/// Empirical correction state for the §III-B load predictor.
///
/// The raw [`element_weight`] model systematically overshoots: it assumes
/// every oversized edge splits all the way to `h` in one round, that
/// collapse demand is never vetoed at part boundaries, and that conformity
/// closure is free. The overshoot is *branch-dependent*, so `Calibration`
/// keeps one multiplicative factor per [`Branch`], fitted each round from
/// what adaptation actually did: [`observe`](Calibration::observe) solves
/// the per-part least-squares system
///
/// ```text
///   realized_p ≈ Σ_b c_b · predicted_{p,b}
/// ```
///
/// for the per-branch multipliers `c_b` (parts are the equations, branches
/// the unknowns) and folds them into the running factors. The next round's
/// weights — [`weight`](Calibration::weight) — are raw weights scaled by
/// the branch factor, so ParMA diffuses against a load that tracks what
/// refinement will really produce instead of a fiction.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    factors: [f64; 3],
    rounds: u32,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

/// Per-observation clamp on a fitted multiplier: one noisy round may not
/// swing a branch factor by more than this either way.
const FIT_CLAMP: f64 = 10.0;
/// Absolute bounds on a running branch factor.
const FACTOR_MIN: f64 = 1e-2;
const FACTOR_MAX: f64 = 1e2;

impl Calibration {
    /// Identity calibration: every branch factor 1 (raw model weights).
    pub fn new() -> Calibration {
        Calibration {
            factors: [1.0; 3],
            rounds: 0,
        }
    }

    /// The current correction factor of one branch.
    pub fn factor(&self, b: Branch) -> f64 {
        self.factors[b as usize]
    }

    /// All three factors, indexed `Branch as usize`.
    pub fn factors(&self) -> [f64; 3] {
        self.factors
    }

    /// Rounds of evidence folded in so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Calibrated predicted weight of one element: raw
    /// [`element_weight`] times the factor of its [`Branch`].
    pub fn weight(&self, mesh: &Mesh, e: MeshEnt, size: &SizeField) -> f64 {
        element_weight(mesh, e, size) * self.factor(classify(mesh, e, size))
    }

    /// Fold one round of evidence into the branch factors.
    ///
    /// Fits the per-branch multipliers by least squares over the parts
    /// (normal equations, 3×3 Gaussian elimination with partial pivoting).
    /// Branches with no predicted mass this round are left untouched and
    /// contribute their prediction unchanged to the residual. A singular
    /// or absurd fit (non-finite, or outside `1/FIT_CLAMP ‥ FIT_CLAMP`)
    /// falls back to the global ratio `Σ realized / Σ predicted` for every
    /// active branch. No-op on empty or degenerate input.
    pub fn observe(&mut self, samples: &[Sample]) {
        let total_pred: f64 = samples
            .iter()
            .map(|s| s.predicted.iter().sum::<f64>())
            .sum();
        let total_real: f64 = samples.iter().map(|s| s.realized).sum();
        if samples.is_empty() || total_pred <= 0.0 || total_real <= 0.0 {
            return;
        }
        // Branches carrying real predicted mass this round.
        let mass: [f64; 3] =
            Branch::ALL.map(|b| samples.iter().map(|s| s.predicted[b as usize]).sum::<f64>());
        let active: Vec<usize> = (0..3).filter(|&b| mass[b] > 1e-12 * total_pred).collect();
        if active.is_empty() {
            return;
        }
        // Normal equations over the active branches; inactive branches keep
        // factor 1 relative to their (calibrated) prediction. The per-branch
        // fit needs the system meaningfully overdetermined — with fewer
        // than 2 equations (parts) per unknown it mostly fits part-level
        // noise (part composition correlates with branch), so small worlds
        // go straight to the global ratio.
        let k = active.len();
        let mut c = None;
        if samples.len() >= 2 * k {
            let mut a = vec![vec![0f64; k]; k];
            let mut y = vec![0f64; k];
            for s in samples {
                let resid = s.realized
                    - (0..3)
                        .filter(|b| !active.contains(b))
                        .map(|b| s.predicted[b])
                        .sum::<f64>();
                for (i, &bi) in active.iter().enumerate() {
                    y[i] += s.predicted[bi] * resid;
                    for (j, &bj) in active.iter().enumerate() {
                        a[i][j] += s.predicted[bi] * s.predicted[bj];
                    }
                }
            }
            c = solve(&mut a, &mut y);
        }
        let sane = |v: f64| v.is_finite() && (1.0 / FIT_CLAMP..=FIT_CLAMP).contains(&v);
        if !c.as_deref().is_some_and(|c| c.iter().copied().all(sane)) {
            // Degenerate geometry (collinear branch columns, a part count
            // too small to separate the branches): one global ratio still
            // shrinks the total error.
            let ratio = (total_real / total_pred).clamp(1.0 / FIT_CLAMP, FIT_CLAMP);
            c = Some(vec![ratio; k]);
        }
        for (i, &b) in active.iter().enumerate() {
            self.factors[b] =
                (self.factors[b] * c.as_ref().unwrap()[i]).clamp(FACTOR_MIN, FACTOR_MAX);
        }
        self.rounds += 1;
    }
}

/// Solve the `k×k` system `a·x = y` in place by Gaussian elimination with
/// partial pivoting; `None` if (near-)singular.
fn solve(a: &mut [Vec<f64>], y: &mut [f64]) -> Option<Vec<f64>> {
    let k = y.len();
    for col in 0..k {
        let piv = (col..k).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[piv][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, piv);
        y.swap(col, piv);
        let pivot_row = a[col].clone();
        for row in col + 1..k {
            let f = a[row][col] / pivot_row[col];
            for (cc, &pv) in pivot_row.iter().enumerate().skip(col) {
                a[row][cc] -= f * pv;
            }
            y[row] -= f * y[col];
        }
    }
    let mut x = vec![0f64; k];
    for col in (0..k).rev() {
        let mut v = y[col];
        for cc in col + 1..k {
            v -= a[col][cc] * x[cc];
        }
        x[col] = v / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_meshgen::tri_rect;
    use pumi_util::stats::imbalance;

    #[test]
    fn uniform_size_match_gives_unit_weights() {
        // Lattice spacing 0.25; target 0.25 → weights ~1 per element.
        let m = tri_rect(4, 4, 1.0, 1.0);
        let size = SizeField::uniform(0.3);
        for e in m.elems() {
            let w = element_weight(&m, e, &size);
            assert!((1.0..2.5).contains(&w), "weight {w}");
        }
    }

    #[test]
    fn coarsening_demand_counts_fractional_elements() {
        // Lattice spacing 0.125 with target h = 1.0: every element is deep
        // in collapse territory (ratio ≈ 0.14 « 0.5), so the prediction
        // must be far below the current count — the old `.max(1.0)` clamp
        // reported full load here.
        let m = tri_rect(8, 8, 1.0, 1.0);
        let size = SizeField::uniform(1.0);
        for e in m.elems() {
            let w = element_weight(&m, e, &size);
            assert!(w < 0.1, "collapse-marked element predicted at {w}");
        }
        let total = predicted_total(&m, &size);
        assert!(
            total < 0.1 * m.num_elems() as f64,
            "coarsening prediction {total} not below current {}",
            m.num_elems()
        );
        // Keep band: ratio between the collapse band and 1 stays at unit
        // weight (no half-elements from the gap where nothing collapses).
        let keep = SizeField::uniform(0.2); // ratio ≈ 0.7
        for e in m.elems() {
            assert_eq!(element_weight(&m, e, &keep), 1.0);
        }
    }

    #[test]
    fn refinement_demand_scales_quadratically_in_2d() {
        let m = tri_rect(2, 2, 1.0, 1.0);
        let w1 = predicted_total(&m, &SizeField::uniform(0.5));
        let w2 = predicted_total(&m, &SizeField::uniform(0.25));
        // Halving the size quadruples the 2D demand.
        assert!(w2 / w1 > 3.0 && w2 / w1 < 5.0, "ratio {}", w2 / w1);
    }

    /// Regression (degenerate size field): `h = 0` at an evaluation point
    /// used to drive `ratio.powi(dim)` to `inf`, and one poisoned element
    /// then corrupted the whole part's predicted load. The floor + cap keep
    /// every weight finite and bounded.
    #[test]
    fn degenerate_size_value_cannot_poison_a_part() {
        let m = tri_rect(4, 4, 1.0, 1.0);
        // Zero exactly at x < 0.3, sane elsewhere: a few poisoned
        // evaluation points inside an otherwise healthy field.
        let size = SizeField::analytic(|p| if p[0] < 0.3 { 0.0 } else { 0.25 });
        for e in m.elems() {
            let w = element_weight(&m, e, &size);
            assert!(w.is_finite(), "poisoned element weight {w}");
            assert!(w <= MAX_ELEMENT_WEIGHT, "weight {w} above the cap");
        }
        let labels = vec![0 as PartId; m.index_space(m.elem_dim_t())];
        let loads = predicted_loads(&m, &labels, 1, &size);
        assert!(loads[0].is_finite(), "part load poisoned: {loads:?}");
        // Branch classification survives too (a zero-h element is deep in
        // refine territory, not NaN territory).
        let e = m.elems().next().unwrap();
        assert_eq!(classify(&m, e, &size), Branch::Refine);
    }

    #[test]
    fn prediction_error_is_relative_l1() {
        let exact = [
            Sample {
                predicted: [3.0, 1.0, 0.0],
                realized: 4.0,
            },
            Sample {
                predicted: [0.0, 6.0, 0.0],
                realized: 6.0,
            },
        ];
        assert_eq!(prediction_error_pct(&exact), 0.0);
        let off = [
            Sample {
                predicted: [8.0, 0.0, 0.0],
                realized: 4.0,
            },
            Sample {
                predicted: [0.0, 6.0, 0.0],
                realized: 6.0,
            },
        ];
        assert!((prediction_error_pct(&off) - 40.0).abs() < 1e-9);
        assert_eq!(prediction_error_pct(&[]), 0.0);
    }

    /// `observe` recovers known branch-wise distortions: synthesize parts
    /// whose realized load is an exact branch-dependent scaling of the
    /// prediction and check the fitted factors land on the truth.
    #[test]
    fn calibration_fits_branch_factors() {
        let truth = [0.4, 1.0, 2.5]; // refine overshoots, collapse undershoots
        let samples: Vec<Sample> = (0..8)
            .map(|p| {
                let pred = [10.0 + p as f64, 5.0 + (p % 3) as f64, 1.0 + (p % 2) as f64];
                Sample {
                    predicted: pred,
                    realized: pred.iter().zip(truth).map(|(x, t)| x * t).sum(),
                }
            })
            .collect();
        let mut cal = Calibration::new();
        cal.observe(&samples);
        assert_eq!(cal.rounds(), 1);
        for (b, t) in Branch::ALL.into_iter().zip(truth) {
            assert!(
                (cal.factor(b) - t).abs() < 1e-6,
                "branch {b:?}: fitted {} want {t}",
                cal.factor(b)
            );
        }
        // Applying the fit makes the calibrated prediction exact: error 0.
        let recal: Vec<Sample> = samples
            .iter()
            .map(|s| Sample {
                predicted: [
                    s.predicted[0] * cal.factor(Branch::Refine),
                    s.predicted[1] * cal.factor(Branch::Keep),
                    s.predicted[2] * cal.factor(Branch::Collapse),
                ],
                realized: s.realized,
            })
            .collect();
        assert!(prediction_error_pct(&recal) < 1e-6);
    }

    /// Degenerate evidence falls back to the global ratio instead of an
    /// absurd fit, and empty/zero input is a no-op.
    #[test]
    fn calibration_degenerate_inputs() {
        let mut cal = Calibration::new();
        cal.observe(&[]);
        assert_eq!(cal.factors(), [1.0; 3]);
        assert_eq!(cal.rounds(), 0);
        // Every part identical → singular normal matrix → global ratio 0.5.
        let s = Sample {
            predicted: [4.0, 4.0, 4.0],
            realized: 6.0,
        };
        cal.observe(&[s; 4]);
        for b in Branch::ALL {
            assert!((cal.factor(b) - 0.5).abs() < 1e-9, "{:?}", cal.factors());
        }
        // Factors stay within the absolute bounds under repeated extreme
        // evidence.
        let crush = Sample {
            predicted: [1000.0, 0.0, 0.0],
            realized: 0.001,
        };
        for _ in 0..10 {
            cal.observe(&[crush; 4]);
        }
        assert!(cal.factor(Branch::Refine) >= 1e-2);
    }

    #[test]
    fn shock_field_predicts_imbalance() {
        let m = tri_rect(8, 8, 1.0, 1.0);
        // Stripe partition in y; shock along y=0.1 hits only part 0.
        let mut labels = vec![0 as PartId; m.index_space(m.elem_dim_t())];
        for e in m.iter(m.elem_dim_t()) {
            labels[e.idx()] = (m.centroid(e)[1] * 4.0).floor().min(3.0) as PartId;
        }
        let size = SizeField::shock(|p| p[1] - 0.1, 0.02, 0.5, 0.03);
        let loads = predicted_loads(&m, &labels, 4, &size);
        assert!(
            imbalance(&loads) > 1.5,
            "shock should predict a spike: {loads:?}"
        );
        // The spike is in part 0 where the shock lives.
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(loads[0], max);
    }
}
