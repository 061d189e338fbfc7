//! Property test for halo sync over the compiled share map: every
//! reduction × field shape × component count × overlap depth, with values
//! missing on some copies, on 1 rank × 4 parts and on 4 ranks, against an
//! oracle gathered by global id from `Part` bookkeeping.
//!
//! Values are dyadic (eighths in [-4, 4)), so sums are exact in any order
//! and "equal" means bit-identical. Dimensions that hold no node of the
//! field's shape carry values too; a sync must leave them alone.

use proptest::prelude::*;
use pumi_core::overlap::{Overlap, Reduction};
use pumi_core::{distribute, PartMap};
use pumi_field::{dist_field, Field, FieldShape, FieldSync};
use pumi_meshgen::tri_rect;
use pumi_pcu::execute;
use pumi_util::{Dim, FxHashMap, PartId};

const REDUCTIONS: [Reduction; 4] = [
    Reduction::Insert,
    Reduction::Add,
    Reduction::Min,
    Reduction::Max,
];
const SHAPES: [FieldShape; 3] = [
    FieldShape::Linear,
    FieldShape::Quadratic,
    FieldShape::Constant,
];

/// Every dimension of the 2-D test mesh.
const DIMS: [Dim; 3] = [Dim::Vertex, Dim::Edge, Dim::Face];

/// One copy of an entity, before and after the sync.
#[derive(Debug, Clone)]
struct Copy {
    dim: Dim,
    gid: u64,
    part: PartId,
    /// The owner's own (non-ghost) copy: the root of the entity's star.
    root: bool,
    before: Option<Vec<f64>>,
    after: Option<Vec<f64>>,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The value copy `(part, dim, gid)` starts with: none on about a quarter of
/// the copies.
fn initial(seed: u64, part: PartId, dim: Dim, gid: u64, ncomp: usize) -> Option<Vec<f64>> {
    let h = mix(seed ^ mix(((part as u64) << 48) | ((dim.as_usize() as u64) << 40) | gid));
    (h & 3 != 0).then(|| {
        (0..ncomp as u64)
            .map(|k| (mix(h ^ k) % 64) as f64 / 8.0 - 4.0)
            .collect()
    })
}

/// Run one sync on a 4-part quadrant split of a 6×6 triangle grid and
/// return every copy of every entity.
fn run(
    nranks: usize,
    seed: u64,
    red: Reduction,
    shape: FieldShape,
    ncomp: usize,
    depth: usize,
) -> Vec<Copy> {
    let per_rank = execute(nranks, move |c| {
        let serial = tri_rect(6, 6, 2.0, 2.0);
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            let x = serial.centroid(e);
            labels[e.idx()] = (x[0] >= 1.0) as PartId + 2 * ((x[1] >= 1.0) as PartId);
        }
        let mut dm = distribute(c, PartMap::contiguous(4, nranks), &serial, &labels);
        let mut ov = Overlap::from_dist(&dm);
        ov.grow(c, &mut dm, depth);

        let mut fields = dist_field(&dm, &Field::new("u", shape, ncomp));
        let mut copies = Vec::new();
        for (part, f) in dm.parts.iter().zip(&mut fields) {
            for dim in DIMS {
                for e in part.mesh.iter(dim) {
                    let gid = part.gid_of(e);
                    let before = initial(seed, part.id, dim, gid, ncomp);
                    if let Some(v) = &before {
                        f.set(e, v);
                    }
                    copies.push(Copy {
                        dim,
                        gid,
                        part: part.id,
                        root: part.is_owned(e),
                        before,
                        after: None,
                    });
                }
            }
        }
        fields.sync(c, &dm, &ov, red);
        let mut at = copies.iter_mut();
        for (part, f) in dm.parts.iter().zip(&fields) {
            for dim in DIMS {
                for e in part.mesh.iter(dim) {
                    at.next().unwrap().after = f.get(e).map(<[f64]>::to_vec);
                }
            }
            let held = DIMS
                .iter()
                .flat_map(|&dim| part.mesh.iter(dim))
                .filter(|&e| f.get(e).is_some())
                .count();
            assert_eq!(f.len(), held, "len() lost count on part {}", part.id);
        }
        copies
    });
    per_rank.into_iter().flatten().collect()
}

/// What every copy must hold after the sync, by `(dim, gid)`; `None` means
/// "whatever it held before".
fn oracle(
    copies: &[Copy],
    red: Reduction,
    node_dims: &[Dim],
) -> FxHashMap<(Dim, u64), Option<Vec<f64>>> {
    let mut stars: FxHashMap<(Dim, u64), Vec<&Copy>> = FxHashMap::default();
    for c in copies {
        stars.entry((c.dim, c.gid)).or_default().push(c);
    }
    stars
        .into_iter()
        .map(|(key, star)| {
            let roots = star.iter().filter(|c| c.root).count();
            assert_eq!(roots, 1, "{key:?} has {roots} roots");
            if !node_dims.contains(&key.0) {
                return (key, None);
            }
            let combine: fn(f64, f64) -> f64 = match red {
                Reduction::Insert => {
                    let root = star.iter().find(|c| c.root).unwrap();
                    return (key, root.before.clone());
                }
                Reduction::Add => |a, b| a + b,
                Reduction::Min => f64::min,
                Reduction::Max => f64::max,
            };
            let all = star
                .iter()
                .filter_map(|c| c.before.clone())
                .reduce(|acc, v| acc.iter().zip(&v).map(|(&a, &b)| combine(a, b)).collect());
            (key, all)
        })
        .collect()
}

fn bits(v: &Option<Vec<f64>>) -> Option<Vec<u64>> {
    v.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect())
}

/// One cell of the matrix: every copy holds what the oracle says.
fn check(seed: u64, red: Reduction, shape: FieldShape, ncomp: usize, depth: usize, nranks: usize) {
    let copies = run(nranks, seed, red, shape, ncomp, depth);
    let want = oracle(&copies, red, shape.node_dims(2));
    for c in &copies {
        let want = want[&(c.dim, c.gid)].as_ref().or(c.before.as_ref());
        assert_eq!(
            bits(&c.after),
            bits(&want.cloned()),
            "{red:?} {shape:?} x{ncomp} depth {depth} on {nranks} ranks: {:?} gid {} on part {} \
             (before {:?})",
            c.dim,
            c.gid,
            c.part,
            c.before
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn sync_matches_the_gid_oracle(seed in 0u64..1_000_000) {
        for red in REDUCTIONS {
            for shape in SHAPES {
                for ncomp in [1, 3] {
                    for depth in 0..=2 {
                        check(seed, red, shape, ncomp, depth, 1);
                        check(seed, red, shape, ncomp, depth, 4);
                    }
                }
            }
        }
    }
}
