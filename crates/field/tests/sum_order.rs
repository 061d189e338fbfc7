//! The summation order of an `Add` sync, pinned bit for bit.
//!
//! Values are tenths, which binary floating point cannot hold exactly, so
//! `a + b + c` and `a + c + b` can differ in the last bit and "equal" tests
//! the order as well as the terms. The oracle starts every entity from its
//! root's own value and adds every other copy's value in ascending part
//! order; after the sync every copy, ghosts included, must hold that sum.
//! The mesh is cut into 2 × 3 blocks, so vertices where blocks meet have
//! three or four boundary copies, and a depth-1 overlap adds ghost copies.

use pumi_core::overlap::{Overlap, Reduction};
use pumi_core::{distribute, PartMap};
use pumi_field::{dist_field, Field, FieldShape, FieldSync};
use pumi_meshgen::tri_rect;
use pumi_pcu::execute;
use pumi_util::{Dim, FxHashMap, PartId};

const PARTS: usize = 6;
const NCOMP: usize = 2;

/// One vertex copy: where it lives, whether it is the root, and its value
/// before and after the sync.
struct Copy {
    gid: u64,
    part: PartId,
    root: bool,
    before: [f64; NCOMP],
    after: [f64; NCOMP],
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A tenth in `[-5, 5)` for component `k` of the copy `(part, gid)`.
fn tenth(part: PartId, gid: u64, k: usize) -> f64 {
    let h = mix(((part as u64) << 40) ^ (gid << 2) ^ k as u64);
    (h % 100) as f64 / 10.0 - 5.0
}

/// Every vertex copy of one depth-1 `Add` sync on `nranks` ranks.
fn run(nranks: usize) -> Vec<Copy> {
    let per_rank = execute(nranks, move |c| {
        let serial = tri_rect(9, 8, 3.0, 2.0);
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            let x = serial.centroid(e);
            labels[e.idx()] = x[0].floor() as PartId + 3 * (x[1] >= 1.0) as PartId;
        }
        let mut dm = distribute(c, PartMap::contiguous(PARTS, nranks), &serial, &labels);
        let mut ov = Overlap::from_dist(&dm);
        assert!(ov.grow(c, &mut dm, 1) > 0, "no ghosts grown");
        let mut fields = dist_field(&dm, &Field::new("u", FieldShape::Linear, NCOMP));
        let mut copies = Vec::new();
        for (part, f) in dm.parts.iter().zip(&mut fields) {
            for v in part.mesh.iter(Dim::Vertex) {
                let gid = part.gid_of(v);
                let before = std::array::from_fn(|k| tenth(part.id, gid, k));
                f.set(v, &before);
                copies.push(Copy {
                    gid,
                    part: part.id,
                    root: part.is_owned(v) && !part.is_ghost(v),
                    before,
                    after: [f64::NAN; NCOMP],
                });
            }
        }
        fields.sync(c, &dm, &ov, Reduction::Add);
        let mut at = copies.iter_mut();
        for (part, f) in dm.parts.iter().zip(&fields) {
            for v in part.mesh.iter(Dim::Vertex) {
                let got = f.get(v).expect("every copy holds a value");
                at.next().unwrap().after.copy_from_slice(got);
            }
        }
        copies
    });
    per_rank.into_iter().flatten().collect()
}

#[test]
fn add_sums_from_the_root_in_ascending_part_order() {
    for nranks in [1, 3] {
        let copies = run(nranks);
        let mut stars: FxHashMap<u64, Vec<&Copy>> = FxHashMap::default();
        for c in &copies {
            stars.entry(c.gid).or_default().push(c);
        }
        let crowded = stars.values().filter(|s| s.len() >= 3).count();
        assert!(crowded > 0, "no vertex has three copies");
        for (gid, mut star) in stars {
            star.sort_by_key(|c| c.part);
            let roots: Vec<&&Copy> = star.iter().filter(|c| c.root).collect();
            assert_eq!(roots.len(), 1, "vertex {gid} has {} roots", roots.len());
            let mut want = roots[0].before;
            for c in star.iter().filter(|c| !c.root) {
                for (w, x) in want.iter_mut().zip(c.before) {
                    *w += x;
                }
            }
            for c in &star {
                assert_eq!(
                    c.after.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "vertex {gid} on part {} of {} copies, {nranks} ranks: {:?} != {want:?}",
                    c.part,
                    star.len(),
                    c.after
                );
            }
        }
    }
}
