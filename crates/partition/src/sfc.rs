//! Space-filling-curve partitioning (§III): Morton order over element
//! centroids, cut into contiguous weight-balanced ranges.
//!
//! "Faster partition computation is available through geometric methods...
//! However, as they do not account for mesh connectivity information, the
//! quality of partition boundaries can be poor." The curve is the cheapest
//! geometric method: one key per element, one sort, one sweep. p4est orders
//! its forest the same way (arXiv:1702.06898), and the checkpoint restore
//! cuts a file part into sub-parts with it.

use pumi_mesh::Mesh;
use pumi_util::{MeshEnt, PartId};

/// Bits per axis of a Morton key: three axes fill 63 bits of a `u64`.
pub const MORTON_BITS: u32 = 21;

/// Spread the low [`MORTON_BITS`] bits of `x` to every third bit.
fn spread(x: u64) -> u64 {
    let mut x = x & ((1 << MORTON_BITS) - 1);
    x = (x | x << 32) & 0x001F_0000_0000_FFFF;
    x = (x | x << 16) & 0x001F_0000_FF00_00FF;
    x = (x | x << 8) & 0x100F_00F0_0F00_F00F;
    x = (x | x << 4) & 0x10C3_0C30_C30C_30C3;
    x = (x | x << 2) & 0x1249_2492_4924_9249;
    x
}

/// Morton keys of `points` over their bounding box. The box is scaled as a
/// cube (its longest side spans the [`MORTON_BITS`]-bit grid), so the curve
/// keeps the domain's aspect ratio; at each level the x bit is the most
/// significant.
pub fn morton_keys(points: &[[f64; 3]]) -> Vec<u64> {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in points {
        for a in 0..3 {
            lo[a] = lo[a].min(p[a]);
            hi[a] = hi[a].max(p[a]);
        }
    }
    let extent = (0..3).map(|a| hi[a] - lo[a]).fold(0.0, f64::max);
    let top = ((1u64 << MORTON_BITS) - 1) as f64;
    let scale = if extent > 0.0 { top / extent } else { 0.0 };
    points
        .iter()
        .map(|p| {
            let cell = |a: usize| ((p[a] - lo[a]) * scale).clamp(0.0, top) as u64;
            spread(cell(0)) << 2 | spread(cell(1)) << 1 | spread(cell(2))
        })
        .collect()
}

/// Cut `weights`, given in curve order, into `k` contiguous ranges of about
/// equal weight. Returns the `k + 1` range bounds: range `j` is
/// `bounds[j]..bounds[j + 1]`. Bound `j` is the first position whose prefix
/// weight reaches `j/k` of the total, so each range is within one element's
/// weight of `total / k`; unit weights give counts within one of `n / k`.
pub fn weighted_cut(weights: &[f64], k: usize) -> Vec<usize> {
    assert!(k >= 1, "a cut needs at least one range");
    let total: f64 = weights.iter().sum();
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0);
    let (mut at, mut acc) = (0, 0.0);
    for j in 1..k {
        let target = total * j as f64 / k as f64;
        while at < weights.len() && acc < target {
            acc += weights[at];
            at += 1;
        }
        bounds.push(at);
    }
    bounds.push(weights.len());
    bounds
}

/// Partition a mesh's elements into `k` parts along the Morton curve of
/// their centroids, balancing `weight` (the closure
/// [`crate::partition_mesh_weighted`] takes, so predictive weights work
/// unchanged). Elements with equal keys keep handle order. Labels are
/// indexed by element handle index, as `pumi_core::distribute` consumes
/// them.
pub fn sfc_partition(mesh: &Mesh, k: usize, weight: impl Fn(MeshEnt) -> f64) -> Vec<PartId> {
    let d = mesh.elem_dim_t();
    let elems: Vec<MeshEnt> = mesh.iter(d).collect();
    let centroids: Vec<[f64; 3]> = elems.iter().map(|&e| mesh.centroid(e)).collect();
    let keys = morton_keys(&centroids);
    let mut order: Vec<usize> = (0..elems.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    let weights: Vec<f64> = order.iter().map(|&i| weight(elems[i])).collect();
    let bounds = weighted_cut(&weights, k);
    let mut labels = vec![0 as PartId; mesh.index_space(d)];
    for (j, range) in bounds.windows(2).enumerate() {
        for &i in &order[range[0]..range[1]] {
            labels[elems[i].idx()] = j as PartId;
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_meshgen::{tet_box, tri_rect};
    use pumi_util::stats::imbalance;

    fn loads(mesh: &Mesh, labels: &[PartId], k: usize) -> Vec<f64> {
        let mut v = vec![0f64; k];
        for e in mesh.iter(mesh.elem_dim_t()) {
            v[labels[e.idx()] as usize] += 1.0;
        }
        v
    }

    #[test]
    fn keys_interleave_x_above_y_above_z() {
        let top = (1u64 << MORTON_BITS) - 1;
        let keys = morton_keys(&[[0.0; 3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert_eq!(keys[0], 0);
        assert_eq!(keys[1], spread(top) << 2);
        assert_eq!(keys[2], spread(top) << 1);
        assert_eq!(keys[3], spread(top));
        assert_eq!(keys[1] | keys[2] | keys[3], (1 << (3 * MORTON_BITS)) - 1);
    }

    #[test]
    fn sfc_balances_exactly_for_powers_of_two() {
        let m = tri_rect(8, 8, 1.0, 1.0);
        let l = loads(&m, &sfc_partition(&m, 4, |_| 1.0), 4);
        assert!(imbalance(&l) < 1.001, "{l:?}");
    }

    #[test]
    fn sfc_odd_part_counts() {
        let m = tri_rect(9, 9, 1.0, 1.0);
        let l = loads(&m, &sfc_partition(&m, 5, |_| 1.0), 5);
        assert!(l.iter().all(|&x| (x - 162.0 / 5.0).abs() < 1.0), "{l:?}");
    }

    #[test]
    fn strip_is_cut_across_its_length() {
        // The cube box puts the long axis in the top bits: the first half
        // of the curve is the left half of the strip.
        let m = tri_rect(16, 1, 16.0, 1.0);
        let labels = sfc_partition(&m, 2, |_| 1.0);
        for e in m.iter(m.elem_dim_t()) {
            let x = m.centroid(e)[0];
            assert_eq!(labels[e.idx()], PartId::from(x > 8.0), "x = {x}");
        }
    }

    #[test]
    fn sfc_balances_3d() {
        let m = tet_box(5, 5, 5, 1.0, 2.0, 0.5);
        let l = loads(&m, &sfc_partition(&m, 6, |_| 1.0), 6);
        let mean = m.num_elems() as f64 / 6.0;
        assert!(l.iter().all(|&x| (x - mean).abs() < 1.0), "{l:?}");
    }

    #[test]
    fn sfc_covers_all_parts() {
        let m = tet_box(4, 4, 4, 1.0, 1.0, 1.0);
        for k in [2usize, 3, 7] {
            let l = loads(&m, &sfc_partition(&m, k, |_| 1.0), k);
            let mean = m.num_elems() as f64 / k as f64;
            assert!(l.iter().all(|&x| x > 0.0), "empty part at k={k}: {l:?}");
            assert!(l.iter().all(|&x| (x - mean).abs() < 1.0), "k={k}: {l:?}");
        }
    }

    #[test]
    fn cut_of_uneven_weights() {
        assert_eq!(weighted_cut(&[1.0; 5], 2), [0, 3, 5]);
        assert_eq!(weighted_cut(&[3.0, 1.0, 1.0, 1.0], 2), [0, 1, 4]);
        assert_eq!(weighted_cut(&[1.0], 3), [0, 1, 1, 1]);
        assert_eq!(weighted_cut(&[], 2), [0, 0, 0]);
    }
}
