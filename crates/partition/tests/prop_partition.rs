//! Property tests for the partitioners: total coverage, label ranges,
//! balance bounds, nesting of local splits, and the curve cut's contiguity,
//! over randomized domains.

use proptest::prelude::*;
use pumi_meshgen::{jitter, tet_box, tri_rect};
use pumi_partition::sfc::morton_keys;
use pumi_partition::{
    partition_mesh, partition_mesh_hier, sfc_partition, split_labels, HierOpts, PartitionQuality,
};
use pumi_pcu::MachineModel;
use pumi_util::stats::imbalance;
use pumi_util::Dim;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every partitioner assigns every element a label in range, uses every
    /// part, and keeps element imbalance bounded.
    #[test]
    fn all_partitioners_cover_and_balance(
        nx in 6usize..14,
        ny in 6usize..14,
        k in 2usize..9,
        seed in 0u64..1000,
    ) {
        let mut m = tri_rect(nx, ny, 1.0, 1.0);
        jitter(&mut m, 0.2, seed);
        for labels in [partition_mesh(&m, k), sfc_partition(&m, k, |_| 1.0)] {
            let mut loads = vec![0f64; k];
            for e in m.iter(m.elem_dim_t()) {
                let l = labels[e.idx()] as usize;
                prop_assert!(l < k, "label {l} out of range");
                loads[l] += 1.0;
            }
            prop_assert!(loads.iter().all(|&l| l > 0.0), "empty part: {loads:?}");
            prop_assert!(imbalance(&loads) < 1.35, "imbalance {loads:?}");
        }
    }

    /// The curve cut under random element weights: labels never decrease
    /// along the Morton order of the centroids (each part is one contiguous
    /// range), every part's weight is within one element's weight of the
    /// mean, and a second call returns the same labels.
    #[test]
    fn sfc_ranges_are_contiguous_balanced_and_deterministic(
        nx in 4usize..12,
        k in 1usize..9,
        seed in 0u64..1000,
    ) {
        let mut m = tet_box(nx, 4, 3, 1.0, 0.7, 0.5);
        jitter(&mut m, 0.2, seed);
        let weight = |e: pumi_util::MeshEnt| 1.0 + ((e.index() as u64 * 7919 + seed) % 5) as f64;
        let labels = sfc_partition(&m, k, weight);
        prop_assert_eq!(&labels, &sfc_partition(&m, k, weight));

        let elems: Vec<_> = m.iter(m.elem_dim_t()).collect();
        let centroids: Vec<[f64; 3]> = elems.iter().map(|&e| m.centroid(e)).collect();
        let keys = morton_keys(&centroids);
        let mut order: Vec<usize> = (0..elems.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let along: Vec<u32> = order.iter().map(|&i| labels[elems[i].idx()]).collect();
        prop_assert!(along.windows(2).all(|w| w[0] <= w[1]), "not contiguous: {along:?}");

        let mut loads = vec![0f64; k];
        for &e in &elems {
            loads[labels[e.idx()] as usize] += weight(e);
        }
        let mean = loads.iter().sum::<f64>() / k as f64;
        let heaviest = elems.iter().map(|&e| weight(e)).fold(0.0, f64::max);
        prop_assert!(
            loads.iter().all(|&l| (l - mean).abs() <= heaviest),
            "loads {loads:?} around {mean} with elements up to {heaviest}"
        );
    }

    /// Local splitting nests: fine label / k == coarse label, and every
    /// fine part within a coarse part is non-empty.
    #[test]
    fn local_split_nests(k in 2usize..5, sub in 2usize..5) {
        let m = tet_box(5, 5, 5, 1.0, 1.0, 1.0);
        let coarse = partition_mesh(&m, k);
        let fine = split_labels(&m, &coarse, k, sub);
        let mut counts = vec![0usize; k * sub];
        for e in m.iter(m.elem_dim_t()) {
            prop_assert_eq!(fine[e.idx()] as usize / sub, coarse[e.idx()] as usize);
            counts[fine[e.idx()] as usize] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    /// Two-level partitions stay balanced on 2- and 4-node machines (the
    /// node counts whose labels are node-major; 3 nodes are refused).
    #[test]
    fn two_level_balance(log2_nodes in 1u32..3, cores in 2usize..5) {
        let nodes = 1usize << log2_nodes;
        let m = tet_box(5, 5, 5, 1.0, 1.0, 1.0);
        let machine = MachineModel::new(nodes, cores);
        let labels = partition_mesh_hier(&m, nodes * cores, &machine, HierOpts::default());
        let q = PartitionQuality::compute(&m, &labels, nodes * cores);
        prop_assert!(q.imbalance_pct(Dim::Region) < 35.0);
        prop_assert!(q.stats(Dim::Region).min > 0.0);
    }

    /// Partition quality accounting is self-consistent: per-part element
    /// counts sum to the mesh total; boundary copies are at least the
    /// distinct boundary entities.
    #[test]
    fn quality_self_consistent(k in 2usize..8) {
        let m = tri_rect(10, 10, 1.0, 1.0);
        let labels = partition_mesh(&m, k);
        let q = PartitionQuality::compute(&m, &labels, k);
        let total: f64 = q.counts[2].iter().sum();
        prop_assert_eq!(total as usize, m.num_elems());
        // Vertex copies: sum over parts >= distinct vertices; difference =
        // boundary duplication.
        let vsum: f64 = q.counts[0].iter().sum();
        let dup = vsum as usize - m.count(Dim::Vertex);
        // Each boundary vertex on r parts contributes r copies and r-1 dups.
        prop_assert!(dup < q.boundary_copies[0]);
        prop_assert!(q.boundary_copies[0] <= 2 * dup);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recursive bisection numbers parts node-major: on a machine with a
    /// power-of-two node count, node `i`'s block of `cores` parts is exactly
    /// part `i` of the `nodes`-way partition, so `partition_mesh_hier` can
    /// forward to `partition_mesh`. The blocks stay balanced.
    #[test]
    fn node_major_labels(
        tet in 0u32..2,
        log2_nodes in 0u32..4,
        cores in 1usize..5,
    ) {
        let nodes = 1usize << log2_nodes;
        let m = if tet == 1 {
            tet_box(5, 5, 5, 1.0, 1.0, 1.0)
        } else {
            tri_rect(16, 16, 1.0, 1.0)
        };
        let n = nodes * cores;
        let machine = MachineModel::new(nodes, cores);
        let labels = partition_mesh_hier(&m, n, &machine, HierOpts::default());
        let flat = partition_mesh(&m, n);
        let node_labels = partition_mesh(&m, nodes);
        for e in m.iter(m.elem_dim_t()) {
            prop_assert_eq!(labels[e.idx()], flat[e.idx()]);
            prop_assert_eq!(labels[e.idx()] as usize / cores, node_labels[e.idx()] as usize);
        }
        let q = PartitionQuality::compute(&m, &labels, n);
        prop_assert!(q.imbalance_pct(m.elem_dim_t()) < 35.0);
        prop_assert!(q.stats(m.elem_dim_t()).min > 0.0);
    }
}

/// Recursive bisection cuts node blocks only at power-of-two node counts,
/// so a 3-node machine with several cores per node is refused.
#[test]
#[should_panic(expected = "power-of-two node count")]
fn three_node_machine_is_refused() {
    let m = tri_rect(8, 8, 1.0, 1.0);
    partition_mesh_hier(&m, 12, &MachineModel::new(3, 4), HierOpts::default());
}

/// Weighted partitioning balances the *weights*, not the element counts —
/// the predictive-balancing contract.
#[test]
fn weighted_partition_balances_weights() {
    use pumi_partition::partition_mesh_weighted;
    let m = tri_rect(12, 12, 1.0, 1.0);
    // Elements on the left half cost 9x.
    let weight = |e: pumi_util::MeshEnt| {
        if m.centroid(e)[0] < 0.5 {
            9.0
        } else {
            1.0
        }
    };
    let k = 4;
    let labels = partition_mesh_weighted(&m, k, weight);
    let mut wloads = vec![0f64; k];
    let mut eloads = vec![0f64; k];
    for e in m.iter(m.elem_dim_t()) {
        wloads[labels[e.idx()] as usize] += weight(e);
        eloads[labels[e.idx()] as usize] += 1.0;
    }
    assert!(imbalance(&wloads) < 1.2, "weights not balanced: {wloads:?}");
    // Element counts end up more skewed than the weights (parts rich in
    // cheap right-half elements must hold more of them).
    assert!(
        imbalance(&eloads) > imbalance(&wloads),
        "{eloads:?} vs {wloads:?}"
    );
}
