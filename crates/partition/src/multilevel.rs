//! The graph partitioner standing in for Zoltan PHG (§III, test T0).
//!
//! Recursive bisection: each split grows one half greedily from a peripheral
//! node (Farhat-style greedy graph growing), then runs
//! Fiduccia–Mattheyses-flavoured boundary refinement passes to reduce the
//! edge cut under a balance constraint. This reproduces the properties the
//! paper's experiments need from PHG: element counts balanced to ~a few
//! percent, contiguous-ish parts, decent boundaries — and, crucially, no
//! control over vertex/edge balance, which is what leaves the ~20% vertex
//! imbalance spikes that ParMA then removes.
//!
//! There is no coarsening level despite the module's name. Both selection
//! loops of a bisection — growth's best frontier node and rebalancing's
//! best boundary node — take their node from a max-heap that skips stale
//! entries, so a bisection of `n` nodes costs O(n log n) rather than the
//! O(n · frontier) and O(n · moves) of scanning every candidate per pick.
//! The heaps choose exactly what those scans chose, ties included; the
//! test module keeps the scans as the oracle.

use crate::graph::DualGraph;
use pumi_util::PartId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// FM refinement passes per bisection.
const REFINE_PASSES: usize = 4;
/// Allowed element-count imbalance per bisection (0.01 = 1%).
const BALANCE_TOL: f64 = 0.01;

/// Partition the dual graph into `nparts` labels `0..nparts`.
pub fn partition_graph(g: &DualGraph, nparts: usize) -> Vec<PartId> {
    assert!(nparts >= 1);
    let mut labels = vec![0 as PartId; g.len()];
    if nparts == 1 || g.is_empty() {
        return labels;
    }
    let nodes: Vec<u32> = (0..g.len() as u32).collect();
    let mut work = Work::new(g.len());
    recurse(g, &nodes, 0, nparts, &mut labels, &mut work);
    labels
}

/// Whole-graph scratch that every bisection of one [`partition_graph`]
/// call reuses. A bisection writes entries only at its subset's nodes and
/// puts them back, or resets them before it reads them, so it costs its
/// subset, not the graph.
struct Work {
    /// The subset being split; all false between uses.
    active: Vec<bool>,
    /// `components`' and the peripheral sweeps' visited marks; all false
    /// between uses.
    seen: Vec<bool>,
    /// The peripheral sweeps' BFS queue, reused across bisections.
    queue: Vec<u32>,
    /// The side of each subset node, `true` = left; reset per bisection.
    side: Vec<bool>,
    /// `flip_enclaves`' component labels; all `u32::MAX` between uses.
    comp: Vec<u32>,
    /// Growth's gains (all 0) and frontier positions (all `u32::MAX`)
    /// between uses.
    gain: Vec<f64>,
    pos: Vec<u32>,
    /// `rebalance`'s node positions and entry stamps; set at the subset's
    /// nodes when it starts.
    index: Vec<u32>,
    stamp: Vec<u32>,
}

impl Work {
    fn new(n: usize) -> Work {
        Work {
            active: vec![false; n],
            seen: vec![false; n],
            queue: Vec::new(),
            side: vec![false; n],
            comp: vec![u32::MAX; n],
            gain: vec![0.0; n],
            pos: vec![u32::MAX; n],
            index: vec![0; n],
            stamp: vec![0; n],
        }
    }
}

fn recurse(
    g: &DualGraph,
    nodes: &[u32],
    base: usize,
    nparts: usize,
    labels: &mut [PartId],
    work: &mut Work,
) {
    if nparts == 1 {
        for &u in nodes {
            labels[u as usize] = base as PartId;
        }
        return;
    }
    let k1 = nparts / 2;
    let k2 = nparts - k1;
    let frac = k1 as f64 / nparts as f64;
    let (left, right) = bisect(g, nodes, frac, work);
    recurse(g, &left, base, k1, labels, work);
    recurse(g, &right, base + k1, k2, labels, work);
}

/// Connected components of the node subset, heaviest first.
fn components(g: &DualGraph, nodes: &[u32], work: &mut Work) -> Vec<(f64, Vec<u32>)> {
    let Work { active, seen, .. } = work;
    for &u in nodes {
        active[u as usize] = true;
    }
    let mut out: Vec<(f64, Vec<u32>)> = Vec::new();
    for &start in nodes {
        if seen[start as usize] {
            continue;
        }
        seen[start as usize] = true;
        let mut members = vec![start];
        let mut weight = 0.0;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            weight += g.vwgt[u as usize];
            for &v in g.neighbors(u) {
                if active[v as usize] && !seen[v as usize] {
                    seen[v as usize] = true;
                    members.push(v);
                    stack.push(v);
                }
            }
        }
        out.push((weight, members));
    }
    for &u in nodes {
        (active[u as usize], seen[u as usize]) = (false, false);
    }
    out.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    out
}

/// Split `nodes` into two sets with weight fraction ~`frac` on the left.
///
/// Disconnected subsets are handled by whole-component bin packing — only
/// the single component that straddles the target weight is actually cut.
/// This keeps every produced part a union of few whole components rather
/// than scattering nodes (which fragments parts and inflates their
/// boundary-entity counts).
fn bisect(g: &DualGraph, nodes: &[u32], frac: f64, work: &mut Work) -> (Vec<u32>, Vec<u32>) {
    let total: f64 = nodes.iter().map(|&u| g.vwgt[u as usize]).sum();
    let target = total * frac;
    let comps = components(g, nodes, work);
    if comps.len() == 1 {
        return bisect_connected(g, nodes, target, work);
    }
    let mut left: Vec<u32> = Vec::new();
    let mut right: Vec<u32> = Vec::new();
    let mut lw = 0.0;
    let mut split_done = false;
    for (w, members) in comps {
        if !split_done && lw + w <= target + 0.5 {
            lw += w;
            left.extend(members);
        } else if !split_done && lw < target {
            // This component straddles the target: cut it.
            let (l2, r2) = bisect_connected(g, &members, target - lw, work);
            left.extend(l2);
            right.extend(r2);
            split_done = true;
        } else {
            right.extend(members);
        }
    }
    (left, right)
}

/// Bisect a *connected* node set, putting ~`target` weight on the left.
fn bisect_connected(
    g: &DualGraph,
    nodes: &[u32],
    target: f64,
    work: &mut Work,
) -> (Vec<u32>, Vec<u32>) {
    let Work {
        active,
        seen,
        queue,
        side,
        comp,
        gain,
        pos,
        index,
        stamp,
    } = work;
    for &u in nodes {
        (active[u as usize], side[u as usize]) = (true, false);
    }
    // Greedy growth from a peripheral node, preferring nodes with the most
    // already-grown neighbours (minimizes frontier).
    let seed = g.peripheral_node_in(nodes[0], active, seen, queue);
    grow_in(g, active, seed, target, side, gain, pos);
    for &u in nodes {
        (gain[u as usize], pos[u as usize]) = (0.0, u32::MAX);
    }

    // Refinement rounds: absorb enclaves (fragments of one side enclosed by
    // the other — the root cause of fragmented, vertex-heavy parts), restore
    // the balance window, then FM boundary passes for the cut.
    let lo = target * (1.0 - BALANCE_TOL) - 1.0;
    let hi = target * (1.0 + BALANCE_TOL) + 1.0;
    for _ in 0..2 {
        let mut grown = flip_enclaves(g, nodes, active, side, comp);
        let scratch = (&mut index[..], &mut stamp[..]);
        rebalance_in(g, nodes, active, side, &mut grown, lo, hi, scratch);
        for _ in 0..REFINE_PASSES {
            let mut moved = 0usize;
            for &u in nodes {
                let us = side[u as usize];
                let (same, other, _) = side_weights(g, active, side, u);
                if other <= same {
                    continue; // no cut gain
                }
                let w = g.vwgt[u as usize];
                let new_grown = if us { grown - w } else { grown + w };
                if new_grown < lo || new_grown > hi {
                    continue; // would break balance
                }
                side[u as usize] = !us;
                grown = new_grown;
                moved += 1;
            }
            if moved == 0 {
                break;
            }
        }
    }

    let mut left = Vec::with_capacity(target as usize + 1);
    let mut right = Vec::with_capacity(nodes.len());
    for &u in nodes {
        active[u as usize] = false;
        if side[u as usize] {
            left.push(u);
        } else {
            right.push(u);
        }
    }
    (left, right)
}

/// Flip every non-principal connected component of each side to the other
/// side (an enclave of left inside right becomes right, and vice versa).
/// Returns the left weight afterwards.
fn flip_enclaves(
    g: &DualGraph,
    nodes: &[u32],
    active: &[bool],
    side: &mut [bool],
    comp: &mut [u32],
) -> f64 {
    // Component labelling restricted to `nodes`, separately per side.
    let mut comps: Vec<(bool, f64, Vec<u32>)> = Vec::new(); // (side, weight, members)
    for &start in nodes {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        let s = side[start as usize];
        let id = comps.len() as u32;
        comp[start as usize] = id;
        let mut members = vec![start];
        let mut weight = 0.0;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            weight += g.vwgt[u as usize];
            for &v in g.neighbors(u) {
                if active[v as usize] && comp[v as usize] == u32::MAX && side[v as usize] == s {
                    comp[v as usize] = id;
                    members.push(v);
                    stack.push(v);
                }
            }
        }
        comps.push((s, weight, members));
    }
    // Principal component per side = heaviest.
    let mut main = [usize::MAX; 2];
    for (i, (s, w, _)) in comps.iter().enumerate() {
        let si = *s as usize;
        if main[si] == usize::MAX || *w > comps[main[si]].1 {
            main[si] = i;
        }
    }
    for (i, (s, _, members)) in comps.iter().enumerate() {
        if i == main[*s as usize] {
            continue;
        }
        for &u in members {
            side[u as usize] = !s;
        }
    }
    for &u in nodes {
        comp[u as usize] = u32::MAX;
    }
    nodes
        .iter()
        .filter(|&&u| side[u as usize])
        .map(|&u| g.vwgt[u as usize])
        .sum()
}

/// A selection-heap entry, ordered by `gain` and then by `tie`. `node`
/// rides along; `stamp` tells a live entry from a stale one in
/// [`rebalance`] (growth tells them apart by position and gain instead).
///
/// `gain` is ordered by `f64::total_cmp`. The scans these heaps replaced
/// compared with `partial_cmp`; the two agree unless a gain is NaN or
/// `-0.0`, and neither occurs. A growth gain is a count of edges to the
/// grown set starting at `+0.0`, which is never `-0.0`; a rebalancing gain
/// is the difference of two such counts, and `x - y` is `-0.0` only when
/// `x` is.
#[derive(Debug, Clone, Copy)]
struct Entry {
    gain: f64,
    tie: u32,
    node: u32,
    stamp: u32,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then(self.tie.cmp(&other.tie))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// Grow the left side (`side[u] = true`) from `seed` until it weighs
/// `target`, always taking the frontier node with the most edges to the
/// grown set.
///
/// Ties go to the node latest in the frontier `Vec`, whose order is that
/// of a `swap_remove` queue — the choice a linear `max_by` over the
/// frontier makes. A max-heap keyed on (gain, frontier position) finds it
/// without the scan: each gain change and each `swap_remove` move pushes
/// the node again, and an entry is live only while its node still sits at
/// that position with that gain.
#[cfg(test)]
fn grow(g: &DualGraph, active: &[bool], seed: u32, target: f64, side: &mut [bool]) {
    let (mut gain, mut pos) = (vec![0f64; g.len()], vec![u32::MAX; g.len()]);
    grow_in(g, active, seed, target, side, &mut gain, &mut pos);
}

/// [`grow`] on scratch arrays: `gain` 0 and `pos` `u32::MAX` at every
/// active node on entry. Growth leaves them set where it reached; the
/// caller puts them back.
fn grow_in(
    g: &DualGraph,
    active: &[bool],
    seed: u32,
    target: f64,
    side: &mut [bool],
    gain: &mut [f64],
    // Frontier position of every node that ever entered it (MAX: never).
    pos: &mut [u32],
) {
    let mut frontier: Vec<u32> = vec![seed];
    pos[seed as usize] = 0;
    let entry = |gain: f64, pos: u32, node: u32| Entry {
        gain,
        tie: pos,
        node,
        stamp: 0,
    };
    let mut heap = BinaryHeap::from([entry(0.0, 0, seed)]);
    let mut grown = 0.0;
    while grown < target && !frontier.is_empty() {
        let top = loop {
            let e = heap.pop().expect("every frontier node has a live entry");
            let here = frontier.get(e.tie as usize) == Some(&e.node);
            if here && gain[e.node as usize].to_bits() == e.gain.to_bits() {
                break e;
            }
        };
        let (u, at) = (top.node, top.tie);
        frontier.swap_remove(at as usize);
        if let Some(&moved) = frontier.get(at as usize) {
            pos[moved as usize] = at;
            heap.push(entry(gain[moved as usize], at, moved));
        }
        side[u as usize] = true;
        grown += g.vwgt[u as usize];
        for &v in g.neighbors(u) {
            if active[v as usize] && !side[v as usize] {
                gain[v as usize] += 1.0;
                if pos[v as usize] == u32::MAX {
                    pos[v as usize] = frontier.len() as u32;
                    frontier.push(v);
                }
                heap.push(entry(gain[v as usize], pos[v as usize], v));
            }
        }
    }
}

/// Number of `u`'s active neighbours on its own side and on the other
/// side, and whether any active neighbour is on the other side.
fn side_weights(g: &DualGraph, active: &[bool], side: &[bool], u: u32) -> (f64, f64, bool) {
    let us = side[u as usize];
    let mut same = 0f64;
    let mut other = 0f64;
    let mut touches_other = false;
    for &v in g.neighbors(u) {
        if !active[v as usize] {
            continue;
        }
        if side[v as usize] == us {
            same += 1.0;
        } else {
            other += 1.0;
            touches_other = true;
        }
    }
    (same, other, touches_other)
}

/// Move boundary nodes across the cut (least cut damage first) until the
/// left weight is inside `[lo, hi]`.
///
/// Each move takes the boundary node of the overweight side with the
/// largest `other - same`, ties to the earliest in `nodes`. One max-heap per
/// side, keyed on (gain, earliest index), finds it: a move re-stamps the
/// moved node and its active neighbours and pushes each again if it still
/// touches the other side, so only entries with a node's current stamp are
/// live.
#[cfg(test)]
fn rebalance(
    g: &DualGraph,
    nodes: &[u32],
    active: &[bool],
    side: &mut [bool],
    grown: &mut f64,
    lo: f64,
    hi: f64,
) {
    let (mut index, mut stamp) = (vec![0u32; g.len()], vec![0u32; g.len()]);
    rebalance_in(
        g,
        nodes,
        active,
        side,
        grown,
        lo,
        hi,
        (&mut index, &mut stamp),
    );
}

/// [`rebalance`] on scratch arrays, `(index, stamp)`, which it sets at
/// `nodes` before it reads them.
#[allow(clippy::too_many_arguments)]
fn rebalance_in(
    g: &DualGraph,
    nodes: &[u32],
    active: &[bool],
    side: &mut [bool],
    grown: &mut f64,
    lo: f64,
    hi: f64,
    (index, stamp): (&mut [u32], &mut [u32]),
) {
    let outside = |grown: f64| grown > hi || grown < lo;
    if !outside(*grown) {
        return;
    }
    // The entry of boundary node `u` in its current state; the earliest
    // index in `nodes` ranks highest.
    let entry = |side: &[bool], index: &[u32], stamp: &[u32], u: u32| {
        let (same, other, touches_other) = side_weights(g, active, side, u);
        touches_other.then(|| Entry {
            gain: other - same,
            tie: u32::MAX - index[u as usize],
            node: u,
            stamp: stamp[u as usize],
        })
    };
    let mut heaps = [BinaryHeap::new(), BinaryHeap::new()];
    for (i, &u) in nodes.iter().enumerate() {
        (index[u as usize], stamp[u as usize]) = (i as u32, 0);
        if let Some(e) = entry(side, index, stamp, u) {
            heaps[side[u as usize] as usize].push(e);
        }
    }
    let mut guard = nodes.len() * 2;
    while outside(*grown) && guard > 0 {
        let from_left = *grown > hi;
        let heap = &mut heaps[from_left as usize];
        let Some(u) = std::iter::from_fn(|| heap.pop())
            .find(|e| e.stamp == stamp[e.node as usize])
            .map(|e| e.node)
        else {
            break;
        };
        let w = g.vwgt[u as usize];
        side[u as usize] = !side[u as usize];
        *grown += if from_left { -w } else { w };
        guard -= 1;
        for &x in std::iter::once(&u).chain(g.neighbors(u)) {
            if !active[x as usize] {
                continue;
            }
            stamp[x as usize] += 1;
            if let Some(e) = entry(side, index, stamp, x) {
                heaps[side[x as usize] as usize].push(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DualGraph;
    use proptest::prelude::*;
    use pumi_meshgen::{jitter, tet_box, tri_rect};
    use pumi_util::stats::imbalance;

    /// The linear scan `grow` replaced: the oracle its heap must match.
    fn grow_scan(g: &DualGraph, active: &[bool], seed: u32, target: f64, side: &mut [bool]) {
        let mut gain = vec![0f64; g.len()];
        let mut in_frontier = vec![false; g.len()];
        let mut frontier: Vec<u32> = vec![seed];
        in_frontier[seed as usize] = true;
        let mut grown = 0.0;
        while grown < target && !frontier.is_empty() {
            // Pick the frontier node with the most grown neighbours.
            let (pos, &u) = frontier
                .iter()
                .enumerate()
                .max_by(|&(_, &a), &(_, &b)| {
                    gain[a as usize].partial_cmp(&gain[b as usize]).unwrap()
                })
                .unwrap();
            frontier.swap_remove(pos);
            if side[u as usize] {
                continue;
            }
            side[u as usize] = true;
            grown += g.vwgt[u as usize];
            for &v in g.neighbors(u) {
                if active[v as usize] && !side[v as usize] {
                    gain[v as usize] += 1.0;
                    if !in_frontier[v as usize] {
                        in_frontier[v as usize] = true;
                        frontier.push(v);
                    }
                }
            }
        }
    }

    /// The linear scan `rebalance` replaced: the oracle its heaps must
    /// match.
    fn rebalance_scan(
        g: &DualGraph,
        nodes: &[u32],
        active: &[bool],
        side: &mut [bool],
        grown: &mut f64,
        lo: f64,
        hi: f64,
    ) {
        let mut guard = nodes.len() * 2;
        while (*grown > hi || *grown < lo) && guard > 0 {
            let from_left = *grown > hi;
            // Best boundary node on the overweight side: max (other - same).
            let mut best: Option<(f64, u32)> = None;
            for &u in nodes {
                if side[u as usize] != from_left {
                    continue;
                }
                let mut same = 0f64;
                let mut other = 0f64;
                let mut touches_other = false;
                for &v in g.neighbors(u) {
                    if !active[v as usize] {
                        continue;
                    }
                    if side[v as usize] == side[u as usize] {
                        same += 1.0;
                    } else {
                        other += 1.0;
                        touches_other = true;
                    }
                }
                if !touches_other {
                    continue;
                }
                let gain = other - same;
                if best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, u));
                }
            }
            let Some((_, u)) = best else { break };
            let w = g.vwgt[u as usize];
            side[u as usize] = !side[u as usize];
            *grown += if from_left { -w } else { w };
            guard -= 1;
        }
    }

    /// A small integer hash, for weights and side patterns that repeat.
    fn mix(a: u64, b: u64) -> u64 {
        let z = (a ^ b.rotate_left(29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^ (z >> 31)
    }

    /// The dual graph of a jittered tri or tet mesh. Unless `unit`, vertex
    /// weights come from {1, 2, 3}. Edges are unweighted, so gains are
    /// small integers and tie often.
    fn tie_graph(tet: bool, n: usize, seed: u64, unit: bool) -> DualGraph {
        let mut m = if tet {
            tet_box(n, n, n, 1.0, 1.0, 1.0)
        } else {
            tri_rect(3 * n, 3 * n, 1.0, 1.0)
        };
        jitter(&mut m, 0.2, seed);
        let mut g = DualGraph::build(&m);
        if !unit {
            for u in 0..g.len() as u32 {
                g.vwgt[u as usize] = 1.0 + (mix(u as u64, seed) % 3) as f64;
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `grow` and `rebalance` choose exactly what the scans they
        /// replaced chose, ties included: over a prefix of the graph's
        /// nodes, growth from the peripheral node to a random target, then
        /// rebalancing into a random window from the grown sides and from a
        /// scrambled side pattern.
        #[test]
        fn heaps_choose_what_the_scans_chose(
            tet in 0u32..2,
            n in 3usize..9,
            seed in 0u64..1000,
            unit in 0u32..2,
            keep in 0.3f64..1.0,
            (frac, frac2) in (0.05f64..0.95, 0.05f64..0.95),
        ) {
            let g = tie_graph(tet == 1, n, seed, unit == 1);
            let cut = ((g.len() as f64 * keep) as u32).max(1);
            let nodes: Vec<u32> = (0..cut).collect();
            let mut active = vec![false; g.len()];
            for &u in &nodes {
                active[u as usize] = true;
            }
            let total: f64 = nodes.iter().map(|&u| g.vwgt[u as usize]).sum();
            let start = g.peripheral_node(nodes[0], &active);

            let mut heap_side = vec![false; g.len()];
            let mut scan_side = vec![false; g.len()];
            grow(&g, &active, start, total * frac, &mut heap_side);
            grow_scan(&g, &active, start, total * frac, &mut scan_side);
            prop_assert_eq!(&heap_side, &scan_side, "growth diverged");

            let target = total * frac2;
            let (lo, hi) = (target * 0.99 - 1.0, target * 1.01 + 1.0);
            let scrambled: Vec<bool> =
                (0..g.len() as u64).map(|u| mix(u, seed ^ 0x5EED) & 1 == 1).collect();
            for from in [heap_side, scrambled] {
                let left = |side: &[bool]| -> f64 {
                    nodes.iter().filter(|&&u| side[u as usize]).map(|&u| g.vwgt[u as usize]).sum()
                };
                let (mut heap_side, mut scan_side) = (from.clone(), from);
                let (mut heap_w, mut scan_w) = (left(&heap_side), left(&scan_side));
                rebalance(&g, &nodes, &active, &mut heap_side, &mut heap_w, lo, hi);
                rebalance_scan(&g, &nodes, &active, &mut scan_side, &mut scan_w, lo, hi);
                prop_assert_eq!(&heap_side, &scan_side, "rebalance diverged");
                prop_assert_eq!(heap_w.to_bits(), scan_w.to_bits());
            }
        }
    }

    fn label_loads(labels: &[PartId], nparts: usize) -> Vec<f64> {
        let mut loads = vec![0f64; nparts];
        for &l in labels {
            loads[l as usize] += 1.0;
        }
        loads
    }

    #[test]
    fn bisection_balances_elements() {
        let m = tri_rect(16, 16, 1.0, 1.0);
        let g = DualGraph::build(&m);
        let labels = partition_graph(&g, 2);
        let loads = label_loads(&labels, 2);
        assert!(imbalance(&loads) < 1.05, "imbalance {:?}", loads);
        // The cut of a good bisection of a 16x16 grid is near the grid width.
        let cut = g.edge_cut(&labels);
        assert!(cut < 80, "cut too large: {cut}");
    }

    #[test]
    fn k_way_partition_balances() {
        let m = tri_rect(20, 20, 1.0, 1.0);
        let g = DualGraph::build(&m);
        for k in [3usize, 4, 7, 8] {
            let labels = partition_graph(&g, k);
            let loads = label_loads(&labels, k);
            assert!(
                imbalance(&loads) < 1.10,
                "k={k}: element imbalance {:?}",
                loads
            );
            assert!(loads.iter().all(|&l| l > 0.0), "k={k}: empty part");
        }
    }

    #[test]
    fn three_d_partition() {
        let m = tet_box(6, 6, 6, 1.0, 1.0, 1.0);
        let g = DualGraph::build(&m);
        let labels = partition_graph(&g, 8);
        let loads = label_loads(&labels, 8);
        assert!(imbalance(&loads) < 1.10, "{loads:?}");
        // Parts should be mostly contiguous: the cut stays well below the
        // total edges.
        let cut = g.edge_cut(&labels);
        assert!(cut * 4 < g.adjncy.len() / 2, "cut {cut} too large");
    }

    #[test]
    fn single_part_is_identity() {
        let m = tri_rect(4, 4, 1.0, 1.0);
        let g = DualGraph::build(&m);
        let labels = partition_graph(&g, 1);
        assert!(labels.iter().all(|&l| l == 0));
    }
}
