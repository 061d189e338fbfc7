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

use crate::graph::DualGraph;
use pumi_util::PartId;

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
    recurse(g, &nodes, 0, nparts, &mut labels);
    labels
}

fn recurse(g: &DualGraph, nodes: &[u32], base: usize, nparts: usize, labels: &mut [PartId]) {
    if nparts == 1 {
        for &u in nodes {
            labels[u as usize] = base as PartId;
        }
        return;
    }
    let k1 = nparts / 2;
    let k2 = nparts - k1;
    let frac = k1 as f64 / nparts as f64;
    let (left, right) = bisect(g, nodes, frac);
    recurse(g, &left, base, k1, labels);
    recurse(g, &right, base + k1, k2, labels);
}

/// Connected components of the node subset, heaviest first.
fn components(g: &DualGraph, nodes: &[u32]) -> Vec<(f64, Vec<u32>)> {
    let mut active = vec![false; g.len()];
    for &u in nodes {
        active[u as usize] = true;
    }
    let mut seen = vec![false; g.len()];
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
fn bisect(g: &DualGraph, nodes: &[u32], frac: f64) -> (Vec<u32>, Vec<u32>) {
    let total: f64 = nodes.iter().map(|&u| g.vwgt[u as usize]).sum();
    let target = total * frac;
    let comps = components(g, nodes);
    if comps.len() == 1 {
        return bisect_connected(g, nodes, target);
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
            let (l2, r2) = bisect_connected(g, &members, target - lw);
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
fn bisect_connected(g: &DualGraph, nodes: &[u32], target: f64) -> (Vec<u32>, Vec<u32>) {
    let mut active = vec![false; g.len()];
    for &u in nodes {
        active[u as usize] = true;
    }
    // Greedy growth from a peripheral node, preferring nodes with the most
    // already-grown neighbours (minimizes frontier).
    let seed = g.peripheral_node(nodes[0], &active);
    let mut side = vec![false; g.len()]; // true = left
    let mut gain = vec![0f64; g.len()];
    let mut in_frontier = vec![false; g.len()];
    let mut frontier: Vec<u32> = vec![seed];
    in_frontier[seed as usize] = true;
    let mut grown = 0.0;
    while grown < target && !frontier.is_empty() {
        // Pick the frontier node with max grown-neighbour edge weight.
        let (pos, &u) = frontier
            .iter()
            .enumerate()
            .max_by(|&(_, &a), &(_, &b)| gain[a as usize].partial_cmp(&gain[b as usize]).unwrap())
            .unwrap();
        frontier.swap_remove(pos);
        if side[u as usize] {
            continue;
        }
        side[u as usize] = true;
        grown += g.vwgt[u as usize];
        for (v, w) in g.edges(u) {
            if active[v as usize] && !side[v as usize] {
                gain[v as usize] += w;
                if !in_frontier[v as usize] {
                    in_frontier[v as usize] = true;
                    frontier.push(v);
                }
            }
        }
    }

    // Refinement rounds: absorb enclaves (fragments of one side enclosed by
    // the other — the root cause of fragmented, vertex-heavy parts), restore
    // the balance window, then FM boundary passes for the cut.
    let lo = target * (1.0 - BALANCE_TOL) - 1.0;
    let hi = target * (1.0 + BALANCE_TOL) + 1.0;
    for _ in 0..2 {
        grown = flip_enclaves(g, nodes, &active, &mut side);
        rebalance(g, nodes, &active, &mut side, &mut grown, lo, hi);
        for _ in 0..REFINE_PASSES {
            let mut moved = 0usize;
            for &u in nodes {
                let us = side[u as usize];
                let mut same = 0f64;
                let mut other = 0f64;
                for (v, w) in g.edges(u) {
                    if !active[v as usize] {
                        continue;
                    }
                    if side[v as usize] == us {
                        same += w;
                    } else {
                        other += w;
                    }
                }
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
fn flip_enclaves(g: &DualGraph, nodes: &[u32], active: &[bool], side: &mut [bool]) -> f64 {
    // Component labelling restricted to `nodes`, separately per side.
    let mut comp: Vec<u32> = vec![u32::MAX; g.len()];
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
    nodes
        .iter()
        .filter(|&&u| side[u as usize])
        .map(|&u| g.vwgt[u as usize])
        .sum()
}

/// Move boundary nodes across the cut (least cut damage first) until the
/// left weight is inside `[lo, hi]`.
fn rebalance(
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
            for (v, w) in g.edges(u) {
                if !active[v as usize] {
                    continue;
                }
                if side[v as usize] == side[u as usize] {
                    same += w;
                } else {
                    other += w;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DualGraph;
    use pumi_meshgen::{tet_box, tri_rect};
    use pumi_util::stats::imbalance;

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
