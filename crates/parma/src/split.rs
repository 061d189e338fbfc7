//! Heavy part splitting (§III-B).
//!
//! "ParMA heavy part splitting reduces imbalance spikes by first merging
//! lightly loaded parts to create empty parts, and then splitting heavily
//! loaded parts into the newly created empty parts. The procedure begins by
//! independently solving the 0-1 knapsack problem on each part to determine
//! the largest set of neighboring parts which can be merged while keeping
//! the total number of elements less than the average. Next, a set of these
//! merges that can be performed without conflicts ... are found by solving
//! for the maximal independent set. Lastly, heavily loaded parts are split
//! as many times as required until there are either no heavy parts or empty
//! parts remaining."

use crate::mis::{maximal_independent_merges, Proposal};
use pumi_core::{migrate, DistMesh, MigrationPlan, PtnModel};
use pumi_partition::{partition_graph, DualGraph};
use pumi_pcu::{Comm, MsgReader, MsgWriter};
use pumi_util::stats::LoadStats;
use pumi_util::{knap, Dim, FxHashMap, PartId};

/// Spike threshold (0.05 = 5% over the mean counts as heavy).
const TOL: f64 = 0.05;
/// Maximum merge+split rounds ("split as many times as required until
/// there are either no heavy parts or empty parts remaining", §III-B).
const ROUNDS: usize = 6;

/// Outcome of one [`heavy_part_split`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct SplitReport {
    /// Element imbalance % before.
    pub initial_pct: f64,
    /// Element imbalance % after.
    pub final_pct: f64,
    /// Merges executed (emptied-part groups).
    pub merges: usize,
    /// Heavy parts that were split.
    pub splits: usize,
}

fn element_loads(comm: &Comm, dm: &DistMesh) -> Vec<f64> {
    dm.gather_loads(comm, |p| p.mesh.num_elems() as f64)
}

/// Run heavy part splitting: merge+split rounds until no part is more than
/// 5 % over the mean, no merge can be formed, or 6 rounds are done.
/// Collective.
pub fn heavy_part_split(comm: &Comm, dm: &mut DistMesh) -> SplitReport {
    let _span = pumi_obs::span!("parma.split");
    let initial_pct = {
        let loads = element_loads(comm, dm);
        pumi_util::stats::LoadStats::of(&loads).imbalance_pct()
    };
    let mut merges = 0usize;
    let mut splits = 0usize;
    let mut final_pct = initial_pct;
    for _ in 0..ROUNDS {
        let r = split_round(comm, dm);
        merges += r.merges;
        splits += r.splits;
        final_pct = r.final_pct;
        if r.merges == 0 || r.final_pct <= TOL * 100.0 {
            break;
        }
    }
    SplitReport {
        initial_pct,
        final_pct,
        merges,
        splits,
    }
}

/// One merge+split round.
fn split_round(comm: &Comm, dm: &mut DistMesh) -> SplitReport {
    let loads = element_loads(comm, dm);
    let stats = LoadStats::of(&loads);
    let avg = stats.mean;
    let initial_pct = stats.imbalance_pct();
    let heavy: Vec<PartId> = loads
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l > avg * (1.0 + TOL))
        .map(|(p, _)| p as PartId)
        .collect();
    if heavy.is_empty() {
        return SplitReport {
            initial_pct,
            final_pct: initial_pct,
            merges: 0,
            splits: 0,
        };
    }

    // ------------------------------------------------------------------
    // 1. Per-part 0-1 knapsack merge proposals (local decision, global
    //    load vector).
    // ------------------------------------------------------------------
    let mut w = MsgWriter::new();
    let mut my_proposals: Vec<Proposal> = Vec::new();
    for part in &dm.parts {
        let my_load = loads[part.id as usize];
        if my_load > avg {
            continue; // only lighter parts initiate merges
        }
        let neighbors: Vec<PartId> = PtnModel::neighbors(part, Dim::Vertex)
            .into_iter()
            .filter(|&q| {
                let l = loads[q as usize];
                l <= avg && l > 0.0 // merge only light, non-empty neighbours
            })
            .collect();
        if neighbors.is_empty() {
            continue;
        }
        let capacity = (avg - my_load).max(0.0) as u64;
        let weights: Vec<u64> = neighbors
            .iter()
            .map(|&q| loads[q as usize] as u64)
            .collect();
        let (value, chosen, _) = knap::solve(&weights, &weights, capacity);
        if value == 0 {
            continue;
        }
        let members: Vec<PartId> = chosen.iter().map(|&i| neighbors[i]).collect();
        my_proposals.push(Proposal {
            into: part.id,
            members,
            value,
        });
    }
    // Gather proposals world-wide so every rank picks the same MIS.
    w.put_u32(my_proposals.len() as u32);
    for p in &my_proposals {
        w.put_u32(p.into);
        w.put_u64(p.value);
        w.put_u32_slice(&p.members);
    }
    let gathered = comm.allgather_bytes(w.finish());
    let mut all: Vec<Proposal> = Vec::new();
    for b in gathered {
        let mut r = MsgReader::new(b);
        let n = r.get_u32();
        for _ in 0..n {
            let into = r.get_u32();
            let value = r.get_u64();
            let members = r.get_u32_slice();
            all.push(Proposal {
                into,
                members,
                value,
            });
        }
    }
    let chosen = maximal_independent_merges(all);
    let merges = chosen.len();

    // ------------------------------------------------------------------
    // 2. Execute merges: members empty themselves into the receiver.
    // ------------------------------------------------------------------
    let mut empties: Vec<PartId> = Vec::new();
    {
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for merge in &chosen {
            for &m in &merge.members {
                empties.push(m);
                if let Some(part) = dm.parts.iter().find(|p| p.id == m) {
                    let mut plan = MigrationPlan::new();
                    for e in part.mesh.elems() {
                        plan.send(e, merge.into);
                    }
                    plans.insert(m, plan);
                }
            }
        }
        empties.sort_unstable();
        migrate(comm, dm, &plans);
    }

    // ------------------------------------------------------------------
    // 3. Allocate empty parts to heavy parts (deterministic: by remaining
    //    nominal excess, largest first) and split.
    // ------------------------------------------------------------------
    let loads = element_loads(comm, dm);
    let mut excess: Vec<(PartId, f64)> = heavy
        .iter()
        .map(|&h| (h, loads[h as usize] - avg))
        .filter(|&(_, x)| x > 0.0)
        .collect();
    let mut assignment: FxHashMap<PartId, Vec<PartId>> = FxHashMap::default();
    for &empty in &empties {
        // Give to the heavy part with the largest remaining excess.
        excess.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let Some(top) = excess.first_mut() else { break };
        if top.1 <= 0.0 {
            break;
        }
        assignment.entry(top.0).or_default().push(empty);
        top.1 -= avg;
    }
    let splits = assignment.len();

    {
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for part in &dm.parts {
            let Some(targets) = assignment.get(&part.id) else {
                continue;
            };
            let k = targets.len() + 1;
            let g = DualGraph::build(&part.mesh);
            let labels = partition_graph(&g, k);
            let mut plan = MigrationPlan::new();
            for (node, &e) in g.elems.iter().enumerate() {
                let l = labels[node] as usize;
                if l > 0 {
                    plan.send(e, targets[l - 1]);
                }
            }
            plans.insert(part.id, plan);
        }
        migrate(comm, dm, &plans);
    }

    let final_loads = element_loads(comm, dm);
    let final_pct = LoadStats::of(&final_loads).imbalance_pct();
    SplitReport {
        initial_pct,
        final_pct,
        merges,
        splits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_core::{distribute, PartMap};
    use pumi_meshgen::tri_rect;
    use pumi_pcu::execute;

    /// 4 parts on one rank: one giant part, three tiny ones. Diffusion would
    /// crawl; splitting fixes it in one shot.
    #[test]
    fn split_reduces_extreme_spike() {
        execute(2, |c| {
            let serial = tri_rect(12, 6, 2.0, 1.0);
            let d = serial.elem_dim_t();
            // Part 0 gets x < 1.5 (three quarters); parts 1..3 split the rest.
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                let x = serial.centroid(e);
                elem_part[e.idx()] = if x[0] < 1.5 {
                    0
                } else if x[1] < 0.33 {
                    1
                } else if x[1] < 0.66 {
                    2
                } else {
                    3
                };
            }
            let mut dm = distribute(c, PartMap::contiguous(4, 2), &serial, &elem_part);
            let report = heavy_part_split(c, &mut dm);
            assert!(report.initial_pct > 50.0, "setup not skewed enough");
            assert!(
                report.final_pct < report.initial_pct / 2.0,
                "split ineffective: {:.1}% -> {:.1}%",
                report.initial_pct,
                report.final_pct
            );
            assert!(report.merges >= 1);
            assert!(report.splits >= 1);
            pumi_check::check_dist(c, &dm, pumi_check::CheckOpts::all())
                .expect("valid after split");
        });
    }

    /// Balanced input: nothing happens.
    #[test]
    fn balanced_input_noop() {
        execute(2, |c| {
            let serial = tri_rect(8, 4, 2.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 1.0 { 0 } else { 1 };
            }
            let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            let report = heavy_part_split(c, &mut dm);
            assert_eq!(report.merges, 0);
            assert_eq!(report.splits, 0);
            assert_eq!(report.initial_pct, report.final_pct);
        });
    }
}
