//! Multi-criteria partition improvement (§III-A).
//!
//! "The ParMA partition improvement procedure traverses the priority list in
//! order of decreasing priority. For each mesh entity type the migration
//! schedule is computed, regions are selected for migration, and the regions
//! are migrated. These three steps form one iteration. When the application
//! defined imbalance is achieved, or the maximum number of iterations is
//! reached, the next mesh entity type is processed."

use crate::balance::EntityLoads;
use crate::candidates::{candidates_topo, schedule};
use crate::priority::Priority;
use crate::select::{HarmGuard, SelectRequest, Selector, TopoGate};
use crate::topo::TopologyOpts;
use pumi_core::{migrate, DistMesh, MigrationPlan};
use pumi_pcu::Comm;
use pumi_util::stats::Timer;
use pumi_util::{Dim, FxHashMap, PartId};

/// Options for [`improve`].
#[derive(Debug, Clone, Copy)]
pub struct ImproveOpts {
    /// Target imbalance tolerance (0.05 = the paper's 5%).
    pub tol: f64,
    /// Maximum diffusion iterations per entity type.
    pub max_iters: usize,
    /// Run the destination admission handshake (ablatable: without it,
    /// several heavy parts can overfill one destination in an iteration).
    pub handshake: bool,
    /// Let protected caps rise to the stage-entry peak (ablatable: without
    /// it, the repair stage deadlocks once a protected type sits above the
    /// tolerance).
    pub peak_caps: bool,
    /// Use the strict Fig 9 / small-cavity selection passes before the
    /// relaxed ones (ablatable: without them, selection takes arbitrary
    /// boundary elements and roughens part boundaries).
    pub strict_selection: bool,
    /// Topology awareness: prefer on-node candidates and gate migrations
    /// that create off-node boundary (see [`crate::topo`]). `None` (and any
    /// flat machine) keeps diffusion byte-identical to the blind path.
    pub topo: Option<TopologyOpts>,
}

impl Default for ImproveOpts {
    fn default() -> Self {
        ImproveOpts {
            tol: 0.05,
            max_iters: 30,
            handshake: true,
            peak_caps: true,
            strict_selection: true,
            topo: None,
        }
    }
}

/// Builder-style setters: `ImproveOpts::new().tol(0.05).handshake(false)`.
/// The fields stay public, so struct updates keep working too.
impl ImproveOpts {
    /// The paper's defaults (5% tolerance, all mechanisms on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the target imbalance tolerance (0.05 = 5%).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Set the per-type diffusion iteration cap.
    pub fn max_iters(mut self, n: usize) -> Self {
        self.max_iters = n;
        self
    }

    /// Toggle the destination admission handshake.
    pub fn handshake(mut self, on: bool) -> Self {
        self.handshake = on;
        self
    }

    /// Toggle stage-entry peak caps.
    pub fn peak_caps(mut self, on: bool) -> Self {
        self.peak_caps = on;
        self
    }

    /// Toggle the strict Fig 9 selection passes.
    pub fn strict_selection(mut self, on: bool) -> Self {
        self.strict_selection = on;
        self
    }

    /// Make diffusion topology-aware against the given machine model.
    pub fn topo(mut self, topo: TopologyOpts) -> Self {
        self.topo = Some(topo);
        self
    }
}

/// One diffusion iteration of a balancing stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterSample {
    /// Global imbalance % of the balanced type at iteration entry.
    pub imbalance_pct: f64,
    /// Elements scheduled for migration world-wide after admission.
    pub planned: u64,
    /// Elements actually migrated world-wide.
    pub moved: u64,
}

/// Why a balancing stage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Imbalance reached the tolerance.
    Converged,
    /// Three consecutive iterations without meaningful progress (§III-B's
    /// motivation for heavy part splitting).
    Stagnated,
    /// No part could schedule any migration.
    NoCandidates,
    /// The per-type iteration cap was hit.
    MaxIters,
}

impl StopReason {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::Stagnated => "stagnated",
            StopReason::NoCandidates => "no_candidates",
            StopReason::MaxIters => "max_iters",
        }
    }
}

/// Outcome for one balanced entity type: one stage of the trajectory
/// Fig 12 plots. The values are world-global, so every rank's report is
/// the same.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeReport {
    /// The entity dimension balanced.
    pub dim: Dim,
    /// Imbalance % before this stage.
    pub initial_pct: f64,
    /// Imbalance % after this stage.
    pub final_pct: f64,
    /// Why the stage stopped.
    pub stop: StopReason,
    /// One sample per diffusion iteration executed, in order.
    pub iters: Vec<IterSample>,
}

/// Outcome of a full [`improve`] run.
#[derive(Debug, Clone)]
pub struct ImproveReport {
    /// Per-type results in balancing order.
    pub types: Vec<TypeReport>,
    /// Wall-clock seconds (whole run, max over ranks).
    pub seconds: f64,
    /// Total elements migrated.
    pub elements_moved: u64,
}

/// Run ParMA multi-criteria partition improvement. Collective.
pub fn improve(
    comm: &Comm,
    dm: &mut DistMesh,
    priority: &Priority,
    opts: ImproveOpts,
) -> ImproveReport {
    improve_inner(comm, dm, priority, opts, None)
}

/// [`improve`] against *weighted* element loads: the element-dimension load
/// of a part is the sum of the named per-element Real tag (missing entries
/// count 1.0) rather than the element count. This is the predictive
/// balancing entry point of §III-B — store `predict::element_weight` in the
/// tag and ParMA equalizes the *post-adaptation* load, preventing the
/// Fig 13 imbalance spike. The tag rides migration, so moved elements keep
/// their weights. Lower-dimension stages still balance plain counts.
/// Collective.
pub fn improve_weighted(
    comm: &Comm,
    dm: &mut DistMesh,
    priority: &Priority,
    opts: ImproveOpts,
    weight_tag: &str,
) -> ImproveReport {
    improve_inner(comm, dm, priority, opts, Some(weight_tag))
}

/// Threshold-gated [`improve`]: the post-adapt *touch-up* pass of the
/// speculative balancing flow (§III-B). Speculative pre-adapt rebalancing
/// migrates cheap coarse elements against the calibrated predicted load;
/// when the realized partition still lands outside `threshold_pct`
/// (prediction error, boundary-vetoed collapses), this runs a plain
/// count-based [`improve`] to mop up — and when the prediction was good,
/// it is a free no-op. Returns `None` when the measured imbalance of the
/// highest-priority entity dimension is already at or below the threshold.
/// Collective; the gate is computed from a world-identical gather, so
/// every rank takes the same path.
pub fn improve_above(
    comm: &Comm,
    dm: &mut DistMesh,
    priority: &Priority,
    opts: ImproveOpts,
    threshold_pct: f64,
) -> Option<ImproveReport> {
    let d = priority
        .order()
        .into_iter()
        .map(|(d, _)| d)
        .max_by_key(|d| d.as_usize())
        .expect("empty priority");
    let pct = EntityLoads::gather(comm, dm).imbalance_pct(d);
    if pct <= threshold_pct {
        return None;
    }
    Some(improve(comm, dm, priority, opts))
}

fn improve_inner(
    comm: &Comm,
    dm: &mut DistMesh,
    priority: &Priority,
    opts: ImproveOpts,
    weight: Option<&str>,
) -> ImproveReport {
    let gather = |comm: &Comm, dm: &DistMesh| match weight {
        Some(tag) => EntityLoads::gather_weighted(comm, dm, tag),
        None => EntityLoads::gather(comm, dm),
    };
    let _span = pumi_obs::span!("parma.improve");
    let timer = Timer::start();
    let mut types = Vec::new();
    let mut elements_moved = 0u64;

    // Flat machines have no hierarchy: drop the topo options entirely so
    // the code path (and result) is identical to the blind one.
    let topo = opts.topo.filter(|t| !t.is_flat());
    // The part → node placement is fixed for the whole run (migration moves
    // entities between parts, never parts between ranks).
    let topo_nodes: Vec<u32> = match &topo {
        Some(t) => (0..dm.map.nparts())
            .map(|p| t.machine.node_of(dm.map.rank_of(p as PartId)) as u32)
            .collect(),
        None => Vec::new(),
    };

    for (d, li) in priority.order() {
        let protected = priority.protected(d, li);
        let lesser = priority.lesser(li);
        let mut guarded = protected.clone();
        guarded.push(d); // never create a fresh spike in the balanced type
                         // Lesser-priority types may be harmed (§III-A), but unboundedly
                         // harming them leaves the later stage unable to recover without
                         // violating this stage's result — so they get a loose cap.
        let loose_tol = (2.0 * opts.tol).max(0.10);
        let mut loose_guarded = lesser.clone();
        loose_guarded.retain(|x| !guarded.contains(x));
        let _stage_span = pumi_obs::span::enter(&format!("stage.{d}"));
        let entry_loads = gather(comm, dm);
        let initial_pct = entry_loads.imbalance_pct(d);
        let mut stop = StopReason::MaxIters;
        let mut final_pct;
        let mut iters = Vec::new();

        // Caps are frozen at stage entry. "No harm" means a protected
        // type's *stage-entry* peak may not be exceeded by any destination;
        // recomputing per iteration would let overfill ratchet the peak up.
        let caps = {
            let mut caps = [f64::INFINITY; 4];
            for &g in &loose_guarded {
                let peak = if opts.peak_caps {
                    entry_loads.stats(g).max
                } else {
                    0.0
                };
                caps[g.as_usize()] = (entry_loads.avg(g) * (1.0 + loose_tol)).max(peak);
            }
            for &g in &guarded {
                let peak = if opts.peak_caps {
                    entry_loads.stats(g).max
                } else {
                    0.0
                };
                caps[g.as_usize()] = (entry_loads.avg(g) * (1.0 + opts.tol)).max(peak);
            }
            // The balanced type itself must not spike anywhere new.
            caps[d.as_usize()] = entry_loads.avg(d) * (1.0 + opts.tol);
            caps
        };
        let all_guarded: Vec<Dim> = guarded
            .iter()
            .chain(loose_guarded.iter())
            .copied()
            .collect();

        let mut no_progress = 0usize;
        let mut prev_pct = f64::INFINITY;
        for _ in 0..opts.max_iters {
            let loads = gather(comm, dm);
            final_pct = loads.imbalance_pct(d);
            if loads.imbalance(d) <= 1.0 + opts.tol {
                stop = StopReason::Converged;
                break;
            }
            // Early stop when diffusion stops making headway (§III-B: such
            // stalls are what heavy part splitting exists for).
            if prev_pct - final_pct < 0.2 {
                no_progress += 1;
                if no_progress >= 3 {
                    stop = StopReason::Stagnated;
                    break;
                }
            } else {
                no_progress = 0;
            }
            prev_pct = final_pct;
            let heavy = loads.heavy_parts(d, opts.tol);
            // Local selection per heavy part, remembering the per-destination
            // gains for the admission handshake.
            type Request = (PartId, [f64; 4]); // (destination, per-dim gains)
            let mut proposals: Vec<(PartId, MigrationPlan, Vec<Request>)> = Vec::new();
            for part in &dm.parts {
                if !heavy.contains(&(part.id as usize)) {
                    continue;
                }
                let (cands, has_on_node) = candidates_topo(
                    part,
                    &loads,
                    d,
                    &lesser,
                    opts.tol,
                    topo.as_ref().map(|t| (t, &dm.map)),
                );
                let sched = schedule(&loads, d, part.id, &cands, opts.tol);
                if sched.is_empty() {
                    continue;
                }
                let gate = topo.as_ref().map(|t| TopoGate {
                    node_of_part: topo_nodes.clone(),
                    penalty: t.off_node_penalty,
                    relax: !has_on_node,
                });
                let mut sel = Selector::new(part)
                    .strict(opts.strict_selection)
                    .weighted(weight)
                    .topo(gate);
                let mut guard = HarmGuard::new(all_guarded.clone(), caps, d);
                let base = |q: PartId, dd: Dim| loads.of(dd)[q as usize];
                let mut dests: Vec<PartId> = Vec::new();
                for (q, quota) in sched {
                    sel.select(
                        SelectRequest {
                            target: d,
                            cand: q,
                            quota,
                        },
                        &mut guard,
                        base,
                    );
                    dests.push(q);
                }
                if sel.plan.is_empty() {
                    continue;
                }
                let requests: Vec<Request> = dests
                    .into_iter()
                    .map(|q| (q, guard.committed_gains(q, |dd| loads.of(dd)[q as usize])))
                    .collect();
                proposals.push((part.id, sel.plan, requests));
            }
            // Admission handshake: destinations grant requests in ascending
            // source order within their *full* remaining headroom (caps are
            // world-identical, so this is exact — no multi-source overfill).
            let mut ex = pumi_core::PartExchange::new(comm, &dm.map);
            for (from, _, requests) in &proposals {
                if !opts.handshake {
                    continue;
                }
                for (to, gains) in requests {
                    let w = ex.to(*from, *to);
                    for g in gains {
                        w.put_f64(*g);
                    }
                }
            }
            let mut granted_track: FxHashMap<PartId, [f64; 4]> = FxHashMap::default();
            let mut replies = pumi_core::PartExchange::new(comm, &dm.map);
            // Grants must be evaluated in ascending source order regardless
            // of frame arrival order, or the admitted set depends on the
            // scheduler.
            let mut grant_frames = ex.finish();
            grant_frames.sort_by_key(|&(from, to, _)| (to, from));
            for (from, to, mut r) in grant_frames {
                let gains = [r.get_f64(), r.get_f64(), r.get_f64(), r.get_f64()];
                let acc = granted_track.entry(to).or_default();
                let ok = all_guarded.iter().all(|&g| {
                    let gi = g.as_usize();
                    loads.of(g)[to as usize] + acc[gi] + gains[gi] <= caps[gi]
                });
                if ok {
                    for gi in 0..4 {
                        acc[gi] += gains[gi];
                    }
                }
                replies.to(to, from).put_u8(ok as u8);
            }
            // Prune denied destinations from the plans.
            let mut denied: FxHashMap<PartId, Vec<PartId>> = FxHashMap::default();
            for (from, to, mut r) in replies.finish() {
                if r.get_u8() == 0 {
                    denied.entry(to).or_default().push(from);
                }
            }
            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            let mut planned = 0u64;
            for (pid, mut plan, _) in proposals {
                if let Some(bad) = denied.get(&pid) {
                    plan.dest.retain(|_, to| !bad.contains(to));
                }
                planned += plan.len() as u64;
                if !plan.is_empty() {
                    plans.insert(pid, plan);
                }
            }
            let planned = comm.allreduce_sum_u64(planned);
            if planned == 0 {
                // Diffusion is stuck for this type (§III-B motivates heavy
                // part splitting for exactly this case).
                stop = StopReason::NoCandidates;
                break;
            }
            let stats = migrate(comm, dm, &plans);
            elements_moved += stats.elements_moved;
            iters.push(IterSample {
                imbalance_pct: final_pct,
                planned,
                moved: stats.elements_moved,
            });
        }
        // Refresh after the last migration.
        final_pct = gather(comm, dm).imbalance_pct(d);
        types.push(TypeReport {
            dim: d,
            initial_pct,
            final_pct,
            stop,
            iters,
        });
    }

    let seconds = comm
        .allgather_f64(timer.seconds())
        .into_iter()
        .fold(0.0, f64::max);
    ImproveReport {
        types,
        seconds,
        elements_moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_check::{check_dist, CheckOpts};
    use pumi_core::{distribute, PartMap};
    use pumi_meshgen::tri_rect;
    use pumi_pcu::execute;

    /// A deliberately skewed 2-part strip: ParMA `Face` balancing (elements
    /// in 2D) must bring element imbalance within tolerance.
    #[test]
    fn element_diffusion_balances_two_parts() {
        execute(2, |c| {
            let serial = tri_rect(10, 4, 10.0, 4.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                // 70/30 split.
                elem_part[e.idx()] = if serial.centroid(e)[0] < 7.0 { 0 } else { 1 };
            }
            let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            let before = EntityLoads::gather(c, &dm).imbalance_pct(Dim::Face);
            assert!(before > 30.0, "setup not skewed: {before}%");

            let pr: Priority = "Face".parse().unwrap();
            let report = improve(c, &mut dm, &pr, ImproveOpts::default());
            let after = EntityLoads::gather(c, &dm).imbalance_pct(Dim::Face);
            assert!(
                after <= 5.5,
                "element imbalance not reduced: {before}% -> {after}%"
            );
            assert!(report.elements_moved > 0);
            check_dist(c, &dm, CheckOpts::all()).expect("valid after improve");
        });
    }

    /// Vertex balancing with region protection (the paper's T1 shape, in
    /// 2D: Vtx > Face).
    #[test]
    fn vertex_balance_respects_element_balance() {
        execute(2, |c| {
            let serial = tri_rect(12, 4, 3.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 1.75 { 0 } else { 1 };
            }
            let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            let before = EntityLoads::gather(c, &dm);
            let v_before = before.imbalance_pct(Dim::Vertex);

            let pr: Priority = "Vtx > Face".parse().unwrap();
            let report = improve(c, &mut dm, &pr, ImproveOpts::default());
            let after = EntityLoads::gather(c, &dm);
            let v_after = after.imbalance_pct(Dim::Vertex);
            assert!(
                v_after <= v_before + 1e-9,
                "vertex imbalance grew: {v_before}% -> {v_after}%"
            );
            // Element balance never exceeds the cap by much.
            assert!(
                after.imbalance_pct(Dim::Face) <= 12.0,
                "element balance harmed: {}%",
                after.imbalance_pct(Dim::Face)
            );
            assert_eq!(report.types.len(), 2);
            check_dist(c, &dm, CheckOpts::all()).expect("valid after improve");
        });
    }

    /// Counts are balanced but predicted weights are skewed: the weighted
    /// entry point must diffuse elements until the *weighted* load levels,
    /// even though plain `improve` would be a no-op here.
    #[test]
    fn weighted_improve_balances_predicted_load() {
        execute(2, |c| {
            let serial = tri_rect(10, 4, 10.0, 4.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 5.0 { 0 } else { 1 };
            }
            let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            // Equal counts; part 0's elements carry 3x the predicted weight.
            for p in &mut dm.parts {
                let w = if p.id == 0 { 3.0 } else { 1.0 };
                let tid =
                    p.mesh
                        .tags_mut()
                        .declare("parma:weight", pumi_util::tag::TagKind::Double, 1);
                for e in p.mesh.snapshot(d) {
                    p.mesh.tags_mut().set_dbl(tid, e, w);
                }
            }
            let before = EntityLoads::gather_weighted(c, &dm, "parma:weight");
            assert_eq!(before.imbalance_pct(Dim::Face).round(), 50.0);
            let pr: Priority = "Face".parse().unwrap();
            let opts = ImproveOpts::default().tol(0.1);
            let report = improve_weighted(c, &mut dm, &pr, opts, "parma:weight");
            let after = EntityLoads::gather_weighted(c, &dm, "parma:weight");
            assert!(
                after.imbalance_pct(Dim::Face) < before.imbalance_pct(Dim::Face) / 2.0,
                "weighted imbalance not reduced: {}% -> {}%",
                before.imbalance_pct(Dim::Face),
                after.imbalance_pct(Dim::Face)
            );
            assert!(report.elements_moved > 0, "no elements moved");
            check_dist(c, &dm, CheckOpts::all()).expect("valid after weighted improve");
        });
    }

    /// The touch-up gate: above the threshold it runs (and balances),
    /// at/below it is `None` and the mesh is untouched.
    #[test]
    fn improve_above_gates_on_threshold() {
        execute(2, |c| {
            let serial = tri_rect(10, 4, 10.0, 4.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 7.0 { 0 } else { 1 };
            }
            let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            let before = EntityLoads::gather(c, &dm).imbalance_pct(Dim::Face);
            assert!(before > 30.0, "setup not skewed: {before}%");
            let pr: Priority = "Face".parse().unwrap();

            // Threshold above the measured imbalance: free no-op.
            assert!(improve_above(c, &mut dm, &pr, ImproveOpts::default(), before + 1.0).is_none());
            let untouched = EntityLoads::gather(c, &dm).imbalance_pct(Dim::Face);
            assert_eq!(untouched, before, "gated call must not migrate");

            // Threshold below: fires and balances.
            let rep = improve_above(c, &mut dm, &pr, ImproveOpts::default(), 10.0)
                .expect("imbalance above threshold must trigger the touch-up");
            assert!(rep.elements_moved > 0);
            let after = EntityLoads::gather(c, &dm).imbalance_pct(Dim::Face);
            assert!(after <= 5.5, "touch-up did not balance: {after}%");
        });
    }

    /// Topology-aware improve on a 2×2 machine: balances like the blind
    /// path, with no more off-node boundary than it.
    #[test]
    fn topo_aware_improve_limits_off_node_boundary() {
        use crate::topo::{off_node_boundary, TopologyOpts};
        let machine = pumi_pcu::MachineModel::new(2, 2);
        let results = pumi_pcu::execute_opts(machine, pumi_pcu::WorldOpts::default(), |c| {
            let serial = tri_rect(16, 8, 4.0, 2.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                let x = serial.centroid(e)[0];
                elem_part[e.idx()] = if x < 2.2 {
                    0
                } else if x < 2.8 {
                    1
                } else if x < 3.4 {
                    2
                } else {
                    3
                };
            }
            let machine = c.machine();
            let pr: Priority = "Face".parse().unwrap();

            let mut blind = distribute(c, PartMap::contiguous(4, 4), &serial, &elem_part);
            improve(c, &mut blind, &pr, ImproveOpts::default());
            let blind_split = off_node_boundary(c, &blind, &machine);
            let blind_pct = EntityLoads::gather(c, &blind).imbalance_pct(Dim::Face);

            let mut topo = distribute(c, PartMap::contiguous(4, 4), &serial, &elem_part);
            let opts = ImproveOpts::default().topo(TopologyOpts::new(machine));
            improve(c, &mut topo, &pr, opts);
            let topo_split = off_node_boundary(c, &topo, &machine);
            let topo_pct = EntityLoads::gather(c, &topo).imbalance_pct(Dim::Face);

            check_dist(c, &topo, CheckOpts::all()).expect("valid after topo-aware improve");
            (blind_split, blind_pct, topo_split, topo_pct)
        });
        let (blind_split, blind_pct, topo_split, topo_pct) = results[0];
        assert!(
            topo_split.off_copies <= blind_split.off_copies,
            "topo off-node boundary {} exceeds blind {}",
            topo_split.off_copies,
            blind_split.off_copies
        );
        assert!(
            topo_pct <= blind_pct + 5.0,
            "topo imbalance {topo_pct:.1}% much worse than blind {blind_pct:.1}%"
        );
    }

    /// A flat machine model in the options must leave improve byte-identical
    /// to the blind path.
    #[test]
    fn topo_on_flat_machine_is_identical() {
        use crate::topo::TopologyOpts;
        execute(2, |c| {
            let serial = tri_rect(10, 4, 10.0, 4.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 7.0 { 0 } else { 1 };
            }
            let pr: Priority = "Face".parse().unwrap();

            let mut blind = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            let rb = improve(c, &mut blind, &pr, ImproveOpts::default());

            let mut flat = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            let opts = ImproveOpts::default().topo(TopologyOpts::new(c.machine()));
            let rf = improve(c, &mut flat, &pr, opts);

            assert_eq!(rb.elements_moved, rf.elements_moved);
            let lb = EntityLoads::gather(c, &blind);
            let lf = EntityLoads::gather(c, &flat);
            for dd in Dim::ALL {
                assert_eq!(lb.of(dd), lf.of(dd), "loads diverge for {dd}");
            }
        });
    }

    /// Already balanced input: improve is a no-op.
    #[test]
    fn balanced_input_is_noop() {
        execute(2, |c| {
            let serial = tri_rect(8, 4, 2.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 1.0 { 0 } else { 1 };
            }
            let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            let pr: Priority = "Face".parse().unwrap();
            let report = improve(c, &mut dm, &pr, ImproveOpts::default());
            assert_eq!(report.elements_moved, 0);
            assert!(report.types[0].iters.is_empty());
        });
    }
}
