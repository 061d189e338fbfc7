//! Mesh element selection (§III-A.2, Figs 9/10).
//!
//! "Mesh elements, and groups of mesh elements, referred to as cavities, are
//! selected for migration if they will decrease the communication cost over
//! part boundaries once migrated."
//!
//! Three rules, by the entity type being balanced:
//! * **elements** (Fig 9): part-boundary elements with more sides classified
//!   on the part boundary than on the part interior;
//! * **edges/faces** (Fig 10): a part-boundary entity bounding few local
//!   elements forms a small cavity whose migration removes it from the
//!   boundary with minimal side effects;
//! * **vertices** (Zhou, ref. 20): small cavities around part-boundary vertices
//!   whose migration removes the vertex from the heavy part.
//!
//! Selection is *harm-aware* (§III-A): a cavity is accepted only if the
//! estimated growth of the destination part stays under the spike threshold
//! for the balanced type and every higher-priority type.
//!
//! With a [`TopoGate`] installed, selection is also *topology-aware*: each
//! cavity's exact off-node boundary-pair delta is computed from the
//! residence sets of its closure, and cavities that would create new
//! off-node boundary are rejected unless their balance credit pays for it
//! (see [`crate::topo`]).

use pumi_core::{MigrationPlan, Part};
use pumi_util::{Dim, FxHashMap, FxHashSet, MeshEnt, PartId};

/// Topology gate state for one heavy part's selection pass: the part → node
/// placement, the price of new off-node boundary, and whether the gate is
/// relaxed because the part has no on-node candidate at all.
#[derive(Debug, Clone)]
pub struct TopoGate {
    /// Node hosting each part (indexed by part id).
    pub node_of_part: Vec<u32>,
    /// Off-node pairs a cavity may create per unit of balance credit.
    pub penalty: f64,
    /// Gate disabled for this part (no on-node candidate exists; blocking
    /// off-node moves would strand the excess).
    pub relax: bool,
}

/// Destination-side harm guard: running load estimates per (part, dim)
/// against the spike caps.
///
/// Decisions are per-source (each heavy part plans independently, as in
/// ParMA), so several sources could fill the same destination's headroom
/// simultaneously. To bound that overfill, each source may only consume
/// **half** of a destination's remaining headroom for dims other than the
/// one being balanced; the iteration loop re-gathers loads and converges
/// geometrically.
#[derive(Debug)]
pub struct HarmGuard {
    /// Dims that must not be pushed over their cap on any destination.
    pub guarded: Vec<Dim>,
    /// Caps per dim: `avg * (1 + tol)` (or the current peak for protected
    /// dims — "no harm" means not raising the peak).
    pub caps: [f64; 4],
    /// The dim being balanced (full headroom; the schedule already limits
    /// per-candidate quotas for it).
    pub target: Dim,
    /// Running destination load estimates.
    dest_load: FxHashMap<(PartId, usize), f64>,
}

impl HarmGuard {
    /// Build a guard for `guarded` dims with the given caps. Base loads are
    /// supplied lazily at check time via the `base` closures.
    pub fn new(guarded: Vec<Dim>, caps: [f64; 4], target: Dim) -> Self {
        HarmGuard {
            guarded,
            caps,
            target,
            dest_load: FxHashMap::default(),
        }
    }

    fn current(&self, q: PartId, d: Dim, base: f64) -> f64 {
        self.dest_load
            .get(&(q, d.as_usize()))
            .copied()
            .unwrap_or(base)
    }

    fn allowance(&self, d: Dim, base: f64) -> f64 {
        let cap = self.caps[d.as_usize()];
        if d == self.target {
            cap
        } else {
            // Half the headroom this source sees (overfill bound).
            base + (cap - base) * 0.5
        }
    }

    /// Would adding `gains[d]` entities to part `q` break any guarded cap?
    pub fn would_harm(&self, q: PartId, gains: &[f64; 4], base: impl Fn(Dim) -> f64) -> bool {
        for &d in &self.guarded {
            let b = base(d);
            let now = self.current(q, d, b);
            if now + gains[d.as_usize()] > self.allowance(d, b) {
                return true;
            }
        }
        false
    }

    /// Commit a cavity's gains to part `q`.
    pub fn commit(&mut self, q: PartId, gains: &[f64; 4], base: impl Fn(Dim) -> f64) {
        for &d in &self.guarded {
            let now = self.current(q, d, base(d));
            self.dest_load
                .insert((q, d.as_usize()), now + gains[d.as_usize()]);
        }
    }

    /// The total gains this source has committed toward destination `q`,
    /// relative to the supplied base loads — the request sent to `q` in the
    /// admission handshake.
    pub fn committed_gains(&self, q: PartId, base: impl Fn(Dim) -> f64) -> [f64; 4] {
        let mut g = [0f64; 4];
        for &d in &self.guarded {
            if let Some(&now) = self.dest_load.get(&(q, d.as_usize())) {
                g[d.as_usize()] = now - base(d);
            }
        }
        g
    }
}

/// Per-part selection state: the plan being built and which elements are in
/// it.
pub struct Selector<'p> {
    part: &'p Part,
    elem_dim: Dim,
    /// The migration plan accumulated so far.
    pub plan: MigrationPlan,
    selected: FxHashSet<MeshEnt>,
    /// Whether the strict selection passes run before the relaxed ones.
    strict: bool,
    /// Per-element weight tag: element-dim removals and destination gains
    /// count this weight instead of 1 (predictive balancing, §III-B).
    weight: Option<pumi_util::TagId>,
    /// Closure entities already counted toward each destination's gains —
    /// adjacent cavities share closure entities, and double-counting them
    /// makes the harm guard block diffusion prematurely.
    counted: FxHashMap<PartId, FxHashSet<MeshEnt>>,
    /// Topology gate: reject cavities that create unpaid off-node boundary.
    topo: Option<TopoGate>,
}

/// A selection request: balance `target` by shipping ~`quota` target-dim
/// entities to candidate `cand`.
#[derive(Debug, Clone, Copy)]
pub struct SelectRequest {
    /// The entity dimension being balanced.
    pub target: Dim,
    /// The destination candidate part.
    pub cand: PartId,
    /// How many target-dim entities to remove from this part.
    pub quota: f64,
}

impl<'p> Selector<'p> {
    /// Start selecting on `part`.
    pub fn new(part: &'p Part) -> Selector<'p> {
        Selector {
            part,
            elem_dim: part.mesh.elem_dim_t(),
            plan: MigrationPlan::new(),
            selected: FxHashSet::default(),
            strict: true,
            weight: None,
            counted: FxHashMap::default(),
            topo: None,
        }
    }

    /// Enable or disable the strict selection passes (for ablation).
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Weight element-dim accounting by the named Real tag (missing tag or
    /// entry counts as 1.0).
    pub fn weighted(mut self, tag: Option<&str>) -> Self {
        self.weight = tag.and_then(|t| self.part.mesh.tags().find(t));
        self
    }

    /// Install a topology gate (None leaves selection topology-blind).
    pub fn topo(mut self, gate: Option<TopoGate>) -> Self {
        self.topo = gate;
        self
    }

    fn elem_weight(&self, e: MeshEnt) -> f64 {
        self.weight
            .and_then(|t| self.part.mesh.tags().get_dbl(t, e))
            .unwrap_or(1.0)
    }

    /// Run one selection request; returns the estimated number of target-dim
    /// entities removed from this part.
    pub fn select(
        &mut self,
        req: SelectRequest,
        guard: &mut HarmGuard,
        base_load: impl Fn(PartId, Dim) -> f64 + Copy,
    ) -> f64 {
        if req.target == self.elem_dim {
            self.select_elements(req, guard, base_load)
        } else {
            self.select_cavities(req, guard, base_load)
        }
    }

    /// Fig 9: boundary elements with more shared sides than interior sides.
    fn select_elements(
        &mut self,
        req: SelectRequest,
        guard: &mut HarmGuard,
        base_load: impl Fn(PartId, Dim) -> f64 + Copy,
    ) -> f64 {
        let mut removed = 0.0;
        // Three passes: strict Fig 9 (more part-boundary sides than
        // part-interior sides), relaxed (at least as many), then any element
        // touching the candidate boundary (keeps diffusion progressing when
        // no spiky elements remain). Sides on the geometric domain boundary
        // are neither part-boundary nor part-interior, matching Fig 9's
        // classification-based counting.
        let first_pass = if self.strict { 0usize } else { 2 };
        for pass in first_pass..3usize {
            if removed >= req.quota {
                break;
            }
            for (s, remotes) in self.part.shared_entities() {
                if removed >= req.quota {
                    break;
                }
                if s.dim().as_usize() + 1 != self.elem_dim.as_usize() {
                    continue;
                }
                if !remotes.iter().any(|&(q, _)| q == req.cand) {
                    continue;
                }
                for e in self.part.mesh.up_ents(s) {
                    if self.selected.contains(&e) || self.part.is_ghost(e) {
                        continue;
                    }
                    let sides = self.part.mesh.down_ents(e);
                    let shared = sides.iter().filter(|&&x| self.part.is_shared(x)).count();
                    let interior = sides
                        .iter()
                        .filter(|&&x| !self.part.is_shared(x) && self.part.mesh.up_count(x) == 2)
                        .count();
                    let ok = match pass {
                        0 => shared > interior,
                        1 => shared >= interior,
                        _ => true,
                    };
                    if !ok {
                        continue;
                    }
                    if !self.topo_admits(&[e], req.cand, self.elem_weight(e)) {
                        continue;
                    }
                    let gains = self.dest_gains(&[e], req.cand);
                    if guard.would_harm(req.cand, &gains, |d| base_load(req.cand, d)) {
                        continue;
                    }
                    guard.commit(req.cand, &gains, |d| base_load(req.cand, d));
                    self.mark_counted(&[e], req.cand);
                    self.selected.insert(e);
                    self.plan.send(e, req.cand);
                    removed += self.elem_weight(e);
                    if removed >= req.quota {
                        break;
                    }
                }
            }
        }
        removed
    }

    /// Figs 10 / Zhou: cavities around part-boundary entities of the target
    /// dimension shared with the candidate.
    fn select_cavities(
        &mut self,
        req: SelectRequest,
        guard: &mut HarmGuard,
        base_load: impl Fn(PartId, Dim) -> f64 + Copy,
    ) -> f64 {
        let mut removed = 0.0;
        // Cavity caps: strict first (Fig 10(a): one or two elements), then
        // progressively relaxed.
        let caps: &[usize] = if self.strict { &[2, 4, 8] } else { &[8] };
        for &cavity_cap in caps {
            if removed >= req.quota {
                break;
            }
            for (b, remotes) in self.part.shared_entities() {
                if removed >= req.quota {
                    break;
                }
                if b.dim() != req.target {
                    continue;
                }
                if !remotes.iter().any(|&(q, _)| q == req.cand) {
                    continue;
                }
                let cavity: Vec<MeshEnt> = self
                    .part
                    .mesh
                    .adjacent(b, self.elem_dim)
                    .into_iter()
                    .filter(|e| !self.selected.contains(e) && !self.part.is_ghost(*e))
                    .collect();
                if cavity.is_empty() || cavity.len() > cavity_cap {
                    continue;
                }
                // The cavity must actually remove target entities from us.
                let gain_removed = self.removal_estimate(&cavity, req.target);
                if gain_removed < 1.0 {
                    continue;
                }
                if !self.topo_admits(&cavity, req.cand, gain_removed) {
                    continue;
                }
                let gains = self.dest_gains(&cavity, req.cand);
                if guard.would_harm(req.cand, &gains, |d| base_load(req.cand, d)) {
                    continue;
                }
                guard.commit(req.cand, &gains, |d| base_load(req.cand, d));
                self.mark_counted(&cavity, req.cand);
                for &e in &cavity {
                    self.selected.insert(e);
                    self.plan.send(e, req.cand);
                }
                removed += gain_removed;
            }
        }
        removed
    }

    /// Entities of `target` dim that leave this part if `cavity` migrates:
    /// those all of whose adjacent elements are selected or in the cavity.
    fn removal_estimate(&self, cavity: &[MeshEnt], target: Dim) -> f64 {
        let mesh = &self.part.mesh;
        let mut cands: FxHashSet<MeshEnt> = FxHashSet::default();
        for &e in cavity {
            for sub in mesh.adjacent(e, target) {
                cands.insert(sub);
            }
        }
        let mut n = 0.0;
        for sub in cands {
            let all_gone = mesh
                .adjacent(sub, self.elem_dim)
                .iter()
                .all(|el| self.selected.contains(el) || cavity.contains(el));
            if all_gone {
                n += 1.0;
            }
        }
        n
    }

    /// Does the topology gate admit migrating `cavity` to `cand`? True when
    /// no gate is installed, the gate is relaxed, the cavity reduces (or
    /// keeps) the off-node boundary-pair count, or the balance `credit`
    /// pays for the new pairs at the configured penalty.
    fn topo_admits(&self, cavity: &[MeshEnt], cand: PartId, credit: f64) -> bool {
        let Some(g) = &self.topo else {
            return true;
        };
        if g.relax {
            return true;
        }
        let delta = self.off_node_pair_delta(cavity, cand, g);
        delta <= 0 || delta as f64 * g.penalty <= credit
    }

    /// The exact change in off-node boundary pairs if `cavity` migrates to
    /// `cand`: for each closure entity, its holder set afterwards is the
    /// holder set before, minus this part if every adjacent element is
    /// leaving, plus the candidate; the delta is the difference in
    /// node-crossing holder pairs. Elements themselves are interior (one
    /// holder before and after) and contribute nothing.
    fn off_node_pair_delta(&self, cavity: &[MeshEnt], cand: PartId, g: &TopoGate) -> i64 {
        let mesh = &self.part.mesh;
        let me = self.part.id;
        let node = |p: PartId| g.node_of_part[p as usize];
        let off_pairs = |res: &[PartId]| -> i64 {
            let mut n = 0i64;
            for i in 0..res.len() {
                for j in (i + 1)..res.len() {
                    if node(res[i]) != node(res[j]) {
                        n += 1;
                    }
                }
            }
            n
        };
        let mut seen: FxHashSet<MeshEnt> = FxHashSet::default();
        let mut delta = 0i64;
        for &e in cavity {
            for sub in mesh.closure(e) {
                if sub.dim() == self.elem_dim || !seen.insert(sub) {
                    continue;
                }
                let mut res = self.part.residence(sub);
                let before = off_pairs(&res);
                let leaves = mesh
                    .adjacent(sub, self.elem_dim)
                    .iter()
                    .all(|el| self.selected.contains(el) || cavity.contains(el));
                if leaves {
                    res.retain(|&p| p != me);
                }
                if !res.contains(&cand) {
                    res.push(cand);
                }
                delta += off_pairs(&res) - before;
            }
        }
        delta
    }

    /// Estimated new entities per dimension the destination gains from this
    /// cavity: closure entities not already shared with the candidate and
    /// not already counted by a previously accepted cavity for it.
    fn dest_gains(&self, cavity: &[MeshEnt], cand: PartId) -> [f64; 4] {
        let mesh = &self.part.mesh;
        let mut gains = [0f64; 4];
        let mut seen: FxHashSet<MeshEnt> = FxHashSet::default();
        let counted = self.counted.get(&cand);
        for &e in cavity {
            for sub in mesh.closure(e) {
                if !seen.insert(sub) {
                    continue;
                }
                if counted.is_some_and(|c| c.contains(&sub)) {
                    continue;
                }
                let on_cand = self.part.remotes_of(sub).iter().any(|&(q, _)| q == cand);
                if !on_cand {
                    gains[sub.dim().as_usize()] += if sub.dim() == self.elem_dim {
                        self.elem_weight(sub)
                    } else {
                        1.0
                    };
                }
            }
        }
        gains
    }

    /// Record a committed cavity's closure as counted toward `cand`.
    fn mark_counted(&mut self, cavity: &[MeshEnt], cand: PartId) {
        let set = self.counted.entry(cand).or_default();
        for &e in cavity {
            for sub in self.part.mesh.closure(e) {
                set.insert(sub);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumi_core::{distribute, PartMap};
    use pumi_meshgen::tri_rect;
    use pumi_pcu::execute;

    fn guard_with_caps(caps: [f64; 4], guarded: Vec<Dim>) -> HarmGuard {
        let target = guarded[0];
        HarmGuard::new(guarded, caps, target)
    }

    #[test]
    fn fig9_selects_boundary_spikes() {
        execute(2, |c| {
            // A strip split unevenly: part 0 has most elements; select from
            // part 0 toward part 1.
            let serial = tri_rect(6, 1, 6.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as pumi_util::PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 5.0 { 0 } else { 1 };
            }
            let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            if c.rank() == 0 {
                let part = dm.part(0);
                let mut sel = Selector::new(part);
                let mut guard = guard_with_caps([1e9; 4], vec![Dim::Face]);
                let removed = sel.select(
                    SelectRequest {
                        target: Dim::Face,
                        cand: 1,
                        quota: 2.0,
                    },
                    &mut guard,
                    |_, _| 0.0,
                );
                assert!(removed >= 1.0, "nothing selected");
                assert!(!sel.plan.is_empty());
                // All selected elements touch the boundary with part 1.
                for (&e, &to) in &sel.plan.dest {
                    assert_eq!(to, 1);
                    let touches = part
                        .mesh
                        .closure(e)
                        .iter()
                        .any(|&s| s.dim() != d && part.is_shared(s));
                    assert!(touches, "selected interior element {e:?}");
                }
            }
        });
    }

    #[test]
    fn vertex_cavity_selection_removes_vertices() {
        execute(2, |c| {
            let serial = tri_rect(6, 3, 2.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as pumi_util::PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 1.4 { 0 } else { 1 };
            }
            let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            if c.rank() == 0 {
                let part = dm.part(0);
                let mut sel = Selector::new(part);
                let mut guard = guard_with_caps([1e9; 4], vec![Dim::Vertex]);
                let removed = sel.select(
                    SelectRequest {
                        target: Dim::Vertex,
                        cand: 1,
                        quota: 3.0,
                    },
                    &mut guard,
                    |_, _| 0.0,
                );
                assert!(removed >= 1.0, "no vertex cavity found");
            }
        });
    }

    #[test]
    fn harm_guard_blocks_overfull_destination() {
        execute(2, |c| {
            let serial = tri_rect(6, 1, 6.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as pumi_util::PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 5.0 { 0 } else { 1 };
            }
            let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            if c.rank() == 0 {
                let part = dm.part(0);
                let mut sel = Selector::new(part);
                // Destination already at cap: nothing may be selected.
                let mut guard = guard_with_caps([0.0; 4], vec![Dim::Face]);
                let removed = sel.select(
                    SelectRequest {
                        target: Dim::Face,
                        cand: 1,
                        quota: 5.0,
                    },
                    &mut guard,
                    |_, _| 1.0, // any gain exceeds cap 0
                );
                assert_eq!(removed, 0.0);
                assert!(sel.plan.is_empty());
            }
        });
    }

    #[test]
    fn removal_estimate_counts_exclusive_entities() {
        execute(1, |_c| {});
        // Serial check on a tiny fan: selecting both triangles around the
        // shared edge removes that edge and the interior vertex pattern.
        let serial = tri_rect(1, 1, 1.0, 1.0);
        let mut part = pumi_core::Part::new(0, 2);
        // Rebuild serial into a part.
        let mut vmap = std::collections::HashMap::new();
        for v in serial.iter(Dim::Vertex) {
            let nv = part.add_vertex(serial.coords(v), serial.class_of(v), v.index() as u64);
            vmap.insert(v.index(), nv.index());
        }
        for e in serial.iter(Dim::Face) {
            let verts: Vec<u32> = serial.verts_of(e).iter().map(|v| vmap[v]).collect();
            part.add_entity(
                serial.topo(e),
                &verts,
                serial.class_of(e),
                100 + e.idx() as u64,
            );
        }
        let sel = Selector::new(&part);
        let cavity: Vec<MeshEnt> = part.mesh.elems().collect();
        // Migrating both triangles removes all 4 vertices and 5 edges.
        assert_eq!(sel.removal_estimate(&cavity, Dim::Vertex), 4.0);
        assert_eq!(sel.removal_estimate(&cavity, Dim::Edge), 5.0);
        let one: Vec<MeshEnt> = cavity[..1].to_vec();
        // One triangle alone removes only its exclusive vertex (the corner
        // not on the diagonal).
        assert_eq!(sel.removal_estimate(&one, Dim::Vertex), 1.0);
    }
}
