//! Mesh migration (§II-C).
//!
//! "Mesh migration: a procedure that moves mesh entities from part to part
//! to support (i) mesh distribution to parts, (ii) mesh load balancing, or
//! (iii) obtaining mesh entities needed for mesh modification operations."
//!
//! The algorithm is FMDB's (paper refs 9 and 10), expressed in three phased exchanges:
//!
//! 1. **Residence** — the *touched* set of a part is exactly the closures
//!    of the elements leaving it. For each touched entity the part computes
//!    its contribution, the destination set of its adjacent elements, and
//!    sends it to every remote copy; a receiver that did not touch the
//!    entity itself starts from its own contribution `{self}`. One rule
//!    closes the set: **a remote copy that sent no contribution keeps its
//!    entity**, so new residence = own contribution ∪ received contributions
//!    ∪ {silent remote copies}. Why: a copy is silent only if none of its
//!    adjacent elements leaves, so its contribution would have been `{itself}`;
//!    and every touching copy writes to *every* other copy, so all copies
//!    hear the same speakers and close to the same set. The precondition is
//!    the one migration relies on anyway — complete, symmetric remote-copy
//!    lists (`check_dist`'s symmetry check); no extra round is needed, the
//!    phased exchange has delivered every frame when `finish` returns.
//!    Entities nobody touches are not looked at: they keep their remote-copy
//!    lists, which stay valid because a surviving entity never changes its
//!    local index. A migration therefore costs O(closure of what moves),
//!    not O(part boundary).
//! 2. **Entities** — each moved element's closure is packed bottom-up
//!    (vertices first) with global ids, classification, coordinates, the
//!    new residence set, and tag data. Shared entities are sent only by
//!    their *owner* (which knows the full new residence set from phase 1),
//!    so no destination receives duplicate copies — but a frame is then no
//!    longer self-contained: an edge from one peer may reference a vertex
//!    carried only by another peer's frame. Receivers therefore decode
//!    **all** incoming frames into one row block ([`Rows`]) first, then
//!    build it with [`Part::build`], the builder every entity-creating path
//!    shares: dimension by dimension, matching by global id, refusing a
//!    malformed record with a typed error.
//! 3. **Stitch** — every part keeping an entity whose residence phase 1 or 2
//!    recomputed announces its local index to the other residence parts;
//!    those remote-copy lists are rebuilt and ownership (minimum-part rule)
//!    follows.
//!
//! Finally, elements with non-local destinations and entities whose new
//! residence excludes this part are deleted top-down.
//!
//! **Working set.** Nothing on this path hashes an entity handle. Each plan
//! is read once into a move list sorted by element, and an element →
//! destination table answers the residence walk, which climbs the one-level
//! up links from each touched entity and collects distinct destinations.
//! The touched entities live in a list in first-touch order, found through
//! a slot table, with their residence sets as ranges of one pool; each
//! entry carries the last destination frame it was packed into, which
//! deduplicates a frame's closures. Both tables belong to a per-part
//! scratch the rank's thread keeps between calls: they only grow, and a
//! call clears just the entries the previous call set, so a warm call still
//! costs the closure of what moves, not the part (`tests/migrate_cost.rs`
//! counts the bytes). The lists are freed after each call. Phase spans
//! (`migrate.residence.{walk,pack,unpack}`,
//! `migrate.entities.{pack,decode}`, `migrate.stitch.{reset,delete}`)
//! give each step's self time in the world report.

use crate::dist::{DistMesh, PartExchange};
use crate::part::Part;
use crate::rows::{Placed, Rows};
use crate::wire;
use pumi_mesh::Mesh;
use pumi_pcu::{Comm, MsgError, MsgReader};
use pumi_util::{Dim, FxHashMap, GlobalId, MeshEnt, PartId};
use std::cell::RefCell;

/// A migration plan for one part: element → destination part. Elements not
/// listed stay. Destinations equal to the owning part are allowed (no-ops).
#[derive(Debug, Default, Clone)]
pub struct MigrationPlan {
    /// Element handle → destination part id.
    pub dest: FxHashMap<MeshEnt, PartId>,
}

impl MigrationPlan {
    /// An empty plan (nothing moves).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `elem` to move to `to`.
    pub fn send(&mut self, elem: MeshEnt, to: PartId) {
        self.dest.insert(elem, to);
    }

    /// Number of scheduled moves.
    pub fn len(&self) -> usize {
        self.dest.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.dest.is_empty()
    }
}

/// Statistics returned by [`migrate`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStats {
    /// Elements moved off their part, summed over the world.
    pub elements_moved: u64,
    /// Entity records sent (closure copies), summed over the world.
    pub entities_sent: u64,
}

/// No entry in a scratch table.
const NONE: u32 = u32::MAX;

/// A touched entity: where its new residence set lies in the scratch's
/// pool, and the last destination frame it was packed into.
#[derive(Debug)]
struct Touch {
    e: MeshEnt,
    /// `(start, len)` in [`Scratch::pool`].
    res: (u32, u32),
    frame: u32,
}

impl Touch {
    /// The new residence set, read from the scratch's `pool`.
    fn res<'a>(&self, pool: &'a [PartId]) -> &'a [PartId] {
        &pool[self.res.0 as usize..][..self.res.1 as usize]
    }
}

/// Split off the leading `(t, _)` pairs of a list sorted by entry.
fn take_entry<'a>(list: &mut &'a [(u32, PartId)], t: usize) -> &'a [(u32, PartId)] {
    let n = list.iter().take_while(|&&(u, _)| u as usize == t).count();
    let (mine, rest) = list.split_at(n);
    *list = rest;
    mine
}

/// What `migrate` keeps per local part between calls. The two tables are
/// indexed by slot and only grow; a call clears the entries the previous
/// call set and no others, so it costs what it touches. The working lists
/// are freed after each call ([`Scratch::shed`]).
#[derive(Debug, Default)]
struct Scratch {
    /// The plan read once: moves off the part, sorted by element.
    moves: Vec<(MeshEnt, PartId)>,
    /// The same moves sorted by (destination, element): packing order.
    by_dest: Vec<(PartId, MeshEnt)>,
    /// Element slot → destination, [`NONE`] for an element that stays.
    dest: Vec<PartId>,
    /// Slot of an entity below the elements → its entry of `touched`,
    /// [`NONE`] if untouched.
    at: [Vec<u32>; 3],
    /// Touched entities in first-touch order.
    touched: Vec<Touch>,
    /// The residence sets of `touched`, each a range.
    pool: Vec<PartId>,
    /// `(entry, part)`: a residence contribution received in phase 1.
    got: Vec<(u32, PartId)>,
    /// `(entry, part)`: the remote copy on `part` spoke in phase 1.
    heard: Vec<(u32, PartId)>,
    /// `(part, dim, gid, entity)`: a shared entity this part owns, bound
    /// for a residence part that holds no copy of it.
    owed: Vec<(PartId, usize, GlobalId, MeshEnt)>,
    closure: Vec<MeshEnt>,
    by_dim: [Vec<MeshEnt>; 4],
    /// One residence row's parts, then one entity's merged residence.
    parts: Vec<PartId>,
    /// The pool being rebuilt by the silent-copy merge.
    merged: Vec<PartId>,
}

thread_local! {
    /// One [`Scratch`] per local part slot of the rank running on this
    /// thread.
    static SCRATCH: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Grow a slot table to cover `n` slots, new slots set to `fill`. The
/// capacity grows by half again, so a part that gains a few entities per
/// call does not reallocate the table on every call.
fn fit<T: Copy>(table: &mut Vec<T>, n: usize, fill: T) {
    if table.len() < n {
        if table.capacity() < n {
            table.reserve(n + n / 2 - table.len());
        }
        table.resize(n, fill);
    }
}

impl Scratch {
    /// Clear what the previous call set and cover every slot of `mesh`.
    fn begin(&mut self, mesh: &Mesh) {
        for t in &self.touched {
            self.at[t.e.dim().as_usize()][t.e.idx()] = NONE;
        }
        for &(el, _) in &self.moves {
            self.dest[el.idx()] = NONE;
        }
        self.touched.clear();
        self.moves.clear();
        self.shed(); // a call that panicked did not
        self.cover(mesh);
        fit(&mut self.dest, mesh.index_space(mesh.elem_dim_t()), NONE);
    }

    /// Free the working lists. The slot tables stay, and so do the moves
    /// and touched entities that clear them next call: a call's lists cost
    /// what it moves, and are not kept beside the rest of the program.
    fn shed(&mut self) {
        (self.by_dest, self.owed, self.closure, self.by_dim) = Default::default();
        (self.pool, self.got, self.heard, self.parts, self.merged) = Default::default();
    }

    /// Grow `at` to the slots of `mesh` below its elements.
    fn cover(&mut self, mesh: &Mesh) {
        for d in 0..mesh.elem_dim() {
            fit(&mut self.at[d], mesh.index_space(Dim::from_usize(d)), NONE);
        }
    }

    /// The entry of `e` in `touched`, and whether this call just made it.
    fn touch(&mut self, e: MeshEnt) -> (usize, bool) {
        let at = &mut self.at[e.dim().as_usize()][e.idx()];
        if *at != NONE {
            return (*at as usize, false);
        }
        *at = self.touched.len() as u32;
        self.touched.push(Touch {
            e,
            res: (0, 0),
            frame: 0,
        });
        (self.touched.len() - 1, true)
    }

    /// Whether `e` joins destination frame `frame` (from 1 up): an element
    /// always (it moves once), an entity below it the first time it is
    /// offered.
    fn joins_frame(&mut self, e: MeshEnt, d_elem: Dim, frame: u32) -> bool {
        if e.dim() == d_elem {
            return true;
        }
        let t = &mut self.touched[self.at[e.dim().as_usize()][e.idx()] as usize];
        std::mem::replace(&mut t.frame, frame) != frame
    }
}

/// Append to `out` the destination of every element above `e` that
/// `out[from..]` does not hold yet, walking the one-level up links. An
/// element's destination is its move's, or `stay`.
fn dests_above(
    mesh: &Mesh,
    e: MeshEnt,
    (d_elem, dest, stay): (Dim, &[PartId], PartId),
    out: &mut Vec<PartId>,
    from: usize,
) {
    for u in mesh.up(e) {
        if u.dim() == d_elem {
            let p = match dest[u.idx()] {
                NONE => stay,
                p => p,
            };
            if !out[from..].contains(&p) {
                out.push(p);
            }
        } else {
            dests_above(mesh, u, (d_elem, dest, stay), out, from);
        }
    }
}

/// Unpack the phase-1 residence frame part `from` sent to `part`, noting
/// each contribution and that `from` spoke for its entity. An entity this
/// part did not touch starts from its own contribution `{self}`: none of
/// its adjacent elements moves. Frames are self-delimiting; any underrun
/// names writer/reader disagreement, and a row for an entity this part does
/// not hold is an error — dropped, it would read as "that copy stays".
fn unpack_residence(
    r: &mut MsgReader,
    from: PartId,
    part: &Part,
    nparts: usize,
    sc: &mut Scratch,
) -> Result<(), MsgError> {
    while !r.is_done() {
        sc.parts.clear();
        let (d, gid) = wire::get_residence(r, nparts, &mut sc.parts)?;
        if d.as_usize() >= part.mesh.elem_dim() {
            return Err(MsgError::corrupt("residence row for an element"));
        }
        let e = part
            .find_gid(d, gid)
            .ok_or_else(|| MsgError::missing("residence target", d.as_usize() as u8, gid))?;
        let (t, new) = sc.touch(e);
        let t = t as u32;
        if new {
            sc.got.push((t, part.id));
        }
        sc.got.extend(sc.parts.iter().map(|&p| (t, p)));
        sc.heard.push((t, from));
    }
    Ok(())
}

/// Read every plan once into its part's sorted move list, refusing a
/// malformed plan before the first exchange, in O(plan): every plan must
/// belong to a part this rank hosts, and every move must name a live element
/// of that part and a destination inside the world. (A ghost handle cannot
/// get here: `migrate` refuses parts with ghosts first.)
fn read_plans(
    comm: &Comm,
    dm: &DistMesh,
    plans: &FxHashMap<PartId, MigrationPlan>,
    scratch: &mut [Scratch],
) {
    let nparts = dm.map.nparts();
    for &pid in plans.keys() {
        if !dm.parts.iter().any(|p| p.id == pid) {
            let rank = comm.rank();
            panic!("migration plan of part {pid}: part {pid} is not hosted on rank {rank}");
        }
    }
    for (part, sc) in dm.parts.iter().zip(scratch) {
        sc.begin(&part.mesh);
        let Some(plan) = plans.get(&part.id) else {
            continue;
        };
        let (pid, d_elem) = (part.id, part.mesh.elem_dim_t());
        for (&e, &to) in &plan.dest {
            assert!(
                e.dim() == d_elem && part.mesh.is_live(e),
                "migration plan of part {pid}: {e:?} is not a live element"
            );
            assert!(
                (to as usize) < nparts,
                "migration plan of part {pid}: {e:?} destination {to} outside 0..{nparts}"
            );
            if to != pid {
                sc.moves.push((e, to));
                sc.by_dest.push((to, e));
                sc.dest[e.idx()] = to;
            }
        }
        sc.moves.sort_unstable();
        sc.by_dest.sort_unstable();
    }
}

/// Execute a migration across the whole world. Every rank passes the plans
/// of its local parts (missing entries mean "no moves"). Collective: all
/// ranks must call, even with empty plans.
///
/// # Panics
/// Ghost copies must be deleted before migrating (as in PUMI); this is
/// asserted, and so is the plan: a plan for a part this rank does not host, a
/// handle that is not a live element of its part, or a destination outside
/// the world panics, naming part, handle and destination, before anything is
/// sent.
pub fn migrate(
    comm: &Comm,
    dm: &mut DistMesh,
    plans: &FxHashMap<PartId, MigrationPlan>,
) -> MigrationStats {
    let _span = pumi_obs::span!("migrate");
    pumi_obs::metrics::counter_add("migrate.calls", 1);
    for p in &dm.parts {
        assert_eq!(p.num_ghosts(), 0, "delete ghosts before migrating");
    }
    SCRATCH.with_borrow_mut(|scratch| {
        if scratch.len() < dm.parts.len() {
            scratch.resize_with(dm.parts.len(), Scratch::default);
        }
        let scratch = &mut scratch[..dm.parts.len()];
        read_plans(comm, dm, plans, scratch);
        let stats = run(comm, dm, scratch);
        scratch.iter_mut().for_each(Scratch::shed);
        stats
    })
}

/// The three phases of [`migrate`] on plans [`read_plans`] has read.
fn run(comm: &Comm, dm: &mut DistMesh, scratch: &mut [Scratch]) -> MigrationStats {
    let elem_dim = dm.parts.first().map(|p| p.mesh.elem_dim()).unwrap_or(2);
    let d_elem = Dim::from_usize(elem_dim);
    let nparts = dm.map.nparts();

    // ------------------------------------------------------------------
    // Phase 1: residence.
    // ------------------------------------------------------------------
    let phase1 = pumi_obs::span!("migrate.residence");
    // Local residence contributions of the touched entities — the closures
    // of the elements leaving.
    let walk = pumi_obs::span!("migrate.residence.walk");
    for (sc, part) in scratch.iter_mut().zip(&dm.parts) {
        for k in 0..sc.moves.len() {
            sc.closure.clear();
            part.mesh.closure_into(sc.moves[k].0, &mut sc.closure);
            for j in 0..sc.closure.len() {
                let sub = sc.closure[j];
                if sub.dim() == d_elem {
                    continue;
                }
                let (t, new) = sc.touch(sub);
                if new {
                    let start = sc.pool.len();
                    let walk = (d_elem, &sc.dest[..], part.id);
                    dests_above(&part.mesh, sub, walk, &mut sc.pool, start);
                    sc.pool[start..].sort_unstable();
                    sc.touched[t].res = (start as u32, (sc.pool.len() - start) as u32);
                }
            }
        }
    }
    drop(walk);
    // Every touched copy tells every other copy.
    let pack = pumi_obs::span!("migrate.residence.pack");
    let mut ex = PartExchange::new(comm, &dm.map);
    for (sc, part) in scratch.iter().zip(&dm.parts) {
        for t in &sc.touched {
            let gid = part.gid_of(t.e);
            for &(q, _) in part.remotes_of(t.e) {
                wire::put_residence(ex.to(part.id, q), t.e.dim(), gid, t.res(&sc.pool));
            }
        }
    }
    drop(pack);
    let unpack = pumi_obs::span!("migrate.residence.unpack");
    for (from, to, mut r) in ex.finish() {
        let slot = dm.map.slot_of(to);
        unpack_residence(&mut r, from, &dm.parts[slot], nparts, &mut scratch[slot])
            .unwrap_or_else(|e| panic!("corrupt residence frame {from}->{to}: {e}"));
    }
    // New residence = own contribution ∪ received contributions ∪ the
    // silent remote copies, which stay: none of their adjacent elements
    // moves.
    for (sc, part) in scratch.iter_mut().zip(&dm.parts) {
        sc.got.sort_unstable();
        sc.heard.sort_unstable();
        let (mut got, mut heard) = (&sc.got[..], &sc.heard[..]);
        sc.merged.clear();
        for (t, touch) in sc.touched.iter_mut().enumerate() {
            let (got_t, heard_t) = (take_entry(&mut got, t), take_entry(&mut heard, t));
            let res = &mut sc.parts;
            res.clear();
            res.extend_from_slice(touch.res(&sc.pool));
            res.extend(got_t.iter().map(|&(_, p)| p));
            let remotes = part.remotes_of(touch.e).iter().map(|&(q, _)| q);
            res.extend(remotes.filter(|&q| heard_t.iter().all(|&(_, p)| p != q)));
            res.sort_unstable();
            res.dedup();
            touch.res = (sc.merged.len() as u32, res.len() as u32);
            sc.merged.extend_from_slice(res);
        }
        std::mem::swap(&mut sc.pool, &mut sc.merged);
    }
    drop(unpack);
    drop(phase1);

    // ------------------------------------------------------------------
    // Phase 2: entities.
    // ------------------------------------------------------------------
    let phase2 = pumi_obs::span!("migrate.entities");
    let pack = pumi_obs::span!("migrate.entities.pack");
    let mut entities_sent = 0u64;
    let mut elements_moved = 0u64;
    let mut ex = PartExchange::new(comm, &dm.map);
    for (sc, part) in scratch.iter_mut().zip(&dm.parts) {
        elements_moved += sc.moves.len() as u64;
        // Owner delegation: a shared entity is packed only by its owner,
        // which learned the full new residence set in phase 1 — including
        // destinations fed by *other* parts' moved elements. It owes one
        // copy to each new residence part that does not already hold one,
        // packed after the closures, in (dim, gid) order.
        for t in &sc.touched {
            if !(part.is_shared(t.e) && part.is_owned(t.e)) {
                continue;
            }
            let remotes = part.remotes_of(t.e);
            for &q in t.res(&sc.pool) {
                if q != part.id && remotes.iter().all(|&(p, _)| p != q) {
                    let key = (t.e.dim().as_usize(), part.gid_of(t.e));
                    sc.owed.push((q, key.0, key.1, t.e));
                }
            }
        }
        sc.owed.sort_unstable();
        // One frame per destination: the closures of the elements moving
        // there (a shared entity only from its owner), then what is owed,
        // grouped by dimension so receivers can create bottom-up.
        let (mut i, mut j, mut frame) = (0, 0, 0);
        while i < sc.by_dest.len() || j < sc.owed.len() {
            let to = match (sc.by_dest.get(i), sc.owed.get(j)) {
                (Some(m), Some(o)) => m.0.min(o.0),
                (Some(m), None) => m.0,
                (None, Some(o)) => o.0,
                (None, None) => unreachable!(),
            };
            frame += 1;
            sc.by_dim.iter_mut().for_each(Vec::clear);
            while let Some(&(_, el)) = sc.by_dest.get(i).filter(|m| m.0 == to) {
                sc.closure.clear();
                part.mesh.closure_into(el, &mut sc.closure);
                for k in 0..sc.closure.len() {
                    let sub = sc.closure[k];
                    if part.is_shared(sub) && !part.is_owned(sub) {
                        continue; // its owner packs it
                    }
                    if sc.joins_frame(sub, d_elem, frame) {
                        sc.by_dim[sub.dim().as_usize()].push(sub);
                    }
                }
                i += 1;
            }
            while let Some(&(_, d, _, e)) = sc.owed.get(j).filter(|o| o.0 == to) {
                if sc.joins_frame(e, d_elem, frame) {
                    sc.by_dim[d].push(e);
                }
                j += 1;
            }
            let w = ex.to(part.id, to);
            for &e in sc.by_dim.iter().take(elem_dim + 1).flatten() {
                entities_sent += 1;
                // The extra field is the new residence set (elements: the
                // destination only).
                let res = match e.dim() == d_elem {
                    true => &[to][..],
                    false => sc.touched[sc.at[e.dim().as_usize()][e.idx()] as usize].res(&sc.pool),
                };
                wire::put_entity(w, part, e, |w| w.put_u32_slice(res));
            }
        }
    }
    drop(pack);
    // Receive in two passes: decode *all* frames of a part into one block
    // first — a closure vertex may arrive only in another peer's frame under
    // owner delegation — then build it and record each row's residence. In
    // the block a dimension's rows keep (frame, position) order, so creation
    // order, and thus local indices, stay canonical under the chaos
    // scheduler.
    let mut frames: Vec<Vec<(PartId, MsgReader)>> =
        (0..dm.parts.len()).map(|_| Vec::new()).collect();
    for (from, to, r) in ex.finish() {
        frames[dm.map.slot_of(to)].push((from, r));
    }
    let mut at = Placed::default();
    for ((sc, part), mut fs) in scratch.iter_mut().zip(&mut dm.parts).zip(frames) {
        // Canonical application order regardless of arrival permutation.
        fs.sort_by_key(|&(from, _)| from);
        let pid = part.id;
        // A row's residence is decoded onto the pool, as a range.
        let decode = pumi_obs::span!("migrate.entities.decode");
        let mut rows: Rows<(u32, u32)> = Rows::default();
        for (from, mut r) in fs {
            let pool = &mut sc.pool;
            wire::decode_entity_frame(&mut r, &mut rows, |r| {
                let start = pool.len();
                wire::get_parts(r, nparts, pool)?;
                Ok((start as u32, (pool.len() - start) as u32))
            })
            .unwrap_or_else(|e| panic!("corrupt entity frame {from}->{pid}: {e}"));
        }
        drop(decode);
        part.build(&rows, &mut at, |_, _| true)
            .unwrap_or_else(|e| panic!("incoherent entity frames for part {pid}: {e}"));
        // Elements arrive to stay: only their closures need a residence.
        sc.cover(&part.mesh);
        for d in Dim::ALL.into_iter().take(elem_dim) {
            for (r, &res) in rows.dim(d).extra.iter().enumerate() {
                let (e, _) = at.get(d, r).expect("every row is built");
                let (t, _) = sc.touch(e);
                sc.touched[t].res = res;
            }
        }
    }
    drop(phase2);

    // ------------------------------------------------------------------
    // Phase 3: stitch remote copies, then delete leavers.
    // ------------------------------------------------------------------
    let phase3 = pumi_obs::span!("migrate.stitch");
    // Reset remotes for every touched entity that stays; the stitch fills
    // them back in from what the other residence parts announce.
    let reset = pumi_obs::span!("migrate.stitch.reset");
    let mut staying: Vec<Vec<(MeshEnt, &[PartId])>> = Vec::with_capacity(dm.parts.len());
    for (sc, part) in scratch.iter().zip(&mut dm.parts) {
        let mut ents = Vec::new();
        for t in &sc.touched {
            let res = t.res(&sc.pool);
            if res.contains(&part.id) {
                part.link_copies(t.e, &[]);
                if res.len() >= 2 {
                    ents.push((t.e, res));
                }
            }
        }
        // Sorted by (dim, gid): frame bytes follow the entities, not the
        // order the calls touched them.
        ents.sort_unstable_by_key(|&(e, _)| (e.dim().as_usize(), part.gid_of(e)));
        staying.push(ents);
    }
    drop(reset);
    if let Some((from, to, e)) = wire::stitch(comm, dm, &staying).first() {
        panic!("corrupt stitch frame {from}->{to}: {e}");
    }
    drop(staying);
    // Delete moved elements, then, top-down, entities whose residence
    // excludes us.
    let delete = pumi_obs::span!("migrate.stitch.delete");
    for (sc, part) in scratch.iter_mut().zip(&mut dm.parts) {
        for &(el, _) in &sc.moves {
            part.delete_entity(el);
        }
        let goers = &mut sc.closure;
        goers.clear();
        let leaving = sc
            .touched
            .iter()
            .filter(|t| !t.res(&sc.pool).contains(&part.id));
        goers.extend(leaving.map(|t| t.e));
        goers.sort_unstable_by_key(|&e| (std::cmp::Reverse(e.dim().as_usize()), e));
        for &e in goers.iter() {
            if part.mesh.is_live(e) {
                part.delete_entity(e);
            }
        }
    }
    drop(delete);
    drop(phase3);

    let sums = comm.allreduce_sum_u64_vec(&[elements_moved, entities_sent]);
    let stats = MigrationStats {
        elements_moved: sums[0],
        entities_sent: sums[1],
    };
    pumi_obs::metrics::hist_record("migrate.elements_moved", stats.elements_moved as f64);
    pumi_obs::metrics::hist_record("migrate.entities_sent", stats.entities_sent as f64);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{distribute, PartMap};
    use pumi_geom::GeomEnt;
    use pumi_mesh::Topology;
    use pumi_meshgen::tri_rect;
    use pumi_pcu::{execute, execute_opts, MachineModel, MsgWriter, SchedMode, WorldOpts};
    use pumi_util::tag::{TagData, TagKind};

    /// `tri_rect(4, 1)` cut at x = 2: parts 0 and 1, one per rank.
    fn two_part_strip(c: &Comm) -> DistMesh {
        let serial = tri_rect(4, 1, 4.0, 1.0);
        let d = serial.elem_dim_t();
        let mut elem_part = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            elem_part[e.idx()] = if serial.centroid(e)[0] < 2.0 { 0 } else { 1 };
        }
        distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part)
    }

    /// 1D strip of triangles on 2 parts; move one element across and check
    /// counts, residence, and ownership.
    #[test]
    fn move_one_element() {
        execute(2, |c| {
            let mut dm = two_part_strip(c);
            let serial_verts = tri_rect(4, 1, 4.0, 1.0).count(Dim::Vertex);

            let before: u64 = dm.global_sum(c, |p| p.mesh.num_elems() as u64);
            assert_eq!(before, 8);

            // Part 0 sends its rightmost element to part 1.
            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            if c.rank() == 0 {
                let part = dm.part(0);
                let elem = part
                    .mesh
                    .elems()
                    .max_by(|&a, &b| {
                        part.mesh.centroid(a)[0]
                            .partial_cmp(&part.mesh.centroid(b)[0])
                            .unwrap()
                    })
                    .unwrap();
                let mut plan = MigrationPlan::new();
                plan.send(elem, 1);
                plans.insert(0, plan);
            }
            let stats = migrate(c, &mut dm, &plans);
            assert_eq!(stats.elements_moved, 1);

            let after: u64 = dm.global_sum(c, |p| p.mesh.num_elems() as u64);
            assert_eq!(after, 8);
            let counts = dm.gather_loads(c, |p| p.mesh.num_elems() as f64);
            assert_eq!(counts, vec![3.0, 5.0]);

            for p in &dm.parts {
                p.mesh.assert_valid();
                for d in Dim::ALL {
                    assert!(p
                        .mesh
                        .iter(d)
                        .all(|e| p.find_gid(d, p.gid_of(e)) == Some(e)));
                }
            }
            // Owned vertices still total the serial count.
            let owned_v: u64 = dm.global_sum(c, |p| {
                p.mesh.iter(Dim::Vertex).filter(|&v| p.is_owned(v)).count() as u64
            });
            assert_eq!(owned_v, serial_verts as u64);
        });
    }

    /// Move everything to part 0; part 1 ends empty, part 0 holds the whole
    /// mesh with no shared entities.
    #[test]
    fn consolidate_to_one_part() {
        execute(2, |c| {
            let serial = tri_rect(3, 3, 1.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 0.5 { 0 } else { 1 };
            }
            let map = PartMap::contiguous(2, 2);
            let mut dm = distribute(c, map, &serial, &elem_part);

            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            if c.rank() == 1 {
                let part = dm.part(1);
                let mut plan = MigrationPlan::new();
                for e in part.mesh.elems() {
                    plan.send(e, 0);
                }
                plans.insert(1, plan);
            }
            migrate(c, &mut dm, &plans);

            if c.rank() == 0 {
                let p = dm.part(0);
                assert_eq!(p.mesh.num_elems(), serial.num_elems());
                assert_eq!(p.mesh.count(Dim::Vertex), serial.count(Dim::Vertex));
                assert!(Dim::ALL
                    .iter()
                    .all(|&d| p.mesh.iter(d).all(|e| !p.is_shared(e))));
                p.mesh.assert_valid();
            } else {
                let p = dm.part(1);
                assert_eq!(p.mesh.num_elems(), 0);
                assert_eq!(p.mesh.count(Dim::Vertex), 0);
            }
        });
    }

    /// Round-trip: move a block away and back; the partition returns to the
    /// original counts and residence structure.
    #[test]
    fn round_trip_restores_counts() {
        execute(2, |c| {
            let serial = tri_rect(4, 4, 1.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[1] < 0.5 { 0 } else { 1 };
            }
            let map = PartMap::contiguous(2, 2);
            let mut dm = distribute(c, map, &serial, &elem_part);
            let baseline = dm.gather_loads(c, |p| p.mesh.count(Dim::Vertex) as f64);

            // Pick the elements of part 0 touching the inter-part boundary.
            let moved_gids: Vec<u64> = {
                let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
                let mut gids = Vec::new();
                if c.rank() == 0 {
                    let part = dm.part(0);
                    let mut plan = MigrationPlan::new();
                    for e in part.mesh.elems() {
                        let touches = part
                            .mesh
                            .closure(e)
                            .iter()
                            .any(|&s| s.dim() != d && part.is_shared(s));
                        if touches {
                            plan.send(e, 1);
                            gids.push(part.gid_of(e));
                        }
                    }
                    plans.insert(0, plan);
                }
                migrate(c, &mut dm, &plans);
                gids
            };
            // Send them back.
            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            if c.rank() == 1 {
                // gids list lives on rank 0; reconstruct by birth: moved
                // elements are exactly those on part 1 whose gid is a serial
                // id owned... simpler: rank 0 broadcasts the list.
            }
            let n = c.bcast_bytes(0, {
                let mut w = MsgWriter::new();
                w.put_u64_slice(&moved_gids);
                w.finish()
            });
            let moved_gids = MsgReader::new(n).get_u64_slice();
            if c.rank() == 1 {
                let part = dm.part(1);
                let mut plan = MigrationPlan::new();
                for g in moved_gids {
                    if let Some(e) = part.find_gid(d, g) {
                        plan.send(e, 0);
                    }
                }
                plans.insert(1, plan);
            }
            migrate(c, &mut dm, &plans);

            let now = dm.gather_loads(c, |p| p.mesh.count(Dim::Vertex) as f64);
            assert_eq!(now, baseline);
            for p in &dm.parts {
                p.mesh.assert_valid();
            }
        });
    }

    /// Append one phase-2 vertex record to a frame under construction,
    /// through the shared encoder: a scratch part holds the vertex.
    fn vertex_rec(w: &mut MsgWriter, gid: u64, x: f64) {
        let mut src = Part::new(7, 2);
        let v = src.add_vertex([x, 0.0, 0.0], GeomEnt(0), gid);
        wire::put_entity(w, &src, v, |w| w.put_u32_slice(&[0])); // residence: the receiving part
    }

    /// Append one phase-2 edge record referencing vertices by gid.
    fn edge_rec(w: &mut MsgWriter, gid: u64, vgids: &[u64]) {
        let mut src = Part::new(7, 2);
        let verts: Vec<u32> = vgids
            .iter()
            .map(|&g| src.add_vertex([0.0; 3], GeomEnt(0), g).index())
            .collect();
        let e = src.add_entity(Topology::Edge, &verts, GeomEnt(0), gid);
        wire::put_entity(w, &src, e, |w| w.put_u32_slice(&[0]));
    }

    /// Append a hand-written phase-2 record no part could have packed: any
    /// vertex list, and a tag `w` given as `(kind code, len, value)`.
    fn raw_rec(
        w: &mut MsgWriter,
        topo: Topology,
        gid: u64,
        vgids: &[u64],
        tag: Option<(u8, u32, TagData)>,
    ) {
        w.put_u8(topo.dim().as_usize() as u8);
        w.put_u8(topo.to_u8());
        w.put_u64(gid);
        w.put_u32(0);
        w.put_u32_slice(&[0]);
        match topo {
            Topology::Vertex => (0..3).for_each(|_| w.put_f64(0.0)),
            _ => w.put_u64_slice(vgids),
        }
        w.put_u32(tag.is_some() as u32);
        if let Some((kind, len, value)) = tag {
            w.put_bytes(b"w");
            w.put_u8(kind);
            w.put_u32(len);
            let mut buf = Vec::new();
            value.encode(&mut buf);
            w.put_bytes(&buf);
        }
    }

    /// Decode `frames` into one block, in order, and build it on `part`, as
    /// phase 2 does.
    fn unpack(part: &mut Part, frames: Vec<MsgWriter>) -> Result<(), MsgError> {
        let mut rows = Rows::default();
        for w in frames {
            let r = &mut MsgReader::new(w.finish());
            wire::decode_entity_frame(r, &mut rows, MsgReader::try_get_u32_slice)?;
        }
        part.build(&rows, &mut Placed::default(), |_, _| true)
            .map_err(|e| e.err)
    }

    /// A part holding vertices 1 and 2 and edge 100 over them.
    fn holding_an_edge() -> Part {
        let mut part = Part::new(0, 2);
        let a = part.add_vertex([0.0; 3], GeomEnt(0), 1).index();
        let b = part.add_vertex([1.0, 0.0, 0.0], GeomEnt(0), 2).index();
        part.add_entity(Topology::Edge, &[a, b], GeomEnt(0), 100);
        part
    }

    /// Under owner delegation a frame is not self-contained: the edge from
    /// part 5 references vertex gid 2, which travels only in the frame from
    /// the *higher-ranked* part 9. The old one-pass unpack processed the
    /// part-5 frame first and panicked ("closure vertex not yet created");
    /// the two-pass unpack must create all vertices before any edge.
    #[test]
    fn cross_frame_closure_vertex_resolves() {
        let mut low = MsgWriter::new();
        vertex_rec(&mut low, 1, 0.0);
        edge_rec(&mut low, 100, &[1, 2]);
        let mut high = MsgWriter::new();
        vertex_rec(&mut high, 2, 1.0);

        let mut part = Part::new(0, 2);
        unpack(&mut part, vec![low, high]).expect("two-pass unpack"); // part 5's frame first
        let e = part.find_gid(Dim::Edge, 100).expect("edge created");
        let mut got: Vec<u64> = part
            .mesh
            .verts_of(e)
            .iter()
            .map(|&v| part.gid_of(MeshEnt::vertex(v)))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    /// A closure vertex genuinely absent from every frame is a typed
    /// [`MsgError::Missing`] naming the gid, not a panic.
    #[test]
    fn missing_closure_vertex_is_typed_error() {
        let mut w = MsgWriter::new();
        edge_rec(&mut w, 100, &[7, 77]);
        let err = unpack(&mut Part::new(0, 2), vec![w]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("closure vertex") && msg.contains("gid 7)"),
            "{msg}"
        );
    }

    /// An edge record naming three vertices: `Mesh::add_entity` asserted on
    /// the count.
    #[test]
    fn edge_record_with_three_vertices_is_typed_error() {
        let mut w = MsgWriter::new();
        (1..=3).for_each(|g| vertex_rec(&mut w, g, g as f64));
        raw_rec(&mut w, Topology::Edge, 100, &[1, 2, 3], None);
        let err = unpack(&mut Part::new(0, 2), vec![w]).unwrap_err();
        assert!(err.to_string().contains("vertex count differs"), "{err}");
    }

    /// An edge record over `[1, 1]` would build a degenerate edge.
    #[test]
    fn edge_record_repeating_a_vertex_is_typed_error() {
        let mut w = MsgWriter::new();
        vertex_rec(&mut w, 1, 0.0);
        raw_rec(&mut w, Topology::Edge, 100, &[1, 1], None);
        let mut part = Part::new(0, 2);
        let err = unpack(&mut part, vec![w]).unwrap_err();
        assert!(err.to_string().contains("repeated vertex"), "{err}");
        assert_eq!(part.mesh.count(Dim::Edge), 0);
    }

    /// An edge record over the vertices of an existing edge under another
    /// gid: debug builds panicked on the gid mismatch, release builds kept
    /// the old edge and never recorded gid 200.
    #[test]
    fn edge_record_over_an_existing_edge_is_typed_error() {
        let mut w = MsgWriter::new();
        edge_rec(&mut w, 200, &[1, 2]);
        let mut part = holding_an_edge();
        let err = unpack(&mut part, vec![w]).unwrap_err();
        assert_eq!(err, MsgError::conflict(crate::rows::TWIN, 1, 100));
        assert_eq!(part.find_gid(Dim::Edge, 200), None);
    }

    /// A tet record over the vertices of an existing tet, permuted and
    /// under another gid, is found as that tet and refused; no second
    /// region is built.
    #[test]
    fn tet_record_over_an_existing_tet_is_typed_error() {
        let mut part = Part::new(0, 3);
        let corners = [[0.0; 3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        let vs: Vec<u32> = (1..)
            .zip(corners)
            .map(|(g, x)| part.add_vertex(x, GeomEnt(0), g).index())
            .collect();
        part.add_entity(Topology::Tet, &vs, GeomEnt(0), 100);
        let mut w = MsgWriter::new();
        raw_rec(&mut w, Topology::Tet, 200, &[3, 1, 4, 2], None);
        let err = unpack(&mut part, vec![w]).unwrap_err();
        assert_eq!(err, MsgError::conflict(crate::rows::TWIN, 3, 100));
        assert_eq!(part.mesh.count(Dim::Region), 1);
        assert_eq!(part.find_gid(Dim::Region, 200), None);
    }

    /// A tag the part declares `Double × 1` arriving as `Int × 1`: the tag
    /// manager panicked on the re-declaration.
    #[test]
    fn tag_declared_otherwise_on_the_part_is_typed_error() {
        let mut w = MsgWriter::new();
        raw_rec(
            &mut w,
            Topology::Vertex,
            1,
            &[],
            Some((0, 1, TagData::Ints(vec![7]))),
        );
        let mut part = Part::new(0, 2);
        part.mesh.tags_mut().declare("w", TagKind::Double, 1);
        let err = unpack(&mut part, vec![w]).unwrap_err();
        assert!(err.to_string().contains("differs from the part's"), "{err}");
    }

    /// A `Double × 1` tag carrying `Ints([7, 8])`: debug builds failed the
    /// tag manager's kind assertion, release builds wrote integer bits into
    /// the double column.
    #[test]
    fn tag_value_unlike_its_declaration_is_typed_error() {
        let mut w = MsgWriter::new();
        raw_rec(
            &mut w,
            Topology::Vertex,
            1,
            &[],
            Some((1, 1, TagData::Ints(vec![7, 8]))),
        );
        let mut rows = Rows::default();
        let r = &mut MsgReader::new(w.finish());
        let err =
            wire::decode_entity_frame(r, &mut rows, MsgReader::try_get_u32_slice).unwrap_err();
        assert!(
            err.to_string().contains("differs from its declaration"),
            "{err}"
        );
    }

    /// Flipped dimension/topology bytes decode to [`MsgError::BadEnum`].
    #[test]
    fn corrupt_enum_bytes_are_typed_errors() {
        let decode = |w: MsgWriter| {
            let mut rows: Rows<Vec<PartId>> = Rows::default();
            let r = &mut MsgReader::new(w.finish());
            wire::decode_entity_frame(r, &mut rows, MsgReader::try_get_u32_slice).unwrap_err()
        };
        let mut w = MsgWriter::new();
        w.put_u8(9); // no such dimension
        let err = decode(w);
        assert!(err.to_string().contains("dimension code 0x09"), "{err}");

        let mut w = MsgWriter::new();
        w.put_u8(1);
        w.put_u8(0xFE); // no such topology
        let err = decode(w);
        assert!(err.to_string().contains("topology code 0xfe"), "{err}");
    }

    /// The plan `{pid: {elem -> to}}` on the rank hosting `on`, none elsewhere.
    fn one_move(
        c: &Comm,
        on: usize,
        pid: PartId,
        elem: MeshEnt,
        to: PartId,
    ) -> FxHashMap<PartId, MigrationPlan> {
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        if c.rank() == on {
            plans.entry(pid).or_default().send(elem, to);
        }
        plans
    }

    /// Part 1 believes part 0 holds a copy of one of its interior vertices
    /// (an asymmetric remote-copy list, the precondition broken) and moves
    /// the element above it. Part 0 must refuse the residence row: skipped,
    /// it would read as "part 0's copy stays".
    #[test]
    #[should_panic(
        expected = "corrupt residence frame 1->0: residence target not held by this part (dim 0, gid"
    )]
    fn residence_row_for_a_stranger_names_its_frame() {
        execute(2, |c| {
            let mut dm = two_part_strip(c);
            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            if c.rank() == 1 {
                let part = dm.part_mut(1);
                let (elem, v) = part
                    .mesh
                    .elems()
                    .find_map(|e| {
                        let subs = part.mesh.closure(e);
                        let v = subs
                            .iter()
                            .find(|s| s.dim() == Dim::Vertex && !part.is_shared(**s));
                        v.map(|&v| (e, v))
                    })
                    .expect("an element with an interior vertex");
                part.set_remotes(v, vec![(0, 0)]);
                plans.entry(1).or_default().send(elem, 0);
            }
            migrate(c, &mut dm, &plans);
        });
    }

    #[test]
    #[should_panic(expected = "migration plan of part 1: part 1 is not hosted on rank 0")]
    fn plan_for_a_part_hosted_elsewhere_is_refused() {
        execute(2, |c| {
            let mut dm = two_part_strip(c);
            let elem = dm.parts[0].mesh.elems().next().unwrap();
            migrate(c, &mut dm, &one_move(c, 0, 1, elem, 0));
        });
    }

    #[test]
    #[should_panic(expected = "destination 2 outside 0..2")]
    fn plan_destination_outside_the_world_is_refused() {
        execute(2, |c| {
            let mut dm = two_part_strip(c);
            let elem = dm.parts[0].mesh.elems().next().unwrap();
            migrate(c, &mut dm, &one_move(c, 0, 0, elem, 2));
        });
    }

    /// A vertex handle where an element is expected; a deleted element or an
    /// index past the end reads the same.
    #[test]
    #[should_panic(expected = "migration plan of part 0: M0_0 is not a live element")]
    fn plan_handle_that_is_not_a_live_element_is_refused() {
        execute(2, |c| {
            let mut dm = two_part_strip(c);
            let v = dm.parts[0].mesh.iter(Dim::Vertex).next().unwrap();
            migrate(c, &mut dm, &one_move(c, 0, 0, v, 1));
        });
    }

    /// The same migration under two chaos seeds (and the default schedule)
    /// yields bitwise-identical partitions: gids, remote-copy lists, and
    /// local indices all match.
    #[test]
    fn migrate_identical_across_chaos_seeds() {
        type Fingerprint = Vec<(u8, u64, Vec<(PartId, u32)>)>;
        let run = |seed: Option<u64>| -> Vec<Fingerprint> {
            let body = |c: &Comm| -> Fingerprint {
                let serial = tri_rect(4, 4, 1.0, 1.0);
                let d = serial.elem_dim_t();
                let mut elem_part = vec![0 as PartId; serial.index_space(d)];
                for e in serial.iter(d) {
                    elem_part[e.idx()] = if serial.centroid(e)[1] < 0.5 { 0 } else { 1 };
                }
                let map = PartMap::contiguous(2, 2);
                let mut dm = distribute(c, map, &serial, &elem_part);
                let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
                if c.rank() == 0 {
                    let part = dm.part(0);
                    let mut plan = MigrationPlan::new();
                    for e in part.mesh.elems() {
                        let touches = part
                            .mesh
                            .closure(e)
                            .iter()
                            .any(|&s| s.dim() != d && part.is_shared(s));
                        if touches {
                            plan.send(e, 1);
                        }
                    }
                    plans.insert(0, plan);
                }
                migrate(c, &mut dm, &plans);
                let mut fp = Fingerprint::new();
                for part in &dm.parts {
                    for dd in Dim::ALL {
                        let mut rows: Fingerprint = part
                            .mesh
                            .iter(dd)
                            .map(|e| {
                                (
                                    dd.as_usize() as u8,
                                    part.gid_of(e),
                                    part.remotes_of(e).to_vec(),
                                )
                            })
                            .collect();
                        rows.sort();
                        fp.extend(rows);
                    }
                }
                fp
            };
            match seed {
                None => execute(2, body),
                Some(s) => execute_opts(
                    MachineModel::flat(2),
                    WorldOpts::default().sched(SchedMode::Chaos(s)),
                    body,
                ),
            }
        };
        let base = run(None);
        assert_eq!(base, run(Some(1)));
        assert_eq!(base, run(Some(7)));
    }

    /// Tags travel with migrated entities.
    #[test]
    fn tags_migrate() {
        execute(2, |c| {
            let serial = tri_rect(2, 1, 2.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = if serial.centroid(e)[0] < 1.0 { 0 } else { 1 };
            }
            let map = PartMap::contiguous(2, 2);
            let mut dm = distribute(c, map, &serial, &elem_part);

            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            let mut moved_gid = 0u64;
            if c.rank() == 0 {
                let part = dm.part_mut(0);
                let tid = part.mesh.tags_mut().declare("w", TagKind::Double, 1);
                let elem = part.mesh.elems().next().unwrap();
                part.mesh.tags_mut().set_dbl(tid, elem, 2.5);
                moved_gid = part.gid_of(elem);
                let mut plan = MigrationPlan::new();
                plan.send(elem, 1);
                plans.insert(0, plan);
            }
            let b = c.bcast_bytes(0, {
                let mut w = MsgWriter::new();
                w.put_u64(moved_gid);
                w.finish()
            });
            let moved_gid = MsgReader::new(b).get_u64();
            migrate(c, &mut dm, &plans);
            if c.rank() == 1 {
                let part = dm.part(1);
                let e = part.find_gid(d, moved_gid).expect("moved element missing");
                let tid = part.mesh.tags().find("w").expect("tag not declared");
                assert_eq!(part.mesh.tags().get_dbl(tid, e), Some(2.5));
            }
        });
    }
}
