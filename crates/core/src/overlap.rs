//! Overlap distribution: the star-forest of entity shares (§II-C, and
//! Knepley/Lange/Gorman's "overlap" generalization).
//!
//! A distributed mesh duplicates entities: part-boundary copies (remotes)
//! and read-only ghost copies. Both are the same thing seen through one
//! abstraction — a **star forest** of point shares. Each shared entity has
//! one *root* (the copy on its owning part) and any number of *leaves*
//! (every other copy, boundary or ghost). [`Overlap`] materializes that
//! forest so that data movement becomes two composable primitives:
//!
//! * [`Overlap::bcast`] — root → leaves (owner pushes authoritative data),
//! * [`Overlap::reduce`] — leaves → root, combined with a [`Reduction`].
//!
//! Overlap *growth* ([`Overlap::grow`]) copies layers of elements adjacent
//! (through a bridge dimension) to each part boundary onto the neighbouring
//! parts, closure-complete and iterable to arbitrary depth — the paper's
//! one-layer ghosting is exactly the `depth = 1` special case. Each ghost is
//! rooted when it is shipped: the sender writes the entity's root copy into
//! the record, and the holder acknowledges straight to that root.
//!
//! Ghost copies keep the read-only contract: data flows root → ghost leaf
//! only, unless a caller explicitly reduces with [`Scope::All`] over values
//! it put on leaves itself (the FE-assembly pattern).

use crate::dist::{DistMesh, PartExchange, PartMap};
use crate::part::Part;
use crate::rows::{unpack_tags, Placed, Rows};
use crate::wire::{self, get_dim, pack_tags};
use pumi_pcu::{Comm, MsgError, MsgReader, MsgWriter};
use pumi_util::{fxhash::FxHasher, Dim, FxHashMap, FxHashSet, MeshEnt, PartId};
use std::hash::Hasher;

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

/// How [`Overlap::reduce`]-style synchronization combines multiple copies
/// of the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// Root overwrites leaves (owner → copy push, no combination).
    Insert,
    /// Sum all copies — the FE assembly reduction.
    Add,
    /// Keep the componentwise minimum over all copies.
    Min,
    /// Keep the componentwise maximum over all copies.
    Max,
}

/// Which share links an [`Overlap::bcast`] / [`Overlap::reduce`] traverses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every leaf: part-boundary copies and ghost copies.
    All,
    /// Ghost leaves only (e.g. tag pushes under the read-only contract).
    Ghosts,
}

/// What [`Overlap::bcast`] / [`Overlap::reduce`] hand their `pack` and
/// `apply`: the entities of one dimension that a local slot exchanges with
/// one peer, as local indices in the order both ends compiled, and which
/// of them carry a value.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// The local slot.
    pub slot: usize,
    /// The entities' dimension.
    pub dim: Dim,
    index: &'a [u32],
    /// `None` if every entity carries a value; else bit `at + k` of the
    /// frame's presence bitmap says whether the `k`-th does.
    present: Option<(&'a [u8], usize)>,
}

impl<'a> Run<'a> {
    /// The local indices of the entities that carry a value, in wire order.
    pub fn valued(&self) -> impl Iterator<Item = u32> + 'a {
        let (all, (bits, at)) = (self.present.is_none(), self.present.unwrap_or_default());
        let has = move |k: usize| all || bits[(at + k) / 8] >> ((at + k) % 8) & 1 == 1;
        let index = self.index.iter().enumerate();
        index.filter(move |&(k, _)| has(k)).map(|(_, &i)| i)
    }

    /// How many entities of the run carry a value.
    pub fn count(&self) -> usize {
        match self.present {
            None => self.index.len(),
            Some(_) => self.valued().count(),
        }
    }
}

/// One peer's list in a bcast/reduce: its runs, one per dimension, in
/// ascending dimension order.
struct List<'a> {
    runs: [(Dim, &'a [u32]); 4],
    len: usize,
}

impl<'a> List<'a> {
    fn new() -> Self {
        List {
            runs: [(Dim::Vertex, &[]); 4],
            len: 0,
        }
    }

    fn push(&mut self, dim: Dim, index: &'a [u32]) {
        self.runs[self.len] = (dim, index);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = (Dim, &'a [u32])> + '_ {
        self.runs[..self.len].iter().copied()
    }

    /// The number of entities on the list.
    fn entities(&self) -> usize {
        self.iter().map(|(_, index)| index.len()).sum()
    }
}

// ---------------------------------------------------------------------
// The star forest
// ---------------------------------------------------------------------

/// One end of a share link: the copy of an entity living on `part` at
/// local index `index`. In a root's leaf list this names a leaf copy; in a
/// leaf's record it names the root copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Share {
    /// Part holding the copy.
    pub part: PartId,
    /// Entity index local to `part` (same dimension as the entity).
    pub index: u32,
    /// Whether the *leaf* side of this link is a ghost copy (false for
    /// part-boundary remotes).
    pub ghost: bool,
    /// Position of `part` in the slot's ascending peer list, so a walk over
    /// links indexes a per-peer table instead of hashing part ids.
    peer: u16,
}

/// What [`Overlap::assert_describes`] compares: cheap per-part totals that
/// every migration, adaptation or ghost deletion moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Stamp {
    index_space: [usize; 4],
    live: [usize; 4],
    ghosts: usize,
}

impl Stamp {
    fn of(part: &Part) -> Stamp {
        Stamp {
            index_space: Dim::ALL.map(|d| part.mesh.index_space(d)),
            live: Dim::ALL.map(|d| part.mesh.count(d)),
            ghosts: part.num_ghosts(),
        }
    }
}

/// One slot's share map, compiled: flat arrays sorted by entity handle,
/// i.e. by `(dim, index)`, and per side the runs a bcast/reduce moves.
#[derive(Debug, Clone, Default, PartialEq)]
struct SlotShares {
    /// Every part a link of this slot names, ascending.
    peers: Vec<PartId>,
    /// Root entities, ascending.
    root_ents: Vec<MeshEnt>,
    /// CSR: the leaves of `root_ents[i]` are
    /// `root_links[root_offsets[i]..root_offsets[i + 1]]`, ascending.
    root_offsets: Vec<u32>,
    root_links: Vec<Share>,
    /// Leaf entities, ascending.
    leaf_ents: Vec<MeshEnt>,
    /// The root copy of `leaf_ents[i]`.
    leaf_roots: Vec<Share>,
    /// Per [`Side`]: the local index of every link's entity at that end,
    /// bucketed by `(dim, peer)`, each bucket in walk order (its peer's
    /// `(dim, root index)` ascending). Bucket `d * peers.len() + p` is
    /// `runs[side][run_starts[side][b]..run_starts[side][b + 1]]`.
    runs: [Vec<u32>; 2],
    run_starts: [Vec<u32>; 2],
    /// Per [`Side`], per peer: the digest of the peer's link list in walk
    /// order, which heads every frame between the two.
    digests: [Vec<u64>; 2],
    stamp: Stamp,
}

/// The end of its links a slot walks: a bcast sends from the roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Roots,
    Leaves,
}

/// The word a link adds to its peer's digest: the root's handle and
/// whether the leaf is a ghost.
fn digest_word(root: MeshEnt, ghost: bool) -> u64 {
    1 << 63 | u64::from(root.0) << 1 | ghost as u64
}

impl SlotShares {
    /// Compile `part`'s remote-copy lists and ghost records in one walk of
    /// its link slots, which is handle order: per entity, its root links
    /// are its remote copies (if it owns itself) merged with its ghost
    /// holders, and its leaf link is the owner's copy or its ghost source.
    /// Peers are marked in a table by part id. The root links, in root
    /// order, are already in walk order per peer, so a counting sort on
    /// `(dim, peer)` makes their runs; the leaves get the same counting
    /// sort and then one packed key each.
    fn compile(part: &Part) -> SlotShares {
        let mut sh = SlotShares {
            stamp: Stamp::of(part),
            ..SlotShares::default()
        };
        let link = |(part, index): (PartId, u32), ghost| Share {
            part,
            index,
            ghost,
            peer: 0,
        };
        // Per part id: 1 once a link names it, then its peer position + 1.
        let mut peer_at: Vec<u32> = Vec::new();
        let mut mark = |p: PartId| {
            if peer_at.len() <= p as usize {
                peer_at.resize(p as usize + 1, 0);
            }
            peer_at[p as usize] = 1;
        };
        for l in part.links() {
            // The minimum residence part owns a boundary copy; a ghost's
            // source (always the owner: growth ships each ghost with its
            // root) owns the ghost.
            let owner = match (l.source, l.copies.first()) {
                (Some((p, _)), _) => p,
                (None, Some(&(p, _))) => p.min(part.id),
                (None, None) => part.id,
            };
            let copies = if owner == part.id { l.copies } else { &[] };
            let holders = match part.mesh.is_live(l.ent) {
                true => l.holders,
                false => &[],
            };
            if !copies.is_empty() || !holders.is_empty() {
                sh.root_ents.push(l.ent);
                sh.root_offsets.push(sh.root_links.len() as u32);
                let (mut i, mut j) = (0, 0);
                while i < copies.len() || j < holders.len() {
                    let copy = j == holders.len() || (i < copies.len() && copies[i] <= holders[j]);
                    let s = if copy {
                        i += 1;
                        link(copies[i - 1], false)
                    } else {
                        j += 1;
                        link(holders[j - 1], true)
                    };
                    mark(s.part);
                    sh.root_links.push(s);
                }
            }
            let leaves = [
                (owner != part.id)
                    .then(|| l.copies.iter().find(|&&(p, _)| p == owner))
                    .flatten()
                    .map(|&r| link(r, false)),
                l.source.map(|src| link(src, true)),
            ];
            debug_assert!(
                leaves.iter().flatten().count() < 2,
                "an entity is a leaf twice on part {}",
                part.id
            );
            for s in leaves.into_iter().flatten() {
                mark(s.part);
                sh.leaf_ents.push(l.ent);
                sh.leaf_roots.push(s);
            }
        }
        sh.root_offsets.push(sh.root_links.len() as u32);

        for (p, at) in peer_at.iter_mut().enumerate() {
            if *at != 0 {
                sh.peers.push(p as PartId);
                *at = sh.peers.len() as u32;
            }
        }
        assert!(
            sh.peers.len() <= usize::from(u16::MAX),
            "too many neighbours"
        );
        for s in sh.root_links.iter_mut().chain(&mut sh.leaf_roots) {
            s.peer = (peer_at[s.part as usize] - 1) as u16;
        }
        let np = sh.peers.len();
        let bucket = |e: MeshEnt, s: &Share| e.dim().as_usize() * np + usize::from(s.peer);

        // Roots: bucket the links in root order; hash them on the way.
        let mut h = vec![FxHasher::default(); np];
        let mut root_starts = vec![0u32; 4 * np + 1];
        for (k, &e) in sh.root_ents.iter().enumerate() {
            sh.links_of(k)
                .iter()
                .for_each(|s| root_starts[bucket(e, s) + 1] += 1);
        }
        prefix_sum(&mut root_starts);
        let mut at = root_starts.clone();
        let mut runs = vec![0u32; sh.root_links.len()];
        for (k, &e) in sh.root_ents.iter().enumerate() {
            for s in sh.links_of(k) {
                let b = bucket(e, s);
                runs[at[b] as usize] = e.index();
                at[b] += 1;
                h[usize::from(s.peer)].write_u64(digest_word(e, s.ghost));
            }
        }
        sh.runs[Side::Roots as usize] = runs;
        sh.run_starts[Side::Roots as usize] = root_starts;
        sh.digests[Side::Roots as usize] = h.iter().map(FxHasher::finish).collect();

        // Leaves: count them into the same buckets, then order each bucket
        // by one packed `u64`, (root index, leaf), so no compare reads the
        // leaf arrays.
        let mut leaf_starts = vec![0u32; 4 * np + 1];
        for (e, s) in sh.leaf_ents.iter().zip(&sh.leaf_roots) {
            leaf_starts[bucket(*e, s) + 1] += 1;
        }
        prefix_sum(&mut leaf_starts);
        let mut at = leaf_starts.clone();
        let mut keyed = vec![0u64; sh.leaf_ents.len()];
        for (i, (e, root)) in sh.leaf_ents.iter().zip(&sh.leaf_roots).enumerate() {
            let b = bucket(*e, root);
            keyed[at[b] as usize] = u64::from(root.index) << 32 | i as u64;
            at[b] += 1;
        }
        let mut h = vec![FxHasher::default(); np];
        let mut runs = Vec::with_capacity(keyed.len());
        for (b, w) in leaf_starts.windows(2).enumerate() {
            let run = &mut keyed[w[0] as usize..w[1] as usize];
            run.sort_unstable();
            let (dim, peer) = (Dim::from_usize(b / np), b % np);
            for &k in run.iter() {
                let i = k as u32 as usize;
                let (e, root) = (sh.leaf_ents[i], sh.leaf_roots[i]);
                runs.push(e.index());
                h[peer].write_u64(digest_word(MeshEnt::new(dim, root.index), root.ghost));
            }
        }
        sh.runs[Side::Leaves as usize] = runs;
        sh.run_starts[Side::Leaves as usize] = leaf_starts;
        sh.digests[Side::Leaves as usize] = h.iter().map(FxHasher::finish).collect();
        sh
    }

    /// The leaf list of the `i`-th root.
    fn links_of(&self, i: usize) -> &[Share] {
        &self.root_links[self.root_offsets[i] as usize..self.root_offsets[i + 1] as usize]
    }

    /// The local indices of `side`'s links of dimension `dim` to the
    /// `peer`-th peer, in walk order.
    fn run(&self, side: Side, dim: Dim, peer: usize) -> &[u32] {
        let b = dim.as_usize() * self.peers.len() + peer;
        let starts = &self.run_starts[side as usize];
        &self.runs[side as usize][starts[b] as usize..starts[b + 1] as usize]
    }

    /// Whether the link of `side`'s entity `e` to the `peer`-th peer has a
    /// ghost leaf.
    fn ghost_link(&self, side: Side, e: MeshEnt, peer: usize) -> bool {
        match side {
            Side::Roots => self.root_ents.binary_search(&e).is_ok_and(|i| {
                let mut links = self.links_of(i).iter();
                links.any(|s| usize::from(s.peer) == peer && s.ghost)
            }),
            Side::Leaves => {
                (self.leaf_ents.binary_search(&e)).is_ok_and(|i| self.leaf_roots[i].ghost)
            }
        }
    }

    /// The runs of `side`'s list for the `peer`-th peer in `dims`
    /// (ascending) and in `scope`. [`Scope::All`] lends the compiled runs;
    /// [`Scope::Ghosts`] filters them into `buf`.
    fn list<'a>(
        &'a self,
        side: Side,
        peer: usize,
        dims: &[Dim],
        scope: Scope,
        buf: &'a mut Vec<u32>,
    ) -> List<'a> {
        let mut list = List::new();
        if scope == Scope::Ghosts {
            buf.clear();
            let mut ends = [0; 4];
            for (k, &dim) in dims.iter().enumerate() {
                let run = self.run(side, dim, peer).iter();
                buf.extend(run.filter(|&&i| self.ghost_link(side, MeshEnt::new(dim, i), peer)));
                ends[k] = buf.len();
            }
            let mut from = 0;
            for (k, &dim) in dims.iter().enumerate() {
                list.push(dim, &buf[from..ends[k]]);
                from = ends[k];
            }
        } else {
            dims.iter()
                .for_each(|&dim| list.push(dim, self.run(side, dim, peer)));
        }
        list
    }
}

/// The star-forest share map of a [`DistMesh`]: for every local part slot,
/// which entities are roots (with their leaf lists) and which are leaves
/// (with their root reference), compiled once into sorted flat arrays that
/// every [`Overlap::bcast`] / [`Overlap::reduce`] walks without building
/// anything.
///
/// Built locally from part bookkeeping by [`Overlap::from_dist`] — remotes
/// and ghost records already encode the forest; no communication needed.
/// [`Overlap::grow`] deepens the ghost region and recompiles.
#[derive(Debug, Clone)]
pub struct Overlap {
    bridge: Dim,
    depth: usize,
    /// Local part ids, aligned with `DistMesh::parts`.
    part_ids: Vec<PartId>,
    /// Per slot: the compiled share map.
    shares: Vec<SlotShares>,
    /// Per slot: elements already shipped to each neighbour part, so
    /// repeated [`Overlap::grow`] calls never re-send (grow(1) twice ≡
    /// grow(2)).
    sent: Vec<FxHashMap<PartId, FxHashSet<MeshEnt>>>,
    /// Per slot: the elements shipped to each neighbour in the most recent
    /// layer — the seeds the next layer grows outward from.
    frontier: Vec<Layer>,
}

impl Overlap {
    /// Build the share map of `dm` from its part bookkeeping (remote-copy
    /// lists and ghost records). Purely local. The bridge dimension
    /// defaults to `Dim::Vertex`; override with [`Overlap::with_bridge`]
    /// before growing.
    pub fn from_dist(dm: &DistMesh) -> Overlap {
        let nlocal = dm.parts.len();
        Overlap {
            bridge: Dim::Vertex,
            depth: 0,
            part_ids: dm.parts.iter().map(|p| p.id).collect(),
            shares: {
                let _span = pumi_obs::span!("overlap.shares");
                dm.parts.iter().map(SlotShares::compile).collect()
            },
            sent: vec![FxHashMap::default(); nlocal],
            frontier: vec![FxHashMap::default(); nlocal],
        }
    }

    /// Set the bridge dimension used by subsequent [`Overlap::grow`] calls.
    pub fn with_bridge(mut self, bridge: Dim) -> Self {
        self.bridge = bridge;
        self
    }

    /// The bridge dimension growth uses.
    pub fn bridge(&self) -> Dim {
        self.bridge
    }

    /// Number of layers grown through this handle (0 for a freshly built
    /// share map, even if `dm` already carried ghosts from elsewhere).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of local part slots (aligned with `DistMesh::parts`).
    pub fn num_slots(&self) -> usize {
        self.part_ids.len()
    }

    /// The part id of local slot `slot`.
    pub fn part_id(&self, slot: usize) -> PartId {
        self.part_ids[slot]
    }

    /// The leaf copies of root `e` on slot `slot` (empty if not a root).
    pub fn root_shares(&self, slot: usize, e: MeshEnt) -> &[Share] {
        let sh = &self.shares[slot];
        match sh.root_ents.binary_search(&e) {
            Ok(i) => sh.links_of(i),
            Err(_) => &[],
        }
    }

    /// The root copy of leaf `e` on slot `slot`, if `e` is a leaf there.
    pub fn leaf_root(&self, slot: usize, e: MeshEnt) -> Option<Share> {
        let sh = &self.shares[slot];
        let i = sh.leaf_ents.binary_search(&e).ok()?;
        Some(sh.leaf_roots[i])
    }

    /// All roots of slot `slot` with their leaf lists, ascending by handle.
    pub fn roots_sorted(&self, slot: usize) -> impl Iterator<Item = (MeshEnt, &[Share])> + '_ {
        let sh = &self.shares[slot];
        sh.root_ents
            .iter()
            .enumerate()
            .map(move |(i, &e)| (e, sh.links_of(i)))
    }

    /// All leaves of slot `slot` with their root references, ascending by
    /// handle.
    pub fn leaves_sorted(&self, slot: usize) -> impl Iterator<Item = (MeshEnt, Share)> + '_ {
        let sh = &self.shares[slot];
        sh.leaf_ents
            .iter()
            .copied()
            .zip(sh.leaf_roots.iter().copied())
    }

    /// Recompile the share map from `dm`'s part bookkeeping. Called after
    /// every [`Overlap::grow`] and [`Overlap::clear`]; call it yourself if
    /// you mutate share records through the raw [`Part`] API.
    pub fn rebuild_shares(&mut self, dm: &DistMesh) {
        assert_eq!(
            self.num_slots(),
            dm.parts.len(),
            "overlap/mesh slot mismatch"
        );
        let _span = pumi_obs::span!("overlap.shares");
        for (sh, part) in self.shares.iter_mut().zip(&dm.parts) {
            *sh = SlotShares::compile(part);
        }
    }

    /// Panic unless this share map was compiled from `dm` as it is now:
    /// same slots, and on every slot the same per-dimension index space,
    /// live entity counts and ghost count as at the last
    /// [`Overlap::rebuild_shares`]. A handle kept across a `migrate`,
    /// `adapt_dist` or `clear_overlap` names dead or reused indices; moving
    /// data over it would write onto whatever lives there now.
    ///
    /// # Panics
    /// Names the first slot that changed.
    pub fn assert_describes(&self, dm: &DistMesh) {
        assert_eq!(
            self.num_slots(),
            dm.parts.len(),
            "overlap/mesh slot mismatch"
        );
        for (slot, part) in dm.parts.iter().enumerate() {
            let (then, now) = (self.shares[slot].stamp, Stamp::of(part));
            assert!(
                self.part_ids[slot] == part.id && then == now,
                "stale overlap: slot {slot} (part {}) changed since its share map was compiled \
                 ({then:?} -> {now:?} on part {}); rebuild_shares or build a new Overlap",
                self.part_ids[slot],
                part.id
            );
        }
    }

    // -----------------------------------------------------------------
    // Growth
    // -----------------------------------------------------------------

    /// Grow the ghost region by `layers` element layers bridged through
    /// [`Overlap::bridge`], then refresh the share maps. Iterable:
    /// `grow(1)` twice reaches exactly the entities `grow(2)` does.
    /// Collective. Returns the world-total number of ghost element copies
    /// created by this call.
    ///
    /// What a part ships to a neighbour `q`: layer 1 is its elements
    /// sharing a bridge entity with `q` (a bridge entity with a remote copy
    /// on `q`); layer k + 1 is its elements sharing a bridge entity with
    /// its layer-k shipments to `q`, minus everything already shipped there.
    ///
    /// # Panics
    /// Panics if this handle no longer describes `dm`
    /// ([`Overlap::assert_describes`]): its record of what was shipped
    /// would name dead or reused elements.
    pub fn grow(&mut self, comm: &Comm, dm: &mut DistMesh, layers: usize) -> u64 {
        let _span = pumi_obs::span!("overlap.grow");
        pumi_obs::metrics::counter_add("overlap.grow.calls", 1);
        self.assert_describes(dm);
        let elem_dim = dm.parts.first().map(|p| p.mesh.elem_dim()).unwrap_or(2);
        assert!(
            self.bridge.as_usize() < elem_dim,
            "bridge must be below elements"
        );
        let mut total = 0u64;
        // Non-ghost elements do not change while the call runs, so one star
        // table per part serves every layer.
        let stars: Vec<Stars> = dm.parts.iter().map(|p| Stars::of(p, self.bridge)).collect();
        let mut seen = Marks::default();
        let mut packed: [Marks; 4] = Default::default();
        let mut by_dim: [Vec<MeshEnt>; 4] = Default::default();
        let mut buf = Vec::new();
        let mut at = Placed::default();
        let mut rows = Rows::default();

        for _ in 0..layers {
            // 1. Determine which elements to send where.
            let select = pumi_obs::span!("overlap.grow.select");
            let to_send: Vec<Layer> = dm
                .parts
                .iter()
                .zip(&stars)
                .zip(&mut self.sent)
                .zip(&self.frontier)
                .map(|(((part, table), sent), frontier)| {
                    if self.depth == 0 {
                        first_layer(part, table, sent)
                    } else {
                        next_layer(part, table, frontier, sent, &mut seen, &mut buf)
                    }
                })
                .collect();
            drop(select);

            // 2. Pack closures (bottom-up, elements ascending) and send.
            let pack = pumi_obs::span!("overlap.grow.pack");
            let mut ex = PartExchange::new(comm, &dm.map);
            for (part, sends) in dm.parts.iter().zip(&to_send) {
                let mut dests: Vec<(&PartId, &Vec<MeshEnt>)> = sends.iter().collect();
                dests.sort_by_key(|&(q, _)| *q);
                for (&q, elems) in dests {
                    for (d, m) in packed.iter_mut().enumerate() {
                        m.reset(part.mesh.index_space(Dim::from_usize(d)));
                    }
                    by_dim.iter_mut().for_each(Vec::clear);
                    for &el in elems {
                        buf.clear();
                        part.mesh.closure_into(el, &mut buf);
                        for &sub in &buf {
                            let d = sub.dim().as_usize();
                            if packed[d].insert(sub.idx()) {
                                by_dim[d].push(sub);
                            }
                        }
                    }
                    let w = ex.to(part.id, q);
                    for &e in by_dim.iter().take(elem_dim + 1).flatten() {
                        wire::put_entity(w, part, e, |w| wire::put_share(w, part.root_copy(e)));
                    }
                }
            }
            self.frontier = to_send;
            drop(pack);

            // 3. Receive: build each frame's rows, marking the created ones
            //    ghosts of the root each row carries, and ack each created
            //    row straight to its root with the holder's local index.
            let unpack = pumi_obs::span!("overlap.grow.unpack");
            let nparts = dm.map.nparts();
            let mut acks = PartExchange::new(comm, &dm.map);
            // Canonical unpack order: ghost creation order (local indices,
            // and which sender a doubly-shipped entity first arrives from)
            // must not depend on the chaos scheduler's arrival order.
            let mut frames = ex.finish();
            frames.sort_by_key(|&(from, to, _)| (to, from));
            for (from, to, mut r) in frames {
                let part = &mut dm.parts[dm.map.slot_of(to)];
                rows.clear();
                wire::decode_entity_frame(&mut r, &mut rows, |r| wire::get_share(r, nparts))
                    .map_err(|e| e.to_string())
                    .and_then(|()| {
                        part.build(&rows, &mut at, |_, _| true)
                            .map_err(|e| e.to_string())
                    })
                    .unwrap_or_else(|e| panic!("corrupt overlap frame {from}->{to}: {e}"));
                for d in Dim::ALL {
                    for (r, &(root, root_idx)) in rows.dim(d).extra.iter().enumerate() {
                        if let Some((e, true)) = at.get(d, r) {
                            part.set_ghost(e, (root, root_idx));
                            let w = acks.to(to, root);
                            w.put_u8(d.as_usize() as u8);
                            w.put_u32(root_idx);
                            w.put_u32(e.index());
                            total += u64::from(d.as_usize() == elem_dim);
                        }
                    }
                }
            }
            drop(unpack);

            // 4. The root records each holder.
            let _ack = pumi_obs::span!("overlap.grow.ack");
            let mut frames = acks.finish();
            frames.sort_by_key(|&(from, to, _)| (to, from));
            for (from, to, mut r) in frames {
                let part = &mut dm.parts[dm.map.slot_of(to)];
                while !r.is_done() {
                    let (e, holder_idx) = get_dim(&mut r)
                        .and_then(|d| Ok((MeshEnt::new(d, r.try_get_u32()?), r.try_get_u32()?)))
                        .unwrap_or_else(|e| panic!("corrupt overlap ack frame {from}->{to}: {e}"));
                    part.record_ghost_holder(e, (from, holder_idx));
                }
            }

            self.depth += 1;
        }
        self.rebuild_shares(dm);
        comm.allreduce_sum_u64(total)
    }

    // -----------------------------------------------------------------
    // Data movement
    // -----------------------------------------------------------------

    /// Push data root → leaves. For every root entity `e` of a dimension in
    /// `dims` (ascending) on local slot `s` with `has(data, s, e)` true, its
    /// value travels once per leaf in `scope`. The values move run by run:
    /// `pack` writes the valued entities of a [`Run`] of the sender's list
    /// for one peer, and `apply` reads exactly those values for the same
    /// run of the leaf copies. Only values travel, in the order both ends
    /// compiled into the share map; a frame is headed by that order's
    /// digest. Share links of other dimensions are not visited.
    /// Collective, and deterministic under any scheduler; panics on a frame
    /// not from a peer, of another link list, or with too few or too many
    /// values.
    #[allow(clippy::too_many_arguments)]
    pub fn bcast<D: ?Sized>(
        &self,
        comm: &Comm,
        map: &PartMap,
        scope: Scope,
        dims: &[Dim],
        data: &mut D,
        has: impl Fn(&D, usize, MeshEnt) -> bool,
        pack: impl FnMut(&D, Run<'_>, &mut MsgWriter),
        apply: impl FnMut(&mut D, Run<'_>, &mut MsgReader) -> Result<(), MsgError>,
    ) {
        self.move_values(Side::Roots, comm, map, scope, dims, data, has, pack, apply);
    }

    /// Pull data leaves → root. The mirror of [`Overlap::bcast`]: every
    /// leaf of a dimension in `dims` (ascending) in `scope` with `has` true
    /// sends its value to its root copy, and `apply` combines the runs
    /// there one peer at a time, in ascending part order. A root has one
    /// link per peer, so its leaves' values reach it in ascending part
    /// order: a non-associative combine still yields scheduler-independent
    /// results. Collective; panics as `bcast` does, naming a `reduce` frame.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce<D: ?Sized>(
        &self,
        comm: &Comm,
        map: &PartMap,
        scope: Scope,
        dims: &[Dim],
        data: &mut D,
        has: impl Fn(&D, usize, MeshEnt) -> bool,
        pack: impl FnMut(&D, Run<'_>, &mut MsgWriter),
        apply: impl FnMut(&mut D, Run<'_>, &mut MsgReader) -> Result<(), MsgError>,
    ) {
        self.move_values(Side::Leaves, comm, map, scope, dims, data, has, pack, apply);
    }

    /// `bcast` from the roots, `reduce` from the leaves: pack a frame per
    /// peer from its runs, then apply each received frame run by run, per
    /// slot in ascending peer order.
    #[allow(clippy::too_many_arguments)]
    fn move_values<D: ?Sized>(
        &self,
        sender: Side,
        comm: &Comm,
        map: &PartMap,
        scope: Scope,
        dims: &[Dim],
        data: &mut D,
        has: impl Fn(&D, usize, MeshEnt) -> bool,
        mut pack: impl FnMut(&D, Run<'_>, &mut MsgWriter),
        mut apply: impl FnMut(&mut D, Run<'_>, &mut MsgReader) -> Result<(), MsgError>,
    ) {
        let what = ["bcast", "reduce"][sender as usize];
        let _span = pumi_obs::span!(["overlap.bcast", "overlap.reduce"][sender as usize]);
        debug_assert!(dims.windows(2).all(|w| w[0] < w[1]), "dims not ascending");
        let receiver = [Side::Leaves, Side::Roots][sender as usize];
        let mut ex = PartExchange::new(comm, map);
        // A ghost-only list and a presence bitmap, reused peer after peer.
        let (mut buf, mut bits) = (Vec::new(), Vec::new());
        let d: &D = data;
        for (slot, sh) in self.shares.iter().enumerate() {
            for (peer, &to) in sh.peers.iter().enumerate() {
                let list = sh.list(sender, peer, dims, scope, &mut buf);
                let digest = sh.digests[sender as usize][peer];
                let has = |e| has(d, slot, e);
                let frame = frame_out(digest, slot, &list, &mut bits, has, |run, w| {
                    pack(d, run, w)
                });
                if let Some(w) = frame {
                    ex.put(self.part_ids[slot], to, w);
                }
            }
        }
        let fail = |from, to, e| -> ! { panic!("corrupt overlap {what} frame {from}->{to}: {e}") };
        // One inbox entry per (slot, peer), so a sync allocates per phase,
        // not per slot.
        let base = |s: usize| -> usize { self.shares[..s].iter().map(|sh| sh.peers.len()).sum() };
        let mut inbox: Vec<Option<FrameIn>> = Vec::new();
        inbox.resize_with(base(self.shares.len()), || None);
        for (from, to, r) in ex.finish() {
            let slot = map.slot_of(to);
            let frame = FrameIn::open(&self.shares[slot], receiver, from, r)
                .unwrap_or_else(|e| fail(from, to, e));
            let at = base(slot) + frame.peer;
            inbox[at] = Some(frame);
        }
        for (slot, sh) in self.shares.iter().enumerate() {
            let (to, inbox) = (self.part_ids[slot], &mut inbox[base(slot)..]);
            for (peer, &from) in sh.peers.iter().enumerate() {
                if let Some(frame) = inbox[peer].take() {
                    let list = sh.list(receiver, peer, dims, scope, &mut buf);
                    let read = frame.apply(slot, &list, |run, r| apply(data, run, r));
                    read.unwrap_or_else(|e| fail(from, to, e));
                }
            }
        }
    }

    /// Push tag data of root entities to their leaf copies in `scope`
    /// (with [`Scope::Ghosts`] this is the classic read-only ghost-tag
    /// sync). Syncs every tag present on each root. Collective.
    ///
    /// # Panics
    /// Panics if this handle no longer describes `dm`
    /// ([`Overlap::assert_describes`]).
    pub fn bcast_tags(&self, comm: &Comm, dm: &mut DistMesh, scope: Scope) {
        let _span = pumi_obs::span!("overlap.bcast_tags");
        self.assert_describes(dm);
        let DistMesh { map, parts } = dm;
        self.bcast(
            comm,
            map,
            scope,
            &Dim::ALL,
            parts.as_mut_slice(),
            |_, _, _| true,
            |parts: &[Part], run, w| {
                let part = &parts[run.slot];
                run.valued()
                    .for_each(|i| pack_tags(part, MeshEnt::new(run.dim, i), w));
            },
            |parts: &mut [Part], run, r| {
                let part = &mut parts[run.slot];
                run.valued()
                    .try_for_each(|i| unpack_tags(part, MeshEnt::new(run.dim, i), r))
            },
        );
    }

    /// Delete every ghost copy and reset this handle's growth state, so
    /// the next [`Overlap::grow`] starts from the part boundary again.
    pub fn clear(&mut self, dm: &mut DistMesh) {
        clear_overlap(dm);
        for slot in 0..self.num_slots() {
            self.sent[slot].clear();
            self.frontier[slot].clear();
        }
        self.depth = 0;
        self.rebuild_shares(dm);
    }
}

// ---------------------------------------------------------------------
// Free functions
// ---------------------------------------------------------------------

/// Delete every ghost copy on every local part. Locally destructive only —
/// no communication needed; owner-side holder records are cleared too.
pub fn clear_overlap(dm: &mut DistMesh) {
    let _span = pumi_obs::span!("overlap.clear");
    for part in &mut dm.parts {
        let ghosts = part.ghost_entities();
        // Top-down: elements, then faces, edges, vertices with no
        // remaining upward adjacency.
        for d in (0..=3usize).rev() {
            for &g in &ghosts {
                if g.dim().as_usize() != d || !part.mesh.is_live(g) {
                    continue;
                }
                if d < 3 && part.mesh.up_count(g) > 0 {
                    // Still bounds a live entity: keep (defensive — ghost
                    // closures are created bottom-up from fresh entities,
                    // so a live up here would mean a non-ghost references
                    // it).
                    continue;
                }
                part.delete_entity(g);
            }
        }
        part.clear_ghost_records();
    }
}

// ---------------------------------------------------------------------
// Growth helpers
// ---------------------------------------------------------------------

/// One part's bridge → element star table: for every bridge entity, the
/// part's non-ghost elements it bounds, ascending. CSR over the bridge
/// dimension's index space, filled in one pass over the elements.
struct Stars {
    bridge: Dim,
    offsets: Vec<u32>,
    elems: Vec<MeshEnt>,
}

impl Stars {
    fn of(part: &Part, bridge: Dim) -> Stars {
        let mesh = &part.mesh;
        let mut offsets = vec![0u32; mesh.index_space(bridge) + 1];
        let mut pairs: Vec<(MeshEnt, MeshEnt)> = Vec::new();
        let mut buf = Vec::new();
        for el in mesh.elems().filter(|&el| !part.is_ghost(el)) {
            mesh.adjacent_into(el, bridge, &mut buf);
            for &b in &buf {
                offsets[b.idx() + 1] += 1;
                pairs.push((b, el));
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // A stable counting sort by bridge entity keeps each star ascending.
        let mut at = offsets.clone();
        let mut elems = vec![MeshEnt(0); pairs.len()];
        for (b, el) in pairs {
            elems[at[b.idx()] as usize] = el;
            at[b.idx()] += 1;
        }
        Stars {
            bridge,
            offsets,
            elems,
        }
    }

    /// The non-ghost elements bounded by bridge entity `b`.
    fn star(&self, b: MeshEnt) -> &[MeshEnt] {
        &self.elems[self.offsets[b.idx()] as usize..self.offsets[b.idx() + 1] as usize]
    }
}

/// Visited marks over an index space, all cleared at once by moving to a
/// new stamp.
#[derive(Default)]
struct Marks {
    stamp: u32,
    at: Vec<u32>,
}

impl Marks {
    /// Unmark everything and cover the indices `0..n`.
    fn reset(&mut self, n: usize) {
        if self.stamp == u32::MAX {
            self.at.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        if self.at.len() < n {
            self.at.resize(n, 0);
        }
    }

    /// Mark `i`; whether it was unmarked.
    fn insert(&mut self, i: usize) -> bool {
        let fresh = self.at[i] != self.stamp;
        self.at[i] = self.stamp;
        fresh
    }
}

/// Per neighbour part: the elements a part ships to it in one layer.
type Layer = FxHashMap<PartId, Vec<MeshEnt>>;

/// Add the elements of `star` not yet in `sent` to both.
fn ship(star: &[MeshEnt], sent: &mut FxHashSet<MeshEnt>, out: &mut Vec<MeshEnt>) {
    out.extend(star.iter().filter(|&&el| sent.insert(el)));
}

/// Drop the neighbours nothing new goes to and sort each one's shipments.
fn finish(mut layer: Layer) -> Layer {
    layer.retain(|_, elems| !elems.is_empty());
    layer.values_mut().for_each(|elems| elems.sort_unstable());
    layer
}

/// Layer 1 of `part`: the star of every bridge entity with a remote copy on
/// a part `q`, to `q`.
fn first_layer(
    part: &Part,
    stars: &Stars,
    sent: &mut FxHashMap<PartId, FxHashSet<MeshEnt>>,
) -> Layer {
    let mut layer = Layer::default();
    for (e, remotes) in part.shared_entities() {
        if e.dim() != stars.bridge {
            continue;
        }
        for &(q, _) in remotes {
            let out = layer.entry(q).or_default();
            ship(stars.star(e), sent.entry(q).or_default(), out);
        }
    }
    finish(layer)
}

/// Layer k + 1 of `part`: per neighbour `q`, the star of every distinct
/// bridge entity of the layer-k shipments to `q`, read once each.
fn next_layer(
    part: &Part,
    stars: &Stars,
    frontier: &Layer,
    sent: &mut FxHashMap<PartId, FxHashSet<MeshEnt>>,
    seen: &mut Marks,
    buf: &mut Vec<MeshEnt>,
) -> Layer {
    let mut layer = Layer::default();
    for (&q, seeds) in frontier {
        seen.reset(part.mesh.index_space(stars.bridge));
        let (sent, out) = (sent.entry(q).or_default(), layer.entry(q).or_default());
        for &g in seeds {
            part.mesh.adjacent_into(g, stars.bridge, buf);
            for &b in buf.iter() {
                if seen.insert(b.idx()) {
                    ship(stars.star(b), sent, out);
                }
            }
        }
    }
    finish(layer)
}

// ---------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------

/// Turn per-bucket counts (bucket `b` at `starts[b + 1]`) into bucket
/// starts.
fn prefix_sum(starts: &mut [u32]) {
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
}

/// The frame of one peer's `list`, or none if no entity on it has a value:
/// the list's `digest`, a presence byte, then the values `pack` writes run
/// by run. A list with a gap gets presence byte 1 and, before the values,
/// the `u32`-prefixed bitmap of the positions that have a value (bit
/// `k % 8` of byte `k / 8`), built in `bits`.
fn frame_out(
    digest: u64,
    slot: usize,
    list: &List,
    bits: &mut Vec<u8>,
    has: impl Fn(MeshEnt) -> bool,
    mut pack: impl FnMut(Run<'_>, &mut MsgWriter),
) -> Option<MsgWriter> {
    let ents = || {
        list.iter()
            .flat_map(|(dim, index)| index.iter().map(move |&i| MeshEnt::new(dim, i)))
    };
    let valued = ents().filter(|&e| has(e)).count();
    if valued == 0 {
        return None;
    }
    let gappy = valued < list.entities();
    let mut w = MsgWriter::pooled();
    w.put_u64(digest);
    w.put_u8(gappy as u8);
    if gappy {
        bits.clear();
        bits.resize(list.entities().div_ceil(8), 0);
        let valued = ents().enumerate().filter(|&(_, e)| has(e));
        valued.for_each(|(k, _)| bits[k / 8] |= 1 << (k % 8));
        w.put_bytes(bits);
    }
    let mut at = 0;
    for (dim, index) in list.iter() {
        let present = gappy.then_some((&bits[..], at));
        let run = Run {
            slot,
            dim,
            index,
            present,
        };
        pack(run, &mut w);
        at += index.len();
    }
    Some(w)
}

/// One received bcast/reduce frame: its sender's peer position, its values,
/// and the presence bitmap if some entity on the list has none.
struct FrameIn {
    peer: usize,
    r: MsgReader,
    bits: Option<bytes::Bytes>,
}

impl FrameIn {
    /// Open a frame `from` sent to the `side` end of `sh`'s links: it must come
    /// from a peer and be headed by the digest of the same link list.
    fn open(sh: &SlotShares, side: Side, from: PartId, mut r: MsgReader) -> Result<Self, MsgError> {
        let peer = (sh.peers.binary_search(&from))
            .map_err(|_| MsgError::corrupt("overlap frame (not from a peer)"))?;
        if r.try_get_u64()? != sh.digests[side as usize][peer] {
            return Err(MsgError::corrupt("overlap frame (of another link list)"));
        }
        let bits = match r.try_get_u8()? {
            0 => None,
            1 => Some(r.try_get_bytes_shared()?),
            b => return Err(MsgError::bad_enum("presence", b)),
        };
        Ok(FrameIn { peer, r, bits })
    }

    /// Hand `apply` the frame's values run by run along `list`, slot
    /// `slot`'s list for this peer; then refuse values or presence bits
    /// past the end of the list.
    fn apply(
        self,
        slot: usize,
        list: &List,
        mut apply: impl FnMut(Run<'_>, &mut MsgReader) -> Result<(), MsgError>,
    ) -> Result<(), MsgError> {
        let FrameIn { mut r, bits, .. } = self;
        let bits = bits.as_deref();
        if bits.is_some_and(|b| b.len() < list.entities().div_ceil(8)) {
            return Err(MsgError::corrupt(
                "overlap frame (bitmap short of its list)",
            ));
        }
        let mut at = 0;
        for (dim, index) in list.iter() {
            let present = bits.map(|b| (b, at));
            let run = Run {
                slot,
                dim,
                index,
                present,
            };
            apply(run, &mut r)?;
            at += index.len();
        }
        let bits = bits.unwrap_or(&[]);
        let past = (at..bits.len() * 8).any(|k| bits[k / 8] >> (k % 8) & 1 == 1);
        let err = MsgError::corrupt("overlap frame (values past the end of its list)");
        (r.is_done() && !past).then_some(()).ok_or(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{distribute, PartMap};
    use crate::migrate::{migrate, MigrationPlan};
    use pumi_meshgen::tri_rect;
    use pumi_pcu::execute;
    use pumi_util::tag::TagKind;

    fn strip_two_parts(c: &Comm) -> DistMesh {
        let serial = tri_rect(4, 2, 4.0, 1.0);
        let d = serial.elem_dim_t();
        let mut elem_part = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            elem_part[e.idx()] = if serial.centroid(e)[0] < 2.0 { 0 } else { 1 };
        }
        distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part)
    }

    /// 4 parts on 1 rank, quadrant split — every part is locally visible,
    /// so cross-part invariants can be asserted directly.
    fn quadrants_one_rank(c: &Comm) -> DistMesh {
        let serial = tri_rect(6, 6, 2.0, 2.0);
        let d = serial.elem_dim_t();
        let mut elem_part = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            let x = serial.centroid(e);
            elem_part[e.idx()] = (x[0] >= 1.0) as PartId + 2 * ((x[1] >= 1.0) as PartId);
        }
        distribute(c, PartMap::contiguous(4, 1), &serial, &elem_part)
    }

    /// The entity walk the compiled runs replaced, kept as their oracle:
    /// visit the links of `side` in `dims` (ascending) and in `scope`, as
    /// the local entity and the link's other end, in the order both ends
    /// agree on: per peer, `(dim, root index)` ascending. The leaves are
    /// put in that order by a sort, not by the compile's buckets.
    impl SlotShares {
        fn walk(&self, side: Side, dims: &[Dim], scope: Scope, mut f: impl FnMut(MeshEnt, &Share)) {
            let mut leaf_order: Vec<usize> = (0..self.leaf_ents.len()).collect();
            leaf_order.sort_unstable_by_key(|&i| {
                let (e, root) = (self.leaf_ents[i], self.leaf_roots[i]);
                (e.dim(), root.part, root.index)
            });
            let ents = [&self.root_ents, &self.leaf_ents][side as usize];
            let at = |d: usize| ents.partition_point(|e| e.dim().as_usize() < d);
            let range = |d: &Dim| at(d.as_usize())..at(d.as_usize() + 1);
            for k in dims.iter().flat_map(range) {
                let (e, links) = match side {
                    Side::Roots => (self.root_ents[k], self.links_of(k)),
                    Side::Leaves => {
                        let i = leaf_order[k];
                        (self.leaf_ents[i], std::slice::from_ref(&self.leaf_roots[i]))
                    }
                };
                let links = links.iter().filter(|s| scope == Scope::All || s.ghost);
                links.for_each(|s| f(e, s));
            }
        }

        /// Per peer, the digest of its link list at `side` in walk order:
        /// the `(root handle, ghost)` of every link.
        fn digest(&self, side: Side) -> Vec<u64> {
            let mut h = vec![FxHasher::default(); self.peers.len()];
            self.walk(side, &Dim::ALL, Scope::All, |e, s| {
                let root = MeshEnt::new(e.dim(), [e.index(), s.index][side as usize]);
                h[usize::from(s.peer)].write_u64(digest_word(root, s.ghost));
            });
            h.iter().map(FxHasher::finish).collect()
        }
    }

    /// The frame writer the run packer replaced, kept as the oracle of the
    /// wire format: the frame `w` of a list of `len` entities, of which
    /// those at the positions `absent` (ascending) have no value, re-copied
    /// behind a presence bitmap if there is a gap; none if no entity has a
    /// value.
    fn frame_tail(w: MsgWriter, len: u32, absent: Vec<u32>) -> Option<MsgWriter> {
        if absent.len() == len as usize {
            w.recycle();
            return None;
        } else if absent.is_empty() {
            return Some(w);
        }
        let mut bits = vec![0u8; len.div_ceil(8) as usize];
        let present = (0..len).filter(|k| absent.binary_search(k).is_err());
        present.for_each(|k| bits[k as usize / 8] |= 1 << (k % 8));
        let mut out = MsgWriter::pooled();
        out.put_raw(&w.as_slice()[..8]);
        out.put_u8(1);
        out.put_bytes(&bits);
        out.put_raw(&w.as_slice()[9..]);
        w.recycle();
        Some(out)
    }

    /// The sort-based compile the one-pass walk replaced, kept as the
    /// oracle of `one_pass_compile_matches_the_sorted_one`: collect every
    /// link through the public accessors, sort roots and leaves by entity
    /// and link, then look each link's peer up in the sorted part list.
    /// Each side's runs come from sorting its links by `(dim, peer, root
    /// index)`, and the digests from the entity walk.
    fn compile_sorted(part: &Part) -> SlotShares {
        let link = |(p, index): (PartId, u32), ghost| Share {
            part: p,
            index,
            ghost,
            peer: 0,
        };
        let mut roots: Vec<(MeshEnt, Share)> = Vec::new();
        let mut leaves: Vec<(MeshEnt, Share)> = Vec::new();
        for (e, remotes) in part.shared_entities() {
            if part.is_owned(e) {
                roots.extend(remotes.iter().map(|&r| (e, link(r, false))));
            } else {
                let owner = part.owner(e);
                if let Some(&r) = remotes.iter().find(|&&(p, _)| p == owner) {
                    leaves.push((e, link(r, false)));
                }
            }
        }
        for (e, holders) in part.ghost_entities_owner_side() {
            roots.extend(holders.iter().map(|&h| (e, link(h, true))));
        }
        for e in part.ghost_entities() {
            let src = part.ghost_source(e).expect("ghost has a source");
            leaves.push((e, link(src, true)));
        }
        roots.sort_unstable();
        leaves.sort_unstable();
        let mut peers: Vec<PartId> = roots.iter().chain(&leaves).map(|l| l.1.part).collect();
        peers.sort_unstable();
        peers.dedup();
        let peer_of = |s: &mut Share| {
            s.peer = peers.binary_search(&s.part).expect("peer listed") as u16;
        };
        let mut sh = SlotShares {
            stamp: Stamp::of(part),
            ..SlotShares::default()
        };
        for (e, mut s) in roots {
            if sh.root_ents.last() != Some(&e) {
                sh.root_ents.push(e);
                sh.root_offsets.push(sh.root_links.len() as u32);
            }
            peer_of(&mut s);
            sh.root_links.push(s);
        }
        sh.root_offsets.push(sh.root_links.len() as u32);
        for (e, mut s) in leaves {
            peer_of(&mut s);
            sh.leaf_ents.push(e);
            sh.leaf_roots.push(s);
        }
        sh.peers = peers;
        let np = sh.peers.len();
        let mut keys: [Vec<(usize, u32, u32)>; 2] = Default::default();
        for (k, &e) in sh.root_ents.iter().enumerate() {
            for s in sh.links_of(k) {
                let b = e.dim().as_usize() * np + usize::from(s.peer);
                keys[Side::Roots as usize].push((b, e.index(), e.index()));
            }
        }
        for (&e, s) in sh.leaf_ents.iter().zip(&sh.leaf_roots) {
            let b = e.dim().as_usize() * np + usize::from(s.peer);
            keys[Side::Leaves as usize].push((b, s.index, e.index()));
        }
        for (side, mut keys) in keys.into_iter().enumerate() {
            keys.sort_unstable();
            sh.runs[side] = keys.iter().map(|k| k.2).collect();
            sh.run_starts[side] = (0..=4 * np)
                .map(|b| keys.partition_point(|k| k.0 < b) as u32)
                .collect();
        }
        sh.digests = [Side::Roots, Side::Leaves].map(|side| sh.digest(side));
        sh
    }

    /// Every slot's compiled share map equals the sorted compile's.
    fn compiles_agree(ov: &Overlap, dm: &DistMesh) {
        for (slot, part) in dm.parts.iter().enumerate() {
            assert_eq!(
                SlotShares::compile(part),
                compile_sorted(part),
                "part {}",
                part.id
            );
            assert_eq!(ov.shares[slot], compile_sorted(part), "part {}", part.id);
        }
    }

    /// Every run equals the entity walk restricted to its peer and
    /// dimension, on both sides and in both scopes.
    fn runs_agree(ov: &Overlap, _: &DistMesh) {
        let mut buf = Vec::new();
        for (sh, side, scope) in ov.shares.iter().flat_map(|sh| {
            let cases = [Side::Roots, Side::Leaves]
                .map(|side| [Scope::All, Scope::Ghosts].map(|scope| (sh, side, scope)));
            cases.into_iter().flatten()
        }) {
            for peer in 0..sh.peers.len() {
                let list = sh.list(side, peer, &Dim::ALL, scope, &mut buf);
                for (dim, run) in list.iter() {
                    let mut walked = Vec::new();
                    sh.walk(side, &[dim], scope, |e, s| {
                        if usize::from(s.peer) == peer {
                            walked.push(e.index());
                        }
                    });
                    assert_eq!(
                        run, walked,
                        "{side:?} {scope:?} peer {} {dim:?}",
                        sh.peers[peer]
                    );
                }
            }
        }
    }

    /// A tri or tet mesh cut into five parts around random centres (two
    /// ranks): `check` runs after distribution, after a random grow of
    /// depth 1 to 3 through each bridge below the elements, after a second
    /// grow, after `clear` and after a regrow.
    fn random_stages(
        tet: bool,
        bridge: usize,
        depth: usize,
        seed: u64,
        check: fn(&Overlap, &DistMesh),
    ) {
        let serial = match tet {
            true => pumi_meshgen::tet_box(4, 3, 3, 1.0, 1.0, 1.0),
            false => tri_rect(9, 7, 1.0, 1.0),
        };
        let bridge = Dim::from_usize(bridge % serial.elem_dim());
        let unit = |k: u64| {
            let z = (seed ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (z ^ z >> 29) as f64 / u64::MAX as f64
        };
        let centres: Vec<[f64; 3]> = (0..5)
            .map(|k| [unit(3 * k), unit(3 * k + 1), unit(3 * k + 2)])
            .collect();
        let d = serial.elem_dim_t();
        let mut elem_part = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            let x = serial.centroid(e);
            let dist = |c: &[f64; 3]| (0..3).map(|i| (x[i] - c[i]).powi(2)).sum::<f64>();
            let near = (0..5).min_by(|&a, &b| dist(&centres[a]).total_cmp(&dist(&centres[b])));
            elem_part[e.idx()] = near.expect("five centres") as PartId;
        }
        execute(2, |c| {
            let mut dm = distribute(c, PartMap::contiguous(5, 2), &serial, &elem_part);
            let mut ov = Overlap::from_dist(&dm).with_bridge(bridge);
            check(&ov, &dm);
            ov.grow(c, &mut dm, depth);
            check(&ov, &dm);
            ov.grow(c, &mut dm, 1);
            check(&ov, &dm);
            ov.clear(&mut dm);
            check(&ov, &dm);
            ov.grow(c, &mut dm, depth);
            check(&ov, &dm);
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The one-pass compile builds the same arrays, runs and digests as
        /// the sorted one, at every stage of `random_stages`.
        #[test]
        fn one_pass_compile_matches_the_sorted_one(
            tet in proptest::bool::ANY,
            bridge in 0usize..3,
            depth in 1usize..4,
            seed in 0u64..1 << 40,
        ) {
            random_stages(tet, bridge, depth, seed, compiles_agree);
        }

        /// Every `(side, peer, dim)` run a bcast/reduce moves is the entity
        /// walk restricted to that peer and dimension, in both scopes, at
        /// every stage of `random_stages`.
        #[test]
        fn runs_match_the_entity_walk(
            tet in proptest::bool::ANY,
            bridge in 0usize..3,
            depth in 1usize..4,
            seed in 0u64..1 << 40,
        ) {
            random_stages(tet, bridge, depth, seed, runs_agree);
        }
    }

    #[test]
    fn from_dist_builds_symmetric_shares() {
        execute(1, |c| {
            let dm = quadrants_one_rank(c);
            let ov = Overlap::from_dist(&dm);
            // Every leaf's root lists that leaf back, with matching index.
            for slot in 0..ov.num_slots() {
                let me = ov.part_id(slot);
                for (e, root) in ov.leaves_sorted(slot) {
                    let rslot = dm.map.slot_of(root.part);
                    let back = ov.root_shares(rslot, MeshEnt::new(e.dim(), root.index));
                    assert!(
                        back.iter().any(|s| s.part == me && s.index == e.index()),
                        "no back link for leaf {e:?} on part {me}"
                    );
                }
                // Roots and leaves are disjoint on a part.
                for (e, _) in ov.roots_sorted(slot) {
                    assert!(ov.leaf_root(slot, e).is_none());
                }
            }
        });
    }

    #[test]
    fn grow_depth1_marks_ghosts() {
        execute(2, |c| {
            let mut dm = strip_two_parts(c);
            let before = dm.part(c.rank() as PartId).mesh.num_elems();
            let mut ov = Overlap::from_dist(&dm);
            ov.grow(c, &mut dm, 1);
            assert_eq!(ov.depth(), 1);
            let part = dm.part(c.rank() as PartId);
            assert!(part.mesh.num_elems() > before);
            let ghost_elems = part.mesh.elems().filter(|&e| part.is_ghost(e)).count();
            assert_eq!(part.mesh.num_elems() - before, ghost_elems);
            part.mesh.assert_valid();
            // The share map saw the ghosts: some ghost leaves exist.
            let slot = dm.map.slot_of(c.rank() as PartId);
            assert!(ov.leaves_sorted(slot).any(|(_, s)| s.ghost));
        });
    }

    #[test]
    fn owner_side_ghost_view_after_grow() {
        execute(2, |c| {
            let mut dm = strip_two_parts(c);
            Overlap::from_dist(&dm)
                .with_bridge(Dim::Vertex)
                .grow(c, &mut dm, 1);
            let part = dm.part(c.rank() as PartId);
            let view = part.ghost_entities_owner_side();
            assert!(!view.is_empty(), "owner-side ghost records missing");
            assert!(view.windows(2).all(|w| w[0].0 < w[1].0), "view not sorted");
            for (e, holders) in view {
                assert_eq!(part.ghosted_to(e), holders);
                assert!(!part.is_ghost(e), "ghost listed as an owner");
            }
        });
    }

    #[test]
    fn grow_is_iterable() {
        execute(2, |c| {
            let mut dm1 = strip_two_parts(c);
            let mut ov1 = Overlap::from_dist(&dm1);
            let a = ov1.grow(c, &mut dm1, 1);
            let b = ov1.grow(c, &mut dm1, 1);
            let mut dm2 = strip_two_parts(c);
            let mut ov2 = Overlap::from_dist(&dm2);
            let t = ov2.grow(c, &mut dm2, 2);
            assert_eq!(a + b, t, "grow(1)+grow(1) != grow(2)");
            assert_eq!(ov1.depth(), ov2.depth());
            let pid = c.rank() as PartId;
            assert_eq!(dm1.part(pid).entity_counts(), dm2.part(pid).entity_counts());
            assert!(b > 0, "second layer added nothing");
        });
    }

    #[test]
    fn grow_reports_its_phases_as_spans() {
        execute(1, |c| {
            let mut dm = quadrants_one_rank(c);
            pumi_obs::span::take();
            let before = c.exchanges_completed();
            Overlap::from_dist(&dm).grow(c, &mut dm, 2);
            // Per layer: ship the closures, ack each ghost to its root.
            assert_eq!(c.exchanges_completed() - before, 4, "exchanges");
            let spans = pumi_obs::span::take();
            for phase in ["select", "pack", "unpack", "ack"] {
                let path = format!("overlap.grow/overlap.grow.{phase}");
                let stat = spans.iter().find(|(p, _)| *p == path);
                assert_eq!(
                    stat.map(|(_, s)| s.count),
                    Some(2),
                    "{path}: once per layer"
                );
            }
            // The builder reports under the unpack, once per frame.
            let build = "overlap.grow/overlap.grow.unpack/core.build";
            assert!(spans.iter().any(|(p, _)| *p == build), "no {build}");
        });
    }

    #[test]
    fn clear_restores_counts_and_regrows() {
        execute(2, |c| {
            let mut dm = strip_two_parts(c);
            let pid = c.rank() as PartId;
            let counts_before = dm.part(pid).entity_counts();
            let mut ov = Overlap::from_dist(&dm);
            ov.grow(c, &mut dm, 1);
            assert!(dm.part(pid).num_ghosts() > 0);
            ov.clear(&mut dm);
            assert_eq!(ov.depth(), 0);
            assert_eq!(dm.part(pid).num_ghosts(), 0);
            assert_eq!(dm.part(pid).entity_counts(), counts_before);
            dm.part(pid).mesh.assert_valid();
            // Growth starts over from the boundary after a clear.
            let total = ov.grow(c, &mut dm, 1);
            assert!(total > 0);
            assert!(dm.part(pid).num_ghosts() > 0);
        });
    }

    #[test]
    fn ghost_sources_are_owners() {
        execute(1, |c| {
            let mut dm = quadrants_one_rank(c);
            Overlap::from_dist(&dm).grow(c, &mut dm, 2);
            // With 4 parts meeting at the domain centre, parts ship
            // closures containing entities they do not own; the root each
            // record carries must still be the owner, and the owner must
            // hold the holder record.
            let mut checked = 0;
            for part in &dm.parts {
                for g in part.ghost_entities() {
                    let (src, sidx) = part.ghost_source(g).unwrap();
                    let root_part = dm.part(src);
                    let root = MeshEnt::new(g.dim(), sidx);
                    assert!(!root_part.is_ghost(root), "ghost rooted at a ghost");
                    assert!(
                        root_part.is_owned(root),
                        "ghost {g:?} on part {} rooted at non-owner {src}",
                        part.id
                    );
                    assert_eq!(root_part.gid_of(root), part.gid_of(g));
                    assert!(
                        root_part.ghosted_to(root).contains(&(part.id, g.index())),
                        "owner {src} missing holder record for part {}",
                        part.id
                    );
                    checked += 1;
                }
            }
            assert!(checked > 0);
        });
    }

    #[test]
    fn bcast_and_reduce_roundtrip() {
        execute(2, |c| {
            let mut dm = strip_two_parts(c);
            let mut ov = Overlap::from_dist(&dm);
            ov.grow(c, &mut dm, 1);
            // One value per vertex: gid at roots, 0 elsewhere.
            let mut vals: Vec<FxHashMap<MeshEnt, u64>> = dm
                .parts
                .iter()
                .map(|p| {
                    p.mesh
                        .iter(Dim::Vertex)
                        .map(|v| {
                            (
                                v,
                                if p.is_owned(v) && !p.is_ghost(v) {
                                    p.gid_of(v)
                                } else {
                                    0
                                },
                            )
                        })
                        .collect()
                })
                .collect();
            ov.bcast(
                c,
                &dm.map,
                Scope::All,
                &[Dim::Vertex],
                &mut vals,
                |_, _, _| true,
                |vals, run, w| {
                    let ents = run.valued().map(MeshEnt::vertex);
                    ents.for_each(|e| w.put_u64(vals[run.slot][&e]))
                },
                |vals, run, r| {
                    run.valued().try_for_each(|i| {
                        let v = r.try_get_u64()?;
                        vals[run.slot].insert(MeshEnt::vertex(i), v);
                        Ok(())
                    })
                },
            );
            // Every copy (boundary or ghost) now carries the root's gid.
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    assert_eq!(vals[slot][&v], part.gid_of(v), "vertex {v:?}");
                }
            }
            // Reduce(Add of ones) counts the copies of each root.
            let mut ones: Vec<FxHashMap<MeshEnt, u64>> = dm
                .parts
                .iter()
                .map(|p| p.mesh.iter(Dim::Vertex).map(|v| (v, 1u64)).collect())
                .collect();
            ov.reduce(
                c,
                &dm.map,
                Scope::All,
                &[Dim::Vertex],
                &mut ones,
                |_, _, _| true,
                |ones, run, w| {
                    let ents = run.valued().map(MeshEnt::vertex);
                    ents.for_each(|e| w.put_u64(ones[run.slot][&e]))
                },
                |ones, run, r| {
                    run.valued().try_for_each(|i| {
                        let v = r.try_get_u64()?;
                        *ones[run.slot].get_mut(&MeshEnt::vertex(i)).unwrap() += v;
                        Ok(())
                    })
                },
            );
            let slot = dm.map.slot_of(c.rank() as PartId);
            let part = &dm.parts[slot];
            for (e, shares) in ov.roots_sorted(slot) {
                if e.dim() != Dim::Vertex {
                    continue;
                }
                assert_eq!(
                    ones[slot][&e],
                    1 + shares.len() as u64,
                    "root {e:?} on part {}",
                    part.id
                );
            }
        });
    }

    /// A bcast frame from part 0 to part 1 on the quadrant split, over
    /// their shared vertices: the value of list position `k` is `k`, and the
    /// positions in `absent` have none.
    fn vertex_frame(digest: u64, len: u32, absent: &[u32]) -> Vec<u8> {
        let mut w = MsgWriter::new();
        w.put_u64(digest);
        w.put_u8(0);
        (0..len)
            .filter(|k| !absent.contains(k))
            .for_each(|k| w.put_u64(u64::from(k)));
        let w = frame_tail(w, len, absent.to_vec()).expect("a value to carry");
        w.finish().to_vec()
    }

    /// Decode `frame`, sent by part `from`, at part 1's leaves as
    /// `bcast` does: the values read, in list order.
    fn decode_at_part_1(
        sh: &SlotShares,
        from: PartId,
        frame: Vec<u8>,
    ) -> Result<Vec<u64>, MsgError> {
        let f = FrameIn::open(sh, Side::Leaves, from, MsgReader::from_vec(frame))?;
        let mut buf = Vec::new();
        let list = sh.list(Side::Leaves, f.peer, &[Dim::Vertex], Scope::All, &mut buf);
        let mut got = Vec::new();
        f.apply(1, &list, |run, r| {
            for _ in run.valued() {
                got.push(r.try_get_u64()?);
            }
            Ok(())
        })?;
        Ok(got)
    }

    /// The run packer writes the bytes the old writer wrote: on part 1's
    /// vertex list for part 0, with no gap, with gaps, with one value and
    /// with none, the value of list position `k` being `k`.
    #[test]
    fn packed_frames_match_the_old_writer() {
        execute(1, |c| {
            let sh = Overlap::from_dist(&quadrants_one_rank(c)).shares[1].clone();
            let peer = sh
                .peers
                .binary_search(&0)
                .expect("part 0 is a peer of part 1");
            let digest = sh.digests[Side::Leaves as usize][peer];
            let mut buf = Vec::new();
            let list = sh.list(Side::Leaves, peer, &[Dim::Vertex], Scope::All, &mut buf);
            let len = list.entities() as u32;
            let pos = |e: MeshEnt| {
                let run = list.iter().next().expect("one run").1;
                run.iter()
                    .position(|&i| i == e.index())
                    .expect("on the list") as u32
            };
            let all: Vec<u32> = (0..len).collect();
            for absent in [&[][..], &[1, 2], &all[1..], &all[..]] {
                let has = |e| !absent.contains(&pos(e));
                let pack = |run: Run<'_>, w: &mut MsgWriter| {
                    run.valued()
                        .for_each(|i| w.put_u64(u64::from(pos(MeshEnt::vertex(i)))))
                };
                let mut bits = Vec::new();
                let packed = frame_out(digest, 1, &list, &mut bits, has, pack);
                let packed = packed.map(|w| w.finish().to_vec());
                let want = (absent.len() < len as usize).then(|| vertex_frame(digest, len, absent));
                assert_eq!(packed, want, "{} of {len} absent", absent.len());
            }
        });
    }

    #[test]
    fn damaged_frames_are_typed_errors() {
        execute(1, |c| {
            let dm = quadrants_one_rank(c);
            let sh = Overlap::from_dist(&dm).shares[1].clone();
            let peer = sh
                .peers
                .binary_search(&0)
                .expect("part 0 is a peer of part 1");
            let digest = sh.digests[Side::Leaves as usize][peer];
            let mut len = 0;
            sh.walk(Side::Leaves, &[Dim::Vertex], Scope::All, |_, s| {
                len += u32::from(usize::from(s.peer) == peer)
            });
            assert!(len % 8 != 0 && len > 3, "{len} shared vertices");
            let whole = vertex_frame(digest, len, &[]);
            let gappy = vertex_frame(digest, len, &[1, 2]);
            assert_eq!(gappy[8], 1, "a gap sends a bitmap");
            let decode = |frame: &[u8]| decode_at_part_1(&sh, 0, frame.to_vec());
            assert_eq!(decode(&whole), Ok((0..u64::from(len)).collect()));
            let skip = (0..u64::from(len)).filter(|k| !matches!(k, 1 | 2));
            assert_eq!(decode(&gappy), Ok(skip.collect()));

            let truncated = &whole[..whole.len() - 1];
            assert!(matches!(decode(truncated), Err(MsgError::Underrun { .. })));
            let extra = [whole.as_slice(), &7u64.to_le_bytes()].concat();
            assert!(matches!(decode(&extra), Err(MsgError::Corrupt { .. })));
            for (frame, presence) in [(&whole, 1), (&gappy, 0), (&whole, 2)] {
                let mut flipped = frame.clone();
                flipped[8] = presence;
                assert!(
                    decode(&flipped).is_err(),
                    "presence byte {presence} accepted"
                );
            }
            let mut past = gappy.clone();
            past[13 + len as usize / 8] |= 1 << (len % 8);
            assert!(matches!(decode(&past), Err(MsgError::Corrupt { .. })));
            let stranger = decode_at_part_1(&sh, 9, whole.clone());
            assert!(matches!(stranger, Err(MsgError::Corrupt { .. })));
            // Another list of the same length: one root index differs.
            let mut other = sh.clone();
            let i = other
                .leaf_roots
                .iter()
                .position(|r| usize::from(r.peer) == peer)
                .unwrap();
            other.leaf_roots[i].index += 1;
            let forged = vertex_frame(other.digest(Side::Leaves)[peer], len, &[]);
            assert!(matches!(decode(&forged), Err(MsgError::Corrupt { .. })));
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random damage to a values-only frame — one byte overwritten, a
        /// cut at any shorter length, or 1 to 16 bytes appended — decodes
        /// to a typed error or to at most the list's length of values,
        /// never a panic. Whole and gappy frames from part 0 to part 1's
        /// vertex leaves, as in `damaged_frames_are_typed_errors`.
        #[test]
        fn damaged_frames_decode_to_errors_or_bounded_values(
            gappy in proptest::bool::ANY,
            damage in 0u8..3,
            at in 0usize..1 << 20,
            byte in 0u8..=255,
            extra in proptest::collection::vec(0u8..=255, 1..17),
        ) {
            let sh = execute(1, |c| Overlap::from_dist(&quadrants_one_rank(c)).shares[1].clone())
                .pop()
                .expect("one rank");
            let peer = sh.peers.binary_search(&0).expect("part 0 is a peer of part 1");
            let mut len = 0;
            sh.walk(Side::Leaves, &[Dim::Vertex], Scope::All, |_, s| {
                len += u32::from(usize::from(s.peer) == peer)
            });
            let absent: &[u32] = if gappy { &[1, 2] } else { &[] };
            let mut frame = vertex_frame(sh.digests[Side::Leaves as usize][peer], len, absent);
            match damage {
                0 => {
                    let i = at % frame.len();
                    frame[i] = byte;
                }
                1 => frame.truncate(at % frame.len()),
                _ => frame.extend_from_slice(&extra),
            }
            if let Ok(values) = decode_at_part_1(&sh, 0, frame) {
                proptest::prop_assert!(values.len() <= len as usize, "{} values", values.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "stale overlap: slot 0 (part 0)")]
    fn bcast_tags_refuses_a_handle_from_before_a_clear() {
        execute(1, |c| {
            let mut dm = quadrants_one_rank(c);
            let mut ov = Overlap::from_dist(&dm);
            ov.grow(c, &mut dm, 1);
            // Not `ov.clear`: the ghosts go, the handle still lists them.
            clear_overlap(&mut dm);
            ov.bcast_tags(c, &mut dm, Scope::Ghosts);
        });
    }

    #[test]
    #[should_panic(expected = "stale overlap")]
    fn grow_refuses_a_handle_from_before_a_clear() {
        execute(2, |c| {
            let mut dm = strip_two_parts(c);
            let mut ov = Overlap::from_dist(&dm);
            ov.grow(c, &mut dm, 1);
            // Not `ov.clear`: layer 1 is gone, the handle still has it
            // shipped and would grow layer 2 around a gap.
            clear_overlap(&mut dm);
            ov.grow(c, &mut dm, 1);
        });
    }

    #[test]
    #[should_panic(expected = "stale overlap")]
    fn grow_refuses_a_handle_from_before_a_migrate() {
        execute(1, |c| {
            let mut dm = quadrants_one_rank(c);
            let mut ov = Overlap::from_dist(&dm);
            let el = dm.part(0).mesh.elems().next().expect("part 0 has elements");
            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            plans.entry(0).or_default().send(el, 1);
            migrate(c, &mut dm, &plans);
            ov.grow(c, &mut dm, 1);
        });
    }

    #[test]
    fn bcast_tags_pushes_owner_values_to_ghosts() {
        execute(2, |c| {
            let mut dm = strip_two_parts(c);
            let pid = c.rank() as PartId;
            {
                let part = dm.part_mut(pid);
                let tid = part.mesh.tags_mut().declare("load", TagKind::Int, 1);
                for e in part.mesh.snapshot(Dim::Face) {
                    part.mesh.tags_mut().set_int(tid, e, pid as i64);
                }
            }
            let mut ov = Overlap::from_dist(&dm);
            ov.grow(c, &mut dm, 1);
            {
                let part = dm.part_mut(pid);
                let tid = part.mesh.tags().find("load").unwrap();
                for e in part.mesh.snapshot(Dim::Face) {
                    if !part.is_ghost(e) {
                        part.mesh.tags_mut().set_int(tid, e, 100 + pid as i64);
                    }
                }
            }
            ov.bcast_tags(c, &mut dm, Scope::Ghosts);
            let part = dm.part(pid);
            let tid = part.mesh.tags().find("load").unwrap();
            for e in part.mesh.elems() {
                if part.is_ghost(e) {
                    assert_eq!(
                        part.mesh.tags().get_int(tid, e),
                        Some(100 + (1 - pid as i64))
                    );
                }
            }
        });
    }
}
