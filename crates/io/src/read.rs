//! Parallel checkpoint reader with N→M repartition-on-load.
//!
//! A checkpoint written from N parts can be restored onto any M ranks; rank
//! `r` always ends with one part, numbered `r`, which it builds itself —
//! exactly slice `r` of `M` as `pumi-serve` restores it ([`slice_of`], then
//! [`PartRows::read`] and [`build_part`]); no element moves between ranks:
//!
//! * **M ≤ N** — the union of the file-part block `[r·N/M, (r+1)·N/M)`;
//!   when M = N its own part verbatim, ghost layers included.
//! * **M > N** — file part `p` fans out over the ranks `[p·M/N, (p+1)·M/N)`,
//!   each of which reads `p`'s rows and builds its piece ([`Pick::Piece`]).
//!
//! One [`stitch`] of (dimension, global id, local index) keys links the
//! parts. An entity is announced to the other pieces of its file part that
//! hold it (the cut says which) and, for each other file part its Remotes
//! row names, to every rank building from it; a non-holder drops those.
//!
//! Ghost layers are dropped when N ≠ M (re-grow with
//! `pumi_core::overlap::grow_overlap` after the restore); global-id
//! counters are floored at the global maximum so ids minted after a restore
//! never collide with checkpointed ones. Every entry point is collective
//! and returns `Err` on *every* rank when any rank fails.
//!
//! Input is checked where it is decoded ([`crate::load`]'s refusals are
//! [`IoError::Decode`]); the Remotes rows are checked against each other:
//! within a merged block locally, row against row, and across ranks by
//! comparing each row with the links the stitch delivered — exactly the
//! file part's other pieces that hold the entity, at least one rank of
//! every other part the row names, none from anywhere else — and, in one
//! exchange, each copy's residence set with its peers'. One allreduce makes
//! a mismatch [`IoError::Verify`] on every rank.

use crate::error::IoError;
use crate::format::{parse_manifest, Manifest, MANIFEST_FILE};
use crate::load::{build_part, Built, DirSource, PartRows, Pick};
use crate::FIELD_TAG_PREFIX;
use pumi_core::wire::{get_dim, get_link, put_link, stitch};
use pumi_core::{DistMesh, Part, PartExchange, PartMap};
use pumi_field::{DistField, Field};
use pumi_pcu::{Comm, MsgError, MsgReader, MsgWriter};
use pumi_util::tag::TagData;
use pumi_util::{Dim, FxHashMap, FxHashSet, GlobalId, MeshEnt, PartId};
use std::ops::Range;
use std::path::Path;

/// Statistics from a completed restore.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStats {
    /// Parts in the checkpoint (N).
    pub nparts_in: usize,
    /// Bytes read across the world (a part fanned out over k ranks: k times).
    pub bytes_global: u64,
    /// Whether the restore repartitioned (N ≠ M).
    pub redistributed: bool,
    /// Elements moved between ranks: always 0, since every rank builds its
    /// own part. Kept only because `benchmark/src/calls.rs` reads it.
    pub elements_moved: u64,
}

/// A restored checkpoint: the mesh, its fields (in manifest order), and
/// restore statistics.
pub struct Restored {
    /// The distributed mesh, one part per rank after any redistribution.
    pub dm: DistMesh,
    /// Fields in manifest order, each aligned with `dm.parts`.
    pub fields: Vec<DistField>,
    /// Restore statistics.
    pub stats: ReadStats,
}

/// One entity the rank's part announces, from its Remotes row (`row`,
/// empty for none) and the cut.
struct Expected<'a> {
    dim: Dim,
    gid: GlobalId,
    /// `None` for a Remotes row naming an entity its file part lacks.
    ent: Option<MeshEnt>,
    row: &'a [PartId],
    /// The ranks it is announced to, ascending: the other pieces of its
    /// file part that hold it, and every rank in `named`.
    targets: Vec<PartId>,
    /// For each other file part the row names, the ranks building from it.
    named: Vec<Range<usize>>,
}

/// What rank `part.id` announces: each entity of its block's Remotes rows
/// once (the lowest file part's row), then each other entity other pieces
/// of its file part hold (`siblings`). Rows naming only file parts the rank
/// builds from (interior entities) and rows for entities another piece
/// builds are dropped.
fn expected<'a>(
    block: &'a [PartRows],
    fparts: &Range<usize>,
    part: &Part,
    siblings: &[(MeshEnt, Vec<PartId>)],
    builders: &[Range<usize>],
) -> Vec<Expected<'a>> {
    let sibs: FxHashMap<MeshEnt, &[PartId]> = siblings.iter().map(|(e, s)| (*e, &s[..])).collect();
    let rows = block.iter().flat_map(|rows| {
        let remotes = rows.remotes.iter();
        remotes.map(move |(dim, gid, row)| (rows, *dim, *gid, &row[..]))
    });
    // A sibling's row check never runs: the entity is built.
    let rest = siblings
        .iter()
        .map(|(e, _)| (&block[0], e.dim(), part.gid_of(*e), &[][..]));
    let mut seen: FxHashSet<(Dim, GlobalId)> = FxHashSet::default();
    let mut out = Vec::new();
    for (rows, dim, gid, row) in rows.chain(rest) {
        let ent = part.find_gid(dim, gid);
        if !seen.insert((dim, gid)) || (ent.is_none() && rows.holds(dim, gid)) {
            continue;
        }
        let mut named: Vec<Range<usize>> = row
            .iter()
            .filter(|&&q| !fparts.contains(&(q as usize)))
            .map(|&q| builders[q as usize].clone())
            .collect();
        named.dedup();
        let mut targets = ent
            .and_then(|e| sibs.get(&e))
            .map_or(vec![], |s| s.to_vec());
        targets.extend(named.iter().flat_map(|rs| rs.clone().map(|r| r as PartId)));
        targets.sort_unstable();
        if !targets.is_empty() {
            out.push(Expected {
                dim,
                gid,
                ent,
                row,
                targets,
                named,
            });
        }
    }
    out
}

/// Compare what part `part` expected with the links the stitch built: every
/// link must come from a target, every target in the part's own block
/// (`own`, the ranks building from its file parts) must link, and so must
/// at least one rank of each named file part; an entity that received links
/// must be expected. Local (no message); returns one line per disagreement.
fn unmatched_links(part: &Part, own: &Range<usize>, expected: &[Expected]) -> Vec<String> {
    let p = part.id;
    let mut errs = Vec::new();
    let mut rowed = FxHashSet::default();
    for x in expected {
        let (dim, gid, row) = (x.dim, x.gid, x.row);
        let links = x.ent.map_or(&[][..], |e| part.remotes_of(e));
        let linked = |r: usize| links.iter().any(|&(q, _)| q as usize == r);
        for rs in x.named.iter().filter(|&rs| !rs.clone().any(linked)) {
            errs.push(format!(
                "part {p}: {dim} gid {gid}: row {row:?}, no link from ranks {rs:?}"
            ));
        }
        let targeted = |q: &PartId| x.targets.binary_search(q).is_ok();
        let stray = links.iter().any(|(q, _)| !targeted(q));
        let mut own_targets = x.targets.iter().filter(|&&r| own.contains(&(r as usize)));
        if stray || own_targets.any(|&r| !linked(r as usize)) {
            errs.push(format!(
                "part {p}: {dim} gid {gid}: row {row:?}, links {links:?}"
            ));
        }
        rowed.extend(x.ent);
    }
    for (e, _) in part.shared_entities() {
        if !rowed.contains(&e) {
            let (dim, gid) = (e.dim(), part.gid_of(e));
            errs.push(format!("part {p}: {dim} gid {gid}: linked, no Remotes row"));
        }
    }
    errs
}

/// Send each copy's residence set over every link and compare it with the
/// receiver's. Rows can match their links pair by pair and still disagree
/// as sets (part 1 `[1,2]`, part 2 `[1,2,3]`, part 3 `[2,3]`), and then the
/// copies pick different owners. Where [`unmatched_links`] finds nothing the
/// links are symmetric, and two linked copies with one link each agree, so
/// only copies with two or more links send.
/// Collective (one exchange); returns one line per disagreement.
fn split_residences(comm: &Comm, dm: &DistMesh) -> Vec<String> {
    let mut ex = PartExchange::new(comm, &dm.map);
    for part in &dm.parts {
        for (e, links) in part.shared_entities() {
            if links.len() < 2 {
                continue;
            }
            let res = part.residence(e);
            for &(q, ridx) in links {
                let w = ex.to(part.id, q);
                w.put_u8(e.dim().as_usize() as u8);
                w.put_u32(ridx);
                w.put_u32_slice(&res);
            }
        }
    }
    let mut errs = Vec::new();
    for (from, to, mut r) in ex.finish() {
        let part = dm.part(to);
        while !r.is_done() {
            // The stitch took `ridx` from `to`'s own announcement.
            let e = MeshEnt::new(Dim::from_usize(r.get_u8() as usize), r.get_u32());
            let (theirs, mine) = (r.get_u32_slice(), part.residence(e));
            if theirs != mine {
                let (dim, gid) = (e.dim(), part.gid_of(e));
                errs.push(format!(
                    "part {to}: {dim} gid {gid}: residence {mine:?}, {theirs:?} on part {from}"
                ));
            }
        }
    }
    errs
}

/// The balanced-block rule every restore path shares: item `i` of `of`
/// covers `[i·over/of, (i+1)·over/of)` of `over`. With N file parts and M
/// readers, reader `r` takes whole parts `balanced_block(r, M, N)` when
/// M ≤ N, and file part `p` fans out over readers `balanced_block(p, N, M)`
/// when M > N. ([`PartMap::balanced_blocks`] is the same rule as a map.)
pub fn balanced_block(i: usize, of: usize, over: usize) -> Range<usize> {
    i * over / of..(i + 1) * over / of
}

/// What rank (or slice) `i` of `m` reads and builds from an `n`-part
/// checkpoint, for [`read_checkpoint`] and `pumi-serve` alike: the whole
/// file-part block `balanced_block(i, m, n)` when M ≤ N; when M > N, the
/// file part `p` whose fan-out block `balanced_block(p, n, m)` holds `i`,
/// and of it piece `i − start` of the block's length (all of it for one).
pub fn slice_of(i: usize, m: usize, n: usize) -> (Range<usize>, Pick) {
    if m <= n {
        return (balanced_block(i, m, n), Pick::Whole);
    }
    let p = ((i + 1) * n - 1) / m; // the last part whose block starts at or before `i`
    let ranks = balanced_block(p, n, m);
    let pick = match ranks.len() {
        1 => Pick::Whole,
        k => Pick::Piece(i - ranks.start, k),
    };
    (p..p + 1, pick)
}

/// The ranks that build from each of `n` file parts on `m` ranks, by
/// [`slice_of`]: one per part when M ≤ N, its fan-out block when M > N.
fn builders(m: usize, n: usize) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::with_capacity(n);
    for i in 0..m {
        for q in slice_of(i, m, n).0 {
            // Ranks take file parts in ascending order.
            match out.get_mut(q) {
                Some(ranks) => ranks.end = i + 1,
                None => out.push(i..i + 1),
            }
        }
    }
    out
}

/// Read the manifest on rank 0 and broadcast it.
pub(crate) fn manifest_bcast(comm: &Comm, dir: &Path) -> Result<Manifest, IoError> {
    let path = dir.join(MANIFEST_FILE);
    let mut w = MsgWriter::new();
    if comm.rank() == 0 {
        match std::fs::read(&path) {
            Ok(data) => {
                w.put_u8(1);
                w.put_bytes(&data);
            }
            Err(e) => {
                w.put_u8(0);
                w.put_bytes(e.to_string().as_bytes());
            }
        }
    }
    let blob = comm.bcast_bytes(0, w.finish());
    let mut r = MsgReader::new(blob);
    let framing = |e: MsgError| IoError::Manifest {
        path: path.clone(),
        detail: format!("broadcast framing: {e}"),
    };
    let ok = r.try_get_u8().map_err(framing)?;
    let body = r.try_get_bytes().map_err(framing)?;
    if ok == 0 {
        return Err(IoError::Manifest {
            path,
            detail: String::from_utf8_lossy(&body).into_owned(),
        });
    }
    parse_manifest(&path, &body)
}

/// Compare the Remotes rows of the file parts one rank merges, row against
/// row, as the stitch, [`unmatched_links`] and [`split_residences`] compare
/// them across ranks. For file parts `p` and `q` of the block: a row of
/// `p` naming `q` needs `q` to hold the entity (else the stitch could not
/// have resolved it), to have a row for it, and that row to name `p` back;
/// two rows naming each other must be the same set. A row for an entity
/// its part does not hold must name no other part. Local; returns one line
/// per disagreement.
fn block_row_errors(block: &[PartRows]) -> Vec<String> {
    let mut errs = Vec::new();
    let [head, _, ..] = block else {
        return errs; // one part: nothing to compare locally
    };
    let first = head.fpart();
    let member = |q: PartId| block.get(q.checked_sub(first)? as usize);
    let row_of: Vec<FxHashMap<(Dim, GlobalId), &[PartId]>> = block
        .iter()
        .map(|rows| {
            rows.remotes
                .iter()
                .map(|(d, g, res)| ((*d, *g), res.as_slice()))
                .collect()
        })
        .collect();
    for rows in block {
        let p = rows.fpart();
        for (dim, gid, res) in &rows.remotes {
            let (dim, gid) = (*dim, *gid);
            if !rows.holds(dim, gid) {
                if res.iter().any(|&q| q != p) {
                    errs.push(format!("part {p}: {dim} gid {gid}: row {res:?}, links []"));
                }
                continue;
            }
            for &q in res.iter().filter(|&&q| q != p) {
                let Some(peer) = member(q) else { continue };
                if !peer.holds(dim, gid) {
                    let missing = MsgError::missing("stitch target", dim.as_usize() as u8, gid);
                    errs.push(format!("remote-copy stitch {p}->{q}: {missing}"));
                    continue;
                }
                match row_of[(q - first) as usize].get(&(dim, gid)) {
                    None => errs.push(format!("part {q}: {dim} gid {gid}: linked, no Remotes row")),
                    Some(theirs) if !theirs.contains(&p) => errs.push(format!(
                        "part {p}: {dim} gid {gid}: row {res:?}, part {q}'s row {theirs:?} omits it"
                    )),
                    Some(theirs) if theirs != res => errs.push(format!(
                        "part {p}: {dim} gid {gid}: residence {res:?}, {theirs:?} on part {q}"
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    errs
}

/// Restore a checkpoint from `dir` onto `comm.nranks()` ranks, regardless
/// of how many parts it was written from. See the module docs for the
/// N→M policy. Collective; on failure every rank returns an error: a
/// part file that does not load is the loading rank's error and
/// [`IoError::PeerFailed`] elsewhere; boundary rows that disagree with each
/// other or with the links they produce are [`IoError::Verify`] on every
/// rank.
pub fn read_checkpoint(comm: &Comm, dir: &Path) -> Result<Restored, IoError> {
    let _span = pumi_obs::span!("io.read");
    let manifest = manifest_bcast(comm, dir)?;
    let n = manifest.nparts as usize;
    let m = comm.nranks();
    let rank = comm.rank();
    let elem_dim = manifest.elem_dim as usize;
    let skip_ghosts = n != m;
    let (fparts, pick) = slice_of(rank, m, n);

    let mut block: Vec<PartRows> = Vec::new();
    let built = fparts
        .clone()
        .try_for_each(|p| {
            block.push(PartRows::read(&manifest, p as PartId, &DirSource(dir))?);
            Ok(())
        })
        .and_then(|()| build_part(rank as PartId, &block, pick, skip_ghosts));
    let bytes_local: u64 = block.iter().map(PartRows::bytes).sum();
    pumi_obs::metrics::counter_add("io.read.bytes", bytes_local);
    let sums = comm.allreduce_sum_u64_vec(&[built.is_err() as u64, bytes_local]);
    let Built {
        mut part,
        ghosts,
        siblings,
    } = match built {
        Ok(_) if sums[0] > 0 => return Err(IoError::PeerFailed { failures: sums[0] }),
        built => built?,
    };
    let bytes_global = sums[1];

    // Floor every gid counter at the global max so ids minted after the
    // restore stay disjoint from every checkpointed id.
    let counter = block.iter().map(PartRows::gid_counter).max().unwrap_or(0);
    part.bump_gid_counter(comm.allreduce_max_u64(counter));

    // Link the ranks. What the checks and the stitch (and the ghost relink
    // below) cannot apply is kept, not acted on: a rank that stopped here
    // would hang its peers in the next collective. One allreduce after the
    // relink agrees on it.
    let link = pumi_obs::span!("io.link");
    let builders = builders(m, n);
    let own = builders[fparts.start].clone();
    let mut link_errs = block_row_errors(&block);
    let expected = expected(&block, &fparts, &part, &siblings, &builders);
    let announce: Vec<(MeshEnt, &[PartId])> = expected
        .iter()
        .filter_map(|x| Some((x.ent?, &x.targets[..])))
        .collect();
    let mut dm = DistMesh {
        map: PartMap::contiguous(m, m),
        parts: vec![part],
    };
    link_errs.extend(
        stitch(comm, &mut dm, &[announce])
            .into_iter()
            // An announcement from another file part's ranks to a block of
            // several is a candidate: a rank that lacks the entity drops it.
            .filter(|(from, _, e)| {
                own.len() == 1
                    || own.contains(&(*from as usize))
                    || !matches!(e, MsgError::Missing { .. })
            })
            .map(|(from, to, e)| format!("remote-copy stitch {from}->{to}: {e}")),
    );
    link_errs.extend(unmatched_links(&dm.parts[0], &own, &expected));
    link_errs.extend(split_residences(comm, &dm));

    // Relink ghost layers (only on an N = N restore; dropped otherwise).
    if manifest.has_ghosts && !skip_ghosts {
        let mut ex = PartExchange::new(comm, &dm.map);
        let part = &dm.parts[0];
        for &(ent, src) in &ghosts {
            put_link(
                ex.to(part.id, src),
                ent.dim(),
                part.gid_of(ent),
                ent.index(),
            );
        }
        // (owner part → holder part, dim, holder idx, owner idx)
        let mut replies: Vec<(PartId, PartId, u8, u32, u32)> = Vec::new();
        let mut frames = ex.finish();
        frames.sort_by_key(|&(from, to, _)| (to, from));
        for (from, to, mut r) in frames {
            let part = dm.part_mut(to);
            while !r.is_done() {
                match get_link(&mut r) {
                    Ok((d, gid, holder_idx)) => {
                        if let Some(owner_ent) = part.find_gid(d, gid) {
                            part.record_ghost_holder(owner_ent, (from, holder_idx));
                            let d = d.as_usize() as u8;
                            replies.push((to, from, d, holder_idx, owner_ent.index()));
                        }
                    }
                    Err(e) => {
                        link_errs.push(format!("ghost announce {from}->{to}: {e}"));
                        break;
                    }
                }
            }
        }
        let mut ex = PartExchange::new(comm, &dm.map);
        for (owner, holder, d, holder_idx, owner_idx) in replies {
            let w = ex.to(owner, holder);
            w.put_u8(d);
            w.put_u32(holder_idx);
            w.put_u32(owner_idx);
        }
        let mut frames = ex.finish();
        frames.sort_by_key(|&(from, to, _)| (to, from));
        for (from, to, mut r) in frames {
            let part = dm.part_mut(to);
            while !r.is_done() {
                let row = get_dim(&mut r)
                    .and_then(|d| Ok((MeshEnt::new(d, r.try_get_u32()?), r.try_get_u32()?)));
                match row {
                    Ok((e, owner_idx)) => part.set_ghost(e, (from, owner_idx)),
                    Err(e) => {
                        link_errs.push(format!("ghost reply {from}->{to}: {e}"));
                        break;
                    }
                }
            }
        }
    }
    if comm.allreduce_sum_u64(link_errs.len() as u64) > 0 {
        return Err(IoError::Verify { errors: link_errs });
    }

    drop(link);

    // Recover staged fields, in manifest order.
    let mut fields: Vec<DistField> = Vec::new();
    for desc in &manifest.fields {
        let tag_name = format!("{FIELD_TAG_PREFIX}{}", desc.name);
        let mut df: DistField = Vec::new();
        for part in &mut dm.parts {
            let mut f = Field::new(&desc.name, desc.shape, desc.ncomp as usize);
            if let Some(tid) = part.mesh.tags().find(&tag_name) {
                for &d in desc.shape.node_dims(elem_dim) {
                    let ents: Vec<MeshEnt> = part.mesh.iter(d).collect();
                    for e in ents {
                        if let Some(TagData::Dbls(v)) = part.mesh.tags_mut().remove(tid, e) {
                            f.set(e, &v);
                        }
                    }
                }
            }
            df.push(f);
        }
        fields.push(df);
    }

    Ok(Restored {
        dm,
        fields,
        stats: ReadStats {
            nparts_in: n,
            bytes_global,
            redistributed: n != m,
            elements_moved: 0,
        },
    })
}
