//! Parallel checkpoint reader with N→M repartition-on-load.
//!
//! A checkpoint written from N parts can be restored onto any M ranks; rank
//! `r` always ends with one part, numbered `r`:
//!
//! * **M = N** — each rank builds its part verbatim, including ghost
//!   layers.
//! * **M < N** — rank `r` builds one part from the rows of the file-part
//!   block `[r·N/M, (r+1)·N/M)` (their union; no migration).
//! * **M > N** — file part `p` is built on rank `p·M/N` and split across
//!   the block `[p·M/N, (p+1)·M/N)` along the Morton cut the slice service
//!   uses, through one `migrate`.
//!
//! Every part comes from the one loader in [`crate::load`]: rows decoded
//! from the files ([`PartRows::read`]), then one build
//! ([`build_part`]). Remote-copy links between ranks are rebuilt by one
//! phased exchange of (dimension, global id, local index) keys over the
//! residence sets the files record, each file part mapped to the rank that
//! builds it.
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
//! comparing each row with the links the stitch delivered and, in one
//! exchange, each copy's residence set with its peers'. One allreduce makes
//! a mismatch [`IoError::Verify`] on every rank.

use crate::error::IoError;
use crate::format::{parse_manifest, Manifest, MANIFEST_FILE};
use crate::load::{build_part, morton_pieces, Built, DirSource, PartRows, Pick};
use crate::FIELD_TAG_PREFIX;
use pumi_core::wire::{get_dim, get_link, put_link, stitch};
use pumi_core::{migrate, DistMesh, MigrationPlan, Part, PartExchange, PartMap};
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
    /// Bytes read across the world.
    pub bytes_global: u64,
    /// Whether the restore repartitioned (N ≠ M).
    pub redistributed: bool,
    /// Elements moved between ranks (global): the split's migration; a
    /// merge moves none.
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

/// Compare part `part`'s Remotes rows with the links the stitch built: the
/// peers a row names must be exactly the parts that announced the entity,
/// and an entity that received links must have a row. Local (no message);
/// returns one line per disagreement.
fn unmatched_rows(part: &Part, rows: &[(Dim, GlobalId, Vec<PartId>)]) -> Vec<String> {
    let p = part.id;
    let mut errs = Vec::new();
    let mut rowed = FxHashSet::default();
    for (dim, gid, res) in rows {
        // Residence is written sorted, with this part in it.
        let peers = res.iter().copied().filter(|&q| q != p);
        let ent = part.find_gid(*dim, *gid);
        let links = ent.map_or(&[][..], |e| part.remotes_of(e));
        if !peers.eq(links.iter().map(|&(q, _)| q)) {
            errs.push(format!(
                "part {p}: {dim} gid {gid}: row {res:?}, links {links:?}"
            ));
        }
        rowed.extend(ent);
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
/// copies pick different owners. Where [`unmatched_rows`] finds nothing the
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
/// row, as the stitch, [`unmatched_rows`] and [`split_residences`] compare
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

/// The block's Remotes rows as rows of the part rank `rank` builds: each
/// entity once, from the lowest file part with a row for it, its residence
/// mapped through `home` (file part → rank). Rows whose residence is this
/// rank alone describe entities interior to the merged part and are
/// dropped.
fn rank_rows(block: &[PartRows], home: &[usize], rank: usize) -> Vec<(Dim, GlobalId, Vec<PartId>)> {
    let mut seen: FxHashSet<(Dim, GlobalId)> = FxHashSet::default();
    let mut out = Vec::new();
    for rows in block {
        for (dim, gid, res) in &rows.remotes {
            if !seen.insert((*dim, *gid)) {
                continue;
            }
            let mut ranks: Vec<PartId> = res.iter().map(|&q| home[q as usize] as PartId).collect();
            ranks.sort_unstable();
            ranks.dedup();
            if ranks.iter().any(|&r| r as usize != rank) {
                out.push((*dim, *gid, ranks));
            }
        }
    }
    out
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

    // The rank that builds each file part: the owner of its block when
    // N ≥ M, the first rank of its fan-out block when N < M.
    let mut home = vec![0usize; n];
    if n >= m {
        for r in 0..m {
            balanced_block(r, m, n).for_each(|p| home[p] = r);
        }
    } else {
        for (p, h) in home.iter_mut().enumerate() {
            *h = balanced_block(p, n, m).start;
        }
    }

    let mut block: Vec<PartRows> = Vec::new();
    let mut local_err: Option<IoError> = None;
    for fpart in (0..n).filter(|&p| home[p] == rank) {
        match PartRows::read(&manifest, fpart as PartId, &DirSource(dir)) {
            Ok(rows) => block.push(rows),
            Err(e) => {
                local_err = Some(e);
                break;
            }
        }
    }
    let mut built = None;
    if local_err.is_none() && !block.is_empty() {
        match build_part(rank as PartId, &block, Pick::Whole, skip_ghosts) {
            Ok(b) => built = Some(b),
            Err(e) => local_err = Some(e),
        }
    }
    let bytes_local: u64 = block.iter().map(PartRows::bytes).sum();
    pumi_obs::metrics::counter_add("io.read.bytes", bytes_local);
    let sums = comm.allreduce_sum_u64_vec(&[local_err.is_some() as u64, bytes_local]);
    if sums[0] > 0 {
        return Err(local_err.unwrap_or(IoError::PeerFailed { failures: sums[0] }));
    }
    let bytes_global = sums[1];
    // A rank outside every fan-out block (N < M) starts empty.
    let Built { mut part, ghosts } = built.unwrap_or_else(|| Built {
        part: Part::new(rank as PartId, elem_dim),
        ghosts: Vec::new(),
    });

    // Floor every gid counter at the global max so ids minted after the
    // restore stay disjoint from every checkpointed id.
    let counter = block.iter().map(PartRows::gid_counter).max().unwrap_or(0);
    part.bump_gid_counter(comm.allreduce_max_u64(counter));

    // Link the ranks. What the checks and the stitch (and the ghost relink
    // below) cannot apply is kept, not acted on: a rank that stopped here
    // would hang its peers in the next collective. One allreduce after the
    // relink agrees on it.
    let link = pumi_obs::span!("io.link");
    let mut link_errs = block_row_errors(&block);
    let rows = rank_rows(&block, &home, rank);
    let announce: Vec<(MeshEnt, &[PartId])> = rows
        .iter()
        .filter_map(|(dim, gid, res)| Some((part.find_gid(*dim, *gid)?, res.as_slice())))
        .collect();
    let mut dm = DistMesh {
        map: PartMap::contiguous(m, m),
        parts: vec![part],
    };
    link_errs.extend(
        stitch(comm, &mut dm, &[announce])
            .into_iter()
            .map(|(from, to, e)| format!("remote-copy stitch {from}->{to}: {e}")),
    );
    link_errs.extend(unmatched_rows(&dm.parts[0], &rows));
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

    // N < M: each built file part fans out over its block along the Morton
    // cut `pumi-serve` slices with, through one migration.
    let mut elements_moved = 0u64;
    if n < m {
        let _span = pumi_obs::span!("io.redistribute");
        let d_elem = Dim::from_usize(elem_dim);
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        let part = &dm.parts[0];
        let k = block
            .first()
            .map_or(0, |rows| balanced_block(rows.fpart() as usize, n, m).len());
        if k > 1 {
            let elems: Vec<MeshEnt> = part.mesh.iter(d_elem).collect();
            let centroids: Vec<[f64; 3]> = elems.iter().map(|&e| part.mesh.centroid(e)).collect();
            let gids: Vec<GlobalId> = elems.iter().map(|&e| part.gid_of(e)).collect();
            let mut plan = MigrationPlan::new();
            for (&e, j) in elems.iter().zip(morton_pieces(&centroids, &gids, k)) {
                if j > 0 {
                    plan.send(e, part.id + j as PartId);
                }
            }
            plans.insert(part.id, plan);
        }
        elements_moved = migrate(comm, &mut dm, &plans).elements_moved;
    }

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
            elements_moved,
        },
    })
}
