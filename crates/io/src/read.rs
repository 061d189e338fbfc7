//! Parallel checkpoint reader with N→M repartition-on-load.
//!
//! A checkpoint written from N parts can be restored onto any M ranks:
//!
//! * **M = N** — each rank loads its parts verbatim, including ghost
//!   layers; remote-copy links are rebuilt by one phased exchange of
//!   (dimension, global id, local index) keys.
//! * **M < N** — rank `r` loads the part block `[r·N/M, (r+1)·N/M)` and
//!   merges it into a single part through the migration path.
//! * **M > N** — file part `p` loads onto rank `p·M/N` and is split across
//!   the block `[p·M/N, (p+1)·M/N)` with the local graph partitioner,
//!   again through migration.
//!
//! Ghost layers are dropped when N ≠ M (re-grow with
//! `pumi_core::overlap::grow_overlap` after the restore); global-id
//! counters are
//! floored at the global maximum so ids minted after a restore never
//! collide with checkpointed ones. Every entry point is collective and
//! returns `Err` on *every* rank when any rank fails.
//!
//! Parts are rebuilt from their files (base snapshot, then delta rounds)
//! by [`load_part`], the loader `pumi-serve` uses too; the two differ only
//! in the [`SectionSource`] they hand it. The block arithmetic above is
//! [`balanced_block`], shared the same way.
//!
//! Input is checked where it is decoded: [`load_part`] refuses
//! ([`IoError::Decode`]) an Entities row without its topology's number of
//! distinct vertex gids, an element that makes a side bound a third element,
//! and a Remotes row for an element; [`read_checkpoint`] compares each
//! Remotes row with the links the stitch delivered and, in one exchange,
//! each copy's residence set with its peers', and one allreduce makes a
//! mismatch [`IoError::Verify`] on every rank.

use crate::chunk::{decode_chunk, section_raw_bytes, ChunkHeader};
use crate::error::{IoError, Section};
use crate::format::{parse_manifest, Manifest, PartFile, MANIFEST_FILE};
use crate::FIELD_TAG_PREFIX;
use pumi_core::wire::{get_dim, get_link, put_link, stitch};
use pumi_core::{migrate, DistMesh, MigrationPlan, Part, PartExchange, PartMap};
use pumi_field::{DistField, Field};
use pumi_geom::GeomEnt;
use pumi_mesh::Topology;
use pumi_partition::partition_mesh;
use pumi_pcu::{Comm, MsgError, MsgReader, MsgWriter};
use pumi_util::tag::{TagData, TagKind};
use pumi_util::{Dim, FxHashMap, FxHashSet, GlobalId, MeshEnt, PartId};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Statistics from a completed restore.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStats {
    /// Parts in the checkpoint (N).
    pub nparts_in: usize,
    /// Bytes read across the world.
    pub bytes_global: u64,
    /// Whether an N→M redistribution ran.
    pub redistributed: bool,
    /// Elements moved by the redistribution (global).
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

fn bad(part: PartId, section: Section, detail: String) -> IoError {
    IoError::Decode {
        part,
        section,
        detail,
    }
}

fn derr(part: PartId, section: Section) -> impl Fn(MsgError) -> IoError {
    move |e| IoError::Decode {
        part,
        section,
        detail: e.to_string(),
    }
}

/// One part as [`load_part`] rebuilt it, with the per-part data that feeds
/// the collective reader's post-load stitching exchanges.
pub struct LoadedPart {
    /// The part: entities, tags, and field values staged as tags.
    pub part: Part,
    /// Part-boundary rows: (dim, gid, residence parts as written).
    pub res_rows: Vec<(Dim, GlobalId, Vec<PartId>)>,
    /// Ghost-holder rows: (local ghost entity, source part), in entity
    /// order. Empty when ghosts were skipped.
    pub ghost_rows: Vec<(MeshEnt, PartId)>,
    /// The highest fresh-gid counter any of the part's files recorded.
    pub gid_counter: u64,
    /// Bytes of the part files read (base plus delta rounds).
    pub bytes: u64,
}

/// Ghost provenance while a part loads, keyed by gid: local handles can be
/// invalidated by slot reuse across a delta round's deletions, gids cannot.
type GhostMap = FxHashMap<(Dim, GlobalId), PartId>;

/// One row of an Entities section.
struct EntityRow {
    gid: GlobalId,
    topo: Topology,
    class: GeomEnt,
    /// The source part, for a ghost copy.
    ghost_src: Option<PartId>,
    /// Vertex coordinates (dimension 0; zeros otherwise).
    coords: [f64; 3],
    /// Bounding vertex gids (dimensions ≥ 1; empty for a vertex).
    vgids: Vec<GlobalId>,
}

/// Parse and validate one Entities row of the dimension-`d` block — the
/// one place that knows the row layout. A row must name exactly its
/// topology's number of distinct vertices.
fn read_entity_row(fpart: PartId, r: &mut MsgReader, d: usize) -> Result<EntityRow, IoError> {
    let sec = Section::Entities;
    let e = &derr(fpart, sec);
    let gid = r.try_get_u64().map_err(e)?;
    let topo_code = r.try_get_u8().map_err(e)?;
    let class = GeomEnt(r.try_get_u32().map_err(e)?);
    let ghost_src = match r.try_get_u8().map_err(e)? {
        0 => None,
        _ => Some(r.try_get_u32().map_err(e)?),
    };
    let topo = Topology::try_from_u8(topo_code)
        .ok_or(MsgError::bad_enum("topology", topo_code))
        .map_err(e)?;
    if topo.dim().as_usize() != d {
        return Err(IoError::Decode {
            part: fpart,
            section: Section::Entities,
            detail: format!("topology {topo:?} in dimension-{d} block"),
        });
    }
    let (mut coords, mut vgids) = ([0.0; 3], Vec::new());
    if d == 0 {
        for x in &mut coords {
            *x = r.try_get_f64().map_err(e)?;
        }
    } else {
        vgids = r.try_get_u64_slice().map_err(e)?;
        let n = vgids.len();
        if n != topo.num_verts() {
            let detail = format!("entity gid {gid}: {n} vertex gids for a {topo:?}");
            return Err(bad(fpart, sec, detail));
        }
        if (1..n).any(|i| vgids[..i].contains(&vgids[i])) {
            let detail = format!("entity gid {gid}: repeated vertex gid in {vgids:?}");
            return Err(bad(fpart, sec, detail));
        }
    }
    Ok(EntityRow {
        gid,
        topo,
        class,
        ghost_src,
        coords,
        vgids,
    })
}

/// Decode an Entities section into the part. A base snapshot's rows are
/// all new and are inserted; a delta round's rows (`upsert`) update the
/// entity with the same gid in place when there is one. Ghost provenance
/// lands in `ghosts`; with `skip_ghosts`, ghost copies are dropped instead
/// (not created, or demoted top-down after the scan when a delta turns an
/// existing entity into one). An element whose insertion leaves one of its
/// sides bounding a third element is refused.
fn decode_entities(
    fpart: PartId,
    part: &mut Part,
    payload: Vec<u8>,
    upsert: bool,
    skip_ghosts: bool,
    ghosts: &mut GhostMap,
) -> Result<(), IoError> {
    let sec = Section::Entities;
    let e = derr(fpart, sec);
    let mut r = MsgReader::from_vec(payload);
    // Entities a delta turned into ghosts while ghosts are being skipped.
    let mut demote: Vec<MeshEnt> = Vec::new();
    let elem_dim = part.mesh.elem_dim();
    for d in 0..=elem_dim {
        let dim = Dim::from_usize(d);
        let n = r.try_get_u32().map_err(&e)?;
        for _ in 0..n {
            let row = read_entity_row(fpart, &mut r, d)?;
            let key = (dim, row.gid);
            let dropped = row.ghost_src.is_some() && skip_ghosts;
            match row.ghost_src {
                Some(src) if !skip_ghosts => {
                    ghosts.insert(key, src);
                }
                _ if upsert => {
                    ghosts.remove(&key);
                }
                _ => {}
            }
            // Only a delta row can name an entity the part already holds.
            let existing = if upsert {
                part.find_gid(dim, row.gid)
            } else {
                None
            };
            match existing {
                Some(ent) => {
                    if d == 0 {
                        part.mesh.set_coords(ent, row.coords);
                    }
                    part.mesh.set_class(ent, row.class);
                    if dropped {
                        demote.push(ent);
                    }
                }
                None if dropped => {}
                None => {
                    let (ent, fresh) = part
                        .create_by_gid(row.topo, row.gid, row.class, row.coords, &row.vgids)
                        .map_err(|g| IoError::Decode {
                            part: fpart,
                            section: Section::Entities,
                            detail: format!("entity gid {} references unknown vertex {g}", row.gid),
                        })?;
                    let (mesh, elem) = (&part.mesh, fresh && d == elem_dim);
                    if let Some(side) = mesh.down(ent).find(|&s| elem && mesh.up_count(s) > 2) {
                        let (gid, side) = (row.gid, part.gid_of(side));
                        let detail = format!("element gid {gid} is a third element on side {side}");
                        return Err(bad(fpart, sec, detail));
                    }
                }
            }
        }
    }
    demote.sort_by_key(|ent| std::cmp::Reverse(ent.dim().as_usize()));
    for ent in demote {
        if part.mesh.is_live(ent) {
            part.delete_entity(ent);
        }
    }
    Ok(())
}

/// Apply a delta round's Deleted section: per-dimension gid lists, removed
/// elements down to vertices.
fn apply_deleted(
    fpart: PartId,
    part: &mut Part,
    payload: Vec<u8>,
    ghosts: &mut GhostMap,
) -> Result<(), IoError> {
    let e = derr(fpart, Section::Deleted);
    let mut r = MsgReader::from_vec(payload);
    let mut deleted: [Vec<GlobalId>; 4] = Default::default();
    for slot in &mut deleted {
        *slot = r.try_get_u64_slice().map_err(&e)?;
    }
    for d in (0..4).rev() {
        let dim = Dim::from_usize(d);
        for &gid in &deleted[d] {
            ghosts.remove(&(dim, gid));
            if let Some(ent) = part.find_gid(dim, gid) {
                part.delete_entity(ent);
            }
        }
    }
    Ok(())
}

/// Decode a Remotes section. Elements are never shared, so a row at the
/// element dimension is refused.
fn decode_remotes(
    fpart: PartId,
    elem_dim: usize,
    payload: Vec<u8>,
) -> Result<Vec<(Dim, GlobalId, Vec<PartId>)>, IoError> {
    /// Dimension byte, gid, residence-list length: the least a row takes.
    const MIN_ROW: usize = 1 + 8 + 4;
    let sec = Section::Remotes;
    let e = derr(fpart, sec);
    let mut r = MsgReader::from_vec(payload);
    let n = r.try_get_u32().map_err(&e)?;
    let mut rows = Vec::with_capacity((n as usize).min(r.remaining() / MIN_ROW));
    for _ in 0..n {
        let d = get_dim(&mut r).map_err(&e)?;
        let gid = r.try_get_u64().map_err(&e)?;
        if d.as_usize() == elem_dim {
            let detail = format!("row for element gid {gid}: elements are never shared");
            return Err(bad(fpart, sec, detail));
        }
        rows.push((d, gid, r.try_get_u32_slice().map_err(&e)?));
    }
    Ok(rows)
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

fn decode_tags(
    fpart: PartId,
    part: &mut Part,
    payload: Vec<u8>,
    skip_ghosts: bool,
) -> Result<(), IoError> {
    let sec = Section::Tags;
    let e = derr(fpart, sec);
    let mut r = MsgReader::from_vec(payload);
    let ntags = r.try_get_u32().map_err(&e)?;
    for _ in 0..ntags {
        let name = r.try_get_bytes().map_err(&e)?;
        let name = String::from_utf8(name).map_err(|_| IoError::Decode {
            part: fpart,
            section: sec,
            detail: "tag name is not UTF-8".into(),
        })?;
        let kind = match r.try_get_u8().map_err(&e)? {
            0 => TagKind::Int,
            1 => TagKind::Double,
            2 => TagKind::Bytes,
            k => return Err(e(MsgError::bad_enum("tag kind", k))),
        };
        let len = r.try_get_u32().map_err(&e)? as usize;
        let nrows = r.try_get_u32().map_err(&e)?;
        let tid = part.mesh.tags_mut().declare(&name, kind, len);
        for _ in 0..nrows {
            let d = get_dim(&mut r).map_err(&e)?;
            let gid = r.try_get_u64().map_err(&e)?;
            let buf = r.try_get_bytes().map_err(&e)?;
            let mut pos = 0;
            let data = TagData::decode(&buf, &mut pos).ok_or_else(|| IoError::Decode {
                part: fpart,
                section: sec,
                detail: format!("undecodable value for tag '{name}'"),
            })?;
            match part.find_gid(d, gid) {
                Some(ent) => part.mesh.tags_mut().set(tid, ent, data),
                // Ghost entities are dropped on N≠M restores; their rows
                // are skipped with them.
                None if skip_ghosts => {}
                None => {
                    return Err(IoError::Decode {
                        part: fpart,
                        section: sec,
                        detail: format!("tag '{name}' row references unknown gid {gid}"),
                    })
                }
            }
        }
    }
    Ok(())
}

fn decode_fields(
    fpart: PartId,
    part: &mut Part,
    payload: Vec<u8>,
    skip_ghosts: bool,
) -> Result<(), IoError> {
    let sec = Section::Fields;
    let e = derr(fpart, sec);
    let mut r = MsgReader::from_vec(payload);
    let nfields = r.try_get_u32().map_err(&e)?;
    for _ in 0..nfields {
        let name = r.try_get_bytes().map_err(&e)?;
        let name = String::from_utf8(name).map_err(|_| IoError::Decode {
            part: fpart,
            section: sec,
            detail: "field name is not UTF-8".into(),
        })?;
        let _shape = r.try_get_u8().map_err(&e)?;
        let ncomp = r.try_get_u32().map_err(&e)? as usize;
        let nrows = r.try_get_u32().map_err(&e)?;
        // Stage node values in a tag: tags ride migration automatically, so
        // redistribution carries field data with no extra machinery.
        let tid = part.mesh.tags_mut().declare(
            &format!("{FIELD_TAG_PREFIX}{name}"),
            TagKind::Double,
            ncomp,
        );
        for _ in 0..nrows {
            let d = get_dim(&mut r).map_err(&e)?;
            let gid = r.try_get_u64().map_err(&e)?;
            let vals = r.try_get_f64_slice().map_err(&e)?;
            match part.find_gid(d, gid) {
                Some(ent) => part.mesh.tags_mut().set(tid, ent, TagData::Dbls(vals)),
                None if skip_ghosts => {}
                None => {
                    return Err(IoError::Decode {
                        part: fpart,
                        section: sec,
                        detail: format!("field '{name}' row references unknown gid {gid}"),
                    })
                }
            }
        }
    }
    Ok(())
}

/// Where [`load_part`] gets a checkpoint's part files and decoded chunks.
/// The collective reader reads each file from disk and decodes every chunk
/// ([`DirSource`]); a restore service (`pumi-serve`) keeps the files and a
/// shared chunk cache between the disk and the decoders.
pub trait SectionSource {
    /// Part `fpart`'s file: the base snapshot's for `delta == None`, delta
    /// round `k`'s for `Some(k)`.
    fn part_file(&self, fpart: PartId, delta: Option<u32>) -> Result<Arc<PartFile>, IoError>;

    /// The raw bytes of chunk `idx` of `section` in `file`, given the
    /// chunk's header and stored payload. The default verifies and
    /// decompresses it ([`decode_chunk`]).
    fn chunk(
        &self,
        file: &PartFile,
        section: Section,
        idx: u32,
        hdr: &ChunkHeader,
        payload: &[u8],
    ) -> Result<Arc<Vec<u8>>, IoError> {
        decode_chunk(file.header.part, section, idx, hdr, payload).map(Arc::new)
    }
}

/// The plain [`SectionSource`]: part files read from a checkpoint
/// directory on every request, nothing cached.
pub struct DirSource<'a>(pub &'a Path);

impl SectionSource for DirSource<'_> {
    fn part_file(&self, fpart: PartId, delta: Option<u32>) -> Result<Arc<PartFile>, IoError> {
        PartFile::read(self.0, fpart, delta).map(Arc::new)
    }
}

/// Rebuild one part of a checkpoint from its files: the base snapshot, then
/// every delta round in order — deletions, entity upserts, tag and field
/// values by gid, and the boundary rows replaced wholesale. No remote-copy
/// stitching happens here ([`read_checkpoint`] does it from the returned
/// rows); with `skip_ghosts` ghost copies are dropped on decode. Field
/// values stay staged as `__io:f:<name>` double tags, which is how they ride
/// migration during a collective restore. This is the one part loader: the
/// collective reader calls it over a [`DirSource`], `pumi-serve` over its
/// chunk cache.
pub fn load_part(
    manifest: &Manifest,
    fpart: PartId,
    src: &dyn SectionSource,
    skip_ghosts: bool,
) -> Result<LoadedPart, IoError> {
    let mut lp = LoadedPart {
        part: Part::new(fpart, manifest.elem_dim as usize),
        res_rows: Vec::new(),
        ghost_rows: Vec::new(),
        gid_counter: 0,
        bytes: 0,
    };
    let mut ghosts = GhostMap::default();
    for delta in std::iter::once(None).chain((1..=manifest.delta_count).map(Some)) {
        let file = src.part_file(fpart, delta)?;
        let h = &file.header;
        let header_err = |detail: String| IoError::Header {
            part: fpart,
            detail,
        };
        if h.is_delta() != delta.is_some() {
            return Err(header_err(match delta {
                None => "delta part file where a base snapshot was expected".into(),
                Some(k) => format!("delta round {k}: not a delta part file"),
            }));
        }
        if h.elem_dim != manifest.elem_dim {
            return Err(header_err(format!(
                "element dimension {} disagrees with manifest ({})",
                h.elem_dim, manifest.elem_dim
            )));
        }
        let fetch = |section: Section| {
            let entry = h
                .find(section)
                .ok_or_else(|| header_err(format!("missing section '{}'", section.name())))?;
            section_raw_bytes(fpart, &file.data, &entry, |idx, hdr, payload| {
                src.chunk(&file, section, idx, hdr, payload)
            })
        };
        if delta.is_some() {
            apply_deleted(fpart, &mut lp.part, fetch(Section::Deleted)?, &mut ghosts)?;
        }
        let (payload, upsert) = (fetch(Section::Entities)?, delta.is_some());
        decode_entities(
            fpart,
            &mut lp.part,
            payload,
            upsert,
            skip_ghosts,
            &mut ghosts,
        )?;
        let remotes = fetch(Section::Remotes)?;
        lp.res_rows = decode_remotes(fpart, manifest.elem_dim as usize, remotes)?;
        decode_tags(fpart, &mut lp.part, fetch(Section::Tags)?, skip_ghosts)?;
        decode_fields(fpart, &mut lp.part, fetch(Section::Fields)?, skip_ghosts)?;
        lp.gid_counter = lp.gid_counter.max(h.gid_counter);
        lp.bytes += file.data.len() as u64;
    }
    lp.ghost_rows = ghosts
        .into_iter()
        .filter_map(|((dim, gid), src)| lp.part.find_gid(dim, gid).map(|e| (e, src)))
        .collect();
    lp.ghost_rows.sort_by_key(|&(e, _)| e);
    Ok(lp)
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

/// Restore a checkpoint from `dir` onto `comm.nranks()` ranks, regardless
/// of how many parts it was written from. See the module docs for the
/// N→M policy. Collective; on failure every rank returns an error: a
/// part file that does not load is the loading rank's error and
/// [`IoError::PeerFailed`] elsewhere; boundary rows that disagree with the
/// links they produce are [`IoError::Verify`] on every rank.
pub fn read_checkpoint(comm: &Comm, dir: &Path) -> Result<Restored, IoError> {
    let _span = pumi_obs::span!("io.read");
    let manifest = manifest_bcast(comm, dir)?;
    let n = manifest.nparts as usize;
    let m = comm.nranks();
    let rank = comm.rank();
    let elem_dim = manifest.elem_dim as usize;
    let skip_ghosts = n != m;

    // Part assignment and id remapping (old part id → loaded part id).
    // N ≥ M: ids are unchanged, rank r hosts a contiguous block.
    // N < M: file part p becomes the first part of its fan-out block, on
    // the rank of the same number; the other ranks start empty and receive
    // elements in the split phase.
    let map = if n >= m {
        PartMap::balanced_blocks(n, m)
    } else {
        PartMap::contiguous(m, m)
    };
    let remap = |p: PartId| -> PartId {
        if n >= m {
            p
        } else {
            balanced_block(p as usize, n, m).start as PartId
        }
    };
    let assignments: Vec<PartId> = if n >= m {
        map.parts_on(rank).to_vec()
    } else {
        (0..n as PartId)
            .filter(|&p| remap(p) as usize == rank)
            .collect()
    };

    let mut loaded: Vec<LoadedPart> = Vec::new();
    let mut local_err: Option<IoError> = None;
    for &fpart in &assignments {
        match load_part(&manifest, fpart, &DirSource(dir), skip_ghosts) {
            Ok(mut lp) => {
                lp.part.id = remap(fpart);
                for (_, _, res) in &mut lp.res_rows {
                    for q in res {
                        *q = remap(*q);
                    }
                }
                loaded.push(lp);
            }
            Err(e) => {
                local_err = Some(e);
                break;
            }
        }
    }
    let bytes_local: u64 = loaded.iter().map(|lp| lp.bytes).sum();
    pumi_obs::metrics::counter_add("io.read.bytes", bytes_local);
    let failures = comm.allreduce_sum_u64(local_err.is_some() as u64);
    if failures > 0 {
        return Err(local_err.unwrap_or(IoError::PeerFailed { failures }));
    }
    let bytes_global = comm.allreduce_sum_u64(bytes_local);

    // Floor every gid counter at the global max so ids minted after the
    // restore stay disjoint from every checkpointed id.
    let max_counter =
        comm.allreduce_max_u64(loaded.iter().map(|lp| lp.gid_counter).max().unwrap_or(0));

    let mut res_rows: Vec<Vec<(Dim, GlobalId, Vec<PartId>)>> = Vec::new();
    let mut ghost_rows: Vec<Vec<(MeshEnt, PartId)>> = Vec::new();
    let mut parts: Vec<Part> = Vec::new();
    for lp in loaded {
        parts.push(lp.part);
        res_rows.push(lp.res_rows);
        ghost_rows.push(lp.ghost_rows);
    }
    if parts.is_empty() {
        // N < M: exactly one part per rank; ranks outside the start set
        // begin empty.
        parts.push(Part::new(rank as PartId, elem_dim));
        res_rows.push(Vec::new());
        ghost_rows.push(Vec::new());
    }
    for p in &mut parts {
        p.bump_gid_counter(max_counter);
    }
    let mut dm = DistMesh { map, parts };

    // Stitch remote-copy links: each resident part announces its local
    // index for every boundary entity to the entity's other residence parts.
    // What the stitch (and the ghost relink below) cannot apply is kept, not
    // acted on: a rank that stopped here would hang its peers in the next
    // collective. One allreduce after the relink agrees on it.
    let announce: Vec<Vec<(MeshEnt, &[PartId])>> = dm
        .parts
        .iter()
        .zip(&res_rows)
        .map(|(part, rows)| {
            rows.iter()
                .filter_map(|(dim, gid, res)| Some((part.find_gid(*dim, *gid)?, res.as_slice())))
                .collect()
        })
        .collect();
    let mut link_errs: Vec<String> = stitch(comm, &mut dm, &announce)
        .into_iter()
        .map(|(from, to, e)| format!("remote-copy stitch {from}->{to}: {e}"))
        .collect();
    for (part, rows) in dm.parts.iter().zip(&res_rows) {
        link_errs.extend(unmatched_rows(part, rows));
    }
    link_errs.extend(split_residences(comm, &dm));

    // Relink ghost layers (only on an N = N restore; dropped otherwise).
    if manifest.has_ghosts && !skip_ghosts {
        let mut ex = PartExchange::new(comm, &dm.map);
        for (slot, part) in dm.parts.iter().enumerate() {
            for &(ent, src) in &ghost_rows[slot] {
                put_link(
                    ex.to(part.id, src),
                    ent.dim(),
                    part.gid_of(ent),
                    ent.index(),
                );
            }
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

    // N → M redistribution through the migration path.
    let mut elements_moved = 0u64;
    if n > m {
        let _span = pumi_obs::span!("io.redistribute");
        // Merge: every non-first local part sends all elements to the
        // rank's first part, then parts are renumbered 0..M.
        let d_elem = Dim::from_usize(elem_dim);
        let first = dm.map.parts_on(rank)[0];
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for part in &dm.parts {
            if part.id == first {
                continue;
            }
            let mut plan = MigrationPlan::new();
            for e in part.mesh.iter(d_elem) {
                plan.dest.insert(e, first);
            }
            plans.insert(part.id, plan);
        }
        let stats = migrate(comm, &mut dm, &plans);
        elements_moved = stats.elements_moved;
        dm.parts.retain(|p| p.id == first);
        let old_map = std::mem::replace(&mut dm.map, PartMap::contiguous(m, m));
        for p in &mut dm.parts {
            p.id = old_map.rank_of(p.id) as PartId;
            p.remap_remote_parts(|q| old_map.rank_of(q) as PartId);
        }
    } else if n < m {
        let _span = pumi_obs::span!("io.redistribute");
        // Split: a loaded part fans its elements out over its target block
        // with the local graph partitioner.
        let d_elem = Dim::from_usize(elem_dim);
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for &fpart in &assignments {
            let loaded_id = remap(fpart);
            let k = balanced_block(fpart as usize, n, m).len();
            let part = dm.part(loaded_id);
            if k <= 1 || part.mesh.count(d_elem) == 0 {
                continue;
            }
            let labels = partition_mesh(&part.mesh, k);
            let mut plan = MigrationPlan::new();
            for e in part.mesh.iter(d_elem) {
                let j = labels[e.idx()] as usize;
                if j > 0 {
                    plan.dest.insert(e, loaded_id + j as PartId);
                }
            }
            plans.insert(loaded_id, plan);
        }
        let stats = migrate(comm, &mut dm, &plans);
        elements_moved = stats.elements_moved;
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
