//! The one part loader: a file part decodes into *rows*, and every restored
//! part is *built* once from the rows it needs.
//!
//! [`PartRows::read`] walks a file part's files in order — the base
//! snapshot, then delta round 1, 2, … — through a [`SectionSource`] and
//! replays each round on the part's own rows: Deleted retires rows,
//! Entities appends new rows and updates the rows it names by gid, Tags and
//! Fields attach values to rows, and Remotes is replaced whole. The rows are
//! flat per-dimension arrays with a gid index; an entity row names its
//! vertices by row, resolved once, when it is decoded.
//!
//! [`build_part`] turns the rows of a block of file parts into one [`Part`]
//! in a single pass, dimension by dimension. When two file parts of the
//! block hold a shared entity, the lower part's row wins: the owner's copy,
//! the one `struct_hash` reads. A [`Pick::Piece`] builds only one sub-part of
//! a file part — its elements and their closure — cut along a Morton curve
//! by the rule the collective reader's split shares.
//!
//! Input is checked where it is decoded, so both restore paths refuse the
//! same input with [`IoError::Decode`]: an Entities row without its
//! topology's number of distinct vertex gids or naming a vertex the part
//! lacks, a Tags or Fields row naming an entity the part lacks or holding a
//! value of the wrong size, a Remotes row for an element or naming a part
//! outside the checkpoint, an element whose sides would bound a third
//! element, and an element gid held by two file parts of one block.

use crate::chunk::{decode_chunk, section_raw_bytes, ChunkHeader};
use crate::error::{IoError, Section};
use crate::format::{Manifest, PartFile};
use crate::staged_field_tag;
use pumi_core::wire::get_dim;
use pumi_core::Part;
use pumi_geom::GeomEnt;
use pumi_mesh::Topology;
use pumi_partition::sfc;
use pumi_pcu::{MsgError, MsgReader};
use pumi_util::tag::{TagData, TagId, TagKind};
use pumi_util::{Dim, FxHashMap, GlobalId, MeshEnt, PartId};
use std::path::Path;
use std::sync::Arc;

/// Where [`PartRows::read`] gets a checkpoint's part files and decoded
/// chunks. The collective reader reads each file from disk and decodes
/// every chunk ([`DirSource`]); a restore service (`pumi-serve`) keeps the
/// files and a shared chunk cache between the disk and the decoders.
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

/// No row, no local entity, no ghost source.
const NONE: u32 = u32::MAX;

/// Marks a row another part of the block already built: it resolves vertex
/// references but carries no tags.
const DUP: u32 = 1 << 31;

fn bad(part: PartId, section: Section, detail: String) -> IoError {
    IoError::Decode {
        part,
        section,
        detail,
    }
}

fn derr(part: PartId, section: Section) -> impl Fn(MsgError) -> IoError {
    move |e| bad(part, section, e.to_string())
}

/// One dimension's rows.
#[derive(Default)]
struct DimRows {
    gid: Vec<GlobalId>,
    topo: Vec<Topology>,
    class: Vec<GeomEnt>,
    /// Source part of a ghost copy; `NONE` for the part's own copy.
    ghost: Vec<PartId>,
    /// Cleared when a delta round deletes the row.
    live: Vec<bool>,
    /// Vertex coordinates (dimension 0).
    coords: Vec<[f64; 3]>,
    /// Dimensions ≥ 1: row `r`'s vertices, as dimension-0 rows, start at
    /// `first[r]`; its topology says how many.
    verts: Vec<u32>,
    first: Vec<u32>,
    /// Live rows by gid. Fx-hashed like the gid index of the `Part` the
    /// rows are built into, which hashes the same gids.
    index: FxHashMap<GlobalId, u32>,
}

impl DimRows {
    fn len(&self) -> usize {
        self.gid.len()
    }

    fn verts_of(&self, r: usize) -> &[u32] {
        let at = self.first[r] as usize;
        &self.verts[at..at + self.topo[r].num_verts()]
    }

    /// A live row for the part's own copy (not a ghost).
    fn owns(&self, r: usize) -> bool {
        self.live[r] && self.ghost[r] == NONE
    }
}

/// One tag's values, in file order: a later round's value for a row
/// replaces an earlier one.
struct TagRows {
    name: String,
    kind: TagKind,
    len: usize,
    vals: Vec<(Dim, u32, TagData)>,
}

/// One field's node values: `ncomp` doubles per `(dimension, row)`, in file
/// order.
struct FieldRows {
    name: String,
    ncomp: usize,
    at: Vec<(Dim, u32)>,
    vals: Vec<f64>,
}

/// A file part's rows after its delta rounds are replayed: what
/// [`build_part`] builds from.
pub struct PartRows {
    fpart: PartId,
    elem_dim: usize,
    dims: [DimRows; 4],
    /// Part-boundary rows: (dim, gid, residence parts, sorted).
    pub(crate) remotes: Vec<(Dim, GlobalId, Vec<PartId>)>,
    tags: Vec<TagRows>,
    fields: Vec<FieldRows>,
    gid_counter: u64,
    bytes: u64,
}

/// One parsed Entities row.
struct EntityRow {
    gid: GlobalId,
    topo: Topology,
    class: GeomEnt,
    ghost_src: Option<PartId>,
    /// Vertex coordinates (dimension 0; zeros otherwise).
    coords: [f64; 3],
    /// Bounding vertex gids, the first `topo.num_verts()` (dimensions ≥ 1).
    vgids: [GlobalId; 8],
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
        let detail = format!("topology {topo:?} in dimension-{d} block");
        return Err(bad(fpart, sec, detail));
    }
    let (mut coords, mut vgids) = ([0.0; 3], [0; 8]);
    if d == 0 {
        for x in &mut coords {
            *x = r.try_get_f64().map_err(e)?;
        }
    } else {
        let n = r.try_get_u32().map_err(e)? as usize;
        if n != topo.num_verts() {
            let detail = format!("entity gid {gid}: {n} vertex gids for a {topo:?}");
            return Err(bad(fpart, sec, detail));
        }
        for g in &mut vgids[..n] {
            *g = r.try_get_u64().map_err(e)?;
        }
        let vgids = &vgids[..n];
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

impl PartRows {
    /// Decode part `fpart` of a checkpoint: the base snapshot, then every
    /// delta round in order, each replayed on the rows before it. Checks
    /// each file's header against the manifest and every row as it is
    /// decoded (see the module docs).
    pub fn read(
        manifest: &Manifest,
        fpart: PartId,
        src: &dyn SectionSource,
    ) -> Result<PartRows, IoError> {
        let _span = pumi_obs::span!("io.rows");
        let mut rows = PartRows {
            fpart,
            elem_dim: manifest.elem_dim as usize,
            dims: Default::default(),
            remotes: Vec::new(),
            tags: Vec::new(),
            fields: Vec::new(),
            gid_counter: 0,
            bytes: 0,
        };
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
                .map(MsgReader::from_vec)
            };
            if delta.is_some() {
                rows.decode_deleted(fetch(Section::Deleted)?)?;
            }
            rows.decode_entities(manifest.nparts, fetch(Section::Entities)?)?;
            rows.decode_remotes(manifest.nparts, fetch(Section::Remotes)?)?;
            rows.decode_tags(fetch(Section::Tags)?)?;
            rows.decode_fields(fetch(Section::Fields)?)?;
            rows.gid_counter = rows.gid_counter.max(h.gid_counter);
            rows.bytes += file.data.len() as u64;
        }
        Ok(rows)
    }

    /// The file part these rows came from.
    pub fn fpart(&self) -> PartId {
        self.fpart
    }

    /// The highest fresh-gid counter any of the part's files recorded.
    pub fn gid_counter(&self) -> u64 {
        self.gid_counter
    }

    /// Bytes of the part files read (base plus delta rounds).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the part holds its own (non-ghost) copy of `(dim, gid)`.
    pub(crate) fn holds(&self, dim: Dim, gid: GlobalId) -> bool {
        let rows = &self.dims[dim.as_usize()];
        rows.index
            .get(&gid)
            .is_some_and(|&r| rows.ghost[r as usize] == NONE)
    }

    /// A delta round's Deleted section: per-dimension gid lists whose rows
    /// are retired.
    fn decode_deleted(&mut self, mut r: MsgReader) -> Result<(), IoError> {
        let e = derr(self.fpart, Section::Deleted);
        for rows in &mut self.dims {
            for gid in r.try_get_u64_slice().map_err(&e)? {
                if let Some(at) = rows.index.remove(&gid) {
                    rows.live[at as usize] = false;
                }
            }
        }
        Ok(())
    }

    /// An Entities section. A row for a gid the part already holds (a delta
    /// round's upsert) updates that row's classification, coordinates and
    /// ghost source in place; any other row is appended, its vertex gids
    /// resolved to rows. A ghost source outside the checkpoint's `nparts`
    /// is refused.
    fn decode_entities(&mut self, nparts: u32, mut r: MsgReader) -> Result<(), IoError> {
        let (fpart, sec) = (self.fpart, Section::Entities);
        let e = derr(fpart, sec);
        /// Gid, topology, classification, ghost flag: the least a row takes.
        const MIN_ROW: usize = 8 + 1 + 4 + 1;
        for d in 0..=self.elem_dim {
            let (below, here) = self.dims.split_at_mut(d);
            let rows = &mut here[0];
            let n = r.try_get_u32().map_err(&e)?;
            rows.index
                .reserve((n as usize).min(r.remaining() / MIN_ROW));
            for _ in 0..n {
                let row = read_entity_row(fpart, &mut r, d)?;
                let ghost = row.ghost_src.unwrap_or(NONE);
                if ghost != NONE && ghost >= nparts {
                    let detail =
                        format!("entity gid {}: ghost of part {ghost} of {nparts}", row.gid);
                    return Err(bad(fpart, sec, detail));
                }
                if let Some(&at) = rows.index.get(&row.gid) {
                    let at = at as usize;
                    rows.class[at] = row.class;
                    rows.ghost[at] = ghost;
                    if d == 0 {
                        rows.coords[at] = row.coords;
                    }
                    continue;
                }
                if d == 0 {
                    rows.coords.push(row.coords);
                } else {
                    rows.first.push(rows.verts.len() as u32);
                    for &g in &row.vgids[..row.topo.num_verts()] {
                        let v = below[0].index.get(&g).ok_or_else(|| {
                            let detail =
                                format!("entity gid {} references unknown vertex {g}", row.gid);
                            bad(fpart, sec, detail)
                        })?;
                        rows.verts.push(*v);
                    }
                }
                rows.index.insert(row.gid, rows.len() as u32);
                rows.gid.push(row.gid);
                rows.topo.push(row.topo);
                rows.class.push(row.class);
                rows.ghost.push(ghost);
                rows.live.push(true);
            }
        }
        Ok(())
    }

    /// A Remotes section, replacing the previous round's. Elements are
    /// never shared, so a row at the element dimension is refused, and so is
    /// a row naming a part outside the checkpoint's `nparts`.
    fn decode_remotes(&mut self, nparts: u32, mut r: MsgReader) -> Result<(), IoError> {
        /// Dimension byte, gid, residence-list length: the least a row takes.
        const MIN_ROW: usize = 1 + 8 + 4;
        let (fpart, sec) = (self.fpart, Section::Remotes);
        let e = derr(fpart, sec);
        let n = r.try_get_u32().map_err(&e)?;
        let mut rows = Vec::with_capacity((n as usize).min(r.remaining() / MIN_ROW));
        for _ in 0..n {
            let d = get_dim(&mut r).map_err(&e)?;
            let gid = r.try_get_u64().map_err(&e)?;
            if d.as_usize() == self.elem_dim {
                let detail = format!("row for element gid {gid}: elements are never shared");
                return Err(bad(fpart, sec, detail));
            }
            let mut res = r.try_get_u32_slice().map_err(&e)?;
            if let Some(q) = res.iter().find(|&&q| q >= nparts) {
                let detail = format!("row for {d} gid {gid} names part {q} of {nparts}");
                return Err(bad(fpart, sec, detail));
            }
            res.sort_unstable();
            res.dedup();
            rows.push((d, gid, res));
        }
        self.remotes = rows;
        Ok(())
    }

    /// The row of `(dim, gid)`, or the error a row of `section` naming an
    /// entity the part lacks is refused with (`what`: "tag" or "field").
    fn row_of(
        &self,
        section: Section,
        what: &str,
        name: &str,
        dim: Dim,
        gid: GlobalId,
    ) -> Result<u32, IoError> {
        let found = self.dims[dim.as_usize()].index.get(&gid).copied();
        found.ok_or_else(|| {
            let detail = format!("{what} '{name}' row references unknown gid {gid}");
            bad(self.fpart, section, detail)
        })
    }

    fn decode_tags(&mut self, mut r: MsgReader) -> Result<(), IoError> {
        let (fpart, sec) = (self.fpart, Section::Tags);
        let e = derr(fpart, sec);
        for _ in 0..r.try_get_u32().map_err(&e)? {
            let name = String::from_utf8(r.try_get_bytes().map_err(&e)?)
                .map_err(|_| bad(fpart, sec, "tag name is not UTF-8".into()))?;
            let kind = match r.try_get_u8().map_err(&e)? {
                0 => TagKind::Int,
                1 => TagKind::Double,
                2 => TagKind::Bytes,
                k => return Err(e(MsgError::bad_enum("tag kind", k))),
            };
            let len = r.try_get_u32().map_err(&e)? as usize;
            let t = match self.tags.iter().position(|t| t.name == name) {
                Some(t) if (self.tags[t].kind, self.tags[t].len) != (kind, len) => {
                    let detail = format!("tag '{name}' re-declared as {kind:?} × {len}");
                    return Err(bad(fpart, sec, detail));
                }
                Some(t) => t,
                None => {
                    self.tags.push(TagRows {
                        name,
                        kind,
                        len,
                        vals: Vec::new(),
                    });
                    self.tags.len() - 1
                }
            };
            for _ in 0..r.try_get_u32().map_err(&e)? {
                let d = get_dim(&mut r).map_err(&e)?;
                let gid = r.try_get_u64().map_err(&e)?;
                let buf = r.try_get_bytes_shared().map_err(&e)?;
                let name = &self.tags[t].name;
                let fits = |v: &TagData| match v {
                    TagData::Ints(x) => kind == TagKind::Int && x.len() == len,
                    TagData::Dbls(x) => kind == TagKind::Double && x.len() == len,
                    TagData::Bytes(_) => kind == TagKind::Bytes,
                };
                let data = TagData::decode(&buf, &mut 0).filter(fits).ok_or_else(|| {
                    bad(fpart, sec, format!("undecodable value for tag '{name}'"))
                })?;
                let row = self.row_of(sec, "tag", name, d, gid)?;
                self.tags[t].vals.push((d, row, data));
            }
        }
        Ok(())
    }

    fn decode_fields(&mut self, mut r: MsgReader) -> Result<(), IoError> {
        let (fpart, sec) = (self.fpart, Section::Fields);
        let e = derr(fpart, sec);
        for _ in 0..r.try_get_u32().map_err(&e)? {
            let name = String::from_utf8(r.try_get_bytes().map_err(&e)?)
                .map_err(|_| bad(fpart, sec, "field name is not UTF-8".into()))?;
            let _shape = r.try_get_u8().map_err(&e)?;
            let ncomp = r.try_get_u32().map_err(&e)? as usize;
            let f = match self.fields.iter().position(|f| f.name == name) {
                Some(f) if self.fields[f].ncomp != ncomp => {
                    let detail = format!("field '{name}' re-declared with {ncomp} components");
                    return Err(bad(fpart, sec, detail));
                }
                Some(f) => f,
                None => {
                    self.fields.push(FieldRows {
                        name,
                        ncomp,
                        at: Vec::new(),
                        vals: Vec::new(),
                    });
                    self.fields.len() - 1
                }
            };
            for _ in 0..r.try_get_u32().map_err(&e)? {
                let d = get_dim(&mut r).map_err(&e)?;
                let gid = r.try_get_u64().map_err(&e)?;
                let n = r.try_get_u32().map_err(&e)? as usize;
                let name = &self.fields[f].name;
                if n != ncomp {
                    let detail = format!("field '{name}': {n} values for {ncomp} components");
                    return Err(bad(fpart, sec, detail));
                }
                let row = self.row_of(sec, "field", name, d, gid)?;
                let field = &mut self.fields[f];
                for _ in 0..n {
                    field.vals.push(r.try_get_f64().map_err(&e)?);
                }
                field.at.push((d, row));
            }
        }
        Ok(())
    }

    /// The rows sub-part `j` of `k` keeps, per dimension: the elements
    /// [`morton_pieces`] assigns to `j`, their vertices, and the
    /// intermediate entities whose vertices all stay. Every element row is
    /// looked at — for its centroid, and because a side bounding a third
    /// element is refused however the part is cut.
    fn piece(&self, j: usize, k: usize) -> Result<[Vec<bool>; 4], IoError> {
        let (ed, fpart, sec) = (self.elem_dim, self.fpart, Section::Entities);
        let (vrows, erows) = (&self.dims[0], &self.dims[ed]);
        let mut elems = Vec::new();
        let (mut centroids, mut gids) = (Vec::new(), Vec::new());
        let mut sides: FxHashMap<[u32; 4], u8> = FxHashMap::default();
        sides.reserve(2 * erows.len());
        for r in (0..erows.len()).filter(|&r| erows.owns(r)) {
            let (vs, gid) = (erows.verts_of(r), erows.gid[r]);
            let mut c = [0.0; 3];
            for &v in vs {
                if !vrows.owns(v as usize) {
                    let g = vrows.gid[v as usize];
                    let detail = format!("entity gid {gid} references unknown vertex {g}");
                    return Err(bad(fpart, sec, detail));
                }
                let x = vrows.coords[v as usize];
                (0..3).for_each(|a| c[a] += x[a]);
            }
            let n = vs.len() as f64;
            for (tpl, _) in erows.topo[r].down_templates() {
                let mut key = [NONE; 4];
                for (slot, &i) in key.iter_mut().zip(*tpl) {
                    *slot = vs[i];
                }
                key.sort_unstable();
                let count = sides.entry(key).or_insert(0);
                *count += 1;
                if *count > 2 {
                    let side: Vec<GlobalId> =
                        tpl.iter().map(|&i| vrows.gid[vs[i] as usize]).collect();
                    let detail =
                        format!("element gid {gid} is a third element on the side over {side:?}");
                    return Err(bad(fpart, sec, detail));
                }
            }
            elems.push(r);
            centroids.push([c[0] / n, c[1] / n, c[2] / n]);
            gids.push(gid);
        }
        let mut keep: [Vec<bool>; 4] = std::array::from_fn(|d| vec![false; self.dims[d].len()]);
        for (&r, p) in elems.iter().zip(morton_pieces(&centroids, &gids, k)) {
            if p == j {
                keep[ed][r] = true;
                for &v in erows.verts_of(r) {
                    keep[0][v as usize] = true;
                }
            }
        }
        for d in 1..ed {
            let rows = &self.dims[d];
            for r in (0..rows.len()).filter(|&r| rows.owns(r)) {
                keep[d][r] = rows.verts_of(r).iter().all(|&v| keep[0][v as usize]);
            }
        }
        Ok(keep)
    }
}

/// The split rule both restore paths share: sub-part `j` of `k` of a file
/// part is the `j`-th of `k` count-balanced contiguous ranges of its
/// elements in the Morton order of their centroids
/// ([`sfc::morton_keys`], [`sfc::weighted_cut`]), gid breaking ties.
/// Returns each element's sub-part, in input order.
pub(crate) fn morton_pieces(centroids: &[[f64; 3]], gids: &[GlobalId], k: usize) -> Vec<usize> {
    let keys = sfc::morton_keys(centroids);
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&i| (keys[i], gids[i]));
    let bounds = sfc::weighted_cut(&vec![1.0; keys.len()], k);
    let mut piece = vec![0; keys.len()];
    for (j, range) in bounds.windows(2).enumerate() {
        for &i in &order[range[0]..range[1]] {
            piece[i] = j;
        }
    }
    piece
}

/// Which of a file part's elements a build keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Every element, and every other row.
    Whole,
    /// Sub-part `j` of `k` (`Piece(j, k)`): the `j`-th of `k`
    /// count-balanced contiguous ranges of the file part's elements in the
    /// Morton order of their centroids (gid breaking ties), and their
    /// closure.
    Piece(usize, usize),
}

/// A part as [`build_part`] built it.
pub struct Built {
    /// The part: entities, tags, and field values staged as
    /// `__io:f:<name>` double tags.
    pub part: Part,
    /// Ghost copies: (local entity, source part), in entity order. Empty
    /// when ghosts were skipped.
    pub ghosts: Vec<(MeshEnt, PartId)>,
}

/// Declare a tag on `part`, refusing a name the part already has with
/// another kind or length.
fn declare(
    part: &mut Part,
    fpart: PartId,
    section: Section,
    name: &str,
    kind: TagKind,
    len: usize,
) -> Result<TagId, IoError> {
    let tags = part.mesh.tags_mut();
    if let Some(t) = tags.find(name) {
        if (tags.kind(t), tags.len_of(t)) != (kind, len) {
            let detail = format!("tag '{name}' declared as {kind:?} × {len} and differently");
            return Err(bad(fpart, section, detail));
        }
    }
    Ok(tags.declare(name, kind, len))
}

/// Build part `id` from the rows of a block of file parts, in ascending
/// file-part order, keeping `pick` of each; with `skip_ghosts` ghost rows
/// are dropped. Entities are created dimension by dimension, each file
/// part's rows in order; a shared entity another part of the block already
/// built is not built again (the lower part's row wins), but an element
/// held by two of them is refused. Tags and staged field values attach to
/// the rows that were built. The part's gid counter is left at zero. This
/// is the one loader every restored part comes from.
///
/// # Panics
/// Panics on an empty block.
pub fn build_part(
    id: PartId,
    block: &[PartRows],
    pick: Pick,
    skip_ghosts: bool,
) -> Result<Built, IoError> {
    let _span = pumi_obs::span!("io.build");
    let elem_dim = block.first().expect("a block to build").elem_dim;
    let mut part = Part::new(id, elem_dim);
    let mut ghosts = Vec::new();
    let keep = block
        .iter()
        .map(|rows| match pick {
            Pick::Whole => Ok(None),
            Pick::Piece(j, k) => rows.piece(j, k).map(Some),
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Per block part and dimension: the local index each row built or
    // found (`DUP`-marked), `NONE` for a row left out.
    let mut loc: Vec<[Vec<u32>; 4]> = block.iter().map(|_| Default::default()).collect();
    for d in 0..=elem_dim {
        let dim = Dim::from_usize(d);
        for (m, rows) in block.iter().enumerate() {
            let (fpart, dr) = (rows.fpart, &rows.dims[d]);
            let mut at = vec![NONE; dr.len()];
            for r in 0..dr.len() {
                let kept = keep[m].as_ref().is_none_or(|k| k[d][r]);
                if !kept || !dr.live[r] || (skip_ghosts && dr.ghost[r] != NONE) {
                    continue;
                }
                let gid = dr.gid[r];
                // Only a later part of the block can meet an entity again.
                if let Some(e) = (m > 0).then(|| part.find_gid(dim, gid)).flatten() {
                    if d == elem_dim {
                        let first = block[..m].iter().find(|o| o.holds(dim, gid));
                        let p = first.map_or(fpart, |o| o.fpart);
                        let detail = format!("element gid {gid} is also held by part {p}");
                        return Err(bad(fpart, Section::Entities, detail));
                    }
                    at[r] = e.index() | DUP;
                    continue;
                }
                let e = if d == 0 {
                    part.add_vertex(dr.coords[r], dr.class[r], gid)
                } else {
                    let mut vs = [0u32; 8];
                    let nv = dr.topo[r].num_verts();
                    for (slot, &v) in vs.iter_mut().zip(dr.verts_of(r)) {
                        match loc[m][0][v as usize] {
                            NONE => {
                                let g = rows.dims[0].gid[v as usize];
                                let detail =
                                    format!("entity gid {gid} references unknown vertex {g}");
                                return Err(bad(fpart, Section::Entities, detail));
                            }
                            l => *slot = l & !DUP,
                        }
                    }
                    let e = part.add_entity(dr.topo[r], &vs[..nv], dr.class[r], gid);
                    let mesh = &part.mesh;
                    let third = (d == elem_dim)
                        .then(|| mesh.down(e).find(|&s| mesh.up_count(s) > 2))
                        .flatten();
                    if let Some(s) = third {
                        let side = part.gid_of(s);
                        let detail = format!("element gid {gid} is a third element on side {side}");
                        return Err(bad(fpart, Section::Entities, detail));
                    }
                    e
                };
                if dr.ghost[r] != NONE {
                    ghosts.push((e, dr.ghost[r]));
                }
                at[r] = e.index();
            }
            loc[m][d] = at;
        }
    }
    // `NONE` carries the `DUP` bit too: neither row built an entity.
    let built = |loc: &[Vec<u32>; 4], dim: Dim, r: u32| {
        let l = *loc[dim.as_usize()].get(r as usize)?;
        (l & DUP == 0).then(|| MeshEnt::new(dim, l))
    };
    for (rows, loc) in block.iter().zip(&loc) {
        for t in &rows.tags {
            let tid = declare(&mut part, rows.fpart, Section::Tags, &t.name, t.kind, t.len)?;
            for (dim, r, val) in &t.vals {
                if let Some(e) = built(loc, *dim, *r) {
                    part.mesh.tags_mut().set(tid, e, val.clone());
                }
            }
        }
        for f in &rows.fields {
            let name = staged_field_tag(&f.name);
            let tid = declare(
                &mut part,
                rows.fpart,
                Section::Fields,
                &name,
                TagKind::Double,
                f.ncomp,
            )?;
            for (&(dim, r), v) in f.at.iter().zip(f.vals.chunks_exact(f.ncomp.max(1))) {
                if let Some(e) = built(loc, dim, r) {
                    part.mesh.tags_mut().set_dbls(tid, e, v);
                }
            }
        }
    }
    Ok(Built { part, ghosts })
}
