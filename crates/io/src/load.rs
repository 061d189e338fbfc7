//! The one part loader: a file part decodes into *rows*, and every restored
//! part is *built* once from the rows it needs.
//!
//! [`PartRows::read`] walks a file part's files in order — the base
//! snapshot, then delta round 1, 2, … — through a [`SectionSource`] and
//! replays each round on the part's own rows: Deleted retires rows,
//! Entities decodes its `put_entity` records with migration's decoder
//! ([`decode_entity_frame`]) and updates the rows they name by gid, Fields
//! attaches values to rows (values of a field the manifest does not list
//! are checked and dropped), and Remotes is replaced whole. The rows are a
//! [`Rows`] block, core's flat per-dimension columns with the records'
//! tags, and a gid index; an entity row names its vertices by row, resolved
//! once per round.
//!
//! [`build_part`] turns the rows of a block of file parts into one [`Part`]
//! with core's builder ([`Part::build`]), each file part's rows in turn, and
//! returns the part's field values beside it, one [`Field`] per manifest
//! field. When two file parts of the block hold a shared entity, the lower
//! part's row creates it: the owner's copy, the one `struct_hash` reads. A
//! [`Pick::Piece`] builds only one sub-part of a file part — its elements
//! and their closure, cut along a Morton curve — and reports which of its
//! entities other sub-parts hold too.
//! [`crate::slice_of`] decides what a rank or slice builds.
//!
//! Input is checked where it is decoded, so both restore paths refuse the
//! same input with [`IoError::Decode`]: an entity record the wire would
//! refuse (see `pumi_core::rows`), one above the element dimension, naming
//! a vertex the part lacks or a ghost source outside the checkpoint, a
//! Fields row naming an entity the part lacks or holding a value of the
//! wrong size, a field with another number of components than the manifest
//! gives it, a Remotes row for an element or naming a part outside the
//! checkpoint, an element whose sides would bound a third element, and an
//! element gid held by two file parts of one block.

use crate::chunk::{decode_chunk, section_raw_bytes, ChunkHeader};
use crate::error::{IoError, Section};
use crate::format::{Manifest, PartFile};
use pumi_core::rows::THIRD_ELEMENT;
use pumi_core::wire::{decode_entity_frame, get_dim, get_ghost_source, get_residence};
use pumi_core::{Part, Placed, RowError, Rows};
use pumi_field::{Field, FieldShape};
use pumi_partition::sfc;
use pumi_pcu::{MsgError, MsgReader};
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

/// No ghost source, no holder. A row's extra column is its ghost source:
/// `NONE` for the part's own copy, `RETIRED` once a delta round deletes it.
const NONE: u32 = u32::MAX;
const RETIRED: u32 = NONE - 1;

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

/// One manifest field's node values: `ncomp` doubles per `(dimension,
/// row)`, in file order.
struct FieldRows {
    name: String,
    shape: FieldShape,
    ncomp: usize,
    at: Vec<(Dim, u32)>,
    vals: Vec<f64>,
}

/// A file part's rows after its delta rounds are replayed: what
/// [`build_part`] builds from.
pub struct PartRows {
    fpart: PartId,
    elem_dim: usize,
    rows: Rows<PartId>,
    /// Live rows by gid, per dimension. Fx-hashed like the gid index of the
    /// `Part` the rows are built into, which hashes the same gids.
    index: [FxHashMap<GlobalId, u32>; 4],
    /// Part-boundary rows: (dim, gid, residence parts, sorted).
    pub(crate) remotes: Vec<(Dim, GlobalId, Vec<PartId>)>,
    /// In manifest order.
    fields: Vec<FieldRows>,
    bytes: u64,
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
            rows: Rows::default(),
            index: Default::default(),
            remotes: Vec::new(),
            fields: manifest
                .fields
                .iter()
                .map(|f| FieldRows {
                    name: f.name.clone(),
                    shape: f.shape,
                    ncomp: f.ncomp as usize,
                    at: Vec::new(),
                    vals: Vec::new(),
                })
                .collect(),
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
            rows.decode_fields(fetch(Section::Fields)?)?;
            rows.bytes += file.data.len() as u64;
        }
        Ok(rows)
    }

    /// The file part these rows came from.
    pub fn fpart(&self) -> PartId {
        self.fpart
    }

    /// Bytes of the part files read (base plus delta rounds).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the part holds its own (non-ghost) copy of `(dim, gid)`.
    pub(crate) fn holds(&self, dim: Dim, gid: GlobalId) -> bool {
        let ghost = &self.rows.dim(dim).extra;
        self.index[dim.as_usize()]
            .get(&gid)
            .is_some_and(|&r| ghost[r as usize] == NONE)
    }

    /// The error a row the builder refused is reported with.
    fn refused(&self, e: RowError) -> IoError {
        let gid = self.rows.dim(e.dim).gid[e.row];
        let detail = match e.err {
            MsgError::Missing { gid: g, .. } => {
                format!("entity gid {gid} references unknown vertex {g}")
            }
            MsgError::Conflict {
                what, gid: side, ..
            } if what == THIRD_ELEMENT => {
                format!("element gid {gid} is a third element on side {side}")
            }
            err => format!("entity gid {gid}: {err}"),
        };
        bad(self.fpart, Section::Entities, detail)
    }

    /// Whether row `r` of dimension `d` is live and the part's own copy.
    fn owns(&self, d: usize, r: usize) -> bool {
        self.rows.dim(Dim::from_usize(d)).extra[r] == NONE
    }

    /// A delta round's Deleted section: per-dimension gid lists whose rows
    /// are retired.
    fn decode_deleted(&mut self, mut r: MsgReader) -> Result<(), IoError> {
        let e = derr(self.fpart, Section::Deleted);
        for (d, index) in Dim::ALL.into_iter().zip(&mut self.index) {
            for gid in r.try_get_u64_slice().map_err(&e)? {
                if let Some(at) = index.remove(&gid) {
                    self.rows.dim_mut(d).extra[at as usize] = RETIRED;
                }
            }
        }
        Ok(())
    }

    /// An Entities section: [`decode_entity_frame`] appends its records to
    /// the rows, the ghost source their extra field. A record for a gid the
    /// part already holds (a delta round's upsert) then replaces that row's
    /// classification, coordinates, ghost source and tags, and is retired
    /// itself. Every vertex a record names must be a live row, and no record
    /// may lie above the element dimension.
    fn decode_entities(&mut self, nparts: u32, mut r: MsgReader) -> Result<(), IoError> {
        let start = Dim::ALL.map(|d| self.rows.dim(d).len());
        let ghost = |r: &mut MsgReader| Ok(get_ghost_source(r, nparts as usize)?.unwrap_or(NONE));
        decode_entity_frame(&mut r, &mut self.rows, ghost)
            .map_err(derr(self.fpart, Section::Entities))?;
        for (d, index) in Dim::ALL.into_iter().zip(&mut self.index) {
            let new_rows = start[d.as_usize()]..self.rows.dim(d).len();
            if d.as_usize() > self.elem_dim && !new_rows.is_empty() {
                let detail = format!(
                    "{d} record in a part of element dimension {}",
                    self.elem_dim
                );
                return Err(bad(self.fpart, Section::Entities, detail));
            }
            index.reserve(new_rows.len());
            for new in new_rows {
                let gid = self.rows.dim(d).gid[new];
                let Some(&at) = index.get(&gid) else {
                    index.insert(gid, new as u32);
                    continue;
                };
                self.rows.overwrite(d, at as usize, new);
                let ghost = &mut self.rows.dim_mut(d).extra;
                ghost[at as usize] = std::mem::replace(&mut ghost[new], RETIRED);
            }
        }
        let index = &self.index[0];
        let resolved = self.rows.resolve_vertices(|g| index.get(&g).copied());
        resolved.map_err(|e| self.refused(e))
    }

    /// A Remotes section of [`get_residence`] rows, replacing the previous
    /// round's. Elements are never shared, so a row at the element dimension
    /// is refused, and so is a row naming a part outside the checkpoint.
    fn decode_remotes(&mut self, nparts: u32, mut r: MsgReader) -> Result<(), IoError> {
        /// Dimension byte, gid, residence-list length: the least a row takes.
        const MIN_ROW: usize = 1 + 8 + 4;
        let (fpart, sec) = (self.fpart, Section::Remotes);
        let e = derr(fpart, sec);
        let n = r.try_get_u32().map_err(&e)?;
        let mut rows = Vec::with_capacity((n as usize).min(r.remaining() / MIN_ROW));
        for _ in 0..n {
            let mut res = Vec::new();
            let (d, gid) = get_residence(&mut r, nparts as usize, &mut res).map_err(&e)?;
            if d.as_usize() == self.elem_dim {
                let detail = format!("row for element gid {gid}: elements are never shared");
                return Err(bad(fpart, sec, detail));
            }
            res.sort_unstable();
            res.dedup();
            rows.push((d, gid, res));
        }
        self.remotes = rows;
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
            // A field the manifest does not list is checked, not kept.
            let listed = self.fields.iter().position(|f| f.name == name);
            if let Some(m) = listed.map(|f| self.fields[f].ncomp).filter(|&m| m != ncomp) {
                let detail = format!("field '{name}' has {ncomp} components, {m} in the manifest");
                return Err(bad(fpart, sec, detail));
            }
            for _ in 0..r.try_get_u32().map_err(&e)? {
                let d = get_dim(&mut r).map_err(&e)?;
                let gid = r.try_get_u64().map_err(&e)?;
                let n = r.try_get_u32().map_err(&e)? as usize;
                if n != ncomp {
                    let detail = format!("field '{name}': {n} values for {ncomp} components");
                    return Err(bad(fpart, sec, detail));
                }
                let row = self.index[d.as_usize()].get(&gid).copied().ok_or_else(|| {
                    let detail = format!("field '{name}' row references unknown gid {gid}");
                    bad(fpart, sec, detail)
                })?;
                for _ in 0..n {
                    let x = r.try_get_f64().map_err(&e)?;
                    if let Some(f) = listed {
                        self.fields[f].vals.push(x);
                    }
                }
                if let Some(f) = listed {
                    self.fields[f].at.push((d, row));
                }
            }
        }
        Ok(())
    }

    /// Which of the `k` sub-parts [`morton_pieces`] cuts the part into
    /// hold each row: an element its own, any other row those of the
    /// elements over all its vertices (in a conforming mesh, whose closure
    /// holds it). An element naming a vertex the part lacks, and a side row
    /// under a third element, are refused however the part is cut.
    fn holders(&self, k: usize) -> Result<Holders, IoError> {
        let (ed, fpart, sec) = (self.elem_dim, self.fpart, Section::Entities);
        let (vrows, erows) = (
            self.rows.dim(Dim::Vertex),
            self.rows.dim(Dim::from_usize(ed)),
        );
        let elems: Vec<usize> = (0..erows.len()).filter(|&r| self.owns(ed, r)).collect();
        let mut centroids = Vec::with_capacity(elems.len());
        // The elements on vertex row `v`, in row order, will be
        // `on_vert[first[v]..first[v + 1]]`.
        let mut first = vec![0u32; vrows.len() + 1];
        for &r in &elems {
            let vs = erows.verts_of(r);
            let mut c = [0.0; 3];
            for &v in vs {
                if !self.owns(0, v as usize) {
                    let (gid, g) = (erows.gid[r], vrows.gid[v as usize]);
                    let detail = format!("entity gid {gid} references unknown vertex {g}");
                    return Err(bad(fpart, sec, detail));
                }
                let x = vrows.coords[v as usize];
                (0..3).for_each(|a| c[a] += x[a]);
                first[v as usize + 1] += 1;
            }
            let n = vs.len() as f64;
            centroids.push([c[0] / n, c[1] / n, c[2] / n]);
        }
        for v in 1..first.len() {
            first[v] += first[v - 1];
        }
        let gids: Vec<GlobalId> = elems.iter().map(|&r| erows.gid[r]).collect();
        let piece = morton_pieces(&centroids, &gids, k);
        let mut out = Holders {
            one: Dim::ALL.map(|d| vec![NONE; self.rows.dim(d).len()]),
            many: FxHashMap::default(),
        };
        let (mut on_vert, mut next) = (vec![0u32; first[vrows.len()] as usize], first.clone());
        for (i, (&r, &j)) in elems.iter().zip(&piece).enumerate() {
            out.add(ed, r as u32, j as u32);
            for &v in erows.verts_of(r) {
                out.add(0, v, j as u32);
                on_vert[next[v as usize] as usize] = i as u32;
                next[v as usize] += 1;
            }
        }
        // An intermediate row is held by the elements over all its
        // vertices; a side row held by a third element is refused.
        for d in 1..ed {
            let rows = self.rows.dim(Dim::from_usize(d));
            for r in (0..rows.len()).filter(|&r| self.owns(d, r)) {
                let vs = rows.verts_of(r);
                let v0 = vs[0] as usize;
                let mut count = 0;
                for &i in &on_vert[first[v0] as usize..first[v0 + 1] as usize] {
                    let e = elems[i as usize];
                    if !vs[1..].iter().all(|v| erows.verts_of(e).contains(v)) {
                        continue;
                    }
                    count += 1;
                    if count > 2 && d + 1 == ed {
                        let side: Vec<GlobalId> =
                            vs.iter().map(|&v| vrows.gid[v as usize]).collect();
                        let gid = erows.gid[e];
                        let detail = format!(
                            "element gid {gid} is a third element on the side over {side:?}"
                        );
                        return Err(bad(fpart, sec, detail));
                    }
                    out.add(d, r as u32, piece[i as usize] as u32);
                }
            }
        }
        Ok(out)
    }
}

/// A row held by several sub-parts (see [`Holders`]).
const MANY: u32 = NONE - 1;

/// Which sub-parts of a cut hold each row of a file part: per dimension
/// and row the one holding it, `NONE` for none, or `MANY`, listed
/// (ascending) in `many`.
struct Holders {
    one: [Vec<u32>; 4],
    many: FxHashMap<(usize, u32), Vec<u32>>,
}

impl Holders {
    /// Record that sub-part `j` holds row `r` of dimension `d`.
    fn add(&mut self, d: usize, r: u32, j: u32) {
        let one = &mut self.one[d][r as usize];
        if *one == NONE {
            *one = j;
        } else if *one != j {
            let js = self.many.entry((d, r)).or_insert_with(|| vec![*one]);
            *one = MANY;
            if let Err(at) = js.binary_search(&j) {
                js.insert(at, j);
            }
        }
    }

    /// The sub-parts holding row `r` of dimension `d`, ascending.
    fn of(&self, d: usize, r: usize) -> &[u32] {
        match &self.one[d][r] {
            &NONE => &[],
            &MANY => &self.many[&(d, r as u32)],
            j => std::slice::from_ref(j),
        }
    }
}

/// The split rule both restore paths share: sub-part `j` of `k` of a file
/// part is the `j`-th of `k` count-balanced contiguous ranges of its
/// elements in the Morton order of their centroids
/// ([`sfc::morton_keys`], [`sfc::weighted_cut`]), gid breaking ties.
/// Returns each element's sub-part, in input order.
fn morton_pieces(centroids: &[[f64; 3]], gids: &[GlobalId], k: usize) -> Vec<usize> {
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
    /// The part: entities and tags.
    pub part: Part,
    /// The part's field values, one field per manifest field, in manifest
    /// order.
    pub fields: Vec<Field>,
    /// Ghost copies: (local entity, source part), in entity order. Empty
    /// when ghosts were skipped.
    pub ghosts: Vec<(MeshEnt, PartId)>,
    /// For a [`Pick::Piece`] build, each built entity other sub-parts also
    /// hold, with their part ids, ascending (sub-part `j'` of part `id` built
    /// as sub-part `j` is `id - j + j'`). Empty for [`Pick::Whole`].
    pub siblings: Vec<(MeshEnt, Vec<PartId>)>,
}

/// Build part `id` from the rows of a block of file parts, in ascending
/// file-part order, keeping `pick` of each; with `skip_ghosts` ghost rows
/// are dropped. Each file part's rows are built in turn with core's builder
/// ([`Part::build`]); as every dimension has its own index space, that
/// creates each dimension's entities in the order building dimension by
/// dimension across the block would. A shared entity another part of the
/// block already built is found, not built again (the lower part's row
/// creates it, and the builder attaches each row's tags to it), but an
/// element held by two of them is refused. Field values attach to the rows
/// that were built, only at the dimensions their field's shape puts nodes
/// on. This is the one loader every restored part comes from.
///
/// # Panics
/// Panics on an empty block, and on a `Pick::Piece(j, _)` with `id < j`.
pub fn build_part(
    id: PartId,
    block: &[PartRows],
    pick: Pick,
    skip_ghosts: bool,
) -> Result<Built, IoError> {
    let _span = pumi_obs::span!("io.build");
    let elem_dim = block.first().expect("a block to build").elem_dim;
    let ed = Dim::from_usize(elem_dim);
    let mut part = Part::new(id, elem_dim);
    let (me, holders) = match pick {
        Pick::Whole => (0, Vec::new()),
        Pick::Piece(j, k) => {
            let holders = block.iter().map(|rows| rows.holders(k));
            (j as u32, holders.collect::<Result<Vec<_>, _>>()?)
        }
    };
    let whole = [me];
    let held =
        |m: usize, d: Dim, r: usize| holders.get(m).map_or(&whole[..], |h| h.of(d.as_usize(), r));
    let mut placed: Vec<Placed> = Vec::with_capacity(block.len());
    for (m, rows) in block.iter().enumerate() {
        let mut at = Placed::default();
        let keep = |d: Dim, r: usize| {
            let src = rows.rows.dim(d).extra[r];
            src != RETIRED && !(skip_ghosts && src != NONE) && held(m, d, r).contains(&me)
        };
        part.build(&rows.rows, &mut at, keep)
            .map_err(|e| rows.refused(e))?;
        // Only a later part of the block can meet an element again.
        let gids = &rows.rows.dim(ed).gid;
        let found = |&r: &usize| at.get(ed, r).is_some_and(|(_, new)| !new);
        let met = (m > 0).then(|| (0..gids.len()).find(found)).flatten();
        if let Some(gid) = met.map(|r| gids[r]) {
            let p = block[..m]
                .iter()
                .find(|o| o.holds(ed, gid))
                .map_or(rows.fpart, |o| o.fpart);
            let detail = format!("element gid {gid} is also held by part {p}");
            return Err(bad(rows.fpart, Section::Entities, detail));
        }
        placed.push(at);
    }
    // What each built row is besides an entity, in the order of building
    // dimension by dimension across the block.
    let (mut ghosts, mut siblings) = (Vec::new(), Vec::new());
    for d in (0..=elem_dim).map(Dim::from_usize) {
        for (m, (rows, at)) in block.iter().zip(&placed).enumerate() {
            for (r, &src) in rows.rows.dim(d).extra.iter().enumerate() {
                let Some((e, true)) = at.get(d, r) else {
                    continue;
                };
                if src != NONE {
                    ghosts.push((e, src));
                }
                if let held @ [_, _, ..] = held(m, d, r) {
                    let others = held.iter().filter(|&&j| j != me);
                    siblings.push((e, others.map(|&j| id - me + j).collect()));
                }
            }
        }
    }
    // A row another part of the block built carries no field values.
    let mut fields: Vec<Field> = block[0]
        .fields
        .iter()
        .map(|f| Field::new(&f.name, f.shape, f.ncomp))
        .collect();
    let built = |at: &Placed, dim: Dim, r: u32| match at.get(dim, r as usize) {
        Some((e, true)) => Some(e),
        _ => None,
    };
    for (rows, at) in block.iter().zip(&placed) {
        for (field, f) in fields.iter_mut().zip(&rows.fields) {
            for (&(dim, r), v) in f.at.iter().zip(f.vals.chunks_exact(f.ncomp)) {
                if let Some(e) = built(at, dim, r).filter(|_| f.shape.has_nodes(dim, elem_dim)) {
                    field.set(e, v);
                }
            }
        }
    }
    Ok(Built {
        part,
        fields,
        ghosts,
        siblings,
    })
}
