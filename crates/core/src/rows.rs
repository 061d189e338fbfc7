//! Entities from rows: the one builder behind `distribute`, `migrate`,
//! `Overlap::grow` and the checkpoint restore.
//!
//! A [`Rows`] block holds flat per-dimension columns — global id, topology,
//! classification, coordinates, vertex references and the caller's extra
//! column `X` — and a row → tag-value column. A row names its vertices by
//! dimension-0 row of the block ([`Rows::push_entity`]) or, decoded from a
//! wire frame, by gid, until [`Rows::resolve_vertices`] names them by row. [`Part::build`] finds or creates the rows dimension
//! by dimension, in row order, and records in a [`Placed`] where each
//! landed. Every caller gets one input contract, each violation a typed
//! [`MsgError`]:
//!
//! * a row has its topology's number of distinct vertices, each held by the
//!   part or created by the block;
//! * a created entity lands on no existing one, and creates nothing else:
//!   every closure entity comes with its own row;
//! * no side bounds a third element;
//! * a tag value has its declared kind and length, and the declaration
//!   agrees with the part's.

use crate::part::Part;
use pumi_geom::GeomEnt;
use pumi_mesh::{Mesh, Topology};
use pumi_pcu::{MsgError, MsgReader};
use pumi_util::tag::TagKind;
use pumi_util::{Dim, FxHashMap, GlobalId, MeshEnt};

/// No local entity.
const NONE: u32 = u32::MAX;

/// On a vertex reference: the low bits index the block's gid-named
/// vertices, not its dimension-0 rows. On a [`Placed`] index: the part
/// already held the entity.
const FLAG: u32 = 1 << 31;

/// [`MsgError::Conflict`] of a row that would land on an existing entity;
/// the error names that entity.
pub const TWIN: &str = "entity over the vertices of an existing one";

/// [`MsgError::Conflict`] of an element whose side bounds two others; the
/// error names the side.
pub const THIRD_ELEMENT: &str = "third element on a side";

/// One dimension's rows. The columns are public so that a decoder can
/// update a row in place.
#[derive(Debug, Clone, Default)]
pub struct DimRows<X> {
    /// Global id per row.
    pub gid: Vec<GlobalId>,
    /// Topology per row.
    pub topo: Vec<Topology>,
    /// Classification per row.
    pub class: Vec<GeomEnt>,
    /// Coordinates per row (dimension 0 only).
    pub coords: Vec<[f64; 3]>,
    /// The caller's column.
    pub extra: Vec<X>,
    /// Row `r`'s vertex references start at `verts[first[r]]`.
    first: Vec<u32>,
    verts: Vec<u32>,
    /// `(row, start, end)`: the rows with tags, ascending, and their values
    /// in the block's tag column.
    tags: Vec<[u32; 3]>,
}

impl<X> DimRows<X> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.gid.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.gid.is_empty()
    }

    /// Row `r`'s vertices, as dimension-0 rows of a row pushed with
    /// [`Rows::push_entity`].
    pub fn verts_of(&self, r: usize) -> &[u32] {
        let at = self.first[r] as usize;
        &self.verts[at..at + self.topo[r].num_verts()]
    }

    fn clear(&mut self) {
        self.gid.clear();
        self.topo.clear();
        self.class.clear();
        self.coords.clear();
        self.extra.clear();
        self.first.clear();
        self.verts.clear();
        self.tags.clear();
    }

    fn push(&mut self, topo: Topology, gid: GlobalId, class: GeomEnt, extra: X, tags: [u32; 2]) {
        self.gid.push(gid);
        self.topo.push(topo);
        self.class.push(class);
        self.extra.push(extra);
        if tags[0] < tags[1] {
            self.tags.push([self.len() as u32 - 1, tags[0], tags[1]]);
        }
    }
}

/// The tag values of a block's rows: `(declaration, start, length)` in
/// `words` (`Int`/`Double` bit patterns) or `bytes`.
#[derive(Debug, Clone, Default)]
struct TagCol {
    decls: Vec<(String, TagKind, usize)>,
    vals: Vec<(u32, u32, u32)>,
    words: Vec<u64>,
    bytes: Vec<u8>,
}

impl TagCol {
    /// Decode one tag block as `wire::pack_tags` writes it (`count`, then
    /// `name, kind, len, value` each) and return its range of values.
    fn decode(&mut self, r: &mut MsgReader) -> Result<[u32; 2], MsgError> {
        let start = self.vals.len() as u32;
        for _ in 0..r.try_get_u32()? {
            let name = r.try_get_bytes_shared()?;
            let name = std::str::from_utf8(&name)
                .map_err(|_| MsgError::corrupt("tag name (not UTF-8)"))?;
            let code = r.try_get_u8()?;
            let kind = [TagKind::Int, TagKind::Double, TagKind::Bytes]
                .get(code as usize)
                .copied()
                .ok_or(MsgError::bad_enum("tag kind", code))?;
            let len = r.try_get_u32()? as usize;
            // The value: its own kind code and count, then the payload.
            let v = r.try_get_bytes_shared()?;
            let head = v.get(..5).ok_or(MsgError::corrupt("tag value"))?;
            let n = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
            if head[0] != code || (kind != TagKind::Bytes && n != len) {
                let what = "tag value (kind or length differs from its declaration)";
                return Err(MsgError::corrupt(what));
            }
            let width = if kind == TagKind::Bytes { 1 } else { 8 };
            let payload = v[5..]
                .get(..n * width)
                .ok_or(MsgError::corrupt("tag value"))?;
            let at = if kind == TagKind::Bytes {
                self.bytes.extend_from_slice(payload);
                self.bytes.len() - n
            } else {
                let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
                self.words.extend(payload.chunks_exact(8).map(word));
                self.words.len() - n
            };
            let decl = match self.decls.iter().position(|(m, ..)| m == name) {
                Some(i) if (self.decls[i].1, self.decls[i].2) != (kind, len) => {
                    return Err(MsgError::corrupt(
                        "tag declaration (differs within the frame)",
                    ));
                }
                Some(i) => i,
                None => {
                    self.decls.push((name.to_string(), kind, len));
                    self.decls.len() - 1
                }
            };
            self.vals.push((decl as u32, at as u32, n as u32));
        }
        Ok([start, self.vals.len() as u32])
    }

    /// Declare and set the values `range` on `e`, in order.
    fn apply(&self, part: &mut Part, [start, end]: [u32; 2], e: MeshEnt) -> Result<(), MsgError> {
        let tags = part.mesh.tags_mut();
        for &(decl, at, n) in &self.vals[start as usize..end as usize] {
            let (name, kind, len) = &self.decls[decl as usize];
            let tid = match tags.find(name) {
                Some(t) if (tags.kind(t), tags.len_of(t)) != (*kind, *len) => {
                    return Err(MsgError::corrupt(
                        "tag declaration (differs from the part's)",
                    ));
                }
                Some(t) => t,
                None => tags.declare(name, *kind, *len),
            };
            let range = at as usize..(at + n) as usize;
            match kind {
                TagKind::Bytes => tags.set_bytes(tid, e, &self.bytes[range]),
                _ => tags.set_words(tid, e, &self.words[range]),
            }
        }
        Ok(())
    }
}

/// Decode one entity's tag block and attach it to `e`: a tag push's record.
pub(crate) fn unpack_tags(part: &mut Part, e: MeshEnt, r: &mut MsgReader) -> Result<(), MsgError> {
    let mut col = TagCol::default();
    let range = col.decode(r)?;
    col.apply(part, range, e)
}

/// A block of entity rows with the caller's extra column `X`.
#[derive(Debug, Clone, Default)]
pub struct Rows<X> {
    dims: [DimRows<X>; 4],
    /// The vertices rows name by gid, each once.
    vgids: Vec<GlobalId>,
    vslot: FxHashMap<GlobalId, u32>,
    tags: TagCol,
}

fn bad_count() -> MsgError {
    MsgError::corrupt(
        "entity record (vertex count differs from the number of vertex gids for a topology)",
    )
}

/// Refuse a vertex list `topo` does not have: the wrong count, or a vertex
/// named twice.
fn check_verts<T: PartialEq>(topo: Topology, vs: &[T]) -> Result<(), MsgError> {
    if vs.len() != topo.num_verts() || topo == Topology::Vertex {
        return Err(bad_count());
    }
    if (1..vs.len()).any(|i| vs[..i].contains(&vs[i])) {
        return Err(MsgError::corrupt("entity record (repeated vertex gid)"));
    }
    Ok(())
}

impl<X> Rows<X> {
    /// Drop every row and tag value, keeping the row columns' capacity: one
    /// block serves a stream of frames.
    pub fn clear(&mut self) {
        self.dims.iter_mut().for_each(DimRows::clear);
        self.vgids.clear();
        self.vslot.clear();
        self.tags = TagCol::default();
    }

    /// The rows of dimension `d`.
    pub fn dim(&self, d: Dim) -> &DimRows<X> {
        &self.dims[d.as_usize()]
    }

    /// The rows of dimension `d`, to update a row in place.
    pub fn dim_mut(&mut self, d: Dim) -> &mut DimRows<X> {
        &mut self.dims[d.as_usize()]
    }

    /// Append a vertex row; returns its row.
    pub fn push_vertex(&mut self, gid: GlobalId, class: GeomEnt, x: [f64; 3], extra: X) -> u32 {
        let rows = &mut self.dims[0];
        rows.coords.push(x);
        rows.push(Topology::Vertex, gid, class, extra, [0; 2]);
        rows.len() as u32 - 1
    }

    /// Append a row of `topo` over the dimension-0 rows `verts`; returns its
    /// row.
    pub fn push_entity(
        &mut self,
        topo: Topology,
        gid: GlobalId,
        class: GeomEnt,
        verts: &[u32],
        extra: X,
    ) -> Result<u32, MsgError> {
        check_verts(topo, verts)?;
        let rows = &mut self.dims[topo.dim().as_usize()];
        rows.first.push(rows.verts.len() as u32);
        rows.verts.extend_from_slice(verts);
        rows.push(topo, gid, class, extra, [0; 2]);
        Ok(rows.len() as u32 - 1)
    }

    /// Give row `to` of dimension `d` the classification, coordinates and
    /// tags of row `from` in place of its own, and leave `from` without
    /// tags: a decoder's update of a row it holds by a later record. The
    /// caller's column is the caller's to update.
    pub fn overwrite(&mut self, d: Dim, to: usize, from: usize) {
        let rows = &mut self.dims[d.as_usize()];
        rows.class[to] = rows.class[from];
        if d == Dim::Vertex {
            rows.coords[to] = rows.coords[from];
        }
        let tags = &mut rows.tags;
        let find = |tags: &[[u32; 3]], r: usize| tags.binary_search_by_key(&(r as u32), |t| t[0]);
        let moved = find(tags, from).ok().map(|i| tags.remove(i));
        match (find(tags, to), moved) {
            (Ok(i), Some([_, start, end])) => tags[i] = [to as u32, start, end],
            (Ok(i), None) => {
                tags.remove(i);
            }
            (Err(i), Some([_, start, end])) => tags.insert(i, [to as u32, start, end]),
            (Err(_), None) => {}
        }
    }

    /// Name by dimension-0 row every vertex a decoded record named by gid,
    /// `row_of` finding the row, so that [`DimRows::verts_of`] are rows for
    /// every row of the block. Refuses a row naming a vertex `row_of` does
    /// not find with [`MsgError::Missing`].
    pub fn resolve_vertices(
        &mut self,
        row_of: impl Fn(GlobalId) -> Option<u32>,
    ) -> Result<(), RowError> {
        let found: Vec<u32> = self
            .vgids
            .iter()
            .map(|&g| row_of(g).unwrap_or(NONE))
            .collect();
        for (d, dr) in self.dims.iter_mut().enumerate().skip(1) {
            for r in 0..dr.len() {
                let at = dr.first[r] as usize;
                for v in &mut dr.verts[at..at + dr.topo[r].num_verts()] {
                    if *v & FLAG == 0 {
                        continue;
                    }
                    let slot = (*v & !FLAG) as usize;
                    if found[slot] == NONE {
                        let err = MsgError::missing("closure vertex", 0, self.vgids[slot]);
                        let dim = Dim::from_usize(d);
                        return Err(RowError { dim, row: r, err });
                    }
                    *v = found[slot];
                }
            }
        }
        self.vgids.clear();
        self.vslot.clear();
        Ok(())
    }

    /// Append one entity record as `wire::put_entity` writes it: `dim, topo,
    /// gid, class`, the caller's field (read by `extra`), coordinates or
    /// vertex gids, tags.
    pub(crate) fn decode_record(
        &mut self,
        r: &mut MsgReader,
        extra: impl FnOnce(&mut MsgReader) -> Result<X, MsgError>,
    ) -> Result<(), MsgError> {
        let dim = crate::wire::get_dim(r)?;
        let tb = r.try_get_u8()?;
        let topo = Topology::try_from_u8(tb).ok_or(MsgError::bad_enum("topology", tb))?;
        if topo.dim() != dim {
            return Err(MsgError::corrupt(
                "entity record (topology/dimension mismatch)",
            ));
        }
        let (gid, class) = (r.try_get_u64()?, GeomEnt(r.try_get_u32()?));
        let extra = extra(r)?;
        if dim == Dim::Vertex {
            let x = [r.try_get_f64()?, r.try_get_f64()?, r.try_get_f64()?];
            let tags = self.tags.decode(r)?;
            self.dims[0].coords.push(x);
            self.dims[0].push(topo, gid, class, extra, tags);
            return Ok(());
        }
        let (n, mut vgids) = (r.try_get_u32()? as usize, [0; 8]);
        if n != topo.num_verts() {
            return Err(bad_count());
        }
        for g in &mut vgids[..n] {
            *g = r.try_get_u64()?;
        }
        check_verts(topo, &vgids[..n])?;
        let tags = self.tags.decode(r)?;
        let rows = &mut self.dims[dim.as_usize()];
        rows.first.push(rows.verts.len() as u32);
        for &g in &vgids[..n] {
            let next = self.vgids.len() as u32;
            let slot = *self.vslot.entry(g).or_insert(next);
            if slot == next {
                self.vgids.push(g);
            }
            rows.verts.push(slot | FLAG);
        }
        rows.push(topo, gid, class, extra, tags);
        Ok(())
    }
}

/// Where [`Part::build`] put each row of a block. Reusable across builds.
#[derive(Debug, Clone, Default)]
pub struct Placed {
    /// Per dimension and row: the local index, flagged when the part
    /// already held the entity, `NONE` for a row not built.
    local: [Vec<u32>; 4],
    /// The local index of each gid-named vertex.
    by_gid: Vec<u32>,
}

impl Placed {
    /// The entity row `r` of dimension `d` was built as or found at, and
    /// whether the build created it; `None` for a row the build skipped.
    pub fn get(&self, d: Dim, r: usize) -> Option<(MeshEnt, bool)> {
        let l = *self.local[d.as_usize()].get(r)?;
        (l != NONE).then(|| (MeshEnt::new(d, l & !FLAG), l & FLAG == 0))
    }
}

/// A row [`Part::build`] refused: its dimension, its position among the
/// block's rows of that dimension, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowError {
    /// The row's dimension.
    pub dim: Dim,
    /// The row's position.
    pub row: usize,
    /// What is wrong with it.
    pub err: MsgError,
}

impl std::fmt::Display for RowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} row {}: {}", self.dim, self.row, self.err)
    }
}

impl std::error::Error for RowError {}

/// Why [`Part::build`] refuses a row: an error, or a conflict that names an
/// entity by its gid.
enum Refusal {
    Bad(MsgError),
    Names(&'static str, MeshEnt),
}

impl Part {
    /// Build the rows of `rows` that `keep` selects, dimension by dimension
    /// and in row order, recording in `at` where each landed: a row whose
    /// gid the part holds is found, any other is created and its gid
    /// recorded. Tags then attach in row order, to found rows as to created
    /// ones. Refuses what the module docs list; on `Err` the part holds
    /// whatever was built before the refused row.
    pub fn build<X>(
        &mut self,
        rows: &Rows<X>,
        at: &mut Placed,
        mut keep: impl FnMut(Dim, usize) -> bool,
    ) -> Result<(), RowError> {
        let _span = pumi_obs::span!("core.build");
        let ed = self.mesh.elem_dim();
        for (d, dr) in rows.dims.iter().enumerate() {
            let dim = Dim::from_usize(d);
            if d == 1 {
                // The block's own vertices exist: resolve each gid-named one.
                let find =
                    |&g: &GlobalId| self.find_gid(Dim::Vertex, g).map_or(NONE, |v| v.index());
                at.by_gid.clear();
                at.by_gid.extend(rows.vgids.iter().map(find));
            }
            let (below, local) = at.local.split_at_mut(d);
            let local = &mut local[0];
            local.clear();
            local.resize(dr.len(), NONE);
            for r in (0..dr.len()).filter(|&r| keep(dim, r)) {
                let made = self.find_or_create_gid(dim, dr.gid[r], |mesh| {
                    if d > ed {
                        return Err(Refusal::Bad(MsgError::corrupt(
                            "entity record (above the element dimension)",
                        )));
                    }
                    if d == 0 {
                        return Ok(mesh.add_vertex(dr.coords[r], dr.class[r]));
                    }
                    let (refs, mut vs) = (dr.verts_of(r), [0u32; 8]);
                    for (v, &x) in vs.iter_mut().zip(refs) {
                        let i = (x & !FLAG) as usize;
                        let (l, g) = match x & FLAG {
                            0 => (below[0][i], rows.dims[0].gid[i]),
                            _ => (at.by_gid[i], rows.vgids[i]),
                        };
                        if l == NONE {
                            return Err(Refusal::Bad(MsgError::missing("closure vertex", 0, g)));
                        }
                        *v = l & !FLAG;
                    }
                    let counts = |m: &Mesh| Dim::ALL.map(|d| m.count(d));
                    let before = counts(mesh);
                    let e = mesh.add_entity(dr.topo[r], &vs[..refs.len()], dr.class[r]);
                    let after = counts(mesh);
                    // Found by its vertices: an existing entity.
                    if after[d] == before[d] {
                        return Err(Refusal::Names(TWIN, e));
                    }
                    if after[..d] != before[..d] {
                        return Err(Refusal::Bad(MsgError::corrupt(
                            "entity record (closure entity without a row)",
                        )));
                    }
                    let third = mesh.down(e).find(|&s| d == ed && mesh.up_count(s) > 2);
                    third.map_or(Ok(e), |s| Err(Refusal::Names(THIRD_ELEMENT, s)))
                });
                local[r] = match made {
                    Ok((e, true)) => e.index(),
                    Ok((e, false)) => e.index() | FLAG,
                    Err(why) => {
                        let err = match why {
                            Refusal::Bad(err) => err,
                            Refusal::Names(what, e) => {
                                MsgError::conflict(what, e.dim().as_usize() as u8, self.gid_of(e))
                            }
                        };
                        return Err(RowError { dim, row: r, err });
                    }
                };
            }
        }
        for (d, dr) in rows.dims.iter().enumerate() {
            for &[r, start, end] in &dr.tags {
                if let Some((e, _)) = at.get(Dim::from_usize(d), r as usize) {
                    let (dim, row) = (e.dim(), r as usize);
                    let refuse = |err| RowError { dim, row, err };
                    rows.tags.apply(self, [start, end], e).map_err(refuse)?;
                }
            }
        }
        Ok(())
    }
}
