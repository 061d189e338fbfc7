//! Entity transport: the one wire format and the one remote-link exchange
//! under `distribute`, `migrate`, `Overlap::grow`, adaptation's relink and
//! checkpoint restore.
//!
//! §II-B/C's machinery is two ideas, each spelled once here:
//!
//! * **ship an entity** — the `put_entity`/`decode_entity_frame` record
//!   (`dim, topo, gid, class, <caller's extra field>, coords | vertex gids,
//!   tags`) and [`Part::create_by_gid`], which finds the entity by gid or
//!   builds it from its vertex gids;
//! * **link the copies** — [`stitch`]: every part tells the other residence
//!   parts its local index with one [`put_link`] row `(dim, gid, index)`
//!   per (entity, peer), and receivers resolve the rows by gid.
//!
//! Nothing here decides what a bad frame means: decoders return
//! [`MsgError`]s and [`stitch`] returns the frames and announcements it
//! could not apply; callers keep their own policy (panic, assert, or a
//! collective error list).

use crate::dist::{DistMesh, PartExchange};
use crate::part::{Part, NO_GID};
use pumi_geom::GeomEnt;
use pumi_mesh::Topology;
use pumi_pcu::{Comm, MsgError, MsgReader, MsgWriter};
use pumi_util::tag::{TagData, TagKind};
use pumi_util::{Dim, FxHashMap, GlobalId, MeshEnt, PartId};

/// Decode a dimension byte; anything outside `0..=3` is a
/// [`MsgError::BadEnum`].
pub fn get_dim(r: &mut MsgReader) -> Result<Dim, MsgError> {
    let b = r.try_get_u8()?;
    Dim::try_from_u8(b).ok_or(MsgError::bad_enum("dimension", b))
}

// ---------------------------------------------------------------------
// Link rows and the stitch
// ---------------------------------------------------------------------

/// Append one link row: `dim u8, gid u64, local index u32`.
pub fn put_link(w: &mut MsgWriter, dim: Dim, gid: GlobalId, index: u32) {
    w.put_u8(dim.as_usize() as u8);
    w.put_u64(gid);
    w.put_u32(index);
}

/// Decode one link row written by [`put_link`].
pub fn get_link(r: &mut MsgReader) -> Result<(Dim, GlobalId, u32), MsgError> {
    Ok((get_dim(r)?, r.try_get_u64()?, r.try_get_u32()?))
}

/// Rebuild remote-copy links. `announce[slot]` lists, in wire order, the
/// entities local part `slot` tells its peers about and the parts to tell
/// (the part's own id may appear in a peer list and is skipped). Each
/// receiver resolves the incoming rows by gid, frames taken in canonical
/// `(to, from)` order, and every entity that was announced *to* gets its
/// remote-copy list replaced by exactly the announcers. Collective.
///
/// Returns what could not be applied, as `(from, to, error)`: a frame that
/// stopped decoding (its earlier rows were applied), or an announcement
/// naming an entity the receiver does not hold ([`MsgError::Missing`]).
pub fn stitch<P: AsRef<[PartId]>>(
    comm: &Comm,
    dm: &mut DistMesh,
    announce: &[Vec<(MeshEnt, P)>],
) -> Vec<(PartId, PartId, MsgError)> {
    let mut ex = PartExchange::new(comm, &dm.map);
    for (part, ents) in dm.parts.iter().zip(announce) {
        for (e, peers) in ents {
            let gid = part.gid_of(*e);
            debug_assert_ne!(gid, NO_GID, "announcing an entity without gid");
            for &q in peers.as_ref() {
                if q != part.id {
                    put_link(ex.to(part.id, q), e.dim(), gid, e.index());
                }
            }
        }
    }
    // Remote-copy lists must not depend on frame arrival order.
    let mut frames = ex.finish();
    frames.sort_by_key(|&(from, to, _)| (to, from));
    let mut faults = Vec::new();
    let mut incoming: Vec<FxHashMap<MeshEnt, Vec<(PartId, u32)>>> =
        vec![FxHashMap::default(); dm.parts.len()];
    for (from, to, mut r) in frames {
        let slot = dm.map.slot_of(to);
        while !r.is_done() {
            match get_link(&mut r) {
                Ok((d, gid, ridx)) => match dm.parts[slot].find_gid(d, gid) {
                    Some(e) => incoming[slot].entry(e).or_default().push((from, ridx)),
                    None => {
                        let dim = d.as_usize() as u8;
                        faults.push((from, to, MsgError::missing("stitch target", dim, gid)));
                    }
                },
                Err(e) => {
                    faults.push((from, to, e));
                    break;
                }
            }
        }
    }
    for (part, ents) in dm.parts.iter_mut().zip(incoming) {
        for (e, copies) in ents {
            part.set_remotes(e, copies);
        }
    }
    faults
}

// ---------------------------------------------------------------------
// Tags
// ---------------------------------------------------------------------

/// Append the tag block of `e`: count, then `name, kind, len, value` each.
pub(crate) fn pack_tags(part: &Part, e: MeshEnt, w: &mut MsgWriter) {
    let tags = part.mesh.tags().collect(e);
    w.put_u32(tags.len() as u32);
    let mut buf = Vec::new();
    for (tid, data) in tags {
        let tm = part.mesh.tags();
        w.put_bytes(tm.name(tid).as_bytes());
        w.put_u8(match tm.kind(tid) {
            TagKind::Int => 0,
            TagKind::Double => 1,
            TagKind::Bytes => 2,
        });
        w.put_u32(tm.len_of(tid) as u32);
        buf.clear();
        data.encode(&mut buf);
        w.put_bytes(&buf);
    }
}

/// One decoded tag attachment, not yet applied to any entity.
#[derive(Debug)]
pub(crate) struct TagRecord {
    /// Tag name bytes (validated UTF-8 at decode time).
    name: bytes::Bytes,
    kind: TagKind,
    len: usize,
    data: TagData,
}

/// Decode a tag block. Every malformed input — non-UTF-8 name, unknown kind
/// byte, undecodable value — surfaces as a typed [`MsgError`], not a panic.
pub(crate) fn decode_tags(r: &mut MsgReader) -> Result<Vec<TagRecord>, MsgError> {
    let n = r.try_get_u32()?;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        // Zero-copy sub-slices of the incoming message: tag names and
        // payloads are borrowed, not copied into fresh Vecs.
        let name = r.try_get_bytes_shared()?;
        if std::str::from_utf8(&name).is_err() {
            return Err(MsgError::corrupt("tag name (not UTF-8)"));
        }
        let kind = match r.try_get_u8()? {
            0 => TagKind::Int,
            1 => TagKind::Double,
            2 => TagKind::Bytes,
            b => return Err(MsgError::bad_enum("tag kind", b)),
        };
        let len = r.try_get_u32()? as usize;
        let buf = r.try_get_bytes_shared()?;
        let mut pos = 0;
        let data = TagData::decode(&buf, &mut pos).ok_or(MsgError::corrupt("tag value"))?;
        out.push(TagRecord {
            name,
            kind,
            len,
            data,
        });
    }
    Ok(out)
}

pub(crate) fn apply_tags(part: &mut Part, e: MeshEnt, tags: Vec<TagRecord>) {
    for t in tags {
        let name = std::str::from_utf8(&t.name).expect("validated at decode");
        let tid = part.mesh.tags_mut().declare(name, t.kind, t.len);
        part.mesh.tags_mut().set(tid, e, t.data);
    }
}

pub(crate) fn unpack_tags(part: &mut Part, e: MeshEnt, r: &mut MsgReader) -> Result<(), MsgError> {
    let tags = decode_tags(r)?;
    apply_tags(part, e, tags);
    Ok(())
}

// ---------------------------------------------------------------------
// Entity records
// ---------------------------------------------------------------------

/// One decoded entity record, not yet applied to any part. `X` is the
/// caller's extra field: the new residence list for `migrate`, the sender's
/// local index for `Overlap::grow`.
#[derive(Debug)]
pub(crate) struct EntityRecord<X> {
    /// Fixes the dimension too: decode rejects a disagreeing dimension byte.
    topo: Topology,
    gid: GlobalId,
    class: GeomEnt,
    extra: X,
    /// Vertex records only; zeroed for higher dimensions.
    coords: [f64; 3],
    /// Higher-dimension records only: global ids of the defining vertices.
    vgids: Vec<GlobalId>,
    tags: Vec<TagRecord>,
}

/// Append the record of `e`: header, the caller's `extra` field, geometry
/// (coordinates for a vertex, vertex gids otherwise), tags.
pub(crate) fn put_entity(
    w: &mut MsgWriter,
    part: &Part,
    e: MeshEnt,
    extra: impl FnOnce(&mut MsgWriter),
) {
    w.put_u8(e.dim().as_usize() as u8);
    w.put_u8(part.mesh.topo(e).to_u8());
    w.put_u64(part.gid_of(e));
    w.put_u32(part.mesh.class_of(e).0);
    extra(w);
    if e.dim() == Dim::Vertex {
        for x in part.mesh.coords(e) {
            w.put_f64(x);
        }
    } else {
        let vgids: Vec<GlobalId> = part
            .mesh
            .verts_of(e)
            .iter()
            .map(|&v| part.gid_of(MeshEnt::vertex(v)))
            .collect();
        w.put_u64_slice(&vgids);
    }
    pack_tags(part, e, w);
}

/// Decode a frame of [`put_entity`] records without touching any part;
/// `extra` reads the caller's field. Corrupt dimension/topology bytes
/// surface as [`MsgError::BadEnum`].
pub(crate) fn decode_entity_frame<X>(
    r: &mut MsgReader,
    extra: impl Fn(&mut MsgReader) -> Result<X, MsgError>,
) -> Result<Vec<EntityRecord<X>>, MsgError> {
    let mut out = Vec::new();
    while !r.is_done() {
        let dim = get_dim(r)?;
        let tb = r.try_get_u8()?;
        let topo = Topology::try_from_u8(tb).ok_or(MsgError::bad_enum("topology", tb))?;
        if topo.dim() != dim {
            return Err(MsgError::corrupt(
                "entity record (topology/dimension mismatch)",
            ));
        }
        let gid = r.try_get_u64()?;
        let class = GeomEnt(r.try_get_u32()?);
        let extra = extra(r)?;
        let (coords, vgids) = if dim == Dim::Vertex {
            let x = [r.try_get_f64()?, r.try_get_f64()?, r.try_get_f64()?];
            (x, Vec::new())
        } else {
            ([0.0; 3], r.try_get_u64_slice()?)
        };
        let tags = decode_tags(r)?;
        out.push(EntityRecord {
            topo,
            gid,
            class,
            extra,
            coords,
            vgids,
            tags,
        });
    }
    Ok(out)
}

impl<X> EntityRecord<X> {
    pub(crate) fn dim(&self) -> Dim {
        self.topo.dim()
    }

    /// Find or create the entity on `part` and attach the record's tags.
    /// Returns the entity, whether it was created, and the extra field. A
    /// closure vertex `part` lacks is a [`MsgError::Missing`] naming it.
    pub(crate) fn apply(self, part: &mut Part) -> Result<(MeshEnt, bool, X), MsgError> {
        let (e, fresh) = part
            .create_by_gid(self.topo, self.gid, self.class, self.coords, &self.vgids)
            .map_err(|g| MsgError::missing("closure vertex", 0, g))?;
        apply_tags(part, e, self.tags);
        Ok((e, fresh, self.extra))
    }
}

impl Part {
    /// Find the entity of `topo`'s dimension with global id `gid`, or
    /// create it: a vertex at `coords`, anything else over the vertices
    /// named by `vgids`. Returns the entity and whether it was created;
    /// `Err` carries the first vertex gid this part does not hold.
    pub fn create_by_gid(
        &mut self,
        topo: Topology,
        gid: GlobalId,
        class: GeomEnt,
        coords: [f64; 3],
        vgids: &[GlobalId],
    ) -> Result<(MeshEnt, bool), GlobalId> {
        if let Some(e) = self.find_gid(topo.dim(), gid) {
            return Ok((e, false));
        }
        if topo.dim() == Dim::Vertex {
            return Ok((self.add_vertex(coords, class, gid), true));
        }
        let mut verts = Vec::with_capacity(vgids.len());
        for &g in vgids {
            verts.push(self.find_gid(Dim::Vertex, g).ok_or(g)?.index());
        }
        Ok((self.add_entity(topo, &verts, class, gid), true))
    }
}
