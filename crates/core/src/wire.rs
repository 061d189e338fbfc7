//! Entity transport: the one entity record and the one remote-link
//! exchange under `distribute`, `migrate`, `Overlap::grow`, adaptation's
//! relink and checkpoint restore. The records are written through
//! [`SectionSink`], so a checkpoint's part file holds the same records a
//! migration ships.
//!
//! §II-B/C's machinery is two ideas, each spelled once here:
//!
//! * **ship an entity** — the [`put_entity`] record (`dim, topo, gid,
//!   class, <caller's extra field>, coords | vertex gids, tags`), which
//!   [`decode_entity_frame`] appends to a [`Rows`] block for
//!   [`Part::build`] to find or create; `Overlap::grow`'s extra field is
//!   the entity's root copy, one [`put_share`] `(part, index)`, and a
//!   checkpoint's is the ghost source, [`put_ghost_source`];
//! * **link the copies** — [`stitch`]: every part tells the other residence
//!   parts its local index with one [`put_link`] row `(dim, gid, index)`
//!   per (entity, peer), and receivers resolve the rows by gid. Before
//!   `migrate` links, its copies agree on where an entity will live with
//!   one [`put_residence`] row `(dim, gid, parts)` per (entity, peer).
//!
//! Nothing here decides what a bad frame means: decoders return
//! [`MsgError`]s and [`stitch`] returns the frames and announcements it
//! could not apply; callers keep their own policy (panic, assert, or a
//! collective error list).

use crate::dist::{DistMesh, PartExchange};
use crate::part::{Part, NO_GID};
use crate::rows::Rows;
use pumi_pcu::{Comm, MsgError, MsgReader, MsgWriter, SectionSink};
use pumi_util::tag::TagKind;
use pumi_util::{Dim, GlobalId, MeshEnt, PartId};

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

/// Append one residence row: `dim u8, gid u64, parts` — the parts a
/// length-prefixed `u32` list, as [`get_parts`] reads it.
pub fn put_residence(w: &mut impl SectionSink, dim: Dim, gid: GlobalId, parts: &[PartId]) {
    w.put_u8(dim.as_usize() as u8);
    w.put_u64(gid);
    w.put_u32_slice(parts);
}

/// Decode one residence row written by [`put_residence`], appending its
/// parts to `parts`.
pub fn get_residence(
    r: &mut MsgReader,
    nparts: usize,
    parts: &mut Vec<PartId>,
) -> Result<(Dim, GlobalId), MsgError> {
    let d = get_dim(r)?;
    let gid = r.try_get_u64()?;
    get_parts(r, nparts, parts)?;
    Ok((d, gid))
}

/// Decode a length-prefixed part list onto `out`. A length longer than
/// the frame is an underrun before anything is reserved, and a part
/// outside `0..nparts` is [`MsgError::Corrupt`].
pub fn get_parts(r: &mut MsgReader, nparts: usize, out: &mut Vec<PartId>) -> Result<(), MsgError> {
    let n = r.try_get_u32()? as usize;
    if r.remaining() / 4 < n {
        return Err(MsgError::underrun(n.saturating_mul(4), r.remaining()));
    }
    out.reserve(n);
    for _ in 0..n {
        out.push(get_part(r, nparts)?);
    }
    Ok(())
}

/// Decode one part id; a part outside `0..nparts` is [`MsgError::Corrupt`].
fn get_part(r: &mut MsgReader, nparts: usize) -> Result<PartId, MsgError> {
    let p = r.try_get_u32()?;
    if p as usize >= nparts {
        return Err(MsgError::corrupt("part outside the world"));
    }
    Ok(p)
}

/// Append one copy of an entity: `part u32, index u32`.
pub fn put_share(w: &mut MsgWriter, (part, index): (PartId, u32)) {
    w.put_u32(part);
    w.put_u32(index);
}

/// Decode one copy written by [`put_share`]; a part outside `0..nparts` is
/// [`MsgError::Corrupt`].
pub fn get_share(r: &mut MsgReader, nparts: usize) -> Result<(PartId, u32), MsgError> {
    Ok((get_part(r, nparts)?, r.try_get_u32()?))
}

/// Append a ghost source: a flag byte, then the source part when there is
/// one.
pub fn put_ghost_source(w: &mut impl SectionSink, src: Option<PartId>) {
    match src {
        Some(p) => {
            w.put_u8(1);
            w.put_u32(p);
        }
        None => w.put_u8(0),
    }
}

/// Decode a ghost source written by [`put_ghost_source`]; a flag other than
/// 0 or 1 is [`MsgError::BadEnum`], a part outside `0..nparts`
/// [`MsgError::Corrupt`].
pub fn get_ghost_source(r: &mut MsgReader, nparts: usize) -> Result<Option<PartId>, MsgError> {
    match r.try_get_u8()? {
        0 => Ok(None),
        1 => get_part(r, nparts).map(Some),
        b => Err(MsgError::bad_enum("ghost flag", b)),
    }
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
    let mut incoming: Vec<Vec<(MeshEnt, PartId, u32)>> = vec![Vec::new(); dm.parts.len()];
    for (from, to, mut r) in frames {
        let slot = dm.map.slot_of(to);
        while !r.is_done() {
            match get_link(&mut r) {
                Ok((d, gid, ridx)) => match dm.parts[slot].find_gid(d, gid) {
                    Some(e) => incoming[slot].push((e, from, ridx)),
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
    let mut copies = Vec::new();
    for (part, mut links) in dm.parts.iter_mut().zip(incoming) {
        links.sort_unstable();
        links.dedup();
        for ent in links.chunk_by(|a, b| a.0 == b.0) {
            copies.clear();
            copies.extend(ent.iter().map(|&(_, q, i)| (q, i)));
            part.link_copies(ent[0].0, &copies);
        }
    }
    faults
}

// ---------------------------------------------------------------------
// Tags
// ---------------------------------------------------------------------

/// Append the tag block of `e`: count, then `name, kind, len, value` each.
/// Values are read in place and encoded straight into `w`.
pub(crate) fn pack_tags(part: &Part, e: MeshEnt, w: &mut impl SectionSink) {
    let tm = part.mesh.tags();
    let values = || tm.tags().filter_map(|t| Some((t, tm.get_ref(t, e)?)));
    w.put_u32(values().count() as u32);
    for (tid, value) in values() {
        w.put_bytes(tm.name(tid).as_bytes());
        w.put_u8(match tm.kind(tid) {
            TagKind::Int => 0,
            TagKind::Double => 1,
            TagKind::Bytes => 2,
        });
        w.put_u32(tm.len_of(tid) as u32);
        // `put_bytes`'s layout of the value's `TagData::encode` bytes.
        w.put_u32(value.encoded_len() as u32);
        value.encode_with(|b| w.put_raw(b));
    }
}

// ---------------------------------------------------------------------
// Entity records
// ---------------------------------------------------------------------

/// Append the record of `e`: header, the caller's `extra` field, geometry
/// (coordinates for a vertex, vertex gids otherwise), tags.
pub fn put_entity<S: SectionSink>(w: &mut S, part: &Part, e: MeshEnt, extra: impl FnOnce(&mut S)) {
    let mut head = [0u8; 14];
    head[0] = e.dim().as_usize() as u8;
    head[1] = part.mesh.topo(e).to_u8();
    head[2..10].copy_from_slice(&part.gid_of(e).to_le_bytes());
    head[10..].copy_from_slice(&part.mesh.class_of(e).0.to_le_bytes());
    w.put_raw(&head);
    extra(w);
    // The geometry in one write: three coordinates, or the vertex gids in
    // `put_u64_slice`'s layout.
    let mut geo = [0u8; 4 + 8 * 8];
    let len = if e.dim() == Dim::Vertex {
        for (b, x) in geo.chunks_exact_mut(8).zip(part.mesh.coords(e)) {
            b.copy_from_slice(&x.to_le_bytes());
        }
        3 * 8
    } else {
        let verts = part.mesh.verts_of(e);
        geo[..4].copy_from_slice(&(verts.len() as u32).to_le_bytes());
        for (b, &v) in geo[4..].chunks_exact_mut(8).zip(verts) {
            b.copy_from_slice(&part.gid_of(MeshEnt::vertex(v)).to_le_bytes());
        }
        4 + 8 * verts.len()
    };
    w.put_raw(&geo[..len]);
    pack_tags(part, e, w);
}

/// Append every [`put_entity`] record of a frame to `rows`, without
/// touching any part; `extra` reads the caller's field. The [`crate::rows`]
/// module docs list what a malformed record is refused with.
pub fn decode_entity_frame<X>(
    r: &mut MsgReader,
    rows: &mut Rows<X>,
    mut extra: impl FnMut(&mut MsgReader) -> Result<X, MsgError>,
) -> Result<(), MsgError> {
    while !r.is_done() {
        rows.decode_record(r, &mut extra)?;
    }
    Ok(())
}
