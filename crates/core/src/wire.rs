//! Entity transport: the one wire format and the one remote-link exchange
//! under `distribute`, `migrate`, `Overlap::grow`, adaptation's relink and
//! checkpoint restore.
//!
//! §II-B/C's machinery is two ideas, each spelled once here:
//!
//! * **ship an entity** — the [`put_entity`] record (`dim, topo, gid,
//!   class, <caller's extra field>, coords | vertex gids, tags`), which
//!   [`decode_entity_frame`] appends to a [`Rows`] block for
//!   [`Part::build`] to find or create;
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
use pumi_pcu::{Comm, MsgError, MsgReader, MsgWriter};
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
pub fn put_residence(w: &mut MsgWriter, dim: Dim, gid: GlobalId, parts: &[PartId]) {
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
        let p = r.try_get_u32()?;
        if p as usize >= nparts {
            return Err(MsgError::corrupt("part outside the world"));
        }
        out.push(p);
    }
    Ok(())
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

// ---------------------------------------------------------------------
// Entity records
// ---------------------------------------------------------------------

/// Append the record of `e`: header, the caller's `extra` field, geometry
/// (coordinates for a vertex, vertex gids otherwise), tags.
pub fn put_entity(w: &mut MsgWriter, part: &Part, e: MeshEnt, extra: impl FnOnce(&mut MsgWriter)) {
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
        // `put_u64_slice`'s layout, without collecting the gids first.
        let verts = part.mesh.verts_of(e);
        w.put_u32(verts.len() as u32);
        for &v in verts {
            w.put_u64(part.gid_of(MeshEnt::vertex(v)));
        }
    }
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
