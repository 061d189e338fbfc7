//! Fuzzing the entity frame: any byte flip, truncation or length-prefix edit
//! of a real `Overlap::grow` or `migrate` frame, decoded into a row block
//! and built into a part, must come back as `Ok` or as a typed `MsgError` —
//! never a panic. Each damaged frame is built twice: into an empty part, and
//! into a part that already holds the frame's vertices. A build that
//! succeeds must have created nothing without a gid.
//!
//! The same damage applied to a frame of `migrate`'s residence rows or of
//! the stitch's link rows must decode to valid rows or stop at a typed
//! error, and no allocation made while decoding may be larger than the
//! frame: a length read off the wire sizes nothing.

use proptest::prelude::*;
use pumi_core::wire::{
    decode_entity_frame, get_link, get_residence, put_entity, put_link, put_residence,
};
use pumi_core::{distribute, Part, PartMap, Placed, Rows, NO_GID};
use pumi_meshgen::tet_box;
use pumi_pcu::{execute, MsgError, MsgReader, MsgWriter};
use pumi_util::tag::{TagData, TagKind};
use pumi_util::{Dim, MeshEnt, PartId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest allocation or reallocation this thread asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the thread-local is a const-initialised
// `Cell`, which neither allocates nor panics.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Parts in the world the residence rows are decoded for.
const NPARTS: usize = 4;

/// A frame's bytes and where its length prefixes sit.
struct Frame {
    bytes: Vec<u8>,
    prefixes: Vec<usize>,
}

/// Part 0 of `tet_box(2, 2, 2)` (the whole box), with an `Int × 2` tag on
/// its elements, a `Double × 1` tag on its vertices and a `Bytes` tag on
/// some edges, so that frames carry every tag kind.
fn source() -> Part {
    let mut dm = execute(1, |c| {
        let serial = tet_box(2, 2, 2, 1.0, 1.0, 1.0);
        let labels = vec![0 as PartId; serial.index_space(serial.elem_dim_t())];
        distribute(c, PartMap::contiguous(1, 1), &serial, &labels)
    });
    let mut part = dm.pop().expect("one rank").parts.remove(0);
    let tags = part.mesh.tags_mut();
    let (ids, w, b) = (
        tags.declare("ids", TagKind::Int, 2),
        tags.declare("w", TagKind::Double, 1),
        tags.declare("b", TagKind::Bytes, 0),
    );
    for e in part.mesh.snapshot(Dim::Region) {
        let g = part.gid_of(e) as i64;
        part.mesh.tags_mut().set(ids, e, TagData::Ints(vec![g, -g]));
    }
    for v in part.mesh.snapshot(Dim::Vertex) {
        let x = part.mesh.coords(v)[0];
        part.mesh.tags_mut().set_dbl(w, v, x);
    }
    for e in part.mesh.snapshot(Dim::Edge).into_iter().step_by(5) {
        part.mesh
            .tags_mut()
            .set(b, e, TagData::Bytes(vec![1, 2, 3]));
    }
    part
}

/// The closure of the first six elements, bottom up, packed as a grow
/// (`residence == false`: the sender's index) or a migrate (the new
/// residence set) frame would pack it.
fn frame(part: &Part, residence: bool) -> Frame {
    let mut by_dim: [Vec<MeshEnt>; 4] = Default::default();
    for el in part.mesh.elems().take(6) {
        for sub in part.mesh.closure(el) {
            if !by_dim[sub.dim().as_usize()].contains(&sub) {
                by_dim[sub.dim().as_usize()].push(sub);
            }
        }
    }
    let (mut bytes, mut prefixes) = (Vec::new(), Vec::new());
    for &e in by_dim.iter().flatten() {
        let mut w = MsgWriter::new();
        put_entity(&mut w, part, e, |w| match residence {
            true => w.put_u32_slice(&[0, 1]),
            false => w.put_u32(e.index()),
        });
        // Header: dim, topology, gid, class; then the caller's field.
        let mut at = bytes.len() + 1 + 1 + 8 + 4;
        if residence {
            prefixes.push(at);
            at += 4 + 2 * 4;
        } else {
            at += 4;
        }
        if e.dim() == Dim::Vertex {
            at += 3 * 8;
        } else {
            prefixes.push(at);
            at += 4 + 8 * part.mesh.verts_of(e).len();
        }
        prefixes.push(at); // the tag count
        bytes.extend_from_slice(&w.finish());
    }
    Frame { bytes, prefixes }
}

/// Decode `bytes` as one frame and build it on `part`.
fn unpack(part: &mut Part, bytes: &[u8], residence: bool) -> Result<(), String> {
    let r = &mut MsgReader::from_vec(bytes.to_vec());
    match residence {
        true => build(part, r, MsgReader::try_get_u32_slice),
        false => build(part, r, MsgReader::try_get_u32),
    }
}

fn build<X: Default>(
    part: &mut Part,
    r: &mut MsgReader,
    extra: impl FnMut(&mut MsgReader) -> Result<X, MsgError>,
) -> Result<(), String> {
    let mut rows = Rows::default();
    decode_entity_frame(r, &mut rows, extra).map_err(|e| e.to_string())?;
    let at = &mut Placed::default();
    part.build(&rows, at, |_, _| true)
        .map_err(|e| e.to_string())
}

/// A part holding the vertices of the undamaged frame `bytes`.
fn holding_vertices(bytes: &[u8]) -> Part {
    let mut part = Part::new(1, 3);
    let mut rows = Rows::default();
    let r = &mut MsgReader::from_vec(bytes.to_vec());
    decode_entity_frame(r, &mut rows, MsgReader::try_get_u32).expect("grow frame decodes");
    let at = &mut Placed::default();
    part.build(&rows, at, |d, _| d == Dim::Vertex)
        .expect("vertices build");
    part
}

/// After a build that succeeded, every entity carries a gid.
fn all_named(part: &Part) -> bool {
    Dim::ALL
        .iter()
        .all(|&d| part.mesh.iter(d).all(|e| part.gid_of(e) != NO_GID))
}

/// Residence rows (`residence == true`) or link rows for every vertex and
/// edge of the source, as `migrate`'s phase 1 and the stitch pack them.
fn row_frame(part: &Part, residence: bool) -> Frame {
    let (mut w, mut prefixes) = (MsgWriter::new(), Vec::new());
    let mut at = 0;
    for d in [Dim::Vertex, Dim::Edge] {
        for (k, e) in part.mesh.iter(d).enumerate() {
            let gid = part.gid_of(e);
            if residence {
                let parts: Vec<PartId> = (0..1 + k % 3).map(|p| p as PartId).collect();
                put_residence(&mut w, d, gid, &parts);
                prefixes.push(at + 1 + 8);
                at += 1 + 8 + 4 + 4 * parts.len();
            } else {
                put_link(&mut w, d, gid, e.index());
                at += 1 + 8 + 4;
            }
        }
    }
    if prefixes.is_empty() {
        prefixes.push(0);
    }
    Frame {
        bytes: w.finish().to_vec(),
        prefixes,
    }
}

/// Decode every row of `bytes`; the rows before a typed error are valid.
fn decode_rows(bytes: &[u8], residence: bool) -> Result<usize, MsgError> {
    let r = &mut MsgReader::from_vec(bytes.to_vec());
    let (mut rows, mut parts) = (0, Vec::new());
    while !r.is_done() {
        if residence {
            parts.clear();
            get_residence(r, NPARTS, &mut parts)?;
            assert!(parts.iter().all(|&p| (p as usize) < NPARTS), "{parts:?}");
        } else {
            get_link(r)?;
        }
        rows += 1;
    }
    Ok(rows)
}

#[test]
fn undamaged_frames_build() {
    let src = source();
    for residence in [false, true] {
        let f = frame(&src, residence);
        let mut part = Part::new(1, 3);
        unpack(&mut part, &f.bytes, residence).expect("a real frame builds");
        assert_eq!(part.mesh.num_elems(), 6);
        assert!(all_named(&part));
        part.mesh.assert_valid();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_frames_never_panic(
        residence in proptest::bool::ANY,
        how in 0u32..3,
        at in 0.0f64..1.0,
        bit in 0u32..8,
        value in 0u32..6,
    ) {
        let src = source();
        let f = frame(&src, residence);
        let mut bytes = f.bytes.clone();
        let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        match how {
            0 => bytes[i] ^= 1 << bit,
            1 => bytes.truncate(i),
            _ => {
                let p = f.prefixes[(f.prefixes.len() as f64 * at) as usize % f.prefixes.len()];
                let n = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap());
                let edited = [0, 1, n + 1, n.wrapping_sub(1), 0x7fff_ffff, u32::MAX][value as usize];
                bytes[p..p + 4].copy_from_slice(&edited.to_le_bytes());
            }
        }
        let targets = [Part::new(1, 3), holding_vertices(&frame(&src, false).bytes)];
        for mut part in targets {
            if unpack(&mut part, &bytes, residence).is_ok() {
                prop_assert!(all_named(&part), "an entity built without a gid");
            }
        }
    }

    #[test]
    fn damaged_row_frames_decode_or_refuse(
        residence in proptest::bool::ANY,
        how in 0u32..3,
        at in 0.0f64..1.0,
        bit in 0u32..8,
        value in 0u32..6,
    ) {
        let f = row_frame(&source(), residence);
        let whole = decode_rows(&f.bytes, residence).expect("an undamaged frame decodes");
        prop_assert!(whole > 0);
        let mut bytes = f.bytes.clone();
        let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        match how {
            0 => bytes[i] ^= 1 << bit,
            1 => bytes.truncate(i),
            _ => {
                let p = f.prefixes[(f.prefixes.len() as f64 * at) as usize % f.prefixes.len()];
                let n = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap());
                let edited = [0, 1, n + 1, n.wrapping_sub(1), 0x7fff_ffff, u32::MAX][value as usize];
                bytes[p..p + 4].copy_from_slice(&edited.to_le_bytes());
            }
        }
        LARGEST.with(|m| m.set(0));
        let _ = decode_rows(&bytes, residence);
        let largest = LARGEST.with(Cell::get);
        // The reader's copy of the frame is the largest thing decoding needs.
        prop_assert!(largest <= bytes.len().max(64), "{largest} B for a {} B frame", bytes.len());
    }
}
