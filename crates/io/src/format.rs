//! The `.pmb` (PUMI mesh, binary) on-disk layout.
//!
//! A checkpoint is a directory: one `manifest.pmb` plus one
//! `part_<id>.pmb` per part, and one `delta_<k>/part_<id>.pmb` per part
//! and delta round. All integers are little-endian.
//!
//! Part file (base snapshot or delta round):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PMBP"
//! 4       4     format version = 3 (u32)
//! 8       4     part id (u32)
//! 12      4     element dimension (u32)
//! 16      4     flags (u32; bit 0 = delta checkpoint)
//! 20      8     table offset (u64, absolute)
//! 28      4     table length (u32, includes its CRC)
//! 32      4     crc32 of bytes [0, 32)
//! 36      ...   section chunk streams (see `chunk` module)
//! table   4     section count n (u32)
//!         29*n  entries: kind u8, offset u64, disk_len u64, raw_len u64,
//!               nchunks u32
//!         4     crc32 of the table bytes before it
//! ```
//!
//! The header and the table carry their own CRCs so damage is detected
//! before any offset is trusted. The writer streams chunks as encoders
//! produce them, records where each section landed, appends the table at
//! the end, and seeks back to rewrite the 36-byte header — so a part's
//! serialized image is never held in memory.
//!
//! A part file holds the sections Entities, Remotes and Fields, and a delta
//! round also Deleted ([`Section`]). Entities is a stream of
//! `pumi_core::wire::put_entity` records, the records migration ships:
//! dimension, topology, gid, classification, the ghost source as the extra
//! field (`wire::put_ghost_source`), coordinates or vertex gids, and the
//! entity's tags inline. Remotes holds one `wire::put_residence` row per
//! part-boundary entity. Both are written through the
//! [`pumi_pcu::SectionSink`] that `MsgWriter` implements on the wire, so the
//! disk and the wire share one encoder and one decoder.
//!
//! Manifest file:
//!
//! ```text
//! magic "PMBM" | version u32 | body_len u32 | body | crc32(body)
//! ```
//!
//! where `body` holds part count, element dimension, writer world size,
//! global owned entity counts, a ghost flag, the field descriptors, and
//! the number of delta rounds.
//!
//! Versions 1 (a flat, uncompressed container) and 2 (entity rows of their
//! own layout and a Tags section) are no longer read: such a part file or
//! manifest is refused with a typed [`IoError::Header`] /
//! [`IoError::Manifest`] that names its version.

use crate::crc::crc32;
use crate::error::{IoError, Section};
use pumi_field::FieldShape;
use pumi_pcu::{MsgReader, MsgWriter};
use pumi_util::PartId;
use std::path::{Path, PathBuf};

/// Magic bytes opening every part file.
pub const PART_MAGIC: [u8; 4] = *b"PMBP";
/// Magic bytes opening the manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"PMBM";
/// The format version written to (and required of) every part file and
/// manifest.
pub const FORMAT_VERSION: u32 = 3;
/// The manifest file name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.pmb";
/// Header flag bit: this part file is a *delta* against a base snapshot.
pub const FLAG_DELTA: u32 = 1;

/// Fixed header length (the trailing 4 bytes are its CRC).
pub const HEADER_LEN: usize = 36;
const TABLE_ENTRY: usize = 29;

/// The file name of a part's data inside a checkpoint directory.
pub fn part_file_name(part: PartId) -> String {
    format!("part_{part:05}.pmb")
}

/// The path of a part's data inside a checkpoint directory.
pub fn part_file_path(dir: &Path, part: PartId) -> PathBuf {
    dir.join(part_file_name(part))
}

fn get_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("bounds checked"))
}

fn get_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("bounds checked"))
}

/// One row of a parsed section table: a chunked, compressed payload.
#[derive(Debug, Clone, Copy)]
pub struct SectionEntry {
    /// Which section this is.
    pub section: Section,
    /// Absolute byte offset of the first chunk.
    pub offset: u64,
    /// Bytes the chunk stream occupies on disk (headers + payloads).
    pub disk_len: u64,
    /// Total decompressed section length.
    pub raw_len: u64,
    /// Number of chunks.
    pub nchunks: u32,
}

/// A parsed part-file header + section table.
#[derive(Debug)]
pub struct PartHeader {
    /// The part id recorded in the file.
    pub part: PartId,
    /// Element dimension of the part's mesh.
    pub elem_dim: u32,
    /// Header flags ([`FLAG_DELTA`]).
    pub flags: u32,
    /// The section table, in file order.
    pub sections: Vec<SectionEntry>,
}

impl PartHeader {
    /// Whether this part file is a delta against a base snapshot.
    pub fn is_delta(&self) -> bool {
        self.flags & FLAG_DELTA != 0
    }

    /// Find a section's table entry.
    pub fn find(&self, section: Section) -> Option<SectionEntry> {
        self.sections.iter().copied().find(|e| e.section == section)
    }
}

/// A part file held in memory: its on-disk image and parsed header. The
/// image stays compressed; sections are decoded from it chunk by chunk.
#[derive(Debug)]
pub struct PartFile {
    /// Which of the part's files this is: the base snapshot's (`None`) or
    /// delta round `k`'s (`Some(k)`).
    pub delta: Option<u32>,
    /// The file's bytes as stored.
    pub data: Vec<u8>,
    /// The parsed, CRC-verified header and section table.
    pub header: PartHeader,
}

impl PartFile {
    /// Read and parse part `fpart`'s file under checkpoint directory `dir`:
    /// the base snapshot's for `delta == None`, delta round `k`'s for
    /// `Some(k)`.
    pub fn read(dir: &Path, fpart: PartId, delta: Option<u32>) -> Result<PartFile, IoError> {
        let path = match delta {
            None => part_file_path(dir, fpart),
            Some(k) => part_file_path(&delta_dir(dir, k), fpart),
        };
        let data = std::fs::read(&path).map_err(|source| IoError::Io { path, source })?;
        let header = parse_part_header(fpart, &data)?;
        Ok(PartFile {
            delta,
            data,
            header,
        })
    }
}

/// Encode the fixed 36-byte header. The streaming writer calls this
/// twice: once with zeroed `table_offset`/`table_len` to reserve the bytes,
/// and again (seeking back) once the table's landing spot is known.
pub fn encode_header(
    part: PartId,
    elem_dim: u32,
    flags: u32,
    table_offset: u64,
    table_len: u32,
) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&PART_MAGIC);
    h[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..12].copy_from_slice(&part.to_le_bytes());
    h[12..16].copy_from_slice(&elem_dim.to_le_bytes());
    h[16..20].copy_from_slice(&flags.to_le_bytes());
    h[20..28].copy_from_slice(&table_offset.to_le_bytes());
    h[28..32].copy_from_slice(&table_len.to_le_bytes());
    let crc = crc32(&h[..32]);
    h[32..36].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Encode a section table (count, entries, trailing CRC).
pub fn encode_table(entries: &[SectionEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + TABLE_ENTRY * entries.len() + 4);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.push(e.section.to_u8());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.disk_len.to_le_bytes());
        out.extend_from_slice(&e.raw_len.to_le_bytes());
        out.extend_from_slice(&e.nchunks.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parse and checksum-verify a part file's header and section table.
/// `part` is the id implied by the file name; the header must agree.
pub fn parse_part_header(part: PartId, data: &[u8]) -> Result<PartHeader, IoError> {
    let header_err = |detail: String| IoError::Header { part, detail };
    let too_short = || header_err(format!("file too short for a header: {} bytes", data.len()));
    // Magic and version sit at the same offsets in every generation of the
    // format, so an old file is named as such before its length is judged.
    if data.len() < 8 {
        return Err(too_short());
    }
    if data[0..4] != PART_MAGIC {
        return Err(header_err("bad magic (not a .pmb part file)".into()));
    }
    let version = get_u32(data, 4);
    if version != FORMAT_VERSION {
        return Err(header_err(format!(
            "unsupported format version {version} (reader supports {FORMAT_VERSION})"
        )));
    }
    if data.len() < HEADER_LEN {
        return Err(too_short());
    }
    let stored = get_u32(data, 32);
    let actual = crc32(&data[..32]);
    if stored != actual {
        return Err(header_err(format!(
            "header CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    let file_part = get_u32(data, 8);
    if file_part != part {
        return Err(header_err(format!(
            "header names part {file_part}, expected {part}"
        )));
    }
    let elem_dim = get_u32(data, 12);
    let flags = get_u32(data, 16);
    let table_offset = get_u64(data, 20) as usize;
    let table_len = get_u32(data, 28) as usize;
    if table_len < 8 || table_offset.checked_add(table_len).is_none() {
        return Err(header_err(format!("nonsense table length {table_len}")));
    }
    if table_offset + table_len > data.len() {
        return Err(header_err(format!(
            "section table truncated: table at {table_offset}+{table_len} exceeds {} file bytes",
            data.len()
        )));
    }
    let table = &data[table_offset..table_offset + table_len];
    let stored = get_u32(table, table_len - 4);
    let actual = crc32(&table[..table_len - 4]);
    if stored != actual {
        return Err(header_err(format!(
            "section table CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    let nsections = get_u32(table, 0) as usize;
    if 4 + TABLE_ENTRY * nsections + 4 != table_len {
        return Err(header_err(format!(
            "section table length disagrees with count: {nsections} sections in {table_len} bytes"
        )));
    }
    let mut sections = Vec::with_capacity(nsections);
    for i in 0..nsections {
        let at = 4 + TABLE_ENTRY * i;
        let section = Section::from_u8(table[at])
            .ok_or_else(|| header_err(format!("unknown section code {}", table[at])))?;
        sections.push(SectionEntry {
            section,
            offset: get_u64(table, at + 1),
            disk_len: get_u64(table, at + 9),
            raw_len: get_u64(table, at + 17),
            nchunks: get_u32(table, at + 25),
        });
    }
    Ok(PartHeader {
        part,
        elem_dim,
        flags,
        sections,
    })
}

/// A field's descriptor in the manifest (enough to rebuild the `Field`
/// template on any rank count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDesc {
    /// Field name.
    pub name: String,
    /// Node distribution.
    pub shape: FieldShape,
    /// Components per node.
    pub ncomp: u32,
}

/// Stable on-disk code for a [`FieldShape`].
pub fn shape_to_u8(s: FieldShape) -> u8 {
    match s {
        FieldShape::Linear => 0,
        FieldShape::Quadratic => 1,
        FieldShape::Constant => 2,
    }
}

/// Decode a [`FieldShape`] code.
pub fn shape_from_u8(x: u8) -> Option<FieldShape> {
    match x {
        0 => Some(FieldShape::Linear),
        1 => Some(FieldShape::Quadratic),
        2 => Some(FieldShape::Constant),
        _ => None,
    }
}

/// The checkpoint manifest written by rank 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Number of parts in the checkpoint (= number of part files).
    pub nparts: u32,
    /// Element dimension of the mesh.
    pub elem_dim: u32,
    /// World size at write time (informational).
    pub nranks_at_write: u32,
    /// Global owned entity counts per dimension `[vtx, edge, face, rgn]`.
    pub owned_counts: [u64; 4],
    /// Whether any part carried ghost copies (restored only for N == M).
    pub has_ghosts: bool,
    /// Field descriptors, in write order.
    pub fields: Vec<FieldDesc>,
    /// Number of delta rounds appended after the base snapshot (delta `k`
    /// lives in `delta_<k:04>/` under the checkpoint directory).
    pub delta_count: u32,
}

/// Serialize the manifest to its on-disk bytes.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut w = MsgWriter::new();
    w.put_u32(m.nparts);
    w.put_u32(m.elem_dim);
    w.put_u32(m.nranks_at_write);
    for &c in &m.owned_counts {
        w.put_u64(c);
    }
    w.put_u8(m.has_ghosts as u8);
    w.put_u32(m.fields.len() as u32);
    for f in &m.fields {
        w.put_bytes(f.name.as_bytes());
        w.put_u8(shape_to_u8(f.shape));
        w.put_u32(f.ncomp);
    }
    w.put_u32(m.delta_count);
    let body = w.finish();
    let mut out = Vec::with_capacity(12 + body.len() + 4);
    out.extend_from_slice(&MANIFEST_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// Parse and checksum-verify manifest bytes. `path` is used only for error
/// messages.
pub fn parse_manifest(path: &Path, data: &[u8]) -> Result<Manifest, IoError> {
    let err = |detail: String| IoError::Manifest {
        path: path.to_path_buf(),
        detail,
    };
    if data.len() < 16 {
        return Err(err(format!("too short: {} bytes", data.len())));
    }
    if data[0..4] != MANIFEST_MAGIC {
        return Err(err("bad magic (not a .pmb manifest)".into()));
    }
    let version = get_u32(data, 4);
    if version != FORMAT_VERSION {
        return Err(err(format!(
            "unsupported format version {version} (reader supports {FORMAT_VERSION})"
        )));
    }
    let body_len = get_u32(data, 8) as usize;
    if data.len() < 12 + body_len + 4 {
        return Err(err(format!(
            "body truncated: need {} bytes, have {}",
            12 + body_len + 4,
            data.len()
        )));
    }
    let body = &data[12..12 + body_len];
    let stored = get_u32(data, 12 + body_len);
    if crc32(body) != stored {
        return Err(err("body CRC mismatch".into()));
    }
    let mut r = MsgReader::from_vec(body.to_vec());
    let parse = |e: pumi_pcu::MsgError| err(format!("body does not decode: {e}"));
    let nparts = r.try_get_u32().map_err(parse)?;
    let elem_dim = r.try_get_u32().map_err(parse)?;
    let nranks_at_write = r.try_get_u32().map_err(parse)?;
    let mut owned_counts = [0u64; 4];
    for c in &mut owned_counts {
        *c = r.try_get_u64().map_err(parse)?;
    }
    let has_ghosts = r.try_get_u8().map_err(parse)? != 0;
    let nfields = r.try_get_u32().map_err(parse)?;
    let mut fields = Vec::with_capacity(nfields as usize);
    for _ in 0..nfields {
        let name_bytes = r.try_get_bytes_shared().map_err(parse)?;
        let name = std::str::from_utf8(&name_bytes)
            .map_err(|_| err("field name is not UTF-8".into()))?
            .to_string();
        let shape_code = r.try_get_u8().map_err(parse)?;
        let shape = shape_from_u8(shape_code)
            .ok_or_else(|| err(format!("unknown field shape code {shape_code}")))?;
        let ncomp = r.try_get_u32().map_err(parse)?;
        if ncomp == 0 {
            return Err(err(format!("field '{name}' has no components")));
        }
        fields.push(FieldDesc { name, shape, ncomp });
    }
    let delta_count = r.try_get_u32().map_err(parse)?;
    if nparts == 0 {
        return Err(err("zero parts".into()));
    }
    if elem_dim as usize > 3 {
        return Err(err(format!("bad element dimension {elem_dim}")));
    }
    Ok(Manifest {
        nparts,
        elem_dim,
        nranks_at_write,
        owned_counts,
        has_ghosts,
        fields,
        delta_count,
    })
}

/// The directory holding delta round `k` (1-based) under a checkpoint dir.
pub fn delta_dir(dir: &Path, k: u32) -> PathBuf {
    dir.join(format!("delta_{k:04}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            nparts: 8,
            elem_dim: 3,
            nranks_at_write: 4,
            owned_counts: [100, 300, 350, 150],
            has_ghosts: true,
            fields: vec![
                FieldDesc {
                    name: "velocity".into(),
                    shape: FieldShape::Linear,
                    ncomp: 3,
                },
                FieldDesc {
                    name: "pressure".into(),
                    shape: FieldShape::Constant,
                    ncomp: 1,
                },
            ],
            delta_count: 3,
        };
        let bytes = encode_manifest(&m);
        let back = parse_manifest(Path::new("manifest.pmb"), &bytes).expect("parse");
        assert_eq!(back, m);
    }

    #[test]
    fn header_and_table_roundtrip() {
        let entries = vec![
            SectionEntry {
                section: Section::Entities,
                offset: HEADER_LEN as u64,
                disk_len: 500,
                raw_len: 2000,
                nchunks: 2,
            },
            SectionEntry {
                section: Section::Deleted,
                offset: HEADER_LEN as u64 + 500,
                disk_len: 60,
                raw_len: 64,
                nchunks: 1,
            },
        ];
        let table = encode_table(&entries);
        let body_len: u64 = entries.iter().map(|e| e.disk_len).sum();
        let table_offset = HEADER_LEN as u64 + body_len;
        let hdr = encode_header(9, 2, FLAG_DELTA, table_offset, table.len() as u32);
        let mut file = Vec::new();
        file.extend_from_slice(&hdr);
        file.resize(HEADER_LEN + body_len as usize, 0xAB);
        file.extend_from_slice(&table);
        let h = parse_part_header(9, &file).expect("parse");
        assert_eq!(h.part, 9);
        assert_eq!(h.elem_dim, 2);
        assert!(h.is_delta());
        assert_eq!(h.sections.len(), 2);
        let d = h.find(Section::Deleted).expect("deleted entry");
        assert_eq!(d.raw_len, 64);
        assert_eq!(d.nchunks, 1);
        // Damaged header byte → typed Header error before any offset is used.
        let mut bad = file.clone();
        bad[30] ^= 0x40;
        assert!(matches!(
            parse_part_header(9, &bad),
            Err(IoError::Header { part: 9, .. })
        ));
        // Damaged table byte → typed Header error too.
        let mut bad = file.clone();
        let n = bad.len();
        bad[n - 6] ^= 0x01;
        assert!(matches!(
            parse_part_header(9, &bad),
            Err(IoError::Header { part: 9, .. })
        ));
    }

    #[test]
    fn manifest_corruption_detected() {
        let m = Manifest {
            nparts: 2,
            elem_dim: 2,
            nranks_at_write: 2,
            owned_counts: [10, 20, 11, 0],
            has_ghosts: false,
            fields: vec![],
            delta_count: 0,
        };
        let mut bytes = encode_manifest(&m);
        bytes[14] ^= 1;
        assert!(matches!(
            parse_manifest(Path::new("m"), &bytes),
            Err(IoError::Manifest { .. })
        ));
        // Well sealed, but a field of no components cannot be restored.
        let no_comps = Manifest {
            fields: vec![FieldDesc {
                name: "u".into(),
                shape: FieldShape::Linear,
                ncomp: 0,
            }],
            ..m
        };
        let bytes = encode_manifest(&no_comps);
        assert!(matches!(
            parse_manifest(Path::new("m"), &bytes),
            Err(IoError::Manifest { detail, .. }) if detail.contains("no components")
        ));
    }
}
