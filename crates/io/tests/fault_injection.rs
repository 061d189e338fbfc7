//! Corruption drills: every damaged checkpoint must surface as a typed
//! [`IoError`] naming the damaged part (and section where applicable) —
//! never a panic, and never a deadlock (peers exit with `PeerFailed`).

use pumi_core::{distribute, PartMap};
use pumi_io::chunk::{decode_chunk, section_raw_bytes, ChunkWriter, SectionSink};
use pumi_io::format::{
    encode_header, encode_table, parse_part_header, part_file_path, SectionEntry, HEADER_LEN,
};
use pumi_io::{read_checkpoint, write_checkpoint, IoError, Section};
use pumi_meshgen::tri_rect;
use pumi_partition::partition_mesh;
use pumi_pcu::{execute, execute_chaos, Comm, MsgReader, MsgWriter};
use pumi_serve::{CheckpointServer, Slice};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn write_small(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pumi_io_fault_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serial = tri_rect(8, 6, 1.0, 1.0);
    execute(2, |c| {
        let labels = partition_mesh(&serial, 2);
        let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        write_checkpoint(c, &dm, &[], &dir).expect("write");
    });
    dir
}

/// Read the checkpoint on 2 ranks; every rank must get an `Err`.
fn read_errors(dir: &Path) -> Vec<IoError> {
    execute(2, |c| {
        read_checkpoint(c, dir)
            .map(|_| ())
            .expect_err("corrupt checkpoint must not restore")
    })
}

/// Rewrite part `part`'s file with `edit` applied to one section's raw
/// stream and every checksum re-sealed: the other sections' chunk streams
/// are copied verbatim, the edited one is re-chunked, and the table and
/// header are encoded afresh — so the edit reaches the section decoder.
fn rewrite_section(path: &Path, part: u32, section: Section, mut edit: impl FnMut(&mut Vec<u8>)) {
    let data = std::fs::read(path).expect("read part file");
    let h = parse_part_header(part, &data).expect("intact header");
    let mut out = vec![0u8; HEADER_LEN];
    let mut entries = Vec::new();
    for e in &h.sections {
        let offset = out.len() as u64;
        if e.section != section {
            out.extend_from_slice(&data[e.offset as usize..][..e.disk_len as usize]);
            entries.push(SectionEntry { offset, ..*e });
            continue;
        }
        let mut raw = section_raw_bytes(part, &data, e, |idx, hdr, payload| {
            decode_chunk(part, section, idx, hdr, payload).map(Arc::new)
        })
        .expect("intact section");
        edit(&mut raw);
        let mut w = ChunkWriter::new(&mut out, pumi_io::chunk::DEFAULT_CHUNK_LEN);
        w.put_raw(&raw);
        let st = w.finish_section().expect("in-memory write");
        entries.push(SectionEntry {
            section,
            offset,
            disk_len: st.disk_len,
            raw_len: st.raw_len,
            nchunks: st.nchunks,
        });
    }
    let table = encode_table(&entries);
    let hdr = encode_header(
        part,
        h.elem_dim,
        h.gid_counter,
        h.flags,
        out.len() as u64,
        table.len() as u32,
    );
    out[..HEADER_LEN].copy_from_slice(&hdr);
    out.extend_from_slice(&table);
    std::fs::write(path, &out).expect("write rewritten file");
}

/// A byte that survives every CRC but decodes to an out-of-range enum (here
/// a topology code) must surface as a typed `Decode` error, not a panic:
/// the chunk, table and header checksums are re-sealed after the flip so
/// only the enum guard can catch it.
#[test]
fn flipped_enum_byte_is_typed_decode_error() {
    let dir = write_small("enum");
    // First vertex record: [n u32][gid u64][topo u8]... — flip the topology
    // code to an undefined value.
    rewrite_section(&part_file_path(&dir, 1), 1, Section::Entities, |raw| {
        raw[12] = 0xFF
    });

    let errs = read_errors(&dir);
    let detail = errs
        .iter()
        .find_map(|e| match e {
            IoError::Decode {
                part: 1,
                section: Section::Entities,
                detail,
            } => Some(detail.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected Decode(part 1, entities), got: {errs:?}"));
    assert!(
        detail.contains("topology"),
        "detail names the enum: {detail}"
    );
    assert!(
        errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
        "peer should report PeerFailed, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cutting the tail off a part file destroys the end-of-file section
/// table; the reader must refuse at the header stage, not chase offsets.
#[test]
fn truncated_v2_tail_is_typed_header_error() {
    let dir = write_small("v2trunc");
    let path = part_file_path(&dir, 0);
    let data = std::fs::read(&path).expect("read part file");
    std::fs::write(&path, &data[..data.len() - 9]).expect("truncate");

    let errs = read_errors(&dir);
    assert!(
        errs.iter()
            .any(|e| matches!(e, IoError::Header { part: 0, .. })),
        "expected Header(part 0) for the lost table, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Locate the first chunk of a section in a part file: returns the
/// absolute offset of its 12-byte chunk header.
fn first_chunk_at(data: &[u8], part: u32, section: Section) -> usize {
    let h = parse_part_header(part, data).expect("intact header");
    h.find(section).expect("section present").offset as usize
}

/// Flipping one bit inside a compressed chunk payload must surface as
/// `BadChunk` naming part, section, and chunk — before the decompressor
/// ever sees the damage.
#[test]
fn flipped_compressed_chunk_payload_is_bad_chunk() {
    let dir = write_small("v2flip");
    let path = part_file_path(&dir, 1);
    let mut data = std::fs::read(&path).expect("read part file");
    let at = first_chunk_at(&data, 1, Section::Entities);
    data[at + 12 + 7] ^= 0x20; // inside the stored payload
    std::fs::write(&path, &data).expect("write corrupted file");

    let errs = read_errors(&dir);
    let detail = errs
        .iter()
        .find_map(|e| match e {
            IoError::BadChunk {
                part: 1,
                section: Section::Entities,
                chunk: 0,
                detail,
            } => Some(detail.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected BadChunk(part 1, entities, chunk 0), got: {errs:?}"));
    assert!(detail.contains("CRC"), "detail names the check: {detail}");
    let msg = errs
        .iter()
        .find(|e| matches!(e, IoError::BadChunk { .. }))
        .expect("typed chunk error")
        .to_string();
    assert!(
        msg.contains("part 1") && msg.contains("entities") && msg.contains("chunk 0"),
        "{msg}"
    );
    assert!(
        errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
        "peer should report PeerFailed, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged decompressed-length header passes the payload CRC (which
/// deliberately does not cover it) and must be caught by the
/// decompressed-length comparison instead — or, when it promises more than
/// the payload could ever expand to, before anything is allocated for it.
#[test]
fn wrong_chunk_raw_len_is_bad_chunk() {
    let dir = write_small("v2rawlen");
    let path = part_file_path(&dir, 0);
    let mut data = std::fs::read(&path).expect("read part file");
    let at = first_chunk_at(&data, 0, Section::Entities);
    let raw_len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
    for bogus in [raw_len - 3, 0xFFFF_FFF0] {
        data[at..at + 4].copy_from_slice(&bogus.to_le_bytes());
        std::fs::write(&path, &data).expect("write corrupted file");

        let errs = read_errors(&dir);
        assert!(
            errs.iter().any(|e| matches!(
                e,
                IoError::BadChunk {
                    part: 0,
                    section: Section::Entities,
                    chunk: 0,
                    ..
                }
            )),
            "expected BadChunk(part 0, entities, chunk 0), got: {errs:?}"
        );
        assert!(
            errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
            "peer should report PeerFailed, got: {errs:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chunk whose stored length reaches past its section's disk extent is a
/// truncated chunk; the reader must stop at the section bound with a typed
/// error instead of reading into the next section.
#[test]
fn truncated_chunk_is_bad_chunk() {
    let dir = write_small("v2chunktrunc");
    let path = part_file_path(&dir, 1);
    let mut data = std::fs::read(&path).expect("read part file");
    let at = first_chunk_at(&data, 1, Section::Tags);
    data[at + 4..at + 8].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes()); // comp_len
    std::fs::write(&path, &data).expect("write corrupted file");

    let errs = read_errors(&dir);
    let detail = errs
        .iter()
        .find_map(|e| match e {
            IoError::BadChunk {
                part: 1,
                section: Section::Tags,
                chunk: 0,
                detail,
            } => Some(detail.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected BadChunk(part 1, tags, chunk 0), got: {errs:?}"));
    assert!(detail.contains("truncated"), "{detail}");
    assert!(
        errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
        "peer should report PeerFailed, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_header_is_typed() {
    let dir = write_small("header");
    let path = part_file_path(&dir, 1);
    let mut data = std::fs::read(&path).expect("read part file");
    data[0] = b'X'; // break the magic
    std::fs::write(&path, &data).expect("write");

    let errs = read_errors(&dir);
    assert!(
        errs.iter()
            .any(|e| matches!(e, IoError::Header { part: 1, .. })),
        "expected Header(part 1), got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_header_field_is_typed() {
    let dir = write_small("hcrc");
    let path = part_file_path(&dir, 0);
    let mut data = std::fs::read(&path).expect("read part file");
    data[16] ^= 0x01; // gid counter, covered by the header CRC
    std::fs::write(&path, &data).expect("write");

    let errs = read_errors(&dir);
    assert!(
        errs.iter()
            .any(|e| matches!(e, IoError::Header { part: 0, .. })),
        "expected Header(part 0), got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_part_file_is_typed() {
    let dir = write_small("missing");
    std::fs::remove_file(part_file_path(&dir, 1)).expect("remove part file");
    let errs = read_errors(&dir);
    assert!(
        errs.iter().any(|e| matches!(e, IoError::Io { .. })),
        "expected Io for the missing file, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_manifest_fails_on_every_rank() {
    let dir = write_small("manifest");
    std::fs::remove_file(dir.join(pumi_io::MANIFEST_FILE)).expect("remove manifest");
    let errs = read_errors(&dir);
    assert_eq!(errs.len(), 2);
    for e in &errs {
        assert!(
            matches!(e, IoError::Manifest { .. }),
            "every rank reports Manifest, got: {e:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_manifest_body_fails_cleanly() {
    let dir = write_small("mbody");
    let path = dir.join(pumi_io::MANIFEST_FILE);
    let mut data = std::fs::read(&path).expect("read manifest");
    let n = data.len();
    data[n - 6] ^= 0x80; // inside the body, breaks the body CRC
    std::fs::write(&path, &data).expect("write");
    let errs = read_errors(&dir);
    for e in &errs {
        assert!(
            matches!(e, IoError::Manifest { .. }),
            "expected Manifest, got: {e:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-1 part file (the flat container written before the chunked
/// format; here just its 32-byte header, no sections) is refused at the
/// header stage on the rank that meets it, and its peer exits with it.
#[test]
fn version_1_part_file_is_refused() {
    let dir = write_small("v1part");
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"PMBP");
    v1.extend_from_slice(&1u32.to_le_bytes()); // format version
    v1.extend_from_slice(&1u32.to_le_bytes()); // part id
    v1.extend_from_slice(&2u32.to_le_bytes()); // element dimension
    v1.extend_from_slice(&0u64.to_le_bytes()); // gid counter
    v1.extend_from_slice(&0u32.to_le_bytes()); // section count
    let crc = pumi_io::crc::crc32(&v1);
    v1.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(part_file_path(&dir, 1), &v1).expect("write v1 part file");

    let errs = read_errors(&dir);
    let detail = errs
        .iter()
        .find_map(|e| match e {
            IoError::Header { part: 1, detail } => Some(detail.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected Header(part 1), got: {errs:?}"));
    assert!(detail.contains("version 1"), "{detail}");
    assert!(
        errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
        "peer should report PeerFailed, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-1 manifest (same framing, no delta count in the body) is
/// refused by every rank.
#[test]
fn version_1_manifest_is_refused() {
    let dir = write_small("v1manifest");
    let mut body = Vec::new();
    for x in [2u32, 2, 2] {
        body.extend_from_slice(&x.to_le_bytes()); // nparts, elem_dim, nranks
    }
    body.extend_from_slice(&[0u8; 32]); // owned counts
    body.push(0); // no ghosts
    body.extend_from_slice(&0u32.to_le_bytes()); // no fields
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"PMBM");
    v1.extend_from_slice(&1u32.to_le_bytes()); // format version
    v1.extend_from_slice(&(body.len() as u32).to_le_bytes());
    v1.extend_from_slice(&body);
    v1.extend_from_slice(&pumi_io::crc::crc32(&body).to_le_bytes());
    std::fs::write(dir.join(pumi_io::MANIFEST_FILE), &v1).expect("write v1 manifest");

    let errs = read_errors(&dir);
    assert_eq!(errs.len(), 2);
    for e in &errs {
        match e {
            IoError::Manifest { detail, .. } => assert!(detail.contains("version 1"), "{detail}"),
            other => panic!("every rank reports Manifest, got: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 4-part checkpoint of `tri_rect(8, 6)` written from 2 ranks: restoring
/// it on 4 ranks is verbatim, on 2 ranks it merges.
fn write_four(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pumi_io_fault_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serial = tri_rect(8, 6, 1.0, 1.0);
    execute(2, |c| {
        let labels = partition_mesh(&serial, 4);
        let dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
        write_checkpoint(c, &dm, &[], &dir).expect("write");
    });
    dir
}

/// The raw bytes of one section of part `part`'s base file.
fn section(dir: &Path, part: u32, section: Section) -> Vec<u8> {
    let data = std::fs::read(part_file_path(dir, part)).expect("read part file");
    let h = parse_part_header(part, &data).expect("intact header");
    let entry = h.find(section).expect("section present");
    section_raw_bytes(part, &data, &entry, |idx, hdr, payload| {
        decode_chunk(part, section, idx, hdr, payload).map(Arc::new)
    })
    .expect("intact section")
}

/// One Remotes row: `(dim, gid, residence parts)`.
type RemotesRow = (u8, u64, Vec<u32>);

/// A Remotes section: a u32 count, then `[dim u8][gid u64][residence u32
/// slice]` per row.
fn decode_remotes_rows(raw: Vec<u8>) -> Vec<RemotesRow> {
    let mut r = MsgReader::from_vec(raw);
    (0..r.get_u32())
        .map(|_| (r.get_u8(), r.get_u64(), r.get_u32_slice()))
        .collect()
}

fn encode_remotes_rows(rows: &[RemotesRow]) -> Vec<u8> {
    let mut w = MsgWriter::new();
    w.put_u32(rows.len() as u32);
    for (d, gid, res) in rows {
        w.put_u8(*d);
        w.put_u64(*gid);
        w.put_u32_slice(res);
    }
    w.finish().to_vec()
}

/// Rewrite part `part`'s Remotes rows with `edit`, every checksum re-sealed.
fn edit_remotes(dir: &Path, part: u32, mut edit: impl FnMut(&mut Vec<RemotesRow>)) {
    rewrite_section(&part_file_path(dir, part), part, Section::Remotes, |raw| {
        let mut rows = decode_remotes_rows(std::mem::take(raw));
        edit(&mut rows);
        *raw = encode_remotes_rows(&rows);
    });
}

/// One Entities row: gid, topology code, classification, ghost source,
/// then coordinates (vertices) or vertex gids (everything else).
#[derive(Clone, Debug)]
struct EntityRow {
    gid: u64,
    topo: u8,
    class: u32,
    ghost: Option<u32>,
    coords: [f64; 3],
    vgids: Vec<u64>,
}

/// The Entities section of a 2-D part: per dimension a u32 count and rows.
fn decode_entity_rows(raw: Vec<u8>) -> [Vec<EntityRow>; 3] {
    let mut r = MsgReader::from_vec(raw);
    std::array::from_fn(|d| {
        (0..r.get_u32())
            .map(|_| {
                let (gid, topo, class) = (r.get_u64(), r.get_u8(), r.get_u32());
                let ghost = (r.get_u8() != 0).then(|| r.get_u32());
                let (mut coords, mut vgids) = ([0.0; 3], Vec::new());
                if d == 0 {
                    coords = [r.get_f64(), r.get_f64(), r.get_f64()];
                } else {
                    vgids = r.get_u64_slice();
                }
                EntityRow {
                    gid,
                    topo,
                    class,
                    ghost,
                    coords,
                    vgids,
                }
            })
            .collect()
    })
}

fn encode_entity_rows(blocks: &[Vec<EntityRow>; 3]) -> Vec<u8> {
    let mut w = MsgWriter::new();
    for (d, rows) in blocks.iter().enumerate() {
        w.put_u32(rows.len() as u32);
        for row in rows {
            w.put_u64(row.gid);
            w.put_u8(row.topo);
            w.put_u32(row.class);
            match row.ghost {
                None => w.put_u8(0),
                Some(src) => {
                    w.put_u8(1);
                    w.put_u32(src);
                }
            }
            if d == 0 {
                row.coords.iter().for_each(|&x| w.put_f64(x));
            } else {
                w.put_u64_slice(&row.vgids);
            }
        }
    }
    w.finish().to_vec()
}

/// Rewrite part `part`'s Entities rows with `edit`, every checksum re-sealed.
fn edit_entities(dir: &Path, part: u32, mut edit: impl FnMut(&mut [Vec<EntityRow>; 3])) {
    rewrite_section(&part_file_path(dir, part), part, Section::Entities, |raw| {
        let mut blocks = decode_entity_rows(std::mem::take(raw));
        edit(&mut blocks);
        *raw = encode_entity_rows(&blocks);
    });
}

/// Restore `dir` on 2 ranks (merging), on 4 (verbatim) and on 8 (each
/// part split in two), under the deterministic scheduler and `chaos:1`:
/// every rank of every world must return `Err`, and none may hang. Returns
/// each world's rank count and errors, labelled.
fn refusals(dir: &Path) -> Vec<(usize, String, Vec<IoError>)> {
    let mut out = Vec::new();
    for nranks in [2, 4, 8] {
        for chaos in [None, Some(1)] {
            let body = |c: &Comm| {
                read_checkpoint(c, dir)
                    .map(|_| ())
                    .expect_err("a crafted checkpoint must not restore")
            };
            let errs = match chaos {
                None => execute(nranks, body),
                Some(seed) => execute_chaos(nranks, seed, body),
            };
            out.push((nranks, format!("{nranks} ranks, chaos {chaos:?}"), errs));
        }
    }
    out
}

/// A link-level refusal: `Verify` on every rank of every world (empty on
/// ranks whose parts were clean), some rank's violations containing
/// `needle(nranks)`.
fn assert_verify_refusal(dir: &Path, needle: impl Fn(usize) -> String) {
    for (nranks, run, errs) in refusals(dir) {
        let needle = &needle(nranks);
        let mut named = false;
        for e in &errs {
            let IoError::Verify { errors } = e else {
                panic!("{run}: expected Verify, got {e:?}");
            };
            named |= errors.iter().any(|m| m.contains(needle));
        }
        assert!(named, "{run}: no rank reports '{needle}': {errs:?}");
    }
}

/// The slices that load file part `part`: verbatim (4 slices) and split
/// (8 slices).
fn serve_slices(dir: &Path, part: u32) -> Vec<Result<Slice, IoError>> {
    let server = CheckpointServer::open(dir).expect("manifest intact");
    let p = part as usize;
    vec![server.restore_slice(p, 4), server.restore_slice(2 * p, 8)]
}

/// A load-time refusal: `Decode` of `section` naming one of `parts`, its
/// detail containing `needle`, on every rank that loads a crafted part and
/// `PeerFailed` on the others — and the same `Decode` from every slice of
/// the slice service that loads one.
fn assert_refused_on_load(dir: &Path, parts: &[u32], section: Section, needle: &str) {
    let at_origin = |e: &IoError| {
        matches!(e, IoError::Decode { part, section: s, detail }
            if parts.contains(part) && *s == section && detail.contains(needle))
    };
    for (_, run, errs) in refusals(dir) {
        assert!(
            errs.iter().any(at_origin),
            "{run}: no rank reports it: {errs:?}"
        );
        for e in &errs {
            assert!(
                at_origin(e) || matches!(e, IoError::PeerFailed { .. }),
                "{run}: expected Decode or PeerFailed, got {e:?}"
            );
        }
    }
    for &part in parts {
        for slice in serve_slices(dir, part) {
            match slice {
                Err(e) if at_origin(&e) => {}
                other => panic!("slice of part {part}: expected Decode, got {other:?}"),
            }
        }
    }
}

/// A Remotes row that names a part holding no copy: every checksum and
/// every section decoder accepts it, and the mesh the honest rows describe
/// is symmetric, so only the stitch notices — the named part receives an
/// announcement it cannot resolve. That used to be dropped on the floor;
/// it must be `IoError::Verify` on *every* rank, naming `from->to`, on the
/// verbatim (4 ranks) and the merging (2 ranks) restore, under the
/// deterministic and a chaos schedule alike, with no hang. On 8 ranks each
/// part fans out over two, and an announcement to another part's two ranks
/// is a candidate a rank without the entity drops; there the refusal is
/// part 0's row check, "no link from ranks {2·stranger..2·stranger + 2}".
#[test]
fn remotes_row_naming_a_stranger_fails_on_every_rank() {
    let dir = write_four("stranger");
    // Add a stranger to the first two-part row of part 0.
    let mut stranger = None;
    edit_remotes(&dir, 0, |rows| {
        let (_, _, res) = rows
            .iter_mut()
            .find(|(_, _, res)| res.len() == 2)
            .expect("part 0 has a two-part boundary row");
        let q = (1..4).find(|q| !res.contains(q)).expect("4 parts");
        res.push(q);
        stranger = Some(q);
    });
    let stranger = stranger.expect("row edited");
    assert_verify_refusal(&dir, |nranks| match nranks {
        8 => format!("no link from ranks {:?}", 2 * stranger..2 * stranger + 2),
        _ => format!("stitch 0->{stranger}"),
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-sided Remotes row: part 0 still lists part 1 for a boundary
/// entity, part 1's row for it is gone. Every row decodes, the stitch
/// applies every announcement and each part's mesh is valid; only
/// comparing the rows with the links they produced shows part 0 linked to
/// nobody and part 1 linked without a row. The slice service does not
/// stitch — its slices are standalone — so it restores them as before.
#[test]
fn one_sided_remotes_row_fails_on_every_rank() {
    let dir = write_four("onesided");
    let (dim, gid, _) = decode_remotes_rows(section(&dir, 0, Section::Remotes))
        .into_iter()
        .find(|(_, _, res)| res == &[0, 1])
        .expect("parts 0 and 1 share a boundary");
    edit_remotes(&dir, 1, |rows| {
        let n = rows.len();
        rows.retain(|&(d, g, _)| (d, g) != (dim, gid));
        assert_eq!(rows.len(), n - 1, "part 1 lists the entity back");
    });
    assert_verify_refusal(&dir, |_| format!("gid {gid}:"));
    for slice in serve_slices(&dir, 1) {
        slice.expect("slices are not stitched");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Remotes rows that agree pair by pair but not as a set: for a vertex on
/// parts `a < b < c`, part `a`'s row drops `c` and part `c`'s row drops `a`.
/// Each row still names exactly the parts that announce the entity to it
/// (`a` and `c` no longer announce to each other) and each mesh is valid,
/// but `a` and `b` compute owner `a` while `c` computes `b`. Only comparing
/// residence sets across the links shows it. The slice service does not
/// stitch, so it restores the slices as before.
#[test]
fn remotes_rows_disagreeing_as_a_set_fail_on_every_rank() {
    let dir = write_four("splitres");
    let (dim, gid, res) = (0..4)
        .flat_map(|p| decode_remotes_rows(section(&dir, p, Section::Remotes)))
        .find(|(_, _, res)| res.len() == 3)
        .expect("a vertex on three parts");
    let (a, c) = (res[0], res[2]);
    for (part, gone) in [(a, c), (c, a)] {
        edit_remotes(&dir, part, |rows| {
            let (_, _, res) = rows
                .iter_mut()
                .find(|(d, g, _)| (*d, *g) == (dim, gid))
                .expect("every residence part has the row");
            res.retain(|&q| q != gone);
        });
    }
    assert_verify_refusal(&dir, |_| format!("gid {gid}: residence"));
    for part in [a, c] {
        for slice in serve_slices(&dir, part) {
            slice.expect("slices are not stitched");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An element listed in the Remotes sections of two parts that both hold
/// it: part 1's file gains one of part 0's triangles on their common
/// boundary (with the vertices and edges part 1 lacks), and both files gain
/// a row for it. The rows and the links they produce agree and each mesh is
/// valid, so only the rule that elements are never shared refuses it — at
/// decode time, on each rank that loads either file.
#[test]
fn remotes_row_at_element_dimension_is_refused() {
    let dir = write_four("elemrow");
    let ents0 = decode_entity_rows(section(&dir, 0, Section::Entities));
    let ents1 = decode_entity_rows(section(&dir, 1, Section::Entities));
    let held1 = |d: usize, gid: u64| ents1[d].iter().any(|r| r.gid == gid);
    let edges = |t: &EntityRow| -> Vec<EntityRow> {
        let edge = |a: u64, b: u64| {
            let e = ents0[1]
                .iter()
                .find(|e| e.vgids.contains(&a) && e.vgids.contains(&b));
            e.expect("closure edge").clone()
        };
        let v = &t.vgids;
        vec![edge(v[0], v[1]), edge(v[1], v[2]), edge(v[0], v[2])]
    };
    let tri = ents0[2]
        .iter()
        .find(|t| edges(t).iter().any(|e| held1(1, e.gid)))
        .expect("part 0 borders part 1")
        .clone();
    let verts: Vec<EntityRow> = ents0[0]
        .iter()
        .filter(|v| tri.vgids.contains(&v.gid) && !held1(0, v.gid))
        .cloned()
        .collect();
    let new_edges: Vec<EntityRow> = edges(&tri)
        .into_iter()
        .filter(|e| !held1(1, e.gid))
        .collect();
    edit_entities(&dir, 1, |blocks| {
        blocks[0].extend(verts.iter().cloned());
        blocks[1].extend(new_edges.iter().cloned());
        blocks[2].push(tri.clone());
    });
    for part in [0, 1] {
        edit_remotes(&dir, part, |rows| rows.push((2, tri.gid, vec![0, 1])));
    }
    assert_refused_on_load(&dir, &[0, 1], Section::Remotes, "never shared");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An Entities row that repeats a vertex gid: one of part 2's triangles
/// names its first vertex twice, which would leave the part a degenerate
/// triangle bounded by a one-vertex edge.
#[test]
fn entity_row_repeating_a_vertex_is_refused() {
    let dir = write_four("repeat");
    edit_entities(&dir, 2, |blocks| {
        let v = &mut blocks[2][0].vgids;
        v[2] = v[0];
    });
    assert_refused_on_load(&dir, &[2], Section::Entities, "repeated vertex gid");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An Entities row one vertex gid short: one of part 2's triangles names
/// two vertices, which `Mesh::add_entity` would meet with an assertion
/// instead of an error.
#[test]
fn entity_row_short_of_vertices_is_refused() {
    let dir = write_four("short");
    edit_entities(&dir, 2, |blocks| blocks[2][0].vgids.truncate(2));
    assert_refused_on_load(&dir, &[2], Section::Entities, "vertex gids for a");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A third triangle on an interior edge of part 3: a new vertex, two new
/// edges and a triangle over the edge, every gid unused, every vertex
/// known. Each row is well formed; the edge would bound three elements.
#[test]
fn third_triangle_on_an_edge_is_refused() {
    let dir = write_four("third");
    edit_entities(&dir, 3, |[verts, edges, tris]| {
        let bounds = |e: &EntityRow| {
            let on = |t: &&EntityRow| e.vgids.iter().all(|v| t.vgids.contains(v));
            tris.iter().filter(on).count()
        };
        let interior = edges
            .iter()
            .find(|e| bounds(e) == 2)
            .expect("interior edge");
        let (a, b, c) = (interior.vgids[0], interior.vgids[1], 1 << 60);
        let row = |like: &EntityRow, gid: u64, vgids: Vec<u64>| EntityRow {
            gid,
            vgids,
            ..like.clone()
        };
        let new_vert = row(&verts[0], c, vec![]);
        let new_edges = [
            row(interior, c + 1, vec![a, c]),
            row(interior, c + 2, vec![b, c]),
        ];
        let new_tri = row(&tris[0], c + 3, vec![a, b, c]);
        verts.push(new_vert);
        edges.extend(new_edges);
        tris.push(new_tri);
    });
    assert_refused_on_load(&dir, &[3], Section::Entities, "third element");
    let _ = std::fs::remove_dir_all(&dir);
}
