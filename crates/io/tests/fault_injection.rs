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
use pumi_pcu::{execute, execute_chaos, MsgReader, MsgWriter};
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
fn rewrite_section(path: &Path, part: u32, section: Section, edit: impl Fn(&mut Vec<u8>)) {
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

/// A Remotes row that names a part holding no copy: every checksum and
/// every section decoder accepts it, and the mesh the honest rows describe
/// is symmetric, so only the stitch notices — the named part receives an
/// announcement it cannot resolve. That used to be dropped on the floor;
/// it must be `IoError::Verify` on *every* rank, naming `from->to`, on the
/// verbatim (4 ranks) and the merging (2 ranks) restore, under the
/// deterministic and a chaos schedule alike, with no hang.
#[test]
fn remotes_row_naming_a_stranger_fails_on_every_rank() {
    let dir = std::env::temp_dir().join(format!("pumi_io_fault_{}_stranger", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serial = tri_rect(8, 6, 1.0, 1.0);
    execute(2, |c| {
        let labels = partition_mesh(&serial, 4);
        let dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
        write_checkpoint(c, &dm, &[], &dir).expect("write");
    });
    // Rows are `[dim u8][gid u64][residence u32 slice]` after a u32 count:
    // add a stranger to the first two-part row of part 0.
    let stranger = std::cell::Cell::new(None);
    rewrite_section(&part_file_path(&dir, 0), 0, Section::Remotes, |raw| {
        let mut r = MsgReader::from_vec(std::mem::take(raw));
        let mut w = MsgWriter::new();
        let n = r.get_u32();
        w.put_u32(n);
        for _ in 0..n {
            w.put_u8(r.get_u8());
            w.put_u64(r.get_u64());
            let mut res = r.get_u32_slice();
            if stranger.get().is_none() && res.len() == 2 {
                let q = (1..4).find(|q| !res.contains(q)).expect("4 parts");
                res.push(q);
                stranger.set(Some(q));
            }
            w.put_u32_slice(&res);
        }
        *raw = w.finish().to_vec();
    });
    let stranger = stranger.get().expect("part 0 has a two-part boundary row");

    for nranks in [2, 4] {
        for chaos in [None, Some(1)] {
            let body = |c: &pumi_pcu::Comm| {
                read_checkpoint(c, &dir)
                    .map(|_| ())
                    .expect_err("a stranger in a Remotes row must not restore")
            };
            let errs = match chaos {
                None => execute(nranks, body),
                Some(seed) => execute_chaos(nranks, seed, body),
            };
            let mut named = false;
            for e in &errs {
                let IoError::Verify { errors } = e else {
                    panic!("{nranks} ranks, chaos {chaos:?}: expected Verify, got {e:?}");
                };
                named |= errors
                    .iter()
                    .any(|m| m.contains(&format!("stitch 0->{stranger}")));
            }
            assert!(named, "no rank names the announcement: {errs:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
