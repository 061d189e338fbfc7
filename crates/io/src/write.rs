//! Parallel checkpoint writer.
//!
//! Each rank serializes its local parts — entity records with their ghost
//! provenance and tags, partition-model residence rows, and fields — into
//! one `.pmb` file per part; rank 0 then writes the manifest. The call is
//! collective and fallible: local write failures are agreed across ranks
//! (one allreduce) so every rank returns an `Err` together instead of
//! leaving peers blocked in the manifest reduction.
//!
//! One set of section encoders serves full snapshots and delta rounds
//! alike — a delta resolves its part's [`DirtyLog`] to the logged
//! entities once, so its cost follows the log, not the part — and
//! every part file is streamed through [`ChunkWriter`]: LZ4-compressed,
//! CRC'd chunks go straight to disk, so peak memory is one chunk regardless
//! of part size.

use crate::chunk::{ChunkWriter, DEFAULT_CHUNK_LEN};
use crate::error::{IoError, Section};
use crate::format::{
    encode_header, encode_manifest, encode_table, part_file_path, FieldDesc, Manifest,
    SectionEntry, FLAG_DELTA, HEADER_LEN, MANIFEST_FILE,
};
use pumi_core::wire::{put_entity, put_ghost_source, put_residence};
use pumi_core::{DirtyLog, DistMesh, Part};
use pumi_field::{DistField, Field};
use pumi_pcu::{Comm, MsgWriter, SectionSink};
use pumi_util::{Dim, GlobalId, MeshEnt, PartId};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

/// Statistics from a completed checkpoint write.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteStats {
    /// Bytes this rank wrote (part files only).
    pub bytes_local: u64,
    /// Bytes written across the world, including the manifest.
    pub bytes_global: u64,
    /// Part files this rank wrote.
    pub parts_written: usize,
}

/// The argument [`write_checkpoint_with`] takes. It has no fields: every
/// part file is written in chunks of [`DEFAULT_CHUNK_LEN`] raw bytes. The
/// type stays so that callers naming `WriteOpts::default()` keep
/// compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOpts {}

/// The entities a part file has rows for, per dimension: every live one
/// in a full snapshot, or in a delta round only those its [`DirtyLog`]
/// names, resolved by gid and sorted into mesh order once per file.
enum Picked {
    All,
    Logged([Vec<MeshEnt>; 4]),
}

impl Picked {
    fn of(part: &Part, dirty: Option<&DirtyLog>) -> Picked {
        let Some(log) = dirty else {
            return Picked::All;
        };
        Picked::Logged(Dim::ALL.map(|d| {
            let named = log.dirty[d.as_usize()].iter().filter_map(|&g| {
                let e = part.find_gid(d, g)?;
                (part.gid_of(e) == g).then_some(e)
            });
            let mut ents: Vec<MeshEnt> = named.collect();
            ents.sort_unstable();
            ents
        }))
    }
}

/// The entities of dimension `d` a section has rows for, in mesh order.
/// Where a count precedes the rows, an encoder walks this twice — once to
/// count, once to write — rather than collecting the rows.
fn rows<'a>(part: &'a Part, picked: &'a Picked, d: Dim) -> impl Iterator<Item = MeshEnt> + 'a {
    let (all, logged) = match picked {
        Picked::All => (Some(part.mesh.iter(d)), None),
        Picked::Logged(ents) => (None, Some(&ents[d.as_usize()])),
    };
    all.into_iter()
        .flatten()
        .chain(logged.into_iter().flatten().copied())
}

/// One [`put_entity`] record per entity, vertices first, the ghost source
/// as the extra field.
fn encode_entities(part: &Part, picked: &Picked, w: &mut impl SectionSink) {
    for d in 0..=part.mesh.elem_dim() {
        for e in rows(part, picked, Dim::from_usize(d)) {
            let src = part.ghost_source(e).map(|(src, _)| src);
            put_entity(w, part, e, |w| put_ghost_source(w, src));
        }
    }
}

/// One [`put_residence`] row per part-boundary entity. Boundary links are
/// global state and small next to the entities, so a delta round rewrites
/// them whole.
fn encode_remotes(part: &Part, w: &mut impl SectionSink) {
    let shared = part.shared_entities();
    w.put_u32(shared.len() as u32);
    let mut res: Vec<PartId> = Vec::new();
    for (e, copies) in shared {
        // `Part::residence`: this part merged into the sorted remote parts.
        res.clear();
        res.extend(copies.iter().map(|&(p, _)| p));
        res.insert(res.partition_point(|&p| p < part.id), part.id);
        put_residence(w, e.dim(), part.gid_of(e), &res);
    }
}

fn encode_fields(part: &Part, fields: &[&Field], picked: &Picked, w: &mut impl SectionSink) {
    let elem_dim = part.mesh.elem_dim();
    w.put_u32(fields.len() as u32);
    for f in fields {
        w.put_bytes(f.name.as_bytes());
        w.put_u8(crate::format::shape_to_u8(f.shape));
        w.put_u32(f.ncomp as u32);
        let field_rows = || {
            f.shape
                .node_dims(elem_dim)
                .iter()
                .flat_map(|&d| rows(part, picked, d))
                .filter_map(|e| Some((e, f.get(e)?)))
        };
        w.put_u32(field_rows().count() as u32);
        for (e, v) in field_rows() {
            w.put_u8(e.dim().as_usize() as u8);
            w.put_u64(part.gid_of(e));
            w.put_f64_slice(v);
        }
    }
}

/// Delta rounds only: the gids deleted since the last round, per dimension.
fn encode_deleted(log: &DirtyLog, w: &mut impl SectionSink) {
    for d in 0..4 {
        let mut gids: Vec<GlobalId> = log.deleted[d].iter().copied().collect();
        gids.sort_unstable();
        w.put_u64_slice(&gids);
    }
}

/// Where the next section of a part file starts: after the last one
/// written, or after the header.
fn sections_end(entries: &[SectionEntry]) -> u64 {
    entries
        .last()
        .map_or(HEADER_LEN as u64, |e| e.offset + e.disk_len)
}

/// Run `encode` once, streaming its output to `out` as one section's
/// compressed chunks, and append the section's table entry.
fn emit<W: Write>(
    out: &mut W,
    entries: &mut Vec<SectionEntry>,
    section: Section,
    encode: impl FnOnce(&mut ChunkWriter<'_, W>),
) -> std::io::Result<()> {
    let mut cw = ChunkWriter::new(out, DEFAULT_CHUNK_LEN);
    encode(&mut cw);
    let st = cw.finish_section()?;
    entries.push(SectionEntry {
        section,
        offset: sections_end(entries),
        disk_len: st.disk_len,
        raw_len: st.raw_len,
        nchunks: st.nchunks,
    });
    Ok(())
}

/// Stream one part file to `path`: placeholder header, chunked sections
/// (each encoder runs once, its output compressed and flushed chunk by
/// chunk), the table, then a seek-back header rewrite with the table's
/// landing spot. With `dirty` the file is a delta round: the same sections
/// filtered to the log's entities, plus Deleted. Returns total file bytes.
fn write_part_file(
    path: &Path,
    part: &Part,
    fields: &[&Field],
    dirty: Option<&DirtyLog>,
) -> Result<u64, IoError> {
    let io_err = |source: std::io::Error| IoError::Io {
        path: path.to_path_buf(),
        source,
    };
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut out = BufWriter::new(file);
    out.write_all(&[0u8; HEADER_LEN]).map_err(io_err)?;
    let mut entries = Vec::with_capacity(Section::ALL.len() + 1);
    let o = &mut out;
    let picked = &Picked::of(part, dirty);
    emit(o, &mut entries, Section::Entities, |w| {
        encode_entities(part, picked, w)
    })
    .map_err(io_err)?;
    emit(o, &mut entries, Section::Remotes, |w| {
        encode_remotes(part, w)
    })
    .map_err(io_err)?;
    emit(o, &mut entries, Section::Fields, |w| {
        encode_fields(part, fields, picked, w)
    })
    .map_err(io_err)?;
    if let Some(log) = dirty {
        emit(o, &mut entries, Section::Deleted, |w| {
            encode_deleted(log, w)
        })
        .map_err(io_err)?;
    }
    let offset = sections_end(&entries);
    let table = encode_table(&entries);
    out.write_all(&table).map_err(io_err)?;
    let flags = if dirty.is_some() { FLAG_DELTA } else { 0 };
    let hdr = encode_header(
        part.id,
        part.mesh.elem_dim() as u32,
        flags,
        offset,
        table.len() as u32,
    );
    out.seek(SeekFrom::Start(0)).map_err(io_err)?;
    out.write_all(&hdr).map_err(io_err)?;
    out.flush().map_err(io_err)?;
    Ok(offset + table.len() as u64)
}

/// Write one file per local part into `dir` (created if missing) — full
/// snapshots, or delta rounds when `logs` holds each part's dirty log —
/// then agree on failure: after this returns `Ok` no rank has failed. A
/// caller that already failed locally passes its error as `local_err` and
/// writes nothing. Returns this rank's bytes and part count.
pub(crate) fn write_part_files(
    comm: &Comm,
    dm: &DistMesh,
    fields: &[&DistField],
    dir: &Path,
    logs: Option<&[DirtyLog]>,
    mut local_err: Option<IoError>,
) -> Result<(u64, usize), IoError> {
    if local_err.is_none() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            local_err = Some(IoError::Io {
                path: dir.to_path_buf(),
                source: e,
            });
        }
    }
    let mut bytes_local = 0u64;
    let mut parts_written = 0usize;
    if local_err.is_none() {
        for (slot, part) in dm.parts.iter().enumerate() {
            let pfields: Vec<&Field> = fields.iter().map(|df| &df[slot]).collect();
            let path = part_file_path(dir, part.id);
            let dirty = logs.map(|l| &l[slot]);
            match write_part_file(&path, part, &pfields, dirty) {
                Ok(n) => {
                    bytes_local += n;
                    parts_written += 1;
                }
                Err(e) => {
                    local_err = Some(e);
                    break;
                }
            }
        }
    }
    pumi_obs::metrics::counter_add("io.write.bytes", bytes_local);
    let failures = comm.allreduce_sum_u64(local_err.is_some() as u64);
    if failures > 0 {
        return Err(local_err.unwrap_or(IoError::PeerFailed { failures }));
    }
    Ok((bytes_local, parts_written))
}

/// The commit point of a write: rank 0 (the only rank passing `Some`)
/// writes the manifest, every rank agrees on the outcome, and the world's
/// byte total is reduced into the returned statistics.
pub(crate) fn commit_manifest(
    comm: &Comm,
    dir: &Path,
    manifest: Option<Manifest>,
    bytes_local: u64,
    parts_written: usize,
) -> Result<WriteStats, IoError> {
    let mut manifest_err: Option<IoError> = None;
    let mut manifest_bytes = 0u64;
    if let Some(manifest) = manifest {
        let data = encode_manifest(&manifest);
        let path = dir.join(MANIFEST_FILE);
        match std::fs::write(&path, &data) {
            Ok(()) => manifest_bytes = data.len() as u64,
            Err(e) => manifest_err = Some(IoError::Io { path, source: e }),
        }
    }
    let failures = comm.allreduce_sum_u64(manifest_err.is_some() as u64);
    if failures > 0 {
        return Err(manifest_err.unwrap_or(IoError::PeerFailed { failures }));
    }
    let bytes_global = comm.allreduce_sum_u64(bytes_local + manifest_bytes);
    Ok(WriteStats {
        bytes_local,
        bytes_global,
        parts_written,
    })
}

/// Write a checkpoint of `dm` (and the given fields, each aligned with
/// `dm.parts`) into directory `dir`. Collective; every rank must call with
/// the same `dir` and field list. Returns per-rank statistics.
///
/// On failure every rank returns an error: ranks with a local failure get
/// the specific [`IoError`], the rest get [`IoError::PeerFailed`].
///
/// # Examples
///
/// A write → read roundtrip preserves the mesh bit-for-bit:
///
/// ```
/// use pumi_core::{distribute, PartMap};
/// use pumi_io::{read_checkpoint, struct_hash, write_checkpoint};
/// use pumi_util::PartId;
///
/// let dir = std::env::temp_dir().join(format!("pumi-io-doc-{}", std::process::id()));
/// pumi_pcu::execute(2, |c| {
///     let serial = pumi_meshgen::tri_rect(4, 4, 1.0, 1.0);
///     let labels = vec![0 as PartId; serial.index_space(serial.elem_dim_t())];
///     let dm = distribute(c, PartMap::contiguous(1, 2), &serial, &labels);
///     write_checkpoint(c, &dm, &[], &dir).expect("write");
///     let restored = read_checkpoint(c, &dir).expect("read");
///     assert_eq!(struct_hash(c, &dm), struct_hash(c, &restored.dm));
/// });
/// std::fs::remove_dir_all(&dir).ok();
/// ```
pub fn write_checkpoint(
    comm: &Comm,
    dm: &DistMesh,
    fields: &[&DistField],
    dir: &Path,
) -> Result<WriteStats, IoError> {
    let _span = pumi_obs::span!("io.write");
    for df in fields {
        assert_eq!(df.len(), dm.parts.len(), "field not aligned with dm.parts");
    }
    let (bytes_local, parts_written) = write_part_files(comm, dm, fields, dir, None, None)?;

    // Manifest inputs: global owned counts, ghost presence, field
    // descriptors (identical on every rank by the SPMD contract).
    let mut owned = [0u64; 4];
    for p in &dm.parts {
        for (d, o) in owned.iter_mut().enumerate() {
            let dim = Dim::from_usize(d);
            *o += p
                .mesh
                .iter(dim)
                .filter(|&e| !p.is_ghost(e) && p.is_owned(e))
                .count() as u64;
        }
    }
    let owned_counts: Vec<u64> = comm.allreduce_sum_u64_vec(&owned);
    let any_ghosts = comm.allreduce_max_u64(dm.parts.iter().any(|p| p.num_ghosts() > 0) as u64) > 0;
    let elem_dim = dm.parts.first().map(|p| p.mesh.elem_dim()).unwrap_or(2);
    let elem_dim = comm.allreduce_max_u64(elem_dim as u64) as u32;

    // Gather field descriptors to rank 0: a rank may host zero parts, so
    // rank 0 takes the first non-empty descriptor list it receives.
    let mut dw = MsgWriter::new();
    let local_descs: Vec<FieldDesc> = fields
        .iter()
        .filter_map(|df| df.first())
        .map(|f| FieldDesc {
            name: f.name.clone(),
            shape: f.shape,
            ncomp: f.ncomp as u32,
        })
        .collect();
    dw.put_u32(local_descs.len() as u32);
    for d in &local_descs {
        dw.put_bytes(d.name.as_bytes());
        dw.put_u8(crate::format::shape_to_u8(d.shape));
        dw.put_u32(d.ncomp);
    }
    let gathered = comm.gather_bytes(0, dw.finish());

    let manifest = (comm.rank() == 0).then(|| {
        let mut descs = local_descs;
        if descs.is_empty() {
            for blob in gathered.unwrap_or_default() {
                let mut r = pumi_pcu::MsgReader::from_vec(blob.to_vec());
                let n = r.try_get_u32().unwrap_or(0);
                if n == 0 {
                    continue;
                }
                for _ in 0..n {
                    let (name, code, ncomp) =
                        match (r.try_get_bytes(), r.try_get_u8(), r.try_get_u32()) {
                            (Ok(n), Ok(c), Ok(k)) => (n, c, k),
                            _ => break,
                        };
                    if let (Ok(name), Some(shape)) =
                        (String::from_utf8(name), crate::format::shape_from_u8(code))
                    {
                        descs.push(FieldDesc { name, shape, ncomp });
                    }
                }
                break;
            }
        }
        Manifest {
            nparts: dm.map.nparts() as u32,
            elem_dim,
            nranks_at_write: comm.nranks() as u32,
            owned_counts: [
                owned_counts[0],
                owned_counts[1],
                owned_counts[2],
                owned_counts[3],
            ],
            has_ghosts: any_ghosts,
            fields: descs,
            delta_count: 0,
        }
    });
    commit_manifest(comm, dir, manifest, bytes_local, parts_written)
}

/// [`write_checkpoint`], kept for callers that name it with a
/// [`WriteOpts`].
pub fn write_checkpoint_with(
    comm: &Comm,
    dm: &DistMesh,
    fields: &[&DistField],
    dir: &Path,
    _opts: &WriteOpts,
) -> Result<WriteStats, IoError> {
    write_checkpoint(comm, dm, fields, dir)
}
