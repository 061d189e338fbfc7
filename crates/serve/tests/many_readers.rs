//! Many-reader restore drills: concurrent PCU-simulated clients each pull
//! a different slice of one checkpoint through the shared chunk cache;
//! the slices must tile the mesh exactly and the cache must do real work
//! (hits > 0 once readers outnumber unique chunks' first touches), decoding
//! each chunk once however the clients interleave.

use pumi_core::{distribute, PartMap};
use pumi_io::format::{delta_dir, parse_part_header, part_file_path};
use pumi_io::{read_checkpoint, write_checkpoint, write_delta_checkpoint, IoError, Section};
use pumi_meshgen::tri_rect;
use pumi_partition::partition_mesh;
use pumi_pcu::{execute, execute_opts, Comm, MachineModel, SchedMode, WorldOpts};
use pumi_serve::CheckpointServer;
use pumi_util::{Dim, FxHashMap, FxHashSet, GlobalId};
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pumi_serve_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write an nparts-way checkpoint of a jagged tri mesh with one scalar
/// tag (`t:gid`, value = gid as f64) so slices carry checkable payload.
fn write_tagged(name: &str, nparts: usize) -> PathBuf {
    let dir = tmp_dir(name);
    let serial = tri_rect(16, 12, 2.0, 1.5);
    execute(nparts, |c| {
        let labels = partition_mesh(&serial, nparts);
        let mut dm = distribute(c, PartMap::contiguous(nparts, nparts), &serial, &labels);
        for part in &mut dm.parts {
            let tid = part
                .mesh
                .tags_mut()
                .declare("t:gid", pumi_util::tag::TagKind::Double, 1);
            let vs: Vec<_> = part.mesh.iter(Dim::Vertex).collect();
            for v in vs {
                let g = part.gid_of(v) as f64;
                part.mesh.tags_mut().set_dbl(tid, v, g);
            }
        }
        write_checkpoint(c, &dm, &[], &dir).expect("write");
    });
    dir
}

/// The chunks a restore of every slice touches: every chunk of every
/// section of every part file, base and delta rounds.
fn chunk_count(dir: &Path, nparts: u32, deltas: u32) -> u64 {
    let dirs = std::iter::once(dir.to_path_buf()).chain((1..=deltas).map(|k| delta_dir(dir, k)));
    dirs.flat_map(|d| (0..nparts).map(move |p| (p, part_file_path(&d, p))))
        .map(|(p, path)| {
            let data = std::fs::read(path).expect("part file");
            let h = parse_part_header(p, &data).expect("intact header");
            h.sections.iter().map(|s| s.nchunks as u64).sum::<u64>()
        })
        .sum()
}

/// Element gids of every part in a slice, plus the vertex tag rows.
fn slice_digest(
    slice: &pumi_serve::Slice,
    elem_dim: usize,
) -> (FxHashSet<GlobalId>, FxHashMap<GlobalId, f64>) {
    let d_elem = Dim::from_usize(elem_dim);
    let mut elems = FxHashSet::default();
    let mut tags = FxHashMap::default();
    for part in &slice.parts {
        for e in part.mesh.iter(d_elem) {
            assert!(elems.insert(part.gid_of(e)), "duplicate element in slice");
        }
        if let Some(tid) = part.mesh.tags().find("t:gid") {
            for v in part.mesh.iter(Dim::Vertex) {
                if let Some(x) = part.mesh.tags().get_dbl(tid, v) {
                    tags.insert(part.gid_of(v), x);
                }
            }
        }
    }
    (elems, tags)
}

/// The whole mesh, as the collective reader sees it, for ground truth.
fn full_restore_digest(dir: &Path, nranks: usize) -> (FxHashSet<GlobalId>, usize) {
    let out = execute(nranks, |c| {
        let r = read_checkpoint(c, dir).expect("collective restore");
        let d_elem = Dim::from_usize(r.dm.parts[0].mesh.elem_dim());
        let mut gids = Vec::new();
        for part in &r.dm.parts {
            for e in part.mesh.iter(d_elem) {
                if !part.is_ghost(e) {
                    gids.push(part.gid_of(e));
                }
            }
        }
        gids
    });
    let mut all = FxHashSet::default();
    for gids in out {
        for g in gids {
            assert!(all.insert(g), "element owned twice in collective restore");
        }
    }
    let n = all.len();
    (all, n)
}

/// ≥8 concurrent clients, disjoint slices, shared cache doing real work.
/// Clients are PCU ranks: each restores its slice, then the world agrees
/// on the global element count through an allreduce (which also gives the
/// chaos scheduler something to bite on).
#[test]
fn eight_clients_restore_disjoint_slices() {
    let nclients = 8;
    let dir = write_tagged("eight", 2);
    let (truth, total) = full_restore_digest(&dir, 2);

    let server = CheckpointServer::open(&dir).expect("open");
    let elem_dim = server.manifest().elem_dim as usize;
    let slices = execute(nclients, |c| {
        let s = server
            .restore_slice(c.rank(), c.nranks())
            .expect("slice restore");
        let (elems, tags) = slice_digest(&s, elem_dim);
        let agreed = c.allreduce_sum_u64(elems.len() as u64);
        assert_eq!(agreed as usize, total, "slices must tile the mesh");
        (elems, tags)
    });

    // Pairwise disjoint, union = the collective restore's element set.
    let mut union = FxHashSet::default();
    for (elems, tags) in &slices {
        for &g in elems {
            assert!(union.insert(g), "element gid {g} appears in two slices");
        }
        for (&g, &x) in tags {
            assert_eq!(x, g as f64, "tag row corrupted for vertex gid {g}");
        }
    }
    assert_eq!(union, truth, "slice union differs from collective restore");

    let stats = server.stats();
    assert!(stats.chunk_misses > 0, "someone must decompress: {stats:?}");
    assert!(
        stats.chunk_hits > 0,
        "8 clients over 2 parts must share cached chunks: {stats:?}"
    );
    // Every part file hit disk exactly once: the two files plus manifest.
    let file_bytes: u64 = (0..2)
        .map(|p| std::fs::metadata(part_file_path(&dir, p)).unwrap().len())
        .sum();
    assert!(
        stats.disk_bytes <= file_bytes + 4096,
        "part files must be read once each: {stats:?} vs {file_bytes} file bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single flight: 2 and 8 clients each restore every slice, starting at
/// their own rank, so they race for the same chunks. Under the
/// deterministic scheduler and two chaos seeds alike, a chunk another
/// client is decoding is awaited, not decoded again: the misses equal the
/// distinct (delta round, part, section, chunk) keys the slices touch.
#[test]
fn each_chunk_is_decoded_once() {
    let dir = write_tagged("flight", 2);
    execute(2, |c| {
        let serial = tri_rect(16, 12, 2.0, 1.5);
        let labels = partition_mesh(&serial, 2);
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        dm.start_dirty_tracking();
        for part in &mut dm.parts {
            let vs: Vec<_> = part.mesh.iter(Dim::Vertex).step_by(5).collect();
            for v in vs {
                let mut x = part.mesh.coords(v);
                x[1] += 0.01;
                part.mesh.set_coords(v, x);
                part.mark_dirty(v);
            }
        }
        write_delta_checkpoint(c, &mut dm, &[], &dir).expect("delta write");
    });
    let chunks = chunk_count(&dir, 2, 1);
    for nclients in [2, 8] {
        for seed in [None, Some(1), Some(7)] {
            let server = CheckpointServer::open(&dir).expect("open");
            let client = |c: &Comm| {
                for k in 0..nclients {
                    let s = (c.rank() + k) % nclients;
                    server.restore_slice(s, nclients).expect("slice restore");
                }
                c.barrier();
            };
            match seed {
                None => execute(nclients, client),
                Some(seed) => execute_opts(
                    MachineModel::flat(nclients),
                    WorldOpts::default().sched(SchedMode::Chaos(seed)),
                    client,
                ),
            };
            let stats = server.stats();
            assert_eq!(
                stats.chunk_misses, chunks,
                "{nclients} clients, chaos {seed:?}: {stats:?}"
            );
            assert!(stats.chunk_hits > 0, "{stats:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// M < N: each client gets one part merged from a block of file parts.
#[test]
fn fewer_clients_than_parts_get_part_blocks() {
    let dir = write_tagged("blocks", 4);
    let (truth, _) = full_restore_digest(&dir, 4);
    let server = CheckpointServer::open(&dir).expect("open");
    let elem_dim = server.manifest().elem_dim as usize;
    let mut union = FxHashSet::default();
    let mut fparts_seen = FxHashSet::default();
    for s in 0..3 {
        let slice = server.restore_slice(s, 3).expect("slice");
        for &p in &slice.fparts {
            assert!(fparts_seen.insert(p), "file part {p} served twice");
        }
        let (elems, _) = slice_digest(&slice, elem_dim);
        for g in elems {
            assert!(union.insert(g), "element in two slices");
        }
    }
    assert_eq!(fparts_seen.len(), 4, "all file parts must be covered");
    assert_eq!(union, truth);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Slices reflect delta rounds: move a vertex and rewrite its tag after
/// the base snapshot; the served slice must show the replayed state.
#[test]
fn slices_replay_delta_rounds() {
    let dir = tmp_dir("delta");
    let serial = tri_rect(10, 8, 1.0, 1.0);
    let moved: Vec<(GlobalId, [f64; 3], f64)> = execute(2, |c| {
        let labels = partition_mesh(&serial, 2);
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        write_checkpoint(c, &dm, &[], &dir).expect("base write");
        dm.start_dirty_tracking();
        // Nudge the first owned vertex of each part and retag it.
        let mut out = Vec::new();
        for part in &mut dm.parts {
            let v = part
                .mesh
                .iter(Dim::Vertex)
                .find(|&v| !part.is_ghost(v) && !part.is_shared(v))
                .expect("an interior vertex");
            let mut x = part.mesh.coords(v);
            x[2] += 0.25;
            part.mesh.set_coords(v, x);
            let tid = part
                .mesh
                .tags_mut()
                .declare("t:moved", pumi_util::tag::TagKind::Double, 1);
            part.mesh.tags_mut().set_dbl(tid, v, 7.5);
            part.mark_dirty(v);
            out.push((part.gid_of(v), x, 7.5));
        }
        write_delta_checkpoint(c, &mut dm, &[], &dir).expect("delta write");
        out
    })
    .into_iter()
    .flatten()
    .collect();

    let server = CheckpointServer::open(&dir).expect("open");
    assert_eq!(server.manifest().delta_count, 1);
    let mut found = 0;
    for s in 0..2 {
        let slice = server.restore_slice(s, 2).expect("slice");
        for part in &slice.parts {
            let tid = part.mesh.tags().find("t:moved");
            for &(gid, x, tv) in &moved {
                if let Some(v) = part.find_gid(Dim::Vertex, gid) {
                    assert_eq!(part.mesh.coords(v), x, "delta coords not replayed");
                    let tid = tid.expect("delta tag must exist in slice");
                    assert_eq!(part.mesh.tags().get_dbl(tid, v), Some(tv));
                    found += 1;
                }
            }
        }
    }
    assert!(found >= 2, "both moved vertices must appear in slices");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption surfaces through the serve path as the same typed chunk
/// error the collective reader raises — never a panic, and the poisoned
/// chunk is not cached for later readers.
#[test]
fn corrupt_chunk_is_typed_through_serve_path() {
    let dir = write_tagged("corrupt", 2);
    let path = part_file_path(&dir, 1);
    let mut data = std::fs::read(&path).expect("read part file");
    let h = pumi_io::format::parse_part_header(1, &data).expect("header");
    let entry = h.find(Section::Entities).expect("entities");
    data[entry.offset as usize + pumi_io::chunk::CHUNK_HEADER_LEN + 3] ^= 0x10;
    std::fs::write(&path, &data).expect("write corrupted");

    let server = CheckpointServer::open(&dir).expect("open");
    // Slice 0 (part 0) is fine; slice 1 (part 1) hits the bad chunk.
    server.restore_slice(0, 2).expect("undamaged part serves");
    let err = server.restore_slice(1, 2).expect_err("damage must surface");
    match err {
        IoError::BadChunk {
            part: 1,
            section: Section::Entities,
            chunk: 0,
            ref detail,
        } => assert!(detail.contains("CRC"), "{detail}"),
        other => panic!("expected BadChunk, got {other:?}"),
    }
    // Retry fails identically (nothing half-decoded got cached).
    let err2 = server.restore_slice(1, 2).expect_err("still damaged");
    assert!(matches!(err2, IoError::BadChunk { part: 1, .. }));
    let _ = std::fs::remove_dir_all(&dir);
}
