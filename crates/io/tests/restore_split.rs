//! The two restore paths build the same parts, and nothing moves: slice
//! `i` of `M` from the slice service holds exactly the entities — every
//! dimension, by gid — and the field values, bit for bit, that rank `i`
//! holds after `read_checkpoint` on `M` ranks, for merges (M ≤ N) and
//! splits (M > N) alike, in 2-D and 3-D; no part or
//! slice holds an entity no element bounds, and every split piece is within
//! one element of its share. No restore enters a `migrate` span or moves an
//! element. Two drills: an element gid held by two file parts of one merge
//! block is refused instead of hidden by the union, and a side bounding a
//! third element is refused by every piece of its part.

use pumi_core::{distribute, DistMesh, Part, PartMap};
use pumi_field::{DistField, Field, FieldShape};
use pumi_io::{
    balanced_block, read_checkpoint, write_checkpoint, write_delta_checkpoint, IoError, Section,
};
use pumi_mesh::Topology;
use pumi_meshgen::{jitter, tet_box, tri_rect};
use pumi_partition::partition_mesh;
use pumi_pcu::execute;
use pumi_serve::CheckpointServer;
use pumi_util::{Dim, GlobalId, MeshEnt};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pumi_io_split_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 4-part checkpoint of a jittered `tri_rect(16, 12)` written from 2
/// ranks, with a 3-component vertex field; `edit` runs on each rank's mesh
/// before the base write. One delta round moves every 7th vertex and
/// rewrites its field value, so the cut sees replayed coordinates.
fn write_four(name: &str, edit: impl Fn(&mut DistMesh) + Sync) -> PathBuf {
    let dir = scratch_dir(name);
    let mut serial = tri_rect(16, 12, 2.0, 1.5);
    jitter(&mut serial, 0.2, 5);
    execute(2, |c| {
        let labels = partition_mesh(&serial, 4);
        let mut dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
        edit(&mut dm);
        let value = |x: [f64; 3]| [x[0], x[1] * 2.0, x[0] - x[1]];
        let mut fields: DistField = dm
            .parts
            .iter()
            .map(|part| {
                let mut f = Field::new("u", FieldShape::Linear, 3);
                for v in part.mesh.iter(Dim::Vertex) {
                    f.set(v, &value(part.mesh.coords(v)));
                }
                f
            })
            .collect();
        write_checkpoint(c, &dm, &[&fields], &dir).expect("base write");
        dm.start_dirty_tracking();
        for (part, f) in dm.parts.iter_mut().zip(&mut fields) {
            let moved: Vec<MeshEnt> = part.mesh.iter(Dim::Vertex).step_by(7).collect();
            for v in moved {
                let mut x = part.mesh.coords(v);
                x[0] += 0.01;
                part.mesh.set_coords(v, x);
                f.set(v, &value(x));
                part.mark_dirty(v);
            }
        }
        write_delta_checkpoint(c, &mut dm, &[&fields], &dir).expect("delta write");
    });
    dir
}

/// A 2-part checkpoint of a jittered `tet_box(6, 6, 6)` written from 2
/// ranks: cut 4 ways, each part's pieces share faces, edges and vertices.
fn write_tets(name: &str) -> PathBuf {
    let dir = scratch_dir(name);
    let mut serial = tet_box(6, 6, 6, 1.0, 1.0, 1.0);
    jitter(&mut serial, 0.15, 9);
    execute(2, |c| {
        let labels = partition_mesh(&serial, 2);
        let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        write_checkpoint(c, &dm, &[], &dir).expect("write");
    });
    dir
}

/// A part's gids, per dimension, sorted.
fn gid_sets(part: &Part) -> Vec<Vec<GlobalId>> {
    (0..=part.mesh.elem_dim())
        .map(|d| {
            let mut gids: Vec<GlobalId> = part
                .mesh
                .iter(Dim::from_usize(d))
                .map(|e| part.gid_of(e))
                .collect();
            gids.sort_unstable();
            gids
        })
        .collect()
}

/// Each field's name and values by entity: `(dimension, gid, value bits)`,
/// sorted.
type FieldBits = Vec<(String, Vec<(usize, GlobalId, Vec<u64>)>)>;

fn field_bits(part: &Part, fields: &[Field]) -> FieldBits {
    let bits = |f: &Field| {
        let mut vals: Vec<(usize, GlobalId, Vec<u64>)> = (0..=part.mesh.elem_dim())
            .flat_map(|d| part.mesh.iter(Dim::from_usize(d)))
            .filter_map(|e| {
                let v = f.get(e)?.iter().map(|x| x.to_bits()).collect();
                Some((e.dim().as_usize(), part.gid_of(e), v))
            })
            .collect();
        vals.sort_unstable();
        vals
    };
    fields.iter().map(|f| (f.name.clone(), bits(f))).collect()
}

/// Entities below the element dimension that bound no element.
fn orphans(part: &Part) -> Vec<(Dim, GlobalId)> {
    let top = part.mesh.elem_dim_t();
    (0..part.mesh.elem_dim())
        .flat_map(|d| part.mesh.iter(Dim::from_usize(d)))
        .filter(|&e| part.mesh.adjacent(e, top).is_empty())
        .map(|e| (e.dim(), part.gid_of(e)))
        .collect()
}

#[test]
fn slices_are_the_collective_parts() {
    for (dir, n) in [
        (write_four("slices", |_| {}), 4),
        (write_tets("slices3d"), 2),
    ] {
        let server = CheckpointServer::open(&dir).expect("open");
        let part_elems: Vec<usize> = (0..n)
            .map(|p| {
                server.restore_slice(p, n).expect("part").parts[0]
                    .mesh
                    .num_elems()
            })
            .collect();
        for m in [1, 2, 3, 4, 6, 8] {
            let ranks = execute(m, |c| {
                let r = read_checkpoint(c, &dir).expect("collective restore");
                let part = &r.dm.parts[0];
                let fields: Vec<Field> = r.fields.iter().map(|df| df[0].clone()).collect();
                (gid_sets(part), orphans(part), field_bits(part, &fields))
            });
            for (i, (want, orphaned, want_fields)) in ranks.iter().enumerate() {
                assert!(
                    orphaned.is_empty(),
                    "N = {n}, M = {m}: rank {i} holds {orphaned:?}"
                );
                let slice = server.restore_slice(i, m).expect("slice");
                let [part] = &slice.parts[..] else {
                    panic!("N = {n}, M = {m}: slice {i} is {} parts", slice.parts.len());
                };
                let orphaned = orphans(part);
                assert!(
                    orphaned.is_empty(),
                    "N = {n}, M = {m}: slice {i} holds {orphaned:?}"
                );
                assert_eq!(
                    &gid_sets(part),
                    want,
                    "N = {n}, M = {m}: slice {i} is not rank {i}'s part"
                );
                let fields = field_bits(part, &slice.fields);
                assert_eq!(
                    &fields, want_fields,
                    "N = {n}, M = {m}: slice {i}'s field values are not rank {i}'s"
                );
                // The 2-D checkpoint's one field has a value on every vertex.
                if n == 4 {
                    let [(_, vals)] = &fields[..] else {
                        panic!("N = {n}, M = {m}: slice {i} has {} fields", fields.len());
                    };
                    assert_eq!(vals.len(), part.mesh.count(Dim::Vertex));
                }
                if m > n {
                    let p = slice.fparts[0] as usize;
                    let share = part_elems[p] as f64 / balanced_block(p, n, m).len() as f64;
                    let got = part.mesh.num_elems() as f64;
                    assert!(
                        (got - share).abs() < 1.0,
                        "N = {n}, M = {m}: piece {i} holds {got} of {share}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Clock-free: no restore, merge or split, enters a `migrate` span or moves
/// an element, and the loader's phases show under `io.read`.
#[test]
fn merge_migrates_nothing() {
    let dir = write_four("merge", |_| {});
    for m in [1, 2, 3, 4, 6, 8] {
        let per_rank = execute(m, |c| {
            let r = read_checkpoint(c, &dir).expect("collective restore");
            (r.stats.elements_moved, pumi_obs::span::take())
        });
        for (moved, spans) in per_rank {
            assert_eq!(moved, 0, "M = {m}: a restore moves no element");
            let paths: Vec<&str> = spans.iter().map(|(path, _)| path.as_str()).collect();
            assert!(
                paths
                    .iter()
                    .all(|p| !p.contains("migrate") && !p.contains("io.redistribute")),
                "M = {m}: {paths:?}"
            );
            for want in ["io.read/io.rows", "io.read/io.build", "io.read/io.link"] {
                assert!(paths.contains(&want), "M = {m}: no {want} in {paths:?}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Part 1's file also holds one of part 0's triangles (with the vertices
/// and edges part 1 lacks). Restored on 4 ranks each part stands alone,
/// but merging parts 0 and 1 would fold the two copies into one; the merge
/// refuses it on the rank that builds them, and the others exit with it.
/// The slice that merges them refuses it the same way.
#[test]
fn element_in_two_parts_of_a_block_is_refused() {
    let dir = write_four("twice", |dm| {
        let [p0, p1] = &mut dm.parts[..] else {
            return; // rank 1: parts 2 and 3 stay as they are
        };
        if p0.id != 0 {
            return;
        }
        // The triangle and its closure, bottom up, under part 0's gids.
        let tri = p0.mesh.elems().next().expect("part 0 has a triangle");
        for e in p0.mesh.closure(tri) {
            let (gid, class) = (p0.gid_of(e), p0.mesh.class_of(e));
            if p1.find_gid(e.dim(), gid).is_some() {
                continue;
            }
            if e.dim() == Dim::Vertex {
                p1.add_vertex(p0.mesh.coords(e), class, gid);
                continue;
            }
            let vs = p0.mesh.verts_of(e).iter().map(|&v| {
                let g = p0.gid_of(MeshEnt::vertex(v));
                p1.find_gid(Dim::Vertex, g)
                    .expect("closure copied bottom up")
                    .index()
            });
            let vs: Vec<u32> = vs.collect();
            p1.add_entity(p0.mesh.topo(e), &vs, class, gid);
        }
    });
    let at_origin = |e: &IoError| {
        matches!(e, IoError::Decode { part: 1, section: Section::Entities, detail }
            if detail.contains("also held by part 0"))
    };
    let server = CheckpointServer::open(&dir).expect("open");
    for m in [1, 2] {
        match server.restore_slice(0, m) {
            Err(e) if at_origin(&e) => {}
            other => panic!("slice 0 of {m}: expected the element refused, got {other:?}"),
        }
        let errs = execute(m, |c| {
            read_checkpoint(c, &dir)
                .map(|_| ())
                .expect_err("a doubly held element must not merge")
        });
        assert!(errs.iter().any(at_origin), "M = {m}: {errs:?}");
        for e in &errs {
            assert!(
                at_origin(e) || matches!(e, IoError::PeerFailed { .. }),
                "M = {m}: expected Decode or PeerFailed, got {e:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A third triangle on an interior edge of part 3, over a fresh vertex.
/// Every restore that builds part 3 refuses it: whole, and each of its two
/// pieces — one of which lacks at least one of the three triangles and so
/// never holds the edge three times; the cut counts sides over every
/// element row of the part.
#[test]
fn third_triangle_is_refused_by_every_piece() {
    let dir = write_four("third", |dm| {
        let Some(part) = dm.parts.iter_mut().find(|p| p.id == 3) else {
            return;
        };
        let mesh = &part.mesh;
        let edge = mesh.iter(Dim::Edge).find(|&e| mesh.up_count(e) == 2);
        let edge = edge.expect("an interior edge");
        let tri = mesh.up(edge).next().expect("a bounded edge");
        let far = mesh.iter(Dim::Vertex).last().expect("vertices");
        let (ab, x) = (mesh.verts_of(edge).to_vec(), mesh.coords(far));
        let (vclass, tclass) = (mesh.class_of(far), mesh.class_of(tri));
        // Gids above every bootstrap serial index (< 2^40).
        let c = part.add_vertex(x, vclass, 1 << 40).index();
        part.add_entity(
            Topology::Triangle,
            &[ab[0], ab[1], c],
            tclass,
            (1 << 40) + 1,
        );
    });
    let refused = |e: &IoError| {
        matches!(e, IoError::Decode { part: 3, section: Section::Entities, detail }
            if detail.contains("third element"))
    };
    let server = CheckpointServer::open(&dir).expect("open");
    for (s, m) in [(3, 4), (6, 8), (7, 8)] {
        match server.restore_slice(s, m) {
            Err(e) if refused(&e) => {}
            other => panic!("slice {s} of {m}: expected the third element refused, got {other:?}"),
        }
    }
    for m in [2, 8] {
        let errs = execute(m, |c| {
            read_checkpoint(c, &dir)
                .map(|_| ())
                .expect_err("a third element must not restore")
        });
        assert!(errs.iter().any(refused), "M = {m}: {errs:?}");
        assert!(
            errs.iter()
                .all(|e| refused(e) || matches!(e, IoError::PeerFailed { .. })),
            "M = {m}: {errs:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
