//! Full → delta → restore properties.
//!
//! After a base snapshot, mutate the mesh under dirty tracking (move
//! vertices, rewrite tags and fields, delete and create entities), append
//! delta rounds, and restore on M ∈ {N/2, N, 2N} ranks. The replayed
//! checkpoint must be indistinguishable from a *fresh full snapshot* of
//! the final state: same structural hash (entities, tags, overlaps), same
//! bit-exact field values, on every rank count.

use pumi_check::{check_dist, CheckOpts};
use pumi_core::overlap::Overlap;
use pumi_core::{distribute, DistMesh, PartMap};
use pumi_field::{DistField, Field, FieldShape};
use pumi_io::{read_checkpoint, struct_hash, write_checkpoint, write_delta_checkpoint, IoError};
use pumi_mesh::{Mesh, Topology};
use pumi_meshgen::{jitter, tet_box, tri_rect};
use pumi_partition::partition_mesh;
use pumi_pcu::{execute, Comm};
use pumi_util::tag::{TagData, TagKind};
use pumi_util::{Dim, MeshEnt};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pumi_io_delta_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_dm(c: &Comm, serial: &Mesh) -> DistMesh {
    let labels = partition_mesh(serial, c.nranks());
    distribute(
        c,
        PartMap::contiguous(c.nranks(), c.nranks()),
        serial,
        &labels,
    )
}

fn set_tags(dm: &mut DistMesh) {
    for part in &mut dm.parts {
        let elem_dim = part.mesh.elem_dim();
        let td = part.mesh.tags_mut().declare("prop:dbl", TagKind::Double, 1);
        let elems: Vec<_> = part.mesh.iter(Dim::from_usize(elem_dim)).collect();
        for e in elems {
            let g = part.gid_of(e);
            part.mesh
                .tags_mut()
                .set(td, e, TagData::Dbls(vec![g as f64 * 0.5 + 1.0]));
        }
    }
}

fn expected_value(x: [f64; 3]) -> [f64; 2] {
    [x[0] + x[1] + x[2], x[0] * 2.0 - x[2]]
}

fn make_field(dm: &DistMesh) -> DistField {
    dm.parts
        .iter()
        .map(|part| {
            let mut f = Field::new("temp", FieldShape::Linear, 2);
            for v in part.mesh.iter(Dim::Vertex) {
                f.set(v, &expected_value(part.mesh.coords(v)));
            }
            f
        })
        .collect()
}

fn check_field(dm: &DistMesh, fields: &[DistField]) {
    let df = &fields[0];
    for (part, f) in dm.parts.iter().zip(df) {
        for v in part.mesh.iter(Dim::Vertex) {
            let got = f
                .get(v)
                .unwrap_or_else(|| panic!("part {}: vertex {v:?} lost its field value", part.id));
            assert_eq!(got, &expected_value(part.mesh.coords(v))[..]);
        }
    }
}

/// A vertex no other part can see: safe to mutate unilaterally.
fn is_interior(part: &pumi_core::Part, v: MeshEnt) -> bool {
    !part.is_shared(v) && !part.is_ghost(v)
}

/// Delete an entity and any downward entities it leaves bounding nothing,
/// the way cavity operators do — migration (and thus N→M restore) requires
/// a mesh without dangling intermediate entities.
fn delete_with_closure(part: &mut pumi_core::Part, e: MeshEnt) {
    let down = if e.dim() == Dim::Vertex {
        Vec::new()
    } else {
        part.mesh.down_ents(e)
    };
    part.delete_entity(e);
    for sub in down {
        if part.mesh.is_live(sub) && part.mesh.up_count(sub) == 0 {
            delete_with_closure(part, sub);
        }
    }
}

/// Deterministic per-part mutations. `round` selects disjoint target sets
/// so consecutive rounds touch different entities. `structural` also
/// deletes one deep-interior element and (round 2) grows a new vertex +
/// element, exercising the Deleted section and entity upserts.
fn mutate_round(dm: &mut DistMesh, fields: &mut DistField, round: usize, structural: bool) {
    for (part, f) in dm.parts.iter_mut().zip(fields.iter_mut()) {
        let elem_dim = part.mesh.elem_dim();
        let d_elem = Dim::from_usize(elem_dim);

        // Move every 4th interior vertex and refresh its field value.
        let targets: Vec<MeshEnt> = part
            .mesh
            .iter(Dim::Vertex)
            .filter(|&v| is_interior(part, v))
            .enumerate()
            .filter(|(i, _)| i % 4 == round % 4)
            .map(|(_, v)| v)
            .collect();
        for v in targets {
            let mut x = part.mesh.coords(v);
            x[2] += 0.01 * (round as f64 + 1.0);
            part.mesh.set_coords(v, x);
            f.set(v, &expected_value(x));
            part.mark_dirty(v);
        }

        // Rewrite the element tag on every 3rd non-ghost element.
        let tid = part.mesh.tags().find("prop:dbl").expect("tag declared");
        let elems: Vec<MeshEnt> = part
            .mesh
            .iter(d_elem)
            .filter(|&e| !part.is_ghost(e))
            .enumerate()
            .filter(|(i, _)| i % 3 == round % 3)
            .map(|(_, e)| e)
            .collect();
        for e in elems {
            let g = part.gid_of(e);
            part.mesh
                .tags_mut()
                .set(tid, e, TagData::Dbls(vec![g as f64 * -2.0 + round as f64]));
            part.mark_dirty(e);
        }

        if !structural {
            continue;
        }
        // Delete one element whose vertices no other part references.
        let victim = part.mesh.iter(d_elem).find(|&e| {
            !part.is_ghost(e)
                && part
                    .mesh
                    .verts_of(e)
                    .iter()
                    .all(|&v| is_interior(part, MeshEnt::vertex(v)))
        });
        if let Some(e) = victim {
            let vs: Vec<u32> = part.mesh.verts_of(e).to_vec();
            let class = part.mesh.class_of(e);
            let mut x = [0.0; 3];
            for &v in &vs {
                let c = part.mesh.coords(MeshEnt::vertex(v));
                for (xi, ci) in x.iter_mut().zip(c) {
                    *xi += ci / vs.len() as f64;
                }
            }
            delete_with_closure(part, e);
            if round >= 2 {
                // Regrow in the victim's cavity: a fresh apex vertex over
                // the centroid, connected across the victim's first side so
                // every side goes back to bounding exactly two elements —
                // fresh gids, new entity upserts, and a manifold result.
                x[2] += 0.3;
                // Gids above every bootstrap serial index (< 2^40),
                // distinct per part and round.
                let gv = ((u64::from(part.id) + 1) << 40) | (2 * round as u64);
                let nv = part.add_vertex(x, class, gv);
                f.set(nv, &expected_value(x));
                let topo = if elem_dim == 2 {
                    Topology::Triangle
                } else {
                    Topology::Tet
                };
                let mut conn: Vec<u32> = vs[..elem_dim].to_vec();
                conn.push(nv.index());
                let ge = gv + 1;
                let ne = part.add_entity(topo, &conn, class, ge);
                let tid = part.mesh.tags().find("prop:dbl").expect("tag");
                part.mesh
                    .tags_mut()
                    .set(tid, ne, TagData::Dbls(vec![ge as f64 * 0.5 + 1.0]));
            }
        }
    }
}

/// Write base + `rounds` deltas into `dir_delta` and a fresh full snapshot
/// of the final state into `dir_full`; restore both on M ∈ {N/2, N, 2N}
/// and demand identical structural hashes and bit-exact fields.
fn delta_roundtrip(name: &str, serial: &Mesh, nwrite: usize, rounds: usize, ghosts: bool) {
    let dir_delta = scratch_dir(&format!("{name}_d"));
    let dir_full = scratch_dir(&format!("{name}_f"));
    let structural = !ghosts;
    let write_out = execute(nwrite, |c| {
        let mut dm = build_dm(c, serial);
        set_tags(&mut dm);
        if ghosts {
            Overlap::from_dist(&dm)
                .with_bridge(Dim::Vertex)
                .grow(c, &mut dm, 1);
        }
        let mut fields = make_field(&dm);
        write_checkpoint(c, &dm, &[&fields], &dir_delta).expect("base write");
        dm.start_dirty_tracking();
        for round in 1..=rounds {
            mutate_round(&mut dm, &mut fields, round, structural);
            let stats =
                write_delta_checkpoint(c, &mut dm, &[&fields], &dir_delta).expect("delta write");
            assert_eq!(stats.parts_written, dm.parts.len());
        }
        write_checkpoint(c, &dm, &[&fields], &dir_full).expect("fresh full write");
        struct_hash(c, &dm)
    });
    let want = write_out[0];
    assert!(write_out.iter().all(|&h| h == want), "hash is collective");

    for m in [nwrite.div_ceil(2), nwrite, nwrite * 2] {
        for (dir, label) in [(&dir_delta, "base+delta"), (&dir_full, "fresh full")] {
            let hashes = execute(m, |c| {
                let restored = read_checkpoint(c, dir).expect("restore");
                check_dist(c, &restored.dm, CheckOpts::all()).expect("valid restored mesh");
                check_field(&restored.dm, &restored.fields);
                struct_hash(c, &restored.dm)
            });
            for h in hashes {
                assert_eq!(h, want, "{name}: {label} hash mismatch on {m} ranks");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir_delta);
    let _ = std::fs::remove_dir_all(&dir_full);
}

#[test]
fn delta_roundtrip_2d_structural() {
    let mut serial = tri_rect(12, 9, 3.0, 2.0);
    jitter(&mut serial, 0.2, 7);
    delta_roundtrip("2d", &serial, 4, 2, false);
}

#[test]
fn delta_roundtrip_3d_structural() {
    let mut serial = tet_box(4, 3, 3, 1.0, 1.0, 1.5);
    jitter(&mut serial, 0.15, 3);
    delta_roundtrip("3d", &serial, 3, 2, false);
}

#[test]
fn delta_roundtrip_with_ghost_layer() {
    let mut serial = tri_rect(10, 8, 2.0, 2.0);
    jitter(&mut serial, 0.1, 11);
    delta_roundtrip("ghosted", &serial, 4, 2, true);
}

#[test]
fn empty_delta_round_is_a_noop() {
    let serial = tri_rect(8, 6, 1.0, 1.0);
    let dir = scratch_dir("noop");
    let hashes = execute(2, |c| {
        let mut dm = build_dm(c, &serial);
        write_checkpoint(c, &dm, &[], &dir).expect("base");
        dm.start_dirty_tracking();
        // Nothing touched: the delta round carries empty sections.
        write_delta_checkpoint(c, &mut dm, &[], &dir).expect("empty delta");
        struct_hash(c, &dm)
    });
    let restored = execute(2, |c| {
        let r = read_checkpoint(c, &dir).expect("restore");
        struct_hash(c, &r.dm)
    });
    assert_eq!(hashes[0], restored[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_after_repartition_is_refused() {
    let serial = tri_rect(8, 6, 1.0, 1.0);
    let dir = scratch_dir("repart");
    execute(2, |c| {
        let dm = build_dm(c, &serial);
        write_checkpoint(c, &dm, &[], &dir).expect("base from 2 parts");
    });
    execute(4, |c| {
        // Restore onto 4 ranks, then try to delta against the 2-part base:
        // the partition no longer matches and every rank must refuse.
        let mut restored = read_checkpoint(c, &dir).expect("restore");
        restored.dm.start_dirty_tracking();
        let err = write_delta_checkpoint(c, &mut restored.dm, &[], &dir)
            .expect_err("partition mismatch must refuse");
        assert!(
            matches!(err, IoError::Manifest { .. } | IoError::PeerFailed { .. }),
            "typed refusal, got {err:?}"
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}
