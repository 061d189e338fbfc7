//! Write-on-N / read-on-M roundtrip properties.
//!
//! For meshes of varying topology (structured and jittered, 2D and 3D,
//! with and without ghost layers), write a checkpoint from N parts and
//! restore it on M ∈ {N/2, N, 2N} ranks. The restored mesh must pass
//! distributed verification, its partition-invariant structural hash
//! (entities + tags) must match the written mesh exactly, and field
//! values must roundtrip bit-for-bit.

use pumi_check::{check_dist, CheckOpts};
use pumi_core::overlap::Overlap;
use pumi_core::{distribute, DistMesh, PartMap};
use pumi_field::{DistField, Field, FieldShape};
use pumi_io::{read_checkpoint, struct_hash, write_checkpoint};
use pumi_mesh::Mesh;
use pumi_meshgen::{jitter, tet_box, tri_rect};
use pumi_partition::partition_mesh;
use pumi_pcu::{execute, Comm};
use pumi_util::tag::{TagData, TagKind};
use pumi_util::Dim;
use std::path::{Path, PathBuf};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pumi_io_prop_{}_{name}", std::process::id()));
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

/// Deterministic gid-derived tags on vertices and elements, so copies of a
/// shared entity agree on every part.
fn set_tags(dm: &mut DistMesh) {
    for part in &mut dm.parts {
        let elem_dim = part.mesh.elem_dim();
        let ti = part.mesh.tags_mut().declare("prop:int", TagKind::Int, 2);
        let td = part.mesh.tags_mut().declare("prop:dbl", TagKind::Double, 1);
        let tb = part
            .mesh
            .tags_mut()
            .declare("prop:bytes", TagKind::Bytes, 8);
        let verts: Vec<_> = part.mesh.iter(Dim::Vertex).collect();
        for v in verts {
            let g = part.gid_of(v);
            part.mesh
                .tags_mut()
                .set(ti, v, TagData::Ints(vec![g as i64, (g * 7) as i64]));
            part.mesh
                .tags_mut()
                .set(tb, v, TagData::Bytes(g.to_le_bytes().to_vec()));
        }
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
    assert_eq!(fields.len(), 1, "one field in the checkpoint");
    let df = &fields[0];
    assert_eq!(df.len(), dm.parts.len());
    for (part, f) in dm.parts.iter().zip(df) {
        assert_eq!(f.name, "temp");
        assert_eq!(f.ncomp, 2);
        for v in part.mesh.iter(Dim::Vertex) {
            let got = f
                .get(v)
                .unwrap_or_else(|| panic!("part {}: vertex {v:?} lost its field value", part.id));
            // Bit-exact: values were stored as raw f64 bits.
            assert_eq!(got, &expected_value(part.mesh.coords(v))[..]);
        }
    }
}

fn roundtrip(name: &str, serial: &Mesh, nwrite: usize, ghosts: bool) {
    let dir = scratch_dir(name);
    let write_out = execute(nwrite, |c| {
        let mut dm = build_dm(c, serial);
        set_tags(&mut dm);
        if ghosts {
            Overlap::from_dist(&dm)
                .with_bridge(Dim::Vertex)
                .grow(c, &mut dm, 1);
        }
        let fields = make_field(&dm);
        let stats = write_checkpoint(c, &dm, &[&fields], &dir).expect("write_checkpoint");
        assert_eq!(stats.parts_written, dm.parts.len());
        assert!(stats.bytes_global > 0);
        struct_hash(c, &dm)
    });
    let want = write_out[0];
    assert!(write_out.iter().all(|&h| h == want), "hash is collective");

    for m in [nwrite.div_ceil(2), nwrite, nwrite * 2] {
        let hashes = execute(m, |c| {
            let restored = read_checkpoint(c, &dir).expect("read_checkpoint");
            check_dist(c, &restored.dm, CheckOpts::all()).expect("valid restored mesh");
            assert_eq!(restored.stats.nparts_in, nwrite);
            assert_eq!(restored.stats.redistributed, m != nwrite);
            check_field(&restored.dm, &restored.fields);
            struct_hash(c, &restored.dm)
        });
        for h in hashes {
            assert_eq!(h, want, "{name}: hash mismatch restoring on {m} ranks");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn roundtrip_2d_jittered() {
    let mut serial = tri_rect(12, 9, 3.0, 2.0);
    jitter(&mut serial, 0.2, 7);
    roundtrip("2d", &serial, 4, false);
}

#[test]
fn roundtrip_3d_jittered() {
    let mut serial = tet_box(4, 3, 3, 1.0, 1.0, 1.5);
    jitter(&mut serial, 0.15, 3);
    roundtrip("3d", &serial, 3, false);
}

#[test]
fn roundtrip_with_ghost_layer() {
    let mut serial = tri_rect(10, 8, 2.0, 2.0);
    jitter(&mut serial, 0.1, 11);
    // N = M restores the ghost layer verbatim; N ≠ M drops it (and must
    // still verify and hash identically, since ghosts never contribute).
    roundtrip("ghosted", &serial, 4, true);
}

#[test]
fn roundtrip_single_part() {
    let serial = tri_rect(6, 5, 1.0, 1.0);
    roundtrip("serial", &serial, 1, false);
}

#[test]
fn file_partition_is_rank_invariant() {
    // §"the file partition is the mesh partition": writing the same mesh
    // from the same parts must produce byte-identical part files no matter
    // which world wrote them — the basis for restart portability.
    let serial = tri_rect(8, 6, 1.0, 1.0);
    let dir_a = scratch_dir("inv_a");
    let dir_b = scratch_dir("inv_b");
    execute(2, |c| {
        let mut dm = build_dm(c, &serial);
        set_tags(&mut dm);
        write_checkpoint(c, &dm, &[], &dir_a).expect("write");
    });
    execute(2, |c| {
        let mut dm = build_dm(c, &serial);
        set_tags(&mut dm);
        write_checkpoint(c, &dm, &[], &dir_b).expect("write");
    });
    for p in 0..2u32 {
        let a = std::fs::read(pumi_io::format::part_file_path(Path::new(&dir_a), p)).unwrap();
        let b = std::fs::read(pumi_io::format::part_file_path(Path::new(&dir_b), p)).unwrap();
        assert_eq!(a, b, "part {p} bytes differ between identical writes");
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
