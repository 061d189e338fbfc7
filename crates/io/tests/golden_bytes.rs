//! Golden bytes: the `.pmb` files a fixed job writes must never change.
//!
//! A 2-part `tri_rect` mesh with one tag and one field is written as a
//! base snapshot plus one delta round, and every file is pinned by its
//! FNV-1a hash, so a refactor that moves a byte on disk fails here. The
//! values were re-pinned once, for format version 3: the Entities section
//! became a stream of `wire::put_entity` records with the tags inline, the
//! Tags section went, and the part header lost its 8 reserved bytes. Files
//! of versions 1 and 2 are refused by name, not restored.

use pumi_core::{distribute, PartMap};
use pumi_field::{DistField, Field, FieldShape};
use pumi_io::{write_checkpoint, write_delta_checkpoint};
use pumi_meshgen::tri_rect;
use pumi_partition::partition_mesh;
use pumi_pcu::execute;
use pumi_util::tag::TagKind;
use pumi_util::Dim;
use std::path::Path;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn file_hashes(dir: &Path, names: &[&str]) -> Vec<(String, u64)> {
    names
        .iter()
        .map(|n| {
            let data = std::fs::read(dir.join(n)).unwrap_or_else(|e| panic!("read {n}: {e}"));
            (n.to_string(), fnv(&data))
        })
        .collect()
}

#[test]
fn checkpoint_files_are_byte_stable() {
    let dir = std::env::temp_dir().join(format!("pumi_io_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serial = tri_rect(8, 6, 1.0, 1.0);
    let hashes = execute(2, |c| {
        let labels = partition_mesh(&serial, 2);
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        let mut fields: DistField = Vec::new();
        for part in &mut dm.parts {
            let tid = part.mesh.tags_mut().declare("g:half", TagKind::Double, 1);
            let elems: Vec<_> = part.mesh.iter(Dim::Face).collect();
            for e in elems {
                let g = part.gid_of(e) as f64;
                part.mesh.tags_mut().set_dbl(tid, e, g * 0.5);
            }
            let mut f = Field::new("temp", FieldShape::Linear, 2);
            for v in part.mesh.iter(Dim::Vertex) {
                let x = part.mesh.coords(v);
                f.set(v, &[x[0] + x[1], x[0] - x[1]]);
            }
            fields.push(f);
        }
        write_checkpoint(c, &dm, &[&fields], &dir).expect("base write");
        c.barrier();
        let base = file_hashes(&dir, &["manifest.pmb", "part_00000.pmb", "part_00001.pmb"]);
        c.barrier();

        dm.start_dirty_tracking();
        for (part, f) in dm.parts.iter_mut().zip(fields.iter_mut()) {
            let vs: Vec<_> = part.mesh.iter(Dim::Vertex).step_by(5).collect();
            for v in vs {
                let mut x = part.mesh.coords(v);
                x[2] += 0.125;
                part.mesh.set_coords(v, x);
                f.set(v, &[x[0] + x[2], x[1] - x[2]]);
                part.mark_dirty(v);
            }
        }
        write_delta_checkpoint(c, &mut dm, &[&fields], &dir).expect("delta write");
        c.barrier();
        let delta = file_hashes(
            &dir,
            &[
                "manifest.pmb",
                "delta_0001/part_00000.pmb",
                "delta_0001/part_00001.pmb",
            ],
        );
        (base, delta)
    });
    let (base, delta) = hashes[0].clone();
    let got: Vec<(String, u64)> = base.into_iter().chain(delta).collect();
    let want: [(&str, u64); 6] = [
        ("manifest.pmb", 0x3026D1F23265D871),
        ("part_00000.pmb", 0x4CB51CCBE392D4EA),
        ("part_00001.pmb", 0x1D7580360BCEF5C1),
        ("manifest.pmb", 0x08CB96DCD114C604),
        ("delta_0001/part_00000.pmb", 0x23ADCBE86C42572D),
        ("delta_0001/part_00001.pmb", 0x0771824835B73823),
    ];
    let shown: Vec<String> = got
        .iter()
        .map(|(n, h)| format!("(\"{n}\", {h:#018x}),"))
        .collect();
    assert!(
        got.iter().map(|(n, h)| (n.as_str(), *h)).eq(want),
        "checkpoint bytes changed on disk; the files now hash to:\n{}",
        shown.join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
