//! Checkpoint/restart: write a ParMA-improved partition to disk, then
//! restore it on different rank counts.
//!
//! Generates a tet mesh, partitions it to 6 parts on 3 simulated ranks,
//! improves the balance with ParMA, checkpoints to a `.pmb` directory, and
//! restores the checkpoint twice — merging onto 2 ranks and splitting onto
//! 8 — verifying the mesh and comparing structural hashes each time.
//!
//! Run: `cargo run --release --example checkpoint_restart`

use parma::{improve, ImproveOpts, Priority};
use pumi_check::{check_dist, CheckOpts};
use pumi_core::{distribute, PartMap};
use pumi_field::{DistField, Field, FieldShape};
use pumi_io::{read_checkpoint, struct_hash, write_checkpoint};
use pumi_meshgen::tet_box;
use pumi_partition::partition_mesh;
use pumi_pcu::execute;
use pumi_util::Dim;

fn main() {
    let serial = tet_box(6, 6, 6, 1.0, 1.0, 1.0);
    let nparts = 6;
    let labels = partition_mesh(&serial, nparts);
    let dir = std::env::temp_dir().join(format!("pumi_ckpt_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Write world: 3 ranks host 6 parts, ParMA improves the partition, and
    // every part serializes itself — the file partition IS the mesh
    // partition.
    let pri: Priority = "Rgn > Vtx".parse().expect("priority");
    let out = execute(3, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, 3), &serial, &labels);
        improve(c, &mut dm, &pri, ImproveOpts::new().tol(0.05));
        check_dist(c, &dm, CheckOpts::all()).expect("valid after ParMA");
        let mut fields: DistField = Vec::new();
        for part in &dm.parts {
            let mut f = Field::new("temp", FieldShape::Linear, 1);
            for v in part.mesh.iter(Dim::Vertex) {
                f.set_scalar(v, part.mesh.coords(v)[0]);
            }
            fields.push(f);
        }
        let stats = write_checkpoint(c, &dm, &[&fields], &dir).expect("write");
        (struct_hash(c, &dm), stats.bytes_global)
    });
    let (want, bytes) = out[0];
    println!("checkpointed {nparts} parts, {bytes} bytes, hash {want:#018x}");

    // Restore A: 6 parts onto 2 ranks — blocks of 3 parts merge per rank.
    let hashes = execute(2, |c| {
        let restored = read_checkpoint(c, &dir).expect("restore on 2");
        check_dist(c, &restored.dm, CheckOpts::all()).expect("valid after merge");
        assert_eq!(restored.fields.len(), 1);
        struct_hash(c, &restored.dm)
    });
    assert!(hashes.iter().all(|&h| h == want));
    println!("restored 6 -> 2 ranks (merge): hash matches, verify clean");

    // Restore B: 6 parts onto 8 ranks — parts split via the local graph
    // partitioner and migrate out.
    let hashes = execute(8, |c| {
        let restored = read_checkpoint(c, &dir).expect("restore on 8");
        check_dist(c, &restored.dm, CheckOpts::all()).expect("valid after split");
        let moved = restored.stats.elements_moved;
        let h = struct_hash(c, &restored.dm);
        (c.rank() == 0).then(|| println!("  split moved {moved} elements"));
        h
    });
    assert!(hashes.iter().all(|&h| h == want));
    println!("restored 6 -> 8 ranks (split): hash matches, verify clean");

    let _ = std::fs::remove_dir_all(&dir);
    println!("checkpoint_restart complete");
}
