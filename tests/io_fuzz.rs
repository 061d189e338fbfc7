//! Fuzzing the one checkpoint loader: any single damaged byte, or any
//! truncation, of a part file, a delta file or the manifest must come back
//! as `Ok` or as a typed [`IoError`] — never a panic, never a hang — through
//! both restore paths: the collective `read_checkpoint` and
//! `pumi_serve::CheckpointServer::restore_slice`.

use proptest::prelude::*;
use pumi_core::{distribute, PartMap};
use pumi_field::{DistField, Field, FieldShape};
use pumi_io::{read_checkpoint, write_checkpoint, write_delta_checkpoint, IoError};
use pumi_meshgen::tri_rect;
use pumi_partition::partition_mesh;
use pumi_pcu::execute;
use pumi_serve::CheckpointServer;
use pumi_util::tag::TagKind;
use pumi_util::Dim;
use std::path::{Path, PathBuf};

/// The files a case can damage, relative to the checkpoint directory.
const TARGETS: [&str; 3] = [
    "part_00001.pmb",
    "delta_0001/part_00000.pmb",
    "manifest.pmb",
];

/// Write a valid 2-part checkpoint (one tag, one field, one delta round)
/// into a fresh scratch directory.
fn write_valid(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pumi_io_fuzz_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serial = tri_rect(8, 6, 1.0, 1.0);
    execute(2, |c| {
        let labels = partition_mesh(&serial, 2);
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        let mut fields: DistField = Vec::new();
        for part in &mut dm.parts {
            let tid = part.mesh.tags_mut().declare("f:gid", TagKind::Double, 1);
            let mut f = Field::new("temp", FieldShape::Linear, 1);
            let vs: Vec<_> = part.mesh.iter(Dim::Vertex).collect();
            for v in vs {
                let g = part.gid_of(v) as f64;
                part.mesh.tags_mut().set_dbl(tid, v, g);
                f.set(v, &[g * 0.25]);
            }
            fields.push(f);
        }
        write_checkpoint(c, &dm, &[&fields], &dir).expect("base write");
        dm.start_dirty_tracking();
        for part in &mut dm.parts {
            let vs: Vec<_> = part.mesh.iter(Dim::Vertex).step_by(4).collect();
            for v in vs {
                let mut x = part.mesh.coords(v);
                x[2] += 0.5;
                part.mesh.set_coords(v, x);
                part.mark_dirty(v);
            }
        }
        write_delta_checkpoint(c, &mut dm, &[&fields], &dir).expect("delta write");
    });
    dir
}

/// Restore `dir` both ways. A panic in either path fails the test by
/// itself; what is checked here is that the collective path stays
/// collective — every rank succeeds or every rank gets an error.
fn restore_both_ways(dir: &Path) -> Result<(), String> {
    let ranks: Vec<Result<(), IoError>> = execute(2, |c| read_checkpoint(c, dir).map(|_| ()));
    if ranks[0].is_ok() != ranks[1].is_ok() {
        return Err(format!("ranks disagree on the outcome: {ranks:?}"));
    }
    if let Ok(server) = CheckpointServer::open(dir) {
        for s in 0..3 {
            let _typed: Result<_, IoError> = server.restore_slice(s, 3);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn damaged_checkpoints_never_panic(
        target in 0usize..TARGETS.len(),
        truncate in 0usize..4,
        at in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let dir = write_valid(&format!("case_{target}_{truncate}_{bit}_{}", (at * 1e9) as u64));
        let path = dir.join(TARGETS[target]);
        let mut data = std::fs::read(&path).expect("read target");
        let i = ((data.len() as f64 * at) as usize).min(data.len() - 1);
        // One case in four cuts the file at `i`; the rest flip one bit there.
        if truncate == 0 {
            data.truncate(i);
        } else {
            data[i] ^= 1 << bit;
        }
        std::fs::write(&path, &data).expect("write damaged target");

        let outcome = restore_both_ways(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(outcome.is_ok(), "{} damaged at byte {i}: {outcome:?}", TARGETS[target]);
    }
}

/// The undamaged checkpoint restores both ways (so the cases above start
/// from a checkpoint that is actually valid).
#[test]
fn valid_checkpoint_restores() {
    let dir = write_valid("valid");
    let ranks = execute(2, |c| read_checkpoint(c, &dir).map(|_| ()));
    assert!(ranks.iter().all(Result::is_ok), "{ranks:?}");
    let server = CheckpointServer::open(&dir).expect("open");
    for s in 0..3 {
        server.restore_slice(s, 3).expect("slice");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
