//! Delta checkpoints: persist only what changed since the last snapshot.
//!
//! After a full checkpoint, each part can keep a [`pumi_core::DirtyLog`]
//! of mutations (adapt rounds, migrations, field updates).
//! [`write_delta_checkpoint`] drains those logs into
//! `delta_<k:04>/part_*.pmb` files under the base checkpoint directory —
//! ordinary part files with [`FLAG_DELTA`](crate::format::FLAG_DELTA) set,
//! written by the same section encoders as a full snapshot: their
//! Entities/Fields sections carry *only* the dirty entities, plus a
//! Deleted section of per-dimension gid lists and a full Remotes section
//! (boundary links are global state and cheap relative to entities). The
//! manifest's `delta_count` is bumped last, so a crash mid-delta leaves the
//! previous restore point intact.
//!
//! Restore ([`crate::PartRows::read`]) replays deltas on each part's rows
//! *before* any part is built, so a checkpoint with deltas restores onto
//! any rank count exactly like a fresh full snapshot: deletions first, then
//! entity upserts (each record's tags with it), then wholesale remote-link
//! replacement, then field values by gid.

use crate::error::IoError;
use crate::format::{delta_dir, MANIFEST_FILE};
use crate::write::{commit_manifest, write_part_files, WriteStats};
use pumi_core::{DirtyLog, DistMesh};
use pumi_field::DistField;
use pumi_pcu::Comm;
use std::path::Path;

/// Append one delta round to the checkpoint at `dir`, draining every local
/// part's [`DirtyLog`] (tracking continues into a fresh log). Collective;
/// the partition must match the base snapshot (same part ids), and
/// `dm.start_dirty_tracking()` must have been called after the base write.
/// On failure every rank returns an error together and the manifest's
/// delta count is left unchanged, so the checkpoint still restores to the
/// previous round.
pub fn write_delta_checkpoint(
    comm: &Comm,
    dm: &mut DistMesh,
    fields: &[&DistField],
    dir: &Path,
) -> Result<WriteStats, IoError> {
    let _span = pumi_obs::span!("io.write_delta");
    for df in fields {
        assert_eq!(df.len(), dm.parts.len(), "field not aligned with dm.parts");
    }
    for p in &dm.parts {
        assert!(
            p.is_tracking_dirty(),
            "part {}: delta checkpoint without dirty tracking (call start_dirty_tracking after the base write)",
            p.id
        );
    }
    let mut manifest = crate::read::manifest_bcast(comm, dir)?;
    let mut local_err = None;
    let mut logs: Vec<DirtyLog> = Vec::new();
    if manifest.nparts as usize == dm.map.nparts() {
        for p in &mut dm.parts {
            logs.push(p.rotate_dirty_log().expect("tracking checked above"));
        }
    } else {
        local_err = Some(IoError::Manifest {
            path: dir.join(MANIFEST_FILE),
            detail: format!(
                "partition changed since the base snapshot ({} parts now, {} in the file); write a fresh full checkpoint",
                dm.map.nparts(),
                manifest.nparts
            ),
        });
    }
    manifest.delta_count += 1;
    let (bytes_local, parts_written) = write_part_files(
        comm,
        dm,
        fields,
        &delta_dir(dir, manifest.delta_count),
        Some(&logs),
        local_err,
    )?;
    // Commit point: the manifest with the bumped delta count (rank 0).
    let manifest = (comm.rank() == 0).then_some(manifest);
    commit_manifest(comm, dir, manifest, bytes_local, parts_written)
}
