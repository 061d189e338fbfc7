//! # pumi-io: partitioned mesh checkpoint/restart
//!
//! A versioned binary format (`.pmb`) and parallel writer/reader for
//! distributed meshes, following the PUMI philosophy that the file
//! partition *is* the mesh partition: each part serializes to its own
//! file, and a small manifest (written by rank 0) records the global
//! shape of the checkpoint.
//!
//! ```text
//! checkpoint-dir/
//!   manifest.pmb       nparts, elem_dim, owned counts, field descriptors
//!   part_00000.pmb     entities | remotes | tags | fields, as LZ4 chunks + CRC-32s
//!   part_00001.pmb
//!   ...
//!   delta_0001/        one part file per part: what changed since, + deleted
//! ```
//!
//! There is one format ([`mod@format`]), one set of section encoders
//! ([`mod@write`], which [`delta`] reuses with a dirty-entity filter) and one
//! part loader ([`mod@load`]: a file part decodes into rows, and each
//! restored part is built once from the rows it needs) that both the
//! collective reader and the `pumi-serve` slice service drive through a
//! [`SectionSource`].
//!
//! The reader restores an N-part checkpoint onto **any** M ranks, and
//! every rank builds its own part: the union of its block of file parts
//! when N ≥ M, its piece of one file part, cut along a Morton curve, when
//! N < M ([`slice_of`]). No element moves; remote-copy links are rebuilt
//! from global ids with one phased exchange. Corruption anywhere — a
//! flipped bit, a truncated file, a damaged header — surfaces as a typed
//! [`IoError`] naming the part and section, never a panic.
//!
//! Write and read are collective; `io.write` / `io.read` (with `io.rows`,
//! `io.build` and `io.link` under it) spans and byte counters thread
//! through `pumi-obs`.

#![warn(missing_docs)]

pub mod chunk;
pub mod crc;
pub mod delta;
pub mod error;
pub mod format;
pub mod hash;
pub mod load;
pub mod read;
pub mod write;

/// Tag-name prefix for internal staging tags (field values ride as tags
/// from the build to the field recovery of a restore). Never written to
/// disk.
pub(crate) const FIELD_TAG_PREFIX: &str = "__io:f:";

/// Name of the staging tag that carries field `name`'s node values during
/// restore. [`build_part`] leaves field data under this tag; `pumi-serve`
/// and the collective reader both recover fields from it.
pub fn staged_field_tag(name: &str) -> String {
    format!("{FIELD_TAG_PREFIX}{name}")
}

pub use delta::write_delta_checkpoint;
pub use error::{IoError, Section};
pub use format::{FieldDesc, Manifest, PartFile, FORMAT_VERSION, MANIFEST_FILE};
pub use hash::struct_hash;
pub use load::{build_part, Built, DirSource, PartRows, Pick, SectionSource};
pub use read::{balanced_block, read_checkpoint, slice_of, ReadStats, Restored};
pub use write::{write_checkpoint, write_checkpoint_with, WriteOpts, WriteStats};
