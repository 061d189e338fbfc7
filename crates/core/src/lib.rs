//! PUMI core: the distributed mesh (§II).
//!
//! The paper's primary contribution — "a parallel infrastructure with a
//! general unstructured mesh representation and various operations needed
//! for interacting with meshes on massively parallel computers" — lives
//! here, on top of the serial mesh (`pumi-mesh`), the geometric model
//! (`pumi-geom`) and the message-passing substrate (`pumi-pcu`):
//!
//! * [`part`] — parts, global ids, remote copies, residence sets, ownership
//!   (§II-A/B),
//! * [`dist`] — part↔rank maps (multiple parts per process), part-addressed
//!   exchange, bootstrap distribution,
//! * [`ptnmodel`] — the partition model: partition entities `P^d_i`,
//!   partition classification, neighbour queries (§II-C, Figs 3/4),
//! * [`migrate()`] — mesh migration (§II-C): move element closures between
//!   parts, rebuilding residence, remote copies and ownership,
//! * [`overlap`] — the star-forest of entity shares: arbitrary-depth
//!   ghost growth, root→leaf `bcast`, leaf→root `reduce` (§II-C),
//! * [`numbering`] — parallel-consistent global numbering of owned entities,
//! * [`twolevel`] — two-level architecture-aware partitioning support:
//!   on-node vs off-node part boundaries (§II-D, Figs 5/6),
//! * [`rows`] — entities from rows: the row block and the one builder
//!   ([`Part::build`]) that `distribute`, `migrate`, overlap growth and
//!   checkpoint restore create entities through,
//! * [`wire`] — the entity transport under all of the above: the link row
//!   and entity record codecs, and the one remote-link [`wire::stitch`]
//!   that `distribute`, `migrate`, adaptation and restore all call.

#![forbid(unsafe_code)]

pub mod dist;
pub mod migrate;
pub mod numbering;
pub mod overlap;
pub mod part;
pub mod ptnmodel;
pub mod rows;
pub mod twolevel;
pub mod wire;

pub use dist::{distribute, DistMesh, PartExchange, PartMap};
pub use migrate::{migrate, MigrationPlan};
pub use overlap::{clear_overlap, Overlap, Reduction, Scope, Share};
pub use part::{content_gid, DirtyLog, Part, NO_GID};
pub use ptnmodel::PtnModel;
pub use rows::{Placed, RowError, Rows};
