//! Field component (§II).
//!
//! Tensor quantities over mesh entities, with the distributed operations a
//! PDE workflow needs:
//!
//! * [`field`] — fields and node distributions (P1/P2 Lagrange, cell
//!   constants),
//! * [`sync`] — one-signature synchronization over the star-forest
//!   overlap: `fields.sync(comm, dm, &overlap, Reduction::Add)` covers
//!   owner→copy pushes, FE assembly accumulation and ghost halos alike,
//! * [`transfer`] — mesh-to-mesh solution transfer (point location +
//!   barycentric interpolation), used after adaptation.

#![forbid(unsafe_code)]

pub mod field;
pub mod sync;
pub mod transfer;

pub use field::{Field, FieldShape};
pub use sync::{dist_field, sync_fields, DistField, FieldSync};
pub use transfer::{barycentric, transfer_linear, Locator};
