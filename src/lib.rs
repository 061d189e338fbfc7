//! Umbrella crate for the PUMI/ParMA reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can `use pumi_repro::prelude::*`. See `DESIGN.md` for
//! the system inventory and `EXPERIMENTS.md` for the paper-reproduction map.

#![forbid(unsafe_code)]

pub use parma;
pub use pumi_adapt as adapt;
pub use pumi_check as check;
pub use pumi_core as core;
pub use pumi_field as field;
pub use pumi_geom as geom;
pub use pumi_io as io;
pub use pumi_mesh as mesh;
pub use pumi_meshgen as meshgen;
pub use pumi_obs as obs;
pub use pumi_partition as partition;
pub use pumi_pcu as pcu;
pub use pumi_serve as serve;
pub use pumi_util as util;

/// Commonly used items across the whole stack.
pub mod prelude {
    pub use pumi_util::{Dim, MeshEnt, PartId};
}
