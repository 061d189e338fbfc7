//! Serial complete mesh representation (§II).
//!
//! The unstructured mesh is "a boundary representation using the base
//! topological entities of vertex (0D), edge (1D), face (2D), region (3D)
//! and their adjacencies". This crate implements that representation with
//! the one-level adjacency storage of FMDB (refs 9, 10), giving O(1)-in-mesh-size
//! adjacency interrogation (the completeness requirement of ref. 2), geometric
//! classification against a [`pumi_geom::Model`], dynamic modification, and
//! the Iterator/Tag utility components.
//!
//! Modules:
//! * [`topology`] — entity topologies (tri/quad/tet/hex/prism/pyramid) and
//!   their canonical boundary templates,
//! * [`mesh`] — storage, creation (find-or-create), deletion,
//! * [`adjacency`] — any-dimension adjacency queries and closures,
//! * [`classify`] — geometric classification derivation,
//! * [`iterators`] — filtered iteration,
//! * [`memory`] — byte-usage accounting (§II-D's memory counter),
//! * [`verify`] — structural invariant checking.

#![forbid(unsafe_code)]

pub mod adjacency;
pub mod classify;
pub mod iterators;
pub mod memory;
pub mod mesh;
pub mod topology;
pub mod verify;

pub use mesh::{Mesh, NO_GEOM};
pub use topology::Topology;
