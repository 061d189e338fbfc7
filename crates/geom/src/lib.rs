//! Geometric model (§II).
//!
//! "The geometric model is the high-level (mesh independent) definition of
//! the domain, typically a non-manifold boundary representation. PUMI
//! interacts with the geometric model through a functional interface that
//! supports the ability to interrogate the geometric model for the
//! adjacencies of the model entities and geometric information about the
//! shape of the entities."
//!
//! This crate provides that functional interface:
//! * [`model`] — the boundary-representation topology: model vertices, edges,
//!   faces, regions, their adjacencies, and stable integer tags,
//! * [`shape`] — shape interrogation (closest point, normals, containment)
//!   for the analytic surfaces used by the generated domains,
//! * [`builders`] — ready-made models: 2D rectangle, 3D box, vessel with an
//!   aneurysm bulge (the AAA proxy), swept wedge wing (the ONERA M6 proxy).
//!
//! Mesh entities reference model entities through [`GeomEnt`] handles — the
//! *geometric classification* that "is central to the ability to support
//! automated, adaptive simulations".

#![forbid(unsafe_code)]

pub mod builders;
pub mod model;
pub mod shape;

pub use model::{GeomEnt, Model};
pub use shape::Shape;
