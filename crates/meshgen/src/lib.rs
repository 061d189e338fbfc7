//! Mesh generators for the experiment domains.
//!
//! The paper's meshes come from CAD models plus SCOREC/Simmetrix mesh
//! generation; this crate provides the synthetic equivalents (see DESIGN.md
//! substitution table):
//!
//! * [`boxmesh`] — triangulated rectangles, Kuhn-subdivided tet boxes, and
//!   structured quad/hex meshes (the non-simplex topology paths),
//! * [`vessel`] — the AAA-proxy bulged-tube tet mesh (Tables I–III),
//! * [`wing`] — the ONERA-M6-proxy flow box with its oblique shock plane
//!   (Fig 13),
//! * [`unstructure`] — randomized jitter to break lattice regularity.
//!
//! All generators produce fully classified meshes consistent with the
//! matching `pumi_geom::builders` models and are deterministic.

#![forbid(unsafe_code)]

pub mod boxmesh;
pub mod unstructure;
pub mod vessel;
pub mod wing;

pub use boxmesh::{hex_box, quad_rect, tet_box, tri_rect};
pub use unstructure::jitter;
pub use vessel::vessel_tet;
pub use wing::{shock_plane_distance, wing_tet};
