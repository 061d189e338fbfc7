//! Mesh adaptation — the workload that motivates PUMI's dynamic mesh
//! updates and ParMA's predictive balancing (§I, Figs 7/8/13).
//!
//! * [`sizefield`] — target-size fields, including the oblique-shock layer
//!   of the ONERA M6 experiment,
//! * [`refine()`] — conforming edge-split refinement with boundary snapping
//!   and tag inheritance,
//! * [`coarsen()`] — safety-checked edge-collapse coarsening,
//! * [`quality`] — mean-ratio element quality,
//! * [`snap`] — geometry projection for new/welded boundary vertices,
//! * [`predict`] — predictive post-adaptation load estimation with
//!   per-branch empirical calibration (§III-B),
//! * [`dist`] — distributed adaptation on a [`pumi_core::DistMesh`] with
//!   boundary-consistent splits ([`adapt_dist`]): the same split and
//!   collapse sweeps [`refine()`] and [`coarsen()`] run, hosted by a part
//!   that adds the part-boundary bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coarsen;
pub mod dist;
mod host;
pub mod predict;
pub mod quality;
pub mod refine;
pub mod sizefield;
pub mod snap;

pub use coarsen::{coarsen, CoarsenOpts, CoarsenStats};
pub use dist::{
    adapt_dist, adapt_dist_with_field, gather_branch_loads, stamp_weights, AdaptOpts, AdaptStats,
};
pub use predict::{
    classify, element_weight, predicted_loads, predicted_total, prediction_error_pct, Branch,
    Calibration, Sample, BRANCH_TAG, WEIGHT_TAG,
};
pub use quality::{mean_ratio, measure, quality_stats};
pub use refine::{refine, split_edge, RefineOpts, RefineStats};
pub use sizefield::SizeField;
