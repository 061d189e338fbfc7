//! ParMA — Partitioning using Mesh Adjacencies (§III).
//!
//! "ParMA, partitioning using mesh adjacencies, provides fast partitioning
//! procedures for adaptive simulation workflows that work independently of,
//! or in conjunction with, the graph/hypergraph-based procedures. ParMA
//! procedures use constant time mesh adjacency queries provided by a
//! complete mesh representation, and partition model information, to
//! determine how much load must be migrated, the migration schedule, and
//! which elements need to be migrated to satisfy that load."
//!
//! The two procedures of the paper:
//! * [`improve()`] — multi-criteria greedy diffusive partition improvement
//!   (§III-A; Tables I–III, Fig 12), built from [`balance`] accounting,
//!   [`priority`] lists, [`candidates`]/scheduling, and the Fig 9/10/Zhou
//!   [`select`] rules;
//! * [`heavy_part_split`] — knapsack merges + maximal-independent-set
//!   conflict resolution + heavy part splitting (§III-B).
//!
//! Both can run *topology-aware* by threading a [`TopologyOpts`] through
//! [`ImproveOpts`] (see [`topo`]): diffusion then prefers on-node
//! candidates and gates migrations that create off-node boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod candidates;
pub mod improve;
pub mod mis;
pub mod priority;
pub mod select;
pub mod split;
pub mod topo;

pub use balance::EntityLoads;
pub use improve::{
    improve, improve_above, improve_weighted, ImproveOpts, ImproveReport, IterSample, StopReason,
    TypeReport,
};
pub use priority::Priority;
pub use select::{HarmGuard, SelectRequest, Selector, TopoGate};
pub use split::{heavy_part_split, SplitReport};
pub use topo::{off_node_boundary, BoundarySplit, TopologyOpts};
