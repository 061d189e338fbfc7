//! Common utilities shared by every PUMI/ParMA crate.
//!
//! This crate provides the **Tag** component of the paper's §II "common
//! utilities" (its **Iterator** is `pumi_mesh`'s entity iteration), plus the
//! low-level building blocks the stack rests on:
//!
//! * [`ids`] — packed entity handles (`MeshEnt`) and dimension types,
//! * [`fxhash`] — a fast, deterministic hash map/set used throughout
//!   (implemented in-repo; the default SipHash is too slow for integer keys),
//! * [`inline`] — a small-size-optimized vector for upward adjacency lists,
//! * [`tag`] — attach arbitrary user data to arbitrary entities,
//! * [`stats`] — timers, counters, and imbalance statistics (the paper's
//!   "performance measurement: run-time and memory usage counter"),
//! * [`knap`] — an exact 0-1 knapsack solver used by ParMA heavy part
//!   splitting (§III-B).

#![forbid(unsafe_code)]

pub mod fxhash;
pub mod ids;
pub mod inline;
pub mod knap;
pub mod stats;
pub mod tag;

pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{Dim, GlobalId, MeshEnt, PartId, INVALID_ENT};
pub use inline::InlineVec;
pub use stats::{imbalance, Counter, Timer};
pub use tag::{TagData, TagId, TagKind, TagManager, TagRef, TagStash};
