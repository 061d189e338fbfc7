//! Common utilities shared by every PUMI/ParMA crate.
//!
//! This crate provides the three "common utility" components the paper calls
//! out in §II — **Iterator**, **Set**, and **Tag** — plus the low-level
//! building blocks they rest on:
//!
//! * [`ids`] — packed entity handles (`MeshEnt`) and dimension types,
//! * [`fxhash`] — a fast, deterministic hash map/set used throughout
//!   (implemented in-repo; the default SipHash is too slow for integer keys),
//! * [`inline`] — a small-size-optimized vector for upward adjacency lists,
//! * [`tag`] — attach arbitrary user data to arbitrary entities,
//! * [`set`] — group arbitrary entities with common set requirements,
//! * [`stats`] — timers, counters, and imbalance statistics (the paper's
//!   "performance measurement: run-time and memory usage counter"),
//! * [`knap`] — an exact 0-1 knapsack solver used by ParMA heavy part
//!   splitting (§III-B).

pub mod fxhash;
pub mod ids;
pub mod inline;
pub mod knap;
pub mod set;
pub mod stats;
pub mod tag;

pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{Dim, GlobalId, MeshEnt, PartId, INVALID_ENT};
pub use inline::InlineVec;
pub use set::EntSet;
pub use stats::{imbalance, Counter, Timer};
pub use tag::{TagData, TagId, TagKind, TagManager, TagStash};
