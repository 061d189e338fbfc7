//! Observability for the PUMI/ParMA reproduction.
//!
//! The paper's performance story (Tables II/III, Figs 5/6/13) is told in
//! two currencies: wall time per phase and message traffic per link class.
//! This crate records both on the rank that produced them, and
//! `pumi_pcu::obs::world_report` reduces them across ranks into one JSON
//! value. (The ParMA trajectory of Fig 12 is not recorded here: it is part
//! of the report `parma::improve` returns.)
//!
//! Components:
//! * [`mod@span`] — scoped phase timers (`let _g = span!("migrate.pack");`) that
//!   aggregate count + inclusive nanoseconds per slash-joined span path,
//! * [`metrics`] — a per-thread registry of counters and histograms,
//!   plus message-traffic accounting per `(span path, link class)` — the
//!   per-phase extension of PCU's world-total `TrafficCounters`,
//! * [`json`] — a dependency-free JSON value with a pretty renderer.
//!
//! # Threading model
//!
//! One simulated rank is one OS thread, so *all* state here is thread-local:
//! recording never takes a lock and never syncs with other ranks. Cross-rank
//! aggregation is a collective concern and lives where the communicator
//! lives (`pumi_pcu::obs`), not here.
//!
//! # Cost
//!
//! Recording is always compiled in. Each thread interns a span path into a
//! slot on its first entry ([`mod@span`]), and every later span drop,
//! traffic record and frame digest indexes that slot: no string compare and
//! no allocation per message (`tests/record_cost.rs` counts the allocator
//! calls).

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod span;

pub use json::Json;
pub use span::{SpanGuard, SpanStat};
