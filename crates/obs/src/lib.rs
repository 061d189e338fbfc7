//! Observability for the PUMI/ParMA reproduction.
//!
//! The paper's performance story (Tables II/III, Figs 5/6/12/13) is told in
//! three currencies: wall time per phase, message traffic per link class, and
//! the per-iteration trajectory of the ParMA balancer. This crate records all
//! three on the rank that produced them; `pumi_pcu::obs::world_report`
//! reduces the first two across ranks into one JSON value, and the ParMA
//! traces are read as plain structs (`pumi_bench::workloads`).
//!
//! Components:
//! * [`mod@span`] — scoped phase timers (`let _g = span!("migrate.pack");`) that
//!   aggregate count + inclusive nanoseconds per slash-joined span path,
//! * [`metrics`] — a per-thread registry of counters and histograms,
//!   plus message-traffic accounting per `(span path, link class)` — the
//!   per-phase extension of PCU's world-total `TrafficCounters`,
//! * [`parma`] — the ParMA iteration recorder: imbalance trajectory,
//!   migration sizes and stop reasons per balancing stage,
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

pub mod json;
pub mod metrics;
pub mod parma;
pub mod span;

pub use json::Json;
pub use span::{SpanGuard, SpanStat};
