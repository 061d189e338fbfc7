//! PCU — the Parallel Control Utility of this PUMI reproduction (§II, §II-D).
//!
//! The paper's PUMI runs on MPI with an emerging hybrid MPI/thread mode. This
//! crate provides the equivalent substrate as a **simulated message-passing
//! runtime**: N ranks execute as OS threads, and parts communicate *only*
//! through serialized byte messages pushed into one locked mailbox per rank,
//! fenced by shared-memory sense barriers — the same discipline as MPI, so every distributed algorithm above (migration, ghosting, ParMA)
//! exercises true pack/route/unpack code paths.
//!
//! Components:
//! * [`comm`] — the world executor ([`comm::execute`], and
//!   [`comm::execute_opts`] whose [`comm::WorldOpts`]/`PUMI_PCU_WORKERS`
//!   multiplex R ranks onto W worker permits for wide worlds) and the
//!   per-rank [`comm::Comm`] handle over locked per-rank mailboxes. Ranks
//!   talk only through the phased exchange and the collectives below; there
//!   is no user-facing point-to-point send or receive,
//! * [`collectives`] — barrier, broadcast, gathers, reductions,
//! * [`phased`] — PCU-style phased neighbour exchange (pack per destination,
//!   send each buffer straight to its destination rank, iterate received
//!   buffers), ended by one shared-memory barrier,
//! * [`machine`] — the architecture model: rank ↔ (node, core) mapping and
//!   on-node vs off-node link classification (Figs 5/6),
//! * [`msg`] — typed little-endian message writers/readers over [`bytes`],
//!   with fallible `try_get_*` reads (returning [`MsgError`]) for
//!   deserialization layers and panicking `get_*` wrappers for short frames,
//! * [`obs`] — cross-rank reduction of `pumi-obs` span timings and
//!   per-phase traffic to rank 0 (the world view benches report),
//! * [`sched`] — the seeded chaos scheduler (`PUMI_PCU_SCHED=chaos:<seed>`)
//!   that shuffles frame delivery order in phased exchanges to flush out
//!   order-dependence bugs while staying reproducible per seed.
//!
//! Determinism: given the same inputs, all collectives reduce in rank order
//! and exchanges deliver frames in a canonical order (or a seeded
//! permutation of it), so distributed results are bitwise reproducible
//! across runs — and must agree across chaos seeds.

#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod machine;
pub mod msg;
pub mod obs;
pub mod phased;
mod runtime;
pub mod sched;

pub use comm::{execute, execute_opts, Comm, WorldOpts};
pub use machine::{LinkClass, MachineModel, TrafficReport};
pub use msg::{MsgError, MsgReader, MsgWriter, SectionSink};
pub use phased::{Exchange, Received};
pub use sched::{ChaosRng, SchedMode};
