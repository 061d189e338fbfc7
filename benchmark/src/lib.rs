//! Whole-stack benchmark of the PUMI/ParMA reproduction.
//!
//! Six workloads, each stressing a known subset of the library's crates,
//! measured from outside: the benchmark times its own calls into public
//! functions. See `README.md` for the metric tables and `BENCHMARK.json`
//! at the repository root for the contract the numbers are judged by.

#![warn(missing_docs)]

pub mod calls;
pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
