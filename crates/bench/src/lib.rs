//! Paper tables and figures, plus two at-scale legs pending
//! `benchmark --scale large`.
//!
//! Seven binaries in `src/bin/` regenerate a table or figure of the paper
//! (`table2_balance`, `fig12_series`, `fig13_histogram`, `heavy_split`,
//! `mira_local_split`, `ablation_parma`, `hybrid_comm`; EXPERIMENTS.md is
//! the index). Two more, `pcu_weak_scaling` and `checkpoint_service`, are
//! not paper artifacts: they stay only because `benchmark/` cannot yet run
//! their inputs (the 1024-rank all-to-all, the 10^7-element serve) and go
//! when it can. Performance numbers come from `benchmark/`, not from here.
//!
//! This library holds the common scaffolding: scaled workload
//! construction, distribution helpers, and table formatting. Scale factors
//! versus the paper are documented in EXPERIMENTS.md and chosen so each
//! binary completes in minutes on a laptop while preserving the per-part
//! statistics that drive the phenomena (a few hundred to a few thousand
//! elements per part, as in the paper's runs).

pub mod report;
pub mod workloads;
