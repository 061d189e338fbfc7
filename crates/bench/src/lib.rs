//! Paper tables and figures, plus two at-scale legs pending
//! `benchmark --scale large`.
//!
//! [`workloads`] holds one function per table or figure of the paper;
//! seven binaries in `src/bin/` print what those functions return
//! (`table2_balance`, `fig12_series`, `fig13_histogram`, `heavy_split`,
//! `mira_local_split`, `ablation_parma`, `hybrid_comm`; EXPERIMENTS.md is
//! the index) and `tests/paper_shapes.rs` asserts their `check:` lines at
//! a reduced scale. Two more binaries, `pcu_weak_scaling` and
//! `checkpoint_service`, are not paper artifacts: they stay only because
//! `benchmark/` cannot yet run their inputs (the 1024-rank all-to-all, the
//! 10^7-element serve) and go when it can. Performance numbers come from
//! `benchmark/`, not from here.
//!
//! Scale factors versus the paper are documented in EXPERIMENTS.md and
//! chosen so each binary completes in seconds on a laptop while preserving
//! the per-part statistics that drive the phenomena (a few hundred to a
//! few thousand elements per part, as in the paper's runs).

#![forbid(unsafe_code)]

pub mod report;
pub mod workloads;

/// The paper binaries' whole command line: nothing selects `paper()`,
/// `--small` selects `small()`. Anything else prints a usage line and exits
/// non-zero.
pub fn scale_arg<P>(bin: &str, paper: fn() -> P, small: fn() -> P) -> P {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => paper(),
        [a] if a == "--small" => small(),
        _ => {
            eprintln!("usage: {bin} [--small]");
            std::process::exit(2);
        }
    }
}
