//! §III-B: heavy part splitting versus diffusion on clustered spikes — the
//! printer of `pumi_bench::workloads::heavy_split`.
//!
//! "The greedy iterative diffusive procedure ... is observed to not meet a
//! target imbalance tolerance when the input partition is large and has
//! multiple parts with the imbalance spikes neighboring each other."
//!
//! Setup: an adaptation-induced imbalance — the wing mesh is partitioned,
//! then refined at the shock with parts frozen, producing a cluster of
//! neighbouring heavy parts along the shock front (the Fig 13 state). Two
//! repair strategies are compared from identical inputs:
//!   (a) diffusion only (`improve` on elements),
//!   (b) heavy part splitting followed by diffusion.
//!
//! Usage: `heavy_split [--small]`

use pumi_bench::workloads::{heavy_split, no_inspect, HeavySplitParams, Repair};

/// Iterations and stop reason of the (single-stage) diffusion.
fn diffusion_end(r: &Repair) -> String {
    let s = &r.report.types[0];
    format!("{} iters, {}", s.iters.len(), s.stop.name())
}

fn main() {
    let p = pumi_bench::scale_arg(
        "heavy_split",
        HeavySplitParams::paper,
        HeavySplitParams::small,
    );
    let r = heavy_split(p, &no_inspect);
    eprintln!(
        "adapted mesh: {} tets on {} parts (shock-front spike cluster)",
        r.elements, p.nparts
    );
    let (d, s) = (&r.diffusion, &r.split_diffusion);
    println!("strategy            before      after     time  diffusion ended");
    println!(
        "diffusion only     {:7.1}%  {:8.1}%  {:6.2}s  {}",
        d.before_pct,
        d.after_pct,
        d.seconds,
        diffusion_end(d)
    );
    println!(
        "split + diffusion  {:7.1}%  {:8.1}%  {:6.2}s  {}",
        s.before_pct,
        s.after_pct,
        s.seconds,
        diffusion_end(s)
    );
    println!();
    println!(
        "check: splitting reaches {:.1}% where diffusion alone stalls at {:.1}% \
         (paper: diffusion misses the tolerance on clustered spikes; splitting fixes it)",
        s.after_pct, d.after_pct
    );
}
