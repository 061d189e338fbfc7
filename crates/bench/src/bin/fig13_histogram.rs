//! Fig 13: histogram of element imbalance (N_elements / avg) across parts
//! of an adapted ONERA-M6-proxy mesh when **no load balancing is applied
//! before adaptation** — the printer of `pumi_bench::workloads::fig13`.
//!
//! Paper run: 1024-part mesh adapted 46M → 160M elements with a size field
//! from the Mach-number hessian at the shock; peak imbalance > 400%, ~80
//! parts above 20% imbalance, > 120 parts under 50% of the average.
//!
//! Scaled run: the wing-box mesh is partitioned, then refined against the
//! oblique-shock size field with every child staying on its parent's part
//! (tag inheritance); the per-part element counts of the adapted mesh are
//! then histogrammed. The remedy §III-B motivates runs beside it:
//! *predictive* load balancing — partition the initial mesh by estimated
//! post-adaptation element counts, then adapt.
//!
//! Usage: `fig13_histogram [--small]`

use pumi_bench::report::{f, print_table, Table};
use pumi_bench::workloads::{fig13, Fig13Params};
use pumi_util::stats::histogram;

fn main() {
    let p = pumi_bench::scale_arg("fig13_histogram", Fig13Params::paper, Fig13Params::small);
    let nparts = p.nparts;
    let r = fig13(p);
    eprintln!(
        "fig13: initial wing mesh {} tets, {nparts} parts",
        r.initial_elements
    );
    eprintln!(
        "adapted {} -> {} elements ({} splits)",
        r.initial_elements, r.refined.elements_after, r.refined.splits
    );

    // Histogram like Fig 13: bins of imbalance ratio.
    let ratios = r.ratios();
    let max_ratio = ratios.iter().cloned().fold(0.0, f64::max);
    let h = histogram(&ratios, 0.1, (max_ratio * 1.05).max(1.2), 11);
    let mut t = Table::new(
        &format!(
            "Fig 13: element imbalance histogram, {} parts, adapted {} -> {} elements",
            nparts, r.initial_elements, r.refined.elements_after
        ),
        &["ratio (N/avg)", "parts"],
    );
    for (center, count) in &h {
        t.row(vec![f(*center, 2), count.to_string()]);
    }
    print_table(&t);

    // The paper's three headline statistics.
    let peak_pct = r.peak_pct();
    println!();
    println!("peak element imbalance: {peak_pct:.0}%  (paper: >400%)");
    println!(
        "parts with imbalance > 20%: {} of {nparts}  (paper: ~80 of 1024)",
        r.parts_over_20()
    );
    println!(
        "parts under 50% of average: {} of {nparts}  (paper: >120 of 1024)",
        r.parts_under_half()
    );
    println!();
    println!(
        "with predictive load balancing before adaptation: peak imbalance {:.0}%          (vs {peak_pct:.0}% without — the remedy §III-B motivates)",
        r.predictive_peak_pct()
    );
}
