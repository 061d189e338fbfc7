//! Fig 12: normalized per-part vertex (a) and edge (b) counts before and
//! after ParMA test T2 (`Vtx = Edge > Rgn`) — the printer of
//! `pumi_bench::workloads::fig12`.
//!
//! Prints the min/max/imbalance summary of each series — the envelope the
//! paper's scatter plots show tightening from [0.5, 1.3] to ~[0.7, 1.05] —
//! followed by the series themselves as CSV (part, before/avg, after/avg).
//!
//! Usage: `fig12_series [--small]`

use pumi_bench::report::{print_table, stage_table};
use pumi_bench::workloads::{fig12, no_inspect, AaaScale};
use pumi_util::Dim;

fn main() {
    let scale = pumi_bench::scale_arg("fig12_series", AaaScale::paper, AaaScale::small);
    eprintln!(
        "fig12: {} tets, {} parts, ParMA T2 (Vtx = Edge > Rgn)",
        scale.elements(),
        scale.nparts
    );
    let run = fig12(scale, &no_inspect);
    let dims = [(Dim::Vertex, "vtx"), (Dim::Edge, "edge")];
    for (d, name) in dims {
        let (sb, sa) = (run.before.stats(d), run.after.stats(d));
        println!(
            "fig12 ({name}): before [{:.3}, {:.3}] imb {:.2}%  ->  after [{:.3}, {:.3}] imb {:.2}%",
            sb.min / sb.mean,
            sb.max / sb.mean,
            sb.imbalance_pct(),
            sa.min / sa.mean,
            sa.max / sa.mean,
            sa.imbalance_pct(),
        );
    }
    println!();
    print_table(&stage_table("ParMA stages", &[("T2", &run)]));
    for (d, name) in dims {
        let (b, a) = (run.before.of(d), run.after.of(d));
        let (avg_b, avg_a) = (run.before.avg(d), run.after.avg(d));
        println!();
        println!("# fig12_{name}: part,before_over_avg,after_over_avg");
        for p in 0..b.len() {
            println!("{},{:.6},{:.6}", p, b[p] / avg_b, a[p] / avg_a);
        }
    }
}
