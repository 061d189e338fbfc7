//! §III-A's Mira experiment: local partitioning inflates the peak vertex
//! imbalance; ParMA `Vtx > Rgn` then improves it — the printer of
//! `pumi_bench::workloads::mira_local_split`.
//!
//! Paper run: a 16,384-part mesh locally split ×96 to 1.5M parts for a 3B
//! element PHASTA mesh; peak vertex imbalance rises 9% → 54%, and ParMA
//! improves it by more than 10%.
//!
//! Scaled run: partition the AAA-proxy mesh to `coarse` parts, locally split
//! each part ×`k`, measure the peak vertex imbalance before/after the split,
//! then run ParMA `Vtx > Rgn` on the split partition.
//!
//! Usage: `mira_local_split [--small]`

use pumi_bench::report::{print_table, stage_table};
use pumi_bench::workloads::{mira_local_split, no_inspect, MiraParams};
use pumi_util::Dim;

fn main() {
    let p = pumi_bench::scale_arg("mira_local_split", MiraParams::paper, MiraParams::small);
    let (coarse, k, fine) = (p.coarse, p.k, p.fine().nparts);
    eprintln!(
        "mira: {} tets, {coarse} parts locally split x{k} -> {fine} parts",
        p.fine().elements()
    );
    let r = mira_local_split(p, &no_inspect);
    println!(
        "peak vertex imbalance: coarse ({coarse} parts) = {:.1}%   \
         after local split ({fine} parts) = {:.1}%   (paper: 9% -> 54%)",
        r.coarse_vtx_pct, r.split_vtx_pct
    );
    println!(
        "ParMA Vtx > Rgn: vertex imbalance {:.1}% -> {:.1}% (region {:.1}%), {:.2}s",
        r.run.before.imbalance_pct(Dim::Vertex),
        r.run.after.imbalance_pct(Dim::Vertex),
        r.run.after.imbalance_pct(Dim::Region),
        r.run.report.seconds
    );
    println!(
        "check: improvement = {:.1} percentage points (paper: > 10 points on 1.5M parts)",
        r.gain_points()
    );
    println!();
    print_table(&stage_table("ParMA stages", &[("Vtx > Rgn", &r.run)]));
}
