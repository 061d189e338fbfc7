//! Tables I, II and III: ParMA multi-criteria partition improvement on the
//! AAA-proxy mesh — the printer of `pumi_bench::workloads::table2`.
//!
//! Paper setup: 133M-tet abdominal-aortic-aneurysm mesh, Zoltan PHG to
//! 16,384 parts (T0), then ParMA tests T1–T4 on 512 cores with 32 parts per
//! process. Scaled setup: 240k-tet vessel proxy, graph partitioner to 64
//! parts, 4 ranks × 16 parts/process, 5% tolerance.
//!
//! Usage: `table2_balance [--small]`

use pumi_bench::report::{f, print_table, stage_table, Table};
use pumi_bench::workloads::{no_inspect, table2, AaaScale, ParmaRun, TOL};
use pumi_util::Dim;

fn main() {
    let scale = pumi_bench::scale_arg("table2_balance", AaaScale::paper, AaaScale::small);
    eprintln!(
        "generating AAA-proxy mesh: {} tets, {} parts on {} ranks ({} parts/process)",
        scale.elements(),
        scale.nparts,
        scale.nranks,
        scale.nparts / scale.nranks
    );
    let r = table2(scale, &no_inspect);

    let mut t1 = Table::new("Table I: tests and parameters", &["Test", "Method"]);
    for t in &r.tests {
        t1.row(vec![t.name.to_string(), t.method.clone()]);
    }
    print_table(&t1);
    println!();

    let mut t2 = Table::new(
        &format!(
            "Table II: ParMA on a {}-element AAA-proxy mesh, {} parts (imb% vs T0 means)",
            scale.elements(),
            scale.nparts
        ),
        &["row", "T0", "T1", "T2", "T3", "T4"],
    );
    for (d, label) in [
        (Dim::Region, "Rgn"),
        (Dim::Face, "Face"),
        (Dim::Edge, "Edge"),
        (Dim::Vertex, "Vtx"),
    ] {
        let mut mean_row = vec![format!("Mean{label}")];
        let mut imb_row = vec![format!("{label} Imb.%")];
        for (i, t) in r.tests.iter().enumerate() {
            mean_row.push(f(t.stats[d.as_usize()].mean, 0));
            imb_row.push(f(r.imb_pct(i, d), 2));
        }
        t2.row(mean_row);
        t2.row(imb_row);
    }
    let mut bnd_row = vec!["BndCopies".to_string()];
    bnd_row.extend(r.tests.iter().map(|t| t.boundary_copies.to_string()));
    t2.row(bnd_row);
    print_table(&t2);
    println!();

    let mut t3 = Table::new("Table III: time usage", &["Test", "Time (sec.)", "vs T0"]);
    let t0s = r.tests[0].seconds;
    for t in &r.tests {
        t3.row(vec![
            t.name.to_string(),
            f(t.seconds, 2),
            format!("{:.1}x", t0s / t.seconds.max(1e-9)),
        ]);
    }
    print_table(&t3);
    println!();

    let runs: Vec<(&str, &ParmaRun)> = r.tests[1..]
        .iter()
        .map(|t| (t.name, t.run.as_ref().expect("T1-T4 ran ParMA")))
        .collect();
    print_table(&stage_table("ParMA stages", &runs));

    println!();
    println!(
        "check: T1 vertex imbalance {:.2}% -> {:.2}% (target <= {:.1}%)",
        r.imb_pct(0, Dim::Vertex),
        r.imb_pct(1, Dim::Vertex),
        TOL * 100.0 + 1.0
    );
    println!(
        "check: ParMA vs partitioner time: T1 is {:.1}x faster than T0",
        t0s / r.tests[1].seconds.max(1e-9)
    );
    println!(
        "check: boundary entities reduced vs T0 in {}/4 ParMA tests",
        r.boundary_not_grown()
    );
}
