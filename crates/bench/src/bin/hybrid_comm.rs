//! §II-D: hybrid multi-threaded/MPI communication, "tested using up to 32
//! communicating threads in a single node of a Blue Gene/Q", and the
//! architecture-aware boundary split of Figs 5/6 — the printer of
//! `pumi_bench::workloads::hybrid_comm`.
//!
//! Three sweeps:
//! 1. PCU phased exchange with 1..=32 communicating ranks on one node —
//!    functional scaling of the inter-thread message path (the paper's
//!    claim is functional, not a speedup number).
//! 2. The same mesh distributed on a flat machine (every part its own node)
//!    vs a two-level machine (8 cores per node): the off-node share of
//!    boundary entities and of exchanged bytes drops — the motivation for
//!    architecture-aware partitioning.
//! 3. Hybrid node-then-core partitioning against a machine-oblivious
//!    numbering of the same number of parts.
//!
//! Usage: `hybrid_comm [--small]`

use pumi_bench::report::{f, print_table, Table};
use pumi_bench::workloads::{hybrid_comm, no_inspect, HybridParams, CORES_PER_NODE};

fn main() {
    let p = pumi_bench::scale_arg("hybrid_comm", HybridParams::paper, HybridParams::small);
    let r = hybrid_comm(p, &no_inspect);

    let mut t = Table::new(
        "Hybrid comm: PCU phased neighbour exchange, 1 node, T threads",
        &["threads", "rounds", "msgs", "bytes", "time (ms)"],
    );
    for row in &r.ring {
        t.row(vec![
            row.threads.to_string(),
            row.rounds.to_string(),
            row.traffic.total_msgs().to_string(),
            row.traffic.total_bytes().to_string(),
            f(row.seconds * 1e3, 1),
        ]);
    }
    print_table(&t);
    println!();

    let mut t2 = Table::new(
        &format!(
            "Architecture-aware boundaries: {} tets, {} parts (Figs 5/6)",
            r.elements, p.nparts
        ),
        &[
            "machine",
            "on-node bnd",
            "off-node bnd",
            "off-node share",
            "off-node bytes (1 sync)",
            "mesh mem (KiB)",
        ],
    );
    for m in &r.machines {
        t2.row(vec![
            m.name.to_string(),
            m.on_node.to_string(),
            m.off_node.to_string(),
            f(m.off_node_share() * 100.0, 1) + "%",
            m.sync_off_node_bytes.to_string(),
            (m.mesh_bytes / 1024).to_string(),
        ]);
    }
    print_table(&t2);
    println!();
    println!(
        "check: the two-level machine turns part boundaries between co-resident parts \
         into on-node (implicit, shared-memory) boundaries, cutting off-node traffic"
    );
    println!();

    let mut t3 = Table::new(
        &format!(
            "Hybrid partitioning: {} nodes x {CORES_PER_NODE} cores",
            p.nparts / CORES_PER_NODE
        ),
        &["partition", "off-node vtx share"],
    );
    t3.row(vec![
        "machine-oblivious flat".to_string(),
        f(r.oblivious_vtx_share * 100.0, 1) + "%",
    ]);
    t3.row(vec![
        "two-level (node, then core)".to_string(),
        f(r.hybrid_vtx_share * 100.0, 1) + "%",
    ]);
    print_table(&t3);
    println!();
    println!(
        "check: partitioning node-first keeps most cut surface between co-resident \
         parts — the paper's motivation for hybrid partitioning"
    );
}
