//! §II-D: hybrid multi-threaded/MPI communication, "tested using up to 32
//! communicating threads in a single node of a Blue Gene/Q", and the
//! architecture-aware boundary split of Figs 5/6.
//!
//! Two sweeps:
//! 1. PCU phased exchange with 1..=32 communicating ranks on one node —
//!    functional scaling of the inter-thread message path (the paper's
//!    claim is functional, not a speedup number).
//! 2. The same mesh distributed on a flat machine (every part its own node)
//!    vs a two-level machine (8 cores per node): the off-node share of
//!    boundary entities and of exchanged bytes drops — the motivation for
//!    architecture-aware partitioning.
//!
//! Usage: `hybrid_comm [--n N] [--parts N]`

use pumi_bench::report::{f, print_table, table_to_json, write_report, Table};
use pumi_bench::workloads::aaa_mesh;
use pumi_core::twolevel::boundary_traffic_split;
use pumi_core::{distribute, PartExchange, PartMap};
use pumi_obs::json::Json;
use pumi_obs::report::Report;
use pumi_partition::partition_mesh;
use pumi_pcu::phased::Exchange;
use pumi_pcu::{execute_on, MachineModel};
use pumi_util::stats::Timer;

fn main() {
    let mut n = 10usize; // vessel nr; nz = 4n
    let mut nparts = 16usize;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < args.len() {
        let v = &args[i + 1];
        match args[i].as_str() {
            "--n" => n = v.parse().unwrap(),
            "--parts" => nparts = v.parse().unwrap(),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }

    // ---- Sweep 1: up to 32 communicating threads on one node ----
    let mut t = Table::new(
        "Hybrid comm: PCU phased neighbour exchange, 1 node, T threads",
        &["threads", "rounds", "msgs", "bytes", "time (ms)"],
    );
    for threads in [1usize, 2, 4, 8, 16, 32] {
        let machine = MachineModel::new(1, threads);
        let rounds = 64usize;
        let payload = 4096usize;
        let out = execute_on(machine, |c| {
            c.reset_traffic();
            c.barrier();
            let timer = Timer::start();
            for _ in 0..rounds {
                let mut ex = Exchange::new(c);
                // Ring neighbours exchange payloads.
                let next = (c.rank() + 1) % c.nranks();
                let prev = (c.rank() + c.nranks() - 1) % c.nranks();
                if next != c.rank() {
                    ex.to(next).put_bytes(&vec![1u8; payload]);
                    ex.to(prev).put_bytes(&vec![2u8; payload]);
                }
                let got = ex.finish();
                if c.nranks() > 1 {
                    assert!(!got.is_empty());
                }
            }
            c.barrier();
            let secs = timer.seconds();
            (c.rank() == 0).then(|| (c.traffic(), secs))
        });
        let (traffic, secs) = out.into_iter().flatten().next().unwrap();
        t.row(vec![
            threads.to_string(),
            rounds.to_string(),
            traffic.total_msgs().to_string(),
            traffic.total_bytes().to_string(),
            f(secs * 1e3, 1),
        ]);
    }
    print_table(&t);
    println!();

    // ---- Sweep 2: flat vs two-level distribution of a real mesh ----
    let serial = aaa_mesh(n, 4 * n);
    let labels = partition_mesh(&serial, nparts);
    let mut t2 = Table::new(
        &format!(
            "Architecture-aware boundaries: {} tets, {} parts (Figs 5/6)",
            serial.num_elems(),
            nparts
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
    let mut machine_obs: Vec<Json> = Vec::new();
    for (name, machine) in [
        ("flat (1 core/node)", MachineModel::new(nparts, 1)),
        ("2-level (8 cores/node)", MachineModel::new(nparts / 8, 8)),
    ] {
        let out = execute_on(machine, |c| {
            let dm = distribute(c, PartMap::contiguous(nparts, nparts), &serial, &labels);
            let split = boundary_traffic_split(&dm, machine);
            // §II-D: an on-node boundary entity "exists implicitly in shared
            // memory"; the bytes our explicit copies spend on them is the
            // saving a shared-memory part representation would realize.
            let mem_total = dm
                .parts
                .iter()
                .map(|p| p.mesh.memory_usage().total() as u64)
                .sum::<u64>();
            let mem_total = c.allreduce_sum_u64(mem_total);
            // One boundary synchronization round: every part sends one u64
            // per shared entity copy to its holder.
            c.barrier();
            c.reset_traffic();
            let mut ex = PartExchange::new(c, &dm.map);
            for part in &dm.parts {
                for (e, remotes) in part.shared_entities() {
                    for &(q, ridx) in remotes {
                        let w = ex.to(part.id, q);
                        w.put_u32(ridx);
                        w.put_u64(part.gid_of(e));
                    }
                }
            }
            let _ = ex.finish();
            c.barrier();
            let obs = pumi_pcu::obs::world_report(c);
            (c.rank() == 0).then(|| (split, c.traffic(), mem_total, obs))
        });
        let (split, traffic, mem_total, obs) = out.into_iter().flatten().next().unwrap();
        machine_obs.push(Json::obj([
            ("machine", Json::str(name)),
            ("obs", obs.unwrap_or(Json::Null)),
        ]));
        let on = split.on_node_total();
        let off = split.off_node_total();
        t2.row(vec![
            name.to_string(),
            on.to_string(),
            off.to_string(),
            f(off as f64 / (on + off).max(1) as f64 * 100.0, 1) + "%",
            traffic.off_node_bytes.to_string(),
            (mem_total / 1024).to_string(),
        ]);
    }
    print_table(&t2);
    println!();
    println!(
        "check: the two-level machine turns part boundaries between co-resident parts \
         into on-node (implicit, shared-memory) boundaries, cutting off-node traffic"
    );
    println!();

    // ---- Sweep 3: hybrid node-then-core partitioning (§II-D) ----
    // "first partitioning a mesh into nodes and subsequently to the cores
    // on the nodes" — compared against a machine-oblivious assignment of
    // the same number of parts (part ids permuted, as a partitioner with no
    // machine knowledge would produce).
    use pumi_partition::{off_node_share, partition_mesh_hier, HierOpts};
    use pumi_util::{Dim, PartId};
    let nodes = nparts / 8;
    let cores = 8;
    let hybrid = partition_mesh_hier(
        &serial,
        nparts,
        &MachineModel::new(nodes, cores),
        HierOpts::default(),
    );
    let oblivious: Vec<PartId> = labels
        .iter()
        .map(|&p| (p * 7 + 3) % nparts as PartId)
        .collect();
    let mut t3 = Table::new(
        &format!("Hybrid partitioning: {nodes} nodes x {cores} cores"),
        &["partition", "off-node vtx share"],
    );
    t3.row(vec![
        "machine-oblivious flat".to_string(),
        f(
            off_node_share(&serial, &oblivious, cores, Dim::Vertex) * 100.0,
            1,
        ) + "%",
    ]);
    t3.row(vec![
        "two-level (node, then core)".to_string(),
        f(
            off_node_share(&serial, &hybrid, cores, Dim::Vertex) * 100.0,
            1,
        ) + "%",
    ]);
    print_table(&t3);
    println!();
    println!(
        "check: partitioning node-first keeps most cut surface between co-resident \
         parts — the paper's motivation for hybrid partitioning"
    );

    let mut report = Report::new("hybrid_comm");
    report.section(
        "config",
        Json::obj([
            ("n", Json::U64(n as u64)),
            ("parts", Json::U64(nparts as u64)),
            ("elements", Json::U64(serial.num_elems() as u64)),
        ]),
    );
    report.section("machines", Json::arr(machine_obs));
    report.section(
        "tables",
        Json::arr([table_to_json(&t), table_to_json(&t2), table_to_json(&t3)]),
    );
    write_report(&report);
}
