//! §IV: "the existing MPI-based PUMI demonstrated its effectiveness taking
//! meshes of billions of elements from a few thousand parts to 1.5 million
//! parts ... running on 512K cores".
//!
//! A laptop cannot hold billions of elements, but the *scaling shape* is
//! checkable: with the work per part held constant, the per-part cost of
//! the core operations (migration of a fixed fraction of elements, one
//! ParMA pass, one boundary synchronization) should stay near-flat as the
//! part count grows.
//!
//! Usage: `weak_scaling [--elems-per-part N] [--max-parts N]`

use parma::{improve, ImproveOpts, Priority};
use pumi_bench::report::{f, print_table, table_to_json, write_report, Table};
use pumi_bench::workloads::{aaa_mesh, distribute_labels};
use pumi_core::MigrationPlan;
use pumi_obs::json::Json;
use pumi_obs::report::Report;
use pumi_partition::partition_mesh;
use pumi_util::stats::Timer;
use pumi_util::{FxHashMap, PartId};

fn main() {
    let mut elems_per_part = 1500usize;
    let mut max_parts = 64usize;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < args.len() {
        let v = &args[i + 1];
        match args[i].as_str() {
            "--elems-per-part" => elems_per_part = v.parse().unwrap(),
            "--max-parts" => max_parts = v.parse().unwrap(),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }

    let mut t = Table::new(
        &format!("Weak scaling: ~{elems_per_part} elements/part"),
        &[
            "parts",
            "elements",
            "moved",
            "migrate 5% (ms)",
            "per moved elem (us)",
            "parma pass (ms)",
            "bnd sync (ms)",
        ],
    );
    let mut points: Vec<Json> = Vec::new();
    let mut medians: Vec<Json> = Vec::new();
    let mut parts = 8usize;
    while parts <= max_parts {
        // Size the vessel so elements ≈ parts * elems_per_part.
        let total = parts * elems_per_part;
        // elements = 6 * nr^2 * nz with nz = 4*nr: 24 nr^3.
        let nr = ((total as f64 / 24.0).cbrt().round() as usize).max(3);
        let serial = aaa_mesh(nr, 4 * nr);
        let labels = partition_mesh(&serial, parts);
        let nranks = parts.min(8);
        let out = pumi_pcu::execute(nranks, |c| {
            let mut dm = distribute_labels(c, &serial, &labels, parts);

            // 1. migrate ~5% of each part's elements to a neighbour part.
            c.barrier();
            let timer = Timer::start();
            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            for part in &dm.parts {
                let to = (part.id + 1) % parts as PartId;
                let quota = part.mesh.num_elems() / 20;
                let mut plan = MigrationPlan::new();
                // Prefer boundary elements so the move is local.
                for (s, remotes) in part.shared_entities() {
                    if plan.len() >= quota {
                        break;
                    }
                    if s.dim().as_usize() + 1 != part.mesh.elem_dim() {
                        continue;
                    }
                    if !remotes.iter().any(|&(q, _)| q == to) {
                        continue;
                    }
                    for e in part.mesh.up_ents(s) {
                        plan.send(e, to);
                    }
                }
                plans.insert(part.id, plan);
            }
            let moved = pumi_core::migrate(c, &mut dm, &plans).elements_moved;
            c.barrier();
            let migrate_ms = timer.seconds() * 1e3;

            // 2. one ParMA element-balance pass.
            let timer = Timer::start();
            let pri: Priority = "Rgn".parse().unwrap();
            improve(c, &mut dm, &pri, ImproveOpts::new().max_iters(1));
            c.barrier();
            let parma_ms = timer.seconds() * 1e3;

            // 3. one boundary synchronization round.
            let timer = Timer::start();
            let mut ex = pumi_core::PartExchange::new(c, &dm.map);
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
            let sync_ms = timer.seconds() * 1e3;

            let obs = pumi_pcu::obs::world_report(c);
            (c.rank() == 0).then_some((moved, migrate_ms, parma_ms, sync_ms, obs))
        });
        let (moved, mig, par, sync, obs) = out.into_iter().flatten().next().unwrap();
        // Per *moved* element: the call's cost follows what moves, not what
        // is resident.
        let per_moved_us = mig * 1e3 / moved as f64;
        t.row(vec![
            parts.to_string(),
            serial.num_elems().to_string(),
            moved.to_string(),
            f(mig, 1),
            f(per_moved_us, 2),
            f(par, 1),
            f(sync, 1),
        ]);
        points.push(Json::obj([
            ("parts", Json::U64(parts as u64)),
            ("elements", Json::U64(serial.num_elems() as u64)),
            ("migrate_ms", Json::F64(mig)),
            ("moved", Json::U64(moved)),
            ("per_moved_elem_us", Json::F64(per_moved_us)),
            ("parma_ms", Json::F64(par)),
            ("sync_ms", Json::F64(sync)),
            ("obs", obs.unwrap_or(Json::Null)),
        ]));
        // Same row shape as the criterion benches so bench_snapshot.sh can
        // fold these into BENCH_pcu.json (single timed run per point).
        for (stage, ms) in [("migrate", mig), ("parma", par), ("sync", sync)] {
            medians.push(Json::obj([
                ("bench", Json::str(format!("weak_scaling/{stage}/{parts}"))),
                ("median_ns", Json::U64((ms * 1e6) as u64)),
                ("samples", Json::U64(1)),
            ]));
        }
        parts *= 2;
    }
    print_table(&t);
    let mut report = Report::new("weak_scaling");
    report.section(
        "config",
        Json::obj([
            ("elems_per_part", Json::U64(elems_per_part as u64)),
            ("max_parts", Json::U64(max_parts as u64)),
        ]),
    );
    report.section("points", Json::arr(points));
    report.section("medians", Json::arr(medians));
    report.section("tables", Json::arr([table_to_json(&t)]));
    write_report(&report);
    println!();
    println!(
        "check: cost per moved element stays near-flat as parts grow (the rank count is \
         pinned to the physical cores, so total time scales with total work; the \
         paper ran the same operations out to 1.5M parts on 512K cores)"
    );
}
