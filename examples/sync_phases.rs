//! Where a halo sync spends its time, from the world report alone.
//!
//! The setting of the benchmark's `halo_sync` workload: a jittered
//! `tet_box(14)`, 8 parts on the 4 ranks of a 2 × 2 machine, a depth-2
//! overlap grown through vertices, and a 3-component vertex field. Each
//! step fills the field and runs one `Reduction::Add` sync. After `--steps`
//! syncs the span rows of `pumi_pcu::obs::world_report` (its
//! `reduce_spans` half) are printed: per span path under `field.sync`
//! (`overlap.reduce`, `overlap.bcast` and the exchanges inside them), its
//! self time and its inclusive time in ms per rank-sync. One worker by
//! default, so that no span holds a preempted rank's wait. A line after
//! the table gives the executor's `pcu.parks` and `pcu.handoffs` per rank-sync
//! (`pumi_pcu::obs::reduce_executor`); both read 0 at `--workers 4` or
//! more, where the world is uncapped. The last gives the wall time per
//! sync, fill included, and the idle share of the permits' cores
//! (`phases::print_wall`): `--workers 2` against `--workers 4` shows what
//! the cap costs.
//!
//! Run: `cargo run --release --example sync_phases -- [--steps 400] [--workers 1] [--seed 1]`

use pumi_core::overlap::{Overlap, Reduction};
use pumi_core::{distribute, PartMap};
use pumi_field::{dist_field, Field, FieldShape, FieldSync};
use pumi_meshgen::{jitter, tet_box};
use pumi_partition::partition_mesh;
use pumi_pcu::{execute_opts, MachineModel, WorldOpts};
use pumi_util::Dim;
use std::time::Instant;

mod phases;

const PARTS: usize = 8;

fn main() {
    let arg = |name: &str, default: u64| -> u64 {
        let args: Vec<String> = std::env::args().collect();
        let at = args.iter().position(|a| a == name);
        at.and_then(|i| args.get(i + 1)?.parse().ok())
            .unwrap_or(default)
    };
    let (steps, workers, seed) = (arg("--steps", 400), arg("--workers", 1), arg("--seed", 1));
    let mut serial = tet_box(14, 14, 14, 1.0, 1.0, 1.0);
    jitter(&mut serial, 0.15, seed);
    let machine = MachineModel::new(2, 2);
    let labels = partition_mesh(&serial, PARTS);
    let opts = WorldOpts::default().workers(workers as usize);
    let epoch = Instant::now();
    let report = execute_opts(machine, opts, |c| {
        let mut dm = distribute(c, PartMap::contiguous(PARTS, c.nranks()), &serial, &labels);
        let mut ov = Overlap::from_dist(&dm).with_bridge(Dim::Vertex);
        ov.grow(c, &mut dm, 2);
        let mut fields = dist_field(&dm, &Field::new("u", FieldShape::Linear, 3));
        // Drop the set-up's spans and executor counts.
        let _ = (
            pumi_pcu::obs::reduce_spans(c),
            pumi_pcu::obs::reduce_executor(c),
        );
        let window = phases::timed(epoch, || {
            for _ in 0..steps {
                for (part, f) in dm.parts.iter().zip(&mut fields) {
                    f.fill(&part.mesh, &[1.0, 2.0, 3.0]);
                }
                fields.sync(c, &dm, &ov, Reduction::Add);
            }
        });
        let exec = pumi_pcu::obs::reduce_executor(c);
        (window, pumi_pcu::obs::reduce_spans(c).zip(exec))
    });
    let windows: Vec<_> = report.iter().map(|r| r.0).collect();
    let (spans, exec) = report
        .into_iter()
        .find_map(|r| r.1)
        .expect("rank 0 reduces");
    let per_rank_sync = 1e3 / (4 * steps) as f64;
    println!("{steps} syncs, {workers} worker(s), seed {seed}; ms per rank-sync");
    println!("{:>8} {:>10}  span", "self", "inclusive");
    for s in spans.iter().filter(|s| s.path.starts_with("field.sync")) {
        println!(
            "{:>8.3} {:>10.3}  {}",
            s.self_seconds * per_rank_sync,
            s.total_seconds * per_rank_sync,
            s.path
        );
    }
    println!(
        "executor: {:.2} parks, {:.2} handoffs per rank-sync",
        exec.parks as f64 / (4 * steps) as f64,
        exec.handoffs as f64 / (4 * steps) as f64
    );
    phases::print_wall(&windows, &spans, steps, "sync", workers as usize);
}
