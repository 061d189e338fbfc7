//! Where a set-up spends its time, from the world report alone.
//!
//! The setting of the benchmark's `halo_sync` workload: a jittered
//! `tet_box(14)`, 8 parts on the 4 ranks of a 2 × 2 machine. Each rep
//! distributes the mesh and grows a depth-2 overlap through vertices. After
//! `--reps` reps the span rows of `pumi_pcu::obs::world_report` (its
//! `reduce_spans` half) are printed: per span path under `dist`
//! (`dist.build`, `dist.residence`, `dist.stitch` and what runs inside
//! them) and under `overlap.grow`, its self time and its inclusive time in
//! ms per rep, summed over the ranks. One worker by default, so that no
//! span holds a preempted rank's wait. A last line gives the wall time per
//! rep and the idle share of the permits' cores (`phases::print_wall`):
//! `--workers 2` against `--workers 4` shows what the cap costs.
//!
//! Run: `cargo run --release --example grow_phases -- [--reps 8] [--workers 1] [--seed 1]`

use pumi_core::overlap::Overlap;
use pumi_core::{distribute, PartMap};
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
    let (reps, workers, seed) = (arg("--reps", 8), arg("--workers", 1), arg("--seed", 1));
    let mut serial = tet_box(14, 14, 14, 1.0, 1.0, 1.0);
    jitter(&mut serial, 0.15, seed);
    let machine = MachineModel::new(2, 2);
    let labels = partition_mesh(&serial, PARTS);
    let opts = WorldOpts::default().workers(workers as usize);
    let epoch = Instant::now();
    let report = execute_opts(machine, opts, |c| {
        let _ = pumi_pcu::obs::reduce_spans(c); // start from an empty report
        let window = phases::timed(epoch, || {
            for _ in 0..reps {
                let mut dm =
                    distribute(c, PartMap::contiguous(PARTS, c.nranks()), &serial, &labels);
                Overlap::from_dist(&dm)
                    .with_bridge(Dim::Vertex)
                    .grow(c, &mut dm, 2);
            }
        });
        (window, pumi_pcu::obs::reduce_spans(c))
    });
    let windows: Vec<_> = report.iter().map(|r| r.0).collect();
    let spans = report
        .into_iter()
        .find_map(|r| r.1)
        .expect("rank 0 reduces");
    let per_rep = 1e3 / reps as f64;
    println!("{reps} reps, {workers} worker(s), seed {seed}; ms per rep, summed over ranks");
    println!("{:>8} {:>10}  span", "self", "inclusive");
    let shown = |p: &str| p.starts_with("dist") || p.starts_with("overlap.grow");
    for s in spans.iter().filter(|s| shown(&s.path)) {
        println!(
            "{:>8.3} {:>10.3}  {}",
            s.self_seconds * per_rep,
            s.total_seconds * per_rep,
            s.path
        );
    }
    phases::print_wall(&windows, &spans, reps, "rep", workers as usize);
}
