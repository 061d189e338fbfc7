//! Where a `migrate` call spends its time, from the world report alone.
//!
//! The setting of the benchmark's `migrate_band` workload: a jittered
//! `tet_box(14)`, 8 parts on the 4 ranks of a 2 × 2 machine, and per step
//! every part sends the 5 % of its elements nearest the next part's centre
//! to that part (odd steps: to the previous part). After `--steps` calls
//! the span rows of `pumi_pcu::obs::world_report` (its `reduce_spans`
//! half) are printed: per span path
//! under `migrate`, its self time and its inclusive time in ms per
//! rank-step. One worker by default, so that no span holds a preempted
//! rank's wait.
//!
//! Run: `cargo run --release --example migrate_phases -- [--steps 96] [--workers 1] [--seed 1]`

use pumi_core::{distribute, migrate, DistMesh, MigrationPlan, PartMap};
use pumi_meshgen::{jitter, tet_box};
use pumi_partition::{partition_mesh_hier, HierOpts};
use pumi_pcu::{execute_opts, Comm, MachineModel, WorldOpts};
use pumi_util::{FxHashMap, MeshEnt, PartId};

const PARTS: usize = 8;

/// Every part's plan: the 5 % of its elements whose undistorted centroids
/// lie nearest the centre of part `to(p)`, sent there.
fn band(
    c: &Comm,
    dm: &DistMesh,
    lattice: &[[f64; 3]],
    to: impl Fn(PartId) -> PartId,
) -> FxHashMap<PartId, MigrationPlan> {
    let mut sums = vec![0f64; 4 * PARTS];
    for p in &dm.parts {
        for e in p.mesh.elems() {
            let x = lattice[p.gid_of(e) as usize];
            let s = &mut sums[4 * p.id as usize..][..4];
            (0..3).for_each(|k| s[k] += x[k]);
            s[3] += 1.0;
        }
    }
    let sums = c.allreduce_sum_f64_vec(&sums);
    let mut plans = FxHashMap::default();
    for p in &dm.parts {
        let s = &sums[4 * to(p.id) as usize..][..4];
        let centre = [0, 1, 2].map(|k| s[k] / s[3].max(1.0));
        let mut near: Vec<(f64, u64, MeshEnt)> = (p.mesh.elems())
            .map(|e| {
                let x = lattice[p.gid_of(e) as usize];
                let d2 = (0..3).map(|k| (x[k] - centre[k]).powi(2)).sum();
                (d2, p.gid_of(e), e)
            })
            .collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut plan = MigrationPlan::new();
        let take = (near.len() as f64 * 0.05).round() as usize;
        near.iter()
            .take(take)
            .for_each(|&(_, _, e)| plan.send(e, to(p.id)));
        plans.insert(p.id, plan);
    }
    plans
}

fn main() {
    let arg = |name: &str, default: u64| -> u64 {
        let args: Vec<String> = std::env::args().collect();
        let at = args.iter().position(|a| a == name);
        at.and_then(|i| args.get(i + 1)?.parse().ok())
            .unwrap_or(default)
    };
    let (steps, workers, seed) = (arg("--steps", 96), arg("--workers", 1), arg("--seed", 1));
    let mut serial = tet_box(14, 14, 14, 1.0, 1.0, 1.0);
    let mut lattice = vec![[0.0; 3]; serial.index_space(serial.elem_dim_t())];
    for e in serial.elems() {
        lattice[e.idx()] = serial.centroid(e);
    }
    jitter(&mut serial, 0.15, seed);
    let machine = MachineModel::new(2, 2);
    let labels = partition_mesh_hier(&serial, PARTS, &machine, HierOpts::default());
    let opts = WorldOpts::default().workers(workers as usize);
    let report = execute_opts(machine, opts, |c| {
        let mut dm = distribute(c, PartMap::contiguous(PARTS, c.nranks()), &serial, &labels);
        let _ = pumi_pcu::obs::reduce_spans(c); // drop the set-up's spans
        let n = PARTS as PartId;
        for i in 0..steps {
            let plans = match i % 2 {
                0 => band(c, &dm, &lattice, |p| (p + 1) % n),
                _ => band(c, &dm, &lattice, |p| (p + n - 1) % n),
            };
            migrate(c, &mut dm, &plans);
        }
        pumi_pcu::obs::reduce_spans(c)
    });
    let spans = report.into_iter().flatten().next().expect("rank 0 reduces");
    let per_rank_step = 1e3 / (4 * steps) as f64;
    println!("{steps} steps, {workers} worker(s), seed {seed}; ms per rank-step");
    println!("{:>8} {:>10}  span", "self", "inclusive");
    for s in spans.iter().filter(|s| s.path.starts_with("migrate")) {
        println!(
            "{:>8.3} {:>10.3}  {}",
            s.self_seconds * per_rank_step,
            s.total_seconds * per_rank_step,
            s.path
        );
    }
}
