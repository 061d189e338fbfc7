//! Determinism under the chaos scheduler: the same program run under the
//! deterministic scheduler and under `chaos:<seed>` for two different seeds
//! must produce bit-identical meshes (`struct_hash`), bit-identical field
//! values, and identical phase-level traffic and frame-digest rows — frame
//! *arrival order* is the only thing chaos is allowed to change.

use parma::{improve, ImproveOpts, Priority};
use pumi_repro::check::{check_dist, CheckOpts};
use pumi_repro::core::overlap::{Overlap, Reduction};
use pumi_repro::core::{distribute, migrate, DistMesh, MigrationPlan, PartMap};
use pumi_repro::field::{dist_field, Field, FieldShape, FieldSync};
use pumi_repro::io::{read_checkpoint, struct_hash, write_checkpoint};
use pumi_repro::meshgen::tri_rect;
use pumi_repro::obs::metrics::{take_digests, take_traffic};
use pumi_repro::partition::partition_mesh;
use pumi_repro::pcu::{execute, execute_opts, Comm, MachineModel, SchedMode, WorldOpts};
use pumi_repro::util::{Dim, FxHashMap, GlobalId, PartId};

/// Everything one rank observed: stage hashes, gid-keyed field bits, and
/// the drained (sorted) obs rows.
#[derive(Debug, PartialEq)]
struct RankTrace {
    hashes: Vec<u64>,
    field_bits: Vec<(GlobalId, Vec<u64>)>,
    traffic: Vec<(String, String, u64, u64)>,
    digests: Vec<(String, String, u64, u64)>,
}

fn field_bits(dm: &DistMesh, fields: &[Field], out: &mut Vec<(GlobalId, Vec<u64>)>) {
    for (slot, part) in dm.parts.iter().enumerate() {
        for v in part.mesh.iter(Dim::Vertex) {
            let bits = fields[slot]
                .get(v)
                .map(|vals| vals.iter().map(|x| x.to_bits()).collect())
                .unwrap_or_default();
            out.push((part.gid_of(v), bits));
        }
    }
    out.sort();
}

/// The full scenario: migrate + ghost + field sync/accumulate, a ParMA
/// improve run, and an N→M checkpoint roundtrip. `label` only picks the
/// scratch directory; it must not influence any exchanged bytes.
fn scenario(c: &Comm, label: &str) -> RankTrace {
    let mut hashes = Vec::new();
    let mut bits = Vec::new();

    // Stage 1: migrate across a diagonal, then ghost one layer.
    let serial = tri_rect(8, 6, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let mut elem_part = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        elem_part[e.idx()] = if serial.centroid(e)[0] < 0.5 { 0 } else { 1 };
    }
    let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
    let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
    if c.rank() == 0 {
        let part = dm.part(0);
        let mut plan = MigrationPlan::new();
        for e in part.mesh.elems() {
            let x = part.mesh.centroid(e);
            if x[0] + x[1] > 0.9 {
                plan.send(e, 1);
            }
        }
        plans.insert(0, plan);
    }
    migrate(c, &mut dm, &plans);
    Overlap::from_dist(&dm)
        .with_bridge(Dim::Vertex)
        .grow(c, &mut dm, 1);
    check_dist(c, &dm, CheckOpts::all()).expect("stage 1 invariants");
    hashes.push(struct_hash(c, &dm));

    // Stage 2: accumulate (FP sums over copies) then owner→copy sync.
    let template = Field::new("u", FieldShape::Linear, 2);
    let mut fields = dist_field(&dm, &template);
    for (slot, part) in dm.parts.iter().enumerate() {
        for v in part.mesh.iter(Dim::Vertex) {
            let g = part.gid_of(v) as f64;
            fields[slot].set(v, &[1.0 + g * 0.25, g * 0.5]);
        }
    }
    let ov = Overlap::from_dist(&dm);
    fields.sync(c, &dm, &ov, Reduction::Add);
    fields.sync(c, &dm, &ov, Reduction::Insert);
    field_bits(&dm, &fields, &mut bits);

    // Stage 3: ParMA diffusion on a skewed strip, invariants checked on the
    // result.
    let serial = tri_rect(10, 4, 10.0, 4.0);
    let mut elem_part = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        elem_part[e.idx()] = if serial.centroid(e)[0] < 7.0 { 0 } else { 1 };
    }
    let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
    let pr: Priority = "Face".parse().unwrap();
    improve(c, &mut dm, &pr, ImproveOpts::default());
    check_dist(c, &dm, CheckOpts::all()).expect("stage 3 invariants");
    hashes.push(struct_hash(c, &dm));

    // Stage 4: write a 4-part checkpoint from 2 ranks (with a field) and
    // restore it onto 2 ranks: the N→M merge runs through migration.
    let serial = tri_rect(8, 6, 1.0, 1.0);
    let labels = partition_mesh(&serial, 4);
    let dm = distribute(c, PartMap::contiguous(4, 2), &serial, &labels);
    let scalar = Field::new("p", FieldShape::Linear, 1);
    let mut fields = dist_field(&dm, &scalar);
    for (slot, part) in dm.parts.iter().enumerate() {
        for v in part.mesh.iter(Dim::Vertex) {
            fields[slot].set_scalar(v, part.gid_of(v) as f64 * 0.125);
        }
    }
    let dir = std::env::temp_dir().join(format!("pumi_determinism_{}_{label}", std::process::id()));
    write_checkpoint(c, &dm, &[&fields], &dir).expect("write");
    let restored = read_checkpoint(c, &dir).expect("restore");
    if c.rank() == 0 {
        let _ = std::fs::remove_dir_all(&dir);
    }
    check_dist(c, &restored.dm, CheckOpts::all()).expect("stage 4 invariants");
    hashes.push(struct_hash(c, &restored.dm));
    field_bits(&restored.dm, &restored.fields[0], &mut bits);

    // Drain this rank's obs rows. Row order off the registry is arbitrary;
    // sort so traces compare structurally.
    let mut traffic: Vec<(String, String, u64, u64)> = take_traffic()
        .into_iter()
        .map(|r| (r.phase, r.link.name().into(), r.totals.msgs, r.totals.bytes))
        .collect();
    traffic.sort();
    let mut digests: Vec<(String, String, u64, u64)> = take_digests()
        .into_iter()
        .map(|r| (r.phase, r.link.name().into(), r.frames, r.digest))
        .collect();
    digests.sort();

    RankTrace {
        hashes,
        field_bits: bits,
        traffic,
        digests,
    }
}

#[test]
fn identical_results_across_chaos_seeds() {
    let plain = execute(2, |c| scenario(c, "plain"));
    let chaos = |seed| WorldOpts::default().sched(SchedMode::Chaos(seed));
    let seed1 = execute_opts(MachineModel::flat(2), chaos(1), |c| scenario(c, "chaos1"));
    let seed7 = execute_opts(MachineModel::flat(2), chaos(7), |c| scenario(c, "chaos7"));

    for rank in 0..2 {
        assert_eq!(
            plain[rank], seed1[rank],
            "rank {rank}: chaos:1 diverged from deterministic run"
        );
        assert_eq!(
            plain[rank], seed7[rank],
            "rank {rank}: chaos:7 diverged from deterministic run"
        );
    }
    // Sanity: the trace actually observed cross-part communication.
    assert!(!plain[0].digests.is_empty(), "no frame digests recorded");
    assert!(plain[0].hashes.iter().all(|&h| h != 0));
}

/// The multiplexed executor (fewer worker permits than ranks — the
/// `PUMI_PCU_WORKERS < nranks` path) must be completely invisible to
/// results: identical stage hashes, field bits, traffic rows, and frame
/// digests as the one-thread-per-rank executor, under the deterministic
/// scheduler and under chaos seeds 1 and 7.
#[test]
fn multiplexed_executor_is_invisible_to_determinism() {
    let machine = MachineModel::flat(2);
    let plain = execute(2, |c| scenario(c, "plain_mux_ref"));
    let mux = execute_opts(machine, WorldOpts::default().workers(1), |c| {
        scenario(c, "mux_det")
    });
    for rank in 0..2 {
        assert_eq!(
            plain[rank], mux[rank],
            "rank {rank}: multiplexed executor diverged from per-thread run"
        );
    }
    for seed in [1u64, 7] {
        let chaos = WorldOpts::default().sched(SchedMode::Chaos(seed));
        let threaded = execute_opts(machine, chaos, |c| scenario(c, &format!("mux_ref_{seed}")));
        let mux = execute_opts(
            machine,
            WorldOpts::default()
                .workers(1)
                .sched(SchedMode::Chaos(seed)),
            |c| scenario(c, &format!("mux_chaos_{seed}")),
        );
        for rank in 0..2 {
            assert_eq!(
                threaded[rank], mux[rank],
                "rank {rank}: multiplexed chaos:{seed} diverged from per-thread chaos:{seed}"
            );
        }
    }
}
