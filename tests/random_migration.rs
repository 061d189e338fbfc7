//! Property-style stress test: arbitrary sequences of random migrations
//! must preserve every distributed invariant — the global entity counts,
//! remote-copy symmetry, owner agreement, serial validity, and gid
//! completeness. This is the migration algorithm's contract under §II-C.

use pumi_check::{check_dist, CheckOpts};
use pumi_core::{distribute, migrate, DistMesh, MigrationPlan, Part, PartMap};
use pumi_io::struct_hash;
use pumi_meshgen::{tet_box, tri_rect};
use pumi_pcu::{execute, Comm, MsgReader, MsgWriter};
use pumi_util::{Dim, FxHashMap, MeshEnt, PartId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_random_migrations(seed: u64, rounds: usize) {
    let serial = tri_rect(8, 8, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let nparts = 4;
    let mut labels = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        let c = serial.centroid(e);
        let px = if c[0] < 0.5 { 0 } else { 1 };
        let py = if c[1] < 0.5 { 0 } else { 1 };
        labels[e.idx()] = (py * 2 + px) as PartId;
    }
    let counts = [
        serial.count(Dim::Vertex) as u64,
        serial.count(Dim::Edge) as u64,
        serial.count(Dim::Face) as u64,
    ];

    execute(2, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, 2), &serial, &labels);
        // Each rank derives the same per-round seeds; plans are built from
        // each part's own elements, so this is deterministic but arbitrary.
        for round in 0..rounds {
            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            for part in &dm.parts {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (round as u64) << 8 ^ (part.id as u64) << 32);
                let mut plan = MigrationPlan::new();
                for e in part.mesh.elems() {
                    if rng.gen_bool(0.15) {
                        plan.send(e, rng.gen_range(0..nparts as PartId));
                    }
                }
                plans.insert(part.id, plan);
            }
            migrate(c, &mut dm, &plans);
            check_dist(c, &dm, CheckOpts::all()).unwrap_or_else(|f| panic!("round {round}: {f}"));
            for (di, &want) in counts.iter().enumerate() {
                let dd = Dim::from_usize(di);
                let owned = dm.global_sum(c, |p| {
                    p.mesh.iter(dd).filter(|&e| p.is_owned(e)).count() as u64
                });
                assert_eq!(owned, want, "round {round}: {dd} not conserved");
            }
            let elems = dm.global_sum(c, |p| p.mesh.num_elems() as u64);
            assert_eq!(elems, counts[2], "round {round}: elements lost");
        }
    });
}

#[test]
fn random_migrations_seed_1() {
    run_random_migrations(0xDEAD_BEEF, 4);
}

#[test]
fn random_migrations_seed_2() {
    run_random_migrations(0x1234_5678, 4);
}

#[test]
fn random_migrations_seed_3() {
    run_random_migrations(42, 4);
}

/// Scatter-everything stress: every element is assigned a random part in one
/// plan — the hardest single migration (all boundaries change at once).
#[test]
fn full_scatter_migration() {
    let serial = tri_rect(6, 6, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let nparts = 6;
    let mut labels = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        labels[e.idx()] = (e.idx() % 2) as PartId; // start on parts 0/1 only
    }
    let nelems = serial.num_elems() as u64;

    execute(3, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, 3), &serial, &labels);
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for part in &dm.parts {
            let mut rng = StdRng::seed_from_u64(99 + part.id as u64);
            let mut plan = MigrationPlan::new();
            for e in part.mesh.elems() {
                plan.send(e, rng.gen_range(0..nparts as PartId));
            }
            plans.insert(part.id, plan);
        }
        migrate(c, &mut dm, &plans);
        check_dist(c, &dm, CheckOpts::all()).expect("valid after full scatter");
        let elems = dm.global_sum(c, |p| p.mesh.num_elems() as u64);
        assert_eq!(elems, nelems);
        // All 6 parts now populated (overwhelmingly likely with 72 elements).
        let loads = dm.gather_loads(c, |p| p.mesh.num_elems() as f64);
        assert!(loads.iter().filter(|&&l| l > 0.0).count() >= 5, "{loads:?}");
    });
}

// ---------------------------------------------------------------------
// 3-D leg: scripted and random plans against a from-scratch oracle.
// ---------------------------------------------------------------------

/// `(dim, gid)` → every `(part, local index)` holding a copy, sorted.
type Copies = FxHashMap<(u8, u64), Vec<(PartId, u32)>>;

/// Residence from scratch (§II-B): an entity resides on exactly the parts
/// holding an element adjacent to it. Every part reports the closures of its
/// elements; the world gathers them. Nothing here reads a remote-copy list.
fn oracle(c: &Comm, dm: &DistMesh) -> Copies {
    let mut w = MsgWriter::new();
    for part in &dm.parts {
        let mut held: Vec<MeshEnt> = part
            .mesh
            .elems()
            .flat_map(|e| part.mesh.closure(e))
            .collect();
        held.sort_unstable();
        held.dedup();
        for e in held {
            w.put_u8(e.dim().as_usize() as u8);
            w.put_u64(part.gid_of(e));
            w.put_u32(part.id);
            w.put_u32(e.index());
        }
    }
    let mut copies = Copies::default();
    for bytes in c.allgather_bytes(w.finish()) {
        let mut r = MsgReader::new(bytes);
        while !r.is_done() {
            let key = (r.get_u8(), r.get_u64());
            copies
                .entry(key)
                .or_default()
                .push((r.get_u32(), r.get_u32()));
        }
    }
    copies.values_mut().for_each(|v| v.sort_unstable());
    copies
}

/// Every invariant a round must leave behind: each copy's residence and each
/// `(part, remote index)` link equal the oracle's, no copy survives without
/// an adjacent element, `check_dist` is clean, and the mesh is the one
/// `distribute` made.
fn check_round(c: &Comm, dm: &DistMesh, hash0: u64, what: &str) {
    let copies = oracle(c, dm);
    for part in &dm.parts {
        for d in Dim::ALL {
            for e in part.mesh.iter(d) {
                let key = (d.as_usize() as u8, part.gid_of(e));
                let all = copies.get(&key).map_or(&[][..], Vec::as_slice);
                assert!(
                    all.contains(&(part.id, e.index())),
                    "{what}: part {} keeps {e:?} (gid {}) without an adjacent element",
                    part.id,
                    key.1
                );
                let residence: Vec<PartId> = all.iter().map(|&(p, _)| p).collect();
                assert_eq!(part.residence(e), residence, "{what}: residence of {key:?}");
                let links: Vec<(PartId, u32)> =
                    all.iter().copied().filter(|&(p, _)| p != part.id).collect();
                assert_eq!(
                    part.remotes_of(e),
                    links,
                    "{what}: links of {key:?} on part {}",
                    part.id
                );
            }
        }
        part.mesh.assert_valid();
    }
    check_dist(c, dm, CheckOpts::all()).unwrap_or_else(|f| panic!("{what}: {f}"));
    assert_eq!(struct_hash(c, dm), hash0, "{what}: struct_hash moved");
}

/// The local vertex at `x`, if this part holds one.
fn vertex_at(part: &Part, x: [f64; 3]) -> Option<MeshEnt> {
    part.mesh.iter(Dim::Vertex).find(|&v| {
        let p = part.mesh.coords(v);
        (0..3).all(|i| (p[i] - x[i]).abs() < 1e-9)
    })
}

/// Plans sending, from each part of `from` hosted here, every element around
/// the vertex at `x` to part `to`.
fn send_star(
    dm: &DistMesh,
    from: &[PartId],
    x: [f64; 3],
    to: PartId,
) -> FxHashMap<PartId, MigrationPlan> {
    let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
    for part in dm.parts.iter().filter(|p| from.contains(&p.id)) {
        let v = vertex_at(part, x).expect("the star's centre is on the sending part");
        let plan = plans.entry(part.id).or_default();
        for &e in part.mesh.adjacent(v, Dim::Region).iter() {
            plan.send(e, to);
        }
    }
    plans
}

/// `tet_box(4, 4, 4)` cut into its eight octants, one part each (part id =
/// 4·[z ≥ ½] + 2·[y ≥ ½] + [x ≥ ½]), hosted `ranks` ways. Three scripted
/// rounds force the cases the silent-copy rule must get right, then random
/// rounds with some parts left out of the plan map altogether.
fn run_octants(ranks: usize, seed: u64) {
    let serial = tet_box(4, 4, 4, 1.0, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let nparts = 8;
    let mut labels = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        let c = serial.centroid(e);
        labels[e.idx()] = (0..3).map(|i| ((c[i] >= 0.5) as PartId) << i).sum();
    }
    let nelems = serial.num_elems() as u64;

    execute(ranks, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, ranks), &serial, &labels);
        let hash0 = struct_hash(c, &dm);
        check_round(c, &dm, hash0, "distribute");
        let holds = |dm: &DistMesh, p: PartId, x: [f64; 3]| -> Option<Vec<PartId>> {
            let part = dm.parts.iter().find(|q| q.id == p)?;
            vertex_at(part, x).map(|v| part.residence(v))
        };

        // 1. Part 0 alone moves its elements around the centre vertex, which
        //    all eight parts share, to its face neighbour part 1: seven silent
        //    copies (three on each axis edge), the centre leaves part 0 while
        //    its star arrives on a part that already holds it, and every other
        //    part has no plan at all.
        let centre = [0.5; 3];
        if let Some(res) = holds(&dm, 0, centre) {
            assert_eq!(res, (0..8).collect::<Vec<PartId>>());
        }
        let plans = send_star(&dm, &[0], centre, 1);
        migrate(c, &mut dm, &plans);
        check_round(c, &dm, hash0, "one speaker, seven silent copies");
        if let Some(res) = holds(&dm, 1, centre) {
            assert_eq!(res, (1..8).collect::<Vec<PartId>>());
        }

        // 2. Parts 0 and 2 share the vertex at (¼, ½, 0) and nobody else
        //    holds it; both send its star to part 5 in one call, so its owner
        //    (part 0) must ship it on behalf of both (owner delegation) and
        //    both copies leave.
        let x = [0.25, 0.5, 0.0];
        if let Some(res) = holds(&dm, 0, x) {
            assert_eq!(res, vec![0, 2]);
        }
        let plans = send_star(&dm, &[0, 2], x, 5);
        migrate(c, &mut dm, &plans);
        check_round(c, &dm, hash0, "two senders around one vertex");
        if let Some(res) = holds(&dm, 5, x) {
            assert_eq!(res, vec![5]);
        }

        // 3. Part 3 is emptied completely.
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for part in dm.parts.iter().filter(|p| p.id == 3) {
            let plan = plans.entry(3).or_default();
            part.mesh.elems().for_each(|e| plan.send(e, 6));
        }
        migrate(c, &mut dm, &plans);
        check_round(c, &dm, hash0, "part 3 emptied");
        for part in dm.parts.iter().filter(|p| p.id == 3) {
            assert_eq!(part.entity_counts(), [0; 4]);
        }

        // 4. Random rounds; a third of the parts pass no plan.
        for round in 0..4u64 {
            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            for part in dm
                .parts
                .iter()
                .filter(|p| !(p.id as u64 + round).is_multiple_of(3))
            {
                let mut rng = StdRng::seed_from_u64(seed ^ round << 8 ^ (part.id as u64) << 32);
                let plan = plans.entry(part.id).or_default();
                for e in part.mesh.elems() {
                    if rng.gen_bool(0.15) {
                        plan.send(e, rng.gen_range(0..nparts as PartId));
                    }
                }
            }
            migrate(c, &mut dm, &plans);
            check_round(c, &dm, hash0, &format!("random round {round}"));
            let elems = dm.global_sum(c, |p| p.mesh.num_elems() as u64);
            assert_eq!(elems, nelems, "round {round}: elements lost");
        }
    });
}

#[test]
fn octants_against_the_oracle_4_ranks_x_2_parts() {
    run_octants(4, 0xC0FFEE);
}

#[test]
fn octants_against_the_oracle_1_rank_x_8_parts() {
    run_octants(1, 0xBEEF);
}
