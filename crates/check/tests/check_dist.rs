//! pumi-check behaviour: clean meshes pass, and every class of corruption is
//! detected collectively.

use pumi_check::{check_dist, check_field_sync, check_overlap, CheckError, CheckOpts};
use pumi_core::overlap::{Overlap, Reduction};
use pumi_core::{distribute, migrate, DistMesh, MigrationPlan, Part, PartMap};
use pumi_field::{dist_field, Field, FieldShape, FieldSync};
use pumi_geom::GeomEnt;
use pumi_mesh::Topology;
use pumi_meshgen::tri_rect;
use pumi_pcu::{execute, Comm};
use pumi_util::{Dim, FxHashMap, PartId};

fn two_part_mesh(c: &Comm) -> DistMesh {
    let serial = tri_rect(4, 4, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let mut elem_part = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        elem_part[e.idx()] = if serial.centroid(e)[0] < 0.5 { 0 } else { 1 };
    }
    distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part)
}

#[test]
fn clean_distribution_passes() {
    execute(2, |c| {
        let dm = two_part_mesh(c);
        let stats = check_dist(c, &dm, CheckOpts::all()).expect("clean mesh");
        assert!(stats.entities > 0);
        assert!(stats.links > 0, "no cross-part links verified");
    });
}

#[test]
fn passes_after_migrate_and_ghosting() {
    execute(2, |c| {
        let mut dm = two_part_mesh(c);
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        if c.rank() == 0 {
            let part = dm.part(0);
            let mut plan = MigrationPlan::new();
            for e in part.mesh.elems() {
                let x = part.mesh.centroid(e);
                if x[0] + x[1] > 0.7 {
                    plan.send(e, 1);
                }
            }
            plans.insert(0, plan);
        }
        migrate(c, &mut dm, &plans);
        check_dist(c, &dm, CheckOpts::all()).expect("post-migrate mesh");

        Overlap::from_dist(&dm).grow(c, &mut dm, 1);
        check_dist(c, &dm, CheckOpts::all()).expect("post-ghost mesh");
    });
}

/// The topology audit: a part map that disagrees with where parts actually
/// live fails on every rank with typed placement errors. The audit runs
/// before the families that route by the map, so the full check, the share
/// check and the field check each report the misplacement instead of
/// routing frames to the wrong rank.
#[test]
fn misplaced_part_map_fails_topology_audit() {
    execute(2, |c| {
        let mut dm = two_part_mesh(c);
        let ov = Overlap::from_dist(&dm);
        let mut fields = dist_field(&dm, &Field::new("u", FieldShape::Linear, 1));
        for (slot, part) in dm.parts.iter().enumerate() {
            for v in part.mesh.iter(Dim::Vertex) {
                fields[slot].set_scalar(v, part.gid_of(v) as f64);
            }
        }
        // Swap the map: it now claims part 0 lives on rank 1 and vice
        // versa, while the hosts are unchanged.
        dm.map = PartMap::from_ranks(vec![1, 0], 2);
        let failures = [
            ("check_dist", check_dist(c, &dm, CheckOpts::all()).err()),
            ("check_overlap", check_overlap(c, &dm, &ov).err()),
            ("check_field_sync", check_field_sync(c, &dm, &fields).err()),
        ];
        for (check, err) in failures {
            let err = err.unwrap_or_else(|| panic!("{check}: misplacement undetected"));
            assert!(err.world_violations >= 2, "{check}: {err}");
            assert!(
                err.errors
                    .iter()
                    .any(|e| matches!(e, CheckError::PartMisplaced { .. })),
                "{check}: rank {} saw: {err}",
                c.rank()
            );
        }
    });
}

/// Corrupting a remote-copy list fails the check on *every* rank (the count
/// is all-reduced), with a typed error naming the entity on the rank that
/// observes the dangling link.
#[test]
fn corrupted_remote_fails_everywhere() {
    execute(2, |c| {
        let mut dm = two_part_mesh(c);
        if c.rank() == 0 {
            let part = dm.part_mut(0);
            let victim = part.shared_entities()[0].0;
            part.set_remotes(victim, vec![(1, 999_999)]);
        }
        let err = check_dist(c, &dm, CheckOpts::all()).expect_err("corruption undetected");
        assert!(err.world_violations > 0);
        if c.rank() == 1 {
            assert!(
                err.errors.iter().any(|e| matches!(
                    e,
                    CheckError::BadRemoteIndex { .. } | CheckError::AsymmetricRemote { .. }
                )),
                "rank 1 saw: {err}"
            );
        }
    });
}

/// A non-manifold side: part 0 gains a third triangle on one of its
/// interior edges. Every link stays intact, so only the serial mesh
/// family catches it — on every rank, naming part 0.
#[test]
fn non_manifold_side_fails_everywhere() {
    execute(2, |c| {
        let mut dm = two_part_mesh(c);
        if c.rank() == 0 {
            let part = dm.part_mut(0);
            let edge = part
                .mesh
                .iter(Dim::Edge)
                .find(|&e| part.mesh.up_count(e) == 2)
                .expect("part 0 has an interior edge");
            let class = part.mesh.class_of(part.mesh.up_ents(edge)[0]);
            let [a, b] = [0, 1].map(|i| part.mesh.verts_of(edge)[i]);
            // Gids above every bootstrap serial index (< 2^40).
            let v = part.add_vertex([2.0, 2.0, 0.0], class, 1 << 40);
            part.add_entity(Topology::Triangle, &[a, b, v.index()], class, (1 << 40) + 1);
        }
        let err = check_dist(c, &dm, CheckOpts::all()).expect_err("non-manifold side undetected");
        assert!(err.world_violations > 0);
        if c.rank() == 0 {
            assert!(
                err.errors.iter().any(|e| matches!(
                    e,
                    CheckError::MeshInvalid { part: 0, what } if what.contains("non-manifold")
                )),
                "rank 0 saw: {err}"
            );
        }
    });
}

/// Two parts each owning a distinct vertex with the same gid: only the
/// gid-uniqueness family catches this, via home-part hashing.
#[test]
fn duplicate_gid_detected() {
    execute(2, |c| {
        let mut part = Part::new(c.rank() as PartId, 2);
        part.add_vertex([c.rank() as f64, 0.0, 0.0], GeomEnt(0), 7);
        let dm = DistMesh {
            map: PartMap::contiguous(2, 2),
            parts: vec![part],
        };
        let err = check_dist(c, &dm, CheckOpts::all()).expect_err("duplicate gid undetected");
        assert_eq!(err.world_violations, 1);
        let home_rank = (7u64 % 2) as usize; // gid 7 hashes home to part 1
        if c.rank() == home_rank {
            assert!(
                err.errors.iter().any(|e| matches!(
                    e,
                    CheckError::DuplicateGid { dim: 0, gid: 7, parts } if parts == &vec![0, 1]
                )),
                "home rank saw: {err}"
            );
        }
    });
}

/// Owner-side ghost records and holder-side ghosts must mirror each other;
/// dropping a holder's ghost record breaks the mirror: the source still lists
/// the copy, so its probe finds a live entity with no matching ghost source.
#[test]
fn broken_ghost_record_detected() {
    execute(2, |c| {
        let mut dm = two_part_mesh(c);
        Overlap::from_dist(&dm).grow(c, &mut dm, 1);
        check_dist(c, &dm, CheckOpts::all()).expect("clean ghosts");
        let part = &mut dm.parts[0];
        let victim = part.ghost_entities()[0];
        part.remove_ghost_record(victim);
        let err = check_dist(c, &dm, CheckOpts::all()).expect_err("dropped record undetected");
        assert!(err.world_violations > 0);
        assert!(
            err.errors
                .iter()
                .any(|e| matches!(e, CheckError::GhostLinkBroken { .. })),
            "rank {} saw: {err}",
            c.rank()
        );
    });
}

/// De-ghosting a closure vertex of a ghost element leaves the element's
/// closure sticking out of the overlap region: the vertex is now a real,
/// unshared copy no sync will ever reach. The overlap family flags it.
#[test]
fn broken_overlap_closure_detected() {
    execute(2, |c| {
        let mut dm = two_part_mesh(c);
        Overlap::from_dist(&dm).grow(c, &mut dm, 1);
        check_dist(c, &dm, CheckOpts::all()).expect("clean overlap");
        let part = &mut dm.parts[0];
        let elem_dim = part.mesh.elem_dim();
        let victim = part
            .ghost_entities()
            .into_iter()
            .filter(|g| g.dim().as_usize() == elem_dim)
            .flat_map(|g| part.mesh.closure(g))
            .find(|&s| s.dim() == Dim::Vertex && part.is_ghost(s))
            .expect("ghost element with a ghost closure vertex");
        part.remove_ghost_record(victim);
        let err = check_dist(c, &dm, CheckOpts::all()).expect_err("broken closure undetected");
        assert!(err.world_violations > 0);
        if c.rank() == 0 {
            assert!(
                err.errors
                    .iter()
                    .any(|e| matches!(e, CheckError::OverlapClosureBroken { sub_dim: 0, .. })),
                "rank 0 saw: {err}"
            );
        }
    });
}

/// A remote link rewritten to a bogus index makes the star forest
/// asymmetric: the root's leaf entry points at a dead slot, and the real
/// leaf's announcement no longer matches the root's list. Both sides of
/// `check_overlap` report it.
#[test]
fn asymmetric_shares_detected() {
    execute(2, |c| {
        let mut dm = two_part_mesh(c);
        let ov = Overlap::from_dist(&dm);
        let links = check_overlap(c, &dm, &ov).expect("fresh overlap symmetric");
        assert!(links > 0, "no share links verified");

        if c.rank() == 0 {
            let part = dm.part_mut(0);
            let victim = part
                .shared_entities()
                .into_iter()
                .find(|&(e, _)| e.dim() == Dim::Vertex && part.is_owned(e))
                .expect("owned shared vertex")
                .0;
            part.set_remotes(victim, vec![(1, 999_999)]);
        }
        let ov = Overlap::from_dist(&dm);
        let err = check_overlap(c, &dm, &ov).expect_err("asymmetric share undetected");
        assert!(err.world_violations > 0);
        if c.rank() == 1 {
            assert!(
                err.errors
                    .iter()
                    .any(|e| matches!(e, CheckError::ShareAsymmetric { .. })),
                "rank 1 saw: {err}"
            );
        }
    });
}

/// `check_overlap` stays green across the operations that rebuild the
/// forest: growth to depth 2 and a share rebuild after it.
#[test]
fn check_overlap_passes_after_growth() {
    execute(2, |c| {
        let mut dm = two_part_mesh(c);
        let mut ov = Overlap::from_dist(&dm);
        check_overlap(c, &dm, &ov).expect("boundary-only forest");
        ov.grow(c, &mut dm, 2);
        let links = check_overlap(c, &dm, &ov).expect("depth-2 forest");
        assert!(links > 0);
        check_dist(c, &dm, CheckOpts::all()).expect("depth-2 invariants");
    });
}

#[test]
fn field_sync_coherence() {
    execute(2, |c| {
        let dm = two_part_mesh(c);
        let template = Field::new("u", FieldShape::Linear, 1);
        let mut fields = dist_field(&dm, &template);
        for (slot, part) in dm.parts.iter().enumerate() {
            for v in part.mesh.iter(Dim::Vertex) {
                fields[slot].set_scalar(v, part.gid_of(v) as f64);
            }
        }
        let ov = Overlap::from_dist(&dm);
        fields.sync(c, &dm, &ov, Reduction::Insert);
        let compared = check_field_sync(c, &dm, &fields).expect("synced field coherent");
        assert!(compared > 0);

        // Perturb one non-owned copy (part 1's — the min-part rule makes
        // part 0 own the whole boundary): the coherence check must fail.
        if c.rank() == 1 {
            let part = &dm.parts[0];
            let (e, _) = part
                .shared_entities()
                .into_iter()
                .find(|&(e, _)| e.dim() == Dim::Vertex && !part.is_owned(e))
                .expect("no non-owned shared vertex found");
            fields[0].set_scalar(e, -1.0);
        }
        let err = check_field_sync(c, &dm, &fields).expect_err("stale copy undetected");
        assert!(err
            .errors
            .iter()
            .all(|e| matches!(e, CheckError::FieldCopyMismatch { .. })));
    });
}
