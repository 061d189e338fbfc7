//! The overlap growth rule, checked against a serial reference.
//!
//! `Overlap::grow` documents which elements a part ships to a neighbour:
//! for a source part `p` and a target part `q`,
//!
//! * layer 1 is `p`'s elements sharing a bridge entity with an element of
//!   `q`;
//! * layer k + 1 is `p`'s elements sharing a bridge entity with layer k,
//!   minus the earlier layers.
//!
//! Here that rule is evaluated on the serial mesh from the element labels
//! alone, and every part's ghost elements after a distributed grow must be
//! exactly the union of what the rule ships to it. The grid covers 3-D
//! (vertex, edge and face bridges) and 2-D (vertex and edge bridges), depths
//! 1–3, with the deterministic and a chaos scheduler. Every grow is also
//! audited (`check_dist(all)`, `check_overlap`), and growing one layer at a
//! time must reach the same ghosts and `struct_hash` as one deep grow.

use std::collections::BTreeSet;

use pumi_check::{check_dist, check_overlap, CheckOpts};
use pumi_core::overlap::Overlap;
use pumi_core::{distribute, DistMesh, PartMap};
use pumi_io::struct_hash;
use pumi_mesh::Mesh;
use pumi_meshgen::{jitter, tet_box, tri_rect};
use pumi_partition::partition_mesh;
use pumi_pcu::{execute, execute_opts, Comm, MachineModel, SchedMode, WorldOpts};
use pumi_util::{Dim, GlobalId, MeshEnt, PartId};

const DEPTH: usize = 3;

/// Per depth `1..=DEPTH`, per target part: the element gids the rule ghosts
/// onto that part. Element gids are serial indices.
fn rule(
    serial: &Mesh,
    labels: &[PartId],
    nparts: usize,
    bridge: Dim,
) -> Vec<Vec<BTreeSet<GlobalId>>> {
    let d = serial.elem_dim_t();
    let elems: Vec<MeshEnt> = serial.elems().collect();
    let label = |e: MeshEnt| labels[e.idx()] as usize;
    // The elements sharing a bridge entity with any element of `from`.
    let touching = |from: &BTreeSet<MeshEnt>| -> BTreeSet<MeshEnt> {
        from.iter()
            .flat_map(|&e| serial.adjacent(e, bridge))
            .flat_map(|b| serial.adjacent(b, d))
            .collect()
    };
    let mut out = vec![vec![BTreeSet::new(); nparts]; DEPTH];
    for p in 0..nparts {
        let own: BTreeSet<MeshEnt> = elems.iter().copied().filter(|&e| label(e) == p).collect();
        for q in (0..nparts).filter(|&q| q != p) {
            let theirs: BTreeSet<MeshEnt> =
                elems.iter().copied().filter(|&e| label(e) == q).collect();
            let mut shipped: BTreeSet<MeshEnt> = BTreeSet::new();
            let mut layer: BTreeSet<MeshEnt> =
                touching(&theirs).intersection(&own).copied().collect();
            for ghosts in out.iter_mut() {
                shipped.extend(&layer);
                ghosts[q].extend(shipped.iter().map(|e| e.index() as GlobalId));
                layer = touching(&layer)
                    .intersection(&own)
                    .filter(|e| !shipped.contains(e))
                    .copied()
                    .collect();
            }
        }
    }
    out
}

/// `(part, gids of its ghost elements)` for every local part.
fn ghost_elems(dm: &DistMesh) -> Vec<(PartId, BTreeSet<GlobalId>)> {
    dm.parts
        .iter()
        .map(|p| {
            let gids = p
                .mesh
                .elems()
                .filter(|&e| p.is_ghost(e))
                .map(|e| p.gid_of(e));
            (p.id, gids.collect())
        })
        .collect()
}

fn audit(c: &Comm, dm: &DistMesh, ov: &Overlap, what: &str) {
    check_dist(c, dm, CheckOpts::all()).unwrap_or_else(|e| panic!("{what}: {e:?}"));
    check_overlap(c, dm, ov).unwrap_or_else(|e| panic!("{what}: {e:?}"));
}

/// Grow `bridge`-bridged overlaps on `nparts` parts over `nranks` ranks:
/// one by `DEPTH` single-layer grows, checked against the rule after each,
/// and one by a single `DEPTH`-layer grow, which must end the same.
fn follows_the_rule(serial: &Mesh, nparts: usize, nranks: usize, bridge: Dim, chaos: Option<u64>) {
    let labels = partition_mesh(serial, nparts);
    let want = rule(serial, &labels, nparts, bridge);
    let run = |c: &Comm| {
        let map = || PartMap::contiguous(nparts, nranks);
        let mut stepped = distribute(c, map(), serial, &labels);
        let mut ov = Overlap::from_dist(&stepped).with_bridge(bridge);
        for depth in 1..=DEPTH {
            let what = format!("{bridge:?} bridge, depth {depth}, {chaos:?}");
            ov.grow(c, &mut stepped, 1);
            audit(c, &stepped, &ov, &what);
            for (pid, got) in ghost_elems(&stepped) {
                assert_eq!(got, want[depth - 1][pid as usize], "{what}: part {pid}");
            }
        }
        let mut deep = distribute(c, map(), serial, &labels);
        let mut ov_deep = Overlap::from_dist(&deep).with_bridge(bridge);
        ov_deep.grow(c, &mut deep, DEPTH);
        audit(c, &deep, &ov_deep, "one deep grow");
        assert_eq!(
            ghost_elems(&deep),
            ghost_elems(&stepped),
            "{bridge:?}: grow(1)x{DEPTH} != grow({DEPTH})"
        );
        assert_eq!(
            struct_hash(c, &deep),
            struct_hash(c, &stepped),
            "{bridge:?}: struct_hash"
        );
    };
    match chaos {
        None => execute(nranks, run),
        Some(seed) => execute_opts(
            MachineModel::flat(nranks),
            WorldOpts::default().sched(SchedMode::Chaos(seed)),
            run,
        ),
    };
}

fn tets() -> Mesh {
    let mut m = tet_box(5, 5, 5, 1.0, 1.0, 1.0);
    jitter(&mut m, 0.15, 3);
    m
}

#[test]
fn tet_box_growth_follows_the_rule() {
    let serial = tets();
    for bridge in [Dim::Vertex, Dim::Edge, Dim::Face] {
        follows_the_rule(&serial, 8, 4, bridge, None);
    }
}

#[test]
fn tet_box_growth_follows_the_rule_under_chaos() {
    let serial = tets();
    for bridge in [Dim::Vertex, Dim::Edge, Dim::Face] {
        follows_the_rule(&serial, 8, 4, bridge, Some(1));
    }
}

#[test]
fn tri_rect_growth_follows_the_rule() {
    let serial = tri_rect(8, 6, 1.0, 1.0);
    for chaos in [None, Some(1)] {
        for bridge in [Dim::Vertex, Dim::Edge] {
            follows_the_rule(&serial, 4, 2, bridge, chaos);
        }
    }
}
