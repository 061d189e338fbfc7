//! Golden wire: every stage that ships entities or stitches remote-copy
//! links — `distribute`, `migrate`, `Overlap::grow`, `adapt_dist`'s relink,
//! checkpoint write and the 4→2 merging restore — pinned by world traffic
//! totals, `struct_hash` and a local-index-sensitive link fingerprint.
//!
//! The constants were taken by running this file on the commit *before* the
//! entity transport was unified in `pumi_core::wire`; they hold under the
//! deterministic scheduler, `chaos:1` and `chaos:7` alike. A change here
//! means a byte moved on the wire or an entity was created in a different
//! order — the way `golden_bytes.rs` pins the disk.
//!
//! One re-take since: when `migrate` stopped recomputing the residence of
//! every part-boundary entity and kept to the closures of the elements that
//! move ("a silent copy stays"), and folded its two trailing stats
//! reductions into one, the traffic quadruples of `migrate` and — the
//! counters being cumulative — of every later stage of that world shrank,
//! and so did `restore 4->2`, whose N→M redistribution is a `migrate` call.
//! Only those five quadruples were re-taken. Every `struct_hash`, every link
//! fingerprint, the `distribute` row and `halo_sync_frames_unmoved` are the
//! original constants, and they are the proof that nothing else moved: the
//! same entities were created in the same order at the same local indices
//! with the same remote links; only residence rows and stitch links for
//! entities whose residence could not change are no longer sent.
//!
//! A second re-take, of one quadruple: when the restore stopped running a
//! separate distributed validator on the mesh it had just rebuilt (its
//! symmetry exchange and its per-dimension count allreduces) and instead
//! checks its input before redistributing it — each Remotes row against the
//! links the stitch delivered (local), the residence set of each copy on
//! three or more parts against its peers' (one exchange, which puts no
//! bytes between ranks here), agreed by the one error-count allreduce the
//! restore already made — `restore 4->2` fell from `[0, 0, 36, 4329]` to
//! `[0, 0, 16, 2595]`.
//! Its world is fresh, so no other stage counts those messages. Every
//! `struct_hash`, every link fingerprint, the other five quadruples and
//! `GOLDEN_SYNC` are unchanged: the restored mesh is the same mesh.
//!
//! A third re-take, of the `restore 4->2` row only: when the merge stopped
//! loading each file part and pushing the second one of each rank through
//! `migrate`, and instead builds each rank's part once from the union of its
//! block's rows and stitches the two ranks directly, the row went from
//! `[0, 0, 16, 2595]` to `[0, 0, 9, 1068]`: no migration exchanges, one
//! link row per rank-boundary entity instead of one per pair of file parts,
//! and the failure and byte reductions folded into one. Its `struct_hash` is
//! unchanged. Its link fingerprint moved (2364599313142159352 →
//! 15107822530953525754) because the second file part's entities now take
//! local indices in that file's row order rather than in `migrate`'s
//! packing order; the entities, their owners and their links are the same.
//! The other five rows and `GOLDEN_SYNC` are unchanged.
//!
//! A fourth re-take, of the `grow`, `adapt` and `write` traffic quadruples
//! only: when `Overlap::grow` started shipping each ghost with its root
//! copy `(part, index)` instead of the sender's index, and the holder
//! started acking straight to that root, the re-root round a non-owner
//! sender used to run (forward the holder to the owner, repoint the holder)
//! went away. A layer is two exchanges instead of three; each record is 4
//! bytes longer. `grow` went from `[39, 68004, 38, 37324]` to
//! `[37, 71067, 38, 38861]`, and — the counters being cumulative —
//! `adapt` from `[51, 68638, 56, 37974]` to `[49, 71701, 56, 39511]` and
//! `write` from `[66, 69030, 86, 38758]` to `[64, 72093, 86, 40295]`: one
//! delta, `[-2, +3063, 0, +1537]`, on all three. Every `struct_hash`, every
//! link fingerprint (ghost sources and local indices included), the
//! `distribute`, `migrate` and `restore 4->2` rows and `GOLDEN_SYNC` are
//! unchanged: the roots and holder lists are the ones the re-root made.
//!
//! A fifth re-take, of `GOLDEN_SYNC` only: when `bcast`/`reduce` frames
//! stopped carrying a `(dim u8, index u32, len u32)` header per value and
//! became an 8-byte digest of the link list, a presence byte and the bare
//! values in the order both ends compiled, each 3-component record went
//! from 33 to 24 bytes. The frame count stayed 10 per phase, the bytes
//! sent per phase went from 8040 to 5970 (240 records × −9 bytes, 10
//! frames × +9), the phase digests changed with the bytes
//! (14894211904075380606 → 15099324249021370447 for `overlap.reduce`,
//! 1775441416287024949 → 17131722472166660347 for `overlap.bcast`), and
//! the traffic quadruple went from `[8, 9270, 12, 6810]` to
//! `[8, 6840, 12, 5100]`: same messages, fewer bytes. Every other constant
//! in this file is unchanged.
//!
//! A sixth re-take, of the `restore 4->2` quadruple only: when parts
//! stopped keeping a birth-part gid counter, the restore's `allreduce_max`
//! that floored it went away, and with it two on-node messages of 18 bytes
//! each: `[0, 0, 9, 1068]` became `[0, 0, 7, 1032]`. Its `struct_hash`,
//! its link fingerprint, every other row and `GOLDEN_SYNC` are unchanged.

use pumi_repro::adapt::{adapt_dist, AdaptOpts, SizeField};
use pumi_repro::core::overlap::{Overlap, Reduction};
use pumi_repro::core::{distribute, migrate, DistMesh, MigrationPlan, PartMap};
use pumi_repro::field::{dist_field, Field, FieldShape, FieldSync};
use pumi_repro::io::{read_checkpoint, struct_hash, write_checkpoint};
use pumi_repro::meshgen::tri_rect;
use pumi_repro::obs::metrics::{take_digests, take_traffic};
use pumi_repro::partition::partition_mesh;
use pumi_repro::pcu::{execute, execute_opts, Comm, MachineModel, WorldOpts};
use pumi_repro::util::tag::TagKind;
use pumi_repro::util::{Dim, FxHashMap, PartId};

/// What one rank saw after a stage: world traffic `(on_node_msgs,
/// on_node_bytes, off_node_msgs, off_node_bytes)`, the world `struct_hash`,
/// and this rank's share of the link fingerprint.
type Probe = ([u64; 4], u64, u64);

/// FNV-1a over every local copy's `(part, dim, gid, local index, remote
/// copies, ghost source)` in entity order: unlike `struct_hash` it moves
/// when an entity lands at a different local index or a link differs.
fn link_fingerprint(dm: &DistMesh) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for part in &dm.parts {
        for d in Dim::ALL {
            for e in part.mesh.iter(d) {
                eat(part.id as u64);
                eat(d.as_usize() as u64);
                eat(part.gid_of(e));
                eat(e.index() as u64);
                for &(q, i) in part.remotes_of(e) {
                    eat(q as u64);
                    eat(i as u64);
                }
                if let Some((q, i)) = part.ghost_source(e) {
                    eat(u64::MAX);
                    eat(q as u64);
                    eat(i as u64);
                }
            }
        }
    }
    h
}

/// Read the world meters while no rank is sending, then hash.
fn probe(c: &Comm, dm: &DistMesh) -> Probe {
    c.barrier();
    let t = c.traffic();
    c.barrier();
    (
        [
            t.on_node_msgs,
            t.on_node_bytes,
            t.off_node_msgs,
            t.off_node_bytes,
        ],
        struct_hash(c, dm),
        link_fingerprint(dm),
    )
}

/// Every rank must agree on traffic and hash; fingerprints add up.
fn fold(stage: &str, per_rank: Vec<Probe>) -> Probe {
    let (traffic, hash, _) = per_rank[0];
    let mut fp = 0u64;
    for (rank, &(t, h, f)) in per_rank.iter().enumerate() {
        assert_eq!((t, h), (traffic, hash), "{stage}: rank {rank} disagrees");
        fp = fp.wrapping_add(f);
    }
    (traffic, hash, fp)
}

const STAGES: [&str; 6] = [
    "distribute",
    "migrate",
    "grow",
    "adapt",
    "write",
    "restore 4->2",
];

/// See the module docs for where each column was taken.
const GOLDEN: [Probe; 6] = [
    (
        [4, 1608, 4, 1036],
        13137667257423266081,
        10160132723677700142,
    ),
    (
        [17, 18104, 20, 12352],
        9318482711173829293,
        4359406277625015817,
    ),
    (
        [37, 71067, 38, 38861],
        9318482711173829293,
        1746323583155797509,
    ),
    (
        [49, 71701, 56, 39511],
        9973596129831006867,
        15060360643896863560,
    ),
    (
        [64, 72093, 86, 40295],
        9973596129831006867,
        15060360643896863560,
    ),
    ([0, 0, 7, 1032], 9973596129831006867, 15107822530953525754),
];

#[test]
fn no_wire_byte_moved() {
    let dir = std::env::temp_dir().join(format!("pumi_golden_wire_{}", std::process::id()));
    let dir4 = dir.clone();
    let machine = MachineModel::new(2, 2);
    let per_rank: Vec<Vec<Probe>> = execute_opts(machine, WorldOpts::default(), move |c| {
        let mut out = Vec::new();
        let serial = tri_rect(12, 12, 1.0, 1.0);
        let labels = partition_mesh(&serial, 4);
        let mut dm = distribute(c, PartMap::contiguous(4, 4), &serial, &labels);
        out.push(probe(c, &dm));

        // One tag value per element, so the record's tag block is non-empty.
        for part in &mut dm.parts {
            let tid = part.mesh.tags_mut().declare("w", TagKind::Double, 1);
            for e in part.mesh.snapshot(Dim::Face) {
                let w = part.gid_of(e) as f64 * 0.5;
                part.mesh.tags_mut().set_dbl(tid, e, w);
            }
        }

        // A 1-element-deep band: every element touching the part boundary
        // moves to the highest-numbered part it touches.
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for part in &dm.parts {
            let mut plan = MigrationPlan::new();
            for e in part.mesh.elems() {
                let to = part
                    .mesh
                    .closure(e)
                    .iter()
                    .flat_map(|&s| part.copy_parts(s))
                    .max();
                if let Some(to) = to.filter(|&q| q > part.id) {
                    plan.send(e, to);
                }
            }
            plans.insert(part.id, plan);
        }
        let stats = migrate(c, &mut dm, &plans);
        assert!(stats.elements_moved > 0);
        out.push(probe(c, &dm));

        let mut ov = Overlap::from_dist(&dm).with_bridge(Dim::Vertex);
        assert!(ov.grow(c, &mut dm, 2) > 0);
        out.push(probe(c, &dm));
        ov.clear(&mut dm);

        let size = SizeField::shock(|p| p[0] + 0.5 * p[1] - 0.7, 0.03, 0.2, 0.08);
        let stats = adapt_dist(c, &mut dm, &size, AdaptOpts::new());
        assert!(stats.boundary_splits > 0, "shock misses every boundary");
        out.push(probe(c, &dm));

        write_checkpoint(c, &dm, &[], &dir4).expect("write");
        out.push(probe(c, &dm));
        out
    });
    let dir2 = dir.clone();
    let restored: Vec<Probe> = execute(2, move |c| {
        let r = read_checkpoint(c, &dir2).expect("restore");
        assert!(r.stats.redistributed && r.stats.elements_moved == 0);
        probe(c, &r.dm)
    });
    let _ = std::fs::remove_dir_all(&dir);

    let mut seen: Vec<Probe> = (0..5)
        .map(|s| fold(STAGES[s], per_rank.iter().map(|r| r[s]).collect()))
        .collect();
    seen.push(fold(STAGES[5], restored));
    for (s, (got, want)) in seen.iter().zip(&GOLDEN).enumerate() {
        assert_eq!(
            got, want,
            "stage '{}' moved; all stages: {seen:?}",
            STAGES[s]
        );
    }
}

/// What the world sent in one halo sync: `Comm::traffic` deltas `(on_node_msgs,
/// on_node_bytes, off_node_msgs, off_node_bytes)`, then per movement phase
/// (`overlap.reduce`, `overlap.bcast`) the obs rows summed over ranks:
/// `(frames received, order-free digest of them, bytes sent)`.
type SyncProbe = ([u64; 4], [(u64, u64, u64); 2]);

/// Re-taken when bcast/reduce frames began to ship values only (see the
/// module docs); the values before that were taken on the commit *before*
/// the share map was compiled into sorted arrays and `Field` went dense.
const GOLDEN_SYNC: SyncProbe = (
    [8, 6840, 12, 5100],
    [
        (10, 15099324249021370447, 5970),
        (10, 17131722472166660347, 5970),
    ],
);

/// One depth-2 `Reduction::Add` sync of a 3-component vertex field: its
/// reduce and bcast frames — the link list's digest, a presence byte, then
/// `ncomp × f64` per link in the compiled `(dim, root index)` order — must
/// not move.
#[test]
fn halo_sync_frames_unmoved() {
    let machine = MachineModel::new(2, 2);
    let per_rank: Vec<SyncProbe> = execute_opts(machine, WorldOpts::default(), |c| {
        let serial = tri_rect(12, 12, 1.0, 1.0);
        let labels = partition_mesh(&serial, 4);
        let mut dm = distribute(c, PartMap::contiguous(4, 4), &serial, &labels);
        let mut ov = Overlap::from_dist(&dm).with_bridge(Dim::Vertex);
        assert!(ov.grow(c, &mut dm, 2) > 0);
        let mut fields = dist_field(&dm, &Field::new("u", FieldShape::Linear, 3));
        for (part, f) in dm.parts.iter().zip(&mut fields) {
            for v in part.mesh.iter(Dim::Vertex) {
                let x = (part.gid_of(v) % 29) as f64 * 0.25 + part.id as f64;
                f.set(v, &[x, -x, 0.5 * x]);
            }
        }
        c.barrier();
        let before = c.traffic();
        let _ = (take_traffic(), take_digests());
        c.barrier();
        fields.sync(c, &dm, &ov, Reduction::Add);
        c.barrier();
        let t = c.traffic();
        let (sent, seen) = (take_traffic(), take_digests());
        let phase = |name: &str| {
            let rows = seen.iter().filter(|r| r.phase.contains(name));
            let (frames, digest) = rows.fold((0u64, 0u64), |(n, h), r| {
                (n + r.frames, h.wrapping_add(r.digest))
            });
            let sent = sent.iter().filter(|r| r.phase.contains(name));
            (frames, digest, sent.map(|r| r.totals.bytes).sum())
        };
        (
            [
                t.on_node_msgs - before.on_node_msgs,
                t.on_node_bytes - before.on_node_bytes,
                t.off_node_msgs - before.off_node_msgs,
                t.off_node_bytes - before.off_node_bytes,
            ],
            [phase("overlap.reduce"), phase("overlap.bcast")],
        )
    });
    let mut got: SyncProbe = (per_rank[0].0, [(0, 0, 0); 2]);
    for (rank, (traffic, phases)) in per_rank.iter().enumerate() {
        assert_eq!(*traffic, got.0, "rank {rank} disagrees on world traffic");
        for (sum, p) in got.1.iter_mut().zip(phases) {
            *sum = (sum.0 + p.0, sum.1.wrapping_add(p.1), sum.2 + p.2);
        }
    }
    assert_eq!(got, GOLDEN_SYNC, "a halo sync frame moved");
}
