//! pumi-check — the distributed invariant checker.
//!
//! Every §II algorithm (migration, ghosting, ParMA, checkpoint/restart)
//! maintains a web of cross-part links: remote-copy lists, residence sets,
//! ownership, ghost records, global ids. A bug in any phased exchange shows
//! up as a *silently* broken link that only bites many calls later.
//! [`check_dist`] verifies the full link structure collectively, via the
//! same phased exchanges the algorithms themselves use:
//!
//! * **serial mesh validity** — every part's mesh passes
//!   [`Mesh::verify`](pumi_mesh::Mesh::verify): live, reciprocal up/down
//!   adjacency, no two live entities of one dimension over one vertex set,
//!   sides bounding at most two elements, no repeated vertex in an entity,
//! * **remote-copy symmetry** — if part A lists `(B, i)` for an entity,
//!   part B's entity at `i` is live, carries the same global id, and lists
//!   A back with A's index,
//! * **single ownership** — every copy of a shared entity computes the same
//!   owner, and residence sets agree on all copies,
//! * **residence/ghost agreement** — ghost copies stay out of residence
//!   sets; holder-side ghost records and owner-side `ghosted_to` records
//!   mirror each other exactly,
//! * **global-id uniqueness** — no two distinct owned entities of one
//!   dimension share a gid anywhere in the world (verified by hashing gids
//!   to a home part),
//! * **overlap closure** — every closure entity of a ghost copy is itself a
//!   ghost or a part-boundary copy, so the overlap region is downward
//!   closed and a star-forest sync reaches every dof a ghost element
//!   touches,
//! * **share symmetry** — [`check_overlap`] verifies the star-forest itself:
//!   every leaf's root reference is mirrored by an entry in that root's
//!   leaf list, and vice versa, in both directions of a phased exchange,
//! * **field-copy coherence** — [`check_field_sync`] verifies that after an
//!   `Insert`-mode `Field::sync` every copy is bit-identical to its owner,
//! * **part placement** — every part is hosted exactly once, on the rank
//!   its part map names, inside the machine model — the invariant
//!   node-major part numbering (`PartMap::contiguous` on a node-major
//!   partition) and on-/off-node boundary accounting rely on. Audited
//!   first: the other families route by the part map, so a broken
//!   placement stops the check before they run.
//!
//! Violations come back as typed [`CheckError`]s naming part, dimension and
//! gid — the checker never asserts or panics on a broken mesh, so test
//! harnesses and the chaos scheduler can observe failures precisely.
//! [`check_dist`] is collective: the violation count is all-reduced, so
//! every rank returns `Err` together even when the broken link is remote.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pumi_core::overlap::Overlap;
use pumi_core::part::NO_GID;
use pumi_core::{DistMesh, Part, PartExchange};
use pumi_field::DistField;
use pumi_pcu::{Comm, MsgError, MsgReader};
use pumi_util::{Dim, FxHashMap, GlobalId, MeshEnt, PartId};

/// The argument [`check_dist`] takes. It has no fields: every call runs
/// every invariant family. The type stays so that callers naming
/// `CheckOpts::all()` keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckOpts {}

impl CheckOpts {
    /// Every check enabled (the only setting there is).
    pub fn all() -> CheckOpts {
        CheckOpts {}
    }
}

/// One broken invariant, naming the part, dimension and gid involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// `peer` lists this part as holding a copy, but this part does not
    /// list `peer` back (or lists a different index).
    AsymmetricRemote {
        /// Part that detected the violation (the accused holder).
        part: PartId,
        /// Part whose remote-copy list points here.
        peer: PartId,
        /// Entity dimension.
        dim: u8,
        /// Global id of the entity.
        gid: GlobalId,
    },
    /// A remote-copy link points at a dead local slot or an entity with a
    /// different gid.
    BadRemoteIndex {
        /// Part holding the bad target slot.
        part: PartId,
        /// Part whose link is broken.
        peer: PartId,
        /// Entity dimension.
        dim: u8,
        /// Gid the peer expected at that slot.
        gid: GlobalId,
        /// Local index the peer pointed at.
        index: u32,
    },
    /// Two copies of one entity disagree about the owner.
    OwnerDisagreement {
        /// Part that detected the violation.
        part: PartId,
        /// The peer copy.
        peer: PartId,
        /// Entity dimension.
        dim: u8,
        /// Global id.
        gid: GlobalId,
        /// Owner computed here.
        ours: PartId,
        /// Owner computed by the peer.
        theirs: PartId,
    },
    /// Two copies of one entity disagree about the residence set.
    ResidenceMismatch {
        /// Part that detected the violation.
        part: PartId,
        /// The peer copy.
        peer: PartId,
        /// Entity dimension.
        dim: u8,
        /// Global id.
        gid: GlobalId,
    },
    /// Two distinct owned entities of the same dimension share a gid.
    DuplicateGid {
        /// Entity dimension.
        dim: u8,
        /// The duplicated global id.
        gid: GlobalId,
        /// Parts claiming ownership (sorted).
        parts: Vec<PartId>,
    },
    /// A holder has a ghost copy its owner does not acknowledge in
    /// `ghosted_to`.
    GhostUnacknowledged {
        /// The owner part that is missing the record.
        part: PartId,
        /// The holder of the unacknowledged ghost.
        holder: PartId,
        /// Entity dimension.
        dim: u8,
        /// Global id.
        gid: GlobalId,
    },
    /// A ghost link (either direction) points at a dead slot, a different
    /// gid, or a non-ghost entity.
    GhostLinkBroken {
        /// Part that detected the broken link.
        part: PartId,
        /// The other end of the link.
        peer: PartId,
        /// Entity dimension.
        dim: u8,
        /// Global id.
        gid: GlobalId,
    },
    /// A ghost copy's closure contains an entity that is neither a ghost
    /// nor a part-boundary copy: the overlap region is not downward closed,
    /// so an overlap sync would skip a dof this ghost element touches.
    OverlapClosureBroken {
        /// Part holding the broken ghost.
        part: PartId,
        /// Dimension of the ghost entity.
        dim: u8,
        /// Global id of the ghost entity.
        gid: GlobalId,
        /// Dimension of the offending closure entity.
        sub_dim: u8,
        /// Global id of the offending closure entity.
        sub_gid: GlobalId,
    },
    /// A star-forest share link is not mirrored by the other end: a leaf's
    /// root reference has no matching entry in the root's leaf list (or a
    /// root's leaf entry points at a slot that is dead, renamed, or not a
    /// leaf of this root).
    ShareAsymmetric {
        /// Part that detected the violation.
        part: PartId,
        /// The other end of the unmirrored link.
        peer: PartId,
        /// Entity dimension.
        dim: u8,
        /// Global id.
        gid: GlobalId,
    },
    /// A copy's field value differs from its owner's after a sync.
    FieldCopyMismatch {
        /// The copy-holding part.
        part: PartId,
        /// The owner part.
        owner: PartId,
        /// Entity dimension.
        dim: u8,
        /// Global id.
        gid: GlobalId,
    },
    /// A part is hosted on a different rank than the part map places it on.
    PartMisplaced {
        /// The misplaced part.
        part: PartId,
        /// Rank actually hosting it.
        rank: u32,
        /// Rank the part map names.
        mapped: u32,
    },
    /// A part id is hosted by zero ranks or by more than one rank.
    PartMultiplicity {
        /// The part in question.
        part: PartId,
        /// How many ranks host it.
        count: u64,
    },
    /// The part map places a part on a rank outside the machine model.
    PartOffMachine {
        /// The part in question.
        part: PartId,
        /// The out-of-range rank.
        rank: u32,
        /// Ranks the machine actually has.
        nranks: u32,
    },
    /// A purely local structure is broken (missing gid, stale gid index,
    /// self-referential remote list, shared element, ghost in residence).
    LocalCorrupt {
        /// The part with the broken structure.
        part: PartId,
        /// Entity dimension.
        dim: u8,
        /// Global id (or [`NO_GID`] when that is the problem).
        gid: GlobalId,
        /// What is wrong.
        what: &'static str,
    },
    /// A part's serial mesh fails [`Mesh::verify`](pumi_mesh::Mesh::verify)
    /// (dead or one-way adjacency, two live entities of one dimension over
    /// one vertex set, a side bounding more than two elements, a repeated
    /// vertex).
    MeshInvalid {
        /// The part whose mesh is broken.
        part: PartId,
        /// The violation, as `Mesh::verify` words it.
        what: String,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use CheckError::*;
        match self {
            AsymmetricRemote { part, peer, dim, gid } => write!(
                f,
                "part {part}: part {peer} lists us for dim {dim} gid {gid}, but we do not list it back"
            ),
            BadRemoteIndex { part, peer, dim, gid, index } => write!(
                f,
                "part {part}: remote link from part {peer} (dim {dim}, gid {gid}) points at bad local index {index}"
            ),
            OwnerDisagreement { part, peer, dim, gid, ours, theirs } => write!(
                f,
                "part {part}: owner disagreement with part {peer} on dim {dim} gid {gid}: {ours} here vs {theirs} there"
            ),
            ResidenceMismatch { part, peer, dim, gid } => write!(
                f,
                "part {part}: residence set differs from part {peer}'s on dim {dim} gid {gid}"
            ),
            DuplicateGid { dim, gid, parts } => write!(
                f,
                "dim {dim} gid {gid} owned by multiple parts: {parts:?}"
            ),
            GhostUnacknowledged { part, holder, dim, gid } => write!(
                f,
                "part {part}: ghost copy on part {holder} of dim {dim} gid {gid} is not in ghosted_to"
            ),
            GhostLinkBroken { part, peer, dim, gid } => write!(
                f,
                "part {part}: ghost link with part {peer} broken for dim {dim} gid {gid}"
            ),
            OverlapClosureBroken { part, dim, gid, sub_dim, sub_gid } => write!(
                f,
                "part {part}: ghost dim {dim} gid {gid} has closure entity dim {sub_dim} gid {sub_gid} that is neither ghost nor shared"
            ),
            ShareAsymmetric { part, peer, dim, gid } => write!(
                f,
                "part {part}: star-forest share with part {peer} on dim {dim} gid {gid} is not mirrored"
            ),
            FieldCopyMismatch { part, owner, dim, gid } => write!(
                f,
                "part {part}: field copy of dim {dim} gid {gid} differs from owner part {owner}"
            ),
            PartMisplaced { part, rank, mapped } => write!(
                f,
                "part {part} hosted on rank {rank} but the part map places it on rank {mapped}"
            ),
            PartMultiplicity { part, count } => write!(
                f,
                "part {part} hosted by {count} ranks (must be exactly 1)"
            ),
            PartOffMachine { part, rank, nranks } => write!(
                f,
                "part {part} mapped to rank {rank}, outside the {nranks}-rank machine"
            ),
            LocalCorrupt { part, dim, gid, what } => {
                write!(f, "part {part}: {what} (dim {dim}, gid {gid})")
            }
            MeshInvalid { part, what } => write!(f, "part {part}: invalid mesh: {what}"),
        }
    }
}

/// What a passing [`check_dist`] examined, summed over the world.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckStats {
    /// Live non-ghost entities examined.
    pub entities: u64,
    /// Cross-part links verified (remote copies + ghost records).
    pub links: u64,
}

/// The collective failure report: this rank's local violations plus the
/// world-wide count (every rank fails together, even when all broken links
/// are remote).
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// Violations detected on this rank (possibly empty).
    pub errors: Vec<CheckError>,
    /// Total violations across all ranks.
    pub world_violations: u64,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} invariant violation(s) world-wide, {} on this rank:",
            self.world_violations,
            self.errors.len()
        )?;
        for e in self.errors.iter().take(16) {
            writeln!(f, "  {e}")?;
        }
        if self.errors.len() > 16 {
            writeln!(f, "  ... and {} more", self.errors.len() - 16)?;
        }
        Ok(())
    }
}

impl std::error::Error for CheckFailure {}

fn dim8(e: MeshEnt) -> u8 {
    e.dim().as_usize() as u8
}

/// Purely local structure checks: serial mesh validity, gid presence,
/// gid-index coherence, self-free remote lists, unshared elements, ghosts
/// outside residence.
fn check_local(part: &Part, elem_dim: usize, errs: &mut Vec<CheckError>, stats: &mut CheckStats) {
    for what in part.mesh.verify() {
        errs.push(CheckError::MeshInvalid {
            part: part.id,
            what,
        });
    }
    for d in Dim::ALL {
        for e in part.mesh.iter(d) {
            stats.entities += 1;
            let gid = part.gid_of(e);
            if gid == NO_GID {
                errs.push(CheckError::LocalCorrupt {
                    part: part.id,
                    dim: dim8(e),
                    gid: NO_GID,
                    what: "entity without gid",
                });
                continue;
            }
            if part.find_gid(d, gid) != Some(e) {
                errs.push(CheckError::LocalCorrupt {
                    part: part.id,
                    dim: dim8(e),
                    gid,
                    what: "gid index does not resolve back to entity",
                });
            }
            if part.remotes_of(e).iter().any(|&(q, _)| q == part.id) {
                errs.push(CheckError::LocalCorrupt {
                    part: part.id,
                    dim: dim8(e),
                    gid,
                    what: "remote-copy list contains this part",
                });
            }
            if d.as_usize() == elem_dim && part.is_shared(e) {
                errs.push(CheckError::LocalCorrupt {
                    part: part.id,
                    dim: dim8(e),
                    gid,
                    what: "element is shared (elements may only be ghosted)",
                });
            }
            if part.is_ghost(e) && part.is_shared(e) {
                errs.push(CheckError::LocalCorrupt {
                    part: part.id,
                    dim: dim8(e),
                    gid,
                    what: "ghost copy has remote copies (ghosts stay out of residence)",
                });
            }
        }
    }
}

/// Overlap closure-completeness, purely local: a ghost element arrives with
/// its full closure, and every closure entity either becomes a ghost itself
/// or dedups against an existing copy — which, because the sender also holds
/// a real copy, must be part-boundary shared. So on a healthy mesh every
/// closure entity of every ghost is a ghost or a shared copy; anything else
/// means a sync through the overlap would miss a dof the ghost touches.
fn check_overlap_closure(part: &Part, errs: &mut Vec<CheckError>, stats: &mut CheckStats) {
    for g in part.ghost_entities() {
        for sub in part.mesh.closure(g) {
            if sub == g {
                continue;
            }
            stats.links += 1;
            if !part.is_ghost(sub) && !part.is_shared(sub) {
                errs.push(CheckError::OverlapClosureBroken {
                    part: part.id,
                    dim: dim8(g),
                    gid: part.gid_of(g),
                    sub_dim: dim8(sub),
                    sub_gid: part.gid_of(sub),
                });
            }
        }
    }
}

/// Remote-copy symmetry / ownership / residence agreement: each part sends,
/// for every shared non-ghost entity and every listed remote `(q, ridx)`,
/// its own gid/index/owner/residence; `q` verifies everything against the
/// entity at `ridx`.
fn check_symmetry(comm: &Comm, dm: &DistMesh, errs: &mut Vec<CheckError>, stats: &mut CheckStats) {
    let mut ex = PartExchange::new(comm, &dm.map);
    for part in &dm.parts {
        for (e, remotes) in part.shared_entities() {
            if part.is_ghost(e) {
                continue;
            }
            let res = part.residence(e);
            for &(q, ridx) in remotes {
                let w = ex.to(part.id, q);
                w.put_u8(dim8(e));
                w.put_u64(part.gid_of(e));
                w.put_u32(ridx); // where I think q holds its copy
                w.put_u32(e.index()); // where q should point back to
                w.put_u32(part.owner(e));
                w.put_u32_slice(&res);
            }
        }
    }
    let mut frames = ex.finish();
    frames.sort_by_key(|&(from, to, _)| (to, from));
    for (from, to, mut r) in frames {
        let part = dm.part(to);
        let mut run = |r: &mut MsgReader| -> Result<(), MsgError> {
            while !r.is_done() {
                let db = r.try_get_u8()?;
                let d = Dim::try_from_u8(db).ok_or(MsgError::bad_enum("dimension", db))?;
                let gid = r.try_get_u64()?;
                let my_idx = r.try_get_u32()?;
                let their_idx = r.try_get_u32()?;
                let owner = r.try_get_u32()?;
                let res: Vec<PartId> = r.try_get_u32_slice()?;
                stats.links += 1;
                let e = MeshEnt::new(d, my_idx);
                if !part.mesh.is_live(e) || part.gid_of(e) != gid {
                    errs.push(CheckError::BadRemoteIndex {
                        part: part.id,
                        peer: from,
                        dim: db,
                        gid,
                        index: my_idx,
                    });
                    continue;
                }
                if !part
                    .remotes_of(e)
                    .iter()
                    .any(|&(q, i)| q == from && i == their_idx)
                {
                    errs.push(CheckError::AsymmetricRemote {
                        part: part.id,
                        peer: from,
                        dim: db,
                        gid,
                    });
                }
                if part.owner(e) != owner {
                    errs.push(CheckError::OwnerDisagreement {
                        part: part.id,
                        peer: from,
                        dim: db,
                        gid,
                        ours: part.owner(e),
                        theirs: owner,
                    });
                }
                if part.residence(e) != res {
                    errs.push(CheckError::ResidenceMismatch {
                        part: part.id,
                        peer: from,
                        dim: db,
                        gid,
                    });
                }
            }
            Ok(())
        };
        run(&mut r).unwrap_or_else(|e| panic!("corrupt check frame {from}->{to}: {e}"));
    }
}

/// Ghost agreement, both directions: holders announce each ghost to its
/// source (which must list the holder in `ghosted_to`), and owners announce
/// each `ghosted_to` record to its holder (which must hold a matching ghost
/// sourced here).
fn check_ghosts(comm: &Comm, dm: &DistMesh, errs: &mut Vec<CheckError>, stats: &mut CheckStats) {
    let mut ex = PartExchange::new(comm, &dm.map);
    for part in &dm.parts {
        // holder -> owner: (0, dim, gid, owner_idx, my_idx)
        for g in part.ghost_entities() {
            let (src, src_idx) = part.ghost_source(g).expect("listed ghost has a source");
            let w = ex.to(part.id, src);
            w.put_u8(0);
            w.put_u8(dim8(g));
            w.put_u64(part.gid_of(g));
            w.put_u32(src_idx);
            w.put_u32(g.index());
        }
        // owner -> holder: (1, dim, gid, holder_idx)
        for (e, holders) in part.ghost_entities_owner_side() {
            for &(q, their_idx) in holders {
                let w = ex.to(part.id, q);
                w.put_u8(1);
                w.put_u8(dim8(e));
                w.put_u64(part.gid_of(e));
                w.put_u32(their_idx);
            }
        }
    }
    let mut frames = ex.finish();
    frames.sort_by_key(|&(from, to, _)| (to, from));
    for (from, to, mut r) in frames {
        let part = dm.part(to);
        let mut run = |r: &mut MsgReader| -> Result<(), MsgError> {
            while !r.is_done() {
                let tag = r.try_get_u8()?;
                let db = r.try_get_u8()?;
                Dim::try_from_u8(db).ok_or(MsgError::bad_enum("dimension", db))?;
                let gid = r.try_get_u64()?;
                stats.links += 1;
                match tag {
                    0 => {
                        // A holder claims a ghost of our entity at my_idx.
                        let my_idx = r.try_get_u32()?;
                        let holder_idx = r.try_get_u32()?;
                        let e = MeshEnt::new(Dim::from_usize(db as usize), my_idx);
                        if !part.mesh.is_live(e) || part.gid_of(e) != gid {
                            errs.push(CheckError::GhostLinkBroken {
                                part: part.id,
                                peer: from,
                                dim: db,
                                gid,
                            });
                        } else if !part
                            .ghosted_to(e)
                            .iter()
                            .any(|&(q, i)| q == from && i == holder_idx)
                        {
                            errs.push(CheckError::GhostUnacknowledged {
                                part: part.id,
                                holder: from,
                                dim: db,
                                gid,
                            });
                        }
                    }
                    1 => {
                        // An owner claims we hold a ghost at their_idx.
                        let my_idx = r.try_get_u32()?;
                        let e = MeshEnt::new(Dim::from_usize(db as usize), my_idx);
                        let ok = part.mesh.is_live(e)
                            && part.gid_of(e) == gid
                            && part.ghost_source(e).map(|(q, _)| q) == Some(from);
                        if !ok {
                            errs.push(CheckError::GhostLinkBroken {
                                part: part.id,
                                peer: from,
                                dim: db,
                                gid,
                            });
                        }
                    }
                    b => return Err(MsgError::bad_enum("ghost check record", b)),
                }
            }
            Ok(())
        };
        run(&mut r).unwrap_or_else(|e| panic!("corrupt ghost check frame {from}->{to}: {e}"));
    }
}

/// What a host on another rank than the part map names adds to its part's
/// slot of the placement audit's allreduce, on top of the host count in
/// the low bits: every rank then learns of a misplacement anywhere from
/// the one reduction the audit makes anyway.
const MISPLACED: u64 = 1 << 32;

/// Part-placement topology audit: every local part must be the one the part
/// map names for this rank, every part id must be hosted exactly once
/// world-wide, and the map must not point outside the machine model the
/// world runs on. This is the invariant node-major placements (and any
/// consumer of `MachineModel::node_of`) rely on to reason about
/// on- vs off-node boundaries. Collective (one vector allreduce); the
/// map-level findings are reported by rank 0 only, so world counts stay
/// deduplicated. Fails with the world-wide number of violations, the same
/// on every rank. Every check that routes frames by the part map runs this
/// first, so a misplaced map fails with placement errors instead of frames
/// delivered to the wrong rank.
fn check_topology(comm: &Comm, dm: &DistMesh) -> Result<(), CheckFailure> {
    let mut errs = Vec::new();
    let machine = comm.machine();
    let nparts = dm.map.nparts();
    let mut held = vec![0u64; nparts];
    for part in &dm.parts {
        held[part.id as usize] += 1;
        let mapped = dm.map.rank_of(part.id);
        if mapped != comm.rank() {
            held[part.id as usize] += MISPLACED;
            errs.push(CheckError::PartMisplaced {
                part: part.id,
                rank: comm.rank() as u32,
                mapped: mapped as u32,
            });
        }
    }
    let held = comm.allreduce_sum_u64_vec(&held);
    let mut world = 0;
    for (p, &h) in held.iter().enumerate() {
        world += h / MISPLACED;
        let count = h % MISPLACED;
        if count != 1 {
            world += 1;
            if comm.rank() == 0 {
                errs.push(CheckError::PartMultiplicity {
                    part: p as PartId,
                    count,
                });
            }
        }
    }
    for p in 0..nparts {
        let rank = dm.map.rank_of(p as PartId);
        if rank >= machine.nranks() {
            world += 1;
            if comm.rank() == 0 {
                errs.push(CheckError::PartOffMachine {
                    part: p as PartId,
                    rank: rank as u32,
                    nranks: machine.nranks() as u32,
                });
            }
        }
    }
    if world > 0 {
        pumi_obs::metrics::counter_add("check.violations", world);
        return Err(CheckFailure {
            errors: errs,
            world_violations: world,
        });
    }
    Ok(())
}

/// Global-id uniqueness: every owned non-ghost entity's `(dim, gid)` is
/// hashed to a home part (`gid % nparts`); the home sees every ownership
/// claim and reports any `(dim, gid)` claimed by more than one part.
fn check_gid_uniqueness(comm: &Comm, dm: &DistMesh, errs: &mut Vec<CheckError>) {
    let nparts = dm.map.nparts() as u64;
    let mut ex = PartExchange::new(comm, &dm.map);
    for part in &dm.parts {
        for d in Dim::ALL {
            for e in part.mesh.iter(d) {
                if part.is_ghost(e) || !part.is_owned(e) {
                    continue;
                }
                let gid = part.gid_of(e);
                let home = (gid % nparts) as PartId;
                let w = ex.to(part.id, home);
                w.put_u8(dim8(e));
                w.put_u64(gid);
                w.put_u32(part.id);
            }
        }
    }
    // (dim, gid) -> sorted owner claims; local slot -> claims map.
    let mut claims: FxHashMap<PartId, FxHashMap<(u8, GlobalId), Vec<PartId>>> =
        FxHashMap::default();
    for (from, to, mut r) in ex.finish() {
        let mut run = |r: &mut MsgReader| -> Result<(), MsgError> {
            while !r.is_done() {
                let db = r.try_get_u8()?;
                Dim::try_from_u8(db).ok_or(MsgError::bad_enum("dimension", db))?;
                let gid = r.try_get_u64()?;
                let claimer = r.try_get_u32()?;
                claims
                    .entry(to)
                    .or_default()
                    .entry((db, gid))
                    .or_default()
                    .push(claimer);
            }
            Ok(())
        };
        run(&mut r).unwrap_or_else(|e| panic!("corrupt gid check frame {from}->{to}: {e}"));
    }
    let mut dups: Vec<CheckError> = Vec::new();
    for by_key in claims.into_values() {
        for ((dim, gid), mut parts) in by_key {
            if parts.len() > 1 {
                parts.sort_unstable();
                dups.push(CheckError::DuplicateGid { dim, gid, parts });
            }
        }
    }
    // Canonical report order regardless of hash-map iteration.
    dups.sort_by_key(|e| match e {
        CheckError::DuplicateGid { dim, gid, .. } => (*dim, *gid),
        _ => unreachable!(),
    });
    errs.extend(dups);
}

/// Run every invariant check over the distributed mesh.
/// Collective: all ranks must call; the violation count is all-reduced so
/// all ranks return `Ok`/`Err` together.
///
/// The placement audit runs first. Every other exchange routes by
/// `dm.map`, so when the map disagrees with where the parts live the call
/// returns the placement errors alone, before any of them runs.
///
/// # Examples
///
/// ```
/// use pumi_check::{check_dist, CheckOpts};
/// use pumi_core::{distribute, PartMap};
/// use pumi_util::PartId;
///
/// pumi_pcu::execute(2, |c| {
///     let serial = pumi_meshgen::tri_rect(4, 4, 1.0, 1.0);
///     let d = serial.elem_dim_t();
///     let mut labels = vec![0 as PartId; serial.index_space(d)];
///     for e in serial.iter(d) {
///         labels[e.idx()] = u32::from(serial.centroid(e)[0] >= 0.5) as PartId;
///     }
///     let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
///     let stats = check_dist(c, &dm, CheckOpts::all()).expect("fresh mesh is valid");
///     assert!(stats.links > 0);
/// });
/// ```
pub fn check_dist(
    comm: &Comm,
    dm: &DistMesh,
    _opts: CheckOpts,
) -> Result<CheckStats, CheckFailure> {
    let _span = pumi_obs::span!("check");
    pumi_obs::metrics::counter_add("check.calls", 1);
    let elem_dim = dm.parts.first().map(|p| p.mesh.elem_dim()).unwrap_or(2);
    let mut errs = Vec::new();
    let mut stats = CheckStats::default();
    let fail = |errors, world| {
        pumi_obs::metrics::counter_add("check.violations", world);
        Err(CheckFailure {
            errors,
            world_violations: world,
        })
    };

    check_topology(comm, dm)?;
    for part in &dm.parts {
        check_local(part, elem_dim, &mut errs, &mut stats);
        check_overlap_closure(part, &mut errs, &mut stats);
    }
    check_symmetry(comm, dm, &mut errs, &mut stats);
    check_ghosts(comm, dm, &mut errs, &mut stats);
    check_gid_uniqueness(comm, dm, &mut errs);

    let world = comm.allreduce_sum_u64(errs.len() as u64);
    if world > 0 {
        return fail(errs, world);
    }
    Ok(CheckStats {
        entities: comm.allreduce_sum_u64(stats.entities),
        links: comm.allreduce_sum_u64(stats.links),
    })
}

/// Verify star-forest share symmetry for an [`Overlap`]: every leaf
/// announces its root reference to the root part (which must list the leaf
/// back, at the right index, with the right ghost flag), and every root
/// announces each leaf entry to the leaf part (which must hold a matching
/// leaf record pointing here). Collective; returns the world-wide number of
/// share links verified.
///
/// The overlap must describe `dm` (same local part slots); call
/// [`Overlap::rebuild_shares`] after mutating share records through the raw
/// [`Part`] API. Like [`check_dist`], it runs the placement audit first and
/// returns the placement errors alone when the part map is wrong.
///
/// # Examples
///
/// ```
/// use pumi_check::check_overlap;
/// use pumi_core::overlap::Overlap;
/// use pumi_core::{distribute, PartMap};
/// use pumi_util::PartId;
///
/// pumi_pcu::execute(2, |c| {
///     let serial = pumi_meshgen::tri_rect(4, 4, 1.0, 1.0);
///     let d = serial.elem_dim_t();
///     let mut labels = vec![0 as PartId; serial.index_space(d)];
///     for e in serial.iter(d) {
///         labels[e.idx()] = u32::from(serial.centroid(e)[0] >= 0.5) as PartId;
///     }
///     let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
///     let mut ov = Overlap::from_dist(&dm);
///     ov.grow(c, &mut dm, 1);
///     let links = check_overlap(c, &dm, &ov).expect("grown overlap is symmetric");
///     assert!(links > 0);
/// });
/// ```
pub fn check_overlap(comm: &Comm, dm: &DistMesh, ov: &Overlap) -> Result<u64, CheckFailure> {
    let _span = pumi_obs::span!("check.overlap");
    assert_eq!(ov.num_slots(), dm.parts.len(), "overlap/mesh slot mismatch");
    check_topology(comm, dm)?;
    let mut ex = PartExchange::new(comm, &dm.map);
    for (slot, part) in dm.parts.iter().enumerate() {
        debug_assert_eq!(ov.part_id(slot), part.id);
        // leaf -> root: (0, dim, gid, root_idx, my_idx, ghost)
        for (e, root) in ov.leaves_sorted(slot) {
            let w = ex.to(part.id, root.part);
            w.put_u8(0);
            w.put_u8(dim8(e));
            w.put_u64(part.gid_of(e));
            w.put_u32(root.index);
            w.put_u32(e.index());
            w.put_u8(root.ghost as u8);
        }
        // root -> leaf: (1, dim, gid, leaf_idx, my_idx, ghost)
        for (e, shares) in ov.roots_sorted(slot) {
            for s in shares {
                let w = ex.to(part.id, s.part);
                w.put_u8(1);
                w.put_u8(dim8(e));
                w.put_u64(part.gid_of(e));
                w.put_u32(s.index);
                w.put_u32(e.index());
                w.put_u8(s.ghost as u8);
            }
        }
    }
    let mut errs = Vec::new();
    let mut links = 0u64;
    let mut frames = ex.finish();
    frames.sort_by_key(|&(from, to, _)| (to, from));
    for (from, to, mut r) in frames {
        let slot = dm.map.slot_of(to);
        let part = &dm.parts[slot];
        let mut run = |r: &mut MsgReader| -> Result<(), MsgError> {
            while !r.is_done() {
                let tag = r.try_get_u8()?;
                let db = r.try_get_u8()?;
                let d = Dim::try_from_u8(db).ok_or(MsgError::bad_enum("dimension", db))?;
                let gid = r.try_get_u64()?;
                let my_idx = r.try_get_u32()?;
                let their_idx = r.try_get_u32()?;
                let ghost = r.try_get_u8()? != 0;
                links += 1;
                let e = MeshEnt::new(d, my_idx);
                let live = part.mesh.is_live(e) && part.gid_of(e) == gid;
                let mirrored = live
                    && match tag {
                        // A leaf claims we are its root: our leaf list for
                        // `e` must name it at its index with its ghost flag.
                        0 => ov
                            .root_shares(slot, e)
                            .iter()
                            .any(|s| s.part == from && s.index == their_idx && s.ghost == ghost),
                        // A root claims we hold a leaf of its entity.
                        1 => ov.leaf_root(slot, e).is_some_and(|s| {
                            s.part == from && s.index == their_idx && s.ghost == ghost
                        }),
                        b => return Err(MsgError::bad_enum("share check record", b)),
                    };
                if !mirrored {
                    errs.push(CheckError::ShareAsymmetric {
                        part: part.id,
                        peer: from,
                        dim: db,
                        gid,
                    });
                }
            }
            Ok(())
        };
        run(&mut r).unwrap_or_else(|e| panic!("corrupt share check frame {from}->{to}: {e}"));
    }
    let world = comm.allreduce_sum_u64(errs.len() as u64);
    if world > 0 {
        pumi_obs::metrics::counter_add("check.violations", world);
        return Err(CheckFailure {
            errors: errs,
            world_violations: world,
        });
    }
    Ok(comm.allreduce_sum_u64(links))
}

/// Verify field-copy coherence: every shared node's value on every copy is
/// bit-identical to the owner's (the post-condition of an `Insert`-mode
/// `Field::sync`). Collective; returns the world-wide number of
/// values compared. Like [`check_dist`], it runs the placement audit first
/// and returns the placement errors alone when the part map is wrong.
pub fn check_field_sync(
    comm: &Comm,
    dm: &DistMesh,
    fields: &DistField,
) -> Result<u64, CheckFailure> {
    let _span = pumi_obs::span!("check.field");
    assert_eq!(fields.len(), dm.parts.len());
    check_topology(comm, dm)?;
    let node_dims: &[Dim] = fields
        .first()
        .map(|f| f.shape.node_dims(dm.parts[0].mesh.elem_dim()))
        .unwrap_or_default();
    let mut ex = PartExchange::new(comm, &dm.map);
    for (slot, part) in dm.parts.iter().enumerate() {
        for (e, remotes) in part.shared_entities() {
            if !node_dims.contains(&e.dim()) || !part.is_owned(e) {
                continue;
            }
            let Some(v) = fields[slot].get(e) else {
                continue;
            };
            for &(q, ridx) in remotes {
                let w = ex.to(part.id, q);
                w.put_u8(dim8(e));
                w.put_u64(part.gid_of(e));
                w.put_u32(ridx);
                w.put_f64_slice(v);
            }
        }
    }
    let mut errs = Vec::new();
    let mut compared = 0u64;
    let mut frames = ex.finish();
    frames.sort_by_key(|&(from, to, _)| (to, from));
    for (from, to, mut r) in frames {
        let slot = dm.map.slot_of(to);
        let part = &dm.parts[slot];
        let mut run = |r: &mut MsgReader| -> Result<(), MsgError> {
            while !r.is_done() {
                let db = r.try_get_u8()?;
                let d = Dim::try_from_u8(db).ok_or(MsgError::bad_enum("dimension", db))?;
                let gid = r.try_get_u64()?;
                let idx = r.try_get_u32()?;
                let want = r.try_get_f64_slice()?;
                compared += 1;
                let e = MeshEnt::new(d, idx);
                let same = fields[slot].get(e).is_some_and(|have| {
                    have.len() == want.len()
                        && have
                            .iter()
                            .zip(&want)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                });
                if !same {
                    errs.push(CheckError::FieldCopyMismatch {
                        part: part.id,
                        owner: from,
                        dim: db,
                        gid,
                    });
                }
            }
            Ok(())
        };
        run(&mut r).unwrap_or_else(|e| panic!("corrupt field check frame {from}->{to}: {e}"));
    }
    let world = comm.allreduce_sum_u64(errs.len() as u64);
    if world > 0 {
        return Err(CheckFailure {
            errors: errs,
            world_violations: world,
        });
    }
    Ok(comm.allreduce_sum_u64(compared))
}
