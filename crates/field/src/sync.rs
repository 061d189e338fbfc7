//! Field synchronization across part boundaries and ghost regions.
//!
//! Shared nodes are duplicated on every residence part, and ghost nodes on
//! every holder part; after an owner-side update or a partial assembly the
//! copies must be reconciled. All of it is one operation now: pick a
//! reduction mode and [`sync_fields`] (or the [`FieldSync::sync`] method)
//! moves the data over the star forest —
//!
//! * [`Reduction::Insert`] — root overwrites every copy (owner → copy push),
//! * [`Reduction::Add`] — copies are summed onto the root, then the sum is
//!   pushed back to every copy: the FE assembly reduction,
//! * [`Reduction::Min`] / [`Reduction::Max`] — componentwise extremum over
//!   all copies, everywhere.
//!
//! A node travels as its `ncomp × f64` alone, in the order both ends
//! compiled into the share map, and the nodes move a run at a time (those
//! of one dimension that a part exchanges with one peer): a run is packed
//! as one strided gather from the field's dense array and applied from one
//! bounds-checked slice of the frame. Values combine at the root in
//! ascending part order, starting from the root's own value, so
//! floating-point results are independent of the chaos scheduler's arrival
//! order.

use crate::field::Field;
use pumi_core::overlap::{Overlap, Reduction, Run, Scope};
use pumi_core::DistMesh;
use pumi_pcu::{Comm, MsgError, MsgReader, MsgWriter};
use pumi_util::{Dim, MeshEnt};

/// One field per local part, aligned with `dm.parts`.
pub type DistField = Vec<Field>;

/// Create an identical field on every local part.
pub fn dist_field(dm: &DistMesh, template: &Field) -> DistField {
    dm.parts.iter().map(|_| template.clone()).collect()
}

/// Synchronize `fields` over the share map `overlap` with reduction `red`.
///
/// With [`Reduction::Insert`] this is a pure root→leaf broadcast. With any
/// combining mode, leaf values are first reduced onto the root, then the
/// combined value is broadcast back so every copy (boundary or ghost)
/// agrees. Entities with no value on a copy simply don't contribute. Only
/// the share links of the field's node dimensions are walked. Collective.
///
/// # Panics
/// Panics if the local fields disagree on `(shape, ncomp)`, or if `overlap`
/// no longer describes `dm` ([`Overlap::assert_describes`]).
pub fn sync_fields(
    comm: &Comm,
    dm: &DistMesh,
    overlap: &Overlap,
    fields: &mut DistField,
    red: Reduction,
) {
    let _span = pumi_obs::span!("field.sync");
    assert_eq!(fields.len(), dm.parts.len());
    overlap.assert_describes(dm);
    let mut dims: &[Dim] = &[];
    if let Some(first) = fields.first() {
        for (slot, f) in fields.iter().enumerate() {
            assert!(
                (f.shape, f.ncomp) == (first.shape, first.ncomp),
                "field '{}' on slot {slot} is {:?} x{}, slot 0 holds {:?} x{}",
                f.name,
                f.shape,
                f.ncomp,
                first.shape,
                first.ncomp
            );
        }
        dims = first.shape.node_dims(dm.parts[0].mesh.elem_dim());
    }
    let has = |f: &DistField, slot: usize, e: MeshEnt| f[slot].get(e).is_some();
    let pack = |f: &DistField, run: Run<'_>, w: &mut MsgWriter| {
        f[run.slot].gather(run.dim, run.valued(), run.count(), w);
    };
    if red != Reduction::Insert {
        let combine = |f: &mut DistField, run: Run<'_>, r: &mut MsgReader| match red {
            Reduction::Add => apply_run(f, run, r, |c, x| c + x),
            Reduction::Min => apply_run(f, run, r, f64::min),
            Reduction::Max => apply_run(f, run, r, f64::max),
            Reduction::Insert => apply_run(f, run, r, |_, x| x),
        };
        let (map, scope) = (&dm.map, Scope::All);
        overlap.reduce(comm, map, scope, dims, fields, has, pack, combine);
    }
    let insert =
        |f: &mut DistField, run: Run<'_>, r: &mut MsgReader| apply_run(f, run, r, |_, x| x);
    overlap.bcast(comm, &dm.map, Scope::All, dims, fields, has, pack, insert);
}

/// Read one run's values from one bounds-checked slice of the frame onto
/// its nodes: `combine(current, incoming)` per component where a node
/// already holds a value, the incoming value where it does not.
fn apply_run(
    fields: &mut DistField,
    run: Run<'_>,
    r: &mut MsgReader,
    combine: impl Fn(f64, f64) -> f64,
) -> Result<(), MsgError> {
    let field = &mut fields[run.slot];
    let bytes = r.try_get_raw(run.count() * field.ncomp * 8)?;
    field.scatter(run.dim, run.valued(), &bytes, combine);
    Ok(())
}

/// The one-signature sync entry point on a distributed field:
/// `fields.sync(comm, dm, &overlap, Reduction::Add)`.
pub trait FieldSync {
    /// Synchronize over `overlap` with reduction `red`; see [`sync_fields`].
    fn sync(&mut self, comm: &Comm, dm: &DistMesh, overlap: &Overlap, red: Reduction);
}

impl FieldSync for DistField {
    fn sync(&mut self, comm: &Comm, dm: &DistMesh, overlap: &Overlap, red: Reduction) {
        sync_fields(comm, dm, overlap, self, red);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{Field, FieldShape};
    use pumi_core::{distribute, migrate, MigrationPlan, PartMap};
    use pumi_meshgen::tri_rect;
    use pumi_pcu::execute;
    use pumi_util::PartId;

    /// A strip cut in two; both parts land on rank 0 in a one-rank world.
    fn two_part_mesh(c: &Comm) -> DistMesh {
        let serial = tri_rect(4, 2, 2.0, 1.0);
        let d = serial.elem_dim_t();
        let mut elem_part = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            elem_part[e.idx()] = if serial.centroid(e)[0] < 1.0 { 0 } else { 1 };
        }
        distribute(c, PartMap::contiguous(2, c.nranks()), &serial, &elem_part)
    }

    // One rank in the two tests below, so the panic the test sees is the
    // guard's and not a peer's "world poisoned".
    #[test]
    #[should_panic(expected = "stale overlap: slot 0 (part 0)")]
    fn overlap_built_before_a_migration_is_refused() {
        execute(1, |c| {
            let mut dm = two_part_mesh(c);
            let ov = Overlap::from_dist(&dm);
            let mut fields = dist_field(&dm, &Field::new("u", FieldShape::Linear, 1));
            let mut plan = MigrationPlan::new();
            plan.send(dm.parts[0].mesh.elems().next().unwrap(), 1);
            let plans = [(0 as PartId, plan)].into_iter().collect();
            migrate(c, &mut dm, &plans);
            fields.sync(c, &dm, &ov, Reduction::Insert);
        });
    }

    #[test]
    #[should_panic(expected = "slot 0 holds Linear x1")]
    fn mixed_local_fields_are_refused() {
        execute(1, |c| {
            let dm = two_part_mesh(c);
            let ov = Overlap::from_dist(&dm);
            let mut fields = vec![
                Field::new("u", FieldShape::Linear, 1),
                Field::new("u", FieldShape::Linear, 3),
            ];
            fields.sync(c, &dm, &ov, Reduction::Add);
        });
    }

    /// Ranks that disagree on `ncomp` cannot be caught up front; the
    /// receiver names the frame instead of tripping `Field::set`'s assert.
    /// Rank 0 reads one component per node of rank 1's two, so the frame
    /// has values left when its list ends.
    #[test]
    #[should_panic(
        expected = "corrupt overlap reduce frame 1->0: undecodable overlap frame \
                    (values past the end of its list)"
    )]
    fn payload_of_the_wrong_length_names_its_frame() {
        execute(2, |c| {
            let dm = two_part_mesh(c);
            let ov = Overlap::from_dist(&dm);
            let ncomp = 1 + c.rank();
            let mut fields = dist_field(&dm, &Field::new("u", FieldShape::Linear, ncomp));
            for (slot, part) in dm.parts.iter().enumerate() {
                fields[slot].fill(&part.mesh, &vec![1.0; ncomp]);
            }
            fields.sync(c, &dm, &ov, Reduction::Add);
        });
    }

    #[test]
    fn insert_propagates_owner_values() {
        execute(2, |c| {
            let dm = two_part_mesh(c);
            let ov = Overlap::from_dist(&dm);
            let template = Field::new("u", FieldShape::Linear, 1);
            let mut fields = dist_field(&dm, &template);
            // Owners write their part id + 1; copies write -1 (stale).
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    let val = if part.is_owned(v) {
                        part.id as f64 + 1.0
                    } else {
                        -1.0
                    };
                    fields[slot].set_scalar(v, val);
                }
            }
            fields.sync(c, &dm, &ov, Reduction::Insert);
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    let want = part.owner(v) as f64 + 1.0;
                    assert_eq!(fields[slot].get_scalar(v), Some(want), "vertex {v:?}");
                }
            }
        });
    }

    #[test]
    fn add_sums_copies() {
        execute(2, |c| {
            let dm = two_part_mesh(c);
            let ov = Overlap::from_dist(&dm);
            let template = Field::new("u", FieldShape::Linear, 1);
            let mut fields = dist_field(&dm, &template);
            // Everyone writes 1 on every local vertex; after Add-sync, a
            // vertex's value equals its residence count on every copy.
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    fields[slot].set_scalar(v, 1.0);
                }
            }
            fields.sync(c, &dm, &ov, Reduction::Add);
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    let want = part.residence(v).len() as f64;
                    assert_eq!(fields[slot].get_scalar(v), Some(want), "vertex {v:?}");
                }
            }
        });
    }

    #[test]
    fn min_max_reduce_everywhere() {
        execute(2, |c| {
            let dm = two_part_mesh(c);
            let ov = Overlap::from_dist(&dm);
            let template = Field::new("u", FieldShape::Linear, 1);
            let mut fields = dist_field(&dm, &template);
            // Each copy writes its part id; Min must yield the smallest
            // residence part, Max the largest, on every copy.
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    fields[slot].set_scalar(v, part.id as f64);
                }
            }
            let mut maxed = fields.clone();
            fields.sync(c, &dm, &ov, Reduction::Min);
            maxed.sync(c, &dm, &ov, Reduction::Max);
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    let res = part.residence(v);
                    let lo = *res.first().unwrap() as f64;
                    let hi = *res.last().unwrap() as f64;
                    assert_eq!(fields[slot].get_scalar(v), Some(lo), "min at {v:?}");
                    assert_eq!(maxed[slot].get_scalar(v), Some(hi), "max at {v:?}");
                }
            }
        });
    }

    #[test]
    fn sync_reaches_ghost_copies() {
        execute(2, |c| {
            let mut dm = two_part_mesh(c);
            let mut ov = Overlap::from_dist(&dm);
            ov.grow(c, &mut dm, 1);
            let template = Field::new("u", FieldShape::Linear, 1);
            let mut fields = dist_field(&dm, &template);
            // Values only on owned, non-ghost vertices: their gid.
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    if part.is_owned(v) && !part.is_ghost(v) {
                        fields[slot].set_scalar(v, part.gid_of(v) as f64);
                    }
                }
            }
            fields.sync(c, &dm, &ov, Reduction::Insert);
            // Every vertex copy — including ghosts — got the root value.
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    assert_eq!(
                        fields[slot].get_scalar(v),
                        Some(part.gid_of(v) as f64),
                        "vertex {v:?} (ghost: {})",
                        part.is_ghost(v)
                    );
                }
            }
        });
    }
}
