//! The owner of the mesh a cavity sweep modifies.
//!
//! [`crate::refine::sweep`] and [`crate::coarsen::sweep`] are the only
//! split loop and the only collapse loop in the crate. They are generic
//! over a [`Host`]: a bare [`Mesh`] (every hook a no-op, so the serial
//! drivers monomorphise to the plain loops) or one part of a distributed
//! mesh (`dist`'s `PartHost`, whose hooks are the part-boundary
//! bookkeeping: residence inheritance, gids, field values, the veto).

use pumi_mesh::Mesh;
use pumi_util::MeshEnt;

/// What a cavity sweep needs from whoever owns the mesh.
pub(crate) trait Host {
    /// What [`Host::before_split`] captured for [`Host::after_split`].
    type Inherit;

    fn mesh(&self) -> &Mesh;
    fn mesh_mut(&mut self) -> &mut Mesh;

    /// `edge` (endpoints `ends`) is about to be split: capture what its
    /// children inherit and drop every record kept under the handles the
    /// split deletes — the freed slots may be reused by the children.
    fn before_split(&mut self, edge: MeshEnt, ends: [u32; 2]) -> Self::Inherit;

    /// `edge` was split at the new vertex `mid`.
    fn after_split(&mut self, inherit: Self::Inherit, ends: [u32; 2], mid: MeshEnt);

    /// May the cavity around the vertex `gone` (every element touching it)
    /// be modified by this host alone?
    fn may_modify_cavity(&self, gone: MeshEnt) -> bool;

    /// A collapse emptied the slots in `deleted` (some may already be
    /// re-occupied) and built the elements in `created`.
    fn after_collapse(&mut self, deleted: &[MeshEnt], created: &[MeshEnt]);
}

impl Host for Mesh {
    type Inherit = ();

    #[inline]
    fn mesh(&self) -> &Mesh {
        self
    }
    #[inline]
    fn mesh_mut(&mut self) -> &mut Mesh {
        self
    }
    #[inline]
    fn before_split(&mut self, _edge: MeshEnt, _ends: [u32; 2]) {}
    #[inline]
    fn after_split(&mut self, (): (), _ends: [u32; 2], _mid: MeshEnt) {}
    #[inline]
    fn may_modify_cavity(&self, _gone: MeshEnt) -> bool {
        true
    }
    #[inline]
    fn after_collapse(&mut self, _deleted: &[MeshEnt], _created: &[MeshEnt]) {}
}
