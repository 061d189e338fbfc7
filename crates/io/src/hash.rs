//! Partition-invariant structural hashing.
//!
//! [`struct_hash`] folds every *owned, non-ghost* entity of the distributed
//! mesh — its global id, topology, classification, geometry (coordinates
//! for vertices, vertex gids otherwise) and tag values — into one `u64`.
//! Ownership is unique across parts, so each entity contributes exactly
//! once regardless of how the mesh is partitioned: a checkpoint written on
//! N parts and restored on M ranks must hash identically. The roundtrip
//! property test and the `benchmark` checkpoint workloads both key on this.

use pumi_core::DistMesh;
use pumi_pcu::Comm;
use pumi_util::{Dim, MeshEnt};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }
    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    fn mix_u64(&mut self, x: u64) {
        self.mix(&x.to_le_bytes());
    }
}

/// A global, partition-invariant hash of the distributed mesh's owned
/// entities (structure, geometry, and tag values). Collective.
///
/// # Examples
///
/// The same serial mesh distributed two different ways hashes identically:
///
/// ```
/// use pumi_core::{distribute, PartMap};
/// use pumi_io::struct_hash;
/// use pumi_util::PartId;
///
/// let run = |split_at: f64| {
///     pumi_pcu::execute(2, |c| {
///         let serial = pumi_meshgen::tri_rect(4, 4, 1.0, 1.0);
///         let d = serial.elem_dim_t();
///         let mut labels = vec![0 as PartId; serial.index_space(d)];
///         for e in serial.iter(d) {
///             labels[e.idx()] = u32::from(serial.centroid(e)[0] >= split_at) as PartId;
///         }
///         let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
///         struct_hash(c, &dm)
///     })[0]
/// };
/// assert_eq!(run(0.25), run(0.75));
/// ```
pub fn struct_hash(comm: &Comm, dm: &DistMesh) -> u64 {
    let mut acc = 0u64;
    let mut by_name = Vec::new();
    for part in &dm.parts {
        // Tag names are distinct, so name order is the order of the
        // (name, value) rows the hash is defined over.
        let tm = part.mesh.tags();
        by_name.clear();
        by_name.extend(tm.tags());
        by_name.sort_unstable_by_key(|&t| tm.name(t));
        let elem_dim = part.mesh.elem_dim();
        for d in 0..=elem_dim {
            let dim = Dim::from_usize(d);
            for e in part.mesh.iter(dim) {
                if part.is_ghost(e) || !part.is_owned(e) {
                    continue;
                }
                let mut h = Fnv::new();
                h.mix(&[d as u8, part.mesh.topo(e).to_u8()]);
                h.mix_u64(part.gid_of(e));
                h.mix(&part.mesh.class_of(e).0.to_le_bytes());
                if d == 0 {
                    for x in part.mesh.coords(e) {
                        h.mix_u64(x.to_bits());
                    }
                } else {
                    let (verts, mut vgids) = (part.mesh.verts_of(e), [0u64; 8]);
                    let vgids = &mut vgids[..verts.len()];
                    for (g, &v) in vgids.iter_mut().zip(verts) {
                        *g = part.gid_of(MeshEnt::vertex(v));
                    }
                    vgids.sort_unstable();
                    for &g in vgids.iter() {
                        h.mix_u64(g);
                    }
                }
                for &t in &by_name {
                    if let Some(value) = tm.get_ref(t, e) {
                        h.mix(tm.name(t).as_bytes());
                        value.encode_with(|b| h.mix(b));
                    }
                }
                acc = acc.wrapping_add(h.0 | 1);
            }
        }
    }
    // Per-entity hashes are combined with *wrapping* addition — overflow is
    // expected and fine (the sum is order-free either way), so the checked
    // `allreduce_sum_u64` cannot be used. Gather to rank 0, wrap-sum,
    // broadcast back.
    let le_u64 = |b: &[u8]| {
        let mut le = [0u8; 8];
        le.copy_from_slice(b);
        u64::from_le_bytes(le)
    };
    let gathered = comm.gather_bytes(0, bytes::Bytes::from(acc.to_le_bytes().to_vec()));
    let total = gathered
        .map(|parts| {
            parts
                .iter()
                .fold(0u64, |sum, b| sum.wrapping_add(le_u64(b)))
        })
        .unwrap_or(0);
    let out = comm.bcast_bytes(0, bytes::Bytes::from(total.to_le_bytes().to_vec()));
    le_u64(&out)
}
