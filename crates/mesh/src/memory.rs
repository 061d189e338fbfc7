//! Memory accounting (§II-D: "performance measurement: run-time and memory
//! usage counter").
//!
//! Reports the bytes each storage family of the representation occupies —
//! the quantity the paper's hybrid work targets ("maximizes usable shared
//! memory") and the constraint adaptation partitions must satisfy ("the
//! resulting adapted mesh fits within memory").
//!
//! There is no index family: entities are found from their vertices through
//! the upward lists, so the families below are all a mesh holds.

use crate::mesh::Mesh;
use pumi_util::{Dim, InlineVec};

/// Byte usage of a mesh, by storage family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshMemory {
    /// Topology enums, liveness flags, free lists.
    pub bookkeeping: usize,
    /// Vertex coordinates.
    pub coords: usize,
    /// Downward adjacency + vertex lists.
    pub downward: usize,
    /// Upward adjacency lists (including heap spill).
    pub upward: usize,
    /// Geometric classification.
    pub classification: usize,
    /// Tag value arrays: per tag and dimension, slots × value width plus
    /// the presence mask.
    pub tags: usize,
}

impl MeshMemory {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.bookkeeping
            + self.coords
            + self.downward
            + self.upward
            + self.classification
            + self.tags
    }
}

impl Mesh {
    /// Estimate the bytes held by this mesh's storage (capacities, not just
    /// live entities — what the allocator actually committed).
    pub fn memory_usage(&self) -> MeshMemory {
        let mut m = MeshMemory::default();
        for d in Dim::ALL {
            let n = self.index_space(d);
            // topo (1) + alive (1) + class (4) per slot.
            m.bookkeeping += n * 2;
            m.classification += n * 4;
            if d == Dim::Vertex {
                m.coords += n * 24;
            }
            if d.as_usize() > 0 {
                // verts + down strides (u32 each), see mesh.rs strides.
                let (vs, ds) = match d {
                    Dim::Edge => (2, 2),
                    Dim::Face => (4, 4),
                    _ => (8, 6),
                };
                m.downward += n * 4 * (vs + ds);
            }
            if d.as_usize() < 3 {
                // InlineVec head per entity plus heap spill.
                m.upward += n * std::mem::size_of::<InlineVec>();
                for e in self.iter(d) {
                    let len = self.up_count(e);
                    if len > pumi_util::inline::INLINE_CAP {
                        m.upward += len * 4;
                    }
                }
            }
        }
        m.tags = self.tags().memory_bytes();
        m
    }
}

#[cfg(test)]
mod tests {
    use crate::mesh::Mesh;

    #[test]
    fn empty_mesh_is_small() {
        let m = Mesh::new(2);
        assert_eq!(m.memory_usage().total(), 0);
    }

    #[test]
    fn memory_grows_with_mesh_and_families_fill() {
        // Build with the crate-local API to avoid a meshgen dev-dependency
        // cycle: a fan of triangles.
        let mut m = Mesh::new(2);
        let c = m.add_vertex([0.0; 3], crate::mesh::NO_GEOM).index();
        let ring: Vec<u32> = (0..24)
            .map(|i| {
                let a = i as f64 / 24.0 * std::f64::consts::TAU;
                m.add_vertex([a.cos(), a.sin(), 0.0], crate::mesh::NO_GEOM)
                    .index()
            })
            .collect();
        for i in 0..24 {
            m.add_element(
                crate::topology::Topology::Triangle,
                &[c, ring[i], ring[(i + 1) % 24]],
                crate::mesh::NO_GEOM,
            );
        }
        let mem = m.memory_usage();
        assert!(mem.coords > 0);
        assert!(mem.downward > 0);
        assert!(mem.upward > 0);
        assert!(mem.total() > 1000);
        // The hub vertex has 24 up-edges: spilled inline vec counted.
        assert!(mem.upward > 25 * std::mem::size_of::<pumi_util::InlineVec>());

        // Doubling the fan roughly doubles memory.
        let t1 = mem.total();
        let ring2: Vec<u32> = (0..24)
            .map(|i| {
                let a = (i as f64 + 0.5) / 24.0 * std::f64::consts::TAU;
                m.add_vertex([2.0 * a.cos(), 2.0 * a.sin(), 0.0], crate::mesh::NO_GEOM)
                    .index()
            })
            .collect();
        for i in 0..24 {
            m.add_element(
                crate::topology::Topology::Triangle,
                &[ring[i], ring2[i], ring[(i + 1) % 24]],
                crate::mesh::NO_GEOM,
            );
        }
        let t2 = m.memory_usage().total();
        assert!(t2 > t1 * 3 / 2, "{t1} -> {t2}");

        // A scalar Double tag on every face: 8 bytes + 1 presence byte per
        // face slot, nothing for the dimensions it was never set on.
        assert_eq!(m.memory_usage().tags, 0);
        let w = m.tags_mut().declare("w", pumi_util::TagKind::Double, 1);
        for f in m.snapshot(pumi_util::Dim::Face) {
            m.tags_mut().set_dbl(w, f, 1.0);
        }
        let mem = m.memory_usage();
        assert_eq!(mem.tags, 48 * 9);
        assert_eq!(mem.total(), t2 + mem.tags);
    }
}
