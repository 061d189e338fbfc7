//! Entity handles and identifier types.
//!
//! A mesh entity is "uniquely identified by its handle and denoted by
//! `M^d_i` where `d` is dimension (0 ≤ d ≤ 3) and `i` is an id" (§II).
//! [`MeshEnt`] packs both into a single `u32`: the top 2 bits hold the
//! dimension, the low 30 bits the per-dimension index. Handles are local to a
//! part; cross-part identity uses 64-bit [`GlobalId`]s.

use std::fmt;

/// Topological dimension of a mesh or model entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Dim {
    /// 0-dimensional entity (vertex).
    Vertex = 0,
    /// 1-dimensional entity (edge).
    Edge = 1,
    /// 2-dimensional entity (face).
    Face = 2,
    /// 3-dimensional entity (region).
    Region = 3,
}

impl Dim {
    /// All four dimensions in increasing order.
    pub const ALL: [Dim; 4] = [Dim::Vertex, Dim::Edge, Dim::Face, Dim::Region];

    /// Convert a `usize` in `0..=3` to a `Dim`.
    ///
    /// # Panics
    /// Panics if `d > 3`.
    #[inline]
    pub fn from_usize(d: usize) -> Dim {
        match d {
            0 => Dim::Vertex,
            1 => Dim::Edge,
            2 => Dim::Face,
            3 => Dim::Region,
            _ => panic!("invalid dimension {d}"),
        }
    }

    /// Convert a decoded byte to a `Dim`, rejecting unknown codes.
    ///
    /// Deserialization layers use this instead of [`Dim::from_usize`] so a
    /// corrupt frame surfaces as a typed error instead of a panic.
    #[inline]
    pub fn try_from_u8(d: u8) -> Option<Dim> {
        match d {
            0 => Some(Dim::Vertex),
            1 => Some(Dim::Edge),
            2 => Some(Dim::Face),
            3 => Some(Dim::Region),
            _ => None,
        }
    }

    /// The dimension as a `usize` index.
    #[inline]
    pub fn as_usize(self) -> usize {
        self as usize
    }

    /// The next dimension up, if any.
    #[inline]
    pub fn up(self) -> Option<Dim> {
        match self {
            Dim::Vertex => Some(Dim::Edge),
            Dim::Edge => Some(Dim::Face),
            Dim::Face => Some(Dim::Region),
            Dim::Region => None,
        }
    }

    /// The next dimension down, if any.
    #[inline]
    pub fn down(self) -> Option<Dim> {
        match self {
            Dim::Vertex => None,
            Dim::Edge => Some(Dim::Vertex),
            Dim::Face => Some(Dim::Edge),
            Dim::Region => Some(Dim::Face),
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dim::Vertex => "vtx",
            Dim::Edge => "edge",
            Dim::Face => "face",
            Dim::Region => "rgn",
        };
        f.write_str(s)
    }
}

/// A part identifier. Parts are numbered `0..N` across the whole partition
/// (§II-A: "a part ... uniquely identified by its handle or id, denoted by
/// `P_i`, 0 ≤ i < N").
pub type PartId = u32;

/// A globally unique entity identifier, stable across migration.
///
/// Two rules give them: a bootstrap serial index (below 2^40), carried in
/// by the rows a part is built from, or — for an entity built without a
/// row — the content gid of its vertices' gids, which has the top bit set.
/// Global ids travel with the entity; they are the key used to match
/// part-boundary copies.
pub type GlobalId = u64;

const DIM_SHIFT: u32 = 30;
const IDX_MASK: u32 = (1 << DIM_SHIFT) - 1;

/// Sentinel "no entity" handle (dimension bits set to vertex, max index).
pub const INVALID_ENT: MeshEnt = MeshEnt(u32::MAX);

/// A packed handle to a mesh entity: 2 bits of dimension, 30 bits of index.
///
/// `MeshEnt` is `Copy`, 4 bytes, and hashable in one multiply with the
/// in-repo Fx hasher, which keeps adjacency structures compact and queries
/// cache-friendly (the paper's O(1)-adjacency completeness requirement makes
/// handle arithmetic the hot path of every algorithm).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MeshEnt(pub u32);

impl MeshEnt {
    /// Create a handle from a dimension and per-dimension index.
    #[inline]
    pub fn new(dim: Dim, index: u32) -> MeshEnt {
        debug_assert!(index < IDX_MASK, "entity index overflow: {index}");
        MeshEnt(((dim as u32) << DIM_SHIFT) | index)
    }

    /// Create a vertex handle.
    #[inline]
    pub fn vertex(index: u32) -> MeshEnt {
        MeshEnt::new(Dim::Vertex, index)
    }

    /// Create an edge handle.
    #[inline]
    pub fn edge(index: u32) -> MeshEnt {
        MeshEnt::new(Dim::Edge, index)
    }

    /// Create a face handle.
    #[inline]
    pub fn face(index: u32) -> MeshEnt {
        MeshEnt::new(Dim::Face, index)
    }

    /// Create a region handle.
    #[inline]
    pub fn region(index: u32) -> MeshEnt {
        MeshEnt::new(Dim::Region, index)
    }

    /// The entity's topological dimension.
    #[inline]
    pub fn dim(self) -> Dim {
        Dim::from_usize((self.0 >> DIM_SHIFT) as usize)
    }

    /// The entity's per-dimension index.
    #[inline]
    pub fn index(self) -> u32 {
        self.0 & IDX_MASK
    }

    /// The index as `usize`, for direct storage access.
    #[inline]
    pub fn idx(self) -> usize {
        self.index() as usize
    }

    /// Whether this is the invalid sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != INVALID_ENT
    }
}

impl fmt::Debug for MeshEnt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_valid() {
            return f.write_str("M<invalid>");
        }
        write!(f, "M{}_{}", self.dim().as_usize(), self.index())
    }
}

impl fmt::Display for MeshEnt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (d, i) in [
            (Dim::Vertex, 0u32),
            (Dim::Edge, 1),
            (Dim::Face, 1234567),
            (Dim::Region, IDX_MASK - 1),
        ] {
            let e = MeshEnt::new(d, i);
            assert_eq!(e.dim(), d);
            assert_eq!(e.index(), i);
            assert!(e.is_valid());
        }
    }

    #[test]
    fn invalid_sentinel_is_invalid() {
        assert!(!INVALID_ENT.is_valid());
        // A real region with a large (but legal) index is not the sentinel.
        assert!(MeshEnt::region(IDX_MASK - 1).is_valid());
    }

    #[test]
    fn dim_up_down() {
        assert_eq!(Dim::Vertex.up(), Some(Dim::Edge));
        assert_eq!(Dim::Region.up(), None);
        assert_eq!(Dim::Region.down(), Some(Dim::Face));
        assert_eq!(Dim::Vertex.down(), None);
        for d in Dim::ALL {
            assert_eq!(Dim::from_usize(d.as_usize()), d);
            assert_eq!(Dim::try_from_u8(d.as_usize() as u8), Some(d));
        }
        assert_eq!(Dim::try_from_u8(4), None);
        assert_eq!(Dim::try_from_u8(0xFF), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", MeshEnt::face(4)), "M2_4");
        assert_eq!(format!("{}", Dim::Region), "rgn");
        assert_eq!(format!("{:?}", INVALID_ENT), "M<invalid>");
    }

    #[test]
    fn ordering_groups_by_dimension() {
        // Handles sort by dimension first, then index — iteration orders in
        // sets rely on this.
        assert!(MeshEnt::vertex(999) < MeshEnt::edge(0));
        assert!(MeshEnt::edge(5) < MeshEnt::edge(6));
        assert!(MeshEnt::face(0) < MeshEnt::region(0));
    }
}
