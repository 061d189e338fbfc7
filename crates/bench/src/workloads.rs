//! Workload construction for the experiment binaries.

use pumi_core::{distribute, DistMesh, PartMap};
use pumi_geom::builders::VesselSpec;
use pumi_mesh::Mesh;
use pumi_meshgen::{jitter, vessel_tet, wing_tet};
use pumi_pcu::Comm;
use pumi_util::PartId;

/// Scale parameters for the AAA (Table II) workload.
#[derive(Debug, Clone, Copy)]
pub struct AaaScale {
    /// Cross-section lattice resolution.
    pub nr: usize,
    /// Axial layers.
    pub nz: usize,
    /// Total parts.
    pub nparts: usize,
    /// Ranks (processes); parts per process = nparts / nranks.
    pub nranks: usize,
}

impl AaaScale {
    /// The default scaled run: 240k tets on 64 parts over 4 ranks
    /// (16 parts/process; the paper used 32 parts/process on 512 cores).
    /// The part size (~3750 tets) is chosen so per-part surface/volume
    /// statistics are in the regime of the paper's 8177-tet parts.
    pub fn default_scale() -> AaaScale {
        AaaScale {
            nr: 20,
            nz: 100,
            nparts: 64,
            nranks: 4,
        }
    }

    /// Tet count of this scale.
    pub fn elements(&self) -> usize {
        6 * self.nr * self.nr * self.nz
    }
}

/// Build the AAA-proxy vessel mesh (jittered so entity ratios vary by
/// part the way a real CFD mesh's do).
pub fn aaa_mesh(nr: usize, nz: usize) -> Mesh {
    let spec = VesselSpec::aaa();
    let mut m = vessel_tet(spec, nr, nz);
    jitter(&mut m, 0.25, 20120901);
    m
}

/// [`aaa_mesh`] at an [`AaaScale`].
pub fn aaa_scaled(s: AaaScale) -> Mesh {
    aaa_mesh(s.nr, s.nz)
}

/// Build the ONERA-M6-proxy wing box mesh.
pub fn wing_mesh(n: usize) -> Mesh {
    let mut m = wing_tet(n, (n * 2) / 3, n / 2);
    jitter(&mut m, 0.2, 19790401);
    m
}

/// Distribute a serial mesh by element labels onto `nparts` parts over
/// `comm`'s ranks (block-contiguous part→rank map).
pub fn distribute_labels(comm: &Comm, serial: &Mesh, labels: &[PartId], nparts: usize) -> DistMesh {
    let map = PartMap::contiguous(nparts, comm.nranks());
    distribute(comm, map, serial, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ~9k tets, 16 parts, 2 ranks.
    const SMALL: AaaScale = AaaScale {
        nr: 6,
        nz: 42,
        nparts: 16,
        nranks: 2,
    };

    #[test]
    fn scales_are_consistent() {
        assert_eq!(SMALL.elements(), 6 * 6 * 6 * 42);
        assert!(AaaScale::default_scale().elements() > 100_000);
    }

    #[test]
    fn aaa_test_mesh_is_valid() {
        let m = aaa_scaled(SMALL);
        assert_eq!(m.num_elems(), SMALL.elements());
        m.assert_valid();
    }
}
