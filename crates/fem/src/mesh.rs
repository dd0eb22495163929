//! Structured Cartesian meshes of quadrilaterals (2D) / hexahedra (3D).
//!
//! BLAST supports unstructured curvilinear meshes; the paper's benchmarks
//! (Sedov, triple-point) all run on box domains meshed with structured
//! quads/hexes, which is what we implement. *Curvilinearity is still fully
//! present*: the zone geometry is carried by the high-order H1 kinematic
//! space (positions are FE functions), so zones deform into curved shapes as
//! the Lagrangian mesh moves — only the initial mesh and its connectivity
//! are Cartesian.

/// A structured `D`-dimensional Cartesian mesh of a box domain.
#[derive(Clone, Debug)]
pub struct CartMesh<const D: usize> {
    zones_per_axis: [usize; D],
    domain_min: [f64; D],
    domain_max: [f64; D],
}

impl<const D: usize> CartMesh<D> {
    /// Meshes `[min, max]` with `zones_per_axis[d]` zones along axis `d`.
    pub fn new(zones_per_axis: [usize; D], domain_min: [f64; D], domain_max: [f64; D]) -> Self {
        for d in 0..D {
            assert!(zones_per_axis[d] >= 1, "axis {d} needs >= 1 zone");
            assert!(domain_max[d] > domain_min[d], "axis {d} has empty extent");
        }
        Self { zones_per_axis, domain_min, domain_max }
    }

    /// Meshes the unit box `[0,1]^D` with `n` zones per axis.
    pub fn unit(n: usize) -> Self {
        Self::new([n; D], [0.0; D], [1.0; D])
    }

    /// Zones along each axis.
    pub fn zones_per_axis(&self) -> [usize; D] {
        self.zones_per_axis
    }

    /// Lower domain corner.
    pub fn domain_min(&self) -> [f64; D] {
        self.domain_min
    }

    /// Total zone count.
    pub fn num_zones(&self) -> usize {
        self.zones_per_axis.iter().product()
    }

    /// Zone size along each axis (uniform initial spacing).
    pub fn zone_size(&self) -> [f64; D] {
        let mut h = [0.0; D];
        for d in 0..D {
            h[d] = (self.domain_max[d] - self.domain_min[d]) / self.zones_per_axis[d] as f64;
        }
        h
    }

    /// Converts a zone multi-index to its linear index (axis 0 fastest).
    pub fn zone_index(&self, mi: [usize; D]) -> usize {
        let mut flat = 0;
        for d in (0..D).rev() {
            debug_assert!(mi[d] < self.zones_per_axis[d]);
            flat = flat * self.zones_per_axis[d] + mi[d];
        }
        flat
    }

    /// Converts a linear zone index to its multi-index.
    pub fn zone_multi_index(&self, mut flat: usize) -> [usize; D] {
        let mut mi = [0usize; D];
        for d in 0..D {
            mi[d] = flat % self.zones_per_axis[d];
            flat /= self.zones_per_axis[d];
        }
        mi
    }

    /// Lower corner coordinates of zone `mi` in the *initial* configuration.
    pub fn zone_origin(&self, mi: [usize; D]) -> [f64; D] {
        let h = self.zone_size();
        let mut o = [0.0; D];
        for d in 0..D {
            o[d] = self.domain_min[d] + mi[d] as f64 * h[d];
        }
        o
    }

    /// Uniformly refines: doubles the zone count along every axis (the
    /// h-refinement used by the weak-scaling study, where "one refinement
    /// level will make the domain size 8x bigger" in 3D).
    pub fn refine(&self) -> Self {
        let mut z = self.zones_per_axis;
        z.iter_mut().for_each(|n| *n *= 2);
        Self { zones_per_axis: z, domain_min: self.domain_min, domain_max: self.domain_max }
    }

    /// Centroid of zone `mi` in the initial configuration.
    pub fn zone_center(&self, flat: usize) -> [f64; D] {
        let mi = self.zone_multi_index(flat);
        let h = self.zone_size();
        let o = self.zone_origin(mi);
        let mut c = [0.0; D];
        for d in 0..D {
            c[d] = o[d] + 0.5 * h[d];
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_counts() {
        let m = CartMesh::<3>::new([4, 5, 6], [0.0; 3], [1.0, 2.0, 3.0]);
        assert_eq!(m.num_zones(), 120);
        assert_eq!(m.zone_size(), [0.25, 0.4, 0.5]);
    }

    #[test]
    fn index_roundtrip() {
        let m = CartMesh::<3>::new([3, 4, 5], [0.0; 3], [1.0; 3]);
        for z in 0..m.num_zones() {
            assert_eq!(m.zone_index(m.zone_multi_index(z)), z);
        }
        // Axis 0 fastest.
        assert_eq!(m.zone_multi_index(1), [1, 0, 0]);
        assert_eq!(m.zone_multi_index(3), [0, 1, 0]);
        assert_eq!(m.zone_multi_index(12), [0, 0, 1]);
    }

    #[test]
    fn refine_doubles_each_axis() {
        let m = CartMesh::<3>::unit(16);
        let r = m.refine();
        assert_eq!(r.num_zones(), 8 * m.num_zones());
        // Weak scaling: one refinement = 8x the 3D domain.
    }

    #[test]
    fn zone_origin_and_center() {
        let m = CartMesh::<2>::new([2, 2], [0.0, 0.0], [2.0, 2.0]);
        assert_eq!(m.zone_origin([1, 0]), [1.0, 0.0]);
        assert_eq!(m.zone_center(m.zone_index([1, 1])), [1.5, 1.5]);
    }

    #[test]
    fn unit_mesh_2d() {
        let m = CartMesh::<2>::unit(8);
        assert_eq!(m.num_zones(), 64);
        assert_eq!(m.zone_size(), [0.125, 0.125]);
    }

    #[test]
    #[should_panic(expected = "empty extent")]
    fn inverted_domain_rejected() {
        CartMesh::<2>::new([2, 2], [0.0, 1.0], [1.0, 0.5]);
    }
}
