//! Finite element spaces: continuous H1 (kinematic) and discontinuous L2
//! (thermodynamic) scalar spaces on a Cartesian mesh.
//!
//! The kinematic space carries velocity and positions (vector fields, one H1
//! scalar space per component); the thermodynamic space carries the specific
//! internal energy. The H1 space has *shared* DOFs across zone faces — the
//! reason `M_V` is global/sparse and needs communication in the MPI version
//! (Fig. 10) — while L2 DOFs are zone-local, making `M_E` block diagonal.

use crate::mesh::CartMesh;
use crate::tensor_basis::TensorBasis;

/// Continuous `Q_k` scalar space on a structured mesh.
///
/// Global DOFs form a Gauss-Lobatto lattice: along each axis there are
/// `k * zones + 1` nodes (zone-interface nodes are shared). DOF coordinates
/// are non-uniform inside each zone (Lobatto spacing).
#[derive(Clone, Debug)]
pub struct H1Space<const D: usize> {
    mesh: CartMesh<D>,
    order: usize,
    basis: TensorBasis<D>,
    nodes_per_axis: [usize; D],
    /// Flattened zone -> global DOF map, `ndof_per_zone` entries per zone.
    zone_dofs: Vec<usize>,
}

impl<const D: usize> H1Space<D> {
    /// Builds the order-`k` continuous space on `mesh`.
    pub fn new(mesh: CartMesh<D>, order: usize) -> Self {
        assert!(order >= 1, "H1 space needs order >= 1");
        let basis = TensorBasis::<D>::h1(order);
        let zpa = mesh.zones_per_axis();
        let mut nodes_per_axis = [0usize; D];
        for d in 0..D {
            nodes_per_axis[d] = order * zpa[d] + 1;
        }
        let ndof_zone = basis.ndof();
        let nz = mesh.num_zones();
        let mut zone_dofs = Vec::with_capacity(nz * ndof_zone);
        for z in 0..nz {
            let mi = mesh.zone_multi_index(z);
            for l in 0..ndof_zone {
                let li = basis.dof_multi_index(l);
                // Global lattice coordinates of this local node.
                let mut flat = 0usize;
                for d in (0..D).rev() {
                    let g = mi[d] * order + li[d];
                    flat = flat * nodes_per_axis[d] + g;
                }
                zone_dofs.push(flat);
            }
        }
        Self { mesh, order, basis, nodes_per_axis, zone_dofs }
    }

    /// The mesh.
    pub fn mesh(&self) -> &CartMesh<D> {
        &self.mesh
    }

    /// Polynomial order `k`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The tensor-product basis.
    pub fn basis(&self) -> &TensorBasis<D> {
        &self.basis
    }

    /// Scalar DOFs per zone, `(k+1)^D`.
    pub fn ndof_per_zone(&self) -> usize {
        self.basis.ndof()
    }

    /// Total scalar DOFs.
    pub fn num_dofs(&self) -> usize {
        self.nodes_per_axis.iter().product()
    }

    /// Global lattice extents.
    pub fn nodes_per_axis(&self) -> [usize; D] {
        self.nodes_per_axis
    }

    /// Global DOF indices of zone `z` (local ordering = basis ordering).
    pub fn zone_dofs(&self, z: usize) -> &[usize] {
        let n = self.ndof_per_zone();
        &self.zone_dofs[z * n..(z + 1) * n]
    }

    /// [`Self::zone_dofs`] of every zone, zone-major.
    pub fn all_zone_dofs(&self) -> &[usize] {
        &self.zone_dofs
    }

    /// Multi-index of a global DOF on the lattice.
    pub fn dof_multi_index(&self, mut flat: usize) -> [usize; D] {
        let mut mi = [0usize; D];
        for d in 0..D {
            mi[d] = flat % self.nodes_per_axis[d];
            flat /= self.nodes_per_axis[d];
        }
        mi
    }

    /// Initial (t = 0) coordinates of every global DOF, component-major:
    /// `out[c * num_dofs + i]` is component `c` of node `i`.
    ///
    /// This vector *is* the initial `x` unknown of the motion equation
    /// `dx/dt = v`.
    pub fn initial_coords(&self) -> Vec<f64> {
        let n = self.num_dofs();
        let h = self.mesh.zone_size();
        let dmin = self.mesh.domain_min();
        let lob = self.basis.basis_1d().nodes();
        let k = self.order;
        let mut out = vec![0.0; D * n];
        for i in 0..n {
            let mi = self.dof_multi_index(i);
            for d in 0..D {
                let zone = (mi[d] / k).min(self.mesh.zones_per_axis()[d] - 1);
                let local = mi[d] - zone * k;
                out[d * n + i] = dmin[d] + h[d] * (zone as f64 + lob[local]);
            }
        }
        out
    }

    /// Global DOFs lying on the `axis`-min or `axis`-max boundary face.
    ///
    /// These are the DOFs whose `axis` velocity component is constrained to
    /// zero by the reflecting-wall boundary conditions of the Sedov and
    /// triple-point problems.
    pub fn boundary_dofs(&self, axis: usize) -> Vec<usize> {
        assert!(axis < D);
        let last = self.nodes_per_axis[axis] - 1;
        (0..self.num_dofs())
            .filter(|&i| {
                let mi = self.dof_multi_index(i);
                mi[axis] == 0 || mi[axis] == last
            })
            .collect()
    }
}

/// Discontinuous `Q_k` scalar space: DOFs are zone-local.
#[derive(Clone, Debug)]
pub struct L2Space<const D: usize> {
    mesh: CartMesh<D>,
    order: usize,
    basis: TensorBasis<D>,
}

impl<const D: usize> L2Space<D> {
    /// Builds the order-`k` discontinuous space on `mesh` (`k >= 0`).
    pub fn new(mesh: CartMesh<D>, order: usize) -> Self {
        let basis = TensorBasis::<D>::l2(order);
        Self { mesh, order, basis }
    }

    /// The mesh.
    pub fn mesh(&self) -> &CartMesh<D> {
        &self.mesh
    }

    /// Polynomial order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The tensor-product basis.
    pub fn basis(&self) -> &TensorBasis<D> {
        &self.basis
    }

    /// DOFs per zone, `(k+1)^D`.
    pub fn ndof_per_zone(&self) -> usize {
        self.basis.ndof()
    }

    /// Total DOFs (`zones * ndof_per_zone`).
    pub fn num_dofs(&self) -> usize {
        self.mesh.num_zones() * self.ndof_per_zone()
    }

    /// Global index of local DOF `l` in zone `z`.
    #[inline]
    pub fn zone_dof(&self, z: usize, l: usize) -> usize {
        z * self.ndof_per_zone() + l
    }

    /// Global DOF range of zone `z`.
    pub fn zone_range(&self, z: usize) -> std::ops::Range<usize> {
        let n = self.ndof_per_zone();
        z * n..(z + 1) * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h1_dof_counts_2d() {
        // 2 x 2 zones at Q2: lattice (2*2+1)^2 = 25 shared DOFs.
        let s = H1Space::<2>::new(CartMesh::unit(2), 2);
        assert_eq!(s.num_dofs(), 25);
        assert_eq!(s.ndof_per_zone(), 9);
    }

    #[test]
    fn h1_shared_face_dofs() {
        let s = H1Space::<2>::new(CartMesh::unit(2), 1);
        // Zones 0 (at [0,0]) and 1 (at [1,0]) share the x = 0.5 edge: the
        // right edge of zone 0 equals the left edge of zone 1.
        let d0 = s.zone_dofs(0);
        let d1 = s.zone_dofs(1);
        // Q1 local ordering: axis0 fastest -> local 1 and 3 are the right
        // edge of zone 0; local 0 and 2 the left edge of zone 1.
        assert_eq!(d0[1], d1[0]);
        assert_eq!(d0[3], d1[2]);
    }

    #[test]
    fn h1_all_zone_dofs_in_range() {
        let s = H1Space::<3>::new(CartMesh::unit(3), 2);
        for z in 0..s.mesh().num_zones() {
            for &d in s.zone_dofs(z) {
                assert!(d < s.num_dofs());
            }
        }
    }

    #[test]
    fn h1_every_dof_touched() {
        let s = H1Space::<2>::new(CartMesh::unit(3), 3);
        let mut seen = vec![false; s.num_dofs()];
        for z in 0..s.mesh().num_zones() {
            for &d in s.zone_dofs(z) {
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn initial_coords_corners() {
        let s = H1Space::<2>::new(CartMesh::new([2, 2], [0.0, 0.0], [2.0, 4.0]), 2);
        let n = s.num_dofs();
        let x = s.initial_coords();
        // DOF 0 is the domain lower corner; last DOF the upper corner.
        assert_eq!((x[0], x[n]), (0.0, 0.0));
        assert_eq!((x[n - 1], x[2 * n - 1]), (2.0, 4.0));
    }

    #[test]
    fn initial_coords_interior_nodes_are_lobatto() {
        // One zone, Q2 in 1D-like check along axis 0: midpoint node at 0.5
        // (3-point Lobatto has midpoint).
        let s = H1Space::<2>::new(CartMesh::unit(1), 2);
        let x = s.initial_coords();
        let n = s.num_dofs();
        // Lattice is 3x3, node (1, 0) has x-coordinate 0.5.
        assert!((x[1] - 0.5).abs() < 1e-14);
        let _ = n;
    }

    #[test]
    fn initial_coords_match_zone_node_positions() {
        // The coordinates of a zone's DOFs must equal the reference-node
        // positions mapped by the affine initial zone mapping.
        let s = H1Space::<3>::new(CartMesh::new([2, 1, 1], [0.0; 3], [2.0, 1.0, 1.0]), 3);
        let coords = s.initial_coords();
        let n = s.num_dofs();
        for z in 0..2 {
            let mi = s.mesh().zone_multi_index(z);
            let origin = s.mesh().zone_origin(mi);
            let h = s.mesh().zone_size();
            for (l, &g) in s.zone_dofs(z).iter().enumerate() {
                let rf = s.basis().node(l);
                for d in 0..3 {
                    let expect = origin[d] + h[d] * rf[d];
                    let got = coords[d * n + g];
                    assert!((got - expect).abs() < 1e-13, "z={z} l={l} d={d}");
                }
            }
        }
    }

    #[test]
    fn boundary_dofs_axis_faces() {
        let s = H1Space::<2>::new(CartMesh::unit(2), 1);
        // 3x3 lattice: axis-0 boundary = left+right columns = 6 DOFs.
        let b0 = s.boundary_dofs(0);
        assert_eq!(b0.len(), 6);
        let b1 = s.boundary_dofs(1);
        assert_eq!(b1.len(), 6);
        // Corners belong to both.
        assert!(b0.contains(&0) && b1.contains(&0));
    }

    #[test]
    fn l2_zone_local_numbering() {
        let s = L2Space::<3>::new(CartMesh::unit(2), 1);
        assert_eq!(s.ndof_per_zone(), 8);
        assert_eq!(s.num_dofs(), 64);
        assert_eq!(s.zone_dof(3, 5), 29);
        assert_eq!(s.zone_range(2), 16..24);
    }

    #[test]
    fn l2_order_zero() {
        let s = L2Space::<2>::new(CartMesh::unit(4), 0);
        assert_eq!(s.ndof_per_zone(), 1);
        assert_eq!(s.num_dofs(), 16);
    }

    #[test]
    fn paper_dof_counts_q4q3_3d() {
        // "375 x 512 for Q4-Q3 finite elements in 3D": 5^3 * 3 = 375 vector
        // kinematic DOFs per zone; thermodynamic 4^3 = 64 per zone.
        let mesh = CartMesh::<3>::unit(2);
        let kin = H1Space::new(mesh.clone(), 4);
        let thermo = L2Space::new(mesh, 3);
        assert_eq!(3 * kin.ndof_per_zone(), 375);
        assert_eq!(thermo.ndof_per_zone(), 64);
    }
}
