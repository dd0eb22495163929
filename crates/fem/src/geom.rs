//! Geometric factors: zone Jacobians and field evaluation at quadrature
//! points.
//!
//! Finite element zones are images of the reference zone under the
//! parametric mapping `Φ_z` whose coefficients are the H1 position DOFs.
//! The Jacobian `J_z = ∇̂Φ_z` varies inside each zone and must be
//! re-evaluated at every quadrature point every time step — this is what the
//! paper's kernel 3 computes (`J_z(q̂_k)` as a batched DGEMM of position
//! coefficients against the gradient table).

use blast_la::{PointTables, SmallMat};

use crate::space::H1Space;
use crate::tensor_basis::BasisTable;

/// Jacobian data of one zone at one quadrature point.
#[derive(Clone, Copy, Debug)]
pub struct GeomAtPoint<const D: usize> {
    /// Jacobian `J_z(q̂)` (columns: derivatives w.r.t. reference axes).
    pub jac: SmallMat<D>,
    /// `det J_z(q̂)` — the local volume element `|J_z|`.
    pub det: f64,
}

/// Evaluates the Jacobian of zone `z` at every tabulated point.
///
/// `x` is the component-major global position vector (`D * num_dofs`);
/// `table` must be the kinematic basis tabulated at the desired points.
/// Results are appended to `out` (cleared first). Per point, the basis
/// functions in order, a zero gradient entry skipped: the chain
/// [`zone_geometry_pass`] runs with the points as lanes.
pub fn zone_jacobians<const D: usize>(
    space: &H1Space<D>,
    table: &BasisTable<D>,
    x: &[f64],
    z: usize,
    out: &mut Vec<GeomAtPoint<D>>,
) {
    let n = space.num_dofs();
    debug_assert_eq!(x.len(), D * n);
    let dofs = space.zone_dofs(z);
    let npts = table.npts();
    out.clear();
    out.reserve(npts);
    for k in 0..npts {
        let mut jac = SmallMat::<D>::zeros();
        for (i, &dof) in dofs.iter().enumerate() {
            for g in 0..D {
                let dw = table.grads[g][(i, k)];
                if dw != 0.0 {
                    for d in 0..D {
                        jac[(d, g)] += x[d * n + dof] * dw;
                    }
                }
            }
        }
        out.push(GeomAtPoint { jac, det: jac_det(&jac) });
    }
}

/// The Jacobian whose column `g` is `v[g]`, and its determinant.
fn geom_at<const D: usize>(v: [[f64; D]; D]) -> GeomAtPoint<D> {
    let jac = SmallMat::from_fn(|d, g| v[g][d]);
    GeomAtPoint { jac, det: jac_det(&jac) }
}

/// [`zone_jacobians`] with the points as vector lanes: the gradient tables
/// packed once ([`PointTables`]) and a buffer for one zone, so a caller
/// that visits zones one at a time and may stop early (the step audit's
/// geometry check) runs at the arithmetic's speed and, once built,
/// allocates nothing. Bitwise [`zone_jacobians`], zone by zone.
#[derive(Clone, Debug)]
pub struct ZoneJacobians<const D: usize> {
    grads: PointTables<D>,
    geom: Vec<GeomAtPoint<D>>,
}

impl<const D: usize> ZoneJacobians<D> {
    /// Packs `table`'s gradients (the kinematic basis at the points).
    pub fn new(table: &BasisTable<D>) -> Self {
        let grads = PointTables::new(std::array::from_fn(|g| &table.grads[g]));
        Self { grads, geom: Vec::with_capacity(table.npts()) }
    }

    /// Zone `z`'s Jacobians of the position field `x`, point by point.
    pub fn zone(&mut self, space: &H1Space<D>, x: &[f64], z: usize) -> &[GeomAtPoint<D>] {
        let n = space.num_dofs();
        debug_assert_eq!(x.len(), D * n);
        let geom = &mut self.geom;
        geom.clear();
        self.grads.eval::<D>(x, n, space.zone_dofs(z), |_, v| geom.push(geom_at(v)));
        geom
    }
}

/// [`zone_jacobians`] and [`eval_h1_vector`] of the position field `x` in
/// every zone, zones in order: `at_zone(z, geometry, positions)`, bitwise
/// those calls. The points are the vector lanes of tables packed once per
/// pass ([`ZoneJacobians`], [`PointTables`], dropped at return), so a pass
/// over the mesh (the solver build's `ρ₀|J₀|`) runs at the arithmetic's
/// speed; the per-zone calls are the point-at-a-time loops, and the pass's
/// oracles.
pub fn zone_geometry_pass<const D: usize>(
    space: &H1Space<D>,
    table: &BasisTable<D>,
    x: &[f64],
    mut at_zone: impl FnMut(usize, &[GeomAtPoint<D>], &[[f64; D]]),
) {
    let n = space.num_dofs();
    let mut jacobians = ZoneJacobians::new(table);
    let values = PointTables::new([&table.values]);
    let mut pos = Vec::with_capacity(table.npts());
    for z in 0..space.mesh().num_zones() {
        pos.clear();
        values.eval::<D>(x, n, space.zone_dofs(z), |_, v| pos.push(v[0]));
        at_zone(z, jacobians.zone(space, x, z), &pos);
    }
}

/// Determinant of a `D x D` matrix for `D` in {2, 3} (generic dispatch so
/// callers stay generic over the spatial dimension).
#[inline]
fn jac_det<const D: usize>(j: &SmallMat<D>) -> f64 {
    match D {
        2 => j[(0, 0)] * j[(1, 1)] - j[(0, 1)] * j[(1, 0)],
        3 => {
            j[(0, 0)] * (j[(1, 1)] * j[(2, 2)] - j[(1, 2)] * j[(2, 1)])
                - j[(0, 1)] * (j[(1, 0)] * j[(2, 2)] - j[(1, 2)] * j[(2, 0)])
                + j[(0, 2)] * (j[(1, 0)] * j[(2, 1)] - j[(1, 1)] * j[(2, 0)])
        }
        _ => unreachable!("only 2D and 3D are supported"),
    }
}

/// Adjugate of a `D x D` matrix for `D` in {2, 3}: `J adj(J) = det(J) I`.
#[cfg(test)]
pub fn jac_adjugate<const D: usize>(j: &SmallMat<D>) -> SmallMat<D> {
    match D {
        2 => SmallMat::from_fn(|i, k| match (i, k) {
            (0, 0) => j[(1, 1)],
            (0, 1) => -j[(0, 1)],
            (1, 0) => -j[(1, 0)],
            _ => j[(0, 0)],
        }),
        3 => SmallMat::from_fn(|i, k| {
            // adj(J)_ik = cofactor C_ki with cyclic-index minors (the cyclic
            // ordering absorbs the checkerboard sign).
            let r = [(k + 1) % 3, (k + 2) % 3];
            let c = [(i + 1) % 3, (i + 2) % 3];
            j[(r[0], c[0])] * j[(r[1], c[1])] - j[(r[0], c[1])] * j[(r[1], c[0])]
        }),
        _ => unreachable!("only 2D and 3D are supported"),
    }
}

/// Evaluates an H1 *vector* field (component-major coefficients `u`) at the
/// tabulated points of zone `z`: `out[k]` receives the field value. Per
/// point, the basis functions in order, a zero value skipped.
pub fn eval_h1_vector<const D: usize>(
    space: &H1Space<D>,
    table: &BasisTable<D>,
    u: &[f64],
    z: usize,
    out: &mut Vec<[f64; D]>,
) {
    let n = space.num_dofs();
    let dofs = space.zone_dofs(z);
    let npts = table.npts();
    out.clear();
    out.resize(npts, [0.0; D]);
    for k in 0..npts {
        let o = &mut out[k];
        for (i, &dof) in dofs.iter().enumerate() {
            let w = table.values[(i, k)];
            if w != 0.0 {
                for d in 0..D {
                    o[d] += u[d * n + dof] * w;
                }
            }
        }
    }
}

/// Evaluates the *reference-space* gradient of an H1 vector field at the
/// tabulated points of zone `z`: `out[k][(d, g)] = ∂ u_d / ∂ x̂_g`.
///
/// The spatial gradient is `∇u = (∇̂u) J^{-1}`, assembled by the caller with
/// the adjugate/determinant from [`zone_jacobians`] — this split mirrors the
/// paper's kernel 3 (`∇̂v̂(q̂_k)`, batched) followed by the small-matrix
/// multiplies of kernels 5/6.
#[cfg(test)]
pub fn eval_h1_vector_ref_grad<const D: usize>(
    space: &H1Space<D>,
    table: &BasisTable<D>,
    u: &[f64],
    z: usize,
    out: &mut Vec<SmallMat<D>>,
) {
    let n = space.num_dofs();
    let dofs = space.zone_dofs(z);
    let npts = table.npts();
    out.clear();
    out.resize(npts, SmallMat::zeros());
    for k in 0..npts {
        let o = &mut out[k];
        for (i, &dof) in dofs.iter().enumerate() {
            for g in 0..D {
                let dw = table.grads[g][(i, k)];
                if dw != 0.0 {
                    for d in 0..D {
                        o[(d, g)] += u[d * n + dof] * dw;
                    }
                }
            }
        }
    }
}

/// Evaluates an L2 scalar field at the tabulated points of zone `z`.
#[cfg(test)]
pub fn eval_l2_scalar<const D: usize>(
    space: &crate::space::L2Space<D>,
    table: &BasisTable<D>,
    e: &[f64],
    z: usize,
    out: &mut Vec<f64>,
) {
    let range = space.zone_range(z);
    let coeffs = &e[range];
    let npts = table.npts();
    out.clear();
    out.resize(npts, 0.0);
    for k in 0..npts {
        let mut acc = 0.0;
        for (l, &c) in coeffs.iter().enumerate() {
            acc += c * table.values[(l, k)];
        }
        out[k] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::CartMesh;
    use crate::quadrature::TensorRule;
    use crate::space::L2Space;

    #[test]
    fn affine_mesh_jacobian_is_diagonal_zone_size() {
        // Initial Cartesian mesh: J = diag(h) everywhere, det = prod(h).
        let mesh = CartMesh::<2>::new([2, 3], [0.0, 0.0], [2.0, 3.0]);
        let space = H1Space::new(mesh, 2);
        let rule = TensorRule::<2>::gauss(4);
        let table = space.basis().tabulate(&rule.points);
        let x = space.initial_coords();
        let mut geom = Vec::new();
        for z in 0..space.mesh().num_zones() {
            zone_jacobians(&space, &table, &x, z, &mut geom);
            for g in &geom {
                assert!((g.jac[(0, 0)] - 1.0).abs() < 1e-12);
                assert!((g.jac[(1, 1)] - 1.0).abs() < 1e-12);
                assert!(g.jac[(0, 1)].abs() < 1e-12);
                assert!(g.jac[(1, 0)].abs() < 1e-12);
                assert!((g.det - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn jacobian_det_sums_to_volume() {
        // sum_k alpha_k |J(q_k)| = zone volume, summed over zones = domain.
        let mesh = CartMesh::<3>::new([2, 2, 2], [0.0; 3], [1.0, 2.0, 0.5]);
        let space = H1Space::new(mesh, 2);
        let rule = TensorRule::<3>::gauss(3);
        let table = space.basis().tabulate(&rule.points);
        let x = space.initial_coords();
        let mut geom = Vec::new();
        let mut vol = 0.0;
        for z in 0..space.mesh().num_zones() {
            zone_jacobians(&space, &table, &x, z, &mut geom);
            for (g, &w) in geom.iter().zip(&rule.weights) {
                vol += w * g.det;
            }
        }
        assert!((vol - 1.0).abs() < 1e-12, "volume {vol}");
    }

    #[test]
    fn distorted_mesh_jacobian_matches_analytic() {
        // Map x -> (x, y + 0.1 x): J = [[1, 0], [0.1, 1]] after scaling.
        let mesh = CartMesh::<2>::unit(1);
        let space = H1Space::new(mesh, 1);
        let n = space.num_dofs();
        let mut x = space.initial_coords();
        for i in 0..n {
            let xi = x[i];
            x[n + i] += 0.1 * xi;
        }
        let rule = TensorRule::<2>::gauss(2);
        let table = space.basis().tabulate(&rule.points);
        let mut geom = Vec::new();
        zone_jacobians(&space, &table, &x, 0, &mut geom);
        for g in &geom {
            assert!((g.jac[(0, 0)] - 1.0).abs() < 1e-13);
            assert!((g.jac[(1, 0)] - 0.1).abs() < 1e-13);
            assert!(g.jac[(0, 1)].abs() < 1e-13);
            assert!((g.jac[(1, 1)] - 1.0).abs() < 1e-13);
            assert!((g.det - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn h1_vector_eval_reproduces_linear_field() {
        let mesh = CartMesh::<2>::unit(2);
        let space = H1Space::new(mesh, 3);
        let n = space.num_dofs();
        let coords = space.initial_coords();
        // u = (2x + y, -x): linear, exactly representable.
        let mut u = vec![0.0; 2 * n];
        for i in 0..n {
            let (xi, yi) = (coords[i], coords[n + i]);
            u[i] = 2.0 * xi + yi;
            u[n + i] = -xi;
        }
        let rule = TensorRule::<2>::gauss(3);
        let table = space.basis().tabulate(&rule.points);
        let mut vals = Vec::new();
        let mut pos = Vec::new();
        for z in 0..space.mesh().num_zones() {
            eval_h1_vector(&space, &table, &u, z, &mut vals);
            eval_h1_vector(&space, &table, &coords, z, &mut pos);
            for (v, p) in vals.iter().zip(&pos) {
                assert!((v[0] - (2.0 * p[0] + p[1])).abs() < 1e-12);
                assert!((v[1] + p[0]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ref_grad_of_position_equals_jacobian() {
        let mesh = CartMesh::<3>::unit(2);
        let space = H1Space::new(mesh, 2);
        let x = space.initial_coords();
        let rule = TensorRule::<3>::gauss(2);
        let table = space.basis().tabulate(&rule.points);
        let mut grads = Vec::new();
        let mut geom = Vec::new();
        for z in 0..space.mesh().num_zones() {
            eval_h1_vector_ref_grad(&space, &table, &x, z, &mut grads);
            zone_jacobians(&space, &table, &x, z, &mut geom);
            for (g, j) in grads.iter().zip(&geom) {
                for a in 0..3 {
                    for b in 0..3 {
                        assert!((g[(a, b)] - j.jac[(a, b)]).abs() < 1e-13);
                    }
                }
            }
        }
    }

    #[test]
    fn l2_eval_reproduces_polynomial() {
        let mesh = CartMesh::<2>::unit(1);
        let space = L2Space::new(mesh, 2);
        let basis = space.basis().clone();
        // Coefficients interpolating f(x, y) = x^2 y at the L2 nodes.
        let mut e = vec![0.0; space.num_dofs()];
        for l in 0..space.ndof_per_zone() {
            let p = basis.node(l);
            e[l] = p[0] * p[0] * p[1];
        }
        let rule = TensorRule::<2>::gauss(4);
        let table = basis.tabulate(&rule.points);
        let mut vals = Vec::new();
        eval_l2_scalar(&space, &table, &e, 0, &mut vals);
        for (k, p) in rule.points.iter().enumerate() {
            assert!((vals[k] - p[0] * p[0] * p[1]).abs() < 1e-12);
        }
    }

    /// Positions on a mesh moved off its lattice: every coordinate
    /// perturbed, a few set to `±0.0`, and `bad` (if any) at one DOF.
    fn rough_coords<const D: usize>(space: &H1Space<D>, bad: Option<f64>) -> Vec<f64> {
        let mut x = space.initial_coords();
        for (p, v) in x.iter_mut().enumerate() {
            *v += 0.01 * (p as f64 * 0.618).sin();
            match p % 53 {
                7 => *v = 0.0,
                19 => *v = -0.0,
                _ => {}
            }
        }
        if let Some(bad) = bad {
            let n = space.num_dofs();
            x[(D - 1) * n + n / 2] = bad;
        }
        x
    }

    /// Every bit of one zone's geometry and positions.
    fn zone_bits<const D: usize>(geom: &[GeomAtPoint<D>], pos: &[[f64; D]]) -> Vec<u64> {
        let mut out = Vec::new();
        for g in geom {
            let mut s = [0.0; 9];
            g.jac.write_col_slice(&mut s[..D * D]);
            out.extend(s.map(f64::to_bits));
            out.push(g.det.to_bits());
        }
        out.extend(pos.iter().flat_map(|p| p.map(f64::to_bits)));
        out
    }

    fn geometry_case<const D: usize>(order: usize, zones: usize, npts_1d: usize, bad: Option<f64>) {
        let space = H1Space::new(CartMesh::<D>::unit(zones), order);
        let rule = TensorRule::<D>::gauss(npts_1d);
        let table = space.basis().tabulate(&rule.points);
        let x = rough_coords(&space, bad);
        let (mut geom, mut pos) = (Vec::new(), Vec::new());
        let mut want = Vec::new();
        let what = format!("Q{order}-{D}D {zones} zones, {npts_1d} points per axis, {bad:?}");
        for z in 0..space.mesh().num_zones() {
            zone_jacobians(&space, &table, &x, z, &mut geom);
            eval_h1_vector(&space, &table, &x, z, &mut pos);
            assert_eq!((geom.len(), pos.len()), (rule.len(), rule.len()), "{what}");
            want.push(zone_bits(&geom, &pos));
        }
        let mut seen = 0;
        zone_geometry_pass(&space, &table, &x, |z, geom, pos| {
            assert_eq!((z, zone_bits(geom, pos)), (seen, want[z].clone()), "{what}: the pass");
            seen += 1;
        });
        assert_eq!(seen, want.len(), "{what}: the pass visits every zone");
        // One zone at a time, in reverse: the buffer carries nothing over.
        let mut jacobians = ZoneJacobians::new(&table);
        for z in (0..space.mesh().num_zones()).rev() {
            let geom = jacobians.zone(&space, &x, z).to_vec();
            let n = geom.len() * (9 + 1);
            assert_eq!(zone_bits(&geom, &[]), want[z][..n], "{what}: zone {z} alone");
        }
    }

    /// The pass over all zones is the per-zone point-at-a-time loops, bit
    /// for bit: Q1-Q4 in 2D and Q1-Q3 in 3D at the solver's rules, ragged
    /// point counts (a rule with more or fewer points than a block), a
    /// distorted mesh with `±0.0` coordinates, and an infinite or NaN
    /// coordinate.
    #[test]
    fn initial_geometry_matches_setup_oracle() {
        for order in 1..=4 {
            geometry_case::<2>(order, 3, crate::quad_points_1d(order), None);
        }
        for order in 1..=3 {
            geometry_case::<3>(order, 2, crate::quad_points_1d(order), None);
        }
        geometry_case::<2>(3, 2, 3, None);
        geometry_case::<3>(2, 2, 5, None);
        geometry_case::<3>(3, 1, 3, None);
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            geometry_case::<2>(2, 3, 3, Some(bad));
            geometry_case::<3>(3, 2, 4, Some(bad));
        }
    }

    #[test]
    fn adjugate_dispatch_2d_3d() {
        let j2 = SmallMat::<2>::from_fn(|i, j| [[2.0, 1.0], [0.5, 3.0]][i][j]);
        let a2 = jac_adjugate(&j2);
        let p = j2 * a2;
        assert!((p[(0, 0)] - jac_det(&j2)).abs() < 1e-13);
        assert!(p[(0, 1)].abs() < 1e-13);

        let j3 = SmallMat::<3>::from_fn(|i, j| {
            [[1.0, 0.2, 0.0], [0.0, 2.0, 0.1], [0.3, 0.0, 1.5]][i][j]
        });
        let a3 = jac_adjugate(&j3);
        let p3 = j3 * a3;
        for i in 0..3 {
            assert!((p3[(i, i)] - jac_det(&j3)).abs() < 1e-12);
        }
    }
}
