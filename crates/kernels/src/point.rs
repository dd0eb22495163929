//! The per-quadrature-point physics of kernels 1 and 2, in groups of `W`
//! points — the one body [`crate::k1`], [`crate::k2`] and the matrix-free
//! force ([`crate::sumfac`]) share, so the two assembly modes agree
//! point-for-point on geometry and stress before their contractions
//! diverge.
//!
//! The paper maps these kernels one *thread per quadrature point*: a warp
//! advances 32 SVDs / eigen-solves in lock step. Here a group of `W` points
//! does the same with one SIMD lane each. Everything around the 3D
//! eigen-solves is the scalar `blast_la` small-matrix arithmetic, point by
//! point; the solves themselves — `σ_min(J)` from the eigenvalues of `JᵀJ`
//! in [`geometry`], the maximal-compression eigenpair of `sym(∇v)` in
//! [`stress`] — are packed on the stack and run through
//! [`blast_la::eig::sym_eigvals3_lanes`] / [`sym_eig3_lanes`], whose lanes
//! are bit-identical to the scalar `sym_eig3`. A point's results therefore
//! do not depend on `W`, on its position in the group, or on its
//! neighbours; a ragged group is padded with identity lanes. 2D keeps the
//! closed-form `svd2` / `sym_eig2` per point.
//!
//! Both bodies are `#[inline(always)]` and reach the kernels through
//! `isa_clones!` (`lanes` form), which fixes `W` per instruction-set level.

use blast_la::eig::{identity3_lanes, sym_eig3_lanes, sym_eigvals3_lanes};
use blast_la::{svd2, sym_eig2, SmallMat};

use crate::k2::ZoneConstants;
use crate::shapes::ProblemShape;

/// Kernel-1 math for a group of `n <= W` points (`n = det.len()`): per
/// point the adjugate of `J`, `|J|`, and the minimum singular value of `J`
/// (the reference-to-physical compression scale behind the CFL step).
/// `jac` and `adj` hold `n` column-major `D x D` blocks.
#[inline(always)]
pub(crate) fn geometry<const D: usize, const W: usize>(
    jac: &[f64],
    adj: &mut [f64],
    det: &mut [f64],
    hmin: &mut [f64],
) {
    let n = det.len();
    let d2 = D * D;
    debug_assert!(n <= W && jac.len() == n * d2 && adj.len() == n * d2 && hmin.len() == n);
    if D == 2 {
        for l in 0..n {
            let j = SmallMat::<2>::from_col_slice(&jac[l * d2..(l + 1) * d2]);
            j.adjugate().write_col_slice(&mut adj[l * d2..(l + 1) * d2]);
            det[l] = j.det();
            hmin[l] = svd2(&j).min_singular();
        }
        return;
    }
    // σ(J)² are the eigenvalues of JᵀJ (`blast_la::svd3`, which would also
    // build U and V only to drop them).
    let mut jtj = identity3_lanes::<W>();
    for l in 0..n {
        let j = SmallMat::<3>::from_col_slice(&jac[l * d2..(l + 1) * d2]);
        j.adjugate().write_col_slice(&mut adj[l * d2..(l + 1) * d2]);
        det[l] = j.det();
        let g = (j.transpose() * j).sym();
        for r in 0..3 {
            for c in 0..=r {
                jtj[r][c][l] = g[(r, c)];
            }
        }
    }
    let sq = sym_eigvals3_lanes(&jtj);
    for l in 0..n {
        hmin[l] = sq[2][l].max(0.0).sqrt();
    }
}

/// Smooth step that is 0 below 0 and 1 above `eps` (C1 transition) — the
/// reference implementation's differentiable "if compressing" switch.
#[inline]
pub(crate) fn smooth_step_01(x: f64, eps: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else if x >= eps {
        1.0
    } else {
        let y = x / eps;
        y * y * (3.0 - 2.0 * y)
    }
}

/// The constants one zone's points share in [`stress`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct ZonePhysics<'a> {
    /// Artificial viscosity on/off.
    pub use_visc: bool,
    /// Adiabatic index `γ`.
    pub gamma: f64,
    /// Initial directional length scale `h0`.
    pub h0: f64,
    /// Diagonal of `J_0^{-1}` (`D` entries).
    pub j0inv: &'a [f64],
    /// Kinematic order `k` (`h_min = σ_min(J) / k`).
    pub order: f64,
}

impl<'a> ZonePhysics<'a> {
    /// Zone `z`'s entries of `consts`.
    pub(crate) fn new(
        consts: &'a ZoneConstants,
        z: usize,
        shape: &ProblemShape,
        use_visc: bool,
    ) -> Self {
        let d = shape.dim;
        Self {
            use_visc,
            gamma: consts.gamma[z],
            h0: consts.h0[z],
            j0inv: &consts.j0inv_diag[z * d..(z + 1) * d],
            order: shape.order as f64,
        }
    }
}

/// Kernel-2 math for a group of `n <= W` points of one zone
/// (`n = inv_dt.len()`): ideal-gas EOS from the interpolated energy `e_pt`,
/// tensor artificial viscosity from the smallest eigenpair of `sym(∇v)`
/// (module docs of [`crate::k2`]), total stress `sigma` and the per-point
/// timestep control `inv_dt`. `grad_v`, `jac` and `sigma` hold `n`
/// column-major `D x D` blocks; `hmin` is `σ_min(J)` from [`geometry`].
#[inline(always)]
pub(crate) fn stress<const D: usize, const W: usize>(
    zone: &ZonePhysics<'_>,
    e_pt: &[f64],
    rho0detj0: &[f64],
    det: &[f64],
    hmin: &[f64],
    grad_v: &[f64],
    jac: &[f64],
    sigma: &mut [f64],
    inv_dt: &mut [f64],
) {
    let n = inv_dt.len();
    let d2 = D * D;
    debug_assert!(n <= W && grad_v.len() == n * d2 && jac.len() == n * d2);
    let ZonePhysics { use_visc, gamma, h0, j0inv, order } = *zone;

    // ε = sym(∇v) per point; in 3D its eigen-solves run in lock step.
    let mut eps = [SmallMat::<D>::zeros(); W];
    let mut eps_lanes = identity3_lanes::<W>();
    if use_visc {
        for l in 0..n {
            eps[l] = SmallMat::<D>::from_col_slice(&grad_v[l * d2..(l + 1) * d2]).sym();
            if D == 3 {
                for r in 0..3 {
                    for c in 0..=r {
                        eps_lanes[r][c][l] = eps[l][(r, c)];
                    }
                }
            }
        }
    }
    let (values, vectors) =
        if use_visc && D == 3 { sym_eig3_lanes(&eps_lanes) } else { ([[0.0; W]; 3], eps_lanes) };

    for l in 0..n {
        // Thermodynamic state.
        let e_val = e_pt[l].max(0.0);
        let rho = rho0detj0[l] / det[l];
        let p_eos = (gamma - 1.0) * rho * e_val;
        let cs = (gamma * (gamma - 1.0) * e_val).sqrt();

        let mut sig = SmallMat::<D>::zeros();
        for i in 0..D {
            sig[(i, i)] = -p_eos;
        }
        let mut visc_coeff = 0.0;
        if use_visc {
            // Smallest eigenpair = maximal compression.
            let (mu, dir) = if D == 2 {
                let e = sym_eig2(&SmallMat::<2>::from_fn(|i, j| eps[l][(i, j)]));
                (e.values[1], std::array::from_fn(|i| e.vectors[(i, 1)]))
            } else {
                (values[2][l], std::array::from_fn(|i| vectors[i][2][l]))
            };
            // Directional length scale h = h0 |J J0^{-1} dir|.
            let j = SmallMat::<D>::from_col_slice(&jac[l * d2..(l + 1) * d2]);
            let jpi = SmallMat::<D>::from_fn(|i, c| j[(i, c)] * j0inv[c]);
            let ph: [f64; D] = jpi.mul_vec(&dir);
            let h = h0 * ph.iter().map(|x| x * x).sum::<f64>().sqrt();
            visc_coeff = 2.0 * rho * h * h * mu.abs();
            // Linear term only under compression (smooth switch).
            let eps_sw = 1e-12;
            visc_coeff += 0.5 * rho * h * cs * (1.0 - smooth_step_01(mu - 2.0 * eps_sw, eps_sw));
            for c in 0..D {
                for r in 0..D {
                    sig[(r, c)] += visc_coeff * eps[l][(r, c)];
                }
            }
        }
        sig.write_col_slice(&mut sigma[l * d2..(l + 1) * d2]);

        // Per-point timestep control.
        let h_min = (hmin[l] / order).max(1e-300);
        inv_dt[l] = cs / h_min + 2.5 * visc_coeff / (rho * h_min * h_min);
    }
}

#[doc(hidden)]
pub mod reference;

/// A shocked 3D state at the quadrature points, for the kernel tests:
/// distorted Jacobians (every fourth one exactly Cartesian), a velocity
/// gradient that is strongly compressive in two zones out of three and
/// exactly zero — `0.0` and `-0.0` — in the third (the undisturbed gas
/// ahead of the shock, whose lanes pass the convergence test at once while
/// their neighbours rotate), and energies that cross zero.
#[cfg(test)]
pub(crate) mod shocked {
    use blast_la::BatchedMats;

    use crate::isa::signed_zero_mix;
    use crate::k2::ZoneConstants;
    use crate::shapes::ProblemShape;

    pub(crate) struct PointState {
        pub jac: BatchedMats,
        pub grad_v: BatchedMats,
        pub rho0detj0: Vec<f64>,
        pub consts: ZoneConstants,
    }

    pub(crate) fn state(shape: &ProblemShape, seed: u64) -> PointState {
        let d = shape.dim;
        let total = shape.total_points();
        let noise = signed_zero_mix(2 * d * d * total, seed);
        let jac = BatchedMats::from_fn(d, d, total, |p, i, j| {
            let skew = if p % 4 == 0 { 0.0 } else { 0.25 * noise[(p * d + i) * d + j] };
            if i == j { 0.2 + 0.1 * skew } else { 0.2 * skew }
        });
        let grad_v = BatchedMats::from_fn(d, d, total, |p, i, j| {
            let r = noise[d * d * total + (p * d + i) * d + j];
            match (p / shape.npts) % 3 {
                2 => 0.0 * r,
                _ if i == j => -40.0 * r.abs() + 3.0 * r,
                _ => 25.0 * r,
            }
        });
        let rho0detj0 = (0..total).map(|p| 0.008 * (1.0 + 0.5 * noise[p].abs())).collect();
        let zones = shape.zones;
        let consts = ZoneConstants {
            gamma: (0..zones).map(|z| if z % 2 == 0 { 1.4 } else { 5.0 / 3.0 }).collect(),
            h0: (0..zones).map(|z| 0.1 / shape.order as f64 * (1.0 + 0.1 * z as f64)).collect(),
            j0inv_diag: (0..zones * d).map(|i| 5.0 + 0.01 * i as f64).collect(),
        };
        PointState { jac, grad_v, rho0detj0, consts }
    }
}
