//! The point-at-a-time bodies [`super::geometry`] and [`super::stress`]
//! replaced, through the scalar `svd3` / `sym_eig3`: per point, and as the
//! 3D mesh-level loops of kernel 1, kernel 2 and the matrix-free force.
//! They are the bitwise oracle of the kernel tests and the baseline
//! `blast-bench`'s `point_physics` block times — and the one module of this
//! crate that may call the scalar eigen-solves (`tests/source_gates.rs`).

use blast_fem::sumfac::{forward, SumfacScratch};
use blast_la::{svd2, svd3, sym_eig2, sym_eig3, BatchedMats, DMatrix, SmallMat};

use super::{smooth_step_01, ZonePhysics};
use crate::k2::ZoneConstants;
use crate::shapes::ProblemShape;
use crate::sumfac::{forward_gradients, gather_kin, SumfacFactors};

/// Kernel 1 at one point: writes `adj`, returns `(det, hmin)`.
pub(crate) fn geometry<const D: usize>(jac: &[f64], adj: &mut [f64]) -> (f64, f64) {
    if D == 2 {
        let j = SmallMat::<2>::from_col_slice(jac);
        j.adjugate().write_col_slice(adj);
        (j.det(), svd2(&j).min_singular())
    } else {
        let j = SmallMat::<3>::from_col_slice(jac);
        j.adjugate().write_col_slice(adj);
        (j.det(), svd3(&j).min_singular())
    }
}

/// Kernel 2 at one point: writes `sigma`, returns `inv_dt`.
pub(crate) fn stress<const D: usize>(
    zone: &ZonePhysics<'_>,
    e_pt: f64,
    rho0detj0: f64,
    det: f64,
    hmin: f64,
    grad_v: &[f64],
    jac: &[f64],
    sigma: &mut [f64],
) -> f64 {
    let e_val = e_pt.max(0.0);
    let rho = rho0detj0 / det;
    let p_eos = (zone.gamma - 1.0) * rho * e_val;
    let cs = (zone.gamma * (zone.gamma - 1.0) * e_val).sqrt();

    let mut sig = SmallMat::<D>::zeros();
    for i in 0..D {
        sig[(i, i)] = -p_eos;
    }
    let mut visc_coeff = 0.0;
    if zone.use_visc {
        let eps_t = SmallMat::<D>::from_col_slice(grad_v).sym();
        let (mu, dir): (f64, [f64; D]) = if D == 2 {
            let e = sym_eig2(&SmallMat::<2>::from_fn(|i, j| eps_t[(i, j)]));
            (e.values[1], std::array::from_fn(|i| e.vectors[(i, 1)]))
        } else {
            let e = sym_eig3(&SmallMat::<3>::from_fn(|i, j| eps_t[(i, j)]));
            (e.values[2], std::array::from_fn(|i| e.vectors[(i, 2)]))
        };
        let j = SmallMat::<D>::from_col_slice(jac);
        let jpi = SmallMat::<D>::from_fn(|i, c| j[(i, c)] * zone.j0inv[c]);
        let ph = jpi.mul_vec(&dir);
        let h = zone.h0 * ph.iter().map(|x| x * x).sum::<f64>().sqrt();
        visc_coeff = 2.0 * rho * h * h * mu.abs();
        let eps_sw = 1e-12;
        visc_coeff += 0.5 * rho * h * cs * (1.0 - smooth_step_01(mu - 2.0 * eps_sw, eps_sw));
        for c in 0..D {
            for r in 0..D {
                sig[(r, c)] += visc_coeff * eps_t[(r, c)];
            }
        }
    }
    sig.write_col_slice(sigma);
    let h_min = (hmin / zone.order).max(1e-300);
    cs / h_min + 2.5 * visc_coeff / (rho * h_min * h_min)
}

/// Kernel 1 over a 3D mesh (`AdjugateDetKernel::compute`'s outputs).
pub fn k1(jac: &BatchedMats, adj: &mut BatchedMats, det: &mut [f64], hmin: &mut [f64]) {
    for p in 0..det.len() {
        (det[p], hmin[p]) = geometry::<3>(jac.mat(p), adj.mat_mut(p));
    }
}

/// Kernel 2 over a 3D mesh (`StressKernel::compute`'s outputs).
pub fn k2(
    shape: &ProblemShape,
    use_viscosity: bool,
    e_coeffs: &[f64],
    thermo_vals: &DMatrix,
    grad_v: &BatchedMats,
    jac: &BatchedMats,
    det: &[f64],
    hmin: &[f64],
    rho0detj0: &[f64],
    consts: &ZoneConstants,
    sigma: &mut BatchedMats,
    inv_dt: &mut [f64],
) {
    let (npts, nthermo) = (shape.npts, shape.nthermo);
    for p in 0..inv_dt.len() {
        let (z, k) = (p / npts, p % npts);
        let zone = ZonePhysics::new(consts, z, shape, use_viscosity);
        let mut e_pt = 0.0;
        for l in 0..nthermo {
            e_pt += e_coeffs[z * nthermo + l] * thermo_vals[(l, k)];
        }
        inv_dt[p] = stress::<3>(
            &zone,
            e_pt,
            rho0detj0[p],
            det[p],
            hmin[p],
            grad_v.mat(p),
            jac.mat(p),
            sigma.mat_mut(p),
        );
    }
}

/// The matrix-free force over a 3D mesh, viscosity on
/// (`SumfacForceKernel::compute`'s outputs): the kernel's own sum-factorized
/// transforms, then the kernel 1 / 5 / 2 / 6 chain one point at a time.
pub fn matfree_force(
    shape: &ProblemShape,
    f: &SumfacFactors,
    x: &[f64],
    v: &[f64],
    e: &[f64],
    num_h1_dofs: usize,
    zone_dofs: &[usize],
    alpha: &[f64],
    rho0detj0: &[f64],
    consts: &ZoneConstants,
    dsf: &mut BatchedMats,
    detj: &mut [f64],
    inv_dt: &mut [f64],
) {
    let (d, d2, npts, nkin, nthermo) = (3, 9, shape.npts, shape.nkin, shape.nthermo);
    let mut sf = SumfacScratch::default();
    let (mut uz, mut tmp, mut e_pt) = (vec![0.0; d * nkin], vec![0.0; npts], vec![0.0; npts]);
    let (mut jac, mut gvref) = (vec![0.0; npts * d2], vec![0.0; npts * d2]);
    for z in 0..shape.zones {
        let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
        gather_kin(x, num_h1_dofs, dofs, d, nkin, &mut uz);
        forward_gradients(&f.kin, d, &uz, nkin, npts, &mut tmp, &mut sf, &mut jac);
        gather_kin(v, num_h1_dofs, dofs, d, nkin, &mut uz);
        forward_gradients(&f.kin, d, &uz, nkin, npts, &mut tmp, &mut sf, &mut gvref);
        forward(&f.thermo, d, &e[z * nthermo..(z + 1) * nthermo], None, &mut e_pt, &mut sf);
        let zone = ZonePhysics::new(consts, z, shape, true);
        for k in 0..npts {
            let p = z * npts + k;
            let jac_k = &jac[k * d2..(k + 1) * d2];
            let (mut adj, mut gv, mut sig) = ([0.0; 9], [0.0; 9], [0.0; 9]);
            let (det, hmin) = geometry::<3>(jac_k, &mut adj);
            detj[p] = det;
            let inv_det = 1.0 / det;
            for g in 0..d {
                for c in 0..d {
                    let mut acc = 0.0;
                    for t in 0..d {
                        acc += gvref[k * d2 + c + t * d] * adj[t + g * d];
                    }
                    gv[c + g * d] = acc * inv_det;
                }
            }
            inv_dt[p] = stress::<3>(&zone, e_pt[k], rho0detj0[p], det, hmin, &gv, jac_k, &mut sig);
            let out = dsf.mat_mut(p);
            for g in 0..d {
                for c in 0..d {
                    let mut acc = 0.0;
                    for t in 0..d {
                        acc += sig[c + t * d] * adj[g + t * d];
                    }
                    out[c + g * d] = alpha[k] * acc;
                }
            }
        }
    }
}
