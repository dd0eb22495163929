//! Kernel 2 — `kernel_loop_grad_v`: equation of state and total stress
//! tensor `σ̂(q̂_k)` at every quadrature point.
//!
//! This is the physics kernel: ideal-gas EOS, sound speed, and the tensor
//! artificial viscosity of Dobrev-Kolev-Rieben (the paper's reference \[1\]), which
//! needs the eigendecomposition of the symmetrized velocity gradient at each
//! point — the "Eigval" work the paper highlights. It also produces the
//! per-point timestep control `inv_dt` whose global maximum bounds the CFL
//! step (step 5 of the algorithm: "find minimum time step").
//!
//! Viscosity model (following the reference implementation of BLAST's
//! method, as in the Laghos miniapp):
//!
//! ```text
//! ε      = sym(∇v)                          (spatial velocity gradient)
//! μ, s   = smallest eigenpair of ε          (maximal compression)
//! h      = h0 |J J0^{-1} s|                 (length scale in that direction)
//! q      = 2 ρ h^2 |μ| + 0.5 ρ h c_s step(-μ)
//! σ      = -p I + q ε
//! inv_dt = c_s / h_min + 2.5 q / (ρ h_min^2),  h_min = σ_min(J)/k
//! ```
//!
//! The arithmetic is [`crate::point::stress`], on groups of `W` points with
//! the 3D eigen-solves in lock step — the body the matrix-free force
//! ([`crate::sumfac`]) runs as well.

use blast_la::{BatchedMats, DMatrix};
use gpu_sim::{LaunchConfig, Traffic};
use rayon::prelude::*;

use crate::isa::{isa_clones, Isa};
use crate::k1::POINT_KERNEL_BLOCK;
use crate::point::{self, ZonePhysics};
use crate::shapes::ProblemShape;
use crate::Workspace;

/// Per-zone material/geometry constants consumed by the stress kernel.
#[derive(Clone, Debug)]
pub struct ZoneConstants {
    /// Adiabatic index `γ` per zone (triple-point uses two materials).
    pub gamma: Vec<f64>,
    /// Initial directional length scale `h0` per zone (min initial zone
    /// extent divided by the kinematic order).
    pub h0: Vec<f64>,
    /// Diagonal of `J_0^{-1}` per zone (`zones * dim`; the initial mesh is
    /// axis-aligned so `J_0` is diagonal).
    pub j0inv_diag: Vec<f64>,
}

/// Kernel 2: EOS + artificial viscosity -> total stress per point.
#[derive(Clone, Copy, Debug)]
pub struct StressKernel {
    /// Workspace placement (Fig. 4 ablation; the paper reports a 4x speedup
    /// for this kernel from register arrays on Kepler).
    pub workspace: Workspace,
    /// Artificial viscosity on/off (off reduces to pure ideal-gas flow —
    /// useful for the Taylor-Green smooth-flow validation).
    pub use_viscosity: bool,
}

/// One zone of kernel 2, `W` points at a time: the energy interpolation
/// `e(q̂_k) = Σ_l e_z[l] B[l, k]`, then [`point::stress`]. `point_data` is
/// the zone's `[rho0detj0, det, hmin, grad_v, jac]`.
#[inline(always)]
fn zone_body<const D: usize, const W: usize>(
    zone: &ZonePhysics<'_>,
    e_z: &[f64],
    thermo_vals: &DMatrix,
    point_data: [&[f64]; 5],
    sigma: &mut [f64],
    inv_dt: &mut [f64],
) {
    let [rho0detj0, det, hmin, grad_v, jac] = point_data;
    let d2 = D * D;
    let npts = inv_dt.len();
    for k0 in (0..npts).step_by(W) {
        let n = W.min(npts - k0);
        let (pts, mats) = (k0..k0 + n, k0 * d2..(k0 + n) * d2);
        let mut e_pt = [0.0; W];
        for (e, k) in e_pt.iter_mut().zip(pts.clone()) {
            for (l, &coef) in e_z.iter().enumerate() {
                *e += coef * thermo_vals[(l, k)];
            }
        }
        point::stress::<D, W>(
            zone,
            &e_pt[..n],
            &rho0detj0[pts.clone()],
            &det[pts.clone()],
            &hmin[pts.clone()],
            &grad_v[mats.clone()],
            &jac[mats.clone()],
            &mut sigma[mats],
            &mut inv_dt[pts],
        );
    }
}

isa_clones! {
    /// [`zone_body`] as compiled for `isa`.
    fn zone = lanes zone_body(
        zone: &ZonePhysics<'_>,
        e_z: &[f64],
        thermo_vals: &DMatrix,
        point_data: [&[f64]; 5],
        sigma: &mut [f64],
        inv_dt: &mut [f64],
    )
}

impl StressKernel {
    /// Kernel name as in Table 2.
    pub const NAME: &'static str = "kernel_loop_grad_v";

    /// Launch configuration for `shape`.
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        let count = shape.total_points() as u32;
        let grid = count.div_ceil(POINT_KERNEL_BLOCK);
        let regs = match (self.workspace, shape.dim) {
            (Workspace::Registers, 2) => 56,
            (Workspace::Registers, _) => 128,
            (Workspace::LocalMemory, 2) => 30,
            (Workspace::LocalMemory, _) => 32,
        };
        LaunchConfig::new(grid, POINT_KERNEL_BLOCK, 0, regs)
    }

    /// Declared traffic for `shape`.
    pub fn traffic(&self, shape: &ProblemShape) -> Traffic {
        let n = shape.total_points() as f64;
        let d = shape.dim as f64;
        let d2 = d * d;
        // Physics flops per point: EOS ~15, eig ~(40 | 260), viscosity ~60,
        // energy interpolation 2*nthermo.
        let eig = if shape.dim == 2 { 40.0 } else { 260.0 };
        let flops_per_pt = 15.0 + eig + 60.0 + 2.0 * shape.nthermo as f64;
        // Reads: L, J, adj (3 d^2 mats), det + hmin + rho0detj0 (24 B);
        // writes: sigma (d^2) + inv_dt (8 B). e-coefficients and the B table
        // are block-cached: count them as L2.
        let dram = n * (3.0 * d2 * 8.0 + 24.0 + d2 * 8.0 + 8.0);
        let l2 = n * (shape.nthermo as f64 * 8.0);
        let local = match self.workspace {
            Workspace::Registers => 0.0,
            // Workspace: eps, eigen-vectors, sigma accumulator (~4 matrices
            // x ~5 round trips past the L1). The paper measured 4x slowdown
            // on this kernel from the spills.
            Workspace::LocalMemory => n * 4.0 * d2 * 8.0 * 5.0,
        };
        Traffic { flops: n * flops_per_pt, dram_bytes: dram, l2_bytes: l2, local_bytes: local, ..Default::default() }
    }

    /// Pure computation.
    ///
    /// Inputs (all per point unless stated): `e_coeffs` (L2 energy DOFs,
    /// zone-major), `thermo_vals` (`B` table, `nthermo x npts`), `grad_v`
    /// (spatial velocity gradient from kernels 3+5), `jac`, `det`, `hmin`
    /// (from kernels 3/1), `rho0detj0` (frozen mass density x volume),
    /// zone constants. Outputs: `sigma` per point, `inv_dt` per point.
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        &self,
        shape: &ProblemShape,
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
        self.compute_at(
            Isa::detect(),
            shape,
            e_coeffs,
            thermo_vals,
            grad_v,
            jac,
            det,
            hmin,
            rho0detj0,
            consts,
            sigma,
            inv_dt,
        );
    }

    /// [`StressKernel::compute`] through the zone body compiled for `isa`.
    #[allow(clippy::too_many_arguments)]
    fn compute_at(
        &self,
        isa: Isa,
        shape: &ProblemShape,
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
        let d = shape.dim;
        let npts = shape.npts;
        let nthermo = shape.nthermo;
        let total = shape.total_points();
        assert_eq!(e_coeffs.len(), shape.zones * nthermo);
        assert_eq!(thermo_vals.shape(), (nthermo, npts));
        assert_eq!(grad_v.count(), total);
        assert_eq!(jac.count(), total);
        assert_eq!(det.len(), total);
        assert_eq!(hmin.len(), total);
        assert_eq!(rho0detj0.len(), total);
        assert_eq!(consts.gamma.len(), shape.zones);
        assert_eq!(consts.h0.len(), shape.zones);
        assert_eq!(consts.j0inv_diag.len(), shape.zones * d);
        assert_eq!(sigma.count(), total);
        assert_eq!(inv_dt.len(), total);

        let stride = npts * d * d;
        let (grad_v, jac) = (grad_v.as_slice(), jac.as_slice());
        sigma
            .as_mut_slice()
            .par_chunks_exact_mut(stride)
            .zip(inv_dt.par_chunks_exact_mut(npts))
            .enumerate()
            .for_each(|(z, (sig_z, invdt_z))| {
                let zone_physics = ZonePhysics::new(consts, z, shape, self.use_viscosity);
                let e_z = &e_coeffs[z * nthermo..(z + 1) * nthermo];
                let (pts, mats) = (z * npts..(z + 1) * npts, z * stride..(z + 1) * stride);
                let point_data = [
                    &rho0detj0[pts.clone()],
                    &det[pts.clone()],
                    &hmin[pts],
                    &grad_v[mats.clone()],
                    &jac[mats],
                ];
                if d == 2 {
                    zone::<2>(isa, &zone_physics, e_z, thermo_vals, point_data, sig_z, invdt_z);
                } else {
                    zone::<3>(isa, &zone_physics, e_z, thermo_vals, point_data, sig_z, invdt_z);
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::smooth_step_01;

    fn uniform_setup(dim: usize, zones: usize) -> (ProblemShape, ZoneConstants) {
        let shape = ProblemShape::new(dim, 2, zones);
        let consts = ZoneConstants {
            gamma: vec![1.4; zones],
            h0: vec![0.1; zones],
            j0inv_diag: vec![1.0; zones * dim],
        };
        (shape, consts)
    }

    fn run_compute(
        shape: &ProblemShape,
        consts: &ZoneConstants,
        kernel: &StressKernel,
        e_val: f64,
        grad_v: &BatchedMats,
    ) -> (BatchedMats, Vec<f64>) {
        let d = shape.dim;
        let total = shape.total_points();
        let e_coeffs = vec![e_val; shape.zones * shape.nthermo];
        // Constant-1 "basis": partition of unity collapses to single dof
        // semantics when all coefficients are equal.
        let thermo_vals = DMatrix::from_fn(shape.nthermo, shape.npts, |_, _| {
            1.0 / shape.nthermo as f64
        });
        let jac = BatchedMats::from_fn(d, d, total, |_, i, j| if i == j { 1.0 } else { 0.0 });
        let det = vec![1.0; total];
        let hmin = vec![1.0; total];
        let rho0detj0 = vec![1.0; total]; // rho = 1 everywhere
        let mut sigma = BatchedMats::zeros(d, d, total);
        let mut inv_dt = vec![0.0; total];
        kernel.compute(
            shape, &e_coeffs, &thermo_vals, grad_v, &jac, &det, &hmin, &rho0detj0, consts,
            &mut sigma, &mut inv_dt,
        );
        (sigma, inv_dt)
    }

    #[test]
    fn static_gas_gives_pure_pressure() {
        // No motion: sigma = -p I with p = (gamma-1) rho e.
        let (shape, consts) = uniform_setup(2, 3);
        let k = StressKernel { workspace: Workspace::Registers, use_viscosity: true };
        let grad_v = BatchedMats::zeros(2, 2, shape.total_points());
        let (sigma, inv_dt) = run_compute(&shape, &consts, &k, 2.5, &grad_v);
        let p_expect = 0.4 * 1.0 * 2.5;
        for pt in 0..shape.total_points() {
            let s = sigma.mat(pt);
            assert!((s[0] + p_expect).abs() < 1e-12);
            assert!((s[3] + p_expect).abs() < 1e-12);
            assert!(s[1].abs() < 1e-12 && s[2].abs() < 1e-12);
        }
        // inv_dt = cs/h_min + 2.5 q_lin/(rho h_min^2): at mu = 0 the smooth
        // compression switch is fully on (matching the reference
        // implementation), so the linear viscosity enters the dt control
        // even though sigma is untouched (it multiplies sym(grad v) = 0).
        let cs = (1.4 * 0.4 * 2.5_f64).sqrt();
        let h_min = 1.0 / shape.order as f64;
        let q_lin = 0.5 * 1.0 * 0.1 * cs; // 0.5 rho h0 cs
        let expect = cs / h_min + 2.5 * q_lin / (h_min * h_min);
        for &v in &inv_dt {
            assert!((v - expect).abs() < 1e-10, "{v} vs {expect}");
        }
    }

    #[test]
    fn uniform_compression_activates_viscosity() {
        // grad v = -I (isotropic compression): mu < 0, both q1 and q2 terms
        // fire, sigma gains a negative (compressive) viscous part.
        let (shape, consts) = uniform_setup(2, 2);
        let k = StressKernel { workspace: Workspace::Registers, use_viscosity: true };
        let grad_v = BatchedMats::from_fn(2, 2, shape.total_points(), |_, i, j| {
            if i == j { -1.0 } else { 0.0 }
        });
        let (sigma, _) = run_compute(&shape, &consts, &k, 1.0, &grad_v);
        let p_eos = 0.4;
        for pt in 0..shape.total_points() {
            let s = sigma.mat(pt);
            // sigma_xx = -p + q * (-1) < -p.
            assert!(s[0] < -p_eos, "sigma_xx {} should include viscosity", s[0]);
        }
    }

    #[test]
    fn expansion_has_no_linear_viscosity() {
        // grad v = +I (expansion): mu > 0, linear term off; only the
        // quadratic |mu| term remains (small for small h).
        let (shape, consts) = uniform_setup(2, 2);
        let k = StressKernel { workspace: Workspace::Registers, use_viscosity: true };
        let grad_v = BatchedMats::from_fn(2, 2, shape.total_points(), |_, i, j| {
            if i == j { 1.0 } else { 0.0 }
        });
        let (sigma, _) = run_compute(&shape, &consts, &k, 1.0, &grad_v);
        // Quadratic term: q = 2 rho h^2 |mu| = 2 * 1 * 0.01 * 1 = 0.02.
        let p_eos = 0.4;
        for pt in 0..shape.total_points() {
            let s = sigma.mat(pt);
            assert!((s[0] - (-p_eos + 0.02)).abs() < 1e-10, "{}", s[0]);
        }
    }

    #[test]
    fn viscosity_off_reduces_to_eos() {
        let (shape, consts) = uniform_setup(3, 1);
        let k = StressKernel { workspace: Workspace::Registers, use_viscosity: false };
        let grad_v = BatchedMats::from_fn(3, 3, shape.total_points(), |p, i, j| {
            ((p + i * 3 + j) as f64 * 0.1).sin()
        });
        let (sigma, _) = run_compute(&shape, &consts, &k, 1.0, &grad_v);
        for pt in 0..shape.total_points() {
            let s = sigma.mat(pt);
            for i in 0..3 {
                for j in 0..3 {
                    let expect = if i == j { -0.4 } else { 0.0 };
                    assert!((s[i + j * 3] - expect).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn negative_energy_clamped() {
        let (shape, consts) = uniform_setup(2, 1);
        let k = StressKernel { workspace: Workspace::Registers, use_viscosity: false };
        let grad_v = BatchedMats::zeros(2, 2, shape.total_points());
        let (sigma, inv_dt) = run_compute(&shape, &consts, &k, -5.0, &grad_v);
        for pt in 0..shape.total_points() {
            assert_eq!(sigma.mat(pt)[0], 0.0, "pressure must clamp at e = 0");
        }
        // cs = 0 and no viscosity -> inv_dt = 0 (no wave speed).
        assert!(inv_dt.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shear_flow_viscosity_is_symmetric() {
        // Pure shear: sigma must remain symmetric (viscosity uses sym(L)).
        let (shape, consts) = uniform_setup(3, 1);
        let k = StressKernel { workspace: Workspace::Registers, use_viscosity: true };
        let grad_v = BatchedMats::from_fn(3, 3, shape.total_points(), |_, i, j| {
            if i == 0 && j == 1 { 2.0 } else { 0.0 }
        });
        let (sigma, _) = run_compute(&shape, &consts, &k, 1.0, &grad_v);
        for pt in 0..shape.total_points() {
            let s = sigma.mat(pt);
            for i in 0..3 {
                for j in 0..3 {
                    assert!((s[i + j * 3] - s[j + i * 3]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn stronger_compression_raises_inv_dt() {
        let (shape, consts) = uniform_setup(2, 1);
        let k = StressKernel { workspace: Workspace::Registers, use_viscosity: true };
        let weak = BatchedMats::from_fn(2, 2, shape.total_points(), |_, i, j| {
            if i == j { -0.5 } else { 0.0 }
        });
        let strong = BatchedMats::from_fn(2, 2, shape.total_points(), |_, i, j| {
            if i == j { -5.0 } else { 0.0 }
        });
        let (_, dt_weak) = run_compute(&shape, &consts, &k, 1.0, &weak);
        let (_, dt_strong) = run_compute(&shape, &consts, &k, 1.0, &strong);
        assert!(dt_strong[0] > dt_weak[0]);
    }

    #[test]
    fn smooth_step_properties() {
        assert_eq!(smooth_step_01(-1.0, 1e-12), 0.0);
        assert_eq!(smooth_step_01(1.0, 1e-12), 1.0);
        let eps = 1.0;
        let mid = smooth_step_01(0.5, eps);
        assert!(mid > 0.0 && mid < 1.0);
        assert!((smooth_step_01(0.5, eps) - 0.5).abs() < 1e-12); // odd symmetry at midpoint
    }

    #[test]
    fn every_isa_clone_matches_the_scalar_reference_bitwise() {
        use crate::point::{reference, shocked};
        use crate::isa::bits;
        for (order, zones) in [(2, 7), (3, 4)] {
            let shape = ProblemShape::new(3, order, zones);
            let (n, npts, nthermo) = (shape.total_points(), shape.npts, shape.nthermo);
            let st = shocked::state(&shape, 23 + order as u64);
            let mix = crate::isa::signed_zero_mix(zones * nthermo + nthermo * npts, 5);
            // Energies that cross zero, so the clamp is on both sides.
            let e_coeffs: Vec<f64> = mix[..zones * nthermo].iter().map(|m| 2.0 * m + 1.5).collect();
            let thermo_vals =
                DMatrix::from_fn(nthermo, npts, |l, k| mix[zones * nthermo + l * npts + k]);
            let mut adj = BatchedMats::zeros(3, 3, n);
            let (mut det, mut hmin) = (vec![0.0; n], vec![0.0; n]);
            reference::k1(&st.jac, &mut adj, &mut det, &mut hmin);
            for use_viscosity in [true, false] {
                let kernel = StressKernel { workspace: Workspace::Registers, use_viscosity };
                let mut want_sigma = BatchedMats::zeros(3, 3, n);
                let mut want_inv_dt = vec![0.0; n];
                reference::k2(
                    &shape, use_viscosity, &e_coeffs, &thermo_vals, &st.grad_v, &st.jac, &det,
                    &hmin, &st.rho0detj0, &st.consts, &mut want_sigma, &mut want_inv_dt,
                );
                for isa in Isa::available() {
                    for threads in [1, 2, 8] {
                        let mut sigma = BatchedMats::from_fn(3, 3, n, |_, _, _| f64::NAN);
                        let mut inv_dt = vec![f64::NAN; n];
                        rayon::Pool::new(threads).install(|| {
                            kernel.compute_at(
                                isa, &shape, &e_coeffs, &thermo_vals, &st.grad_v, &st.jac, &det,
                                &hmin, &st.rho0detj0, &st.consts, &mut sigma, &mut inv_dt,
                            )
                        });
                        let what =
                            format!("{isa:?} Q{order} visc {use_viscosity} {threads} threads");
                        let want = bits(want_sigma.as_slice());
                        assert_eq!(bits(sigma.as_slice()), want, "sigma, {what}");
                        assert_eq!(bits(&inv_dt), bits(&want_inv_dt), "inv_dt, {what}");
                    }
                }
            }
        }
    }
}
