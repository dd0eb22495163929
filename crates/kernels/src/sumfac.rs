//! Matrix-free (partial-assembly) corner-force, energy and mass kernels.
//!
//! The stored-matrix pipeline (kernels 1–7) materializes per zone the
//! corner-force matrix `A_z` (`nvdof x npts`) and `F_z = A_z B^T`
//! (`nvdof x nthermo`) plus a global CSR kinematic mass matrix — the §4.1
//! memory ceiling (Q4-Q3 3D tops out at 16³ zones on a 5 GB device). The
//! matrix-free path here never forms any of them: following the MFEM/MARBL
//! partial-assembly treatment (Vargas et al., arXiv:2112.07075) and the
//! streaming-kernel formulation of Chalmers & Warburton (arXiv:2009.10917),
//! every operator application is a chain of sum-factorized 1D contractions
//! ([`blast_fem::sumfac`]) against quadrature-point data, with only the
//! `d x d` weighted stress `D_z(q̂_k) = α_k σ̂(q̂_k) adj(J)^T` persisted
//! between the force evaluation and the momentum/energy right-hand sides.
//!
//! Algebra (all per zone; `B`/`G` are the 1D value/derivative factors):
//!
//! - stored: `A_z[(c,m),k] = α_k Σ_g S[c,g](k) ∂ŵ_m/∂x̂_g(q̂_k)` with
//!   `S = σ̂ adj(J)^T`; momentum rhs `= -F_z·1 = -A_z (B^T·1)`; energy rhs
//!   `= F_z^T v_z`.
//! - matrix-free: persist `D_z(k) = α_k S(k)` (`d x d` per point) and apply
//!   `A_z` / `A_z^T` as backward/forward sum-factorized *gradient*
//!   transforms, the `B^T` legs as *value* transforms. The kinematic mass
//!   matrix disappears entirely: `M_V u = B^T Λ B u` with
//!   `Λ = diag(α_k w(q̂_k))`, two value transforms around a pointwise scale
//!   (the PCG `apply` of the SpMV-free solve).
//!
//! Per-point physics (EOS, viscosity, `adj(J)`, `det(J)`, SVD length
//! scale, timestep control) is the stored pipeline's own code — the
//! `crate::point` bodies kernels 1 and 2 run. The two modes agree on the
//! stress at every quadrature point; they differ only in how the
//! contractions around it associate.
//!
//! Determinism: zones are data-parallel with zone-private scratch and a
//! serial zone-order scatter (the k8/k10 pattern), and the inner
//! contractions run through [`blast_la::tile::gemm`] at shapes far below
//! one cache block — bitwise-identical results at every thread count and
//! tile variant, in both native and degraded-to-CPU execution.

use std::cell::RefCell;
use std::fmt;

use blast_fem::sumfac::{backward, forward, Factors1d, SumfacScratch};
use blast_fem::{gauss_legendre, quad_points_1d, Basis1d};
use blast_la::BatchedMats;
use gpu_sim::{LaunchConfig, Traffic};
use rayon::prelude::*;

use crate::isa::{isa_clones, Isa};
use crate::k2::ZoneConstants;
use crate::point::{self, ZonePhysics};
use crate::shapes::ProblemShape;

/// How the corner-force and mass operators are realized.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AssemblyMode {
    /// The paper's batched stored-matrix kernels: per-zone `A_z`/`F_z`
    /// batches plus a global CSR kinematic mass matrix.
    #[default]
    Stored,
    /// Sum-factorized partial assembly: no per-zone matrices, no CSR mass
    /// matrix; only `d x d` quadrature-point data is persisted.
    MatrixFree,
}

impl AssemblyMode {
    /// True for the matrix-free path.
    pub fn is_matrix_free(self) -> bool {
        matches!(self, AssemblyMode::MatrixFree)
    }
}

impl fmt::Display for AssemblyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssemblyMode::Stored => write!(f, "stored"),
            AssemblyMode::MatrixFree => write!(f, "matrix-free"),
        }
    }
}

/// The 1D factor tables + precomputed tensor row sums shared by all
/// matrix-free kernels of one `Q_k`-`Q_{k-1}` discretization.
#[derive(Clone, Debug)]
pub struct SumfacFactors {
    /// Kinematic (H1, Gauss-Lobatto-node) factors at the per-axis Gauss
    /// points.
    pub kin: Factors1d,
    /// Thermodynamic (L2, Gauss-Legendre-node) factors at the same points.
    pub thermo: Factors1d,
    /// `t(q̂_k) = Σ_j B_thermo[j,k]` over all tensor points — the `B^T·1`
    /// leg of the momentum right-hand side.
    pub tvals: Vec<f64>,
    /// Spatial dimension (2 or 3).
    pub dim: usize,
}

impl SumfacFactors {
    /// Tabulates the factors for a `Q_k`-`Q_{k-1}` method in `dim`
    /// dimensions at the standard `2k`-point Gauss rule.
    pub fn new(dim: usize, order: usize) -> Self {
        assert!(dim == 2 || dim == 3, "sumfac supports 2D and 3D");
        assert!(order >= 1);
        let pts = gauss_legendre(quad_points_1d(order)).0;
        let kin = Factors1d::tabulate(&Basis1d::h1(order), &pts);
        let thermo = Factors1d::tabulate(&Basis1d::l2(order - 1), &pts);
        let mut tvals = Vec::new();
        thermo.value_row_sum_products(dim, &mut tvals);
        Self { kin, thermo, tvals, dim }
    }

    /// Builds factors matching a [`ProblemShape`].
    pub fn for_shape(shape: &ProblemShape) -> Self {
        let f = Self::new(shape.dim, shape.order);
        debug_assert_eq!(f.kin.ndof(shape.dim), shape.nkin);
        debug_assert_eq!(f.thermo.ndof(shape.dim), shape.nthermo);
        debug_assert_eq!(f.kin.npts(shape.dim), shape.npts);
        f
    }
}

/// Zone-private scratch for the matrix-free kernels: gathered coefficients,
/// per-zone point batches, and the contraction staging buffers. Grow-only —
/// one instance per worker thread via `thread_local`, so steady-state
/// evaluations allocate nothing.
#[derive(Debug, Default)]
struct ZoneScratch {
    /// Gathered kinematic vector coefficients (`d * nkin`).
    uz: Vec<f64>,
    /// One forward-transform output (`npts`).
    tmp: Vec<f64>,
    /// Per-point gather / pointwise-product buffer (`npts`).
    q: Vec<f64>,
    /// Reference Jacobian batch, point-major `[k*d² + c + g*d]` (`npts*d²`).
    jac: Vec<f64>,
    /// Reference velocity-gradient batch, same layout.
    gvref: Vec<f64>,
    /// Interpolated specific internal energy (`npts`).
    e_pt: Vec<f64>,
    /// Contraction staging.
    sf: SumfacScratch,
}

thread_local! {
    static TLS_ZS: RefCell<ZoneScratch> = RefCell::new(ZoneScratch::default());
}

fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Gathers the `d * nkin` zone-local kinematic vector coefficients of zone
/// `z` from the global component-major vector `u`.
#[inline]
pub(crate) fn gather_kin(
    u: &[f64],
    num_h1_dofs: usize,
    dofs: &[usize],
    d: usize,
    nkin: usize,
    out: &mut [f64],
) {
    for c in 0..d {
        let comp = &u[c * num_h1_dofs..(c + 1) * num_h1_dofs];
        let oc = &mut out[c * nkin..(c + 1) * nkin];
        for (m, o) in oc.iter_mut().enumerate() {
            *o = comp[dofs[m]];
        }
    }
}

/// Runs the `d²` forward gradient transforms of the gathered vector field
/// `uz`, scattering into the point-major `[k*d² + c + g*d]` batch `out`.
pub(crate) fn forward_gradients(
    f: &Factors1d,
    dim: usize,
    uz: &[f64],
    nkin: usize,
    npts: usize,
    tmp: &mut [f64],
    sf: &mut SumfacScratch,
    out: &mut [f64],
) {
    let d2 = dim * dim;
    for c in 0..dim {
        let comp = &uz[c * nkin..(c + 1) * nkin];
        for g in 0..dim {
            forward(f, dim, comp, Some(g), &mut tmp[..npts], sf);
            for (k, &t) in tmp[..npts].iter().enumerate() {
                out[k * d2 + c + g * dim] = t;
            }
        }
    }
}

/// The per-point sweep of one zone of the matrix-free force, `W` points at
/// a time: kernel-1 geometry, the kernel-5 product `∇v = ∇̂v̂ adj(J) / |J|`,
/// kernel-2 EOS + viscosity, and the kernel-6 product `S = σ̂ adj(J)^T`
/// fused with the kernel-4 quadrature weight into `D = α_k S`. The group's
/// `adj` / `∇v` / `σ̂` blocks live on the stack.
#[inline(always)]
fn zone_points_body<const D: usize, const W: usize>(
    zone: &ZonePhysics<'_>,
    jac: &[f64],
    gvref: &[f64],
    e_pt: &[f64],
    alpha: &[f64],
    rho0detj0: &[f64],
    dsf: &mut [f64],
    detj: &mut [f64],
    inv_dt: &mut [f64],
) {
    let d2 = D * D;
    let npts = detj.len();
    let mut adj = [[0.0; 9]; W];
    let mut gv = [[0.0; 9]; W];
    let mut sig = [[0.0; 9]; W];
    let mut hmin = [0.0; W];
    for k0 in (0..npts).step_by(W) {
        let n = W.min(npts - k0);
        let (pts, mats) = (k0..k0 + n, k0 * d2..(k0 + n) * d2);
        let adj = &mut adj.as_flattened_mut()[..n * d2];
        let gv = &mut gv.as_flattened_mut()[..n * d2];
        let sig = &mut sig.as_flattened_mut()[..n * d2];
        point::geometry::<D, W>(&jac[mats.clone()], adj, &mut detj[pts.clone()], &mut hmin[..n]);
        // Kernel-5 equivalent: ∇v = ∇̂v̂ · adj(J) / det(J).
        for ((gv_k, adj_k), (gvref_k, &det)) in gv
            .chunks_exact_mut(d2)
            .zip(adj.chunks_exact(d2))
            .zip(gvref[mats.clone()].chunks_exact(d2).zip(&detj[pts.clone()]))
        {
            let inv_det = 1.0 / det;
            for g in 0..D {
                for c in 0..D {
                    let mut acc = 0.0;
                    for t in 0..D {
                        acc += gvref_k[c + t * D] * adj_k[t + g * D];
                    }
                    gv_k[c + g * D] = acc * inv_det;
                }
            }
        }
        point::stress::<D, W>(
            zone,
            &e_pt[pts.clone()],
            &rho0detj0[pts.clone()],
            &detj[pts.clone()],
            &hmin[..n],
            gv,
            &jac[mats.clone()],
            sig,
            &mut inv_dt[pts.clone()],
        );
        // Kernel-6 equivalent (S = σ̂ adj^T) fused with the kernel-4
        // quadrature weight: D = α_k S.
        for ((dsf_k, &ak), (sig_k, adj_k)) in dsf[mats]
            .chunks_exact_mut(d2)
            .zip(&alpha[pts])
            .zip(sig.chunks_exact(d2).zip(adj.chunks_exact(d2)))
        {
            for g in 0..D {
                for c in 0..D {
                    let mut acc = 0.0;
                    for t in 0..D {
                        acc += sig_k[c + t * D] * adj_k[g + t * D];
                    }
                    dsf_k[c + g * D] = ak * acc;
                }
            }
        }
    }
}

isa_clones! {
    /// [`zone_points_body`] as compiled for `isa`.
    fn zone_points = lanes zone_points_body(
        zone: &ZonePhysics<'_>,
        jac: &[f64],
        gvref: &[f64],
        e_pt: &[f64],
        alpha: &[f64],
        rho0detj0: &[f64],
        dsf: &mut [f64],
        detj: &mut [f64],
        inv_dt: &mut [f64],
    )
}

/// Matrix-free corner-force kernel: one fused sweep replacing kernels
/// 1/2/3/5/6 *and* the `A_z` assembly of kernel 4. Per zone it gathers
/// `(x, v, e)`, sum-factorizes `J(q̂_k)` and `∇̂v̂(q̂_k)`, runs the
/// per-point geometry/EOS/viscosity bodies of kernels 1–2 (`crate::point`),
/// and persists only `D_z(k) = α_k σ̂(k) adj(J)^T` (`d x d` per point) plus
/// `det J` and the per-point timestep control.
#[derive(Clone, Copy, Debug)]
pub struct SumfacForceKernel {
    /// Include the artificial-viscosity stress (off only in unit tests).
    pub use_viscosity: bool,
}

impl SumfacForceKernel {
    /// Kernel name in traces and the paper-style tables.
    pub const NAME: &'static str = "kernel_sumfac_force";

    /// Launch configuration: one block per zone, threads covering the
    /// quadrature points, the zone's factor/stage working set in shared
    /// memory (capped at the K20-class 48 KB — larger zones spill slices
    /// to L2, which the traffic model charges).
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        let d2 = shape.dim * shape.dim;
        let want = (2 * shape.npts * d2 + 3 * shape.npts) * 8;
        LaunchConfig::new(
            shape.zones as u32,
            (shape.npts as u32).clamp(64, 512),
            (want as u32).min(40 * 1024),
            64,
        )
    }

    /// Modeled traffic. Matrix-free trades the stored path's `A_z` batch
    /// writes (`nvdof * npts` doubles per zone) for recomputed
    /// contractions: per-zone DRAM shrinks to the gathered state plus the
    /// `d²`-per-point outputs, while flops stay within a small factor —
    /// the flop/byte shift the roofline and power model see.
    pub fn traffic(&self, shape: &ProblemShape, f: &SumfacFactors) -> Traffic {
        let d = shape.dim as f64;
        let d2 = d * d;
        let z = shape.zones as f64;
        let npts = shape.npts as f64;
        let fk = f.kin.transform_flops(shape.dim);
        let ft = f.thermo.transform_flops(shape.dim);
        // d² gradient transforms each for x and v, one thermo value
        // transform for e.
        let contraction = 2.0 * d2 * fk + ft;
        // Kernel-1 geometry (adjugate/det/SVD), kernel-2 EOS + viscosity
        // (eigen-solve dominated), two d x d matmuls (spatial grad, S) and
        // the α_k scale.
        let per_pt = if shape.dim == 3 { 520.0 + 150.0 } else { 90.0 + 60.0 } + 4.0 * d2 * d + d2;
        let flops = z * (contraction + npts * per_pt);
        // Gathered x/v/e + rho0detj0 + zone constants in; Dsf + detj +
        // inv_dt out. Factor tables are tiny and L2-resident.
        let dram = z
            * ((2.0 * d * shape.nkin as f64 + shape.nthermo as f64) * 8.0
                + npts * 8.0
                + npts * (d2 + 2.0) * 8.0);
        // Stage traffic (jac/gvref batches + transform stages) cycles
        // through shared/L1 and partially spills to L2 at high order.
        let l2 = z * npts * (2.0 * d2 + 4.0) * 8.0;
        let shared = z * npts * (2.0 * d2 + 6.0) * 8.0;
        Traffic { flops, dram_bytes: dram, l2_bytes: l2, shared_bytes: shared, ..Default::default() }
    }

    /// Pure computation. `x`/`v` are component-major global H1 vectors,
    /// `e` the zone-major L2 coefficients; `alpha` the `npts` quadrature
    /// weights; `rho0detj0` the frozen per-point mass factor. Outputs:
    /// `dsf` (`d x d` per point — the persisted `α_k σ̂ adj(J)^T`), `detj`
    /// and `inv_dt` per point.
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        &self,
        shape: &ProblemShape,
        factors: &SumfacFactors,
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
        self.compute_at(
            Isa::detect(),
            shape,
            factors,
            x,
            v,
            e,
            num_h1_dofs,
            zone_dofs,
            alpha,
            rho0detj0,
            consts,
            dsf,
            detj,
            inv_dt,
        );
    }

    /// [`SumfacForceKernel::compute`] with the per-point sweep compiled for
    /// `isa`.
    #[allow(clippy::too_many_arguments)]
    fn compute_at(
        &self,
        isa: Isa,
        shape: &ProblemShape,
        factors: &SumfacFactors,
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
        let d = shape.dim;
        let d2 = d * d;
        let npts = shape.npts;
        let nkin = shape.nkin;
        let nthermo = shape.nthermo;
        let total = shape.total_points();
        assert_eq!(x.len(), d * num_h1_dofs);
        assert_eq!(v.len(), d * num_h1_dofs);
        assert_eq!(e.len(), shape.zones * nthermo);
        assert_eq!(zone_dofs.len(), shape.zones * nkin);
        assert_eq!(alpha.len(), npts);
        assert_eq!(rho0detj0.len(), total);
        assert_eq!(dsf.shape(), (d, d));
        assert_eq!(dsf.count(), total);
        assert_eq!(detj.len(), total);
        assert_eq!(inv_dt.len(), total);

        dsf.as_mut_slice()
            .par_chunks_exact_mut(npts * d2)
            .zip(detj.par_chunks_exact_mut(npts))
            .zip(inv_dt.par_chunks_exact_mut(npts))
            .enumerate()
            .for_each(|(z, ((dsf_z, detj_z), invdt_z))| {
                TLS_ZS.with(|zs| {
                    let zs = &mut *zs.borrow_mut();
                    grow(&mut zs.uz, d * nkin);
                    grow(&mut zs.tmp, npts);
                    grow(&mut zs.jac, npts * d2);
                    grow(&mut zs.gvref, npts * d2);
                    grow(&mut zs.e_pt, npts);
                    let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];

                    // Sum-factorized reference Jacobian J[c,g] = ∂x_c/∂x̂_g.
                    gather_kin(x, num_h1_dofs, dofs, d, nkin, &mut zs.uz);
                    forward_gradients(
                        &factors.kin, d, &zs.uz, nkin, npts, &mut zs.tmp, &mut zs.sf,
                        &mut zs.jac,
                    );
                    // Sum-factorized reference velocity gradient.
                    gather_kin(v, num_h1_dofs, dofs, d, nkin, &mut zs.uz);
                    forward_gradients(
                        &factors.kin, d, &zs.uz, nkin, npts, &mut zs.tmp, &mut zs.sf,
                        &mut zs.gvref,
                    );
                    // Sum-factorized energy interpolation.
                    let ez = &e[z * nthermo..(z + 1) * nthermo];
                    forward(&factors.thermo, d, ez, None, &mut zs.e_pt[..npts], &mut zs.sf);

                    let zone = ZonePhysics::new(consts, z, shape, self.use_viscosity);
                    let (jac, gvref, e_pt) =
                        (&zs.jac[..npts * d2], &zs.gvref[..npts * d2], &zs.e_pt[..npts]);
                    let rho_z = &rho0detj0[z * npts..(z + 1) * npts];
                    if d == 2 {
                        zone_points::<2>(
                            isa, &zone, jac, gvref, e_pt, alpha, rho_z, dsf_z, detj_z, invdt_z,
                        );
                    } else {
                        zone_points::<3>(
                            isa, &zone, jac, gvref, e_pt, alpha, rho_z, dsf_z, detj_z, invdt_z,
                        );
                    }
                });
            });
    }
}

/// Matrix-free momentum right-hand side: `rhs -= A_z (B^T·1)` applied as
/// `d²` backward gradient transforms of `D_z(k) t(k)` per zone — the
/// kernel-8 replacement with no `F_z` batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct SumfacMomentumKernel;

impl SumfacMomentumKernel {
    /// Kernel name in traces and the paper-style tables.
    pub const NAME: &'static str = "kernel_sumfac_momentum";

    /// Launch configuration (one block per zone, kernel-8 style).
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        LaunchConfig::new(
            shape.zones as u32,
            (shape.nvdof() as u32).clamp(64, 512),
            ((shape.nvdof() * 8) as u32).min(40 * 1024),
            32,
        )
    }

    /// Modeled traffic: reads the `d²`-per-point `D` batch, writes the
    /// accumulated H1 vector.
    pub fn traffic(&self, shape: &ProblemShape, f: &SumfacFactors) -> Traffic {
        let d = shape.dim as f64;
        let z = shape.zones as f64;
        let npts = shape.npts as f64;
        let fk = f.kin.transform_flops(shape.dim);
        let flops = z * (d * d * (fk + 2.0 * npts) + 2.0 * shape.nvdof() as f64);
        let dram = z * (npts * d * d * 8.0 + shape.nvdof() as f64 * 2.0 * 8.0);
        let l2 = z * npts * d * d * 8.0;
        Traffic { flops, dram_bytes: dram, l2_bytes: l2, ..Default::default() }
    }

    /// Pure computation. `rhs` (component-major, `d * num_h1_dofs`) is
    /// *accumulated* (`-=`), matching the stored kernel-8 contract; the
    /// gather/scatter uses zone-private staging in `local`
    /// (`zones * nvdof`, grow-only) and a serial zone-order scatter for
    /// bitwise determinism at any thread count.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_with(
        &self,
        shape: &ProblemShape,
        factors: &SumfacFactors,
        dsf: &BatchedMats,
        zone_dofs: &[usize],
        num_h1_dofs: usize,
        rhs: &mut [f64],
        local: &mut Vec<f64>,
    ) {
        let d = shape.dim;
        let d2 = d * d;
        let npts = shape.npts;
        let nkin = shape.nkin;
        let nvdof = shape.nvdof();
        assert_eq!(dsf.count(), shape.total_points());
        assert_eq!(rhs.len(), d * num_h1_dofs);
        assert_eq!(zone_dofs.len(), shape.zones * nkin);

        let staged = shape.zones * nvdof;
        if local.len() < staged {
            local.resize(staged, 0.0);
        }
        let local = &mut local[..staged];
        let dsf_all = dsf.as_slice();
        let tvals = &factors.tvals;
        local.par_chunks_exact_mut(nvdof).enumerate().for_each(|(z, loc)| {
            TLS_ZS.with(|zs| {
                let zs = &mut *zs.borrow_mut();
                grow(&mut zs.q, npts);
                let dsf_z = &dsf_all[z * npts * d2..(z + 1) * npts * d2];
                for c in 0..d {
                    let out = &mut loc[c * nkin..(c + 1) * nkin];
                    for g in 0..d {
                        // w(k) = D[c,g](k) t(k); Σ_g accumulates via beta.
                        for (k, q) in zs.q[..npts].iter_mut().enumerate() {
                            *q = dsf_z[k * d2 + c + g * d] * tvals[k];
                        }
                        let beta = if g == 0 { 0.0 } else { 1.0 };
                        backward(&factors.kin, d, &zs.q[..npts], Some(g), beta, out, &mut zs.sf);
                    }
                }
            });
        });
        // Serial zone-order scatter (shared H1 DOFs) — the determinism
        // contract of the stored kernel 8.
        for z in 0..shape.zones {
            let loc = &local[z * nvdof..(z + 1) * nvdof];
            let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
            for c in 0..d {
                for (m, &dof) in dofs.iter().enumerate() {
                    rhs[c * num_h1_dofs + dof] -= loc[c * nkin + m];
                }
            }
        }
    }
}

/// Matrix-free energy right-hand side: `rhs_e_z = F_z^T v_z` applied as
/// `d²` forward gradient transforms of `v`, a pointwise contraction with
/// `D_z`, and one backward thermo value transform — the kernel-10
/// replacement with no `F_z` batch. L2 DOFs are zone-local, so the write
/// is conflict-free and fully parallel.
#[derive(Clone, Copy, Debug, Default)]
pub struct SumfacEnergyKernel;

impl SumfacEnergyKernel {
    /// Kernel name in traces and the paper-style tables.
    pub const NAME: &'static str = "kernel_sumfac_energy";

    /// Launch configuration (one block per zone, kernel-10 style).
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        LaunchConfig::new(
            shape.zones as u32,
            (shape.npts as u32).clamp(64, 512),
            ((shape.npts * 2 * 8) as u32).min(40 * 1024),
            32,
        )
    }

    /// Modeled traffic.
    pub fn traffic(&self, shape: &ProblemShape, f: &SumfacFactors) -> Traffic {
        let d = shape.dim as f64;
        let z = shape.zones as f64;
        let npts = shape.npts as f64;
        let fk = f.kin.transform_flops(shape.dim);
        let ft = f.thermo.transform_flops(shape.dim);
        let flops = z * (d * d * (fk + 2.0 * npts) + ft);
        let dram = z
            * (npts * d * d * 8.0
                + d * shape.nkin as f64 * 8.0
                + shape.nthermo as f64 * 8.0);
        let l2 = z * npts * d * d * 8.0;
        Traffic { flops, dram_bytes: dram, l2_bytes: l2, ..Default::default() }
    }

    /// Pure computation: `rhs_e` (`zones * nthermo`, zone-major) is
    /// *assigned*, matching the stored kernel-10 contract.
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        &self,
        shape: &ProblemShape,
        factors: &SumfacFactors,
        dsf: &BatchedMats,
        v: &[f64],
        zone_dofs: &[usize],
        num_h1_dofs: usize,
        rhs_e: &mut [f64],
    ) {
        let d = shape.dim;
        let d2 = d * d;
        let npts = shape.npts;
        let nkin = shape.nkin;
        let nthermo = shape.nthermo;
        assert_eq!(dsf.count(), shape.total_points());
        assert_eq!(v.len(), d * num_h1_dofs);
        assert_eq!(rhs_e.len(), shape.zones * nthermo);

        let dsf_all = dsf.as_slice();
        rhs_e.par_chunks_exact_mut(nthermo).enumerate().for_each(|(z, out)| {
            TLS_ZS.with(|zs| {
                let zs = &mut *zs.borrow_mut();
                grow(&mut zs.uz, d * nkin);
                grow(&mut zs.tmp, npts);
                grow(&mut zs.q, npts);
                let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
                gather_kin(v, num_h1_dofs, dofs, d, nkin, &mut zs.uz);
                let dsf_z = &dsf_all[z * npts * d2..(z + 1) * npts * d2];
                zs.q[..npts].fill(0.0);
                for c in 0..d {
                    let comp = &zs.uz[c * nkin..(c + 1) * nkin];
                    for g in 0..d {
                        forward(&factors.kin, d, comp, Some(g), &mut zs.tmp[..npts], &mut zs.sf);
                        for (k, q) in zs.q[..npts].iter_mut().enumerate() {
                            *q += dsf_z[k * d2 + c + g * d] * zs.tmp[k];
                        }
                    }
                }
                backward(&factors.thermo, d, &zs.q[..npts], None, 0.0, out, &mut zs.sf);
            });
        });
    }
}

/// Matrix-free kinematic mass application: `y_z = B^T Λ_z B x_z` with
/// `Λ_z = diag(α_k w(q̂_k))` — two sum-factorized value transforms around a
/// pointwise scale, replacing the CSR SpMV of the momentum PCG entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct SumfacMassKernel;

impl SumfacMassKernel {
    /// Kernel name in traces and the paper-style tables.
    pub const NAME: &'static str = "kernel_sumfac_mass_apply";

    /// Launch configuration (one block per zone).
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        LaunchConfig::new(
            shape.zones as u32,
            (shape.npts as u32).clamp(64, 512),
            (((shape.npts + shape.nkin) * 8) as u32).min(40 * 1024),
            32,
        )
    }

    /// Modeled traffic for one scalar-component apply. Contrast with the
    /// CSR SpMV: `nnz ~ num_h1_dofs * nkin_stencil` matrix bytes per sweep
    /// vs. the `npts` scale factors here — the arithmetic-intensity jump
    /// of the SpMV-free PCG.
    pub fn traffic(&self, shape: &ProblemShape, f: &SumfacFactors, num_h1_dofs: usize) -> Traffic {
        let z = shape.zones as f64;
        let npts = shape.npts as f64;
        let fk = f.kin.transform_flops(shape.dim);
        let flops = z * (2.0 * fk + npts);
        let dram = z * (npts * 8.0 + 2.0 * shape.nkin as f64 * 8.0) + num_h1_dofs as f64 * 8.0;
        let l2 = z * npts * 8.0;
        Traffic { flops, dram_bytes: dram, l2_bytes: l2, ..Default::default() }
    }

    /// Pure computation for one scalar component: `y = M_V x` with
    /// `svals[p] = α_{p mod npts} w(p)` the precomputed per-point mass
    /// factor. `y` is fully overwritten; gather/scatter mirror the
    /// momentum kernel (zone staging in `local`, serial scatter).
    #[allow(clippy::too_many_arguments)]
    pub fn compute_with(
        &self,
        shape: &ProblemShape,
        factors: &SumfacFactors,
        svals: &[f64],
        zone_dofs: &[usize],
        num_h1_dofs: usize,
        x: &[f64],
        y: &mut [f64],
        local: &mut Vec<f64>,
    ) {
        let d = shape.dim;
        let npts = shape.npts;
        let nkin = shape.nkin;
        assert_eq!(svals.len(), shape.total_points());
        assert_eq!(x.len(), num_h1_dofs);
        assert_eq!(y.len(), num_h1_dofs);
        assert_eq!(zone_dofs.len(), shape.zones * nkin);

        let staged = shape.zones * nkin;
        if local.len() < staged {
            local.resize(staged, 0.0);
        }
        let local = &mut local[..staged];
        local.par_chunks_exact_mut(nkin).enumerate().for_each(|(z, loc)| {
            TLS_ZS.with(|zs| {
                let zs = &mut *zs.borrow_mut();
                grow(&mut zs.uz, nkin.max(d * nkin));
                grow(&mut zs.q, npts);
                let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
                for (m, u) in zs.uz[..nkin].iter_mut().enumerate() {
                    *u = x[dofs[m]];
                }
                forward(&factors.kin, d, &zs.uz[..nkin], None, &mut zs.q[..npts], &mut zs.sf);
                let sz = &svals[z * npts..(z + 1) * npts];
                for (q, &s) in zs.q[..npts].iter_mut().zip(sz) {
                    *q *= s;
                }
                backward(&factors.kin, d, &zs.q[..npts], None, 0.0, loc, &mut zs.sf);
            });
        });
        y.fill(0.0);
        for z in 0..shape.zones {
            let loc = &local[z * nkin..(z + 1) * nkin];
            let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
            for (m, &dof) in dofs.iter().enumerate() {
                y[dof] += loc[m];
            }
        }
    }

    /// The Jacobi-preconditioner diagonal of the matrix-free mass
    /// operator, reproducing the stored CSR assembly's accumulation order
    /// exactly (`fem::mass`: quadrature-point outer loop, zero-weight and
    /// zero-basis skips, zone-order serial scatter) — bitwise equal to the
    /// CSR matrix diagonal.
    pub fn diagonal(
        &self,
        shape: &ProblemShape,
        factors: &SumfacFactors,
        svals: &[f64],
        zone_dofs: &[usize],
        num_h1_dofs: usize,
    ) -> Vec<f64> {
        let npts = shape.npts;
        let nkin = shape.nkin;
        let m1 = factors.kin.m1;
        let n1 = factors.kin.n1;
        let b = &factors.kin.b;
        let mut diag = vec![0.0; num_h1_dofs];
        let mut bvals = vec![0.0; nkin];
        for z in 0..shape.zones {
            let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
            for k in 0..npts {
                let s = svals[z * npts + k];
                if s == 0.0 {
                    continue;
                }
                // ŵ_j(q̂_k) from the 1D factors (tensor product, axis 0
                // fastest — identical values to the tabulated table).
                for (j, bv) in bvals.iter_mut().enumerate() {
                    let mut rem_j = j;
                    let mut rem_k = k;
                    let mut v = 1.0;
                    for _ in 0..shape.dim {
                        v *= b[(rem_k % m1) + (rem_j % n1) * m1];
                        rem_j /= n1;
                        rem_k /= m1;
                    }
                    *bv = v;
                }
                for (j, &bj) in bvals.iter().enumerate() {
                    if bj == 0.0 {
                        continue;
                    }
                    diag[dofs[j]] += (s * bj) * bj;
                }
            }
        }
        diag
    }
}

/// Modeled resident bytes of the *stored* assembly's operator data: the
/// per-point small-matrix batches, a chunked `A_z` buffer (the `F_z`
/// kernel consumes it 512 zones at a time), the full `F_z` batch,
/// double-buffered state vectors and the estimated CSR kinematic mass
/// matrix (FEM sparsity `(2k+1)^D` per row). Mirrors the solver's device
/// footprint so builder pre-checks, the autotuner and the bench report all
/// agree on the same number.
pub fn stored_resident_bytes(shape: &ProblemShape, num_h1_dofs: usize, num_l2_dofs: usize) -> usize {
    let total = shape.total_points();
    let d2 = shape.dim * shape.dim;
    let per_point = 6 * d2 * 8 + 4 * 8;
    let az_chunk = shape.zones.min(512) * shape.nvdof() * shape.npts * 8;
    let fz = shape.zones * shape.nvdof() * shape.nthermo * 8;
    let state = (2 * shape.dim * num_h1_dofs + num_l2_dofs) * 8 * 2;
    let nnz_est = num_h1_dofs * (2 * shape.order + 1).pow(shape.dim as u32);
    let mv_bytes = nnz_est * 12 + (num_h1_dofs + 1) * 8;
    total * per_point + az_chunk + fz + state + mv_bytes
}

/// Modeled resident bytes of the *matrix-free* path: only `d x d`
/// quadrature-point data (`D_z`, `det J`, `1/dt`, the mass scale factors),
/// the zone staging rows of the serial-scatter kernels, double-buffered
/// state, the Jacobi diagonal and the (tiny) 1D factor tables. No `A_z`,
/// no `F_z`, no CSR matrix — this is what breaks the §4.1 memory ceiling.
pub fn matfree_resident_bytes(
    shape: &ProblemShape,
    num_h1_dofs: usize,
    num_l2_dofs: usize,
) -> usize {
    let total = shape.total_points();
    let d2 = shape.dim * shape.dim;
    // dsf (d² per point) + detj + inv_dt + rho0detj0 + svals.
    let point_data = total * (d2 + 4) * 8;
    let staging = shape.zones * shape.nvdof() * 8;
    let state = (2 * shape.dim * num_h1_dofs + num_l2_dofs) * 8 * 2;
    let precond = num_h1_dofs * 8;
    let m1 = quad_points_1d(shape.order);
    let factors = 2 * (2 * m1 * (shape.order + 1) + m1) * 8 + shape.npts * 8;
    point_data + staging + state + precond + factors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembly_mode_display_and_default() {
        assert_eq!(AssemblyMode::default(), AssemblyMode::Stored);
        assert_eq!(AssemblyMode::Stored.to_string(), "stored");
        assert_eq!(AssemblyMode::MatrixFree.to_string(), "matrix-free");
        assert!(AssemblyMode::MatrixFree.is_matrix_free());
        assert!(!AssemblyMode::Stored.is_matrix_free());
    }

    #[test]
    fn factors_match_shape() {
        for (dim, order) in [(2, 2), (2, 3), (3, 2), (3, 4)] {
            let shape = ProblemShape::new(dim, order, 4);
            let f = SumfacFactors::for_shape(&shape);
            assert_eq!(f.kin.ndof(dim), shape.nkin);
            assert_eq!(f.thermo.ndof(dim), shape.nthermo);
            assert_eq!(f.tvals.len(), shape.npts);
            // L2 Lagrange basis is a partition of unity: B^T·1 = 1.
            for &t in &f.tvals {
                assert!((t - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matfree_traffic_shifts_the_roofline() {
        let shape = ProblemShape::new(3, 4, 256);
        let f = SumfacFactors::for_shape(&shape);
        let force = SumfacForceKernel { use_viscosity: true };
        let t = force
            .traffic(&shape, &f)
            .add(&SumfacMomentumKernel.traffic(&shape, &f))
            .add(&SumfacEnergyKernel.traffic(&shape, &f));
        // The stored phase pays the A_z batch write (k4) and re-read (k7)
        // through DRAM, and its flops are dominated by the dense
        // nvdof x npts x nthermo contraction of k7.
        let stored = crate::base::MonolithicCornerForce
            .optimized_equivalent_traffic(&shape)
            .add(&crate::k7::FzKernel::tuned().traffic(&shape))
            .add(&crate::k8_10::MomentumRhsKernel.traffic(&shape))
            .add(&crate::k8_10::EnergyRhsKernel.traffic(&shape));
        // Sum factorization does the same physics in an order of magnitude
        // fewer flops AND an order of magnitude fewer DRAM bytes at Q4.
        assert!(t.flops * 10.0 < stored.flops, "{} vs {}", t.flops, stored.flops);
        assert!(
            t.dram_bytes * 10.0 < stored.dram_bytes,
            "{} vs {}",
            t.dram_bytes,
            stored.dram_bytes
        );
        // And the per-zone resident bytes collapse: no nvdof x npts batch.
        let stored_batch = shape.zones * shape.nvdof() * shape.npts * 8;
        let matfree_batch = shape.total_points() * (shape.dim * shape.dim + 2) * 8;
        assert!(matfree_batch * 10 < stored_batch);
    }

    #[test]
    fn mass_apply_beats_spmv_arithmetic_intensity() {
        // The SpMV-free PCG apply is where the flop/byte shift is starkest:
        // a CSR SpMV moves ~12 bytes per 2 flops (value + column index per
        // nonzero), while the sum-factorized apply re-derives the operator
        // from O(npts) scale factors per zone.
        let shape = ProblemShape::new(3, 4, 256);
        let f = SumfacFactors::for_shape(&shape);
        let num_h1_dofs = shape.zones * shape.nkin; // upper bound, no sharing
        let t = SumfacMassKernel.traffic(&shape, &f, num_h1_dofs);
        let ai_matfree = t.flops / t.dram_bytes;
        let nnz = num_h1_dofs as f64 * shape.nkin as f64;
        let ai_spmv = 2.0 * nnz / (nnz * 12.0 + 2.0 * num_h1_dofs as f64 * 8.0);
        assert!(
            ai_matfree > 4.0 * ai_spmv,
            "matfree {ai_matfree} should dwarf spmv {ai_spmv}"
        );
    }

    #[test]
    fn mass_apply_is_symmetric_and_deterministic() {
        let shape = ProblemShape::new(2, 3, 4);
        let f = SumfacFactors::for_shape(&shape);
        // Fake connectivity: zone-private DOFs (no sharing) keeps the
        // symmetry argument exact without a mesh.
        let num_h1_dofs = shape.zones * shape.nkin;
        let zone_dofs: Vec<usize> = (0..num_h1_dofs).collect();
        let svals: Vec<f64> =
            (0..shape.total_points()).map(|p| 0.5 + (p as f64 * 0.17).sin().abs()).collect();
        let kern = SumfacMassKernel;
        let xa: Vec<f64> = (0..num_h1_dofs).map(|i| (i as f64 * 0.31).cos()).collect();
        let xb: Vec<f64> = (0..num_h1_dofs).map(|i| (i as f64 * 0.11).sin()).collect();
        let mut ya = vec![0.0; num_h1_dofs];
        let mut yb = vec![0.0; num_h1_dofs];
        let mut local = Vec::new();
        kern.compute_with(&shape, &f, &svals, &zone_dofs, num_h1_dofs, &xa, &mut ya, &mut local);
        kern.compute_with(&shape, &f, &svals, &zone_dofs, num_h1_dofs, &xb, &mut yb, &mut local);
        let lhs: f64 = xb.iter().zip(&ya).map(|(a, b)| a * b).sum();
        let rhs: f64 = xa.iter().zip(&yb).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() <= 1e-12 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
        // Determinism: a second run is bitwise identical.
        let mut ya2 = vec![0.0; num_h1_dofs];
        kern.compute_with(&shape, &f, &svals, &zone_dofs, num_h1_dofs, &xa, &mut ya2, &mut local);
        assert_eq!(ya, ya2);
        // Positive definiteness on a positive weight field.
        assert!(lhs.abs() > 0.0);
        let xtax: f64 = xa.iter().zip(&ya).map(|(a, b)| a * b).sum();
        assert!(xtax > 0.0);
    }

    #[test]
    fn resident_bytes_break_the_q4_ceiling() {
        // Paper §4.1: Q4-Q3 3D tops out at 16³ zones on the 5 GB K20.
        // Stored must exceed the budget one refinement up (32³, and
        // already at 24³); matrix-free must fit at both.
        let cap = 5usize * 1024 * 1024 * 1024;
        let fit = |za: usize| {
            let shape = ProblemShape::new(3, 4, za.pow(3));
            let n_h1 = (4 * za + 1).pow(3);
            let n_l2 = shape.zones * shape.nthermo;
            (
                stored_resident_bytes(&shape, n_h1, n_l2),
                matfree_resident_bytes(&shape, n_h1, n_l2),
            )
        };
        let (s16, m16) = fit(16);
        assert!(s16 <= cap, "stored 16^3 fits ({s16} B)");
        assert!(m16 <= cap);
        for za in [24, 32] {
            let (stored, matfree) = fit(za);
            assert!(stored > cap, "stored {za}^3 should exceed 5 GB, got {stored} B");
            assert!(matfree <= cap, "matfree {za}^3 should fit, got {matfree} B");
            assert!(matfree * 2 < stored, "resident collapse at {za}^3");
        }
    }

    #[test]
    fn mass_diagonal_matches_quadratic_form() {
        let shape = ProblemShape::new(2, 2, 3);
        let f = SumfacFactors::for_shape(&shape);
        let num_h1_dofs = shape.zones * shape.nkin;
        let zone_dofs: Vec<usize> = (0..num_h1_dofs).collect();
        let svals: Vec<f64> =
            (0..shape.total_points()).map(|p| 1.0 + 0.1 * (p as f64).sin()).collect();
        let kern = SumfacMassKernel;
        let diag = kern.diagonal(&shape, &f, &svals, &zone_dofs, num_h1_dofs);
        // diag[i] must equal e_i^T M e_i.
        let mut local = Vec::new();
        for i in [0usize, 3, num_h1_dofs - 1] {
            let mut e = vec![0.0; num_h1_dofs];
            e[i] = 1.0;
            let mut y = vec![0.0; num_h1_dofs];
            kern.compute_with(&shape, &f, &svals, &zone_dofs, num_h1_dofs, &e, &mut y, &mut local);
            assert!((diag[i] - y[i]).abs() <= 1e-13 * diag[i].abs().max(1.0));
        }
    }

    #[test]
    fn force_matches_the_scalar_point_reference_at_every_isa_level() {
        use crate::isa::bits;
        for (order, zones) in [(2, 7), (3, 4)] {
            let shape = ProblemShape::new(3, order, zones);
            let f = SumfacFactors::for_shape(&shape);
            let (d, npts, nkin, nthermo) = (3, shape.npts, shape.nkin, shape.nthermo);
            let total = shape.total_points();
            // Zone-private DOFs; positions are the reference nodes scaled to
            // h = 0.2 and jittered, velocities a strong compression in two
            // zones out of three and exactly zero in the third.
            let num_h1_dofs = zones * nkin;
            let zone_dofs: Vec<usize> = (0..num_h1_dofs).collect();
            let nodes = Basis1d::h1(order).nodes().to_vec();
            let n1 = nodes.len();
            let nmix = 2 * d * num_h1_dofs + zones * nthermo + total;
            let mix = crate::isa::signed_zero_mix(nmix, 31);
            let (mut x, mut v) = (vec![0.0; d * num_h1_dofs], vec![0.0; d * num_h1_dofs]);
            for c in 0..d {
                for dof in 0..num_h1_dofs {
                    let node = nodes[(dof % nkin) / n1.pow(c as u32) % n1];
                    let i = c * num_h1_dofs + dof;
                    x[i] = 0.2 * node + 0.004 * mix[i];
                    let shocked = (dof / nkin) % 3 != 2;
                    v[i] = if shocked { -3.0 * node + 0.8 * mix[d * num_h1_dofs + i] } else { 0.0 };
                }
            }
            let e: Vec<f64> =
                mix[2 * d * num_h1_dofs..][..zones * nthermo].iter().map(|m| m + 0.9).collect();
            let alpha: Vec<f64> = (0..npts).map(|k| 0.01 + 1e-4 * k as f64).collect();
            let rho0detj0: Vec<f64> =
                mix[nmix - total..].iter().map(|m| 0.008 + 0.002 * m).collect();
            let consts = crate::point::shocked::state(&shape, 1).consts;
            let kernel = SumfacForceKernel { use_viscosity: true };

            // The reference: the same transforms, then the point-at-a-time
            // kernel-1 / 5 / 2 / 6 chain through the scalar eigen-solves.
            let mut want_dsf = BatchedMats::zeros(d, d, total);
            let (mut want_detj, mut want_inv_dt) = (vec![0.0; total], vec![0.0; total]);
            crate::point::reference::matfree_force(
                &shape, &f, &x, &v, &e, num_h1_dofs, &zone_dofs, &alpha, &rho0detj0, &consts,
                &mut want_dsf, &mut want_detj, &mut want_inv_dt,
            );
            assert!(want_detj.iter().all(|&dj| dj > 0.0), "the test mesh must be valid");

            for isa in Isa::available() {
                for threads in [1, 2, 8] {
                    let mut dsf = BatchedMats::from_fn(d, d, total, |_, _, _| f64::NAN);
                    let (mut detj, mut inv_dt) = (vec![f64::NAN; total], vec![f64::NAN; total]);
                    rayon::Pool::new(threads).install(|| {
                        kernel.compute_at(
                            isa, &shape, &f, &x, &v, &e, num_h1_dofs, &zone_dofs, &alpha,
                            &rho0detj0, &consts, &mut dsf, &mut detj, &mut inv_dt,
                        )
                    });
                    let what = format!("{isa:?} Q{order} {threads} threads");
                    assert_eq!(bits(dsf.as_slice()), bits(want_dsf.as_slice()), "dsf, {what}");
                    assert_eq!(bits(&detj), bits(&want_detj), "detj, {what}");
                    assert_eq!(bits(&inv_dt), bits(&want_inv_dt), "inv_dt, {what}");
                }
            }
        }
    }
}
