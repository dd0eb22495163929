//! The per-quadrature-point physics of kernels 1 and 2, in groups of `W`
//! points — the one body [`crate::k1`], [`crate::k2`] and the matrix-free
//! force ([`crate::sumfac`]) share, so the two assembly modes agree
//! point-for-point on geometry and stress before their contractions
//! diverge.
//!
//! The paper maps these kernels one *thread per quadrature point*: a warp
//! advances 32 SVDs / eigen-solves in lock step. Here a group of `W` points
//! does the same with one SIMD lane each. In 3D everything around the
//! eigen-solves is the scalar `blast_la` small-matrix arithmetic, point by
//! point; the solves themselves — `σ_min(J)` from the eigenvalues of `JᵀJ`
//! in `geometry`, the maximal-compression eigenpair of `sym(∇v)` in
//! `stress` — are packed on the stack and run through
//! [`blast_la::eig::sym_eigvals3_lanes`] / [`sym_eig3_lanes`], whose lanes
//! are bit-identical to the scalar `sym_eig3`. In 2D the whole body runs on
//! the lanes: kernel 1 forms `adj(J)`, `|J|` and `sym(JᵀJ)` lane-wise in
//! `SmallMat`'s operation order and takes `σ_min(J)` from the smaller
//! eigenvalue alone ([`sym_eigvals2_lanes`], the part of `svd2` that
//! `min_singular()` reads); kernel 2 takes the eigenpair from
//! [`sym_eig2_lanes`] and runs the EOS, the viscosity and the timestep
//! control with no per-point branch — the viscosity switch is the zone's,
//! the floors are `f64::max`, the smooth switch is selects. A point's
//! results therefore do not depend on `W`, on its position in the group,
//! or on its neighbours; a ragged group is padded with identity lanes (2D
//! stress: copies of its last point), which are dropped.
//!
//! Both bodies are `#[inline(always)]` and reach the kernels through
//! `isa_clones!` (`lanes` form), which fixes `W` per instruction-set level.

use blast_la::eig::{
    identity3_lanes, sym_eig2_lanes, sym_eig3_lanes, sym_eigvals2_lanes, sym_eigvals3_lanes,
};
use blast_la::SmallMat;

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
        return geometry_2d::<W>(jac, adj, det, hmin);
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

/// [`geometry`] in 2D, every step across the group's `W` lanes: `J`
/// gathered point-major into lanes (identity in the spare lanes of a ragged
/// group), then per lane `SmallMat`'s adjugate and `det`, `sym(JᵀJ)` in its
/// product order (each sum from `+0.0`, `0.5·(a + b)`), and of `svd2` only
/// what `min_singular()` reads: the smaller eigenvalue of that matrix
/// ([`sym_eigvals2_lanes`]), floored at zero, square-rooted.
#[inline(always)]
fn geometry_2d<const W: usize>(jac: &[f64], adj: &mut [f64], det: &mut [f64], hmin: &mut [f64]) {
    let n = det.len();
    // j[r][c][l]: entry (r, c) of point l's Jacobian.
    let mut j = [[[0.0; W]; 2]; 2];
    j[0][0] = [1.0; W];
    j[1][1] = [1.0; W];
    for (l, jl) in jac.chunks_exact(4).enumerate() {
        (j[0][0][l], j[1][0][l], j[0][1][l], j[1][1][l]) = (jl[0], jl[1], jl[2], jl[3]);
    }
    let (mut adj_l, mut det_l, mut jtj) = ([[0.0; W]; 4], [0.0; W], [[[0.0; W]; 2]; 2]);
    for l in 0..W {
        let m = |r: usize, c: usize| j[r][c][l];
        // Column-major adj(J) and |J| (`SmallMat::<2>::{adjugate, det}`).
        (adj_l[0][l], adj_l[1][l], adj_l[2][l], adj_l[3][l]) =
            (m(1, 1), -m(1, 0), -m(0, 1), m(0, 0));
        det_l[l] = m(0, 0) * m(1, 1) - m(0, 1) * m(1, 0);
        // (JᵀJ)(a, b) as `SmallMat`'s product sums it, then `sym()`.
        let ata = |a: usize, b: usize| 0.0 + m(0, a) * m(0, b) + m(1, a) * m(1, b);
        jtj[0][0][l] = 0.5 * (ata(0, 0) + ata(0, 0));
        jtj[1][0][l] = 0.5 * (ata(1, 0) + ata(0, 1));
        jtj[1][1][l] = 0.5 * (ata(1, 1) + ata(1, 1));
    }
    let sq = sym_eigvals2_lanes(&jtj);
    let hmin_l: [f64; W] = std::array::from_fn(|l| sq[1][l].max(0.0).sqrt());
    for (l, al) in adj.chunks_exact_mut(4).enumerate() {
        al.copy_from_slice(&[adj_l[0][l], adj_l[1][l], adj_l[2][l], adj_l[3][l]]);
    }
    det.copy_from_slice(&det_l[..n]);
    hmin.copy_from_slice(&hmin_l[..n]);
}

/// Smooth step that is 0 below 0 and 1 above `eps` (C1 transition) — the
/// reference implementation's differentiable "if compressing" switch,
/// written as two selects over the ramp, which every lane computes: the
/// bits of the branches in `reference`, NaN included (a NaN fails both
/// tests and takes the ramp).
#[inline(always)]
pub(crate) fn smooth_step_01(x: f64, eps: f64) -> f64 {
    let y = x / eps;
    let ramp = y * y * (3.0 - 2.0 * y);
    let above = if x >= eps { 1.0 } else { ramp };
    if x <= 0.0 {
        0.0
    } else {
        above
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
    if D == 2 {
        let point_data = [e_pt, rho0detj0, det, hmin, grad_v, jac];
        return stress_2d::<W>(zone, point_data, sigma, inv_dt);
    }
    let ZonePhysics { use_visc, gamma, h0, j0inv, order } = *zone;

    // ε = sym(∇v) per point; its eigen-solves run in lock step.
    let mut eps = [SmallMat::<D>::zeros(); W];
    let mut eps_lanes = identity3_lanes::<W>();
    if use_visc {
        for l in 0..n {
            eps[l] = SmallMat::<D>::from_col_slice(&grad_v[l * d2..(l + 1) * d2]).sym();
            for r in 0..3 {
                for c in 0..=r {
                    eps_lanes[r][c][l] = eps[l][(r, c)];
                }
            }
        }
    }
    let (values, vectors) =
        if use_visc { sym_eig3_lanes(&eps_lanes) } else { ([[0.0; W]; 3], eps_lanes) };

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
            let (mu, dir) = (values[2][l], std::array::from_fn(|i| vectors[i][2][l]));
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

/// [`stress`] in 2D, every step across the group's `W` lanes, with no
/// per-point branch: the inputs gathered into lanes (the spare lanes of a
/// ragged group repeat its last point and are dropped), the smallest
/// eigenpair of `sym(∇v)` from [`sym_eig2_lanes`], then the EOS, the
/// viscosity and the timestep control lane by lane in `reference::stress`'s
/// operation order — its `.max()` floors as they are, its smooth switch as
/// [`smooth_step_01`]'s selects. `point_data` is the group's
/// `[e_pt, rho0detj0, det, hmin, grad_v, jac]`.
#[inline(always)]
fn stress_2d<const W: usize>(
    zone: &ZonePhysics<'_>,
    point_data: [&[f64]; 6],
    sigma: &mut [f64],
    inv_dt: &mut [f64],
) {
    let [e_pt, rho0detj0, det, hmin, grad_v, jac] = point_data;
    let n = inv_dt.len();
    let use_visc = zone.use_visc;
    let lane = |l: usize| l.min(n - 1);
    // g[r][c][l], jm[r][c][l]: entry (r, c) of point l's ∇v and J.
    let (mut g, mut jm) = ([[[0.0; W]; 2]; 2], [[[0.0; W]; 2]; 2]);
    let (mut e, mut rd, mut dj, mut hm) = ([0.0; W], [0.0; W], [0.0; W], [0.0; W]);
    for l in 0..W {
        let p = lane(l);
        for (c, r) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            g[r][c][l] = grad_v[4 * p + r + 2 * c];
            jm[r][c][l] = jac[4 * p + r + 2 * c];
        }
        (e[l], rd[l], dj[l], hm[l]) = (e_pt[p], rho0detj0[p], det[p], hmin[p]);
    }
    // ε = sym(∇v), all four entries (`SmallMat::sym`).
    let eps: [[[f64; W]; 2]; 2] = std::array::from_fn(|r| {
        std::array::from_fn(|c| std::array::from_fn(|l| 0.5 * (g[r][c][l] + g[c][r][l])))
    });
    let (values, vectors) =
        if use_visc { sym_eig2_lanes(&eps) } else { ([[0.0; W]; 2], [[[0.0; W]; 2]; 2]) };

    let (mut sig, mut inv) = ([[[0.0; W]; 2]; 2], [0.0; W]);
    let lanes = Lanes2d { e, rd, dj, hm, jm, eps, mu: values[1] };
    let dir = [vectors[0][1], vectors[1][1]];
    // The zone's one viscosity switch, outside the lane loop.
    if use_visc {
        physics_2d::<W, true>(zone, &lanes, &dir, &mut sig, &mut inv);
    } else {
        physics_2d::<W, false>(zone, &lanes, &dir, &mut sig, &mut inv);
    }
    for (l, sl) in sigma.chunks_exact_mut(4).enumerate() {
        sl.copy_from_slice(&[sig[0][0][l], sig[1][0][l], sig[0][1][l], sig[1][1][l]]);
    }
    inv_dt.copy_from_slice(&inv[..n]);
}

/// One group's per-point inputs to [`physics_2d`], as lanes.
struct Lanes2d<const W: usize> {
    e: [f64; W],
    rd: [f64; W],
    dj: [f64; W],
    hm: [f64; W],
    jm: [[[f64; W]; 2]; 2],
    eps: [[[f64; W]; 2]; 2],
    /// The smaller eigenvalue of `eps`; `dir` is its eigenvector.
    mu: [f64; W],
}

/// The EOS, the viscosity (`VISC`) and the timestep control of
/// [`stress_2d`], lane by lane in `reference::stress`'s operation order.
#[inline(always)]
fn physics_2d<const W: usize, const VISC: bool>(
    zone: &ZonePhysics<'_>,
    lanes: &Lanes2d<W>,
    dir: &[[f64; W]; 2],
    sig: &mut [[[f64; W]; 2]; 2],
    inv: &mut [f64; W],
) {
    let ZonePhysics { gamma, h0, j0inv, order, .. } = *zone;
    let Lanes2d { e, rd, dj, hm, jm, eps, mu } = lanes;
    for l in 0..W {
        // Thermodynamic state.
        let e_val = e[l].max(0.0);
        let rho = rd[l] / dj[l];
        let p_eos = (gamma - 1.0) * rho * e_val;
        let cs = (gamma * (gamma - 1.0) * e_val).sqrt();
        let mut s = [[-p_eos, 0.0], [0.0, -p_eos]];
        let mut visc_coeff = 0.0;
        if VISC {
            // h = h0 |J J0^{-1} dir|, `SmallMat::mul_vec`'s order.
            let mut ph = [0.0; 2];
            for (c, dc) in dir.iter().enumerate() {
                for (i, phi) in ph.iter_mut().enumerate() {
                    *phi += jm[i][c][l] * j0inv[c] * dc[l];
                }
            }
            let h = h0 * ph.iter().map(|x| x * x).sum::<f64>().sqrt();
            visc_coeff = 2.0 * rho * h * h * mu[l].abs();
            // Linear term only under compression (smooth switch).
            let eps_sw = 1e-12;
            let switch = smooth_step_01(mu[l] - 2.0 * eps_sw, eps_sw);
            visc_coeff += 0.5 * rho * h * cs * (1.0 - switch);
            for c in 0..2 {
                for r in 0..2 {
                    s[r][c] += visc_coeff * eps[r][c][l];
                }
            }
        }
        for c in 0..2 {
            for r in 0..2 {
                sig[r][c][l] = s[r][c];
            }
        }
        // Per-point timestep control.
        let h_min = (hm[l] / order).max(1e-300);
        inv[l] = cs / h_min + 2.5 * visc_coeff / (rho * h_min * h_min);
    }
}

#[doc(hidden)]
pub mod reference;

/// A shocked state at the quadrature points, for the kernel tests:
/// distorted Jacobians (every fourth one exactly Cartesian), a velocity
/// gradient that is strongly compressive in two zones out of three and
/// exactly zero — `0.0` and `-0.0` — in the third (the undisturbed gas
/// ahead of the shock, whose lanes pass the convergence test at once while
/// their neighbours rotate), and energies that cross zero. In 2D, zone 0
/// also holds the closed form's edge lanes: Cartesian Jacobians whose
/// `JᵀJ` has `p < r` and `p > r`, a NaN and a `−∞` Jacobian entry, and
/// velocity gradients whose `sym(∇v)` is exactly diagonal (`q = ±0`) with
/// `p < r`, `p > r` and `p = r`.
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
        let (mut jac, mut grad_v) = (jac, grad_v);
        if d == 2 {
            let set = |m: &mut BatchedMats, p: usize, col_major: [f64; 4]| {
                m.mat_mut(p).copy_from_slice(&col_major)
            };
            set(&mut jac, 1, [0.1, 0.0, -0.0, 0.3]);
            set(&mut jac, 2, [0.3, -0.0, 0.0, 0.1]);
            set(&mut jac, 3, [f64::NAN, 0.01, 0.02, 0.2]);
            set(&mut jac, 5, [0.2, 0.01, f64::NEG_INFINITY, 0.2]);
            set(&mut grad_v, 1, [-5.0, 0.0, -0.0, 3.0]);
            set(&mut grad_v, 2, [3.0, -0.0, 0.0, -5.0]);
            set(&mut grad_v, 6, [-2.0, 1.0, -1.0, -2.0]);
        }
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
