//! Sum-factorized tensor contractions — the matrix-free operator core.
//!
//! The stored-matrix pipeline materializes, per zone, the corner-force
//! matrix `A_z` (`nvdof x npts`) and `F_z = A_z B^T` (`nvdof x nthermo`),
//! plus a global CSR kinematic mass matrix. At Q4-Q3 in 3D that is
//! `375 x 512` doubles per zone — the §4.1 memory ceiling. The
//! partial-assembly treatment (Vargas et al., arXiv:2112.07075; Chalmers &
//! Warburton, arXiv:2009.10917) never forms those matrices: every operator
//! application is a chain of small dense contractions against the **1D**
//! basis/derivative factor matrices, exploiting the tensor-product
//! structure `ŵ_j(x̂) = φ_{j0}(x̂_0) φ_{j1}(x̂_1) φ_{j2}(x̂_2)` shared by the
//! `Q_k` bases and the Gauss quadrature rule.
//!
//! This module provides the factor tabulation ([`Factors1d`]) and the two
//! primitive contractions:
//!
//! - [`forward`]: DOF coefficients (`n1^dim`) → point values (`m1^dim`),
//!   i.e. `u(q̂) = Σ_j ŵ_j(q̂) u_j` (optionally one axis differentiated —
//!   the reference-gradient component `∂u/∂x̂_a`);
//! - [`backward`]: point data (`m1^dim`) → DOF accumulation (`n1^dim`),
//!   the exact transpose of [`forward`] (same optional derivative axis),
//!   with `beta` accumulation for summing gradient components.
//!
//! Each `dim`-dimensional transform is staged as `dim` small column-major
//! contractions by the fixed-shape kernel [`blast_la::tensor`]: loop bounds
//! are compile-time constants at every `Q1`–`Q4` factor shape (a
//! runtime-size instance of the same body covers the rest), and the clone
//! runs at `blast-la`'s one SIMD level. Every element's accumulation chain
//! is the tiled core's, so the results are bitwise those of the
//! [`blast_la::tile::gemm`] chain kept in [`reference`](mod@reference).

use blast_la::tensor;

use crate::basis1d::Basis1d;

/// 1D basis factor tables at a fixed 1D point set (the per-axis Gauss
/// nodes): values and derivatives of every 1D basis function at every
/// point, column-major `m1 x n1` (point index fastest — the layout the
/// transforms consume directly).
#[derive(Clone, Debug)]
pub struct Factors1d {
    /// Basis functions per axis.
    pub n1: usize,
    /// Points per axis.
    pub m1: usize,
    /// Values `b[q + j*m1] = φ_j(x_q)`.
    pub b: Vec<f64>,
    /// Derivatives `g[q + j*m1] = φ_j'(x_q)`.
    pub g: Vec<f64>,
    /// Per-point value row sums `Σ_j φ_j(x_q)` (≡ 1 up to roundoff for the
    /// interpolatory bases — the 1D factor of the "`B^T · 1`" contraction).
    pub bsum: Vec<f64>,
}

impl Factors1d {
    /// Tabulates `basis` at the 1D points `pts` (typically
    /// `gauss_legendre(2k).0` — the per-axis factor of the tensor
    /// quadrature rule).
    pub fn tabulate(basis: &Basis1d, pts: &[f64]) -> Self {
        let n1 = basis.len();
        let m1 = pts.len();
        let mut b = vec![0.0; m1 * n1];
        let mut g = vec![0.0; m1 * n1];
        let mut vbuf = vec![0.0; n1];
        for (q, &x) in pts.iter().enumerate() {
            basis.eval_all(x, &mut vbuf);
            for j in 0..n1 {
                b[q + j * m1] = vbuf[j];
            }
            basis.eval_deriv_all(x, &mut vbuf);
            for j in 0..n1 {
                g[q + j * m1] = vbuf[j];
            }
        }
        let bsum = (0..m1)
            .map(|q| (0..n1).map(|j| b[q + j * m1]).sum())
            .collect();
        Self { n1, m1, b, g, bsum }
    }

    /// Coefficients of a `dim`-dimensional transform (`n1^dim`).
    pub fn ndof(&self, dim: usize) -> usize {
        self.n1.pow(dim as u32)
    }

    /// Points of a `dim`-dimensional transform (`m1^dim`).
    pub fn npts(&self, dim: usize) -> usize {
        self.m1.pow(dim as u32)
    }

    /// Tensor-product row sums `t(q̂_k) = Σ_j ŵ_j(q̂_k)` over all `m1^dim`
    /// points (lexicographic, axis 0 fastest) — the constant vector the
    /// momentum contraction applies in place of the stored `F_z · 1`.
    pub fn value_row_sum_products(&self, dim: usize, out: &mut Vec<f64>) {
        let npts = self.npts(dim);
        out.clear();
        out.resize(npts, 0.0);
        for (k, o) in out.iter_mut().enumerate() {
            let mut rem = k;
            let mut v = 1.0;
            for _ in 0..dim {
                v *= self.bsum[rem % self.m1];
                rem /= self.m1;
            }
            *o = v;
        }
    }

    #[inline]
    fn factor(&self, axis: usize, deriv_axis: Option<usize>) -> &[f64] {
        if deriv_axis == Some(axis) {
            &self.g
        } else {
            &self.b
        }
    }

    /// Flops of one forward (or backward — same count) `dim`-dimensional
    /// transform, for the roofline traffic models.
    pub fn transform_flops(&self, dim: usize) -> f64 {
        let (n1, m1) = (self.n1 as f64, self.m1 as f64);
        match dim {
            2 => 2.0 * m1 * n1 * (n1 + m1),
            3 => 2.0 * m1 * n1 * (n1 * n1 + m1 * n1 + m1 * m1),
            _ => panic!("sumfac transforms support dim 2 and 3 only"),
        }
    }
}

/// Grow-only staging for the intermediate contraction stages. One per
/// worker thread (or per zone-scratch) — the buffer tracks the high-water
/// transform size, so steady-state transforms allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct SumfacScratch {
    buf: Vec<f64>,
}

impl SumfacScratch {
    /// Empty scratch; grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn stage(&mut self, len: usize) -> &mut [f64] {
        if self.buf.len() < len {
            self.buf.resize(len, 0.0);
        }
        &mut self.buf[..len]
    }
}

/// The per-axis factor tables of a `dim`-dimensional transform: the
/// derivative table on `deriv_axis`, the value table elsewhere.
fn axes(f: &Factors1d, dim: usize, deriv_axis: Option<usize>) -> [&[f64]; 3] {
    assert!(dim == 2 || dim == 3, "sumfac transforms support dim 2 and 3 only");
    std::array::from_fn(|axis| f.factor(axis, deriv_axis))
}

/// How many whole blocks of `block` values `len` holds (at least one).
fn blocks(len: usize, block: usize, what: &str) -> usize {
    assert!(len >= block && len.is_multiple_of(block), "sumfac {what} length");
    len / block
}

/// Forward transform: DOF coefficients `u` (`n1^dim`, lexicographic with
/// axis 0 fastest) → values at the tensor points (`m1^dim`, same ordering)
/// into `out`. With `deriv_axis = Some(a)` the axis-`a` factor uses the
/// derivative table, producing the reference-gradient component
/// `∂u/∂x̂_a(q̂_k)`. `u` may hold several consecutive coefficient blocks
/// (one per vector component), `out` then the matching point blocks: one
/// call transforms them all, each block's bits those of its own call. Runs
/// the fixed-shape kernel [`blast_la::tensor`].
pub fn forward(
    f: &Factors1d,
    dim: usize,
    u: &[f64],
    deriv_axis: Option<usize>,
    out: &mut [f64],
    ws: &mut SumfacScratch,
) {
    let batch = blocks(u.len(), f.ndof(dim), "forward: coefficient");
    assert_eq!(out.len(), batch * f.npts(dim), "sumfac forward: output length");
    let (n1, m1) = (f.n1, f.m1);
    let stage = ws.stage(tensor::stage_len(dim, n1, m1, batch));
    tensor::forward(n1, m1, &axes(f, dim, deriv_axis)[..dim], u, out, stage);
}

/// Backward (transpose) transform: point data `q` (`m1^dim`) → DOF-space
/// accumulation `out = beta*out + Σ_k ŵ_j(q̂_k) q_k` (`n1^dim`). This is
/// exactly the transpose of [`forward`] with the same `deriv_axis`, so
/// `⟨forward(u), q⟩ = ⟨u, backward(q)⟩`. Pass `beta = 1.0` to sum gradient
/// components across repeated calls (the `Σ_g` of the corner-force
/// contraction). Several consecutive blocks transform in one call, as in
/// [`forward`].
pub fn backward(
    f: &Factors1d,
    dim: usize,
    q: &[f64],
    deriv_axis: Option<usize>,
    beta: f64,
    out: &mut [f64],
    ws: &mut SumfacScratch,
) {
    let batch = blocks(q.len(), f.npts(dim), "backward: point-data");
    assert_eq!(out.len(), batch * f.ndof(dim), "sumfac backward: output length");
    let (n1, m1) = (f.n1, f.m1);
    let stage = ws.stage(tensor::stage_len(dim, n1, m1, batch));
    tensor::backward(n1, m1, &axes(f, dim, deriv_axis)[..dim], q, beta, out, stage);
}

/// The transforms as `dim` column-major GEMMs through the general tiled core
/// ([`blast_la::tile::gemm`]) — the chain [`forward`] and [`backward`]
/// replaced, kept as their bitwise oracle.
pub mod reference {
    use blast_la::tile::{self, Op};

    use super::{Factors1d, SumfacScratch};

    /// [`super::forward`], stage by stage through `tile::gemm`.
    pub fn forward(
        f: &Factors1d,
        dim: usize,
        u: &[f64],
        deriv_axis: Option<usize>,
        out: &mut [f64],
        ws: &mut SumfacScratch,
    ) {
        let (n1, m1) = (f.n1, f.m1);
        assert_eq!(u.len(), f.ndof(dim), "sumfac forward: coefficient length");
        assert_eq!(out.len(), f.npts(dim), "sumfac forward: output length");
        match dim {
            2 => {
                // (q0, j1) = F0 · U, with U viewed as n1 x n1.
                let t1 = ws.stage(m1 * n1);
                tile::gemm(m1, n1, n1, 1.0, f.factor(0, deriv_axis), Op::N, u, Op::N, 0.0, t1);
                // (q0, q1) = T1 · F1^T.
                tile::gemm(m1, m1, n1, 1.0, t1, Op::N, f.factor(1, deriv_axis), Op::T, 0.0, out);
            }
            3 => {
                let (t1, t2) = ws.stage(m1 * n1 * (n1 + m1)).split_at_mut(m1 * n1 * n1);
                // (q0, j1, j2) = F0 · U, with U viewed as n1 x n1^2.
                let f0 = f.factor(0, deriv_axis);
                tile::gemm(m1, n1 * n1, n1, 1.0, f0, Op::N, u, Op::N, 0.0, t1);
                // (q0, q1, j2): one m1 x n1 slab per j2, times F1^T.
                let f1 = f.factor(1, deriv_axis);
                for (s1, s2) in t1.chunks_exact(m1 * n1).zip(t2.chunks_exact_mut(m1 * m1)) {
                    tile::gemm(m1, m1, n1, 1.0, s1, Op::N, f1, Op::T, 0.0, s2);
                }
                // (q0 q1, q2) = T2 · F2^T, with T2 viewed as m1^2 x n1.
                let f2 = f.factor(2, deriv_axis);
                tile::gemm(m1 * m1, m1, n1, 1.0, t2, Op::N, f2, Op::T, 0.0, out);
            }
            _ => panic!("sumfac transforms support dim 2 and 3 only"),
        }
    }

    /// [`super::backward`], stage by stage through `tile::gemm`.
    pub fn backward(
        f: &Factors1d,
        dim: usize,
        q: &[f64],
        deriv_axis: Option<usize>,
        beta: f64,
        out: &mut [f64],
        ws: &mut SumfacScratch,
    ) {
        let (n1, m1) = (f.n1, f.m1);
        assert_eq!(q.len(), f.npts(dim), "sumfac backward: point-data length");
        assert_eq!(out.len(), f.ndof(dim), "sumfac backward: output length");
        match dim {
            2 => {
                // (j0, q1) = F0^T · Q, with Q viewed as m1 x m1.
                let t1 = ws.stage(n1 * m1);
                tile::gemm(n1, m1, m1, 1.0, f.factor(0, deriv_axis), Op::T, q, Op::N, 0.0, t1);
                // (j0, j1) = T1 · F1 (+ beta * out).
                tile::gemm(n1, n1, m1, 1.0, t1, Op::N, f.factor(1, deriv_axis), Op::N, beta, out);
            }
            3 => {
                let (t1, t2) = ws.stage(n1 * m1 * (m1 + n1)).split_at_mut(n1 * m1 * m1);
                // (j0, q1, q2) = F0^T · Q, with Q viewed as m1 x m1^2.
                let f0 = f.factor(0, deriv_axis);
                tile::gemm(n1, m1 * m1, m1, 1.0, f0, Op::T, q, Op::N, 0.0, t1);
                // (j0, j1, q2): one n1 x m1 slab per q2, times F1.
                let f1 = f.factor(1, deriv_axis);
                for (s1, s2) in t1.chunks_exact(n1 * m1).zip(t2.chunks_exact_mut(n1 * n1)) {
                    tile::gemm(n1, n1, m1, 1.0, s1, Op::N, f1, Op::N, 0.0, s2);
                }
                // (j0 j1, j2) = T2 · F2 (+ beta * out), T2 viewed as n1^2 x m1.
                let f2 = f.factor(2, deriv_axis);
                tile::gemm(n1 * n1, n1, m1, 1.0, t2, Op::N, f2, Op::N, beta, out);
            }
            _ => panic!("sumfac transforms support dim 2 and 3 only"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::{gauss_legendre, TensorRule};
    use crate::tensor_basis::TensorBasis;
    use crate::quad_points_1d;

    fn dense_forward<const D: usize>(
        basis: &TensorBasis<D>,
        pts: &[[f64; D]],
        u: &[f64],
        deriv_axis: Option<usize>,
    ) -> Vec<f64> {
        let table = basis.tabulate(pts);
        let mat = match deriv_axis {
            None => &table.values,
            Some(a) => &table.grads[a],
        };
        (0..pts.len())
            .map(|k| (0..basis.ndof()).map(|j| mat[(j, k)] * u[j]).sum())
            .collect()
    }

    fn coeffs(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|j| (j as f64 * 0.713 + seed).sin()).collect()
    }

    #[test]
    fn forward_matches_dense_tabulation_3d() {
        for order in 2..=4 {
            let b1 = Basis1d::h1(order);
            let pts1 = gauss_legendre(quad_points_1d(order)).0;
            let f = Factors1d::tabulate(&b1, &pts1);
            let basis = TensorBasis::<3>::h1(order);
            let rule = TensorRule::<3>::gauss(quad_points_1d(order));
            let u = coeffs(basis.ndof(), 0.3);
            let mut out = vec![0.0; rule.len()];
            let mut ws = SumfacScratch::new();
            for axis in [None, Some(0), Some(1), Some(2)] {
                forward(&f, 3, &u, axis, &mut out, &mut ws);
                let expect = dense_forward(&basis, &rule.points, &u, axis);
                for (k, (got, want)) in out.iter().zip(&expect).enumerate() {
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                        "order {order} axis {axis:?} point {k}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_matches_dense_tabulation_2d_thermo() {
        for order in 2..=4 {
            // Thermodynamic factors: L2 basis of order k-1 at the same rule.
            let b1 = Basis1d::l2(order - 1);
            let pts1 = gauss_legendre(quad_points_1d(order)).0;
            let f = Factors1d::tabulate(&b1, &pts1);
            let basis = TensorBasis::<2>::l2(order - 1);
            let rule = TensorRule::<2>::gauss(quad_points_1d(order));
            let u = coeffs(basis.ndof(), 1.1);
            let mut out = vec![0.0; rule.len()];
            let mut ws = SumfacScratch::new();
            for axis in [None, Some(0), Some(1)] {
                forward(&f, 2, &u, axis, &mut out, &mut ws);
                let expect = dense_forward(&basis, &rule.points, &u, axis);
                for (got, want) in out.iter().zip(&expect) {
                    assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0));
                }
            }
        }
    }

    #[test]
    fn backward_is_transpose_of_forward() {
        for (dim, order) in [(2usize, 3usize), (3, 2), (3, 4)] {
            let b1 = Basis1d::h1(order);
            let pts1 = gauss_legendre(quad_points_1d(order)).0;
            let f = Factors1d::tabulate(&b1, &pts1);
            let ndof = f.ndof(dim);
            let npts = f.npts(dim);
            let u = coeffs(ndof, 0.2);
            let q = coeffs(npts, 2.7);
            let mut ws = SumfacScratch::new();
            for axis_opt in [None, Some(0), Some(dim - 1)] {
                let mut fu = vec![0.0; npts];
                forward(&f, dim, &u, axis_opt, &mut fu, &mut ws);
                let mut btq = vec![0.0; ndof];
                backward(&f, dim, &q, axis_opt, 0.0, &mut btq, &mut ws);
                let lhs: f64 = fu.iter().zip(&q).map(|(a, b)| a * b).sum();
                let rhs: f64 = u.iter().zip(&btq).map(|(a, b)| a * b).sum();
                assert!(
                    (lhs - rhs).abs() <= 1e-12 * lhs.abs().max(1.0),
                    "dim {dim} order {order} axis {axis_opt:?}: {lhs} vs {rhs}"
                );
            }
        }
    }

    #[test]
    fn backward_beta_accumulates() {
        let b1 = Basis1d::h1(2);
        let pts1 = gauss_legendre(4).0;
        let f = Factors1d::tabulate(&b1, &pts1);
        let q = coeffs(f.npts(3), 0.9);
        let mut ws = SumfacScratch::new();
        let mut once = vec![0.0; f.ndof(3)];
        backward(&f, 3, &q, None, 0.0, &mut once, &mut ws);
        let mut acc = vec![0.0; f.ndof(3)];
        backward(&f, 3, &q, None, 1.0, &mut acc, &mut ws);
        backward(&f, 3, &q, None, 1.0, &mut acc, &mut ws);
        for (a, o) in acc.iter().zip(&once) {
            assert!((a - 2.0 * o).abs() <= 1e-13 * o.abs().max(1.0));
        }
    }

    #[test]
    fn row_sum_products_are_partition_of_unity() {
        let b1 = Basis1d::h1(3);
        let pts1 = gauss_legendre(6).0;
        let f = Factors1d::tabulate(&b1, &pts1);
        let mut t = Vec::new();
        f.value_row_sum_products(3, &mut t);
        assert_eq!(t.len(), f.npts(3));
        for &v in &t {
            assert!((v - 1.0).abs() < 1e-12, "{v}");
        }
    }

    #[test]
    fn transforms_are_deterministic_and_allocation_stable() {
        // Two identical runs through warmed scratch give bitwise-equal
        // output (the bitwise-determinism contract the solver leans on).
        let b1 = Basis1d::h1(4);
        let pts1 = gauss_legendre(8).0;
        let f = Factors1d::tabulate(&b1, &pts1);
        let u = coeffs(f.ndof(3), 0.5);
        let mut ws = SumfacScratch::new();
        let mut a = vec![0.0; f.npts(3)];
        forward(&f, 3, &u, Some(1), &mut a, &mut ws);
        let mut b = vec![0.0; f.npts(3)];
        forward(&f, 3, &u, Some(1), &mut b, &mut ws);
        assert_eq!(a, b);
    }

    /// `n` values over several magnitudes, about one in five an exact `0.0`
    /// or `-0.0`.
    fn signed_zero_mix(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match s % 10 {
                    0 => 0.0,
                    1 => -0.0,
                    r => ((s >> 8) % 2001) as f64 / 1000.0 - 1.0 + 1e-3 * r as f64,
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The factor tables a transform sweep runs against at `order`: the
    /// kinematic and the thermodynamic ones.
    fn sweep_factors(order: usize) -> [(String, Factors1d); 2] {
        let pts = gauss_legendre(quad_points_1d(order)).0;
        [("kin", Basis1d::h1(order)), ("thermo", Basis1d::l2(order - 1))]
            .map(|(what, basis)| (format!("Q{order} {what}"), Factors1d::tabulate(&basis, &pts)))
    }

    /// The fixed-shape forward transform is the `tile::gemm` chain bit for
    /// bit at the process's level: dim 2 and 3, orders 1–5 (order 5 runs
    /// the runtime-size instance), kinematic and thermodynamic factors,
    /// every derivative axis, inputs seeded with exact zeros — one block
    /// per call, and two blocks in one call.
    #[test]
    fn fixed_shape_forward_matches_the_gemm_reference_bitwise() {
        let (mut ws, mut ws_ref) = (SumfacScratch::new(), SumfacScratch::new());
        for order in 1..=5 {
            for (what, f) in sweep_factors(order) {
                for dim in [2, 3] {
                    for (seed, axis) in [None, Some(0), Some(1), Some(2)].into_iter().enumerate() {
                        if axis.is_some_and(|a| a >= dim) {
                            continue;
                        }
                        let (ndof, npts) = (f.ndof(dim), f.npts(dim));
                        let u = signed_zero_mix(2 * ndof, (order * 10 + dim + seed) as u64);
                        let mut want = vec![f64::NAN; 2 * npts];
                        for (ub, wb) in u.chunks_exact(ndof).zip(want.chunks_exact_mut(npts)) {
                            reference::forward(&f, dim, ub, axis, wb, &mut ws_ref);
                        }
                        let case = format!("{what} dim {dim} axis {axis:?}");
                        let mut got = vec![f64::NAN; npts];
                        forward(&f, dim, &u[..ndof], axis, &mut got, &mut ws);
                        assert_eq!(bits(&got), bits(&want[..npts]), "{case}");
                        let mut got = vec![f64::NAN; 2 * npts];
                        forward(&f, dim, &u, axis, &mut got, &mut ws);
                        assert_eq!(bits(&got), bits(&want), "{case}, two blocks");
                    }
                }
            }
        }
    }

    /// [`backward`] against its reference, over the same sweep and `beta`
    /// 0, 1 and 2.5 onto an output that already holds signed zeros.
    #[test]
    fn fixed_shape_backward_matches_the_gemm_reference_bitwise() {
        let (mut ws, mut ws_ref) = (SumfacScratch::new(), SumfacScratch::new());
        for order in 1..=5 {
            for (what, f) in sweep_factors(order) {
                for dim in [2, 3] {
                    for (seed, axis) in [None, Some(0), Some(1), Some(2)].into_iter().enumerate() {
                        if axis.is_some_and(|a| a >= dim) {
                            continue;
                        }
                        let (ndof, npts) = (f.ndof(dim), f.npts(dim));
                        let q = signed_zero_mix(2 * npts, (order * 10 + dim + seed) as u64);
                        for beta in [0.0, 1.0, 2.5] {
                            // Every third output starts at -0.0.
                            let mut out0 = signed_zero_mix(2 * ndof, 7 + seed as u64);
                            out0.iter_mut().step_by(3).for_each(|o| *o = -0.0);
                            let mut want = out0.clone();
                            for (qb, wb) in q.chunks_exact(npts).zip(want.chunks_exact_mut(ndof)) {
                                reference::backward(&f, dim, qb, axis, beta, wb, &mut ws_ref);
                            }
                            let case = format!("{what} dim {dim} axis {axis:?} beta {beta}");
                            let mut got = out0[..ndof].to_vec();
                            backward(&f, dim, &q[..npts], axis, beta, &mut got, &mut ws);
                            assert_eq!(bits(&got), bits(&want[..ndof]), "{case}");
                            let mut got = out0;
                            backward(&f, dim, &q, axis, beta, &mut got, &mut ws);
                            assert_eq!(bits(&got), bits(&want), "{case}, two blocks");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transform_flops_positive_and_ordered() {
        let b1 = Basis1d::h1(4);
        let pts1 = gauss_legendre(8).0;
        let f = Factors1d::tabulate(&b1, &pts1);
        assert!(f.transform_flops(3) > f.transform_flops(2));
        // Far below the dense nkin x npts contraction (2 * 125 * 512 per
        // scalar component at Q4): that is the whole point.
        assert!(f.transform_flops(3) < 2.0 * 125.0 * 512.0);
    }
}
