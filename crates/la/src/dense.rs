//! Dense column-major matrices and BLAS-3/BLAS-2 style operations.
//!
//! `DMatrix` is the workhorse dense type of the reproduction. It deliberately
//! mirrors the LAPACK storage convention (column-major, leading dimension =
//! number of rows) because the paper's custom CUDA kernels are written against
//! LAPACK-like interfaces and exploit column-major layout in their blocking
//! strategy.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense column-major `rows x cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: element `(i, j)` lives at `data[i + j * rows]`.
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from column-major data.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix from a row-major slice (convenient in tests).
    pub fn from_row_major(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = data[i * cols + j];
            }
        }
        m
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Column-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable column-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of column `j` as a contiguous slice (column-major privilege).
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable borrow of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Fills the matrix with a constant.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `self += alpha * other` (AXPY on the whole matrix).
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &DMatrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (x, &y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
    }

    /// Scales every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Maximum absolute entry (infinity norm of the vectorization).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// `C = alpha * A * B + beta * C` (DGEMM, no transposes).
///
/// Shapes: `A (m x k)`, `B (k x n)`, `C (m x n)`. Panics on mismatch.
pub fn gemm_nn(alpha: f64, a: &DMatrix, b: &DMatrix, beta: f64, c: &mut DMatrix) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm_nn inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm_nn output shape mismatch");
    gemm_nn_raw(m, n, k, alpha, a.as_slice(), b.as_slice(), beta, c.as_mut_slice());
}

/// `C = alpha * A * B^T + beta * C` (DGEMM, B transposed).
///
/// Shapes: `A (m x k)`, `B (n x k)`, `C (m x n)`.
pub fn gemm_nt(alpha: f64, a: &DMatrix, b: &DMatrix, beta: f64, c: &mut DMatrix) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "gemm_nt inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm_nt output shape mismatch");
    gemm_nt_raw(m, n, k, alpha, a.as_slice(), b.as_slice(), beta, c.as_mut_slice());
}

/// `C = alpha * A^T * B + beta * C` (DGEMM, A transposed).
///
/// Shapes: `A (k x m)`, `B (k x n)`, `C (m x n)`.
pub fn gemm_tn(alpha: f64, a: &DMatrix, b: &DMatrix, beta: f64, c: &mut DMatrix) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm_tn inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm_tn output shape mismatch");
    gemm_tn_raw(m, n, k, alpha, a.as_slice(), b.as_slice(), beta, c.as_mut_slice());
}

/// Reference triple-loop implementations of the GEMM/GEMV variants.
///
/// These are the pre-tiling kernels, kept verbatim: the property tests
/// assert the tiled core is bitwise identical to them (NN/NT) or
/// ULP-bounded (TN), and the `host_kernels` bench experiment uses them as
/// the wall-clock baseline. Production callers go through the tiled
/// [`crate::tile`] core instead.
pub mod naive {
    /// Raw-slice DGEMM NN on column-major data.
    #[inline]
    pub fn gemm_nn_raw(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        b: &[f64],
        beta: f64,
        c: &mut [f64],
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        // j-p-i loop order: streams through columns of C and A contiguously.
        for j in 0..n {
            let cj = &mut c[j * m..(j + 1) * m];
            if beta == 0.0 {
                cj.iter_mut().for_each(|x| *x = 0.0);
            } else if beta != 1.0 {
                cj.iter_mut().for_each(|x| *x *= beta);
            }
            for p in 0..k {
                let bpj = alpha * b[p + j * k];
                if bpj != 0.0 {
                    let ap = &a[p * m..(p + 1) * m];
                    for (ci, &ai) in cj.iter_mut().zip(ap) {
                        *ci += bpj * ai;
                    }
                }
            }
        }
    }

    /// Raw-slice DGEMM NT on column-major data: `C = alpha A B^T + beta C`,
    /// `A (m x k)`, `B (n x k)`.
    #[inline]
    pub fn gemm_nt_raw(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        b: &[f64],
        beta: f64,
        c: &mut [f64],
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(c.len(), m * n);
        for j in 0..n {
            let cj = &mut c[j * m..(j + 1) * m];
            if beta == 0.0 {
                cj.iter_mut().for_each(|x| *x = 0.0);
            } else if beta != 1.0 {
                cj.iter_mut().for_each(|x| *x *= beta);
            }
            for p in 0..k {
                // B^T(p, j) = B(j, p), column-major B: b[j + p*n].
                let bjp = alpha * b[j + p * n];
                if bjp != 0.0 {
                    let ap = &a[p * m..(p + 1) * m];
                    for (ci, &ai) in cj.iter_mut().zip(ap) {
                        *ci += bjp * ai;
                    }
                }
            }
        }
    }

    /// Raw-slice DGEMM TN on column-major data: `C = alpha A^T B + beta C`,
    /// `A (k x m)`, `B (k x n)`, dot-product accumulation order.
    #[inline]
    pub fn gemm_tn_raw(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        b: &[f64],
        beta: f64,
        c: &mut [f64],
    ) {
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        for j in 0..n {
            for i in 0..m {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[p + i * k] * b[p + j * k];
                }
                let cij = &mut c[i + j * m];
                *cij = alpha * acc + beta * *cij;
            }
        }
    }

    /// Raw-slice DGEMV N on column-major `A (m x n)` (per-column axpy).
    #[inline]
    pub fn gemv_n_raw(
        m: usize,
        n: usize,
        alpha: f64,
        a: &[f64],
        x: &[f64],
        beta: f64,
        y: &mut [f64],
    ) {
        debug_assert_eq!(a.len(), m * n);
        if beta == 0.0 {
            y.iter_mut().for_each(|v| *v = 0.0);
        } else if beta != 1.0 {
            y.iter_mut().for_each(|v| *v *= beta);
        }
        for j in 0..n {
            let axj = alpha * x[j];
            if axj != 0.0 {
                let col = &a[j * m..(j + 1) * m];
                for (yi, &aij) in y.iter_mut().zip(col) {
                    *yi += axj * aij;
                }
            }
        }
    }
}

/// Raw-slice DGEMM NN on column-major data (used by the batched routines so
/// the GPU kernels and CPU reference share one inner loop). Routed through
/// the register-tiled core; bitwise identical to [`naive::gemm_nn_raw`].
#[inline]
pub fn gemm_nn_raw(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    crate::tile::gemm(m, n, k, alpha, a, crate::tile::Op::N, b, crate::tile::Op::N, beta, c);
}

/// Raw-slice DGEMM NT on column-major data: `C = alpha A B^T + beta C`,
/// `A (m x k)`, `B (n x k)`. Routed through the register-tiled core;
/// bitwise identical to [`naive::gemm_nt_raw`].
#[inline]
pub fn gemm_nt_raw(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    crate::tile::gemm(m, n, k, alpha, a, crate::tile::Op::N, b, crate::tile::Op::T, beta, c);
}

/// Raw-slice DGEMM TN on column-major data: `C = alpha A^T B + beta C`,
/// `A (k x m)`, `B (k x n)`. Routed through the register-tiled core (axpy
/// accumulation order, so ULP-close — not bitwise — to
/// [`naive::gemm_tn_raw`]).
#[inline]
pub fn gemm_tn_raw(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    crate::tile::gemm(m, n, k, alpha, a, crate::tile::Op::T, b, crate::tile::Op::N, beta, c);
}

/// `y = alpha * A * x + beta * y` (DGEMV, no transpose). `A (m x n)`.
pub fn gemv_n(alpha: f64, a: &DMatrix, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, n) = a.shape();
    assert_eq!(x.len(), n, "gemv_n x length mismatch");
    assert_eq!(y.len(), m, "gemv_n y length mismatch");
    gemv_n_raw(m, n, alpha, a.as_slice(), x, beta, y);
}

/// `y = alpha * A^T * x + beta * y` (DGEMV, transposed). `A (m x n)`.
pub fn gemv_t(alpha: f64, a: &DMatrix, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, n) = a.shape();
    assert_eq!(x.len(), m, "gemv_t x length mismatch");
    assert_eq!(y.len(), n, "gemv_t y length mismatch");
    gemv_t_raw(m, n, alpha, a.as_slice(), x, beta, y);
}

/// Raw-slice DGEMV N on column-major `A (m x n)`.
///
/// Column-blocked by 4: each block makes one pass over `y` fusing four
/// axpys, quartering the `y` store traffic of [`naive::gemv_n_raw`] while
/// keeping the identical per-element accumulation order (ascending `j`
/// with the same zero short-circuit), so results stay bitwise equal.
#[inline]
pub fn gemv_n_raw(m: usize, n: usize, alpha: f64, a: &[f64], x: &[f64], beta: f64, y: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n);
    if beta == 0.0 {
        y.iter_mut().for_each(|v| *v = 0.0);
    } else if beta != 1.0 {
        y.iter_mut().for_each(|v| *v *= beta);
    }
    let mut j = 0;
    while j + 4 <= n {
        let ax = [alpha * x[j], alpha * x[j + 1], alpha * x[j + 2], alpha * x[j + 3]];
        if ax.iter().all(|&v| v != 0.0) {
            let (c0, rest) = a[j * m..(j + 4) * m].split_at(m);
            let (c1, rest) = rest.split_at(m);
            let (c2, c3) = rest.split_at(m);
            for (i, yi) in y.iter_mut().enumerate() {
                let mut acc = *yi;
                acc += ax[0] * c0[i];
                acc += ax[1] * c1[i];
                acc += ax[2] * c2[i];
                acc += ax[3] * c3[i];
                *yi = acc;
            }
        } else {
            // A zero coefficient in the block: fall back to the reference's
            // per-column skip so the op sequence stays identical.
            for (jj, &axj) in ax.iter().enumerate() {
                if axj != 0.0 {
                    let col = &a[(j + jj) * m..(j + jj + 1) * m];
                    for (yi, &aij) in y.iter_mut().zip(col) {
                        *yi += axj * aij;
                    }
                }
            }
        }
        j += 4;
    }
    while j < n {
        let axj = alpha * x[j];
        if axj != 0.0 {
            let col = &a[j * m..(j + 1) * m];
            for (yi, &aij) in y.iter_mut().zip(col) {
                *yi += axj * aij;
            }
        }
        j += 1;
    }
}

/// Raw-slice DGEMV T on column-major `A (m x n)`: `y = alpha A^T x + beta y`.
#[inline]
pub fn gemv_t_raw(m: usize, n: usize, alpha: f64, a: &[f64], x: &[f64], beta: f64, y: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n);
    for j in 0..n {
        let col = &a[j * m..(j + 1) * m];
        let mut acc = 0.0;
        for (&aij, &xi) in col.iter().zip(x) {
            acc += aij * xi;
        }
        y[j] = alpha * acc + if beta == 0.0 { 0.0 } else { beta * y[j] };
    }
}

/// Dot product of two equal-length slices.
///
/// Panics on length mismatch in every build profile: with only a debug
/// assertion, release builds silently truncate through `zip` and return a
/// plausible-but-wrong reduction. The check is one compare per call,
/// negligible next to the loads.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// `y += alpha * x` on slices. Panics on length mismatch in every build
/// profile (see [`dot`]).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm of a slice, safe against over- and underflow of the
/// squared sum.
///
/// Fast path: `sqrt(dot(x, x))` — one pass, used whenever the squared sum
/// is a finite normal number. When it overflows to `inf` (components near
/// `1e160`), collapses below `f64::MIN_POSITIVE` (denormal residuals — a
/// spurious "converged" in PCG), or goes non-finite, the scaled two-pass
/// accumulation of [`nrm2_scaled`] recovers the true norm.
#[inline]
pub fn nrm2(x: &[f64]) -> f64 {
    nrm2_from_sumsq(dot(x, x), x)
}

/// Finalizes a Euclidean norm from a precomputed `sum(x_i^2)`, falling back
/// to [`nrm2_scaled`] when the squared sum over- or underflowed. Shared by
/// [`nrm2`] and the streaming fused kernels (`stream::nrm2_from_sumsq`) so
/// every norm in the solver takes the same branch on the same bits.
#[inline]
pub fn nrm2_from_sumsq(sumsq: f64, x: &[f64]) -> f64 {
    if sumsq.is_finite() && sumsq >= f64::MIN_POSITIVE {
        sumsq.sqrt()
    } else {
        nrm2_scaled(x)
    }
}

/// Scaled (LAPACK `dnrm2`-style) Euclidean norm: two passes, dividing by
/// the largest magnitude so squares stay near 1. Handles components up to
/// `f64::MAX` and down to the smallest denormal without over/underflow.
pub fn nrm2_scaled(x: &[f64]) -> f64 {
    let mut amax = 0.0f64;
    for &v in x {
        if v.is_nan() {
            // f64::max ignores NaN, which would silently launder a NaN
            // component into a finite norm.
            return f64::NAN;
        }
        amax = amax.max(v.abs());
    }
    if amax == 0.0 {
        return 0.0;
    }
    if amax.is_infinite() {
        return f64::INFINITY;
    }
    // Division (not multiplication by 1/amax): the reciprocal of a
    // denormal amax overflows to inf.
    let mut sum = 0.0;
    for &v in x {
        let t = v / amax;
        sum += t * t;
    }
    amax * sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nrm2_survives_overflow_of_the_squared_sum() {
        // (1e160)^2 = 1e320 overflows f64; the unscaled norm reported inf.
        let x = [1e160, -2e160, 2e160];
        assert_eq!(nrm2(&x), 3e160);
        assert!(nrm2(&[f64::MAX, 0.0]).is_finite());
    }

    #[test]
    fn nrm2_survives_underflow_to_denormals() {
        // (1e-200)^2 = 1e-400 underflows to zero; the unscaled norm
        // reported 0 — a spurious "converged" for a nonzero residual.
        let x = [1e-200, -1e-200];
        let expect = 1e-200 * 2f64.sqrt();
        assert!((nrm2(&x) - expect).abs() <= 1e-15 * expect, "{}", nrm2(&x));
        // Smallest positive denormal: still a nonzero norm.
        let tiny = f64::from_bits(1);
        assert_eq!(nrm2(&[tiny]), tiny);
        assert!(nrm2(&[tiny, tiny]) > 0.0);
    }

    #[test]
    fn nrm2_edge_inputs() {
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, -0.0, 0.0]), 0.0);
        assert_eq!(nrm2(&[3.0, 4.0]), 5.0);
        assert!(nrm2(&[1.0, f64::NAN]).is_nan());
        assert_eq!(nrm2(&[f64::INFINITY, 1.0]), f64::INFINITY);
    }

    // The two length-mismatch guards must hold in *release* builds too
    // (they were `debug_assert_eq!`, silently truncating via `zip` with
    // debug assertions off); the CI release test lane runs these.
    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_panics_on_length_mismatch_in_all_profiles() {
        dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_panics_on_length_mismatch_in_all_profiles() {
        axpy(1.0, &[1.0], &mut [1.0, 2.0]);
    }

    fn mat_abc() -> (DMatrix, DMatrix) {
        let a = DMatrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DMatrix::from_row_major(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        (a, b)
    }

    #[test]
    fn col_major_indexing() {
        let m = DMatrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn row_major_constructor_matches_indexing() {
        let m = DMatrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
    }

    #[test]
    fn gemm_nn_known_product() {
        let (a, b) = mat_abc();
        let mut c = DMatrix::zeros(2, 2);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
        // [1 2 3; 4 5 6] * [7 8; 9 10; 11 12] = [58 64; 139 154]
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let (a, b) = mat_abc();
        let bt = b.transpose(); // 2x3
        let mut c1 = DMatrix::zeros(2, 2);
        let mut c2 = DMatrix::zeros(2, 2);
        gemm_nn(1.0, &a, &b, 0.0, &mut c1);
        gemm_nt(1.0, &a, &bt, 0.0, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let (a, b) = mat_abc();
        let at = a.transpose(); // 3x2
        let mut c1 = DMatrix::zeros(2, 2);
        let mut c2 = DMatrix::zeros(2, 2);
        gemm_nn(1.0, &a, &b, 0.0, &mut c1);
        gemm_tn(1.0, &at, &b, 0.0, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn gemm_alpha_beta_accumulate() {
        let (a, b) = mat_abc();
        let mut c = DMatrix::from_row_major(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        gemm_nn(2.0, &a, &b, 3.0, &mut c);
        assert_eq!(c[(0, 0)], 2.0 * 58.0 + 3.0);
        assert_eq!(c[(1, 1)], 2.0 * 154.0 + 3.0);
    }

    #[test]
    fn gemv_n_and_t_roundtrip() {
        let (a, _) = mat_abc();
        let x = [1.0, -1.0, 2.0];
        let mut y = [0.0; 2];
        gemv_n(1.0, &a, &x, 0.0, &mut y);
        assert_eq!(y, [5.0, 11.0]);

        let z = [1.0, 2.0];
        let mut w = [0.0; 3];
        gemv_t(1.0, &a, &z, 0.0, &mut w);
        assert_eq!(w, [9.0, 12.0, 15.0]);
    }

    #[test]
    fn transpose_involution() {
        let (a, _) = mat_abc();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn identity_is_gemm_neutral() {
        let (a, _) = mat_abc();
        let id = DMatrix::identity(3);
        let mut c = DMatrix::zeros(2, 3);
        gemm_nn(1.0, &a, &id, 0.0, &mut c);
        assert_eq!(c, a);
    }

    #[test]
    fn axpy_and_norms() {
        let mut y = [1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, [7.0, 10.0]);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn matrix_axpy_scale_norm() {
        let mut a = DMatrix::identity(2);
        let b = DMatrix::identity(2);
        a.axpy(3.0, &b);
        assert_eq!(a[(0, 0)], 4.0);
        a.scale(0.5);
        assert_eq!(a[(1, 1)], 2.0);
        assert!((DMatrix::identity(2).norm() - 2.0_f64.sqrt()).abs() < 1e-15);
        assert_eq!(a.max_abs(), 2.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_shape_mismatch_panics() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 2);
        let mut c = DMatrix::zeros(2, 2);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = DMatrix::from_fn(3, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
    }

    #[test]
    fn col_slices_are_contiguous() {
        let m = DMatrix::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.col(0), &[1.0, 3.0]);
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }
}
