//! Fixed-shape sum factorization: the tensor-product contractions behind
//! `blast_fem::sumfac::{forward, backward}`, written once as an
//! `#[inline(always)]` body per direction and compiled at compile-time
//! `(n1, m1)` for the eight pairs the `Q1`–`Q4` discretizations use
//! (kinematic `(k+1, 2k)`, thermodynamic `(k, 2k)`), with a runtime-size
//! instance of the same body for every other shape.
//!
//! A `dim`-dimensional transform is `dim` small contraction stages against
//! the per-axis `m1 × n1` factor tables (column-major, point index
//! fastest). At these sizes (`m1 = 6`, `n1 = 4` at `Q3`) every stage is
//! smaller than one register tile of [`crate::tile::gemm`], so the general
//! core would run each as a runtime-bounded edge tile; here the loop bounds
//! are constants and each output column accumulates in registers.
//!
//! # Bits
//!
//! Every element is the tile core's accumulation chain, so a transform is
//! bitwise the `tile::gemm` chain it replaced (`blast_fem::sumfac::reference`):
//! `beta` is applied as the core's `load_acc` applies it, the contraction
//! index ascends, and each step is the one fused `simd::fmadd`, at every
//! level.

use crate::simd::{fma_clones, fmadd};

/// Length of the staging slice [`forward`] and [`backward`] take for
/// `batch` blocks at `(dim, n1, m1)`: the transposed first factor of a
/// backward transform plus the two intermediate stages.
pub fn stage_len(dim: usize, n1: usize, m1: usize, batch: usize) -> usize {
    let t = n1 * m1;
    match dim {
        2 => t + t * batch,
        3 => t + 2 * t * n1.max(m1) * batch,
        _ => panic!("sumfac transforms support dim 2 and 3 only"),
    }
}

/// One stage: `c[.., j] = beta·c[.., j] + Σ_p a[.., p] · b(p, j)` for every
/// column `j < cols` of a block of rows of `c` (column `j` at `c[j·ldc..]`),
/// `a`'s column `p` at `a[p·lda..]`: all `R` rows as one register block, or
/// at `R = 0` (the runtime-size instance) `rows` rows in blocks of 8.
#[inline(always)]
fn contract<const R: usize>(
    rows: usize,
    cols: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: impl Fn(usize, usize) -> f64,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if R == 0 {
        for i0 in (0..rows).step_by(8) {
            let w = (rows - i0).min(8);
            block::<8>(w, cols, k, &a[i0..], lda, &b, beta, &mut c[i0..], ldc);
        }
    } else {
        block::<R>(R, cols, k, a, lda, &b, beta, c, ldc);
    }
}

/// [`contract`] over `w ≤ W` rows: a column accumulates in a `W`-array the
/// compiler keeps in registers; past `w` its lanes read zeros and are never
/// stored. Each element runs the tile core's chain (see the module docs).
#[inline(always)]
fn block<const W: usize>(
    w: usize,
    cols: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &impl Fn(usize, usize) -> f64,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let lane = |col: &[f64], i: usize| if i < w { col[i] } else { 0.0 };
    for j in 0..cols {
        let cj = &mut c[j * ldc..][..w];
        let mut acc: [f64; W] = std::array::from_fn(|i| {
            let x = lane(cj, i);
            if beta == 0.0 {
                0.0
            } else if beta == 1.0 {
                x
            } else {
                x * beta
            }
        });
        for p in 0..k {
            let bpj = b(p, j);
            let ap = &a[p * lda..][..w];
            for (i, x) in acc.iter_mut().enumerate() {
                *x = fmadd(*x, lane(ap, i), bpj);
            }
        }
        for (x, &v) in cj.iter_mut().zip(&acc) {
            *x = v;
        }
    }
}

/// `(n1, m1)`: the compile-time pair, or the runtime one at `<0, 0>`.
#[inline(always)]
fn sizes<const N1: usize, const M1: usize>(n1: usize, m1: usize) -> (usize, usize) {
    if N1 == 0 {
        (n1, m1)
    } else {
        (N1, M1)
    }
}

/// [`forward`]'s body: `batch` blocks of DOF coefficients (`n1^dim` each)
/// → point values (`m1^dim` each), one stage per axis over every block,
/// every stage `m1` rows at a time.
#[inline(always)]
fn forward_body<const N1: usize, const M1: usize>(
    n1: usize,
    m1: usize,
    axes: &[&[f64]],
    u: &[f64],
    out: &mut [f64],
    stage: &mut [f64],
) {
    let (n1, m1) = sizes::<N1, M1>(n1, m1);
    let f = |axis: usize| &axes[axis][..m1 * n1];
    let dim = axes.len() as u32;
    let batch = u.len() / n1.pow(dim);
    let (u, out) = (&u[..batch * n1.pow(dim)], &mut out[..batch * m1.pow(dim)]);
    let t = &mut stage[n1 * m1..];
    match dim {
        2 => {
            let t1 = &mut t[..m1 * n1 * batch];
            // (q0, j1) = F0 · U, with U viewed as n1 x n1 per block.
            contract::<M1>(m1, n1 * batch, n1, f(0), m1, |p, j| u[p + j * n1], 0.0, t1, m1);
            // (q0, q1) = T1 · F1^T.
            let f1 = f(1);
            for (s1, o) in t1.chunks_exact(m1 * n1).zip(out.chunks_exact_mut(m1 * m1)) {
                contract::<M1>(m1, m1, n1, s1, m1, |p, j| f1[j + p * m1], 0.0, o, m1);
            }
        }
        3 => {
            let (t1, t2) = t.split_at_mut(n1 * m1 * n1.max(m1) * batch);
            let (t1, t2) = (&mut t1[..m1 * n1 * n1 * batch], &mut t2[..m1 * m1 * n1 * batch]);
            // (q0, j1, j2) = F0 · U, with U viewed as n1 x n1^2 per block.
            let cols = n1 * n1 * batch;
            contract::<M1>(m1, cols, n1, f(0), m1, |p, j| u[p + j * n1], 0.0, t1, m1);
            // (q0, q1, j2): one m1 x n1 slab per j2, times F1^T.
            let f1 = f(1);
            for (s1, s2) in t1.chunks_exact(m1 * n1).zip(t2.chunks_exact_mut(m1 * m1)) {
                contract::<M1>(m1, m1, n1, s1, m1, |p, j| f1[j + p * m1], 0.0, s2, m1);
            }
            // (q0 q1, q2) = T2 · F2^T, with T2 viewed as m1^2 x n1: one
            // block of m1 rows per q1.
            let f2 = f(2);
            for (t2, o) in t2.chunks_exact(m1 * m1 * n1).zip(out.chunks_exact_mut(m1 * m1 * m1)) {
                for q1 in 0..m1 {
                    let (a, c) = (&t2[q1 * m1..], &mut o[q1 * m1..]);
                    let b = |p, j| f2[j + p * m1];
                    contract::<M1>(m1, m1, n1, a, m1 * m1, b, 0.0, c, m1 * m1);
                }
            }
        }
        _ => panic!("sumfac transforms support dim 2 and 3 only"),
    }
}

/// [`backward`]'s body: `batch` blocks of point data (`m1^dim` each) → DOF
/// accumulation (`n1^dim` each), one stage per axis over every block, every
/// stage `n1` rows at a time; the first stage reads `F0^T` from a
/// transposed copy so its columns are contiguous (a copy is exact).
#[inline(always)]
fn backward_body<const N1: usize, const M1: usize>(
    n1: usize,
    m1: usize,
    axes: &[&[f64]],
    q: &[f64],
    beta: f64,
    out: &mut [f64],
    stage: &mut [f64],
) {
    let (n1, m1) = sizes::<N1, M1>(n1, m1);
    let f = |axis: usize| &axes[axis][..m1 * n1];
    let dim = axes.len() as u32;
    let batch = q.len() / m1.pow(dim);
    let (q, out) = (&q[..batch * m1.pow(dim)], &mut out[..batch * n1.pow(dim)]);
    let (f0t, t) = stage.split_at_mut(n1 * m1);
    for (j0, row) in f(0).chunks_exact(m1).enumerate() {
        for (q0, &v) in row.iter().enumerate() {
            f0t[j0 + q0 * n1] = v;
        }
    }
    let f0t = &*f0t;
    match dim {
        2 => {
            let t1 = &mut t[..n1 * m1 * batch];
            // (j0, q1) = F0^T · Q, with Q viewed as m1 x m1 per block.
            contract::<N1>(n1, m1 * batch, m1, f0t, n1, |p, j| q[p + j * m1], 0.0, t1, n1);
            // (j0, j1) = T1 · F1 (+ beta * out).
            let f1 = f(1);
            for (s1, o) in t1.chunks_exact(n1 * m1).zip(out.chunks_exact_mut(n1 * n1)) {
                contract::<N1>(n1, n1, m1, s1, n1, |p, j| f1[p + j * m1], beta, o, n1);
            }
        }
        3 => {
            let (t1, t2) = t.split_at_mut(n1 * m1 * n1.max(m1) * batch);
            let (t1, t2) = (&mut t1[..n1 * m1 * m1 * batch], &mut t2[..n1 * n1 * m1 * batch]);
            // (j0, q1, q2) = F0^T · Q, with Q viewed as m1 x m1^2 per block.
            let cols = m1 * m1 * batch;
            contract::<N1>(n1, cols, m1, f0t, n1, |p, j| q[p + j * m1], 0.0, t1, n1);
            // (j0, j1, q2): one n1 x m1 slab per q2, times F1.
            let f1 = f(1);
            for (s1, s2) in t1.chunks_exact(n1 * m1).zip(t2.chunks_exact_mut(n1 * n1)) {
                contract::<N1>(n1, n1, m1, s1, n1, |p, j| f1[p + j * m1], 0.0, s2, n1);
            }
            // (j0 j1, j2) = T2 · F2 (+ beta * out), T2 viewed as n1^2 x m1:
            // one block of n1 rows per j1.
            let f2 = f(2);
            for (t2, o) in t2.chunks_exact(n1 * n1 * m1).zip(out.chunks_exact_mut(n1 * n1 * n1)) {
                for j1 in 0..n1 {
                    let (a, c) = (&t2[j1 * n1..], &mut o[j1 * n1..]);
                    let b = |p, j| f2[p + j * m1];
                    contract::<N1>(n1, n1, m1, a, n1 * n1, b, beta, c, n1 * n1);
                }
            }
        }
        _ => panic!("sumfac transforms support dim 2 and 3 only"),
    }
}

fma_clones! {
    /// [`forward_body`] at the level.
    fn forward_at<N1: usize, M1: usize> = forward_body(
        n1: usize, m1: usize, axes: &[&[f64]], u: &[f64], out: &mut [f64], stage: &mut [f64],
    )
}

fma_clones! {
    /// [`backward_body`] at the level.
    fn backward_at<N1: usize, M1: usize> = backward_body(
        n1: usize, m1: usize, axes: &[&[f64]], q: &[f64], beta: f64, out: &mut [f64],
        stage: &mut [f64],
    )
}

/// `$f::<N1, M1>(args)` at the compile-time pair equal to `(n1, m1)` — the
/// kinematic `(k+1, 2k)` and thermodynamic `(k, 2k)` factors of `Q1`–`Q4` —
/// or at the runtime-size instance `<0, 0>`.
macro_rules! at_shape {
    ($n1:expr, $m1:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match ($n1, $m1) {
            (2, 2) => $f::<2, 2>($($arg),*),
            (1, 2) => $f::<1, 2>($($arg),*),
            (3, 4) => $f::<3, 4>($($arg),*),
            (2, 4) => $f::<2, 4>($($arg),*),
            (4, 6) => $f::<4, 6>($($arg),*),
            (3, 6) => $f::<3, 6>($($arg),*),
            (5, 8) => $f::<5, 8>($($arg),*),
            (4, 8) => $f::<4, 8>($($arg),*),
            _ => $f::<0, 0>($($arg),*),
        }
    };
}

/// Forward transform: `u` (`n1^dim` coefficients, axis 0 fastest) → `out`
/// (`m1^dim` point values, same ordering), contracting axis `a` against
/// `axes[a]` (`m1 × n1`, column-major); `dim = axes.len()`. `u` may hold
/// `batch` consecutive blocks (`out` then `batch` point blocks), each
/// transformed to the bits of its own call; `stage` is [`stage_len`] long.
pub fn forward(
    n1: usize,
    m1: usize,
    axes: &[&[f64]],
    u: &[f64],
    out: &mut [f64],
    stage: &mut [f64],
) {
    at_shape!(n1, m1, forward_at(n1, m1, axes, u, out, stage))
}

/// Backward (transpose) transform: `q` (`m1^dim` point data) → `out =
/// beta·out + Σ_k ŵ_j(q̂_k) q_k` (`n1^dim`), the exact transpose of
/// [`forward`] over the same `axes`, blocks as in [`forward`].
pub fn backward(
    n1: usize,
    m1: usize,
    axes: &[&[f64]],
    q: &[f64],
    beta: f64,
    out: &mut [f64],
    stage: &mut [f64],
) {
    at_shape!(n1, m1, backward_at(n1, m1, axes, q, beta, out, stage))
}
