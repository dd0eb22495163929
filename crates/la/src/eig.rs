//! Symmetric eigendecomposition of 2x2 and 3x3 matrices.
//!
//! The tensor artificial viscosity in BLAST needs, at *every quadrature
//! point*, the eigenvalues and eigenvectors of the symmetrized velocity
//! gradient — this is the "Eigval" work inside the paper's kernel 1/2. The
//! 2x2 case is closed-form; the 3x3 case uses cyclic Jacobi rotations, which
//! are unconditionally stable and branch-light (important for the GPU port,
//! where each thread runs one decomposition).
//!
//! Both solves exist twice. [`sym_eig2`] and [`sym_eig3`] are the scalar
//! entries and the oracles. [`sym_eig2_lanes`] / [`sym_eigvals2_lanes`]
//! run the closed form on `W` matrices with its two branches as per-lane
//! selects. [`sym_eig3_lanes`] / [`sym_eigvals3_lanes`] run `W` Jacobi
//! iterations in lock step, one SIMD lane per matrix — the paper's
//! thread-per-point mapping, with a warp `W` wide — and every lane performs
//! the scalar iteration's exact operation sequence: the convergence test and
//! the `apq == 0` skip become per-lane masks, and a rotated value is
//! *selected* into the lanes that would have rotated. No lane reads another,
//! nothing asks for a fused multiply-add, so each lane's result is the
//! scalar solve's bit for bit at any `W` and any instruction-set level of
//! the caller.

use std::cmp::Ordering;

use crate::small::SmallMat;

/// Eigendecomposition `A = V diag(λ) V^T` of a symmetric matrix.
///
/// Eigenvalues are sorted in **descending** order; `vectors` holds the
/// corresponding unit eigenvectors as columns.
#[derive(Clone, Copy, Debug)]
pub struct SymEig<const D: usize> {
    /// Eigenvalues, descending.
    pub values: [f64; D],
    /// Unit eigenvectors, column `k` pairs with `values[k]`.
    pub vectors: SmallMat<D>,
}

impl<const D: usize> SymEig<D> {
    /// Reconstructs `V diag(λ) V^T` (for validation).
    pub fn reconstruct(&self) -> SmallMat<D> {
        let mut a = SmallMat::zeros();
        for k in 0..D {
            let mut col = [0.0; D];
            for i in 0..D {
                col[i] = self.vectors[(i, k)];
            }
            a.add_outer(self.values[k], &col, &col);
        }
        a
    }
}

/// Eigendecomposition of a symmetric 2x2 matrix (closed form).
///
/// Only the lower triangle of `a` is read; the matrix is assumed symmetric.
pub fn sym_eig2(a: &SmallMat<2>) -> SymEig<2> {
    let (p, q, r) = (a[(0, 0)], a[(1, 0)], a[(1, 1)]);
    let tr = p + r;
    let diff = p - r;
    let disc = (diff * diff * 0.25 + q * q).sqrt();
    let l0 = 0.5 * tr + disc;
    let l1 = 0.5 * tr - disc;

    let mut v = SmallMat::<2>::zeros();
    if q.abs() > f64::EPSILON * tr.abs().max(1.0) {
        // Eigenvector for l0: (l0 - r, q) normalized.
        let (x0, y0) = (l0 - r, q);
        let n0 = (x0 * x0 + y0 * y0).sqrt();
        v[(0, 0)] = x0 / n0;
        v[(1, 0)] = y0 / n0;
        // Orthogonal complement.
        v[(0, 1)] = -v[(1, 0)];
        v[(1, 1)] = v[(0, 0)];
    } else {
        // Already diagonal; order columns to match the sorted eigenvalues.
        if p >= r {
            v = SmallMat::identity();
        } else {
            v[(0, 1)] = 1.0;
            v[(1, 0)] = 1.0;
        }
    }
    SymEig { values: [l0, l1], vectors: v }
}

/// Eigendecomposition of a symmetric 3x3 matrix by cyclic Jacobi sweeps.
///
/// Converges quadratically; 8 sweeps reach machine precision for any input.
/// Only the lower triangle of `a` is read.
pub fn sym_eig3(a: &SmallMat<3>) -> SymEig<3> {
    // Work on a full symmetric copy.
    let mut m = SmallMat::<3>::from_fn(|i, j| if i >= j { a[(i, j)] } else { a[(j, i)] });
    let mut v = SmallMat::<3>::identity();

    for _sweep in 0..12 {
        let off = m[(1, 0)].abs() + m[(2, 0)].abs() + m[(2, 1)].abs();
        if off < 1e-300 || off < 1e-15 * m.norm().max(1.0) {
            break;
        }
        for &(p, q) in &[(0usize, 1usize), (0, 2), (1, 2)] {
            let apq = m[(p, q)];
            if apq == 0.0 {
                continue;
            }
            let app = m[(p, p)];
            let aqq = m[(q, q)];
            let theta = 0.5 * (aqq - app) / apq;
            // tan of the rotation angle, the numerically stable formula.
            let t = theta.signum() / (theta.abs() + (1.0 + theta * theta).sqrt());
            let c = 1.0 / (1.0 + t * t).sqrt();
            let s = t * c;
            // Apply the Givens rotation G(p,q,θ) on both sides of m.
            for k in 0..3 {
                let mkp = m[(k, p)];
                let mkq = m[(k, q)];
                m[(k, p)] = c * mkp - s * mkq;
                m[(k, q)] = s * mkp + c * mkq;
            }
            for k in 0..3 {
                let mpk = m[(p, k)];
                let mqk = m[(q, k)];
                m[(p, k)] = c * mpk - s * mqk;
                m[(q, k)] = s * mpk + c * mqk;
            }
            // Accumulate eigenvectors.
            for k in 0..3 {
                let vkp = v[(k, p)];
                let vkq = v[(k, q)];
                v[(k, p)] = c * vkp - s * vkq;
                v[(k, q)] = s * vkp + c * vkq;
            }
        }
    }

    // Sort eigenpairs descending.
    let mut order = [0usize, 1, 2];
    let vals = [m[(0, 0)], m[(1, 1)], m[(2, 2)]];
    // A NaN compares equal to everything and stays where it is: it reaches
    // the caller's finite-value guards instead of aborting the process. Not
    // `total_cmp`: a `+0.0` / `-0.0` tie must keep its stable order.
    order.sort_by(|&i, &j| vals[j].partial_cmp(&vals[i]).unwrap_or(Ordering::Equal));
    let values = [vals[order[0]], vals[order[1]], vals[order[2]]];
    let vectors = SmallMat::<3>::from_fn(|i, k| v[(i, order[k])]);
    SymEig { values, vectors }
}

/// `W` symmetric 2x2 matrices side by side (struct of arrays): entry
/// `(i, j)` of matrix `l` is `a[i][j][l]`.
type Sym2Lanes<const W: usize> = [[[f64; W]; 2]; 2];

/// The closed form of [`sym_eig2`] on `W` matrices in lock step. The
/// rotation test and the diagonal case's column order become selects: every
/// lane computes the rotated columns and both diagonal orders, and keeps
/// the one its scalar call would have taken. Returns the eigenvalues
/// `[k][l]` (descending per lane) and — when `VECTORS` — the eigenvectors
/// `[i][k][l]` (zero otherwise).
#[inline(always)]
fn eig2_lanes<const W: usize, const VECTORS: bool>(
    a: &Sym2Lanes<W>,
) -> ([[f64; W]; 2], Sym2Lanes<W>) {
    let mut values = [[0.0; W]; 2];
    let mut v = [[[0.0; W]; 2]; 2];
    for l in 0..W {
        let (p, q, r) = (a[0][0][l], a[1][0][l], a[1][1][l]);
        let tr = p + r;
        let diff = p - r;
        let disc = (diff * diff * 0.25 + q * q).sqrt();
        let l0 = 0.5 * tr + disc;
        let l1 = 0.5 * tr - disc;
        values[0][l] = l0;
        values[1][l] = l1;
        if VECTORS {
            // The rotation: (l0 - r, q) normalized, then its complement. A
            // lane that does not rotate divides by its zero and drops it.
            let (x0, y0) = (l0 - r, q);
            let n0 = (x0 * x0 + y0 * y0).sqrt();
            let (c, s) = (x0 / n0, y0 / n0);
            let rot = q.abs() > f64::EPSILON * tr.abs().max(1.0);
            // Already diagonal: the identity, or the swap when `p < r`.
            let (on, off) = if p >= r { (1.0, 0.0) } else { (0.0, 1.0) };
            v[0][0][l] = if rot { c } else { on };
            v[1][0][l] = if rot { s } else { off };
            v[0][1][l] = if rot { -s } else { off };
            v[1][1][l] = if rot { c } else { on };
        }
    }
    (values, v)
}

/// [`sym_eig2`] on `W` matrices at once: eigenvalues `[k][l]` (descending
/// per lane) and unit eigenvectors `[i][k][l]`, each lane bit-identical to
/// the scalar call on that matrix. Only the lower triangle of `a` is read.
#[inline(always)]
pub fn sym_eig2_lanes<const W: usize>(a: &Sym2Lanes<W>) -> ([[f64; W]; 2], Sym2Lanes<W>) {
    eig2_lanes::<W, true>(a)
}

/// The eigenvalues of [`sym_eig2_lanes`] alone — what
/// `σ_min(J) = sqrt(λ_min(JᵀJ))` needs.
#[inline(always)]
pub fn sym_eigvals2_lanes<const W: usize>(a: &Sym2Lanes<W>) -> [[f64; W]; 2] {
    eig2_lanes::<W, false>(a).0
}

/// `W` symmetric 3x3 matrices side by side (struct of arrays): entry
/// `(i, j)` of matrix `l` is `a[i][j][l]`.
type Sym3Lanes<const W: usize> = [[[f64; W]; 3]; 3];

/// `W` copies of the identity — the padding of a ragged group: an identity
/// lane passes the convergence test before the first sweep and never keeps
/// the others waiting.
#[inline(always)]
pub fn identity3_lanes<const W: usize>() -> Sym3Lanes<W> {
    let mut a = [[[0.0; W]; 3]; 3];
    for (i, row) in a.iter_mut().enumerate() {
        row[i] = [1.0; W];
    }
    a
}

/// One Jacobi rotation `G(P, Q, θ)` of [`jacobi3_lanes`], applied in the
/// lanes that are still `live` and whose `(P, Q)` entry is not zero.
#[inline(always)]
fn rotate_lanes<const W: usize, const P: usize, const Q: usize, const VECTORS: bool>(
    m: &mut Sym3Lanes<W>,
    v: &mut Sym3Lanes<W>,
    live: &[bool; W],
) {
    for l in 0..W {
        let apq = m[P][Q][l];
        // A masked-off lane divides by its zero and drops the result.
        let rot = live[l] && apq != 0.0;
        let app = m[P][P][l];
        let aqq = m[Q][Q][l];
        let theta = 0.5 * (aqq - app) / apq;
        let t = theta.signum() / (theta.abs() + (1.0 + theta * theta).sqrt());
        let c = 1.0 / (1.0 + t * t).sqrt();
        let s = t * c;
        for k in 0..3 {
            let mkp = m[k][P][l];
            let mkq = m[k][Q][l];
            m[k][P][l] = if rot { c * mkp - s * mkq } else { mkp };
            m[k][Q][l] = if rot { s * mkp + c * mkq } else { mkq };
        }
        for k in 0..3 {
            let mpk = m[P][k][l];
            let mqk = m[Q][k][l];
            m[P][k][l] = if rot { c * mpk - s * mqk } else { mpk };
            m[Q][k][l] = if rot { s * mpk + c * mqk } else { mqk };
        }
        if VECTORS {
            for k in 0..3 {
                let vkp = v[k][P][l];
                let vkq = v[k][Q][l];
                v[k][P][l] = if rot { c * vkp - s * vkq } else { vkp };
                v[k][Q][l] = if rot { s * vkp + c * vkq } else { vkq };
            }
        }
    }
}

/// Per-lane compare-exchange of eigenpairs `A` and `B` (`A < B`): the
/// larger value moves to the front, ties and NaNs stay put. `(0,1)`,
/// `(1,2)`, `(0,1)` in sequence is the stable insertion sort `sym_eig3`'s
/// `sort_by` performs on three elements.
#[inline(always)]
fn order_lanes<const W: usize, const A: usize, const B: usize, const VECTORS: bool>(
    vals: &mut [[f64; W]; 3],
    v: &mut Sym3Lanes<W>,
) {
    for l in 0..W {
        let swap = vals[B][l] > vals[A][l];
        let (a, b) = (vals[A][l], vals[B][l]);
        vals[A][l] = if swap { b } else { a };
        vals[B][l] = if swap { a } else { b };
        if VECTORS {
            for row in v.iter_mut() {
                let (a, b) = (row[A][l], row[B][l]);
                row[A][l] = if swap { b } else { a };
                row[B][l] = if swap { a } else { b };
            }
        }
    }
}

/// The cyclic-Jacobi iteration of [`sym_eig3`] on `W` matrices in lock
/// step. Returns the eigenvalues `[k][l]`, descending per lane, and — when
/// `VECTORS` — the eigenvectors `[i][k][l]` (column `k` pairs with value
/// `k`; the identity otherwise).
#[inline(always)]
fn jacobi3_lanes<const W: usize, const VECTORS: bool>(
    a: &Sym3Lanes<W>,
) -> ([[f64; W]; 3], Sym3Lanes<W>) {
    let mut m: Sym3Lanes<W> =
        std::array::from_fn(|i| std::array::from_fn(|j| if i >= j { a[i][j] } else { a[j][i] }));
    let mut v = identity3_lanes::<W>();
    let mut live = [true; W];

    for _sweep in 0..12 {
        let mut any_live = false;
        for l in 0..W {
            let off = m[1][0][l].abs() + m[2][0][l].abs() + m[2][1][l].abs();
            // `SmallMat::norm`, in its summation order.
            let mut sq = 0.0;
            for j in 0..3 {
                for i in 0..3 {
                    sq += m[i][j][l] * m[i][j][l];
                }
            }
            let done = off < 1e-300 || off < 1e-15 * sq.sqrt().max(1.0);
            live[l] &= !done;
            any_live |= live[l];
        }
        if !any_live {
            break;
        }
        rotate_lanes::<W, 0, 1, VECTORS>(&mut m, &mut v, &live);
        rotate_lanes::<W, 0, 2, VECTORS>(&mut m, &mut v, &live);
        rotate_lanes::<W, 1, 2, VECTORS>(&mut m, &mut v, &live);
    }

    let mut vals = [m[0][0], m[1][1], m[2][2]];
    order_lanes::<W, 0, 1, VECTORS>(&mut vals, &mut v);
    order_lanes::<W, 1, 2, VECTORS>(&mut vals, &mut v);
    order_lanes::<W, 0, 1, VECTORS>(&mut vals, &mut v);
    (vals, v)
}

/// [`sym_eig3`] on `W` matrices at once: eigenvalues `[k][l]` (descending
/// per lane) and unit eigenvectors `[i][k][l]`, each lane bit-identical to
/// the scalar call on that matrix. Only the lower triangle of `a` is read.
#[inline(always)]
pub fn sym_eig3_lanes<const W: usize>(a: &Sym3Lanes<W>) -> ([[f64; W]; 3], Sym3Lanes<W>) {
    jacobi3_lanes::<W, true>(a)
}

/// The eigenvalues of [`sym_eig3_lanes`] alone: the same rotations with no
/// eigenvector accumulated — what `σ_min(J) = sqrt(λ_min(JᵀJ))` needs.
#[inline(always)]
pub fn sym_eigvals3_lanes<const W: usize>(a: &Sym3Lanes<W>) -> [[f64; W]; 3] {
    jacobi3_lanes::<W, false>(a).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn sym2(p: f64, q: f64, r: f64) -> SmallMat<2> {
        SmallMat::from_fn(|i, j| [[p, q], [q, r]][i][j])
    }

    fn sym3(rows: [[f64; 3]; 3]) -> SmallMat<3> {
        SmallMat::from_fn(|i, j| rows[i][j])
    }

    fn check_reconstruct<const D: usize>(a: &SmallMat<D>, e: &SymEig<D>, tol: f64) {
        let r = e.reconstruct();
        for i in 0..D {
            for j in 0..D {
                assert!(
                    approx_eq(r[(i, j)], a[(i, j)], tol),
                    "({i},{j}): {} vs {}",
                    r[(i, j)],
                    a[(i, j)]
                );
            }
        }
    }

    #[test]
    fn eig2_diagonal() {
        let a = sym2(3.0, 0.0, -1.0);
        let e = sym_eig2(&a);
        assert_eq!(e.values, [3.0, -1.0]);
        check_reconstruct(&a, &e, 1e-14);
    }

    #[test]
    fn eig2_diagonal_swapped_order() {
        let a = sym2(-1.0, 0.0, 3.0);
        let e = sym_eig2(&a);
        assert_eq!(e.values, [3.0, -1.0]);
        check_reconstruct(&a, &e, 1e-14);
    }

    #[test]
    fn eig2_known_offdiagonal() {
        // [[2,1],[1,2]] has eigenvalues 3, 1 with vectors (1,1)/√2, (-1,1)/√2.
        let a = sym2(2.0, 1.0, 2.0);
        let e = sym_eig2(&a);
        assert!(approx_eq(e.values[0], 3.0, 1e-14));
        assert!(approx_eq(e.values[1], 1.0, 1e-14));
        check_reconstruct(&a, &e, 1e-14);
        let v0 = [e.vectors[(0, 0)], e.vectors[(1, 0)]];
        assert!(approx_eq(v0[0].abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-14));
    }

    #[test]
    fn eig2_vectors_orthonormal() {
        let a = sym2(4.0, -2.5, 1.0);
        let e = sym_eig2(&a);
        let v = e.vectors;
        let g = v.transpose() * v;
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx_eq(g[(i, j)], if i == j { 1.0 } else { 0.0 }, 1e-13));
            }
        }
    }

    #[test]
    fn eig3_diagonal() {
        let a = sym3([[5.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 1.0]]);
        let e = sym_eig3(&a);
        assert!(approx_eq(e.values[0], 5.0, 1e-14));
        assert!(approx_eq(e.values[1], 1.0, 1e-14));
        assert!(approx_eq(e.values[2], -2.0, 1e-14));
        check_reconstruct(&a, &e, 1e-13);
    }

    #[test]
    fn eig3_known_matrix() {
        // Classic: [[2,1,0],[1,2,1],[0,1,2]] has eigenvalues 2±√2, 2.
        let a = sym3([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]);
        let e = sym_eig3(&a);
        let s2 = std::f64::consts::SQRT_2;
        assert!(approx_eq(e.values[0], 2.0 + s2, 1e-12));
        assert!(approx_eq(e.values[1], 2.0, 1e-12));
        assert!(approx_eq(e.values[2], 2.0 - s2, 1e-12));
        check_reconstruct(&a, &e, 1e-12);
    }

    #[test]
    fn eig3_vectors_orthonormal() {
        let a = sym3([[1.0, 2.0, 3.0], [2.0, -4.0, 0.5], [3.0, 0.5, 7.0]]);
        let e = sym_eig3(&a);
        let g = e.vectors.transpose() * e.vectors;
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    approx_eq(g[(i, j)], if i == j { 1.0 } else { 0.0 }, 1e-12),
                    "({i},{j}) = {}",
                    g[(i, j)]
                );
            }
        }
    }

    #[test]
    fn eig3_trace_and_det_invariants() {
        let a = sym3([[3.0, 1.0, 0.2], [1.0, 2.0, -0.7], [0.2, -0.7, 5.0]]);
        let e = sym_eig3(&a);
        let sum: f64 = e.values.iter().sum();
        let prod: f64 = e.values.iter().product();
        assert!(approx_eq(sum, a.trace(), 1e-12));
        assert!(approx_eq(prod, a.det(), 1e-11));
    }

    #[test]
    fn eig3_repeated_eigenvalues() {
        // 2 I with a rank-one bump: eigenvalues 3, 2, 2.
        let mut a = SmallMat::<3>::identity();
        a.scale(2.0);
        a.add_outer(1.0, &[1.0, 0.0, 0.0], &[1.0, 0.0, 0.0]);
        let e = sym_eig3(&a);
        assert!(approx_eq(e.values[0], 3.0, 1e-13));
        assert!(approx_eq(e.values[1], 2.0, 1e-13));
        assert!(approx_eq(e.values[2], 2.0, 1e-13));
        check_reconstruct(&a, &e, 1e-12);
    }

    #[test]
    fn eig2_zero_matrix() {
        let e = sym_eig2(&SmallMat::zeros());
        assert_eq!(e.values, [0.0, 0.0]);
    }

    #[test]
    fn eig3_zero_matrix() {
        let e = sym_eig3(&SmallMat::zeros());
        assert_eq!(e.values, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn eig3_nan_orders_without_panicking() {
        // A NaN input must come out as NaN values for the caller's guards
        // to catch, not abort in the sort.
        let mut a = sym3([[1.0, 0.5, 0.0], [0.5, 2.0, 0.25], [0.0, 0.25, 3.0]]);
        a[(1, 0)] = f64::NAN;
        assert!(sym_eig3(&a).values.iter().any(|v| v.is_nan()));
    }

    /// `(p, q, r)` lower triangles of every branch of `sym_eig2`: seeded
    /// general matrices, exact `q = ±0` with `p >= r` and with `p < r`
    /// (ties included), a `q` under the rotation threshold, the zero
    /// matrix, and NaN / `±∞` entries.
    fn seeded_sym2(n: usize, seed: u64) -> Vec<(f64, f64, f64)> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let edges = [
            (2.0, 0.0, -1.0),
            (-1.0, 0.0, 3.0),
            (1.5, -0.0, 1.5),
            (-0.0, 0.0, 0.0),
            (0.0, -0.0, -0.0),
            (0.0, 0.0, 0.0),
            (1.0, 1e-17, 0.5),
            (0.5, -1e-17, 1.0),
            (1e300, 3e299, -2e299),
            (f64::NAN, 0.5, 1.0),
            (1.0, f64::NAN, 2.0),
            (1.0, 0.5, f64::NAN),
            (f64::NEG_INFINITY, 0.25, 1.0),
            (1.0, f64::INFINITY, 1.0),
            (f64::INFINITY, 0.0, f64::INFINITY),
        ];
        (0..n)
            .map(|i| match edges.get(i % (2 * edges.len())) {
                Some(&e) => e,
                None => (next() * 40.0, next() * 25.0, next()),
            })
            .collect()
    }

    fn lanes_match_sym_eig2_at<const W: usize>() {
        let mats = seeded_sym2(8 * W + 3, 0xA076_1D64_78BD_642F ^ W as u64);
        for group in mats.chunks(W) {
            let mut a = [[[0.0; W]; 2]; 2];
            for (l, &(p, q, r)) in group.iter().enumerate() {
                (a[0][0][l], a[1][0][l], a[1][1][l]) = (p, q, r);
                // The upper triangle is never read.
                a[0][1][l] = f64::NAN;
            }
            let (values, vectors) = sym_eig2_lanes(&a);
            let values_only = sym_eigvals2_lanes(&a);
            for (l, &(p, q, r)) in group.iter().enumerate() {
                let want = sym_eig2(&sym2(p, q, r));
                let what = format!("W{W} ({p:e}, {q:e}, {r:e}) lane {l}");
                for k in 0..2 {
                    let value = want.values[k].to_bits();
                    assert_eq!(values[k][l].to_bits(), value, "{what} value {k}");
                    assert_eq!(values_only[k][l].to_bits(), value, "{what} value-only {k}");
                    for i in 0..2 {
                        let got = vectors[i][k][l].to_bits();
                        assert_eq!(got, want.vectors[(i, k)].to_bits(), "{what} vector ({i},{k})");
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_match_sym_eig2_bitwise_at_every_width() {
        lanes_match_sym_eig2_at::<1>();
        lanes_match_sym_eig2_at::<4>();
        lanes_match_sym_eig2_at::<8>();
        lanes_match_sym_eig2_at::<16>();
    }

    /// Seeded symmetric matrices of every kind the kernels feed the solve:
    /// a shocked `sym(∇v)`, `JᵀJ` of a distorted zone, an already diagonal
    /// matrix, exact `0.0` / `-0.0` off-diagonals, a 1e-200 scale, repeated
    /// eigenvalues.
    fn seeded_sym3(class: usize, state: &mut u64) -> SmallMat<3> {
        let mut next = || {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m = SmallMat::<3>::from_fn(|_, _| next()).sym();
        match class {
            0 => m.scale(1e3),
            1 => {
                let eye = SmallMat::<3>::identity();
                let j = SmallMat::<3>::from_fn(|i, c| eye[(i, c)] + 0.4 * next());
                m = (j.transpose() * j).sym();
            }
            2 => m = SmallMat::from_fn(|i, j| if i == j { m[(i, j)] } else { 0.0 }),
            3 => {
                m[(1, 0)] = 0.0;
                m[(2, 0)] = if next() < 0.0 { -0.0 } else { m[(2, 0)] };
                m[(2, 1)] = if next() < 0.0 { -0.0 } else { 0.0 };
            }
            4 => m.scale(1e-200),
            _ => {
                let d = 1.0 + next();
                m = SmallMat::from_fn(|i, j| if i == j { d } else { 0.0 });
                if next() < 0.0 {
                    m.add_outer(0.5, &[1.0, 0.0, 0.0], &[1.0, 0.0, 0.0]);
                }
                if next() < 0.0 {
                    m[(2, 1)] = 1e-3 * d;
                }
            }
        }
        m
    }

    const CLASSES: usize = 6;

    /// Lower triangles of `group` in the leading lanes, identity behind.
    fn pack<const W: usize>(group: &[SmallMat<3>]) -> Sym3Lanes<W> {
        let mut a = identity3_lanes::<W>();
        for (l, m) in group.iter().enumerate() {
            for i in 0..3 {
                for j in 0..=i {
                    a[i][j][l] = m[(i, j)];
                }
            }
        }
        a
    }

    /// Lanes `0..group.len()` of both lane solves against `sym_eig3`, bit
    /// for bit; lanes behind them must still hold the identity's pairs.
    fn assert_lanes_match_scalar<const W: usize>(group: &[SmallMat<3>], what: &str) {
        let a = pack::<W>(group);
        let (values, vectors) = sym_eig3_lanes(&a);
        let values_only = sym_eigvals3_lanes(&a);
        for l in 0..W {
            let want = match group.get(l) {
                Some(m) if m.norm().is_nan() => continue,
                Some(m) => sym_eig3(m),
                None => sym_eig3(&SmallMat::identity()),
            };
            for k in 0..3 {
                let value = want.values[k].to_bits();
                assert_eq!(values[k][l].to_bits(), value, "{what} lane {l} value {k}");
                assert_eq!(values_only[k][l].to_bits(), value, "{what} lane {l} value-only {k}");
                for i in 0..3 {
                    assert_eq!(
                        vectors[i][k][l].to_bits(),
                        want.vectors[(i, k)].to_bits(),
                        "{what} lane {l} vector ({i},{k})"
                    );
                }
            }
        }
    }

    fn lanes_match_sym_eig3_at<const W: usize>() {
        for class in 0..CLASSES {
            let mut state = 0x9E3779B97F4A7C15 ^ (class as u64 * 77 + W as u64);
            let mats: Vec<_> = (0..2 * W + 1).map(|_| seeded_sym3(class, &mut state)).collect();
            // Ragged counts: every tail length, in full groups plus a rest.
            for count in 1..=2 * W + 1 {
                for group in mats[..count].chunks(W) {
                    assert_lanes_match_scalar::<W>(group, &format!("W{W} class {class} n{count}"));
                }
            }
            // One NaN lane rotates for all twelve sweeps with its
            // neighbours masked off: their bits must not move.
            for bad in 0..W {
                let mut group = mats[..W].to_vec();
                group[bad][(1, 0)] = f64::NAN;
                let what = format!("W{W} class {class} NaN lane {bad}");
                assert_lanes_match_scalar::<W>(&group, &what);
                let (values, _) = sym_eig3_lanes(&pack::<W>(&group));
                assert!((0..3).any(|k| values[k][bad].is_nan()), "the NaN must reach the output");
            }
        }
    }

    #[test]
    fn lanes_match_sym_eig3_bitwise_at_every_width() {
        lanes_match_sym_eig3_at::<1>();
        lanes_match_sym_eig3_at::<4>();
        lanes_match_sym_eig3_at::<8>();
        lanes_match_sym_eig3_at::<16>();
    }

    fn values_only_is_min_singular_at<const W: usize>() {
        for class in 0..CLASSES {
            let mut state = 0xD1B54A32D192ED03 ^ (class as u64 * 131 + W as u64);
            // General (non-symmetric) Jacobians built from the same classes.
            let jacs: Vec<SmallMat<3>> = (0..2 * W + 1)
                .map(|_| {
                    let s = seeded_sym3(class, &mut state);
                    let t = seeded_sym3(0, &mut state);
                    SmallMat::from_fn(|i, j| s[(i, j)] + if i < j { 1e-3 * t[(i, j)] } else { 0.0 })
                })
                .collect();
            for count in 1..=2 * W + 1 {
                for group in jacs[..count].chunks(W) {
                    let jtj: Vec<_> = group.iter().map(|j| (j.transpose() * *j).sym()).collect();
                    let sq = sym_eigvals3_lanes(&pack::<W>(&jtj));
                    for (l, j) in group.iter().enumerate() {
                        assert_eq!(
                            sq[2][l].max(0.0).sqrt().to_bits(),
                            crate::svd3(j).min_singular().to_bits(),
                            "W{W} class {class} n{count} lane {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn values_only_lanes_give_svd3_min_singular_bitwise() {
        values_only_is_min_singular_at::<4>();
        values_only_is_min_singular_at::<8>();
        values_only_is_min_singular_at::<16>();
    }
}
