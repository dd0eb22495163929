//! Singular value decompositions of 2x2 and 3x3 matrices.
//!
//! BLAST's artificial viscosity needs a *directional length scale* per
//! quadrature point: the singular values of the zone Jacobian measure how the
//! reference cell is stretched along each principal direction, and the
//! smallest singular value in the compression direction sets the viscosity
//! length. This is the "SVD" work inside the paper's kernel 1
//! (`kernel_CalcAjugate_det`).
//!
//! We compute the SVD from the symmetric eigendecomposition of `A^T A`
//! (singular values are the square roots of its eigenvalues), then recover
//! the left vectors by applying `A`. This is exactly the thread-local scalar
//! recipe a GPU thread runs, and is robust for the well-conditioned Jacobians
//! that appear in valid (non-inverted) meshes.

use crate::eig::{sym_eig2, sym_eig3};
use crate::small::SmallMat;

/// Singular value decomposition `A = U diag(s) V^T`.
///
/// Singular values are non-negative and sorted descending. `u` and `v` hold
/// the left/right singular vectors as columns.
#[derive(Clone, Copy, Debug)]
pub struct Svd<const D: usize> {
    /// Singular values, descending, non-negative.
    pub values: [f64; D],
    /// Left singular vectors (columns).
    pub u: SmallMat<D>,
    /// Right singular vectors (columns).
    pub v: SmallMat<D>,
}

impl<const D: usize> Svd<D> {
    /// Reconstructs `U diag(s) V^T` (for validation).
    pub fn reconstruct(&self) -> SmallMat<D> {
        let mut a = SmallMat::zeros();
        for k in 0..D {
            let mut uk = [0.0; D];
            let mut vk = [0.0; D];
            for i in 0..D {
                uk[i] = self.u[(i, k)];
                vk[i] = self.v[(i, k)];
            }
            a.add_outer(self.values[k], &uk, &vk);
        }
        a
    }

    /// Smallest singular value — BLAST's minimum directional length scale.
    #[inline]
    pub fn min_singular(&self) -> f64 {
        self.values[D - 1]
    }
}

/// Completes a left singular vector for a (near-)zero column of `A V`:
/// picks a unit vector orthogonal to the already-filled columns `0..k`.
fn orthogonal_complement<const D: usize>(u: &SmallMat<D>, k: usize) -> [f64; D] {
    // Try coordinate axes and Gram-Schmidt against earlier columns.
    let mut best = [0.0; D];
    let mut best_norm = -1.0;
    for axis in 0..D {
        let mut cand = [0.0; D];
        cand[axis] = 1.0;
        for c in 0..k {
            let mut proj = 0.0;
            for i in 0..D {
                proj += cand[i] * u[(i, c)];
            }
            for i in 0..D {
                cand[i] -= proj * u[(i, c)];
            }
        }
        let n: f64 = cand.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n > best_norm {
            best_norm = n;
            best = cand;
        }
    }
    debug_assert!(best_norm > 0.0, "no orthogonal complement found");
    for x in &mut best {
        *x /= best_norm;
    }
    best
}

fn svd_from_eig<const D: usize>(
    a: &SmallMat<D>,
    values: [f64; D],
    v: SmallMat<D>,
) -> Svd<D> {
    let mut s = [0.0; D];
    for k in 0..D {
        s[k] = values[k].max(0.0).sqrt();
    }
    let scale = s[0].max(1.0);
    let mut u = SmallMat::<D>::zeros();
    for k in 0..D {
        let mut vk = [0.0; D];
        for i in 0..D {
            vk[i] = v[(i, k)];
        }
        let av = a.mul_vec(&vk);
        let n: f64 = av.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n > 1e-14 * scale {
            for i in 0..D {
                u[(i, k)] = av[i] / n;
            }
        } else {
            let c = orthogonal_complement(&u, k);
            for i in 0..D {
                u[(i, k)] = c[i];
            }
        }
    }
    Svd { values: s, u, v }
}

/// SVD of a general 2x2 matrix.
pub fn svd2(a: &SmallMat<2>) -> Svd<2> {
    let ata = a.transpose() * *a;
    let e = sym_eig2(&ata.sym()); // sym() guards round-off asymmetry
    svd_from_eig(a, e.values, e.vectors)
}

/// SVD of a general 3x3 matrix.
pub fn svd3(a: &SmallMat<3>) -> Svd<3> {
    let ata = a.transpose() * *a;
    let e = sym_eig3(&ata.sym());
    svd_from_eig(a, e.values, e.vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn m2(rows: [[f64; 2]; 2]) -> SmallMat<2> {
        SmallMat::from_fn(|i, j| rows[i][j])
    }

    fn m3(rows: [[f64; 3]; 3]) -> SmallMat<3> {
        SmallMat::from_fn(|i, j| rows[i][j])
    }

    fn check_svd2(a: &SmallMat<2>, tol: f64) {
        let s = svd2(a);
        assert!(s.values[0] >= s.values[1] && s.values[1] >= 0.0);
        let r = s.reconstruct();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx_eq(r[(i, j)], a[(i, j)], tol), "({i},{j})");
            }
        }
    }

    fn check_svd3(a: &SmallMat<3>, tol: f64) {
        let s = svd3(a);
        assert!(s.values[0] >= s.values[1] && s.values[1] >= s.values[2]);
        assert!(s.values[2] >= 0.0);
        let r = s.reconstruct();
        for i in 0..3 {
            for j in 0..3 {
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
    fn svd2_diagonal() {
        let s = svd2(&m2([[3.0, 0.0], [0.0, 2.0]]));
        assert!(approx_eq(s.values[0], 3.0, 1e-14));
        assert!(approx_eq(s.values[1], 2.0, 1e-14));
    }

    #[test]
    fn svd2_negative_determinant() {
        // Reflection: singular values stay positive.
        let a = m2([[0.0, 2.0], [1.0, 0.0]]);
        let s = svd2(&a);
        assert!(approx_eq(s.values[0], 2.0, 1e-14));
        assert!(approx_eq(s.values[1], 1.0, 1e-14));
        check_svd2(&a, 1e-13);
    }

    #[test]
    fn svd2_general_reconstruction() {
        check_svd2(&m2([[1.0, 2.0], [3.0, 4.0]]), 1e-12);
        check_svd2(&m2([[-1.5, 0.3], [2.2, -7.0]]), 1e-12);
    }

    #[test]
    fn svd2_rank_deficient() {
        let a = m2([[1.0, 2.0], [2.0, 4.0]]); // rank 1
        let s = svd2(&a);
        assert!(s.values[1].abs() < 1e-12 * s.values[0]);
        check_svd2(&a, 1e-12);
    }

    #[test]
    fn svd3_diagonal_with_sign() {
        let a = m3([[4.0, 0.0, 0.0], [0.0, -9.0, 0.0], [0.0, 0.0, 1.0]]);
        let s = svd3(&a);
        assert!(approx_eq(s.values[0], 9.0, 1e-13));
        assert!(approx_eq(s.values[1], 4.0, 1e-13));
        assert!(approx_eq(s.values[2], 1.0, 1e-13));
        check_svd3(&a, 1e-12);
    }

    #[test]
    fn svd3_general_reconstruction() {
        check_svd3(&m3([[1.0, 2.0, 0.5], [-0.3, 4.0, 1.1], [2.0, 0.0, 3.0]]), 1e-11);
    }

    #[test]
    fn svd3_rank_one() {
        // Outer product => rank one.
        let mut a = SmallMat::<3>::zeros();
        a.add_outer(5.0, &[1.0, 2.0, 2.0], &[2.0, 1.0, 2.0]);
        let s = svd3(&a);
        assert!(approx_eq(s.values[0], 45.0, 1e-10)); // 5 * |x| * |y| = 5*3*3
        // Small singular values from eig(A^T A) carry ~sqrt(eps) relative
        // error — acceptable: BLAST only uses SVDs of well-conditioned
        // (non-degenerate) mesh Jacobians.
        assert!(s.values[1].abs() < 1e-5 * s.values[0]);
        check_svd3(&a, 1e-6);
    }

    #[test]
    fn svd3_zero_matrix() {
        let s = svd3(&SmallMat::zeros());
        assert_eq!(s.values, [0.0, 0.0, 0.0]);
        // U and V must still be orthonormal for downstream use.
        let g = s.u.transpose() * s.u;
        for i in 0..3 {
            assert!(approx_eq(g[(i, i)], 1.0, 1e-13));
        }
    }

    #[test]
    fn svd_vectors_orthonormal() {
        let a = m3([[2.0, -1.0, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, -2.0]]);
        let s = svd3(&a);
        let gu = s.u.transpose() * s.u;
        let gv = s.v.transpose() * s.v;
        for i in 0..3 {
            for j in 0..3 {
                let id = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(gu[(i, j)], id, 1e-11), "U ({i},{j})");
                assert!(approx_eq(gv[(i, j)], id, 1e-11), "V ({i},{j})");
            }
        }
    }

    #[test]
    fn min_singular_is_length_scale() {
        // A mesh Jacobian compressed in y: h_min tracks the compression.
        let a = m2([[1.0, 0.0], [0.0, 0.01]]);
        let s = svd2(&a);
        assert!(approx_eq(s.min_singular(), 0.01, 1e-12));
        assert!(approx_eq(s.values[0], 1.0, 1e-12));
    }
}
