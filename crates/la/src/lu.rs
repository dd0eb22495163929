//! Dense LU factorization with partial pivoting.
//!
//! The thermodynamic mass matrix `M_E` is block diagonal with one dense block
//! per zone; BLAST inverts each block *once* at initialization and applies
//! the inverse every timestep (§2 of the paper). The inversion is done with
//! a plain LAPACK-style `dgetrf`/`dgetri` pair implemented here.

use crate::dense::DMatrix;

/// LU factors of a square matrix: `P A = L U` with unit-diagonal `L`.
#[derive(Clone, Debug)]
pub struct LuFactors {
    /// Packed LU: `U` on and above the diagonal, `L` strictly below.
    lu: DMatrix,
    /// Row permutation: step `k` swapped rows `k` and `piv[k]`.
    piv: Vec<usize>,
    /// Whether the matrix is (numerically) singular.
    singular: bool,
}

impl LuFactors {
    /// Factors `a` in LAPACK `dgetrf` style (partial pivoting).
    pub fn factor(a: &DMatrix) -> Self {
        let n = a.rows();
        assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
        let mut lu = a.clone();
        let mut piv = vec![0usize; n];
        let mut singular = false;

        for k in 0..n {
            // Pivot: largest |entry| in column k at/below the diagonal.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            piv[k] = p;
            if pmax == 0.0 {
                singular = true;
                continue;
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let l = lu[(i, k)] / pivot;
                lu[(i, k)] = l;
                if l != 0.0 {
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= l * ukj;
                    }
                }
            }
        }
        Self { lu, piv, singular }
    }

    /// `true` if a zero pivot was hit during factorization.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` in place (`b` becomes `x`).
    ///
    /// Panics if the factorization was singular.
    fn solve_in_place(&self, b: &mut [f64]) {
        assert!(!self.singular, "solve with singular LU factors");
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation.
        for k in 0..n {
            let p = self.piv[k];
            if p != k {
                b.swap(k, p);
            }
        }
        // Forward substitution with unit-lower L.
        for i in 1..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * b[j];
            }
            b[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * b[j];
            }
            b[i] = acc / self.lu[(i, i)];
        }
    }

    /// Solves `A x = b`, returning `x`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Explicit inverse (column-by-column solve), the `dgetri` analog.
    pub fn inverse(&self) -> DMatrix {
        let n = self.dim();
        let mut inv = DMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e.iter_mut().for_each(|x| *x = 0.0);
            e[j] = 1.0;
            self.solve_in_place(&mut e);
            inv.col_mut(j).copy_from_slice(&e);
        }
        inv
    }

    /// Determinant from the LU factors.
    pub fn det(&self) -> f64 {
        if self.singular {
            return 0.0;
        }
        let n = self.dim();
        let mut d = 1.0;
        for k in 0..n {
            d *= self.lu[(k, k)];
            if self.piv[k] != k {
                d = -d;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::dense::gemm_nn;

    #[test]
    fn solve_known_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let a = DMatrix::from_row_major(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let lu = LuFactors::factor(&a);
        let x = lu.solve(&[3.0, 5.0]);
        assert!(approx_eq(x[0], 0.8, 1e-14));
        assert!(approx_eq(x[1], 1.4, 1e-14));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = DMatrix::from_row_major(
            3,
            3,
            &[4.0, -2.0, 1.0, -2.0, 4.0, -2.0, 1.0, -2.0, 4.0],
        );
        let inv = LuFactors::factor(&a).inverse();
        let mut prod = DMatrix::zeros(3, 3);
        gemm_nn(1.0, &a, &inv, 0.0, &mut prod);
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx_eq(prod[(i, j)], if i == j { 1.0 } else { 0.0 }, 1e-12));
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DMatrix::from_row_major(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let lu = LuFactors::factor(&a);
        assert!(!lu.is_singular());
        let x = lu.solve(&[2.0, 3.0]);
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = DMatrix::from_row_major(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        let lu = LuFactors::factor(&a);
        assert!(lu.is_singular());
        assert_eq!(lu.det(), 0.0);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn solve_singular_panics() {
        let a = DMatrix::from_row_major(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        LuFactors::factor(&a).solve(&[1.0, 1.0]);
    }

    #[test]
    fn determinant_with_pivot_sign() {
        let a = DMatrix::from_row_major(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let lu = LuFactors::factor(&a);
        assert!(approx_eq(lu.det(), -1.0, 1e-14));
        let b = DMatrix::from_row_major(3, 3, &[1.0, 2.0, 3.0, 0.0, 1.0, 4.0, 5.0, 6.0, 0.0]);
        assert!(approx_eq(LuFactors::factor(&b).det(), 1.0, 1e-12));
    }

    #[test]
    fn random_spd_solve_residual_small() {
        // Deterministic "random" SPD matrix: B^T B + n I.
        let n = 12;
        let b = DMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
        let mut a = DMatrix::zeros(n, n);
        crate::dense::gemm_tn(1.0, &b, &b, 0.0, &mut a);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = LuFactors::factor(&a).solve(&rhs);
        let mut r = rhs.clone();
        crate::dense::gemv_n(-1.0, &a, &x, 1.0, &mut r);
        assert!(crate::stream::nrm2(&r) < 1e-10);
    }
}
