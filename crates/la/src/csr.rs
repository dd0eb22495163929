//! Compressed sparse row (CSR) matrices and SpMV.
//!
//! The global kinematic mass matrix `M_V` is sparse (continuous basis
//! functions couple only neighbouring zones), and the paper's kernels 9 and
//! 11 are CSR SpMV calls (via CUSPARSE in the original). This module is the
//! reference CSR implementation; the simulated-GPU SpMV in `blast-kernels`
//! matches it exactly.

use crate::dense::DMatrix;

/// Immutable CSR sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointers, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row; every one `< cols`
    /// ([`CsrBuilder::build`], the one constructor, checks), which the
    /// unchecked reads of the lock-step sweep rely on.
    col_idx: Vec<usize>,
    /// Nonzero values, parallel to `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `y = A x` (allocating).
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// `y = A x` into a caller-provided buffer (the hot path: PCG calls this
    /// every iteration, so no allocation here).
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv x length mismatch");
        assert_eq!(y.len(), self.rows, "spmv y length mismatch");
        for i in 0..self.rows {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            y[i] = acc;
        }
    }

    /// `y = A^T x` (needed by symmetric checks; `M_V` itself is symmetric).
    #[cfg(test)]
    pub fn spmv_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "spmv_t x length mismatch");
        assert_eq!(y.len(), self.cols, "spmv_t y length mismatch");
        y.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..self.rows {
            let xi = x[i];
            if xi != 0.0 {
                for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                    y[self.col_idx[k]] += self.values[k] * xi;
                }
            }
        }
    }

    /// Extracts the diagonal (the Jacobi / diagonal preconditioner of the
    /// paper's PCG). Missing diagonal entries read as 0.
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.rows.min(self.cols)];
        for i in 0..d.len() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    d[i] = self.values[k];
                    break;
                }
            }
        }
        d
    }

    /// Densifies (tests only — O(rows*cols) memory).
    pub fn to_dense(&self) -> DMatrix {
        let mut m = DMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] = self.values[k];
            }
        }
        m
    }

    /// Returns `max |A - A^T|` over all entries (symmetry check for `M_V`).
    pub fn asymmetry(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                let aij = self.values[k];
                let aji = self.get(j, i);
                worst = worst.max((aij - aji).abs());
            }
        }
        worst
    }

    /// Entry lookup by binary search within the row (0 if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let row = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
        match row.binary_search(&j) {
            Ok(pos) => self.values[self.row_ptr[i] + pos],
            Err(_) => 0.0,
        }
    }
}

/// Accumulating COO-style builder that assembles into CSR.
///
/// Duplicate `(i, j)` insertions are **summed**, matching finite-element
/// assembly semantics where multiple zones contribute to a shared DOF pair.
/// They are summed left to right in the order [`Self::build`]'s
/// `sort_unstable_by_key` leaves them in, which is *not* insertion order:
/// the same triplets give the same bits, but the order (and so the last
/// bits of a sum of three or more duplicates) is std's sort's to choose and
/// can change with the toolchain.
#[derive(Clone, Debug, Default)]
pub struct CsrBuilder {
    rows: usize,
    cols: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl CsrBuilder {
    /// New builder for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols, triplets: Vec::new() }
    }

    /// Adds `value` at `(i, j)` (summed with earlier additions there).
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols, "triplet out of bounds");
        if value != 0.0 {
            self.triplets.push((i, j, value));
        }
    }

    /// Assembles into CSR, merging duplicates and sorting columns per row.
    /// Panics on a triplet outside the `rows x cols` shape.
    pub fn build(mut self) -> CsrMatrix {
        let (rows, cols) = (self.rows, self.cols);
        self.triplets.sort_unstable_by_key(|t| (t.0, t.1));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.triplets.len());
        let mut values = Vec::with_capacity(self.triplets.len());

        let mut it = self.triplets.into_iter().peekable();
        while let Some((i, j, mut v)) = it.next() {
            while let Some(&(ni, nj, nv)) = it.peek() {
                if ni == i && nj == j {
                    v += nv;
                    it.next();
                } else {
                    break;
                }
            }
            assert!(i < rows && j < cols, "CsrBuilder: triplet ({i}, {j}) outside {rows} x {cols}");
            col_idx.push(j);
            values.push(v);
            row_ptr[i + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut b = CsrBuilder::new(3, 3);
        b.add(0, 0, 1.0);
        b.add(0, 2, 2.0);
        b.add(1, 1, 3.0);
        b.add(2, 0, 4.0);
        b.add(2, 2, 5.0);
        b.build()
    }

    #[test]
    fn spmv_known() {
        let a = sample();
        let y = a.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = CsrBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 1, 1.0);
        let a = b.build();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 3.5);
    }

    #[test]
    fn zeros_are_skipped() {
        let mut b = CsrBuilder::new(2, 2);
        b.add(0, 0, 0.0);
        b.add(1, 0, 1.0);
        let a = b.build();
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn transpose_spmv_matches_dense() {
        let a = sample();
        let x = [1.0, -1.0, 0.5];
        let mut y = vec![0.0; 3];
        a.spmv_transpose_into(&x, &mut y);
        let dense_t = a.to_dense().transpose();
        let mut expect = vec![0.0; 3];
        crate::dense::gemv_n(1.0, &dense_t, &x, 0.0, &mut expect);
        for (a, b) in y.iter().zip(&expect) {
            assert!(approx_eq(*a, *b, 1e-14));
        }
    }

    #[test]
    fn get_missing_entry_is_zero() {
        let a = sample();
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 1), 0.0);
    }

    #[test]
    fn asymmetry_detects_nonsymmetric() {
        let a = sample();
        // a(0,2)=2 but a(2,0)=4 -> asymmetry 2.
        assert_eq!(a.asymmetry(), 2.0);

        let mut b = CsrBuilder::new(2, 2);
        b.add(0, 1, 1.5);
        b.add(1, 0, 1.5);
        b.add(0, 0, 2.0);
        assert_eq!(b.build().asymmetry(), 0.0);
    }

    #[test]
    fn empty_rows_are_fine() {
        let mut b = CsrBuilder::new(4, 4);
        b.add(0, 0, 1.0);
        b.add(3, 3, 1.0);
        let a = b.build();
        assert_eq!(a.spmv(&[1.0; 4]), vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn row_columns_sorted() {
        let mut b = CsrBuilder::new(1, 5);
        b.add(0, 4, 1.0);
        b.add(0, 0, 2.0);
        b.add(0, 2, 3.0);
        let a = b.build();
        assert_eq!(a.col_idx(), &[0, 2, 4]);
        assert_eq!(a.values(), &[2.0, 3.0, 1.0]);
    }

    /// `build` refuses an index outside the shape in every build profile:
    /// the lock-step sweep reads `x` at the column indices unchecked.
    #[test]
    #[should_panic(expected = "outside 2 x 2")]
    fn a_column_outside_the_shape_is_refused() {
        CsrBuilder { rows: 2, cols: 2, triplets: vec![(0, 2, 1.0)] }.build();
    }
}
