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
    /// Column indices, sorted within each row, in 4 bytes each (a row
    /// sweep streams them beside the 8-byte values); every one `< cols`
    /// (each constructor, [`CsrBuilder::build`] and
    /// [`CsrMatrix::from_zone_blocks`], checks, and refuses `cols` above
    /// `MAX_COLS`), which the unchecked reads of the lock-step sweep rely
    /// on.
    col_idx: Vec<u32>,
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
    pub fn col_idx(&self) -> &[u32] {
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
                acc += self.values[k] * x[self.col_idx[k] as usize];
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
                    y[self.col_idx[k] as usize] += self.values[k] * xi;
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
                if self.col_idx[k] as usize == i {
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
                m[(i, self.col_idx[k] as usize)] = self.values[k];
            }
        }
        m
    }

    /// Returns `max |A - A^T|` over all entries (symmetry check for `M_V`).
    pub fn asymmetry(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k] as usize;
                let aij = self.values[k];
                let aji = self.get(j, i);
                worst = worst.max((aij - aji).abs());
            }
        }
        worst
    }

    /// Entry lookup by binary search within the row (0 if not stored, as
    /// for any `j` no 32-bit index can name).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let row = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
        match u32::try_from(j).map(|j| row.binary_search(&j)) {
            Ok(Ok(pos)) => self.values[self.row_ptr[i] + pos],
            _ => 0.0,
        }
    }
}

/// The widest matrix a [`CsrMatrix`] holds: every column index fits a
/// `u32`.
const MAX_COLS: usize = u32::MAX as usize + 1;

/// Refuses a column count whose indices would not fit `u32`, the one check
/// that makes each constructor's `as u32` lossless. The message is a plain
/// literal, so the refusal itself formats nothing.
fn check_cols(cols: usize) {
    assert!(cols <= MAX_COLS, "CsrMatrix: more than 2^32 columns do not fit 32-bit column indices");
}

/// Accumulating COO-style builder that assembles into CSR.
///
/// Duplicate `(i, j)` insertions are **summed**, matching finite-element
/// assembly semantics where multiple zones contribute to a shared DOF pair,
/// left to right in insertion order ([`Self::build`]'s sort is stable), so
/// the bits depend on the triplets alone, not on the toolchain's sort. An
/// exact `0.0` is never stored. [`CsrMatrix::from_zone_blocks`] gives the
/// same matrix as pushing its zone blocks here, without the triplets.
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

    /// Assembles into CSR, merging duplicates in insertion order and sorting
    /// columns per row. Panics on a triplet outside the `rows x cols` shape,
    /// and on `cols` above `MAX_COLS` before it allocates.
    pub fn build(mut self) -> CsrMatrix {
        let (rows, cols) = (self.rows, self.cols);
        check_cols(cols);
        self.triplets.sort_by_key(|t| (t.0, t.1));
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
            col_idx.push(j as u32);
            values.push(v);
            row_ptr[i + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

impl CsrMatrix {
    /// The `n × n` sum of `ldof × ldof` zone blocks: block `z` (column-major,
    /// `blocks[z·ldof² + j·ldof + i]`) adds into entry
    /// `(zone_dofs[z·ldof + i], zone_dofs[z·ldof + j])`. Bitwise
    /// [`CsrBuilder`] fed every block entry zone by zone, `j` outer, `i`
    /// inner: an exact `0.0` is skipped, so the pattern is the entries with
    /// a nonzero term, and each entry sums its terms left to right in that
    /// order (zones ascending).
    ///
    /// No triplets and no sort: the walk goes column by column, ascending,
    /// and within a column through the zones that touch it in ascending
    /// order, adding each block column's entries to their rows' slots for
    /// that column; a row's columns so come out sorted. A counting pass
    /// sizes `row_ptr`, `col_idx` and `values` exactly, and the fill pass
    /// repeats the walk. The temporaries are each column's zones (one entry
    /// per `zone_dofs` entry), a per-row cursor and a per-row marker; for a
    /// mass matrix each is smaller than `col_idx`. Panics on a DOF `>= n`,
    /// naming it, on blocks of the wrong length, or on `n` above
    /// `MAX_COLS`.
    pub fn from_zone_blocks(n: usize, ldof: usize, zone_dofs: &[usize], blocks: &[f64]) -> Self {
        check_cols(n);
        assert!(ldof > 0 && zone_dofs.len().is_multiple_of(ldof), "zone_dofs: ldof DOFs per zone");
        assert_eq!(blocks.len(), zone_dofs.len() * ldof, "one ldof x ldof block per zone");
        // Every column's `(zone, local column)` slots, as positions in
        // `zone_dofs`, zones ascending.
        let mut touch_ptr = vec![0usize; n + 1];
        for &dof in zone_dofs {
            assert!(dof < n, "zone block column {dof} outside {n} x {n}");
            touch_ptr[dof + 1] += 1;
        }
        for c in 0..n {
            touch_ptr[c + 1] += touch_ptr[c];
        }
        let mut touch = vec![0usize; zone_dofs.len()];
        let mut next = touch_ptr[..n].to_vec();
        for (at, &dof) in zone_dofs.iter().enumerate() {
            touch[next[dof]] = at;
            next[dof] += 1;
        }
        // `last[r]`: the column row `r` last opened a slot for.
        let mut last = vec![usize::MAX; n];
        let mut row_ptr = vec![0usize; n + 1];
        walk_zone_columns(ldof, zone_dofs, blocks, &touch_ptr, &touch, |r, c, _| {
            if last[r] != c {
                last[r] = c;
                row_ptr[r + 1] += 1;
            }
        });
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = row_ptr[n];
        let (mut col_idx, mut values) = (vec![0u32; nnz], vec![0.0f64; nnz]);
        last.fill(usize::MAX);
        // `next[r]`: one past row `r`'s open slot.
        next.copy_from_slice(&row_ptr[..n]);
        walk_zone_columns(ldof, zone_dofs, blocks, &touch_ptr, &touch, |r, c, v| {
            if last[r] != c {
                last[r] = c;
                col_idx[next[r]] = c as u32;
                values[next[r]] = v;
                next[r] += 1;
            } else {
                values[next[r] - 1] += v;
            }
        });
        CsrMatrix { rows: n, cols: n, row_ptr, col_idx, values }
    }
}

/// The walk of [`CsrMatrix::from_zone_blocks`]: `visit(row, col, value)` for
/// every nonzero block entry, columns ascending, each column's zones
/// ascending (`touch[touch_ptr[c]..touch_ptr[c + 1]]`, positions in
/// `zone_dofs`), then the block column's rows in local order.
#[inline(always)]
fn walk_zone_columns(
    ldof: usize,
    zone_dofs: &[usize],
    blocks: &[f64],
    touch_ptr: &[usize],
    touch: &[usize],
    mut visit: impl FnMut(usize, usize, f64),
) {
    for (c, span) in touch_ptr.windows(2).enumerate() {
        for &at in &touch[span[0]..span[1]] {
            let z = at / ldof;
            let dofs = &zone_dofs[z * ldof..(z + 1) * ldof];
            let column = &blocks[at * ldof..(at + 1) * ldof];
            for (&r, &v) in dofs.iter().zip(column) {
                if v != 0.0 {
                    visit(r, c, v);
                }
            }
        }
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
        // A column no 32-bit index names reads 0, not the entry its low
        // 32 bits would name (column 0 here).
        assert_eq!(a.get(0, 1 << 32), 0.0);
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

    /// So does the zone-block constructor, before it reads a block.
    #[test]
    #[should_panic(expected = "column 2 outside 2 x 2")]
    fn a_zone_block_column_outside_the_shape_is_refused() {
        CsrMatrix::from_zone_blocks(2, 2, &[0, 2], &[1.0; 4]);
    }

    /// A xorshift stream for the tests below.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Three duplicates among a few thousand other triplets sum left to
    /// right in the order they were added, which here differs from the
    /// other two orders in the last bit.
    #[test]
    fn duplicates_sum_left_to_right_in_insertion_order() {
        let (a, b, c) = (1e-16, 1.0, 1e-16);
        assert_ne!(a + b + c, a + c + b, "the orders must be told apart");
        let n = 64;
        let mut next = stream(7);
        let mut builder = CsrBuilder::new(n, n);
        for (at, dup) in [(500, a), (1500, b), (2500, c)] {
            while builder.triplets.len() < at {
                let (i, j) = ((next() % n as u64) as usize, (next() % n as u64) as usize);
                if (i, j) != (3, 5) {
                    builder.add(i, j, 1.0 + (next() % 1000) as f64);
                }
            }
            builder.add(3, 5, dup);
        }
        assert_eq!(builder.build().get(3, 5).to_bits(), (a + b + c).to_bits());
    }

    /// `from_zone_blocks` is the builder fed every block entry zone by
    /// zone, `j` outer, `i` inner, bit for bit and slot for slot: on ragged
    /// zone sets with a DOF listed twice in one zone, blocks that mix
    /// `±0.0`, NaN and infinities into values of every magnitude, and a
    /// column no zone touches.
    #[test]
    fn zone_blocks_match_the_builder_setup_oracle() {
        let shapes = [(9, 4, 4), (30, 8, 12), (50, 27, 9), (7, 3, 20)];
        for (case, (n, ldof, nz)) in shapes.into_iter().enumerate() {
            let mut next = stream(11 + case as u64);
            // DOF `n - 1` is never listed: an empty row and column.
            let zone_dofs: Vec<usize> =
                (0..nz * ldof).map(|_| (next() % (n as u64 - 1)) as usize).collect();
            let blocks: Vec<f64> = (0..nz * ldof * ldof)
                .map(|_| match next() % 23 {
                    0 => 0.0,
                    1 => -0.0,
                    2 if case == 3 => f64::NAN,
                    3 if case == 3 => f64::NEG_INFINITY,
                    r => {
                        let unit = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                        unit * 10f64.powi(r as i32 % 7 - 3)
                    }
                })
                .collect();
            let mut builder = CsrBuilder::new(n, n);
            let zones = zone_dofs.chunks_exact(ldof).zip(blocks.chunks_exact(ldof * ldof));
            for (dofs, block) in zones {
                for j in 0..ldof {
                    for i in 0..ldof {
                        builder.add(dofs[i], dofs[j], block[j * ldof + i]);
                    }
                }
            }
            let want = builder.build();
            let got = CsrMatrix::from_zone_blocks(n, ldof, &zone_dofs, &blocks);
            assert_eq!(got.row_ptr(), want.row_ptr(), "case {case}");
            assert_eq!(got.col_idx(), want.col_idx(), "case {case}");
            let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "case {case}");
            assert_eq!(got.col_idx.len(), got.col_idx.capacity(), "case {case}: sized exactly");
            assert_eq!(got.values.len(), got.values.capacity(), "case {case}");
        }
    }
}
