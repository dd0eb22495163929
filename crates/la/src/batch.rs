//! Batched small-matrix operations.
//!
//! "A major change from the CPU code to our newly designed CUDA code is that
//! loops become batch-processed" (§3.1.1). This module defines the packed
//! batched storage format shared by the CPU reference and the simulated-GPU
//! kernels, plus the reference batched DGEMM. Each batch
//! member is stored contiguously in column-major order, members back to back
//! — exactly how `cublasDgemmBatched` expects its device arrays, minus the
//! pointer indirection.

use rayon::prelude::*;

use crate::tile::{self, Op};

/// A packed batch of equally-shaped column-major matrices.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchedMats {
    rows: usize,
    cols: usize,
    count: usize,
    data: Vec<f64>,
}

impl BatchedMats {
    /// Zero-initialized batch of `count` matrices of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize, count: usize) -> Self {
        Self { rows, cols, count, data: vec![0.0; rows * cols * count] }
    }

    /// Empty batch (`0 x 0 x 0`); a placeholder for scratch slots that are
    /// shaped later via [`BatchedMats::ensure`].
    pub fn empty() -> Self {
        Self { rows: 0, cols: 0, count: 0, data: Vec::new() }
    }

    /// Reshapes `self` to `rows x cols x count` and fills it with zeros,
    /// reusing the existing heap buffer whenever it is large enough. The
    /// result is indistinguishable from [`BatchedMats::zeros`], but
    /// steady-state callers that hold the batch in a workspace perform no
    /// heap allocation.
    pub fn ensure(&mut self, rows: usize, cols: usize, count: usize) {
        let len = rows * cols * count;
        self.rows = rows;
        self.cols = cols;
        self.count = count;
        self.data.truncate(len);
        self.data.iter_mut().for_each(|x| *x = 0.0);
        self.data.resize(len, 0.0);
    }

    /// Reshapes `self` to `rows x cols x count` **without clearing it**:
    /// entries keep whatever an earlier use left there (zeros only where
    /// the buffer had to grow), so this is for outputs a kernel is about to
    /// store in full — a zero-fill there is a second pass over memory that
    /// nothing reads. Grow-only like [`BatchedMats::ensure`]; use `ensure`
    /// when the next consumer reads or accumulates into the old contents.
    pub fn reshape(&mut self, rows: usize, cols: usize, count: usize) {
        self.rows = rows;
        self.cols = cols;
        self.count = count;
        self.data.resize(rows * cols * count, 0.0);
    }

    /// Builds from packed data (`count * rows * cols` column-major values).
    pub fn from_data(rows: usize, cols: usize, count: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols * count, "batched data length mismatch");
        Self { rows, cols, count, data }
    }

    /// Builds by evaluating `f(batch, row, col)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        count: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut b = Self::zeros(rows, cols, count);
        for z in 0..count {
            for j in 0..cols {
                for i in 0..rows {
                    let idx = b.index_of(z, i, j);
                    b.data[idx] = f(z, i, j);
                }
            }
        }
        b
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of matrices in the batch.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Stride between consecutive matrices.
    pub fn stride(&self) -> usize {
        self.rows * self.cols
    }

    /// Flat index of entry `(i, j)` of batch member `z`.
    #[inline]
    fn index_of(&self, z: usize, i: usize, j: usize) -> usize {
        z * self.stride() + i + j * self.rows
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, z: usize, i: usize, j: usize) -> f64 {
        self.data[self.index_of(z, i, j)]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, z: usize, i: usize, j: usize, v: f64) {
        let idx = self.index_of(z, i, j);
        self.data[idx] = v;
    }

    /// Column-major slice of batch member `z`.
    #[inline]
    pub fn mat(&self, z: usize) -> &[f64] {
        let s = self.stride();
        &self.data[z * s..(z + 1) * s]
    }

    /// Mutable column-major slice of batch member `z`.
    #[inline]
    pub fn mat_mut(&mut self, z: usize) -> &mut [f64] {
        let s = self.stride();
        &mut self.data[z * s..(z + 1) * s]
    }

    /// Full packed storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Full packed mutable storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Parallel iterator over `(index, matrix-slice)` pairs.
    pub fn par_mats_mut(&mut self) -> impl IndexedParallelIterator<Item = (usize, &mut [f64])> {
        let s = self.stride();
        self.data.par_chunks_exact_mut(s).enumerate()
    }
}

/// Batched `C_z = alpha A_z B_z + beta C_z` (all batches share shapes).
///
/// This is the semantics of `cublasDgemmBatched` with NN transposes — the
/// paper's kernels 5/6 implement the `DIM x DIM` case of exactly this.
pub fn batched_gemm_nn(
    alpha: f64,
    a: &BatchedMats,
    b: &BatchedMats,
    beta: f64,
    c: &mut BatchedMats,
) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "batched gemm_nn inner dim mismatch");
    assert_eq!(c.shape(), (m, n), "batched gemm_nn output shape mismatch");
    assert!(
        a.count() == b.count() && b.count() == c.count(),
        "batched gemm_nn batch count mismatch"
    );
    let sa = a.stride();
    let sb = b.stride();
    c.par_mats_mut().for_each(|(z, cz)| {
        let (az, bz) = (&a.as_slice()[z * sa..(z + 1) * sa], &b.as_slice()[z * sb..(z + 1) * sb]);
        tile::gemm(m, n, k, alpha, az, Op::N, bz, Op::N, beta, cz);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{gemm_nn, DMatrix};

    fn batch_to_dmat(b: &BatchedMats, z: usize) -> DMatrix {
        DMatrix::from_col_major(b.shape().0, b.shape().1, b.mat(z).to_vec())
    }

    fn sample_batch(rows: usize, cols: usize, count: usize, seed: f64) -> BatchedMats {
        BatchedMats::from_fn(rows, cols, count, |z, i, j| {
            (seed + z as f64 * 1.7 + i as f64 * 0.3 - j as f64 * 0.9).sin()
        })
    }

    #[test]
    fn packed_layout_indexing() {
        let b = BatchedMats::from_fn(2, 3, 4, |z, i, j| (z * 100 + i * 10 + j) as f64);
        assert_eq!(b.get(3, 1, 2), 312.0);
        assert_eq!(b.stride(), 6);
        // Batch 1 starts at flat offset 6; (0,0) of batch 1 is data[6].
        assert_eq!(b.as_slice()[6], 100.0);
    }

    #[test]
    fn reshape_keeps_the_buffer_and_its_contents() {
        let mut b = BatchedMats::from_fn(2, 2, 3, |z, i, j| (z * 4 + i + 2 * j) as f64 + 1.0);
        let ptr = b.as_slice().as_ptr();
        b.reshape(3, 1, 2);
        assert_eq!((b.shape(), b.count()), ((3, 1), 2));
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "no fill on shrink");
        b.reshape(2, 2, 3);
        assert_eq!(b.as_slice().as_ptr(), ptr, "grow-only: regrowing within capacity reuses it");
        assert_eq!(&b.as_slice()[6..], &[0.0; 6], "only the regrown tail is zeroed");
        // `ensure` still clears everything.
        b.ensure(2, 2, 3);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn batched_gemm_nn_matches_per_matrix_gemm() {
        let a = sample_batch(3, 4, 5, 0.1);
        let b = sample_batch(4, 2, 5, 0.7);
        let mut c = BatchedMats::zeros(3, 2, 5);
        batched_gemm_nn(1.0, &a, &b, 0.0, &mut c);
        for z in 0..5 {
            let mut expect = DMatrix::zeros(3, 2);
            gemm_nn(1.0, &batch_to_dmat(&a, z), &batch_to_dmat(&b, z), 0.0, &mut expect);
            assert_eq!(batch_to_dmat(&c, z), expect, "batch {z}");
        }
    }

    #[test]
    fn beta_accumulation_in_batched_gemm() {
        let a = sample_batch(2, 2, 3, 0.3);
        let b = sample_batch(2, 2, 3, 0.6);
        let mut c = BatchedMats::from_fn(2, 2, 3, |_, _, _| 1.0);
        let keep = c.clone();
        batched_gemm_nn(0.0, &a, &b, 2.0, &mut c);
        for (u, v) in c.as_slice().iter().zip(keep.as_slice()) {
            assert_eq!(*u, 2.0 * v);
        }
    }

    #[test]
    #[should_panic(expected = "batch count mismatch")]
    fn count_mismatch_panics() {
        let a = BatchedMats::zeros(2, 2, 3);
        let b = BatchedMats::zeros(2, 2, 4);
        let mut c = BatchedMats::zeros(2, 2, 3);
        batched_gemm_nn(1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn dim2_and_dim3_jacobian_batches() {
        // The paper's kernels 5/6 work on DIM x DIM batches; sanity-check the
        // identity batch acts as neutral element in both dims.
        for d in [2usize, 3] {
            let id = BatchedMats::from_fn(d, d, 10, |_, i, j| if i == j { 1.0 } else { 0.0 });
            let a = sample_batch(d, d, 10, 0.8);
            let mut c = BatchedMats::zeros(d, d, 10);
            batched_gemm_nn(1.0, &a, &id, 0.0, &mut c);
            assert_eq!(c, a);
        }
    }
}
