//! Block-diagonal matrices (the thermodynamic mass matrix `M_E`).
//!
//! `M_E` is the density-weighted Gram matrix of the *discontinuous*
//! thermodynamic basis, so it decouples zone by zone into dense blocks. BLAST
//! inverts every block once at initialization (`precompute_inverse`) and then
//! applies `M_E^{-1}` each timestep as a sparse operation — the paper's
//! kernel 11 (a CUSPARSE SpMV on the block-diagonal inverse).

use crate::csr::{CsrBuilder, CsrMatrix};
use crate::dense::DMatrix;
use crate::lu::LuFactors;

/// A square block-diagonal matrix with uniform block size.
#[derive(Clone, Debug)]
pub struct BlockDiag {
    block_size: usize,
    /// Dense blocks, one per zone, each `block_size x block_size`.
    blocks: Vec<DMatrix>,
}

impl BlockDiag {
    /// Creates from explicit blocks. All blocks must be square with the same
    /// size; panics otherwise.
    pub fn from_blocks(blocks: Vec<DMatrix>) -> Self {
        assert!(!blocks.is_empty(), "block-diagonal matrix needs >= 1 block");
        let block_size = blocks[0].rows();
        for b in &blocks {
            assert_eq!(b.shape(), (block_size, block_size), "inconsistent block shape");
        }
        Self { block_size, blocks }
    }

    /// Block dimension.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total matrix dimension.
    pub fn dim(&self) -> usize {
        self.block_size * self.blocks.len()
    }

    /// Access block `z`.
    pub fn block(&self, z: usize) -> &DMatrix {
        &self.blocks[z]
    }

    /// `y = A x`.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "apply x length mismatch");
        assert_eq!(y.len(), self.dim(), "apply y length mismatch");
        let bs = self.block_size;
        for (z, block) in self.blocks.iter().enumerate() {
            let xs = &x[z * bs..(z + 1) * bs];
            let ys = &mut y[z * bs..(z + 1) * bs];
            crate::dense::gemv_n_raw(bs, bs, 1.0, block.as_slice(), xs, 0.0, ys);
        }
    }

    /// Inverts every block (LU per block). Panics if any block is singular —
    /// a singular `M_E` block means a degenerate zone, which is fatal for the
    /// simulation anyway.
    pub fn inverse(&self) -> BlockDiag {
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                let lu = LuFactors::factor(b);
                assert!(!lu.is_singular(), "singular thermodynamic mass block");
                lu.inverse()
            })
            .collect();
        BlockDiag { block_size: self.block_size, blocks }
    }

    /// Exports as CSR (this is what the paper feeds to the CUSPARSE SpMV of
    /// kernel 11: the block-diagonal inverse stored as a general sparse
    /// matrix).
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.dim();
        let bs = self.block_size;
        let mut builder = CsrBuilder::new(n, n);
        for (z, block) in self.blocks.iter().enumerate() {
            let base = z * bs;
            for i in 0..bs {
                for j in 0..bs {
                    builder.add(base + i, base + j, block[(i, j)]);
                }
            }
        }
        builder.build()
    }

    /// Maximum symmetry defect across blocks.
    pub fn asymmetry(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for b in &self.blocks {
            for i in 0..self.block_size {
                for j in (i + 1)..self.block_size {
                    worst = worst.max((b[(i, j)] - b[(j, i)]).abs());
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn two_blocks() -> BlockDiag {
        let b0 = DMatrix::from_row_major(2, 2, &[2.0, 1.0, 1.0, 2.0]);
        let b1 = DMatrix::from_row_major(2, 2, &[4.0, 0.0, 0.0, 0.5]);
        BlockDiag::from_blocks(vec![b0, b1])
    }

    #[test]
    fn apply_acts_blockwise() {
        let a = two_blocks();
        let mut y = vec![0.0; 4];
        a.apply(&[1.0, 1.0, 1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 3.0, 4.0, 1.0]);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = two_blocks();
        let inv = a.inverse();
        let x = [0.3, -1.2, 5.0, 0.25];
        let mut ax = vec![0.0; 4];
        a.apply(&x, &mut ax);
        let mut back = vec![0.0; 4];
        inv.apply(&ax, &mut back);
        for (u, v) in back.iter().zip(&x) {
            assert!(approx_eq(*u, *v, 1e-13));
        }
    }

    #[test]
    fn csr_export_matches_apply() {
        let a = two_blocks();
        let csr = a.to_csr();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y1 = vec![0.0; 4];
        a.apply(&x, &mut y1);
        let y2 = csr.spmv(&x);
        assert_eq!(y1, y2);
        // Structural zeros inside block 1 are dropped by the CSR builder.
        assert_eq!(csr.nnz(), 6);
    }

    /// The solver applies `M_E^{-1}` through [`BlockDiag::apply`] on every
    /// leg and bills the device for the CSR export's SpMV: the two must be
    /// the same arithmetic, bit for bit, including where `apply` skips a
    /// zero `x` entry and where the export drops a zero block entry.
    #[test]
    fn apply_is_bitwise_the_csr_export_spmv() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for bs in [1, 3, 4, 8, 27] {
            let blocks = (0..5)
                .map(|_| {
                    DMatrix::from_fn(bs, bs, |_, _| {
                        let v = next();
                        if v.abs() < 0.05 { 0.0 } else { v * 1e3 }
                    })
                })
                .collect();
            let a = BlockDiag::from_blocks(blocks);
            let x: Vec<f64> = (0..a.dim())
                .map(|i| match i % 7 {
                    2 => 0.0,
                    5 => -0.0,
                    _ => next(),
                })
                .collect();
            let mut y = vec![f64::NAN; a.dim()];
            a.apply(&x, &mut y);
            let y_csr = a.to_csr().spmv(&x);
            for (i, (u, v)) in y.iter().zip(&y_csr).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "bs={bs}, row {i}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn dims_and_access() {
        let a = two_blocks();
        assert_eq!(a.dim(), 4);
        assert_eq!(a.num_blocks(), 2);
        assert_eq!(a.block_size(), 2);
        assert_eq!(a.block(1)[(0, 0)], 4.0);
    }

    #[test]
    fn symmetric_blocks_have_zero_asymmetry() {
        assert_eq!(two_blocks().asymmetry(), 0.0);
        let b = DMatrix::from_row_major(2, 2, &[1.0, 2.0, 0.0, 1.0]);
        let bd = BlockDiag::from_blocks(vec![b]);
        assert_eq!(bd.asymmetry(), 2.0);
    }

    #[test]
    #[should_panic(expected = "singular thermodynamic mass block")]
    fn singular_block_panics_on_inverse() {
        let b = DMatrix::from_row_major(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        BlockDiag::from_blocks(vec![b]).inverse();
    }

    #[test]
    #[should_panic(expected = "inconsistent block shape")]
    fn mixed_block_sizes_rejected() {
        BlockDiag::from_blocks(vec![DMatrix::zeros(2, 2), DMatrix::zeros(3, 3)]);
    }
}
