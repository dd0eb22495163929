//! # blast-la
//!
//! Linear algebra for the BLAST CPU-GPU reproduction.
//!
//! The paper expresses the hot parts of the hydrodynamics code as LAPACK-like
//! linear-algebra routines: dense matrix-matrix products (`DGEMM`),
//! matrix-vector products (`DGEMV`), *batched* variants over many small
//! matrices, singular value decompositions and symmetric eigendecompositions
//! of `DIM x DIM` matrices (used in the stress-tensor evaluation), sparse
//! matrix-vector products (CSR `SpMV`), block-diagonal inverses (for the
//! thermodynamic mass matrix), and a preconditioned conjugate gradient solver
//! (for the kinematic mass matrix).
//!
//! This crate provides all of those as the *reference semantics*: the CPU
//! implementation of BLAST uses them directly, and the simulated GPU kernels
//! in `blast-kernels` are validated against them element-by-element.
//!
//! Layout convention: matrices are **column-major** (LAPACK/Fortran order),
//! matching the paper's observation that column blocking works best because
//! "the data layout is in column major".

pub mod abft;
pub mod batch;
pub mod blockdiag;
pub mod csr;
pub mod dense;
pub mod eig;
pub mod lu;
pub mod pcg;
pub mod simd;
pub mod small;
pub mod stream;
pub mod svd;
pub mod tensor;
pub mod tile;

pub use abft::{Abft, AbftViolation};
pub use batch::{batched_gemm_nn, batched_gemm_nt, batched_gemv_n, batched_gemv_t, BatchedMats};
pub use blockdiag::BlockDiag;
pub use csr::{CsrBuilder, CsrMatrix};
pub use dense::DMatrix;
pub use eig::{sym_eig2, sym_eig3, SymEig};
pub use lu::LuFactors;
pub use pcg::{pcg_solve, pcg_solve_lockstep_ws, pcg_solve_on, pcg_solve_ws,
    pcg_solve_ws_reference, ConstrainedOp, DiagPrecond, HostSweeps, LinearOperator, PcgOptions,
    PcgResult, PcgWorkspace, Sweep, SweepLauncher};
pub use small::SmallMat;
pub use svd::{svd2, svd3, Svd};
pub use tile::{MicroTile, TileConfig};

/// Returns `true` when `a` and `b` agree to relative tolerance `tol`
/// (absolute near zero).
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

/// Maximum relative discrepancy between two equal-length slices.
///
/// Panics if the lengths differ; returns 0.0 for empty slices.
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "slice length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_near_zero_uses_absolute_scale() {
        assert!(approx_eq(1e-15, 0.0, 1e-12));
        assert!(!approx_eq(1e-3, 0.0, 1e-12));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1e12, 1e12 + 0.5, 1e-12));
        assert!(!approx_eq(1e12, 1.001e12, 1e-12));
    }

    #[test]
    fn max_rel_diff_reports_worst_entry() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.3];
        let d = max_rel_diff(&a, &b);
        assert!((d - 0.3 / 3.3).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn max_rel_diff_empty_is_zero() {
        assert_eq!(max_rel_diff(&[], &[]), 0.0);
    }
}
