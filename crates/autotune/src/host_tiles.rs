//! Host tiled-GEMM calibration: what the production hot path sustains on
//! the corner-force shape.
//!
//! `tile::gemm` runs `TileConfig::DEFAULT` and nothing is installed per
//! process, so there is nothing to choose here — the candidate sweep over
//! `tile::CANDIDATES` lives in `bench::host_kernels`. This module keeps the
//! paper's Table-3 shape derivation and one measurement: the default
//! tile's single-thread GFLOP/s on that shape, which calibrates the cost
//! model's `CpuSpec` against the throughput the host actually delivers
//! (see `CpuSpec::calibrate_host_gflops` in `gpu-sim`).

use std::time::Instant;

use blast_la::tile::{self, Op};

/// Timing rounds; the best round is kept. On a noisy shared box the minimum
/// is the robust estimator — external steal time only ever *adds* to a
/// sample.
const ROUNDS: usize = 7;

/// Multiply-adds per timed sample: ~1 ms in release on the Table-3 shapes,
/// so dispatch and timer overhead vanish.
const TARGET_MULS: usize = 1 << 21;

/// The corner-force `F_z` GEMM shape `(m, n, k)` for one `(dim, order)`
/// pair: `m` velocity dofs per zone, `n` thermodynamic basis functions,
/// `k` quadrature points (kernel 7 computes `F_z = A_z * B^T` per zone,
/// an NT product on exactly this shape).
pub fn corner_force_shape(dim: usize, order: usize) -> (usize, usize, usize) {
    assert!((1..=3).contains(&dim), "dim must be 1..=3");
    assert!(order >= 1, "order must be >= 1");
    let p = |base: usize| base.pow(dim as u32);
    (dim * p(order + 1), p(order), p(2 * order))
}

/// Best-of-[`ROUNDS`] single-thread GFLOP/s of `tile::gemm` (the default
/// tile) on the corner-force shape of `(dim, order)`.
pub fn default_tile_gflops(dim: usize, order: usize) -> f64 {
    let (m, n, k) = corner_force_shape(dim, order);
    let reps = (TARGET_MULS / (m * n * k)).max(1);

    // Deterministic operand fill; values are irrelevant to timing but a
    // non-trivial pattern keeps any data-dependent path honest.
    let a: Vec<f64> = (0..m * k).map(|i| ((i * 37 + 11) % 101) as f64 * 1e-2 - 0.5).collect();
    // B is the n x k thermodynamic basis table (kernel 7 consumes it
    // transposed).
    let b: Vec<f64> = (0..n * k).map(|i| ((i * 53 + 7) % 97) as f64 * 1e-2 - 0.4).collect();
    let mut c = vec![0.0f64; m * n];

    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..reps {
            tile::gemm(m, n, k, 1.0, &a, Op::N, &b, Op::T, 0.0, &mut c);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (2 * m * n * k * reps) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_force_shape_matches_table3() {
        // Paper Table 3, 3D: Q2 zones have 81 velocity dofs, 8
        // thermodynamic basis functions, 64 quadrature points.
        assert_eq!(corner_force_shape(3, 2), (81, 8, 64));
        assert_eq!(corner_force_shape(2, 1), (8, 1, 4));
        assert_eq!(corner_force_shape(3, 4), (375, 64, 512));
    }

    #[test]
    #[should_panic(expected = "dim")]
    fn shape_rejects_bad_dim() {
        corner_force_shape(4, 2);
    }

    #[test]
    fn default_tile_rate_is_positive_and_finite() {
        let g = default_tile_gflops(2, 1);
        assert!(g.is_finite() && g > 0.0, "{g}");
    }
}
