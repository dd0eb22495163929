//! Kernels 5 and 6 — `kernel_NN_dgemmBatched` / `kernel_NT_dgemmBatched`:
//! auxiliary batched DGEMM where **all matrices are `DIM x DIM`**.
//!
//! "These kernels multiply Jacobian matrices `J_z`, gradients of basis
//! functions and stress tensor values together." In the corner-force
//! pipeline, the NN form builds the spatial velocity gradient
//! `∇v = ∇̂v̂ · adj(J)/|J|` and the NT form builds `S = σ̂ · adj(J)^T`
//! (since `|J| J^{-T} = adj(J)^T`).
//!
//! Optimization: "each thread block performed multiple matrix operations.
//! This avoided an unaligned memory access problem in the case of one
//! thread block reading one matrix size of 4 or 9" — the matrices-per-block
//! count is the autotuned parameter (98.3% occupancy at N = 32), and small
//! N pays an uncoalesced-access replay on its DRAM traffic.

use blast_la::BatchedMats;
use gpu_sim::{LaunchConfig, Traffic};
use rayon::prelude::*;

use crate::shapes::ProblemShape;

/// Transpose mode of the second operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// `C_i = A_i B_i` (kernel 5).
    NN,
    /// `C_i = A_i B_i^T` (kernel 6).
    NT,
}

/// Kernels 5/6: `DIM x DIM` batched DGEMM with optional per-element scale
/// (`C_i = s_i * A_i op(B_i)` — the `1/|J|` factor rides along for free).
#[derive(Clone, Copy, Debug)]
pub struct BatchedDimGemm {
    /// NN (kernel 5) or NT (kernel 6).
    pub transpose: Transpose,
    /// Matrices processed per thread block (autotuned; paper found 32).
    pub mats_per_block: u32,
}

impl BatchedDimGemm {
    /// Kernel 5 (NN) with the paper's tuned batch factor.
    pub fn nn_tuned() -> Self {
        Self { transpose: Transpose::NN, mats_per_block: 32 }
    }

    /// Kernel 6 (NT) with the paper's tuned batch factor.
    pub fn nt_tuned() -> Self {
        Self { transpose: Transpose::NT, mats_per_block: 32 }
    }

    /// Table 2 kernel name.
    pub fn name(&self) -> &'static str {
        match self.transpose {
            Transpose::NN => "kernel_NN_dgemmBatched",
            Transpose::NT => "kernel_NT_dgemmBatched",
        }
    }

    /// Uncoalesced-access replay factor: one `DIM x DIM` matrix per block
    /// loads 32-128 B out of each 128 B transaction; packing N >= 8
    /// matrices restores full-width coalesced loads.
    fn replay(&self) -> f64 {
        let n = self.mats_per_block.max(1) as f64;
        if n >= 8.0 {
            1.0
        } else {
            1.0 + 3.0 * (8.0 - n) / 7.0
        }
    }

    /// Launch configuration for a batch of `count` matrices of size `dim`.
    pub fn config(&self, dim: usize, count: usize) -> LaunchConfig {
        let n = self.mats_per_block.max(1);
        let grid = (count as u32).div_ceil(n);
        // Reading/writing: threads organized 1D over the packed data;
        // multiplication: 2D `dim x dim` per matrix.
        let threads = (n * (dim * dim) as u32).clamp(32, 1024);
        let shared = n * (3 * dim * dim * 8) as u32;
        LaunchConfig::new(grid, threads, shared, 28)
    }

    /// Declared traffic for a batch of `count` matrices of size `dim`.
    pub fn traffic(&self, dim: usize, count: usize) -> Traffic {
        let d = dim as f64;
        let n = count as f64;
        let flops = n * 2.0 * d * d * d;
        let useful = n * 3.0 * d * d * 8.0;
        Traffic {
            flops,
            dram_bytes: useful * self.replay(),
            shared_bytes: useful,
            ..Default::default()
        }
    }

    /// Pure computation: `C_i = s_i * A_i op(B_i)`; `scale` may be `None`
    /// (all ones) or one factor per matrix.
    pub fn compute(
        &self,
        a: &BatchedMats,
        b: &BatchedMats,
        scale: Option<&[f64]>,
        c: &mut BatchedMats,
    ) {
        let (d, d2) = a.shape();
        assert_eq!(d, d2, "kernels 5/6 take square DIM x DIM matrices");
        assert_eq!(b.shape(), (d, d));
        assert_eq!(c.shape(), (d, d));
        assert!(a.count() == b.count() && b.count() == c.count(), "batch count mismatch");
        if let Some(s) = scale {
            assert_eq!(s.len(), a.count());
        }
        let transpose = self.transpose;
        let sa = a.stride();
        c.par_mats_mut().for_each(|(i, ci)| {
            let ai = &a.as_slice()[i * sa..(i + 1) * sa];
            let bi = &b.as_slice()[i * sa..(i + 1) * sa];
            let s = scale.map_or(1.0, |s| s[i]);
            for col in 0..d {
                for row in 0..d {
                    let mut acc = 0.0;
                    for p in 0..d {
                        let bval = match transpose {
                            Transpose::NN => bi[p + col * d],
                            Transpose::NT => bi[col + p * d],
                        };
                        acc += ai[row + p * d] * bval;
                    }
                    ci[row + col * d] = s * acc;
                }
            }
        });
    }

    /// Convenience: shape-level traffic for the corner-force pipeline
    /// (one product per quadrature point).
    pub fn traffic_for(&self, shape: &ProblemShape) -> Traffic {
        self.traffic(shape.dim, shape.total_points())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceCatalog, GpuDevice};
    use blast_la::batched_gemm_nn;
    

    fn batch(d: usize, n: usize, seed: f64) -> BatchedMats {
        BatchedMats::from_fn(d, d, n, |z, i, j| ((z * 7 + i * 3 + j) as f64 * seed).sin())
    }

    #[test]
    fn nn_matches_blast_la_reference() {
        let a = batch(3, 20, 0.37);
        let b = batch(3, 20, 0.81);
        let mut c = BatchedMats::zeros(3, 3, 20);
        BatchedDimGemm::nn_tuned().compute(&a, &b, None, &mut c);
        let mut expect = BatchedMats::zeros(3, 3, 20);
        batched_gemm_nn(1.0, &a, &b, 0.0, &mut expect);
        for (x, y) in c.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-13);
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = batch(2, 15, 0.41);
        let b = batch(2, 15, 0.67);
        let bt = BatchedMats::from_fn(2, 2, 15, |z, i, j| b.get(z, j, i));
        let mut c_nt = BatchedMats::zeros(2, 2, 15);
        let mut c_nn = BatchedMats::zeros(2, 2, 15);
        BatchedDimGemm::nt_tuned().compute(&a, &b, None, &mut c_nt);
        BatchedDimGemm::nn_tuned().compute(&a, &bt, None, &mut c_nn);
        assert_eq!(c_nt, c_nn);
    }

    #[test]
    fn per_element_scale_applied() {
        let a = batch(2, 4, 0.3);
        let b = batch(2, 4, 0.6);
        let scale = [1.0, 2.0, -0.5, 0.0];
        let mut c1 = BatchedMats::zeros(2, 2, 4);
        let mut c2 = BatchedMats::zeros(2, 2, 4);
        let k = BatchedDimGemm::nn_tuned();
        k.compute(&a, &b, None, &mut c1);
        k.compute(&a, &b, Some(&scale), &mut c2);
        for z in 0..4 {
            for e in 0..4 {
                assert!((c2.mat(z)[e] - scale[z] * c1.mat(z)[e]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn small_batch_factor_pays_replay() {
        let k1 = BatchedDimGemm { transpose: Transpose::NN, mats_per_block: 1 };
        let k32 = BatchedDimGemm { transpose: Transpose::NN, mats_per_block: 32 };
        let t1 = k1.traffic(3, 100_000);
        let t32 = k32.traffic(3, 100_000);
        assert!(t1.dram_bytes > 3.0 * t32.dram_bytes);
        assert_eq!(t1.flops, t32.flops);
    }

    #[test]
    fn tuned_kernel_reaches_bandwidth_bound_fraction() {
        // Fig. 5: the tuned kernel reaches ~60% of the theoretical
        // (bandwidth-bound) peak of batched DIM x DIM DGEMM on K20.
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let k = BatchedDimGemm::nn_tuned();
        let count = 4096 * 64; // Q2-Q1 3D: zones * points
        let stats = dev.model_kernel(&k.config(3, count), &k.traffic(3, count));
        let theoretical = dev.spec().bandwidth_bound_gflops(2.0 * 3.0 / (3.0 * 8.0));
        let frac = stats.gflops / theoretical;
        assert!(frac > 0.45 && frac <= 1.0, "fraction {frac} ({} GF/s)", stats.gflops);
    }

    #[test]
    fn occupancy_at_tuned_config_is_high() {
        // "We find 32 delivered the best performance with an occupancy
        // 98.3%."
        let k = BatchedDimGemm::nn_tuned();
        let occ = gpu_sim::occupancy(&DeviceCatalog::gpu("k20"), &k.config(3, 100_000));
        assert!(occ.fraction > 0.85, "occupancy {}", occ.fraction);
    }

    #[test]
    fn scale_vector_length_checked() {
        let a = batch(2, 4, 0.3);
        let b = batch(2, 4, 0.6);
        let mut c = BatchedMats::zeros(2, 2, 4);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BatchedDimGemm::nn_tuned().compute(&a, &b, Some(&[1.0, 2.0]), &mut c);
        }));
        assert!(res.is_err());
    }
}
