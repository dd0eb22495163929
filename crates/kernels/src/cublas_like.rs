//! Vendor-library baselines: `cublasDgemmBatched` and streamed
//! `cublasDgemv`, with the performance pathologies the paper measured.
//!
//! - `cublasDgemmBatched` on `DIM x DIM` matrices "has exactly the same
//!   purpose [as kernels 5/6] but only achieves 1.3 Gflop/s": the library
//!   kernel dereferences a pointer array per matrix and issues one thread
//!   block per tiny matrix, so nearly every 8-byte element rides its own
//!   128-byte memory transaction.
//! - CUBLAS has no batched DGEMV; the User-Guide workaround — one
//!   `cublasDgemv` per zone in its own stream — pays a full kernel-launch
//!   latency per 81x8 matrix and lands at 0.2 GFLOP/s against the custom
//!   kernel 8's 18 GFLOP/s (Table 4).

use blast_la::BatchedMats;
use gpu_sim::{LaunchConfig, Traffic};

use crate::k56::{BatchedDimGemm, Transpose};
use crate::launch::{KernelLauncher, Launch};
use crate::shapes::ProblemShape;

/// Effective DRAM replay factor of the library's pointer-chased,
/// one-matrix-per-block access pattern on `DIM x DIM` operands: scattered
/// 8-byte loads each occupy a 128-byte transaction, doubled by the
/// pointer-array indirection.
pub const CUBLAS_BATCHED_REPLAY: f64 = 32.0;

/// `cublasDgemmBatched`-style baseline for `DIM x DIM` batches.
#[derive(Clone, Copy, Debug, Default)]
pub struct CublasDgemmBatched;

impl CublasDgemmBatched {
    /// Event name on the device timeline.
    pub const NAME: &'static str = "cublasDgemmBatched";

    /// Library launch shape: one block per matrix, `DIM^2` working threads
    /// padded to a warp.
    pub fn config(&self, dim: usize, count: usize) -> LaunchConfig {
        LaunchConfig::new(count as u32, (dim * dim).max(32) as u32, 0, 40)
    }

    /// Declared traffic with the replay pathology.
    pub fn traffic(&self, dim: usize, count: usize) -> Traffic {
        let d = dim as f64;
        let n = count as f64;
        Traffic {
            flops: n * 2.0 * d * d * d,
            dram_bytes: n * 3.0 * d * d * 8.0 * CUBLAS_BATCHED_REPLAY
                + n * 3.0 * 8.0, // the pointer array itself
            ..Default::default()
        }
    }

    /// Pure computation: the batched product, one matrix per block (same
    /// math as kernels 5/6).
    pub fn compute(transpose: Transpose, a: &BatchedMats, b: &BatchedMats, c: &mut BatchedMats) {
        BatchedDimGemm { transpose, mats_per_block: 1 }.compute(a, b, None, c);
    }
}

/// Streamed-`cublasDgemv` baseline: one library call per zone.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamedDgemv;

impl StreamedDgemv {
    /// Event name on the device timeline.
    pub const NAME: &'static str = "cublasDgemv(streamed)";

    /// Per-call launch configuration (the library picks a generic shape).
    pub fn config_single(&self, shape: &ProblemShape) -> LaunchConfig {
        LaunchConfig::new(1, (shape.nvdof() as u32).clamp(64, 256), 0, 20)
    }

    /// Per-call traffic: one `nvdof x nthermo` matrix plus vectors.
    pub fn traffic_single(&self, shape: &ProblemShape) -> Traffic {
        let m = shape.nvdof() as f64;
        let n = shape.nthermo as f64;
        Traffic {
            flops: 2.0 * m * n,
            dram_bytes: (m * n + m + n) * 8.0,
            ..Default::default()
        }
    }

    /// Computes the whole batched row-sum (`y_z = F_z · 1`) through
    /// zone-by-zone library calls, each its own launch on `on`.
    pub fn rowsums_on<L: KernelLauncher>(
        &self,
        on: &mut L,
        shape: &ProblemShape,
        fz: &BatchedMats,
        y: &mut [f64],
    ) -> Result<(), L::Error> {
        let nvdof = shape.nvdof();
        assert_eq!(fz.shape(), (nvdof, shape.nthermo));
        assert_eq!(fz.count(), shape.zones);
        assert_eq!(y.len(), shape.zones * nvdof);
        let call = Launch::new(Self::NAME, self.config_single(shape), self.traffic_single(shape));
        for (z, yz) in y.chunks_exact_mut(nvdof).enumerate() {
            on.launch(
                || call,
                || {
                    yz.fill(0.0);
                    for col in fz.mat(z).chunks_exact(nvdof) {
                        yz.iter_mut().zip(col).for_each(|(o, &v)| *o += v);
                    }
                },
            )?;
        }
        Ok(())
    }
}

/// `cublasDgemmBatched`-style baseline for the *large* per-zone product of
/// kernel 7 (`F_z = A_z B^T`) — the "alternative implementation ... is to
/// call cublasDgemmbatched" curve in Fig. 7. Better than one-block-per-tiny-
/// matrix (operands are big enough to coalesce) but blind to the fact that
/// `B` is shared by all zones, so it re-streams `B` per zone and skips the
/// constant-memory trick.
#[derive(Clone, Copy, Debug, Default)]
pub struct CublasDgemmBatchedLarge;

impl CublasDgemmBatchedLarge {
    /// Event name on the device timeline.
    pub const NAME: &'static str = "cublasDgemmBatched(large)";

    /// Launch configuration.
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        LaunchConfig::new(shape.zones as u32, 256, 16 * 1024, 48)
    }

    /// Declared traffic: generic square tiling re-touches `A_z` once per
    /// output tile row, and `B` streams from DRAM per zone (the library
    /// cannot know it is shared across the batch).
    pub fn traffic(&self, shape: &ProblemShape) -> Traffic {
        let z = shape.zones as f64;
        let nvdof = shape.nvdof() as f64;
        let npts = shape.npts as f64;
        let nth = shape.nthermo as f64;
        Traffic {
            flops: z * 2.0 * nvdof * npts * nth,
            dram_bytes: z * (1.5 * nvdof * npts + nth * npts + nvdof * nth) * 8.0,
            l2_bytes: z * nth * npts * 8.0,
            shared_bytes: z * nvdof * npts * 8.0,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::k8_10::MomentumRhsKernel;
    use crate::launch::testing::on_device;
    use gpu_sim::{DeviceCatalog, GpuDevice, GpuSpec};

    #[test]
    fn batched_dgemm_lands_near_paper_1_3_gflops() {
        // §3.2: "cublasDgemmbatched has exactly the same purpose but only
        // achieves 1.3 Gflop/s" (K20, DIM x DIM batches).
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let lib = CublasDgemmBatched;
        let count = 4096 * 64;
        let stats = dev.model_kernel(&lib.config(3, count), &lib.traffic(3, count));
        assert!(
            stats.gflops > 0.4 && stats.gflops < 4.0,
            "cublas batched at {} GFLOP/s",
            stats.gflops
        );
    }

    #[test]
    fn custom_kernel56_beats_cublas_by_an_order_of_magnitude() {
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let count = 4096 * 64;
        let custom = BatchedDimGemm::nn_tuned();
        let t_custom = dev
            .model_kernel(&custom.config(3, count), &custom.traffic(3, count))
            .time_s;
        let lib = CublasDgemmBatched;
        let t_lib = dev.model_kernel(&lib.config(3, count), &lib.traffic(3, count)).time_s;
        assert!(t_lib / t_custom > 10.0, "speedup only {}", t_lib / t_custom);
    }

    #[test]
    fn cublas_math_matches_custom() {
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let a = BatchedMats::from_fn(3, 3, 16, |z, i, j| ((z + i + 2 * j) as f64 * 0.3).sin());
        let b = BatchedMats::from_fn(3, 3, 16, |z, i, j| ((z * 2 + i + j) as f64 * 0.7).cos());
        let mut c_lib = BatchedMats::zeros(3, 3, 16);
        let mut c_custom = BatchedMats::zeros(3, 3, 16);
        let lib = CublasDgemmBatched;
        let what = Launch::new(CublasDgemmBatched::NAME, lib.config(3, 16), lib.traffic(3, 16));
        on_device(&dev, what, || CublasDgemmBatched::compute(Transpose::NN, &a, &b, &mut c_lib));
        BatchedDimGemm::nn_tuned().compute(&a, &b, None, &mut c_custom);
        assert_eq!(c_lib, c_custom);
    }

    #[test]
    fn table4_streamed_dgemv_vs_kernel8() {
        // Table 4 on C2050: 4096 batches of 81x8. Streamed cublasDgemv:
        // ~0.2 GFLOP/s; custom kernel 8: ~18 GFLOP/s (90x).
        let shape = ProblemShape::new(3, 2, 4096);
        let dev = GpuDevice::new(GpuSpec::c2050());

        let streamed = StreamedDgemv;
        let per_call =
            dev.model_kernel(&streamed.config_single(&shape), &streamed.traffic_single(&shape));
        let t_lib = per_call.time_s * shape.zones as f64;
        let flops = 2.0 * 81.0 * 8.0 * 4096.0;
        let gflops_lib = flops / t_lib / 1e9;
        assert!(gflops_lib > 0.05 && gflops_lib < 0.6, "streamed at {gflops_lib} GFLOP/s");

        let k8 = MomentumRhsKernel;
        let stats = dev.model_kernel(&k8.config(&shape), &k8.traffic(&shape));
        assert!(stats.gflops > 10.0, "kernel 8 at {}", stats.gflops);

        let speedup = t_lib / stats.time_s;
        assert!(speedup > 30.0, "custom vs streamed speedup {speedup}");
    }

    #[test]
    fn streamed_dgemv_really_runs_per_zone() {
        let shape = ProblemShape::new(2, 1, 5);
        let dev = GpuDevice::new(GpuSpec::c2050());
        let fz = BatchedMats::from_fn(shape.nvdof(), shape.nthermo, 5, |z, i, j| {
            (z + i + j) as f64
        });
        let mut y = vec![0.0; 5 * shape.nvdof()];
        StreamedDgemv.rowsums_on(&mut &dev, &shape, &fz, &mut y).expect("no faults injected");
        assert!(dev.now() > 0.0);
        assert_eq!(dev.events().len(), 5);
        // Row sums correct.
        for z in 0..5 {
            for i in 0..shape.nvdof() {
                let expect: f64 = (0..shape.nthermo).map(|j| fz.get(z, i, j)).sum();
                assert_eq!(y[z * shape.nvdof() + i], expect);
            }
        }
    }

    #[test]
    fn kernel7_beats_large_cublas_batched() {
        // Fig. 7: the tuned kernel 7 outperforms cublasDgemmBatched on the
        // per-zone F_z product.
        let shape = ProblemShape::new(3, 2, 4096);
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let lib = CublasDgemmBatchedLarge;
        let t_lib = dev.model_kernel(&lib.config(&shape), &lib.traffic(&shape)).time_s;
        let k7 = crate::k7::FzKernel::tuned();
        let t_k7 = dev.model_kernel(&k7.config(&shape), &k7.traffic(&shape)).time_s;
        assert!(t_k7 < t_lib, "k7 {t_k7} !< cublas {t_lib}");
    }
}
