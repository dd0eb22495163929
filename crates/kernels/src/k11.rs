//! Kernel 11 — CSR SpMV (`csrMv_ci_kernel`, the CUSPARSE routine's name).
//!
//! Applies the precomputed block-diagonal inverse `M_E^{-1}` once per time
//! step, and serves as the inner operator of the CUDA-PCG solver (kernel 9),
//! where it is "the biggest component" — which is why its share of total
//! GPU time *grows* from 30% to 65% when everything else gets optimized
//! (Fig. 6).

use blast_la::{BlockDiag, CsrMatrix};
use gpu_sim::{LaunchConfig, Traffic};

/// Kernel 11 / the SpMV inside kernel 9.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpmvKernel;

impl SpmvKernel {
    /// Kernel name as it appears in the paper's Fig. 6 breakdown.
    pub const NAME: &'static str = "csrMv_ci_kernel";

    /// Launch configuration: one warp-row hybrid, 128 threads per block.
    pub fn config(&self, rows: usize) -> LaunchConfig {
        LaunchConfig::new((rows as u32).div_ceil(128).max(1), 128, 0, 24)
    }

    /// Declared traffic: CSR SpMV is memory-bound — values + column
    /// indices stream from DRAM; the gathered `x` entries hit L2 about
    /// half the time for FEM-sparsity matrices.
    pub fn traffic(&self, a: &CsrMatrix) -> Traffic {
        Self::traffic_of(a.nnz(), a.rows())
    }

    /// [`Self::traffic`] of a block-diagonal matrix's CSR export (what the
    /// paper feeds CUSPARSE): every block entry is a stored non-zero.
    pub fn block_diag_traffic(&self, m: &BlockDiag) -> Traffic {
        Self::traffic_of(m.block_size() * m.block_size() * m.num_blocks(), m.dim())
    }

    fn traffic_of(nnz: usize, rows: usize) -> Traffic {
        let (nnz, rows) = (nnz as f64, rows as f64);
        Traffic {
            flops: 2.0 * nnz,
            dram_bytes: nnz * (8.0 + 4.0) + rows * (8.0 + 8.0) + nnz * 8.0 * 0.5,
            l2_bytes: nnz * 8.0 * 0.5,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{testing::on_device, Launch};
    use gpu_sim::{DeviceCatalog, GpuDevice};
    use blast_la::{CsrBuilder, DMatrix};


    fn tridiag(n: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn result_matches_host_spmv() {
        let blocks = (0..10)
            .map(|z| DMatrix::from_fn(5, 5, |i, j| ((z * 25 + i * 5 + j) as f64 * 0.7).cos()))
            .collect();
        let m = BlockDiag::from_blocks(blocks);
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y = vec![0.0; 50];
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let (cfg, traffic) = (SpmvKernel.config(m.dim()), SpmvKernel.block_diag_traffic(&m));
        let what = Launch::new(SpmvKernel::NAME, cfg, traffic);
        on_device(&dev, what, || m.apply(&x, &mut y));
        // The launch bills the CSR export and computes what it would.
        let a = m.to_csr();
        assert_eq!(y, a.spmv(&x));
        assert_eq!(dev.events()[0].traffic, SpmvKernel.traffic(&a));
    }

    #[test]
    fn spmv_is_memory_bound() {
        // Arithmetic intensity of CSR SpMV is far below the K20 ridge
        // point: the kernel must be bandwidth-limited, not compute-limited.
        let a = tridiag(100_000);
        let k = SpmvKernel;
        let t = k.traffic(&a);
        let ridge = 1170.0 / 208.0; // flops/byte where K20 turns compute-bound
        assert!(t.intensity() < ridge / 10.0, "intensity {}", t.intensity());
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let stats = dev.model_kernel(&k.config(a.rows()), &t);
        assert!(stats.dram_bw_gbs > 0.5 * 208.0, "bw {}", stats.dram_bw_gbs);
        assert!(stats.gflops < 50.0, "gflops {}", stats.gflops);
    }

    #[test]
    fn spmv_power_is_dram_dominated() {
        // §5.2: the CUDA-PCG component's power is high *while its kernels
        // run* because SpMV keeps the DRAM interface (the most
        // energy-hungry resource) saturated. The board should sit well
        // above the active floor but below a flop-saturated DGEMM.
        let a = tridiag(1_000_000);
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let k = SpmvKernel;
        let spmv_stats = dev.model_kernel(&k.config(a.rows()), &k.traffic(&a));
        let floor = dev.spec().active_floor_w;
        assert!(
            spmv_stats.power_w > floor + 50.0,
            "spmv {} W barely above the {} W floor",
            spmv_stats.power_w,
            floor
        );
        assert!(spmv_stats.power_w < 180.0, "spmv {} W", spmv_stats.power_w);
        // A launch-overhead-dominated kernel (tiny dot product) draws far
        // less — the duty-cycle contrast behind Fig. 15's CF-1MPI scenario.
        let tiny = gpu_sim::Traffic {
            flops: 2e4,
            dram_bytes: 1.6e5,
            ..Default::default()
        };
        let tiny_stats = dev.model_kernel(&LaunchConfig::new(40, 256, 0, 16), &tiny);
        assert!(tiny_stats.power_w < spmv_stats.power_w);
    }
}
