//! Kernel 9 — the CUDA-PCG solver for the momentum system
//! `M_V (dv/dt) = -F·1`.
//!
//! "We implemented a custom CUDA-PCG solver from scratch. CUDA-PCG contains
//! a SpMV and a dot product routine only, where we call CUSPARSE SpMV and
//! cublasDdot." It is the same step-6 algorithm as the CPU solve run
//! somewhere else, so this module holds no iteration: [`GpuPcg`] hands
//! `blast_la::pcg_solve_on` the constrained operator the host leg uses and
//! a launcher that bills each sweep as one device launch from the table
//! below. The arithmetic is the host leg's, sweep for sweep — the mid-run
//! degrade-to-CPU path (chaos campaign) depends on that.
//!
//! The *launch-per-op* variant (`PcgOptions { fused: false, .. }`) is the
//! paper's baseline: per iteration one `csrMv_ci_kernel` launch plus seven
//! BLAS-1-style launches (two `cublasDdot` reductions, a `cublasDnrm2`,
//! two `cublasDaxpy` updates, the Jacobi apply and the direction update —
//! each a kernel on a real GPU). The *fused* variant (default) applies the
//! streaming-kernel treatment (Chalmers & Warburton, arXiv:2009.10917):
//! **three launches per iteration** — `fusedCsrMvDot_ci_kernel` (SpMV
//! producing `p·Ap` in the same sweep), `fusedAxpy2Nrm2_kernel` (both
//! axpys + `‖r‖²`), and `fusedPrecondUpdate_kernel` (Jacobi apply + `r·z` +
//! direction update, `z` never materialized). Per iteration that cuts the
//! modeled vector DRAM traffic from ~18n words to ~12n and the launch count
//! from 8 to 3, which flows straight into the §6 device time/energy model
//! and the power traces.

use blast_la::{
    pcg_solve_on, ConstrainedOp, CsrMatrix, DiagPrecond, PcgOptions, PcgResult, PcgWorkspace,
    Sweep, SweepLauncher,
};
use gpu_sim::{GpuDevice, GpuError, LaunchConfig, Traffic};

use crate::k11::SpmvKernel;

/// Fused SpMV + dot launch name (Fig. 6 breakdown label).
pub const FUSED_SPMV_DOT: &str = "fusedCsrMvDot_ci_kernel";
/// Fused pair-update + norm launch name.
const FUSED_AXPY2_NRM2: &str = "fusedAxpy2Nrm2_kernel";
/// Fused precondition + dot + direction-update launch name.
const FUSED_PRECOND_UPDATE: &str = "fusedPrecondUpdate_kernel";

// The launch-per-op names: CUBLAS's, and the two custom BLAS-1 kernels.
const NRM2: &str = "cublasDnrm2";
const DOT: &str = "cublasDdot";
const AXPY: &str = "cublasDaxpy";
const JACOBI: &str = "jacobiApply_kernel";
const UPDATE_DIR: &str = "updateDir_kernel";

/// Every launch name kernel 9 can put in the device ledger, either variant
/// (Fig. 15 averages the solver's power over exactly this set).
pub const LAUNCH_NAMES: [&str; 9] = [
    SpmvKernel::NAME,
    NRM2,
    DOT,
    AXPY,
    JACOBI,
    UPDATE_DIR,
    FUSED_SPMV_DOT,
    FUSED_AXPY2_NRM2,
    FUSED_PRECOND_UPDATE,
];

/// The launch table: what one sweep over an `a.rows()`-vector costs on the
/// device — `(name, configuration, traffic)`.
fn launch_of(which: Sweep, a: &CsrMatrix) -> (&'static str, LaunchConfig, Traffic) {
    let rows = a.rows();
    let n = rows as f64;
    let spmv = SpmvKernel;
    // Vector sweeps: one thread per entry, 256 per block; a reduction
    // stages one `f64` per thread through shared memory.
    let vector = |shared, regs| LaunchConfig::new((rows as u32).div_ceil(256).max(1), 256, shared, regs);
    match which {
        // The streaming SpMV under the CUSPARSE name.
        Sweep::Apply => (SpmvKernel::NAME, spmv.config(rows), spmv.traffic(a)),
        // The scaled overflow-safe norm.
        Sweep::Nrm2 => (
            NRM2,
            vector(256 * 8, 16),
            Traffic { flops: 2.0 * n, dram_bytes: n * 8.0, shared_bytes: n * 8.0, ..Default::default() },
        ),
        Sweep::Dot => (
            DOT,
            vector(256 * 8, 16),
            Traffic {
                flops: 2.0 * n,
                dram_bytes: 2.0 * n * 8.0,
                shared_bytes: n * 8.0,
                ..Default::default()
            },
        ),
        Sweep::Axpy => (
            AXPY,
            vector(0, 12),
            Traffic { flops: 2.0 * n, dram_bytes: 3.0 * n * 8.0, ..Default::default() },
        ),
        Sweep::Precond => (
            JACOBI,
            vector(0, 10),
            Traffic { flops: n, dram_bytes: 3.0 * n * 8.0, ..Default::default() },
        ),
        Sweep::UpdateDirection => (
            UPDATE_DIR,
            vector(0, 12),
            Traffic { flops: 2.0 * n, dram_bytes: 3.0 * n * 8.0, ..Default::default() },
        ),
        // The SpMV's full traffic plus the reduction's flops; the dot
        // re-reads `p` and the freshly written `Ap` rows from L2 (they are
        // block-local and cache-hot), not DRAM.
        Sweep::ApplyDot => {
            let mut cfg = spmv.config(rows);
            cfg.shared_bytes = 256 * 8;
            let traffic = spmv.traffic(a).add(&Traffic {
                flops: 2.0 * n,
                l2_bytes: 2.0 * n * 8.0,
                shared_bytes: n * 8.0,
                ..Default::default()
            });
            (FUSED_SPMV_DOT, cfg, traffic)
        }
        // Reads p, Ap, x, r; writes x, r (6n words vs the baseline's 8n
        // across three launches).
        Sweep::Axpy2Nrm2 => (
            FUSED_AXPY2_NRM2,
            vector(256 * 8, 24),
            Traffic {
                flops: 6.0 * n,
                dram_bytes: 6.0 * n * 8.0,
                shared_bytes: n * 8.0,
                ..Default::default()
            },
        ),
        // Reads minv, r, p; writes p; `z` is recomputed in registers (5n
        // words vs the baseline's 8n across three launches).
        Sweep::PrecondDotUpdate => (
            FUSED_PRECOND_UPDATE,
            vector(256 * 8, 20),
            Traffic {
                flops: 5.0 * n,
                dram_bytes: 5.0 * n * 8.0,
                l2_bytes: 2.0 * n * 8.0,
                shared_bytes: n * 8.0,
                ..Default::default()
            },
        ),
    }
}

/// The device backend of the PCG iteration: each sweep is one launch.
struct DeviceSweeps<'a> {
    dev: &'a GpuDevice,
    a: &'a CsrMatrix,
}

impl SweepLauncher for DeviceSweeps<'_> {
    type Error = GpuError;
    fn sweep<R>(&mut self, which: Sweep, body: impl FnOnce() -> R) -> Result<R, GpuError> {
        let (name, cfg, traffic) = launch_of(which, self.a);
        self.dev.launch(name, &cfg, &traffic, body).map(|(out, _)| out)
    }
}

/// Kernel 9: CUDA-PCG over the simulated device.
#[derive(Clone, Debug, Default)]
pub struct GpuPcg {
    /// Stopping options and loop variant (defaults match the CPU PCG):
    /// `opts.fused` selects the fused streaming kernels (3
    /// launches/iteration) or the launch-per-op baseline (8).
    pub opts: PcgOptions,
}

impl GpuPcg {
    /// Solves the constrained system `(P A P + (I − P)) x = b` with a
    /// diagonal preconditioner, `P` zeroing the entries `constrained`
    /// marks `true` (reflecting-wall DOFs): with `b` and the initial guess
    /// in `x` zero there, as the solver passes them, those entries are held
    /// at zero.
    pub fn solve(
        &self,
        dev: &GpuDevice,
        a: &CsrMatrix,
        precond: &DiagPrecond,
        b: &[f64],
        constrained: &[bool],
        x: &mut [f64],
    ) -> Result<PcgResult, GpuError> {
        self.solve_ws(dev, a, precond, b, constrained, x, &mut PcgWorkspace::new())
    }

    /// [`GpuPcg::solve`] with the iteration vectors drawn from a reusable
    /// workspace (the device counterpart of `blast_la::pcg_solve_ws`):
    /// every vector is stored in full before its first read, so the
    /// workspace's previous contents never matter. On an error `x` holds a
    /// partial iterate.
    pub fn solve_ws(
        &self,
        dev: &GpuDevice,
        a: &CsrMatrix,
        precond: &DiagPrecond,
        b: &[f64],
        constrained: &[bool],
        x: &mut [f64],
        ws: &mut PcgWorkspace,
    ) -> Result<PcgResult, GpuError> {
        ws.with_operator_scratch(a.rows(), |tmp, ws| {
            let mut op = ConstrainedOp { a, masks: &[constrained], tmp };
            pcg_solve_on(&mut DeviceSweeps { dev, a }, &mut op, precond, b, x, &self.opts, ws)
                .map(|[res]| res)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceCatalog;
    use blast_la::CsrBuilder;

    fn laplacian(n: usize) -> CsrMatrix {
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
    fn gpu_pcg_matches_cpu_pcg_bitwise() {
        // The degrade-to-CPU resilience path (chaos campaign) requires the
        // device solve and `pcg_solve_ws` to produce the *same bits*, for
        // either variant — also where the mask bites and the warm start is
        // not zero on the constrained entries.
        let n = 64;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.17).sin()).collect();
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let mask: Vec<bool> = (0..n).map(|i| i % 5 == 0 || i == n - 1).collect();
        let warm: Vec<f64> = (0..n).map(|i| 0.3 - (i as f64 * 0.4).cos()).collect();

        for fused in [true, false] {
            let opts = PcgOptions { fused, ..Default::default() };
            let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
            let mut x_gpu = warm.clone();
            let res = GpuPcg { opts }
                .solve(&dev, &a, &pre, &b, &mask, &mut x_gpu)
                .expect("no faults injected");
            assert!(res.converged, "residual {}", res.residual);

            let mut x_cpu = warm.clone();
            let mut op = ConstrainedOp { a: &a, masks: &[&mask], tmp: &mut vec![0.0; n] };
            let res_cpu = blast_la::pcg_solve(&mut op, &pre, &b, &mut x_cpu, &opts);
            assert_eq!(res.iterations, res_cpu.iterations, "fused={fused}");
            assert_eq!(res.residual.to_bits(), res_cpu.residual.to_bits(), "fused={fused}");
            assert_eq!(x_gpu, x_cpu, "fused={fused}");
        }
    }

    #[test]
    fn launch_names_are_the_table() {
        use Sweep::*;
        let a = laplacian(8);
        let sweeps = [
            Apply, Nrm2, Dot, Axpy, Precond, UpdateDirection, ApplyDot, Axpy2Nrm2, PrecondDotUpdate,
        ];
        assert_eq!(sweeps.map(|s| launch_of(s, &a).0), LAUNCH_NAMES);
    }

    #[test]
    fn fused_matches_unfused_bitwise_with_fewer_launches() {
        let n = 600;
        let a = banded(n, 6);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let mut constrained = vec![false; n];
        constrained[0] = true;
        constrained[n / 2] = true;

        let dev_f = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut x_f = vec![0.0; n];
        let res_f = GpuPcg::default()
            .solve(&dev_f, &a, &pre, &b, &constrained, &mut x_f)
            .expect("no faults injected");

        let dev_u = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut x_u = vec![0.0; n];
        let res_u = GpuPcg { opts: PcgOptions { fused: false, ..Default::default() } }
            .solve(&dev_u, &a, &pre, &b, &constrained, &mut x_u)
            .expect("no faults injected");

        // Same stream kernels host-side: bit-identical trajectories.
        assert!(res_f.converged && res_u.converged);
        assert_eq!(res_f.iterations, res_u.iterations);
        assert_eq!(x_f, x_u);

        // Launch-count greenup: 3 + setup launches/iter vs 8 + setup.
        let launches = |dev: &GpuDevice| -> usize {
            dev.kernel_summary().iter().map(|&(_, _, c)| c).sum()
        };
        let iters = res_f.iterations;
        assert!(
            launches(&dev_f) <= 3 * iters + 5,
            "fused launches {} for {} iterations",
            launches(&dev_f),
            iters
        );
        assert!(launches(&dev_u) >= 8 * iters, "unfused launches {}", launches(&dev_u));

        // Modeled device-time and energy greenup from fewer launches and
        // fewer DRAM transits.
        assert!(
            dev_f.now() < dev_u.now(),
            "fused device time {} must beat unfused {}",
            dev_f.now(),
            dev_u.now()
        );
        assert!(dev_f.energy_joules() < dev_u.energy_joules());
    }

    #[test]
    fn constrained_entries_stay_zero() {
        let n = 32;
        let a = laplacian(n);
        let mut b = vec![1.0; n];
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let mut constrained = vec![false; n];
        constrained[0] = true;
        constrained[n - 1] = true;
        // The caller projects the right-hand side, as the solver does.
        b[0] = 0.0;
        b[n - 1] = 0.0;
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut x = vec![0.0; n];
        let res = GpuPcg::default().solve(&dev, &a, &pre, &b, &constrained, &mut x).expect("no faults injected");
        assert!(res.converged);
        assert_eq!(x[0], 0.0);
        assert_eq!(x[n - 1], 0.0);
        // The interior entries satisfy the constrained system: check the
        // residual on unconstrained rows.
        let ax = a.spmv(&x);
        for i in 1..n - 1 {
            assert!((ax[i] - b[i]).abs() < 1e-8, "row {i}");
        }
    }

    /// Banded SPD matrix with FEM-like row density (high-order H1 mass
    /// matrices couple ~(2k+1)^dim neighbours per row).
    fn banded(n: usize, half_band: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0 * half_band as f64);
            for o in 1..=half_band {
                if i >= o {
                    b.add(i, i - o, -0.5);
                }
                if i + o < n {
                    b.add(i, i + o, -0.5);
                }
            }
        }
        b.build()
    }

    #[test]
    fn spmv_dominates_pcg_device_time() {
        // Fig. 6's message: within the solve, the SpMV (now fused with its
        // dot) is the biggest component. This needs FEM-like sparsity
        // (dozens of nonzeros per row), not a tridiagonal toy.
        let n = 20_000;
        let a = banded(n, 40);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).cos()).collect();
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let none = vec![false; n];
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut x = vec![0.0; n];
        GpuPcg::default().solve(&dev, &a, &pre, &b, &none, &mut x).expect("no faults injected");
        let summary = dev.kernel_summary();
        assert_eq!(summary[0].0, FUSED_SPMV_DOT, "summary: {summary:?}");
        let total: f64 = summary.iter().map(|(_, t, _)| t).sum();
        assert!(summary[0].1 / total > 0.4, "spmv share {}", summary[0].1 / total);
    }

    #[test]
    fn iteration_count_reported() {
        let n = 128;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let none = vec![false; n];
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut x = vec![0.0; n];
        let res = GpuPcg::default().solve(&dev, &a, &pre, &b, &none, &mut x).expect("no faults injected");
        assert!(res.converged);
        assert!(res.iterations > 1 && res.iterations <= n);
        // One fused SpMV+dot launch per iteration; the initial residual is
        // a plain SpMV launch.
        let calls = |name: &str| -> usize {
            dev.kernel_summary()
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0, |&(_, _, c)| c)
        };
        assert_eq!(calls(FUSED_SPMV_DOT), res.iterations);
        assert_eq!(calls(SpmvKernel::NAME), 1);
    }
}
