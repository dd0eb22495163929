//! Kernel 9 — the CUDA-PCG solver for the momentum system
//! `M_V (dv/dt) = -F·1`.
//!
//! "We implemented a custom CUDA-PCG solver from scratch. CUDA-PCG contains
//! a SpMV and a dot product routine only, where we call CUSPARSE SpMV and
//! cublasDdot." The *unfused* path models that baseline faithfully: per
//! iteration one `csrMv_ci_kernel` launch plus seven BLAS-1-style launches
//! (two `cublasDdot` reductions, a `cublasDnrm2`, two `cublasDaxpy`
//! updates, the Jacobi apply and the direction update — each a kernel on a
//! real GPU).
//!
//! The *fused* path (default) applies the streaming-kernel treatment
//! (Chalmers & Warburton, arXiv:2009.10917): **three launches per
//! iteration** — `fusedCsrMvDot_ci_kernel` (SpMV producing `p·Ap` in the
//! same sweep), `fusedAxpy2Nrm2_kernel` (both axpys + `‖r‖²`), and
//! `fusedPrecondUpdate_kernel` (Jacobi apply + `r·z` + direction update,
//! `z` never materialized). Per iteration that cuts the modeled vector DRAM
//! traffic from ~18n words to ~12n and the launch count from 8 to 3, which
//! flows straight into the §6 device time/energy model and the power
//! traces. Both paths run the same `blast_la::stream` kernels host-side,
//! **in the same order as the CPU solver's `pcg_solve_ws`**, so all three
//! trajectories are bitwise identical — the mid-run degrade-to-CPU path
//! (chaos campaign) depends on this op-for-op mirroring.
//!
//! Boundary conditions: reflecting walls constrain individual velocity
//! components; the solve works in the constrained subspace by projecting
//! the operator (`P A P` with `P` the constraint projector) so the system
//! stays SPD.

use blast_la::{stream, CsrMatrix, DiagPrecond, PcgOptions, PcgResult, PcgWorkspace};
use gpu_sim::{GpuDevice, GpuError, KernelStats, LaunchConfig, Traffic};

use crate::k11::SpmvKernel;

/// Fused SpMV + dot launch name (Fig. 6 breakdown label).
pub const FUSED_SPMV_DOT: &str = "fusedCsrMvDot_ci_kernel";
/// Fused pair-update + norm launch name.
pub const FUSED_AXPY2_NRM2: &str = "fusedAxpy2Nrm2_kernel";
/// Fused precondition + dot + direction-update launch name.
pub const FUSED_PRECOND_UPDATE: &str = "fusedPrecondUpdate_kernel";

/// Kernel 9: CUDA-PCG over the simulated device.
#[derive(Clone, Debug, Default)]
pub struct GpuPcg {
    /// Stopping options and loop variant (defaults match the CPU PCG):
    /// `opts.fused` selects the fused streaming kernels (3
    /// launches/iteration) or the launch-per-op baseline (8).
    pub opts: PcgOptions,
}

/// One `cublasDdot`-style reduction launch.
fn dot_launch(dev: &GpuDevice, x: &[f64], y: &[f64]) -> Result<(f64, KernelStats), GpuError> {
    let n = x.len();
    let cfg = LaunchConfig::new((n as u32).div_ceil(256).max(1), 256, 256 * 8, 16);
    let traffic = Traffic {
        flops: 2.0 * n as f64,
        dram_bytes: 2.0 * n as f64 * 8.0,
        shared_bytes: n as f64 * 8.0,
        ..Default::default()
    };
    dev.launch("cublasDdot", &cfg, &traffic, || stream::dot(x, y))
}

/// One `cublasDaxpy`-style update launch.
fn axpy_launch(
    dev: &GpuDevice,
    alpha: f64,
    x: &[f64],
    y: &mut [f64],
) -> Result<KernelStats, GpuError> {
    let n = x.len();
    let cfg = LaunchConfig::new((n as u32).div_ceil(256).max(1), 256, 0, 12);
    let traffic = Traffic {
        flops: 2.0 * n as f64,
        dram_bytes: 3.0 * n as f64 * 8.0,
        ..Default::default()
    };
    let (_, stats) = dev.launch("cublasDaxpy", &cfg, &traffic, || {
        stream::axpy(alpha, x, y)
    })?;
    Ok(stats)
}

/// One `cublasDnrm2`-style reduction launch (the scaled overflow-safe
/// norm — same arithmetic as the CPU solver's convergence check).
fn nrm2_launch(dev: &GpuDevice, x: &[f64]) -> Result<(f64, KernelStats), GpuError> {
    let n = x.len();
    let cfg = LaunchConfig::new((n as u32).div_ceil(256).max(1), 256, 256 * 8, 16);
    let traffic = Traffic {
        flops: 2.0 * n as f64,
        dram_bytes: n as f64 * 8.0,
        shared_bytes: n as f64 * 8.0,
        ..Default::default()
    };
    dev.launch("cublasDnrm2", &cfg, &traffic, || stream::nrm2(x))
}

/// Jacobi-apply launch `z = M^{-1} r` (a custom kernel on a real GPU; the
/// unfused baseline previously ran this host-side for free, underbilling
/// the solve).
fn jacobi_launch(
    dev: &GpuDevice,
    precond: &DiagPrecond,
    r: &[f64],
    z: &mut [f64],
) -> Result<KernelStats, GpuError> {
    let n = r.len();
    let cfg = LaunchConfig::new((n as u32).div_ceil(256).max(1), 256, 0, 10);
    let traffic = Traffic {
        flops: n as f64,
        dram_bytes: 3.0 * n as f64 * 8.0,
        ..Default::default()
    };
    let (_, stats) = dev.launch("jacobiApply_kernel", &cfg, &traffic, || {
        precond.apply(r, z)
    })?;
    Ok(stats)
}

/// Direction-update launch `p = z + beta*p` (unfused baseline).
fn update_dir_launch(
    dev: &GpuDevice,
    beta: f64,
    z: &[f64],
    p: &mut [f64],
) -> Result<KernelStats, GpuError> {
    let n = z.len();
    let cfg = LaunchConfig::new((n as u32).div_ceil(256).max(1), 256, 0, 12);
    let traffic = Traffic {
        flops: 2.0 * n as f64,
        dram_bytes: 3.0 * n as f64 * 8.0,
        ..Default::default()
    };
    let (_, stats) = dev.launch("updateDir_kernel", &cfg, &traffic, || {
        stream::update_direction(beta, z, p)
    })?;
    Ok(stats)
}

impl GpuPcg {
    /// Solves `A x = b` with a diagonal preconditioner, applying the
    /// component constraint mask `constrained` (entries with `true` are
    /// held at zero — reflecting-wall DOFs). `x` carries the initial guess.
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
    /// workspace's previous contents never matter.
    #[allow(clippy::too_many_arguments)]
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
        if self.opts.fused {
            self.solve_fused(dev, a, precond, b, constrained, x, ws)
        } else {
            self.solve_unfused(dev, a, precond, b, constrained, x, ws)
        }
    }

    /// The fused path: 3 launches per iteration.
    #[allow(clippy::too_many_arguments)]
    fn solve_fused(
        &self,
        dev: &GpuDevice,
        a: &CsrMatrix,
        precond: &DiagPrecond,
        b: &[f64],
        constrained: &[bool],
        x: &mut [f64],
        ws: &mut PcgWorkspace,
    ) -> Result<PcgResult, GpuError> {
        let n = a.rows();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        assert_eq!(constrained.len(), n);
        let minv = precond.inv_diag();
        assert_eq!(minv.len(), n);

        let project = |v: &mut [f64]| {
            for (vi, &c) in v.iter_mut().zip(constrained) {
                if c {
                    *vi = 0.0;
                }
            }
        };

        let spmv = SpmvKernel;
        let (r, _, p, ap) = ws.vectors(n);

        // r = P(b) - P A P x (plain SpMV: no dot wanted for the residual).
        // Launched over the streaming SpMV — not the scalar `spmv_into` —
        // so the residual bits match the CPU solver's `op.apply`.
        project(x);
        dev.launch(SpmvKernel::NAME, &spmv.config(n), &spmv.traffic(a), || {
            stream::spmv(a, x, r)
        })?;
        project(r);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        project(r);

        let (bnorm, _) = nrm2_launch(dev, b)?;
        let bnorm = bnorm.max(self.opts.abs_tol);
        let target = (self.opts.rel_tol * bnorm).max(self.opts.abs_tol);

        let (mut rnorm, _) = nrm2_launch(dev, r)?;
        if rnorm <= target {
            return Ok(PcgResult { converged: true, iterations: 0, residual: rnorm });
        }

        // Setup sweep: Jacobi apply + r·z + p = z in one launch.
        let (mut rz, _) = fused_precond_launch(dev, minv, r, None, p, &project)?;

        for iter in 1..=self.opts.max_iter {
            // SpMV producing p·Ap in the same sweep. The dot runs before
            // the Ap projection, which is exact: p is already projected,
            // so constrained entries contribute p_i * (Ap)_i = 0 either way.
            let (pap, _) = fused_spmv_dot_launch(dev, a, p, ap, &project)?;
            if pap <= 0.0 || !pap.is_finite() {
                return Ok(PcgResult { converged: false, iterations: iter, residual: rnorm });
            }
            let alpha = rz / pap;
            // x += alpha p; r -= alpha Ap; ‖r‖² — one launch. No projection
            // needed: x, r, p and Ap are all already zero on constrained
            // entries, and the updates keep them there. The norm finishing
            // (rescale on overflow) is host-side scalar work.
            let (sumsq, _) = fused_axpy2_launch(dev, alpha, p, ap, x, r)?;
            rnorm = stream::nrm2_from_sumsq(sumsq, r);
            if rnorm <= target {
                return Ok(PcgResult { converged: true, iterations: iter, residual: rnorm });
            }
            let (rz_new, _) = fused_precond_launch(dev, minv, r, Some(rz), p, &project)?;
            rz = rz_new;
        }
        Ok(PcgResult { converged: false, iterations: self.opts.max_iter, residual: rnorm })
    }

    /// The unfused baseline: one launch per BLAS-1 op (8 per iteration).
    #[allow(clippy::too_many_arguments)]
    fn solve_unfused(
        &self,
        dev: &GpuDevice,
        a: &CsrMatrix,
        precond: &DiagPrecond,
        b: &[f64],
        constrained: &[bool],
        x: &mut [f64],
        ws: &mut PcgWorkspace,
    ) -> Result<PcgResult, GpuError> {
        let n = a.rows();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        assert_eq!(constrained.len(), n);

        let project = |v: &mut [f64]| {
            for (vi, &c) in v.iter_mut().zip(constrained) {
                if c {
                    *vi = 0.0;
                }
            }
        };

        let spmv = SpmvKernel;
        let (r, z, p, ap) = ws.vectors(n);

        // r = P(b) - P A P x.
        project(x);
        dev.launch(SpmvKernel::NAME, &spmv.config(n), &spmv.traffic(a), || {
            stream::spmv(a, x, r)
        })?;
        project(r);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        project(r);

        let (bnorm, _) = nrm2_launch(dev, b)?;
        let bnorm = bnorm.max(self.opts.abs_tol);
        let target = (self.opts.rel_tol * bnorm).max(self.opts.abs_tol);

        let (mut rnorm, _) = nrm2_launch(dev, r)?;
        if rnorm <= target {
            return Ok(PcgResult { converged: true, iterations: 0, residual: rnorm });
        }

        jacobi_launch(dev, precond, r, z)?;
        project(z);
        p.copy_from_slice(z);
        let (mut rz, _) = dot_launch(dev, r, z)?;

        for iter in 1..=self.opts.max_iter {
            // Same streaming SpMV kernel as the fused path (launched under
            // the CUSPARSE name) so the two paths stay bit-identical.
            dev.launch(SpmvKernel::NAME, &spmv.config(n), &spmv.traffic(a), || {
                stream::spmv(a, p, ap)
            })?;
            project(ap);
            let (pap, _) = dot_launch(dev, p, ap)?;
            if pap <= 0.0 || !pap.is_finite() {
                return Ok(PcgResult { converged: false, iterations: iter, residual: rnorm });
            }
            let alpha = rz / pap;
            axpy_launch(dev, alpha, p, x)?;
            axpy_launch(dev, -alpha, ap, r)?;
            let (rnorm_new, _) = nrm2_launch(dev, r)?;
            rnorm = rnorm_new;
            if rnorm <= target {
                return Ok(PcgResult { converged: true, iterations: iter, residual: rnorm });
            }
            jacobi_launch(dev, precond, r, z)?;
            project(z);
            let (rz_new, _) = dot_launch(dev, r, z)?;
            let beta = rz_new / rz;
            rz = rz_new;
            update_dir_launch(dev, beta, z, p)?;
        }
        Ok(PcgResult { converged: false, iterations: self.opts.max_iter, residual: rnorm })
    }
}

/// Fused SpMV + dot launch: the SpMV's full traffic plus the reduction's
/// flops; the dot re-reads `p` and the freshly written `Ap` rows from L2
/// (they are block-local and cache-hot), not DRAM.
fn fused_spmv_dot_launch(
    dev: &GpuDevice,
    a: &CsrMatrix,
    p: &[f64],
    ap: &mut [f64],
    project: &impl Fn(&mut [f64]),
) -> Result<(f64, KernelStats), GpuError> {
    let n = a.rows() as f64;
    let spmv = SpmvKernel;
    let mut cfg = spmv.config(a.rows());
    cfg.shared_bytes = 256 * 8;
    let traffic = spmv.traffic(a).add(&Traffic {
        flops: 2.0 * n,
        l2_bytes: 2.0 * n * 8.0,
        shared_bytes: n * 8.0,
        ..Default::default()
    });
    dev.launch(FUSED_SPMV_DOT, &cfg, &traffic, || {
        let pap = stream::spmv_dot(a, p, ap);
        project(ap);
        pap
    })
}

/// Fused pair-update + norm launch: reads p, Ap, x, r; writes x, r
/// (6n words vs the baseline's 8n across three launches).
fn fused_axpy2_launch(
    dev: &GpuDevice,
    alpha: f64,
    p: &[f64],
    ap: &[f64],
    x: &mut [f64],
    r: &mut [f64],
) -> Result<(f64, KernelStats), GpuError> {
    let n = p.len() as f64;
    let cfg = LaunchConfig::new((p.len() as u32).div_ceil(256).max(1), 256, 256 * 8, 24);
    let traffic = Traffic {
        flops: 6.0 * n,
        dram_bytes: 6.0 * n * 8.0,
        shared_bytes: n * 8.0,
        ..Default::default()
    };
    dev.launch(FUSED_AXPY2_NRM2, &cfg, &traffic, || {
        stream::axpy2_nrm2(alpha, p, ap, x, r)
    })
}

/// Fused precondition + dot + direction-update launch: reads minv, r, p;
/// writes p; `z` is recomputed in registers (5n words vs the baseline's 8n
/// across three launches).
fn fused_precond_launch(
    dev: &GpuDevice,
    minv: &[f64],
    r: &[f64],
    rz_prev: Option<f64>,
    p: &mut [f64],
    project: &impl Fn(&mut [f64]),
) -> Result<(f64, KernelStats), GpuError> {
    let n = r.len() as f64;
    let cfg = LaunchConfig::new((r.len() as u32).div_ceil(256).max(1), 256, 256 * 8, 20);
    let traffic = Traffic {
        flops: 5.0 * n,
        dram_bytes: 5.0 * n * 8.0,
        l2_bytes: 2.0 * n * 8.0,
        shared_bytes: n * 8.0,
        ..Default::default()
    };
    dev.launch(FUSED_PRECOND_UPDATE, &cfg, &traffic, || {
        let rz = stream::precond_dot_update(minv, r, rz_prev, p);
        project(p);
        rz
    })
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
        // device solve and `pcg_solve_ws` to produce the *same bits*: both
        // paths, fused and unfused, mirror the CPU loop op-for-op.
        let n = 64;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.17).sin()).collect();
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let none = vec![false; n];

        for fused in [true, false] {
            let opts = PcgOptions { fused, ..Default::default() };
            let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
            let mut x_gpu = vec![0.0; n];
            let res = GpuPcg { opts }
                .solve(&dev, &a, &pre, &b, &none, &mut x_gpu)
                .expect("no faults injected");
            assert!(res.converged, "residual {}", res.residual);

            let mut x_cpu = vec![0.0; n];
            let res_cpu = blast_la::pcg_solve(&mut (&a), &pre, &b, &mut x_cpu, &opts);
            assert_eq!(res.iterations, res_cpu.iterations, "fused={fused}");
            assert_eq!(res.residual.to_bits(), res_cpu.residual.to_bits(), "fused={fused}");
            assert_eq!(x_gpu, x_cpu, "fused={fused}");
        }
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
        let b = vec![1.0; n];
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let mut constrained = vec![false; n];
        constrained[0] = true;
        constrained[n - 1] = true;
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
