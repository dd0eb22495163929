//! Kernel 9 — the CUDA-PCG solver for the momentum system
//! `M_V (dv/dt) = -F·1`.
//!
//! "We implemented a custom CUDA-PCG solver from scratch. CUDA-PCG contains
//! a SpMV and a dot product routine only, where we call CUSPARSE SpMV and
//! cublasDdot." It is the same step-6 algorithm as the CPU solve run
//! somewhere else, so this module holds no iteration: kernel 9 is
//! `blast_la::pcg_solve_on` over the constrained operator the host leg uses,
//! issued through a [`SweepLog`]. That launcher runs each sweep at once —
//! the host leg's arithmetic, sweep for sweep, so the mid-run degrade-to-CPU
//! path (chaos campaign) reproduces it — and logs the sweep with the systems
//! it covered. The bill comes after the solve: [`SweepLog::bill`] issues,
//! for one system, every logged sweep that covered it as one launch from
//! the table below, in log order — the launches that system's scalar solve
//! issues, because a lock-step solve freezes a system exactly where its
//! scalar solve returns. So the `d` momentum components share one pass over
//! the matrix per iteration, and the device ledger is the one `d` scalar
//! solves, one component after another, would leave.
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

use std::convert::Infallible;

use blast_la::{
    pcg_solve_on, ConstrainedOp, CsrMatrix, DiagPrecond, PcgOptions, PcgResult, PcgWorkspace,
    Sweep, SweepLauncher,
};
use gpu_sim::{GpuDevice, GpuError, LaunchConfig, Traffic};

use crate::k11::SpmvKernel;
use crate::launch::{KernelLauncher, Launch};

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

/// Kernel 9's launcher and its ledger: what a lock-step solve issued, in
/// issue order — each sweep with the systems it covered (bit `c` set:
/// system `c` was live). Grow-only: a solve clears it and never shrinks it,
/// so a warmed log is reused without touching the heap.
#[derive(Debug, Default)]
pub struct SweepLog(Vec<(Sweep, u64)>);

impl SweepLog {
    /// The launcher of one solve under `opts`: empties the log, then runs
    /// every sweep at once and appends it. It refuses nothing; a refusal
    /// surfaces from [`Self::bill`]. The log is sized up front for the
    /// longest solve `opts` allows (`4 + 3·max_iter` sweeps fused,
    /// `5 + 8·max_iter` launch-per-op), so it never grows mid-run: a step
    /// whose solve iterates longer than any before it stays heap-quiet, and
    /// the log does not reallocate in small steps between the solver's
    /// large buffers. Should the allocator refuse that size (a `max_iter`
    /// meant as "no cap"), the log grows as it fills instead.
    pub fn record(&mut self, opts: &PcgOptions) -> impl SweepLauncher<Error = Infallible> + '_ {
        let (per_iter, setup) = if opts.fused { (3, 4) } else { (8, 5) };
        let longest = opts.max_iter.saturating_mul(per_iter).saturating_add(setup);
        self.0.clear();
        let _ = self.0.try_reserve(longest);
        Recorder(&mut self.0)
    }

    /// Issues on `dev` the launches of system `c`: every logged sweep that
    /// covered it, in log order, each one launch from the table over the
    /// solve's matrix `a`. The first refused launch ends the bill with its
    /// error.
    pub fn bill(&self, dev: &GpuDevice, a: &CsrMatrix, c: usize) -> Result<(), GpuError> {
        let mut on = dev;
        for &(which, _) in self.0.iter().filter(|&&(_, live)| live >> c & 1 == 1) {
            let what = || {
                let (name, cfg, traffic) = launch_of(which, a);
                Launch::new(name, cfg, traffic)
            };
            KernelLauncher::launch(&mut on, what, || ())?;
        }
        Ok(())
    }

    /// High-water capacity in entries (tests assert the grow-only behavior
    /// through this).
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

/// [`SweepLog::record`]'s launcher.
struct Recorder<'a>(&'a mut Vec<(Sweep, u64)>);

impl SweepLauncher for Recorder<'_> {
    type Error = Infallible;
    fn sweep<R>(
        &mut self,
        which: Sweep,
        live: &[bool],
        body: impl FnOnce() -> R,
    ) -> Result<R, Infallible> {
        assert!(live.len() <= 64, "kernel 9 logs at most 64 systems");
        let mask = live.iter().enumerate().fold(0, |m, (c, &l)| m | u64::from(l) << c);
        self.0.push((which, mask));
        Ok(body())
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
    /// at zero. The solve is the one-system case of the momentum solve's
    /// record-then-bill path; on an error `x` holds an iterate the caller
    /// must discard.
    pub fn solve(
        &self,
        dev: &GpuDevice,
        a: &CsrMatrix,
        precond: &DiagPrecond,
        b: &[f64],
        constrained: &[bool],
        x: &mut [f64],
    ) -> Result<PcgResult, GpuError> {
        let mut log = SweepLog::default();
        let [res] = PcgWorkspace::new().with_operator_scratch(a.rows(), |tmp, ws| {
            let op = &mut ConstrainedOp { a, masks: &[constrained], tmp };
            let on = &mut log.record(&self.opts);
            let Ok(res) = pcg_solve_on(on, op, precond, b, x, &self.opts, ws);
            res
        });
        log.bill(dev, a, 0)?;
        Ok(res)
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
    fn lockstep_bill_is_the_ledger_of_sequential_solves_fault_by_fault() {
        use gpu_sim::{FaultKind, FaultPlan};
        // Three desynchronised systems with their own masks: a full solve,
        // a one-iteration eigenvector solve and one done at iteration 0.
        let n = 24;
        let a = laplacian(n);
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let masks: [Vec<bool>; 3] = [
            (0..n).map(|i| i == 0).collect(),
            vec![false; n],
            (0..n).map(|i| i % 7 == 3).collect(),
        ];
        let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect(); // b[0] = 0
        b.extend((1..=n).map(|i| (std::f64::consts::PI * i as f64 / (n + 1) as f64).sin()));
        b.extend(std::iter::repeat_n(0.0, n));
        let at = |c: usize| c * n..(c + 1) * n;

        // A side's outcome: per system its iterations and residual bits, or
        // the refusal; and the iterate.
        type Outcome = (Result<Vec<(usize, u64)>, GpuError>, Vec<f64>);
        let outcome = |res: Result<Vec<PcgResult>, GpuError>, x| -> Outcome {
            (res.map(|r| r.iter().map(|r| (r.iterations, r.residual.to_bits())).collect()), x)
        };
        // The device ledger: the events' names in order, the clock, the energy.
        let ledger = |dev: &GpuDevice| {
            let names: Vec<&str> = dev.events().iter().map(|e| e.name).collect();
            (names, dev.now().to_bits(), dev.energy_joules().to_bits())
        };
        let lockstep = |opts: PcgOptions, dev: &GpuDevice| -> Outcome {
            let masks: [&[bool]; 3] = std::array::from_fn(|c| &masks[c][..]);
            let (mut log, mut x) = (SweepLog::default(), vec![0.0; 3 * n]);
            let staging = blast_la::stream::wide_lanes(3) * n;
            let results: [PcgResult; 3] =
                PcgWorkspace::new().with_operator_scratch(staging, |tmp, ws| {
                    let op = &mut ConstrainedOp { a: &a, masks: &masks, tmp };
                    let on = &mut log.record(&opts);
                    let Ok(res) = pcg_solve_on(on, op, &pre, &b, &mut x, &opts, ws);
                    res
                });
            let billed = (0..3).try_for_each(|c| log.bill(dev, &a, c));
            outcome(billed.map(|()| results.to_vec()), x)
        };
        let sequential = |opts: PcgOptions, dev: &GpuDevice| -> Outcome {
            let mut x = vec![0.0; 3 * n];
            let solved = (0..3)
                .map(|c| GpuPcg { opts }.solve(dev, &a, &pre, &b[at(c)], &masks[c], &mut x[at(c)]))
                .collect();
            outcome(solved, x)
        };

        for fused in [true, false] {
            let opts = PcgOptions { fused, ..Default::default() };
            let device = |refuse: Option<u64>| {
                let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
                if let Some(k) = refuse {
                    let plan = FaultPlan::seeded(1).with_persistent(FaultKind::LaunchFail, k);
                    dev.set_fault_plan(plan);
                }
                dev
            };
            let (dev_want, dev_got) = (device(None), device(None));
            let want = sequential(opts, &dev_want);
            assert_eq!(lockstep(opts, &dev_got), want, "fused={fused}");
            assert_eq!(ledger(&dev_got), ledger(&dev_want), "fused={fused}");
            let iters: Vec<usize> = want.0.unwrap().iter().map(|r| r.0).collect();
            assert!(iters[0] > iters[1] && iters[1] > 0 && iters[2] == 0, "{iters:?}");

            // Refuse each launch in turn: the same error, the same ledger.
            for k in 0..dev_want.events().len() as u64 {
                let (dev_want, dev_got) = (device(Some(k)), device(Some(k)));
                let want = sequential(opts, &dev_want).0;
                assert!(want.is_err(), "fused={fused} k={k}: the refusal must surface");
                assert_eq!(lockstep(opts, &dev_got).0, want, "fused={fused} k={k}");
                assert_eq!(ledger(&dev_got), ledger(&dev_want), "fused={fused} k={k}");
            }
        }
    }

    #[test]
    fn an_uncapped_solve_still_logs_and_bills() {
        // No log can be reserved for `usize::MAX` iterations: the solve
        // still runs, logging as it goes, and bills what it issued.
        let n = 32;
        let a = laplacian(n);
        let pre = DiagPrecond::from_diagonal(&a.diagonal());
        let b = vec![1.0; n];
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut x = vec![0.0; n];
        let opts = PcgOptions { max_iter: usize::MAX, ..Default::default() };
        let res = GpuPcg { opts }.solve(&dev, &a, &pre, &b, &vec![false; n], &mut x).unwrap();
        assert!(res.converged);
        assert_eq!(dev.events().len(), 4 + 3 * (res.iterations - 1) + 2);
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
