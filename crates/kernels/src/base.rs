//! The base implementation — `kernel_loop_quadrature_point`.
//!
//! "The right of Figure 6 shows our base CUDA implementation.
//! `kernel_loop_quadrature_point` is a kernel to unroll `A_z` which loops
//! over quadrature points. The kernel on Fermi is faster than a six core
//! Westmere X5660 CPU. Yet, it is still inefficient and dominated most of
//! the GPU time. We replaced it with six new designed kernels 1-6."
//!
//! This module is that monolithic kernel: one launch that does everything
//! kernels 1-6 (plus kernel 4) do — same math, same outputs — but with the
//! base implementation's cost structure: every intermediate (`J`, `adj J`,
//! `∇̂v̂`, `∇v`, `σ̂`, `S`) spills through local/global memory because the
//! fused kernel's workspace exceeds the register file, and the single fat
//! kernel runs at low occupancy.
//!
//! It also owns the `A_z` pipeline both execution sides share: the host
//! composition [`compute_az_pipeline_into`] (kernels 3, 3, 1, 5, 2, 6, 4
//! called back to back) and its device twin [`launch_az_pipeline_into`]
//! (the same seven bodies, each inside its own billed launch), over one
//! grow-only [`PipelineScratch`]. The scratch is shaped **without
//! clearing** — every buffer in it is an output some kernel stores in
//! full before anything reads it ([`PipelineScratch`] lists which) — and
//! carries the point-major gradient table kernel 3 walks
//! ([`crate::k3::PointMajorGrads`]), refilled from the FEM tables on every
//! call: that is ~0.1 % of kernel 3's work and means the copy can never be
//! stale.

use blast_la::{BatchedMats, DMatrix};
use gpu_sim::{GpuDevice, GpuError, KernelStats, LaunchConfig, Traffic};

use crate::k1::AdjugateDetKernel;
use crate::k2::{StressKernel, ZoneConstants};
use crate::k3::{CoefGradKernel, PointMajorGrads};
use crate::k4::AzKernel;
use crate::k56::BatchedDimGemm;
use crate::shapes::ProblemShape;
use crate::Workspace;

/// The monolithic base corner-force kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonolithicCornerForce;

/// Outputs of the `A_z` pipeline (shared by base and optimized paths).
#[derive(Clone, Debug)]
pub struct AzPipelineOut {
    /// `A_z` batch (`nvdof x npts` per zone).
    pub az: BatchedMats,
    /// Per-point `inv_dt` controls (max over points bounds the CFL step).
    pub inv_dt: Vec<f64>,
    /// Per-point `|J|` (needed by strong mass conservation checks).
    pub detj: Vec<f64>,
}

/// Reusable intermediates and outputs of the `A_z` pipeline (host and
/// device path alike). All buffers grow to the problem's high-water size on
/// the first call and are then reused, so steady-state corner-force
/// evaluations perform no heap allocation (asserted by
/// `tests/zero_alloc_steady_state.rs`).
///
/// Nothing here is cleared between evaluations; each buffer is stored in
/// full, unconditionally, by exactly one producer before its first reader:
/// `jac` and `grad_v_ref` by kernel 3 (its tile transpose writes all `d²`
/// entries of every point), `adj` / `detj` / `hmin` by kernel 1, `inv_det`
/// by the reciprocal loop, `grad_v` by kernel 5 and `s` by kernel 6 (every
/// `(row, col)` assigned), `sigma` / `inv_dt` by kernel 2 (one
/// `write_col_slice` and one store per point), `az` by kernel 4 (every
/// `(c, m)` of every column).
#[derive(Clone, Debug, Default)]
pub struct PipelineScratch {
    jac: BatchedMats,
    grad_v_ref: BatchedMats,
    adj: BatchedMats,
    grad_v: BatchedMats,
    sigma: BatchedMats,
    s: BatchedMats,
    hmin: Vec<f64>,
    inv_det: Vec<f64>,
    /// Point-major copy of the kinematic gradient tables (kernel 3).
    grads_pm: PointMajorGrads,
    /// `A_z` batch (`nvdof x npts` per zone) — pipeline output.
    pub az: BatchedMats,
    /// Per-point `inv_dt` controls — pipeline output.
    pub inv_dt: Vec<f64>,
    /// Per-point `|J|` — pipeline output.
    pub detj: Vec<f64>,
}

impl PipelineScratch {
    /// Empty scratch; buffers are shaped on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shapes every buffer for `shape` (grow-only, contents unspecified)
    /// and refills the point-major table from `kin_grads`.
    fn prepare(&mut self, shape: &ProblemShape, kin_grads: &[DMatrix]) {
        let d = shape.dim;
        let total = shape.total_points();
        for b in [
            &mut self.jac,
            &mut self.grad_v_ref,
            &mut self.adj,
            &mut self.grad_v,
            &mut self.sigma,
            &mut self.s,
        ] {
            b.reshape(d, d, total);
        }
        for v in [&mut self.hmin, &mut self.inv_det, &mut self.inv_dt, &mut self.detj] {
            v.resize(total, 0.0);
        }
        self.az.reshape(shape.nvdof(), shape.npts, shape.zones);
        self.grads_pm.refill(kin_grads);
    }

    /// `inv_det = 1 / detj`, the per-point scale of kernel 5.
    fn invert_det(&mut self) {
        for (inv, &dd) in self.inv_det.iter_mut().zip(&self.detj) {
            *inv = 1.0 / dd;
        }
    }
}

/// Executes the full `A_z` math (the composition of kernels 3, 1, 5, 2, 6,
/// 4) on the host buffers. Both the base kernel and the CPU reference call
/// this; the optimized GPU path launches the individual kernels instead,
/// producing bit-identical results.
#[allow(clippy::too_many_arguments)]
pub fn compute_az_pipeline(
    shape: &ProblemShape,
    x: &[f64],
    v: &[f64],
    e: &[f64],
    num_h1_dofs: usize,
    zone_dofs: &[usize],
    kin_grads: &[DMatrix],
    thermo_vals: &DMatrix,
    alpha: &[f64],
    rho0detj0: &[f64],
    consts: &ZoneConstants,
    use_viscosity: bool,
) -> AzPipelineOut {
    let mut ws = PipelineScratch::new();
    compute_az_pipeline_into(
        shape,
        x,
        v,
        e,
        num_h1_dofs,
        zone_dofs,
        kin_grads,
        thermo_vals,
        alpha,
        rho0detj0,
        consts,
        use_viscosity,
        &mut ws,
    );
    AzPipelineOut { az: ws.az, inv_dt: ws.inv_dt, detj: ws.detj }
}

/// Allocation-free variant of [`compute_az_pipeline`]: all intermediates
/// and outputs live in `ws` and are reused across timesteps. Outputs are
/// `ws.az`, `ws.inv_dt`, and `ws.detj`.
#[allow(clippy::too_many_arguments)]
pub fn compute_az_pipeline_into(
    shape: &ProblemShape,
    x: &[f64],
    v: &[f64],
    e: &[f64],
    num_h1_dofs: usize,
    zone_dofs: &[usize],
    kin_grads: &[DMatrix],
    thermo_vals: &DMatrix,
    alpha: &[f64],
    rho0detj0: &[f64],
    consts: &ZoneConstants,
    use_viscosity: bool,
    ws: &mut PipelineScratch,
) {
    ws.prepare(shape, kin_grads);

    // Kernel 3 math: J and ∇̂v̂ at all points.
    CoefGradKernel::compute(shape, x, num_h1_dofs, zone_dofs, &ws.grads_pm, &mut ws.jac);
    CoefGradKernel::compute(shape, v, num_h1_dofs, zone_dofs, &ws.grads_pm, &mut ws.grad_v_ref);

    // Kernel 1 math: adj(J), |J|, sigma_min(J).
    AdjugateDetKernel::compute(shape, &ws.jac, &mut ws.adj, &mut ws.detj, &mut ws.hmin);

    // Kernel 5 math: spatial gradient ∇v = ∇̂v̂ adj(J) / |J|.
    ws.invert_det();
    BatchedDimGemm::nn_tuned().compute(&ws.grad_v_ref, &ws.adj, Some(&ws.inv_det), &mut ws.grad_v);

    // Kernel 2 math: EOS + viscosity -> sigma, inv_dt.
    StressKernel { workspace: Workspace::Registers, use_viscosity }.compute(
        shape,
        e,
        thermo_vals,
        &ws.grad_v,
        &ws.jac,
        &ws.detj,
        &ws.hmin,
        rho0detj0,
        consts,
        &mut ws.sigma,
        &mut ws.inv_dt,
    );

    // Kernel 6 math: S = sigma adj(J)^T (= sigma |J| J^{-T}).
    BatchedDimGemm::nt_tuned().compute(&ws.sigma, &ws.adj, None, &mut ws.s);

    // Kernel 4 math: A_z columns.
    AzKernel::compute(shape, &ws.s, kin_grads, alpha, &mut ws.az);
}

/// The device twin of [`compute_az_pipeline_into`] — the optimized kernel
/// pipeline of Table 2 / Fig. 6 (right): the same seven bodies in the same
/// order over the same scratch, each inside its own launch with the
/// kernel's tuned config and traffic, so the outputs (`ws.az`, `ws.inv_dt`,
/// `ws.detj`) are bit-identical to the host composition and a device
/// evaluation allocates nothing either. A failed launch returns early and
/// leaves `ws` partly written; the next evaluation overwrites all of it.
#[allow(clippy::too_many_arguments)]
pub fn launch_az_pipeline_into(
    dev: &GpuDevice,
    shape: &ProblemShape,
    x: &[f64],
    v: &[f64],
    e: &[f64],
    num_h1_dofs: usize,
    zone_dofs: &[usize],
    kin_grads: &[DMatrix],
    thermo_vals: &DMatrix,
    alpha: &[f64],
    rho0detj0: &[f64],
    consts: &ZoneConstants,
    use_viscosity: bool,
    ws: &mut PipelineScratch,
) -> Result<(), GpuError> {
    ws.prepare(shape, kin_grads);

    let k3 = CoefGradKernel::tuned();
    k3.run(dev, shape, x, num_h1_dofs, zone_dofs, &ws.grads_pm, &mut ws.jac)?;
    k3.run(dev, shape, v, num_h1_dofs, zone_dofs, &ws.grads_pm, &mut ws.grad_v_ref)?;

    AdjugateDetKernel { workspace: Workspace::Registers }.run(
        dev,
        shape,
        &ws.jac,
        &mut ws.adj,
        &mut ws.detj,
        &mut ws.hmin,
    )?;

    ws.invert_det();
    BatchedDimGemm::nn_tuned().run(
        dev,
        &ws.grad_v_ref,
        &ws.adj,
        Some(&ws.inv_det),
        &mut ws.grad_v,
    )?;

    StressKernel { workspace: Workspace::Registers, use_viscosity }.run(
        dev,
        shape,
        e,
        thermo_vals,
        &ws.grad_v,
        &ws.jac,
        &ws.detj,
        &ws.hmin,
        rho0detj0,
        consts,
        &mut ws.sigma,
        &mut ws.inv_dt,
    )?;

    BatchedDimGemm::nt_tuned().run(dev, &ws.sigma, &ws.adj, None, &mut ws.s)?;

    AzKernel::tuned().run(dev, shape, &ws.s, kin_grads, alpha, &mut ws.az)?;
    Ok(())
}

impl MonolithicCornerForce {
    /// Kernel name as in Fig. 6.
    pub const NAME: &'static str = "kernel_loop_quadrature_point";

    /// Launch configuration: the fused kernel is register-starved — the
    /// compiler caps it at the architectural limit and spills the rest.
    pub fn config(&self, shape: &ProblemShape, max_regs: u32) -> LaunchConfig {
        let grid = (shape.zones as u32).max(1);
        LaunchConfig::new(grid, 128, 0, max_regs.min(63))
    }

    /// Declared traffic: the sum of the useful work of kernels 1-6 plus
    /// every intermediate spilled to local memory and re-read.
    pub fn traffic(&self, shape: &ProblemShape) -> Traffic {
        let sum = self.optimized_equivalent_traffic(shape);
        let n = shape.total_points() as f64;
        let d2 = (shape.dim * shape.dim) as f64;
        // Six d x d intermediates per point, each round-tripping through
        // local memory dozens of times: the fused loop body's dependent
        // scalar chains exhaust the register file and serialize on spilled
        // loads. Calibrated to the paper's observation that the base kernel
        // is only marginally "faster than a six core Westmere X5660 CPU".
        let spill = n * 6.0 * d2 * 8.0 * 2.0 * 48.0;
        Traffic {
            flops: sum.flops,
            dram_bytes: sum.dram_bytes,
            l2_bytes: sum.l2_bytes,
            // No shared-memory staging in the base kernel.
            shared_bytes: 0.0,
            local_bytes: spill,
        }
    }

    /// Aggregate useful traffic of the replacement kernels 1-6 (+4), for
    /// apples-to-apples comparison.
    pub fn optimized_equivalent_traffic(&self, shape: &ProblemShape) -> Traffic {
        let k1 = AdjugateDetKernel { workspace: Workspace::Registers }.traffic(shape);
        let k2 = StressKernel { workspace: Workspace::Registers, use_viscosity: true }
            .traffic(shape);
        let k3 = CoefGradKernel::tuned().traffic(shape).scale(2.0); // J and ∇̂v̂
        let k4 = AzKernel::tuned().traffic(shape);
        let k5 = BatchedDimGemm::nn_tuned().traffic_for(shape);
        let k6 = BatchedDimGemm::nt_tuned().traffic_for(shape);
        k1.add(&k2).add(&k3).add(&k4).add(&k5).add(&k6)
    }

    /// Launches the fused kernel: same outputs as the optimized pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        dev: &GpuDevice,
        shape: &ProblemShape,
        x: &[f64],
        v: &[f64],
        e: &[f64],
        num_h1_dofs: usize,
        zone_dofs: &[usize],
        kin_grads: &[DMatrix],
        thermo_vals: &DMatrix,
        alpha: &[f64],
        rho0detj0: &[f64],
        consts: &ZoneConstants,
        use_viscosity: bool,
    ) -> Result<(AzPipelineOut, KernelStats), GpuError> {
        let cfg = self.config(shape, dev.spec().max_regs_per_thread);
        let traffic = self.traffic(shape);
        dev.launch(Self::NAME, &cfg, &traffic, || {
            compute_az_pipeline(
                shape, x, v, e, num_h1_dofs, zone_dofs, kin_grads, thermo_vals, alpha,
                rho0detj0, consts, use_viscosity,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceCatalog;
    

    #[test]
    fn base_traffic_strictly_dominates_optimized() {
        let m = MonolithicCornerForce;
        let shape = ProblemShape::new(3, 2, 512);
        let base = m.traffic(&shape);
        let opt = m.optimized_equivalent_traffic(&shape);
        assert_eq!(base.flops, opt.flops, "same math, same flops");
        assert!(base.total_dram_bytes() > 2.0 * opt.total_dram_bytes());
    }

    #[test]
    fn base_kernel_much_slower_than_kernel_sum() {
        // Fig. 6: replacing the monolith with kernels 1-6 shrinks its share
        // from 65% to 25% while total time drops ~60% => the replacement
        // runs several times faster than the monolith.
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let shape = ProblemShape::new(3, 2, 4096);
        let m = MonolithicCornerForce;
        let t_base = dev
            .model_kernel(&m.config(&shape, dev.spec().max_regs_per_thread), &m.traffic(&shape))
            .time_s;

        // Sum of the optimized kernels' modeled times.
        let mut t_opt = 0.0;
        let k1 = AdjugateDetKernel { workspace: Workspace::Registers };
        t_opt += dev.model_kernel(&k1.config(&shape), &k1.traffic(&shape)).time_s;
        let k2 = StressKernel { workspace: Workspace::Registers, use_viscosity: true };
        t_opt += dev.model_kernel(&k2.config(&shape), &k2.traffic(&shape)).time_s;
        let k3 = CoefGradKernel::tuned();
        t_opt += 2.0 * dev.model_kernel(&k3.config(&shape), &k3.traffic(&shape)).time_s;
        let k4 = AzKernel::tuned();
        t_opt += dev.model_kernel(&k4.config(&shape), &k4.traffic(&shape)).time_s;
        for k in [BatchedDimGemm::nn_tuned(), BatchedDimGemm::nt_tuned()] {
            t_opt += dev
                .model_kernel(
                    &k.config(shape.dim, shape.total_points()),
                    &k.traffic(shape.dim, shape.total_points()),
                )
                .time_s;
        }
        assert!(t_base > 2.5 * t_opt, "base {t_base} vs optimized sum {t_opt}");
    }

    #[test]
    fn optimized_phase_uses_less_power_and_energy_than_base() {
        // §5.2: the optimized code "not only runs faster, but also lowers
        // the power cost relative to the base implementation" — individual
        // optimized kernels can spike higher (they saturate the machine),
        // but the phase-average power and the total energy both drop,
        // because on-chip bytes cost ~50x less than the base kernel's
        // spilled DRAM bytes.
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let shape = ProblemShape::new(3, 2, 4096);
        let m = MonolithicCornerForce;
        let base = dev.model_kernel(&m.config(&shape, 255), &m.traffic(&shape));
        let (e_base, t_base) = (base.power_w * base.time_s, base.time_s);

        let mut e_opt = 0.0;
        let mut t_opt = 0.0;
        let mut add = |time_s: f64, power_w: f64| {
            e_opt += time_s * power_w;
            t_opt += time_s;
        };
        let k1 = AdjugateDetKernel { workspace: Workspace::Registers };
        let s = dev.model_kernel(&k1.config(&shape), &k1.traffic(&shape));
        add(s.time_s, s.power_w);
        let k2 = StressKernel { workspace: Workspace::Registers, use_viscosity: true };
        let s = dev.model_kernel(&k2.config(&shape), &k2.traffic(&shape));
        add(s.time_s, s.power_w);
        let k3 = CoefGradKernel::tuned();
        let s = dev.model_kernel(&k3.config(&shape), &k3.traffic(&shape));
        add(2.0 * s.time_s, s.power_w);
        let k4 = AzKernel::tuned();
        let s = dev.model_kernel(&k4.config(&shape), &k4.traffic(&shape));
        add(s.time_s, s.power_w);
        for k in [BatchedDimGemm::nn_tuned(), BatchedDimGemm::nt_tuned()] {
            let s = dev.model_kernel(
                &k.config(shape.dim, shape.total_points()),
                &k.traffic(shape.dim, shape.total_points()),
            );
            add(s.time_s, s.power_w);
        }

        let p_base = e_base / t_base;
        let p_opt = e_opt / t_opt;
        assert!(p_opt < p_base, "phase power: opt {p_opt} W vs base {p_base} W");
        // "10% less power required": the model lands in the 5-30% band.
        let saving = 1.0 - p_opt / p_base;
        assert!(saving > 0.05 && saving < 0.35, "power saving {saving}");
        // Energy drops much more than power (time shrinks too).
        assert!(e_opt < 0.5 * e_base, "energy: opt {e_opt} J vs base {e_base} J");
    }

    #[test]
    fn pipeline_runs_end_to_end_on_synthetic_zone() {
        // Smoke test of the full A_z math on the 2-zone synthetic setup.
        let shape = ProblemShape::new(2, 1, 2);
        let zone_dofs = vec![0usize, 1, 3, 4, 1, 2, 4, 5];
        let ndofs = 6;
        let g = 0.5 - 1.0 / (2.0 * 3.0_f64.sqrt());
        let pts = [[g, g], [1.0 - g, g], [g, 1.0 - g], [1.0 - g, 1.0 - g]];
        let mut gx = DMatrix::zeros(4, 4);
        let mut gy = DMatrix::zeros(4, 4);
        for (k, p) in pts.iter().enumerate() {
            let (xx, yy) = (p[0], p[1]);
            gx[(0, k)] = -(1.0 - yy);
            gx[(1, k)] = 1.0 - yy;
            gx[(2, k)] = -yy;
            gx[(3, k)] = yy;
            gy[(0, k)] = -(1.0 - xx);
            gy[(1, k)] = -xx;
            gy[(2, k)] = 1.0 - xx;
            gy[(3, k)] = xx;
        }
        let xs = [0.0, 1.0, 2.0, 0.0, 1.0, 2.0];
        let ys = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut x = vec![0.0; 12];
        x[..6].copy_from_slice(&xs);
        x[6..].copy_from_slice(&ys);
        let v = vec![0.0; 12];
        let e = vec![1.0; 2 * shape.nthermo];
        let thermo_vals = DMatrix::from_fn(shape.nthermo, shape.npts, |_, _| 1.0);
        let alpha = vec![0.25; shape.npts];
        let rho0detj0 = vec![1.0; shape.total_points()];
        let consts = ZoneConstants {
            gamma: vec![1.4; 2],
            h0: vec![1.0; 2],
            j0inv_diag: vec![1.0; 4],
        };
        let out = compute_az_pipeline(
            &shape, &x, &v, &e, ndofs, &zone_dofs, &[gx, gy], &thermo_vals, &alpha,
            &rho0detj0, &consts, true,
        );
        // Static gas on a unit mesh: |J| = 1 everywhere; Az finite, nonzero.
        assert!(out.detj.iter().all(|&d| (d - 1.0).abs() < 1e-12));
        assert!(out.az.as_slice().iter().any(|&a| a != 0.0));
        assert!(out.inv_dt.iter().all(|&i| i.is_finite()));
    }
}
