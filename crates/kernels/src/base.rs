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
//! It also owns the `A_z` pipeline — kernels 3, 3, 1, 5, 2, 6, 4 — written
//! once, [`az_pipeline_on`], over a [`KernelLauncher`] and one grow-only
//! [`PipelineScratch`]: on [`Inline`] it is the host composition
//! ([`compute_az_pipeline_into`]), on `&GpuDevice` the optimized pipeline of
//! Table 2 / Fig. 6 (right), each kernel its own billed launch, and the
//! monolithic kernel is one launch around the inline pipeline. The scratch
//! is shaped **without clearing** — every buffer in it is an output some
//! kernel stores in full before anything reads it ([`PipelineScratch`] lists
//! which) — and carries the point-major gradient table kernel 3 walks
//! ([`crate::k3::PointMajorGrads`]), refilled from the FEM tables on every
//! call: that is ~0.1 % of kernel 3's work and means the copy can never be
//! stale.

use blast_la::{BatchedMats, DMatrix};
use gpu_sim::{LaunchConfig, Traffic};

use crate::k1::AdjugateDetKernel;
use crate::k2::{StressKernel, ZoneConstants};
use crate::k3::{CoefGradKernel, PointMajorGrads};
use crate::k4::AzKernel;
use crate::k56::BatchedDimGemm;
use crate::launch::{Inline, KernelLauncher, Launch};
use crate::shapes::ProblemShape;
use crate::Workspace;

/// The monolithic base corner-force kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonolithicCornerForce;

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

/// The inputs of the `A_z` pipeline, named once: the state `(x, v, e)`,
/// the kinematic DOF map, the FEM tables, the quadrature weights `alpha`,
/// the frozen `ρ0|J0|` and the zone constants.
#[derive(Clone, Copy, Debug)]
pub struct AzInputs<'a> {
    pub shape: &'a ProblemShape,
    pub x: &'a [f64],
    pub v: &'a [f64],
    pub e: &'a [f64],
    pub num_h1_dofs: usize,
    pub zone_dofs: &'a [usize],
    pub kin_grads: &'a [DMatrix],
    pub thermo_vals: &'a DMatrix,
    pub alpha: &'a [f64],
    pub rho0detj0: &'a [f64],
    pub consts: &'a ZoneConstants,
    pub use_viscosity: bool,
}

/// The `A_z` pipeline: kernels 3 (`J`), 3 (`∇̂v̂`), 1, 5, 2, 6, 4 issued in
/// that order through `on` with their tuned configs, all intermediates and
/// outputs (`ws.az`, `ws.inv_dt`, `ws.detj`) in `ws`, so no backend
/// allocates at steady state and every backend produces the same bits. A
/// refused launch returns early and leaves `ws` partly written; the next
/// evaluation overwrites all of it.
pub fn az_pipeline_on<L: KernelLauncher>(
    on: &mut L,
    inp: &AzInputs,
    ws: &mut PipelineScratch,
) -> Result<(), L::Error> {
    let &AzInputs { shape, num_h1_dofs: n, zone_dofs, kin_grads, .. } = inp;
    ws.prepare(shape, kin_grads);
    let (dim, points) = (shape.dim, shape.total_points());
    let dim_gemm =
        |k: BatchedDimGemm| Launch::new(k.name(), k.config(dim, points), k.traffic(dim, points));

    // Kernel 3: J and ∇̂v̂ at all points.
    let k3 = CoefGradKernel::tuned();
    for (u, out) in [(inp.x, &mut ws.jac), (inp.v, &mut ws.grad_v_ref)] {
        on.launch(
            || Launch::new(CoefGradKernel::NAME, k3.config(shape), k3.traffic(shape)),
            || CoefGradKernel::compute(shape, u, n, zone_dofs, &ws.grads_pm, out),
        )?;
    }
    // Kernel 1: adj(J), |J|, sigma_min(J).
    let k1 = AdjugateDetKernel { workspace: Workspace::Registers };
    on.launch(
        || Launch::new(AdjugateDetKernel::NAME, k1.config(shape), k1.traffic(shape)),
        || AdjugateDetKernel::compute(shape, &ws.jac, &mut ws.adj, &mut ws.detj, &mut ws.hmin),
    )?;
    // Kernel 5: spatial gradient ∇v = ∇̂v̂ adj(J) / |J|.
    ws.invert_det();
    let k5 = BatchedDimGemm::nn_tuned();
    on.launch(
        || dim_gemm(k5),
        || k5.compute(&ws.grad_v_ref, &ws.adj, Some(&ws.inv_det), &mut ws.grad_v),
    )?;
    // Kernel 2: EOS + viscosity -> sigma, inv_dt.
    let k2 = StressKernel { workspace: Workspace::Registers, use_viscosity: inp.use_viscosity };
    on.launch(
        || Launch::new(StressKernel::NAME, k2.config(shape), k2.traffic(shape)),
        || {
            k2.compute(
                shape, inp.e, inp.thermo_vals, &ws.grad_v, &ws.jac, &ws.detj, &ws.hmin,
                inp.rho0detj0, inp.consts, &mut ws.sigma, &mut ws.inv_dt,
            )
        },
    )?;
    // Kernel 6: S = sigma adj(J)^T (= sigma |J| J^{-T}).
    let k6 = BatchedDimGemm::nt_tuned();
    on.launch(|| dim_gemm(k6), || k6.compute(&ws.sigma, &ws.adj, None, &mut ws.s))?;
    // Kernel 4: A_z columns.
    let k4 = AzKernel::tuned();
    on.launch(
        || Launch::new(AzKernel::NAME, k4.config(shape), k4.traffic(shape)),
        || AzKernel::compute(shape, &ws.s, kin_grads, inp.alpha, &mut ws.az),
    )
}

/// [`az_pipeline_on`] on the host: the seven bodies called back to back.
/// Outputs are `ws.az`, `ws.inv_dt`, and `ws.detj`.
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
    let inp = AzInputs {
        shape, x, v, e, num_h1_dofs, zone_dofs, kin_grads, thermo_vals, alpha, rho0detj0, consts,
        use_viscosity,
    };
    let Ok(()) = az_pipeline_on(&mut Inline, &inp, ws);
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

    /// Issues the fused kernel: one launch around the inline pipeline, so
    /// the outputs land in `ws` like the optimized pipeline's — same bits,
    /// no allocation. `max_regs` is the device's per-thread register limit.
    pub fn launch_on<L: KernelLauncher>(
        &self,
        on: &mut L,
        max_regs: u32,
        inp: &AzInputs,
        ws: &mut PipelineScratch,
    ) -> Result<(), L::Error> {
        let shape = inp.shape;
        let bill = || Launch::new(Self::NAME, self.config(shape, max_regs), self.traffic(shape));
        on.launch(bill, || {
            let Ok(()) = az_pipeline_on(&mut Inline, inp, ws);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{bits, signed_zero_mix as mix};
    use crate::launch::testing::Recording;
    use gpu_sim::{DeviceCatalog, GpuDevice};

    /// Owned pipeline inputs on ±0.0-seeded data (the k3 / k4 lattice
    /// tests' generator), Q2: the fields `[x, v, e]`, the DOF map, the tables.
    struct Fixture {
        shape: ProblemShape,
        fields: [Vec<f64>; 3],
        ndofs: usize,
        zone_dofs: Vec<usize>,
        kin_grads: Vec<DMatrix>,
        thermo_vals: DMatrix,
        point_data: [Vec<f64>; 2],
        consts: ZoneConstants,
    }

    fn fixture(dim: usize, zones: usize) -> Fixture {
        let shape = ProblemShape::new(dim, 2, zones);
        let (nkin, npts, nth) = (shape.nkin, shape.npts, shape.nthermo);
        let ndofs = zones * nkin - 5;
        let table = |rows, seed| DMatrix::from_col_major(rows, npts, mix(rows * npts, seed));
        Fixture {
            shape,
            fields: [mix(dim * ndofs, 1), mix(dim * ndofs, 2), mix(zones * nth, 3)],
            ndofs,
            zone_dofs: (0..zones * nkin).map(|j| (j * 7) % ndofs).collect(),
            kin_grads: (0..dim).map(|g| table(nkin, 4 + g as u64)).collect(),
            thermo_vals: table(nth, 8),
            point_data: [mix(npts, 9), mix(zones * npts, 10).iter().map(|r| 1.5 + r).collect()],
            consts: ZoneConstants {
                gamma: vec![1.4; zones],
                h0: vec![0.3; zones],
                j0inv_diag: vec![1.0; zones * dim],
            },
        }
    }

    impl Fixture {
        fn inputs(&self) -> AzInputs<'_> {
            let ([x, v, e], [alpha, rho0detj0]) = (&self.fields, &self.point_data);
            AzInputs {
                shape: &self.shape, x, v, e, num_h1_dofs: self.ndofs, zone_dofs: &self.zone_dofs,
                kin_grads: &self.kin_grads, thermo_vals: &self.thermo_vals, alpha, rho0detj0,
                consts: &self.consts, use_viscosity: true,
            }
        }
    }

    fn outputs(ws: &PipelineScratch) -> [Vec<u64>; 3] {
        [bits(ws.az.as_slice()), bits(&ws.detj), bits(&ws.inv_dt)]
    }

    #[rustfmt::skip]
    const SEQUENCE: [&str; 7] = [
        "kernel_PzVz_Phi_F", "kernel_PzVz_Phi_F", "kernel_CalcAjugate_det",
        "kernel_NN_dgemmBatched", "kernel_loop_grad_v", "kernel_NT_dgemmBatched",
        "kernel_Phi_sigma_hat_z",
    ];

    #[test]
    fn every_launcher_issues_the_same_seven_kernels_and_bits() {
        for (dim, zones) in [(2, 5), (3, 3)] {
            let fx = fixture(dim, zones);
            let mut inline = PipelineScratch::new();
            let Ok(()) = az_pipeline_on(&mut Inline, &fx.inputs(), &mut inline);
            let az = inline.az.as_slice();
            let live = az.iter().filter(|a| a.is_finite() && **a != 0.0).count();
            assert!(2 * live > az.len(), "{dim}D: a_z is mostly zero or NaN");

            let (mut rec, mut ws) = (Recording::default(), PipelineScratch::new());
            az_pipeline_on(&mut rec, &fx.inputs(), &mut ws).expect("nothing refused");
            assert_eq!(rec.log, SEQUENCE, "{dim}D");
            assert_eq!(outputs(&ws), outputs(&inline), "{dim}D recorder");

            let (dev, mut ws) = (GpuDevice::new(DeviceCatalog::gpu("k20")), PipelineScratch::new());
            az_pipeline_on(&mut &dev, &fx.inputs(), &mut ws).expect("no faults injected");
            let names: Vec<_> = dev.events().iter().map(|ev| ev.name).collect();
            assert_eq!(names, SEQUENCE, "{dim}D device");
            assert_eq!(outputs(&ws), outputs(&inline), "{dim}D device");

            // The monolith: one launch, the same bits, into the scratch.
            let (mut rec, mut ws) = (Recording::default(), PipelineScratch::new());
            let fused = MonolithicCornerForce.launch_on(&mut rec, 255, &fx.inputs(), &mut ws);
            assert_eq!((fused, &rec.log[..]), (Ok(()), &[MonolithicCornerForce::NAME][..]));
            assert_eq!(outputs(&ws), outputs(&inline), "{dim}D monolith");
        }
    }

    #[test]
    fn a_refused_launch_ends_the_pipeline_before_any_later_body() {
        let fx = fixture(2, 5);
        for n in 0..7 {
            let mut rec = Recording { fail_at: Some(n), ..Default::default() };
            let mut ws = PipelineScratch::new();
            // Poison two outputs: a body that ran would overwrite its own.
            ws.prepare(&fx.shape, &fx.kin_grads);
            ws.az.as_mut_slice().fill(f64::NAN);
            ws.inv_dt.fill(f64::NAN);
            assert_eq!(az_pipeline_on(&mut rec, &fx.inputs(), &mut ws), Err(n));
            assert_eq!(rec.log, SEQUENCE[..n], "refused at {n}");
            // Kernel 4 is last and kernel 2 fifth: neither ran unless issued.
            assert!(ws.az.as_slice().iter().all(|a| a.is_nan()), "refused at {n}: k4 ran");
            assert_eq!(ws.inv_dt.iter().all(|a| a.is_nan()), n <= 4, "refused at {n}: k2");
        }
    }

    #[test]
    fn base_traffic_strictly_dominates_optimized() {
        let m = MonolithicCornerForce;
        let shape = ProblemShape::new(3, 2, 512);
        let base = m.traffic(&shape);
        let opt = m.optimized_equivalent_traffic(&shape);
        assert_eq!(base.flops, opt.flops, "same math, same flops");
        assert!(base.total_dram_bytes() > 2.0 * opt.total_dram_bytes());
    }

    /// Modeled `(seconds, joules)` of the optimized pipeline's seven launches.
    fn optimized_phase(dev: &GpuDevice, shape: &ProblemShape) -> (f64, f64) {
        let (k1, k2) = (
            AdjugateDetKernel { workspace: Workspace::Registers },
            StressKernel { workspace: Workspace::Registers, use_viscosity: true },
        );
        let (k3, k4, points) = (CoefGradKernel::tuned(), AzKernel::tuned(), shape.total_points());
        let mut bills = vec![(k3.config(shape), k3.traffic(shape)); 2];
        bills.push((k1.config(shape), k1.traffic(shape)));
        bills.push((k2.config(shape), k2.traffic(shape)));
        bills.push((k4.config(shape), k4.traffic(shape)));
        for k in [BatchedDimGemm::nn_tuned(), BatchedDimGemm::nt_tuned()] {
            bills.push((k.config(shape.dim, points), k.traffic(shape.dim, points)));
        }
        let stats = bills.iter().map(|(cfg, traffic)| dev.model_kernel(cfg, traffic));
        stats.fold((0.0, 0.0), |(t, e), s| (t + s.time_s, e + s.time_s * s.power_w))
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
        let (t_opt, _) = optimized_phase(&dev, &shape);
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
        let (t_opt, e_opt) = optimized_phase(&dev, &shape);

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
        let mut out = PipelineScratch::new();
        compute_az_pipeline_into(
            &shape, &x, &v, &e, ndofs, &zone_dofs, &[gx, gy], &thermo_vals, &alpha,
            &rho0detj0, &consts, true, &mut out,
        );
        // Static gas on a unit mesh: |J| = 1 everywhere; Az finite, nonzero.
        assert!(out.detj.iter().all(|&d| (d - 1.0).abs() < 1e-12));
        assert!(out.az.as_slice().iter().any(|&a| a != 0.0));
        assert!(out.inv_dt.iter().all(|&i| i.is_finite()));
    }
}
