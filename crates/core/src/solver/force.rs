//! Force evaluation (the corner-force hot spot): the [`Assembly`] operator
//! axis, the kernel sequence of one evaluation written once over a
//! `KernelLauncher`, the billing envelope each backend (host, device,
//! hybrid) puts around it, the momentum solve, and the energy rate.

use blast_kernels::base::{az_pipeline_on, AzInputs, MonolithicCornerForce};
use blast_kernels::k11::SpmvKernel;
use blast_kernels::k7::FzKernel;
use blast_kernels::k8_10::{EnergyRhsKernel, MomentumRhsKernel};
use blast_kernels::k9::GpuPcg;
use blast_kernels::launch::{Inline, KernelLauncher, Launch};
use blast_kernels::sumfac::{
    AssemblyMode, SumfacEnergyKernel, SumfacFactors, SumfacForceKernel, SumfacMassKernel,
    SumfacMomentumKernel,
};
use blast_kernels::{GemmVariant, ProblemShape};
use blast_la::{
    pcg_solve_lockstep_ws, pcg_solve_ws, BatchedMats, ConstrainedOp, CsrMatrix, LinearOperator,
    PcgResult,
};
use blast_telemetry::names;
use gpu_sim::{GpuDevice, LaunchConfig, Traffic};
use powermon::CpuPowerState;

use super::{ensure_zeroed, ForceEval, Hydro, StepScratch};
use crate::error::HydroError;
use crate::exec::{
    cg_iteration_traffic, cg_iteration_traffic_fused, cg_iteration_traffic_matfree,
    corner_force_traffic, corner_force_traffic_matfree, ExecMode, CG_CPU_EFF,
};

/// How the corner-force and kinematic mass operators are realized — the
/// operator axis every backend matches on. Exactly one realization exists
/// per solver, so there is no "neither" state to guard against.
pub(super) enum Assembly {
    /// The paper's batched kernels: `A_z`/`F_z` per evaluation and the
    /// global CSR kinematic mass matrix.
    Stored {
        /// Kinematic mass matrix (assembled once — `ρ|J|` is frozen).
        mv: CsrMatrix,
    },
    /// Sum-factorized 1D contractions; no `A_z`, `F_z` or CSR matrix.
    MatFree(MatFreeOps),
}

/// Matrix-free operator data ([`AssemblyMode::MatrixFree`]): the 1D
/// factor tables, the per-point kinematic mass scale factors
/// `svals[p] = α_{p mod npts} ρ0|J0|(p)` (frozen in the Lagrangian
/// frame, like the stored matrix they replace), and a grow-only staging
/// pool for the mass applies that run outside the step scratch (audits
/// and energy reporting stay alloc-free at steady state).
pub(super) struct MatFreeOps {
    pub(super) factors: SumfacFactors,
    pub(super) svals: Vec<f64>,
    pub(super) mass_local: std::cell::RefCell<Vec<f64>>,
}

impl Assembly {
    pub(super) fn mode(&self) -> AssemblyMode {
        match self {
            Assembly::Stored { .. } => AssemblyMode::Stored,
            Assembly::MatFree(_) => AssemblyMode::MatrixFree,
        }
    }

    /// Whole-phase corner-force traffic of one force evaluation.
    fn corner_force_traffic(&self, shape: &ProblemShape) -> Traffic {
        match self {
            Assembly::Stored { .. } => corner_force_traffic(shape),
            Assembly::MatFree(mf) => corner_force_traffic_matfree(shape, &mf.factors),
        }
    }

    /// Per-iteration traffic of one scalar-component momentum PCG.
    fn cg_iteration_traffic(&self, shape: &ProblemShape, n: usize, fused: bool) -> Traffic {
        match self {
            Assembly::Stored { mv } if fused => cg_iteration_traffic_fused(mv.nnz(), n),
            Assembly::Stored { mv } => cg_iteration_traffic(mv.nnz(), n),
            Assembly::MatFree(mf) => cg_iteration_traffic_matfree(
                &SumfacMassKernel.traffic(shape, &mf.factors, n),
                n,
                fused,
            ),
        }
    }

    /// `y = M_V x` for one scalar component (`y` is fully overwritten).
    pub(super) fn mass_apply(
        &self,
        shape: &ProblemShape,
        zone_dofs: &[usize],
        x: &[f64],
        y: &mut [f64],
    ) {
        match self {
            Assembly::Stored { mv } => mv.spmv_into(x, y),
            Assembly::MatFree(mf) => SumfacMassKernel.compute_with(
                shape,
                &mf.factors,
                &mf.svals,
                zone_dofs,
                x.len(),
                x,
                y,
                &mut mf.mass_local.borrow_mut(),
            ),
        }
    }

    /// Modeled cost of one `dim`-component mass apply: `(flops, dram words)`
    /// — the stored CSR stream or the sum-factorized transform chain.
    pub(super) fn mass_apply_cost(&self, shape: &ProblemShape, n: usize, dim: usize) -> (f64, f64) {
        match self {
            Assembly::Stored { mv } => ((2 * dim * mv.nnz()) as f64, mv.nnz() as f64),
            Assembly::MatFree(mf) => {
                let t = SumfacMassKernel.traffic(shape, &mf.factors, n).scale(dim as f64);
                (t.flops, t.dram_bytes / 8.0)
            }
        }
    }

    /// What the energy right-hand side `F^T v` bills (kernel 10 or its
    /// sum-factorized replacement).
    fn energy_rhs_launch(&self, shape: &ProblemShape) -> Launch {
        let (k10, sf) = (EnergyRhsKernel, SumfacEnergyKernel);
        match self {
            Assembly::Stored { .. } => {
                Launch::new(EnergyRhsKernel::NAME, k10.config(shape), k10.traffic(shape))
            }
            Assembly::MatFree(MatFreeOps { factors: f, .. }) => {
                Launch::new(SumfacEnergyKernel::NAME, sf.config(shape), sf.traffic(shape, f))
            }
        }
    }
}

/// The SpMV-free constrained operator: masked input, one sum-factorized
/// mass apply, identity on constrained DOFs — the same projection
/// semantics as the stored [`ConstrainedOp`] with no matrix anywhere. The
/// apply is bitwise-deterministic at every thread count (zone staging +
/// serial scatter), so the whole PCG is — which is why the CPU and GPU
/// momentum solves share this one type.
struct MatFreeConstrainedOp<'a> {
    shape: &'a ProblemShape,
    factors: &'a SumfacFactors,
    svals: &'a [f64],
    zone_dofs: &'a [usize],
    n: usize,
    mask: &'a [bool],
    tmp: &'a mut [f64],
    local: &'a mut Vec<f64>,
}

impl LinearOperator for MatFreeConstrainedOp<'_> {
    fn dim(&self) -> usize {
        self.n
    }
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        for ((t, &xi), &c) in self.tmp.iter_mut().zip(x).zip(self.mask) {
            *t = if c { 0.0 } else { xi };
        }
        SumfacMassKernel.compute_with(
            self.shape,
            self.factors,
            self.svals,
            self.zone_dofs,
            self.n,
            self.tmp,
            y,
            self.local,
        );
        for (yi, (&c, &xi)) in y.iter_mut().zip(self.mask.iter().zip(x)) {
            if c {
                *yi = xi;
            }
        }
    }
}

/// The state `(v, e, x)` a force evaluation reads.
type Fields<'a> = (&'a [f64], &'a [f64], &'a [f64]);

/// The tail's device leg: since when the host waits on `gpu`, and whether it solves too.
#[derive(Clone, Copy)]
struct DeviceLeg<'a> {
    gpu: &'a GpuDevice,
    since: f64,
    gpu_pcg: bool,
}

impl<const D: usize> Hydro<D> {
    fn project_constraints(&self, rhs: &mut [f64]) {
        let n = self.kin.num_dofs();
        for c in 0..D {
            for (i, &is_c) in self.constrained[c].iter().enumerate() {
                if is_c {
                    rhs[c * n + i] = 0.0;
                }
            }
        }
    }

    /// Dispatches the force evaluation. Persistent device faults surfacing
    /// from the GPU or hybrid path degrade the executor to CPU-only and
    /// re-evaluate there: fault injection fires *before* a kernel's
    /// functional body runs, so the failed evaluation never produced
    /// partial physics and the CPU redo is bit-identical to a pure-CPU run.
    pub(super) fn eval_force(
        &mut self,
        v: &[f64],
        e: &[f64],
        x: &[f64],
    ) -> Result<ForceEval, HydroError> {
        if self.exec.is_degraded() {
            return self.force_on_host((v, e, x));
        }
        // `Executor::new` rejects GPU / hybrid modes without a device.
        let attempt = match (self.exec.mode.clone(), self.exec.gpu.clone()) {
            (ExecMode::Gpu { base, gpu_pcg, .. }, Some(gpu)) => {
                self.force_on_device(&gpu, (v, e, x), base, gpu_pcg)
            }
            (ExecMode::Hybrid { .. }, Some(gpu)) => self.force_hybrid(&gpu, (v, e, x)),
            _ => return self.force_on_host((v, e, x)),
        };
        match attempt {
            Err(HydroError::Gpu(g)) => {
                self.exec.degrade_to_cpu(g.to_string());
                if let Some(b) = &mut self.exec.balancer {
                    b.force_ratio(0.0);
                }
                self.force_on_host((v, e, x))
            }
            other => other,
        }
    }

    fn check_mesh(&self, detj: &[f64]) -> Result<(), HydroError> {
        for (p, &d) in detj.iter().enumerate() {
            // `<= 0` or NaN both mean the zone geometry is unusable.
            if d <= 0.0 || d.is_nan() {
                return Err(HydroError::MeshTangled {
                    point: p,
                    zone: p / self.shape.npts,
                    detj: d,
                });
            }
        }
        Ok(())
    }

    /// NaN/Inf guard over a freshly computed field.
    fn check_finite(what: &'static str, field: &[f64]) -> Result<(), HydroError> {
        match field.iter().position(|v| !v.is_finite()) {
            Some(index) => Err(HydroError::NonFinite { what, index }),
            None => Ok(()),
        }
    }

    /// [`Executor::host_phase`] at the executor's thread count.
    pub(super) fn host_phase<R>(
        &self,
        name: &'static str,
        traffic: &Traffic,
        eff: f64,
        state: CpuPowerState,
        body: impl FnOnce() -> R,
    ) -> R {
        self.exec.host_phase(name, traffic, self.exec.cpu_threads(), eff, state, body).0
    }

    /// The kernel sequence of one corner-force evaluation, written once:
    /// the host phase and the hybrid launch run it [`Inline`], the device
    /// path as billed launches, to the same bits. Stored: the `A_z`
    /// pipeline, the mesh guard, kernels 7 and 8; matrix-free: one fused
    /// sum-factorized sweep, the guard, `d²` backward transforms. It fills
    /// the scratch's `fz` pool (`F_z`, or the per-point `D_z`), `pipe.detj` /
    /// `pipe.inv_dt` and the unprojected momentum RHS. `base_regs`: the
    /// `base` ablation (stored only) as the device's register limit — one
    /// monolithic `A_z` launch and kernel 7 at its v1 cost.
    pub(super) fn corner_force_on<L: KernelLauncher>(
        &self,
        on: &mut L,
        base_regs: Option<u32>,
        (v, e, x): Fields,
        ws: &mut StepScratch,
    ) -> Result<(), HydroError>
    where
        HydroError: From<L::Error>,
    {
        let (shape, n, zone_dofs) = (&self.shape, self.kin.num_dofs(), &self.zone_dofs[..]);
        let (alpha, rho0detj0) = (&self.rule.weights[..], &self.rho0detj0[..]);
        let StepScratch { pipe, fz, rhs, mom_local, .. } = ws;
        ensure_zeroed(rhs, D * n);
        match &self.assembly {
            Assembly::Stored { .. } => {
                let inp = AzInputs {
                    shape, x, v, e, num_h1_dofs: n, zone_dofs, kin_grads: &self.kin_table.grads,
                    thermo_vals: &self.thermo_table.values, alpha, rho0detj0,
                    consts: &self.consts, use_viscosity: self.use_viscosity,
                };
                let k7 = if let Some(regs) = base_regs {
                    MonolithicCornerForce.launch_on(on, regs, &inp, pipe)?;
                    FzKernel { variant: GemmVariant::V1, col_block: 0 }
                } else {
                    az_pipeline_on(on, &inp, pipe)?;
                    FzKernel::tuned()
                };
                self.check_mesh(&pipe.detj)?;
                fz.ensure(shape.nvdof(), shape.nthermo, shape.zones);
                let (k8, abft) = (MomentumRhsKernel, self.abft.as_ref());
                on.launch(
                    || Launch::new(FzKernel::NAME, k7.config(shape), k7.traffic(shape)),
                    || FzKernel::compute_with(shape, &pipe.az, inp.thermo_vals, fz, abft),
                )?;
                on.launch(
                    || Launch::new(MomentumRhsKernel::NAME, k8.config(shape), k8.traffic(shape)),
                    || MomentumRhsKernel::compute_with(shape, fz, zone_dofs, n, rhs, mom_local),
                )?;
            }
            Assembly::MatFree(MatFreeOps { factors: f, .. }) => {
                // Shaped, not cleared: the force kernel stores every entry.
                let total = shape.total_points();
                fz.ensure(D, D, total);
                pipe.detj.resize(total, 0.0);
                pipe.inv_dt.resize(total, 0.0);
                let (k, mom) =
                    (SumfacForceKernel { use_viscosity: self.use_viscosity }, SumfacMomentumKernel);
                on.launch(
                    || Launch::new(SumfacForceKernel::NAME, k.config(shape), k.traffic(shape, f)),
                    || {
                        k.compute(
                            shape, f, x, v, e, n, zone_dofs, alpha, rho0detj0, &self.consts, fz,
                            &mut pipe.detj, &mut pipe.inv_dt,
                        )
                    },
                )?;
                self.check_mesh(&pipe.detj)?;
                let name = SumfacMomentumKernel::NAME;
                on.launch(
                    || Launch::new(name, mom.config(shape), mom.traffic(shape, f)),
                    || mom.compute_with(shape, f, fz, zone_dofs, n, rhs, mom_local),
                )?;
            }
        }
        Ok(())
    }

    /// The one tail of a force evaluation, after [`Self::corner_force_on`]:
    /// CFL control, constraint projection, the momentum solve, and the
    /// force batch leaving the scratch with the solution (`try_step` hands
    /// both back). With a device leg the right-hand side is solved there
    /// (`gpu_pcg`) or shipped back as `-F·1` and solved on the host, idle
    /// meanwhile. The batch is taken last: a failed exit holds no pool.
    fn finish_force(
        &self,
        device: Option<DeviceLeg>,
        ws: &mut StepScratch,
    ) -> Result<ForceEval, HydroError> {
        let max_inv_dt = ws.pipe.inv_dt.iter().cloned().fold(0.0, f64::max);
        self.project_constraints(&mut ws.rhs);
        let on_device = match device {
            Some(DeviceLeg { gpu, gpu_pcg: true, .. }) => Some(self.solve_momentum(Some(gpu), ws)?),
            _ => None,
        };
        if let Some(DeviceLeg { gpu, since, .. }) = device {
            // The warm-start cache is committed only *after* the transfer:
            // if it fails, the host never saw the solution and the CPU redo
            // must start from the previous step's cache.
            if let Err(e) = gpu.d2h(D * self.kin.num_dofs() * 8) {
                if let Some((accel, _)) = on_device {
                    ws.accel = accel;
                }
                return Err(e.into());
            }
            if let Some((accel, _)) = &on_device {
                self.accel_prev.borrow_mut().copy_from_slice(accel);
            }
            self.exec.host.idle(gpu.now() - since);
        }
        let (accel, cg_iterations) = match on_device {
            Some(solved) => solved,
            None => self.solve_momentum(None, ws)?,
        };
        if let Err(e) = Self::check_finite("accel", &accel) {
            ws.accel = accel; // a rejected solution goes back to its pool
            return Err(e);
        }
        Ok(ForceEval { fz: std::mem::take(&mut ws.fz), accel, max_inv_dt, cg_iterations })
    }

    /// CPU force evaluation: one billed host phase around the inline sequence.
    fn force_on_host(&self, state: Fields) -> Result<ForceEval, HydroError> {
        let traffic = self.assembly.corner_force_traffic(&self.shape);
        let eff = self.exec.cf_eff(self.shape.order);
        let ws = &mut *self.scratch.borrow_mut();
        self.host_phase(names::phases::CORNER_FORCE, &traffic, eff, CpuPowerState::Busy, || {
            self.corner_force_on(&mut Inline, None, state, ws)
        })?;
        self.finish_force(None, ws)
    }

    /// The momentum solve (step 6): the `D` constrained component systems
    /// `M_V a_c = rhs_c` through the live assembly's operator, warm-started
    /// from the previous acceleration. The stored host leg advances all
    /// `D` in lock step — one CSR row sweep per iteration feeds every
    /// component — and each component's bits are those of its scalar
    /// solve, which is what the other two legs still run, one component at
    /// a time: on `device` kernel 9 issues every sweep of a stored solve
    /// as a launch, and the matrix-free solve runs on the host (billed on
    /// a device as one launch per component, the mass-apply sweeps a fused
    /// device solver would execute). A stalled component is reported as
    /// the sequential loop reports it: the lowest one, nothing counted
    /// after it.
    ///
    /// After a device solve the caller commits the warm-start cache once
    /// the solution has crossed back. Otherwise the host timeline is
    /// charged and the cache committed here — on full success only, so a
    /// stalled solve ([`HydroError::PcgBreakdown`]) or a lost device leaves
    /// nothing behind for the rollback or the redo.
    fn solve_momentum(
        &self,
        device: Option<&GpuDevice>,
        ws: &mut StepScratch,
    ) -> Result<(Vec<f64>, usize), HydroError> {
        use names::counters;
        // The projected right-hand side stays in the scratch; the
        // acceleration leaves its pool for the returned ForceEval (handed
        // back by `try_step` once consumed, or below on failure).
        let StepScratch { rhs, accel: accel_pool, pcg, mom_local, .. } = ws;
        let mut accel = std::mem::take(accel_pool);
        let n = self.kin.num_dofs();
        let shape = &self.shape;
        let opts = &self.pcg_opts;
        let tel = self.exec.telemetry();
        let iter_traffic = self.assembly.cg_iteration_traffic(shape, n, opts.fused);
        accel.clone_from(&self.accel_prev.borrow());
        let mut total_iters = 0;
        // One component's outcome, in component order.
        let mut record = |res: &PcgResult| {
            tel.counter_add(counters::PCG_SOLVES, 1);
            tel.counter_add(counters::PCG_ITERATIONS, res.iterations as u64);
            if !res.converged {
                tel.counter_add(counters::PCG_BREAKDOWNS, 1);
                return Err(HydroError::PcgBreakdown {
                    residual: res.residual,
                    iterations: res.iterations,
                });
            }
            total_iters += res.iterations;
            Ok(())
        };
        let at = |c: usize| c * n..(c + 1) * n;
        let solved = match (&self.assembly, device) {
            (Assembly::Stored { mv }, None) => {
                let masks: [&[bool]; D] = std::array::from_fn(|c| &self.constrained[c][..]);
                let staging = blast_la::stream::wide_lanes(D) * n;
                let results: [PcgResult; D] =
                    pcg.with_operator_scratch(staging, |tmp, pcg| {
                        pcg_solve_lockstep_ws(
                            &mut ConstrainedOp { a: mv, masks: &masks, tmp },
                            &self.mv_precond,
                            rhs,
                            &mut accel,
                            opts,
                            pcg,
                        )
                    });
                results.iter().try_for_each(&mut record)
            }
            (Assembly::Stored { mv }, Some(gpu)) => (0..D).try_for_each(|c| {
                let res = GpuPcg { opts: *opts }.solve_ws(
                    gpu,
                    mv,
                    &self.mv_precond,
                    &rhs[at(c)],
                    &self.constrained[c],
                    &mut accel[at(c)],
                    pcg,
                )?;
                record(&res)
            }),
            (Assembly::MatFree(mf), _) => (0..D).try_for_each(|c| {
                let res = pcg.with_operator_scratch(n, |tmp, pcg| {
                    pcg_solve_ws(
                        &mut MatFreeConstrainedOp {
                            shape,
                            factors: &mf.factors,
                            svals: &mf.svals,
                            zone_dofs: &self.zone_dofs,
                            n,
                            mask: &self.constrained[c],
                            tmp,
                            local: &mut *mom_local,
                        },
                        &self.mv_precond,
                        &rhs[at(c)],
                        &mut accel[at(c)],
                        opts,
                        pcg,
                    )
                });
                record(&res)?;
                if let Some(gpu) = device {
                    gpu.launch(
                        SumfacMassKernel::NAME,
                        &SumfacMassKernel.config(shape),
                        &iter_traffic.scale(res.iterations as f64),
                        || (),
                    )?;
                }
                Ok(())
            }),
        };
        if let Err(e) = solved {
            *accel_pool = accel;
            return Err(e);
        }
        if device.is_none() {
            self.accel_prev.borrow_mut().copy_from_slice(&accel);
            // The model bills every component its own stream over the
            // operator (warm-starting keeps the iteration counts low).
            let state = if matches!(self.exec.mode, ExecMode::Gpu { .. }) {
                CpuPowerState::GpuOffload
            } else {
                CpuPowerState::Busy
            };
            let traffic = iter_traffic.scale(total_iters as f64);
            self.host_phase(names::phases::CG_SOLVER, &traffic, CG_CPU_EFF, state, || ());
        }
        Ok((accel, total_iters))
    }

    /// GPU force evaluation: ship the state (§3.1.2), issue the sequence as
    /// launches out of the same step scratch, then the tail's device leg.
    fn force_on_device(
        &self,
        gpu: &GpuDevice,
        state: Fields,
        base: bool,
        gpu_pcg: bool,
    ) -> Result<ForceEval, HydroError> {
        let since = gpu.now();
        gpu.h2d((2 * D * self.kin.num_dofs() + self.thermo.num_dofs()) * 8)?;
        let ws = &mut *self.scratch.borrow_mut();
        let base_regs = base.then(|| gpu.spec().max_regs_per_thread);
        self.corner_force_on(&mut &*gpu, base_regs, state, ws)?;
        self.finish_force(Some(DeviceLeg { gpu, since, gpu_pcg }), ws)
    }

    /// Hybrid force evaluation (§3.3): the zone split costs the GPU and
    /// CPU shares separately at the current ratio — with the live
    /// assembly's traffic, so the balancer's converged ratio differs
    /// between stored and matrix-free — and the two overlap in wall-clock.
    fn force_hybrid(&mut self, gpu: &GpuDevice, state: Fields) -> Result<ForceEval, HydroError> {
        let n = self.kin.num_dofs();
        let shape = self.shape;
        // Invariant: `Executor::new` always pairs Hybrid with a balancer.
        let ratio = self.exec.balancer.as_ref().expect("hybrid has balancer").ratio();

        // Functional execution happens once, inline inside the GPU-share
        // launch; the two shares are *costed* separately at the current
        // zone split and overlap in wall-clock (§3.3: "after the launch of
        // CUDA kernels, control can return to a host thread ... each
        // [OpenMP] thread allocates private working space and executes").
        let total_traffic = self.assembly.corner_force_traffic(&shape);
        let gpu_traffic = total_traffic.scale(ratio);
        let cpu_traffic = total_traffic.scale(1.0 - ratio);
        let gpu_zones = ((shape.zones as f64) * ratio).round().max(1.0) as u32;
        let cfg = LaunchConfig::new(gpu_zones, 256, 8 * 1024, 48);

        gpu.h2d(((2 * D * n + self.thermo.num_dofs()) as f64 * 8.0 * ratio) as usize)?;
        let ws = &mut *self.scratch.borrow_mut();
        let t0g = gpu.now();
        let (ran, _) = gpu.launch(names::phases::CORNER_FORCE_HYBRID, &cfg, &gpu_traffic, || {
            self.corner_force_on(&mut Inline, None, state, ws)
        })?;
        let t_gpu = gpu.now() - t0g;

        let (_, t_cpu) = self.exec.host.run_phase(
            names::phases::CORNER_FORCE_HYBRID_CPU,
            &cpu_traffic,
            self.exec.cpu_threads(),
            self.exec.cf_eff(self.shape.order),
            CpuPowerState::Busy,
            || (),
        );

        // Synchronize: "a synchronization between the CPU and the GPU is
        // required to complete the corner force calculation".
        if t_gpu > t_cpu {
            self.exec.host.idle(t_gpu - t_cpu);
        } else {
            gpu.idle(t_cpu - t_gpu);
        }
        if let Some(b) = &mut self.exec.balancer {
            b.record_period(t_gpu, t_cpu);
        }
        ran?;
        self.finish_force(None, ws)
    }

    /// Energy rate `de/dt = M_E^{-1} F^T v_avg` (kernels 10 + 11). A
    /// persistent device fault here degrades the executor and recomputes on
    /// the CPU into fresh buffers (the faulted attempt's partial output is
    /// discarded), so the result is bit-identical to a pure-CPU evaluation.
    pub(super) fn energy_rate(
        &self,
        fz: &BatchedMats,
        v_avg: &[f64],
    ) -> Result<Vec<f64>, HydroError> {
        if !self.exec.is_degraded() {
            if let (ExecMode::Gpu { .. }, Some(gpu)) = (&self.exec.mode, &self.exec.gpu) {
                match self.energy_rate_on(Some(gpu.as_ref()), fz, v_avg) {
                    Err(HydroError::Gpu(g)) => self.exec.degrade_to_cpu(g.to_string()),
                    other => return other,
                }
            }
        }
        self.energy_rate_on(None, fz, v_avg)
    }

    /// Kernels 10 + 11, written once: `rhs_e = F^T v_avg` from what the
    /// force evaluation persisted (`F_z` or `D_z`), then `de = M_E^{-1} rhs_e`.
    fn energy_kernels_on<L: KernelLauncher>(
        &self,
        on: &mut L,
        fz: &BatchedMats,
        v_avg: &[f64],
        rhs_e: &mut [f64],
        de: &mut [f64],
    ) -> Result<(), L::Error> {
        let (shape, n, dofs) = (&self.shape, self.kin.num_dofs(), &self.zone_dofs[..]);
        on.launch(
            || self.assembly.energy_rhs_launch(shape),
            || match &self.assembly {
                Assembly::Stored { .. } => {
                    EnergyRhsKernel::compute(shape, fz, v_avg, dofs, n, rhs_e)
                }
                Assembly::MatFree(mf) => {
                    SumfacEnergyKernel.compute(shape, &mf.factors, fz, v_avg, dofs, n, rhs_e)
                }
            },
        )?;
        on.launch(|| self.inv_mass_launch(), || self.me_inv.apply(rhs_e, de))
    }

    /// What kernel 11 bills for `M_E^{-1}`.
    fn inv_mass_launch(&self) -> Launch {
        let (k11, m) = (SpmvKernel, &self.me_inv);
        Launch::new(SpmvKernel::NAME, k11.config(m.dim()), k11.block_diag_traffic(m))
    }

    /// One leg: two device launches and the transfer back, or one host phase.
    fn energy_rate_on(
        &self,
        device: Option<&GpuDevice>,
        fz: &BatchedMats,
        v_avg: &[f64],
    ) -> Result<Vec<f64>, HydroError> {
        let nth = self.thermo.num_dofs();
        let ws = &mut *self.scratch.borrow_mut();
        ensure_zeroed(&mut ws.rhs_e, nth);
        // The de/dt vector leaves the scratch pool for the caller
        // (`try_step` hands it back once consumed).
        let mut de = std::mem::take(&mut ws.de);
        ensure_zeroed(&mut de, nth);
        let computed = match device {
            Some(mut gpu) => (|| {
                let t0 = gpu.now();
                self.energy_kernels_on(&mut gpu, fz, v_avg, &mut ws.rhs_e, &mut de)?;
                gpu.d2h(de.len() * 8)?;
                self.exec.host.idle(gpu.now() - t0);
                Ok(())
            })(),
            None => {
                let rhs = self.assembly.energy_rhs_launch(&self.shape).traffic;
                let traffic = rhs.add(&self.inv_mass_launch().traffic);
                let (name, busy) = (names::phases::ENERGY_SOLVE, CpuPowerState::Busy);
                let Ok(()) = self.host_phase(name, &traffic, CG_CPU_EFF, busy, || {
                    self.energy_kernels_on(&mut Inline, fz, v_avg, &mut ws.rhs_e, &mut de)
                });
                Ok(())
            }
        };
        if let Err(e) = computed.and_then(|()| Self::check_finite("de/dt", &de)) {
            ws.de = de; // hand the pool buffer back
            return Err(e);
        }
        Ok(de)
    }
}
