//! Force evaluation (the corner-force hot spot): the [`Assembly`] operator
//! axis, one evaluation body per backend (host, device, hybrid), the
//! momentum solve, and the energy rate.

use blast_kernels::base::{
    compute_az_pipeline_into, launch_az_pipeline_into, MonolithicCornerForce,
};
use blast_kernels::k11::SpmvKernel;
use blast_kernels::k7::FzKernel;
use blast_kernels::k8_10::{EnergyRhsKernel, MomentumRhsKernel};
use blast_kernels::k9::GpuPcg;
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

    /// Traffic of the energy right-hand side `F^T v` (kernel 10 or its
    /// sum-factorized replacement).
    fn energy_rhs_traffic(&self, shape: &ProblemShape) -> Traffic {
        match self {
            Assembly::Stored { .. } => EnergyRhsKernel.traffic(shape),
            Assembly::MatFree(mf) => SumfacEnergyKernel.traffic(shape, &mf.factors),
        }
    }

    /// `rhs_e = F^T v_avg` from whatever the force evaluation persisted
    /// (`F_z` stored, `D_z` matrix-free).
    fn energy_rhs(
        &self,
        shape: &ProblemShape,
        fz: &BatchedMats,
        v_avg: &[f64],
        zone_dofs: &[usize],
        n: usize,
        rhs_e: &mut [f64],
    ) {
        match self {
            Assembly::Stored { .. } => {
                EnergyRhsKernel::compute(shape, fz, v_avg, zone_dofs, n, rhs_e)
            }
            Assembly::MatFree(mf) => {
                SumfacEnergyKernel.compute(shape, &mf.factors, fz, v_avg, zone_dofs, n, rhs_e)
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
            return self.force_on_host(v, e, x);
        }
        // `Executor::new` rejects GPU / hybrid modes without a device.
        let attempt = match (self.exec.mode.clone(), self.exec.gpu.clone()) {
            (ExecMode::Gpu { base, gpu_pcg, .. }, Some(gpu)) => {
                self.force_on_device(&gpu, v, e, x, base, gpu_pcg)
            }
            (ExecMode::Hybrid { .. }, Some(gpu)) => self.force_hybrid(&gpu, v, e, x),
            _ => return self.force_on_host(v, e, x),
        };
        match attempt {
            Err(HydroError::Gpu(g)) => {
                self.exec.degrade_to_cpu(g.to_string());
                if let Some(b) = &mut self.exec.balancer {
                    b.force_ratio(0.0);
                }
                self.force_on_host(v, e, x)
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

    /// The host functional body of one corner-force evaluation: fills the
    /// scratch's `fz` pool (the `F_z` batch, or the `d x d` per-point `D_z`
    /// batch matrix-free), `pipe.detj` / `pipe.inv_dt`, and the unprojected
    /// momentum RHS. Stored: the `A_z` pipeline + kernels 7 and 8;
    /// matrix-free: one fused sum-factorized sweep + `d²` backward
    /// transforms.
    fn corner_force_into(&self, v: &[f64], e: &[f64], x: &[f64], ws: &mut StepScratch) {
        let n = self.kin.num_dofs();
        let shape = &self.shape;
        match &self.assembly {
            Assembly::Stored { .. } => {
                compute_az_pipeline_into(
                    shape,
                    x,
                    v,
                    e,
                    n,
                    &self.zone_dofs,
                    &self.kin_table.grads,
                    &self.thermo_table.values,
                    &self.rule.weights,
                    &self.rho0detj0,
                    &self.consts,
                    self.use_viscosity,
                    &mut ws.pipe,
                );
                ws.fz.ensure(shape.nvdof(), shape.nthermo, shape.zones);
                FzKernel::compute_with(
                    shape,
                    &ws.pipe.az,
                    &self.thermo_table.values,
                    &mut ws.fz,
                    self.abft.as_ref(),
                );
                ensure_zeroed(&mut ws.rhs, D * n);
                MomentumRhsKernel::compute_with(
                    shape,
                    &ws.fz,
                    &self.zone_dofs,
                    n,
                    &mut ws.rhs,
                    &mut ws.mom_local,
                );
            }
            Assembly::MatFree(mf) => {
                let total = shape.total_points();
                ws.fz.ensure(D, D, total);
                if ws.pipe.detj.len() != total {
                    ws.pipe.detj.resize(total, 0.0);
                }
                if ws.pipe.inv_dt.len() != total {
                    ws.pipe.inv_dt.resize(total, 0.0);
                }
                SumfacForceKernel { use_viscosity: self.use_viscosity }.compute(
                    shape,
                    &mf.factors,
                    x,
                    v,
                    e,
                    n,
                    &self.zone_dofs,
                    &self.rule.weights,
                    &self.rho0detj0,
                    &self.consts,
                    &mut ws.fz,
                    &mut ws.pipe.detj,
                    &mut ws.pipe.inv_dt,
                );
                ensure_zeroed(&mut ws.rhs, D * n);
                SumfacMomentumKernel.compute_with(
                    shape,
                    &mf.factors,
                    &ws.fz,
                    &self.zone_dofs,
                    n,
                    &mut ws.rhs,
                    &mut ws.mom_local,
                );
            }
        }
    }

    /// Shared tail of the host and hybrid evaluations, after
    /// [`Self::corner_force_into`] ran: mesh guard, then the momentum
    /// system is solved on the host and the force batch leaves the scratch
    /// with the solution (`try_step` hands both pool buffers back once
    /// consumed). The batch is taken last, so a failed guard or solve
    /// leaves every pool where the redo will look for it.
    fn finish_host_force(&self) -> Result<ForceEval, HydroError> {
        let mut ws = self.scratch.borrow_mut();
        let ws = &mut *ws;
        self.check_mesh(&ws.pipe.detj)?;
        let max_inv_dt = ws.pipe.inv_dt.iter().cloned().fold(0.0, f64::max);
        self.project_constraints(&mut ws.rhs);
        let (accel, cg_iterations) = self.solve_momentum(None, ws)?;
        let accel = Self::finite_accel(accel, ws)?;
        Ok(ForceEval { fz: std::mem::take(&mut ws.fz), accel, max_inv_dt, cg_iterations })
    }

    /// NaN/Inf guard over a solved acceleration; a rejected one goes back
    /// to its pool.
    fn finite_accel(accel: Vec<f64>, ws: &mut StepScratch) -> Result<Vec<f64>, HydroError> {
        match Self::check_finite("accel", &accel) {
            Ok(()) => Ok(accel),
            Err(e) => {
                ws.accel = accel;
                Err(e)
            }
        }
    }

    /// CPU force evaluation: one billed host phase around the functional
    /// body, then the host momentum solve.
    fn force_on_host(&self, v: &[f64], e: &[f64], x: &[f64]) -> Result<ForceEval, HydroError> {
        let traffic = self.assembly.corner_force_traffic(&self.shape);
        let ((), t) = self.exec.host.run_phase(
            names::phases::CORNER_FORCE,
            &traffic,
            self.exec.cpu_threads(),
            self.exec.cf_eff(self.shape.order),
            CpuPowerState::Busy,
            || self.corner_force_into(v, e, x, &mut self.scratch.borrow_mut()),
        );
        if let Some(g) = &self.exec.gpu {
            g.idle(t);
        }
        self.finish_host_force()
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
            if opts.fused {
                // 3 fused sweeps per iteration + the setup precond_dot_update.
                tel.counter_add(counters::PCG_FUSED_SWEEPS, 3 * res.iterations as u64 + 1);
            }
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
            let (_, t) = self.exec.host.run_phase(
                names::phases::CG_SOLVER,
                &iter_traffic.scale(total_iters as f64),
                self.exec.cpu_threads(),
                CG_CPU_EFF,
                state,
                || (),
            );
            if let Some(g) = &self.exec.gpu {
                g.idle(t);
            }
        }
        Ok((accel, total_iters))
    }

    /// GPU force evaluation: ship the state, run the assembly's kernel
    /// pipeline down to the momentum RHS, then solve on the device
    /// (`gpu_pcg`) or ship `-F·1` back and solve on the host. The working
    /// set comes from the step scratch exactly as on the host, so a
    /// steady-state device evaluation allocates nothing either (the
    /// `base` ablation's monolithic launch still returns fresh buffers).
    fn force_on_device(
        &self,
        gpu: &GpuDevice,
        v: &[f64],
        e: &[f64],
        x: &[f64],
        base: bool,
        gpu_pcg: bool,
    ) -> Result<ForceEval, HydroError> {
        let n = self.kin.num_dofs();
        let shape = self.shape;
        let t0 = gpu.now();

        // Ship (v, e, x) to the device (§3.1.2).
        gpu.h2d((2 * D * n + self.thermo.num_dofs()) * 8)?;

        let mut ws = self.scratch.borrow_mut();
        let ws = &mut *ws;
        ensure_zeroed(&mut ws.rhs, D * n);
        match &self.assembly {
            Assembly::Stored { .. } => {
                if base {
                    let (pipe, _stats) = MonolithicCornerForce.run(
                        gpu,
                        &shape,
                        x,
                        v,
                        e,
                        n,
                        &self.zone_dofs,
                        &self.kin_table.grads,
                        &self.thermo_table.values,
                        &self.rule.weights,
                        &self.rho0detj0,
                        &self.consts,
                        self.use_viscosity,
                    )?;
                    ws.pipe.az = pipe.az;
                    ws.pipe.inv_dt = pipe.inv_dt;
                    ws.pipe.detj = pipe.detj;
                } else {
                    // The optimized kernel pipeline (Table 2 / Fig. 6 right).
                    launch_az_pipeline_into(
                        gpu,
                        &shape,
                        x,
                        v,
                        e,
                        n,
                        &self.zone_dofs,
                        &self.kin_table.grads,
                        &self.thermo_table.values,
                        &self.rule.weights,
                        &self.rho0detj0,
                        &self.consts,
                        self.use_viscosity,
                        &mut ws.pipe,
                    )?;
                }
                self.check_mesh(&ws.pipe.detj)?;

                // Kernel 7: F_z, and kernel 8: the momentum RHS.
                let k7 = if base {
                    FzKernel { variant: GemmVariant::V1, col_block: 0 }
                } else {
                    FzKernel::tuned()
                };
                ws.fz.ensure(shape.nvdof(), shape.nthermo, shape.zones);
                k7.run(
                    gpu,
                    &shape,
                    &ws.pipe.az,
                    &self.thermo_table.values,
                    &mut ws.fz,
                    self.abft.as_ref(),
                )?;
                let k8 = MomentumRhsKernel;
                gpu.launch(
                    MomentumRhsKernel::NAME,
                    &k8.config(&shape),
                    &k8.traffic(&shape),
                    || {
                        MomentumRhsKernel::compute_with(
                            &shape,
                            &ws.fz,
                            &self.zone_dofs,
                            n,
                            &mut ws.rhs,
                            &mut ws.mom_local,
                        );
                    },
                )?;
            }
            // One fused force launch + one momentum launch; the `base`
            // (monolithic) ablation only exists for the stored pipeline.
            Assembly::MatFree(mf) => {
                let total = shape.total_points();
                ws.fz.ensure(D, D, total);
                ensure_zeroed(&mut ws.pipe.detj, total);
                ensure_zeroed(&mut ws.pipe.inv_dt, total);
                SumfacForceKernel { use_viscosity: self.use_viscosity }.run(
                    gpu,
                    &shape,
                    &mf.factors,
                    x,
                    v,
                    e,
                    n,
                    &self.zone_dofs,
                    &self.rule.weights,
                    &self.rho0detj0,
                    &self.consts,
                    &mut ws.fz,
                    &mut ws.pipe.detj,
                    &mut ws.pipe.inv_dt,
                )?;
                self.check_mesh(&ws.pipe.detj)?;

                let mom = SumfacMomentumKernel;
                gpu.launch(
                    SumfacMomentumKernel::NAME,
                    &mom.config(&shape),
                    &mom.traffic(&shape, &mf.factors),
                    || {
                        mom.compute_with(
                            &shape,
                            &mf.factors,
                            &ws.fz,
                            &self.zone_dofs,
                            n,
                            &mut ws.rhs,
                            &mut ws.mom_local,
                        );
                    },
                )?;
            }
        }
        let max_inv_dt = ws.pipe.inv_dt.iter().cloned().fold(0.0, f64::max);
        self.project_constraints(&mut ws.rhs);
        let on_device = if gpu_pcg { Some(self.solve_momentum(Some(gpu), ws)?) } else { None };

        // Ship dv/dt (device solve) or -F·1 (host solve) back. The
        // warm-start cache is committed only *after* the transfer: if it
        // fails, the host never saw the solution and the CPU redo must
        // start from the previous step's cache.
        if let Err(e) = gpu.d2h(D * n * 8) {
            if let Some((accel, _)) = on_device {
                ws.accel = accel;
            }
            return Err(e.into());
        }
        if let Some((accel, _)) = &on_device {
            self.accel_prev.borrow_mut().copy_from_slice(accel);
        }
        // Host waited on the device for the whole evaluation.
        self.exec.host.idle(gpu.now() - t0);
        let (accel, cg_iterations) = match on_device {
            Some(solved) => solved,
            None => self.solve_momentum(None, ws)?,
        };
        let accel = Self::finite_accel(accel, ws)?;
        // Taken last, as in `finish_host_force`: no exit above holds a pool.
        Ok(ForceEval { fz: std::mem::take(&mut ws.fz), accel, max_inv_dt, cg_iterations })
    }

    /// Hybrid force evaluation (§3.3): the zone split costs the GPU and
    /// CPU shares separately at the current ratio — with the live
    /// assembly's traffic, so the balancer's converged ratio differs
    /// between stored and matrix-free — and the two overlap in wall-clock.
    fn force_hybrid(
        &mut self,
        gpu: &GpuDevice,
        v: &[f64],
        e: &[f64],
        x: &[f64],
    ) -> Result<ForceEval, HydroError> {
        let n = self.kin.num_dofs();
        let shape = self.shape;
        // Invariant: `Executor::new` always pairs Hybrid with a balancer.
        let ratio = self.exec.balancer.as_ref().expect("hybrid has balancer").ratio();

        // Functional execution happens once, inside the GPU-share launch;
        // the two shares are *costed* separately at the current zone split
        // and overlap in wall-clock (§3.3: "after the launch of CUDA
        // kernels, control can return to a host thread ... each [OpenMP]
        // thread allocates private working space and executes").
        let total_traffic = self.assembly.corner_force_traffic(&shape);
        let gpu_traffic = total_traffic.scale(ratio);
        let cpu_traffic = total_traffic.scale(1.0 - ratio);
        let gpu_zones = ((shape.zones as f64) * ratio).round().max(1.0) as u32;
        let cfg = LaunchConfig::new(gpu_zones, 256, 8 * 1024, 48);

        gpu.h2d(((2 * D * n + self.thermo.num_dofs()) as f64 * 8.0 * ratio) as usize)?;
        let t0g = gpu.now();
        gpu.launch(names::phases::CORNER_FORCE_HYBRID, &cfg, &gpu_traffic, || {
            self.corner_force_into(v, e, x, &mut self.scratch.borrow_mut())
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
        self.finish_host_force()
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

    /// Kernels 10 + 11 on one leg: the device is billed two launches and
    /// the transfer back, the host one phase.
    fn energy_rate_on(
        &self,
        device: Option<&GpuDevice>,
        fz: &BatchedMats,
        v_avg: &[f64],
    ) -> Result<Vec<f64>, HydroError> {
        let n = self.kin.num_dofs();
        let shape = &self.shape;
        let nth = self.thermo.num_dofs();
        let rhs_traffic = self.assembly.energy_rhs_traffic(shape);
        let mut ws = self.scratch.borrow_mut();
        let ws = &mut *ws;
        ensure_zeroed(&mut ws.rhs_e, nth);
        // The de/dt vector leaves the scratch pool for the caller
        // (`try_step` hands it back once consumed).
        let mut de = std::mem::take(&mut ws.de);
        ensure_zeroed(&mut de, nth);
        let energy_rhs = |rhs_e: &mut [f64]| {
            self.assembly.energy_rhs(shape, fz, v_avg, &self.zone_dofs, n, rhs_e)
        };
        let computed = match device {
            Some(gpu) => (|| {
                let t0 = gpu.now();
                let (name, cfg) = match &self.assembly {
                    Assembly::Stored { .. } => {
                        (EnergyRhsKernel::NAME, EnergyRhsKernel.config(shape))
                    }
                    Assembly::MatFree(_) => {
                        (SumfacEnergyKernel::NAME, SumfacEnergyKernel.config(shape))
                    }
                };
                gpu.launch(name, &cfg, &rhs_traffic, || energy_rhs(&mut ws.rhs_e))?;
                SpmvKernel.run(gpu, &self.me_inv, &ws.rhs_e, &mut de)?;
                gpu.d2h(de.len() * 8)?;
                self.exec.host.idle(gpu.now() - t0);
                Ok(())
            })(),
            None => {
                let ((), t) = self.exec.host.run_phase(
                    names::phases::ENERGY_SOLVE,
                    &rhs_traffic.add(&SpmvKernel.block_diag_traffic(&self.me_inv)),
                    self.exec.cpu_threads(),
                    CG_CPU_EFF,
                    CpuPowerState::Busy,
                    || {
                        energy_rhs(&mut ws.rhs_e);
                        self.me_inv.apply(&ws.rhs_e, &mut de);
                    },
                );
                if let Some(g) = &self.exec.gpu {
                    g.idle(t);
                }
                Ok(())
            }
        };
        match computed.and_then(|()| Self::check_finite("de/dt", &de)) {
            Ok(()) => Ok(de),
            Err(e) => {
                ws.de = de; // hand the pool buffer back
                Err(e)
            }
        }
    }
}
