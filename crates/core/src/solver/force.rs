//! Force evaluation (the corner-force hot spot): the [`Assembly`] operator
//! axis, the kernel sequence of one evaluation written once over a
//! `KernelLauncher`, the billing envelope each backend (host, device,
//! hybrid) puts around it, the momentum solve, and the energy rate.

use blast_kernels::base::{stress_pipeline_on, AzInputs, MonolithicCornerForce};
use blast_kernels::k11::SpmvKernel;
use blast_kernels::k4::AzKernel;
use blast_kernels::k7::FzKernel;
use blast_kernels::k8_10::{EnergyRhsKernel, MomentumRhsKernel};
use blast_kernels::launch::{Inline, KernelLauncher, Launch};
use blast_kernels::sumfac::{
    AssemblyMode, SumfacEnergyKernel, SumfacFactors, SumfacForceKernel, SumfacMassKernel,
    SumfacMomentumKernel,
};
use blast_kernels::{GemmVariant, ProblemShape};
use blast_la::{
    pcg_solve_lockstep_ws, pcg_solve_on, ConstrainedOp, CsrMatrix, HostSweeps, LinearOperator,
    PcgResult,
};
use blast_telemetry::names;
use gpu_sim::{GpuDevice, LaunchConfig, Traffic};
use powermon::CpuPowerState;

use super::{ensure_zeroed, overshoots, Cfl, EvalScratch, ForceEval, Hydro, Reach};
use crate::error::HydroError;
use crate::exec::{
    cf_cpu_eff, cg_iteration_traffic, cg_iteration_traffic_fused, cg_iteration_traffic_matfree,
    corner_force_traffic, corner_force_traffic_matfree, verdict_traffic, verdict_traffic_matfree,
    ExecMode, CG_CPU_EFF,
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
/// factor tables and the per-point kinematic mass scale factors
/// `svals[p] = α_{p mod npts} ρ0|J0|(p)` (frozen in the Lagrangian
/// frame, like the stored matrix they replace).
pub(super) struct MatFreeOps {
    pub(super) factors: SumfacFactors,
    pub(super) svals: Vec<f64>,
}

impl Assembly {
    pub(super) fn mode(&self) -> AssemblyMode {
        match self {
            Assembly::Stored { .. } => AssemblyMode::Stored,
            Assembly::MatFree(_) => AssemblyMode::MatrixFree,
        }
    }

    /// Corner-force traffic of one force evaluation: the whole phase, or
    /// (`doomed`) only what ran before the CFL verdict.
    fn corner_force_traffic(&self, shape: &ProblemShape, doomed: bool) -> Traffic {
        match (self, doomed) {
            (Assembly::Stored { .. }, false) => corner_force_traffic(shape),
            (Assembly::Stored { .. }, true) => verdict_traffic(shape),
            (Assembly::MatFree(mf), false) => corner_force_traffic_matfree(shape, &mf.factors),
            (Assembly::MatFree(mf), true) => verdict_traffic_matfree(shape, &mf.factors),
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

    /// `y = M_V x` for one scalar component (`y` is fully overwritten);
    /// `local` is the matrix-free apply's grow-only zone staging.
    pub(super) fn mass_apply(
        &self,
        shape: &ProblemShape,
        zone_dofs: &[usize],
        x: &[f64],
        y: &mut [f64],
        local: &mut Vec<f64>,
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
                local,
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

/// The SpMV-free constrained operator `P_c M_V P_c + (I − P_c)` of `d ≥ 1`
/// velocity components, `P_c` zeroing the DOFs component `c`'s mask marks —
/// the projection semantics of the stored [`ConstrainedOp`] with no matrix
/// anywhere. With one mask it is a scalar operator; with `d` its `d`-wide
/// apply feeds every component from one zone pass
/// ([`SumfacMassKernel::compute_wide`]: the mask applied during the gather,
/// the zone's `svals` read once, one serial zone-order scatter), then
/// restores the identity rows and takes one `stream::dot` per component, so
/// each component's bits are those of its own scalar apply. The apply is
/// bitwise-deterministic at every thread count, so the whole PCG is — which
/// is why the CPU and GPU momentum solves share this one type.
pub struct MatFreeConstrainedOp<'a> {
    /// Problem shape (zones, per-zone DOFs and points).
    pub shape: &'a ProblemShape,
    /// The 1D factor tables.
    pub factors: &'a SumfacFactors,
    /// Per-point mass scale factors `α_k ρ0|J0|` (`zones · npts`).
    pub svals: &'a [f64],
    /// Zone-to-global kinematic DOF map (`zones · nkin`).
    pub zone_dofs: &'a [usize],
    /// Scalar DOFs per component.
    pub n: usize,
    /// One mask per component; `true` marks a constrained entry.
    pub masks: &'a [&'a [bool]],
    /// Zone staging, `zones · d · nkin` (grow-only).
    pub local: &'a mut Vec<f64>,
}

impl LinearOperator for MatFreeConstrainedOp<'_> {
    fn dim(&self) -> usize {
        self.n
    }
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.apply_wide(x, y);
    }
    fn apply_wide(&mut self, x: &[f64], y: &mut [f64]) {
        let Self { shape, factors, svals, zone_dofs, n, masks, .. } = *self;
        SumfacMassKernel.compute_wide(shape, factors, svals, zone_dofs, n, masks, x, y, self.local);
        for ((yc, xc), mask) in y.chunks_exact_mut(n).zip(x.chunks_exact(n)).zip(masks) {
            for ((yi, &xi), &c) in yc.iter_mut().zip(xc).zip(*mask) {
                if c {
                    *yi = xi;
                }
            }
        }
    }
    fn apply_dot_wide(&mut self, x: &[f64], y: &mut [f64], dots: &mut [f64]) {
        self.apply_wide(x, y);
        let n = self.n;
        for ((dot, xc), yc) in dots.iter_mut().zip(x.chunks_exact(n)).zip(y.chunks_exact(n)) {
            *dot = blast_la::stream::dot(xc, yc);
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
        state: Fields,
        reach: Reach,
        ws: &mut EvalScratch,
    ) -> Result<ForceEval, HydroError> {
        if self.exec.is_degraded() {
            return self.force_on_host(state, reach, ws);
        }
        // `Executor::new` rejects GPU / hybrid modes without a device.
        let attempt = match (self.exec.mode.clone(), self.exec.gpu.clone()) {
            (ExecMode::Gpu { base, gpu_pcg, .. }, Some(gpu)) => {
                self.force_on_device(&gpu, state, base, gpu_pcg, reach, ws)
            }
            (ExecMode::Hybrid { .. }, Some(gpu)) => self.force_hybrid(&gpu, state, reach, ws),
            _ => return self.force_on_host(state, reach, ws),
        };
        match attempt {
            Err(HydroError::Gpu(g)) => {
                self.exec.degrade_to_cpu(g.to_string());
                if let Some(b) = &mut self.exec.balancer {
                    b.force_ratio(0.0);
                }
                self.force_on_host(state, reach, ws)
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

    /// The CFL estimate of an evaluation whose largest `inv_dt` is this.
    pub(super) fn dt_est(&self, max_inv_dt: f64) -> f64 {
        self.cfl / max_inv_dt.max(1e-300)
    }

    /// The CFL control of `inv_dt`, and the verdict on an attempt at `cap`.
    fn cfl_control(&self, inv_dt: &[f64], cap: Option<f64>) -> Cfl {
        let max_inv_dt = inv_dt.iter().cloned().fold(0.0, f64::max);
        let doomed = cap.is_some_and(|dt| overshoots(self.dt_est(max_inv_dt), dt));
        Cfl { max_inv_dt, doomed }
    }

    /// The verdict point of [`Self::corner_force_on`]: the mesh guard, then
    /// the CFL control, both final once `|J|` and `inv_dt` are.
    fn verdict(&self, detj: &[f64], inv_dt: &[f64], cap: Option<f64>) -> Result<Cfl, HydroError> {
        self.check_mesh(detj)?;
        Ok(self.cfl_control(inv_dt, cap))
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
    /// path as billed launches, to the same bits. Stored: the stress half
    /// (kernels 3, 3, 1, 5, 2, 6), kernel 4's bill, the verdict point, kernel
    /// 7 — whose zone loop runs kernel 4's body, so no `A_z` batch is ever
    /// stored — and kernel 8; matrix-free: one fused sum-factorized sweep,
    /// the verdict point, `d²` backward transforms. The verdict point is the
    /// mesh guard and the CFL control; when that dooms an attempt at `cap`,
    /// the sequence ends there. It fills the scratch's `fz` (`F_z`, or the
    /// per-point `D_z`), `pipe.detj` / `pipe.inv_dt` and the unprojected
    /// momentum RHS. A refused launch — or a stored verdict — leaves `fz` as
    /// it was. `base_regs`: the `base` ablation (stored only) as the
    /// device's register limit — one monolithic launch in place of kernels
    /// 1 to 6 and 4, and kernel 7 at its v1 cost.
    pub(super) fn corner_force_on<L: KernelLauncher>(
        &self,
        on: &mut L,
        base_regs: Option<u32>,
        (v, e, x): Fields,
        cap: Option<f64>,
        ws: &mut EvalScratch,
    ) -> Result<Cfl, HydroError>
    where
        HydroError: From<L::Error>,
    {
        let (shape, n, zone_dofs) = (&self.shape, self.kin.num_dofs(), &self.zone_dofs[..]);
        let (alpha, rho0detj0) = (&self.rule.weights[..], &self.rho0detj0[..]);
        let EvalScratch { pipe, fz, rhs, mom_local, .. } = ws;
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
                    stress_pipeline_on(on, &inp, pipe)?;
                    // Kernel 4 keeps its launch and bill; its body runs in
                    // kernel 7's zone loop below.
                    let k4 = AzKernel::tuned();
                    on.launch(
                        || Launch::new(AzKernel::NAME, k4.config(shape), k4.traffic(shape)),
                        || (),
                    )?;
                    FzKernel::tuned()
                };
                let cfl = self.verdict(&pipe.detj, &pipe.inv_dt, cap)?;
                if cfl.doomed {
                    return Ok(cfl);
                }
                let (k8, abft) = (MomentumRhsKernel, self.abft.as_ref());
                on.launch(
                    || Launch::new(FzKernel::NAME, k7.config(shape), k7.traffic(shape)),
                    || {
                        // Shaped, not cleared: `beta = 0` stores every entry.
                        fz.reshape(shape.nvdof(), shape.nthermo, shape.zones);
                        FzKernel::compute_fused(
                            shape, &pipe.s, inp.kin_grads, alpha, inp.thermo_vals, fz, abft,
                        )
                    },
                )?;
                on.launch(
                    || Launch::new(MomentumRhsKernel::NAME, k8.config(shape), k8.traffic(shape)),
                    || MomentumRhsKernel::compute_with(shape, fz, zone_dofs, n, rhs, mom_local),
                )?;
                Ok(cfl)
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
                let cfl = self.verdict(&pipe.detj, &pipe.inv_dt, cap)?;
                if cfl.doomed {
                    return Ok(cfl);
                }
                let name = SumfacMomentumKernel::NAME;
                on.launch(
                    || Launch::new(name, mom.config(shape), mom.traffic(shape, f)),
                    || mom.compute_with(shape, f, fz, zone_dofs, n, rhs, mom_local),
                )?;
                Ok(cfl)
            }
        }
    }

    /// The one tail of a force evaluation, after [`Self::corner_force_on`]
    /// returned its CFL control `cfl`: constraint projection and the
    /// momentum solve into the scratch's `accel`. With a device leg the
    /// right-hand side is solved there (`gpu_pcg`) or shipped back as `-F·1`
    /// and solved on the host, idle meanwhile. A doomed evaluation solves
    /// and ships nothing; the host only waits for the device to reach the
    /// verdict.
    fn finish_force(
        &mut self,
        device: Option<DeviceLeg>,
        cfl: Cfl,
        ws: &mut EvalScratch,
    ) -> Result<ForceEval, HydroError> {
        let mut cg_iterations = 0;
        if cfl.doomed {
            if let Some(DeviceLeg { gpu, since, .. }) = device {
                self.exec.host.idle(gpu.now() - since);
            }
        } else {
            self.project_constraints(&mut ws.rhs);
            let mut on_device = None;
            if let Some(DeviceLeg { gpu, since, gpu_pcg }) = device {
                if gpu_pcg {
                    on_device = Some(self.solve_momentum(Some(gpu), ws)?);
                }
                // The warm-start cache is committed only *after* the transfer:
                // if it fails, the host never saw the solution and the CPU redo
                // must start from the previous step's cache.
                gpu.d2h(D * self.kin.num_dofs() * 8)?;
                if gpu_pcg {
                    self.accel_prev.copy_from_slice(&ws.accel);
                }
                self.exec.host.idle(gpu.now() - since);
            }
            cg_iterations = match on_device {
                Some(iterations) => iterations,
                None => self.solve_momentum(None, ws)?,
            };
            Self::check_finite("accel", &ws.accel)?;
        }
        Ok(ForceEval { cfl, cg_iterations })
    }

    /// CPU force evaluation: one billed host phase around the inline
    /// sequence — only its part before the verdict when that dooms the
    /// attempt, the whole phase when it fails — or none for [`Reach::Tail`].
    fn force_on_host(
        &mut self,
        state: Fields,
        reach: Reach,
        ws: &mut EvalScratch,
    ) -> Result<ForceEval, HydroError> {
        let cfl = match reach {
            Reach::Tail => self.cfl_control(&ws.pipe.inv_dt, None),
            Reach::Whole | Reach::UnlessOvershoot(_) => {
                let res = self.corner_force_on(&mut Inline, None, state, reach.cap(), ws);
                let doomed = matches!(res, Ok(Cfl { doomed: true, .. }));
                let traffic = self.assembly.corner_force_traffic(&self.shape, doomed);
                let eff = cf_cpu_eff(self.shape.order);
                let busy = CpuPowerState::Busy;
                self.host_phase(names::phases::CORNER_FORCE, &traffic, eff, busy, || ());
                res?
            }
        };
        self.finish_force(None, cfl, ws)
    }

    /// The momentum solve (step 6): the `D` constrained component systems
    /// `M_V a_c = rhs_c` through the live assembly's operator, warm-started
    /// from the previous acceleration, into the scratch's `accel`; returns
    /// the iterations taken. Every leg is one lock-step solve of all `D` —
    /// one CSR row sweep, or one sum-factorized zone pass, per iteration
    /// feeds every component — and each component's bits are those of its
    /// scalar solve. The two stored legs build the same operator and differ
    /// in the launcher only: `HostSweeps`, or on a `device` kernel 9's
    /// `SweepLog`, which bills nothing while the solve runs. The bill
    /// follows per component, in component order, as a component-at-a-time
    /// loop issued it: kernel 9's launches for component `c` (the ones its
    /// scalar solve issues) and then its outcome; matrix-free, its outcome
    /// and then one launch for its mass-apply sweeps. A stalled component
    /// is reported as that loop reports it — the lowest one, nothing
    /// counted or billed after it — and a refused launch ends the bill with
    /// its error.
    ///
    /// After a device solve the caller commits the warm-start cache once
    /// the solution has crossed back. Otherwise the host timeline is
    /// charged and the cache committed here — on full success only, so a
    /// stalled solve ([`HydroError::PcgBreakdown`]) or a lost device leaves
    /// nothing behind for the rollback or the redo.
    fn solve_momentum(
        &mut self,
        device: Option<&GpuDevice>,
        ws: &mut EvalScratch,
    ) -> Result<usize, HydroError> {
        use names::counters;
        let EvalScratch { rhs, accel, pcg, sweeps, mom_local, .. } = ws;
        let n = self.kin.num_dofs();
        let shape = &self.shape;
        let opts = &self.pcg_opts;
        let tel = self.exec.telemetry();
        let iter_traffic = self.assembly.cg_iteration_traffic(shape, n, opts.fused);
        accel.clone_from(&self.accel_prev);
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
        let masks: [&[bool]; D] = std::array::from_fn(|c| &self.constrained[c][..]);
        let precond = &self.mv_precond;
        let results: [PcgResult; D] = match &self.assembly {
            Assembly::Stored { mv } => {
                let staging = blast_la::stream::wide_lanes(D) * n;
                pcg.with_operator_scratch(staging, |tmp, pcg| {
                    let op = &mut ConstrainedOp { a: mv, masks: &masks, tmp };
                    // One solve; only the launcher differs.
                    let Ok(results) = match device {
                        Some(_) => {
                            let on = &mut sweeps.record(opts);
                            pcg_solve_on(on, op, precond, rhs, accel, opts, pcg)
                        }
                        None => pcg_solve_on(&mut HostSweeps, op, precond, rhs, accel, opts, pcg),
                    };
                    results
                })
            }
            Assembly::MatFree(mf) => pcg_solve_lockstep_ws(
                &mut MatFreeConstrainedOp {
                    shape,
                    factors: &mf.factors,
                    svals: &mf.svals,
                    zone_dofs: &self.zone_dofs,
                    n,
                    masks: &masks,
                    local: mom_local,
                },
                precond,
                rhs,
                accel,
                opts,
                pcg,
            ),
        };
        for (c, res) in results.iter().enumerate() {
            match (&self.assembly, device) {
                (Assembly::Stored { mv }, Some(gpu)) => {
                    sweeps.bill(gpu, mv, c)?;
                    record(res)?;
                }
                (Assembly::MatFree(_), Some(gpu)) => {
                    record(res)?;
                    gpu.launch(
                        SumfacMassKernel::NAME,
                        &SumfacMassKernel.config(shape),
                        &iter_traffic.scale(res.iterations as f64),
                        || (),
                    )?;
                }
                (_, None) => record(res)?,
            }
        }
        if device.is_none() {
            self.accel_prev.copy_from_slice(accel);
            // The model bills every component its own stream over the
            // operator (warm-starting keeps the iteration counts low).
            let state = self.exec.host_power_state();
            let traffic = iter_traffic.scale(total_iters as f64);
            self.host_phase(names::phases::CG_SOLVER, &traffic, CG_CPU_EFF, state, || ());
        }
        Ok(total_iters)
    }

    /// GPU force evaluation: ship the state (§3.1.2), issue the sequence as
    /// launches out of the same step scratch, then the tail's device leg.
    /// A held corner force ([`Reach::Tail`]) is on the device already, and
    /// its right-hand side on the host too: the device leg is the solve, or
    /// nothing.
    fn force_on_device(
        &mut self,
        gpu: &GpuDevice,
        state: Fields,
        base: bool,
        gpu_pcg: bool,
        reach: Reach,
        ws: &mut EvalScratch,
    ) -> Result<ForceEval, HydroError> {
        let since = gpu.now();
        let cfl = match reach {
            Reach::Tail => self.cfl_control(&ws.pipe.inv_dt, None),
            Reach::Whole | Reach::UnlessOvershoot(_) => {
                gpu.h2d((2 * D * self.kin.num_dofs() + self.thermo.num_dofs()) * 8)?;
                let base_regs = base.then(|| gpu.spec().max_regs_per_thread);
                self.corner_force_on(&mut &*gpu, base_regs, state, reach.cap(), ws)?
            }
        };
        let leg = (reach != Reach::Tail || gpu_pcg).then_some(DeviceLeg { gpu, since, gpu_pcg });
        self.finish_force(leg, cfl, ws)
    }

    /// Hybrid force evaluation (§3.3): the zone split costs the GPU and
    /// CPU shares separately at the current ratio — with the live
    /// assembly's traffic, so the balancer's converged ratio differs
    /// between stored and matrix-free — and the two overlap in wall-clock.
    ///
    /// The split is billed before it runs, so a doomed evaluation pays its
    /// whole corner force here; it still skips the rest. A held corner force
    /// ([`Reach::Tail`]) bills nothing.
    fn force_hybrid(
        &mut self,
        gpu: &GpuDevice,
        state: Fields,
        reach: Reach,
        ws: &mut EvalScratch,
    ) -> Result<ForceEval, HydroError> {
        if reach == Reach::Tail {
            let cfl = self.cfl_control(&ws.pipe.inv_dt, None);
            return self.finish_force(None, cfl, ws);
        }
        let n = self.kin.num_dofs();
        let shape = self.shape;
        // Invariant: `Executor::new` always pairs Hybrid with a balancer.
        let ratio = self.exec.balancer.as_ref().expect("hybrid has balancer").ratio();

        // Functional execution happens once, inline inside the GPU-share
        // launch; the two shares are *costed* separately at the current
        // zone split and overlap in wall-clock (§3.3: "after the launch of
        // CUDA kernels, control can return to a host thread ... each
        // [OpenMP] thread allocates private working space and executes").
        let total_traffic = self.assembly.corner_force_traffic(&shape, false);
        let gpu_traffic = total_traffic.scale(ratio);
        let cpu_traffic = total_traffic.scale(1.0 - ratio);
        let gpu_zones = ((shape.zones as f64) * ratio).round().max(1.0) as u32;
        let cfg = LaunchConfig::new(gpu_zones, 256, 8 * 1024, 48);

        gpu.h2d(((2 * D * n + self.thermo.num_dofs()) as f64 * 8.0 * ratio) as usize)?;
        let t0g = gpu.now();
        let (ran, _) = gpu.launch(names::phases::CORNER_FORCE_HYBRID, &cfg, &gpu_traffic, || {
            self.corner_force_on(&mut Inline, None, state, reach.cap(), ws)
        })?;
        let t_gpu = gpu.now() - t0g;

        let (_, t_cpu) = self.exec.host.run_phase(
            names::phases::CORNER_FORCE_HYBRID_CPU,
            &cpu_traffic,
            self.exec.cpu_threads(),
            cf_cpu_eff(self.shape.order),
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
        let cfl = ran?;
        self.finish_force(None, cfl, ws)
    }

    /// Energy rate `de/dt = M_E^{-1} F^T v_avg` (kernels 10 + 11) from the
    /// scratch's force batch into its `de`. A persistent device fault here
    /// degrades the executor and recomputes on the CPU (the faulted
    /// attempt's partial output is overwritten), so the result is
    /// bit-identical to a pure-CPU evaluation.
    pub(super) fn energy_rate(
        &mut self,
        v_avg: &[f64],
        ws: &mut EvalScratch,
    ) -> Result<(), HydroError> {
        if !self.exec.is_degraded() {
            if let (ExecMode::Gpu { .. }, Some(gpu)) = (&self.exec.mode, &self.exec.gpu) {
                match self.energy_rate_on(Some(gpu.as_ref()), v_avg, ws) {
                    Err(HydroError::Gpu(g)) => self.exec.degrade_to_cpu(g.to_string()),
                    other => return other,
                }
            }
        }
        self.energy_rate_on(None, v_avg, ws)
    }

    /// Kernels 10 + 11, written once: `rhs_e = F^T v_avg` from what the
    /// force evaluation persisted (`F_z` or `D_z`), then `de = M_E^{-1} rhs_e`.
    fn energy_kernels_on<L: KernelLauncher>(
        &self,
        on: &mut L,
        v_avg: &[f64],
        ws: &mut EvalScratch,
    ) -> Result<(), L::Error> {
        let (shape, n, dofs) = (&self.shape, self.kin.num_dofs(), &self.zone_dofs[..]);
        let EvalScratch { fz, rhs_e, de, .. } = ws;
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
        v_avg: &[f64],
        ws: &mut EvalScratch,
    ) -> Result<(), HydroError> {
        let nth = self.thermo.num_dofs();
        ensure_zeroed(&mut ws.rhs_e, nth);
        ensure_zeroed(&mut ws.de, nth);
        match device {
            Some(mut gpu) => {
                let t0 = gpu.now();
                self.energy_kernels_on(&mut gpu, v_avg, ws)?;
                gpu.d2h(nth * 8)?;
                self.exec.host.idle(gpu.now() - t0);
            }
            None => {
                let rhs = self.assembly.energy_rhs_launch(&self.shape).traffic;
                let traffic = rhs.add(&self.inv_mass_launch().traffic);
                let (name, busy) = (names::phases::ENERGY_SOLVE, CpuPowerState::Busy);
                let Ok(()) = self.host_phase(name, &traffic, CG_CPU_EFF, busy, || {
                    self.energy_kernels_on(&mut Inline, v_avg, ws)
                });
            }
        }
        Self::check_finite("de/dt", &ws.de)
    }
}
