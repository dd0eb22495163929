//! The Lagrangian hydro operator: setup (`builder`), force evaluation on
//! CPU / GPU / hybrid (`force`), and the energy-conserving RK2-average
//! time integrator with timestep control, recovery and auditing (`run`).

mod builder;
mod force;
mod run;

pub use builder::{HydroBuilder, RequiredBytes};
pub use force::MatFreeConstrainedOp;
pub use run::{RunConfig, RunCursor};

use blast_fem::{BasisTable, H1Space, L2Space, TensorRule};
use blast_kernels::base::PipelineScratch;
use blast_kernels::k2::ZoneConstants;
use blast_kernels::k9::SweepLog;
use blast_kernels::sumfac::AssemblyMode;
use blast_kernels::ProblemShape;
use blast_la::{Abft, BatchedMats, BlockDiag, DiagPrecond, PcgOptions, PcgWorkspace};
use gpu_sim::{SdcFault, SdcPlan};

use crate::audit::StepAuditor;
use crate::exec::Executor;
use crate::state::{EnergyBreakdown, HydroState};
use force::Assembly;

/// Consecutive rollback-and-halve redo attempts [`Hydro::try_advance`]
/// makes on one step before giving up (each redo halves dt, so 8 tries
/// covers a 256x reduction).
pub const MAX_STEP_REDOS: usize = 8;

/// Relative tolerance for energy-accounting reconciliation across the
/// workspace: the per-step drift band of the discrete energy identity the
/// SDC auditor checks (Table 6 conserves total energy to solver tolerance
/// — PCG runs at `rel_tol = 1e-12` — so 1e-9 per step is three orders of
/// slack), and the band within which `blast-serve` / `bench` reconcile a
/// job ledger's per-tenant energy attribution against the trace totals.
pub const ENERGY_RECONCILE_TOL: f64 = 1e-9;

/// Solver configuration knobs.
#[derive(Clone, Copy, Debug)]
pub struct HydroConfig {
    /// Kinematic order `k` of the `Q_k`-`Q_{k-1}` method.
    pub order: usize,
    /// CFL safety factor applied to the per-point `inv_dt` control.
    pub cfl: f64,
    /// PCG options for the momentum solve.
    pub pcg: PcgOptions,
}

impl Default for HydroConfig {
    fn default() -> Self {
        Self { order: 2, cfl: 0.3, pcg: PcgOptions::default() }
    }
}

/// Outcome of one time step.
#[derive(Clone, Copy, Debug)]
pub struct StepOutcome {
    /// The dt that was applied.
    pub dt_used: f64,
    /// New CFL-limited dt estimate from the step's final force evaluation.
    pub dt_est: f64,
    /// CG iterations spent in the step's momentum solves.
    pub cg_iterations: usize,
}

impl StepOutcome {
    /// The adaptive dt for the step after this one: the new CFL estimate,
    /// growing by at most 2 % over the dt just applied.
    pub fn dt_next(&self) -> f64 {
        self.dt_est.min(1.02 * self.dt_used)
    }
}

/// Outcome of one *accepted* step from [`Hydro::try_advance`], after any
/// rollback / CFL redos it absorbed internally.
#[derive(Clone, Copy, Debug)]
pub struct AdvanceOutcome {
    /// The accepted step's outcome.
    pub outcome: StepOutcome,
    /// Redo attempts consumed (rollback halvings + CFL redos).
    pub redos: usize,
    /// Adaptive dt to use for the next step.
    pub dt_next: f64,
}

/// Summary of a full run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Steps taken.
    pub steps: usize,
    /// Steps that had to be redone with a smaller dt.
    pub retries: usize,
    /// Final simulation time reached.
    pub t: f64,
    /// Simulated wall-clock of the run (host timeline), seconds.
    pub wall_s: f64,
}

/// What a force evaluation returns beside the buffers it wrote in the
/// [`EvalScratch`]: the CFL control and the solve's iteration count.
struct ForceEval {
    max_inv_dt: f64,
    cg_iterations: usize,
}

/// Reusable buffers for the step hot path. Everything a timestep touches
/// on the heap lives here, and stays here: [`Hydro::try_step`] and
/// [`Hydro::try_suggest_dt`] lend the whole scratch once, each phase reads
/// and writes it in place, and it goes back on the one exit. Buffers grow
/// to the problem's high-water size on the first step and are then reused,
/// so steady-state timesteps — and the redo of a failed attempt — perform
/// zero heap allocations (asserted by `tests/zero_alloc_steady_state.rs`).
#[derive(Debug, Default)]
struct StepScratch {
    /// What the force evaluation and the energy rate write.
    eval: EvalScratch,
    /// What they read: the RK2 stage vectors.
    stage: StageVectors,
    // Pre-step snapshot for `try_advance`'s rollback / CFL redo. The PCG
    // warm-start cache is part of it: restoring `accel_prev` with the
    // state makes a redone step bit-identical to a fault-free first try.
    saved_v: Vec<f64>,
    saved_e: Vec<f64>,
    saved_x: Vec<f64>,
    saved_accel: Vec<f64>,
}

/// The outputs of a force evaluation and of an energy rate, disjoint from
/// the [`StageVectors`] they are computed from.
#[derive(Debug, Default)]
struct EvalScratch {
    /// Corner-force pipeline intermediates and outputs.
    pipe: PipelineScratch,
    /// Stored mode: the per-zone `F_z` batch (`nvdof x nthermo`).
    /// Matrix-free mode: the per-point `D_z = α_k σ̂ adj(J)^T` batch
    /// (`d x d`) — either way, exactly what the energy rate needs next.
    fz: BatchedMats,
    /// Momentum RHS (`-F·1`, component-major).
    rhs: Vec<f64>,
    /// Per-zone staging rows for the momentum RHS scatter.
    mom_local: Vec<f64>,
    /// Acceleration (PCG solution, component-major).
    accel: Vec<f64>,
    /// PCG iteration vectors and the constrained operator's masked input.
    pcg: PcgWorkspace,
    /// Kernel 9's log of the stored device solve, billed after it.
    sweeps: SweepLog,
    /// Energy RHS (`F^T v_avg`).
    rhs_e: Vec<f64>,
    /// `de/dt`.
    de: Vec<f64>,
}

/// The RK2 stage vectors of one step attempt (S0 snapshot, midpoint state,
/// averaged velocity).
#[derive(Debug, Default)]
struct StageVectors {
    s0_v: Vec<f64>,
    s0_e: Vec<f64>,
    s0_x: Vec<f64>,
    v_half: Vec<f64>,
    e_half: Vec<f64>,
    x_half: Vec<f64>,
    v_avg: Vec<f64>,
}

/// Zero-fills `v` at length `n`, reusing its heap buffer when possible.
fn ensure_zeroed(v: &mut Vec<f64>, n: usize) {
    v.truncate(n);
    v.iter_mut().for_each(|x| *x = 0.0);
    v.resize(n, 0.0);
}

/// The BLAST solver over a structured `D`-dimensional domain.
pub struct Hydro<const D: usize> {
    kin: H1Space<D>,
    thermo: L2Space<D>,
    rule: TensorRule<D>,
    kin_table: BasisTable<D>,
    thermo_table: BasisTable<D>,
    shape: ProblemShape,
    /// Flattened zone -> global kinematic scalar DOF map.
    zone_dofs: Vec<usize>,
    /// How the corner-force and kinematic mass operators are realized.
    assembly: Assembly,
    mv_precond: DiagPrecond,
    me: BlockDiag,
    me_inv: BlockDiag,
    rho0detj0: Vec<f64>,
    consts: ZoneConstants,
    /// Constraint masks per velocity component (reflecting walls).
    constrained: Vec<Vec<bool>>,
    /// Previous acceleration, used to warm-start the momentum PCG (the
    /// solution changes slowly between evaluations, cutting iterations).
    accel_prev: Vec<f64>,
    use_viscosity: bool,
    cfl: f64,
    pcg_opts: PcgOptions,
    exec: Executor,
    initial: HydroState,
    /// Pending injected step faults (test/chaos hook): the next this-many
    /// `try_step` calls fail recoverably before touching any device.
    step_fault_budget: usize,
    /// Reusable hot-path buffers (see [`StepScratch`]).
    scratch: StepScratch,
    /// Planned silent bit flips (inactive by default); flips are keyed to
    /// [`Self::sdc_attempt`] ordinals so a rolled-back redo of the same
    /// step re-executes clean once a transient flip is consumed.
    sdc_plan: SdcPlan,
    /// Monotonic step-*attempt* ordinal (redos count), the SDC plan's clock.
    sdc_attempt: u64,
    /// Whether the current attempt armed a GEMM-panel flip (consumed-flip
    /// accounting happens in `try_step` after the attempt finishes).
    sdc_gemm_armed: bool,
    /// The physics-invariant SDC auditor, when enabled.
    audit: Option<StepAuditor<D>>,
    /// Kernel 7's GEMM checksums, when [`crate::audit::AuditConfig::abft`]
    /// asked for them.
    abft: Option<Abft>,
}

impl<const D: usize> Hydro<D> {
    /// The initial `(v, e, x)` state.
    pub fn initial_state(&self) -> HydroState {
        self.initial.clone()
    }

    /// Problem shape (operand dimensions).
    pub fn shape(&self) -> &ProblemShape {
        &self.shape
    }

    /// How the corner-force and mass operators are realized.
    pub fn assembly_mode(&self) -> AssemblyMode {
        self.assembly.mode()
    }

    /// Kinematic space.
    pub fn kin_space(&self) -> &H1Space<D> {
        &self.kin
    }

    /// Thermodynamic space.
    pub fn thermo_space(&self) -> &L2Space<D> {
        &self.thermo
    }

    /// The executor (devices, traces).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Mutable executor access (the rank-recovery protocol re-seeds the
    /// hybrid balancer here after a re-partition).
    pub fn executor_mut(&mut self) -> &mut Executor {
        &mut self.exec
    }

    /// Schedules `n` injected step faults: each of the next `n`
    /// [`Self::try_step`] calls fails with a *recoverable* typed error
    /// before any physics or device work happens. This drives the
    /// `MAX_STEP_REDOS` boundary tests and chaos campaigns
    /// deterministically.
    pub fn inject_step_faults(&mut self, n: usize) {
        self.step_fault_budget += n;
    }

    /// Arms one more planned flip against the installed SDC plan (the
    /// serve chaos stream injects mid-run this way).
    pub fn arm_sdc_fault(&mut self, fault: SdcFault) {
        self.sdc_plan.arm(fault);
    }

    /// Step-attempt ordinal clock the SDC plan is keyed to (attempts so
    /// far, redos included).
    pub fn sdc_attempts(&self) -> u64 {
        self.sdc_attempt
    }

    /// Density diagnostics at the quadrature points of a state:
    /// `(max compression rho/rho0, min |J|, max |J|)`.
    ///
    /// For an ideal gas, a single strong shock cannot compress beyond
    /// `(γ+1)/(γ-1)` (= 6 at γ = 1.4) — a physics invariant the Sedov
    /// validation checks.
    pub fn density_diagnostics(&self, state: &HydroState) -> (f64, f64, f64) {
        let mut geom = Vec::new();
        let npts = self.rule.len();
        let x0 = self.kin.initial_coords();
        let mut geom0 = Vec::new();
        let mut max_compr: f64 = 0.0;
        let mut min_det = f64::INFINITY;
        let mut max_det: f64 = 0.0;
        for z in 0..self.shape.zones {
            blast_fem::geom::zone_jacobians(&self.kin, &self.kin_table, &state.x, z, &mut geom);
            blast_fem::geom::zone_jacobians(&self.kin, &self.kin_table, &x0, z, &mut geom0);
            for k in 0..npts {
                let det = geom[k].det;
                min_det = min_det.min(det);
                max_det = max_det.max(det);
                // rho/rho0 = |J0| / |J| by strong mass conservation.
                max_compr = max_compr.max(geom0[k].det / det);
            }
        }
        (max_compr, min_det, max_det)
    }

    /// Kinetic + internal energy of a state (Table 6's diagnostics).
    pub fn energies(&self, state: &HydroState) -> EnergyBreakdown {
        self.energies_into(state, [&mut Vec::new(), &mut Vec::new(), &mut Vec::new()])
    }

    /// [`Self::energies`] through caller-owned scratch for `M_V v`, `M_E e`
    /// and the mass apply's zone staging — the auditor's, so an audit
    /// allocates nothing once the buffers reach their high-water size.
    fn energies_into(
        &self,
        state: &HydroState,
        [mv_v, me_e, local]: [&mut Vec<f64>; 3],
    ) -> EnergyBreakdown {
        let n = self.kin.num_dofs();
        ensure_zeroed(mv_v, n);
        let mut kinetic = 0.0;
        for c in 0..D {
            let vc = &state.v[c * n..(c + 1) * n];
            self.assembly.mass_apply(&self.shape, &self.zone_dofs, vc, mv_v, local);
            kinetic += 0.5 * blast_la::dense::dot(vc, mv_v);
        }
        ensure_zeroed(me_e, self.me.dim());
        self.me.apply(&state.e, me_e);
        EnergyBreakdown { kinetic, internal: me_e.iter().sum() }
    }

    /// Total mass `1^T M_E 1`-style check: the Lagrangian frame conserves
    /// it identically because `ρ|J|` is frozen.
    pub fn total_mass(&self) -> f64 {
        self.rule
            .weights
            .iter()
            .cycle()
            .zip(&self.rho0detj0)
            .map(|(&w, &r)| w * r)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use crate::checkpoint::{CheckpointPolicy, CheckpointStore};
    use crate::error::HydroError;
    use crate::exec::ExecMode;
    use crate::problems::{Sedov, TaylorGreen, TriplePoint};
    use blast_telemetry::{names, Track};
    use gpu_sim::{CpuSpec, DeviceCatalog, FaultKind, FaultPlan, GpuDevice, GpuSpec, SdcSite};
    use std::sync::Arc;

    fn cpu_exec() -> Executor {
        Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None)
    }

    fn gpu_exec(base: bool, gpu_pcg: bool) -> Executor {
        let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
        Executor::new(
            ExecMode::Gpu { base, gpu_pcg, mpi_queues: 1 },
            CpuSpec::e5_2670(),
            Some(dev),
        )
    }

    fn small_sedov_2d(exec: Executor) -> (Hydro<2>, HydroState) {
        let problem = Sedov::default();
        let hydro = Hydro::<2>::builder(&problem, [4, 4]).executor(exec).build().unwrap();
        let state = hydro.initial_state();
        (hydro, state)
    }

    #[test]
    fn setup_shapes_are_consistent() {
        let (hydro, state) = small_sedov_2d(cpu_exec());
        assert_eq!(hydro.shape().zones, 16);
        assert_eq!(state.v.len(), 2 * hydro.kin_space().num_dofs());
        assert_eq!(state.e.len(), hydro.thermo_space().num_dofs());
        assert_eq!(state.x, hydro.kin_space().initial_coords());
    }

    #[test]
    fn initial_energy_is_positive_and_mass_correct() {
        let (hydro, state) = small_sedov_2d(cpu_exec());
        let en = hydro.energies(&state);
        assert_eq!(en.kinetic, 0.0);
        assert!(en.internal > 0.0);
        // rho = 1 on [0, 1.2]^2: mass = 1.44.
        assert!((hydro.total_mass() - 1.44).abs() < 1e-12);
    }

    #[test]
    fn single_step_conserves_total_energy() {
        let (mut hydro, mut state) = small_sedov_2d(cpu_exec());
        let e0 = hydro.energies(&state);
        let dt = hydro.suggest_dt(&state);
        assert!(dt > 0.0 && dt.is_finite());
        hydro.step(&mut state, dt);
        let e1 = hydro.energies(&state);
        let rel = e1.relative_change(&e0).abs();
        assert!(rel < 1e-11, "energy drift {rel}");
        // The blast accelerates material: kinetic energy appears.
        assert!(e1.kinetic > 0.0);
    }

    #[test]
    fn multi_step_run_conserves_energy_cpu() {
        let (mut hydro, mut state) = small_sedov_2d(cpu_exec());
        let e0 = hydro.energies(&state);
        let stats = hydro.run(&mut state, RunConfig::to(0.1).max_steps(50)).unwrap();
        assert!(stats.steps >= 3, "took {} steps", stats.steps);
        let e1 = hydro.energies(&state);
        assert!(e1.relative_change(&e0).abs() < 1e-10, "drift {}", e1.relative_change(&e0));
        assert!(state.t >= 0.1 - 1e-12);
    }

    #[test]
    fn gpu_path_matches_cpu_path_bitwise_class() {
        // Table 6: CPU and GPU runs agree (to solver tolerance).
        let (mut h_cpu, mut s_cpu) = small_sedov_2d(cpu_exec());
        let (mut h_gpu, mut s_gpu) = small_sedov_2d(gpu_exec(false, true));
        let dt = h_cpu.suggest_dt(&s_cpu).min(h_gpu.suggest_dt(&s_gpu));
        for _ in 0..3 {
            h_cpu.step(&mut s_cpu, dt);
            h_gpu.step(&mut s_gpu, dt);
        }
        let dv = blast_la::max_rel_diff(&s_cpu.v, &s_gpu.v);
        let de = blast_la::max_rel_diff(&s_cpu.e, &s_gpu.e);
        let dx = blast_la::max_rel_diff(&s_cpu.x, &s_gpu.x);
        assert!(dv < 1e-9, "v diff {dv}");
        assert!(de < 1e-9, "e diff {de}");
        assert!(dx < 1e-11, "x diff {dx}");
    }

    #[test]
    fn instrumented_solve_counts_iterations() {
        // Every leg of the momentum solve — host, host behind a device
        // corner force, kernel 9 — records the same solves and iterations.
        use names::counters::{PCG_BREAKDOWNS, PCG_ITERATIONS, PCG_SOLVES};
        let counts = |exec: Executor| {
            let (mut hydro, mut state) = small_sedov_2d(exec);
            let mut iters = 0;
            for _ in 0..3 {
                iters += hydro.step(&mut state, 1e-4).cg_iterations as u64;
            }
            let tel = hydro.executor().telemetry();
            assert_eq!(tel.counter(PCG_ITERATIONS), iters);
            assert_eq!(tel.counter(PCG_BREAKDOWNS), 0);
            [PCG_SOLVES, PCG_ITERATIONS].map(|c| tel.counter(c))
        };
        let cpu = counts(cpu_exec());
        // Three steps, two force evaluations each, one solve per component.
        assert_eq!(cpu[0], 3 * 2 * 2);
        assert!(cpu[1] > 0);
        assert_eq!(counts(gpu_exec(false, false)), cpu);
        assert_eq!(counts(gpu_exec(false, true)), cpu);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn base_gpu_matches_optimized_gpu_exactly() {
        // Large enough that kernel traffic (not launch overhead) dominates.
        let problem = Sedov::default();
        let mut h_opt =
            Hydro::<2>::builder(&problem, [32, 32]).executor(gpu_exec(false, false)).build()
                .unwrap();
        let mut h_base =
            Hydro::<2>::builder(&problem, [32, 32]).executor(gpu_exec(true, false)).build()
                .unwrap();
        let mut s_opt = h_opt.initial_state();
        let mut s_base = h_base.initial_state();
        let dt = 1e-4;
        {
            h_opt.step(&mut s_opt, dt);
            h_base.step(&mut s_base, dt);
        }
        assert_eq!(s_opt.v, s_base.v);
        assert_eq!(s_opt.e, s_base.e);
        assert_eq!(s_opt.x, s_base.x);
        // ...but the base implementation is slower on the device.
        assert!(h_base.executor().gpu.as_ref().unwrap().now()
            > h_opt.executor().gpu.as_ref().unwrap().now());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn hybrid_matches_cpu_and_balances() {
        let dev = Arc::new(GpuDevice::new(GpuSpec::c2050()));
        let exec = Executor::new(ExecMode::Hybrid { threads: 6 }, CpuSpec::x5660(), Some(dev));
        let problem = Sedov::default();
        let mut h_hyb =
            Hydro::<2>::builder(&problem, [16, 16]).executor(exec).build().unwrap();
        let mut s_hyb = h_hyb.initial_state();
        let cpu = Executor::new(ExecMode::CpuSerial, CpuSpec::x5660(), None);
        let mut h_cpu =
            Hydro::<2>::builder(&problem, [16, 16]).executor(cpu).build().unwrap();
        let mut s_cpu = h_cpu.initial_state();
        let dt = 1e-4;
        for _ in 0..10 {
            h_hyb.step(&mut s_hyb, dt);
            h_cpu.step(&mut s_cpu, dt);
        }
        assert!(blast_la::max_rel_diff(&s_hyb.e, &s_cpu.e) < 1e-10);
        // The balancer moved most of the work to the (faster) GPU —
        // Table 5's regime is ~75% on this CPU/GPU pairing.
        let ratio = h_hyb.executor().balancer.as_ref().unwrap().ratio();
        assert!(ratio > 0.6, "ratio {ratio}");
    }

    #[test]
    fn triple_point_runs_and_conserves() {
        let problem = TriplePoint::default();
        let mut hydro =
            Hydro::<2>::builder(&problem, [14, 6]).order(2).executor(cpu_exec()).build()
                .unwrap();
        let mut state = hydro.initial_state();
        let e0 = hydro.energies(&state);
        // Total energy of the standard triple point on [0,7]x[0,3]:
        // IE = sum over regions of rho*e*area = 2*3 + (0.25/0.4)*... check >0
        assert!(e0.internal > 0.0);
        hydro.run(&mut state, RunConfig::to(0.01).max_steps(30)).unwrap();
        let e1 = hydro.energies(&state);
        assert!(e1.relative_change(&e0).abs() < 1e-10);
    }

    #[test]
    fn taylor_green_smooth_flow_no_viscosity() {
        let problem = TaylorGreen::default();
        let mut hydro = Hydro::<2>::builder(&problem, [4, 4])
            .order(3)
            .executor(cpu_exec())
            .build()
            .unwrap();
        let mut state = hydro.initial_state();
        let e0 = hydro.energies(&state);
        assert!(e0.kinetic > 0.0, "TG starts with motion");
        hydro.run(&mut state, RunConfig::to(0.01).max_steps(20)).unwrap();
        let e1 = hydro.energies(&state);
        assert!(e1.relative_change(&e0).abs() < 1e-10);
    }

    #[test]
    fn sedov_3d_steps_stably() {
        let problem = Sedov::default();
        let mut hydro = Hydro::<3>::builder(&problem, [3, 3, 3])
            .order(1)
            .executor(cpu_exec())
            .build()
            .unwrap();
        let mut state = hydro.initial_state();
        let e0 = hydro.energies(&state);
        let stats = hydro.run(&mut state, RunConfig::to(0.005).max_steps(20)).unwrap();
        assert!(stats.steps >= 1);
        let e1 = hydro.energies(&state);
        assert!(e1.relative_change(&e0).abs() < 1e-10);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn shock_moves_outward() {
        // After some Sedov evolution, material near the origin moves out:
        // radial velocity positive, mesh nodes displaced outward.
        let (mut hydro, mut state) = small_sedov_2d(cpu_exec());
        hydro.run(&mut state, RunConfig::to(0.2).max_steps(300)).unwrap();
        let n = hydro.kin_space().num_dofs();
        let x0 = hydro.kin_space().initial_coords();
        // Nodes inside the blast radius must have been pushed outward.
        let mut moved_out = 0;
        let mut total = 0;
        for i in 0..n {
            let r0 = (x0[i].powi(2) + x0[n + i].powi(2)).sqrt();
            if r0 > 1e-12 && r0 < 0.45 {
                let r1 = (state.x[i].powi(2) + state.x[n + i].powi(2)).sqrt();
                total += 1;
                if r1 > r0 + 1e-9 {
                    moved_out += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            moved_out as f64 > 0.6 * total as f64,
            "{moved_out}/{total} nodes moved outward"
        );
    }

    #[test]
    fn checkpointed_resume_is_bit_identical_to_uninterrupted() {
        let policy = CheckpointPolicy::EverySteps(2);
        // Reference: one uninterrupted checkpointed run.
        let (mut h_ref, mut s_ref) = small_sedov_2d(cpu_exec());
        let mut store_ref = CheckpointStore::in_memory();
        let stats_ref =
            h_ref.run(&mut s_ref, RunConfig::to(0.06).max_steps(60).checkpointed(policy, &mut store_ref)).unwrap();
        assert!(stats_ref.steps >= 4, "need several steps: {}", stats_ref.steps);
        // The run ends by time, not by budget, and the clamp of its last dt
        // lands it on `t_final` to the bit.
        assert_eq!((s_ref.t, stats_ref.steps < 60), (0.06, true));

        // Interrupted: stop midway by step budget, drop the solver and
        // state ("process death"), resume in a fresh solver from the store.
        let (mut h1, mut s1) = small_sedov_2d(cpu_exec());
        let mut store = CheckpointStore::in_memory();
        h1.run(&mut s1, RunConfig::to(0.06).max_steps(stats_ref.steps / 2).checkpointed(policy, &mut store))
            .unwrap();
        assert!(store.latest_valid().is_some(), "first half must have checkpointed");
        drop((h1, s1));

        let (mut h2, mut s2) = small_sedov_2d(cpu_exec());
        let stats2 = h2.run(&mut s2, RunConfig::to(0.06).max_steps(60).checkpointed(policy, &mut store)).unwrap();
        assert_eq!(s2.v, s_ref.v, "resumed velocity differs");
        assert_eq!(s2.e, s_ref.e, "resumed energy differs");
        assert_eq!(s2.x, s_ref.x, "resumed mesh differs");
        assert_eq!(s2.t, s_ref.t);
        assert_eq!(stats2.steps, stats_ref.steps, "logical step count must match");
        let rep = h2.executor().resilience_report(stats2.retries);
        assert_eq!(rep.restores, 1, "exactly one restore billed");
        assert!(rep.checkpoints_written > 0);
        assert!(rep.resilience_energy_j > 0.0, "resilience work must cost energy");
    }

    #[test]
    fn injected_step_faults_roll_back_and_clear() {
        let (mut hydro, mut state) = small_sedov_2d(cpu_exec());
        hydro.inject_step_faults(2);
        let dt = hydro.suggest_dt(&state);
        let adv = hydro.try_advance(&mut state, dt).unwrap();
        assert!(adv.redos >= 2, "both injected faults consumed: {}", adv.redos);
        assert!(state.t > 0.0, "step accepted after redos");
    }

    #[test]
    fn profile_reports_corner_force_and_cg() {
        let (mut hydro, mut state) = small_sedov_2d(cpu_exec());
        let dt = hydro.suggest_dt(&state);
        for _ in 0..3 {
            hydro.step(&mut state, dt);
        }
        let prof = hydro.phase_profile();
        let phase_names: Vec<&'static str> = prof.iter().map(|(n, _, _)| *n).collect();
        assert!(phase_names.contains(&names::phases::CORNER_FORCE));
        assert!(phase_names.contains(&names::phases::CG_SOLVER));
        assert!(phase_names.contains(&names::phases::ENERGY_SOLVE));
        // Corner force dominates on the CPU (Table 1: 55-75%).
        let total: f64 = prof.iter().map(|(_, t, _)| t).sum();
        let cf =
            prof.iter().find(|(n, _, _)| *n == names::phases::CORNER_FORCE).unwrap().1;
        assert!(cf / total > 0.4, "corner force share {}", cf / total);
    }

    #[test]
    fn builder_wires_telemetry_and_counts_steps() {
        let problem = Sedov::default();
        let sink = blast_telemetry::Telemetry::sink();
        let exec =
            Executor::with_telemetry(ExecMode::CpuSerial, CpuSpec::e5_2670(), None, sink.clone());
        let mut hydro = Hydro::<2>::builder(&problem, [4, 4]).executor(exec).build().unwrap();
        let mut state = hydro.initial_state();
        let stats = hydro.run(&mut state, RunConfig::to(0.05).max_steps(10)).unwrap();
        assert!(stats.steps > 0);
        assert_eq!(sink.counter(names::counters::STEPS), stats.steps as u64);
        assert!(sink.counter(names::counters::PCG_ITERATIONS) > 0);
        assert!(sink.counter(names::counters::PCG_SOLVES) > 0);
        // Step spans enclose the phase spans they bill: every host-track
        // phase span has the surrounding `step` span as its parent.
        let spans = sink.spans();
        let steps: Vec<_> =
            spans.iter().filter(|s| s.name == names::phases::STEP).collect();
        // One `step` span per try_step attempt: accepted steps + redos.
        assert_eq!(steps.len(), stats.steps + stats.retries);
        let phase_spans = spans
            .iter()
            .filter(|s| s.track == Track::Host && s.name != names::phases::STEP)
            .filter(|s| s.parent.is_some());
        let mut nested = 0usize;
        for ps in phase_spans {
            let pid = ps.parent.unwrap();
            let parent = spans.iter().find(|s| s.id == pid).expect("parent recorded");
            assert_eq!(parent.name, names::phases::STEP);
            assert!(ps.start_s >= parent.start_s - 1e-12);
            assert!(ps.end_s() <= parent.end_s() + 1e-12);
            nested += 1;
        }
        assert!(nested > 0, "phase spans must nest under step spans");
        // Per-phase span totals reconcile exactly with the profile.
        for (name, secs, calls) in hydro.phase_profile() {
            let tot = sink
                .phase_totals(Some(Track::Host))
                .into_iter()
                .find(|p| p.name == name)
                .expect("phase present in telemetry");
            assert!((tot.seconds - secs).abs() < 1e-9, "{name}: {} vs {secs}", tot.seconds);
            assert_eq!(tot.calls, calls as u64);
        }
    }

    #[test]
    fn constrained_boundary_velocities_stay_zero() {
        let (mut hydro, mut state) = small_sedov_2d(cpu_exec());
        hydro.run(&mut state, RunConfig::to(0.02).max_steps(50)).unwrap();
        let n = hydro.kin_space().num_dofs();
        for axis in 0..2 {
            for dof in hydro.kin_space().boundary_dofs(axis) {
                assert_eq!(
                    state.v[axis * n + dof],
                    0.0,
                    "normal velocity leaked at dof {dof} axis {axis}"
                );
            }
        }
    }

    #[test]
    fn gpu_memory_limit_matches_paper_q4_16cubed() {
        // "the domain size 16^3 ... is the maximum size we were able to
        // allocate with Q4-Q3 elements because of memory limitation for
        // K20": the modeled footprint of 16^3 fits in 5 GB, one refinement
        // (32^3, i.e. 8x the zones in 3D) does not.
        let cap = DeviceCatalog::gpu("k20").dram_capacity;
        let fit = |zones_axis: usize| {
            let shape = ProblemShape::new(3, 4, zones_axis.pow(3));
            let n_h1 = (4 * zones_axis + 1).pow(3);
            let n_l2 = shape.zones * shape.nthermo;
            blast_kernels::sumfac::stored_resident_bytes(&shape, n_h1, n_l2)
        };
        assert!(fit(16) <= cap, "16^3 Q4-Q3 needs {} B of {} B", fit(16), cap);
        assert!(fit(32) > cap, "32^3 Q4-Q3 should exceed K20 memory");
    }

    #[test]
    fn gpu_oom_propagates_from_setup() {
        // A device with tiny memory rejects even a small problem, through
        // the builder's Result (checked before any assembly work).
        let mut spec = DeviceCatalog::gpu("k20");
        spec.dram_capacity = 1024; // 1 KB "GPU"
        let dev = Arc::new(GpuDevice::new(spec));
        let exec = Executor::new(
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
            CpuSpec::e5_2670(),
            Some(dev),
        );
        let problem = Sedov::default();
        let res = Hydro::<2>::builder(&problem, [4, 4]).executor(exec).build();
        assert!(res.is_err());
        let err = res.err().unwrap();
        // The footprint pre-check fires before the device allocation, so
        // the typed variant (with both byte counts) surfaces.
        assert!(
            matches!(err, crate::error::HydroError::OutOfMemory { .. }),
            "unexpected error: {err:?}"
        );
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn unusable_builder_inputs_are_typed_errors_not_panics() {
        let problem = Sedov::default();
        let base = || Hydro::<2>::builder(&problem, [4, 4]);
        let on_k20 = |base_kernel: bool| {
            base()
                .device(&DeviceCatalog::get("k20"))
                .mode(ExecMode::Gpu { base: base_kernel, gpu_pcg: false, mpi_queues: 1 })
        };
        let cases = [
            ("order", base().order(0).build()),
            ("zones_per_axis", Hydro::<2>::builder(&problem, [4, 0]).build()),
            ("cfl", base().cfl(f64::NAN).build()),
            ("cfl", base().cfl(f64::INFINITY).build()),
            ("cfl", base().cfl(0.0).build()),
            ("cfl", base().cfl(-0.3).build()),
            // The monolithic `base` kernel exists for the stored pipeline only.
            ("mode", on_k20(true).assembly(AssemblyMode::MatrixFree).build()),
        ];
        on_k20(true).build().expect("the stored default takes the base ablation");
        on_k20(false).assembly(AssemblyMode::MatrixFree).build().expect("matrix-free, optimized");
        for (expected, res) in cases {
            let err = res.err().unwrap_or_else(|| panic!("{expected}: build must fail"));
            assert!(
                matches!(&err, HydroError::InvalidConfig { what, .. } if *what == expected),
                "{expected}: unexpected error {err:?}"
            );
            assert!(!err.recoverable_by_rollback(), "{expected}: dt halving cannot fix a config");
        }
    }

    #[test]
    fn builder_device_configures_host_gpu_mode_and_key() {
        let problem = Sedov::default();
        let dev = DeviceCatalog::get("k20");
        let hydro = Hydro::<2>::builder(&problem, [4, 4]).device(&dev).build().expect("setup");
        let exec = hydro.executor();
        assert_eq!(exec.device_id(), Some("k20"));
        assert_eq!(exec.host.spec().name, dev.host.name);
        assert!(matches!(
            exec.mode,
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }
        ));
        assert_eq!(exec.gpu.as_ref().map(|g| g.spec().name), Some("Tesla K20"));

        let cpu = DeviceCatalog::get("cpu-e5-2670");
        let hydro = Hydro::<2>::builder(&problem, [4, 4]).device(&cpu).build().expect("setup");
        let exec = hydro.executor();
        assert!(exec.gpu.is_none());
        assert!(
            matches!(exec.mode, ExecMode::CpuParallel { threads } if threads == cpu.host.cores)
        );
    }

    /// The kernel names one device force evaluation leaves on the timeline
    /// (host momentum solve, so only the sequence launches) equal the names
    /// a recording launcher sees: a reordered, dropped or doubled kernel is
    /// a name diff here before it is a CRC mismatch in `golden_lattice`.
    /// Logs the name of every kernel it issues and refuses the one with
    /// ordinal `fail_at` without running it.
    #[derive(Default)]
    struct Recording {
        log: Vec<&'static str>,
        fail_at: Option<usize>,
    }

    impl blast_kernels::launch::KernelLauncher for Recording {
        type Error = HydroError;
        fn launch<R>(
            &mut self,
            what: impl FnOnce() -> blast_kernels::launch::Launch,
            body: impl FnOnce() -> R,
        ) -> Result<R, HydroError> {
            if self.fail_at == Some(self.log.len()) {
                return Err(HydroError::NonFinite { what: "refused", index: self.log.len() });
            }
            self.log.push(what().name);
            Ok(body())
        }
    }

    const K4: &str = "kernel_Phi_sigma_hat_z";
    const K7: &str = "kernel_loop_zones";
    const K8: &str = "kernel_loop_zones_dv_dt";
    const MONOLITH: &str = "kernel_loop_quadrature_point";
    /// Kernels 3, 3, 1, 5, 2, 6, 4, 7, 8: the stored sequence, `base` off.
    const STORED: [&str; 9] = [
        "kernel_PzVz_Phi_F",
        "kernel_PzVz_Phi_F",
        "kernel_CalcAjugate_det",
        "kernel_NN_dgemmBatched",
        "kernel_loop_grad_v",
        "kernel_NT_dgemmBatched",
        K4,
        K7,
        K8,
    ];

    #[test]
    fn a_device_evaluation_launches_the_sequence_the_recorder_sees() {
        fn check<const D: usize>(zones: [usize; D], mode: AssemblyMode, base: bool, want: &[&str]) {
            let mut hydro = Hydro::<D>::builder(&Sedov::default(), zones)
                .executor(gpu_exec(base, false))
                .assembly(mode)
                .build()
                .unwrap();
            let s = hydro.initial_state();
            let ws = &mut EvalScratch::default();
            hydro.eval_force((&s.v, &s.e, &s.x), ws).expect("no faults injected");
            let transfers = [names::phases::MEMCPY_H2D, names::phases::MEMCPY_D2H];
            let gpu = hydro.exec.gpu.as_ref().unwrap();
            let on_device: Vec<_> =
                gpu.events().iter().map(|ev| ev.name).filter(|n| !transfers.contains(n)).collect();
            let mut rec = Recording::default();
            hydro
                .corner_force_on(&mut rec, base.then_some(255), (&s.v, &s.e, &s.x), ws)
                .expect("the initial mesh is sound");
            assert_eq!(rec.log, want, "{D}D {mode} base={base}: recorder");
            assert_eq!(on_device, rec.log, "{D}D {mode} base={base}: device");
        }
        let cases = [
            (AssemblyMode::Stored, false, &STORED[..]),
            (AssemblyMode::Stored, true, &[MONOLITH, K7, K8][..]),
            (AssemblyMode::MatrixFree, false, &["kernel_sumfac_force", "kernel_sumfac_momentum"]),
        ];
        for (assembly, base, want) in cases {
            check::<2>([3, 3], assembly, base, want);
            check::<3>([2, 2, 2], assembly, base, want);
        }
    }

    /// Kernel 4's body runs inside kernel 7's launch, so refusing either
    /// launch (the `base` monolith stands in for kernel 4) leaves the `F_z`
    /// pool as it was: no partial product, not even a cleared one.
    #[test]
    fn a_refused_kernel_4_or_7_leaves_the_force_pool_untouched() {
        for (base, refused) in [(false, K4), (false, K7), (true, MONOLITH), (true, K7)] {
            let hydro = Hydro::<2>::builder(&Sedov::default(), [3, 3]).build().unwrap();
            let s = hydro.initial_state();
            let want =if base { &[MONOLITH, K7, K8][..] } else { &STORED[..] };
            let at = want.iter().position(|&k| k == refused).unwrap();
            let mut rec = Recording { fail_at: Some(at), ..Default::default() };
            let ws = &mut EvalScratch::default();
            let shape = hydro.shape;
            ws.fz = BatchedMats::from_fn(shape.nvdof(), shape.nthermo, shape.zones, |_, _, _| {
                f64::NAN
            });
            let res = hydro.corner_force_on(&mut rec, base.then_some(255), (&s.v, &s.e, &s.x), ws);
            assert!(matches!(res, Err(HydroError::NonFinite { what: "refused", .. })), "{res:?}");
            assert_eq!(rec.log, want[..at], "base={base}: refused {refused}");
            assert!(ws.fz.as_slice().iter().all(|f| f.is_nan()), "base={base}: {refused} wrote F_z");
        }
    }

    /// The stored solver never shapes the `A_z` batch: a warmed-up run's
    /// pipeline scratch still has none, on the host and on a device.
    #[test]
    fn a_warmed_stored_solver_never_shapes_the_a_z_batch() {
        for exec in [cpu_exec(), gpu_exec(false, false), gpu_exec(true, true)] {
            let mut hydro = Hydro::<2>::builder(&Sedov::default(), [4, 4])
                .executor(exec)
                .build()
                .unwrap();
            let mut state = hydro.initial_state();
            for _ in 0..3 {
                hydro.try_step(&mut state, 1e-4).expect("a small Sedov step");
            }
            let ws = &hydro.scratch.eval;
            assert!(ws.pipe.s.count() > 0, "the stress half ran");
            assert_eq!((ws.pipe.az.count(), ws.pipe.az.as_slice().len()), (0, 0));
        }
    }

    /// A stalled device momentum solve is reported as a component-at-a-time
    /// loop reports it: the lowest stalled component's breakdown, with
    /// kernel 9's launches for that component alone in the device ledger —
    /// the `4 + 3·max_iter` fused sweeps of its scalar solve — and none for
    /// the components after it, although the lock-step solve ran them all.
    #[test]
    fn a_stalled_device_solve_bills_the_lowest_stalled_component_only() {
        let max_iter = 3;
        let gpu = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
        let exec = Executor::new(
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
            CpuSpec::e5_2670(),
            Some(gpu.clone()),
        );
        let mut hydro = Hydro::<2>::builder(&Sedov::default(), [4, 4])
            .executor(exec)
            .pcg(PcgOptions { max_iter, ..Default::default() })
            .build()
            .unwrap();
        let mut state = hydro.initial_state();
        let err = hydro.try_step(&mut state, 1e-4).expect_err("both components stall");
        assert!(
            matches!(err, HydroError::PcgBreakdown { iterations, .. } if iterations == max_iter),
            "{err:?}"
        );
        assert!(!hydro.exec.is_degraded(), "a stall is not a device fault");
        let k9 = blast_kernels::k9::LAUNCH_NAMES;
        let billed = gpu.events().iter().filter(|e| k9.contains(&e.name)).count();
        assert_eq!(billed, 4 + 3 * max_iter);
    }

    /// Address, length and capacity of every buffer of the step scratch (a
    /// batch: address, matrix size and count), field by field.
    fn pools<const D: usize>(hydro: &Hydro<D>) -> Vec<[usize; 3]> {
        let StepScratch { eval, stage, saved_v, saved_e, saved_x, saved_accel } = &hydro.scratch;
        let EvalScratch { pipe, fz, rhs, mom_local, accel, pcg, sweeps, rhs_e, de } = eval;
        let StageVectors { s0_v, s0_e, s0_x, v_half, e_half, x_half, v_avg } = stage;
        let vecs = [
            &pipe.inv_dt, &pipe.detj, rhs, mom_local, accel, rhs_e, de, s0_v, s0_e, s0_x, v_half,
            e_half, x_half, v_avg, saved_v, saved_e, saved_x, saved_accel,
        ];
        let mut out: Vec<[usize; 3]> =
            vecs.iter().map(|v| [v.as_ptr() as usize, v.len(), v.capacity()]).collect();
        for batch in [fz, &pipe.s] {
            let (rows, cols) = batch.shape();
            out.push([batch.as_slice().as_ptr() as usize, rows * cols, batch.count()]);
        }
        out.push([pcg.capacity(), sweeps.capacity(), 0]);
        out
    }

    /// Every exit of a failed attempt leaves every buffer of the step
    /// scratch where, and as large as, a warmed solver had it: no buffer
    /// leaves the scratch, so no exit owes one back. The device half refuses
    /// each launch of both evaluations and both energy rates in turn; the
    /// refused phase degrades and redoes on the host out of the same buffers.
    #[test]
    fn a_failed_attempt_leaves_every_pool_in_the_scratch() {
        let warmed = |exec: Executor, abft: bool| {
            let mut hydro = Hydro::<2>::builder(&Sedov::default(), [4, 4])
                .executor(exec)
                .audit(AuditConfig::default().abft(abft))
                .build()
                .unwrap();
            let mut state = hydro.initial_state();
            for _ in 0..2 {
                hydro.try_step(&mut state, 1e-4).expect("a small Sedov step");
            }
            let before = pools(&hydro);
            (hydro, state, before)
        };
        // `(what the error says, ABFT on, arm the failure and return the dt)`.
        let cases: [(&str, bool, fn(&mut Hydro<2>) -> f64); 5] = [
            ("injected step fault", false, |h| {
                h.inject_step_faults(1);
                1e-4
            }),
            ("PCG broke down", false, |h| {
                h.pcg_opts.max_iter = 1;
                1e-4
            }),
            // Stage 1's midpoint velocity overflows: a finite acceleration,
            // a non-finite energy rate.
            ("de/dt", false, |_| f64::MAX),
            // The midpoint mesh folds over: stage 2's guard.
            ("mesh tangled", false, |_| 1.0),
            ("abft audit", true, |h| {
                let at_step = h.sdc_attempts() + 1;
                let site = SdcSite::GemmPanel;
                h.arm_sdc_fault(SdcFault { site, at_step, bit: 55, lane: 0, persistent: false });
                1e-4
            }),
        ];
        for (want, abft, arm) in cases {
            let (mut hydro, mut state, before) = warmed(cpu_exec(), abft);
            let dt = arm(&mut hydro);
            let err = hydro.try_step(&mut state, dt).expect_err(want);
            assert!(err.to_string().contains(want), "{want}: {err}");
            assert_eq!(pools(&hydro), before, "{want}");
        }
        let mut refused = 0;
        loop {
            let (mut hydro, mut state, before) = warmed(gpu_exec(false, false), false);
            let plan = FaultPlan::seeded(1).with_persistent(FaultKind::LaunchFail, refused);
            hydro.exec.gpu.as_ref().unwrap().set_fault_plan(plan);
            hydro.try_step(&mut state, 1e-4).expect("the host redoes a refused phase");
            if !hydro.exec.is_degraded() {
                break;
            }
            assert_eq!(pools(&hydro), before, "launch {refused} refused");
            refused += 1;
        }
        assert_eq!(refused, 2 * (STORED.len() as u64 + 2), "two evaluations, two energy rates");
    }
}
