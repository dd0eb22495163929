//! Solver construction: the fluent [`HydroBuilder`] and the one-time setup
//! (spaces, quadrature, mass operators, initial state, device accounting).

use std::sync::Arc;

use blast_fem::geom::{eval_h1_vector, zone_jacobians};
use blast_fem::mass::{assemble_kinematic_mass, assemble_thermodynamic_mass};
use blast_fem::{CartMesh, H1Space, L2Space, TensorRule};
use blast_kernels::k2::ZoneConstants;
use blast_kernels::sumfac::{
    matfree_resident_bytes, stored_resident_bytes, AssemblyMode, SumfacFactors, SumfacMassKernel,
};
use blast_kernels::ProblemShape;
use blast_la::{Abft, DiagPrecond, PcgOptions};
use gpu_sim::{CpuSpec, GpuDevice, SdcPlan};

use super::force::{Assembly, MatFreeOps};
use super::{Hydro, HydroConfig, StepScratch};
use crate::audit::AuditConfig;
use crate::error::HydroError;
use crate::exec::{ExecMode, Executor};
use crate::problems::Problem;
use crate::state::HydroState;

/// Fluent constructor for [`Hydro`] — the required inputs (problem, mesh
/// resolution) are taken by [`Hydro::builder`]; everything else has a
/// default: serial execution on an E5-2670 host, order-2 elements, no
/// faults, a fresh telemetry sink.
///
/// ```ignore
/// let mut hydro = Hydro::<2>::builder(&problem, [32, 32])
///     .order(3)
///     .device(&DeviceCatalog::get("k20"))
///     .mode(ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 })
///     .build()?;
/// ```
pub struct HydroBuilder<'p, const D: usize> {
    problem: &'p dyn Problem<D>,
    zones_per_axis: [usize; D],
    config: HydroConfig,
    mode: ExecMode,
    host_spec: CpuSpec,
    gpu: Option<Arc<GpuDevice>>,
    device_id: Option<String>,
    executor: Option<Executor>,
    sdc_plan: Option<SdcPlan>,
    audit: Option<AuditConfig>,
    assembly: AssemblyMode,
}

/// Modeled device-resident bytes of a builder configuration, one entry
/// per [`AssemblyMode`] — computable *before* [`HydroBuilder::build`]
/// does any mesh or assembly work, so callers (and the build-time
/// pre-check itself) can see an out-of-memory outcome coming and pick
/// the mode that fits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequiredBytes {
    /// Footprint of [`AssemblyMode::Stored`]: `A_z`/`F_z` batches,
    /// per-point small matrices, state, and the CSR mass matrix.
    pub stored: usize,
    /// Footprint of [`AssemblyMode::MatrixFree`]: `d x d` per-point data,
    /// staging rows, state, and the Jacobi diagonal.
    pub matrix_free: usize,
}

impl<'p, const D: usize> HydroBuilder<'p, D> {
    /// Kinematic order `k` of the `Q_k`-`Q_{k-1}` method (default 2).
    #[must_use]
    pub fn order(mut self, order: usize) -> Self {
        self.config.order = order;
        self
    }

    /// CFL safety factor (default 0.3).
    #[must_use]
    pub fn cfl(mut self, cfl: f64) -> Self {
        self.config.cfl = cfl;
        self
    }

    /// PCG options for the momentum solve.
    #[must_use]
    pub fn pcg(mut self, pcg: PcgOptions) -> Self {
        self.config.pcg = pcg;
        self
    }

    /// Replaces the whole solver config at once.
    #[must_use]
    pub fn config(mut self, config: HydroConfig) -> Self {
        self.config = config;
        self
    }

    /// Execution mode (default [`ExecMode::CpuSerial`]). GPU and hybrid
    /// modes also need a device with a GPU ([`Self::device`]).
    #[must_use]
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Targets one catalog device: sets the host CPU, a fresh simulated
    /// GPU when the spec carries one, the derived execution mode (the
    /// mapping documented on [`ExecMode`]), and the catalog id. A later
    /// [`Self::mode`] call still overrides the derived mode;
    /// [`Self::executor`] overrides all of it.
    #[must_use]
    pub fn device(mut self, dev: &gpu_sim::DeviceSpec) -> Self {
        self.host_spec = dev.host.clone();
        self.gpu = dev.gpu.as_ref().map(|g| Arc::new(GpuDevice::new(g.clone())));
        self.mode = crate::fleet::derive_mode(dev);
        self.device_id = Some(dev.id.clone());
        self
    }

    /// Uses a pre-built executor verbatim, overriding [`Self::mode`] and
    /// [`Self::device`] (the executor carries its host, device, mode and
    /// telemetry sink — [`Executor::with_telemetry`] for a sink of the
    /// caller's).
    #[must_use]
    pub fn executor(mut self, exec: Executor) -> Self {
        self.executor = Some(exec);
        self
    }

    /// Installs a seeded silent-data-corruption plan: planned bit flips
    /// against device buffers, transfer payloads, committed host state,
    /// and GEMM panels, keyed to step-attempt ordinals (see
    /// [`gpu_sim::SdcPlan`]).
    #[must_use]
    pub fn sdc_plan(mut self, plan: SdcPlan) -> Self {
        self.sdc_plan = Some(plan);
        self
    }

    /// Enables the physics-invariant step auditor (the SDC detector);
    /// see [`AuditConfig`] for the cadence / tolerance knobs.
    #[must_use]
    pub fn audit(mut self, cfg: AuditConfig) -> Self {
        self.audit = Some(cfg);
        self
    }

    /// Selects how the corner-force and kinematic mass operators are
    /// realized (default [`AssemblyMode::Stored`], the paper's batched
    /// kernels). [`AssemblyMode::MatrixFree`] never materializes `A_z`,
    /// `F_z` or the CSR mass matrix — it is how `Q4` 3D runs past the
    /// stored path's device-memory ceiling.
    #[must_use]
    pub fn assembly(mut self, mode: AssemblyMode) -> Self {
        self.assembly = mode;
        self
    }

    /// Modeled device-resident bytes of this configuration per assembly
    /// mode, without building anything. A stored footprint above the
    /// device capacity means [`Self::build`] would return
    /// [`HydroError::OutOfMemory`] — switch to
    /// [`AssemblyMode::MatrixFree`] when the matrix-free entry fits.
    pub fn required_bytes(&self) -> RequiredBytes {
        let order = self.config.order;
        let nz: usize = self.zones_per_axis.iter().product();
        let n_h1: usize = self.zones_per_axis.iter().map(|&za| order * za + 1).product();
        let shape = ProblemShape::new(D, order, nz);
        let n_l2 = nz * shape.nthermo;
        RequiredBytes {
            stored: stored_resident_bytes(&shape, n_h1, n_l2),
            matrix_free: matfree_resident_bytes(&shape, n_h1, n_l2),
        }
    }

    /// Rejects inputs no solver can be built from, before any mesh or
    /// assembly work touches them.
    fn validate(&self) -> Result<(), HydroError> {
        let invalid = |what, detail| Err(HydroError::InvalidConfig { what, detail });
        if self.config.order == 0 {
            return invalid("order", "Q_k-Q_{k-1} needs k >= 1, got 0".to_string());
        }
        if let Some(axis) = self.zones_per_axis.iter().position(|&z| z == 0) {
            return invalid("zones_per_axis", format!("axis {axis} has zero zones"));
        }
        let cfl = self.config.cfl;
        if !(cfl.is_finite() && cfl > 0.0) {
            return invalid("cfl", format!("CFL factor must be finite and positive, got {cfl}"));
        }
        Ok(())
    }

    /// Builds the solver. Fails with [`HydroError::InvalidConfig`] on an
    /// unusable order, mesh or CFL factor or the `base` GPU ablation over a
    /// matrix-free assembly, and when the simulated GPU
    /// cannot hold the working set (the paper's Q4-Q3 memory limit at
    /// `16^3` on K20).
    pub fn build(self) -> Result<Hydro<D>, HydroError> {
        self.validate()?;
        let exec = match self.executor {
            Some(exec) => exec,
            None => {
                let mut exec = Executor::new(self.mode, self.host_spec, self.gpu);
                if let Some(id) = self.device_id {
                    exec.set_device_id(id);
                }
                exec
            }
        };
        let mut hydro = Hydro::build_impl(
            self.problem,
            self.zones_per_axis,
            self.config,
            exec,
            self.assembly,
        )?;
        if let Some(plan) = self.sdc_plan {
            hydro.sdc_plan = plan;
        }
        if let Some(cfg) = self.audit {
            hydro.audit = Some(hydro.build_auditor(cfg));
            hydro.abft = cfg.abft.then(Abft::default);
        }
        Ok(hydro)
    }
}

impl<const D: usize> Hydro<D> {
    /// Starts a fluent solver construction from the required inputs; see
    /// [`HydroBuilder`] for the optional knobs.
    pub fn builder(
        problem: &dyn Problem<D>,
        zones_per_axis: [usize; D],
    ) -> HydroBuilder<'_, D> {
        HydroBuilder {
            problem,
            zones_per_axis,
            config: HydroConfig::default(),
            mode: ExecMode::CpuSerial,
            host_spec: CpuSpec::e5_2670(),
            gpu: None,
            device_id: None,
            executor: None,
            sdc_plan: None,
            audit: None,
            assembly: AssemblyMode::Stored,
        }
    }

    /// Sets up the solver: spaces, quadrature, mass matrices (assembled
    /// once — `ρ|J|` is frozen in the Lagrangian frame), initial state, and
    /// device memory accounting.
    ///
    /// Fails when the simulated GPU cannot hold the working set (the
    /// paper's Q4-Q3 memory limit at `16^3` on K20).
    fn build_impl(
        problem: &dyn Problem<D>,
        zones_per_axis: [usize; D],
        config: HydroConfig,
        exec: Executor,
        assembly: AssemblyMode,
    ) -> Result<Self, HydroError> {
        let order = config.order;
        let (dmin, dmax) = problem.domain();
        let mesh = CartMesh::new(zones_per_axis, dmin, dmax);
        let nz = mesh.num_zones();
        let kin = H1Space::new(mesh.clone(), order);
        let thermo = L2Space::new(mesh.clone(), order - 1);
        let rule = TensorRule::<D>::gauss(blast_fem::quad_points_1d(order));
        let kin_table = kin.basis().tabulate(&rule.points);
        let thermo_table = thermo.basis().tabulate(&rule.points);
        let shape = ProblemShape::new(D, order, nz);
        debug_assert_eq!(shape.npts, rule.len());
        debug_assert_eq!(shape.nkin, kin.ndof_per_zone());
        debug_assert_eq!(shape.nthermo, thermo.ndof_per_zone());

        let n = kin.num_dofs();
        let zone_dofs: Vec<usize> =
            (0..nz).flat_map(|z| kin.zone_dofs(z).iter().copied()).collect();

        if assembly.is_matrix_free() && matches!(exec.mode, ExecMode::Gpu { base: true, .. }) {
            return Err(HydroError::InvalidConfig {
                what: "mode",
                detail: "the `base` ablation is the monolithic kernel of the stored pipeline; \
                         the assembly resolved to matrix-free, which has no such kernel"
                    .to_string(),
            });
        }

        // Device footprint check happens *before* any allocation or
        // expensive assembly so an over-sized problem fails fast with the
        // numbers in hand (the paper's Q4-Q3 limit at 16^3 on the 5 GB
        // K20 — which only the stored mode hits).
        if matches!(exec.mode, ExecMode::Gpu { .. } | ExecMode::Hybrid { .. }) {
            let resident = match assembly {
                AssemblyMode::Stored => stored_resident_bytes(&shape, n, thermo.num_dofs()),
                AssemblyMode::MatrixFree => matfree_resident_bytes(&shape, n, thermo.num_dofs()),
            };
            let gpu = exec.gpu.as_ref().expect("GPU mode has a device");
            let capacity = gpu.spec().dram_capacity;
            if resident > capacity {
                return Err(HydroError::OutOfMemory { required: resident, available: capacity });
            }
            gpu.alloc(resident)?;
        }

        // Initial geometry and the frozen rho0 |J0|.
        let x0 = kin.initial_coords();
        let npts = rule.len();
        let mut rho0detj0 = vec![0.0; nz * npts];
        let mut geom = Vec::new();
        let mut pos = Vec::new();
        for z in 0..nz {
            zone_jacobians(&kin, &kin_table, &x0, z, &mut geom);
            eval_h1_vector(&kin, &kin_table, &x0, z, &mut pos);
            for k in 0..npts {
                assert!(geom[k].det > 0.0, "inverted initial zone {z}");
                rho0detj0[z * npts + k] = problem.rho0(&pos[k]) * geom[k].det;
            }
        }

        // Kinematic mass operator (time-independent — `ρ|J|` is frozen).
        // Stored mode assembles the global CSR matrix; matrix-free mode
        // keeps only the per-point scale factors `α_k ρ0|J0|` and the 1D
        // factor tables, with a Jacobi diagonal built in the *same
        // accumulation order* as the CSR assembly (bitwise-equal
        // preconditioner, so the PCG iterates see identical scaling).
        let (assembly, mv_precond) = match assembly {
            AssemblyMode::Stored => {
                let mv = assemble_kinematic_mass(&kin, &rule, &kin_table, &rho0detj0);
                let precond = DiagPrecond::from_diagonal(&mv.diagonal());
                (Assembly::Stored { mv }, precond)
            }
            AssemblyMode::MatrixFree => {
                let factors = SumfacFactors::for_shape(&shape);
                let mut svals = vec![0.0; nz * npts];
                for z in 0..nz {
                    for k in 0..npts {
                        svals[z * npts + k] = rule.weights[k] * rho0detj0[z * npts + k];
                    }
                }
                let diag =
                    SumfacMassKernel.diagonal(&shape, &factors, &svals, &zone_dofs, n);
                let precond = DiagPrecond::from_diagonal(&diag);
                (Assembly::MatFree(MatFreeOps { factors, svals }), precond)
            }
        };
        let me = assemble_thermodynamic_mass(&thermo, &rule, &thermo_table, &rho0detj0);
        let me_inv = me.inverse();

        // Zone constants.
        let h = mesh.zone_size();
        let h_min_axis = h.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut gamma = Vec::with_capacity(nz);
        let mut j0inv_diag = Vec::with_capacity(nz * D);
        for z in 0..nz {
            let c = mesh.zone_center(z);
            gamma.push(problem.gamma(&c));
            for d in 0..D {
                j0inv_diag.push(1.0 / h[d]);
            }
        }
        let consts = ZoneConstants {
            gamma,
            h0: vec![h_min_axis / order as f64; nz],
            j0inv_diag,
        };

        // Initial fields.
        let mut v0 = vec![0.0; D * n];
        for i in 0..n {
            let mut xi = [0.0; D];
            for d in 0..D {
                xi[d] = x0[d * n + i];
            }
            let vv = problem.v0(&xi);
            for d in 0..D {
                v0[d * n + i] = vv[d];
            }
        }
        let mut e0 = vec![0.0; thermo.num_dofs()];
        let zs = mesh.zone_size();
        for z in 0..nz {
            let zc = mesh.zone_center(z);
            let zo = mesh.zone_origin(mesh.zone_multi_index(z));
            for l in 0..thermo.ndof_per_zone() {
                let rf = thermo.basis().node(l);
                let mut xp = [0.0; D];
                for d in 0..D {
                    xp[d] = zo[d] + zs[d] * rf[d];
                }
                e0[thermo.zone_dof(z, l)] = problem.e0(&xp, &zc, &zs);
            }
        }

        // Reflecting walls: component `axis` constrained on axis faces.
        let mut constrained = Vec::with_capacity(D);
        for axis in 0..D {
            let mut mask = vec![false; n];
            for dof in kin.boundary_dofs(axis) {
                mask[dof] = true;
            }
            constrained.push(mask);
        }

        let initial = HydroState { v: v0, e: e0, x: x0, t: 0.0 };
        Ok(Self {
            kin,
            thermo,
            rule,
            kin_table,
            thermo_table,
            shape,
            zone_dofs,
            assembly,
            mv_precond,
            me,
            me_inv,
            rho0detj0,
            consts,
            constrained,
            accel_prev: vec![0.0; D * n],
            use_viscosity: problem.use_viscosity(),
            cfl: config.cfl,
            pcg_opts: config.pcg,
            exec,
            initial,
            step_fault_budget: 0,
            scratch: StepScratch::default(),
            sdc_plan: SdcPlan::none(),
            sdc_attempt: 0,
            sdc_gemm_armed: false,
            audit: None,
            abft: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Sedov;

    #[test]
    fn memory_pressure_forces_matrix_free() {
        // Q4-Q3 3D at 32^3 zones against the 5 GB K20 budget: stored
        // cannot fit, so only matrix-free runs; one mesh refinement lower
        // both fit.
        let budget = 5 << 30;
        let req = |za| Hydro::<3>::builder(&Sedov::default(), [za; 3]).order(4).required_bytes();
        let big = req(32);
        assert!(big.stored > budget && big.matrix_free <= budget, "{big:?}");
        let small = req(8);
        assert!(small.stored <= budget && small.matrix_free <= budget, "{small:?}");
    }

    #[test]
    fn thermodynamic_mass_inverse_blocks_are_dense() {
        // Kernel 11 is billed `block_size²` stored non-zeros per zone; the
        // CSR export it stands for drops exact zeros.
        fn dense<const D: usize>(order: usize) -> bool {
            let h = Hydro::<D>::builder(&Sedov::default(), [2; D]).order(order).build().unwrap();
            let m = &h.me_inv;
            m.to_csr().nnz() == m.block_size().pow(2) * m.num_blocks()
        }
        assert!((1..=4).all(dense::<2>) && (1..=3).all(dense::<3>));
    }
}
