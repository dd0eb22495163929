//! The matrix-free operator contract, at the acceptance level:
//!
//! 1. **The memory ceiling**: on a device whose capacity sits between the
//!    two footprints, the stored build fails with the *typed* OOM error
//!    (both byte counts in hand) while the matrix-free build runs to
//!    completion.
//! 2. **Lock step**: the `d`-wide apply and the lock-step momentum solve
//!    are, per component, the scalar apply and solve bit for bit.
//!
//! That a matrix-free run tracks a stored one, and is bitwise itself at
//! every pool width, on the device and degraded to the host, are classes 2
//! and 1 of `tests/golden_lattice.rs`.

use std::sync::Arc;

use blast_repro::blast_core::MatFreeConstrainedOp;
use blast_repro::blast_core::{AssemblyMode, ExecMode, Executor, Hydro, HydroError, Sedov};
use blast_repro::blast_fem::{quad_points_1d, CartMesh, H1Space, TensorRule};
use blast_repro::blast_kernels::sumfac::{SumfacFactors, SumfacMassKernel};
use blast_repro::blast_kernels::ProblemShape;
use blast_repro::blast_la::{
    pcg_solve_lockstep_ws, pcg_solve_ws, stream, DiagPrecond, LinearOperator, PcgOptions,
    PcgResult, PcgWorkspace,
};
use blast_repro::gpu_sim::{CpuSpec, GpuDevice};
use gpu_sim::DeviceCatalog;

/// The memory-ceiling acceptance property, scaled to test size: on a
/// device whose DRAM sits *between* the stored and matrix-free footprints,
/// the stored build fails with the typed OOM (both byte counts populated
/// and consistent with the builder's pre-build estimate) while the
/// matrix-free build fits and the run proceeds.
#[test]
fn ceiling_straddle_stored_ooms_matrix_free_runs() {
    let problem = Sedov::default();
    let req = Hydro::<3>::builder(&problem, [3, 3, 3]).order(4).required_bytes();
    assert!(
        req.stored > 2 * req.matrix_free,
        "Q4-3D stored footprint ({}) should dwarf matrix-free ({})",
        req.stored,
        req.matrix_free
    );
    // Capacity strictly between the two footprints.
    let cap = req.matrix_free + (req.stored - req.matrix_free) / 2;
    let gpu_exec = || {
        let mut spec = DeviceCatalog::gpu("k20");
        spec.dram_capacity = cap;
        Executor::new(
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
            CpuSpec::e5_2670(),
            Some(Arc::new(GpuDevice::new(spec))),
        )
    };

    // Stored: typed OOM, before any assembly work.
    let err = match Hydro::<3>::builder(&problem, [3, 3, 3])
        .order(4)
        .executor(gpu_exec())
        .assembly(AssemblyMode::Stored)
        .build()
    {
        Err(e) => e,
        Ok(_) => panic!("stored Q4 must not fit the straddle device"),
    };
    match err {
        HydroError::OutOfMemory { required, available } => {
            assert_eq!(required, req.stored, "typed OOM must carry the stored footprint");
            assert_eq!(available, cap);
        }
        other => panic!("expected OutOfMemory, got: {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("out of device memory"), "message: {msg}");
    assert!(msg.contains("MatrixFree"), "message should point at the fix: {msg}");

    // Matrix-free: the smaller footprint fits, and the run works.
    let mut hydro = Hydro::<3>::builder(&problem, [3, 3, 3])
        .order(4)
        .executor(gpu_exec())
        .assembly(AssemblyMode::MatrixFree)
        .build()
        .expect("matrix-free Q4 fits the straddle device");
    assert_eq!(hydro.assembly_mode(), AssemblyMode::MatrixFree);
    let mut state = hydro.initial_state();
    let dt = hydro.suggest_dt(&state);
    let out = hydro.step(&mut state, dt);
    assert!(out.dt_est.is_finite() && out.dt_est > 0.0);
    assert!(state.t > 0.0);
}

/// The matrix-free momentum system of a `zones^D` unit mesh at `order`:
/// reflecting-wall masks per component and a non-uniform `svals` field.
struct MatFreeSystem {
    shape: ProblemShape,
    factors: SumfacFactors,
    svals: Vec<f64>,
    zone_dofs: Vec<usize>,
    n: usize,
    masks: Vec<Vec<bool>>,
    precond: DiagPrecond,
}

impl MatFreeSystem {
    fn new<const D: usize>(zones: usize, order: usize) -> Self {
        let mesh = CartMesh::<D>::unit(zones);
        let space = H1Space::new(mesh.clone(), order);
        let rule = TensorRule::<D>::gauss(quad_points_1d(order));
        let nz = mesh.num_zones();
        let shape = ProblemShape::new(D, order, nz);
        let factors = SumfacFactors::for_shape(&shape);
        let detj: f64 = mesh.zone_size().iter().product();
        let svals: Vec<f64> = (0..nz * rule.len())
            .map(|p| rule.weights[p % rule.len()] * detj * (1.0 + 0.3 * (p as f64 * 0.7).sin()))
            .collect();
        let zone_dofs: Vec<usize> = (0..nz).flat_map(|z| space.zone_dofs(z).to_vec()).collect();
        let n = space.num_dofs();
        let masks = (0..D)
            .map(|axis| {
                let mut mask = vec![false; n];
                space.boundary_dofs(axis).into_iter().for_each(|i| mask[i] = true);
                mask
            })
            .collect();
        let diag = SumfacMassKernel.diagonal(&shape, &factors, &svals, &zone_dofs, n);
        let precond = DiagPrecond::from_diagonal(&diag);
        Self { shape, factors, svals, zone_dofs, n, masks, precond }
    }

    fn op<'a>(
        &'a self,
        masks: &'a [&'a [bool]],
        local: &'a mut Vec<f64>,
    ) -> MatFreeConstrainedOp<'a> {
        MatFreeConstrainedOp {
            shape: &self.shape,
            factors: &self.factors,
            svals: &self.svals,
            zone_dofs: &self.zone_dofs,
            n: self.n,
            masks,
            local,
        }
    }

    /// `d` component blocks of seeded data, exactly zero where block `c`'s
    /// mask is set (as the solver's right-hand sides are).
    fn vector(&self, seed: f64) -> Vec<f64> {
        let mut v: Vec<f64> =
            (0..self.masks.len() * self.n).map(|i| (i as f64 * 0.37 + seed).sin()).collect();
        for (vc, mask) in v.chunks_exact_mut(self.n).zip(&self.masks) {
            vc.iter_mut().zip(mask).filter(|(_, &m)| m).for_each(|(x, _)| *x = 0.0);
        }
        v
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The `d`-wide fused apply of the matrix-free constrained operator is, per
/// component, its own scalar apply followed by `stream::dot`, bit for bit —
/// at pool widths 1, 2 and 8, in 2D and 3D.
#[test]
fn matfree_wide_apply_dot_equals_d_scalar_applies() {
    fn check<const D: usize>(zones: usize, order: usize) {
        let sys = MatFreeSystem::new::<D>(zones, order);
        let masks: Vec<&[bool]> = sys.masks.iter().map(|m| &m[..]).collect();
        // Unmasked input: the gather must zero the constrained entries.
        let x: Vec<f64> = (0..D * sys.n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut want = vec![0.0; D * sys.n];
        let mut want_dots = [0.0; D];
        let mut local = Vec::new();
        for c in 0..D {
            let at = c * sys.n..(c + 1) * sys.n;
            sys.op(&masks[c..c + 1], &mut local).apply(&x[at.clone()], &mut want[at.clone()]);
            want_dots[c] = stream::dot(&x[at.clone()], &want[at]);
        }
        for threads in [1, 2, 8] {
            let mut y = vec![f64::NAN; D * sys.n];
            let mut dots = [f64::NAN; D];
            rayon::Pool::new(threads)
                .install(|| sys.op(&masks, &mut local).apply_dot_wide(&x, &mut y, &mut dots));
            assert_eq!(bits(&y), bits(&want), "{D}D Q{order}, {threads} threads");
            assert_eq!(bits(&dots), bits(&want_dots), "{D}D Q{order}, {threads} threads");
        }
    }
    check::<2>(5, 2);
    check::<2>(3, 3);
    check::<3>(3, 3);
    check::<3>(2, 4);
}

/// The matrix-free lock-step momentum solve is `d` scalar `pcg_solve_ws`
/// solves — solution, iteration count and residual bits per component — with
/// a frozen lane (zero right-hand side), and with a cap under which a lane
/// stalls at `max_iter` while a warm-started one converges: fused and
/// launch-per-op, at pool widths 1, 2 and 8.
#[test]
fn matfree_lockstep_solve_equals_d_scalar_solves() {
    fn check<const D: usize>(zones: usize, order: usize) {
        let sys = MatFreeSystem::new::<D>(zones, order);
        let masks: Vec<&[bool]> = sys.masks.iter().map(|m| &m[..]).collect();
        let n = sys.n;
        let mut b = sys.vector(0.4);
        b[..n].fill(0.0); // component 0 is frozen before the first iteration
        let mut local = Vec::new();
        let mut ws = PcgWorkspace::new();
        // Component 1 starts cold and stalls under the cap; a third one
        // starts next to its solution and converges inside it.
        let mut x0 = vec![0.0; D * n];
        let opts = PcgOptions::default();
        if D == 3 {
            let last = 2 * n..3 * n;
            let op = &mut sys.op(&masks[2..], &mut local);
            pcg_solve_ws(op, &sys.precond, &b[last.clone()], &mut x0[last.clone()], &opts, &mut ws);
            x0[last].iter_mut().enumerate().for_each(|(i, x)| *x *= 1.0 + 1e-11 * (i % 3) as f64);
        }
        let stall = PcgOptions { max_iter: 6, ..opts };
        for fused in [true, false] {
            for (what, opts) in [("converging", opts), ("capped", stall)] {
                let opts = PcgOptions { fused, ..opts };
                let mut want = x0.clone();
                let solo: Vec<PcgResult> = (0..D)
                    .map(|c| {
                        let at = c * n..(c + 1) * n;
                        let (op, pre) = (&mut sys.op(&masks[c..c + 1], &mut local), &sys.precond);
                        pcg_solve_ws(op, pre, &b[at.clone()], &mut want[at], &opts, &mut ws)
                    })
                    .collect();
                assert_eq!(solo[0].iterations, 0, "the zero right-hand side freezes at once");
                if what == "capped" {
                    assert!(!solo[1].converged && solo[1].iterations == 6, "{solo:?}");
                    assert!(solo[2..].iter().all(|r| r.converged && r.iterations > 0), "{solo:?}");
                }
                for threads in [1, 2, 8] {
                    let mut x = x0.clone();
                    let res: [PcgResult; D] = rayon::Pool::new(threads).install(|| {
                        let op = &mut sys.op(&masks, &mut local);
                        pcg_solve_lockstep_ws(op, &sys.precond, &b, &mut x, &opts, &mut ws)
                    });
                    let case = format!("{D}D Q{order} {what} fused={fused} {threads} threads");
                    assert_eq!(bits(&x), bits(&want), "{case}");
                    for (got, want) in res.iter().zip(&solo) {
                        assert_eq!(got.converged, want.converged, "{case}");
                        assert_eq!(got.iterations, want.iterations, "{case}");
                        assert_eq!(got.residual.to_bits(), want.residual.to_bits(), "{case}");
                    }
                }
            }
        }
    }
    check::<2>(6, 2);
    check::<3>(3, 3);
}
