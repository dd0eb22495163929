//! The matrix-free operator contract, at the acceptance level:
//!
//! 1. **Cross-path**: the sum-factorized operators evaluate the *same*
//!    bilinear forms as the stored `A_z`/`F_z`/CSR path, so a matrix-free
//!    run tracks a stored run to tight floating-point tolerance (the two
//!    paths associate the arithmetic differently, so bitwise equality is
//!    impossible by design — see DESIGN.md §16).
//! 2. **Within-path**: a matrix-free run is *bitwise deterministic* at any
//!    thread count (zone-private staging + serial zone-order scatter),
//!    asserted on serialized checkpoint images like `host_determinism.rs`.
//! 3. **Resilience**: a persistent device fault degrades a matrix-free GPU
//!    run to the CPU path with bit-identical physics.
//! 4. **The memory ceiling**: on a device whose capacity sits between the
//!    two footprints, the stored build fails with the *typed* OOM error
//!    (both byte counts in hand) while the matrix-free build — picked
//!    automatically by `assembly_auto` — runs to completion.

use std::sync::Arc;

use blast_repro::blast_core::{
    AssemblyMode, Checkpoint, ExecMode, Executor, Hydro, HydroError, HydroState, RunConfig, Sedov,
};
use blast_repro::gpu_sim::{CpuSpec, FaultKind, FaultPlan, GpuDevice};
use gpu_sim::DeviceCatalog;

fn cpu_serial() -> Executor {
    Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None)
}

/// Short CPU-serial Sedov run at the given order/mesh in one assembly mode.
fn run_2d(order: usize, zones: [usize; 2], mode: AssemblyMode, steps: usize) -> (HydroState, f64) {
    let problem = Sedov::default();
    let mut hydro = Hydro::<2>::builder(&problem, zones)
        .order(order)
        .executor(cpu_serial())
        .assembly(mode)
        .build()
        .expect("problem fits on the host");
    assert_eq!(hydro.assembly_mode(), mode);
    let mut state = hydro.initial_state();
    let mut dt = hydro.suggest_dt(&state);
    for _ in 0..steps {
        let out = hydro.step(&mut state, dt);
        dt = out.dt_next();
    }
    (state, dt)
}

fn run_3d(order: usize, zones: [usize; 3], mode: AssemblyMode, steps: usize) -> (HydroState, f64) {
    let problem = Sedov::default();
    let mut hydro = Hydro::<3>::builder(&problem, zones)
        .order(order)
        .executor(cpu_serial())
        .assembly(mode)
        .build()
        .expect("problem fits on the host");
    let mut state = hydro.initial_state();
    let mut dt = hydro.suggest_dt(&state);
    for _ in 0..steps {
        let out = hydro.step(&mut state, dt);
        dt = out.dt_next();
    }
    (state, dt)
}

/// Cross-path tolerance: the only rounding differences are reassociation
/// inside the operator applies and the (identically-preconditioned,
/// identically-warm-started) PCG iterates they feed, so a handful of steps
/// stays within ~1e-9 relative.
const CROSS_PATH_RTOL: f64 = 1e-8;

fn assert_close(what: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    let d = blast_repro::blast_la::max_rel_diff(a, b);
    assert!(d <= CROSS_PATH_RTOL, "{what}: stored vs matrix-free rel diff {d:e}");
}

#[test]
fn stored_and_matrix_free_agree_q2_to_q4_2d() {
    for (order, zones) in [(2usize, [6usize, 6]), (3, [4, 4]), (4, [3, 3])] {
        let (s, dt_s) = run_2d(order, zones, AssemblyMode::Stored, 3);
        let (m, dt_m) = run_2d(order, zones, AssemblyMode::MatrixFree, 3);
        assert_close(&format!("Q{order} v"), &s.v, &m.v);
        assert_close(&format!("Q{order} e"), &s.e, &m.e);
        assert_close(&format!("Q{order} x"), &s.x, &m.x);
        let ddt = (dt_s - dt_m).abs() / dt_s;
        assert!(ddt <= CROSS_PATH_RTOL, "Q{order} dt rel diff {ddt:e}");
    }
}

#[test]
fn stored_and_matrix_free_agree_in_3d() {
    for (order, zones) in [(2usize, [3usize, 3, 3]), (3, [2, 2, 2])] {
        let (s, _) = run_3d(order, zones, AssemblyMode::Stored, 2);
        let (m, _) = run_3d(order, zones, AssemblyMode::MatrixFree, 2);
        assert_close(&format!("3D Q{order} v"), &s.v, &m.v);
        assert_close(&format!("3D Q{order} e"), &s.e, &m.e);
        assert_close(&format!("3D Q{order} x"), &s.x, &m.x);
    }
}

/// Within-path determinism: the matrix-free path must honor the same
/// bitwise thread-count contract as the stored path (`host_determinism.rs`),
/// including the SpMV-free PCG.
#[test]
fn matrix_free_checkpoints_are_byte_identical_across_threads() {
    fn image(threads: usize) -> Vec<u8> {
        rayon::Pool::new(threads).install(|| {
            let exec = Executor::new(
                ExecMode::CpuParallel { threads: threads as u32 },
                CpuSpec::e5_2670(),
                None,
            );
            let problem = Sedov::default();
            let mut hydro = Hydro::<2>::builder(&problem, [6, 6])
                .order(3)
                .executor(exec)
                .assembly(AssemblyMode::MatrixFree)
                .build()
                .expect("problem fits");
            let mut state = hydro.initial_state();
            let mut dt = hydro.suggest_dt(&state);
            let steps = 4u64;
            for _ in 0..steps {
                let out = hydro.step(&mut state, dt);
                dt = out.dt_next();
            }
            Checkpoint { state, accel_prev: Vec::new(), dt, steps, retries: 0 }.to_bytes()
        })
    }
    let reference = image(1);
    assert!(!reference.is_empty());
    for threads in [2usize, 4, 8] {
        assert_eq!(
            reference,
            image(threads),
            "matrix-free checkpoint at {threads} threads diverged from 1 thread"
        );
    }
}

/// Chaos leg: a persistent launch fault on a matrix-free GPU run degrades
/// to the matrix-free CPU path bit-identically (the host-math PCG is shared
/// between the two legs, so no step ever has device-only rounding).
#[test]
fn matrix_free_gpu_degrades_to_cpu_bit_identically() {
    fn sedov_run(exec: Executor) -> (Hydro<2>, HydroState) {
        let problem = Sedov::default();
        let mut hydro = Hydro::<2>::builder(&problem, [4, 4])
            .order(3)
            .executor(exec)
            .assembly(AssemblyMode::MatrixFree)
            .build()
            .unwrap();
        let mut state = hydro.initial_state();
        hydro.run(&mut state, RunConfig::to(0.05).max_steps(60)).unwrap();
        (hydro, state)
    }
    let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    dev.set_fault_plan(FaultPlan::seeded(7).with_persistent(FaultKind::LaunchFail, 0));
    let gpu_exec = Executor::new(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        CpuSpec::e5_2670(),
        Some(dev),
    );
    let (h_gpu, s_gpu) = sedov_run(gpu_exec);
    let (_h_cpu, s_cpu) = sedov_run(cpu_serial());
    assert!(h_gpu.executor().is_degraded(), "persistent fault must degrade the run");
    assert_eq!(s_gpu.v, s_cpu.v, "velocity differs from pure-CPU matrix-free run");
    assert_eq!(s_gpu.e, s_cpu.e, "energy differs from pure-CPU matrix-free run");
    assert_eq!(s_gpu.x, s_cpu.x, "mesh differs from pure-CPU matrix-free run");
    assert_eq!(s_gpu.t, s_cpu.t);
}

/// A fault-free matrix-free GPU run (device-billed kernels, host-math PCG)
/// produces the same physics as the matrix-free CPU run.
#[test]
fn matrix_free_gpu_matches_cpu() {
    let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    let exec = Executor::new(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        CpuSpec::e5_2670(),
        Some(dev),
    );
    let problem = Sedov::default();
    let mut hydro = Hydro::<2>::builder(&problem, [4, 4])
        .order(3)
        .executor(exec)
        .assembly(AssemblyMode::MatrixFree)
        .build()
        .unwrap();
    let mut state = hydro.initial_state();
    let mut dt = hydro.suggest_dt(&state);
    for _ in 0..3 {
        let out = hydro.step(&mut state, dt);
        dt = out.dt_next();
    }

    let (s_cpu, _) = run_2d(3, [4, 4], AssemblyMode::MatrixFree, 3);
    assert_eq!(state.v, s_cpu.v, "GPU leg diverged from CPU matrix-free leg");
    assert_eq!(state.e, s_cpu.e);
    assert_eq!(state.x, s_cpu.x);
}

/// The memory-ceiling acceptance property, scaled to test size: on a
/// device whose DRAM sits *between* the stored and matrix-free footprints,
/// the stored build fails with the typed OOM (both byte counts populated
/// and consistent with the builder's pre-build estimate) while
/// `assembly_auto` picks matrix-free and the run proceeds.
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

    // Auto: the footprint override forces matrix-free, and the run works.
    let mut hydro = Hydro::<3>::builder(&problem, [3, 3, 3])
        .order(4)
        .executor(gpu_exec())
        .assembly_auto()
        .build()
        .expect("matrix-free Q4 fits the straddle device");
    assert_eq!(hydro.assembly_mode(), AssemblyMode::MatrixFree);
    let mut state = hydro.initial_state();
    let dt = hydro.suggest_dt(&state);
    let out = hydro.step(&mut state, dt);
    assert!(out.dt_est.is_finite() && out.dt_est > 0.0);
    assert!(state.t > 0.0);
}
