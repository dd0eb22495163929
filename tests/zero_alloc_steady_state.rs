//! The allocation-free hot-path contract: once the solver's scratch
//! buffers have grown to the problem's high-water size, steady-state
//! timesteps perform **zero heap allocations**. Asserted with a counting
//! global allocator around a measurement window of CPU-serial Sedov steps
//! after a warm-up phase. The count is per thread, so the tests of this
//! binary can run side by side: at pool size 1 the measuring thread runs
//! the whole step, and a sibling test's setup never lands in its window.
//!
//! The contract covers the whole step: the corner-force `A_z` pipeline
//! (kernels 1-6), `F_z`, the momentum RHS scatter, the constrained PCG
//! momentum solve, the energy solve, the RK2 stage vectors, and the
//! `try_advance` rollback snapshot — **with the unified telemetry layer
//! recording**: STEP spans, per-phase child spans, and the step counters
//! all land in the preallocated ring during the measured window. Telemetry
//! (phase events, span ring, and the power trace) is pre-grown via
//! `reserve_host_telemetry`; its amortized `Vec` pushes are the one
//! deliberately-reserved piece.
//!
//! The same holds on the simulated GPU: a device force evaluation draws
//! its whole working set (the `A_z` pipeline intermediates, `F_z`, the
//! RHS, the PCG vectors, the energy-rate vectors) from the same step
//! scratch, so steady-state `Gpu { gpu_pcg: true }` steps are heap-quiet
//! too once the device's event log and power trace are reserved.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use blast_repro::blast_core::{
    AssemblyMode, ExecMode, Executor, Hydro, HydroError, Sedov, MAX_STEP_REDOS,
};
use blast_repro::blast_la::PcgOptions;
use blast_repro::blast_telemetry::{names, Telemetry, WallTotal};
use blast_repro::gpu_sim::{CpuSpec, DeviceCatalog, GpuDevice};

/// System allocator wrapper that counts the calling thread's allocation
/// and reallocation calls.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor touches torn-down TLS.
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count_heap_op() {
    let _ = HEAP_OPS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_heap_op();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_heap_op();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap operations performed so far by the calling thread.
fn heap_ops() -> u64 {
    HEAP_OPS.with(|c| c.get())
}

/// One thread wide, so the calling thread's count is the whole step's.
fn serial_contract(mode: AssemblyMode) {
    rayon::Pool::new(1).install(|| {
        let (mut hydro, mut state, cursor) = common::warmed_up_solver(mode, ExecMode::CpuSerial);
        common::assert_steady_state_is_heap_quiet(&mut hydro, &mut state, cursor, heap_ops);
    });
}

#[test]
fn steady_state_steps_do_not_touch_the_heap() {
    serial_contract(AssemblyMode::Stored);
}

/// The same contract for the matrix-free path: sum-factorized force /
/// momentum / energy kernels, the SpMV-free PCG, and the matrix-free
/// audit mass applies all run out of grow-once pools.
#[test]
fn matrix_free_steady_state_steps_do_not_touch_the_heap() {
    serial_contract(AssemblyMode::MatrixFree);
}

/// The same contract with the in-run phase table on: the telemetry sink
/// keeps a wall clock, so every kernel launch and phase of the window is
/// timed into its preallocated table.
#[test]
fn timed_steady_state_steps_do_not_touch_the_heap() {
    for mode in [AssemblyMode::Stored, AssemblyMode::MatrixFree] {
        rayon::Pool::new(1).install(|| {
            let sink = Arc::new(Telemetry::with_wall_clock());
            let cpu = CpuSpec::e5_2670();
            let exec = Executor::with_telemetry(ExecMode::CpuSerial, cpu, None, sink.clone());
            let (mut hydro, mut state, cursor) =
                common::warmed_up_solver_on(exec, mode, PcgOptions::default());
            let clock = sink.wall_clock().expect("the sink keeps a clock");
            let steps = |totals: &[WallTotal]| {
                totals.iter().find(|w| w.name == names::phases::STEP).map_or(0, |w| w.calls)
            };
            let before = steps(&clock.totals());
            common::assert_steady_state_is_heap_quiet(&mut hydro, &mut state, cursor, heap_ops);
            let after = clock.totals();
            assert_eq!(steps(&after) - before, 5, "{mode:?}: every measured step is timed");
            for phase in [names::phases::CG_SOLVER, names::phases::INTEGRATION] {
                assert!(
                    after.iter().any(|w| w.name == phase && w.ns > 0),
                    "{mode:?}: `{phase}` is timed"
                );
            }
        });
    }
}

/// A failed attempt hands back every pool buffer it was lent — the RK2
/// stage vectors, the `F_z` batch, the right-hand side, the acceleration —
/// so the rolled-back redo, and every step after it, runs out of the same
/// pools. The failure is a momentum solve that cannot meet its iteration
/// cap: in a state at rest the right-hand side is zero, and the previous
/// acceleration it is warm-started from would have to shrink to the
/// absolute floor, 300 decades down.
#[test]
fn the_step_after_a_failed_solve_does_not_touch_the_heap() {
    rayon::Pool::new(1).install(|| {
        let capped = PcgOptions { max_iter: 60, ..Default::default() };
        let (mut hydro, mut state, cursor) =
            common::warmed_up_solver_with(AssemblyMode::Stored, ExecMode::CpuSerial, capped);
        let dt = cursor.dt;
        hydro.reserve_host_telemetry(MAX_STEP_REDOS + 3);

        let mut at_rest = state.clone();
        at_rest.v.fill(0.0);
        at_rest.e.fill(0.0);
        let err = hydro.try_advance(&mut at_rest, dt).expect_err("the cap cannot be met");
        assert!(matches!(err, HydroError::PcgBreakdown { iterations: 60, .. }), "got: {err:?}");

        let before = heap_ops();
        hydro.try_advance(&mut state, dt).expect("a good step after the failed one");
        let delta = heap_ops() - before;
        assert_eq!(
            delta, 0,
            "the step after a rolled-back solve performed {delta} heap allocation(s); a \
             failed attempt must hand its pool buffers back"
        );
    });
}

/// The contract on the simulated GPU (stored assembly, device PCG; the
/// optimized kernel pipeline and the `base` ablation's monolithic launch):
/// every launch body works out of the step scratch, so the only heap users
/// left are the device's event log and power trace — reserved here from
/// the launch count the warm-up steps measured.
#[test]
fn gpu_steady_state_steps_do_not_touch_the_heap() {
    const WARM_UP_STEPS: usize = 3;
    const MEASURED_STEPS: usize = 5;
    let contract = |base: bool| {
        let gpu = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
        let exec = Executor::new(
            ExecMode::Gpu { base, gpu_pcg: true, mpi_queues: 1 },
            CpuSpec::e5_2670(),
            Some(gpu.clone()),
        );
        let problem = Sedov::default();
        let mut hydro = Hydro::<2>::builder(&problem, [6, 6])
            .executor(exec)
            .assembly(AssemblyMode::Stored)
            .build()
            .expect("problem fits");
        let mut state = hydro.initial_state();
        let mut dt = hydro.suggest_dt(&state);
        for _ in 0..WARM_UP_STEPS {
            let adv = hydro.try_advance(&mut state, dt).expect("warm-up step");
            dt = adv.dt_next;
        }

        // Launches and transfers per step so far (`suggest_dt` included), with
        // 2x headroom for PCG iteration counts drifting as the blast develops.
        let ops_per_step = gpu.events().len().div_ceil(WARM_UP_STEPS);
        gpu.reserve_telemetry(2 * ops_per_step * MEASURED_STEPS);
        hydro.reserve_host_telemetry(MEASURED_STEPS + 1);
        let launches_before = gpu.events().len();

        let before = heap_ops();
        for _ in 0..MEASURED_STEPS {
            let adv = hydro.try_advance(&mut state, dt).expect("steady-state step");
            dt = adv.dt_next;
        }
        let delta = heap_ops() - before;
        assert_eq!(
            delta, 0,
            "steady-state GPU timesteps (base: {base}) performed {delta} heap allocation(s); \
             a device force evaluation must draw its working set from the step scratch"
        );
        assert!(!hydro.executor().is_degraded(), "the window must have run on the device");
        let launched = gpu.events().len() - launches_before;
        // The monolith replaces the seven `A_z` launches of an evaluation.
        let per_eval = if base { 3 } else { 9 };
        assert!(
            launched >= MEASURED_STEPS * 2 * per_eval
                && launched <= 2 * ops_per_step * MEASURED_STEPS,
            "{launched} device operations in the window (reserved for {})",
            2 * ops_per_step * MEASURED_STEPS
        );
        assert_eq!(hydro.executor().telemetry().dropped_spans(), 0, "the span ring must not wrap");
    };
    rayon::Pool::new(1).install(|| [false, true].map(contract));
}
