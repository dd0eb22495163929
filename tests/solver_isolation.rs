//! Kernel variants are values: two solvers in one process, one running the
//! fused PCG kernels and one the launch-per-op loop, stepped in lock-step on
//! two OS threads, each land on exactly the state, simulated clock and trace
//! energy of their own solo run — and only the fused solver's device ledger
//! ever sees a fused launch. With a process-wide installed variant (what
//! `PcgOptions::fused` replaced) the second solver to start would have
//! switched the first one's kernels mid-run.

mod common;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};

use blast_repro::blast_core::{AssemblyMode, ExecMode, Executor, Hydro, Sedov};
use blast_repro::blast_kernels::k9::FUSED_SPMV_DOT;
use blast_repro::blast_la::PcgOptions;
use blast_repro::gpu_sim::{CpuSpec, DeviceCatalog, GpuDevice};

const STEPS: usize = 4;
const CSR_SPMV: &str = "csrMv_ci_kernel";

#[derive(Debug, PartialEq)]
struct Outcome {
    state_digest: u64,
    wall_bits: u64,
    energy_bits: u64,
    kernels: Vec<&'static str>,
}

/// Sedov 2D-Q2 on the simulated K20 with the device PCG; `before_step` runs
/// ahead of every step.
fn solve(fused: bool, mut before_step: impl FnMut()) -> Outcome {
    let gpu = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    let mode = ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 };
    let mut hydro = Hydro::<2>::builder(&Sedov::default(), [6, 6])
        .order(2)
        .assembly(AssemblyMode::Stored)
        .pcg(PcgOptions { fused, ..Default::default() })
        .executor(Executor::new(mode, CpuSpec::e5_2670(), Some(gpu.clone())))
        .build()
        .expect("scenario must build");
    let mut state = hydro.initial_state();
    let mut dt = hydro.suggest_dt(&state);
    for _ in 0..STEPS {
        before_step();
        dt = hydro.try_advance(&mut state, dt).expect("fault-free step").dt_next;
    }
    let end = hydro.wall_time();
    let joules = hydro.executor().host.power_trace().energy(0.0, end)
        + gpu.power_trace().energy(0.0, end);
    Outcome {
        state_digest: common::state_digest(&state),
        wall_bits: end.to_bits(),
        energy_bits: joules.to_bits(),
        kernels: gpu.kernel_summary().into_iter().map(|(name, _, _)| name).collect(),
    }
}

/// [`solve`] meeting its partner at `gate` before every step, so two
/// concurrent runs interleave step by step. A solver that panics still
/// keeps its remaining appointments before re-raising: the partner then
/// finishes and the test fails, instead of hanging in `Barrier::wait`.
fn run(fused: bool, gate: &Barrier) -> Outcome {
    let mut waits_left = STEPS;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        solve(fused, || {
            gate.wait();
            waits_left -= 1;
        })
    }));
    for _ in 0..waits_left {
        gate.wait();
    }
    outcome.unwrap_or_else(|panic| resume_unwind(panic))
}

#[test]
fn concurrent_solvers_with_different_pcg_variants_match_their_solo_runs() {
    let solo = Barrier::new(1);
    let (solo_fused, solo_unfused) = (run(true, &solo), run(false, &solo));

    let pair = Barrier::new(2);
    let (fused, unfused) = std::thread::scope(|s| {
        let a = s.spawn(|| run(true, &pair));
        let b = s.spawn(|| run(false, &pair));
        (a.join().expect("fused solver thread"), b.join().expect("unfused solver thread"))
    });

    assert_eq!(fused, solo_fused, "fused solver disturbed by its neighbour");
    assert_eq!(unfused, solo_unfused, "launch-per-op solver disturbed by its neighbour");
    assert_eq!(fused.state_digest, unfused.state_digest, "the variants are bitwise-equivalent");
    assert_ne!(fused.wall_bits, unfused.wall_bits, "the variants are billed differently");

    assert!(fused.kernels.contains(&FUSED_SPMV_DOT), "fused ledger: {:?}", fused.kernels);
    assert!(!unfused.kernels.contains(&FUSED_SPMV_DOT), "unfused ledger: {:?}", unfused.kernels);
    // The energy solve launches the plain SpMV in both.
    assert!(fused.kernels.contains(&CSR_SPMV) && unfused.kernels.contains(&CSR_SPMV));
}
