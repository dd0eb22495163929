//! Solver configuration is a value: two solvers in one process, stepped in
//! lock-step on two OS threads, each land on exactly the state, simulated
//! clock and trace energy of their own solo run. Three pairs:
//!
//! - fused PCG kernels vs the launch-per-op loop: only the fused solver's
//!   device ledger ever sees a fused launch. With a process-wide installed
//!   variant (what `PcgOptions::fused` replaced) the second solver to start
//!   would have switched the first one's kernels mid-run.
//! - ABFT checksums on, with a GEMM-panel flip armed, vs off: the flip lands
//!   in and is caught by the verifying solver; its neighbour neither
//!   verifies a GEMM nor sees a flip. With a process-wide ABFT mode (what
//!   `AuditConfig::abft` replaced) the plain solver's GEMMs verified too and
//!   could consume the armed flip.
//! - host pools one and two threads wide, each installed on its solver's
//!   thread: the narrow solver never dispatches a parallel call, the wide
//!   one dispatches exactly as many as it does alone. With one process-wide
//!   pool size (what `Pool::install` replaced in the tests) the second
//!   solver to start would have resized the first one's pool mid-run.

mod common;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};

use blast_repro::blast_core::{AssemblyMode, AuditConfig, ExecMode, Executor, Hydro, Sedov};
use blast_repro::blast_kernels::k9::FUSED_SPMV_DOT;
use blast_repro::blast_la::PcgOptions;
use blast_repro::gpu_sim::{derive_fault, CpuSpec, DeviceCatalog, GpuDevice, SdcPlan, SdcSite};

const STEPS: usize = 4;
const CSR_SPMV: &str = "csrMv_ci_kernel";

/// What one solver of a pair is configured with.
#[derive(Clone, Copy)]
enum Variant {
    /// Simulated K20 with the device PCG, fused or launch-per-op.
    Pcg { fused: bool },
    /// Audited serial host; `abft` switches the GEMM checksums on and plans
    /// a GEMM-panel flip for the second step attempt.
    Audited { abft: bool },
    /// Plain host solver on an installed pool of its own, `width` threads.
    Pooled { width: usize },
}

#[derive(Debug, PartialEq)]
struct Outcome {
    state_digest: u64,
    wall_bits: u64,
    energy_bits: u64,
    kernels: Vec<&'static str>,
    flips: u64,
    detected: u64,
    /// Parallel calls a `Pooled` solver's own pool dispatched (0 otherwise:
    /// the other variants share the default pool with their neighbour).
    pool_calls: u64,
}

/// Stored-assembly Sedov 2D-Q2; `before_step` runs ahead of every step.
fn solve(variant: Variant, before_step: impl FnMut()) -> Outcome {
    match variant {
        Variant::Pooled { width } => {
            let pool = rayon::Pool::new(width);
            let outcome = pool.install(|| solve_on_current_pool(variant, before_step));
            Outcome { pool_calls: pool.stats().parallel_calls, ..outcome }
        }
        _ => solve_on_current_pool(variant, before_step),
    }
}

fn solve_on_current_pool(variant: Variant, mut before_step: impl FnMut()) -> Outcome {
    let (host, problem) = (CpuSpec::e5_2670(), Sedov::default());
    let builder = Hydro::<2>::builder(&problem, [6, 6])
        .order(2)
        .assembly(AssemblyMode::Stored);
    let (builder, gpu) = match variant {
        Variant::Pcg { fused } => {
            let gpu = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
            let mode = ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 };
            let builder = builder
                .pcg(PcgOptions { fused, ..Default::default() })
                .executor(Executor::new(mode, host, Some(gpu.clone())));
            (builder, Some(gpu))
        }
        Variant::Audited { abft } => {
            let mut plan = SdcPlan::seeded(common::SEED);
            if abft {
                plan.arm(derive_fault(common::SEED, SdcSite::GemmPanel, 2, 0, false));
            }
            let builder = builder
                .executor(Executor::new(ExecMode::CpuSerial, host, None))
                .sdc_plan(plan)
                .audit(AuditConfig::default().abft(abft));
            (builder, None)
        }
        Variant::Pooled { width } => {
            let mode = ExecMode::CpuParallel { threads: width as u32 };
            (builder.executor(Executor::new(mode, host, None)), None)
        }
    };
    let mut hydro = builder.build().expect("scenario must build");
    let mut state = hydro.initial_state();
    let mut dt = hydro.suggest_dt(&state);
    for _ in 0..STEPS {
        before_step();
        dt = hydro.try_advance(&mut state, dt).expect("step heals or is fault-free").dt_next;
    }
    let end = hydro.wall_time();
    let exec = hydro.executor();
    let joules = exec.host.power_trace().energy(0.0, end)
        + gpu.as_ref().map_or(0.0, |g| g.power_trace().energy(0.0, end));
    let report = exec.resilience_report(0);
    Outcome {
        state_digest: common::state_digest(&state),
        wall_bits: end.to_bits(),
        energy_bits: joules.to_bits(),
        kernels: gpu
            .map(|g| g.kernel_summary().into_iter().map(|(name, _, _)| name).collect())
            .unwrap_or_default(),
        flips: report.sdc_flips_injected,
        detected: report.corruptions_detected,
        pool_calls: 0,
    }
}

/// [`solve`] meeting its partner at `gate` before every step, so two
/// concurrent runs interleave step by step. A solver that panics still
/// keeps its remaining appointments before re-raising: the partner then
/// finishes and the test fails, instead of hanging in `Barrier::wait`.
fn run(variant: Variant, gate: &Barrier) -> Outcome {
    let mut waits_left = STEPS;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        solve(variant, || {
            gate.wait();
            waits_left -= 1;
        })
    }));
    for _ in 0..waits_left {
        gate.wait();
    }
    outcome.unwrap_or_else(|panic| resume_unwind(panic))
}

/// Runs `a` and `b` solo, then in lock-step on two threads; returns the
/// lock-step outcomes after checking each against its solo run.
fn pair_matches_solo(a: Variant, b: Variant) -> (Outcome, Outcome) {
    let solo = Barrier::new(1);
    let (solo_a, solo_b) = (run(a, &solo), run(b, &solo));

    let pair = Barrier::new(2);
    let (out_a, out_b) = std::thread::scope(|s| {
        let ta = s.spawn(|| run(a, &pair));
        let tb = s.spawn(|| run(b, &pair));
        (ta.join().expect("first solver thread"), tb.join().expect("second solver thread"))
    });
    assert_eq!(out_a, solo_a, "first solver disturbed by its neighbour");
    assert_eq!(out_b, solo_b, "second solver disturbed by its neighbour");
    (out_a, out_b)
}

#[test]
fn concurrent_solvers_with_different_pcg_variants_match_their_solo_runs() {
    let (fused, unfused) =
        pair_matches_solo(Variant::Pcg { fused: true }, Variant::Pcg { fused: false });
    assert_eq!(fused.state_digest, unfused.state_digest, "the variants are bitwise-equivalent");
    assert_ne!(fused.wall_bits, unfused.wall_bits, "the variants are billed differently");
    assert!(fused.kernels.contains(&FUSED_SPMV_DOT), "fused ledger: {:?}", fused.kernels);
    assert!(!unfused.kernels.contains(&FUSED_SPMV_DOT), "unfused ledger: {:?}", unfused.kernels);
    // The energy solve launches the plain SpMV in both.
    assert!(fused.kernels.contains(&CSR_SPMV) && unfused.kernels.contains(&CSR_SPMV));

    let (verifying, plain) =
        pair_matches_solo(Variant::Audited { abft: true }, Variant::Audited { abft: false });
    assert_eq!(verifying.state_digest, plain.state_digest, "the caught flip heals bit-identically");
    assert!(verifying.flips >= 1, "the armed panel flip must land in the verifying solver");
    assert!(verifying.detected >= 1, "its checksums must catch it");
    assert_eq!((plain.flips, plain.detected), (0, 0), "the plain solver saw its neighbour's flip");

    let (narrow, wide) =
        pair_matches_solo(Variant::Pooled { width: 1 }, Variant::Pooled { width: 2 });
    assert_eq!(narrow.state_digest, wide.state_digest, "results are bitwise width-invariant");
    assert_eq!(narrow.pool_calls, 0, "a one-thread pool never dispatches");
    assert!(wide.pool_calls > 0, "the two-thread solver must have run on its own pool");
}
