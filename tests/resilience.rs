//! Fault-injection and recovery acceptance tests: persistent GPU faults
//! degrade the run to the CPU path bit-identically, transient faults are
//! absorbed by retries (and billed as idle-power backoff energy), numerical
//! failures roll back with a halved dt, and a disabled fault plan changes
//! nothing at all.

use std::sync::Arc;

use blast_repro::blast_core::{
    AssemblyMode, ExecMode, Executor, Hydro, HydroConfig, HydroState, RunConfig, Sedov,
};
use blast_repro::gpu_sim::{
    CpuSpec, FaultKind, FaultPlan, GpuDevice, RetryPolicy,
};
use proptest::prelude::*;
use gpu_sim::DeviceCatalog;

fn cpu_exec() -> Executor {
    Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None)
}

fn gpu_exec_with(plan: FaultPlan) -> Executor {
    let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    dev.set_fault_plan(plan);
    Executor::new(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        CpuSpec::e5_2670(),
        Some(dev),
    )
}

fn sedov_run(exec: Executor) -> (Hydro<2>, HydroState, blast_repro::blast_core::RunStats) {
    let problem = Sedov::default();
    let mut hydro = Hydro::<2>::builder(&problem, [4, 4]).executor(exec).build().unwrap();
    let mut state = hydro.initial_state();
    let stats = hydro.run(&mut state, RunConfig::to(0.05).max_steps(60)).unwrap();
    (hydro, state, stats)
}

/// The headline acceptance property: a persistent GPU fault makes the run
/// degrade to the CPU path and finish with *bit-identical* physics to a
/// pure-CPU run (fault injection fires before a kernel's functional body,
/// so the failed evaluation never contributed partial results).
#[test]
fn persistent_gpu_fault_degrades_to_cpu_bit_identically() {
    let plan = FaultPlan::seeded(7).with_persistent(FaultKind::LaunchFail, 0);
    let (h_gpu, s_gpu, stats_gpu) = sedov_run(gpu_exec_with(plan));
    let (_h_cpu, s_cpu, _stats_cpu) = sedov_run(cpu_exec());

    assert!(h_gpu.executor().is_degraded(), "persistent fault must degrade the run");
    assert_eq!(s_gpu.v, s_cpu.v, "velocity differs from pure-CPU run");
    assert_eq!(s_gpu.e, s_cpu.e, "energy differs from pure-CPU run");
    assert_eq!(s_gpu.x, s_cpu.x, "mesh differs from pure-CPU run");
    assert_eq!(s_gpu.t, s_cpu.t);

    let report = h_gpu.executor().resilience_report(stats_gpu.retries);
    assert!(report.degraded_to_cpu);
    assert!(report.faults_injected >= 1);
    assert!(report.exhausted >= 1);
    assert!(report.backoff_s > 0.0, "retries must charge backoff time");
    assert!(report.backoff_energy_j > 0.0, "backoff must cost idle energy");
    assert!(
        report.degraded_reason.unwrap().contains("failed"),
        "reason should name the fault"
    );
}

/// Same property for every fault site that can fail persistently mid-run.
#[test]
fn any_persistent_fault_kind_falls_back_bit_identically() {
    let (_h_ref, s_cpu, _) = sedov_run(cpu_exec());
    for kind in [
        FaultKind::LaunchFail,
        FaultKind::EccError,
        FaultKind::H2dFail,
        FaultKind::D2hFail,
    ] {
        let plan = FaultPlan::seeded(11).with_persistent(kind, 0);
        let (h_gpu, s_gpu, _) = sedov_run(gpu_exec_with(plan));
        assert!(h_gpu.executor().is_degraded(), "{kind:?} did not degrade");
        assert_eq!(s_gpu.v, s_cpu.v, "{kind:?}: velocity differs");
        assert_eq!(s_gpu.e, s_cpu.e, "{kind:?}: energy differs");
        assert_eq!(s_gpu.x, s_cpu.x, "{kind:?}: mesh differs");
    }
}

/// Kernel 9 is the host PCG issued sweep by sweep through a launcher, so a
/// launch can fail between any two sweeps of it. Whichever sweep of a
/// momentum solve the device is lost on — set-up, mid-iteration, first or
/// second velocity component — the error surfaces instead of a solution
/// and the warm-start cache stays uncommitted: the host redo spends the
/// iterations a pure-CPU run spends (a component committed early would
/// converge at once) and ends on the same bits.
#[test]
fn device_lost_on_any_pcg_sweep_falls_back_bit_identically() {
    use blast_repro::blast_kernels::k9::LAUNCH_NAMES;
    let two_steps = |exec: Executor| {
        let mut hydro =
            Hydro::<2>::builder(&Sedov::default(), [4, 4]).executor(exec).build().unwrap();
        let mut state = hydro.initial_state();
        let mut cg_iterations = 0;
        for _ in 0..2 {
            cg_iterations += hydro.try_step(&mut state, 1e-4).unwrap().cg_iterations;
        }
        (hydro, state, cg_iterations)
    };
    let (h_clean, _, _) = two_steps(gpu_exec_with(FaultPlan::none()));
    // The kernel launches in order (a fault plan counts them, not the
    // transfers the ledger also holds).
    let launches: Vec<&str> = h_clean
        .executor()
        .gpu
        .as_ref()
        .unwrap()
        .events()
        .iter()
        .map(|ev| ev.name)
        .filter(|name| !name.starts_with("memcpy"))
        .collect();
    // Launch ordinals of a solve that starts warm and still has to
    // iterate: the second unbroken run of kernel-9 names (both components
    // back to back) longer than two solves' set-up sweeps — the first is
    // the cold solve, and kernel 11 shares the SpMV's name.
    let is_pcg = |i: usize| LAUNCH_NAMES.contains(&launches[i]);
    let (first, sweeps) = (1..launches.len())
        .filter(|&i| is_pcg(i) && !is_pcg(i - 1))
        .map(|i| (i, (i..launches.len()).take_while(|&j| is_pcg(j)).count()))
        .filter(|&(_, len)| len > 2 * 6)
        .nth(1)
        .expect("a warm solve that iterates");

    let (_, s_cpu, iters_cpu) = two_steps(cpu_exec());
    for k in first..first + sweeps {
        let plan = FaultPlan::seeded(5).with_persistent(FaultKind::LaunchFail, k as u64);
        let (h_gpu, s_gpu, iters_gpu) = two_steps(gpu_exec_with(plan));
        assert!(h_gpu.executor().is_degraded(), "launch {k} did not degrade");
        assert_eq!(iters_gpu, iters_cpu, "launch {k}: the redo did not start from the cache");
        assert_eq!(s_gpu.v, s_cpu.v, "launch {k}: velocity differs");
        assert_eq!(s_gpu.e, s_cpu.e, "launch {k}: energy differs");
        assert_eq!(s_gpu.x, s_cpu.x, "launch {k}: mesh differs");
    }
}

/// Transient faults are absorbed by the retry policy: the run neither
/// degrades nor changes its physics relative to a fault-free GPU run, but
/// it does pay retry backoff time and idle-power energy for the recovery.
#[test]
fn transient_faults_are_retried_with_identical_physics() {
    let (h_clean, s_clean, _) = sedov_run(gpu_exec_with(FaultPlan::none()));
    let plan = FaultPlan::seeded(19)
        .with_transient(FaultKind::LaunchFail, 5)
        .with_transient(FaultKind::D2hFail, 2);
    let (h_faulty, s_faulty, stats) = sedov_run(gpu_exec_with(plan));

    assert!(!h_faulty.executor().is_degraded());
    assert_eq!(s_faulty.v, s_clean.v);
    assert_eq!(s_faulty.e, s_clean.e);
    assert_eq!(s_faulty.x, s_clean.x);

    let report = h_faulty.executor().resilience_report(stats.retries);
    assert!(report.faults_injected >= 2);
    assert!(report.recovered >= 2);
    assert_eq!(report.exhausted, 0);
    assert!((report.recovery_rate() - 1.0).abs() < 1e-12);
    // Recovery costs simulated time and idle energy.
    let clean_gpu = h_clean.executor().gpu.as_ref().unwrap();
    let faulty_gpu = h_faulty.executor().gpu.as_ref().unwrap();
    assert!(faulty_gpu.now() > clean_gpu.now(), "backoff must show up on the device clock");
}

/// With fault injection disabled the device behaves exactly as if the
/// fault framework did not exist: identical physics, identical timelines.
#[test]
fn disabled_fault_plan_changes_nothing() {
    let (h_default, s_default, _) = sedov_run(gpu_exec_with(FaultPlan::none()));

    let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    // Never touched set_fault_plan at all.
    let exec = Executor::new(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        CpuSpec::e5_2670(),
        Some(dev),
    );
    let (h_untouched, s_untouched, _) = sedov_run(exec);

    assert_eq!(s_default.v, s_untouched.v);
    assert_eq!(s_default.e, s_untouched.e);
    assert_eq!(s_default.x, s_untouched.x);
    let d = h_default.executor().gpu.as_ref().unwrap();
    let u = h_untouched.executor().gpu.as_ref().unwrap();
    assert_eq!(d.now(), u.now(), "an inactive plan must cost zero device time");
    let report = h_default.executor().resilience_report(0);
    assert_eq!(report.faults_injected, 0);
    assert_eq!(report.backoff_s, 0.0);
}

/// An over-aggressive CFL tangles the mesh mid-step; `run` rolls the
/// step back, halves dt, and still conserves energy to solver tolerance.
#[test]
fn rollback_on_mesh_tangle_conserves_energy() {
    let problem = Sedov::default();
    let config = HydroConfig { cfl: 5.0, ..Default::default() };
    let mut hydro = Hydro::<2>::builder(&problem, [4, 4]).config(config).executor(cpu_exec()).build().unwrap();
    let mut state = hydro.initial_state();
    let e0 = hydro.energies(&state);
    // t_final must exceed the (huge) suggested dt, or the horizon clamp
    // would keep every step below the tangle threshold.
    let stats = hydro.run(&mut state, RunConfig::to(0.25).max_steps(300)).expect("rollback should recover");
    assert!(stats.retries > 0, "the huge CFL must force at least one redo");
    assert!(state.t >= 0.25 - 1e-12);
    let e1 = hydro.energies(&state);
    let drift = e1.relative_change(&e0).abs();
    assert!(drift < 1e-10, "energy drift {drift} after {} redos", stats.retries);
}

/// A momentum solve that cannot meet its iteration cap fails typed, and
/// what the error carries is what the sequential component loop always
/// reported — the lowest component that failed — although the stored host
/// leg now advances every component in lock step: its error equals,
/// bit for bit, the one kernel 9 raises solving the same systems one after
/// the other. Nothing of the failed solve is committed.
#[test]
fn pcg_breakdown_reports_the_lowest_failed_component_and_commits_nothing() {
    use blast_repro::blast_core::HydroError;
    use blast_repro::blast_la::PcgOptions;
    use blast_repro::blast_telemetry::names::counters::{PCG_BREAKDOWNS, PCG_SOLVES};

    let capped_step = |exec: Executor, zones: [usize; 2]| {
        let three = PcgOptions { max_iter: 3, ..Default::default() };
        let mut hydro = Hydro::<2>::builder(&Sedov::default(), zones)
            .pcg(three)
            .executor(exec)
            .build()
            .unwrap();
        let mut state = hydro.initial_state();
        let before = state.clone();
        let err = hydro.try_step(&mut state, 1e-4).expect_err("three iterations cannot reach 1e-12");
        assert!(err.recoverable_by_rollback(), "got: {err:?}");
        assert_eq!(state, before);
        let cache = hydro.make_checkpoint(&state, 1e-4, 0, 0).accel_prev;
        assert!(cache.iter().all(|&a| a == 0.0), "a failed solve must not commit its warm start");
        // The sequential loop stops at the component that fails: one solve
        // counted, one breakdown.
        let tel = hydro.executor().telemetry();
        assert_eq!((tel.counter(PCG_SOLVES), tel.counter(PCG_BREAKDOWNS)), (1, 1));
        match err {
            HydroError::PcgBreakdown { residual, iterations } => (residual.to_bits(), iterations),
            other => panic!("expected PcgBreakdown, got {other:?}"),
        }
    };
    let host = capped_step(cpu_exec(), [5, 3]);
    assert_eq!(host.1, 3, "stalled at the cap");
    assert_eq!(host, capped_step(gpu_exec_with(FaultPlan::none()), [5, 3]));
    // Both components stall, at different residuals, or the comparison
    // above could not tell them apart: on the mirrored mesh component 0
    // solves what component 1 solves here.
    assert_ne!(host.0, capped_step(cpu_exec(), [3, 5]).0);
}

/// A failing step leaves the caller's state untouched (the checkpoint
/// contract `try_advance` relies on).
#[test]
fn failed_step_leaves_state_unchanged() {
    let problem = Sedov::default();
    let mut hydro =
        Hydro::<2>::builder(&problem, [4, 4]).executor(cpu_exec()).build().unwrap();
    let mut state = hydro.initial_state();
    let before = state.clone();
    let err = hydro.try_step(&mut state, 10.0).expect_err("dt = 10 must fail");
    assert!(err.recoverable_by_rollback(), "got: {err:?}");
    assert_eq!(state, before);
}

/// A non-finite velocity in 3D is what it is in 2D, in both assemblies: a
/// typed failure `try_advance` can roll back from. The per-point Jacobi
/// eigen-solve used to abort the process on a NaN eigenvalue before any
/// finite-value guard had seen the field.
#[test]
fn nan_velocity_in_3d_is_a_typed_recoverable_error() {
    for assembly in [AssemblyMode::Stored, AssemblyMode::MatrixFree] {
        let problem = Sedov::default();
        let mut hydro = Hydro::<3>::builder(&problem, [2, 2, 2])
            .assembly(assembly)
            .executor(cpu_exec())
            .build()
            .unwrap();
        let mut state = hydro.initial_state();
        let dt = hydro.suggest_dt(&state);
        // x-velocity of the mesh's centre node (Q2: 5 nodes an axis).
        state.v[62] = f64::NAN;
        let bits = |s: &HydroState| s.v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let before = bits(&state);
        let err = hydro.try_step(&mut state, dt).expect_err("a NaN velocity cannot step");
        assert!(err.recoverable_by_rollback(), "{assembly}: {err:?}");
        assert_eq!(bits(&state), before, "{assembly}: a failed step leaves the state alone");
    }
}

proptest! {
    /// Satellite (d), property 1: the whole faulty run is a pure function
    /// of the fault-plan seed — same seed, same physics, same fault
    /// counters, same device clock.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale property: run with --release")]
    fn fault_injection_is_deterministic_per_seed(seed in 0u64..32) {
        let plan = || FaultPlan::seeded(seed)
            .with_rate(FaultKind::LaunchFail, 0.02)
            .with_rate(FaultKind::D2hFail, 0.01);
        let (h1, s1, r1) = sedov_run(gpu_exec_with(plan()));
        let (h2, s2, r2) = sedov_run(gpu_exec_with(plan()));
        prop_assert_eq!(s1.v, s2.v);
        prop_assert_eq!(s1.e, s2.e);
        prop_assert_eq!(s1.x, s2.x);
        let g1 = h1.executor().gpu.as_ref().unwrap();
        let g2 = h2.executor().gpu.as_ref().unwrap();
        prop_assert_eq!(g1.now(), g2.now());
        prop_assert_eq!(h1.executor().resilience_report(r1.retries),
                        h2.executor().resilience_report(r2.retries));
    }

    /// Satellite (d), property 2: GPU -> CPU fallback is bit-identical to
    /// the pure-CPU run for any seed and any immediately-persistent fault
    /// site.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale property: run with --release")]
    fn fallback_bit_identity_holds_for_any_seed(seed in 0u64..16, kind_idx in 0usize..4) {
        let kind = [
            FaultKind::LaunchFail,
            FaultKind::EccError,
            FaultKind::H2dFail,
            FaultKind::D2hFail,
        ][kind_idx];
        let (_hc, s_cpu, _) = sedov_run(cpu_exec());
        let plan = FaultPlan::seeded(seed).with_persistent(kind, 0);
        let (hg, s_gpu, _) = sedov_run(gpu_exec_with(plan));
        prop_assert!(hg.executor().is_degraded());
        prop_assert_eq!(s_gpu.v, s_cpu.v);
        prop_assert_eq!(s_gpu.e, s_cpu.e);
        prop_assert_eq!(s_gpu.x, s_cpu.x);
    }

    /// Satellite (d), property 3: dt-halving rollback keeps total energy
    /// conserved to ~1e-11 no matter how aggressive the CFL was — redone
    /// steps must not double-count energy. Runs that survive only by
    /// accepting wildly under-resolved steps (compression past the
    /// ideal-gas single-shock bound of (γ+1)/(γ-1) = 6) are excluded:
    /// their energy *scale* blows up, so "relative to t=0" stops being the
    /// right yardstick even though each step conserves at its own scale.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale property: run with --release")]
    fn rollback_conserves_energy_for_any_cfl(cfl in 1.0f64..6.0) {
        let problem = Sedov::default();
        let config = HydroConfig { cfl, ..Default::default() };
        let mut hydro = Hydro::<2>::builder(&problem, [4, 4]).config(config).executor(cpu_exec()).build().unwrap();
        let mut state = hydro.initial_state();
        let e0 = hydro.energies(&state);
        let stats = hydro.run(&mut state, RunConfig::to(0.2).max_steps(400));
        prop_assume!(stats.is_ok());
        let (max_compr, _, _) = hydro.density_diagnostics(&state);
        prop_assume!(max_compr < 6.5);
        let e1 = hydro.energies(&state);
        prop_assert!(e1.relative_change(&e0).abs() < 1e-10,
            "drift {} (cfl {cfl}, retries {})",
            e1.relative_change(&e0), stats.unwrap().retries);
    }
}

#[test]
fn retry_policy_off_makes_first_fault_terminal() {
    let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    dev.set_fault_plan(FaultPlan::seeded(1).with_transient(FaultKind::LaunchFail, 0));
    dev.set_retry_policy(RetryPolicy::no_retries());
    let exec = Executor::new(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        CpuSpec::e5_2670(),
        Some(dev),
    );
    let problem = Sedov::default();
    let mut hydro = Hydro::<2>::builder(&problem, [4, 4]).executor(exec).build().unwrap();
    let mut state = hydro.initial_state();
    // Even a transient fault is terminal without retries -> degradation.
    hydro.run(&mut state, RunConfig::to(0.01).max_steps(20)).expect("degradation still saves the run");
    assert!(hydro.executor().is_degraded());
}

// ---------------------------------------------------------------------------
// PR 2 satellites: the recovery-ladder accounting fix and the
// MAX_STEP_REDOS boundary.
// ---------------------------------------------------------------------------

use blast_repro::blast_core::solver::MAX_STEP_REDOS;
use blast_repro::blast_core::HydroError;

/// Regression for the recovery-ladder gap: a device fault injected *during
/// a rollback redo attempt* must land in `ResilienceReport::redo_faults`
/// (pre-fix, redo attempts were a blind spot of the retry totals).
#[test]
fn device_faults_during_rollback_redo_are_counted() {
    // Per-op fault rate: the step redone after the injected rollbacks
    // launches many kernels, so some faults deterministically (seeded)
    // land inside the watched redo attempt.
    let plan = FaultPlan::seeded(0).with_rate(FaultKind::LaunchFail, 0.1);
    let exec = gpu_exec_with(plan);
    let problem = Sedov::default();
    let mut hydro = Hydro::<2>::builder(&problem, [4, 4]).executor(exec).build().unwrap();
    let mut state = hydro.initial_state();
    let dt = hydro.suggest_dt(&state);
    // Two injected step faults force two rollback redos before real work.
    hydro.inject_step_faults(2);
    let adv = hydro.try_advance(&mut state, dt).expect("retries absorb the rate");
    assert!(adv.redos >= 2, "injected faults must cause redos: {}", adv.redos);
    let report = hydro.executor().resilience_report(adv.redos);
    assert!(
        report.redo_faults >= 1,
        "fault during a redo attempt must be counted: {report:?}"
    );
    assert!(report.faults_injected >= report.redo_faults);
}

/// Exactly at the budget: MAX_STEP_REDOS consecutive recoverable failures
/// still produce an accepted step on the final attempt.
#[test]
fn redo_budget_exactly_at_limit_succeeds() {
    let problem = Sedov::default();
    let mut hydro =
        Hydro::<2>::builder(&problem, [4, 4]).executor(cpu_exec()).build().unwrap();
    let mut state = hydro.initial_state();
    let dt = hydro.suggest_dt(&state);
    hydro.inject_step_faults(MAX_STEP_REDOS);
    let adv = hydro.try_advance(&mut state, dt).expect("at-limit must still succeed");
    assert!(adv.redos >= MAX_STEP_REDOS);
    assert!(state.t > 0.0, "the final attempt must have been accepted");
}

/// One past the budget: the typed error surfaces and the caller's state is
/// the last good checkpoint, not a mid-rollback intermediate.
#[test]
fn redo_budget_limit_plus_one_fails_with_state_intact() {
    let problem = Sedov::default();
    let mut hydro =
        Hydro::<2>::builder(&problem, [4, 4]).executor(cpu_exec()).build().unwrap();
    let mut state = hydro.initial_state();
    let dt = hydro.suggest_dt(&state);
    let before = state.clone();
    hydro.inject_step_faults(MAX_STEP_REDOS + 1);
    let err = hydro.try_advance(&mut state, dt).expect_err("limit+1 must fail");
    assert!(
        matches!(err, HydroError::NonFinite { .. }),
        "typed recoverable error expected: {err:?}"
    );
    assert_eq!(state, before, "state must be left at the last good checkpoint");
}

proptest! {
    /// Any in-budget burst of consecutive recoverable failures is absorbed,
    /// with the redo count accounting for every injected fault.
    #[test]
    fn redo_budget_in_range_always_recovers(k in 0usize..=MAX_STEP_REDOS) {
        let problem = Sedov::default();
        let mut hydro =
            Hydro::<2>::builder(&problem, [4, 4]).executor(cpu_exec()).build().unwrap();
        let mut state = hydro.initial_state();
        let dt = hydro.suggest_dt(&state);
        hydro.inject_step_faults(k);
        let adv = hydro.try_advance(&mut state, dt);
        prop_assert!(adv.is_ok(), "k = {k} within budget must succeed");
        prop_assert!(adv.unwrap().redos >= k);
    }
}

// ---------------------------------------------------------------------------
// PR 25: the two budgets of `try_advance`'s redo ladder stay apart.
// ---------------------------------------------------------------------------

use blast_repro::blast_core::AuditConfig;
use blast_repro::gpu_sim::{SdcFault, SdcPlan, SdcSite};

/// A CFL redo draws on its own budget, never on `MAX_STEP_REDOS`: a step
/// asked for at ~300x the suggested dt spends the whole rollback budget on
/// injected faults (eight halvings), still overshoots the CFL bound at
/// dt/256, and is redone at 85 % of the estimate and accepted anyway.
#[test]
fn cfl_redos_never_draw_on_the_rollback_budget() {
    let mut hydro =
        Hydro::<2>::builder(&Sedov::default(), [4, 4]).executor(cpu_exec()).build().unwrap();
    let mut state = hydro.initial_state();
    let asked = 300.0 * hydro.suggest_dt(&state);
    hydro.inject_step_faults(MAX_STEP_REDOS);
    let adv = hydro.try_advance(&mut state, asked).expect("the CFL redo has a budget of its own");
    let halved = asked / (1 << MAX_STEP_REDOS) as f64;
    assert!(adv.redos > MAX_STEP_REDOS, "redos {}", adv.redos);
    assert!(adv.outcome.dt_used < halved, "{} not below dt/256 = {halved}", adv.outcome.dt_used);
    assert_eq!(state.t, adv.outcome.dt_used, "the step was accepted");
}

/// A recoverable failure with an audit pending (cadence 3, one unaudited
/// step committed) audits the restored pre-step state before the halving
/// redo: a clean state passes and the redo runs at dt/2; a state carrying
/// a committed flip fails the step as `CorruptionDetected`, so `run` can
/// roll back to a checkpoint instead of halving on a poisoned snapshot.
#[test]
fn a_recoverable_failure_audits_the_restored_state_before_halving() {
    let flip =
        SdcFault { site: SdcSite::HostState, at_step: 1, bit: 62, lane: 1, persistent: false };
    for corrupted in [false, true] {
        let plan = if corrupted { SdcPlan::none().with_flip_at(flip) } else { SdcPlan::none() };
        let mut hydro = Hydro::<2>::builder(&Sedov::default(), [4, 4])
            .executor(cpu_exec())
            .sdc_plan(plan)
            .audit(AuditConfig::default().every_steps(3))
            .build()
            .unwrap();
        let mut state = hydro.initial_state();
        // Half the suggested dt: no CFL redo replays the flipped attempt.
        let dt = 0.5 * hydro.suggest_dt(&state);
        let first = hydro.try_advance(&mut state, dt).expect("no audit due at step 1");
        assert_eq!(first.redos, 0);
        let (dt, committed) = (first.dt_next, state.clone());
        let before = hydro.executor().resilience_report(0);
        assert_eq!(before.sdc_flips_injected, corrupted as u64);
        hydro.inject_step_faults(1);
        let res = hydro.try_advance(&mut state, dt);
        let after = hydro.executor().resilience_report(0);
        assert_eq!(after.audits_run, before.audits_run + 1, "{corrupted}: one pending audit");
        if corrupted {
            let err = res.expect_err("the restored state carries the flip");
            assert!(matches!(err, HydroError::CorruptionDetected { .. }), "{err:?}");
            assert_eq!(after.corruptions_detected, 1);
            assert_eq!(state, committed, "the restored state is the one audited");
        } else {
            let adv = res.expect("a clean restored state passes");
            assert_eq!((adv.redos, adv.outcome.dt_used), (1, 0.5 * dt));
        }
    }
}
