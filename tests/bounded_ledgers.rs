//! Release-only soaks: a run's device ledgers stay inside
//! `powermon::WINDOW` however many steps it takes, while the totals every
//! report reads keep counting all of them (DESIGN §12).

use blast_repro::blast_core::checkpoint::{CheckpointPolicy, CheckpointStore};
use blast_repro::blast_core::{
    AssemblyMode, AuditConfig, ExecMode, Executor, Hydro, RunConfig, Sedov, ENERGY_RECONCILE_TOL,
};
use blast_repro::blast_serve::{JobSpec, Scenario, ServeConfig, Supervisor, WorkerSpec};
use blast_repro::blast_telemetry::{names, Track};
use blast_repro::gpu_sim::{DeviceCatalog, GpuDevice};
use blast_repro::powermon::WINDOW;
use std::sync::Arc;

/// 10⁴ audited GPU-mode steps of a small Sedov: the event window and both
/// power traces stay bounded, the per-kernel totals count every launch the
/// telemetry counted, and the host profile still reconciles with the span
/// totals.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn ten_thousand_gpu_steps_keep_every_ledger_inside_the_window() {
    const STEPS: usize = 10_000;
    let problem = Sedov::default();
    let mut hydro = Hydro::<2>::builder(&problem, [4, 4])
        .device(&DeviceCatalog::get("k20"))
        .mode(ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 })
        .cfl(0.05)
        .audit(AuditConfig::default())
        .build()
        .expect("setup");
    let mut state = hydro.initial_state();
    let mut store = CheckpointStore::in_memory();
    let mut cursor = hydro.begin(&mut state, &store).expect("begin");
    while cursor.steps < STEPS {
        hydro
            .advance(&mut state, &mut cursor, f64::MAX, CheckpointPolicy::Never, &mut store)
            .unwrap_or_else(|e| panic!("step {} at t = {}: {e}", cursor.steps, state.t));
        if cursor.steps % 1000 == 0 {
            let exec = hydro.executor();
            let gpu = exec.gpu.as_ref().expect("gpu");
            assert!(gpu.events().len() <= WINDOW);
            assert!(gpu.power_trace().segments().len() <= WINDOW);
            assert!(exec.host.power_trace().segments().len() <= WINDOW);
        }
    }

    let exec = hydro.executor();
    let gpu = exec.gpu.as_ref().expect("gpu");
    let tel = exec.telemetry();
    let transfers = [names::phases::MEMCPY_H2D, names::phases::MEMCPY_D2H];
    let launches: usize = gpu
        .kernel_summary()
        .iter()
        .filter(|(name, _, _)| !transfers.contains(name))
        .map(|&(_, _, calls)| calls)
        .sum();
    assert_eq!(launches as u64, tel.counter(names::counters::GPU_LAUNCHES));
    assert!(launches > WINDOW, "the soak must outrun the window: {launches} launches");

    let totals = tel.phase_totals(Some(Track::Host));
    for (name, seconds, calls) in hydro.phase_profile() {
        let tot = totals.iter().find(|t| t.name == name).expect("a profiled phase has spans");
        assert!((tot.seconds - seconds).abs() < 1e-9, "{name}: {} vs {seconds}", tot.seconds);
        assert_eq!(tot.calls, calls as u64, "{name}");
    }
}

/// A long-lived GPU worker whose lifetime traces pass `WINDOW` segments
/// (each attempt re-emitted whole, well inside it) still closes its books.
/// The late last job leaves the worker's clock an ulp short of its shifted
/// host trace's end, so the whole-run query that bills the worker reads the
/// window, starting from the dropped segments' sums. That case depends on
/// the billed phase sequence, so the test replays the late job and asserts
/// it: a changed sequence fails here instead of dropping the case.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_worker_trace_past_the_window_still_reconciles() {
    const FILLERS: usize = 110;
    const STEPS: usize = 53;
    const LATE_STEPS: usize = 51;
    const LATE_ARRIVAL_S: f64 = 10.0;
    let worker = WorkerSpec::from_device(&DeviceCatalog::get("k20"));
    // A job's attempt, billed on an executor built as the supervisor
    // builds one, stepped as its quanta step it.
    let attempt = |max_steps: usize| {
        let gpu = Arc::new(GpuDevice::new(worker.gpu.clone().expect("a gpu worker")));
        let mode = ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 1 };
        let exec = Executor::new(mode, worker.host.clone(), Some(gpu));
        let mut hydro = Scenario::Sedov.build([4, 4], 2, exec, None).expect("setup");
        let mut state = hydro.initial_state();
        let mut store = CheckpointStore::in_memory();
        let policy = CheckpointPolicy::EverySteps(JobSpec::default().checkpoint_every);
        let mut cursor = hydro.begin(&mut state, &store).expect("begin");
        while !cursor.done(&state, 1.0, max_steps) {
            hydro.advance(&mut state, &mut cursor, 1.0, policy, &mut store).expect("a step");
        }
        hydro
    };
    // One filler's segments.
    let filler = attempt(STEPS);
    let host = filler.executor().host.power_trace().segments().len();
    let gpu = filler.executor().gpu.as_ref().expect("gpu");
    let device = gpu.power_trace().segments().len();
    assert!(device < WINDOW && FILLERS * host > WINDOW, "{host} host, {device} gpu segments");
    // The late job alone: the worker clock it leaves, `offset + wall`, and
    // the end of its host trace shifted by the same offset.
    let late = attempt(LATE_STEPS);
    let clock = LATE_ARRIVAL_S + late.executor().now();
    let last = *late.executor().host.power_trace().segments().last().expect("host segments");
    let trace_end = (last.start + LATE_ARRIVAL_S) + last.duration;
    assert_eq!(trace_end, clock.next_up(), "the worker clock {clock} is not an ulp short");

    let job = |tenant: String, max_steps: usize, arrival_s: f64| JobSpec {
        tenant,
        scenario: Scenario::Sedov,
        zones: [4, 4],
        order: 2,
        t_final: 1.0,
        max_steps,
        arrival_s,
        ..JobSpec::default()
    };
    let cfg = ServeConfig { queue_capacity: 128, ..ServeConfig::default() };
    let mut sup = Supervisor::new(cfg, vec![worker]);
    for i in 0..FILLERS {
        sup.submit(job(format!("t{}", i % 3), STEPS, 0.0)).expect("fits the queue");
    }
    sup.submit(job("last".into(), LATE_STEPS, LATE_ARRIVAL_S)).expect("fits the queue");
    let report = sup.run_to_completion();
    assert!(report.all_terminal());
    // The replay is the supervisor's run: the fillers were done before the
    // late job arrived, and its attempt ended the worker's clock there.
    let record = report.jobs.iter().find(|j| j.tenant == "last").expect("the late job");
    assert_eq!(record.started_s, Some(LATE_ARRIVAL_S));
    assert_eq!(record.finished_s.map(f64::to_bits), Some(clock.to_bits()));
    let err = report.reconciliation_error();
    assert!(err <= ENERGY_RECONCILE_TOL, "reconciliation error {err}:\n{}", report.summary());
}

/// One attempt whose own device trace passes `WINDOW` segments: `harvest`
/// re-emits the stretch that trace dropped as one segment, so the worker's
/// books still close however long a tenant's job runs.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn an_attempt_past_the_window_still_reconciles() {
    let worker = WorkerSpec::from_device(&DeviceCatalog::get("k20"));
    let spec = JobSpec { zones: [8, 8], t_final: 1.0, max_steps: 1000, ..JobSpec::default() };
    // The attempt alone, billed on an executor built as the supervisor
    // builds one: every launch and transfer pushed one segment.
    let gpu = Arc::new(GpuDevice::new(worker.gpu.clone().expect("a gpu worker")));
    let mode = ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 1 };
    let exec = Executor::new(mode, worker.host.clone(), Some(gpu.clone()));
    let mut hydro = spec.scenario.build(spec.zones, spec.order, exec, None).expect("setup");
    let mut state = hydro.initial_state();
    hydro.run(&mut state, RunConfig::to(spec.t_final).max_steps(spec.max_steps)).expect("alone");
    let pushed: usize = gpu.kernel_summary().iter().map(|&(_, _, calls)| calls).sum();
    assert!(pushed > WINDOW, "the attempt must outrun the window: {pushed} segments");

    let mut sup = Supervisor::new(ServeConfig::default(), vec![worker]);
    sup.submit(spec).expect("fits the queue");
    let report = sup.run_to_completion();
    assert!(report.all_terminal());
    let err = report.reconciliation_error();
    assert!(err <= ENERGY_RECONCILE_TOL, "reconciliation error {err}:\n{}", report.summary());
}

/// The benchmark's traced `sedov3d_q2_gpu` pass sums `events()` for its busy
/// share and counts `segments()` (`benchmark/src/trace.rs`): both are whole
/// only while the pass fits the window. Same build and call sequence as
/// there: `try_suggest_dt`, two warm-up steps, `try_suggest_dt`, six steps.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_benchmark_gpu_pass_fits_the_window() {
    let mut hydro = Hydro::<3>::builder(&Sedov::default(), [8; 3])
        .order(2)
        .assembly(AssemblyMode::Stored)
        .device(&DeviceCatalog::get("k20"))
        .mode(ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 8 })
        .build()
        .expect("setup");
    let mut state = hydro.initial_state();
    let mut dt = hydro.try_suggest_dt(&state).expect("dt");
    for _ in 0..2 {
        dt = hydro.try_advance(&mut state, dt).expect("warm-up").dt_next;
    }
    dt = hydro.try_suggest_dt(&state).expect("dt");
    for _ in 0..6 {
        dt = hydro.try_advance(&mut state, dt).expect("step").dt_next;
    }
    let exec = hydro.executor();
    let gpu = exec.gpu.as_ref().expect("gpu");
    let segments = exec.host.power_trace().segments().len() + gpu.power_trace().segments().len();
    let events = gpu.events().len();
    assert!(segments < WINDOW && events < WINDOW, "{segments} segments, {events} events");
}
