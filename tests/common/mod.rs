//! The SDC scenario of the `sdc_defense` tests, the state digest every
//! bitwise comparison in `tests/` can use, and the steady-state heap
//! contract the two `zero_alloc_*` binaries assert at their pool widths.
#![allow(dead_code)] // each test binary uses its own subset

use blast_repro::blast_core::{
    AssemblyMode, AuditConfig, CheckpointPolicy, CheckpointStore, ExecMode, Executor, Hydro,
    HydroError, HydroState, RunConfig, RunCursor, Sedov, MAX_STEP_REDOS,
};
use blast_repro::blast_la::PcgOptions;
use blast_repro::blast_telemetry::{names, Track};
use blast_repro::gpu_sim::{CpuSpec, SdcPlan};
use blast_repro::powermon::ResilienceReport;

/// Same geometry and flip schedule as the `sdc_campaign` gate: [8,8]
/// order-2 Sedov, 24 accepted steps, flips landing mid-run.
const ZONES: [usize; 2] = [8, 8];
const STEPS: usize = 24;
pub const FLIP_AT: u64 = 10;
pub const SEED: u64 = 42;

/// FNV-1a over the bit patterns of the final state `(v, e, x, t)`.
pub fn state_digest(s: &HydroState) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in s.v.iter().chain(&s.e).chain(&s.x).chain(std::iter::once(&s.t)) {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub struct RunResult {
    pub state: HydroState,
    pub result: Result<(), HydroError>,
    pub report: ResilienceReport,
    pub store: CheckpointStore,
}

/// One checkpointed, audited, step-bound Sedov run with the given plan.
pub fn run_scenario(plan: SdcPlan, audit: AuditConfig) -> RunResult {
    let exec = Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None);
    let mut hydro = Hydro::<2>::builder(&Sedov::default(), ZONES)
        .order(2)
        .executor(exec)
        .sdc_plan(plan)
        .audit(audit)
        .build()
        .expect("scenario must build");
    hydro.reserve_host_telemetry(STEPS + 2 * MAX_STEP_REDOS);
    let mut state = hydro.initial_state();
    let mut store = CheckpointStore::in_memory();
    let result = hydro
        .run(
            &mut state,
            RunConfig::to(1.0)
                .max_steps(STEPS)
                .checkpointed(CheckpointPolicy::EverySteps(2), &mut store),
        )
        .map(|_| ());
    let report = hydro.executor().resilience_report(0);
    RunResult { state, result, report, store }
}

/// A 6x6 Sedov solver on the host with the full SDC defense on
/// (ABFT-checksummed GEMMs and the per-step physics-invariant audit, whose
/// scratch grows once like every other pool), stepped until every scratch
/// pool has reached its high-water size: pipeline intermediates, F_z /
/// accel / de pools, PCG vectors, RK2 stage vectors, the rollback snapshot
/// and the calling thread's kernel scratch. Returns the solver, its state
/// and the cursor of the loop so far.
pub fn warmed_up_solver(
    assembly: AssemblyMode,
    mode: ExecMode,
) -> (Hydro<2>, HydroState, RunCursor) {
    warmed_up_solver_with(assembly, mode, PcgOptions::default())
}

/// [`warmed_up_solver`] with the momentum solve's options chosen.
pub fn warmed_up_solver_with(
    assembly: AssemblyMode,
    mode: ExecMode,
    pcg: PcgOptions,
) -> (Hydro<2>, HydroState, RunCursor) {
    let exec = Executor::new(mode, CpuSpec::e5_2670(), None);
    let mut hydro = Hydro::<2>::builder(&Sedov::default(), [6, 6])
        .executor(exec)
        .audit(AuditConfig::default().abft(true))
        .assembly(assembly)
        .pcg(pcg)
        .build()
        .expect("problem fits");
    let mut state = hydro.initial_state();
    let mut store = CheckpointStore::in_memory();
    let mut cursor = hydro.begin(&mut state, &store).expect("initial dt");
    for _ in 0..3 {
        hydro
            .advance(&mut state, &mut cursor, f64::INFINITY, CheckpointPolicy::Never, &mut store)
            .expect("warm-up step");
    }
    (hydro, state, cursor)
}

/// Steps a warmed-up solver through a measured window of `Hydro::advance`
/// in which `heap_ops` (the binary's allocation counter) must not move —
/// with the telemetry layer recording into its reserved ring.
pub fn assert_steady_state_is_heap_quiet(
    hydro: &mut Hydro<2>,
    state: &mut HydroState,
    mut cursor: RunCursor,
    heap_ops: fn() -> u64,
) {
    const MEASURED_STEPS: usize = 5;
    hydro.reserve_host_telemetry(MEASURED_STEPS + 1);
    let tel = hydro.executor().telemetry().clone();
    let steps_before = tel.counter(names::counters::STEPS);
    let spans_before = tel.spans().len();

    let mut store = CheckpointStore::in_memory();
    let before = heap_ops();
    for _ in 0..MEASURED_STEPS {
        hydro
            .advance(state, &mut cursor, f64::INFINITY, CheckpointPolicy::Never, &mut store)
            .expect("steady-state step");
    }
    let delta = heap_ops() - before;
    assert_eq!(
        delta, 0,
        "steady-state timesteps performed {delta} heap allocation(s); the \
         corner-force hot path (with telemetry recording) must be allocation-free"
    );

    // The zero-alloc window was not silent: the telemetry sink recorded it.
    let steps_after = tel.counter(names::counters::STEPS);
    assert_eq!(
        steps_after - steps_before,
        MEASURED_STEPS as u64,
        "the steps counter must advance inside the measured window"
    );
    let spans = tel.spans();
    assert!(
        spans.len() >= spans_before + MEASURED_STEPS,
        "STEP spans must land in the preallocated ring: {} -> {}",
        spans_before,
        spans.len()
    );
    let step_spans = spans
        .iter()
        .filter(|s| s.track == Track::Host && s.name == names::phases::STEP)
        .count();
    assert!(step_spans >= MEASURED_STEPS, "expected >= {MEASURED_STEPS} STEP spans");
    assert_eq!(tel.dropped_spans(), 0, "the reserved ring must not overflow");
}
