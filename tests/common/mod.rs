//! The SDC scenario of the `sdc_defense` tests, and the state digest every
//! bitwise comparison in `tests/` can use.
#![allow(dead_code)] // each test binary uses its own subset

use blast_repro::blast_core::{
    AuditConfig, CheckpointPolicy, CheckpointStore, ExecMode, Executor, Hydro, HydroError,
    HydroState, RunConfig, Sedov, MAX_STEP_REDOS,
};
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
