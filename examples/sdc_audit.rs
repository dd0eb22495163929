//! Silent-data-corruption audit walkthrough: the physics-invariant
//! auditor (`AuditConfig`) against seeded bit flips (`SdcPlan`).
//!
//! Three runs of the same 8x8 Q2-Q1 Sedov blast:
//!
//! 1. a *transient* flip in a committed host state array at the default
//!    audit cadence (1): caught before the next commit, healed by the
//!    in-place snapshot redo — final state bit-identical to fault-free;
//! 2. the same flip audited on a cadence of 4: the corruption is
//!    *committed* for up to 3 steps before detection, so healing must
//!    roll back to the newest **audited-clean** checkpoint and replay;
//! 3. a *persistent* flip that re-fires on every replay: the redo and
//!    rollback budgets drain and the run fails with a typed
//!    `CorruptionDetected` carrying the replay coordinates (seed, step,
//!    audit, measured vs tolerance) — never a silently wrong answer.
//!
//! Run with: `cargo run --release --example sdc_audit`

use blast_repro::blast_core::{
    AuditConfig, CheckpointPolicy, CheckpointStore, ExecMode, Executor, Hydro, HydroError,
    HydroState, RunConfig, Sedov,
};
use blast_repro::gpu_sim::{derive_fault, CpuSpec, SdcPlan, SdcSite, FAULT_SEED_ENV};
use blast_repro::powermon::ResilienceReport;

const STEPS: usize = 24;
const FLIP_AT: u64 = 10;

fn run(plan: SdcPlan, audit: AuditConfig) -> (Result<(), HydroError>, HydroState, ResilienceReport) {
    let exec = Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None);
    let mut hydro = Hydro::<2>::builder(&Sedov::default(), [8, 8])
        .order(2)
        .executor(exec)
        .sdc_plan(plan)
        .audit(audit)
        .build()
        .expect("setup");
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
    (result, state, report)
}

fn bit_identical(a: &HydroState, b: &HydroState) -> bool {
    a.v == b.v && a.e == b.e && a.x == b.x
}

fn main() {
    let seed = 42u64;
    println!("SDC audit walkthrough, fault seed {seed} (override with {FAULT_SEED_ENV})\n");

    let (ok, clean, base_rep) = run(SdcPlan::seeded(seed), AuditConfig::default());
    ok.expect("fault-free baseline");
    println!(
        "baseline: {} audits, overhead {:.3} s / {:.2} J — no detections\n",
        base_rep.audits_run, base_rep.audit_s, base_rep.audit_energy_j
    );

    // 1. Transient flip, cadence 1: caught pre-commit, snapshot redo.
    let mut plan = SdcPlan::seeded(seed);
    plan.arm(derive_fault(seed, SdcSite::HostState, FLIP_AT, 3, false));
    let (ok, state, rep) = run(plan, AuditConfig::default());
    ok.expect("transient flip heals");
    println!(
        "transient flip, cadence 1: {} flip(s) landed, {} detected, {} rollback(s); \
         bit-identical to fault-free: {}",
        rep.sdc_flips_injected,
        rep.corruptions_detected,
        rep.restores,
        bit_identical(&state, &clean)
    );

    // 2. Same flip, cadence 4: committed before detection -> checkpoint
    //    rollback. Checkpoints are only written from audited-clean states,
    //    so the restored generation is guaranteed uncorrupted.
    let mut plan = SdcPlan::seeded(seed);
    plan.arm(derive_fault(seed, SdcSite::HostState, FLIP_AT + 1, 7, false));
    let (ok, state, rep) = run(plan, AuditConfig::default().every_steps(4));
    ok.expect("late-detected flip heals via rollback");
    println!(
        "late detect, cadence 4: {} detected, {} checkpoint rollback(s); \
         bit-identical to fault-free: {}",
        rep.corruptions_detected,
        rep.restores,
        bit_identical(&state, &clean)
    );

    // 3. Persistent flip: recovery budgets drain, the failure is typed.
    let mut plan = SdcPlan::seeded(seed);
    plan.arm(derive_fault(seed, SdcSite::DeviceBuffer, FLIP_AT, 11, true));
    let (err, _, rep) = run(plan, AuditConfig::default());
    let err = err.expect_err("a persistent flip must fail typed");
    println!(
        "persistent flip: {} detections, {} rollback(s), then a typed error:",
        rep.corruptions_detected, rep.restores
    );
    println!("  {err}");
    println!("  replay with {FAULT_SEED_ENV}={seed}");
}
