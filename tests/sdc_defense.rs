//! Silent-data-corruption defense, end to end: a seeded bit flip in any
//! modeled site is either detected and healed **bit-identically** (the
//! final state matches the fault-free run exactly) or surfaces as a typed
//! `HydroError::CorruptionDetected` with the replay coordinates in its
//! message — never a silently wrong answer. The detection/recovery work is
//! billed into the `ResilienceReport`, and the serve layer's SDC chaos
//! band upholds the same contract across a multi-tenant job mix.

mod common;

use blast_repro::blast_core::{AuditConfig, HydroError, ENERGY_RECONCILE_TOL};
use blast_repro::blast_serve::{JobOutcome, JobSpec, Scenario, ServeConfig, Supervisor, WorkerSpec};
use blast_repro::gpu_sim::{derive_fault, SdcPlan, SdcSite};

use common::{run_scenario, state_digest, FLIP_AT, SEED};

/// A transient flip in a committed host state array is caught by the
/// physics-invariant audit, healed to a final state **bit-identical** to
/// the fault-free run, and the detection/recovery work is billed.
#[test]
fn transient_host_flip_is_healed_bit_identically_and_billed() {
    let baseline = run_scenario(SdcPlan::seeded(SEED), AuditConfig::default());
    baseline.result.as_ref().expect("fault-free baseline completes");
    assert_eq!(baseline.report.corruptions_detected, 0, "baseline must not trip the auditor");
    assert!(baseline.report.audits_run > 0, "auditing must actually run");

    let mut plan = SdcPlan::seeded(SEED);
    plan.arm(derive_fault(SEED, SdcSite::HostState, FLIP_AT, 3, false));
    let flipped = run_scenario(plan, AuditConfig::default());

    flipped.result.as_ref().expect("transient flip must be healed, not fatal");
    assert_eq!(
        state_digest(&flipped.state),
        state_digest(&baseline.state),
        "healed run must be bit-identical to the fault-free baseline"
    );
    assert!(flipped.report.sdc_flips_injected >= 1, "the planned flip must land");
    assert!(flipped.report.corruptions_detected >= 1, "the flip must be detected");
    assert!(flipped.report.audit_s > 0.0, "audit time must be billed");
    assert!(flipped.report.audit_energy_j > 0.0, "audit energy must be billed");
}

/// A flip inside a GEMM panel is caught *pre-commit* by the ABFT column
/// checksums (`AuditConfig::abft`) and healed bit-identically.
#[test]
fn abft_catches_gemm_panel_flip_end_to_end() {
    let audit = AuditConfig::default().abft(true);
    let baseline = run_scenario(SdcPlan::seeded(SEED), audit);
    let mut plan = SdcPlan::seeded(SEED);
    plan.arm(derive_fault(SEED, SdcSite::GemmPanel, FLIP_AT, 0, false));
    let r = run_scenario(plan, audit);

    r.result.as_ref().expect("ABFT-caught flip must be healed");
    assert_eq!(state_digest(&r.state), state_digest(&baseline.state));
    assert!(r.report.sdc_flips_injected >= 1, "the armed panel flip must land");
    assert!(r.report.corruptions_detected >= 1, "the checksums must catch it");
}

/// Device-side sites (result buffer, device→host transfer) are covered by
/// the same audit net: each transient flip heals bit-identically.
#[test]
fn device_and_transfer_flips_are_healed_bit_identically() {
    let baseline = run_scenario(SdcPlan::seeded(SEED), AuditConfig::default());
    let baseline_digest = state_digest(&baseline.state);
    for (ordinal, site) in [(1, SdcSite::DeviceBuffer), (2, SdcSite::TransferPayload)] {
        let mut plan = SdcPlan::seeded(SEED);
        plan.arm(derive_fault(SEED, site, FLIP_AT, ordinal, false));
        let r = run_scenario(plan, AuditConfig::default());
        r.result.as_ref().unwrap_or_else(|e| panic!("{site:?} flip must heal: {e}"));
        assert_eq!(state_digest(&r.state), baseline_digest, "{site:?} digest diverged");
        assert!(r.report.corruptions_detected >= 1, "{site:?} flip escaped detection");
    }
}

/// At audit cadence 4 a flip is *committed* before detection, so recovery
/// must roll back to the newest trusted checkpoint — and still converge to
/// the bit-identical answer.
#[test]
fn late_detection_recovers_through_checkpoint_rollback() {
    let baseline = run_scenario(SdcPlan::seeded(SEED), AuditConfig::default());
    let mut plan = SdcPlan::seeded(SEED);
    plan.arm(derive_fault(SEED, SdcSite::HostState, FLIP_AT + 1, 7, false));
    let r = run_scenario(plan, AuditConfig::default().every_steps(4));

    r.result.as_ref().expect("late-detected flip must still heal");
    assert_eq!(state_digest(&r.state), state_digest(&baseline.state));
    assert!(r.report.restores >= 1, "recovery must take the checkpoint rollback path");
}

/// A persistent flip re-fires on every replay: the redo and rollback
/// budgets drain and the run fails with a **typed** error whose message
/// carries the replay coordinates (step, audit, measured vs tolerance) —
/// the checkpoint store stays intact with the last clean state.
#[test]
fn persistent_flip_fails_typed_with_replayable_coordinates() {
    let mut plan = SdcPlan::seeded(SEED);
    plan.arm(derive_fault(SEED, SdcSite::DeviceBuffer, FLIP_AT, 11, true));
    let r = run_scenario(plan, AuditConfig::default());

    let err = r.result.expect_err("a persistent flip must exhaust recovery");
    match err {
        HydroError::CorruptionDetected { step, audit, measured, tolerance } => {
            assert!(step >= FLIP_AT, "detection at attempt {step} predates the flip");
            assert!(!audit.is_empty());
            assert!(measured.is_nan() || measured.abs() > tolerance);
            let msg = err.to_string();
            assert!(msg.contains("silent data corruption"), "message: {msg}");
            assert!(msg.contains(&format!("step {step}")), "message: {msg}");
            assert!(msg.contains(audit), "message: {msg}");
        }
        other => panic!("expected CorruptionDetected, got {other}"),
    }
    assert!(
        r.store.latest_valid().is_some(),
        "the checkpoint store must survive a lethal corruption burst"
    );
    assert!(r.report.corruptions_detected >= 1);
}

/// The serve layer's SDC chaos band: every quantum rolls a corruption
/// burst, yet every job reaches a terminal state, billing reconciles with
/// the worker power traces, and the whole timeline replays to the same
/// ledger digest from the seed — no silent wrong answers, no limbo.
#[test]
fn serve_sdc_chaos_band_upholds_the_contract() {
    fn run_once(seed: u64) -> blast_repro::blast_serve::ServeReport {
        let cfg = ServeConfig { seed, sdc_rate: 0.35, ..ServeConfig::default() };
        let mut sup = Supervisor::new(cfg, vec![WorkerSpec::cpu(), WorkerSpec::cpu()]);
        for i in 0..6u64 {
            sup.submit(JobSpec {
                tenant: ["acme", "globex"][(i % 2) as usize].to_string(),
                scenario: Scenario::Sedov,
                zones: [6, 6],
                order: 2,
                t_final: 0.04,
                max_steps: 20,
                priority: 0,
                arrival_s: i as f64 * 1e-4,
                deadline_s: None,
                checkpoint_every: 3,
                energy_est_j: 1.0,
                fault_immune: false,
                placement: None,
            })
            .expect("submission admitted");
        }
        sup.run_to_completion()
    }

    let report = run_once(SEED);
    assert!(report.all_terminal(), "every job must reach a terminal state");
    assert!(
        report.reconciliation_error() <= ENERGY_RECONCILE_TOL,
        "billing must reconcile with the traces: {:.3e}",
        report.reconciliation_error()
    );
    assert!(
        report.count(|o| matches!(o, JobOutcome::Completed { .. })) >= 1,
        "the mix must not be wiped out by the chaos band"
    );
    assert!(
        report.resilience.sdc_flips_injected >= 1,
        "the chaos band must actually inject flips at sdc_rate 0.35"
    );
    assert!(
        report.resilience.corruptions_detected >= 1,
        "injected flips must be detected by the per-attempt auditor"
    );
    // Determinism: the whole chaotic timeline replays from the seed.
    assert_eq!(
        report.ledger_digest(),
        run_once(SEED).ledger_digest(),
        "serve SDC chaos must be replayable from the seed"
    );
}
