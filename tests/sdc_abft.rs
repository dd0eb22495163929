//! The ABFT leg of the SDC defense (see `tests/sdc_defense.rs`), alone in
//! its own test binary: ABFT mode and the one-shot armed panel flip are
//! process-wide (`blast_la::abft`), so in a shared process a sibling test's
//! verified GEMM consumes the flip this test armed.

mod common;

use blast_repro::blast_core::AuditConfig;
use blast_repro::blast_la::{abft, AbftMode};
use blast_repro::gpu_sim::{derive_fault, SdcPlan, SdcSite};

use common::{run_scenario, state_digest, FLIP_AT, SEED};

/// A flip inside a GEMM panel is caught *pre-commit* by the ABFT column
/// checksums (`AbftMode::Verify`) and healed bit-identically.
#[test]
fn abft_catches_gemm_panel_flip_end_to_end() {
    abft::set_mode(AbftMode::Verify);
    let baseline = run_scenario(SdcPlan::seeded(SEED), AuditConfig::default());
    let mut plan = SdcPlan::seeded(SEED);
    plan.arm(derive_fault(SEED, SdcSite::GemmPanel, FLIP_AT, 0, false));
    let r = run_scenario(plan, AuditConfig::default());
    abft::set_mode(AbftMode::Off);

    r.result.as_ref().expect("ABFT-caught flip must be healed");
    assert_eq!(state_digest(&r.state), state_digest(&baseline.state));
    assert!(r.report.sdc_flips_injected >= 1, "the armed panel flip must land");
    assert!(r.report.corruptions_detected >= 1, "the checksums must catch it");
}
