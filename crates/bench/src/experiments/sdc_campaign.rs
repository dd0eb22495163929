//! SDC campaign — the silent-data-corruption acceptance gate.
//!
//! For one seed (`BLAST_FAULT_SEED` override, else 42) the campaign runs a
//! fault-free Sedov baseline and then replays the *identical* run with a
//! planned bit flip at every injection site the `SdcPlan` models: a GEMM
//! panel inside the corner-force kernel (caught by the ABFT checksums), a
//! device result buffer, a device→host transfer payload, and a committed
//! host state array (caught by the physics-invariant auditor). A
//! late-detection scenario audits on a cadence of 4 so the corrupted state
//! is *committed* and recovery must roll back to a checkpoint; a
//! persistent-flip scenario exhausts the redo budget and must fail typed.
//!
//! The gate: every injected flip is either **detected and recovered**
//! (final state bit-identical to the fault-free baseline) or surfaces a
//! **typed error** — zero silently-wrong runs — and the audit + ABFT
//! overhead billed into the `ResilienceReport` stays at or below 10% of
//! the run energy at the default cadence.

use blast_core::{
    AuditConfig, CheckpointPolicy, CheckpointStore, ExecMode, Executor, Hydro, HydroError,
    HydroState, RunConfig, Sedov,
};
use gpu_sim::fault::fault_seed_from_env;
use gpu_sim::{derive_fault, CpuSpec, SdcPlan, SdcSite, FAULT_SEED_ENV};
use powermon::ResilienceReport;

use crate::table;

/// Audit + ABFT overhead ceiling, % of run energy at the default cadence.
pub const MAX_AUDIT_OVERHEAD_PCT: f64 = 10.0;

/// Campaign geometry: small enough for CI, large enough that every
/// injection site has significant data to corrupt.
const ZONES: [usize; 2] = [8, 8];
const ORDER: usize = 2;
/// Step-bound horizon: every scenario runs exactly this many accepted
/// steps, so final-state digests are directly comparable.
const STEPS: usize = 24;
/// Attempt ordinal of the transient/persistent flips (mid-run, after
/// several checkpoints exist).
const FLIP_AT: u64 = 10;
/// Attempt ordinal of the late-detection flip: one step past the
/// checkpoint at step 10, audited (cadence 4) only at step 12.
const LATE_FLIP_AT: u64 = 11;

/// The campaign's seed: `BLAST_FAULT_SEED` override, else 42.
pub fn campaign_seed() -> u64 {
    fault_seed_from_env().unwrap_or(42)
}

/// One scenario's ledger line.
#[derive(Clone, Debug)]
pub struct ScenarioRow {
    /// Scenario label.
    pub name: String,
    /// `Healed` (recovered bit-identically), `Typed` (typed error), or
    /// `SilentWrong` (completed with a wrong answer — a gate failure).
    pub outcome: &'static str,
    /// Flips that actually landed in data.
    pub flips: u64,
    /// Corruption detections (audit + ABFT).
    pub detected: u64,
    /// Checkpoint rollbacks taken to recover.
    pub restores: u64,
    /// FNV-1a digest of the final state bits.
    pub digest: u64,
    /// Whole-run energy from the host power trace, J.
    pub energy_j: f64,
    /// Audit + ABFT energy billed into the resilience report, J.
    pub audit_j: f64,
    /// `audit_j` as a percentage of `energy_j`.
    pub overhead_pct: f64,
}

/// FNV-1a over the bit patterns of the full final state `(v, e, x, t)` —
/// the same digest the chaos lane diffs across `BLAST_THREADS`.
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

struct RunResult {
    state: HydroState,
    result: Result<(), HydroError>,
    report: ResilienceReport,
    energy_j: f64,
    store: CheckpointStore,
}

/// Runs one campaign scenario: Sedov billed as the serial host (so the
/// modeled energies do not depend on the ambient pool), checkpointed every
/// 2 steps, audited, step-bound.
fn run_scenario(plan: SdcPlan, audit: AuditConfig) -> RunResult {
    let exec = Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None);
    let problem = Sedov::default();
    let mut hydro = Hydro::<2>::builder(&problem, ZONES)
        .order(ORDER)
        .executor(exec)
        .sdc_plan(plan)
        .audit(audit)
        .build()
        .expect("campaign scenario must build");
    hydro.reserve_host_telemetry(STEPS + 2 * blast_core::MAX_STEP_REDOS);
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
    let exec = hydro.executor();
    let trace = exec.host.power_trace();
    let energy_j = trace.energy(0.0, trace.end_time());
    let report = exec.resilience_report(0);
    RunResult { state, result, report, energy_j, store }
}

fn row(name: &str, r: &RunResult, baseline_digest: u64) -> ScenarioRow {
    let digest = state_digest(&r.state);
    let outcome = match &r.result {
        Ok(()) if digest == baseline_digest => "Healed",
        Ok(()) => "SilentWrong",
        Err(HydroError::CorruptionDetected { .. }) => "Typed",
        Err(_) => "Typed",
    };
    let overhead_pct = 100.0 * r.report.audit_energy_j / r.energy_j.max(f64::MIN_POSITIVE);
    ScenarioRow {
        name: name.to_string(),
        outcome,
        flips: r.report.sdc_flips_injected,
        detected: r.report.corruptions_detected,
        restores: r.report.restores,
        digest,
        energy_j: r.energy_j,
        audit_j: r.report.audit_energy_j,
        overhead_pct,
    }
}

/// Runs the campaign for `seed` and collects gate violations (empty =
/// pass). Scenario expectations are strict: a transient flip must be
/// healed bit-identically, the persistent flip must fail typed, and no
/// scenario may ever complete silently wrong.
pub fn run_campaign(seed: u64) -> (Vec<ScenarioRow>, Vec<String>) {
    // GEMM-panel flips only land through the checksummed path.
    let audit = AuditConfig::default().abft(true);
    let baseline = run_scenario(SdcPlan::seeded(seed), audit);
    let baseline_digest = state_digest(&baseline.state);

    let mut rows = vec![row("baseline", &baseline, baseline_digest)];
    let mut violations = Vec::new();
    if baseline.result.is_err() {
        violations.push("fault-free baseline failed".to_string());
    }
    if baseline.report.corruptions_detected != 0 {
        violations.push(format!(
            "fault-free baseline tripped the auditor {} time(s) — tolerances too tight",
            baseline.report.corruptions_detected
        ));
    }

    let transient_sites = [
        ("transient-gemm-panel", SdcSite::GemmPanel),
        ("transient-device-buffer", SdcSite::DeviceBuffer),
        ("transient-transfer", SdcSite::TransferPayload),
        ("transient-host-state", SdcSite::HostState),
    ];
    for (ordinal, (name, site)) in transient_sites.into_iter().enumerate() {
        let mut plan = SdcPlan::seeded(seed);
        plan.arm(derive_fault(seed, site, FLIP_AT, ordinal as u64, false));
        let r = run_scenario(plan, audit);
        let line = row(name, &r, baseline_digest);
        if line.outcome != "Healed" {
            violations.push(format!("{name}: expected Healed, got {}", line.outcome));
        }
        if line.flips == 0 {
            violations.push(format!("{name}: the planned flip never landed"));
        }
        if line.detected == 0 {
            violations.push(format!("{name}: flip landed but was never detected"));
        }
        rows.push(line);
    }

    // Cadence 4: the corrupted state is committed before the audit runs,
    // so recovery must roll back to the step-10 checkpoint and replay.
    let mut plan = SdcPlan::seeded(seed);
    plan.arm(derive_fault(seed, SdcSite::HostState, LATE_FLIP_AT, 7, false));
    let late = run_scenario(plan, audit.every_steps(4));
    let line = row("late-detect-cadence4", &late, baseline_digest);
    if line.outcome != "Healed" {
        violations.push(format!("late-detect: expected Healed, got {}", line.outcome));
    }
    if line.restores == 0 {
        violations.push("late-detect: recovery must take the checkpoint rollback".to_string());
    }
    rows.push(line);

    // A persistent flip re-fires on every replay: the redo and rollback
    // budgets drain and the run must fail *typed*, store intact.
    let mut plan = SdcPlan::seeded(seed);
    plan.arm(derive_fault(seed, SdcSite::DeviceBuffer, FLIP_AT, 11, true));
    let persistent = run_scenario(plan, audit);
    let line = row("persistent-flip", &persistent, baseline_digest);
    match &persistent.result {
        Err(HydroError::CorruptionDetected { .. }) => {}
        Err(e) => violations.push(format!("persistent-flip: wrong error type: {e}")),
        Ok(()) => violations.push(format!(
            "persistent-flip: completed ({}) instead of failing typed",
            line.outcome
        )),
    }
    if persistent.store.latest_valid().is_none() {
        violations.push("persistent-flip: checkpoint store must survive the failure".to_string());
    }
    rows.push(line);

    for r in &rows {
        if r.outcome == "SilentWrong" {
            violations.push(format!("{}: SILENT WRONG ANSWER", r.name));
        }
    }
    let worst = rows
        .iter()
        .filter(|r| r.name != "persistent-flip")
        .map(|r| r.overhead_pct)
        .fold(0.0f64, f64::max);
    if worst > MAX_AUDIT_OVERHEAD_PCT {
        violations.push(format!(
            "audit overhead {worst:.2}% exceeds the {MAX_AUDIT_OVERHEAD_PCT}% ceiling"
        ));
    }
    (rows, violations)
}

/// The campaign report (single seed, gate summary).
pub fn report() -> String {
    report_with_status().0
}

/// [`report`] plus the gate violations, for the `sdc_campaign` binary's
/// exit status.
pub fn report_with_status() -> (String, Vec<String>) {
    use std::fmt::Write;
    let seed = campaign_seed();
    let (rows, violations) = run_campaign(seed);

    let mut s = String::new();
    let _ = writeln!(s, "# sdc_campaign — silent-data-corruption defense gate");
    let _ = writeln!(s, "sdc campaign fault seed: {seed} (override with {FAULT_SEED_ENV})");
    let _ = writeln!(s);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.outcome.to_string(),
                r.flips.to_string(),
                r.detected.to_string(),
                r.restores.to_string(),
                format!("{:.3e}", r.energy_j),
                format!("{:.2}%", r.overhead_pct),
            ]
        })
        .collect();
    s.push_str(&table::render(
        "scenarios",
        &["scenario", "outcome", "flips", "detected", "rollbacks", "energy [J]", "audit %"],
        &table_rows,
    ));
    let _ = writeln!(s);
    // One digest line per scenario: the CI lane runs this campaign at
    // BLAST_THREADS = 1 and 8 and diffs these lines.
    for r in &rows {
        let _ = writeln!(s, "sdc final state digest {}: {:016x}", r.name, r.digest);
    }
    if violations.is_empty() {
        let _ = writeln!(s, "sdc campaign gates: PASS (0 silent-wrong-answer runs)");
    } else {
        let _ = writeln!(s, "sdc campaign gates: FAIL");
        for v in &violations {
            let _ = writeln!(s, "  gate violation: {v}");
        }
    }
    (s, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full acceptance gate at the default seed, at two pool sizes:
    /// every modeled joule (the baseline's run and audit energy, and the
    /// GEMM-panel flip's, whose victim panel is named, not raced for) must
    /// be the same bits whatever pool the process happens to have.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn campaign_has_zero_silent_wrong_runs() {
        let (rows, violations) = rayon::Pool::new(1).install(|| run_campaign(42));
        assert!(violations.is_empty(), "gate violations: {violations:#?}");
        assert!(rows.len() >= 7, "campaign must cover every site: {}", rows.len());

        let (rows8, violations8) = rayon::Pool::new(8).install(|| run_campaign(42));
        assert!(violations8.is_empty(), "gate violations at 8 threads: {violations8:#?}");
        for (a, b) in rows.iter().zip(&rows8) {
            assert_eq!(
                (a.digest, a.energy_j.to_bits(), a.audit_j.to_bits()),
                (b.digest, b.energy_j.to_bits(), b.audit_j.to_bits()),
                "{}: 1 vs 8 pool threads ({} J / {} J)",
                a.name,
                a.energy_j,
                b.energy_j
            );
        }
    }
}
