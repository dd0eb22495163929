//! Serve storm — the `blast-serve` load test: bursty multi-tenant
//! arrivals over a mixed CPU/GPU worker pool under chaos (lethal fault
//! bursts, survivable redo bursts, a scripted worker death, a standing
//! device fault plan), with admission budgets tight enough to bounce
//! some of the burst.
//!
//! The driver gates on the supervisor's contract rather than on
//! throughput: every admitted job must reach a terminal state, the
//! per-tenant energy billing must reconcile with the worker power
//! traces to 1e-9, and the ledger digest must be reproducible from the
//! seed (the serve-chaos CI lane reruns this binary across seeds and
//! `BLAST_THREADS` values and diffs the digest lines).

use blast_serve::{
    JobOutcome, JobSpec, Scenario, ServeConfig, ServeReport, Supervisor, WorkerSpec,
};
use gpu_sim::fault::fault_seed_from_env;
use gpu_sim::{DeviceCatalog, FaultKind, FaultPlan, RetryPolicy};

use crate::table;

/// Relative tolerance of the billed-vs-trace energy reconciliation —
/// the solver-wide band, promoted to one named home in `blast-core`.
pub const RECONCILE_TOL: f64 = blast_core::ENERGY_RECONCILE_TOL;

/// The storm's seed: `BLAST_FAULT_SEED` override, else 42.
pub fn storm_seed() -> u64 {
    fault_seed_from_env().unwrap_or(42)
}

fn storm_config(seed: u64) -> ServeConfig {
    ServeConfig {
        queue_capacity: 24,
        quantum_steps: 4,
        retry: RetryPolicy { max_retries: 2, base_backoff_s: 1e-3, ..RetryPolicy::default() }
            .with_cap(0.25)
            .with_jitter(0.25, seed),
        worker_death_threshold: 3,
        seed,
        kill_rate: 0.10,
        redo_rate: 0.15,
        sdc_rate: 0.0,
    }
}

fn storm_workers(seed: u64) -> Vec<WorkerSpec> {
    vec![
        WorkerSpec::from_device(&DeviceCatalog::get("k20")),
        // A GPU node whose device is persistently faulty: its attempts
        // degrade to the CPU path and keep serving.
        WorkerSpec::from_device(&DeviceCatalog::get("k20"))
            .with_gpu_faults(FaultPlan::seeded(seed).with_persistent(FaultKind::EccError, 0)),
        WorkerSpec::cpu(),
        // A worker that silently dies early in the storm.
        WorkerSpec::cpu().dying_at(1.5e-3),
    ]
}

/// Submits the bursty multi-tenant arrival script. Returns
/// `(admitted, rejected)`.
fn submit_storm(sup: &mut Supervisor) -> (u64, u64) {
    sup.set_tenant_budget("acme", 4.0);
    let tenants = ["acme", "globex", "initech"];
    let scenarios = [Scenario::Sedov, Scenario::TaylorGreen, Scenario::TriplePoint];
    let mut admitted = 0;
    let mut rejected = 0;
    // Three bursts; within a burst the jobs arrive back to back.
    for burst in 0..3u64 {
        let burst_t = burst as f64 * 2e-3;
        for k in 0..6u64 {
            let i = burst * 6 + k;
            let spec = JobSpec {
                tenant: tenants[(i % 3) as usize].to_string(),
                scenario: scenarios[(i % 3) as usize],
                zones: [8, 8],
                order: 2,
                t_final: 0.04,
                max_steps: 30,
                priority: (i % 3) as u8,
                arrival_s: burst_t + k as f64 * 1e-4,
                deadline_s: if i % 6 == 5 { Some(4e-3) } else { None },
                checkpoint_every: 3,
                energy_est_j: 1.0,
                fault_immune: false,
                placement: None,
            };
            match sup.submit(spec) {
                Ok(_) => admitted += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    (admitted, rejected)
}

/// Runs the storm once and collects gate violations (empty = pass).
pub fn run_storm(seed: u64) -> (ServeReport, Vec<String>) {
    let mut sup = Supervisor::new(storm_config(seed), storm_workers(seed));
    let (admitted, rejected) = submit_storm(&mut sup);
    let report = sup.run_to_completion();

    let mut violations = Vec::new();
    if report.jobs.len() as u64 != admitted {
        violations.push(format!(
            "ledger rows ({}) != admitted jobs ({admitted})",
            report.jobs.len()
        ));
    }
    if report.rejected != rejected {
        violations.push(format!(
            "rejection count mismatch: report {} vs submit-side {rejected}",
            report.rejected
        ));
    }
    if !report.all_terminal() {
        violations.push("a job is stuck in limbo".to_string());
    }
    let err = report.reconciliation_error();
    if err > RECONCILE_TOL {
        violations.push(format!(
            "energy reconciliation off by {err:.3e} (> {RECONCILE_TOL:.0e})"
        ));
    }
    if report.workers_lost != 1 {
        violations.push(format!("expected 1 worker death, saw {}", report.workers_lost));
    }
    for job in &report.jobs {
        if !job.energy_j.is_finite() || job.energy_j < 0.0 {
            violations.push(format!("{}: non-physical energy {}", job.id, job.energy_j));
        }
        if matches!(job.outcome, Some(JobOutcome::Completed { .. })) && job.final_state.is_none()
        {
            violations.push(format!("{}: completed without a final state", job.id));
        }
    }
    (report, violations)
}

/// The storm report: tenant table, outcome histogram, the seed and the
/// digest lines the CI lane greps, and any gate violations.
pub fn report() -> String {
    report_with_status().0
}

/// [`report`] plus the gate violations, for callers that need an exit
/// status without running the storm twice.
pub fn report_with_status() -> (String, Vec<String>) {
    use std::fmt::Write;
    let seed = storm_seed();
    let (report, violations) = run_storm(seed);

    let mut s = String::new();
    let _ = writeln!(s, "# serve_storm — multi-tenant supervision under chaos");
    let _ = writeln!(s, "serve storm fault seed: {seed} (override with BLAST_FAULT_SEED)");
    let _ = writeln!(s);
    let completed = report.count(|o| matches!(o, JobOutcome::Completed { .. }));
    let cancelled = report.count(|o| matches!(o, JobOutcome::Cancelled { .. }));
    let failed = report.count(|o| matches!(o, JobOutcome::Failed { .. }));
    let _ = writeln!(
        s,
        "jobs: {} admitted, {} rejected | {completed} completed, {cancelled} cancelled, \
         {failed} failed | {} preemptions, {} restores, {} workers lost",
        report.jobs.len(),
        report.rejected,
        report.jobs.iter().map(|j| j.preemptions).sum::<u64>(),
        report.jobs.iter().map(|j| j.restores).sum::<u64>(),
        report.workers_lost,
    );
    let _ = writeln!(s);
    let mut rows = vec![];
    for (tenant, joules) in &report.tenant_energy_j {
        rows.push(vec![tenant.clone(), format!("{joules:.6e}")]);
    }
    rows.push(vec!["(idle)".to_string(), format!("{:.6e}", report.idle_energy_j)]);
    s.push_str(&table::render("tenant energy", &["tenant", "energy [J]"], &rows));
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "billed {:.6e} J vs trace {:.6e} J — rel err {:.3e} (tol {RECONCILE_TOL:.0e})",
        report.billed_energy_j(),
        report.trace_energy_j,
        report.reconciliation_error()
    );
    let _ = writeln!(s, "job ledger digest: {:016x}", report.ledger_digest());
    if violations.is_empty() {
        let _ = writeln!(s, "serve storm gates: PASS");
    } else {
        let _ = writeln!(s, "serve storm gates: FAIL");
        for v in &violations {
            let _ = writeln!(s, "  gate violation: {v}");
        }
        s.push_str(&report.summary());
    }
    (s, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn storm_gates_hold_and_digest_replays() {
        let (a, va) = run_storm(7);
        assert!(va.is_empty(), "gate violations: {va:?}\n{}", a.summary());
        let (b, vb) = run_storm(7);
        assert!(vb.is_empty());
        assert_eq!(a.ledger_digest(), b.ledger_digest(), "seed 7 must replay bit-identically");
    }
}
