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
//! `BLAST_THREADS` values and diffs the `digest` block).

use blast_serve::{
    JobOutcome, JobSpec, Scenario, ServeConfig, ServeReport, Supervisor, WorkerSpec,
};
use gpu_sim::fault::fault_seed_from_env;
use gpu_sim::{DeviceCatalog, FaultKind, FaultPlan, RetryPolicy, FAULT_SEED_ENV};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment; its gate bin writes no artifact
/// (the serve-chaos lane diffs the printed `digest` block across pool
/// widths).
pub const EXPERIMENT: Experiment = Experiment::modeled("serve_storm", run);

/// Relative tolerance of the billed-vs-trace energy reconciliation —
/// the solver-wide band, promoted to one named home in `blast-core`.
pub const RECONCILE_TOL: f64 = blast_core::ENERGY_RECONCILE_TOL;

/// The storm's seed: `BLAST_FAULT_SEED` override, else 42.
fn storm_seed() -> u64 {
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

/// Runs the storm once: the supervisor's ledger and the gates on it.
fn run_storm(seed: u64) -> (ServeReport, Vec<Gate>) {
    let mut sup = Supervisor::new(storm_config(seed), storm_workers(seed));
    let (admitted, rejected) = submit_storm(&mut sup);
    let report = sup.run_to_completion();
    let rows = report.jobs.len() as u64;
    let err = report.reconciliation_error();
    let unphysical: Vec<String> = report
        .jobs
        .iter()
        .filter(|j| !j.energy_j.is_finite() || j.energy_j < 0.0)
        .map(|j| format!("{}: {}", j.id, j.energy_j))
        .collect();
    let stateless: Vec<String> = report
        .jobs
        .iter()
        .filter(|j| {
            matches!(j.outcome, Some(JobOutcome::Completed { .. })) && j.final_state.is_none()
        })
        .map(|j| j.id.to_string())
        .collect();
    let gates = vec![
        Gate::new(
            "one ledger row per admitted job",
            rows == admitted,
            format!("{rows} rows, {admitted} admitted"),
        ),
        Gate::new(
            "rejections reconcile",
            report.rejected == rejected,
            format!("report {} vs submit side {rejected}", report.rejected),
        ),
        Gate::new("every job terminal", report.all_terminal(), "no job stuck in limbo"),
        Gate::new(
            "energy reconciles",
            err <= RECONCILE_TOL,
            format!("billed vs trace rel err {err:.3e}, tol {RECONCILE_TOL:.0e}"),
        ),
        Gate::new(
            "one worker death",
            report.workers_lost == 1,
            format!("{} workers lost", report.workers_lost),
        ),
        Gate::new("physical energies", unphysical.is_empty(), format!("{unphysical:?}")),
        Gate::new(
            "completed jobs carry a final state",
            stateless.is_empty(),
            format!("without one: {stateless:?}"),
        ),
    ];
    (report, gates)
}

/// The storm at `BLAST_FAULT_SEED` (else 42): job outcomes, per-tenant
/// billing, the reconciliation and the ledger digest.
fn run(_smoke: bool) -> Report {
    let seed = storm_seed();
    let (report, gates) = run_storm(seed);
    if gates.iter().any(|g| !g.ok) {
        eprint!("{}", report.summary());
    }
    let count = |f: fn(&JobOutcome) -> bool| report.count(f);
    let jobs = vec![
        Cell::new("fault_seed", seed as usize),
        Cell::new("admitted", report.jobs.len()),
        Cell::new("rejected", report.rejected as usize),
        Cell::new("completed", count(|o| matches!(o, JobOutcome::Completed { .. }))),
        Cell::new("cancelled", count(|o| matches!(o, JobOutcome::Cancelled { .. }))),
        Cell::new("failed", count(|o| matches!(o, JobOutcome::Failed { .. }))),
        Cell::new("preemptions", report.jobs.iter().map(|j| j.preemptions).sum::<u64>() as usize),
        Cell::new("restores", report.jobs.iter().map(|j| j.restores).sum::<u64>() as usize),
        Cell::new("workers_lost", report.workers_lost as usize),
    ];
    let tenant = |name: &str, j: f64| vec![Cell::new("tenant", name), Cell::sci("energy_j", j, 6)];
    let mut tenants: Vec<Vec<Cell>> =
        report.tenant_energy_j.iter().map(|(t, j)| tenant(t, *j)).collect();
    tenants.push(tenant("(idle)", report.idle_energy_j));
    let billing = vec![
        Cell::sci("billed_j", report.billed_energy_j(), 6),
        Cell::sci("trace_j", report.trace_energy_j, 6),
        Cell::sci("rel_err", report.reconciliation_error(), 3),
        Cell::sci("tol", RECONCILE_TOL, 0),
    ];
    let digest = vec![Cell::new("job_ledger_digest", format!("{:016x}", report.ledger_digest()))];
    Report {
        blocks: vec![
            Block::record(
                "jobs",
                format!(
                    "multi-tenant supervision under chaos (override the seed with {FAULT_SEED_ENV})"
                ),
                jobs,
            ),
            Block::table("tenants", "billed energy per tenant", tenants),
            Block::record("billing", "billed vs power-trace energy", billing),
            Block::record("digest", "job ledger digest (the same at every pool width)", digest),
        ],
        gates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn storm_gates_hold_and_digest_replays() {
        let (a, gates) = run_storm(7);
        crate::harness::assert_gates_hold(&Report { blocks: Vec::new(), gates }, &[]);
        let (b, gates) = run_storm(7);
        crate::harness::assert_gates_hold(&Report { blocks: Vec::new(), gates }, &[]);
        assert_eq!(a.ledger_digest(), b.ledger_digest(), "seed 7 must replay bit-identically");
    }
}
