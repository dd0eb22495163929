//! Fleet routing — the greenup-routing gate: a mixed three-tenant
//! workload over a heterogeneous fleet (CPU-only node, the paper's K20
//! node, a modern Ampere node), placed by the energy-aware
//! [`blast_serve::Router`], versus every *static* placement of the same
//! workload.
//!
//! The claim under test is the tentpole of the fleet redesign: per-job
//! greenup-driven placement uses strictly less billed tenant energy than
//! running everything on the CPU node **and** than pinning everything to
//! any single device — while meeting every job's latency SLO. The statics
//! are given their best shot: deadlines are disabled (nothing cancels
//! early and under-bills) and each job runs under the cheapest-energy
//! execution mode the pilots found *for that device*, so the routed win
//! can only come from heterogeneity, not from handicapped baselines.
//!
//! The driver also re-runs the routed placement under `BLAST_THREADS`-
//! style pool sizes 1 and 8 and diffs the ledger digests — routing
//! decisions and billing are bit-deterministic by construction, and this
//! gate keeps them that way.

use blast_core::fleet;
use blast_serve::{
    JobOutcome, JobSpec, Placement, Router, RoutingDecision, Scenario, ServeConfig, ServeReport,
    Supervisor, WorkerSpec,
};
use gpu_sim::DeviceCatalog;

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fleet_routing",
    artifact: "BENCH_fleet.json",
    run: |smoke| measure(smoke).report(),
};

/// Energy-reconciliation tolerance, same as the serve-storm gate.
const RECONCILE_TOL: f64 = 1e-9;

/// The experiment's fleet: one CPU-only node and two GPU generations.
/// (`xeon-phi` is deliberately absent: it dominates the E5-2670 at every
/// size in the cost model, which would make "all-CPU" a strawman.)
const FLEET: [&str; 3] = ["cpu-e5-2670", "k20", "ampere"];

fn fleet() -> DeviceCatalog {
    DeviceCatalog::standard_subset(&FLEET)
}

/// The mixed workload: per tenant, a job class sized so that no single
/// device is cheapest for all of them. Every job carries a real (if
/// generous) latency SLO on the simulated clock.
fn workload(smoke: bool) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let mut push = |tenant: &str, scenario, zones, order, t_final, max_steps, n: usize| {
        for k in 0..n {
            jobs.push(JobSpec {
                tenant: tenant.to_string(),
                scenario,
                zones,
                order,
                t_final,
                max_steps,
                priority: 0,
                arrival_s: jobs.len() as f64 * 1e-4,
                deadline_s: Some(30.0 + k as f64),
                checkpoint_every: 0,
                energy_est_j: 0.0,
                fault_immune: false,
                placement: None,
            });
        }
    };
    let (tiny, mid, big) = if smoke { (2, 1, 1) } else { (3, 2, 2) };
    // acme: many small interactive jobs — launch/transfer overheads
    // dominate, the CPU node tends to win.
    push("acme", Scenario::Sedov, [4, 4], 2, 0.008, 10, tiny);
    // globex: mid-size vortex runs.
    push("globex", Scenario::TaylorGreen, [10, 10], 2, 0.02, 14, mid);
    // initech: large high-order shock runs — GPU territory.
    push("initech", Scenario::TriplePoint, [16, 16], 3, 0.03, 16, big);
    jobs
}

/// One routed job's row in the report.
#[derive(Clone, Debug)]
pub struct RoutedJob {
    /// Billing tenant.
    pub tenant: String,
    /// Scenario name.
    pub scenario: &'static str,
    /// Mesh zones per axis.
    pub zones: [usize; 2],
    /// Device the router picked.
    pub device_id: String,
    /// Rendered execution mode of the pick.
    pub mode: String,
    /// Predicted whole-run joules at routing time.
    pub predicted_j: f64,
    /// Whether the SLO (not energy) forced the pick.
    pub slo_forced: bool,
    /// Greenup of the pick vs the cheapest CPU-only candidate.
    pub greenup: f64,
}

/// One static placement's outcome.
#[derive(Clone, Debug)]
pub struct StaticRun {
    /// The device every job was pinned to.
    pub device_id: String,
    /// Billed tenant energy (idle bucket excluded), joules.
    pub tenant_energy_j: f64,
    /// Jobs that completed (statics run without deadlines, so anything
    /// else is a gate-worthy anomaly).
    pub completed: usize,
    /// Billed-vs-trace reconciliation error of the run.
    pub reconcile_err: f64,
}

/// Everything the fleet-routing driver measured.
#[derive(Clone, Debug)]
pub struct FleetRouting {
    /// Per-job routing decisions, submission order.
    pub routed_jobs: Vec<RoutedJob>,
    /// Billed tenant energy of the routed placement (idle excluded).
    pub routed_energy_j: f64,
    /// Routed jobs that completed.
    pub routed_completed: usize,
    /// Total jobs submitted.
    pub total_jobs: usize,
    /// Deadline cancellations in the routed run (must be 0: every SLO met).
    pub routed_deadline_misses: usize,
    /// Routed-run reconciliation error.
    pub routed_reconcile_err: f64,
    /// Routed ledger digest under a 1-thread host pool.
    pub digest_threads1: u64,
    /// Routed ledger digest under an 8-thread host pool.
    pub digest_threads8: u64,
    /// Every static single-device placement of the same workload.
    pub statics: Vec<StaticRun>,
}

fn tenant_energy(report: &ServeReport) -> f64 {
    report.tenant_energy_j.iter().map(|(_, j)| j).sum()
}

fn supervisor_for_fleet() -> Supervisor {
    let workers = FLEET.iter().map(|id| WorkerSpec::from_device(&DeviceCatalog::get(id))).collect();
    Supervisor::new(ServeConfig::default(), workers)
}

/// Runs the routed placement once and returns the ledger plus the
/// per-job decisions.
fn run_routed(jobs: &[JobSpec]) -> (ServeReport, Vec<RoutingDecision>) {
    let mut router = Router::new(fleet());
    let mut sup = supervisor_for_fleet();
    let mut decisions = Vec::new();
    for spec in jobs {
        let (_, d) = sup.submit_routed(&mut router, spec.clone()).expect("fleet admits job");
        decisions.push(d);
    }
    (sup.run_to_completion(), decisions)
}

/// Runs the whole workload pinned to one device, deadlines disabled,
/// each job under the cheapest mode the router's pilots found for that
/// device (`decisions` aligns with `jobs`).
fn run_static(device_id: &str, jobs: &[JobSpec], decisions: &[RoutingDecision]) -> StaticRun {
    let dev = DeviceCatalog::get(device_id);
    let workers = (0..FLEET.len()).map(|_| WorkerSpec::from_device(&dev)).collect();
    let mut sup = Supervisor::new(ServeConfig::default(), workers);
    for (spec, decision) in jobs.iter().zip(decisions) {
        let mode = decision
            .candidates
            .iter()
            .filter(|c| c.device_id == device_id)
            .min_by(|a, b| a.energy_j.total_cmp(&b.energy_j))
            .map(|c| c.mode.clone())
            .unwrap_or_else(|| fleet::derive_mode(&dev));
        let pinned = JobSpec {
            deadline_s: None,
            placement: Some(Placement { device_id: device_id.to_string(), mode }),
            ..spec.clone()
        };
        sup.submit(pinned).expect("static run admits job");
    }
    let report = sup.run_to_completion();
    StaticRun {
        device_id: device_id.to_string(),
        tenant_energy_j: tenant_energy(&report),
        completed: report.count(|o| matches!(o, JobOutcome::Completed { .. })),
        reconcile_err: report.reconciliation_error(),
    }
}

/// Runs the full experiment. `smoke` trims the per-tenant job counts;
/// the fleet, the job classes, and every gate stay identical.
pub fn measure(smoke: bool) -> FleetRouting {
    let jobs = workload(smoke);

    // Routed placement, twice, under different host-pool sizes: the
    // second run's digest must match the first bit for bit.
    let (report1, decisions) = rayon::Pool::new(1).install(|| run_routed(&jobs));
    let (report8, _) = rayon::Pool::new(8).install(|| run_routed(&jobs));

    let routed_jobs = jobs
        .iter()
        .zip(&decisions)
        .map(|(spec, d)| RoutedJob {
            tenant: spec.tenant.clone(),
            scenario: spec.scenario.name(),
            zones: spec.zones,
            device_id: d.placement.device_id.clone(),
            mode: format!("{:?}", d.placement.mode),
            predicted_j: d.predicted.energy_j,
            slo_forced: d.slo_forced,
            greenup: d.greenup.map_or(f64::NAN, |g| g.greenup),
        })
        .collect();

    let statics = FLEET.iter().map(|id| run_static(id, &jobs, &decisions)).collect();

    FleetRouting {
        routed_jobs,
        routed_energy_j: tenant_energy(&report1),
        routed_completed: report1.count(|o| matches!(o, JobOutcome::Completed { .. })),
        total_jobs: jobs.len(),
        routed_deadline_misses: report1.count(|o| {
            matches!(
                o,
                JobOutcome::Cancelled { reason: blast_serve::CancelReason::DeadlineExceeded }
            )
        }),
        routed_reconcile_err: report1.reconciliation_error(),
        digest_threads1: report1.ledger_digest(),
        digest_threads8: report8.ledger_digest(),
        statics,
    }
}

impl FleetRouting {
    /// The rows and gates of this result. Gated: routed placement strictly
    /// cheaper than every static, every SLO met, every ledger closed,
    /// digests thread-invariant.
    pub fn report(&self) -> Report {
        let total = self.total_jobs;
        // The two gates every placement's ledger carries, routed or static.
        let ledger = |who: &str, completed: usize, err: f64| {
            let closed = format!("off by {err:.3e}, tolerance {RECONCILE_TOL:e}");
            [
                Gate::new(
                    format!("{who} completes every job"),
                    completed == total,
                    format!("{completed}/{total} completed"),
                ),
                Gate::new(format!("{who} energy reconciles"), err <= RECONCILE_TOL, closed),
            ]
        };
        let (misses, d1, d8) =
            (self.routed_deadline_misses, self.digest_threads1, self.digest_threads8);
        let mut gates =
            Vec::from(ledger("routed", self.routed_completed, self.routed_reconcile_err));
        gates.push(Gate::new(
            "routed meets every SLO",
            misses == 0,
            format!("{misses} deadline miss(es)"),
        ));
        gates.push(Gate::new(
            "routed ledger digest is pool-size invariant",
            d1 == d8,
            format!("{d1:016x} (1 thread) vs {d8:016x} (8)"),
        ));
        let statics = self.statics.iter().map(|s| {
            let (id, routed_j, static_j) = (&s.device_id, self.routed_energy_j, s.tenant_energy_j);
            gates.extend(ledger(&format!("static {id}"), s.completed, s.reconcile_err));
            gates.push(Gate::new(
                format!("routed is strictly cheaper than static {id}"),
                routed_j < static_j,
                format!("routed {routed_j:.6e} J vs static {static_j:.6e} J"),
            ));
            vec![
                Cell::new("device", &**id),
                Cell::new("tenant_energy_j", s.tenant_energy_j),
                Cell::times("vs_routed", s.tenant_energy_j / self.routed_energy_j),
                Cell::new("completed", s.completed),
                Cell::new("reconcile_err", s.reconcile_err).hidden(),
            ]
        });
        let statics = statics.collect();
        // Heterogeneity sanity: a routed win over every static requires
        // at least two distinct devices to have been picked.
        let mut picked: Vec<&str> = self.routed_jobs.iter().map(|r| r.device_id.as_str()).collect();
        picked.sort_unstable();
        picked.dedup();
        gates.push(Gate::new(
            "router exercises heterogeneity",
            picked.len() >= 2,
            format!("picked {picked:?}, need two distinct devices"),
        ));
        let jobs = self.routed_jobs.iter().map(|r| {
            vec![
                Cell::new("tenant", &*r.tenant),
                Cell::new("scenario", r.scenario),
                Cell::new("zones", format!("{}x{}", r.zones[0], r.zones[1])),
                Cell::new("device", &*r.device_id),
                Cell::new("mode", &*r.mode).hidden(),
                Cell::new("predicted_j", r.predicted_j),
                Cell::new("slo_forced", r.slo_forced),
                Cell::new("greenup", r.greenup),
            ]
        });
        let routed = vec![
            Cell::new("fleet", FLEET.join(", ")),
            Cell::new("routed_energy_j", self.routed_energy_j),
            Cell::new("routed_completed", self.routed_completed),
            Cell::new("total_jobs", total),
            Cell::new("deadline_misses", self.routed_deadline_misses),
            Cell::new("reconcile_err", self.routed_reconcile_err),
            Cell::new("digest_threads1", format!("{:016x}", self.digest_threads1)),
            Cell::new("digest_threads8", format!("{:016x}", self.digest_threads8)),
        ];
        Report {
            blocks: vec![
                Block::table("jobs", "greenup-driven placement, job by job", jobs.collect()),
                Block::table("statics", "billed tenant energy, idle excluded", statics),
                Block::record("routed", "routed placement", routed),
            ],
            gates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;
    use blast_telemetry::chrome::Json;

    #[test]
    fn artifact_of_a_hand_made_result_parses_and_gates() {
        let job = |tenant: &str, device: &str| RoutedJob {
            tenant: tenant.into(),
            scenario: "sedov",
            zones: [4, 4],
            device_id: device.into(),
            mode: "CpuSerial".into(),
            predicted_j: 6e-3,
            slo_forced: false,
            greenup: f64::NAN,
        };
        let mut r = FleetRouting {
            routed_jobs: vec![job("acme", "cpu-e5-2670"), job("initech", "k20")],
            routed_energy_j: 1.4,
            routed_completed: 2,
            total_jobs: 2,
            routed_deadline_misses: 0,
            routed_reconcile_err: 0.0,
            digest_threads1: 0xabc,
            digest_threads8: 0xabc,
            statics: vec![StaticRun {
                device_id: "k20".into(),
                tenant_energy_j: 1.5,
                completed: 2,
                reconcile_err: 1e-12,
            }],
        };
        assert!(r.report().failures().is_empty(), "{:?}", r.report().failures());
        let json = harness::render_json(EXPERIMENT.name, true, &r.report());
        let doc = harness::parse_artifact(&json).unwrap();
        let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap();
        assert_eq!(jobs[1].get("device").and_then(Json::as_str), Some("k20"));
        // No CPU-only candidate to compare against: `null`, not `NaN`.
        assert_eq!(jobs[0].get("greenup"), Some(&Json::Null));
        let st = &doc.get("statics").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(st.get("tenant_energy_j").and_then(Json::as_f64), Some(1.5));
        let routed = doc.get("routed").unwrap();
        assert_eq!(routed.get("digest_threads8").and_then(Json::as_str), Some("0000000000000abc"));

        // A static that is cheaper, a digest that moves with the pool size.
        r.statics[0].tenant_energy_j = 1.4;
        r.digest_threads8 = 0xabd;
        let report = r.report();
        let failed: Vec<&str> = report.failures().iter().map(|g| &*g.name).collect();
        assert_eq!(
            failed,
            [
                "routed ledger digest is pool-size invariant",
                "routed is strictly cheaper than static k20"
            ]
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn smoke_workload_passes_every_gate() {
        let report = (EXPERIMENT.run)(true);
        assert!(report.failures().is_empty(), "{:?}", report.failures());
    }
}
