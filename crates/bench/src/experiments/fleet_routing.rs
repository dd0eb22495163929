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

use std::fmt::Write as _;

use blast_core::fleet;
use blast_serve::{
    JobOutcome, JobSpec, Placement, Router, RoutingDecision, Scenario, ServeConfig,
    ServeReport, Supervisor, WorkerSpec,
};
use gpu_sim::DeviceCatalog;

use crate::table;

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
    /// Whether the reduced smoke workload was used.
    pub smoke: bool,
}

fn tenant_energy(report: &ServeReport) -> f64 {
    report.tenant_energy_j.iter().map(|(_, j)| j).sum()
}

fn supervisor_for_fleet() -> Supervisor {
    let workers =
        FLEET.iter().map(|id| WorkerSpec::from_device(&DeviceCatalog::get(id))).collect();
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
fn run_static(
    device_id: &str,
    jobs: &[JobSpec],
    decisions: &[RoutingDecision],
) -> StaticRun {
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
pub fn measure_with_budget(smoke: bool) -> FleetRouting {
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
                JobOutcome::Cancelled {
                    reason: blast_serve::CancelReason::DeadlineExceeded
                }
            )
        }),
        routed_reconcile_err: report1.reconciliation_error(),
        digest_threads1: report1.ledger_digest(),
        digest_threads8: report8.ledger_digest(),
        statics,
        smoke,
    }
}

impl FleetRouting {
    /// The gate: routed placement strictly cheaper than every static,
    /// every SLO met, every ledger closed, digests thread-invariant.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        if self.routed_completed != self.total_jobs {
            fails.push(format!(
                "routed run completed {}/{} jobs",
                self.routed_completed, self.total_jobs
            ));
        }
        if self.routed_deadline_misses != 0 {
            fails.push(format!(
                "routed run missed {} SLO deadline(s)",
                self.routed_deadline_misses
            ));
        }
        for s in &self.statics {
            if s.completed != self.total_jobs {
                fails.push(format!(
                    "static {} completed {}/{} jobs",
                    s.device_id, s.completed, self.total_jobs
                ));
            }
            if self.routed_energy_j >= s.tenant_energy_j {
                fails.push(format!(
                    "routed energy {:.6e} J is not strictly below static {} ({:.6e} J)",
                    self.routed_energy_j, s.device_id, s.tenant_energy_j
                ));
            }
            if s.reconcile_err > RECONCILE_TOL {
                fails.push(format!(
                    "static {} energy reconciliation off by {:.3e}",
                    s.device_id, s.reconcile_err
                ));
            }
        }
        if self.routed_reconcile_err > RECONCILE_TOL {
            fails.push(format!(
                "routed energy reconciliation off by {:.3e}",
                self.routed_reconcile_err
            ));
        }
        if self.digest_threads1 != self.digest_threads8 {
            fails.push(format!(
                "routed ledger digest differs across pool sizes: {:016x} vs {:016x}",
                self.digest_threads1, self.digest_threads8
            ));
        }
        // Heterogeneity sanity: a routed win over every static requires
        // at least two distinct devices to have been picked.
        let mut picked: Vec<&str> =
            self.routed_jobs.iter().map(|r| r.device_id.as_str()).collect();
        picked.sort_unstable();
        picked.dedup();
        if picked.len() < 2 {
            fails.push(format!("router used only {picked:?} — workload exercises no heterogeneity"));
        }
        fails
    }

    /// Hand-rolled JSON artifact (`BENCH_fleet.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"experiment\": \"fleet_routing\",");
        let _ = writeln!(s, "  \"smoke\": {},", self.smoke);
        let _ = writeln!(s, "  \"fleet\": [\"cpu-e5-2670\", \"k20\", \"ampere\"],");
        let _ = writeln!(s, "  \"routed_energy_j\": {:.6e},", self.routed_energy_j);
        let _ = writeln!(s, "  \"routed_completed\": {},", self.routed_completed);
        let _ = writeln!(s, "  \"total_jobs\": {},", self.total_jobs);
        let _ = writeln!(s, "  \"deadline_misses\": {},", self.routed_deadline_misses);
        let _ = writeln!(s, "  \"digest_threads1\": \"{:016x}\",", self.digest_threads1);
        let _ = writeln!(s, "  \"digest_threads8\": \"{:016x}\",", self.digest_threads8);
        let _ = writeln!(s, "  \"jobs\": [");
        for (i, r) in self.routed_jobs.iter().enumerate() {
            let comma = if i + 1 < self.routed_jobs.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"tenant\": \"{}\", \"scenario\": \"{}\", \"zones\": [{}, {}], \
                 \"device\": \"{}\", \"predicted_j\": {:.6e}, \"slo_forced\": {}, \
                 \"greenup\": {:.6}}}{comma}",
                r.tenant,
                r.scenario,
                r.zones[0],
                r.zones[1],
                r.device_id,
                r.predicted_j,
                r.slo_forced,
                r.greenup
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"statics\": [");
        for (i, st) in self.statics.iter().enumerate() {
            let comma = if i + 1 < self.statics.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"device\": \"{}\", \"tenant_energy_j\": {:.6e}, \
                 \"completed\": {}}}{comma}",
                st.device_id, st.tenant_energy_j, st.completed
            );
        }
        let _ = writeln!(s, "  ],");
        let fails = self.gate_failures();
        let _ = writeln!(s, "  \"gates_passed\": {}", fails.is_empty());
        let _ = writeln!(s, "}}");
        s
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# fleet_routing — greenup-driven placement vs static fleets");
        let _ = writeln!(s);
        let rows: Vec<Vec<String>> = self
            .routed_jobs
            .iter()
            .map(|r| {
                vec![
                    r.tenant.clone(),
                    r.scenario.to_string(),
                    format!("{}x{}", r.zones[0], r.zones[1]),
                    r.device_id.clone(),
                    format!("{:.4e}", r.predicted_j),
                    format!("{:.3}", r.greenup),
                    if r.slo_forced { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        s.push_str(&table::render(
            "routed placement",
            &["tenant", "scenario", "zones", "device", "predicted [J]", "greenup", "slo-forced"],
            &rows,
        ));
        let _ = writeln!(s);
        let mut rows: Vec<Vec<String>> = vec![vec![
            "(routed)".to_string(),
            format!("{:.6e}", self.routed_energy_j),
            "1.000".to_string(),
        ]];
        for st in &self.statics {
            rows.push(vec![
                st.device_id.clone(),
                format!("{:.6e}", st.tenant_energy_j),
                format!("{:.3}", st.tenant_energy_j / self.routed_energy_j),
            ]);
        }
        s.push_str(&table::render(
            "billed tenant energy (idle excluded)",
            &["placement", "energy [J]", "vs routed"],
            &rows,
        ));
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "routed: {}/{} completed, {} deadline misses | digest {:016x} (threads=1) \
             vs {:016x} (threads=8)",
            self.routed_completed,
            self.total_jobs,
            self.routed_deadline_misses,
            self.digest_threads1,
            self.digest_threads8
        );
        let fails = self.gate_failures();
        if fails.is_empty() {
            let _ = writeln!(s, "fleet routing gates: PASS");
        } else {
            let _ = writeln!(s, "fleet routing gates: FAIL");
            for f in &fails {
                let _ = writeln!(s, "  gate violation: {f}");
            }
        }
        s
    }
}

/// Regenerates the artifact (smoke budget — the full workload belongs to
/// the dedicated `fleet_routing` gating binary).
pub fn report() -> String {
    measure_with_budget(true).render()
}

/// [`report`] plus the gate violations, for the gating binary.
pub fn report_with_status(smoke: bool) -> (FleetRouting, Vec<String>) {
    let r = measure_with_budget(smoke);
    let fails = r.gate_failures();
    (r, fails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn smoke_workload_passes_every_gate() {
        let (r, fails) = report_with_status(true);
        assert!(fails.is_empty(), "gate failures: {fails:?}\n{}", r.render());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn json_artifact_is_well_formed_enough() {
        let r = measure_with_budget(true);
        let j = r.to_json();
        assert!(j.contains("\"experiment\": \"fleet_routing\""));
        assert!(j.contains("\"gates_passed\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
