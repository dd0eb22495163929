//! Resilience overhead — the energy price of surviving faults, reported
//! alongside the paper's greenup metric (Table 7).
//!
//! The paper's evaluation assumes a fault-free machine; this experiment
//! bills the resilience machinery added on top (coordinated checkpoints,
//! checksum-verified restores, rank-death recovery quiesce, retry backoff)
//! to the same power traces and asks how much of the hybrid's 21-30%
//! energy saving it gives back.

use std::sync::Arc;
use std::time::Duration;

use blast_core::{
    CheckpointPolicy, CheckpointStore, ExecMode, Executor, Hydro, RunConfig, Sedov,
};
use cluster_sim::comm::ClusterFaultPlan;
use cluster_sim::{campaign_overhead_pct, run_chaos_campaign, CampaignConfig, RankOutcome};
use gpu_sim::{CpuSpec, FaultKind, FaultPlan, GpuDevice};

use crate::table;
use gpu_sim::DeviceCatalog;

/// One resilience scenario's energy ledger.
#[derive(Clone, Debug)]
struct OverheadRow {
    /// What ran.
    pub scenario: String,
    /// Whole-run energy (host + device traces), J.
    pub energy_j: f64,
    /// Joules attributed to resilience (checkpoints, restores, quiesce,
    /// retry backoff).
    pub resilience_j: f64,
    /// `resilience_j` as a percentage of `energy_j`.
    pub overhead_pct: f64,
    /// Coordinated checkpoints written.
    pub checkpoints: u64,
    /// Checksum-verified restores.
    pub restores: u64,
    /// Rank deaths survived.
    pub rank_deaths: u64,
}

fn run_energy(exec: &Executor) -> f64 {
    let host = exec.host.power_trace();
    let mut e = host.energy(0.0, host.end_time());
    if let Some(gpu) = exec.gpu.as_ref() {
        let trace = gpu.power_trace();
        e += trace.energy(0.0, trace.end_time());
    }
    e
}

/// Single node: a checkpointed Sedov run on the hybrid executor with a
/// burst of transient device faults — checkpoints and retry backoff are the
/// whole overhead.
fn single_node_row() -> OverheadRow {
    let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    dev.set_fault_plan(
        FaultPlan::seeded_from_env(42)
            .with_transient(FaultKind::LaunchFail, 5)
            .with_transient(FaultKind::D2hFail, 2),
    );
    let exec = Executor::new(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        CpuSpec::e5_2670(),
        Some(dev),
    );
    let problem = Sedov::default();
    let mut hydro =
        Hydro::<2>::builder(&problem, [4, 4]).executor(exec).build().expect("setup");
    let mut state = hydro.initial_state();
    let mut store = CheckpointStore::in_memory();
    let stats = hydro
        .run(
            &mut state,
            RunConfig::to(0.05)
                .max_steps(60)
                .checkpointed(CheckpointPolicy::EverySteps(3), &mut store),
        )
        .expect("transient faults are absorbed");
    let report = hydro.executor().resilience_report(stats.retries);
    let energy = run_energy(hydro.executor());
    OverheadRow {
        scenario: "1 node, transient device faults".into(),
        energy_j: energy,
        resilience_j: report.total_resilience_energy_j(),
        overhead_pct: report.overhead_pct(energy),
        checkpoints: report.checkpoints_written,
        restores: report.restores,
        rank_deaths: report.rank_deaths,
    }
}

/// Cluster: the 3-rank chaos campaign with one rank death — recovery adds
/// a restore plus the quiesce barrier on every survivor.
fn campaign_row() -> OverheadRow {
    let cfg = CampaignConfig {
        link_timeout: Duration::from_millis(20),
        ..CampaignConfig::default()
    };
    let plan = ClusterFaultPlan::seeded_from_env(42)
        .with_drop_rate(0.02)
        .with_rank_death(2, 2 * cfg.redundancy as u64 + 2);
    let results = run_chaos_campaign(&cfg, plan, |_| FaultPlan::none());
    let survivors: Vec<_> =
        results.iter().filter(|r| r.outcome == RankOutcome::Completed).cloned().collect();
    OverheadRow {
        scenario: format!("{} ranks, 1 rank death", cfg.ranks),
        energy_j: survivors.iter().map(|r| r.energy_j).sum(),
        resilience_j: survivors.iter().map(|r| r.report.total_resilience_energy_j()).sum(),
        overhead_pct: campaign_overhead_pct(&survivors),
        checkpoints: survivors.iter().map(|r| r.report.checkpoints_written).sum(),
        restores: survivors.iter().map(|r| r.report.restores).sum(),
        rank_deaths: results.iter().filter(|r| r.outcome != RankOutcome::Completed).count() as u64,
    }
}

/// Measures both scenarios.
fn measure() -> Vec<OverheadRow> {
    vec![single_node_row(), campaign_row()]
}

/// Renders the resilience-overhead table and puts it next to Table 7's
/// greenup.
pub fn report() -> String {
    let rows_data = measure();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                format!("{:.1}", r.energy_j),
                format!("{:.3}", r.resilience_j),
                format!("{:.3}%", r.overhead_pct),
                r.checkpoints.to_string(),
                r.restores.to_string(),
                r.rank_deaths.to_string(),
            ]
        })
        .collect();
    let mut out = table::render(
        "Resilience overhead — energy billed to checkpoint/restart and recovery",
        &["scenario", "energy J", "resil. J", "overhead", "ckpts", "restores", "deaths"],
        &rows,
    );
    let greenup = super::tab7_greenup::measure();
    let (q2_name, q2) = &greenup[0];
    out.push_str(&format!(
        "\nAlongside greenup: the hybrid's {q2_name} energy saving is {} (Table 7); \
         resilience gives back {:.3}% (single node) to {:.3}% (cluster with a rank \
         death) of the bill — fault tolerance does not erase the greenup.\n",
        table::pct(q2.energy_saving_fraction()),
        rows_data[0].overhead_pct,
        rows_data[1].overhead_pct,
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn overhead_is_nonzero_and_minor() {
        let rows = super::measure();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.resilience_j > 0.0, "{}: resilience must cost joules", r.scenario);
            assert!(
                r.overhead_pct > 0.0 && r.overhead_pct < 50.0,
                "{}: overhead {}%",
                r.scenario,
                r.overhead_pct
            );
            assert!(r.checkpoints >= 1, "{}: no checkpoints", r.scenario);
        }
        assert_eq!(rows[0].restores, 0, "single node run is uninterrupted");
        assert!(rows[1].restores >= 1, "recovery must restore from checkpoint");
        assert_eq!(rows[1].rank_deaths, 1);
    }
}
