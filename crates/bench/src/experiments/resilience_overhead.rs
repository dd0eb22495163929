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

use blast_core::{CheckpointPolicy, CheckpointStore, ExecMode, Executor, Hydro, RunConfig, Sedov};
use cluster_sim::comm::ClusterFaultPlan;
use cluster_sim::{campaign_overhead_pct, run_chaos_campaign, CampaignConfig, RankOutcome};
use gpu_sim::{CpuSpec, DeviceCatalog, FaultKind, FaultPlan, GpuDevice};

use powermon::Greenup;

use crate::experiments::scenarios::cpu_vs_hybrid;
use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("resilience_overhead", run);

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
    let mut hydro = Hydro::<2>::builder(&problem, [4, 4]).executor(exec).build().expect("setup");
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
    let cfg =
        CampaignConfig { link_timeout: Duration::from_millis(20), ..CampaignConfig::default() };
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

/// Both scenarios' ledgers next to Table 7's Q2-Q1 energy saving.
fn run(_smoke: bool) -> Report {
    let scenarios = [single_node_row(), campaign_row()];
    let mut gates = Vec::new();
    let rows = scenarios.iter().map(|r| {
        gates.push(Gate::new(
            format!("{}: overhead nonzero and minor", r.scenario),
            r.resilience_j > 0.0
                && r.overhead_pct > 0.0
                && r.overhead_pct < 50.0
                && r.checkpoints >= 1,
            format!(
                "{:.3} J resilience ({:.3}%, need 0..50%), {} checkpoints (need >= 1)",
                r.resilience_j, r.overhead_pct, r.checkpoints
            ),
        ));
        vec![
            Cell::new("scenario", &*r.scenario),
            Cell::new("energy_j", r.energy_j),
            Cell::new("resilience_j", r.resilience_j),
            Cell::pct("overhead", r.overhead_pct / 100.0),
            Cell::new("checkpoints", r.checkpoints as usize),
            Cell::new("restores", r.restores as usize),
            Cell::new("rank_deaths", r.rank_deaths as usize),
        ]
    });
    let rows = rows.collect();
    let [node, cluster] = &scenarios;
    gates.push(Gate::new(
        "the single node runs uninterrupted",
        node.restores == 0,
        format!("{} restores", node.restores),
    ));
    gates.push(Gate::new(
        "the cluster recovers its one rank death",
        cluster.restores >= 1 && cluster.rank_deaths == 1,
        format!("{} restores, {} rank deaths", cluster.restores, cluster.rank_deaths),
    ));
    let (cpu, hybrid) = cpu_vs_hybrid(2, 16);
    Report {
        blocks: vec![
            Block::table(
                "scenarios",
                "Resilience overhead — energy billed to checkpoint/restart and recovery",
                rows,
            ),
            Block::record(
                "greenup",
                "alongside Table 7: resilience gives back a small part of the hybrid's energy \
                 saving — fault tolerance does not erase the greenup",
                vec![Cell::pct(
                    "q2_energy_saved",
                    Greenup::compare(cpu, hybrid).energy_saving_fraction(),
                )],
            ),
        ],
        gates,
    }
}
