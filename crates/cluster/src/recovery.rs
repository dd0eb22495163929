//! Rank-failure recovery: coordinated checkpoint/restart under a chaos
//! campaign.
//!
//! The campaign runs one replicated Sedov solve per rank (functional
//! replication — every rank holds the full state, exactly like the
//! distributed tests compare against the serial reference), with a
//! dt-consensus round between accepted steps. The interesting part is what
//! happens when a rank dies:
//!
//! 1. **Detection.** Rank 0 is the immortal coordinator (asserted). It
//!    gathers every survivor's dt candidate each round through the
//!    `recv_timeout` path with the failure detector armed: `K` consecutive
//!    timeouts against one peer escalate to [`CommError::PeerDead`].
//!    Exhausted patience (all redundant copies dropped) is treated the
//!    same way — a rank the coordinator cannot hear from is dead.
//! 2. **Agreement.** The coordinator broadcasts `[dt_min, n_dead,
//!    dead...]`. Survivors learn the dead set from the payload, so the
//!    whole cluster agrees without any peer-to-peer detection. A rank that
//!    finds *itself* in the dead list (a false positive whose messages all
//!    drowned) exits — agreement stays consistent either way.
//! 3. **Recovery.** Every survivor: notes the deaths and bills a quiesce
//!    barrier at idle watts, shrinks the partition onto the survivor set
//!    ([`Partition::shrink_to_fit`] re-runs the balanced split for the new
//!    rank count), resets the autotune balancer when the executor carries
//!    one, restores the newest valid generation from its local
//!    [`CheckpointStore`] (bit-identical across ranks — checkpoints are
//!    written at the same accepted-step numbers with the same consensus
//!    trajectory), and resumes. The epoch counter in the message tags
//!    bumps so replayed step numbers cannot consume stale messages.
//!
//! Because every rank computes bit-identical physics (CPU degrade is
//! bit-identical, PR 1) and dt consensus is a min over identical values,
//! the final state of a chaos run matches the fault-free run *exactly*;
//! the chaos test asserts a tolerance of 0 (documented in DESIGN.md §9).

use std::sync::Arc;
use std::time::Duration;

use autotune::AutoBalancer;
use blast_core::checkpoint::{CheckpointPolicy, CheckpointStore};
use blast_core::exec::RECOVERY_QUIESCE_S;
use blast_core::{ExecMode, Executor, Hydro, HydroState, Sedov};
use blast_fem::CartMesh;
use gpu_sim::{CpuSpec, FaultPlan, GpuDevice};
use powermon::ResilienceReport;

use crate::comm::{
    run_ranks_with_faults, ClusterFaultPlan, CommError, CommFaultStats, Communicator,
};
use crate::partition::Partition;
use gpu_sim::DeviceCatalog;

/// Shape and patience knobs of one chaos campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Ranks to spawn (>= 1; rank 0 must stay alive).
    pub ranks: usize,
    /// Zones per axis of the 2D Sedov mesh.
    pub zones: usize,
    /// Simulation end time.
    pub t_final: f64,
    /// Accepted-step budget.
    pub max_steps: usize,
    /// Coordinated checkpoint cadence, in accepted steps.
    pub checkpoint_every: usize,
    /// Per-attempt receive timeout of the consensus links.
    pub link_timeout: Duration,
    /// `K`: receive attempts before the coordinator declares a peer dead
    /// (also the failure detector's suspicion threshold).
    pub link_attempts: u32,
    /// Copies of each consensus message (redundant transmission rides out
    /// message drops without an ack channel).
    pub redundancy: usize,
    /// CFL safety factor of the solver (smaller = more, shorter steps —
    /// the campaign wants enough rounds for deaths and checkpoints to
    /// land mid-run).
    pub cfl: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            ranks: 3,
            zones: 4,
            t_final: 0.03,
            max_steps: 60,
            checkpoint_every: 3,
            link_timeout: Duration::from_millis(25),
            link_attempts: 4,
            redundancy: 4,
            cfl: 0.08,
        }
    }
}

/// How one rank's campaign ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankOutcome {
    /// Reached `t_final` (or the step budget) alive.
    Completed,
    /// Stopped sending: scheduled death, or evicted by the coordinator.
    Died {
        /// Accepted steps when the rank went silent.
        at_step: usize,
    },
    /// An unrecoverable solver/protocol error (should not happen on the
    /// verified seeds; carried for diagnosis instead of a panic).
    Failed {
        /// What broke.
        detail: String,
    },
}

/// One rank's view of the campaign.
#[derive(Clone, Debug)]
pub struct RankResult {
    /// The rank id.
    pub rank: usize,
    /// How it ended.
    pub outcome: RankOutcome,
    /// Final state (survivors only carry a meaningful one).
    pub state: HydroState,
    /// Accepted steps (after any checkpoint rewinds).
    pub steps: usize,
    /// Step redos (rollback + CFL), matching `RunStats::retries`.
    pub retries: usize,
    /// Resilience counters and energy attribution of this rank's executor.
    pub report: ResilienceReport,
    /// Whole-run energy (host + device traces), J.
    pub energy_j: f64,
    /// Communication fault counters observed on this rank's sends.
    pub comm_stats: CommFaultStats,
    /// Ranks this rank saw declared dead, in detection order.
    pub dead_seen: Vec<usize>,
    /// Zones owned before the first death.
    pub zones_before: usize,
    /// Zones owned at the end (after any shrink-to-fit).
    pub zones_after: usize,
    /// The cluster fault seed the campaign ran under.
    pub seed: u64,
}

/// Aggregate resilience overhead across survivors: joules attributed to
/// checkpoints, restores, quiesce, and retry backoff, as a percentage of
/// the whole campaign's energy.
pub fn campaign_overhead_pct(results: &[RankResult]) -> f64 {
    let resilience: f64 = results.iter().map(|r| r.report.total_resilience_energy_j()).sum();
    let total: f64 = results.iter().map(|r| r.energy_j).sum();
    if total <= 0.0 {
        return 0.0;
    }
    100.0 * resilience / total
}

const P_GATHER: u64 = 0;
const P_BCAST: u64 = 1;

/// Consensus-round tag: epoch (bumped on every recovery so replayed step
/// numbers cannot consume stale traffic), step, and purpose bit. Bit 63
/// keeps the space disjoint from the reserved collective tags.
fn round_tag(epoch: u32, step: usize, purpose: u64) -> u64 {
    (1u64 << 63) | ((epoch as u64) << 44) | ((step as u64) << 1) | purpose
}

/// Fires `copies` identical messages; any one getting through is enough.
fn send_redundant(comm: &Communicator, to: usize, tag: u64, data: &[f64], copies: usize) {
    for _ in 0..copies.max(1) {
        comm.send(to, tag, data.to_vec());
    }
}

/// Receives one copy, riding out corrupt arrivals and up to `attempts`
/// timeouts. Surfaces [`CommError::PeerDead`] as soon as the communicator's
/// failure detector escalates.
fn recv_robust(
    comm: &mut Communicator,
    from: usize,
    tag: u64,
    timeout: Duration,
    attempts: u32,
    corrupt_patience: u32,
) -> Result<Vec<f64>, CommError> {
    let mut budget = attempts + corrupt_patience;
    loop {
        match comm.recv_timeout(from, tag, timeout) {
            Ok(v) => return Ok(v),
            Err(e @ CommError::PeerDead { .. }) => return Err(e),
            Err(e) => {
                budget = budget.saturating_sub(1);
                if budget == 0 {
                    return Err(e);
                }
            }
        }
    }
}

fn reset_balancer(exec: &mut Executor) {
    if let Some(b) = exec.balancer.as_mut() {
        // Re-run the convergence loop from the current ratio: the old
        // optimum was found for the pre-death rank count.
        *b = AutoBalancer::new(b.ratio());
    }
}

/// Runs the chaos campaign: `cfg.ranks` threads, each solving the same
/// Sedov problem under `plan`'s message faults and `device_plan(rank)`'s
/// device faults, with coordinated checkpoints and rank-death recovery.
///
/// Returns one [`RankResult`] per rank, in rank order.
pub fn run_chaos_campaign(
    cfg: &CampaignConfig,
    plan: ClusterFaultPlan,
    device_plan: impl Fn(usize) -> FaultPlan + Sync,
) -> Vec<RankResult> {
    assert!(cfg.ranks >= 1, "need at least one rank");
    assert!(cfg.checkpoint_every >= 1, "checkpoint cadence must be >= 1");
    assert!(
        plan.deaths.iter().all(|d| d.rank != 0),
        "rank 0 is the immortal coordinator; schedule deaths elsewhere"
    );
    let seed = plan.seed;
    run_ranks_with_faults(cfg.ranks, plan, |comm| {
        let device = device_plan(comm.rank());
        campaign_rank(cfg, comm, device, seed)
    })
}

fn campaign_rank(
    cfg: &CampaignConfig,
    mut comm: Communicator,
    device: FaultPlan,
    seed: u64,
) -> RankResult {
    let rank = comm.rank();
    comm.set_timeout(cfg.link_timeout);
    if rank == 0 {
        comm.set_suspicion_threshold(cfg.link_attempts);
    }

    let dev = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
    dev.set_fault_plan(device);
    let exec = Executor::new(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        CpuSpec::e5_2670(),
        Some(dev),
    );
    let problem = Sedov::default();
    let mut hydro = Hydro::<2>::builder(&problem, [cfg.zones, cfg.zones])
        .cfl(cfg.cfl)
        .executor(exec)
        .build()
        .expect("campaign problem setup");
    // One sink per rank: comm counters land next to the solver's spans.
    comm.attach_telemetry(hydro.executor().telemetry().clone());
    let mut state = hydro.initial_state();
    let mesh = CartMesh::<2>::unit(cfg.zones);
    let mut partition = Partition::balanced(&mesh, cfg.ranks);
    let zones_before = partition.zones_of_rank(rank).len();
    let mut my_slot = rank;
    let mut dead_seen: Vec<usize> = Vec::new();
    // The loop's cursor, once there is one: a rank whose first force
    // evaluation fails ends with zero steps.
    let mut begun = None;

    // The rank's whole life; `Err` is how it ended short of `t_final`.
    let ended = (|| -> Result<(), RankOutcome> {
        let policy = CheckpointPolicy::EverySteps(cfg.checkpoint_every);
        let mut store = CheckpointStore::in_memory();
        let mut alive: Vec<usize> = (0..cfg.ranks).collect();
        let mut epoch: u32 = 0;
        let cursor = begun.insert(hydro.begin(&mut state, &store).map_err(failed)?);
        // Generation 0: checkpoint the initial state so recovery always has
        // a restore target, even before the first cadence point.
        hydro.checkpoint_now(&state, cursor, &mut store).map_err(failed)?;

        while !cursor.done(&state, cfg.t_final, cfg.max_steps) {
            // ---- dt-consensus round (also the failure-detection heartbeat)
            let (dt_min, newly_dead) = if rank == 0 {
                let mut dt_min = cursor.dt;
                let mut newly_dead: Vec<usize> = Vec::new();
                let peers: Vec<usize> = alive.iter().copied().filter(|&p| p != 0).collect();
                for &peer in &peers {
                    match recv_robust(
                        &mut comm,
                        peer,
                        round_tag(epoch, cursor.steps, P_GATHER),
                        cfg.link_timeout,
                        cfg.link_attempts,
                        cfg.redundancy as u32,
                    ) {
                        Ok(v) => dt_min = dt_min.min(v[0]),
                        Err(CommError::PeerDead { .. }) | Err(CommError::Timeout { .. }) => {
                            newly_dead.push(peer);
                        }
                        Err(e) => return Err(failed(e)),
                    }
                }
                let mut payload = vec![dt_min, newly_dead.len() as f64];
                payload.extend(newly_dead.iter().map(|&d| d as f64));
                // Broadcast to everyone still believed alive at round start:
                // truly dead ranks never read it, falsely-accused ones take
                // it as their eviction notice.
                for &peer in &peers {
                    send_redundant(
                        &comm,
                        peer,
                        round_tag(epoch, cursor.steps, P_BCAST),
                        &payload,
                        cfg.redundancy,
                    );
                }
                (dt_min, newly_dead)
            } else {
                send_redundant(
                    &comm,
                    0,
                    round_tag(epoch, cursor.steps, P_GATHER),
                    &[cursor.dt],
                    cfg.redundancy,
                );
                if comm.is_dead() {
                    return Err(RankOutcome::Died { at_step: cursor.steps });
                }
                let v = recv_robust(
                    &mut comm,
                    0,
                    round_tag(epoch, cursor.steps, P_BCAST),
                    cfg.link_timeout,
                    cfg.link_attempts * 4,
                    cfg.redundancy as u32,
                )
                .map_err(|e| failed(format!("lost the coordinator: {e}")))?;
                let n_dead = v[1] as usize;
                let newly_dead: Vec<usize> =
                    v[2..2 + n_dead].iter().map(|&x| x as usize).collect();
                if newly_dead.contains(&rank) {
                    // The coordinator gave up on us; exit to keep agreement.
                    return Err(RankOutcome::Died { at_step: cursor.steps });
                }
                (v[0], newly_dead)
            };

            // ---- rank-death recovery -----------------------------------
            if !newly_dead.is_empty() {
                dead_seen.extend_from_slice(&newly_dead);
                alive.retain(|r| !newly_dead.contains(r));
                let exec = hydro.executor_mut();
                exec.note_rank_deaths(newly_dead.len() as u64);
                exec.bill_recovery_quiesce(RECOVERY_QUIESCE_S);
                let (shrunk, slots) = partition.shrink_to_fit(&mesh, &alive);
                partition = shrunk;
                my_slot = slots[rank].expect("survivors keep a slot");
                reset_balancer(hydro.executor_mut());
                assert!(hydro.rollback(&mut state, cursor, &store), "generation 0 always exists");
                // Mark the end of the recovery window on the cluster lane.
                let exec = hydro.executor();
                exec.telemetry().instant(
                    blast_telemetry::Track::Cluster,
                    blast_telemetry::names::phases::RECOVERY_COMPLETE,
                    exec.host.now(),
                );
                epoch += 1;
                continue;
            }

            // ---- one accepted step at the consensus dt -----------------
            cursor.dt = dt_min;
            hydro.advance(&mut state, cursor, cfg.t_final, policy, &mut store).map_err(failed)?;
        }
        Ok(())
    })();

    let exec = hydro.executor();
    let host_trace = exec.host.power_trace();
    let mut energy_j = host_trace.energy(0.0, host_trace.end_time());
    if let Some(g) = &exec.gpu {
        let t = g.power_trace();
        energy_j += t.energy(0.0, t.end_time());
    }
    let (steps, retries) = begun.map_or((0, 0), |c| (c.steps, c.retries));
    RankResult {
        rank,
        outcome: ended.err().unwrap_or(RankOutcome::Completed),
        state,
        steps,
        retries,
        report: exec.resilience_report(retries),
        energy_j,
        comm_stats: comm.fault_stats(),
        dead_seen,
        zones_before,
        zones_after: partition.zones_of_rank(my_slot).len(),
        seed,
    }
}

/// An unrecoverable solver or protocol error, carried for diagnosis.
fn failed(e: impl std::fmt::Display) -> RankOutcome {
    RankOutcome::Failed { detail: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            link_timeout: Duration::from_millis(15),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn healthy_campaign_completes_in_agreement() {
        let cfg = quick_cfg();
        let results =
            run_chaos_campaign(&cfg, ClusterFaultPlan::none(), |_| FaultPlan::none());
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.outcome, RankOutcome::Completed, "rank {}: {:?}", r.rank, r.outcome);
            assert!(r.report.checkpoints_written > 0, "coordinated cadence must fire");
            assert_eq!(r.report.rank_deaths, 0);
            assert_eq!(r.state.v, results[0].state.v, "replicated state must agree");
            assert_eq!(r.state.t, results[0].state.t);
        }
    }

    #[test]
    fn rank_death_recovers_onto_survivors_bit_identically() {
        let cfg = quick_cfg();
        let fault_free =
            run_chaos_campaign(&cfg, ClusterFaultPlan::none(), |_| FaultPlan::none());
        assert!(fault_free[0].steps >= 4, "need room for a mid-run death: {}", fault_free[0].steps);

        // Rank 2 dies two consensus rounds in (each round = `redundancy`
        // gather sends), well before the fault-free run's end.
        let plan = ClusterFaultPlan::none().with_rank_death(2, 2 * cfg.redundancy as u64);
        let results = run_chaos_campaign(&cfg, plan, |_| FaultPlan::none());

        assert!(matches!(results[2].outcome, RankOutcome::Died { .. }), "{:?}", results[2].outcome);
        for r in &results[..2] {
            assert_eq!(r.outcome, RankOutcome::Completed, "rank {}: {:?}", r.rank, r.outcome);
            assert_eq!(r.dead_seen, vec![2]);
            assert_eq!(r.report.rank_deaths, 1);
            assert!(r.report.restores >= 1, "recovery must restore a checkpoint");
            assert!(r.report.resilience_energy_j > 0.0, "recovery must cost energy");
            assert!(
                r.zones_after >= r.zones_before,
                "shrink-to-fit never shrinks a survivor: {} -> {}",
                r.zones_before,
                r.zones_after
            );
            // Deterministic replication: the recovered trajectory matches
            // the fault-free run exactly.
            assert_eq!(r.state.v, fault_free[r.rank].state.v, "rank {}", r.rank);
            assert_eq!(r.state.e, fault_free[r.rank].state.e, "rank {}", r.rank);
            assert_eq!(r.state.t, fault_free[r.rank].state.t);
        }
        // The shrunk partition covers the whole mesh with the survivors.
        let total: usize = results[..2].iter().map(|r| r.zones_after).sum();
        assert_eq!(total, cfg.zones * cfg.zones, "survivors own every zone");
    }
}
