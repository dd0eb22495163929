//! Chaos-campaign acceptance test (PR 2's tentpole): a seeded fault plan
//! kills a rank, drops and corrupts messages, and lands a persistent device
//! fault, yet the Sedov campaign reaches `t_final` with a final state that
//! matches the fault-free run **exactly** (documented tolerance: 0 —
//! replication is bit-identical, see DESIGN.md §9), while the resilience
//! machinery bills nonzero checkpoint/restore/rank-death work.

use blast_repro::blast_core::{CheckpointPolicy, CheckpointStore, ExecMode, Executor, Hydro, RunConfig, Sedov};
use blast_repro::cluster_sim::{
    campaign_overhead_pct, run_chaos_campaign, CampaignConfig, RankOutcome,
};
use blast_repro::cluster_sim::comm::ClusterFaultPlan;
use blast_repro::gpu_sim::{CpuSpec, FaultKind, FaultPlan, FAULT_SEED_ENV};

fn cpu_exec() -> Executor {
    Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None)
}

/// The headline chaos campaign: >= 1 rank death, >= 1 persistent device
/// fault, message drops and corruption — all at once.
#[test]
fn chaos_campaign_survives_deaths_drops_and_device_faults() {
    let cfg = CampaignConfig::default();

    // Fault-free reference trajectory.
    let reference = run_chaos_campaign(&cfg, ClusterFaultPlan::none(), |_| FaultPlan::none());
    for r in &reference {
        assert_eq!(r.outcome, RankOutcome::Completed, "reference rank {}: {:?}", r.rank, r.outcome);
    }
    assert!(reference[0].steps >= 6, "reference too short: {} steps", reference[0].steps);
    assert!(
        reference[0].state.t >= cfg.t_final - 1e-12,
        "reference must reach t_final"
    );

    // The chaos plan. The seed comes from one place and is overridable via
    // BLAST_FAULT_SEED (satellite: env-var plumbing + printed seed).
    // The death lands mid-round (not on a round boundary), so part of the
    // dying rank's final gather burst is suppressed in flight.
    let plan = ClusterFaultPlan::seeded_from_env(42)
        .with_drop_rate(0.03)
        .with_corrupt_rate(0.02)
        .with_rank_death(2, 2 * cfg.redundancy as u64 + 2);
    let seed = plan.seed;
    println!("chaos campaign fault seed: {seed} (override with {FAULT_SEED_ENV})");

    let results = run_chaos_campaign(&cfg, plan, |rank| {
        if rank == 1 {
            // Persistent mid-run device fault: rank 1 degrades to the CPU
            // path (bit-identically) and keeps going.
            FaultPlan::seeded_from_env(42).with_persistent(FaultKind::EccError, 500)
        } else {
            FaultPlan::none()
        }
    });

    // The scheduled death fired and was agreed on.
    assert!(
        matches!(results[2].outcome, RankOutcome::Died { .. }),
        "rank 2 should die: {:?}",
        results[2].outcome
    );
    for r in &results[..2] {
        assert_eq!(r.outcome, RankOutcome::Completed, "rank {}: {:?}", r.rank, r.outcome);
        assert_eq!(r.dead_seen, vec![2], "rank {} dead set", r.rank);
        assert!(r.report.rank_deaths >= 1, "rank {} must record the death", r.rank);
        assert!(r.report.checkpoints_written >= 2, "rank {}: {:?}", r.rank, r.report);
        assert!(r.report.restores >= 1, "recovery must restore: rank {}", r.rank);
        assert!(r.report.resilience_energy_j > 0.0, "resilience must cost joules");
        assert!(
            r.state.t >= cfg.t_final - 1e-12,
            "rank {} must reach t_final (t = {})",
            r.rank,
            r.state.t
        );
        // Documented tolerance: exact. Replicated physics is bit-identical
        // (CPU degrade included), dt consensus is a min over identical
        // values, and checkpoint replay is deterministic.
        let reference_state = &reference[r.rank].state;
        assert_eq!(r.state.v, reference_state.v, "rank {} velocity", r.rank);
        assert_eq!(r.state.e, reference_state.e, "rank {} energy", r.rank);
        assert_eq!(r.state.x, reference_state.x, "rank {} mesh", r.rank);
        assert_eq!(r.state.t, reference_state.t);
    }

    // The persistent device fault really fired on rank 1.
    assert!(
        results[1].report.degraded_to_cpu,
        "rank 1's persistent ECC fault must degrade it: {:?}",
        results[1].report
    );
    assert!(results[1].report.faults_injected >= 1);

    // Messages were actually dropped and corrupted somewhere.
    let dropped: usize = results.iter().map(|r| r.comm_stats.dropped).sum();
    let corrupted: usize = results.iter().map(|r| r.comm_stats.corrupted).sum();
    assert!(dropped + corrupted > 0, "chaos plan must interfere with traffic");
    let suppressed: usize = results.iter().map(|r| r.comm_stats.suppressed).sum();
    assert!(suppressed > 0, "the dead rank's sends must be suppressed");

    // Resilience overhead is reportable alongside greenup.
    let overhead = campaign_overhead_pct(&results[..2]);
    assert!(overhead > 0.0, "overhead must be attributable");
    assert!(overhead < 50.0, "overhead should stay a minor share: {overhead}%");
    println!("resilience overhead: {overhead:.3}% of campaign energy");
    for r in &results[..2] {
        println!("--- rank {} ---\n{}", r.rank, r.report.summary());
    }
    // One digest line per surviving rank: CI runs this campaign at
    // BLAST_THREADS = 1 and 8 and diffs these lines, so the digest must
    // cover every physics bit of the final state.
    for r in &results[..2] {
        println!("final state digest rank {}: {:016x}", r.rank, state_digest(&r.state));
    }
}

/// FNV-1a over the bit patterns of the full final state `(v, e, x, t)`.
fn state_digest(s: &blast_repro::blast_core::HydroState) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in s.v.iter().chain(&s.e).chain(&s.x).chain(std::iter::once(&s.t)) {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Solver-level checksum fallback: a flipped byte in the newest checkpoint
/// generation is rejected via CRC and restart falls back to the previous
/// generation, still finishing bit-identically.
#[test]
fn flipped_byte_checkpoint_falls_back_a_generation() {
    let policy = CheckpointPolicy::EverySteps(2);
    let problem = Sedov::default();

    // Uninterrupted reference.
    let mut h_ref = Hydro::<2>::builder(&problem, [4, 4]).executor(cpu_exec()).build().unwrap();
    let mut s_ref = h_ref.initial_state();
    let mut ref_store = CheckpointStore::in_memory();
    let stats_ref = h_ref
        .run(&mut s_ref, RunConfig::to(0.06).max_steps(60).checkpointed(policy, &mut ref_store))
        .unwrap();
    assert!(stats_ref.steps >= 5, "need several generations: {}", stats_ref.steps);

    // First half, then "the process dies".
    let mut h1 = Hydro::<2>::builder(&problem, [4, 4]).executor(cpu_exec()).build().unwrap();
    let mut s1 = h1.initial_state();
    let mut store = CheckpointStore::in_memory();
    h1.run(&mut s1, RunConfig::to(0.06).max_steps(stats_ref.steps - 1).checkpointed(policy, &mut store)).unwrap();
    assert!(store.generations() >= 2, "need a generation to fall back to");
    drop((h1, s1));

    // Bit-rot strikes the newest generation.
    let image = store.image_mut(0).expect("newest generation");
    let mid = image.len() / 2;
    image[mid] ^= 0x40;

    // Restart: the corrupt generation is skipped, the previous one loads.
    let loaded = store.latest_valid().expect("must fall back, not fail");
    assert_eq!(loaded.skipped, 1, "exactly the flipped-byte generation is skipped");

    let mut h2 = Hydro::<2>::builder(&problem, [4, 4]).executor(cpu_exec()).build().unwrap();
    let mut s2 = h2.initial_state();
    let stats2 = h2.run(&mut s2, RunConfig::to(0.06).max_steps(60).checkpointed(policy, &mut store)).unwrap();
    assert_eq!(stats2.steps, stats_ref.steps);
    assert_eq!(s2.v, s_ref.v, "resume after fallback must stay bit-identical");
    assert_eq!(s2.e, s_ref.e);
    assert_eq!(s2.x, s_ref.x);
    let rep = h2.executor().resilience_report(stats2.retries);
    assert_eq!(rep.restores, 1);
}
