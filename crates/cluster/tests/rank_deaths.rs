//! A chaos campaign survives more than one rank death.

use cluster_sim::recovery::{run_chaos_campaign, CampaignConfig, RankOutcome};
use cluster_sim::ClusterFaultPlan;
use gpu_sim::FaultPlan;

/// Rank 1 is scheduled to die; under seed 2's drops and corruptions the
/// coordinator later evicts a second rank. Each recovery shrinks the
/// partition from the launch one, whose rank ids the survivor list holds,
/// so the second shrink neither panics nor loses a zone, and every rank
/// still completing agrees on the state.
#[test]
fn a_second_rank_death_shrinks_onto_the_survivors() {
    let cfg = CampaignConfig { ranks: 4, ..CampaignConfig::default() };
    let plan =
        ClusterFaultPlan::seeded(2).with_drop_rate(0.2).with_corrupt_rate(0.1).with_rank_death(1, 6);
    let results = run_chaos_campaign(&cfg, plan, |_| FaultPlan::none());

    let coordinator = &results[0];
    assert_eq!(coordinator.outcome, RankOutcome::Completed);
    assert_eq!(coordinator.dead_seen.len(), 2, "{:?}", coordinator.dead_seen);
    assert!(coordinator.dead_seen.contains(&1), "{:?}", coordinator.dead_seen);
    let survivors: Vec<_> =
        results.iter().filter(|r| !coordinator.dead_seen.contains(&r.rank)).collect();
    assert_eq!(survivors.len(), 2);
    for r in &survivors {
        assert_eq!(r.outcome, RankOutcome::Completed, "rank {}", r.rank);
        assert_eq!(r.dead_seen, coordinator.dead_seen, "rank {}", r.rank);
        assert_eq!(r.report.rank_deaths, 2, "rank {}", r.rank);
        assert_eq!(r.state.v, coordinator.state.v, "rank {}", r.rank);
        assert_eq!(r.state.t, coordinator.state.t, "rank {}", r.rank);
    }
    let owned: usize = survivors.iter().map(|r| r.zones_after).sum();
    assert_eq!(owned, cfg.zones * cfg.zones, "the survivors own every zone");
}
