//! Acceptance gates for the heterogeneous-fleet routing layer: the
//! greenup-driven router's decisions are bit-deterministic across host
//! pool sizes and supervisor seeds, and a routed job's *physics* is
//! bitwise independent of which catalog device the router picked — the
//! device models change only the simulated time/energy axis, never the
//! math, so routing can reshuffle placement freely without perturbing
//! results.

use blast_repro::blast_core::fleet;
use blast_repro::blast_serve::{
    JobOutcome, JobSpec, Placement, Router, Scenario, ServeConfig, Supervisor, WorkerSpec,
};
use blast_repro::gpu_sim::DeviceCatalog;

const FLEET: [&str; 3] = ["cpu-e5-2670", "k20", "ampere"];

fn fleet_workers() -> Vec<WorkerSpec> {
    FLEET.iter().map(|id| WorkerSpec::from_device(&DeviceCatalog::get(id))).collect()
}

fn mixed_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec {
            tenant: "acme".to_string(),
            scenario: Scenario::Sedov,
            zones: [4, 4],
            t_final: 0.008,
            max_steps: 8,
            deadline_s: Some(30.0),
            checkpoint_every: 0,
            ..JobSpec::default()
        },
        JobSpec {
            tenant: "globex".to_string(),
            scenario: Scenario::TaylorGreen,
            zones: [8, 8],
            t_final: 0.01,
            max_steps: 8,
            arrival_s: 1e-4,
            deadline_s: Some(30.0),
            checkpoint_every: 0,
            ..JobSpec::default()
        },
        JobSpec {
            tenant: "initech".to_string(),
            scenario: Scenario::TriplePoint,
            zones: [10, 10],
            order: 3,
            t_final: 0.012,
            max_steps: 8,
            arrival_s: 2e-4,
            deadline_s: Some(30.0),
            checkpoint_every: 0,
            ..JobSpec::default()
        },
    ]
}

/// One routed run: returns the placements the router made (device id +
/// rendered mode) and the final ledger digest.
fn routed_run(seed: u64) -> (Vec<(String, String)>, u64) {
    let mut router = Router::new(DeviceCatalog::standard_subset(&FLEET));
    let mut sup =
        Supervisor::new(ServeConfig { seed, ..ServeConfig::default() }, fleet_workers());
    let mut placements = Vec::new();
    for spec in mixed_jobs() {
        let (_, d) = sup.submit_routed(&mut router, spec).expect("fleet admits job");
        placements
            .push((d.placement.device_id.clone(), format!("{:?}", d.placement.mode)));
    }
    let report = sup.run_to_completion();
    assert!(report.all_terminal());
    assert_eq!(
        report.count(|o| matches!(o, JobOutcome::Completed { .. })),
        3,
        "routed jobs must all complete:\n{}",
        report.summary()
    );
    (placements, report.ledger_digest())
}

/// Routing decisions and the resulting ledger must be reproducible
/// bit-for-bit across `BLAST_THREADS`-style pool sizes, and the
/// *placements* must not depend on the supervisor's chaos seed either
/// (the seed feeds retry jitter, not the router).
#[test]
fn routing_is_deterministic_across_thread_counts_and_seeds() {
    let (p1, d1) = rayon::Pool::new(1).install(|| routed_run(42));
    let (p8, d8) = rayon::Pool::new(8).install(|| routed_run(42));
    assert_eq!(p1, p8, "placements drifted with the pool size");
    assert_eq!(d1, d8, "ledger digest drifted with the pool size");

    let (p_seed, _) = routed_run(7);
    assert_eq!(p1, p_seed, "placements drifted with the supervisor seed");
}

/// The same job, pinned in turn to every fleet device under the mode the
/// router would derive there, must complete with a bitwise-identical
/// final state: the catalog entries differ in cost and power models
/// only. (This is what makes energy-aware routing *free* — no
/// physics-regression risk in moving a tenant between devices.)
#[test]
fn routed_results_are_bitwise_identical_regardless_of_device() {
    let job = JobSpec {
        tenant: "probe".to_string(),
        scenario: Scenario::TriplePoint,
        zones: [6, 6],
        t_final: 0.01,
        max_steps: 8,
        checkpoint_every: 0,
        ..JobSpec::default()
    };
    let mut finals = Vec::new();
    for id in FLEET {
        let dev = DeviceCatalog::get(id);
        let mut sup =
            Supervisor::new(ServeConfig::default(), vec![WorkerSpec::from_device(&dev)]);
        let pinned = JobSpec {
            placement: Some(Placement {
                device_id: id.to_string(),
                mode: fleet::derive_mode(&dev),
            }),
            ..job.clone()
        };
        sup.submit(pinned).expect("admits");
        let report = sup.run_to_completion();
        assert!(
            matches!(report.jobs[0].outcome, Some(JobOutcome::Completed { .. })),
            "{id}: {}",
            report.summary()
        );
        finals.push((id, report.jobs[0].final_state.clone().expect("final state")));
    }
    let (rid, reference) = &finals[0];
    for (id, s) in &finals[1..] {
        let same = reference.v.iter().zip(&s.v).all(|(a, b)| a.to_bits() == b.to_bits())
            && reference.e.iter().zip(&s.e).all(|(a, b)| a.to_bits() == b.to_bits())
            && reference.x.iter().zip(&s.x).all(|(a, b)| a.to_bits() == b.to_bits())
            && reference.t.to_bits() == s.t.to_bits();
        assert!(same, "final state on {id} differs bitwise from {rid}");
    }
}
