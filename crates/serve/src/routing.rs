//! Greenup-driven energy-aware routing: which fleet device should run a
//! job, given its latency SLO?
//!
//! The [`Router`] wraps a [`DeviceCatalog`] and answers with pilots: for
//! every device (and every candidate execution mode on it — see
//! [`blast_core::fleet::candidate_modes`]) it advances a few real steps
//! of the job's scenario on a throwaway solver and reads modeled wall
//! clock and joules off the same simulated meters that bill production
//! attempts. Whole-run predictions extrapolate the pilot windows; the
//! router then
//!
//! 1. keeps the candidates whose predicted wall time meets the job's
//!    deadline (all of them when the job has no deadline),
//! 2. places the job on the **cheapest-energy** feasible candidate
//!    (catalog order breaks ties),
//! 3. falls back to the *fastest* candidate when nothing meets the SLO
//!    (flagged `slo_forced` — the SLO, not energy, picked the device),
//! 4. reports the pick's [`Greenup`] against the cheapest CPU-only
//!    candidate, the paper's energy-efficiency figure of merit.
//!
//! Pilots are cached per `(scenario, zones, order)` workload shape, so a
//! stream of similar submissions pays the survey once. Everything runs on
//! spec-derived thread counts and modeled meters, so decisions are
//! bit-deterministic across `BLAST_THREADS` and reruns.

use std::collections::BTreeMap;

use blast_core::fleet::{self, DevicePilot, Prediction, PILOT_STEPS};
use blast_core::{HydroConfig, HydroError};
use gpu_sim::{DeviceCatalog, DeviceSpec};
use powermon::{EnergyReport, Greenup};

use crate::job::{JobSpec, Placement, Scenario};

/// Cache key: the workload shape a pilot survey is valid for.
type SurveyKey = (&'static str, [usize; 2], usize);

/// An energy-aware placement engine over a device catalog.
///
/// Stateful only in its pilot cache; routing itself is a pure function of
/// the catalog and the job spec. See the module docs for the policy.
#[derive(Clone, Debug)]
pub struct Router {
    catalog: DeviceCatalog,
    cache: BTreeMap<SurveyKey, Vec<DevicePilot>>,
}

/// Why a job landed where it did: the placement, the winning prediction,
/// every surveyed candidate, and the greenup of the pick.
#[derive(Clone, Debug)]
pub struct RoutingDecision {
    /// The pin to attach to the [`JobSpec`] (device id + execution mode).
    pub placement: Placement,
    /// The winning candidate's whole-run prediction.
    pub predicted: Prediction,
    /// Every surveyed candidate's prediction, catalog order (devices that
    /// cannot fit the problem are absent).
    pub candidates: Vec<Prediction>,
    /// True when no candidate met the deadline and the router fell back
    /// to the fastest one, or when the SLO excluded the cheapest-energy
    /// candidate — either way the SLO, not energy, picked the device.
    pub slo_forced: bool,
    /// Greenup of the pick versus the cheapest CPU-only candidate
    /// (`None` when the catalog has no CPU-only device that fits).
    pub greenup: Option<Greenup>,
}

impl RoutingDecision {
    /// Predicted joules saved versus the cheapest CPU-only candidate,
    /// as a fraction of the CPU-only energy (negative = the pick costs
    /// more). `None` without a CPU-only baseline.
    pub fn energy_saving_fraction(&self) -> Option<f64> {
        self.greenup.map(|g| g.energy_saving_fraction())
    }
}

impl Router {
    /// A router over `catalog`, piloting [`PILOT_STEPS`] marginal steps
    /// per candidate.
    pub fn new(catalog: DeviceCatalog) -> Self {
        Self { catalog, cache: BTreeMap::new() }
    }

    /// The catalog this router places onto.
    pub fn catalog(&self) -> &DeviceCatalog {
        &self.catalog
    }

    /// Routes `spec`: surveys the fleet for its workload shape (cached),
    /// extrapolates each candidate to the job's `t_final` / `max_steps`,
    /// and applies the SLO-then-energy policy. Fails only when *no*
    /// device in the catalog can run the problem at all.
    pub fn route(&mut self, spec: &JobSpec) -> Result<RoutingDecision, HydroError> {
        let pilots = self.survey(spec.scenario, spec.zones, spec.order)?;
        let candidates: Vec<Prediction> =
            pilots.iter().map(|p| p.predict(spec.t_final, spec.max_steps)).collect();

        // Index of the strictly-cheapest candidate (first wins ties →
        // catalog order), optionally filtered by a predicate.
        let cheapest = |keep: &dyn Fn(&Prediction) -> bool| -> Option<usize> {
            let mut best: Option<usize> = None;
            for (i, c) in candidates.iter().enumerate() {
                if !keep(c) {
                    continue;
                }
                if best.is_none_or(|b| c.energy_j < candidates[b].energy_j) {
                    best = Some(i);
                }
            }
            best
        };

        let unconstrained = cheapest(&|_| true).expect("survey is never empty");
        let (chosen, slo_forced) = match spec.deadline_s {
            None => (unconstrained, false),
            Some(deadline) => match cheapest(&|c| c.wall_s <= deadline) {
                Some(i) => (i, i != unconstrained),
                None => {
                    // Nothing meets the SLO: least-bad = fastest.
                    let mut fastest = 0;
                    for (i, c) in candidates.iter().enumerate() {
                        if c.wall_s < candidates[fastest].wall_s {
                            fastest = i;
                        }
                    }
                    (fastest, true)
                }
            },
        };

        let pick = &candidates[chosen];
        let greenup = self.cpu_baseline(&candidates).map(|cpu| {
            Greenup::compare(
                EnergyReport::new(cpu.wall_s, cpu.energy_j / cpu.wall_s),
                EnergyReport::new(pick.wall_s, pick.energy_j / pick.wall_s),
            )
        });

        Ok(RoutingDecision {
            placement: Placement {
                device_id: pick.device_id.clone(),
                mode: pick.mode.clone(),
            },
            predicted: pick.clone(),
            candidates: candidates.clone(),
            slo_forced,
            greenup,
        })
    }

    /// The cheapest-energy candidate on a CPU-only catalog device — the
    /// greenup baseline ("CPU only", paper §5).
    fn cpu_baseline<'a>(&self, candidates: &'a [Prediction]) -> Option<&'a Prediction> {
        let mut best: Option<&Prediction> = None;
        for c in candidates {
            let cpu_only =
                self.catalog.lookup(&c.device_id).is_some_and(|d: &DeviceSpec| !d.has_gpu());
            if cpu_only && best.is_none_or(|b| c.energy_j < b.energy_j) {
                best = Some(c);
            }
        }
        best
    }

    /// Pilots every `(device, candidate mode)` pair of the catalog for
    /// one workload shape, memoized. Devices that cannot run the problem
    /// are skipped; errors surface only when nothing survives.
    fn survey(
        &mut self,
        scenario: Scenario,
        zones: [usize; 2],
        order: usize,
    ) -> Result<&[DevicePilot], HydroError> {
        let key: SurveyKey = (scenario.name(), zones, order);
        if !self.cache.contains_key(&key) {
            let config = HydroConfig { order, ..HydroConfig::default() };
            let problem = scenario.problem();
            let mut pilots = Vec::new();
            let mut last_err = None;
            for dev in self.catalog.devices() {
                for mode in fleet::candidate_modes(dev) {
                    match fleet::pilot_device(&*problem, zones, &config, dev, mode, PILOT_STEPS) {
                        Ok(p) => pilots.push(p),
                        Err(e) => last_err = Some(e),
                    }
                }
            }
            if pilots.is_empty() {
                return Err(
                    last_err.unwrap_or(HydroError::OutOfMemory { required: 0, available: 0 })
                );
            }
            self.cache.insert(key, pilots);
        }
        Ok(&self.cache[&key])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_core::ExecMode;

    fn fleet3() -> DeviceCatalog {
        DeviceCatalog::standard_subset(&["cpu-e5-2670", "k20", "ampere"])
    }

    #[test]
    fn route_surveys_every_candidate_and_pins_a_catalog_device() {
        let mut router = Router::new(fleet3());
        let spec = JobSpec { zones: [6, 6], t_final: 0.02, ..JobSpec::default() };
        let d = router.route(&spec).expect("fleet can run sedov");
        // 1 CPU candidate + 2 modes on each of the 2 GPUs.
        assert_eq!(d.candidates.len(), 5);
        assert!(router.catalog().lookup(&d.placement.device_id).is_some());
        assert!(!d.slo_forced);
        // The pick is the cheapest-energy candidate overall.
        let min = d.candidates.iter().map(|c| c.energy_j).fold(f64::INFINITY, f64::min);
        assert_eq!(d.predicted.energy_j, min);
        // Greenup vs the CPU-only baseline exists and is self-consistent.
        let g = d.greenup.expect("e5-2670 is a CPU-only baseline");
        assert!((g.greenup - g.powerup * g.speedup).abs() < 1e-12);
    }

    #[test]
    fn routing_decisions_are_deterministic_across_thread_counts() {
        let spec = JobSpec { zones: [6, 6], t_final: 0.02, ..JobSpec::default() };
        let route = || {
            let mut router = Router::new(fleet3());
            router.route(&spec).expect("routable")
        };
        let a = rayon::Pool::new(1).install(route);
        let b = rayon::Pool::new(8).install(route);
        assert_eq!(a.placement.device_id, b.placement.device_id);
        assert_eq!(a.placement.mode, b.placement.mode);
        assert_eq!(a.predicted.energy_j.to_bits(), b.predicted.energy_j.to_bits());
        assert_eq!(a.predicted.wall_s.to_bits(), b.predicted.wall_s.to_bits());
    }

    #[test]
    fn an_impossible_slo_forces_the_fastest_candidate() {
        let mut router = Router::new(fleet3());
        let relaxed = JobSpec { zones: [6, 6], t_final: 0.02, ..JobSpec::default() };
        let free = router.route(&relaxed).expect("routable");
        let tight = JobSpec { deadline_s: Some(1e-12), ..relaxed };
        let forced = router.route(&tight).expect("still routable");
        assert!(forced.slo_forced);
        let fastest =
            free.candidates.iter().map(|c| c.wall_s).fold(f64::INFINITY, f64::min);
        assert_eq!(forced.predicted.wall_s, fastest);
    }

    #[test]
    fn a_generous_slo_keeps_the_cheapest_candidate() {
        let mut router = Router::new(fleet3());
        let spec = JobSpec {
            zones: [6, 6],
            t_final: 0.02,
            deadline_s: Some(1e12),
            ..JobSpec::default()
        };
        let d = router.route(&spec).expect("routable");
        assert!(!d.slo_forced);
    }

    #[test]
    fn the_survey_cache_reuses_pilots_per_workload_shape() {
        let mut router = Router::new(fleet3());
        let a = JobSpec { zones: [6, 6], t_final: 0.02, ..JobSpec::default() };
        let b = JobSpec { zones: [6, 6], t_final: 0.04, max_steps: 9, ..a.clone() };
        let da = router.route(&a).expect("routable");
        let db = router.route(&b).expect("routable");
        assert_eq!(router.cache.len(), 1);
        // Same pilots, different extrapolation horizons.
        assert!(db.candidates.iter().all(|c| c.steps <= 9));
        assert_eq!(da.candidates.len(), db.candidates.len());
    }

    #[test]
    fn survey_skips_devices_the_problem_cannot_fit() {
        // A 1-byte-DRAM GPU can never hold the working set: the survey
        // skips it and routes on the devices that fit, and a catalog of
        // such devices alone is the typed out-of-memory error.
        let tiny = |id: &str| {
            DeviceSpec::builder(id)
                .host(gpu_sim::CpuSpec::e5_2670())
                .gpu(gpu_sim::GpuSpec { dram_capacity: 1, ..DeviceCatalog::gpu("k20") })
                .build()
        };
        let spec = JobSpec { zones: [4, 4], t_final: 0.02, ..JobSpec::default() };
        let mut cat = fleet3();
        cat.insert(tiny("tiny-vram"));
        let d = Router::new(cat).route(&spec).expect("three devices fit");
        let ids: Vec<&str> = d.candidates.iter().map(|c| c.device_id.as_str()).collect();
        assert_eq!(ids, ["cpu-e5-2670", "k20", "k20", "ampere", "ampere"]);

        let mut all_tiny = DeviceCatalog::new();
        all_tiny.insert(tiny("tiny-a"));
        all_tiny.insert(tiny("tiny-b"));
        let err = Router::new(all_tiny).route(&spec).expect_err("nothing fits");
        assert!(matches!(err, HydroError::OutOfMemory { available: 1, .. }), "{err:?}");
    }

    #[test]
    fn cpu_only_fleets_route_without_a_gpu_mode() {
        let mut router =
            Router::new(DeviceCatalog::standard_subset(&["cpu-e5-2670", "xeon-phi"]));
        let spec = JobSpec { zones: [4, 4], t_final: 0.02, ..JobSpec::default() };
        let d = router.route(&spec).expect("cpu fleet routes");
        assert!(matches!(
            d.placement.mode,
            ExecMode::CpuParallel { .. } | ExecMode::CpuSerial
        ));
        assert!(d.greenup.is_some());
    }
}
