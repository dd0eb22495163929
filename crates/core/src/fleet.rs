//! Fleet-level device selection: pilot-based per-device cost prediction.
//!
//! The paper's greenup methodology compares *measured* energy and wall
//! time across configurations of one node. A fleet generalizes the
//! question: given several device generations (see
//! `gpu_sim::DeviceCatalog`), which one should run this job? Analytic
//! per-device step models drift from the billing meters the moment either
//! changes, so this module predicts by **piloting**: it builds a
//! throwaway solver on each candidate device, advances a handful of real
//! steps, and reads the modeled wall clock and joules off the same
//! simulated power meters that bill production runs. The predictor and
//! the biller are one code path — a routing decision that looks cheaper
//! here *is* cheaper on the ledger.
//!
//! Two windows are measured: through the first accepted step (capturing
//! assembly, H2D staging, and first-step warm-up) and across
//! [`PILOT_STEPS`] further steps (the marginal per-step cost). Whole-run
//! predictions extrapolate `base + (steps - 1) x marginal` with the step
//! count estimated from the pilot's adaptive `dt`.
//!
//! Everything here is deterministic across thread counts: modes derive
//! thread counts from the device *spec* (never the ambient pool), and the
//! modeled meters are pure functions of kernel traffic.

use std::sync::Arc;

use gpu_sim::{DeviceCatalog, DeviceSpec, GpuDevice};

use crate::checkpoint::{CheckpointPolicy, CheckpointStore};
use crate::exec::{ExecMode, Executor};
use crate::problems::Problem;
use crate::solver::{Hydro, HydroConfig};
use crate::HydroError;

/// Marginal-window length of one pilot: accepted steps advanced *after*
/// the first-step window to measure the per-step cost.
pub const PILOT_STEPS: usize = 2;

/// Derives the execution mode a device runs standalone jobs under — the
/// mapping documented on [`ExecMode`]: GPU present means the offloaded
/// path with the device-side momentum solve, otherwise the OpenMP analog
/// across every core the spec has (serial when there is only one).
pub fn derive_mode(dev: &DeviceSpec) -> ExecMode {
    if dev.has_gpu() {
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }
    } else if dev.host.cores <= 1 {
        ExecMode::CpuSerial
    } else {
        ExecMode::CpuParallel { threads: dev.host.cores }
    }
}

/// The modes a router should *candidate* on a device: both momentum-solve
/// placements on a GPU (the paper's per-phase CPU/GPU split — whether
/// `dv/dt` or `-F·1` crosses PCIe depends on the problem size), the
/// single derived mode on a CPU-only box.
pub fn candidate_modes(dev: &DeviceSpec) -> Vec<ExecMode> {
    if dev.has_gpu() {
        vec![
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
            ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 1 },
        ]
    } else {
        vec![derive_mode(dev)]
    }
}

/// Builds an executor realizing `mode` on `dev`: the spec's host CPU, a
/// fresh simulated GPU when the spec carries one, and the catalog id
/// pinned.
pub fn executor_for(dev: &DeviceSpec, mode: ExecMode) -> Executor {
    let gpu = dev.gpu.as_ref().map(|g| Arc::new(GpuDevice::new(g.clone())));
    let mut exec = Executor::new(mode, dev.host.clone(), gpu);
    exec.set_device_id(dev.id.clone());
    exec
}

/// One pilot measurement: what `(device, mode)` cost to set up and what
/// each further step costs, read off the simulated meters.
#[derive(Clone, Debug)]
pub struct DevicePilot {
    /// Catalog id of the piloted device.
    pub device_id: String,
    /// The mode the pilot ran under.
    pub mode: ExecMode,
    /// Modeled seconds through the first accepted step (assembly + H2D +
    /// warm-up + one step).
    pub base_wall_s: f64,
    /// Modeled joules through the first accepted step (host + device).
    pub base_energy_j: f64,
    /// Marginal modeled seconds per accepted step.
    pub step_wall_s: f64,
    /// Marginal modeled joules per accepted step.
    pub step_energy_j: f64,
    /// Adaptive `dt` in effect after the pilot window — the step-count
    /// estimator for whole-run extrapolation.
    pub dt: f64,
    /// Steps in the marginal window.
    pub pilot_steps: usize,
}

/// A whole-run extrapolation of a [`DevicePilot`].
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Catalog id of the device.
    pub device_id: String,
    /// The mode the prediction assumes.
    pub mode: ExecMode,
    /// Estimated accepted steps to reach `t_final` (capped by the step
    /// budget).
    pub steps: usize,
    /// Predicted modeled wall seconds for the whole run.
    pub wall_s: f64,
    /// Predicted modeled joules for the whole run.
    pub energy_j: f64,
}

impl DevicePilot {
    /// Extrapolates this pilot to a whole run: `base + (steps - 1) x
    /// marginal`, with the step count estimated from the pilot's adaptive
    /// `dt` and capped at `max_steps`.
    pub fn predict(&self, t_final: f64, max_steps: usize) -> Prediction {
        let by_dt = if self.dt > 0.0 { (t_final / self.dt).ceil() as usize } else { usize::MAX };
        let steps = by_dt.max(1).min(max_steps.max(1));
        let extra = (steps - 1) as f64;
        Prediction {
            device_id: self.device_id.clone(),
            mode: self.mode.clone(),
            steps,
            wall_s: self.base_wall_s + extra * self.step_wall_s,
            energy_j: self.base_energy_j + extra * self.step_energy_j,
        }
    }
}

fn meters<const D: usize>(hydro: &Hydro<D>) -> (f64, f64) {
    let exec = hydro.executor();
    let gpu_j = exec.gpu.as_ref().map_or(0.0, |g| g.energy_joules());
    (exec.now(), exec.host.energy_joules() + gpu_j)
}

/// Pilots `(dev, mode)` on the given problem: builds a throwaway solver,
/// advances `1 + pilot_steps` accepted steps, and reports the two
/// measurement windows. Fails when the device cannot run the problem at
/// all (e.g. the stored working set exceeds its DRAM).
pub fn pilot_device<const D: usize>(
    problem: &dyn Problem<D>,
    zones: [usize; D],
    config: &HydroConfig,
    dev: &DeviceSpec,
    mode: ExecMode,
    pilot_steps: usize,
) -> Result<DevicePilot, HydroError> {
    let mut hydro = Hydro::builder(problem, zones)
        .config(*config)
        .executor(executor_for(dev, mode.clone()))
        .build()?;
    let mut state = hydro.initial_state();
    let mut store = CheckpointStore::in_memory();
    let mut cursor = hydro.begin(&mut state, &store)?;
    // A pilot has no end time to clamp onto and keeps no generation.
    let mut window = |n: usize| -> Result<(f64, f64), HydroError> {
        for _ in 0..n {
            hydro.advance(
                &mut state,
                &mut cursor,
                f64::INFINITY,
                CheckpointPolicy::Never,
                &mut store,
            )?;
        }
        Ok(meters(&hydro))
    };
    let steps = pilot_steps.max(1);
    let (w1, e1) = window(1)?;
    let (w2, e2) = window(steps)?;

    Ok(DevicePilot {
        device_id: dev.id.clone(),
        mode,
        base_wall_s: w1,
        base_energy_j: e1,
        step_wall_s: (w2 - w1) / steps as f64,
        step_energy_j: (e2 - e1) / steps as f64,
        dt: cursor.dt,
        pilot_steps: steps,
    })
}

/// Pilots every candidate mode on `dev` and keeps the one with the
/// cheapest marginal step energy.
pub fn pilot_best_mode<const D: usize>(
    problem: &dyn Problem<D>,
    zones: [usize; D],
    config: &HydroConfig,
    dev: &DeviceSpec,
    pilot_steps: usize,
) -> Result<DevicePilot, HydroError> {
    let mut best: Option<DevicePilot> = None;
    let mut last_err = None;
    for mode in candidate_modes(dev) {
        match pilot_device(problem, zones, config, dev, mode, pilot_steps) {
            Ok(p) => {
                let better =
                    best.as_ref().is_none_or(|b| p.step_energy_j < b.step_energy_j);
                if better {
                    best = Some(p);
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    best.ok_or_else(|| last_err.expect("candidate_modes is never empty"))
}

/// Pilots every device of `catalog` (best candidate mode each) and
/// returns the survivors in catalog order. Devices that cannot run the
/// problem (device-memory ceiling) are skipped; the error surfaces only
/// when *no* device survives.
pub fn survey_fleet<const D: usize>(
    problem: &dyn Problem<D>,
    zones: [usize; D],
    config: &HydroConfig,
    catalog: &DeviceCatalog,
    pilot_steps: usize,
) -> Result<Vec<DevicePilot>, HydroError> {
    let mut pilots = Vec::new();
    let mut last_err = None;
    for dev in catalog.devices() {
        match pilot_best_mode(problem, zones, config, dev, pilot_steps) {
            Ok(p) => pilots.push(p),
            Err(e) => last_err = Some(e),
        }
    }
    if pilots.is_empty() {
        return Err(last_err.unwrap_or(HydroError::OutOfMemory { required: 0, available: 0 }));
    }
    Ok(pilots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Sedov;
    use gpu_sim::CpuSpec;

    fn catalog3() -> DeviceCatalog {
        DeviceCatalog::standard_subset(&["cpu-e5-2670", "k20", "ampere"])
    }

    #[test]
    fn derived_modes_follow_the_documented_mapping() {
        let cat = DeviceCatalog::standard();
        assert!(matches!(
            derive_mode(&DeviceCatalog::get("k20")),
            ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }
        ));
        let cpu = cat.lookup("cpu-e5-2670").unwrap();
        assert!(
            matches!(derive_mode(cpu), ExecMode::CpuParallel { threads } if threads == cpu.host.cores)
        );
        let uni = DeviceSpec::builder("uni")
            .host(CpuSpec { cores: 1, ..CpuSpec::e5_2670() })
            .build();
        assert!(matches!(derive_mode(&uni), ExecMode::CpuSerial));
    }

    #[test]
    fn gpu_devices_candidate_both_momentum_placements() {
        let modes = candidate_modes(&DeviceCatalog::get("k20"));
        assert_eq!(modes.len(), 2);
        let pcg: Vec<bool> = modes
            .iter()
            .map(|m| match m {
                ExecMode::Gpu { gpu_pcg, .. } => *gpu_pcg,
                other => panic!("GPU device derived {other:?}"),
            })
            .collect();
        assert!(pcg.contains(&true) && pcg.contains(&false));
        assert_eq!(candidate_modes(&DeviceCatalog::get("cpu-e5-2670")).len(), 1);
    }

    #[test]
    fn executor_pins_the_catalog_id() {
        let dev = DeviceCatalog::get("k20");
        let exec = executor_for(&dev, derive_mode(&dev));
        assert_eq!(exec.device_id(), Some("k20"));
        assert!(exec.gpu.is_some());
    }

    #[test]
    fn pilot_windows_are_positive_and_extrapolate_monotonically() {
        let dev = DeviceCatalog::get("k20");
        let p = pilot_device(&Sedov::default(), [4, 4], &HydroConfig::default(), &dev, derive_mode(&dev), PILOT_STEPS)
            .expect("k20 fits a 4x4 Sedov");
        assert!(p.base_wall_s > 0.0 && p.base_energy_j > 0.0);
        assert!(p.step_wall_s > 0.0 && p.step_energy_j > 0.0);
        assert!(p.dt > 0.0);
        let short = p.predict(0.01, 400);
        let long = p.predict(0.05, 400);
        assert!(long.steps > short.steps);
        assert!(long.wall_s > short.wall_s && long.energy_j > short.energy_j);
        let capped = p.predict(1e9, 7);
        assert_eq!(capped.steps, 7);
    }

    #[test]
    fn pilots_are_deterministic_across_thread_counts() {
        let dev = DeviceCatalog::get("cpu-e5-2670");
        let run = || {
            pilot_best_mode(&Sedov::default(), [4, 4], &HydroConfig::default(), &dev, PILOT_STEPS)
                .expect("cpu pilot")
        };
        let a = rayon::Pool::new(1).install(run);
        let b = rayon::Pool::new(8).install(run);
        assert_eq!(a.base_wall_s.to_bits(), b.base_wall_s.to_bits());
        assert_eq!(a.base_energy_j.to_bits(), b.base_energy_j.to_bits());
        assert_eq!(a.step_energy_j.to_bits(), b.step_energy_j.to_bits());
        assert_eq!(a.dt.to_bits(), b.dt.to_bits());
    }

    #[test]
    fn survey_skips_devices_the_problem_cannot_fit() {
        // A 1-byte-DRAM GPU can never hold the working set; the survey
        // must skip it and still return the devices that fit.
        let tiny = DeviceSpec::builder("tiny-vram")
            .host(CpuSpec::e5_2670())
            .gpu(gpu_sim::GpuSpec { dram_capacity: 1, ..DeviceCatalog::gpu("k20") })
            .build();
        let mut cat = catalog3();
        cat.insert(tiny);
        let pilots =
            survey_fleet(&Sedov::default(), [4, 4], &HydroConfig::default(), &cat, 1)
                .expect("three devices fit");
        let ids: Vec<&str> = pilots.iter().map(|p| p.device_id.as_str()).collect();
        assert_eq!(ids, ["cpu-e5-2670", "k20", "ampere"]);
    }
}
